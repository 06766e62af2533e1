use lower_bound::fekete_k;
use real_aa::adversary::{equal_split_schedule, BudgetSplitEquivocator};
use real_aa::RealAaConfig;
use sim_net::PartyId;

use crate::{even_inputs, firsts, run_solo, spread, Table};

fn run_case(n: usize, t: usize, d: f64, r: u32) -> (f64, f64, f64) {
    let schedule = equal_split_schedule(t, r as usize);
    let cfg = RealAaConfig::new(n, t, 1e-12, d)
        .expect("valid")
        .with_fixed_iterations(r);
    let byz: Vec<PartyId> = (0..t).map(PartyId).collect();
    let adv = BudgetSplitEquivocator::new(n, byz, schedule.clone());
    let inputs = even_inputs(n, d);
    let measured = spread(&firsts(&run_solo(cfg, &inputs, adv)));
    let envelope: f64 = schedule
        .iter()
        .map(|&ti| ti as f64 / (n - 2 * t) as f64)
        .product::<f64>()
        * d;
    (measured, envelope, fekete_k(3 * r, d, n, t))
}

/// **E2 — Lemma 5 / Claim 12: the per-iteration convergence envelope.**
///
/// Runs `RealAA` for exactly `R` iterations (override) against the
/// budget-split equivocator with schedule `equal_split(t, R)` and compares
/// the measured final honest spread with
///
/// * the protocol envelope `D · Π tᵢ / (n − 2t)^R` (Lemma 5), and
/// * Fekete's model-level bound `K(R, D)` with denominator `(n + t)^R`
///   (Theorem 1) — which every protocol, ours included, must exceed in
///   some execution when `K > 1`... i.e. measured spread may sit between
///   the two but can never beat `K` to below 1 while claiming fewer
///   rounds.
///
/// Expected shape: measured / envelope within a small constant; both decay
/// super-exponentially in `R` once the per-iteration budget `t/R` drops.
pub fn e2() -> String {
    let mut out = String::new();
    for (n, t) in [(10usize, 3usize), (22, 7)] {
        let d = 1000.0;
        outln!(
            out,
            "\n### E2: convergence after R iterations (n = {n}, t = {t}, D = {d})\n"
        );
        let mut table = Table::new(&[
            "R",
            "schedule",
            "measured spread",
            "envelope D*prod(t_i)/(n-2t)^R",
            "measured/envelope",
            "Fekete K(3R, D)",
        ]);
        for r in 1..=t.min(6) as u32 {
            let (measured, envelope, k) = run_case(n, t, d, r);
            assert!(
                measured <= envelope + 1e-9,
                "measured spread exceeded the protocol envelope at R = {r}"
            );
            table.row(vec![
                r.to_string(),
                format!("{:?}", equal_split_schedule(t, r as usize)),
                format!("{measured:.6}"),
                format!("{envelope:.6}"),
                format!("{:.3}", measured / envelope),
                format!("{k:.6}"),
            ]);
        }
        outln!(out, "{}", table.render());
    }
    out
}
