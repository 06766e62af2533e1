use lower_bound::round_lower_bound;
use real_aa::adversary::{equal_split_schedule, BudgetSplitEquivocator};
use real_aa::{halving_iterations, rounds_bound, RealAaConfig};
use sim_net::PartyId;

use crate::{even_inputs, firsts, run_solo, spread, Table};

/// **E1 — Theorem 3: round complexity of `RealAA`.**
///
/// Sweeps δ = D/ε and reports, per (n, t): the protocol's fixed round
/// count `3·R`, the paper's stated bound `⌈7·log₂δ/log₂log₂δ⌉ (+3)`, the
/// halving baseline's rounds, and the exact Fekete round lower bound —
/// then validates each configuration by running it against the
/// budget-split adversary and checking ε-agreement and validity.
///
/// Expected shape: `RealAA` rounds grow like `log δ / log log δ`, visibly
/// flatter than the baseline's `log δ`, and sit between the lower bound
/// and the paper bound.
pub fn e1() -> String {
    let mut out = String::new();
    for (n, t) in [(16usize, 5usize), (31, 10), (61, 20)] {
        outln!(
            out,
            "\n### E1: RealAA rounds vs delta (n = {n}, t = {t}, eps = 1)\n"
        );
        let mut table = Table::new(&[
            "delta",
            "RealAA rounds (3R)",
            "paper bound",
            "halving rounds",
            "lower bound",
            "adv final spread",
            "eps ok",
        ]);
        for exp in [2u32, 4, 8, 12, 16, 20, 40, 100, 200] {
            let d = 2f64.powi(exp as i32);
            let cfg = RealAaConfig::new(n, t, 1.0, d).expect("valid");
            let byz: Vec<PartyId> = (0..t).map(PartyId).collect();
            let schedule = equal_split_schedule(t, cfg.iterations() as usize);
            let adv = BudgetSplitEquivocator::new(n, byz.clone(), schedule);
            let inputs = even_inputs(n, d);
            let outs = firsts(&run_solo(cfg, &inputs, adv));
            let s = spread(&outs);
            let lo = inputs[t..].iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = inputs[t..]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let valid = outs.iter().all(|&o| o >= lo - 1e-9 && o <= hi + 1e-9);
            assert!(valid, "validity violated at delta = {d}");
            table.row(vec![
                format!("2^{exp}"),
                cfg.rounds().to_string(),
                rounds_bound(d, 1.0).to_string(),
                halving_iterations(d, 1.0).to_string(),
                round_lower_bound(d, n, t).to_string(),
                format!("{s:.3}"),
                (s <= 1.0).to_string(),
            ]);
        }
        outln!(out, "{}", table.render());
    }
    out
}
