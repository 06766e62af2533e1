use real_aa::adversary::{equal_split_schedule, BudgetSplitEquivocator};
use real_aa::RealAaConfig;
use sim_net::PartyId;

use crate::{even_inputs, firsts, run_solo, spread, Table};

/// The final honest spread after exactly `r` iterations with the fill rule
/// and/or muting ablated, against the strongest adversary for that variant.
fn run_variant(
    (ablate_fill, ablate_muting): (bool, bool),
    n: usize,
    t: usize,
    d: f64,
    r: u32,
) -> f64 {
    let mut cfg = RealAaConfig::new(n, t, 1e-12, d)
        .expect("valid")
        .with_fixed_iterations(r);
    if ablate_fill {
        cfg = cfg.with_ablated_fill_rule();
    }
    if ablate_muting {
        cfg = cfg.with_ablated_muting();
    }
    let byz: Vec<PartyId> = (0..t).map(PartyId).collect();
    // Budget: with muting ablated the same leaders re-attack each
    // iteration; otherwise spend the budget across iterations.
    let mut adv = if ablate_muting {
        BudgetSplitEquivocator::new_reusing(n, byz, vec![t.min(2); r as usize])
    } else {
        BudgetSplitEquivocator::new(n, byz, equal_split_schedule(t, r as usize))
    };
    if ablate_fill {
        adv = adv.modeling_variable_multisets();
    }
    let inputs = even_inputs(n, d);
    spread(&firsts(&run_solo(cfg, &inputs, adv)))
}

/// **E10 — Ablations: which design choices carry the round-optimality.**
///
/// `RealAA`'s envelope `Π tᵢ/(n−2t)` rests on two mechanisms that are easy
/// to get wrong (DESIGN.md §5):
///
/// 1. **Fixed-size multisets** (public fill constant for grade-0 slots).
///    Ablated, a planted extreme value shifts the trim window and one
///    replacement can move the mean by up to half the honest range.
/// 2. **Muting** (permanently silencing any leader whose grade split).
///    Ablated, a single Byzantine leader disturbs *every* iteration and
///    the convergence degrades toward plain halving.
///
/// Each ablation is run against an adversary that models the ablated
/// update rule, for exactly `R` iterations; the full protocol is run
/// against its own optimal adversary for comparison.
pub fn e10() -> String {
    let mut out = String::new();
    let (n, t) = (10usize, 3usize);
    let d = 1000.0;
    outln!(
        out,
        "### E10: design-choice ablations (n = {n}, t = {t}, D = {d})\n"
    );
    outln!(
        out,
        "Final honest spread after exactly R iterations, strongest adversary per variant:\n"
    );

    // (ablate fill rule, ablate muting), in the table's column order.
    let variants = [(false, false), (true, false), (false, true), (true, true)];

    let rs: Vec<u32> = vec![1, 2, 3, 5, 8];
    let mut table = Table::new(&[
        "R",
        "envelope",
        "full protocol",
        "no fill rule",
        "no muting",
        "neither",
    ]);
    for &r in &rs {
        let envelope: f64 = equal_split_schedule(t, r as usize)
            .iter()
            .map(|&ti| ti as f64 / (n - 2 * t) as f64)
            .product::<f64>()
            * d;
        let mut cells = vec![r.to_string(), format!("{envelope:.4}")];
        for v in variants {
            cells.push(format!("{:.4}", run_variant(v, n, t, d, r)));
        }
        table.row(cells);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "\nReading: the full protocol stays within the envelope and collapses to 0 \
         once the budget is spread thinner than one leader per iteration. Without \
         muting the same leaders re-attack every iteration and the spread decays \
         only geometrically (factor ~1/2 per iteration) — round optimality is \
         gone; this is the load-bearing mechanism. The fill-rule ablation's \
         cumulative spread looks comparable here, but its *per-iteration* \
         contraction can exceed t_i/(n-2t) (the trim-window shift; see \
         DESIGN.md §5), which is what breaks the envelope proof — the fill rule \
         is what makes the Lemma 5 accounting sound."
    );
    out
}
