use std::sync::Arc;

use lower_bound::{round_lower_bound, theorem2_formula};
use tree_aa::{check_tree_aa, EngineKind};
use tree_model::generate;

use crate::{run_tree_aa_honest, spaced_inputs, Table};

/// **E4 — Theorem 2: lower bound vs achieved rounds (optimality gap).**
///
/// On path input spaces (`D(T) = |V| − 1`, the `D ∈ |V|^Θ(1)` regime) with
/// `t = Θ(n)`, compares the exact Fekete round lower bound and the
/// Theorem 2 closed form against the rounds `TreeAA` actually uses. The
/// ratio achieved/lower-bound should stay bounded by a constant as the
/// tree grows — that is what "asymptotically optimal" means here.
pub fn e4() -> String {
    let mut out = String::new();
    let (n, t) = (16usize, 5usize);
    outln!(
        out,
        "### E4: lower bound vs TreeAA rounds on paths (n = {n}, t = {t})\n"
    );
    let mut table = Table::new(&[
        "|V|",
        "D(T)",
        "exact lower bound",
        "Theorem 2 formula",
        "TreeAA rounds",
        "achieved/exact-LB",
    ]);
    for exp in [4u32, 6, 8, 10, 12, 14] {
        let size = 1usize << exp;
        let tree = Arc::new(generate::path(size));
        let d = tree.diameter();
        let inputs = spaced_inputs(&tree, n, size / n + 1);
        let (outs, rounds) = run_tree_aa_honest(&tree, n, t, EngineKind::Gradecast, &inputs);
        check_tree_aa(&tree, &inputs, &outs).expect("definition 2 holds");
        let exact = round_lower_bound(d as f64, n, t);
        let formula = theorem2_formula(d as f64, n, t);
        table.row(vec![
            size.to_string(),
            d.to_string(),
            exact.to_string(),
            format!("{formula:.2}"),
            rounds.to_string(),
            format!("{:.2}", rounds as f64 / exact as f64),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "\nThe ratio column should stay O(1) as |V| grows: TreeAA is \
         asymptotically round-optimal for D(T) ∈ |V|^Θ(1), t ∈ Θ(n)."
    );
    out
}
