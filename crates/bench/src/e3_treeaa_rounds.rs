use std::sync::Arc;

use tree_aa::{check_tree_aa, EngineKind, NowakRybickiConfig};
use tree_model::{generate, Tree};

use crate::{run_tree_aa_honest, spaced_inputs, vertex_spread, Table};

fn families(size: usize) -> Vec<(&'static str, Tree)> {
    vec![
        ("path", generate::path(size)),
        ("caterpillar", generate::caterpillar(size.div_ceil(3), 2)),
        ("spider8", generate::spider(8, size.div_ceil(8).max(1))),
        (
            "binary",
            generate::balanced_kary(2, (size.max(2) as f64).log2().floor() as u32),
        ),
        ("star", generate::star(size)),
    ]
}

/// **E3 — Theorem 4: `TreeAA` round complexity across tree families.**
///
/// Sweeps |V(T)| for several tree families and reports the measured
/// communication rounds of `TreeAA` (gradecast engine), `TreeAA` over the
/// halving engine, and the Nowak–Rybicki `O(log D)` baseline, plus the
/// paper's asymptotic target `log|V| / log log|V|`.
///
/// Expected shape: on high-diameter families (paths, caterpillars) the
/// gradecast `TreeAA` needs asymptotically fewer rounds than the
/// `O(log D)` baseline; on low-diameter families (stars, balanced trees)
/// the baseline's `log D` is tiny and wins — exactly the regime split
/// discussed in the paper's conclusions (optimality holds for
/// `D(T) ∈ |V|^Θ(1)`).
pub fn e3() -> String {
    let mut out = String::new();
    let (n, t) = (7usize, 2usize);
    outln!(out, "### E3: TreeAA rounds vs |V(T)| (n = {n}, t = {t})\n");
    let mut table = Table::new(&[
        "family",
        "|V|",
        "D(T)",
        "TreeAA rounds",
        "TreeAA (halving engine)",
        "Nowak-Rybicki rounds",
        "log|V|/loglog|V|",
        "output spread",
    ]);
    for size in [8usize, 32, 128, 512, 2048, 8192] {
        for (name, tree) in families(size) {
            let tree = Arc::new(tree);
            let v = tree.vertex_count();
            let d = tree.diameter();
            let inputs = spaced_inputs(&tree, n, v / n + 1);
            let (outs_g, rounds_g) =
                run_tree_aa_honest(&tree, n, t, EngineKind::Gradecast, &inputs);
            check_tree_aa(&tree, &inputs, &outs_g).expect("definition 2 holds");
            let (outs_h, rounds_h) = run_tree_aa_honest(&tree, n, t, EngineKind::Halving, &inputs);
            check_tree_aa(&tree, &inputs, &outs_h).expect("definition 2 holds");
            let nr = NowakRybickiConfig::new(n, t, &tree)
                .expect("valid")
                .rounds();
            let lv = (v as f64).log2();
            let target = if lv.log2() > 0.0 { lv / lv.log2() } else { 1.0 };
            table.row(vec![
                name.to_string(),
                v.to_string(),
                d.to_string(),
                rounds_g.to_string(),
                rounds_h.to_string(),
                nr.to_string(),
                format!("{target:.1}"),
                vertex_spread(&tree, &outs_g).to_string(),
            ]);
        }
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "\nNote: TreeAA rounds are deterministic (fixed-round engines); the spread \
         column confirms 1-agreement on every run."
    );
    out
}
