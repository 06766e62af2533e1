use std::sync::Arc;

use tree_aa::{check_tree_aa, EngineKind, ProjectionAaConfig, ProjectionAaParty, TreeAaConfig};
use tree_model::generate;

use crate::{run_honest, spaced_inputs, vertex_spread, Table};

/// **E8 — Section 4 warm-up: AA on path input spaces.**
///
/// Runs `PathAA` — projection AA on a path graph
/// ([`ProjectionAaConfig::path_graph`]) — on growing path graphs with both engines, verifying
/// Definition 2 each time and reporting rounds: the warm-up's cost is a
/// single engine run, i.e. exactly half of `TreeAA`'s two-phase cost on
/// the same path.
pub fn e8() -> String {
    let mut out = String::new();
    let (n, t) = (7usize, 2usize);
    outln!(
        out,
        "### E8: warm-up PathAA on path graphs (n = {n}, t = {t})\n"
    );
    let mut table = Table::new(&[
        "|V| = D+1",
        "PathAA rounds (gradecast)",
        "PathAA rounds (halving)",
        "TreeAA rounds (same path)",
        "output spread",
    ]);
    for size in [8usize, 32, 128, 512, 2048, 8192] {
        let tree = Arc::new(generate::path(size));
        let inputs = spaced_inputs(&tree, n, size / n + 1);
        let mut rounds = Vec::new();
        let mut last_spread = 0;
        for engine in [EngineKind::Gradecast, EngineKind::Halving] {
            let cfg = ProjectionAaConfig::path_graph(n, t, engine, &tree).expect("valid");
            let report = run_honest(n, t, cfg.rounds(), |id, _| {
                ProjectionAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()])
            });
            let outs = report.honest_outputs();
            check_tree_aa(&tree, &inputs, &outs).expect("definition 2 holds");
            rounds.push(report.communication_rounds());
            last_spread = vertex_spread(&tree, &outs);
        }
        let tree_aa = TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree)
            .expect("valid")
            .total_rounds();
        table.row(vec![
            size.to_string(),
            rounds[0].to_string(),
            rounds[1].to_string(),
            tree_aa.to_string(),
            last_spread.to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    out
}
