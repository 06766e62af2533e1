use std::sync::Arc;

use byz_agreement::{PhaseKingConfig, PhaseKingParty};
use tree_aa::{EngineKind, PathsFinderConfig, PathsFinderParty};
use tree_model::generate;

use crate::{run_honest, Table};

/// **E12 — Section 6's motivation: exact vs approximate path agreement.**
///
/// The paper observes that finding a common path exactly "comes down to
/// solving Byzantine Agreement", costing `t + 1 = O(n)` rounds, and builds
/// `PathsFinder` to get 1-close paths in `O(log|V|/log log|V|)` rounds
/// instead. This experiment measures both sides: phase-king BA rounds
/// (which grow linearly in `t`) against `PathsFinder` rounds (which do not
/// grow with `n` at all, only — slowly — with `|V|`).
pub fn e12() -> String {
    let mut out = String::new();
    let tree = Arc::new(generate::caterpillar(342, 2)); // |V| = 1026
    let list = tree.euler_list();
    outln!(
        out,
        "### E12: exact BA vs PathsFinder on |V| = {} (list length {})\n",
        tree.vertex_count(),
        list.len()
    );
    let mut table = Table::new(&[
        "n",
        "t",
        "phase-king BA rounds (measured)",
        "3(t+1)",
        "PathsFinder rounds (measured)",
    ]);
    for t in [1usize, 2, 4, 8, 16] {
        let n = 3 * t + 1;
        // BA on Euler indices (exact agreement; unanimity validity only).
        let ba = PhaseKingConfig::new(n, t).expect("valid");
        let inputs: Vec<u64> = (0..n).map(|i| (i * 97 % list.len()) as u64).collect();
        let ba_rounds = run_honest(n, t, ba.rounds(), |id, _| {
            PhaseKingParty::new(id, ba, inputs[id.index()])
        })
        .communication_rounds();

        // PathsFinder on the same tree.
        let pf = PathsFinderConfig::new(n, t, EngineKind::Gradecast, &tree).expect("valid");
        let vins: Vec<_> = (0..n)
            .map(|i| {
                tree.vertices()
                    .nth((i * 97) % tree.vertex_count())
                    .expect("ok")
            })
            .collect();
        let pf_rounds = run_honest(n, t, pf.rounds(), |id, _| {
            PathsFinderParty::new(id, pf.clone(), Arc::clone(&tree), vins[id.index()])
        })
        .communication_rounds();

        table.row(vec![
            n.to_string(),
            t.to_string(),
            ba_rounds.to_string(),
            (3 * (t as u32 + 1)).to_string(),
            pf_rounds.to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "\nReading: exact agreement pays Θ(t) rounds and keeps growing with the \
         system size, while PathsFinder is flat in n — and BA's unanimity \
         validity would not even give convex validity on the tree (see the \
         byz-agreement crate docs). Both observations together are Section 6's \
         rationale for agreeing on paths only approximately."
    );
    out
}
