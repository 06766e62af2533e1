//! `PathsFinder` — approximate agreement on root paths (Section 6).
//!
//! Honest parties obtain subpaths `P(v_root, ·)` of the input-space tree
//! such that (Lemma 4): every path intersects the honest inputs' convex
//! hull, and all paths are equal up to one trailing edge.

use std::sync::Arc;

use sim_net::{Inbox, PartyId, Protocol, RoundCtx};
use tree_model::{closest_int, Tree, TreePath, VertexId};

use crate::engine::{engine_rounds, EngineKind, InnerAa};
use crate::tree_aa::{forward_phase, phase_traffic, TreeMsg};

/// Public parameters of a standalone `PathsFinder` run.
#[derive(Clone, Debug)]
pub struct PathsFinderConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; requires `t < n/3`.
    pub t: usize,
    /// The inner real-valued AA engine.
    pub engine: EngineKind,
    /// `|L|` (public).
    pub list_len: usize,
}

impl PathsFinderConfig {
    /// Derives the configuration from the public tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`.
    pub fn new(n: usize, t: usize, engine: EngineKind, tree: &Tree) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!("PathsFinder requires n > 3t, got n = {n}, t = {t}"));
        }
        Ok(PathsFinderConfig {
            n,
            t,
            engine,
            list_len: 2 * tree.vertex_count() - 1,
        })
    }

    /// Fixed communication rounds: one engine run with ε = 1 on
    /// `[0, |L| − 1]` (the paper's `R_PathsFinder = R_RealAA(2|V(T)|, 1)`).
    pub fn rounds(&self) -> u32 {
        if self.list_len <= 1 {
            0
        } else {
            engine_rounds(self.engine, (self.list_len - 1) as f64, 1.0)
        }
    }
}

/// One party of the standalone `PathsFinder` protocol. Output: the path
/// `P(v_root, L_closestInt(j))`.
///
/// Inside `TreeAA` the same logic runs as phase 1; this standalone protocol
/// exists so the subprotocol's Lemma 4 guarantees can be tested and
/// measured in isolation.
#[derive(Clone, Debug)]
pub struct PathsFinderParty {
    cfg: PathsFinderConfig,
    me: PartyId,
    tree: Arc<Tree>,
    engine: InnerAa,
    output: Option<TreePath>,
}

impl PathsFinderParty {
    /// Creates the party with its input vertex.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `input` is out of range.
    pub fn new(me: PartyId, cfg: PathsFinderConfig, tree: Arc<Tree>, input: VertexId) -> Self {
        assert!(me.index() < cfg.n, "party id out of range");
        assert!(
            input.index() < tree.vertex_count(),
            "input vertex out of range"
        );
        let i = tree.euler_list().first_occurrence(input) as f64;
        let engine = InnerAa::new(
            cfg.engine,
            me,
            cfg.n,
            cfg.t,
            1.0,
            (cfg.list_len - 1) as f64,
            i,
        );
        PathsFinderParty {
            cfg,
            me,
            tree,
            engine,
            output: None,
        }
    }
}

impl Protocol for PathsFinderParty {
    type Msg = TreeMsg;
    type Output = TreePath;

    fn step(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        if self.output.is_some() {
            return;
        }
        if self.cfg.list_len <= 1 {
            self.output = Some(self.tree.path(self.tree.root(), self.tree.root()));
            return;
        }
        let traffic = phase_traffic(inbox, 1);
        let out = self.engine.step(self.me, self.cfg.n, round, traffic);
        forward_phase(ctx, out, 1);
        if let Some(j) = self.engine.output() {
            let list = self.tree.euler_list();
            let idx = closest_int(j).clamp(0, list.len() as i64 - 1) as usize;
            self.output = Some(self.tree.path(self.tree.root(), list.get(idx)));
        }
    }

    fn output(&self) -> Option<TreePath> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::check_paths_finder;
    use sim_net::{run_simulation, Passive, SimConfig};
    use tree_model::generate;

    fn run(tree: &Arc<Tree>, n: usize, t: usize, inputs: &[VertexId]) -> Vec<TreePath> {
        let cfg = PathsFinderConfig::new(n, t, EngineKind::Gradecast, tree).unwrap();
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| PathsFinderParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
            Passive,
        )
        .unwrap();
        report.honest_outputs()
    }

    #[test]
    fn lemma4_on_figure3() {
        let tree = Arc::new(
            Tree::from_labeled_edges(
                ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"],
                [
                    ("v1", "v2"),
                    ("v2", "v3"),
                    ("v3", "v6"),
                    ("v3", "v7"),
                    ("v2", "v4"),
                    ("v4", "v8"),
                    ("v2", "v5"),
                ],
            )
            .unwrap(),
        );
        let inputs: Vec<VertexId> = ["v3", "v6", "v5", "v3"]
            .iter()
            .map(|l| tree.vertex(l).unwrap())
            .collect();
        let paths = run(&tree, 4, 1, &inputs);
        check_paths_finder(&tree, &inputs, &paths).unwrap();
        // All paths start at the root v1.
        for p in &paths {
            assert_eq!(tree.label(p.vertices()[0]).as_str(), "v1");
        }
    }

    #[test]
    fn lemma4_across_families() {
        for tree in [
            generate::path(12),
            generate::balanced_kary(2, 4),
            generate::spider(4, 3),
        ] {
            let tree = Arc::new(tree);
            let m = tree.vertex_count();
            let inputs: Vec<VertexId> = (0..7)
                .map(|i| tree.vertices().nth((3 + i * 11) % m).unwrap())
                .collect();
            let paths = run(&tree, 7, 2, &inputs);
            check_paths_finder(&tree, &inputs, &paths).unwrap();
        }
    }

    #[test]
    fn single_vertex_tree_returns_root_path() {
        let tree = Arc::new(generate::path(1));
        let inputs = vec![tree.root(); 4];
        let paths = run(&tree, 4, 1, &inputs);
        for p in paths {
            assert_eq!(p.len(), 1);
        }
    }
}
