//! `TreeAA` — the paper's final protocol (Section 7): `PathsFinder`, then
//! projection onto the root path it found.

use std::sync::Arc;

use sim_net::{step_standalone, Inbox, PartyId, ProtoEvent, Protocol, RoundCtx};
use tree_model::{Tree, TreePath, VertexId};

use crate::engine::{engine_rounds, EngineKind, TreeMsg};
use crate::paths_finder::{PathsFinderConfig, PathsFinderParty};
use crate::projection::{ProjectionAaConfig, ProjectionAaParty};

/// Public parameters of a `TreeAA` execution, derived from the public
/// input-space tree.
#[derive(Clone, Debug)]
pub struct TreeAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; requires `t < n/3`.
    pub t: usize,
    /// The real-valued AA engine powering both phases.
    pub engine: EngineKind,
    /// `|L|` of the tree's Euler list (public).
    pub list_len: usize,
    /// `D(T)` (public).
    pub tree_diameter: usize,
}

impl TreeAaConfig {
    /// Derives the configuration from the public tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`.
    pub fn new(n: usize, t: usize, engine: EngineKind, tree: &Tree) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!("TreeAA requires n > 3t, got n = {n}, t = {t}"));
        }
        Ok(TreeAaConfig {
            n,
            t,
            engine,
            list_len: 2 * tree.vertex_count() - 1,
            tree_diameter: tree.diameter(),
        })
    }

    /// Whether the input space is trivial (`D(T) ≤ 1`): every party may
    /// output its own input (Section 2).
    pub fn trivial(&self) -> bool {
        self.tree_diameter <= 1
    }

    /// Rounds of phase 1 (`PathsFinder`): one engine run with ε = 1 on
    /// indices in `[0, |L| − 1]` — the paper's
    /// `R_PathsFinder = R_RealAA(2·|V(T)|, 1)`.
    pub fn phase1_rounds(&self) -> u32 {
        if self.trivial() {
            0
        } else {
            engine_rounds(self.engine, (self.list_len - 1) as f64, 1.0)
        }
    }

    /// Rounds of phase 2 (projection onto the found path): one engine run
    /// with ε = 1 on positions in `[0, D(T)]`.
    pub fn phase2_rounds(&self) -> u32 {
        if self.trivial() {
            0
        } else {
            engine_rounds(self.engine, self.tree_diameter as f64, 1.0)
        }
    }

    /// Total communication rounds.
    pub fn total_rounds(&self) -> u32 {
        self.phase1_rounds() + self.phase2_rounds()
    }
}

/// One party of `TreeAA`: a [`PathsFinderParty`] (phase 1), then a
/// [`ProjectionAaParty`] on the root path it found (phase 2).
///
/// Protocol (Section 7):
/// 1. `v_root` := vertex with the lowest label; `L` :=
///    `ListConstruction(T, v_root)` (all local and deterministic).
/// 2. Phase 1 (`PathsFinder`): run the engine with ε = 1 on
///    `min L(v_IN)`; obtain `j`, set `P := P(v_root, L_closestInt(j))`.
/// 3. Wait until round `R_PathsFinder` ends — in this implementation both
///    engine runs have fixed, publicly computable round counts, so all
///    honest parties switch phases simultaneously by construction.
/// 4. Phase 2: run the engine with ε = 1 on the position of
///    `proj_P(v_IN)` in `P`, over the public range `[0, D(T)]` (`P` itself
///    is private); obtain `j`.
/// 5. Output the vertex at position `closestInt(j)` of `P`, or `P`'s last
///    vertex when `closestInt(j)` points one past it (the Figure 5
///    fallback: the party holds the shorter of the two 1-close paths).
#[derive(Clone, Debug)]
pub struct TreeAaParty {
    cfg: TreeAaConfig,
    tree: Arc<Tree>,
    input: VertexId,
    phase1: PathsFinderParty,
    /// Started at the phase boundary, on the found root path `P(root, x)`.
    phase2: Option<ProjectionAaParty>,
    /// A decision taken without phase 2: the trivial tree's, or a party
    /// frozen past the schedule before the boundary.
    early: Option<VertexId>,
}

impl TreeAaParty {
    /// Creates the party with its input vertex.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `input` is out of range for `cfg`/`tree`.
    pub fn new(me: PartyId, cfg: TreeAaConfig, tree: Arc<Tree>, input: VertexId) -> Self {
        assert_eq!(
            cfg.list_len,
            2 * tree.vertex_count() - 1,
            "config/tree mismatch"
        );
        let pf = PathsFinderConfig {
            n: cfg.n,
            t: cfg.t,
            engine: cfg.engine,
            list_len: cfg.list_len,
        };
        let phase1 = PathsFinderParty::new(me, pf, Arc::clone(&tree), input);
        TreeAaParty {
            cfg,
            tree,
            input,
            phase1,
            phase2: None,
            early: None,
        }
    }

    /// The path this party obtained from `PathsFinder` (available after
    /// the phase boundary; used by tests and experiments). Built from its
    /// endpoints on each call, in `O(depth)`.
    pub fn found_path(&self) -> Option<TreePath> {
        self.phase2.as_ref().map(ProjectionAaParty::path)
    }

    /// The boundary round `r1 + 1`: phase 1's final local round processes
    /// the last inbox and decides — its sends, if any, are dropped, since
    /// nobody runs phase 1 any more — and phase 2 starts in the same
    /// communication round.
    fn begin_phase2(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        let _ = step_standalone(&mut self.phase1, ctx.me(), ctx.n(), round, inbox);
        // A benign fault (crash window, partition freeze) can leave phase 1
        // a local round short here; its running estimate then serves as
        // the best-effort `j`. Accuracy under such runs is the degradation
        // layer's concern.
        let (j, x) = self.phase1.endpoint();
        let cfg = ProjectionAaConfig {
            n: self.cfg.n,
            t: self.cfg.t,
            engine: self.cfg.engine,
            ends: (self.tree.root(), x),
            span: self.cfg.tree_diameter,
        };
        let mut phase2 = ProjectionAaParty::new(ctx.me(), cfg, Arc::clone(&self.tree), self.input);
        ctx.emit_with(|| {
            ProtoEvent::new("treeaa.path")
                .f64("j", j)
                .u64("len", u64::from(self.tree.depth(x)) + 1)
                .u64("root", self.tree.root().index() as u64)
                .u64("vertex", x.index() as u64)
        });
        phase2.step(1, &Inbox::empty(), ctx);
        self.phase2 = Some(phase2);
    }
}

impl Protocol for TreeAaParty {
    type Msg = TreeMsg;
    type Output = VertexId;

    fn step(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        if self.output().is_some() {
            return;
        }
        if self.cfg.trivial() {
            // D(T) <= 1: outputting the input satisfies all three
            // properties (Section 2).
            self.early = Some(self.input);
            return;
        }
        let r1 = self.cfg.phase1_rounds();
        if round > self.cfg.total_rounds() + 1 {
            // Past the schedule: only reachable when a benign fault froze
            // this party through its decision round. Adopt the current
            // estimate — it stays in the hull of accepted values — rather
            // than staying silent forever; accuracy guarantees for such
            // runs are the degradation layer's concern.
            match &mut self.phase2 {
                Some(phase2) => phase2.settle(phase2.engine().current_value()),
                None => self.early = Some(self.input),
            }
        } else if round <= r1 {
            self.phase1.step(round, inbox, ctx);
        } else if let Some(phase2) = &mut self.phase2 {
            let local = round - r1;
            phase2.step(local, inbox, ctx);
            let engine = phase2.engine();
            ctx.emit_with(|| {
                ProtoEvent::new("treeaa.pos")
                    .u64("local", u64::from(local))
                    .f64("pos", engine.current_value())
            });
            if let (Some(j), Some(vertex)) = (engine.output(), phase2.output()) {
                ctx.emit_with(|| {
                    ProtoEvent::new("treeaa.out")
                        .f64("j", j)
                        .u64("vertex", vertex.index() as u64)
                });
            }
        } else {
            self.begin_phase2(round, inbox, ctx);
        }
    }

    fn output(&self) -> Option<VertexId> {
        self.early.or_else(|| self.phase2.as_ref()?.output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::check_tree_aa;
    use sim_net::{run_simulation, Passive, Received, SimConfig};
    use tree_model::generate;

    fn run_tree_aa(
        tree: &Arc<Tree>,
        n: usize,
        t: usize,
        engine: EngineKind,
        inputs: &[VertexId],
    ) -> (Vec<VertexId>, u32) {
        let cfg = TreeAaConfig::new(n, t, engine, tree).unwrap();
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.total_rounds() + 5,
            },
            |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
            Passive,
        )
        .unwrap();
        (report.honest_outputs(), report.communication_rounds())
    }

    #[test]
    fn honest_run_on_figure3_tree() {
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
        let inputs: Vec<VertexId> = ["v3", "v6", "v5", "v7"]
            .iter()
            .map(|l| tree.vertex(l).unwrap())
            .collect();
        let (outputs, rounds) = run_tree_aa(&tree, 4, 1, EngineKind::Gradecast, &inputs);
        check_tree_aa(&tree, &inputs, &outputs).unwrap();
        let cfg = TreeAaConfig::new(4, 1, EngineKind::Gradecast, &tree).unwrap();
        assert_eq!(rounds, cfg.total_rounds());
    }

    #[test]
    fn works_across_tree_families_and_engines() {
        for tree in [
            generate::path(17),
            generate::star(9),
            generate::balanced_kary(2, 4),
            generate::caterpillar(7, 2),
            generate::spider(3, 5),
        ] {
            let tree = Arc::new(tree);
            let m = tree.vertex_count();
            let inputs: Vec<VertexId> = (0..7)
                .map(|i| tree.vertices().nth((i * 37) % m).unwrap())
                .collect();
            for engine in [EngineKind::Gradecast, EngineKind::Halving] {
                let (outputs, _) = run_tree_aa(&tree, 7, 2, engine, &inputs);
                check_tree_aa(&tree, &inputs, &outputs)
                    .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            }
        }
    }

    #[test]
    fn trivial_trees_are_immediate() {
        for tree in [generate::path(1), generate::path(2)] {
            let tree = Arc::new(tree);
            let inputs: Vec<VertexId> = (0..4)
                .map(|i| tree.vertices().nth(i % tree.vertex_count()).unwrap())
                .collect();
            let (outputs, rounds) = run_tree_aa(&tree, 4, 1, EngineKind::Gradecast, &inputs);
            assert_eq!(rounds, 0);
            assert_eq!(outputs, inputs);
        }
    }

    #[test]
    fn identical_inputs_yield_that_vertex() {
        let tree = Arc::new(generate::balanced_kary(3, 3));
        let v = tree.vertex("v0017").unwrap();
        let inputs = vec![v; 4];
        let (outputs, _) = run_tree_aa(&tree, 4, 1, EngineKind::Gradecast, &inputs);
        assert!(outputs.iter().all(|&o| o == v), "outputs {outputs:?}");
    }

    #[test]
    fn the_boundary_drops_a_lagging_phase1_engine_s_sends() {
        // A party that missed phase-1 rounds (a crash window) reaches the
        // boundary with its halving engine iterations short, so phase 1's
        // last local round there still wants to send. Nobody runs phase 1
        // any more: only phase 2's first round may leave the party.
        let (n, me) = (4, PartyId(0));
        let tree = Arc::new(generate::caterpillar(6, 2));
        let cfg = TreeAaConfig::new(n, 1, EngineKind::Halving, &tree).unwrap();
        let r1 = cfg.phase1_rounds();
        let mut party = TreeAaParty::new(me, cfg, Arc::clone(&tree), tree.root());
        for r in 1..r1 - 1 {
            sim_net::step_standalone(&mut party, me, n, r, &Inbox::empty());
        }
        let out = sim_net::step_standalone(&mut party, me, n, r1 + 1, &Inbox::empty());
        assert!(party.found_path().is_some(), "phase 2 started");
        let phases: Vec<u8> = (out.broadcasts().iter())
            .chain(out.unicasts().iter().map(|e| &e.payload))
            .map(|m| m.phase)
            .collect();
        assert_eq!(phases, [2], "one phase-2 broadcast and nothing else");
    }

    #[test]
    fn all_parties_found_paths_consistent_with_lemma4() {
        // Direct check on party state: run manually to keep the parties.
        let tree = Arc::new(generate::caterpillar(6, 2));
        let n = 4;
        let cfg = TreeAaConfig::new(n, 1, EngineKind::Gradecast, &tree).unwrap();
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth((i * 5) % m).unwrap())
            .collect();
        let mut parties: Vec<TreeAaParty> = (0..n)
            .map(|i| TreeAaParty::new(PartyId(i), cfg.clone(), Arc::clone(&tree), inputs[i]))
            .collect();
        let mut inboxes: Vec<Inbox<TreeMsg>> = vec![Inbox::empty(); n];
        for r in 1..=cfg.total_rounds() + 1 {
            let mut next: Vec<Vec<Received<TreeMsg>>> = vec![Vec::new(); n];
            for (i, p) in parties.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[i]);
                let out = sim_net::step_standalone(p, PartyId(i), n, r, &inbox);
                for env in out.envelopes() {
                    next[env.to.index()].push(Received {
                        from: env.from,
                        payload: env.payload,
                    });
                }
            }
            inboxes = next.into_iter().map(Inbox::from_messages).collect();
        }
        let paths: Vec<TreePath> = parties
            .iter()
            .map(|p| p.found_path().expect("path found"))
            .collect();
        crate::validity::check_paths_finder(&tree, &inputs, &paths).unwrap();
    }
}
