//! `TreeAA` — the paper's final protocol (Section 7).

use std::sync::Arc;

use sim_net::{Inbox, Outbox, PartyId, Payload, Protocol, RoundCtx};
use tree_model::{closest_int, Tree, TreePath, VertexId};

use crate::engine::{engine_rounds, EngineKind, InnerAa, InnerMsg};

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

/// A `TreeAA` wire message: engine traffic tagged with its phase.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeMsg {
    /// 1 = `PathsFinder`, 2 = projection run.
    pub phase: u8,
    /// The engine message.
    pub inner: InnerMsg,
}

impl Payload for TreeMsg {
    fn size_bytes(&self) -> usize {
        1 + self.inner.size_bytes()
    }
}

/// One party of `TreeAA`.
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
///    `proj_P(v_IN)` in `P`; obtain `j`.
/// 5. Output the vertex at position `closestInt(j)` of `P`, or `P`'s last
///    vertex when `closestInt(j)` points one past it (the Figure 5
///    fallback: the party holds the shorter of the two 1-close paths).
#[derive(Clone, Debug)]
pub struct TreeAaParty {
    cfg: TreeAaConfig,
    me: PartyId,
    tree: Arc<Tree>,
    input: VertexId,
    phase1: InnerAa,
    /// Set at the phase boundary: the endpoint x of the found root path
    /// `P(root, x)`, which fixes the rest of it — length `depth(x) + 1`,
    /// position i the ancestor of x at depth i.
    x: Option<VertexId>,
    phase2: Option<InnerAa>,
    output: Option<VertexId>,
}

impl TreeAaParty {
    /// Creates the party with its input vertex.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `input` is out of range for `cfg`/`tree`.
    pub fn new(me: PartyId, cfg: TreeAaConfig, tree: Arc<Tree>, input: VertexId) -> Self {
        assert!(me.index() < cfg.n, "party id out of range");
        assert!(
            input.index() < tree.vertex_count(),
            "input vertex out of range"
        );
        assert_eq!(
            cfg.list_len,
            2 * tree.vertex_count() - 1,
            "config/tree mismatch"
        );
        let i1 = tree.euler_list().first_occurrence(input) as f64;
        let phase1 = InnerAa::new(
            cfg.engine,
            me,
            cfg.n,
            cfg.t,
            1.0,
            (cfg.list_len - 1) as f64,
            i1,
        );
        TreeAaParty {
            cfg,
            me,
            tree,
            input,
            phase1,
            x: None,
            phase2: None,
            output: None,
        }
    }

    /// The path this party obtained from `PathsFinder` (available after
    /// the phase boundary; used by tests and experiments). Built from its
    /// endpoints on each call, in `O(depth)`.
    pub fn found_path(&self) -> Option<TreePath> {
        self.x.map(|x| self.tree.path(self.tree.root(), x))
    }

    fn begin_phase2(&mut self, j: f64) -> InnerAa {
        // Clamp defensively: Remark 1 guarantees the index stays within
        // the range of honest inputs, hence within [0, |L| - 1], on every
        // honest execution.
        let list = self.tree.euler_list();
        let idx = closest_int(j).clamp(0, list.len() as i64 - 1) as usize;
        let x = list.get(idx);
        // P is the root path P(root, x): proj_P(v_IN) = lca(v_IN, x), and
        // a vertex's position on a root path is its depth.
        let i2 = f64::from(self.tree.depth(self.tree.lca_table().lca(self.input, x)));
        let engine = InnerAa::new(
            self.cfg.engine,
            self.me,
            self.cfg.n,
            self.cfg.t,
            1.0,
            self.cfg.tree_diameter as f64,
            i2,
        );
        self.x = Some(x);
        engine
    }

    fn finish(&mut self, j: f64) {
        let x = self.x.expect("phase 2 started");
        let depth = self.tree.depth(x);
        let v = match u32::try_from(closest_int(j).max(0)) {
            Ok(ci) if ci <= depth => self.tree.lca_table().ancestor(x, ci),
            // Figure 5 fallback: this party holds the shorter path; the
            // longer one extends it by exactly one vertex, so the last
            // vertex x of the own path is 1-close to every honest output.
            _ => x,
        };
        self.output = Some(v);
    }
}

/// The engine traffic of `phase` delivered in `inbox`, as the borrowed
/// `(sender, message)` pairs an inner engine steps on (shared by `TreeAA`
/// and the standalone subprotocols).
pub(crate) fn phase_traffic(
    inbox: &Inbox<TreeMsg>,
    phase: u8,
) -> impl Iterator<Item = (PartyId, &InnerMsg)> {
    inbox
        .iter()
        .filter(move |r| r.payload.phase == phase)
        .map(|r| (r.from, &r.payload.inner))
}

/// Forwards an inner outbox through the outer context with its phase tag,
/// keeping broadcasts structural (one payload, not `n` clones).
pub(crate) fn forward_phase(ctx: &mut RoundCtx<TreeMsg>, outbox: Outbox<InnerMsg>, phase: u8) {
    let (unicasts, broadcasts) = outbox.into_parts();
    for inner in broadcasts {
        ctx.broadcast(TreeMsg { phase, inner });
    }
    for e in unicasts {
        ctx.send(
            e.to,
            TreeMsg {
                phase,
                inner: e.payload,
            },
        );
    }
}

impl Protocol for TreeAaParty {
    type Msg = TreeMsg;
    type Output = VertexId;

    fn step(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        if self.output.is_some() {
            return;
        }
        if self.cfg.trivial() {
            // D(T) <= 1: outputting the input satisfies all three
            // properties (Section 2).
            self.output = Some(self.input);
            return;
        }
        if round > self.cfg.total_rounds() + 1 {
            // Past the schedule: only reachable when a benign fault froze
            // this party through its decision round. Adopt the current
            // estimate — it stays in the hull of accepted values — rather
            // than staying silent forever; accuracy guarantees for such
            // runs are the degradation layer's concern.
            if let Some(engine) = &self.phase2 {
                let j = engine.current_value();
                self.finish(j);
            } else {
                self.output = Some(self.input);
            }
            return;
        }
        let r1 = self.cfg.phase1_rounds();
        if round <= r1 {
            // Phase 1, local rounds 1..=r1.
            let traffic = phase_traffic(inbox, 1);
            let out = self.phase1.step(self.me, self.cfg.n, round, traffic);
            forward_phase(ctx, out, 1);
            return;
        }
        if self.phase2.is_none() {
            // The boundary round r1 + 1: finish phase 1 (its final
            // local round processes the last inbox and terminates) and
            // immediately start phase 2 in the same communication round.
            let traffic = phase_traffic(inbox, 1);
            let _ = self.phase1.step(self.me, self.cfg.n, round, traffic);
            // A benign fault (crash window, partition freeze) can leave
            // phase 1 a local round short at the boundary. Its running
            // estimate never leaves the hull of accepted values, so it
            // serves as the best-effort `j`; accuracy under such runs is
            // the degradation layer's concern.
            let j = self
                .phase1
                .output()
                .unwrap_or_else(|| self.phase1.current_value());
            let mut engine = self.begin_phase2(j);
            ctx.emit_with(|| {
                let x = self.x.expect("phase 2 started");
                sim_net::ProtoEvent::new("treeaa.path")
                    .f64("j", j)
                    .u64("len", u64::from(self.tree.depth(x)) + 1)
                    .u64("root", self.tree.root().index() as u64)
                    .u64("vertex", x.index() as u64)
            });
            let out = engine.step(self.me, self.cfg.n, 1, std::iter::empty());
            forward_phase(ctx, out, 2);
            self.phase2 = Some(engine);
            return;
        }
        // Phase 2, local rounds 2..
        let local = round - r1;
        let engine = self.phase2.as_mut().expect("phase 2 running");
        let out = engine.step(self.me, self.cfg.n, local, phase_traffic(inbox, 2));
        forward_phase(ctx, out, 2);
        ctx.emit_with(|| {
            sim_net::ProtoEvent::new("treeaa.pos")
                .u64("local", u64::from(local))
                .f64("pos", engine.current_value())
        });
        if let Some(j) = engine.output() {
            self.finish(j);
            ctx.emit_with(|| {
                let vertex = self.output.expect("finish sets the output");
                sim_net::ProtoEvent::new("treeaa.out")
                    .f64("j", j)
                    .u64("vertex", vertex.index() as u64)
            });
        }
    }

    fn output(&self) -> Option<VertexId> {
        self.output
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
    fn wire_size_is_phase_tag_plus_inner() {
        use real_aa::PlainValueMsg;
        let msg = TreeMsg {
            phase: 1,
            inner: crate::engine::InnerMsg::Plain(PlainValueMsg {
                iter: 0,
                value: 3.0,
            }),
        };
        // 1 phase byte + 1 inner tag byte + (4 + 8) plain value bytes.
        assert_eq!(msg.size_bytes(), 14);
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
