//! The Section 4 warm-up: AA when the input space is itself a labeled
//! path.

use std::sync::Arc;

use sim_net::{Inbox, PartyId, Protocol, RoundCtx};
use tree_model::{closest_int, Tree, TreePath, VertexId};

use crate::engine::{engine_rounds, EngineKind, InnerAa};
use crate::tree_aa::{forward_phase, phase_traffic, TreeMsg};

/// Public parameters of a path-AA run.
#[derive(Clone, Debug)]
pub struct PathAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; requires `t < n/3`.
    pub t: usize,
    /// The inner real-valued AA engine.
    pub engine: EngineKind,
    /// The oriented input-space path `(v_1, …, v_k)`, `v_1` being the
    /// endpoint with the lexicographically lower label.
    pub path: Arc<TreePath>,
}

impl PathAaConfig {
    /// Derives the configuration from the input-space tree, which must be
    /// a path graph.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if `n ≤ 3t` or the tree is not
    /// a path (a vertex of degree ≥ 3 exists).
    pub fn new(n: usize, t: usize, engine: EngineKind, tree: &Tree) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!("path AA requires n > 3t, got n = {n}, t = {t}"));
        }
        if let Some(v) = tree.vertices().find(|&v| tree.degree(v) > 2) {
            return Err(format!(
                "input space is not a path: vertex `{}` has degree {}",
                tree.label(v),
                tree.degree(v)
            ));
        }
        // Endpoints: degree <= 1. Orient from the lexicographically lower
        // label (the paper's v_1).
        let mut ends: Vec<VertexId> = tree.vertices().filter(|&v| tree.degree(v) <= 1).collect();
        ends.sort_by(|&a, &b| tree.label(a).cmp(tree.label(b)));
        let path = match ends.len() {
            1 => tree.path(ends[0], ends[0]), // single vertex
            2 => tree.path(ends[0], ends[1]),
            k => unreachable!("a path graph has 1 or 2 endpoints, found {k}"),
        };
        Ok(PathAaConfig {
            n,
            t,
            engine,
            path: Arc::new(path),
        })
    }

    /// Fixed communication rounds: one engine run with ε = 1 on
    /// `[0, D(P)]`.
    pub fn rounds(&self) -> u32 {
        engine_rounds(self.engine, self.path.edge_len() as f64, 1.0)
    }
}

/// One party of the Section 4 warm-up protocol: join the engine with the
/// input's position on the path, output the vertex at the rounded result.
#[derive(Clone, Debug)]
pub struct PathAaParty {
    cfg: PathAaConfig,
    me: PartyId,
    engine: InnerAa,
    output: Option<VertexId>,
}

impl PathAaParty {
    /// Creates the party with its input vertex.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range or `input` is not on the path.
    pub fn new(me: PartyId, cfg: PathAaConfig, input: VertexId) -> Self {
        assert!(me.index() < cfg.n, "party id out of range");
        let i = cfg
            .path
            .position(input)
            .expect("input must be a vertex of the input-space path");
        let engine = InnerAa::new(
            cfg.engine,
            me,
            cfg.n,
            cfg.t,
            1.0,
            cfg.path.edge_len() as f64,
            i as f64,
        );
        PathAaParty {
            cfg,
            me,
            engine,
            output: None,
        }
    }
}

impl Protocol for PathAaParty {
    type Msg = TreeMsg;
    type Output = VertexId;

    fn step(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        if self.output.is_some() {
            return;
        }
        let traffic = phase_traffic(inbox, 1);
        let out = self.engine.step(self.me, self.cfg.n, round, traffic);
        forward_phase(ctx, out, 1);
        if let Some(j) = self.engine.output() {
            let ci = closest_int(j).clamp(0, self.cfg.path.len() as i64 - 1) as usize;
            self.output = Some(self.cfg.path.get(ci).expect("clamped onto the path"));
        }
    }

    fn output(&self) -> Option<VertexId> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::{run_simulation, Passive, SimConfig};
    use tree_model::generate;

    #[test]
    fn converges_on_a_path_with_expected_rounds() {
        let tree = generate::path(100);
        let cfg = PathAaConfig::new(7, 2, EngineKind::Gradecast, &tree).unwrap();
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..7)
            .map(|i| tree.vertices().nth((i * 13) % m).unwrap())
            .collect();
        let report = run_simulation(
            SimConfig {
                n: 7,
                t: 2,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| PathAaParty::new(id, cfg.clone(), inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(report.communication_rounds(), cfg.rounds());
        let outputs = report.honest_outputs();
        for &a in &outputs {
            for &b in &outputs {
                assert!(tree.distance(a, b) <= 1, "1-agreement violated");
            }
        }
        let hull = tree.convex_hull(&inputs);
        for &o in &outputs {
            assert!(hull.contains(o), "validity violated");
        }
    }

    #[test]
    fn rejects_non_path_input_space() {
        let star = generate::star(5);
        let err = PathAaConfig::new(4, 1, EngineKind::Gradecast, &star).unwrap_err();
        assert!(err.contains("not a path"), "{err}");
    }

    #[test]
    fn orientation_starts_at_lower_label() {
        let tree = generate::path(5);
        let cfg = PathAaConfig::new(4, 1, EngineKind::Gradecast, &tree).unwrap();
        assert_eq!(tree.label(cfg.path.vertices()[0]).as_str(), "v0000");
    }

    #[test]
    fn single_vertex_path_is_trivial() {
        let tree = generate::path(1);
        let cfg = PathAaConfig::new(4, 1, EngineKind::Halving, &tree).unwrap();
        assert_eq!(cfg.rounds(), 0);
        let v = tree.root();
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 5,
            },
            |id, _| PathAaParty::new(id, cfg.clone(), v),
            Passive,
        )
        .unwrap();
        assert!(report.honest_outputs().iter().all(|&o| o == v));
    }
}
