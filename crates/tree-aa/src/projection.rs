//! The Section 5 stepping stone: AA on a tree when a path intersecting the
//! honest inputs' convex hull is *publicly known*.

use std::sync::Arc;

use sim_net::{Inbox, PartyId, Protocol, RoundCtx};
use tree_model::{closest_int, ProjectionTable, Tree, TreePath, VertexId};

use crate::engine::{engine_rounds, EngineKind, InnerAa};
use crate::tree_aa::{forward_phase, phase_traffic, TreeMsg};

/// Public parameters of a projection-AA run. The path is part of the
/// public setup (the assumption Section 6 later removes).
#[derive(Clone, Debug)]
pub struct ProjectionAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; requires `t < n/3`.
    pub t: usize,
    /// The inner real-valued AA engine.
    pub engine: EngineKind,
    /// The publicly known path (must intersect the honest inputs' hull for
    /// Validity — that is this protocol's *precondition*, exactly as in
    /// Section 5).
    pub path: Arc<TreePath>,
}

impl ProjectionAaConfig {
    /// Creates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`.
    pub fn new(
        n: usize,
        t: usize,
        engine: EngineKind,
        path: Arc<TreePath>,
    ) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!(
                "projection AA requires n > 3t, got n = {n}, t = {t}"
            ));
        }
        Ok(ProjectionAaConfig { n, t, engine, path })
    }

    /// Fixed communication rounds: one engine run with ε = 1 on positions
    /// `[0, k − 1]` of the path.
    pub fn rounds(&self) -> u32 {
        engine_rounds(self.engine, self.path.edge_len() as f64, 1.0)
    }
}

/// One party of the projection protocol: project the input onto the known
/// path, agree on positions, output the vertex at the rounded position.
#[derive(Clone, Debug)]
pub struct ProjectionAaParty {
    cfg: ProjectionAaConfig,
    me: PartyId,
    engine: InnerAa,
    output: Option<VertexId>,
}

impl ProjectionAaParty {
    /// Creates the party with its input vertex, projecting it onto the
    /// public path.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `input` is out of range.
    pub fn new(me: PartyId, cfg: ProjectionAaConfig, tree: &Tree, input: VertexId) -> Self {
        assert!(me.index() < cfg.n, "party id out of range");
        assert!(
            input.index() < tree.vertex_count(),
            "input vertex out of range"
        );
        let table = ProjectionTable::new(tree, &cfg.path);
        let i = table.position(input) as f64;
        let engine = InnerAa::new(
            cfg.engine,
            me,
            cfg.n,
            cfg.t,
            1.0,
            cfg.path.edge_len() as f64,
            i,
        );
        ProjectionAaParty {
            cfg,
            me,
            engine,
            output: None,
        }
    }
}

impl Protocol for ProjectionAaParty {
    type Msg = TreeMsg;
    type Output = VertexId;

    fn step(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        if self.output.is_some() {
            return;
        }
        let traffic = phase_traffic(inbox, 2);
        let out = self.engine.step(self.me, self.cfg.n, round, traffic);
        forward_phase(ctx, out, 2);
        if let Some(j) = self.engine.output() {
            // Remark 1 keeps closestInt(j) within the honest positions,
            // hence on the path; clamp defensively all the same.
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
    use tree_model::Tree;

    /// The Figure 2 scenario: a known path v1..v8 and inputs hanging off
    /// it; outputs must be 1-close path vertices inside the inputs' hull.
    #[test]
    fn figure2_scenario() {
        // Path spine a1-a2-...-a8 with inputs u1 off a3, u2 at a4, u3 off
        // a6 (mirroring the figure's structure).
        let tree = Arc::new(
            Tree::from_labeled_edges(
                ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "u1", "u3"],
                [
                    ("a1", "a2"),
                    ("a2", "a3"),
                    ("a3", "a4"),
                    ("a4", "a5"),
                    ("a5", "a6"),
                    ("a6", "a7"),
                    ("a7", "a8"),
                    ("u1", "a3"),
                    ("u3", "a6"),
                ],
            )
            .unwrap(),
        );
        let spine = tree.path(tree.vertex("a1").unwrap(), tree.vertex("a8").unwrap());
        let cfg =
            ProjectionAaConfig::new(4, 1, EngineKind::Gradecast, Arc::new(spine.clone())).unwrap();
        let inputs: Vec<VertexId> = ["u1", "a4", "u3", "a4"]
            .iter()
            .map(|l| tree.vertex(l).unwrap())
            .collect();
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| ProjectionAaParty::new(id, cfg.clone(), &tree, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        let outputs = report.honest_outputs();
        // 1-agreement.
        for &a in &outputs {
            for &b in &outputs {
                assert!(tree.distance(a, b) <= 1);
            }
        }
        // Validity: hull of {u1, a4, u3} is {u1, a3, a4, a5, a6, u3}.
        let hull = tree.convex_hull(&inputs);
        for &o in &outputs {
            assert!(hull.contains(o), "{} outside hull", tree.label(o));
            assert!(spine.contains(o), "{} off the path", tree.label(o));
        }
    }

    #[test]
    fn single_vertex_path_degenerates() {
        let tree = Arc::new(tree_model::generate::star(5));
        let center = tree.root();
        let p = Arc::new(tree.path(center, center));
        let cfg = ProjectionAaConfig::new(4, 1, EngineKind::Gradecast, p).unwrap();
        assert_eq!(cfg.rounds(), 0);
        let inputs: Vec<VertexId> = tree.vertices().take(4).collect();
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 5,
            },
            |id, _| ProjectionAaParty::new(id, cfg.clone(), &tree, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        for o in report.honest_outputs() {
            assert_eq!(o, center);
        }
    }
}
