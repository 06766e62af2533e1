//! Projection AA — AA on a tree when a path intersecting the honest
//! inputs' convex hull is *publicly known* (Section 5). On a path graph,
//! projected onto itself, it is the Section 4 warm-up
//! ([`ProjectionAaConfig::path_graph`]); `TreeAA` runs it as its phase 2,
//! on the root path `PathsFinder` found.

use std::sync::Arc;

use sim_net::{Inbox, PartyId, Protocol, RoundCtx};
use tree_model::{closest_int, Tree, TreePath, VertexId};

use crate::engine::{engine_rounds, EngineKind, InnerAa, TreeMsg};

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
    /// The endpoints `(a, b)` of the publicly known path `P(a, b)`;
    /// positions count from `a`. The path must intersect the honest
    /// inputs' hull for Validity — that is this protocol's
    /// *precondition*, exactly as in Section 5.
    pub ends: (VertexId, VertexId),
    /// The public bound on how far apart positions lie, the engine's
    /// input range: `d(a, b)` for a known path, `D(T)` inside `TreeAA`,
    /// where the path is found at run time.
    pub span: usize,
}

impl ProjectionAaConfig {
    /// Creates the configuration for the known path `path`.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`.
    pub fn new(n: usize, t: usize, engine: EngineKind, path: &TreePath) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!(
                "projection AA requires n > 3t, got n = {n}, t = {t}"
            ));
        }
        Ok(ProjectionAaConfig {
            n,
            t,
            engine,
            ends: path.endpoints(),
            span: path.edge_len(),
        })
    }

    /// The Section 4 warm-up: the input space is itself a path graph,
    /// oriented from the endpoint with the lexicographically lower label
    /// (the paper's `v_1`), and every vertex projects onto itself.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if `n ≤ 3t` or the tree is not
    /// a path (a vertex of degree ≥ 3 exists).
    pub fn path_graph(n: usize, t: usize, engine: EngineKind, tree: &Tree) -> Result<Self, String> {
        if let Some(v) = tree.vertices().find(|&v| tree.degree(v) > 2) {
            return Err(format!(
                "input space is not a path: vertex `{}` has degree {}",
                tree.label(v),
                tree.degree(v)
            ));
        }
        // Endpoints: degree <= 1 (one of them on a single vertex).
        let mut ends: Vec<VertexId> = tree.vertices().filter(|&v| tree.degree(v) <= 1).collect();
        ends.sort_by(|&a, &b| tree.label(a).cmp(tree.label(b)));
        Self::new(n, t, engine, &tree.path(ends[0], ends[ends.len() - 1]))
    }

    /// Fixed communication rounds: one engine run with ε = 1 on
    /// `[0, span]`.
    pub fn rounds(&self) -> u32 {
        engine_rounds(self.engine, self.span as f64, 1.0)
    }
}

/// One party of the projection protocol: project the input onto the known
/// path, agree on positions, output the vertex at the rounded position.
#[derive(Clone, Debug)]
pub struct ProjectionAaParty {
    ends: (VertexId, VertexId),
    tree: Arc<Tree>,
    engine: InnerAa,
    output: Option<VertexId>,
}

impl ProjectionAaParty {
    /// Creates the party with its input vertex, projecting it onto the
    /// public path through the tree's memoised LCA table.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `input` is out of range.
    pub fn new(me: PartyId, cfg: ProjectionAaConfig, tree: Arc<Tree>, input: VertexId) -> Self {
        assert!(me.index() < cfg.n, "party id out of range");
        assert!(
            input.index() < tree.vertex_count(),
            "input vertex out of range"
        );
        let (a, b) = cfg.ends;
        let i = tree.lca_table().path_position(a, b, input) as f64;
        let engine = InnerAa::new(cfg.engine, 2, me, cfg.n, cfg.t, cfg.span as f64, i);
        ProjectionAaParty {
            ends: cfg.ends,
            tree,
            engine,
            output: None,
        }
    }

    /// The public path `P(a, b)`, built from its endpoints in `O(d(a, b))`.
    pub(crate) fn path(&self) -> TreePath {
        self.tree.path(self.ends.0, self.ends.1)
    }

    /// The position-agreement engine.
    pub(crate) fn engine(&self) -> &InnerAa {
        &self.engine
    }

    /// Outputs the path vertex at position `closestInt(j)`, clamped onto
    /// the path. On a known path Remark 1 keeps it within the honest
    /// positions; inside `TreeAA` a position one past the end is the
    /// Figure 5 fallback — the party holds the shorter of two 1-close root
    /// paths, and its last vertex is 1-close to every honest output.
    pub(crate) fn settle(&mut self, j: f64) {
        let (a, b) = self.ends;
        let lcas = self.tree.lca_table();
        let last = lcas.distance(a, b) as i64;
        let ci = closest_int(j).clamp(0, last) as usize;
        self.output = Some(lcas.path_vertex(a, b, ci));
    }
}

impl Protocol for ProjectionAaParty {
    type Msg = TreeMsg;
    type Output = VertexId;

    fn step(&mut self, round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        if self.output.is_some() {
            return;
        }
        self.engine.step(round, inbox, ctx);
        if let Some(j) = self.engine.output() {
            self.settle(j);
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

    /// Runs the protocol, all honest, returning the outputs and rounds.
    fn run(
        cfg: &ProjectionAaConfig,
        tree: &Arc<Tree>,
        inputs: &[VertexId],
    ) -> (Vec<VertexId>, u32) {
        let report = run_simulation(
            SimConfig {
                n: cfg.n,
                t: cfg.t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| ProjectionAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
            Passive,
        )
        .unwrap();
        (report.honest_outputs(), report.communication_rounds())
    }

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
        let cfg = ProjectionAaConfig::new(4, 1, EngineKind::Gradecast, &spine).unwrap();
        let inputs: Vec<VertexId> = ["u1", "a4", "u3", "a4"]
            .iter()
            .map(|l| tree.vertex(l).unwrap())
            .collect();
        let (outputs, _) = run(&cfg, &tree, &inputs);
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
        let tree = Arc::new(generate::star(5));
        let center = tree.root();
        let cfg = ProjectionAaConfig::new(4, 1, EngineKind::Gradecast, &tree.path(center, center))
            .unwrap();
        assert_eq!(cfg.rounds(), 0);
        let inputs: Vec<VertexId> = tree.vertices().take(4).collect();
        for o in run(&cfg, &tree, &inputs).0 {
            assert_eq!(o, center);
        }
    }

    #[test]
    fn converges_on_a_path_with_expected_rounds() {
        let tree = Arc::new(generate::path(100));
        let cfg = ProjectionAaConfig::path_graph(7, 2, EngineKind::Gradecast, &tree).unwrap();
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..7)
            .map(|i| tree.vertices().nth((i * 13) % m).unwrap())
            .collect();
        let (outputs, rounds) = run(&cfg, &tree, &inputs);
        assert_eq!(rounds, cfg.rounds());
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
        let err = ProjectionAaConfig::path_graph(4, 1, EngineKind::Gradecast, &star).unwrap_err();
        assert!(err.contains("not a path"), "{err}");
    }

    #[test]
    fn orientation_starts_at_lower_label() {
        let tree = generate::path(5);
        let cfg = ProjectionAaConfig::path_graph(4, 1, EngineKind::Gradecast, &tree).unwrap();
        assert_eq!(tree.label(cfg.ends.0).as_str(), "v0000");
        assert_eq!(tree.label(cfg.ends.1).as_str(), "v0004");
    }

    #[test]
    fn single_vertex_path_is_trivial() {
        let tree = Arc::new(generate::path(1));
        let cfg = ProjectionAaConfig::path_graph(4, 1, EngineKind::Halving, &tree).unwrap();
        assert_eq!(cfg.rounds(), 0);
        let v = tree.root();
        assert!(run(&cfg, &tree, &[v; 4]).0.iter().all(|&o| o == v));
    }
}
