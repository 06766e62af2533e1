//! The paper's figures, end to end: each figure's exact scenario is
//! reproduced through the public API and its stated conclusion asserted.

use std::sync::Arc;

use tree_aa_repro::sim_net::{run_simulation, Passive, SimConfig};
use tree_aa_repro::tree_aa::{
    check_paths_finder, EngineKind, PathsFinderConfig, PathsFinderParty, ProjectionAaConfig,
    ProjectionAaParty,
};
use tree_aa_repro::tree_model::{Tree, VertexId};

/// Figure 1: hull of {u1, u2, u3} = {u1, ..., u5}.
#[test]
fn figure1_convex_hull() {
    let t = Tree::from_labeled_edges(
        ["u1", "u2", "u3", "u4", "u5", "w1", "w2"],
        [
            ("u1", "u4"),
            ("u4", "u5"),
            ("u5", "u2"),
            ("u4", "u3"),
            ("w1", "u5"),
            ("w2", "u1"),
        ],
    )
    .unwrap();
    let s: Vec<VertexId> = ["u1", "u2", "u3"]
        .iter()
        .map(|l| t.vertex(l).unwrap())
        .collect();
    let hull = t.convex_hull(&s);
    let mut labels: Vec<_> = hull.iter().map(|v| t.label(v).to_string()).collect();
    labels.sort();
    assert_eq!(labels, ["u1", "u2", "u3", "u4", "u5"]);
}

fn figure3_tree() -> Tree {
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
    .unwrap()
}

/// Figure 2 / Section 5: projections onto a known path stay in the hull
/// and the protocol outputs 1-close valid path vertices.
#[test]
fn figure2_projection_protocol() {
    let tree = Arc::new(figure3_tree());
    // Known path v1 .. v2 .. v4 .. v8 intersects the hull of the honest
    // inputs below (their hull contains v2).
    let path = tree.path(tree.vertex("v1").unwrap(), tree.vertex("v8").unwrap());
    let inputs: Vec<VertexId> = ["v6", "v5", "v3", "v7"]
        .iter()
        .map(|l| tree.vertex(l).unwrap())
        .collect();
    let cfg = ProjectionAaConfig::new(4, 1, EngineKind::Gradecast, &path).unwrap();
    let report = run_simulation(
        SimConfig {
            n: 4,
            t: 1,
            max_rounds: cfg.rounds() + 5,
        },
        |id, _| ProjectionAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
        Passive,
    )
    .unwrap();
    let outputs = report.honest_outputs();
    let hull = tree.convex_hull(&inputs);
    for &o in &outputs {
        assert!(path.contains(o), "output must be on the known path");
        assert!(hull.contains(o), "output must be valid");
    }
    for &a in &outputs {
        for &b in &outputs {
            assert!(tree.distance(a, b) <= 1);
        }
    }
}

/// Figure 3: the exact Euler list from Section 6.
#[test]
fn figure3_euler_list() {
    let t = figure3_tree();
    let l = t.euler_list();
    let labels: Vec<&str> = l.entries().iter().map(|&v| t.label(v).as_str()).collect();
    assert_eq!(
        labels,
        [
            "v1", "v2", "v3", "v6", "v3", "v7", "v3", "v2", "v4", "v8", "v4", "v2", "v5", "v2",
            "v1"
        ]
    );
}

/// Figure 4 / Section 6: with honest inputs {v3, v6, v5}, a planted
/// Byzantine input can steer the agreed vertex to v4 or v8 — outside the
/// honest hull — but the root path still intersects the hull (Lemma 3),
/// and Lemma 4 holds regardless.
#[test]
fn figure4_invalid_vertex_valid_subtree() {
    let tree = Arc::new(figure3_tree());
    let honest: Vec<VertexId> = ["v3", "v6", "v5"]
        .iter()
        .map(|l| tree.vertex(l).unwrap())
        .collect();
    let hull = tree.convex_hull(&honest);
    let cfg = PathsFinderConfig::new(4, 1, EngineKind::Gradecast, &tree).unwrap();

    let mut steered_outside = false;
    for planted in tree.vertices() {
        let inputs = [honest[0], honest[1], honest[2], planted];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| PathsFinderParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            Passive,
        )
        .unwrap();
        let paths: Vec<_> = (0..3).map(|i| report.outputs[i].clone().unwrap()).collect();
        check_paths_finder(&tree, &honest, &paths).unwrap();
        for p in &paths {
            let (_, end) = p.endpoints();
            if !hull.contains(end) {
                steered_outside = true;
                // The escape must stay inside the subtree rooted at a valid
                // vertex (here v2's subtree: v4 or v8).
                let label = tree.label(end).as_str();
                assert!(
                    label == "v4" || label == "v8",
                    "escape landed on unexpected vertex {label}"
                );
            }
        }
    }
    assert!(steered_outside, "the Figure 4 escape must be reachable");
}

/// Degenerate input spaces: single vertex and single edge are handled
/// without any communication (Section 2's triviality remark).
#[test]
fn trivial_input_spaces() {
    use tree_aa_repro::tree_aa::{TreeAaConfig, TreeAaParty};
    use tree_aa_repro::tree_model::generate;
    for size in [1usize, 2] {
        let tree = Arc::new(generate::path(size));
        let cfg = TreeAaConfig::new(4, 1, EngineKind::Gradecast, &tree).unwrap();
        assert!(cfg.trivial());
        assert_eq!(cfg.total_rounds(), 0);
        let inputs: Vec<VertexId> = (0..4)
            .map(|i| tree.vertices().nth(i % size).unwrap())
            .collect();
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 3,
            },
            |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(report.honest_outputs(), inputs);
        assert_eq!(report.metrics.total_messages(), 0);
    }
}
