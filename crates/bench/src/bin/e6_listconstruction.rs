//! **E6 — Figures 3 and 4: `ListConstruction` and the
//! valid-subtree-but-invalid-vertex phenomenon.**
//!
//! First reproduces the paper's Euler list for the Figure 3 tree
//! verbatim. Then reproduces the Section 6 discussion around Figure 4:
//! with honest inputs `{v3, v6, v5}` (hull `{v5, v2, v3, v6}`), a
//! Byzantine party that runs `PathsFinder` *honestly but with a planted
//! input* can steer the agreed list index into `L(v4) ∪ L(v8)` — vertices
//! **outside** the honest hull — yet every resulting root path still
//! intersects the hull (Lemma 3), which is all `TreeAA` needs.

use std::sync::Arc;

use bench::Table;
use sim_net::{run_simulation, Passive, SimConfig};
use tree_aa::{EngineKind, PathsFinderConfig, PathsFinderParty};
use tree_model::{Tree, VertexId};

fn figure3() -> Tree {
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
    .expect("valid tree")
}

fn main() {
    let tree = Arc::new(figure3());
    let list = tree.euler_list();
    let labels: Vec<&str> = list
        .entries()
        .iter()
        .map(|&v| tree.label(v).as_str())
        .collect();
    println!("## E6a: ListConstruction on the Figure 3 tree\n");
    println!("L = [{}]", labels.join(", "));
    let expected = [
        "v1", "v2", "v3", "v6", "v3", "v7", "v3", "v2", "v4", "v8", "v4", "v2", "v5", "v2", "v1",
    ];
    assert_eq!(labels, expected, "Euler list mismatch with the paper");
    println!(
        "matches the paper's list: yes (|L| = {} = 2|V| - 1)\n",
        list.len()
    );

    println!("## E6b: steering PathsFinder outside the honest hull (Figure 4)\n");
    let honest_inputs: Vec<VertexId> = ["v3", "v6", "v5"]
        .iter()
        .map(|l| tree.vertex(l).expect("present"))
        .collect();
    let hull = tree.convex_hull(&honest_inputs);
    let (n, t) = (4usize, 1usize);
    let cfg = PathsFinderConfig::new(n, t, EngineKind::Gradecast, &tree).expect("valid");

    let mut table = Table::new(&[
        "byz planted input",
        "honest path endpoints",
        "endpoint in honest hull?",
        "path intersects hull (Lemma 3)?",
    ]);
    let mut escapes = 0usize;
    for planted in tree.vertices() {
        // The Byzantine party (id 3) runs the protocol honestly with a
        // planted input — the cheapest steering strategy.
        let inputs = [
            honest_inputs[0],
            honest_inputs[1],
            honest_inputs[2],
            planted,
        ];
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| PathsFinderParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            Passive,
        )
        .expect("simulation completes");
        // Party 3 is "byzantine by input": evaluate only honest parties.
        let paths: Vec<_> = (0..3)
            .map(|i| report.outputs[i].clone().expect("output"))
            .collect();
        let mut endpoints: Vec<String> = Vec::new();
        let mut all_valid = true;
        let mut all_intersect = true;
        for p in &paths {
            let (_, end) = p.endpoints();
            if !endpoints.contains(&tree.label(end).to_string()) {
                endpoints.push(tree.label(end).to_string());
            }
            all_valid &= hull.contains(end);
            all_intersect &= p.vertices().iter().any(|&v| hull.contains(v));
        }
        assert!(all_intersect, "Lemma 3 violated");
        if !all_valid {
            escapes += 1;
        }
        table.row(vec![
            tree.label(planted).to_string(),
            endpoints.join("/"),
            all_valid.to_string(),
            all_intersect.to_string(),
        ]);
    }
    table.print();
    println!(
        "\n{escapes} planted inputs steered the agreed vertex outside the honest hull \
         (into the subtree of a valid vertex), and every path still intersected the \
         hull — exactly the Figure 4 phenomenon and why TreeAA's second phase exists."
    );
    assert!(
        escapes > 0,
        "expected at least one hull escape to demonstrate Figure 4"
    );
}
