use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tree_model::{generate, Tree, VertexId};

/// **E5 — Figure 1: convex hulls on trees.**
///
/// Reproduces the Figure 1 example (the hull of `{u1, u2, u3}` is
/// `{u1, …, u5}`) and then cross-validates the `O(|V|)` hull algorithm
/// against the definitional characterization (`w ∈ ⟨S⟩` iff `w` lies on a
/// path between two members of `S`) over randomized trees.
pub fn e5() -> String {
    let mut out = String::new();
    // The exact Figure 1 scenario.
    let tree = Tree::from_labeled_edges(
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
    .expect("valid tree");
    let s: Vec<VertexId> = ["u1", "u2", "u3"]
        .iter()
        .map(|l| tree.vertex(l).expect("present"))
        .collect();
    let hull = tree.convex_hull(&s);
    let mut labels: Vec<String> = hull.iter().map(|v| tree.label(v).to_string()).collect();
    labels.sort();
    outln!(out, "### E5: Figure 1 convex hull\n");
    outln!(out, "hull of {{u1, u2, u3}} = {{{}}}", labels.join(", "));
    assert_eq!(labels, ["u1", "u2", "u3", "u4", "u5"], "Figure 1 mismatch");
    outln!(out, "matches the paper's Figure 1: yes\n");

    // Randomized cross-validation of the hull law.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut checked = 0usize;
    for _ in 0..200 {
        let size = rng.gen_range(2..50);
        let t = generate::random_prufer(size, &mut rng);
        let k = rng.gen_range(1..=5usize);
        let s: Vec<VertexId> = (0..k)
            .map(|_| t.vertices().nth(rng.gen_range(0..size)).expect("ok"))
            .collect();
        let hull = t.convex_hull(&s);
        for w in t.vertices() {
            assert_eq!(
                hull.contains(w),
                t.hull_contains_naive(&s, w),
                "hull law violated"
            );
            checked += 1;
        }
    }
    outln!(
        out,
        "randomized hull-law checks: {checked} memberships verified, 0 mismatches"
    );
    out
}
