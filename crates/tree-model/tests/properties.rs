//! Property-based tests for the tree-model invariants the protocols rely
//! on: metric laws, hull laws, Lemma 1 (projection), Lemma 2 (Euler list),
//! Lemma 3 (root paths through hulls), and Remarks 1-2 (closestInt).

use proptest::prelude::*;
use rand::SeedableRng;
use tree_model::{closest_int, generate, list_construction, Tree, VertexId};

/// A random tree described by a seed + size, decodable deterministically.
fn arb_tree() -> impl Strategy<Value = Tree> {
    (1usize..60, any::<u64>(), prop::bool::ANY).prop_map(|(n, seed, uniform)| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = if uniform {
            generate::random_prufer(n, &mut rng)
        } else {
            generate::random_attachment(n, &mut rng)
        };
        generate::relabel_shuffled(&t, &mut rng)
    })
}

fn arb_tree_with_subset(max_subset: usize) -> impl Strategy<Value = (Tree, Vec<VertexId>)> {
    (arb_tree(), any::<u64>()).prop_map(move |(t, seed)| {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let k = rng.gen_range(1..=max_subset);
        let s: Vec<VertexId> = (0..k)
            .map(|_| VertexId_from_index(&t, rng.gen_range(0..t.vertex_count())))
            .collect();
        (t, s)
    })
}

/// Helper: vertices() is the only public way to get ids; index into it.
#[allow(non_snake_case)]
fn VertexId_from_index(t: &Tree, i: usize) -> VertexId {
    t.vertices().nth(i).expect("index in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distance_is_a_metric((t, s) in arb_tree_with_subset(3)) {
        let u = s[0];
        let v = s[s.len() / 2];
        let w = s[s.len() - 1];
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(t.distance(u, u), 0);
        prop_assert_eq!(t.distance(u, v), t.distance(v, u));
        prop_assert!(t.distance(u, w) <= t.distance(u, v) + t.distance(v, w));
    }

    #[test]
    fn path_endpoints_and_adjacency(t in arb_tree()) {
        for u in t.vertices() {
            let v = t.root();
            let p = t.path(u, v);
            prop_assert_eq!(p.endpoints(), (u, v));
            for pair in p.vertices().windows(2) {
                prop_assert!(t.adjacent(pair[0], pair[1]));
            }
            prop_assert_eq!(p.edge_len(), t.distance(u, v));
        }
    }

    #[test]
    fn lca_table_matches_naive(t in arb_tree()) {
        let table = tree_model::LcaTable::new(&t);
        for u in t.vertices() {
            for v in t.vertices() {
                prop_assert_eq!(table.lca(u, v), t.lca_naive(u, v));
            }
        }
    }

    #[test]
    fn hull_contains_inputs_and_is_minimal((t, s) in arb_tree_with_subset(6)) {
        let hull = t.convex_hull(&s);
        for &v in &s {
            prop_assert!(hull.contains(v));
        }
        // Every hull member is on a path between two members of S.
        for w in hull.iter() {
            prop_assert!(t.hull_contains_naive(&s, w));
        }
        // And nothing outside is.
        for w in t.vertices() {
            if !hull.contains(w) {
                prop_assert!(!t.hull_contains_naive(&s, w));
            }
        }
    }

    #[test]
    fn hull_is_idempotent((t, s) in arb_tree_with_subset(6)) {
        let hull = t.convex_hull(&s);
        let again = t.convex_hull(hull.vertices());
        prop_assert_eq!(hull.vertices(), again.vertices());
    }

    #[test]
    fn hull_is_monotone((t, s) in arb_tree_with_subset(6)) {
        let sub = &s[..s.len().div_ceil(2)];
        let small = t.convex_hull(sub);
        let big = t.convex_hull(&s);
        for v in small.iter() {
            prop_assert!(big.contains(v));
        }
    }

    #[test]
    fn euler_list_satisfies_lemma2(t in arb_tree()) {
        let l = list_construction(&t);
        let n = t.vertex_count();
        prop_assert!(l.len() <= 2 * n);
        prop_assert_eq!(l.len(), 2 * n - 1);
        if n > 1 {
            for w in l.entries().windows(2) {
                prop_assert!(t.adjacent(w[0], w[1]));
            }
        }
        for v in t.vertices() {
            prop_assert!(!l.occurrences(v).is_empty());
            let (lo, hi) = (l.first_occurrence(v), l.last_occurrence(v));
            for u in t.vertices() {
                let inside = l.occurrences(u).iter().all(|&i| lo <= i && i <= hi);
                prop_assert_eq!(t.is_ancestor(v, u), inside);
            }
        }
    }

    #[test]
    fn lemma3_root_paths_intersect_hull((t, s) in arb_tree_with_subset(5)) {
        // For any index between the extremes of S's occurrences, the path
        // from the root to L_i intersects <S>.
        let l = list_construction(&t);
        let hull = t.convex_hull(&s);
        let i_min = s.iter().map(|&v| l.first_occurrence(v)).min().unwrap();
        let i_max = s.iter().map(|&v| l.last_occurrence(v)).max().unwrap();
        for i in i_min..=i_max {
            let p = t.path(t.root(), l.get(i));
            prop_assert!(
                p.vertices().iter().any(|&w| hull.contains(w)),
                "path to L_{} misses the hull", i
            );
        }
    }

    #[test]
    fn lemma1_projections_stay_in_hull((t, s) in arb_tree_with_subset(5)) {
        // Choose the hull's diameter path as P (it intersects <S>), then
        // every projection of an S-vertex lands in V(P) ∩ <S>.
        let hull = t.convex_hull(&s);
        let p = t.hull_diameter_path(&hull).expect("non-empty S");
        let table = tree_model::ProjectionTable::new(&t, &p);
        for &v in &s {
            let pr = table.project(v);
            prop_assert!(p.contains(pr));
            prop_assert!(hull.contains(pr));
        }
    }

    #[test]
    fn projection_minimizes_distance((t, s) in arb_tree_with_subset(2)) {
        let p = t.path(s[0], *s.last().unwrap());
        let table = tree_model::ProjectionTable::new(&t, &p);
        for v in t.vertices() {
            let pr = table.project(v);
            for &w in p.vertices() {
                prop_assert!(t.distance(v, pr) <= t.distance(v, w));
            }
        }
    }

    #[test]
    fn closest_int_remark1(lo in -50i64..0, hi in 0i64..50, x in 0.0f64..1.0) {
        let j = lo as f64 + (hi - lo) as f64 * x;
        let r = closest_int(j);
        prop_assert!(r >= lo && r <= hi);
    }

    #[test]
    fn closest_int_remark2(j in -100.0f64..100.0, d in -1.0f64..1.0) {
        let r = closest_int(j);
        let rp = closest_int(j + d);
        prop_assert!((r - rp).abs() <= 1);
    }

    #[test]
    fn diameter_equals_max_pairwise_distance(t in arb_tree()) {
        let info = t.diameter_info();
        let mut best = 0;
        for u in t.vertices() {
            for v in t.vertices() {
                best = best.max(t.distance(u, v));
            }
        }
        prop_assert_eq!(info.diameter, best);
        prop_assert_eq!(info.path.edge_len(), best);
    }
}

// ---------------------------------------------------------------------
// Exhaustive cross-checks against from-scratch reference implementations
// (independent of everything in tree-model: LCA by ancestor walk, metric
// by BFS over the raw adjacency lists), over a fixed stream of 200 seeded
// random trees. proptest shrinks well but re-derives its oracles from the
// crate under test; these loops don't.
// ---------------------------------------------------------------------

/// The 200 seeded random trees the cross-check tests iterate over.
fn seeded_trees() -> impl Iterator<Item = Tree> {
    (0u64..200).map(|seed| {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(1..40);
        let t = if seed % 2 == 0 {
            generate::random_prufer(n, &mut rng)
        } else {
            generate::random_attachment(n, &mut rng)
        };
        generate::relabel_shuffled(&t, &mut rng)
    })
}

/// Reference LCA: walk `u`'s ancestor chain to the root, then walk up
/// from `v` until hitting it — O(n), no Euler tour, no sparse table.
fn lca_by_ancestor_walk(t: &Tree, u: VertexId, v: VertexId) -> VertexId {
    let mut chain = vec![u];
    let mut cur = u;
    while let Some(p) = t.parent(cur) {
        chain.push(p);
        cur = p;
    }
    let mut cur = v;
    loop {
        if chain.contains(&cur) {
            return cur;
        }
        cur = t.parent(cur).expect("walk reaches the root");
    }
}

/// Reference single-source distances: plain BFS over `neighbors()`.
fn bfs_distances(t: &Tree, src: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; t.vertex_count()];
    dist[src.index()] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &w in t.neighbors(u) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[u.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[test]
fn lca_table_and_euler_tour_match_ancestor_walk_on_200_trees() {
    for t in seeded_trees() {
        let table = tree_model::LcaTable::new(&t);
        let l = list_construction(&t);
        for u in t.vertices() {
            for v in t.vertices() {
                let expected = lca_by_ancestor_walk(&t, u, v);
                assert_eq!(table.lca(u, v), expected);
                // The classic Euler-tour reduction: the shallowest list
                // entry between two first occurrences is the LCA.
                let (lo, hi) = {
                    let (a, b) = (l.first_occurrence(u), l.first_occurrence(v));
                    (a.min(b), a.max(b))
                };
                let shallowest = (lo..=hi)
                    .map(|i| l.get(i))
                    .min_by_key(|&w| t.depth(w))
                    .expect("non-empty range");
                assert_eq!(shallowest, expected);
            }
        }
    }
}

/// One small tree of every deterministic generator family; the random
/// families are what [`seeded_trees`] draws from.
fn family_trees() -> Vec<Tree> {
    vec![
        generate::path(1),
        generate::path(9),
        generate::star(7),
        generate::balanced_kary(2, 4),
        generate::balanced_kary(3, 2),
        generate::caterpillar(5, 2),
        generate::spider(4, 3),
        generate::broom(4, 5),
    ]
}

#[test]
fn root_path_projection_position_is_lca_depth_on_families_and_200_trees() {
    // The root paths TreeAA projects onto at the phase boundary: on
    // P(root, x), v projects onto lca(v, x), which sits at its own depth,
    // and position i of the path is x's ancestor at depth i.
    for t in family_trees().into_iter().chain(seeded_trees()) {
        let lcas = t.lca_table();
        for x in t.vertices() {
            let path = t.path(t.root(), x);
            assert_eq!(path.len(), t.depth(x) as usize + 1);
            for i in 0..=t.depth(x) {
                assert_eq!(Some(lcas.ancestor(x, i)), path.get(i as usize));
            }
            let table = tree_model::ProjectionTable::new(&t, &path);
            for v in t.vertices() {
                let lca = t.lca_naive(v, x);
                assert_eq!(lcas.lca(v, x), lca);
                assert_eq!(table.project(v), lca);
                assert_eq!(table.position(v), t.depth(lca) as usize);
            }
        }
    }
}

#[test]
fn arbitrary_path_queries_match_a_materialised_path_on_families_and_200_trees() {
    // `path_position` and `path_vertex` answer for any P(a, b), while every
    // protocol path so far starts at the root; check both against the
    // BFS-built `ProjectionTable` and `TreePath::get` on sampled pairs:
    // every endpoint against a stride of partners, in both orientations.
    for t in family_trees().into_iter().chain(seeded_trees()) {
        let lcas = t.lca_table();
        let vs: Vec<VertexId> = t.vertices().collect();
        for (k, &a) in vs.iter().enumerate() {
            for &b in vs.iter().skip(k % 3).step_by(3) {
                let path = t.path(a, b);
                for i in 0..path.len() {
                    assert_eq!(Some(lcas.path_vertex(a, b, i)), path.get(i));
                }
                let table = tree_model::ProjectionTable::new(&t, &path);
                for &v in &vs {
                    assert_eq!(lcas.path_position(a, b, v), table.position(v));
                }
            }
        }
    }
}

#[test]
fn memoised_euler_list_is_the_fresh_one_with_brute_force_occurrences() {
    for t in family_trees().into_iter().chain(seeded_trees()) {
        let l = t.euler_list();
        assert_eq!(*l, list_construction(&t));
        for v in t.vertices() {
            let positions: Vec<usize> = (0..l.len()).filter(|&i| l.get(i) == v).collect();
            assert_eq!(l.occurrences(v), positions);
            assert_eq!(l.first_occurrence(v), positions[0]);
            assert_eq!(l.last_occurrence(v), *positions.last().expect("occurs"));
        }
    }
}

#[test]
fn memoised_lca_table_answers_as_a_fresh_one() {
    for t in family_trees().into_iter().chain(seeded_trees()) {
        let (memo, fresh) = (t.lca_table(), tree_model::LcaTable::new(&t));
        for u in t.vertices() {
            for v in t.vertices() {
                assert_eq!(memo.lca(u, v), fresh.lca(u, v));
                assert_eq!(memo.distance(u, v), fresh.distance(u, v));
                assert_eq!(memo.is_ancestor(u, v), fresh.is_ancestor(u, v));
            }
            for d in 0..=t.depth(u) {
                assert_eq!(memo.ancestor(u, d), fresh.ancestor(u, d));
            }
        }
    }
}

#[test]
fn distance_and_diameter_match_brute_force_bfs_on_200_trees() {
    for t in seeded_trees() {
        let mut best = 0;
        for u in t.vertices() {
            let dist = bfs_distances(&t, u);
            for v in t.vertices() {
                assert_eq!(t.distance(u, v), dist[v.index()]);
                best = best.max(dist[v.index()]);
            }
        }
        assert_eq!(t.diameter(), best);
    }
}

#[test]
fn hull_matches_brute_force_betweenness_on_200_trees() {
    for t in seeded_trees() {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(t.vertex_count() as u64);
        let verts: Vec<VertexId> = t.vertices().collect();
        let k = rng.gen_range(1..=verts.len().min(5));
        let s: Vec<VertexId> = (0..k)
            .map(|_| verts[rng.gen_range(0..verts.len())])
            .collect();
        let hull = t.convex_hull(&s);
        // w ∈ <S> iff w lies on a shortest path between two members of S:
        // d(a, w) + d(w, b) = d(a, b) for some a, b ∈ S.
        for &w in &verts {
            let between = s.iter().any(|&a| {
                s.iter()
                    .any(|&b| t.distance(a, w) + t.distance(w, b) == t.distance(a, b))
            });
            assert_eq!(hull.contains(w), between, "vertex {w} of hull over {s:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_serialization_roundtrips(t in arb_tree()) {
        let text = t.to_text();
        let back = tree_model::parse_tree(&text).unwrap();
        prop_assert_eq!(back.vertex_count(), t.vertex_count());
        prop_assert_eq!(back.diameter(), t.diameter());
        for v in t.vertices() {
            let label = t.label(v).as_str();
            let w = back.vertex(label).unwrap();
            prop_assert_eq!(back.degree(w), t.degree(v));
        }
    }
}
