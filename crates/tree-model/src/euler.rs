//! `ListConstruction`: the Euler-tour list representation of a rooted tree
//! (Section 6 and Lemma 2 of the paper).
//!
//! Every party runs this deterministic traversal locally, obtaining the same
//! list `L`; `PathsFinder` then runs real-valued AA over *indices into* `L`.

use crate::tree::{Tree, VertexId};

/// The list `L` produced by [`list_construction`], together with the
/// occurrence index `L(v)` for every vertex.
///
/// Indices are **0-based** throughout this crate (the paper uses 1-based
/// indices; the translation is mechanical and does not affect any of the
/// interval arguments of Lemma 2/3).
///
/// # Example
///
/// ```
/// use tree_model::{Tree, list_construction};
///
/// # fn main() -> Result<(), tree_model::TreeError> {
/// let t = Tree::from_labeled_edges(["a", "b", "c"], [("a", "b"), ("a", "c")])?;
/// let l = list_construction(&t);
/// // DFS from `a`: a, b, back to a, c, back to a.
/// let labels: Vec<_> = l.entries().iter().map(|&v| t.label(v).as_str()).collect();
/// assert_eq!(labels, ["a", "b", "a", "c", "a"]);
/// assert_eq!(l.occurrences(t.vertex("a").unwrap()), &[0, 2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EulerList {
    entries: Vec<VertexId>,
    /// `positions[offsets[v]..offsets[v + 1]]` = sorted list of indices i
    /// with `entries[i] == v` (one flat vector, not one `Vec` per vertex).
    offsets: Vec<usize>,
    positions: Vec<usize>,
}

impl EulerList {
    /// The full list `L`.
    pub fn entries(&self) -> &[VertexId] {
        &self.entries
    }

    /// `|L|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` never for lists built from a [`Tree`] (trees are non-empty);
    /// provided alongside [`EulerList::len`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The vertex `L_i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> VertexId {
        self.entries[i]
    }

    /// The sorted occurrence set `L(v)`.
    pub fn occurrences(&self, v: VertexId) -> &[usize] {
        &self.positions[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// `min L(v)` — the index each party feeds into `RealAA` in
    /// `PathsFinder`.
    pub fn first_occurrence(&self, v: VertexId) -> usize {
        self.positions[self.offsets[v.index()]]
    }

    /// `max L(v)`.
    pub fn last_occurrence(&self, v: VertexId) -> usize {
        self.positions[self.offsets[v.index() + 1] - 1]
    }
}

/// Builds the paper's list representation: a DFS from the canonical root
/// that records the current vertex **on arrival and after each child
/// returns** (children in ascending label order).
///
/// Guarantees (Lemma 2), all covered by tests:
/// 1. consecutive entries are adjacent (when `|V| > 1`);
/// 2. `|L| = 2|V| − 1 ≤ 2|V|`, and every vertex occurs at least once;
/// 3. `u` is in the subtree rooted at `v` iff
///    `L(u) ⊆ [min L(v), max L(v)]`;
/// 4. for `i ∈ L(v)`, `i' ∈ L(v')`, the LCA of `v` and `v'` appears among
///    `L_k` for `k` between `i` and `i'`.
///
/// Protocol code reads the list through [`Tree::euler_list`], which runs
/// this function at most once per tree.
pub fn list_construction(tree: &Tree) -> EulerList {
    let n = tree.vertex_count();
    let mut entries = Vec::with_capacity(2 * n - 1);

    // Iterative DFS. The stack holds (vertex, next-child-position).
    let root = tree.root();
    let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
    entries.push(root);
    while let Some(&mut (v, ref mut next)) = stack.last_mut() {
        let kids = tree.children(v);
        if *next < kids.len() {
            let child = kids[*next];
            *next += 1;
            entries.push(child);
            stack.push((child, 0));
        } else {
            stack.pop();
            if let Some(&(parent, _)) = stack.last() {
                entries.push(parent);
            }
        }
    }

    // `v` occurs once on arrival and once after each child returns, so the
    // occurrence sets are laid out before the list is scanned once.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0;
    for v in tree.vertices() {
        offsets.push(total);
        total += tree.children(v).len() + 1;
    }
    offsets.push(total);
    let mut next = offsets.clone();
    let mut positions = vec![0; entries.len()];
    for (i, v) in entries.iter().enumerate() {
        positions[next[v.index()]] = i;
        next[v.index()] += 1;
    }

    EulerList {
        entries,
        offsets,
        positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::tree::Tree;

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
        .unwrap()
    }

    #[test]
    fn figure3_list_matches_paper() {
        // Section 6: L = [v1, v2, v3, v6, v3, v7, v3, v2, v4, v8, v4, v2,
        //                 v5, v2, v1]
        let t = figure3();
        let l = list_construction(&t);
        let labels: Vec<_> = l.entries().iter().map(|&v| t.label(v).as_str()).collect();
        assert_eq!(
            labels,
            [
                "v1", "v2", "v3", "v6", "v3", "v7", "v3", "v2", "v4", "v8", "v4", "v2", "v5", "v2",
                "v1"
            ]
        );
    }

    #[test]
    fn figure3_occurrence_sets_match_paper() {
        // The paper (1-based): L(v3) = {3,5,7}, L(v6) = {4}, L(v5) = {13},
        // L(v4) = {9,11}, L(v8) = {10}. Ours are 0-based (subtract 1).
        let t = figure3();
        let l = list_construction(&t);
        let occ = |s: &str| l.occurrences(t.vertex(s).unwrap()).to_vec();
        assert_eq!(occ("v3"), [2, 4, 6]);
        assert_eq!(occ("v6"), [3]);
        assert_eq!(occ("v5"), [12]);
        assert_eq!(occ("v4"), [8, 10]);
        assert_eq!(occ("v8"), [9]);
    }

    #[test]
    fn single_vertex_list() {
        let t = generate::path(1);
        let l = list_construction(&t);
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(0), t.root());
    }

    fn lemma2_check(t: &Tree) {
        let l = list_construction(t);
        let n = t.vertex_count();

        // Property 2: size bound and full coverage.
        assert_eq!(l.len(), 2 * n - 1);
        assert!(l.len() <= 2 * n);
        for v in t.vertices() {
            assert!(!l.occurrences(v).is_empty(), "vertex {v} missing");
        }

        // Property 1: consecutive adjacency.
        if n > 1 {
            for w in l.entries().windows(2) {
                assert!(t.adjacent(w[0], w[1]));
            }
        }

        // Property 3: subtree iff occurrence interval containment.
        for v in t.vertices() {
            let lo = l.first_occurrence(v);
            let hi = l.last_occurrence(v);
            for u in t.vertices() {
                let inside = l.occurrences(u).iter().all(|&i| lo <= i && i <= hi);
                assert_eq!(
                    t.is_ancestor(v, u),
                    inside,
                    "subtree/interval mismatch v={v} u={u}"
                );
            }
        }

        // Property 4: LCA appears within every occurrence interval.
        for v in t.vertices() {
            for u in t.vertices() {
                let lca = t.lca_naive(v, u);
                for &i in l.occurrences(v) {
                    for &j in l.occurrences(u) {
                        let (a, b) = (i.min(j), i.max(j));
                        assert!(
                            (a..=b).any(|k| l.get(k) == lca),
                            "lca {lca} not found between {a} and {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma2_on_figure3() {
        lemma2_check(&figure3());
    }

    #[test]
    fn lemma2_on_generated_families() {
        lemma2_check(&generate::path(9));
        lemma2_check(&generate::star(7));
        lemma2_check(&generate::balanced_kary(2, 4));
        lemma2_check(&generate::caterpillar(5, 2));
        lemma2_check(&generate::spider(4, 3));
    }

    #[test]
    fn occurrence_count_is_child_count_plus_one() {
        let t = figure3();
        let l = list_construction(&t);
        for v in t.vertices() {
            assert_eq!(l.occurrences(v).len(), t.children(v).len() + 1);
        }
    }

    #[test]
    fn first_and_last_occurrence_bracket_all() {
        let t = generate::balanced_kary(3, 3);
        let l = list_construction(&t);
        for v in t.vertices() {
            let occ = l.occurrences(v);
            assert_eq!(l.first_occurrence(v), occ[0]);
            assert_eq!(l.last_occurrence(v), *occ.last().unwrap());
            assert!(occ.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        }
    }
}
