//! Paths in trees: the unique simple path `P(u, v)` and path arithmetic.

use crate::tree::{Tree, VertexId};

/// The unique simple path between two vertices of a [`Tree`].
///
/// A path is a non-empty sequence of pairwise-adjacent, distinct vertices.
/// Its *length* `d(u, v)` is the number of edges, i.e. `len() - 1`; the
/// paper indexes the `k` vertices of a path as `(v_1, …, v_k)`, which
/// corresponds to `path.vertices()[0..k]` here (0-based).
///
/// # Example
///
/// ```
/// use tree_model::generate;
///
/// let tree = generate::path(4);
/// let a = tree.vertex("v0000").unwrap();
/// let d = tree.vertex("v0003").unwrap();
/// let p = tree.path(a, d);
/// assert_eq!(p.edge_len(), 3);
/// assert_eq!(p.endpoints(), (a, d));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreePath {
    vertices: Vec<VertexId>,
}

impl TreePath {
    /// Creates a path from a vertex sequence, validating adjacency and
    /// distinctness against `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is empty, contains repeats, or contains a
    /// non-adjacent consecutive pair. Internal callers construct paths they
    /// have already proven valid; this constructor is for tests and
    /// examples.
    pub fn new(tree: &Tree, vertices: Vec<VertexId>) -> Self {
        assert!(!vertices.is_empty(), "a path has at least one vertex");
        for w in vertices.windows(2) {
            assert!(
                tree.adjacent(w[0], w[1]),
                "consecutive path vertices must be adjacent"
            );
        }
        let mut seen = vec![false; tree.vertex_count()];
        for &v in &vertices {
            assert!(!seen[v.index()], "path vertices must be distinct");
            seen[v.index()] = true;
        }
        TreePath { vertices }
    }

    pub(crate) fn from_vec_unchecked(vertices: Vec<VertexId>) -> Self {
        debug_assert!(!vertices.is_empty());
        TreePath { vertices }
    }

    /// The vertices of the path in order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of vertices `k`.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` only never — paths are non-empty — but provided for API
    /// completeness alongside [`TreePath::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (the path's length in the metric sense).
    pub fn edge_len(&self) -> usize {
        self.vertices.len() - 1
    }

    /// First and last vertex.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.vertices[0], *self.vertices.last().expect("non-empty"))
    }

    /// The `i`-th vertex (0-based). The paper's `v_{i}` (1-based) is
    /// `get(i - 1)`.
    pub fn get(&self, i: usize) -> Option<VertexId> {
        self.vertices.get(i).copied()
    }

    /// Whether `v` lies on this path.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Position of `v` on the path, if present.
    pub fn position(&self, v: VertexId) -> Option<usize> {
        self.vertices.iter().position(|&x| x == v)
    }

    /// The path extended by one edge `(last, w)` — the paper's
    /// `P ⊕ (v, w)`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not adjacent to the last vertex or already on the
    /// path.
    pub fn extended(&self, tree: &Tree, w: VertexId) -> TreePath {
        let (_, last) = self.endpoints();
        assert!(tree.adjacent(last, w), "extension must use an edge");
        assert!(!self.contains(w), "extension must leave the path simple");
        let mut vs = self.vertices.clone();
        vs.push(w);
        TreePath { vertices: vs }
    }

    /// `true` if `other` equals this path with exactly one extra trailing
    /// vertex (`other = self ⊕ (·,·)`).
    pub fn is_one_edge_prefix_of(&self, other: &TreePath) -> bool {
        other.vertices.len() == self.vertices.len() + 1
            && other.vertices[..self.vertices.len()] == self.vertices[..]
    }
}

impl Tree {
    /// The unique simple path `P(u, v)` from `u` to `v`.
    ///
    /// Computed by climbing both endpoints to their lowest common ancestor;
    /// `O(d(u, v))`.
    ///
    /// # Example
    ///
    /// ```
    /// use tree_model::Tree;
    ///
    /// # fn main() -> Result<(), tree_model::TreeError> {
    /// let t = Tree::from_labeled_edges(["a", "b", "c", "d"],
    ///     [("a", "b"), ("b", "c"), ("b", "d")])?;
    /// let p = t.path(t.vertex("c").unwrap(), t.vertex("d").unwrap());
    /// let labels: Vec<_> = p.vertices().iter().map(|&v| t.label(v).as_str()).collect();
    /// assert_eq!(labels, ["c", "b", "d"]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn path(&self, u: VertexId, v: VertexId) -> TreePath {
        let mut up = Vec::new(); // u ... lca
        let mut down = Vec::new(); // v ... child-of-lca (reversed later)
        let (mut a, mut b) = (u, v);
        while self.depth(a) > self.depth(b) {
            up.push(a);
            a = self.parent(a).expect("deeper vertex has parent");
        }
        while self.depth(b) > self.depth(a) {
            down.push(b);
            b = self.parent(b).expect("deeper vertex has parent");
        }
        while a != b {
            up.push(a);
            down.push(b);
            a = self.parent(a).expect("non-root vertex has parent");
            b = self.parent(b).expect("non-root vertex has parent");
        }
        up.push(a); // the LCA itself
        up.extend(down.into_iter().rev());
        TreePath::from_vec_unchecked(up)
    }

    /// The distance `d(u, v)`: the number of edges on `P(u, v)`.
    pub fn distance(&self, u: VertexId, v: VertexId) -> usize {
        let l = self.lca_naive(u, v);
        (self.depth(u) + self.depth(v) - 2 * self.depth(l)) as usize
    }

    /// LCA by parent climbing; `O(depth)`. The reference for the
    /// tree's memoised [`LcaTable`](crate::LcaTable) ([`Tree::lca_table`]),
    /// which answers in `O(log |V|)` after `O(|V| log |V|)` setup once per
    /// tree and is preferred in hot loops.
    pub fn lca_naive(&self, u: VertexId, v: VertexId) -> VertexId {
        let (mut a, mut b) = (u, v);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("deeper vertex has parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("deeper vertex has parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root vertex has parent");
            b = self.parent(b).expect("non-root vertex has parent");
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

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

    fn by_label(t: &Tree, p: &TreePath) -> Vec<String> {
        p.vertices()
            .iter()
            .map(|&v| t.label(v).to_string())
            .collect()
    }

    #[test]
    fn path_through_lca() {
        let t = figure3();
        let p = t.path(t.vertex("v6").unwrap(), t.vertex("v8").unwrap());
        assert_eq!(by_label(&t, &p), ["v6", "v3", "v2", "v4", "v8"]);
        assert_eq!(p.edge_len(), 4);
    }

    #[test]
    fn path_to_self_is_single_vertex() {
        let t = figure3();
        let v5 = t.vertex("v5").unwrap();
        let p = t.path(v5, v5);
        assert_eq!(p.vertices(), &[v5]);
        assert_eq!(p.edge_len(), 0);
        assert!(!p.is_empty());
    }

    #[test]
    fn path_is_reverse_of_opposite_path() {
        let t = figure3();
        for u in t.vertices() {
            for v in t.vertices() {
                let fwd = t.path(u, v);
                let mut bwd = t.path(v, u).vertices().to_vec();
                bwd.reverse();
                assert_eq!(fwd.vertices(), &bwd[..]);
            }
        }
    }

    #[test]
    fn distance_matches_path_len() {
        let t = figure3();
        for u in t.vertices() {
            for v in t.vertices() {
                assert_eq!(t.distance(u, v), t.path(u, v).edge_len());
            }
        }
    }

    #[test]
    fn ancestor_descendant_path() {
        let t = figure3();
        let p = t.path(t.vertex("v1").unwrap(), t.vertex("v8").unwrap());
        assert_eq!(by_label(&t, &p), ["v1", "v2", "v4", "v8"]);
    }

    #[test]
    fn extended_path() {
        let t = figure3();
        let p = t.path(t.vertex("v1").unwrap(), t.vertex("v4").unwrap());
        let q = p.extended(&t, t.vertex("v8").unwrap());
        assert_eq!(by_label(&t, &q), ["v1", "v2", "v4", "v8"]);
        assert!(p.is_one_edge_prefix_of(&q));
        assert!(!q.is_one_edge_prefix_of(&p));
        assert!(!p.is_one_edge_prefix_of(&p));
    }

    #[test]
    #[should_panic(expected = "extension must use an edge")]
    fn extended_requires_adjacency() {
        let t = figure3();
        let p = t.path(t.vertex("v1").unwrap(), t.vertex("v4").unwrap());
        let _ = p.extended(&t, t.vertex("v6").unwrap());
    }

    #[test]
    #[should_panic(expected = "simple")]
    fn extended_requires_simplicity() {
        let t = figure3();
        let p = t.path(t.vertex("v1").unwrap(), t.vertex("v4").unwrap());
        let _ = p.extended(&t, t.vertex("v2").unwrap());
    }

    #[test]
    fn position_and_contains() {
        let t = figure3();
        let p = t.path(t.vertex("v6").unwrap(), t.vertex("v8").unwrap());
        let v2 = t.vertex("v2").unwrap();
        assert!(p.contains(v2));
        assert_eq!(p.position(v2), Some(2));
        assert_eq!(p.position(t.vertex("v5").unwrap()), None);
    }

    #[test]
    fn validated_constructor_accepts_real_path() {
        let t = generate::path(6);
        let vs: Vec<_> = t.dfs_preorder().to_vec();
        let p = TreePath::new(&t, vs);
        assert_eq!(p.len(), 6);
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn validated_constructor_rejects_gaps() {
        let t = generate::path(4);
        let a = t.vertex("v0000").unwrap();
        let c = t.vertex("v0002").unwrap();
        let _ = TreePath::new(&t, vec![a, c]);
    }

    #[test]
    fn lca_naive_examples() {
        let t = figure3();
        let lca = t.lca_naive(t.vertex("v6").unwrap(), t.vertex("v7").unwrap());
        assert_eq!(t.label(lca).as_str(), "v3");
        let lca = t.lca_naive(t.vertex("v6").unwrap(), t.vertex("v5").unwrap());
        assert_eq!(t.label(lca).as_str(), "v2");
        let lca = t.lca_naive(t.vertex("v1").unwrap(), t.vertex("v8").unwrap());
        assert_eq!(t.label(lca).as_str(), "v1");
    }
}
