//! The immutable labeled tree and its builder.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use crate::euler::{list_construction, EulerList};
use crate::label::Label;
use crate::lca::LcaTable;

/// A handle to a vertex of a [`Tree`].
///
/// Vertex ids are dense indices in `0..tree.vertex_count()` assigned in
/// insertion order by the [`TreeBuilder`]. They are only meaningful relative
/// to the tree they came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub(crate) usize);

impl VertexId {
    /// Returns the dense index of this vertex.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors raised while constructing a [`Tree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The same label was added twice.
    DuplicateLabel(Label),
    /// An edge referenced a label that was never added.
    UnknownLabel(Label),
    /// An edge connected a vertex to itself.
    SelfLoop(Label),
    /// The same undirected edge was added twice.
    DuplicateEdge(Label, Label),
    /// The edge set contains a cycle (|E| ≥ |V| on some component).
    Cyclic,
    /// The vertex set is not connected by the edges.
    Disconnected,
    /// No vertices were added.
    Empty,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DuplicateLabel(l) => write!(f, "duplicate vertex label `{l}`"),
            TreeError::UnknownLabel(l) => write!(f, "edge references unknown label `{l}`"),
            TreeError::SelfLoop(l) => write!(f, "self-loop on vertex `{l}`"),
            TreeError::DuplicateEdge(a, b) => write!(f, "duplicate edge between `{a}` and `{b}`"),
            TreeError::Cyclic => f.write_str("edge set contains a cycle"),
            TreeError::Disconnected => f.write_str("vertices are not connected"),
            TreeError::Empty => f.write_str("tree has no vertices"),
        }
    }
}

impl Error for TreeError {}

/// Incremental constructor for [`Tree`].
///
/// Add every vertex with [`TreeBuilder::add_vertex`], connect them with
/// [`TreeBuilder::add_edge`], and finish with [`TreeBuilder::build`], which
/// validates that the result is a non-empty, connected, acyclic graph.
///
/// # Example
///
/// ```
/// use tree_model::TreeBuilder;
///
/// # fn main() -> Result<(), tree_model::TreeError> {
/// let mut b = TreeBuilder::new();
/// b.add_vertex("a")?;
/// b.add_vertex("b")?;
/// b.add_edge("a", "b")?;
/// let tree = b.build()?;
/// assert_eq!(tree.vertex_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    labels: Vec<Label>,
    by_label: HashMap<Label, usize>,
    /// Normalised `(min, max)` index pairs in insertion order.
    edges: Vec<(usize, usize)>,
    /// The same pairs, for the O(1) duplicate check in `add_edge`.
    edge_set: HashSet<(usize, usize)>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex with the given label and returns its future id.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::DuplicateLabel`] if the label already exists.
    pub fn add_vertex(&mut self, label: impl Into<Label>) -> Result<VertexId, TreeError> {
        let label = label.into();
        if self.by_label.contains_key(&label) {
            return Err(TreeError::DuplicateLabel(label));
        }
        let id = self.labels.len();
        self.by_label.insert(label.clone(), id);
        self.labels.push(label);
        Ok(VertexId(id))
    }

    /// Adds an undirected edge between two previously added labels.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownLabel`] if either endpoint was never
    /// added, [`TreeError::SelfLoop`] for an edge from a vertex to itself,
    /// and [`TreeError::DuplicateEdge`] if the edge was already added.
    pub fn add_edge(&mut self, a: impl Into<Label>, b: impl Into<Label>) -> Result<(), TreeError> {
        let (a, b) = (a.into(), b.into());
        let ia = *self
            .by_label
            .get(&a)
            .ok_or_else(|| TreeError::UnknownLabel(a.clone()))?;
        let ib = *self
            .by_label
            .get(&b)
            .ok_or_else(|| TreeError::UnknownLabel(b.clone()))?;
        if ia == ib {
            return Err(TreeError::SelfLoop(a));
        }
        let key = (ia.min(ib), ia.max(ib));
        if !self.edge_set.insert(key) {
            return Err(TreeError::DuplicateEdge(a, b));
        }
        self.edges.push(key);
        Ok(())
    }

    /// Validates the accumulated vertices and edges and produces the tree.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::Empty`] for zero vertices, [`TreeError::Cyclic`]
    /// when `|E| != |V| - 1`, and [`TreeError::Disconnected`] when the edges
    /// do not connect all vertices.
    pub fn build(self) -> Result<Tree, TreeError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        if self.edges.len() >= n {
            return Err(TreeError::Cyclic);
        }
        if self.edges.len() + 1 < n {
            return Err(TreeError::Disconnected);
        }

        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }

        // Neighbor lists sorted by label so every traversal is canonical.
        let labels = self.labels;
        for list in &mut adj {
            list.sort_by(|&x, &y| labels[x].cmp(&labels[y]));
        }

        // Root: lexicographically smallest label.
        let root = (0..n)
            .min_by(|&x, &y| labels[x].cmp(&labels[y]))
            .expect("n > 0");

        // Iterative DFS from the root: connectivity check + parent/depth.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut depth: Vec<u32> = vec![0; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack = vec![root];
        visited[root] = true;
        while let Some(v) = stack.pop() {
            order.push(v);
            // Reverse so that the smallest-label child is processed first.
            for &w in adj[v].iter().rev() {
                if !visited[w] {
                    visited[w] = true;
                    parent[w] = Some(v);
                    depth[w] = depth[v] + 1;
                    stack.push(w);
                }
            }
        }
        if order.len() != n {
            // |E| = |V| - 1 but not all vertices reachable => a cycle exists
            // in one component and another component is separated. Report
            // disconnection, which is what the caller can act on.
            return Err(TreeError::Disconnected);
        }

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(v);
            }
        }
        for list in &mut children {
            list.sort_by(|&x, &y| labels[x].cmp(&labels[y]));
        }

        Ok(Tree {
            labels,
            by_label: self
                .by_label
                .into_iter()
                .map(|(l, i)| (l, VertexId(i)))
                .collect(),
            adj: adj
                .into_iter()
                .map(|l| l.into_iter().map(VertexId).collect())
                .collect(),
            root: VertexId(root),
            parent: parent.into_iter().map(|p| p.map(VertexId)).collect(),
            depth,
            children: children
                .into_iter()
                .map(|l| l.into_iter().map(VertexId).collect())
                .collect(),
            dfs_order: order.into_iter().map(VertexId).collect(),
            euler: OnceLock::new(),
            lca: OnceLock::new(),
        })
    }
}

/// An immutable, labeled, rooted tree — the public input space of the AA
/// problem.
///
/// The root is always the vertex with the lexicographically smallest label
/// (line 1 of the `TreeAA` protocol); parent/child/depth accessors are
/// relative to that root. Neighbor and child lists are sorted by label so
/// that every honest party traverses the tree identically.
///
/// # Example
///
/// ```
/// use tree_model::generate;
///
/// let tree = generate::path(5);
/// assert_eq!(tree.vertex_count(), 5);
/// assert_eq!(tree.label(tree.root()).as_str(), "v0000");
/// let a = tree.vertex("v0000").unwrap();
/// let b = tree.vertex("v0004").unwrap();
/// assert_eq!(tree.distance(a, b), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Tree {
    labels: Vec<Label>,
    by_label: HashMap<Label, VertexId>,
    adj: Vec<Vec<VertexId>>,
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    depth: Vec<u32>,
    children: Vec<Vec<VertexId>>,
    /// Preorder DFS sequence from the root, children in label order.
    dfs_order: Vec<VertexId>,
    /// `ListConstruction(T, v_root)`, filled on first use by
    /// [`Tree::euler_list`]. Derived from the fields above only, so a
    /// clone may carry it or recompute it.
    euler: OnceLock<EulerList>,
    /// The binary-lifting [`LcaTable`], filled on first use by
    /// [`Tree::lca_table`]; derived like `euler`.
    lca: OnceLock<LcaTable>,
}

impl Tree {
    /// Builds a tree directly from labels and label pairs.
    ///
    /// Convenience wrapper around [`TreeBuilder`]; a single label with no
    /// edges yields the one-vertex tree.
    ///
    /// # Errors
    ///
    /// Propagates any [`TreeError`] from the builder.
    ///
    /// # Example
    ///
    /// ```
    /// use tree_model::Tree;
    ///
    /// # fn main() -> Result<(), tree_model::TreeError> {
    /// let tree = Tree::from_labeled_edges(["a", "b", "c"], [("a", "b"), ("a", "c")])?;
    /// assert_eq!(tree.vertex_count(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_labeled_edges<L, E, A, B>(labels: L, edges: E) -> Result<Tree, TreeError>
    where
        L: IntoIterator,
        L::Item: Into<Label>,
        E: IntoIterator<Item = (A, B)>,
        A: Into<Label>,
        B: Into<Label>,
    {
        let mut b = TreeBuilder::new();
        for l in labels {
            b.add_vertex(l)?;
        }
        for (x, y) in edges {
            b.add_edge(x, y)?;
        }
        b.build()
    }

    /// Number of vertices `|V(T)|`.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// The canonical root: the vertex with the smallest label.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The label of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this tree.
    pub fn label(&self, v: VertexId) -> &Label {
        &self.labels[v.0]
    }

    /// Looks a vertex up by label.
    pub fn vertex(&self, label: &str) -> Option<VertexId> {
        self.by_label.get(label).copied()
    }

    /// Iterates over all vertex ids in dense-index order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len()).map(VertexId)
    }

    /// The neighbors of `v`, sorted by label.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v.0]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.0].len()
    }

    /// The parent of `v` with respect to the canonical root.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent[v.0]
    }

    /// The children of `v` with respect to the canonical root, by label.
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[v.0]
    }

    /// The depth of `v` (root has depth 0).
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.0]
    }

    /// Preorder DFS sequence from the root (children in label order).
    pub fn dfs_preorder(&self) -> &[VertexId] {
        &self.dfs_order
    }

    /// The paper's list `L := ListConstruction(T, v_root)`, computed by
    /// [`list_construction`] on the first call and shared by every later
    /// one — all parties, instances and commands holding this tree (or an
    /// `Arc` of it) read the same list.
    pub fn euler_list(&self) -> &EulerList {
        self.euler.get_or_init(|| list_construction(self))
    }

    /// The binary-lifting [`LcaTable`], built on the first call and shared
    /// like [`Tree::euler_list`]: LCA, distance and root-path position
    /// queries in `O(log |V|)` with no allocation.
    pub fn lca_table(&self) -> &LcaTable {
        self.lca.get_or_init(|| LcaTable::new(self))
    }

    /// Whether `a` is an ancestor of `b` (inclusive: every vertex is an
    /// ancestor of itself).
    pub fn is_ancestor(&self, a: VertexId, b: VertexId) -> bool {
        // Walk b up to a's depth, then compare. O(depth) — fine for the
        // tree sizes in this crate's hot paths; LCA queries use the
        // precomputed table in `lca.rs`.
        let mut b = b;
        while self.depth[b.0] > self.depth[a.0] {
            b = self.parent[b.0].expect("deeper vertex has a parent");
        }
        a == b
    }

    /// `true` if `a` and `b` share an edge.
    pub fn adjacent(&self, a: VertexId, b: VertexId) -> bool {
        self.adj[a.0].contains(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn builds_figure3_tree() {
        let t = figure3();
        assert_eq!(t.vertex_count(), 8);
        assert_eq!(t.label(t.root()).as_str(), "v1");
        let v2 = t.vertex("v2").unwrap();
        assert_eq!(t.parent(v2), Some(t.root()));
        let kids: Vec<_> = t
            .children(v2)
            .iter()
            .map(|&c| t.label(c).as_str())
            .collect();
        assert_eq!(kids, ["v3", "v4", "v5"]);
    }

    #[test]
    fn single_vertex_tree() {
        let t = Tree::from_labeled_edges(["only"], Vec::<(&str, &str)>::new()).unwrap();
        assert_eq!(t.vertex_count(), 1);
        assert_eq!(t.root(), t.vertex("only").unwrap());
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(t.children(t.root()), &[]);
        assert_eq!(t.depth(t.root()), 0);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(TreeBuilder::new().build().unwrap_err(), TreeError::Empty);
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = TreeBuilder::new();
        b.add_vertex("x").unwrap();
        assert!(matches!(
            b.add_vertex("x"),
            Err(TreeError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn unknown_edge_endpoint_rejected() {
        let mut b = TreeBuilder::new();
        b.add_vertex("x").unwrap();
        assert!(matches!(
            b.add_edge("x", "y"),
            Err(TreeError::UnknownLabel(_))
        ));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TreeBuilder::new();
        b.add_vertex("x").unwrap();
        assert!(matches!(b.add_edge("x", "x"), Err(TreeError::SelfLoop(_))));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = TreeBuilder::new();
        for v in ["x", "y", "z"] {
            b.add_vertex(v).unwrap();
        }
        b.add_edge("x", "y").unwrap();
        b.add_edge("z", "y").unwrap();
        for (u, v) in [("x", "y"), ("y", "x"), ("y", "z")] {
            assert_eq!(
                b.add_edge(u, v),
                Err(TreeError::DuplicateEdge(u.into(), v.into()))
            );
        }
        // A refused edge leaves the builder as it was.
        assert_eq!(b.build().unwrap().vertex_count(), 3);
    }

    #[test]
    fn euler_list_is_computed_once_and_shared() {
        use std::sync::Arc;
        let t = Arc::new(figure3());
        let other = Arc::clone(&t);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| t.euler_list());
            let b = s.spawn(|| other.euler_list());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(std::ptr::eq(a, b), "two threads, two Arc clones, one list");
        assert!(std::ptr::eq(a, t.euler_list()));
        assert_eq!(*a, list_construction(&t));

        // A clone is its own tree; filled or not, its list is equal.
        let unfilled = figure3();
        for copy in [Tree::clone(&t), unfilled.clone()] {
            assert_eq!(copy.euler_list(), t.euler_list());
            assert!(!std::ptr::eq(copy.euler_list(), t.euler_list()));
        }
    }

    #[test]
    fn lca_table_is_computed_once_and_shared() {
        use std::sync::Arc;
        let t = Arc::new(figure3());
        let other = Arc::clone(&t);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| t.lca_table());
            let b = s.spawn(|| other.lca_table());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(std::ptr::eq(a, b), "two threads, two Arc clones, one table");
        assert!(std::ptr::eq(a, t.lca_table()));
        assert!(!std::ptr::eq(Tree::clone(&t).lca_table(), a));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = TreeBuilder::new();
        for v in ["a", "b", "c"] {
            b.add_vertex(v).unwrap();
        }
        b.add_edge("a", "b").unwrap();
        b.add_edge("b", "c").unwrap();
        b.add_edge("c", "a").unwrap();
        assert_eq!(b.build().unwrap_err(), TreeError::Cyclic);
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = TreeBuilder::new();
        for v in ["a", "b", "c"] {
            b.add_vertex(v).unwrap();
        }
        b.add_edge("a", "b").unwrap();
        assert_eq!(b.build().unwrap_err(), TreeError::Disconnected);
    }

    #[test]
    fn cycle_plus_isolated_component_rejected() {
        // |E| = |V| - 1 overall, but one component is a triangle and one
        // vertex is isolated.
        let mut b = TreeBuilder::new();
        for v in ["a", "b", "c", "d"] {
            b.add_vertex(v).unwrap();
        }
        b.add_edge("a", "b").unwrap();
        b.add_edge("b", "c").unwrap();
        b.add_edge("c", "a").unwrap();
        assert_eq!(b.build().unwrap_err(), TreeError::Disconnected);
    }

    #[test]
    fn ancestry() {
        let t = figure3();
        let (v1, v2, v8, v5) = (
            t.vertex("v1").unwrap(),
            t.vertex("v2").unwrap(),
            t.vertex("v8").unwrap(),
            t.vertex("v5").unwrap(),
        );
        assert!(t.is_ancestor(v1, v8));
        assert!(t.is_ancestor(v2, v8));
        assert!(t.is_ancestor(v8, v8));
        assert!(!t.is_ancestor(v8, v2));
        assert!(!t.is_ancestor(v5, v8));
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let t = figure3();
        let v2 = t.vertex("v2").unwrap();
        let labels: Vec<_> = t
            .neighbors(v2)
            .iter()
            .map(|&v| t.label(v).as_str())
            .collect();
        assert_eq!(labels, ["v1", "v3", "v4", "v5"]);
        for v in t.vertices() {
            for &w in t.neighbors(v) {
                assert!(t.adjacent(w, v));
            }
        }
    }

    #[test]
    fn dfs_preorder_visits_all_once_smallest_child_first() {
        let t = figure3();
        let order: Vec<_> = t
            .dfs_preorder()
            .iter()
            .map(|&v| t.label(v).as_str())
            .collect();
        assert_eq!(order, ["v1", "v2", "v3", "v6", "v7", "v4", "v8", "v5"]);
    }
}
