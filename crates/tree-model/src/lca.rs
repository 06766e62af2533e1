//! Lowest common ancestors by binary lifting.

use crate::tree::{Tree, VertexId};

/// Precomputed binary-lifting table answering LCA, distance, ancestry and
/// path-position queries in `O(log |V|)` after `O(|V| log |V|)`
/// construction.
///
/// The naive `O(depth)` climbers on [`Tree`] are the reference
/// implementation; protocol code reads the table memoised on the tree
/// ([`Tree::lca_table`]).
///
/// # Example
///
/// ```
/// use tree_model::{generate, LcaTable};
///
/// let tree = generate::balanced_kary(2, 6); // 127 vertices
/// let lca = LcaTable::new(&tree);
/// let u = tree.vertex("v0063").unwrap();
/// let v = tree.vertex("v0126").unwrap();
/// assert_eq!(lca.lca(u, v), tree.root());
/// ```
#[derive(Clone, Debug)]
pub struct LcaTable {
    /// `up[k][v]` = the 2^k-th ancestor of v (root maps to itself).
    up: Vec<Vec<u32>>,
    depth: Vec<u32>,
}

impl LcaTable {
    /// Builds the table for `tree`.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.vertex_count();
        let levels = usize::BITS as usize - (n.max(2) - 1).leading_zeros() as usize;
        let levels = levels.max(1);
        let mut up = vec![vec![0u32; n]; levels];
        let mut depth = vec![0u32; n];
        for v in tree.vertices() {
            depth[v.index()] = tree.depth(v);
            up[0][v.index()] = tree.parent(v).unwrap_or(v).index() as u32;
        }
        for k in 1..levels {
            for v in 0..n {
                up[k][v] = up[k - 1][up[k - 1][v] as usize];
            }
        }
        LcaTable { up, depth }
    }

    /// The ancestor of index `v` at depth `target`, in one 2^k jump per
    /// set bit of the depth difference.
    fn ancestor_at_depth(&self, mut v: usize, target: u32) -> usize {
        let mut diff = self.depth[v] - target;
        let mut k = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                v = self.up[k][v] as usize;
            }
            diff >>= 1;
            k += 1;
        }
        v
    }

    /// The (inclusive) ancestor of `v` at `depth`: position `depth` on the
    /// root path `P(root, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the depth of `v`.
    pub fn ancestor(&self, v: VertexId, depth: u32) -> VertexId {
        assert!(
            depth <= self.depth[v.index()],
            "no ancestor below the vertex"
        );
        VertexId(self.ancestor_at_depth(v.index(), depth))
    }

    /// The lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: VertexId, v: VertexId) -> VertexId {
        let (mut a, mut b) = (u.index(), v.index());
        let target = self.depth[a].min(self.depth[b]);
        a = self.ancestor_at_depth(a, target);
        b = self.ancestor_at_depth(b, target);
        if a == b {
            return VertexId(a);
        }
        for k in (0..self.up.len()).rev() {
            if self.up[k][a] != self.up[k][b] {
                a = self.up[k][a] as usize;
                b = self.up[k][b] as usize;
            }
        }
        VertexId(self.up[0][a] as usize)
    }

    /// The distance `d(u, v)` in edges.
    pub fn distance(&self, u: VertexId, v: VertexId) -> usize {
        let l = self.lca(u, v);
        (self.depth[u.index()] + self.depth[v.index()] - 2 * self.depth[l.index()]) as usize
    }

    /// Whether `a` is an (inclusive) ancestor of `b`.
    pub fn is_ancestor(&self, a: VertexId, b: VertexId) -> bool {
        self.depth[a.index()] <= self.depth[b.index()]
            && self.ancestor_at_depth(b.index(), self.depth[a.index()]) == a.index()
    }

    /// The position, counted from `a`, of `v`'s projection onto the path
    /// `P(a, b)` (Section 5's `proj_P(v)`): the deepest of the three
    /// pairwise LCAs of `a`, `b` and `v`.
    pub fn path_position(&self, a: VertexId, b: VertexId, v: VertexId) -> usize {
        let proj = [self.lca(a, b), self.lca(a, v), self.lca(b, v)]
            .into_iter()
            .max_by_key(|p| self.depth[p.index()])
            .expect("three candidates");
        self.distance(a, proj)
    }

    /// The vertex at position `i`, counted from `a`, of the path `P(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds `d(a, b)`.
    pub fn path_vertex(&self, a: VertexId, b: VertexId, i: usize) -> VertexId {
        let top = self.depth[self.lca(a, b).index()];
        let (up, down) = (self.depth[a.index()] - top, self.depth[b.index()] - top);
        let i = u32::try_from(i).ok().filter(|&i| i <= up + down);
        let i = i.expect("position past the end of the path");
        VertexId(if i <= up {
            self.ancestor_at_depth(a.index(), self.depth[a.index()] - i)
        } else {
            self.ancestor_at_depth(b.index(), top + i - up)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn matches_naive_on_small_trees() {
        for tree in [
            generate::path(17),
            generate::star(12),
            generate::balanced_kary(3, 4),
            generate::caterpillar(8, 3),
            generate::spider(5, 6),
        ] {
            let table = LcaTable::new(&tree);
            for u in tree.vertices() {
                for v in tree.vertices() {
                    assert_eq!(table.lca(u, v), tree.lca_naive(u, v), "lca mismatch");
                    assert_eq!(table.distance(u, v), tree.distance(u, v));
                    assert_eq!(table.is_ancestor(u, v), tree.is_ancestor(u, v));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no ancestor below the vertex")]
    fn ancestor_below_the_vertex_panics() {
        let tree = generate::path(3);
        LcaTable::new(&tree).ancestor(tree.root(), 1);
    }

    #[test]
    #[should_panic(expected = "position past the end of the path")]
    fn path_vertex_past_the_end_panics() {
        let tree = generate::path(3);
        let (a, b) = (tree.vertex("v0000").unwrap(), tree.vertex("v0002").unwrap());
        LcaTable::new(&tree).path_vertex(b, a, 3);
    }

    #[test]
    fn single_vertex() {
        let tree = generate::path(1);
        let table = LcaTable::new(&tree);
        let r = tree.root();
        assert_eq!(table.lca(r, r), r);
        assert_eq!(table.distance(r, r), 0);
        assert!(table.is_ancestor(r, r));
    }

    #[test]
    fn lca_is_commutative_and_idempotent() {
        let tree = generate::balanced_kary(2, 5);
        let table = LcaTable::new(&tree);
        for u in tree.vertices() {
            assert_eq!(table.lca(u, u), u);
            for v in tree.vertices() {
                assert_eq!(table.lca(u, v), table.lca(v, u));
            }
        }
    }
}
