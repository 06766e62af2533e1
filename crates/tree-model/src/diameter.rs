//! Tree diameter `D(T)` and a canonical diameter path.

use crate::path::TreePath;
use crate::tree::{Tree, VertexId};

/// The diameter of a tree together with one (canonical) longest path.
#[derive(Clone, Debug)]
pub struct DiameterInfo {
    /// `D(T)`: the number of edges of a longest simple path.
    pub diameter: usize,
    /// A longest path, endpoints chosen label-deterministically.
    pub path: TreePath,
}

impl Tree {
    /// Computes `D(T)` and a canonical diameter path by double BFS.
    ///
    /// Tie-breaking is by label at both BFS sweeps, so all parties agree on
    /// the returned path. `O(|V|)`.
    ///
    /// # Example
    ///
    /// ```
    /// use tree_model::generate;
    ///
    /// let t = generate::star(6);
    /// let d = t.diameter_info();
    /// assert_eq!(d.diameter, 2); // leaf - center - leaf
    /// ```
    pub fn diameter_info(&self) -> DiameterInfo {
        let a = self.farthest_from(self.root());
        let b = self.farthest_from(a);
        let path = self.path(a, b);
        DiameterInfo {
            diameter: path.edge_len(),
            path,
        }
    }

    /// `D(T)` alone.
    pub fn diameter(&self) -> usize {
        self.diameter_info().diameter
    }

    fn farthest_from(&self, from: VertexId) -> VertexId {
        let n = self.vertex_count();
        let mut dist = vec![usize::MAX; n];
        dist[from.index()] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        let mut best = from;
        while let Some(v) = queue.pop_front() {
            let better = dist[v.index()] > dist[best.index()]
                || (dist[v.index()] == dist[best.index()] && self.label(v) < self.label(best));
            if better {
                best = v;
            }
            for &w in self.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = dist[v.index()] + 1;
                    queue.push_back(w);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use crate::generate;

    #[test]
    fn path_diameter_is_its_length() {
        for k in 1..12 {
            let t = generate::path(k);
            assert_eq!(t.diameter(), k - 1);
        }
    }

    #[test]
    fn star_diameter_is_two() {
        let t = generate::star(9);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn single_vertex_diameter_zero() {
        let t = generate::path(1);
        let d = t.diameter_info();
        assert_eq!(d.diameter, 0);
        assert_eq!(d.path.len(), 1);
    }

    #[test]
    fn balanced_binary_diameter() {
        // depth d: two leaf-to-leaf arms through the root -> 2d edges.
        for depth in 1..6 {
            let t = generate::balanced_kary(2, depth);
            assert_eq!(t.diameter(), 2 * depth as usize);
        }
    }

    #[test]
    fn matches_bruteforce_on_small_trees() {
        for t in [
            generate::caterpillar(6, 2),
            generate::spider(3, 4),
            generate::broom(5, 4),
        ] {
            let mut best = 0;
            for u in t.vertices() {
                for v in t.vertices() {
                    best = best.max(t.distance(u, v));
                }
            }
            assert_eq!(t.diameter(), best);
        }
    }

    #[test]
    fn diameter_path_is_deterministic() {
        let t = generate::caterpillar(7, 3);
        let p1 = t.diameter_info().path;
        let p2 = t.diameter_info().path;
        assert_eq!(p1, p2);
        assert_eq!(p1.edge_len(), t.diameter());
    }
}
