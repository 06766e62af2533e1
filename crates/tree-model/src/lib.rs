//! Labeled input-space trees for Byzantine approximate agreement.
//!
//! This crate models the *input space* of the approximate-agreement (AA)
//! problem on trees, as defined by Nowak and Rybicki (DISC 2019) and used by
//! Fuchs, Ghinea and Parsaeian (PODC 2025): a publicly known, labeled tree
//! `T` whose vertices are the values parties may hold, output, and reason
//! about. It provides every purely combinatorial ingredient of the `TreeAA`
//! protocol:
//!
//! * [`Tree`] — an immutable labeled tree with a canonical root (the vertex
//!   with the lexicographically smallest label), built through
//!   [`TreeBuilder`];
//! * paths ([`TreePath`]), distances, and lowest common ancestors
//!   ([`Tree::lca_naive`] and the binary-lifting [`LcaTable`]);
//! * convex hulls of vertex sets ([`Tree::convex_hull`]) — the smallest
//!   connected subtree containing the set;
//! * the Euler-tour list representation ([`EulerList`],
//!   [`list_construction`], computed once per tree by
//!   [`Tree::euler_list`]) used by the `PathsFinder` subprotocol, with the
//!   exact guarantees of Lemma 2 of the paper;
//! * projections of vertices onto paths ([`ProjectionTable`], Lemma 1);
//! * the paper's `closestInt` rounding rule ([`closest_int`], Remarks 1–2);
//! * deterministic and random tree generators for experiments
//!   ([`generate`]).
//!
//! # Example
//!
//! ```
//! use tree_model::{TreeBuilder, list_construction};
//!
//! # fn main() -> Result<(), tree_model::TreeError> {
//! // The example tree from Figure 3 of the paper.
//! let mut b = TreeBuilder::new();
//! for v in ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"] {
//!     b.add_vertex(v)?;
//! }
//! for (a, c) in [("v1", "v2"), ("v2", "v3"), ("v3", "v6"), ("v3", "v7"),
//!                ("v2", "v4"), ("v4", "v8"), ("v2", "v5")] {
//!     b.add_edge(a, c)?;
//! }
//! let tree = b.build()?;
//! assert_eq!(tree.label(tree.root()).as_str(), "v1");
//!
//! let list = list_construction(&tree);
//! assert_eq!(list.len(), 15); // 2 * 8 - 1 entries
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
mod automorphism;
mod diameter;
mod euler;
mod generate_mod;
mod hull;
mod io;
mod label;
mod lca;
mod path;
mod project;
mod round;
mod tree;

pub use automorphism::automorphisms;
pub use diameter::DiameterInfo;
pub use euler::{list_construction, EulerList};
pub use hull::ConvexHull;
pub use io::{parse_tree, ParseTreeError};
pub use label::Label;
pub use lca::LcaTable;
pub use path::TreePath;
pub use project::ProjectionTable;
pub use round::closest_int;
pub use tree::{Tree, TreeBuilder, TreeError, VertexId};

/// Tree generators used by the examples, tests and benchmarks.
pub mod generate {
    pub use crate::generate_mod::*;
}
