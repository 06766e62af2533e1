//! The paper's experiments E1–E13 as functions, each returning the
//! markdown it prints, plus the shared plumbing they run on: scenario
//! runners, spread helpers and a markdown table renderer.
//!
//! [`EXPERIMENTS`] lists them in order. The `experiments` binary prints
//! all of them, and `EXPERIMENTS.md` holds each one's output verbatim in a
//! generated region that a test compares against these functions.

#![warn(missing_docs)]
use std::sync::Arc;

use real_aa::{BundledAaMsg, BundledAaParty, RealAaConfig};
use sim_net::{run_simulation, Adversary, PartyId, Passive, Protocol, RunReport, SimConfig};
use tree_aa::{EngineKind, TreeAaConfig, TreeAaParty};
use tree_model::{Tree, VertexId};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($($arg)*).expect("writing to a String cannot fail")
    }};
}

/// An experiment: runs it and returns the markdown it prints.
pub type Experiment = fn() -> String;

/// Declares each experiment's module, re-exports its function and lists
/// them, in order, in [`EXPERIMENTS`].
macro_rules! experiments {
    ($($id:ident in $module:ident,)*) => {
        $(mod $module; pub use $module::$id;)*

        /// Every experiment with its id, in the order the `experiments`
        /// binary prints them. The id names its generated region in
        /// `EXPERIMENTS.md`.
        pub const EXPERIMENTS: &[(&str, Experiment)] = &[$((stringify!($id), $id)),*];
    };
}

experiments! {
    e1 in e1_realaa_rounds,
    e2 in e2_convergence,
    e3 in e3_treeaa_rounds,
    e4 in e4_lower_bound,
    e5 in e5_hull_figure,
    e6 in e6_listconstruction,
    e7 in e7_path_ambiguity,
    e8 in e8_path_warmup,
    e9 in e9_message_complexity,
    e10 in e10_ablations,
    e11 in e11_early_stopping,
    e12 in e12_exact_vs_approximate,
    e13 in e13_async_baseline,
}

/// max − min of a value slice.
pub fn spread(outs: &[f64]) -> f64 {
    let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// `n` real inputs evenly spaced over `[0, d]`.
pub fn even_inputs(n: usize, d: f64) -> Vec<f64> {
    (0..n).map(|i| d * i as f64 / (n - 1) as f64).collect()
}

/// The honest outputs of a [`run_solo`] run.
pub fn firsts(report: &RunReport<Vec<f64>>) -> Vec<f64> {
    report.honest_outputs().iter().map(|o| o[0]).collect()
}

/// Maximum pairwise tree distance of a vertex slice.
///
/// Answers each of the `k·(k−1)/2` pairs in `O(log |V|)` from the tree's
/// memoised [`Tree::lca_table`], instead of one BFS walk per pair.
pub fn vertex_spread(tree: &Tree, outs: &[VertexId]) -> usize {
    if outs.len() < 2 {
        return 0;
    }
    let lca = tree.lca_table();
    let mut best = 0;
    for (i, &a) in outs.iter().enumerate() {
        for &b in &outs[i + 1..] {
            best = best.max(lca.distance(a, b));
        }
    }
    best
}

/// Picks `n` spread-out input vertices deterministically.
pub fn spaced_inputs(tree: &Tree, n: usize, stride: usize) -> Vec<VertexId> {
    let m = tree.vertex_count();
    (0..n)
        .map(|i| tree.vertices().nth((i * stride) % m).expect("in range"))
        .collect()
}

/// Runs the parties `factory` builds with no adversary, allowing five
/// rounds past the protocol's `rounds`.
///
/// # Panics
///
/// Panics if the simulation fails (harness-level error, not a protocol
/// outcome).
pub fn run_honest<P, F>(n: usize, t: usize, rounds: u32, factory: F) -> RunReport<P::Output>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    F: FnMut(PartyId, usize) -> P,
{
    let max_rounds = rounds + 5;
    run_simulation(SimConfig { n, t, max_rounds }, factory, Passive).expect("simulation completes")
}

/// Runs one solo `RealAA` party per input (the bundle at `k = 1`) against
/// `adversary`, allowing five rounds past `cfg.rounds()`.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run_solo<A: Adversary<BundledAaMsg>>(
    cfg: RealAaConfig,
    inputs: &[f64],
    adversary: A,
) -> RunReport<Vec<f64>> {
    let (n, t, max_rounds) = (cfg.n, cfg.t, cfg.rounds() + 5);
    run_simulation(
        SimConfig { n, t, max_rounds },
        |id, _| BundledAaParty::new(id, cfg, vec![inputs[id.index()]]).expect("k = 1"),
        adversary,
    )
    .expect("simulation completes")
}

/// Runs `TreeAA` honestly and returns (honest outputs, communication
/// rounds).
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run_tree_aa_honest(
    tree: &Arc<Tree>,
    n: usize,
    t: usize,
    engine: EngineKind,
    inputs: &[VertexId],
) -> (Vec<VertexId>, u32) {
    let cfg = TreeAaConfig::new(n, t, engine, tree).expect("valid parameters");
    let report = run_honest(n, t, cfg.total_rounds(), |id, _| {
        TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()])
    });
    (report.honest_outputs(), report.communication_rounds())
}

/// A minimal github-flavored markdown table.
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| escape(s)).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(|c| escape(c)).collect());
    }

    /// Renders the table as github-flavored markdown, without a trailing
    /// newline. A `|` inside a cell is escaped as `\|`, so it does not
    /// split the column.
    pub fn render(&self) -> String {
        let mut width: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:w$} |", c, w = width[i]));
            }
            s
        };
        let mut out = line(&self.headers);
        out.push('\n');
        out.push('|');
        for w in &width {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        for row in &self.rows {
            out.push('\n');
            out.push_str(&line(row));
        }
        out
    }
}

/// A table cell with each `|` escaped for github-flavored markdown.
fn escape(cell: &str) -> String {
    cell.replace('|', "\\|")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tree_model::generate;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.starts_with("| a | bb |"));
        assert!(r.contains("|---|----|"));
        assert!(r.ends_with("| 1 | 2  |"));
    }

    #[test]
    fn a_pipe_in_a_cell_is_escaped_and_counted_in_the_width() {
        let mut t = Table::new(&["|V|", "x"]);
        t.row(vec!["8".into(), "a|b".into()]);
        assert_eq!(
            t.render(),
            "| \\|V\\| | x    |\n|-------|------|\n| 8     | a\\|b |"
        );
    }

    #[test]
    fn spread_helpers() {
        assert_eq!(spread(&[1.0, 4.0, 2.0]), 3.0);
        let tree = generate::path(6);
        let vs: Vec<VertexId> = tree.vertices().collect();
        assert_eq!(vertex_spread(&tree, &[vs[0], vs[3], vs[1]]), 3);
    }

    #[test]
    fn spaced_inputs_are_in_range() {
        let tree = generate::star(9);
        let ins = spaced_inputs(&tree, 7, 3);
        assert_eq!(ins.len(), 7);
        assert!(ins.iter().all(|v| v.index() < 9));
    }
}
