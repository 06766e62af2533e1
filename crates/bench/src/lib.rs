//! Shared plumbing for the experiment binaries (`src/bin/e*.rs`) and the
//! Criterion benches: scenario runners, spread helpers, and markdown
//! table rendering matching the formats recorded in `EXPERIMENTS.md`.

#![warn(missing_docs)]
use std::sync::Arc;

use real_aa::{BundledAaParty, RealAaConfig};
use sim_net::{run_simulation, Adversary, PartyId, Passive, Protocol, RunReport, SimConfig};
use tree_aa::{EngineKind, TreeAaConfig, TreeAaParty};
use tree_model::{Tree, VertexId};

/// max − min of a value slice.
pub fn spread(outs: &[f64]) -> f64 {
    let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// A solo `RealAA` party: the bundle at `k = 1`.
///
/// # Panics
///
/// Never: one input is a valid bundle.
pub fn solo(id: PartyId, cfg: RealAaConfig, input: f64) -> BundledAaParty {
    BundledAaParty::new(id, cfg, vec![input]).expect("k = 1")
}

/// The honest outputs of a run of [`solo`] parties.
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

/// Runs `TreeAA` honestly and returns (honest outputs, communication
/// rounds).
///
/// # Panics
///
/// Panics if the simulation fails (harness-level error, not a protocol
/// outcome).
pub fn run_tree_aa_honest(
    tree: &Arc<Tree>,
    n: usize,
    t: usize,
    engine: EngineKind,
    inputs: &[VertexId],
) -> (Vec<VertexId>, u32) {
    let cfg = TreeAaConfig::new(n, t, engine, tree).expect("valid parameters");
    let report = run_simulation(
        SimConfig {
            n,
            t,
            max_rounds: cfg.total_rounds() + 5,
        },
        |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
        Passive,
    )
    .expect("simulation completes");
    (report.honest_outputs(), report.communication_rounds())
}

/// Runs any protocol and returns the report (thin convenience wrapper
/// keeping the binaries terse).
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run<P, A, F>(
    n: usize,
    t: usize,
    max_rounds: u32,
    factory: F,
    adversary: A,
) -> sim_net::RunReport<P::Output>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    run_simulation(SimConfig { n, t, max_rounds }, factory, adversary)
        .expect("simulation completes")
}

/// A minimal markdown table printer (the experiment outputs are recorded
/// verbatim in `EXPERIMENTS.md`).
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
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
        self.rows.push(cells);
    }

    /// Renders the table as github-flavored markdown.
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

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
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
