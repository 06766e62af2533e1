//! `aa-check`: a bounded model checker for the tree-AA protocol stack.
//!
//! For small instances (n ≤ 6, trees of ≤ 7 vertices) the checker
//! exhaustively enumerates
//!
//! * every Byzantine **value assignment** from a finite message-lattice
//!   abstraction ([`lattice`]) — silence, consistent off-hull values,
//!   and split-brain equivocation over the extreme and midpoint
//!   vertices — and
//! * every **asynchronous delivery schedule** up to a configurable
//!   decision depth ([`explore`]), with sleep-set (DPOR) pruning
//!   collapsing commuting deliveries ([`sched`]),
//!
//! and checks validity, convex-hull containment, 1-agreement, the
//! explicit termination bound, and the degradation contract on every
//! explored execution ([`props`]). A differential mode ([`diff`]) runs
//! the same case through the synchronous simulator and the seeded
//! asynchronous scheduler and asserts the models agree wherever both
//! are defined. Violations come back as minimized, byte-for-byte
//! replayable [`aa_trace`] recordings ([`cex`]).
//!
//! The entry point is [`check`]; the `treeaa check` CLI subcommand is a
//! thin wrapper around it.

#![warn(missing_docs)]

pub mod cex;
pub mod diff;
pub mod explore;
pub mod lattice;
pub mod portfolio;
pub mod props;
pub mod sched;

use std::fmt;
use std::sync::Arc;

use async_net::AsyncSimError;
use sim_net::Outcome;
use tree_model::{ProjectionTable, Tree, VertexId};

pub use cex::Counterexample;
pub use explore::{ExploreStats, Instance};
pub use lattice::{enumerate_assignments, ByzBehavior, LatticeAssignment};
pub use props::PropViolation;

/// Which protocol stack's guarantees to check on explored executions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckProtocol {
    /// Vertex-valued tree AA: hull validity and 1-agreement.
    TreeAa,
    /// The Section 5 real-valued view: explored outputs are additionally
    /// projected onto the diameter path and checked for interval
    /// validity and ε-agreement (ε = 1 position).
    RealAa,
}

impl CheckProtocol {
    /// Parses the CLI spelling (`tree-aa` / `real-aa`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "tree-aa" => Ok(CheckProtocol::TreeAa),
            "real-aa" => Ok(CheckProtocol::RealAa),
            other => Err(format!(
                "unknown protocol {other:?} (expected tree-aa or real-aa)"
            )),
        }
    }
}

impl fmt::Display for CheckProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckProtocol::TreeAa => "tree-aa",
            CheckProtocol::RealAa => "real-aa",
        })
    }
}

/// What to check and how hard to look.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Number of parties (must satisfy `n > 3t`; the checker is built
    /// for `n ≤ 6`).
    pub n: usize,
    /// Corruption bound; the last `t` parties are corrupted.
    pub t: usize,
    /// The tree (≤ 7 vertices for tractable enumeration).
    pub tree: Arc<Tree>,
    /// Which property set to check.
    pub protocol: CheckProtocol,
    /// Per-party inputs; `None` spreads parties over the vertices
    /// (`party i ↦ vertex i mod m`).
    pub inputs: Option<Vec<VertexId>>,
    /// Enumerated decisions per execution; deliveries beyond this depth
    /// follow the canonical FIFO tail.
    pub depth: usize,
    /// Total execution budget across all lattice assignments.
    pub max_runs: usize,
    /// Event budget per execution (guards protocol livelocks).
    pub max_events: usize,
    /// Portfolio exploration: `Some(n)` partitions each assignment's
    /// schedule tree at the first decision and farms the units across
    /// `n` worker threads ([`portfolio`]). Reports are bit-identical
    /// for every thread count, and untruncated totals equal the
    /// sequential explorer's.
    pub threads: Option<usize>,
}

impl CheckOptions {
    /// Defaults for an instance: depth 3, 50 000 runs, 200 000 events,
    /// sequential.
    pub fn new(n: usize, t: usize, tree: Arc<Tree>, protocol: CheckProtocol) -> Self {
        CheckOptions {
            n,
            t,
            tree,
            protocol,
            inputs: None,
            depth: 3,
            max_runs: 50_000,
            max_events: 200_000,
            threads: None,
        }
    }
}

/// The verdict of an exhaustive check.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Parties / corruption bound / depth the check ran at.
    pub n: usize,
    /// Corruption bound.
    pub t: usize,
    /// Enumeration depth.
    pub depth: usize,
    /// The property set that was checked.
    pub protocol: CheckProtocol,
    /// Lattice assignments enumerated.
    pub assignments: usize,
    /// Total executions across all assignments (including pruned).
    pub executions: usize,
    /// Executions that completed and were property-checked.
    pub completed: usize,
    /// Branches cut by the sleep-set rule.
    pub pruned_sleep: usize,
    /// The run budget was exhausted before the schedule tree.
    pub truncated: bool,
    /// Fingerprint of the canonical (FIFO, honest-only) execution's
    /// trace — identical across reruns of the same options.
    pub canonical_fingerprint: u64,
    /// Thread count the exploration ran with (`None` = sequential).
    pub threads: Option<usize>,
    /// The minimized counterexample, if any property failed.
    pub violation: Option<Counterexample>,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "aa-check: n={} t={} protocol={} depth={}",
            self.n, self.t, self.protocol, self.depth
        )?;
        writeln!(f, "lattice assignments: {}", self.assignments)?;
        writeln!(
            f,
            "executions: {} (completed {}, pruned: sleep {}){}",
            self.executions,
            self.completed,
            self.pruned_sleep,
            if self.truncated {
                " [truncated at run budget]"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "canonical fingerprint: {:016x}",
            self.canonical_fingerprint
        )?;
        if let Some(threads) = self.threads {
            writeln!(f, "portfolio: {threads} threads")?;
        }
        match &self.violation {
            None => write!(f, "verdict: PASS — no violations in any explored execution"),
            Some(cex) => write!(
                f,
                "verdict: FAIL — {}\n  assignment: {}\n  script: {:?}",
                cex.violation,
                cex.assignment.describe(),
                cex.script
            ),
        }
    }
}

/// An explicit bound on the messages a completed execution may deliver:
/// per iteration each of the `n` RBC instances sends at most `n` Inits,
/// `n²` Echoes and `n²` Readies, plus `n²` Reports; the adversary
/// injects at most `2tn` messages at time 0 (Init + forged Echo per
/// honest recipient per corrupted party).
pub fn delivered_message_bound(n: usize, t: usize, iterations: u32) -> usize {
    (iterations as usize) * (n * (n + 2 * n * n) + n * n) + 2 * t * n + n * n
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! A deliberately planted hull-violation bug, gated behind
    //! `cfg(test)`: when armed, the checker's view of the first honest
    //! output is skewed to an off-hull vertex, simulating a protocol
    //! that escapes the honest inputs' convex hull. The acceptance test
    //! arms it and asserts the checker catches it with a minimized,
    //! replayable counterexample.
    use std::cell::Cell;

    thread_local! {
        static PLANTED_HULL_BUG: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms (or disarms) the planted bug for the current thread.
    pub fn set_planted_hull_bug(on: bool) {
        PLANTED_HULL_BUG.with(|b| b.set(on));
    }

    /// Whether the bug is armed.
    pub fn planted_hull_bug() -> bool {
        PLANTED_HULL_BUG.with(|b| b.get())
    }
}

/// Skews the first output to a vertex outside the honest inputs' hull
/// (the planted bug's effect); no-op if the hull covers the whole tree.
#[cfg(test)]
fn apply_planted_bug(tree: &Tree, honest_inputs: &[VertexId], values: &mut [VertexId]) {
    if !test_hooks::planted_hull_bug() || values.is_empty() {
        return;
    }
    let hull = tree.convex_hull(honest_inputs);
    if let Some(off) = tree.vertices().find(|&v| !hull.contains(v)) {
        values[0] = off;
    }
}

/// Classifies one completed execution against the property set; shared
/// by the exploration loop and the counterexample minimizer.
fn classify_execution(
    instance: &Instance,
    protocol: CheckProtocol,
    projection: &ProjectionTable,
    exec: &explore::Execution,
) -> Option<String> {
    let report = match &exec.result {
        Ok(report) => report,
        // Pruned branches are filtered before classification; a stall
        // that was *not* pruned is a genuine asynchronous deadlock.
        Err(AsyncSimError::Stalled { events }) => {
            return Some(format!(
                "asynchronous deadlock: honest parties undecided after {events} events"
            ))
        }
        Err(e) => return Some(format!("simulator rejected the run: {e:?}")),
    };
    let honest = instance.n - instance.t;
    let honest_inputs = &instance.inputs[..honest];

    // Degradation contract on every honest outcome.
    for (party, output) in report.outputs.iter().enumerate().take(honest) {
        let Some(outcome) = output else {
            return Some(format!("honest party {party} finished without an output"));
        };
        if let Err(v) = props::check_degradation_outcome(party, outcome) {
            return Some(v.to_string());
        }
    }

    // Termination: the run must fit the explicit message bound.
    let bound = delivered_message_bound(instance.n, instance.t, instance.async_cfg().iterations);
    if report.messages_delivered > bound {
        return Some(format!(
            "termination bound violated: {} messages delivered, explicit bound {bound}",
            report.messages_delivered
        ));
    }

    // Hull validity and agreement apply to fully guaranteed runs; a
    // (contract-valid) degraded run has already waived them.
    let mut values = Vec::with_capacity(honest);
    for output in report.outputs.iter().take(honest) {
        match output.as_ref() {
            Some(Outcome::Value(v)) => values.push(*v),
            Some(Outcome::Degraded(_)) => return None,
            None => unreachable!("checked above"),
        }
    }
    #[cfg(test)]
    apply_planted_bug(&instance.tree, honest_inputs, &mut values);
    if let Err(v) = props::check_vertex_outcome(&instance.tree, honest_inputs, &values) {
        return Some(v.to_string());
    }
    if protocol == CheckProtocol::RealAa {
        let in_pos: Vec<f64> = honest_inputs
            .iter()
            .map(|&v| projection.position(v) as f64)
            .collect();
        let out_pos: Vec<f64> = values
            .iter()
            .map(|&v| projection.position(v) as f64)
            .collect();
        if let Err(v) = props::check_real_outcome(&in_pos, &out_pos, 1.0) {
            return Some(format!("projected onto the diameter path: {v}"));
        }
    }
    None
}

/// Exhaustively checks `opts`, returning explored/pruned counts and the
/// first (minimized) violation if any.
///
/// # Errors
///
/// A human-readable reason when the options themselves are invalid
/// (`n ≤ 3t`, oversized instance, bad inputs) — as opposed to a
/// property violation, which is reported in [`CheckReport::violation`].
pub fn check(opts: &CheckOptions) -> Result<CheckReport, String> {
    let m = opts.tree.vertex_count();
    if opts.n == 0 || opts.n <= 3 * opts.t {
        return Err(format!(
            "check requires n > 3t, got n = {}, t = {}",
            opts.n, opts.t
        ));
    }
    if opts.n > 6 {
        return Err(format!("check is built for n <= 6, got n = {}", opts.n));
    }
    if m > 7 {
        return Err(format!(
            "check is built for trees of <= 7 vertices, got {m}"
        ));
    }
    let vs: Vec<VertexId> = opts.tree.vertices().collect();
    let inputs = match &opts.inputs {
        Some(inputs) => {
            if inputs.len() != opts.n {
                return Err(format!("expected {} inputs, got {}", opts.n, inputs.len()));
            }
            if let Some(v) = inputs.iter().find(|v| v.index() >= m) {
                return Err(format!("input vertex {v} out of range for {m} vertices"));
            }
            inputs.clone()
        }
        None => (0..opts.n).map(|i| vs[i % m]).collect(),
    };
    let instance = Instance {
        n: opts.n,
        t: opts.t,
        tree: opts.tree.clone(),
        inputs,
        max_events: opts.max_events,
    };
    let dinfo = instance.tree.diameter_info();
    let projection = ProjectionTable::new(&instance.tree, &dinfo.path);

    let assignments = enumerate_assignments(opts.t, m);
    let mut report = CheckReport {
        n: opts.n,
        t: opts.t,
        depth: opts.depth,
        protocol: opts.protocol,
        assignments: assignments.len(),
        executions: 0,
        completed: 0,
        pruned_sleep: 0,
        truncated: false,
        canonical_fingerprint: 0,
        threads: opts.threads,
        violation: None,
    };

    // Canonical fingerprint: the FIFO execution of the first assignment,
    // replayed in isolation so exploration order cannot perturb it.
    {
        let exec = explore::execute(&instance, &assignments[0], &[], opts.depth);
        report.canonical_fingerprint =
            cex::emit_trace(&instance, &assignments[0], &[], &exec, "none").fingerprint();
    }

    // Differential legs (honest-only; cross-model agreement).
    if let Err(detail) = diff::differential(&instance, opts.depth) {
        let honest_only = LatticeAssignment {
            behaviors: Vec::new(),
        };
        let exec = explore::execute(&instance, &honest_only, &[], opts.depth);
        let violation = format!("differential: {detail}");
        let trace = cex::emit_trace(&instance, &honest_only, &[], &exec, &violation);
        report.violation = Some(Counterexample {
            assignment: honest_only,
            script: Vec::new(),
            violation,
            depth: opts.depth,
            trace,
        });
        return Ok(report);
    }

    for assignment in &assignments {
        let remaining = opts.max_runs.saturating_sub(report.executions);
        if remaining == 0 {
            report.truncated = true;
            break;
        }
        let classify = |exec: &explore::Execution, _script: &[usize]| {
            classify_execution(&instance, opts.protocol, &projection, exec)
        };
        let r = match opts.threads {
            Some(threads) => portfolio::explore_portfolio(
                &instance, assignment, opts.depth, remaining, threads, &classify,
            ),
            None => explore::explore(&instance, assignment, opts.depth, remaining, classify),
        };
        report.executions += r.stats.executions;
        report.completed += r.stats.completed;
        report.pruned_sleep += r.stats.pruned_sleep;
        report.truncated |= r.stats.truncated;
        if let Some((script, violation)) = r.failure {
            let cex = cex::minimize(
                &instance,
                opts.depth,
                assignment.clone(),
                script,
                violation,
                |exec, _| classify_execution(&instance, opts.protocol, &projection, exec),
            );
            report.violation = Some(cex);
            break;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tree_model::generate;

    fn opts(n: usize, t: usize, vertices: usize) -> CheckOptions {
        CheckOptions::new(
            n,
            t,
            Arc::new(generate::path(vertices)),
            CheckProtocol::TreeAa,
        )
    }

    #[test]
    fn rejects_oversized_and_invalid_instances() {
        assert!(check(&opts(7, 0, 4)).is_err());
        assert!(check(&opts(4, 2, 4)).is_err());
        assert!(check(&opts(4, 0, 8)).is_err());
        let mut bad = opts(4, 0, 4);
        let v0 = bad.tree.vertices().next().unwrap();
        bad.inputs = Some(vec![v0; 3]);
        assert!(check(&bad).is_err());
    }

    #[test]
    fn honest_path4_passes_exhaustively() {
        let mut o = opts(4, 0, 4);
        o.depth = 2;
        let report = check(&o).unwrap();
        assert!(report.violation.is_none(), "{report}");
        assert!(!report.truncated);
        assert!(report.completed >= 1);
        assert!(report.executions > 10, "no branching explored: {report}");
        assert_eq!(report.assignments, 1);
    }

    #[test]
    fn byzantine_lattice_passes_on_path2() {
        // path2 has diameter 1 → zero iterations, so the protocol logic
        // is trivial, but the full 4-assignment lattice and schedule
        // enumeration still runs (adversary traffic is still delivered).
        let mut o = opts(4, 1, 2);
        o.depth = 2;
        let report = check(&o).unwrap();
        assert!(report.violation.is_none(), "{report}");
        assert_eq!(report.assignments, 4);
        assert!(!report.truncated);
    }

    #[test]
    fn real_aa_projection_view_passes() {
        let mut o = opts(4, 0, 4);
        o.protocol = CheckProtocol::RealAa;
        o.depth = 2;
        let report = check(&o).unwrap();
        assert!(report.violation.is_none(), "{report}");
    }

    #[test]
    fn reruns_are_bit_identical() {
        let mut o = opts(4, 0, 3);
        o.depth = 2;
        let r1 = check(&o).unwrap();
        let r2 = check(&o).unwrap();
        assert_eq!(r1.to_string(), r2.to_string());
        assert_eq!(r1.canonical_fingerprint, r2.canonical_fingerprint);
    }

    #[test]
    fn portfolio_budget_never_overshoots_max_runs() {
        // path4 at depth 3 with t = 1 has thousands of schedules per
        // assignment, so 100 runs truncate inside the first one, whose
        // schedule tree splits into units that do not divide 100.
        let mut o = opts(4, 1, 4);
        o.depth = 3;
        o.max_runs = 100;
        let counters = |r: &CheckReport| (r.executions, r.completed, r.pruned_sleep, r.truncated);
        let sequential = check(&o).unwrap();
        assert_eq!(counters(&sequential), (100, 100, 0, true));
        let mut portfolio = Vec::new();
        for threads in [1, 2, 4] {
            o.threads = Some(threads);
            let r = check(&o).unwrap();
            assert!(r.truncated && r.executions <= o.max_runs, "{r}");
            portfolio.push(counters(&r));
        }
        assert!(
            portfolio.iter().all(|c| *c == portfolio[0]),
            "{portfolio:?}"
        );

        // Untruncated, the units tile every assignment's schedule tree
        // and only the sleep-set rule prunes, so every thread count
        // renders the sequential report apart from its `portfolio:` line.
        o.depth = 2;
        o.max_runs = 50_000;
        o.threads = None;
        let sequential = check(&o).unwrap();
        assert_eq!(sequential.assignments, 7);
        assert_eq!(sequential.executions, 1_338, "{sequential}");
        assert!(!sequential.truncated && sequential.violation.is_none());
        for threads in [1, 2, 4] {
            o.threads = Some(threads);
            let rendered = check(&o).unwrap().to_string();
            let without_portfolio: Vec<&str> = rendered
                .lines()
                .filter(|l| *l != format!("portfolio: {threads} threads"))
                .collect();
            assert_eq!(
                without_portfolio.join("\n"),
                sequential.to_string(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn planted_hull_bug_is_caught_minimized_and_replayable() {
        // Unanimous inputs confine the hull to one vertex, so the
        // planted bug's off-hull skew is always detectable.
        let mut o = opts(4, 0, 4);
        o.depth = 2;
        let v0 = o.tree.vertices().next().unwrap();
        o.inputs = Some(vec![v0; 4]);
        test_hooks::set_planted_hull_bug(true);
        let report = check(&o);
        test_hooks::set_planted_hull_bug(false);
        let report = report.unwrap();
        let cex = report.violation.expect("planted bug must be caught");
        assert!(
            cex.violation.contains("validity")
                || cex.violation.contains("hull")
                || cex.violation.contains("differential"),
            "unexpected violation: {}",
            cex.violation
        );
        // Minimization drove the witness to the canonical schedule.
        assert!(cex.script.is_empty(), "not minimal: {:?}", cex.script);
        // The trace replays byte-for-byte: execution is deterministic,
        // so re-running the stored (assignment, script) reproduces it.
        let instance = Instance {
            n: 4,
            t: 0,
            tree: o.tree.clone(),
            inputs: vec![v0; 4],
            max_events: o.max_events,
        };
        let replayed = cex.replay(&instance);
        assert_eq!(
            replayed.to_canonical_string(),
            cex.trace.to_canonical_string()
        );
    }
}
