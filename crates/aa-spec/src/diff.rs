//! The spec↔engine differential: for one instance and one lattice
//! assignment, the set of reachable terminal states under the engine's
//! pruned enumeration must equal the spec's reachable set over the
//! same schedules.
//!
//! The spec explores the **full** schedule tree (no sleep sets), so set
//! equality checks two things at once: that the spec and the engine
//! implement the same protocol, and that the engine's pruning rule is
//! terminal-preserving.
//! On mismatch the harness greedily minimizes a witness schedule for
//! the diverging terminal and renders a replayable report.

use std::collections::BTreeMap;

use aa_check::explore::{execute, explore, terminal};
use aa_check::{ByzBehavior, Instance, LatticeAssignment};

use crate::state::{spec_explore, spec_run, SpecBehavior, SpecInstance};
use crate::tree::SpecTree;

/// Builds the spec twin of an engine instance + assignment.
pub fn spec_instance(inst: &Instance, assignment: &LatticeAssignment) -> SpecInstance {
    SpecInstance {
        n: inst.n,
        t: inst.t,
        tree: SpecTree::from_tree(&inst.tree),
        inputs: inst.inputs.iter().map(|v| v.index()).collect(),
        behaviors: assignment
            .behaviors
            .iter()
            .map(|b| match *b {
                ByzBehavior::Silent => SpecBehavior::Silent,
                ByzBehavior::Consistent(v) => SpecBehavior::Consistent(v),
                ByzBehavior::Equivocate(a, b) => SpecBehavior::Equivocate(a, b),
            })
            .collect(),
        max_events: inst.max_events,
    }
}

/// Counters from one passing differential.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffReport {
    /// Engine executions (including pruned branches).
    pub engine_executions: usize,
    /// Spec executions (always the full schedule tree).
    pub spec_executions: usize,
    /// Distinct terminal states both sides reached.
    pub terminals: usize,
}

/// A divergence: a terminal state reachable on one side only, with a
/// minimized witness schedule.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The side that reaches the terminal: `"spec"` or `"engine"`.
    pub reached_by: &'static str,
    /// The terminal state, in canonical rendering.
    pub terminal: String,
    /// Minimized witness script on the reaching side.
    pub script: Vec<usize>,
    /// The lattice assignment under test.
    pub assignment: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let other = if self.reached_by == "spec" {
            "engine"
        } else {
            "spec"
        };
        writeln!(
            f,
            "spec/engine divergence: terminal reachable by {} but not {}",
            self.reached_by, other
        )?;
        writeln!(f, "  assignment: {}", self.assignment)?;
        writeln!(f, "  terminal:   {}", self.terminal)?;
        write!(f, "  script:     {:?} (minimized)", self.script)
    }
}

/// Why a differential did not pass.
#[derive(Clone, Debug)]
pub enum DiffFailure {
    /// One side hit `max_runs` before exhausting its schedule tree, so
    /// set equality cannot be concluded.
    Truncated {
        /// `"spec"` or `"engine"`.
        side: &'static str,
    },
    /// The reachable terminal sets differ.
    Divergence(Divergence),
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffFailure::Truncated { side } => {
                write!(f, "{side} exploration truncated at the run budget")
            }
            DiffFailure::Divergence(d) => d.fmt(f),
        }
    }
}

/// Runs the differential for one `(instance, assignment)` pair: engine
/// enumeration (sleep sets) vs. spec full-tree enumeration, compared as
/// terminal-state sets in both directions.
pub fn differential(
    inst: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
) -> Result<DiffReport, Box<DiffFailure>> {
    // Engine side: terminal -> first witness script.
    let mut engine: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let result = explore(inst, assignment, depth, max_runs, |exec, script| {
        if let Some(terminal) = terminal(exec) {
            engine.entry(terminal).or_insert_with(|| script.to_vec());
        }
        None
    });
    if result.stats.truncated {
        return Err(Box::new(DiffFailure::Truncated { side: "engine" }));
    }

    // Spec side.
    let sinst = spec_instance(inst, assignment);
    let mut spec: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let stats = spec_explore(&sinst, depth, max_runs, |script, run| {
        spec.entry(run.state.render_terminal(&sinst))
            .or_insert_with(|| script.to_vec());
    });
    if stats.truncated {
        return Err(Box::new(DiffFailure::Truncated { side: "spec" }));
    }

    // Both directions; report the lexicographically first divergence so
    // failures are stable across runs.
    for (terminal, script) in &spec {
        if !engine.contains_key(terminal) {
            return Err(Box::new(DiffFailure::Divergence(minimize_spec_witness(
                inst, assignment, &sinst, &engine, script, depth,
            ))));
        }
    }
    for (terminal, script) in &engine {
        if !spec.contains_key(terminal) {
            return Err(Box::new(DiffFailure::Divergence(minimize_engine_witness(
                inst, assignment, &spec, script, depth,
            ))));
        }
    }
    Ok(DiffReport {
        engine_executions: result.stats.executions,
        spec_executions: stats.executions,
        terminals: engine.len(),
    })
}

/// Runs the differential across **every** lattice assignment of the
/// instance (the honest-only run when `t = 0`), accumulating counters.
pub fn differential_all_assignments(
    inst: &Instance,
    depth: usize,
    max_runs: usize,
) -> Result<DiffReport, Box<DiffFailure>> {
    let mut total = DiffReport::default();
    for assignment in aa_check::enumerate_assignments(inst.t, inst.tree.vertex_count()) {
        let report = differential(inst, &assignment, depth, max_runs)?;
        total.engine_executions += report.engine_executions;
        total.spec_executions += report.spec_executions;
        total.terminals += report.terminals;
    }
    Ok(total)
}

/// Whether `script` still witnesses a spec-reachable terminal outside
/// the engine's set; returns the terminal when it does.
fn spec_witnesses(
    sinst: &SpecInstance,
    engine: &BTreeMap<String, Vec<usize>>,
    script: &[usize],
    depth: usize,
) -> Option<String> {
    let run = spec_run(sinst, script, depth);
    let terminal = run.state.render_terminal(sinst);
    (!engine.contains_key(&terminal)).then_some(terminal)
}

/// Greedy witness minimization, shared shape with `aa_check::cex`:
/// truncate decisions from the back, then zero entries, until a fixed
/// point; every kept candidate must still witness the divergence.
fn minimize_script<W>(script: &[usize], mut witnesses: W) -> (Vec<usize>, String)
where
    W: FnMut(&[usize]) -> Option<String>,
{
    let mut script = script.to_vec();
    let mut terminal = witnesses(&script).expect("caller passes a witnessing script");
    loop {
        let mut progressed = false;
        while !script.is_empty() {
            let candidate = &script[..script.len() - 1];
            match witnesses(candidate) {
                Some(t) => {
                    script.pop();
                    terminal = t;
                    progressed = true;
                }
                None => break,
            }
        }
        for k in 0..script.len() {
            if script[k] == 0 {
                continue;
            }
            let mut candidate = script.clone();
            candidate[k] = 0;
            if let Some(t) = witnesses(&candidate) {
                script = candidate;
                terminal = t;
                progressed = true;
            }
        }
        if !progressed {
            return (script, terminal);
        }
    }
}

fn minimize_spec_witness(
    inst: &Instance,
    assignment: &LatticeAssignment,
    sinst: &SpecInstance,
    engine: &BTreeMap<String, Vec<usize>>,
    script: &[usize],
    depth: usize,
) -> Divergence {
    let _ = inst;
    let (script, terminal) = minimize_script(script, |s| spec_witnesses(sinst, engine, s, depth));
    Divergence {
        reached_by: "spec",
        terminal,
        script,
        assignment: assignment.describe(),
    }
}

fn minimize_engine_witness(
    inst: &Instance,
    assignment: &LatticeAssignment,
    spec: &BTreeMap<String, Vec<usize>>,
    script: &[usize],
    depth: usize,
) -> Divergence {
    let witnesses = |s: &[usize]| -> Option<String> {
        let terminal = terminal(&execute(inst, assignment, s, depth))?;
        (!spec.contains_key(&terminal)).then_some(terminal)
    };
    let (script, terminal) = minimize_script(script, witnesses);
    Divergence {
        reached_by: "engine",
        terminal,
        script,
        assignment: assignment.describe(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tree_model::generate;

    fn engine_instance(n: usize, t: usize, tree: &Arc<tree_model::Tree>) -> Instance {
        let vs: Vec<_> = tree.vertices().collect();
        Instance {
            n,
            t,
            tree: tree.clone(),
            inputs: (0..n).map(|i| vs[i % vs.len()]).collect(),
            max_events: 200_000,
        }
    }

    #[test]
    fn differential_passes_on_path3_depth2() {
        let tree = Arc::new(generate::path(3));
        let inst = engine_instance(4, 1, &tree);
        let report =
            differential_all_assignments(&inst, 2, 2_000_000).unwrap_or_else(|f| panic!("{f}"));
        assert!(report.terminals > 0);
        // The spec explores the full tree: never fewer runs than the
        // pruned engine enumeration.
        assert!(report.spec_executions >= report.engine_executions);
    }

    #[test]
    fn differential_passes_on_path4_honest_depth2() {
        let tree = Arc::new(generate::path(4));
        let inst = engine_instance(4, 0, &tree);
        differential_all_assignments(&inst, 2, 2_000_000).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn planted_spec_bug_is_caught_with_a_minimized_report() {
        // Arm the off-by-one safe-area limit in the spec and check the
        // differential catches it and minimizes the witness.
        let tree = Arc::new(generate::path(4));
        let vs: Vec<_> = tree.vertices().collect();
        let inst = Instance {
            n: 4,
            t: 0,
            tree: tree.clone(),
            // Weights 2/2 on v0/v1: the correct safe-area limit (n-t-1)
            // excludes v2; the buggy one (n-t) admits every vertex and
            // shifts the midpoint.
            inputs: vec![vs[0], vs[1], vs[1], vs[0]],
            max_events: 200_000,
        };
        let assignment = LatticeAssignment { behaviors: vec![] };

        crate::tree::test_hooks::set_planted_safe_area_bug(true);
        let failure =
            differential(&inst, &assignment, 2, 2_000_000).expect_err("planted bug must diverge");
        crate::tree::test_hooks::set_planted_safe_area_bug(false);

        let DiffFailure::Divergence(d) = failure.as_ref() else {
            panic!("expected divergence, got {failure}");
        };
        // The divergence is schedule-independent, so minimization must
        // reach the empty (all-FIFO) script.
        assert!(d.script.is_empty(), "expected fully minimized script: {d}");
        let report = format!("{d}");
        assert!(report.contains("divergence"), "{report}");
        assert!(report.contains("minimized"), "{report}");

        // Disarmed, the same instance passes.
        differential(&inst, &assignment, 2, 2_000_000).unwrap_or_else(|f| panic!("{f}"));
    }

    /// The full EXPERIMENTS.md depth-3 table, both directions. Slow:
    /// run in release (`cargo test -p aa-spec --release -- --ignored`);
    /// wired into CI's spec-differential job.
    #[test]
    #[ignore = "minutes in release; nightly CI budget"]
    fn differential_passes_on_the_depth3_experiments_table() {
        for (n, t, tree) in [
            (4, 1, Arc::new(generate::path(4))),
            (4, 1, Arc::new(generate::star(4))),
            (5, 1, Arc::new(generate::path(5))),
        ] {
            let inst = engine_instance(n, t, &tree);
            let report = differential_all_assignments(&inst, 3, 10_000_000)
                .unwrap_or_else(|f| panic!("{f}"));
            assert!(report.terminals > 0);
            // Visible under --nocapture: the EXPERIMENTS.md evidence that
            // the spec's full-tree exploration strictly covers the
            // engine's pruned one.
            println!(
                "n={n} t={t} m={}: engine {} executions, spec {} executions, {} terminals",
                tree.vertex_count(),
                report.engine_executions,
                report.spec_executions,
                report.terminals,
            );
        }
    }
}
