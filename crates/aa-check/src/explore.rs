//! The bounded-DFS driver: stateless exploration by re-execution.
//!
//! Each execution is a **pure function** of `(instance, assignment,
//! script, depth)`: the protocol, adversary, and scheduler are all
//! deterministic, so replaying a script reproduces its run bit for bit —
//! which is what makes counterexamples replayable and reruns
//! fingerprint-identical. The driver walks the schedule tree in
//! depth-first order without keeping it in memory: each run records the
//! branching factor and choice taken at every decision, and the next
//! script is the deepest incrementable prefix (standard stateless
//! backtracking). One loop (`dfs`) serves the sequential explorer,
//! symmetry reduction and every portfolio unit.

use std::collections::BTreeSet;
use std::sync::Arc;

use async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{run_async_with, AsyncConfig, AsyncReport, AsyncSimError, DelayModel};
use sim_net::Outcome;
use tree_model::{Tree, VertexId};

use crate::lattice::{LatticeAdversary, LatticeAssignment};
use crate::sched::{EnumeratingScheduler, VisitedMap};
use crate::sym::{self, SymmetryGroup};

/// One small instance to check exhaustively.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Number of parties (corrupted parties are the last `t`).
    pub n: usize,
    /// Corruption bound.
    pub t: usize,
    /// The tree the parties agree on.
    pub tree: Arc<Tree>,
    /// Per-party inputs (entries for corrupted parties are ignored —
    /// their behaviour comes from the lattice assignment).
    pub inputs: Vec<VertexId>,
    /// Event budget per execution (guards livelocks).
    pub max_events: usize,
}

impl Instance {
    /// The async protocol configuration for this instance.
    ///
    /// # Panics
    ///
    /// Panics if `n ≤ 3t` (rejected earlier by [`crate::check`]).
    pub fn async_cfg(&self) -> AsyncTreeAaConfig {
        AsyncTreeAaConfig::new(self.n, self.t, &self.tree)
            .expect("instance validated before exploration")
    }
}

/// The outcome of executing one choice script.
pub struct Execution {
    /// The run's report, or why it ended early.
    pub result: Result<AsyncReport<Outcome<VertexId>>, AsyncSimError>,
    /// Awake choices available at each decision point.
    pub branching: Vec<usize>,
    /// Choice taken at each decision point.
    pub taken: Vec<usize>,
    /// The branch was cut because every pending message was asleep.
    pub pruned_by_sleep: bool,
    /// The branch was cut on an orbit already visited (symmetry mode).
    pub pruned_by_visited: bool,
    /// Deliveries in order: `(from, to, payload bytes)`.
    pub deliveries: Vec<(usize, usize, usize)>,
}

impl Execution {
    /// Whether this run was cut short by a pruning rule (as opposed to
    /// completing or genuinely deadlocking).
    pub fn pruned(&self) -> bool {
        self.pruned_by_sleep || self.pruned_by_visited
    }
}

/// Executes one script against `instance` under `assignment`, in
/// isolation: only the sleep-set rule can cut it.
pub fn execute(
    instance: &Instance,
    assignment: &LatticeAssignment,
    script: &[usize],
    depth: usize,
) -> Execution {
    run_script(instance, assignment, script, depth, None)
}

/// [`execute`], optionally in symmetry mode: visited keys are
/// canonicalized over the group and checked against (and recorded in)
/// the exploration's map (see [`crate::sched::SymMode`]).
fn run_script(
    instance: &Instance,
    assignment: &LatticeAssignment,
    script: &[usize],
    depth: usize,
    sym: Option<(&SymmetryGroup, &mut VisitedMap)>,
) -> Execution {
    let cfg = AsyncConfig {
        n: instance.n,
        t: instance.t,
        seed: 0,
        delay: DelayModel::Lockstep,
        max_events: instance.max_events,
    };
    let aa_cfg = instance.async_cfg();
    let tree = instance.tree.clone();
    let inputs = instance.inputs.clone();
    let mut sched = EnumeratingScheduler::new(depth, script);
    sched.sym = sym.map(|(group, visited)| group.sym_mode(instance.n, visited));
    let result = run_async_with(
        &cfg,
        None,
        |me, _n| AsyncTreeAaParty::new(aa_cfg.clone(), tree.clone(), inputs[me.index()]),
        LatticeAdversary::new(instance.n, assignment.clone()),
        &mut sched,
        None,
    );
    Execution {
        result,
        branching: sched.branching,
        taken: sched.taken,
        pruned_by_sleep: sched.pruned_by_sleep,
        pruned_by_visited: sched.pruned_by_visited,
        deliveries: sched.deliveries,
    }
}

/// Counters from one exhaustive exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Scripts executed (including pruned ones).
    pub executions: usize,
    /// Executions that ran to completion and were property-checked.
    pub completed: usize,
    /// Branches cut by the sleep-set rule.
    pub pruned_sleep: usize,
    /// Branches cut by the visited-state rule (symmetry mode only).
    pub pruned_visited: usize,
    /// The exploration stopped at the execution budget before
    /// exhausting the schedule tree.
    pub truncated: bool,
}

/// The result of an exploration: sequential, symmetry-reduced, or a
/// portfolio's merge of its units.
#[derive(Debug, Default)]
pub struct ExploreResult {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// First violation found: the failing script and the description.
    pub failure: Option<(Vec<usize>, String)>,
    /// Canonical terminal states of every completed execution
    /// (symmetry mode; empty otherwise).
    pub terminals: BTreeSet<String>,
    /// Visited-pruned branches re-executed by the audit.
    pub audited: usize,
    /// Audit re-runs whose canonical terminal was *not* in `terminals`:
    /// each is a pruned script plus the missing terminal — evidence that
    /// the symmetry merge was unsound for this instance.
    pub audit_failures: Vec<(Vec<usize>, String)>,
}

impl ExploreResult {
    /// Folds `other` (a later subtree) into `self`: counters add,
    /// terminals and audit failures union in order, and the earlier
    /// failure wins.
    pub(crate) fn absorb(&mut self, other: ExploreResult) {
        self.stats.executions += other.stats.executions;
        self.stats.completed += other.stats.completed;
        self.stats.pruned_sleep += other.stats.pruned_sleep;
        self.stats.pruned_visited += other.stats.pruned_visited;
        self.stats.truncated |= other.stats.truncated;
        self.terminals.extend(other.terminals);
        self.audited += other.audited;
        self.audit_failures.extend(other.audit_failures);
        if self.failure.is_none() {
            self.failure = other.failure;
        }
    }
}

/// Explores every delivery schedule of `instance` under `assignment` up
/// to `depth` enumerated decisions, calling `classify` on every
/// completed (non-pruned) execution. `classify` returns a violation
/// description to stop the exploration with a failure.
///
/// `max_runs` bounds the number of executions; hitting it sets
/// [`ExploreStats::truncated`] rather than erroring, so callers can
/// report partial coverage honestly.
///
/// Without a `group` only the sleep-set rule prunes. With one, runs are
/// also cut on orbit-canonical visited keys, and the reduction is gated
/// by a soundness cross-check: up to `audit_sample` of the
/// visited-pruned scripts are re-executed in isolation and their
/// canonical terminal states must already be in the explored set.
pub fn explore<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    group: Option<&SymmetryGroup>,
    audit_sample: usize,
    mut classify: F,
) -> ExploreResult
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    dfs(
        instance,
        assignment,
        depth,
        max_runs,
        &[],
        group,
        audit_sample,
        &mut classify,
    )
}

/// The one deepest-incrementable-prefix walk: explores the scripts that
/// extend `prefix`, never incrementing a decision inside it (an empty
/// prefix is the whole tree, `[c]` one portfolio unit), under its own
/// visited map in symmetry mode, then audits the pruned scripts it kept.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dfs<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    prefix: &[usize],
    group: Option<&SymmetryGroup>,
    audit_sample: usize,
    classify: &mut F,
) -> ExploreResult
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    let mut result = ExploreResult::default();
    let stats = &mut result.stats;
    let mut visited = VisitedMap::default();
    let mut audit_scripts: Vec<Vec<usize>> = Vec::new();
    let mut script = prefix.to_vec();
    loop {
        if stats.executions >= max_runs {
            stats.truncated = true;
            break;
        }
        stats.executions += 1;
        let sym = group.map(|g| (g, &mut visited));
        let exec = run_script(instance, assignment, &script, depth, sym);
        if exec.pruned_by_sleep {
            stats.pruned_sleep += 1;
        } else if exec.pruned_by_visited {
            stats.pruned_visited += 1;
            if audit_scripts.len() < audit_sample {
                audit_scripts.push(script.clone());
            }
        } else {
            stats.completed += 1;
            if let Some(t) = group.and_then(|g| sym::canonical_terminal(g, &exec)) {
                result.terminals.insert(t);
            }
            if let Some(violation) = classify(&exec, &script) {
                result.failure = Some((script, violation));
                return result;
            }
        }
        // Deepest incrementable decision → next script (DFS backtrack).
        let next = (prefix.len()..exec.taken.len())
            .rev()
            .find(|&k| exec.taken[k] + 1 < exec.branching[k]);
        let Some(k) = next else { break };
        script = exec.taken[..k].to_vec();
        script.push(exec.taken[k] + 1);
    }
    if let Some(g) = group {
        result.audited = audit_scripts.len();
        for script in audit_scripts {
            // A sleep-pruned continuation has no terminal of its own (its
            // interleavings are owned by other branches) — skip.
            let exec = execute(instance, assignment, &script, depth);
            if let Some(t) = sym::canonical_terminal(g, &exec) {
                if !result.terminals.contains(&t) {
                    result.audit_failures.push((script, t));
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::enumerate_assignments;
    use tree_model::generate;

    fn tiny_instance(n: usize, t: usize, vertices: usize) -> Instance {
        let tree = Arc::new(generate::path(vertices));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let inputs = (0..n).map(|i| vs[i % vs.len()]).collect();
        Instance {
            n,
            t,
            tree,
            inputs,
            max_events: 200_000,
        }
    }

    #[test]
    fn honest_path3_explores_and_completes() {
        // path3 has diameter 2 → a real multi-iteration protocol run
        // (path2 would terminate at time 0 with no messages at all).
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let result = explore(
            &instance,
            assignment,
            3,
            10_000,
            None,
            0,
            |exec, _| match &exec.result {
                Ok(_) => None,
                Err(e) => Some(format!("unexpected error: {e:?}")),
            },
        );
        assert!(result.failure.is_none(), "{:?}", result.failure);
        assert!(!result.stats.truncated);
        assert!(result.stats.completed >= 1);
        // The schedule tree branches: more than one execution happened.
        assert!(result.stats.executions > 1);
    }

    #[test]
    fn exploration_is_deterministic() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let run = || {
            let mut sig = Vec::new();
            let r = explore(&instance, assignment, 3, 10_000, None, 0, |exec, script| {
                sig.push((script.to_vec(), exec.deliveries.clone()));
                None
            });
            (r.stats, sig)
        };
        let (s1, sig1) = run();
        let (s2, sig2) = run();
        assert_eq!(s1, s2);
        assert_eq!(sig1, sig2);
    }

    #[test]
    fn symmetry_prunes_star5_and_preserves_canonical_terminals() {
        // star(5) with inputs v0, v3, v4, v0: the leaf swap v3↔v4 (with
        // parties 1↔2) is a nontrivial symmetry, so the reduced
        // exploration must complete strictly fewer runs while reaching
        // exactly the same canonical terminal-state set, and every
        // audited pruned branch must land on an already-found terminal.
        let tree = Arc::new(generate::star(5));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let instance = Instance {
            n: 4,
            t: 0,
            tree,
            inputs: vec![vs[0], vs[3], vs[4], vs[0]],
            max_events: 200_000,
        };
        let assignment = &enumerate_assignments(0, 5)[0];
        let group = SymmetryGroup::for_instance(&instance, assignment);
        assert!(group.order() >= 2, "order {}", group.order());

        let mut base_terminals = BTreeSet::new();
        let base = explore(&instance, assignment, 3, 1_000_000, None, 0, |exec, _| {
            if let Some(t) = sym::canonical_terminal(&group, exec) {
                base_terminals.insert(t);
            }
            None
        });
        assert!(base.failure.is_none());
        assert!(!base.stats.truncated);

        let reduced = explore(
            &instance,
            assignment,
            3,
            1_000_000,
            Some(&group),
            usize::MAX,
            |_, _| None,
        );
        assert!(reduced.failure.is_none());
        assert!(!reduced.stats.truncated);
        assert!(
            reduced.stats.completed < base.stats.completed,
            "no symmetry pruning: {} vs {}",
            reduced.stats.completed,
            base.stats.completed
        );
        assert!(reduced.stats.pruned_visited > 0);
        assert_eq!(reduced.terminals, base_terminals);
        assert!(
            reduced.audit_failures.is_empty(),
            "audit failures: {:?}",
            reduced.audit_failures
        );
        assert!(reduced.audited > 0, "audit sampled nothing");
    }

    #[test]
    fn identity_group_explores_exactly_like_the_unsymmetrized_checker() {
        // path5 with all-distinct inputs has a trivial symmetry group;
        // the reduced explorer must walk exactly the same script
        // sequence as the plain one (soundness gate for the
        // history-based canonical keys).
        let tree = Arc::new(generate::path(5));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let instance = Instance {
            n: 4,
            t: 0,
            tree,
            inputs: vec![vs[0], vs[1], vs[2], vs[3]],
            max_events: 200_000,
        };
        let assignment = &enumerate_assignments(0, 5)[0];
        let group = SymmetryGroup::for_instance(&instance, assignment);
        assert_eq!(group.order(), 1);

        let mut base_scripts = Vec::new();
        let base = explore(
            &instance,
            assignment,
            3,
            1_000_000,
            None,
            0,
            |exec, script| {
                base_scripts.push((script.to_vec(), exec.deliveries.clone()));
                None
            },
        );
        let mut sym_scripts = Vec::new();
        let reduced = explore(
            &instance,
            assignment,
            3,
            1_000_000,
            Some(&group),
            usize::MAX,
            |exec, script| {
                sym_scripts.push((script.to_vec(), exec.deliveries.clone()));
                None
            },
        );
        assert_eq!(base.stats, reduced.stats);
        assert_eq!(base_scripts, sym_scripts);
        assert!(reduced.audit_failures.is_empty());
    }

    #[test]
    fn classify_failure_stops_with_the_script() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let mut count = 0;
        let result = explore(&instance, assignment, 2, 10_000, None, 0, |_, _| {
            count += 1;
            (count == 2).then(|| "synthetic violation".to_string())
        });
        let (script, violation) = result.failure.expect("second completed run fails");
        assert_eq!(violation, "synthetic violation");
        // The failing script replays to the same deliveries.
        let replay = execute(&instance, assignment, &script, 2);
        assert!(replay.result.is_ok());
    }
}
