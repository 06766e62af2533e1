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
//! backtracking). One loop (`dfs`) serves the sequential explorer and
//! every portfolio unit.

use std::collections::BTreeSet;
use std::sync::Arc;

use async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{run_async_with, AsyncConfig, AsyncReport, AsyncSimError, DelayModel};
use sim_net::{Evidence, Outcome};
use tree_model::{Tree, VertexId};

use crate::lattice::{LatticeAdversary, LatticeAssignment};
use crate::sched::EnumeratingScheduler;

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
    /// Deliveries in order: `(from, to, payload bytes)`.
    pub deliveries: Vec<(usize, usize, usize)>,
}

/// Executes one script against `instance` under `assignment`; only the
/// sleep-set rule can cut it.
pub fn execute(
    instance: &Instance,
    assignment: &LatticeAssignment,
    script: &[usize],
    depth: usize,
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
        deliveries: sched.deliveries,
    }
}

/// The rendered terminal state of an execution, the identity the
/// `aa-spec` differential compares: per-party slots joined by `"; "`,
/// each `corrupted`, `value(v)` or `degraded(..)`, or `stalled(k)` /
/// `error(..)` for a run that did not complete.
///
/// Returns `None` for sleep-pruned runs (their terminals belong to
/// other branches). Degradation certificates keep the evidence *kind*
/// and implicated party but drop free-text equivocation context.
pub fn terminal(exec: &Execution) -> Option<String> {
    if exec.pruned_by_sleep {
        return None;
    }
    let report = match &exec.result {
        Ok(report) => report,
        Err(AsyncSimError::Stalled { events }) => return Some(format!("stalled({events})")),
        Err(e) => return Some(format!("error({e})")),
    };
    let slots: Vec<String> = report
        .outputs
        .iter()
        .map(|output| match output {
            None => "corrupted".to_string(),
            Some(Outcome::Value(v)) => format!("value({})", v.index()),
            Some(Outcome::Degraded(d)) => {
                let evidence: BTreeSet<(u8, usize, u32)> = d
                    .certificate
                    .evidence
                    .iter()
                    .map(|ev| match ev {
                        Evidence::Silence { party, round } => (0, *party, *round),
                        Evidence::Equivocation { party, .. } => (1, *party, 0),
                    })
                    .collect();
                format!(
                    "degraded({}, evidence {:?}, observed {}, budget {})",
                    d.fallback.index(),
                    evidence,
                    d.certificate.observed,
                    d.certificate.budget
                )
            }
        })
        .collect();
    Some(slots.join("; "))
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
    /// The exploration stopped at the execution budget before
    /// exhausting the schedule tree.
    pub truncated: bool,
}

/// The result of an exploration: sequential, or a portfolio's merge of
/// its units.
#[derive(Debug, Default)]
pub struct ExploreResult {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// First violation found: the failing script and the description.
    pub failure: Option<(Vec<usize>, String)>,
}

impl ExploreResult {
    /// Folds `other` (a later subtree) into `self`: counters add and the
    /// earlier failure wins.
    pub(crate) fn absorb(&mut self, other: ExploreResult) {
        self.stats.executions += other.stats.executions;
        self.stats.completed += other.stats.completed;
        self.stats.pruned_sleep += other.stats.pruned_sleep;
        self.stats.truncated |= other.stats.truncated;
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
/// report partial coverage honestly. Only the sleep-set rule prunes,
/// so every other explored schedule reaches `classify`.
pub fn explore<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    mut classify: F,
) -> ExploreResult
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    dfs(instance, assignment, depth, max_runs, &[], &mut classify)
}

/// The one deepest-incrementable-prefix walk: explores the scripts that
/// extend `prefix`, never incrementing a decision inside it (an empty
/// prefix is the whole tree, `[c]` one portfolio unit).
pub(crate) fn dfs<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    prefix: &[usize],
    classify: &mut F,
) -> ExploreResult
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    let mut result = ExploreResult::default();
    let stats = &mut result.stats;
    let mut script = prefix.to_vec();
    loop {
        if stats.executions >= max_runs {
            stats.truncated = true;
            break;
        }
        stats.executions += 1;
        let exec = execute(instance, assignment, &script, depth);
        if exec.pruned_by_sleep {
            stats.pruned_sleep += 1;
        } else {
            stats.completed += 1;
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
        let result = explore(&instance, assignment, 3, 10_000, |exec, _| {
            match &exec.result {
                Ok(_) => None,
                Err(e) => Some(format!("unexpected error: {e:?}")),
            }
        });
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
            let r = explore(&instance, assignment, 3, 10_000, |exec, script| {
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
    fn terminal_renders_one_slot_per_party_and_skips_pruned_runs() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let rendered = terminal(&execute(&instance, assignment, &[], 0)).expect("completed");
        assert_eq!(rendered.matches("value(").count(), 4, "{rendered}");
        assert_eq!(rendered.matches("; ").count(), 3, "{rendered}");
        assert_eq!(
            terminal(&execute(&instance, assignment, &[], 0)),
            Some(rendered)
        );
        let mut pruned = execute(&instance, assignment, &[], 0);
        pruned.pruned_by_sleep = true;
        assert_eq!(terminal(&pruned), None);
    }

    #[test]
    fn classify_failure_stops_with_the_script() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let mut count = 0;
        let result = explore(&instance, assignment, 2, 10_000, |_, _| {
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
