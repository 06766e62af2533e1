//! Counterexamples: replayable traces and greedy shrinking.
//!
//! A counterexample is fully determined by `(instance, assignment,
//! script)` — execution is deterministic — so the stored trace can be
//! regenerated byte for byte by replaying the script. The shrinker
//! exploits the same purity: every candidate simplification is simply
//! re-executed from scratch, and kept if *any* violation survives (a
//! smaller counterexample for a different manifestation of the bug is
//! still a better counterexample).

use aa_trace::{EventKind, ProtoEvent, Trace};
use sim_net::Outcome;

use crate::explore::{execute, Execution, Instance};
use crate::lattice::{ByzBehavior, LatticeAssignment};

/// A minimized, replayable witness of a property violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The Byzantine lattice assignment of the failing run.
    pub assignment: LatticeAssignment,
    /// The delivery-choice script of the failing run.
    pub script: Vec<usize>,
    /// Human-readable description of the violated property.
    pub violation: String,
    /// Enumeration depth the script was explored at (replays must use
    /// the same depth to reproduce the schedule).
    pub depth: usize,
    /// The failing run as a flight recording.
    pub trace: Trace,
}

impl Counterexample {
    /// Re-executes the counterexample and re-emits its trace; the result
    /// is byte-identical to [`Counterexample::trace`].
    pub fn replay(&self, instance: &Instance) -> Trace {
        let exec = execute(instance, &self.assignment, &self.script, self.depth);
        emit_trace(
            instance,
            &self.assignment,
            &self.script,
            &exec,
            &self.violation,
        )
    }
}

/// Renders a failing execution as an [`aa_trace::Trace`]: a header with
/// the reproduction recipe, one `Unicast` per delivery, one `Proto`
/// event per decided output, and the violation as the final event.
pub fn emit_trace(
    instance: &Instance,
    assignment: &LatticeAssignment,
    script: &[usize],
    exec: &Execution,
    violation: &str,
) -> Trace {
    let mut trace = Trace::new(instance.n, instance.t, "aa-check-counterexample");
    let script_str = script
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(".");
    trace.push(
        0,
        EventKind::Proto {
            party: 0,
            event: ProtoEvent::new("check.case")
                .str("assignment", &assignment.describe())
                .str("script", &script_str)
                .str(
                    "inputs",
                    &instance
                        .inputs
                        .iter()
                        .map(|v| v.index().to_string())
                        .collect::<Vec<_>>()
                        .join("."),
                ),
        },
    );
    let honest = instance.n - assignment.behaviors.len();
    for (i, &(from, to, bytes)) in exec.deliveries.iter().enumerate() {
        trace.push(
            i as u32 + 1,
            EventKind::Unicast {
                from,
                to,
                bytes,
                byzantine: from >= honest,
            },
        );
    }
    let last = exec.deliveries.len() as u32 + 1;
    if let Ok(report) = &exec.result {
        for (party, output) in report.outputs.iter().enumerate() {
            let Some(outcome) = output else { continue };
            let event = match outcome {
                Outcome::Value(v) => ProtoEvent::new("check.output")
                    .u64("vertex", v.index() as u64)
                    .bool("degraded", false),
                Outcome::Degraded(d) => ProtoEvent::new("check.output")
                    .u64("vertex", d.fallback.index() as u64)
                    .bool("degraded", true),
            };
            trace.push(last, EventKind::Proto { party, event });
        }
    }
    trace.push(
        last,
        EventKind::Proto {
            party: 0,
            event: ProtoEvent::new("check.violation").str("detail", violation),
        },
    );
    trace
}

/// Greedy shrinking: repeatedly tries to (1) drop trailing script
/// choices, (2) zero out individual choices, and (3) simplify Byzantine
/// behaviours toward silence, keeping any candidate that runs to its end
/// (is not sleep-pruned) and still fails `classify`. Terminates when a
/// full pass makes no progress.
pub fn minimize<F>(
    instance: &Instance,
    depth: usize,
    mut assignment: LatticeAssignment,
    mut script: Vec<usize>,
    violation: String,
    mut classify: F,
) -> Counterexample
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    let mut violation = violation;
    // A sleep-pruned candidate was cut short, not run to its end: its
    // terminal belongs to another branch, so it never stands for a
    // violation (a classifier would read the cut as a deadlock).
    let try_candidate =
        |a: &LatticeAssignment, s: &[usize], classify: &mut F| -> Option<(String, Execution)> {
            let exec = execute(instance, a, s, depth);
            if exec.pruned_by_sleep {
                return None;
            }
            classify(&exec, s).map(|v| (v, exec))
        };
    loop {
        let mut progressed = false;
        // (1) Truncate the script from the back.
        while !script.is_empty() {
            let shorter = &script[..script.len() - 1];
            if let Some((v, _)) = try_candidate(&assignment, shorter, &mut classify) {
                script.pop();
                violation = v;
                progressed = true;
            } else {
                break;
            }
        }
        // (2) Zero individual non-zero choices.
        for k in 0..script.len() {
            if script[k] == 0 {
                continue;
            }
            let mut candidate = script.clone();
            candidate[k] = 0;
            if let Some((v, _)) = try_candidate(&assignment, &candidate, &mut classify) {
                script = candidate;
                violation = v;
                progressed = true;
            }
        }
        // (3) Simplify behaviours toward silence.
        for i in 0..assignment.behaviors.len() {
            let simpler = match assignment.behaviors[i] {
                ByzBehavior::Silent => continue,
                ByzBehavior::Consistent(_) => ByzBehavior::Silent,
                ByzBehavior::Equivocate(a, _) => ByzBehavior::Consistent(a),
            };
            let mut candidate = assignment.clone();
            candidate.behaviors[i] = simpler;
            if let Some((v, _)) = try_candidate(&candidate, &script, &mut classify) {
                assignment = candidate;
                violation = v;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Final authoritative replay for the stored trace.
    let exec = execute(instance, &assignment, &script, depth);
    let trace = emit_trace(instance, &assignment, &script, &exec, &violation);
    Counterexample {
        assignment,
        script,
        violation,
        depth,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tree_model::{generate, VertexId};

    fn instance() -> Instance {
        // path3 (diameter 2): a real protocol run with messages to
        // schedule — path2 terminates at time 0 with nothing to shrink.
        let tree = Arc::new(generate::path(3));
        let vs: Vec<VertexId> = tree.vertices().collect();
        Instance {
            n: 4,
            t: 0,
            tree,
            inputs: vec![vs[0], vs[1], vs[0], vs[1]],
            max_events: 200_000,
        }
    }

    #[test]
    fn minimize_shrinks_an_always_failing_script_to_empty() {
        let instance = instance();
        let assignment = LatticeAssignment {
            behaviors: Vec::new(),
        };
        // A classifier that always fails: everything shrinks away.
        let cex = minimize(
            &instance,
            3,
            assignment,
            vec![1, 1, 0],
            "seed violation".to_string(),
            |_, _| Some("still failing".to_string()),
        );
        assert!(cex.script.is_empty());
        assert_eq!(cex.violation, "still failing");
    }

    #[test]
    fn minimize_is_idempotent() {
        // minimize(minimize(x)) == minimize(x): re-minimizing a fixed
        // point must change neither the script, nor the assignment, nor
        // the rendered trace.
        let instance = Instance { t: 1, ..instance() };
        // The classifier demands total script weight ≥ 2, so the fixed
        // point is a genuinely nonempty script.
        let classify = |_: &Execution, s: &[usize]| {
            (s.iter().sum::<usize>() >= 2).then(|| "needs script weight 2".to_string())
        };
        let first = minimize(
            &instance,
            3,
            LatticeAssignment {
                behaviors: vec![ByzBehavior::Equivocate(0, 2)],
            },
            vec![1, 1, 1],
            "seed".to_string(),
            classify,
        );
        assert!(!first.script.is_empty());
        let second = minimize(
            &instance,
            3,
            first.assignment.clone(),
            first.script.clone(),
            first.violation.clone(),
            classify,
        );
        assert_eq!(second.script, first.script);
        assert_eq!(second.assignment, first.assignment);
        assert_eq!(second.violation, first.violation);
        assert_eq!(
            second.trace.to_canonical_string(),
            first.trace.to_canonical_string()
        );
    }

    #[test]
    fn minimized_counterexample_still_violates_and_replays_identically() {
        // A genuine output-based violation: with inputs 0,1,0,1 on path3
        // every schedule converges on vertex 1, so "all honest outputs
        // stay at vertex 0" fails everywhere — shrinking must preserve
        // the violation all the way down to the empty script.
        fn classify(exec: &Execution, _s: &[usize]) -> Option<String> {
            let report = exec.result.as_ref().ok()?;
            report
                .outputs
                .iter()
                .flatten()
                .any(|o| !matches!(o, Outcome::Value(v) if v.index() == 0))
                .then(|| "an honest output left vertex 0".to_string())
        }
        let instance = instance();
        let assignment = LatticeAssignment {
            behaviors: Vec::new(),
        };
        let cex = minimize(
            &instance,
            3,
            assignment,
            vec![2, 1, 1],
            "seed".to_string(),
            classify,
        );
        // Schedule-independent violation: fully minimized.
        assert!(cex.script.is_empty());
        // The minimized counterexample still violates when re-executed…
        let exec = execute(&instance, &cex.assignment, &cex.script, cex.depth);
        assert!(classify(&exec, &cex.script).is_some());
        // …and its replayed trace is byte-identical to the stored one.
        let replayed = cex.replay(&instance);
        assert_eq!(
            replayed.to_canonical_string(),
            cex.trace.to_canonical_string()
        );
        assert_eq!(replayed.fingerprint(), cex.trace.fingerprint());
    }

    #[test]
    fn a_sleep_pruned_candidate_is_never_accepted() {
        // path4, t = 1, the Byzantine party silent: script [3, 3, 3] at
        // depth 4 is cut by the sleep-set rule. The classifier reads a cut
        // run as a deadlock, as `classify_execution` does, and fails only
        // the seed otherwise, so truncating the seed to [3, 3, 3] is the
        // one step that would swap its violation for a false deadlock.
        let tree = Arc::new(generate::path(4));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let instance = Instance {
            n: 4,
            t: 1,
            tree,
            inputs: vs,
            max_events: 200_000,
        };
        let silent = LatticeAssignment {
            behaviors: vec![ByzBehavior::Silent],
        };
        assert!(execute(&instance, &silent, &[3, 3, 3], 4).pruned_by_sleep);
        let seed = vec![3, 3, 3, 1];
        let cex = minimize(
            &instance,
            4,
            silent,
            seed.clone(),
            "seed violation".to_string(),
            |exec, s| {
                if exec.pruned_by_sleep {
                    Some("asynchronous deadlock".to_string())
                } else {
                    (s == seed.as_slice()).then(|| "seed violation".to_string())
                }
            },
        );
        assert_eq!(cex.script, [3, 3, 3, 1]);
        assert_eq!(cex.violation, "seed violation");
    }

    #[test]
    fn replay_reproduces_the_trace_byte_for_byte() {
        let instance = instance();
        let assignment = LatticeAssignment {
            behaviors: Vec::new(),
        };
        let cex = minimize(
            &instance,
            3,
            assignment,
            vec![1],
            "seed".to_string(),
            |_, s| (!s.is_empty()).then(|| "needs a nonempty script".to_string()),
        );
        // Truncation can't drop the last choice (the classifier demands
        // a nonempty script) but zeroing simplifies `[1]` to `[0]`.
        assert_eq!(cex.script, vec![0]);
        let replayed = cex.replay(&instance);
        assert_eq!(
            replayed.to_canonical_string(),
            cex.trace.to_canonical_string()
        );
        assert_eq!(replayed.fingerprint(), cex.trace.fingerprint());
    }
}
