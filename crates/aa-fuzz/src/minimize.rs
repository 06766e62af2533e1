//! Greedy case minimization: shrink a failing case while it still fails.
//!
//! Because a [`FuzzCase`] stores generator parameters rather than
//! materialized objects, every shrink candidate is produced by editing a
//! few integers and re-validating — no structural repair needed. The
//! shrinker runs a fixpoint loop over an ordered candidate list (big
//! structural cuts first, cosmetic ones last) and accepts a candidate iff
//! it still validates *and* still reproduces a failure.

use crate::case::FuzzCase;
use crate::run::{run_case_mutated, CheckFailure, Mutation};

/// Outcome of a minimization.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The smallest still-failing case found.
    pub case: FuzzCase,
    /// The failure the minimized case reproduces.
    pub failure: CheckFailure,
    /// Shrink candidates actually executed.
    pub attempts: usize,
}

/// Minimizes `original` (which must fail) under the given mutation,
/// executing at most `max_attempts` candidate runs.
///
/// The shrink order is: halve the tree, then chip one vertex off, then
/// drop whole adversary atoms and whole fault atoms, then drop individual
/// victims, then lower `t`, then lower `n`, then flatten all inputs to
/// zero. Each accepted
/// candidate restarts the pass, so the result is a local fixpoint — no
/// single listed shrink applies to it.
///
/// # Panics
///
/// Panics if `original` does not fail (minimizing a passing case is a
/// harness bug).
pub fn minimize(original: &FuzzCase, mutation: Mutation, max_attempts: usize) -> Minimized {
    let mut failure =
        run_case_mutated(original, mutation).expect_err("minimize() requires a failing case");
    let mut best = original.clone();
    let mut attempts = 0usize;

    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if attempts >= max_attempts {
                return Minimized {
                    case: best,
                    failure,
                    attempts,
                };
            }
            if candidate.validate().is_err() {
                continue;
            }
            attempts += 1;
            if let Err(f) = run_case_mutated(&candidate, mutation) {
                best = candidate;
                failure = f;
                improved = true;
                break; // restart the pass from the shrunk case
            }
        }
        if !improved {
            return Minimized {
                case: best,
                failure,
                attempts,
            };
        }
    }
}

/// The ordered shrink candidates derived from `case`.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();

    // 1. Halve the tree, then chip one vertex off.
    if case.tree.size > 2 {
        let mut c = case.clone();
        c.tree.size = (case.tree.size / 2).max(2);
        out.push(c);
        let mut c = case.clone();
        c.tree.size -= 1;
        out.push(c);
    }

    // 2. Drop a whole adversary atom, then a whole fault atom.
    for i in 0..case.atoms.len() {
        let mut c = case.clone();
        c.atoms.remove(i);
        out.push(c);
    }
    for i in 0..case.faults.len() {
        let mut c = case.clone();
        c.faults.remove(i);
        out.push(c);
    }

    // 3. Drop one victim from an atom (atoms keep >= 1 victim; dropping
    //    the last one is covered by the whole-atom candidates above).
    for i in 0..case.atoms.len() {
        for j in 0..case.atoms[i].victims.len() {
            if case.atoms[i].victims.len() > 1 {
                let mut c = case.clone();
                c.atoms[i].victims.remove(j);
                out.push(c);
            }
        }
    }

    // 4. Lower the corruption budget.
    if case.t > 0 {
        let mut c = case.clone();
        c.t -= 1;
        out.push(c);
    }

    // 5. Lower n (dropping the last party's input; victim indices that
    //    fall out of range make the candidate invalid, which the caller
    //    filters via validate()).
    if case.n > 4 {
        let mut c = case.clone();
        c.n -= 1;
        c.inputs.pop();
        out.push(c);
    }

    // 6. Flatten all inputs to zero.
    if case.inputs.iter().any(|&i| i != 0) {
        let mut c = case.clone();
        c.inputs.iter_mut().for_each(|i| *i = 0);
        out.push(c);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{AdvAtom, AdvAtomKind, Family, FaultAtom, ProtocolKind, TreeSpec};
    use aa_check::props::PropViolation;

    /// A rich case that passes un-mutated but fails under
    /// `SkewFirstOutput` — the shrinker should drive it to a tiny tree.
    fn rich_case() -> FuzzCase {
        FuzzCase {
            seed: 9,
            tree: TreeSpec {
                family: Family::Prufer,
                size: 24,
                seed: 31,
            },
            n: 9,
            t: 2,
            protocol: ProtocolKind::Baseline,
            inputs: vec![3, 17, 40, 8, 22, 5, 11, 60, 2],
            atoms: vec![
                AdvAtom {
                    kind: AdvAtomKind::Equivocate,
                    victims: vec![1, 4],
                },
                AdvAtom {
                    kind: AdvAtomKind::Crash { round: 2 },
                    victims: vec![1],
                },
            ],
            faults: Vec::new(),
        }
    }

    #[test]
    fn injected_validity_bug_minimizes_to_a_tiny_repro() {
        let case = rich_case();
        assert!(run_case_mutated(&case, Mutation::None).is_ok());
        let minimized = minimize(&case, Mutation::SkewFirstOutput, 400);
        let tree = minimized.case.tree.build();
        assert!(
            tree.vertex_count() <= 8,
            "minimized repro still has {} vertices",
            tree.vertex_count()
        );
        assert!(minimized.case.validate().is_ok());
        assert!(run_case_mutated(&minimized.case, Mutation::SkewFirstOutput).is_err());
        assert!(matches!(
            minimized.failure,
            CheckFailure::Property(PropViolation::Validity(_) | PropViolation::Agreement(_))
        ));
    }

    #[test]
    fn minimization_is_deterministic() {
        let case = rich_case();
        let a = minimize(&case, Mutation::SkewFirstOutput, 200);
        let b = minimize(&case, Mutation::SkewFirstOutput, 200);
        assert_eq!(a.case, b.case);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn candidates_never_grow_the_case() {
        let mut case = rich_case();
        case.faults = vec![
            FaultAtom::Partition {
                side: vec![0, 1],
                from_round: 2,
                heal_round: 3,
            },
            FaultAtom::CrashRecover {
                party: 6,
                crash_round: 2,
                recover_round: 3,
            },
        ];
        for c in candidates(&case) {
            assert!(c.tree.size <= case.tree.size);
            assert!(c.n <= case.n);
            assert!(c.t <= case.t);
            assert!(c.atoms.len() <= case.atoms.len());
            assert!(c.faults.len() <= case.faults.len());
        }
    }

    #[test]
    fn candidates_shrink_the_fault_schedule_one_atom_at_a_time() {
        let mut case = rich_case();
        case.faults = vec![
            FaultAtom::Partition {
                side: vec![0, 1],
                from_round: 2,
                heal_round: 3,
            },
            FaultAtom::CrashRecover {
                party: 6,
                crash_round: 2,
                recover_round: 3,
            },
        ];
        let dropped: Vec<_> = candidates(&case)
            .into_iter()
            .filter(|c| c.faults.len() < case.faults.len() && c.tree == case.tree && c.n == case.n)
            .collect();
        assert_eq!(dropped.len(), 2, "one candidate per dropped fault atom");
        for c in &dropped {
            assert_eq!(c.faults.len(), 1);
            assert_eq!(c.atoms, case.atoms, "fault shrinks must not touch atoms");
        }
    }
}
