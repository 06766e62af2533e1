//! Named canonical scenarios — the fixed `(tree, protocol, adversary)`
//! combinations behind the `treeaa trace` subcommand and the golden-trace
//! conformance suite.
//!
//! A scenario pins everything except the run seed: the tree family, shape
//! seed and size, the party counts, the protocol, the honest inputs and
//! the adversary composition. The caller supplies only `seed`, which
//! drives the adversary's RNG — so `(name, seed)` fully determines the
//! flight-recorder trace, and a golden trace file is reproducible from
//! the scenario name and seed stored next to it.

use sim_net::Trace;

use crate::case::{AdvAtom, AdvAtomKind, Family, FaultAtom, FuzzCase, ProtocolKind, TreeSpec};
use crate::run::run_case;

/// The names of all canonical scenarios, in registry order.
pub const SCENARIO_NAMES: [&str; 10] = [
    "path-honest",
    "star-crash",
    "caterpillar-equivocate",
    "broom-realaa-equivocate",
    "path-baseline-flaky",
    "star-halving-honest",
    "partition-heal",
    "crash-recovery",
    "bundle-k4-honest",
    "bundle-k4-crash",
];

/// All canonical scenario names, in registry order.
pub fn scenario_names() -> &'static [&'static str] {
    &SCENARIO_NAMES
}

/// Builds the named scenario with the given adversary seed, or `None` if
/// the name is unknown. The returned case always passes
/// [`FuzzCase::validate`].
pub fn scenario(name: &str, seed: u64) -> Option<FuzzCase> {
    let case = match name {
        // TreeAA (gradecast engine) on a path, no adversary: the
        // worst-case topology for diameter-driven protocols, fully honest.
        "path-honest" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Path,
                size: 6,
                seed: 11,
            },
            n: 4,
            t: 1,
            protocol: ProtocolKind::TreeAaGradecast,
            inputs: vec![0, 5, 2, 3],
            atoms: Vec::new(),
            faults: Vec::new(),
        },
        // TreeAA (gradecast engine) on a star with an early crash:
        // exercises Corrupt events and mid-run honest-set shrinkage.
        "star-crash" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Star,
                size: 7,
                seed: 13,
            },
            n: 7,
            t: 2,
            protocol: ProtocolKind::TreeAaGradecast,
            inputs: vec![0, 6, 3, 1, 4, 2, 5],
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Crash { round: 2 },
                victims: vec![5, 6],
            }],
            faults: Vec::new(),
        },
        // TreeAA (gradecast engine) on a caterpillar under equivocation:
        // the fuzz harness's own base case, promoted to a golden trace.
        "caterpillar-equivocate" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Caterpillar,
                size: 9,
                seed: 2,
            },
            n: 7,
            t: 2,
            protocol: ProtocolKind::TreeAaGradecast,
            inputs: vec![0, 5, 2, 9, 1, 7, 3],
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Equivocate,
                victims: vec![3],
            }],
            faults: Vec::new(),
        },
        // RealAA on a broom under equivocation: gc.grade and realaa.iter
        // events with a Byzantine leader in every iteration.
        "broom-realaa-equivocate" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Broom,
                size: 8,
                seed: 5,
            },
            n: 7,
            t: 2,
            protocol: ProtocolKind::RealAa,
            inputs: vec![1, 6, 0, 4, 7, 2, 5],
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Equivocate,
                victims: vec![2, 4],
            }],
            faults: Vec::new(),
        },
        // The O(log D) baseline on a path with a flaky rushing adversary:
        // Forward events interleaved with selective silence.
        "path-baseline-flaky" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Path,
                size: 7,
                seed: 17,
            },
            n: 5,
            t: 1,
            protocol: ProtocolKind::Baseline,
            inputs: vec![0, 6, 3, 2, 5],
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Flaky,
                victims: vec![4],
            }],
            faults: Vec::new(),
        },
        // TreeAA with the halving inner engine on a star, fully honest:
        // the shortest, most readable golden trace.
        "star-halving-honest" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Star,
                size: 6,
                seed: 3,
            },
            n: 4,
            t: 1,
            protocol: ProtocolKind::TreeAaHalving,
            inputs: vec![0, 5, 1, 3],
            atoms: Vec::new(),
            faults: Vec::new(),
        },
        // The O(log D) baseline on a path with a link partition that heals:
        // fault.partition / fault.heal events bracketing frozen rounds.
        "partition-heal" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Path,
                size: 6,
                seed: 19,
            },
            n: 5,
            t: 1,
            protocol: ProtocolKind::Baseline,
            inputs: vec![0, 5, 3, 1, 4],
            atoms: Vec::new(),
            faults: vec![FaultAtom::Partition {
                side: vec![0, 1],
                from_round: 2,
                heal_round: 4,
            }],
        },
        // The O(log D) baseline on a star with a crash that recovers:
        // fault.crash / fault.recover events and a catch-up decision.
        "crash-recovery" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Star,
                size: 6,
                seed: 23,
            },
            n: 5,
            t: 1,
            protocol: ProtocolKind::Baseline,
            inputs: vec![2, 5, 0, 4, 1],
            atoms: Vec::new(),
            faults: vec![FaultAtom::CrashRecover {
                party: 3,
                crash_round: 2,
                recover_round: 4,
            }],
        },
        // Bundled RealAA — 4 instances amortized over one gradecast
        // wire — on a broom, fully honest: per-instance gc.grade and
        // realaa.iter events keyed by `inst`.
        "bundle-k4-honest" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Broom,
                size: 8,
                seed: 29,
            },
            n: 4,
            t: 1,
            protocol: ProtocolKind::BundledRealAa,
            inputs: vec![0, 6, 3, 5],
            atoms: Vec::new(),
            faults: Vec::new(),
        },
        // Bundled RealAA with an early crash: one crashed sender goes
        // silent in every bundled instance at once, so all four
        // instances mute it in the same iteration.
        "bundle-k4-crash" => FuzzCase {
            seed,
            tree: TreeSpec {
                family: Family::Caterpillar,
                size: 9,
                seed: 31,
            },
            n: 7,
            t: 2,
            protocol: ProtocolKind::BundledRealAa,
            inputs: vec![0, 5, 2, 8, 1, 7, 3],
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Crash { round: 2 },
                victims: vec![5, 6],
            }],
            faults: Vec::new(),
        },
        _ => return None,
    };
    Some(case)
}

/// Runs the named scenario under the flight recorder and returns the
/// trace, labeled `"<name>:<seed>"` — the single code path behind both
/// `treeaa trace` and the golden-trace conformance suite, so a checked-in
/// golden file is reproducible from the label alone.
///
/// # Errors
///
/// Returns a message if the name is unknown (listing the known names) or
/// if the run violates any harness invariant.
pub fn record_scenario(name: &str, seed: u64) -> Result<Trace, String> {
    let case = scenario(name, seed).ok_or_else(|| {
        format!(
            "unknown scenario `{name}`; available: {}",
            SCENARIO_NAMES.join(", ")
        )
    })?;
    let mut trace = run_case(&case)
        .map_err(|e| format!("scenario `{name}` seed {seed}: {e}"))?
        .trace;
    trace.label = format!("{name}:{seed}");
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in scenario_names() {
            let case = scenario(name, 42).unwrap_or_else(|| panic!("{name} missing"));
            case.validate()
                .unwrap_or_else(|e| panic!("{name} invalid: {e}"));
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert_eq!(scenario("no-such-scenario", 1), None);
    }

    #[test]
    fn seed_feeds_the_case_seed_only() {
        for name in scenario_names() {
            let a = scenario(name, 1).unwrap();
            let b = scenario(name, 2).unwrap();
            assert_ne!(a.seed, b.seed);
            assert_eq!(a.tree, b.tree, "{name}: tree must not depend on seed");
            assert_eq!(a.inputs, b.inputs);
        }
    }

    #[test]
    fn record_labels_the_trace() {
        let trace = record_scenario("star-halving-honest", 9).unwrap();
        assert_eq!(trace.label, "star-halving-honest:9");
        assert!(!trace.events.is_empty());
        let err = record_scenario("bogus", 0).unwrap_err();
        assert!(err.contains("path-honest"), "{err}");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = scenario_names().to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIO_NAMES.len());
    }
}
