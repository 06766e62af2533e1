//! Deterministic, seed-driven fault plans for both network substrates.
//!
//! A [`FaultPlan`] describes *benign* infrastructure faults — distinct from
//! the Byzantine [`Adversary`](crate::Adversary): messages dropped or
//! duplicated by a lossy link, delay spikes, scheduled network partitions
//! that later heal, and parties that crash and recover. The plan is a pure
//! value; all randomness used when applying it is derived from
//! [`FaultPlan::seed`], so a run under a plan is exactly as reproducible as
//! a fault-free run.
//!
//! Two substrates consume plans:
//!
//! * the lockstep engine (`run_simulation_faulted_traced`) applies the
//!   subset that is expressible in a synchronous round structure —
//!   crash/recovery windows and partitions
//!   ([`FaultPlan::lockstep_compatible`]);
//! * the asynchronous event loop (`async-net`) applies everything,
//!   including probabilistic per-message drop, duplication and delay
//!   spikes.
//!
//! Every fault firing is recorded as an `aa-trace` event, so traced runs
//! under a plan remain byte-identical across step modes and reruns.

use std::error::Error;
use std::fmt;

/// A scheduled network partition: `side` is cut off from the rest of the
/// network for rounds `from_round..heal_round` (the heal round itself runs
/// with the partition healed). Links *within* `side` and within its
/// complement keep working.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Parties on the severed side of the cut.
    pub side: Vec<usize>,
    /// First round (1-based) in which the cut is in effect.
    pub from_round: u32,
    /// First round in which the cut is no longer in effect; use
    /// `u32::MAX` for a partition that never heals.
    pub heal_round: u32,
}

impl Partition {
    /// Whether the cut is in effect in `round`.
    pub fn active(&self, round: u32) -> bool {
        self.from_round <= round && round < self.heal_round
    }

    /// Whether this partition separates `a` from `b` in `round`.
    pub fn severs(&self, round: u32, a: usize, b: usize) -> bool {
        self.active(round) && (self.side.contains(&a) != self.side.contains(&b))
    }
}

/// A benign crash with scheduled recovery: the party is frozen (not
/// stepped, sends suppressed, inbound messages lost) for rounds
/// `crash_round..recover_round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashFault {
    /// The crashing party.
    pub party: usize,
    /// First round (1-based) the party is down.
    pub crash_round: u32,
    /// First round the party is back up; use `u32::MAX` for a permanent
    /// crash.
    pub recover_round: u32,
}

impl CrashFault {
    /// Whether the party is down in `round`.
    pub fn down(&self, round: u32) -> bool {
        self.crash_round <= round && round < self.recover_round
    }
}

/// A deterministic fault-injection plan.
///
/// The probabilistic link faults (`*_permille` fields) only apply in the
/// asynchronous substrate; the scheduled faults (`partitions`, `crashes`)
/// apply in both. [`FaultPlan::none`] is the identity plan: running under
/// it is observably identical to not passing a plan at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for all probabilistic fault decisions.
    pub seed: u64,
    /// Per-message drop probability in permille (0..=1000), async only.
    pub drop_permille: u32,
    /// Per-message duplication probability in permille, async only.
    pub dup_permille: u32,
    /// Per-message delay-spike probability in permille (the delay is
    /// forced to the maximum of the delay model's range), async only.
    pub delay_spike_permille: u32,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash/recovery windows.
    pub crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// The identity plan: no faults.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_permille: 0,
            dup_permille: 0,
            delay_spike_permille: 0,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.drop_permille == 0
            && self.dup_permille == 0
            && self.delay_spike_permille == 0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }

    /// Whether every fault in the plan is expressible in the lockstep
    /// engine (only scheduled crashes and partitions are; probabilistic
    /// per-message faults have no synchronous-round meaning).
    pub fn lockstep_compatible(&self) -> bool {
        self.drop_permille == 0 && self.dup_permille == 0 && self.delay_spike_permille == 0
    }

    /// Whether every link is eventually connected forever: all partitions
    /// heal and all crashes recover. Under such a plan a retransmitting
    /// protocol is guaranteed to terminate.
    pub fn eventually_connected(&self) -> bool {
        self.partitions.iter().all(|p| p.heal_round != u32::MAX)
            && self.crashes.iter().all(|c| c.recover_round != u32::MAX)
    }

    /// Parties whose crash never recovers (`recover_round == u32::MAX`),
    /// deduplicated and sorted.
    pub fn permanently_crashed(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .crashes
            .iter()
            .filter(|c| c.recover_round == u32::MAX)
            .map(|c| c.party)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether `party` is down in `round` under some crash window.
    pub fn crashed_in(&self, party: usize, round: u32) -> bool {
        self.crashes
            .iter()
            .any(|c| c.party == party && c.down(round))
    }

    /// Whether the link `a -> b` is severed in `round` by some partition.
    pub fn severed(&self, round: u32, a: usize, b: usize) -> bool {
        self.partitions.iter().any(|p| p.severs(round, a, b))
    }

    /// The last round in which any scheduled fault is still in effect
    /// (never-healing windows contribute nothing; callers that need
    /// termination should check [`FaultPlan::eventually_connected`]).
    pub fn scheduled_extent(&self) -> u32 {
        let p = self
            .partitions
            .iter()
            .filter(|p| p.heal_round != u32::MAX)
            .map(|p| p.heal_round)
            .max()
            .unwrap_or(0);
        let c = self
            .crashes
            .iter()
            .filter(|c| c.recover_round != u32::MAX)
            .map(|c| c.recover_round)
            .max()
            .unwrap_or(0);
        p.max(c)
    }

    /// Validates the plan against a network of `n` parties.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found.
    pub fn validate(&self, n: usize) -> Result<(), FaultPlanError> {
        for &permille in [
            self.drop_permille,
            self.dup_permille,
            self.delay_spike_permille,
        ]
        .iter()
        {
            if permille > 1000 {
                return Err(FaultPlanError::BadPermille { permille });
            }
        }
        for (id, p) in self.partitions.iter().enumerate() {
            if p.side.is_empty() || p.side.len() >= n {
                return Err(FaultPlanError::BadPartitionSide {
                    id,
                    size: p.side.len(),
                    n,
                });
            }
            if let Some(&party) = p.side.iter().find(|&&x| x >= n) {
                return Err(FaultPlanError::PartyOutOfRange { party, n });
            }
            if p.from_round == 0 {
                return Err(FaultPlanError::BadWindow {
                    what: "partition",
                    from: p.from_round,
                    until: p.heal_round,
                });
            }
            // `heal_round == from_round` is an empty window — a valid
            // no-op partition (active in no round). Only a window that
            // heals strictly *before* it starts is malformed.
            if p.heal_round < p.from_round {
                return Err(FaultPlanError::ReversedWindow {
                    what: "partition",
                    from: p.from_round,
                    until: p.heal_round,
                });
            }
        }
        for c in &self.crashes {
            if c.party >= n {
                return Err(FaultPlanError::PartyOutOfRange { party: c.party, n });
            }
            if c.crash_round == 0 {
                return Err(FaultPlanError::BadWindow {
                    what: "crash",
                    from: c.crash_round,
                    until: c.recover_round,
                });
            }
            // Likewise `recover_round == crash_round` is an empty, no-op
            // crash; `recover_round < crash_round` is reversed.
            if c.recover_round < c.crash_round {
                return Err(FaultPlanError::ReversedWindow {
                    what: "crash",
                    from: c.crash_round,
                    until: c.recover_round,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] is structurally invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A probability field exceeds 1000 permille.
    BadPermille {
        /// The offending value.
        permille: u32,
    },
    /// A partition side is empty or covers the whole network.
    BadPartitionSide {
        /// Index of the partition in the plan.
        id: usize,
        /// The side's size.
        size: usize,
        /// Number of parties.
        n: usize,
    },
    /// A party index is out of range.
    PartyOutOfRange {
        /// The offending index.
        party: usize,
        /// Number of parties.
        n: usize,
    },
    /// A fault window starts at round 0 (rounds are 1-based).
    BadWindow {
        /// `"partition"` or `"crash"`.
        what: &'static str,
        /// Start round.
        from: u32,
        /// End round.
        until: u32,
    },
    /// A fault window ends strictly before it starts (an *empty* window,
    /// `until == from`, is accepted as a no-op).
    ReversedWindow {
        /// `"partition"` or `"crash"`.
        what: &'static str,
        /// Start round.
        from: u32,
        /// End round.
        until: u32,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadPermille { permille } => {
                write!(f, "fault probability {permille} permille exceeds 1000")
            }
            FaultPlanError::BadPartitionSide { id, size, n } => {
                write!(
                    f,
                    "partition {id}: side of {size} parties must be a proper nonempty \
                     subset of the {n}-party network"
                )
            }
            FaultPlanError::PartyOutOfRange { party, n } => {
                write!(f, "fault names party {party} but the network has n = {n}")
            }
            FaultPlanError::BadWindow { what, from, until } => {
                write!(
                    f,
                    "{what} window [{from}, {until}) must start at round >= 1 (rounds are 1-based)"
                )
            }
            FaultPlanError::ReversedWindow { what, from, until } => {
                let (start, end) = match *what {
                    "crash" => ("crashes", "recovers"),
                    _ => ("starts", "heals"),
                };
                write!(
                    f,
                    "{what} window [{from}, {until}) {end} at round {until}, strictly before it \
                     {start} at round {from}; an empty window (until == from) is the way to \
                     express a no-op"
                )
            }
        }
    }
}

impl Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_compatible() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.lockstep_compatible());
        assert!(plan.eventually_connected());
        assert_eq!(plan.scheduled_extent(), 0);
        plan.validate(4).unwrap();
    }

    #[test]
    fn windows_and_cuts_are_half_open() {
        let plan = FaultPlan {
            partitions: vec![Partition {
                side: vec![0, 1],
                from_round: 2,
                heal_round: 4,
            }],
            crashes: vec![CrashFault {
                party: 3,
                crash_round: 1,
                recover_round: 3,
            }],
            ..FaultPlan::none()
        };
        plan.validate(5).unwrap();
        assert!(!plan.severed(1, 0, 2));
        assert!(plan.severed(2, 0, 2));
        assert!(plan.severed(3, 2, 1));
        assert!(!plan.severed(4, 0, 2));
        // Links within a side keep working.
        assert!(!plan.severed(2, 0, 1));
        assert!(!plan.severed(2, 2, 3));
        assert!(!plan.crashed_in(3, 0));
        assert!(plan.crashed_in(3, 1));
        assert!(plan.crashed_in(3, 2));
        assert!(!plan.crashed_in(3, 3));
        assert_eq!(plan.scheduled_extent(), 4);
        assert!(plan.eventually_connected());
    }

    #[test]
    fn permanent_faults_are_flagged() {
        let plan = FaultPlan {
            crashes: vec![
                CrashFault {
                    party: 1,
                    crash_round: 2,
                    recover_round: u32::MAX,
                },
                CrashFault {
                    party: 0,
                    crash_round: 1,
                    recover_round: 3,
                },
            ],
            ..FaultPlan::none()
        };
        plan.validate(4).unwrap();
        assert!(!plan.eventually_connected());
        assert_eq!(plan.permanently_crashed(), vec![1]);
        // The permanent window does not inflate the scheduled extent.
        assert_eq!(plan.scheduled_extent(), 3);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let n = 4;
        let bad_permille = FaultPlan {
            drop_permille: 1001,
            ..FaultPlan::none()
        };
        assert_eq!(
            bad_permille.validate(n),
            Err(FaultPlanError::BadPermille { permille: 1001 })
        );
        let whole_network = FaultPlan {
            partitions: vec![Partition {
                side: vec![0, 1, 2, 3],
                from_round: 1,
                heal_round: 2,
            }],
            ..FaultPlan::none()
        };
        assert!(matches!(
            whole_network.validate(n),
            Err(FaultPlanError::BadPartitionSide { .. })
        ));
        let out_of_range = FaultPlan {
            crashes: vec![CrashFault {
                party: 9,
                crash_round: 1,
                recover_round: 2,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(
            out_of_range.validate(n),
            Err(FaultPlanError::PartyOutOfRange { party: 9, n })
        );
        let round_zero = FaultPlan {
            crashes: vec![CrashFault {
                party: 0,
                crash_round: 0,
                recover_round: 3,
            }],
            ..FaultPlan::none()
        };
        assert!(matches!(
            round_zero.validate(n),
            Err(FaultPlanError::BadWindow { what: "crash", .. })
        ));
    }

    #[test]
    fn empty_windows_are_valid_no_ops() {
        // heal_round == from_round: a partition that is active in no
        // round; recover_round == crash_round likewise for crashes.
        let plan = FaultPlan {
            partitions: vec![Partition {
                side: vec![0],
                from_round: 3,
                heal_round: 3,
            }],
            crashes: vec![CrashFault {
                party: 1,
                crash_round: 3,
                recover_round: 3,
            }],
            ..FaultPlan::none()
        };
        plan.validate(4).unwrap();
        for round in 0..10 {
            assert!(!plan.severed(round, 0, 1), "round {round}");
            assert!(!plan.crashed_in(1, round), "round {round}");
        }
        assert!(plan.eventually_connected());
        assert!(plan.permanently_crashed().is_empty());
    }

    #[test]
    fn reversed_windows_are_rejected_with_a_precise_message() {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                party: 0,
                crash_round: 5,
                recover_round: 2,
            }],
            ..FaultPlan::none()
        };
        let err = plan.validate(4).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::ReversedWindow {
                what: "crash",
                from: 5,
                until: 2,
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("recovers at round 2") && msg.contains("crashes at round 5"),
            "message must name the reversed bounds: {msg}"
        );

        let plan = FaultPlan {
            partitions: vec![Partition {
                side: vec![0],
                from_round: 4,
                heal_round: 1,
            }],
            ..FaultPlan::none()
        };
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::ReversedWindow {
                what: "partition",
                from: 4,
                until: 1,
            })
        ));
    }

    #[test]
    fn probabilistic_faults_break_lockstep_compatibility() {
        let plan = FaultPlan {
            dup_permille: 10,
            ..FaultPlan::none()
        };
        assert!(!plan.lockstep_compatible());
        assert!(!plan.is_empty());
    }
}
