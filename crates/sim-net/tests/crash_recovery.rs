//! Crash-recovery and partition semantics of the lockstep fault layer.
//!
//! The documented contract under test:
//!
//! * a crashed party is **frozen** — not stepped, sends suppressed — and on
//!   recovery is stepped with the current *absolute* round number;
//! * traffic sent in the round immediately preceding recovery is delivered
//!   to the recovering party; anything earlier in the outage is lost;
//! * parties still down at termination appear in `RunReport::crashed` with
//!   `None` outputs and do not block termination;
//! * partitions sever cross-cut links only, broadcasts degrade to
//!   same-side unicasts, and every firing shows up in the trace with
//!   per-round accounting intact.

use std::collections::BTreeMap;

use sim_net::{
    run_simulation_faulted_traced, CrashFault, EngineConfig, EventKind, FaultPlan, Inbox,
    Partition, Passive, Protocol, RoundCtx, SimConfig, SimError, StepMode,
};

/// Broadcasts every round it is up; records exactly which rounds it was
/// stepped in and which senders it heard each round.
#[derive(Clone)]
struct Chatter {
    finish: u32,
    stepped: Vec<u32>,
    heard: BTreeMap<u32, Vec<usize>>,
    done: bool,
}

impl Chatter {
    fn new(finish: u32) -> Self {
        Chatter {
            finish,
            stepped: Vec::new(),
            heard: BTreeMap::new(),
            done: false,
        }
    }
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = (Vec<u32>, BTreeMap<u32, Vec<usize>>);

    fn step(&mut self, round: u32, inbox: &Inbox<u64>, ctx: &mut RoundCtx<u64>) {
        self.stepped.push(round);
        let mut senders: Vec<usize> = inbox.iter().map(|r| r.from.index()).collect();
        senders.sort_unstable();
        self.heard.insert(round, senders);
        ctx.broadcast(u64::from(round));
        if round >= self.finish {
            self.done = true;
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.done
            .then(|| (self.stepped.clone(), self.heard.clone()))
    }
}

fn cfg(n: usize, max_rounds: u32) -> EngineConfig {
    EngineConfig::from(SimConfig {
        n,
        t: 0,
        max_rounds,
    })
}

fn crash_plan(party: usize, crash_round: u32, recover_round: u32) -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashFault {
            party,
            crash_round,
            recover_round,
        }],
        ..FaultPlan::none()
    }
}

#[test]
fn crashed_party_is_frozen_and_rejoins_at_the_absolute_round() {
    let plan = crash_plan(2, 2, 4);
    let (report, _) =
        run_simulation_faulted_traced(cfg(4, 10), &plan, |_, _| Chatter::new(6), Passive).unwrap();
    assert_eq!(report.rounds_executed, 6);
    assert_eq!(report.crashed, vec![false; 4]);

    let (stepped, heard) = report.outputs[2].clone().unwrap();
    // Frozen during [2, 4): the party was never stepped there, and rejoins
    // with the absolute round number, not a private counter.
    assert_eq!(stepped, vec![1, 4, 5, 6]);
    assert!(!heard.contains_key(&2) && !heard.contains_key(&3));
    // Messages sent in round 3 (the round immediately preceding recovery)
    // are delivered to the recovering party; round-2 traffic is lost.
    assert_eq!(heard[&4], vec![0, 1, 3]);

    // The other parties stop hearing party 2 exactly while its sends are
    // suppressed: round-r inboxes hold round r-1 traffic, so the silence
    // window observed by peers is rounds 3 and 4.
    let (_, heard0) = report.outputs[0].clone().unwrap();
    assert_eq!(heard0[&2], vec![0, 1, 2, 3]);
    assert_eq!(heard0[&3], vec![0, 1, 3]);
    assert_eq!(heard0[&4], vec![0, 1, 3]);
    assert_eq!(heard0[&5], vec![0, 1, 2, 3]);
}

#[test]
fn crash_and_recovery_appear_in_per_round_trace_accounting() {
    let plan = crash_plan(2, 2, 4);
    let (report, trace) =
        run_simulation_faulted_traced(cfg(4, 10), &plan, |_, _| Chatter::new(6), Passive).unwrap();

    let at = |round: u32, kind: &EventKind| {
        trace
            .events
            .iter()
            .any(|e| e.round == round && e.kind == *kind)
    };
    assert!(at(2, &EventKind::FaultCrash { party: 2 }));
    assert!(at(4, &EventKind::FaultRecover { party: 2 }));
    assert!(trace.has_faults());

    // No broadcast from party 2 while it is down.
    for e in &trace.events {
        if let EventKind::Broadcast { from: 2, .. } = e.kind {
            assert!(
                !(2..4).contains(&e.round),
                "party 2 broadcast in round {} while crashed",
                e.round
            );
        }
    }

    // The bracketing/totals checker accepts the faulted trace, and the
    // trace reconciles exactly with the report's metrics.
    aa_trace::check_round_totals(&trace).unwrap();
    let totals = aa_trace::recomputed_totals(&trace);
    assert_eq!(totals.messages(), report.metrics.total_messages());
    assert_eq!(totals.bytes, report.metrics.total_bytes());
}

#[test]
fn permanently_crashed_party_does_not_block_termination() {
    let plan = crash_plan(2, 3, u32::MAX);
    let (report, _) =
        run_simulation_faulted_traced(cfg(4, 10), &plan, |_, _| Chatter::new(5), Passive).unwrap();
    assert_eq!(report.rounds_executed, 5);
    assert_eq!(report.crashed, vec![false, false, true, false]);
    assert!(report.outputs[2].is_none());
    assert_eq!(report.honest_outputs().len(), 3);
}

#[test]
fn partition_severs_cross_cut_links_only_and_heals() {
    let plan = FaultPlan {
        partitions: vec![Partition {
            side: vec![0, 1],
            from_round: 2,
            heal_round: 4,
        }],
        ..FaultPlan::none()
    };
    let (report, trace) =
        run_simulation_faulted_traced(cfg(4, 10), &plan, |_, _| Chatter::new(6), Passive).unwrap();

    // During the cut each side only hears itself (round-r inboxes hold
    // round r-1 traffic, so rounds 3 and 4 show the severed view).
    let (_, heard0) = report.outputs[0].clone().unwrap();
    let (_, heard2) = report.outputs[2].clone().unwrap();
    assert_eq!(heard0[&3], vec![0, 1]);
    assert_eq!(heard2[&3], vec![2, 3]);
    // Round 4 runs healed, so round 5 inboxes are full again.
    assert_eq!(heard0[&5], vec![0, 1, 2, 3]);
    assert_eq!(heard2[&5], vec![0, 1, 2, 3]);

    let at = |round: u32, kind: &EventKind| {
        trace
            .events
            .iter()
            .any(|e| e.round == round && e.kind == *kind)
    };
    assert!(at(2, &EventKind::PartitionStart { id: 0 }));
    assert!(at(4, &EventKind::PartitionHeal { id: 0 }));
    // Every sender loses exactly its 2 cross-cut recipients per broadcast.
    let drops = |round: u32| {
        trace
            .events
            .iter()
            .filter(|e| e.round == round && matches!(e.kind, EventKind::FaultDrop { .. }))
            .count()
    };
    assert_eq!(drops(2), 8);
    assert_eq!(drops(3), 8);
    assert_eq!(drops(4), 0);

    aa_trace::check_round_totals(&trace).unwrap();
    let totals = aa_trace::recomputed_totals(&trace);
    assert_eq!(totals.messages(), report.metrics.total_messages());
    assert_eq!(totals.bytes, report.metrics.total_bytes());
}

#[test]
fn faulted_runs_are_step_mode_invariant() {
    let plan = FaultPlan {
        partitions: vec![Partition {
            side: vec![1, 2],
            from_round: 2,
            heal_round: 3,
        }],
        crashes: vec![CrashFault {
            party: 0,
            crash_round: 3,
            recover_round: 5,
        }],
        ..FaultPlan::none()
    };
    let run = |mode| {
        let mut engine = cfg(5, 12);
        engine.step_mode = mode;
        run_simulation_faulted_traced(engine, &plan, |_, _| Chatter::new(7), Passive).unwrap()
    };
    let (report_seq, trace_seq) = run(StepMode::Sequential);
    let (report_par, trace_par) = run(StepMode::Parallel { threads: 3 });
    assert_eq!(report_seq, report_par);
    assert_eq!(
        trace_seq.to_canonical_string(),
        trace_par.to_canonical_string(),
        "faulted traces must stay byte-identical across step modes"
    );
}

#[test]
fn empty_plan_is_observably_identical_to_no_plan() {
    let (plain, plain_trace) =
        sim_net::run_simulation_traced(cfg(4, 10), |_, _| Chatter::new(4), Passive).unwrap();
    let (faulted, faulted_trace) = run_simulation_faulted_traced(
        cfg(4, 10),
        &FaultPlan::none(),
        |_, _| Chatter::new(4),
        Passive,
    )
    .unwrap();
    assert_eq!(plain, faulted);
    assert_eq!(
        plain_trace.to_canonical_string(),
        faulted_trace.to_canonical_string()
    );
}

#[test]
fn incompatible_or_invalid_plans_are_rejected() {
    let probabilistic = FaultPlan {
        drop_permille: 100,
        ..FaultPlan::none()
    };
    let err =
        run_simulation_faulted_traced(cfg(4, 10), &probabilistic, |_, _| Chatter::new(3), Passive)
            .unwrap_err();
    assert!(matches!(err, SimError::BadFaultPlan { .. }), "{err}");

    let out_of_range = crash_plan(7, 1, 2);
    let err =
        run_simulation_faulted_traced(cfg(4, 10), &out_of_range, |_, _| Chatter::new(3), Passive)
            .unwrap_err();
    assert!(err.to_string().contains("party 7"), "{err}");
}

#[test]
fn monitored_wrapper_degrades_on_over_threshold_silence() {
    // t = 1 but two parties crash forever: the survivors' outcomes must be
    // Degraded with a non-empty certificate naming both silent parties.
    let plan = FaultPlan {
        crashes: vec![
            CrashFault {
                party: 2,
                crash_round: 2,
                recover_round: u32::MAX,
            },
            CrashFault {
                party: 3,
                crash_round: 2,
                recover_round: u32::MAX,
            },
        ],
        ..FaultPlan::none()
    };
    let engine = EngineConfig::from(SimConfig {
        n: 4,
        t: 1,
        max_rounds: 12,
    });
    let (report, _) = run_simulation_faulted_traced(
        engine,
        &plan,
        |_, n| sim_net::Monitored::new(Chatter::new(6), n, 1),
        Passive,
    )
    .unwrap();
    for i in [0, 1] {
        let outcome = report.outputs[i].as_ref().unwrap();
        assert!(outcome.is_degraded(), "party {i} should have degraded");
        let cert = outcome.certificate().unwrap();
        assert!(cert.exceeds_budget());
        assert!(!cert.evidence.is_empty());
        let parties: Vec<usize> = cert.evidence.iter().map(|e| e.party()).collect();
        assert!(parties.contains(&2) && parties.contains(&3), "{cert}");
    }

    // Under the budget (a single recovering crash) the outcome stays a
    // plain Value.
    let ok_plan = crash_plan(3, 2, 4);
    let (report, _) = run_simulation_faulted_traced(
        engine,
        &ok_plan,
        |_, n| sim_net::Monitored::new(Chatter::new(6), n, 1),
        Passive,
    )
    .unwrap();
    for outcome in report.honest_outputs() {
        assert!(!outcome.is_degraded());
    }
}
