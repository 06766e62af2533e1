//! The k-invariance suite: instance j of a k-instance
//! [`BundledAaParty`] bundle must be observably identical to a `k = 1`
//! bundle run on instance j's inputs — same outputs, same run length,
//! same degradation verdicts, and the same protocol-level trace events
//! (grades and iteration summaries, `inst` aside) — under honest,
//! crashing, equivocating, and scheduled-fault executions and at the
//! configuration edges (no iterations, fixed counts, ablations), in both
//! the sequential and the parallel stepping engine.
//!
//! This is the proof obligation that makes bundling safe to use for
//! throughput: amortizing k instances over one wire must not change any
//! single instance's semantics. The references independent of the wire
//! sit below it (the gradecast crate's per-leader oracle and arena model)
//! and beside it (`aa-spec`).

mod support;

use std::sync::Arc;

use aa_trace::Json;
use gradecast::{GcBundleMsg, GcValue};
use real_aa::{BundledAaMsg, BundledAaParty, RealAaConfig, R64};
use sim_net::{
    run_simulation_faulted_traced, Adversary, AdversaryCtx, CrashAdversary, CrashFault,
    EngineConfig, EventKind, FaultPlan, Partition, PartyId, Passive, SimConfig, StaticByzantine,
    StepMode, Trace,
};
use support::nested;

const N: usize = 7;
const T: usize = 2;
const EPS: f64 = 0.5;
const DIAM: f64 = 10.0;

/// Both engine paths under test.
const MODES: [StepMode; 2] = [StepMode::Sequential, StepMode::Parallel { threads: 2 }];

fn cfg(early: bool) -> RealAaConfig {
    let c = RealAaConfig::new(N, T, EPS, DIAM).expect("valid config");
    if early {
        c.with_early_stopping()
    } else {
        c
    }
}

/// Deterministic per-(party, instance) inputs. Every third instance is
/// ε-tight from the start so, with early stopping, instances terminate
/// at different iterations — exercising the partial-presence outer
/// bitmaps (a finished instance's slot goes absent on the wire).
fn input(p: usize, j: usize) -> f64 {
    if j.is_multiple_of(3) {
        5.0 + (p as f64) * 0.01
    } else {
        ((p * 31 + j * 17 + 3) % 101) as f64 / 100.0 * DIAM
    }
}

fn engine(cfg: &RealAaConfig, mode: StepMode) -> EngineConfig {
    let mut e = EngineConfig::from(SimConfig {
        n: N,
        t: T,
        max_rounds: 10 + cfg.rounds(),
    });
    e.step_mode = mode;
    e
}

/// `(round, party, label, fields)` — a protocol event with enough
/// context to compare across runs.
type NormEvent = (u32, usize, Name, Vec<(Name, Json)>);

/// How `ProtoEvent` holds its label and keys.
type Name = std::borrow::Cow<'static, str>;

/// The trace restricted to instance `inst`, with the `inst` field
/// stripped: what that instance "saw" of the run.
fn instance_events(trace: &Trace, inst: u64) -> Vec<NormEvent> {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Proto { party, event } => {
                let this = event.field("inst").and_then(Json::as_u64)?;
                (this == inst).then(|| {
                    (
                        e.round,
                        *party,
                        event.label.clone(),
                        event
                            .fields
                            .iter()
                            .filter(|(k, _)| k != "inst")
                            .cloned()
                            .collect(),
                    )
                })
            }
            _ => None,
        })
        .collect()
}

/// The differential harness: one run of a `k`-bundle vs `k` runs of a
/// `k = 1` bundle, one per instance, each under the adversary `adv`
/// builds for its width and the same fault plan, compared per instance
/// on outputs, verdicts, trace events, and (across the bundle) total run
/// length.
fn assert_k_invariant<A: Adversary<BundledAaMsg>>(
    cfg: RealAaConfig,
    k: usize,
    mode: StepMode,
    plan: &FaultPlan,
    mut adv: impl FnMut(usize) -> A,
) {
    let run = |inputs: &dyn Fn(usize) -> Vec<f64>, adv: A| {
        run_simulation_faulted_traced(
            engine(&cfg, mode),
            plan,
            |id, _| BundledAaParty::new(id, cfg, inputs(id.index())).expect("k >= 1"),
            adv,
        )
        .expect("bundled run")
    };
    let (bundled, btrace) = run(&|p| (0..k).map(|j| input(p, j)).collect(), adv(k));

    let mut slowest = 0;
    for j in 0..k {
        let (solo, strace) = run(&|p| vec![input(p, j)], adv(1));
        for p in 0..cfg.n {
            assert_eq!(
                bundled.outputs[p].as_ref().map(|v| v[j]),
                solo.outputs[p].as_ref().map(|v| v[0]),
                "instance {j}, party {p}: the {k}-bundle diverges from k = 1 ({mode:?})"
            );
        }
        assert_eq!(
            bundled.corrupted, solo.corrupted,
            "instance {j}: corruption verdicts diverge ({mode:?})"
        );
        assert_eq!(
            bundled.crashed, solo.crashed,
            "instance {j}: crash verdicts diverge ({mode:?})"
        );
        assert_eq!(
            instance_events(&btrace, j as u64),
            instance_events(&strace, 0),
            "instance {j}: protocol event streams diverge ({mode:?})"
        );
        slowest = slowest.max(solo.rounds_executed);
    }
    assert_eq!(
        bundled.rounds_executed, slowest,
        "bundled run length must equal the slowest instance's ({mode:?})"
    );
}

/// Leader 0 equivocates its round-1 lead in every instance of a
/// `k`-bundle: 0.0 to parties 1..=3, DIAM to 4..=6.
fn equivocator(k: usize) -> StaticByzantine<impl FnMut(&mut AdversaryCtx<'_, BundledAaMsg>)> {
    StaticByzantine {
        parties: vec![PartyId(0)],
        behave: move |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
            if ctx.round() == 1 {
                for i in 1..N {
                    let v = if i <= 3 { 0.0 } else { DIAM };
                    let body = GcBundleMsg::Leads(vec![Some(R64::new(v)); k].into());
                    ctx.send(PartyId(0), PartyId(i), BundledAaMsg { iter: 0, body });
                }
            }
        },
    }
}

/// Party 0 lies in instance `at` of a `width`-wide bundle (nowhere if
/// `at` is `None`) and is silent in the others, in every iteration: it
/// equivocates its lead, 0.0 to parties 1..=3 and DIAM to 4..=6, and
/// echoes and votes a value no honest party holds for every leader. That
/// instance's echo and vote tallies get overflow entries (or a stray
/// candidate, with the honest keys in the overflow); the others have
/// none.
fn lone_equivocator(
    width: usize,
    at: Option<usize>,
) -> StaticByzantine<impl FnMut(&mut AdversaryCtx<'_, BundledAaMsg>)> {
    StaticByzantine {
        parties: vec![PartyId(0)],
        behave: move |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
            let Some(at) = at else { return };
            // `entry` for every leader in instance `at`, no other instance.
            fn only<T: Clone>(width: usize, at: usize, entry: T) -> Vec<Option<Vec<Option<T>>>> {
                (0..width)
                    .map(|j| (j == at).then(|| vec![Some(entry.clone()); N]))
                    .collect()
            }
            let stray = R64::new(1.25);
            let iter = (ctx.round() - 1) / 3;
            for i in 1..N {
                let body = match (ctx.round() - 1) % 3 {
                    0 => {
                        let v = R64::new(if i <= 3 { 0.0 } else { DIAM });
                        GcBundleMsg::Leads((0..width).map(|j| (j == at).then_some(v)).collect())
                    }
                    1 => GcBundleMsg::Echoes(Arc::new(nested(&only(width, at, stray)))),
                    _ => GcBundleMsg::Votes(Arc::new(nested(&only(width, at, stray.hash32())))),
                };
                ctx.send(PartyId(0), PartyId(i), BundledAaMsg { iter, body });
            }
        },
    }
}

#[test]
fn honest_bundles_match_solo_runs() {
    for k in [2, 3, 17] {
        for mode in MODES {
            assert_k_invariant(cfg(true), k, mode, &FaultPlan::none(), |_| Passive);
        }
    }
}

#[test]
fn crashing_bundles_match_solo_runs() {
    // Crashes land in rounds 2 and 3 — inside every instance's active
    // window (the earliest an instance can terminate is round 4), so the
    // bundled run and every solo run see the identical fault pattern
    // even though the runs have different lengths.
    let crashes = |_| CrashAdversary {
        crashes: vec![(PartyId(1), 2), (PartyId(4), 3)],
    };
    for k in [2, 3] {
        for mode in MODES {
            assert_k_invariant(cfg(true), k, mode, &FaultPlan::none(), crashes);
        }
    }
}

#[test]
fn equivocating_bundles_match_solo_runs() {
    // Leader 0 equivocates its round-1 lead — 0.0 to parties 1..=3,
    // DIAM to 4..=6 — the same lie in every instance's slot.
    for k in [2, 3] {
        for mode in MODES {
            assert_k_invariant(cfg(false), k, mode, &FaultPlan::none(), equivocator);
        }
    }
}

#[test]
fn one_equivocating_instance_in_a_wide_bundle_matches_its_solo_runs() {
    // Instance 9 of 17 takes the general rule through the overflow
    // patch; the other 16 stay dense around it.
    const K: usize = 17;
    const AT: usize = 9;
    for mode in MODES {
        // The harness builds the bundle's adversary first, then one per
        // solo run, in instance order.
        let mut solo_runs = 0;
        assert_k_invariant(cfg(false), K, mode, &FaultPlan::none(), |width| {
            if width == K {
                return lone_equivocator(K, Some(AT));
            }
            let j = solo_runs;
            solo_runs += 1;
            lone_equivocator(1, (j == AT).then_some(0))
        });
    }
}

#[test]
fn configuration_edges_match_solo_runs() {
    // The rules the shared per-instance machine and round schedule own,
    // at their edges: no iterations at all (D ≤ ε, so every party
    // outputs its inputs at round 1), a fixed count of one and of four,
    // and both ablations. Honest runs, and the crash pattern of
    // `crashing_bundles_match_solo_runs`, which puts grade-0 leaders into
    // the later iterations (fill rule, muting).
    let base = cfg(false);
    let zero = RealAaConfig::new(N, T, EPS, EPS).expect("valid config");
    assert_eq!(zero.iterations(), 0);
    let crashes = |_| CrashAdversary {
        crashes: vec![(PartyId(1), 2), (PartyId(4), 3)],
    };
    for cfg in [
        zero,
        base.with_fixed_iterations(1),
        base.with_fixed_iterations(4),
        base.with_ablated_muting(),
        base.with_ablated_fill_rule(),
    ] {
        for k in [2, 3] {
            for mode in MODES {
                assert_k_invariant(cfg, k, mode, &FaultPlan::none(), |_| Passive);
                assert_k_invariant(cfg, k, mode, &FaultPlan::none(), crashes);
            }
        }
    }
}

#[test]
fn faulted_schedules_match_solo_runs() {
    // A healing partition plus a crash/recovery window: scheduled faults
    // that the lockstep engine injects identically into both runs. Both
    // windows close by round 4 — before the earliest possible instance
    // termination — so every solo run experiences the full plan no
    // matter how short it is.
    let plan = FaultPlan {
        seed: 0,
        drop_permille: 0,
        dup_permille: 0,
        delay_spike_permille: 0,
        partitions: vec![Partition {
            side: vec![2],
            from_round: 2,
            heal_round: 4,
        }],
        crashes: vec![CrashFault {
            party: 1,
            crash_round: 2,
            recover_round: 4,
        }],
    };
    assert!(plan.lockstep_compatible() && plan.eventually_connected());
    for k in [2, 3] {
        for mode in MODES {
            assert_k_invariant(cfg(true), k, mode, &plan, |_| Passive);
        }
    }
}
