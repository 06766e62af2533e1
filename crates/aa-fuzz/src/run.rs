//! Executing a fuzz case and checking the paper's invariants.
//!
//! There is one pipeline: [`run_case`] (with [`run_case_mutated`] as its
//! mutation-testing form) runs every case **twice** — once with
//! [`StepMode::Sequential`], once with [`StepMode::Parallel`] — through
//! [`run_simulation_faulted_traced`], with the flight recorder on, every
//! party wrapped in [`Monitored`], and the case's [`FaultPlan`]
//! ([`FaultPlan::none`] for a case without fault atoms). The batch
//! runner, the minimizer, corpus replay and the scenario recorder all call
//! it, so they check the same invariants, in this order:
//!
//! 1. **determinism** — the two [`RunReport`]s are equal, and the two
//!    traces are byte-identical;
//! 2. **round bound** — `rounds_executed ≤ bound + extent + 1`, where
//!    `bound` is the protocol's publicly computable round count
//!    ([`TreeAaConfig::total_rounds`], [`NowakRybickiConfig::rounds`],
//!    [`RealAaConfig::rounds`](real_aa::RealAaConfig::rounds)), `extent`
//!    the plan's scheduled extent (rounds frozen by an active fault cannot
//!    advance the protocol; 0 without a plan), and the `+1` the terminal
//!    processing round in which parties consume the last messages and
//!    output;
//! 3. **trace invariants** — every [`aa_trace`] checker
//!    ([`aa_trace::check_all`]) for a case without a plan; under a plan
//!    only the round-total bracketing ([`aa_trace::check_round_totals`]),
//!    because a party frozen by a partition can legitimately re-emit a
//!    stale iteration value once healed;
//! 4. **accounting** — the trace's recomputed totals equal the engine's
//!    [`Metrics`] (fault events carry no message cost);
//! 5. **the degradation contract** — a [`Outcome::Degraded`] outcome
//!    carries a checkable over-budget certificate, and no survivor of a
//!    provably catastrophic plan claims a fully guaranteed
//!    [`Outcome::Value`];
//! 6. for a case without a plan, **validity** — every honest output
//!    ([`Outcome::value`]) lies in the convex hull (interval, for
//!    `real-aa`) of the honest inputs — and **agreement** — honest outputs
//!    are pairwise ≤ 1 apart (≤ ε for `real-aa`). Benign faults may
//!    legitimately weaken both, so a case with a plan skips them.

use std::fmt;
use std::sync::Arc;

use aa_check::props::{self, PropViolation};
use aa_trace::{EventKind, TraceEvent};
use sim_net::{
    run_simulation_faulted_traced, EngineConfig, FaultPlan, Metrics, Monitored, Outcome, PartyId,
    Payload, Protocol, RunReport, SimConfig, SimError, StepMode, Trace,
};
use tree_aa::{EngineKind, NowakRybickiConfig, NowakRybickiParty, TreeAaConfig, TreeAaParty};
use tree_model::{Tree, VertexId};

use crate::adversary::build_adversary;
use crate::case::{FuzzCase, ProtocolKind};

/// Extra rounds granted beyond the protocol bound before the engine
/// declares the run stuck — generous enough that hitting `max_rounds` is
/// itself evidence of a round-bound violation.
const ROUND_SLACK: u32 = 5;

/// An invariant violated by a run (or a run that failed outright).
#[derive(Clone, Debug, PartialEq)]
pub enum CheckFailure {
    /// The engine rejected or aborted the run.
    Sim(String),
    /// Sequential and parallel stepping produced different reports.
    Determinism,
    /// Sequential and parallel stepping produced byte-different traces
    /// (the flight-recorder determinism contract).
    TraceDeterminism,
    /// A trace-level invariant checker rejected the recorded run, or the
    /// trace's recomputed totals disagree with the engine's metrics.
    TraceInvariant(String),
    /// One of the paper's properties failed: the round bound, validity,
    /// agreement, or the degradation contract.
    Property(PropViolation),
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Sim(reason) => write!(f, "simulation failed: {reason}"),
            CheckFailure::Determinism => {
                f.write_str("sequential and parallel runs produced different reports")
            }
            CheckFailure::TraceDeterminism => {
                f.write_str("sequential and parallel runs produced byte-different traces")
            }
            CheckFailure::TraceInvariant(detail) => {
                write!(f, "trace invariant violated: {detail}")
            }
            CheckFailure::Property(violation) => violation.fmt(f),
        }
    }
}

impl std::error::Error for CheckFailure {}

/// Summary statistics of a passing run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaseStats {
    /// Vertices of the materialized tree.
    pub vertex_count: usize,
    /// Rounds the engine executed.
    pub rounds_executed: u32,
    /// The protocol's public round bound, relaxed by the fault plan's
    /// scheduled extent.
    pub round_bound: u32,
    /// Parties the adversary ended up corrupting.
    pub corrupted: usize,
}

/// A passing run: summary statistics, the flight recording and the
/// engine's metrics.
#[derive(Clone, Debug)]
pub struct TracedCase {
    /// Summary statistics.
    pub stats: CaseStats,
    /// The recorded trace (byte-identical across both step modes).
    pub trace: Trace,
    /// The engine's metrics (equal across both step modes).
    pub metrics: Metrics,
}

/// A deliberate bug injected into the checking pipeline — used to
/// mutation-test the harness itself: a fuzzer that cannot catch a planted
/// violation is not testing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: check the real run.
    None,
    /// Replace the first honest output with a value outside the honest
    /// hull (a vertex off the hull, or `max + d + 1` for `real-aa`),
    /// simulating a validity bug in the protocol.
    SkewFirstOutput,
    /// Drop the first `RoundEnd` event from the recorded trace after the
    /// step-mode comparison, simulating a bug that only the trace shows:
    /// the outputs are untouched, and the round-total checker rejects it
    /// for every protocol, with or without a fault plan.
    DropFirstRoundEnd,
}

/// Runs a case through the pipeline and checks every invariant.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] encountered.
///
/// # Panics
///
/// Panics if `case` fails [`FuzzCase::validate`].
pub fn run_case(case: &FuzzCase) -> Result<TracedCase, CheckFailure> {
    run_case_mutated(case, Mutation::None)
}

/// [`run_case`] with a [`Mutation`] applied before checking.
/// `Mutation::None` is the production path.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] encountered.
///
/// # Panics
///
/// Panics if `case` fails [`FuzzCase::validate`].
pub fn run_case_mutated(case: &FuzzCase, mutation: Mutation) -> Result<TracedCase, CheckFailure> {
    case.validate()
        .expect("case must be validated before running");
    let tree = Arc::new(case.tree.build());
    match case.protocol {
        ProtocolKind::TreeAaGradecast => run_tree_aa(case, &tree, EngineKind::Gradecast, mutation),
        ProtocolKind::TreeAaHalving => run_tree_aa(case, &tree, EngineKind::Halving, mutation),
        ProtocolKind::Baseline => {
            let cfg = NowakRybickiConfig::new(case.n, case.t, &tree).map_err(CheckFailure::Sim)?;
            run_vertex_protocol(case, &tree, cfg.rounds(), mutation, |id, input| {
                NowakRybickiParty::new(id, cfg.clone(), Arc::clone(&tree), input)
            })
        }
        ProtocolKind::RealAa => run_real_aa(case, &tree, 1, mutation),
        ProtocolKind::BundledRealAa => run_real_aa(case, &tree, BUNDLE_K, mutation),
    }
}

/// The pipeline (see the module docs): runs the protocol under both step
/// modes with freshly built adversaries and checks every invariant in
/// order. `check_outputs` receives the corrupted flags and the honest
/// outputs, and is called only for a case without a fault plan.
fn run_checked<P, F, C>(
    case: &FuzzCase,
    tree: &Tree,
    bound: u32,
    mutation: Mutation,
    mut factory: F,
    check_outputs: C,
) -> Result<TracedCase, CheckFailure>
where
    P: Protocol + Send,
    P::Msg: Payload + Send + Sync + 'static,
    P::Output: PartialEq + Clone,
    F: FnMut(PartyId) -> P,
    C: FnOnce(&[bool], Vec<P::Output>) -> Result<(), PropViolation>,
{
    let plan = case.fault_plan();
    let relaxed = bound + plan.scheduled_extent();
    let sim = SimConfig {
        n: case.n,
        t: case.t,
        max_rounds: relaxed + ROUND_SLACK,
    };
    let mut run = |mode: StepMode| {
        // The adversary is rebuilt per run: its RNG state is part of the
        // strategy, so both runs must start from the same seed.
        run_simulation_faulted_traced(
            EngineConfig {
                sim,
                step_mode: mode,
            },
            &plan,
            |id, _| Monitored::new(factory(id), case.n, case.t),
            build_adversary::<P::Msg>(case),
        )
        .map_err(|e| CheckFailure::Sim(describe(&e)))
    };
    let (report, mut trace) = run(StepMode::Sequential)?;
    let (parallel, par_trace) = run(StepMode::Parallel { threads: 2 })?;
    if report != parallel {
        return Err(CheckFailure::Determinism);
    }
    if trace.to_canonical_string() != par_trace.to_canonical_string() {
        return Err(CheckFailure::TraceDeterminism);
    }
    if mutation == Mutation::DropFirstRoundEnd {
        let round_end = |e: &TraceEvent| matches!(e.kind, EventKind::RoundEnd { .. });
        if let Some(i) = trace.events.iter().position(round_end) {
            trace.events.remove(i);
        }
    }
    props::check_round_bound(report.rounds_executed, relaxed).map_err(CheckFailure::Property)?;
    let checked = if case.has_faults() {
        aa_trace::check_round_totals(&trace)
    } else {
        aa_trace::check_all(&trace)
    };
    checked.map_err(CheckFailure::TraceInvariant)?;
    let totals = aa_trace::recomputed_totals(&trace);
    let metrics = &report.metrics;
    if totals.honest_messages != metrics.honest_messages()
        || totals.messages() != metrics.total_messages()
        || totals.bytes != metrics.total_bytes()
    {
        return Err(CheckFailure::TraceInvariant(format!(
            "trace totals ({}/{}/{}B honest/total/bytes) disagree with engine metrics ({}/{}/{}B)",
            totals.honest_messages,
            totals.messages(),
            totals.bytes,
            metrics.honest_messages(),
            metrics.total_messages(),
            metrics.total_bytes(),
        )));
    }
    check_degradation(case, &plan, bound, &report)?;
    if !case.has_faults() {
        let outputs = props::honest_outputs(&report.outputs, &report.corrupted);
        let values = outputs.into_iter().map(Outcome::into_value).collect();
        check_outputs(&report.corrupted, values).map_err(CheckFailure::Property)?;
    }
    Ok(TracedCase {
        stats: CaseStats {
            vertex_count: tree.vertex_count(),
            rounds_executed: report.rounds_executed,
            round_bound: relaxed,
            corrupted: report.corrupted.iter().filter(|&&c| c).count(),
        },
        trace,
        metrics: report.metrics,
    })
}

/// The degradation contract, checked on every running honest party:
///
/// * a [`Outcome::Degraded`] outcome must carry a non-empty certificate
///   that actually demonstrates an over-budget fault set;
/// * under a *provably catastrophic* plan — more than `t` parties
///   permanently crashed from round 1, no partitions, and at least one
///   observation round before the decision — no survivor may claim a
///   fully guaranteed [`Outcome::Value`].
///
/// The converse (transient faults must yield `Value`) is deliberately not
/// checked: a conservative monitor may degrade spuriously under a long
/// partition, which is safe.
fn check_degradation<O>(
    case: &FuzzCase,
    plan: &FaultPlan,
    bound: u32,
    report: &RunReport<Outcome<O>>,
) -> Result<(), CheckFailure> {
    let perm_crashed = plan.permanently_crashed().len();
    let catastrophic = perm_crashed > case.t
        && plan.partitions.is_empty()
        && plan
            .crashes
            .iter()
            .all(|c| c.crash_round == 1 && c.recover_round == u32::MAX)
        && bound >= 2;
    for i in 0..case.n {
        if report.corrupted[i] || report.crashed[i] {
            continue;
        }
        let Some(outcome) = &report.outputs[i] else {
            return Err(CheckFailure::Sim(format!(
                "running honest party {i} finished without output"
            )));
        };
        let verdict = match outcome {
            Outcome::Value(_) if catastrophic => Err(PropViolation::Degradation(format!(
                "party {i} claims full guarantees although {perm_crashed} parties \
                 (> t = {}) are permanently crashed from round 1",
                case.t
            ))),
            Outcome::Value(_) => Ok(()),
            Outcome::Degraded(_) => props::check_degradation_outcome(i, outcome),
        };
        verdict.map_err(CheckFailure::Property)?;
    }
    Ok(())
}

fn describe(e: &SimError) -> String {
    match e {
        SimError::BadConfig { reason } => format!("bad config: {reason}"),
        SimError::MaxRoundsExceeded { max_rounds } => {
            format!("no output after max_rounds = {max_rounds}")
        }
        SimError::BadFaultPlan { reason } => format!("bad fault plan: {reason}"),
    }
}

/// Applies [`Mutation::SkewFirstOutput`] to vertex outputs: swap the
/// first honest output for a vertex off the honest hull (every tree with
/// ≥ 2 vertices has one unless the hull is the whole tree, in which case
/// the farthest vertex from the first output breaks agreement instead).
fn skew_vertex_outputs(tree: &Tree, honest_inputs: &[VertexId], outputs: &mut [VertexId]) {
    let hull = tree.convex_hull(honest_inputs);
    let off_hull = tree.vertices().find(|&v| !hull.contains(v));
    if let Some(v) = off_hull {
        outputs[0] = v;
    } else if let Some(&first) = outputs.first() {
        let lca = tree.lca_table();
        let far = tree
            .vertices()
            .max_by_key(|&v| lca.distance(first, v))
            .expect("non-empty tree");
        outputs[0] = far;
    }
}

fn run_tree_aa(
    case: &FuzzCase,
    tree: &Arc<Tree>,
    engine: EngineKind,
    mutation: Mutation,
) -> Result<TracedCase, CheckFailure> {
    let cfg = TreeAaConfig::new(case.n, case.t, engine, tree).map_err(CheckFailure::Sim)?;
    run_vertex_protocol(case, tree, cfg.total_rounds(), mutation, |id, input| {
        TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), input)
    })
}

/// Runs a protocol whose parties take and output a vertex — `tree-aa` on
/// either engine, or the baseline — on the case's vertex inputs, and
/// checks hull validity and 1-agreement.
fn run_vertex_protocol<P>(
    case: &FuzzCase,
    tree: &Tree,
    bound: u32,
    mutation: Mutation,
    new_party: impl Fn(PartyId, VertexId) -> P,
) -> Result<TracedCase, CheckFailure>
where
    P: Protocol<Output = VertexId> + Send,
    P::Msg: Payload + Send + Sync + 'static,
{
    let verts: Vec<VertexId> = tree.vertices().collect();
    let inputs: Vec<VertexId> = case
        .input_vertices(verts.len())
        .into_iter()
        .map(|i| verts[i])
        .collect();
    run_checked(
        case,
        tree,
        bound,
        mutation,
        |id| new_party(id, inputs[id.index()]),
        |corrupted, mut outputs| {
            let honest_inputs: Vec<VertexId> = inputs
                .iter()
                .zip(corrupted)
                .filter(|(_, &c)| !c)
                .map(|(&v, _)| v)
                .collect();
            if mutation == Mutation::SkewFirstOutput {
                skew_vertex_outputs(tree, &honest_inputs, &mut outputs);
            }
            props::check_vertex_outcome(tree, &honest_inputs, &outputs)
        },
    )
}

/// How many instances a `bundled-real-aa` case carries on its one wire.
const BUNDLE_K: usize = 4;

/// Runs `k` `RealAA` instances on one bundle wire — the `real-aa` stack
/// at `k = 1`, `bundled-real-aa` at [`BUNDLE_K`] — and checks the
/// `RealAA` outcome contract on every instance.
fn run_real_aa(
    case: &FuzzCase,
    tree: &Tree,
    k: usize,
    mutation: Mutation,
) -> Result<TracedCase, CheckFailure> {
    use real_aa::{BundledAaParty, RealAaConfig};
    let m = tree.vertex_count();
    let d = (m - 1) as f64;
    let eps = 1.0;
    let cfg = RealAaConfig::new(case.n, case.t, eps, d).map_err(CheckFailure::Sim)?;
    let base = case.input_vertices(m);
    let n = case.n;
    // Instance j rotates the case's vertex inputs by j: the bundled
    // instances agree on different values while sharing one wire, and
    // instance 0 runs the case's own inputs.
    let inputs_for = |p: usize| -> Vec<f64> { (0..k).map(|j| base[(p + j) % n] as f64).collect() };
    run_checked(
        case,
        tree,
        cfg.rounds(),
        mutation,
        |id| BundledAaParty::new(id, cfg, inputs_for(id.index())).expect("k >= 1"),
        |corrupted, mut outputs| {
            let honest: Vec<Vec<f64>> = (0..n).filter(|&p| !corrupted[p]).map(inputs_for).collect();
            if mutation == Mutation::SkewFirstOutput {
                let hi = honest
                    .iter()
                    .map(|i| i[0])
                    .fold(f64::NEG_INFINITY, f64::max);
                outputs[0][0] = hi + d + 1.0;
            }
            for j in 0..k {
                let inputs_j: Vec<f64> = honest.iter().map(|i| i[j]).collect();
                let outputs_j: Vec<f64> = outputs.iter().map(|o| o[j]).collect();
                props::check_real_outcome(&inputs_j, &outputs_j, eps)?;
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{AdvAtom, AdvAtomKind, Family, FaultAtom, TreeSpec};

    fn base_case(protocol: ProtocolKind) -> FuzzCase {
        FuzzCase {
            seed: 1,
            tree: TreeSpec {
                family: Family::Caterpillar,
                size: 9,
                seed: 2,
            },
            n: 7,
            t: 2,
            protocol,
            inputs: vec![0, 5, 2, 9, 1, 7, 3],
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Equivocate,
                victims: vec![3],
            }],
            faults: Vec::new(),
        }
    }

    /// `base_case` without the Byzantine adversary but with a healing
    /// partition and a crash/recovery window — every fault transient, so
    /// the run must terminate within the relaxed bound.
    fn faulted_case(protocol: ProtocolKind) -> FuzzCase {
        let mut case = base_case(protocol);
        case.atoms.clear();
        case.faults = vec![
            FaultAtom::Partition {
                side: vec![0, 1],
                from_round: 2,
                heal_round: 4,
            },
            FaultAtom::CrashRecover {
                party: 4,
                crash_round: 2,
                recover_round: 3,
            },
        ];
        case
    }

    #[test]
    fn every_protocol_passes_under_equivocation() {
        for protocol in ProtocolKind::ALL {
            let case = base_case(protocol);
            let stats = run_case(&case)
                .unwrap_or_else(|e| panic!("{} failed: {e}", protocol.name()))
                .stats;
            assert!(stats.rounds_executed <= stats.round_bound + 1);
            assert_eq!(stats.corrupted, 1);
        }
    }

    #[test]
    fn passive_case_passes() {
        let mut case = base_case(ProtocolKind::TreeAaGradecast);
        case.atoms.clear();
        run_case(&case).unwrap();
    }

    #[test]
    fn skew_mutation_is_caught() {
        for protocol in ProtocolKind::ALL {
            let case = base_case(protocol);
            let failure = run_case_mutated(&case, Mutation::SkewFirstOutput)
                .expect_err("mutation must be caught");
            assert!(
                matches!(
                    failure,
                    CheckFailure::Property(
                        PropViolation::Validity(_) | PropViolation::Agreement(_)
                    )
                ),
                "{}: unexpected failure {failure:?}",
                protocol.name()
            );
        }
    }

    #[test]
    fn trace_only_mutation_is_caught_with_and_without_a_plan() {
        for protocol in ProtocolKind::ALL {
            for case in [base_case(protocol), faulted_case(protocol)] {
                let failure = run_case_mutated(&case, Mutation::DropFirstRoundEnd)
                    .expect_err("a corrupted trace must be caught");
                assert!(
                    matches!(failure, CheckFailure::TraceInvariant(_)),
                    "{}: unexpected failure {failure:?}",
                    protocol.name()
                );
            }
        }
    }

    #[test]
    fn run_is_reproducible() {
        let case = base_case(ProtocolKind::Baseline);
        assert_eq!(
            run_case(&case).unwrap().stats,
            run_case(&case).unwrap().stats
        );
    }

    #[test]
    fn trace_totals_reconcile_with_metrics() {
        for protocol in ProtocolKind::ALL {
            let case = base_case(protocol);
            let traced =
                run_case(&case).unwrap_or_else(|e| panic!("{} failed: {e}", protocol.name()));
            let totals = aa_trace::recomputed_totals(&traced.trace);
            assert_eq!(totals.honest_messages, traced.metrics.honest_messages());
            assert_eq!(totals.messages(), traced.metrics.total_messages());
            assert_eq!(totals.bytes, traced.metrics.total_bytes());
        }
    }

    #[test]
    fn traced_run_is_byte_reproducible() {
        let case = base_case(ProtocolKind::TreeAaGradecast);
        let a = run_case(&case).unwrap();
        let b = run_case(&case).unwrap();
        assert_eq!(a.trace.to_canonical_string(), b.trace.to_canonical_string());
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    }

    #[test]
    fn transient_faults_terminate_for_every_protocol() {
        for protocol in ProtocolKind::ALL {
            let case = faulted_case(protocol);
            let stats = run_case(&case)
                .unwrap_or_else(|e| panic!("{} failed: {e}", protocol.name()))
                .stats;
            assert!(
                stats.rounds_executed <= stats.round_bound + 1,
                "{}: executed {} > relaxed bound {} + 1",
                protocol.name(),
                stats.rounds_executed,
                stats.round_bound
            );
        }
    }

    #[test]
    fn faulted_run_is_reproducible() {
        let case = faulted_case(ProtocolKind::Baseline);
        assert_eq!(
            run_case(&case).unwrap().stats,
            run_case(&case).unwrap().stats
        );
    }

    #[test]
    fn catastrophic_crashes_degrade_every_survivor() {
        // t + 1 permanent crashes from round 1: `check_degradation` inside
        // the pipeline errors unless every survivor reports
        // `Degraded` with a checkable over-budget certificate, so a plain
        // `unwrap` asserts the whole contract.
        for protocol in ProtocolKind::ALL {
            let mut case = base_case(protocol);
            case.atoms.clear();
            case.faults = (0..=case.t)
                .map(|party| FaultAtom::CrashRecover {
                    party,
                    crash_round: 1,
                    recover_round: u32::MAX,
                })
                .collect();
            run_case(&case).unwrap_or_else(|e| panic!("{} failed: {e}", protocol.name()));
        }
    }

    #[test]
    fn faulted_traced_run_records_fault_events_and_is_byte_reproducible() {
        let case = faulted_case(ProtocolKind::Baseline);
        let a = run_case(&case).unwrap();
        let b = run_case(&case).unwrap();
        assert_eq!(a.trace.to_canonical_string(), b.trace.to_canonical_string());
        let kinds: Vec<_> = a.trace.events.iter().map(|e| &e.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, sim_net::EventKind::FaultDrop { .. })),
            "partition left no fault.drop events"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, sim_net::EventKind::FaultCrash { party: 4 })),
            "crash of party 4 not recorded"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, sim_net::EventKind::FaultRecover { party: 4 })),
            "recovery of party 4 not recorded"
        );
    }

    #[test]
    fn traces_carry_protocol_events() {
        let proto_labels = |case: &FuzzCase| -> std::collections::BTreeSet<String> {
            run_case(case)
                .unwrap()
                .trace
                .events
                .iter()
                .filter_map(|e| match &e.kind {
                    sim_net::EventKind::Proto { event, .. } => Some(event.label.to_string()),
                    _ => None,
                })
                .collect()
        };
        let tree_labels = proto_labels(&base_case(ProtocolKind::TreeAaGradecast));
        assert!(tree_labels.contains("treeaa.path"), "{tree_labels:?}");
        assert!(tree_labels.contains("treeaa.out"), "{tree_labels:?}");
        let real_labels = proto_labels(&base_case(ProtocolKind::RealAa));
        assert!(real_labels.contains("gc.grade"), "{real_labels:?}");
        assert!(real_labels.contains("realaa.iter"), "{real_labels:?}");
    }
}
