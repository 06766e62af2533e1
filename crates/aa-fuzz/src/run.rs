//! Executing a fuzz case and checking the paper's invariants.
//!
//! Every case runs **twice** — once with [`StepMode::Sequential`], once
//! with [`StepMode::Parallel`] — and the two [`RunReport`]s must be equal
//! (the determinism contract from the engine docs). The sequential report
//! is then checked against the machine-checkable guarantees:
//!
//! * **round bound** — `rounds_executed ≤ bound + 1`, where `bound` is the
//!   protocol's publicly computable round count ([`TreeAaConfig::total_rounds`],
//!   [`NowakRybickiConfig::rounds`], [`RealAaConfig::rounds`]) and the `+1`
//!   is the terminal processing round in which parties consume the last
//!   messages and output;
//! * **validity** — every honest output lies in the convex hull (interval,
//!   for `real-aa`) of the honest inputs;
//! * **agreement** — honest outputs are pairwise ≤ 1 apart (≤ ε for
//!   `real-aa`).

use std::fmt;
use std::sync::Arc;

use aa_check::props::{self, PropViolation};
use sim_net::{
    run_simulation_faulted, run_simulation_faulted_traced, run_simulation_traced,
    run_simulation_with, Adversary, EngineConfig, FaultPlan, Metrics, Monitored, Outcome, PartyId,
    Protocol, RunReport, SimConfig, SimError, StepMode, Trace,
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
    /// The run exceeded the protocol's round bound.
    RoundBound {
        /// Rounds the engine actually executed.
        executed: u32,
        /// The public bound (excluding the terminal processing round).
        bound: u32,
    },
    /// An honest output escaped the honest inputs' convex hull.
    Validity(String),
    /// Honest outputs are farther apart than the agreement tolerance.
    Agreement(String),
    /// Sequential and parallel stepping produced byte-different traces
    /// (the flight-recorder determinism contract).
    TraceDeterminism,
    /// A trace-level invariant checker rejected the recorded run, or the
    /// trace's recomputed totals disagree with the engine's metrics.
    TraceInvariant(String),
    /// The degradation contract was violated: a party degraded without a
    /// checkable over-budget certificate, or returned a fully guaranteed
    /// value under a fault plan that provably exceeds the budget.
    Degradation(String),
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Sim(reason) => write!(f, "simulation failed: {reason}"),
            CheckFailure::Determinism => {
                f.write_str("sequential and parallel runs produced different reports")
            }
            CheckFailure::RoundBound { executed, bound } => write!(
                f,
                "round bound violated: executed {executed} rounds, bound {bound} (+1 terminal)"
            ),
            CheckFailure::Validity(detail) => write!(f, "validity violated: {detail}"),
            CheckFailure::Agreement(detail) => write!(f, "agreement violated: {detail}"),
            CheckFailure::TraceDeterminism => {
                f.write_str("sequential and parallel runs produced byte-different traces")
            }
            CheckFailure::TraceInvariant(detail) => {
                write!(f, "trace invariant violated: {detail}")
            }
            CheckFailure::Degradation(detail) => {
                write!(f, "degradation contract violated: {detail}")
            }
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
    /// The protocol's public round bound.
    pub round_bound: u32,
    /// Parties the adversary ended up corrupting.
    pub corrupted: usize,
}

/// The result of a traced run: summary statistics plus the flight
/// recording and the metrics of both step modes (equal by the determinism
/// check, but kept separately so accounting tests can assert it).
#[derive(Clone, Debug)]
pub struct TracedCase {
    /// Summary statistics (identical to the untraced [`run_case`] result).
    pub stats: CaseStats,
    /// The recorded trace (byte-identical across both step modes).
    pub trace: Trace,
    /// Metrics of the sequential run.
    pub seq_metrics: Metrics,
    /// Metrics of the parallel run.
    pub par_metrics: Metrics,
}

/// Trace artifacts threaded out of [`run_checked`] when tracing is on.
struct TraceBundle {
    trace: Trace,
    seq_metrics: Metrics,
    par_metrics: Metrics,
}

/// A deliberate bug injected into the checking pipeline — used to
/// mutation-test the harness itself: a fuzzer that cannot catch a planted
/// validity violation is not testing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: check the real outputs.
    None,
    /// Replace the first honest output with a value outside the honest
    /// hull (a vertex off the hull, or `max + d + 1` for `real-aa`),
    /// simulating a validity bug in the protocol.
    SkewFirstOutput,
}

/// Runs a case and checks every invariant.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] encountered.
pub fn run_case(case: &FuzzCase) -> Result<CaseStats, CheckFailure> {
    run_case_mutated(case, Mutation::None)
}

/// [`run_case`] with a [`Mutation`] applied to the outputs before
/// checking. `Mutation::None` is the production path.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] encountered.
///
/// # Panics
///
/// Panics if `case` fails [`FuzzCase::validate`].
pub fn run_case_mutated(case: &FuzzCase, mutation: Mutation) -> Result<CaseStats, CheckFailure> {
    run_case_impl(case, mutation, false).map(|(stats, _)| stats)
}

/// Runs a case with the flight recorder on: both step modes execute under
/// [`run_simulation_traced`], the two traces must be byte-identical, the
/// trace must pass every [`aa_trace`] invariant checker, and its
/// recomputed totals must equal the engine's [`Metrics`] — all **in
/// addition to** the untraced invariants of [`run_case`].
///
/// # Errors
///
/// Returns the first [`CheckFailure`] encountered.
///
/// # Panics
///
/// Panics if `case` fails [`FuzzCase::validate`].
pub fn run_case_traced(case: &FuzzCase) -> Result<TracedCase, CheckFailure> {
    let (stats, bundle) = run_case_impl(case, Mutation::None, true)?;
    let bundle = bundle.expect("traced run always yields a trace");
    Ok(TracedCase {
        stats,
        trace: bundle.trace,
        seq_metrics: bundle.seq_metrics,
        par_metrics: bundle.par_metrics,
    })
}

fn run_case_impl(
    case: &FuzzCase,
    mutation: Mutation,
    traced: bool,
) -> Result<(CaseStats, Option<TraceBundle>), CheckFailure> {
    case.validate()
        .expect("case must be validated before running");
    let tree = Arc::new(case.tree.build());
    match case.protocol {
        ProtocolKind::TreeAaGradecast => {
            run_tree_aa(case, &tree, EngineKind::Gradecast, mutation, traced)
        }
        ProtocolKind::TreeAaHalving => {
            run_tree_aa(case, &tree, EngineKind::Halving, mutation, traced)
        }
        ProtocolKind::Baseline => run_baseline(case, &tree, mutation, traced),
        ProtocolKind::RealAa => run_real_aa(case, &tree, mutation, traced),
        ProtocolKind::BundledRealAa => run_bundled_real_aa(case, &tree, mutation, traced),
    }
}

/// Runs the protocol under both step modes with freshly built adversaries
/// and checks report equality plus the round bound. With `traced`, both
/// modes run under the flight recorder and the traces are additionally
/// checked for byte-equality, the [`aa_trace`] invariants, and exact
/// agreement with the engine's metrics.
fn run_checked<P, F>(
    case: &FuzzCase,
    bound: u32,
    mut factory: F,
    traced: bool,
) -> Result<(RunReport<P::Output>, Option<TraceBundle>), CheckFailure>
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
    P::Output: PartialEq + Clone,
    F: FnMut(PartyId, usize) -> P,
{
    let sim = SimConfig {
        n: case.n,
        t: case.t,
        max_rounds: bound + ROUND_SLACK,
    };
    if !traced {
        let mut run = |mode: StepMode| {
            // The adversary is rebuilt per run: its RNG state is part of
            // the strategy, so both runs must start from the same seed.
            let adversary: Box<dyn Adversary<P::Msg>> = Box::new(build_adversary::<P::Msg>(case));
            run_simulation_with(
                EngineConfig {
                    sim,
                    step_mode: mode,
                },
                &mut factory,
                adversary,
            )
        };
        let sequential = run(StepMode::Sequential).map_err(|e| CheckFailure::Sim(describe(&e)))?;
        let parallel =
            run(StepMode::Parallel { threads: 2 }).map_err(|e| CheckFailure::Sim(describe(&e)))?;
        if sequential != parallel {
            return Err(CheckFailure::Determinism);
        }
        check_bound(sequential.rounds_executed, bound)?;
        return Ok((sequential, None));
    }
    let mut run = |mode: StepMode| {
        let adversary: Box<dyn Adversary<P::Msg>> = Box::new(build_adversary::<P::Msg>(case));
        run_simulation_traced(
            EngineConfig {
                sim,
                step_mode: mode,
            },
            &mut factory,
            adversary,
        )
    };
    let (sequential, seq_trace) =
        run(StepMode::Sequential).map_err(|e| CheckFailure::Sim(describe(&e)))?;
    let (parallel, par_trace) =
        run(StepMode::Parallel { threads: 2 }).map_err(|e| CheckFailure::Sim(describe(&e)))?;
    if sequential != parallel {
        return Err(CheckFailure::Determinism);
    }
    if seq_trace.to_canonical_string() != par_trace.to_canonical_string() {
        return Err(CheckFailure::TraceDeterminism);
    }
    check_bound(sequential.rounds_executed, bound)?;
    aa_trace::check_all(&seq_trace).map_err(CheckFailure::TraceInvariant)?;
    let totals = aa_trace::recomputed_totals(&seq_trace);
    let metrics = &sequential.metrics;
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
    let bundle = TraceBundle {
        trace: seq_trace,
        seq_metrics: sequential.metrics.clone(),
        par_metrics: parallel.metrics,
    };
    Ok((sequential, Some(bundle)))
}

/// Runs a *faulted* case under both step modes, with every party wrapped
/// in [`Monitored`] so the output type becomes [`Outcome`]. The
/// determinism and trace-determinism contracts are checked exactly as in
/// [`run_checked`]; the round bound is relaxed by the plan's scheduled
/// extent (rounds frozen by an active fault cannot advance the protocol);
/// and instead of validity/agreement — which benign faults may legitimately
/// weaken — the *degradation contract* is enforced via
/// [`check_degradation`].
///
/// Traced faulted runs keep the round-total bracketing check and the
/// totals-vs-metrics reconciliation (fault events carry no message cost),
/// but skip the hull-monotonicity and grade checkers: a party frozen by a
/// partition can legitimately re-emit a stale iteration value once healed.
#[allow(clippy::type_complexity)]
fn run_checked_faulted<P, F>(
    case: &FuzzCase,
    bound: u32,
    mut factory: F,
    traced: bool,
) -> Result<(RunReport<Outcome<P::Output>>, u32, Option<TraceBundle>), CheckFailure>
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
    P::Output: PartialEq + Clone,
    F: FnMut(PartyId, usize) -> P,
{
    let plan = case.fault_plan();
    let relaxed = bound + plan.scheduled_extent();
    let sim = SimConfig {
        n: case.n,
        t: case.t,
        max_rounds: relaxed + ROUND_SLACK,
    };
    let mut factory = |id: PartyId, idx: usize| Monitored::new(factory(id, idx), case.n, case.t);
    let (sequential, bundle) = if traced {
        let mut run = |mode: StepMode| {
            let adversary: Box<dyn Adversary<P::Msg>> = Box::new(build_adversary::<P::Msg>(case));
            run_simulation_faulted_traced(
                EngineConfig {
                    sim,
                    step_mode: mode,
                },
                &plan,
                &mut factory,
                adversary,
            )
        };
        let (sequential, seq_trace) =
            run(StepMode::Sequential).map_err(|e| CheckFailure::Sim(describe(&e)))?;
        let (parallel, par_trace) =
            run(StepMode::Parallel { threads: 2 }).map_err(|e| CheckFailure::Sim(describe(&e)))?;
        if sequential != parallel {
            return Err(CheckFailure::Determinism);
        }
        if seq_trace.to_canonical_string() != par_trace.to_canonical_string() {
            return Err(CheckFailure::TraceDeterminism);
        }
        aa_trace::check_round_totals(&seq_trace).map_err(CheckFailure::TraceInvariant)?;
        let totals = aa_trace::recomputed_totals(&seq_trace);
        let metrics = &sequential.metrics;
        if totals.honest_messages != metrics.honest_messages()
            || totals.messages() != metrics.total_messages()
            || totals.bytes != metrics.total_bytes()
        {
            return Err(CheckFailure::TraceInvariant(format!(
                "faulted trace totals ({}/{}/{}B honest/total/bytes) disagree with \
                 engine metrics ({}/{}/{}B)",
                totals.honest_messages,
                totals.messages(),
                totals.bytes,
                metrics.honest_messages(),
                metrics.total_messages(),
                metrics.total_bytes(),
            )));
        }
        let bundle = TraceBundle {
            trace: seq_trace,
            seq_metrics: sequential.metrics.clone(),
            par_metrics: parallel.metrics,
        };
        (sequential, Some(bundle))
    } else {
        let mut run = |mode: StepMode| {
            let adversary: Box<dyn Adversary<P::Msg>> = Box::new(build_adversary::<P::Msg>(case));
            run_simulation_faulted(
                EngineConfig {
                    sim,
                    step_mode: mode,
                },
                &plan,
                &mut factory,
                adversary,
            )
        };
        let sequential = run(StepMode::Sequential).map_err(|e| CheckFailure::Sim(describe(&e)))?;
        let parallel =
            run(StepMode::Parallel { threads: 2 }).map_err(|e| CheckFailure::Sim(describe(&e)))?;
        if sequential != parallel {
            return Err(CheckFailure::Determinism);
        }
        (sequential, None)
    };
    check_bound(sequential.rounds_executed, relaxed)?;
    check_degradation(case, &plan, bound, &sequential)?;
    Ok((sequential, relaxed, bundle))
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
        match outcome {
            Outcome::Value(_) => {
                if catastrophic {
                    return Err(CheckFailure::Degradation(format!(
                        "party {i} claims full guarantees although {perm_crashed} parties \
                         (> t = {}) are permanently crashed from round 1",
                        case.t
                    )));
                }
            }
            Outcome::Degraded(_) => {
                props::check_degradation_outcome(i, outcome).map_err(from_prop)?;
            }
        }
    }
    Ok(())
}

/// Maps the shared predicate verdicts onto the fuzz harness's failure
/// vocabulary (which additionally covers sim/determinism/trace failures
/// the shared predicates know nothing about).
fn from_prop(v: PropViolation) -> CheckFailure {
    match v {
        PropViolation::RoundBound { executed, bound } => {
            CheckFailure::RoundBound { executed, bound }
        }
        PropViolation::Validity(detail) => CheckFailure::Validity(detail),
        PropViolation::Agreement(detail) => CheckFailure::Agreement(detail),
        PropViolation::Degradation(detail) => CheckFailure::Degradation(detail),
    }
}

fn check_bound(executed: u32, bound: u32) -> Result<(), CheckFailure> {
    props::check_round_bound(executed, bound).map_err(from_prop)
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

/// The honest parties' outputs, in party order.
fn honest_outputs<O: Clone>(report: &RunReport<O>) -> Vec<O> {
    props::honest_outputs(&report.outputs, &report.corrupted)
}

fn stats<O>(report: &RunReport<O>, bound: u32, tree: &Tree) -> CaseStats {
    CaseStats {
        vertex_count: tree.vertex_count(),
        rounds_executed: report.rounds_executed,
        round_bound: bound,
        corrupted: report.corrupted.iter().filter(|&&c| c).count(),
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
        let far = tree
            .vertices()
            .max_by_key(|&v| tree.distance(first, v))
            .expect("non-empty tree");
        outputs[0] = far;
    }
}

fn check_vertex_outcome(
    tree: &Tree,
    honest_inputs: &[VertexId],
    honest_outputs: &[VertexId],
) -> Result<(), CheckFailure> {
    props::check_vertex_outcome(tree, honest_inputs, honest_outputs).map_err(from_prop)
}

fn run_tree_aa(
    case: &FuzzCase,
    tree: &Arc<Tree>,
    engine: EngineKind,
    mutation: Mutation,
    traced: bool,
) -> Result<(CaseStats, Option<TraceBundle>), CheckFailure> {
    let cfg = TreeAaConfig::new(case.n, case.t, engine, tree).map_err(CheckFailure::Sim)?;
    let bound = cfg.total_rounds();
    let verts: Vec<VertexId> = tree.vertices().collect();
    let inputs: Vec<VertexId> = case
        .input_vertices(verts.len())
        .into_iter()
        .map(|i| verts[i])
        .collect();
    if case.has_faults() {
        let (report, relaxed, bundle) = run_checked_faulted::<TreeAaParty, _>(
            case,
            bound,
            |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
            traced,
        )?;
        return Ok((stats(&report, relaxed, tree), bundle));
    }
    let (report, bundle) = run_checked::<TreeAaParty, _>(
        case,
        bound,
        |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
        traced,
    )?;
    let stats = finish_vertex_protocol(tree, &inputs, report, bound, mutation)?;
    Ok((stats, bundle))
}

fn run_baseline(
    case: &FuzzCase,
    tree: &Arc<Tree>,
    mutation: Mutation,
    traced: bool,
) -> Result<(CaseStats, Option<TraceBundle>), CheckFailure> {
    let cfg = NowakRybickiConfig::new(case.n, case.t, tree).map_err(CheckFailure::Sim)?;
    let bound = cfg.rounds();
    let verts: Vec<VertexId> = tree.vertices().collect();
    let inputs: Vec<VertexId> = case
        .input_vertices(verts.len())
        .into_iter()
        .map(|i| verts[i])
        .collect();
    if case.has_faults() {
        let (report, relaxed, bundle) = run_checked_faulted::<NowakRybickiParty, _>(
            case,
            bound,
            |id, _| NowakRybickiParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
            traced,
        )?;
        return Ok((stats(&report, relaxed, tree), bundle));
    }
    let (report, bundle) = run_checked::<NowakRybickiParty, _>(
        case,
        bound,
        |id, _| NowakRybickiParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
        traced,
    )?;
    let stats = finish_vertex_protocol(tree, &inputs, report, bound, mutation)?;
    Ok((stats, bundle))
}

fn finish_vertex_protocol(
    tree: &Tree,
    inputs: &[VertexId],
    report: RunReport<VertexId>,
    bound: u32,
    mutation: Mutation,
) -> Result<CaseStats, CheckFailure> {
    let honest_inputs: Vec<VertexId> = inputs
        .iter()
        .zip(&report.corrupted)
        .filter(|(_, &c)| !c)
        .map(|(&v, _)| v)
        .collect();
    let mut outputs = honest_outputs(&report);
    if mutation == Mutation::SkewFirstOutput {
        skew_vertex_outputs(tree, &honest_inputs, &mut outputs);
    }
    check_vertex_outcome(tree, &honest_inputs, &outputs)?;
    Ok(stats(&report, bound, tree))
}

fn run_real_aa(
    case: &FuzzCase,
    tree: &Arc<Tree>,
    mutation: Mutation,
    traced: bool,
) -> Result<(CaseStats, Option<TraceBundle>), CheckFailure> {
    use real_aa::{RealAaConfig, RealAaParty};
    let m = tree.vertex_count();
    let d = (m - 1) as f64;
    let eps = 1.0;
    let cfg = RealAaConfig::new(case.n, case.t, eps, d).map_err(CheckFailure::Sim)?;
    let bound = cfg.rounds();
    let inputs: Vec<f64> = case
        .input_vertices(m)
        .into_iter()
        .map(|i| i as f64)
        .collect();
    if case.has_faults() {
        let (report, relaxed, bundle) = run_checked_faulted::<RealAaParty, _>(
            case,
            bound,
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            traced,
        )?;
        return Ok((stats(&report, relaxed, tree), bundle));
    }
    let (report, bundle) = run_checked::<RealAaParty, _>(
        case,
        bound,
        |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
        traced,
    )?;
    let honest_inputs: Vec<f64> = inputs
        .iter()
        .zip(&report.corrupted)
        .filter(|(_, &c)| !c)
        .map(|(&v, _)| v)
        .collect();
    let mut outputs = honest_outputs(&report);
    if mutation == Mutation::SkewFirstOutput {
        let hi = honest_inputs
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        outputs[0] = hi + d + 1.0;
    }
    props::check_real_outcome(&honest_inputs, &outputs, eps).map_err(from_prop)?;
    Ok((stats(&report, bound, tree), bundle))
}

/// How many instances a `bundled-real-aa` case carries on its one wire.
const BUNDLE_K: usize = 4;

fn run_bundled_real_aa(
    case: &FuzzCase,
    tree: &Arc<Tree>,
    mutation: Mutation,
    traced: bool,
) -> Result<(CaseStats, Option<TraceBundle>), CheckFailure> {
    use real_aa::{BundledAaParty, RealAaConfig};
    let m = tree.vertex_count();
    let d = (m - 1) as f64;
    let eps = 1.0;
    let cfg = RealAaConfig::new(case.n, case.t, eps, d).map_err(CheckFailure::Sim)?;
    let bound = cfg.rounds();
    let base = case.input_vertices(m);
    let n = case.n;
    // Instance j rotates the case's vertex inputs by j: the k bundled
    // instances agree on different values while sharing one wire.
    let inputs_for =
        |p: usize| -> Vec<f64> { (0..BUNDLE_K).map(|j| base[(p + j) % n] as f64).collect() };
    if case.has_faults() {
        let (report, relaxed, bundle) = run_checked_faulted::<BundledAaParty, _>(
            case,
            bound,
            |id, _| BundledAaParty::new(id, cfg, inputs_for(id.index())).expect("k >= 1"),
            traced,
        )?;
        return Ok((stats(&report, relaxed, tree), bundle));
    }
    let (report, bundle) = run_checked::<BundledAaParty, _>(
        case,
        bound,
        |id, _| BundledAaParty::new(id, cfg, inputs_for(id.index())).expect("k >= 1"),
        traced,
    )?;
    let mut outputs = honest_outputs(&report);
    if mutation == Mutation::SkewFirstOutput {
        let hi = (0..n)
            .filter(|&p| !report.corrupted[p])
            .map(|p| inputs_for(p)[0])
            .fold(f64::NEG_INFINITY, f64::max);
        outputs[0][0] = hi + d + 1.0;
    }
    // Every bundled instance must satisfy the RealAA outcome contract
    // independently.
    for j in 0..BUNDLE_K {
        let honest_inputs_j: Vec<f64> = (0..n)
            .filter(|&p| !report.corrupted[p])
            .map(|p| inputs_for(p)[j])
            .collect();
        let outputs_j: Vec<f64> = outputs.iter().map(|o| o[j]).collect();
        props::check_real_outcome(&honest_inputs_j, &outputs_j, eps).map_err(from_prop)?;
    }
    Ok((stats(&report, bound, tree), bundle))
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
            let stats =
                run_case(&case).unwrap_or_else(|e| panic!("{} failed: {e}", protocol.name()));
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
                    CheckFailure::Validity(_) | CheckFailure::Agreement(_)
                ),
                "{}: unexpected failure {failure:?}",
                protocol.name()
            );
        }
    }

    #[test]
    fn run_is_reproducible() {
        let case = base_case(ProtocolKind::Baseline);
        assert_eq!(run_case(&case).unwrap(), run_case(&case).unwrap());
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles_metrics() {
        for protocol in ProtocolKind::ALL {
            let case = base_case(protocol);
            let traced = run_case_traced(&case)
                .unwrap_or_else(|e| panic!("{} traced run failed: {e}", protocol.name()));
            assert_eq!(
                traced.stats,
                run_case(&case).unwrap(),
                "{}",
                protocol.name()
            );
            assert_eq!(traced.seq_metrics, traced.par_metrics);
            let totals = aa_trace::recomputed_totals(&traced.trace);
            assert_eq!(totals.honest_messages, traced.seq_metrics.honest_messages());
            assert_eq!(totals.messages(), traced.seq_metrics.total_messages());
            assert_eq!(totals.bytes, traced.seq_metrics.total_bytes());
        }
    }

    #[test]
    fn traced_run_is_byte_reproducible() {
        let case = base_case(ProtocolKind::TreeAaGradecast);
        let a = run_case_traced(&case).unwrap();
        let b = run_case_traced(&case).unwrap();
        assert_eq!(a.trace.to_canonical_string(), b.trace.to_canonical_string());
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    }

    #[test]
    fn transient_faults_terminate_for_every_protocol() {
        for protocol in ProtocolKind::ALL {
            let case = faulted_case(protocol);
            let stats =
                run_case(&case).unwrap_or_else(|e| panic!("{} failed: {e}", protocol.name()));
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
        assert_eq!(run_case(&case).unwrap(), run_case(&case).unwrap());
    }

    #[test]
    fn catastrophic_crashes_degrade_every_survivor() {
        // t + 1 permanent crashes from round 1: `check_degradation` inside
        // the faulted runner errors unless every survivor reports
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
        let a = run_case_traced(&case).unwrap();
        let b = run_case_traced(&case).unwrap();
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
            run_case_traced(case)
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
