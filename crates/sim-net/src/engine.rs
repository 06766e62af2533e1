//! The lockstep execution engine.
//!
//! # Performance model
//!
//! Each round has three phases:
//!
//! 1. **Step.** Every party's `step` is a pure function of its state and
//!    inbox, so one worker loop steps them — on the calling thread, or on
//!    several scoped threads at once (see [`StepMode`]) — with
//!    bit-identical results: outboxes are always collected in party-id
//!    order. Honest parties and the adversary's
//!    puppets ([`AdversaryCtx::corrupt`]) are stepped; frozen parties —
//!    taken over ([`AdversaryCtx::take_over`]) or down under a
//!    [`FaultPlan`] — are not, and cost nothing.
//! 2. **Adversary.** The rushing adversary sees all tentative [`Outbox`]es
//!    and acts. Each message it sends is delivered there and then
//!    ([`AdversaryCtx::send`]), straight into the recipient's inbox,
//!    whose injections from the last round were cleared just before.
//! 3. **Delivery.** Broadcast payloads are *moved* into one shared
//!    per-round list (`Arc`) that every inbox references — a broadcast
//!    costs one allocation and one `size_bytes` call regardless of `n`.
//!    Every other copy — a broadcast's across an active cut, a unicast,
//!    an injection — passes one rule: across a cut or from a down sender
//!    it is dropped and costs nothing; otherwise it is counted, traced,
//!    and queued in one of the recipient's lanes (whose allocations
//!    persist across rounds) unless the recipient is taken over or down
//!    next round. A unicast or injection costs one `size_bytes` call
//!    when delivered, so a payload should know its size rather than walk
//!    itself (gradecast bundles count theirs when built).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use aa_trace::{EventKind, EventLog, Trace, TraceEvent};

use crate::adversary::{Adversary, AdversaryCtx};
use crate::fault::FaultPlan;
use crate::mailbox::{Inbox, Outbox, Received};
use crate::message::{PartyId, Payload};
use crate::metrics::{Metrics, RoundMetrics};
use crate::party::{Protocol, RoundCtx};

/// Static parameters of a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption budget (`t < n` enforced; protocols typically require
    /// `t < n/3`, which is *their* precondition, not the engine's).
    pub t: usize,
    /// Hard stop: error out if honest parties have not all terminated by
    /// this round.
    pub max_rounds: u32,
}

/// How the engine steps the `n` parties within a round.
///
/// Any mode produces byte-for-byte identical runs: parties within a round
/// never interact, and outboxes are collected in party-id order before
/// the adversary or the delivery phase looks at them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepMode {
    /// Parallel for large networks on multi-core hosts, sequential
    /// otherwise (the threshold is [`PARALLEL_THRESHOLD`]).
    #[default]
    Auto,
    /// Always one party after another, on the calling thread.
    Sequential,
    /// Always concurrent on `threads` OS threads (clamped to `1..=n`)
    /// which self-schedule over the party range in grain-sized chunks
    /// claimed from a shared queue. `threads: 0` means one thread
    /// per available core.
    Parallel {
        /// Worker thread count; `0` = number of available cores.
        threads: usize,
    },
}

/// Network size at which [`StepMode::Auto`] starts stepping in parallel
/// (when more than one core is available).
///
/// Derived from measurement rather than guessed (the previous value, 64,
/// was a guess). On the reference host (`rustc -O`, Linux), a scoped
/// worker pool costs 104 µs to spawn+join 2 threads and 167 µs for 4 —
/// an upper bound, since the 1-core host serializes the spawns. Against
/// that, one round of the *cheapest* conceivable stepping work (every
/// party scans an inbox of n 8-byte broadcasts) measures 12 µs at n=256,
/// 189 µs at n=1024, and 2.9 ms at n=4096 — so a degenerate scan-only
/// protocol only breaks even near n ≈ 2048. But the protocols this
/// engine exists to run sit well above that floor: an untraced TreeAA
/// run at n=256, t=85 (the `sim-treeaa-wide` benchmark, 2-core host,
/// two workers) spends 105–120 ms of wall time stepping its 171 honest
/// parties over 46 rounds with gradecast tallies on the AVX2 sweep, and
/// 135–165 ms on the SSE2 sweep (the 85 parties that `TreeAaChaos` takes
/// over are frozen). On the SSE2 sweep that is ≈ 3–7 ms in a round that
/// absorbs echo or vote bundles and ≈ 0.5 ms in one that absorbs only
/// leads — still 5–60× the pool's cost, so the crossover stays well
/// below n = 256. The threshold is set between the
/// two measured crossovers, biased toward the protocol suite; workloads
/// at either degenerate end can always pin `Sequential` or
/// `Parallel { threads }` explicitly.
pub const PARALLEL_THRESHOLD: usize = 256;

/// Worker-thread count [`StepMode::Auto`] resolves to for `n` parties on
/// a host with `cores` available cores: 1 (sequential) below
/// [`PARALLEL_THRESHOLD`] or on a single core, one thread per core
/// (clamped to `n`) otherwise.
///
/// Exposed as a pure function of `(n, cores)` so the resolution rule is
/// testable independently of the host the tests run on.
pub fn auto_threads(n: usize, cores: usize) -> usize {
    if cores <= 1 || n < PARALLEL_THRESHOLD {
        1
    } else {
        cores.min(n)
    }
}

/// Engine parameters beyond the protocol-visible [`SimConfig`].
///
/// `SimConfig` stays a three-field literal everywhere; tuning knobs that
/// cannot change observable behaviour live here instead. Build one with
/// `EngineConfig::from(sim_config)` and override fields as needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// The protocol-visible parameters.
    pub sim: SimConfig,
    /// How parties are stepped within a round.
    pub step_mode: StepMode,
}

impl From<SimConfig> for EngineConfig {
    fn from(sim: SimConfig) -> Self {
        EngineConfig {
            sim,
            step_mode: StepMode::Auto,
        }
    }
}

/// Why a simulation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// `n == 0` or `t >= n`.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// Some honest party had produced no output by `max_rounds`.
    MaxRoundsExceeded {
        /// The configured bound that was hit.
        max_rounds: u32,
    },
    /// A fault plan was structurally invalid or not expressible in the
    /// lockstep engine (see [`FaultPlan::lockstep_compatible`]).
    BadFaultPlan {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadConfig { reason } => write!(f, "bad simulation config: {reason}"),
            SimError::MaxRoundsExceeded { max_rounds } => {
                write!(
                    f,
                    "honest parties did not terminate within {max_rounds} rounds"
                )
            }
            SimError::BadFaultPlan { reason } => write!(f, "bad fault plan: {reason}"),
        }
    }
}

impl Error for SimError {}

/// The result of a completed run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport<O> {
    /// Per-party outputs; `None` exactly for corrupted parties and
    /// parties that were crashed (by a fault plan) when the run ended.
    pub outputs: Vec<Option<O>>,
    /// Which parties ended the run corrupted.
    pub corrupted: Vec<bool>,
    /// Which parties were down under the fault plan when the run ended
    /// (all `false` on plan-free runs).
    pub crashed: Vec<bool>,
    /// Rounds executed until every honest party had an output.
    pub rounds_executed: u32,
    /// Communication metrics.
    pub metrics: Metrics,
}

impl<O: Clone> RunReport<O> {
    /// Outputs of the honest (and, under a fault plan, running) parties.
    pub fn honest_outputs(&self) -> Vec<O> {
        self.outputs
            .iter()
            .zip(self.corrupted.iter().zip(&self.crashed))
            .filter(|(_, (&c, &d))| !c && !d)
            .map(|(o, _)| o.clone().expect("honest parties have outputs on success"))
            .collect()
    }

    /// The communication round complexity: last round with traffic.
    pub fn communication_rounds(&self) -> u32 {
        self.metrics.communication_rounds()
    }
}

/// What one party produces in one step: its outbox plus the log of any
/// protocol events it emitted while tracing.
type StepOutput<M> = (Outbox<M>, EventLog);

/// What a run of parties produces in one step: their outboxes and, when
/// tracing, their logs, in party-id order.
type StepOutputs<M> = (Vec<Outbox<M>>, Vec<EventLog>);

/// Steps party `id` once in a fresh context (traced when `tracing`),
/// unless it is `frozen`: then it produces an empty outbox and no events.
fn step_one<P: Protocol>(
    party: &mut P,
    id: usize,
    inbox: &Inbox<P::Msg>,
    round: u32,
    n: usize,
    tracing: bool,
    frozen: bool,
) -> StepOutput<P::Msg> {
    let mut ctx = if tracing {
        RoundCtx::traced(PartyId(id), n)
    } else {
        RoundCtx::new(PartyId(id), n)
    };
    if !frozen {
        party.step(round, inbox, &mut ctx);
    }
    let log = ctx.take_log();
    (ctx.into_outbox(), log)
}

/// How many grain-sized chunks the party range is split into per worker,
/// on average. More slices = better load balance when step costs are
/// skewed (work-stealing via the shared chunk queue), fewer = less
/// lock contention; 8 is comfortably past the point where either effect
/// matters for inbox-scanning protocols.
const GRAIN_SLICES_PER_THREAD: usize = 8;

/// Steps every party once through [`step_one`], collecting outboxes (and,
/// when `tracing`, per-party event logs) in party-id order. Parties marked
/// `frozen` (taken over by the adversary, or down under a fault plan) are
/// not stepped.
///
/// Workers repeatedly claim the next grain-sized chunk of parties (with
/// the chunk's own output part) from a shared iterator, so a worker stuck
/// on an expensive party stops claiming and the others absorb the
/// remainder (work stealing without per-thread deques — the shared queue
/// *is* the steal target). The parts are concatenated in chunk order, so
/// the collected order is the party-id order no matter how chunks land
/// on threads. With `threads` clamped to 1 the one worker takes the whole
/// range as one chunk on the calling thread and no thread is spawned;
/// otherwise `threads` scoped OS threads run it.
fn step_all<P>(
    parties: &mut [P],
    inboxes: &[Inbox<P::Msg>],
    round: u32,
    n: usize,
    threads: usize,
    tracing: bool,
    frozen: &[bool],
) -> StepOutputs<P::Msg>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
{
    let count = parties.len();
    let threads = threads.clamp(1, count);
    // A lone worker has no one to balance against: one chunk.
    let slices = if threads == 1 {
        1
    } else {
        threads * GRAIN_SLICES_PER_THREAD
    };
    let grain = count.div_ceil(slices).max(1);
    // One (outboxes, logs) part per chunk, filled by whichever worker
    // claims the chunk.
    let mut parts: Vec<StepOutputs<P::Msg>> = (0..count.div_ceil(grain))
        .map(|_| Default::default())
        .collect();
    let chunks = std::sync::Mutex::new(parties.chunks_mut(grain).zip(&mut parts).enumerate());
    let worker = || loop {
        let next = chunks.lock().expect("no step runs under the lock").next();
        let Some((c, (parties, (outboxes, logs)))) = next else {
            break;
        };
        outboxes.reserve_exact(parties.len());
        for (j, party) in parties.iter_mut().enumerate() {
            let i = c * grain + j;
            let (outbox, log) = step_one(party, i, &inboxes[i], round, n, tracing, frozen[i]);
            outboxes.push(outbox);
            if tracing {
                logs.push(log);
            }
        }
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    // Chunk order is party-id order; a lone chunk is the result as is.
    let mut parts = parts.into_iter();
    let (mut outboxes, mut events) = parts.next().unwrap_or_default();
    outboxes.reserve_exact(count - outboxes.len());
    for (more_outboxes, more_events) in parts {
        outboxes.extend(more_outboxes);
        events.extend(more_events);
    }
    (outboxes, events)
}

/// The payload of one copy outside the shared broadcast list.
pub(crate) enum Body<'a, M> {
    /// A unicast's or an injection's payload: sized only if delivered,
    /// moved into the inbox if queued.
    Owned(M),
    /// One recipient's copy of a broadcast that crosses an active cut:
    /// sized once for every recipient, cloned only if queued.
    Shared(&'a M, usize),
}

/// One phase of a round's delivery: the state every copy outside the
/// shared broadcast list is checked against, and the inboxes, trace
/// events and metrics it writes. The adversary phase's sits in
/// [`AdversaryCtx`] (its `send` delivers through it); the delivery phase
/// has its own.
pub(crate) struct Delivery<'a, M> {
    pub(crate) round: u32,
    pub(crate) plan: Option<&'a FaultPlan>,
    pub(crate) down: &'a [bool],
    pub(crate) taken: &'a mut [bool],
    pub(crate) corrupted: &'a mut [bool],
    /// Their `direct` lanes take the unicasts and cut broadcasts' copies,
    /// their `injected` lanes the adversary's injections.
    pub(crate) inboxes: &'a mut [Inbox<M>],
    pub(crate) events: Option<&'a mut Vec<TraceEvent>>,
    pub(crate) metrics: RoundMetrics,
}

impl<M: Payload> Delivery<'_, M> {
    /// Appends the event `kind` builds, only when tracing.
    #[inline(always)]
    fn trace(&mut self, kind: impl FnOnce() -> EventKind) {
        if let Some(events) = self.events.as_deref_mut() {
            events.push(TraceEvent {
                round: self.round,
                kind: kind(),
            });
        }
    }

    /// Counts `copies` messages of `bytes` each from `from`; returns
    /// whether they are the adversary's.
    #[inline(always)]
    fn charge(&mut self, from: usize, copies: usize, bytes: usize) -> bool {
        let byzantine = self.corrupted[from];
        self.metrics.bytes += bytes * copies;
        if byzantine {
            self.metrics.byzantine_messages += copies;
        } else {
            self.metrics.honest_messages += copies;
        }
        byzantine
    }

    /// Delivers one copy from `from` to `to`: a cut broadcast's, a unicast
    /// or (when `inject`, at send time) an adversary injection. Across an
    /// active cut or from a down sender — only an injection can claim one,
    /// since a down party is not stepped — the copy is dropped and traced
    /// as `fault_drop`, costing nothing. Otherwise it is counted and
    /// traced as `unicast` or `inject`, and queued unless `to` is taken
    /// over or down next round: nothing will read it.
    ///
    /// Inlined into each call site, with no event built untraced: as a
    /// call it made injection-heavy rounds ≈ 10 % slower.
    #[inline(always)]
    pub(crate) fn copy(&mut self, from: usize, to: usize, inject: bool, body: Body<'_, M>) {
        if self.down[from] || self.plan.is_some_and(|p| p.severed(self.round, from, to)) {
            self.trace(|| EventKind::FaultDrop { from, to });
            return;
        }
        let bytes = match &body {
            Body::Owned(payload) => payload.size_bytes(),
            Body::Shared(_, bytes) => *bytes,
        };
        let byzantine = self.charge(from, 1, bytes);
        self.trace(|| {
            if inject {
                EventKind::Inject { from, to, bytes }
            } else {
                EventKind::Unicast {
                    from,
                    to,
                    bytes,
                    byzantine,
                }
            }
        });
        if !self.taken[to] && !self.plan.is_some_and(|p| p.crashed_in(to, self.round + 1)) {
            let payload = match body {
                Body::Owned(payload) => payload,
                Body::Shared(payload, _) => payload.clone(),
            };
            let inbox = &mut self.inboxes[to];
            let lane = if inject {
                &mut inbox.injected
            } else {
                &mut inbox.direct
            };
            lane.push(Received {
                from: PartyId(from),
                payload,
            });
        }
    }
}

/// Runs a protocol instance against an adversary until every honest party
/// outputs, with default engine tuning ([`StepMode::Auto`]).
///
/// `factory(id, n)` builds the party state machine for each id. The
/// adversary is invoked after the parties in every round (rushing) and may
/// adaptively corrupt up to `cfg.t` parties.
///
/// # Errors
///
/// * [`SimError::BadConfig`] if `n == 0` or `t >= n`.
/// * [`SimError::MaxRoundsExceeded`] if some honest party has no output
///   after `cfg.max_rounds` rounds — typically a deadlocked or
///   non-terminating protocol under test.
///
/// # Example
///
/// See the crate-level documentation.
pub fn run_simulation<P, A, F>(
    cfg: SimConfig,
    factory: F,
    adversary: A,
) -> Result<RunReport<P::Output>, SimError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    run_simulation_with(EngineConfig::from(cfg), factory, adversary)
}

/// [`run_simulation`] with explicit engine tuning (step mode).
///
/// The step mode cannot change observable behaviour — reports from any two
/// modes are equal — so choosing it is purely a throughput decision.
///
/// # Errors
///
/// As [`run_simulation`].
pub fn run_simulation_with<P, A, F>(
    cfg: EngineConfig,
    factory: F,
    adversary: A,
) -> Result<RunReport<P::Output>, SimError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    run_inner(cfg, factory, adversary, None, None)
}

/// [`run_simulation_with`] under a [`FaultPlan`], with the flight recorder
/// on: the engine applies the plan's scheduled crash/recovery windows and
/// partitions on top of whatever the Byzantine adversary does, and returns
/// the report together with the run's [`Trace`]. An empty plan
/// ([`FaultPlan::none`]) is observably identical to no plan: the report
/// and trace equal [`run_simulation_traced`]'s.
///
/// Lockstep fault semantics (the documented choice):
///
/// * **Crash (frozen).** While a party is down it is not stepped — its
///   protocol state is frozen — its sends are suppressed, and inbound
///   traffic is lost, except that traffic sent in the round immediately
///   preceding recovery is delivered (it arrives as the party comes back
///   up). On recovery the party is stepped again with the current
///   *absolute* round number, so fixed-schedule protocols stay aligned.
///   Parties still down when the run ends are reported in
///   [`RunReport::crashed`] with `None` outputs and are excluded from the
///   termination condition.
/// * **Partition.** A message crossing an active cut is dropped (traced as
///   a `fault_drop` event, costing nothing); a broadcast from a sender
///   with severed recipients is delivered as per-recipient unicasts to the
///   reachable side.
///
/// Every fault firing (crash, recovery, partition boundary, dropped
/// message) appears in the trace in a fixed order, so faulted traces
/// remain byte-identical across step modes.
///
/// # Errors
///
/// As [`run_simulation`], plus [`SimError::BadFaultPlan`] if the plan is
/// structurally invalid or uses probabilistic link faults (which have no
/// lockstep meaning — run those through `async-net`). The partial trace is
/// discarded on error.
pub fn run_simulation_faulted_traced<P, A, F>(
    cfg: EngineConfig,
    plan: &FaultPlan,
    factory: F,
    adversary: A,
) -> Result<(RunReport<P::Output>, Trace), SimError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    let mut trace = Trace::new(cfg.sim.n, cfg.sim.t, "");
    let report = run_inner(cfg, factory, adversary, Some(&mut trace), Some(plan))?;
    Ok((report, trace))
}

/// [`run_simulation_with`] with the flight recorder on: returns the report
/// together with a [`Trace`] of every round boundary, delivered send,
/// adversary action, and protocol-level event.
///
/// The trace is deterministic in the strongest sense: its canonical JSON is
/// **byte-identical** across step modes, because events are appended in a
/// fixed order derived from party ids, never from thread scheduling —
/// round start, protocol events in party-id order, adversary actions,
/// deliveries (broadcasts by sender id, then unicasts by sender id, then
/// injections in injection order), round end.
///
/// # Errors
///
/// As [`run_simulation`]; the partial trace is discarded on error.
pub fn run_simulation_traced<P, A, F>(
    cfg: EngineConfig,
    factory: F,
    adversary: A,
) -> Result<(RunReport<P::Output>, Trace), SimError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    let mut trace = Trace::new(cfg.sim.n, cfg.sim.t, "");
    let report = run_inner(cfg, factory, adversary, Some(&mut trace), None)?;
    Ok((report, trace))
}

fn run_inner<P, A, F>(
    cfg: EngineConfig,
    factory: F,
    mut adversary: A,
    mut trace: Option<&mut Trace>,
    plan: Option<&FaultPlan>,
) -> Result<RunReport<P::Output>, SimError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    let SimConfig { n, t, max_rounds } = cfg.sim;
    if n == 0 {
        return Err(SimError::BadConfig {
            reason: "n must be positive".into(),
        });
    }
    if t >= n {
        return Err(SimError::BadConfig {
            reason: format!("t = {t} must be < n = {n}"),
        });
    }
    if let Some(plan) = plan {
        plan.validate(n).map_err(|e| SimError::BadFaultPlan {
            reason: e.to_string(),
        })?;
        if !plan.lockstep_compatible() {
            return Err(SimError::BadFaultPlan {
                reason: "probabilistic link faults have no lockstep meaning; \
                         run this plan through async-net"
                    .into(),
            });
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = match cfg.step_mode {
        StepMode::Sequential => 1,
        StepMode::Parallel { threads: 0 } => cores,
        StepMode::Parallel { threads } => threads,
        StepMode::Auto => auto_threads(n, cores),
    };

    // The injections' trace events wait here until the unicasts' are
    // written.
    let mut injection_events: Vec<TraceEvent> = Vec::new();
    let mut factory = factory;
    let mut parties: Vec<P> = (0..n).map(|i| factory(PartyId(i), n)).collect();
    let mut corrupted = vec![false; n];
    let mut corrupted_count = 0usize;
    // Per-party inboxes. The `direct` and `injected` vectors are
    // persistent arenas — cleared, never dropped — and the broadcast list
    // is rebuilt once per round and shared by all n of them.
    let mut inboxes: Vec<Inbox<P::Msg>> = (0..n).map(|_| Inbox::empty()).collect();
    let mut prev_broadcasts = 0usize;
    let mut metrics = Metrics::default();
    // Fault-plan state: which parties are currently down (crashed).
    let mut down = vec![false; n];
    // Parties the adversary has taken over, and which parties are frozen
    // this round: down or taken over.
    let mut taken = vec![false; n];
    let mut frozen = vec![false; n];

    let tracing = trace.is_some();
    for round in 1..=max_rounds {
        // 0. Apply the fault plan's scheduled state for this round.
        let mut newly_crashed: Vec<usize> = Vec::new();
        let mut newly_recovered: Vec<usize> = Vec::new();
        if let Some(plan) = plan {
            for (party, was_down) in down.iter_mut().enumerate() {
                let now_down = plan.crashed_in(party, round);
                if now_down != *was_down {
                    if now_down {
                        newly_crashed.push(party);
                    } else {
                        newly_recovered.push(party);
                    }
                    *was_down = now_down;
                }
            }
        }

        // 1. Step every party that is not frozen, collecting tentative
        //    outboxes in id order. Corrupted parties are stepped too —
        //    their tentative traffic is shown to the adversary, supporting
        //    omission/semi-honest strategies — unless the adversary took
        //    them over in an earlier round. Frozen parties (taken over, or
        //    down under the fault plan) are not stepped and produce an
        //    empty outbox.
        for (f, (&d, &k)) in frozen.iter_mut().zip(down.iter().zip(&taken)) {
            *f = d || k;
        }
        let (tentative, party_events) =
            step_all(&mut parties, &inboxes, round, n, threads, tracing, &frozen);
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(round, EventKind::RoundStart);
            if let Some(plan) = plan {
                for (id, p) in plan.partitions.iter().enumerate() {
                    if p.from_round == round {
                        tr.push(round, EventKind::PartitionStart { id });
                    }
                    if p.heal_round == round {
                        tr.push(round, EventKind::PartitionHeal { id });
                    }
                }
            }
            for &party in &newly_crashed {
                tr.push(round, EventKind::FaultCrash { party });
            }
            for &party in &newly_recovered {
                tr.push(round, EventKind::FaultRecover { party });
            }
            for (party, log) in party_events.iter().enumerate() {
                for event in log.iter() {
                    tr.push(round, EventKind::Proto { party, event });
                }
            }
        }

        // 2. The adversary observes everything and acts (rushing,
        //    adaptive). Each injection passes `Delivery::copy` as it is
        //    sent, into its recipient's inbox. The step has read last
        //    round's injections, so those are cleared first.
        let corrupted_before = if tracing {
            corrupted.clone()
        } else {
            Vec::new()
        };
        let mut forwarded = vec![false; n];
        for inbox in &mut inboxes {
            inbox.injected.clear();
        }
        let injection_metrics = {
            let mut actx = AdversaryCtx {
                n,
                t,
                corrupted_count: &mut corrupted_count,
                tentative: &tentative,
                forwarded: &mut forwarded,
                net: Delivery {
                    round,
                    plan,
                    down: &down,
                    taken: &mut taken,
                    corrupted: &mut corrupted,
                    inboxes: &mut inboxes,
                    events: tracing.then_some(&mut injection_events),
                    metrics: RoundMetrics::default(),
                },
            };
            adversary.round(&mut actx);
            actx.net.metrics
        };
        if let Some(tr) = trace.as_deref_mut() {
            for i in 0..n {
                if corrupted[i] && !corrupted_before[i] {
                    tr.push(round, EventKind::Corrupt { party: i });
                }
            }
            for (i, &fwd) in forwarded.iter().enumerate() {
                if fwd {
                    tr.push(round, EventKind::Forward { party: i });
                }
            }
        }

        // 3. Deliver: honest tentative traffic verbatim; corrupted
        //    tentative traffic only if forwarded; the injections are
        //    queued already. Delivery order is deterministic: broadcasts
        //    by sender id, then unicasts by sender id, injections last in
        //    injection order. Broadcast payloads are moved into the shared
        //    list exactly once — no per-recipient clone, and `size_bytes`
        //    runs once per broadcast. Every other copy goes through
        //    `Delivery::copy`.
        for inbox in &mut inboxes {
            inbox.direct.clear();
        }
        let mut shared: Vec<Received<P::Msg>> = Vec::with_capacity(prev_broadcasts);
        let mut delivery = Delivery {
            round,
            plan,
            down: &down,
            taken: &mut taken,
            corrupted: &mut corrupted,
            inboxes: &mut inboxes,
            events: trace.as_deref_mut().map(|tr| &mut tr.events),
            metrics: injection_metrics,
        };
        for (i, outbox) in tentative.into_iter().enumerate() {
            if delivery.corrupted[i] && !forwarded[i] {
                continue;
            }
            let (unicasts, broadcasts) = outbox.into_parts();
            // Under an active partition a sender may not reach everyone:
            // its broadcasts fall back to per-recipient copies so the
            // reachable side still hears them.
            let cut = plan.is_some_and(|p| (0..n).any(|j| p.severed(round, i, j)));
            for payload in broadcasts {
                let bytes = payload.size_bytes();
                if cut {
                    for j in 0..n {
                        delivery.copy(i, j, false, Body::Shared(&payload, bytes));
                    }
                    continue;
                }
                let byzantine = delivery.charge(i, n, bytes);
                delivery.trace(|| EventKind::Broadcast {
                    from: i,
                    bytes,
                    byzantine,
                });
                shared.push(Received {
                    from: PartyId(i),
                    payload,
                });
            }
            for env in unicasts {
                delivery.copy(i, env.to.index(), false, Body::Owned(env.payload));
            }
        }
        let rm = delivery.metrics;
        if let Some(tr) = trace.as_deref_mut() {
            tr.events.append(&mut injection_events);
        }
        prev_broadcasts = shared.len();
        let shared = Arc::new(shared);
        for inbox in &mut inboxes {
            inbox.broadcasts = Arc::clone(&shared);
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(
                round,
                EventKind::RoundEnd {
                    honest_messages: rm.honest_messages,
                    byzantine_messages: rm.byzantine_messages,
                    bytes: rm.bytes,
                },
            );
        }
        metrics.per_round.push(rm);

        // 4. Termination check. Parties currently down are excluded: they
        //    cannot make progress, and a never-recovering crash must not
        //    block the others' termination.
        let all_honest_done =
            (0..n).all(|i| corrupted[i] || down[i] || parties[i].output().is_some());
        if all_honest_done {
            let outputs = parties
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    if corrupted[i] || down[i] {
                        None
                    } else {
                        p.output()
                    }
                })
                .collect();
            return Ok(RunReport {
                outputs,
                corrupted,
                crashed: down,
                rounds_executed: round,
                metrics,
            });
        }
    }

    Err(SimError::MaxRoundsExceeded { max_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashAdversary, Passive, ScriptedAdversary, StaticByzantine};

    /// Round 1: broadcast own id. Round 2: output the multiset of senders
    /// seen.
    struct EchoParty {
        seen: Option<Vec<usize>>,
    }

    impl Protocol for EchoParty {
        type Msg = u64;
        type Output = Vec<usize>;
        fn step(&mut self, round: u32, inbox: &Inbox<u64>, ctx: &mut RoundCtx<u64>) {
            if round == 1 {
                ctx.broadcast(ctx.me().index() as u64);
            } else if self.seen.is_none() {
                let mut s: Vec<usize> = inbox.iter().map(|e| e.from.index()).collect();
                s.sort_unstable();
                self.seen = Some(s);
            }
        }
        fn output(&self) -> Option<Vec<usize>> {
            self.seen.clone()
        }
    }

    fn echo_factory(_id: PartyId, _n: usize) -> EchoParty {
        EchoParty { seen: None }
    }

    #[test]
    fn all_honest_all_delivered() {
        let cfg = SimConfig {
            n: 5,
            t: 0,
            max_rounds: 5,
        };
        let report = run_simulation(cfg, echo_factory, Passive).unwrap();
        assert_eq!(report.rounds_executed, 2);
        for out in report.honest_outputs() {
            assert_eq!(out, vec![0, 1, 2, 3, 4]);
        }
        // 5 broadcasts of 5 messages in round 1.
        assert_eq!(report.metrics.total_messages(), 25);
        assert_eq!(report.communication_rounds(), 1);
    }

    #[test]
    fn crashed_party_is_silent_and_outputless() {
        let cfg = SimConfig {
            n: 4,
            t: 1,
            max_rounds: 5,
        };
        let adv = CrashAdversary {
            crashes: vec![(PartyId(2), 1)],
        };
        let report = run_simulation(cfg, echo_factory, adv).unwrap();
        assert!(report.corrupted[2]);
        assert!(report.outputs[2].is_none());
        for (i, out) in report.outputs.iter().enumerate() {
            if i != 2 {
                assert_eq!(out.as_ref().unwrap(), &vec![0, 1, 3]);
            }
        }
    }

    #[test]
    fn late_crash_after_broadcast_still_counts_round1_traffic() {
        let cfg = SimConfig {
            n: 4,
            t: 1,
            max_rounds: 5,
        };
        let adv = CrashAdversary {
            crashes: vec![(PartyId(2), 2)],
        };
        let report = run_simulation(cfg, echo_factory, adv).unwrap();
        // p2 broadcast in round 1 before crashing in round 2.
        for (i, out) in report.outputs.iter().enumerate() {
            if i != 2 {
                assert_eq!(out.as_ref().unwrap(), &vec![0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn equivocation_reaches_different_recipients() {
        let cfg = SimConfig {
            n: 4,
            t: 1,
            max_rounds: 5,
        };
        let adv = StaticByzantine {
            parties: vec![PartyId(0)],
            behave: |ctx: &mut AdversaryCtx<'_, u64>| {
                if ctx.round() == 1 {
                    ctx.send(PartyId(0), PartyId(1), 100);
                    ctx.send(PartyId(0), PartyId(2), 200);
                }
            },
        };
        struct Recorder {
            got: Option<Vec<(usize, u64)>>,
        }
        impl Protocol for Recorder {
            type Msg = u64;
            type Output = Vec<(usize, u64)>;
            fn step(&mut self, round: u32, inbox: &Inbox<u64>, _ctx: &mut RoundCtx<u64>) {
                if round == 2 {
                    self.got = Some(inbox.iter().map(|e| (e.from.index(), e.payload)).collect());
                }
            }
            fn output(&self) -> Option<Self::Output> {
                self.got.clone()
            }
        }
        let report = run_simulation(cfg, |_, _| Recorder { got: None }, adv).unwrap();
        assert_eq!(report.outputs[1].as_ref().unwrap(), &vec![(0, 100)]);
        assert_eq!(report.outputs[2].as_ref().unwrap(), &vec![(0, 200)]);
        assert_eq!(report.outputs[3].as_ref().unwrap(), &Vec::new());
    }

    #[test]
    fn forwarding_models_semi_honest_corruption() {
        let cfg = SimConfig {
            n: 3,
            t: 1,
            max_rounds: 5,
        };
        let adv = ScriptedAdversary(|ctx: &mut AdversaryCtx<'_, u64>| {
            if ctx.round() == 1 {
                ctx.corrupt(PartyId(0)).unwrap();
                ctx.forward(PartyId(0)); // behave honestly this round
            }
        });
        let report = run_simulation(cfg, echo_factory, adv).unwrap();
        for (i, out) in report.outputs.iter().enumerate() {
            if i != 0 {
                assert_eq!(out.as_ref().unwrap(), &vec![0, 1, 2]);
            }
        }
    }

    #[test]
    fn nontermination_is_reported() {
        struct Mute;
        impl Protocol for Mute {
            type Msg = u64;
            type Output = ();
            fn step(&mut self, _r: u32, _i: &Inbox<u64>, _c: &mut RoundCtx<u64>) {}
            fn output(&self) -> Option<()> {
                None
            }
        }
        let cfg = SimConfig {
            n: 2,
            t: 0,
            max_rounds: 7,
        };
        let err = run_simulation(cfg, |_, _| Mute, Passive).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { max_rounds: 7 });
    }

    #[test]
    fn bad_configs_rejected() {
        let err = run_simulation(
            SimConfig {
                n: 0,
                t: 0,
                max_rounds: 1,
            },
            echo_factory,
            Passive,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadConfig { .. }));
        let err = run_simulation(
            SimConfig {
                n: 3,
                t: 3,
                max_rounds: 1,
            },
            echo_factory,
            Passive,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadConfig { .. }));
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let cfg = SimConfig {
            n: 6,
            t: 1,
            max_rounds: 5,
        };
        let run = || {
            let adv = CrashAdversary {
                crashes: vec![(PartyId(5), 1)],
            };
            run_simulation(cfg, echo_factory, adv).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }

    #[test]
    fn auto_resolves_sequential_below_threshold_parallel_above() {
        // On a multi-core host, Auto switches exactly at the measured
        // threshold…
        assert_eq!(auto_threads(PARALLEL_THRESHOLD - 1, 8), 1);
        assert_eq!(auto_threads(PARALLEL_THRESHOLD, 8), 8);
        assert_eq!(auto_threads(4 * PARALLEL_THRESHOLD, 2), 2);
        // …never runs more workers than parties…
        assert_eq!(
            auto_threads(PARALLEL_THRESHOLD, 2 * PARALLEL_THRESHOLD),
            PARALLEL_THRESHOLD
        );
        // …and stays sequential on a single core at any size, where a
        // worker pool can only add overhead.
        assert_eq!(auto_threads(1, 1), 1);
        assert_eq!(auto_threads(4096, 1), 1);
    }

    #[test]
    fn step_modes_produce_equal_reports() {
        for mode in [
            StepMode::Sequential,
            StepMode::Parallel { threads: 1 },
            StepMode::Parallel { threads: 3 },
            StepMode::Parallel { threads: 0 },
            StepMode::Auto,
        ] {
            let cfg = EngineConfig {
                sim: SimConfig {
                    n: 7,
                    t: 1,
                    max_rounds: 5,
                },
                step_mode: mode,
            };
            let adv = CrashAdversary {
                crashes: vec![(PartyId(6), 1)],
            };
            let report = run_simulation_with(cfg, echo_factory, adv).unwrap();
            let reference = run_simulation_with(
                EngineConfig {
                    sim: cfg.sim,
                    step_mode: StepMode::Sequential,
                },
                echo_factory,
                CrashAdversary {
                    crashes: vec![(PartyId(6), 1)],
                },
            )
            .unwrap();
            assert_eq!(report, reference, "mode {mode:?} diverged");
        }
    }

    #[test]
    fn traced_run_is_mode_invariant_and_reconciles_with_metrics() {
        let sim = SimConfig {
            n: 6,
            t: 1,
            max_rounds: 5,
        };
        let run = |mode| {
            let adv = CrashAdversary {
                crashes: vec![(PartyId(5), 2)],
            };
            run_simulation_traced(
                EngineConfig {
                    sim,
                    step_mode: mode,
                },
                echo_factory,
                adv,
            )
            .unwrap()
        };
        let (report_seq, trace_seq) = run(StepMode::Sequential);
        let (report_par, trace_par) = run(StepMode::Parallel { threads: 3 });
        assert_eq!(report_seq, report_par);
        assert_eq!(
            trace_seq.to_canonical_string(),
            trace_par.to_canonical_string(),
            "trace must be byte-identical across step modes"
        );
        aa_trace::check_round_totals(&trace_seq).unwrap();
        let totals = aa_trace::recomputed_totals(&trace_seq);
        assert_eq!(totals.honest_messages, report_seq.metrics.honest_messages());
        assert_eq!(totals.messages(), report_seq.metrics.total_messages());
        assert_eq!(totals.bytes, report_seq.metrics.total_bytes());
        // The crash shows up as a corruption event in round 2.
        assert!(trace_seq
            .events
            .iter()
            .any(|e| e.round == 2 && e.kind == EventKind::Corrupt { party: 5 }));
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let sim = SimConfig {
            n: 4,
            t: 0,
            max_rounds: 5,
        };
        let plain = run_simulation(sim, echo_factory, Passive).unwrap();
        let (traced, trace) =
            run_simulation_traced(EngineConfig::from(sim), echo_factory, Passive).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(trace.n, 4);
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| e.kind == EventKind::RoundStart)
                .count() as u32,
            traced.rounds_executed
        );
    }

    /// A payload whose clones are observable: the engine must never clone
    /// a broadcast payload per recipient.
    #[test]
    fn broadcast_costs_no_per_recipient_clones() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CLONES: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug)]
        struct Counted(#[allow(dead_code)] Vec<u8>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::SeqCst);
                Counted(self.0.clone())
            }
        }
        impl Payload for Counted {}

        struct OneShot {
            done: bool,
        }
        impl Protocol for OneShot {
            type Msg = Counted;
            type Output = ();
            fn step(&mut self, round: u32, _inbox: &Inbox<Counted>, ctx: &mut RoundCtx<Counted>) {
                if round == 1 {
                    ctx.broadcast(Counted(vec![0; 1024]));
                } else {
                    self.done = true;
                }
            }
            fn output(&self) -> Option<()> {
                self.done.then_some(())
            }
        }

        let n = 16;
        let report = run_simulation(
            SimConfig {
                n,
                t: 0,
                max_rounds: 3,
            },
            |_, _| OneShot { done: false },
            Passive,
        )
        .unwrap();
        // n broadcasts were delivered to all n parties…
        assert_eq!(report.metrics.total_messages(), n * n);
        // …and not a single payload clone happened anywhere: every payload
        // was moved from the broadcaster into the shared round list.
        assert_eq!(CLONES.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn broadcast_bytes_count_every_recipient() {
        struct Wide {
            done: bool,
        }
        impl Protocol for Wide {
            type Msg = String;
            type Output = ();
            fn step(&mut self, round: u32, _inbox: &Inbox<String>, ctx: &mut RoundCtx<String>) {
                if round == 1 {
                    ctx.broadcast("xxxxxxxxxx".to_string()); // 10 bytes
                } else {
                    self.done = true;
                }
            }
            fn output(&self) -> Option<()> {
                self.done.then_some(())
            }
        }
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 0,
                max_rounds: 3,
            },
            |_, _| Wide { done: false },
            Passive,
        )
        .unwrap();
        // 4 broadcasts × 10 bytes × 4 recipients.
        assert_eq!(report.metrics.total_bytes(), 4 * 10 * 4);
    }
}
