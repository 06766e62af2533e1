//! A deterministic event-driven **asynchronous** network simulator.
//!
//! The reproduced paper works in the synchronous model, but its headline
//! comparison is against the *asynchronous* state of the art (Nowak &
//! Rybicki's `O(log D)`-round protocol). This crate provides the matching
//! execution substrate: messages are delivered *eventually*, in an order
//! controlled by a delay model rather than in lockstep rounds.
//!
//! # Model
//!
//! * Parties are event handlers ([`AsyncProtocol`]): they act once at
//!   start-up and then upon each delivered message or fired timer; there
//!   are no rounds.
//! * Every sent message is assigned a delivery delay by the
//!   [`DelayModel`]; following the standard convention for measuring
//!   asynchronous *time complexity*, delays are normalized to `(0, 1]` —
//!   so the completion time of a run counts "longest-chain units", the
//!   async analogue of rounds.
//! * Up to `t` statically corrupted parties are driven by an
//!   [`AsyncAdversary`], which reacts to every message delivered to a
//!   corrupted party and may inject arbitrary (per-recipient) messages
//!   from corrupted senders. Channels remain authenticated.
//! * On top of the adversary, a benign [`FaultPlan`] may be injected
//!   ([`run_async_faulted`]): seed-driven per-message drop, duplication
//!   and delay spikes, scheduled partitions, and crash-with-recovery
//!   windows. The [`Reliable`] sublayer (acks + retransmission + dedup)
//!   restores exactly-once delivery over such lossy links.
//! * Determinism: a run is a pure function of (config, protocol,
//!   adversary, fault plan); all randomness comes from the seeded delay
//!   model and the plan's own seed, and none of it depends on the
//!   `max_events` headroom.
//!
//! # Example
//!
//! ```
//! use async_net::{run_async, AsyncConfig, AsyncCtx, AsyncProtocol, DelayModel, PassiveAsync};
//! use sim_net::{Envelope, PartyId};
//!
//! /// Everybody announces its id once; output after hearing from all.
//! struct Census { heard: usize, n: usize }
//! impl AsyncProtocol for Census {
//!     type Msg = u64;
//!     type Output = usize;
//!     fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
//!         ctx.broadcast(ctx.me().index() as u64);
//!     }
//!     fn on_message(&mut self, _e: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {
//!         self.heard += 1;
//!     }
//!     fn output(&self) -> Option<usize> {
//!         (self.heard >= self.n).then_some(self.heard)
//!     }
//! }
//!
//! let cfg = AsyncConfig { n: 4, t: 0, seed: 1, delay: DelayModel::Uniform { min: 0.1 },
//!                         max_events: 10_000 };
//! let report = run_async(cfg, |_, n| Census { heard: 0, n }, PassiveAsync).unwrap();
//! assert!(report.outputs.iter().all(|o| *o == Some(4)));
//! assert!(report.completion_time <= 1.0); // one async "round"
//! ```

#![warn(missing_docs)]
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_net::{Envelope, FaultPlan, PartyId, Payload};

mod reliable;
mod virtual_time;

pub use aa_trace::{EventLog, ProtoEvent};
pub use reliable::{RelMsg, Reliable, RETRANSMIT_BIT};
pub use virtual_time::{link_delay, splitmix64, AsyncRecorder, VKey, VirtualScheduler};

/// How message delays are drawn. All models produce delays in `(0, 1]`
/// (the async-time normalization); [`DelayModel::validate`] checks the
/// parameters up front and every sampled delay is debug-asserted against
/// the bound.
#[derive(Clone, Debug)]
pub enum DelayModel {
    /// Independent uniform delays in `[min, 1]` (so still within the
    /// normalized `(0, 1]` as long as `0 < min <= 1`).
    Uniform {
        /// Lower bound (must satisfy `0 < min <= 1`).
        min: f64,
    },
    /// Every message takes exactly `1` — degenerates to lockstep rounds,
    /// useful for comparing against the synchronous simulator.
    Lockstep,
    /// Messages *to or from* the listed parties always take the maximal
    /// delay 1, everyone else `min` — the classic "slow honest minority"
    /// schedule that stresses `n − t` waiting rules.
    SlowParties {
        /// The slowed parties.
        slow: Vec<PartyId>,
        /// Fast-path delay (must satisfy `0 < min <= 1`).
        min: f64,
    },
}

impl DelayModel {
    /// Checks that the model's parameters keep every sampled delay inside
    /// the documented `(0, 1]` normalization.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            DelayModel::Lockstep => Ok(()),
            DelayModel::Uniform { min } | DelayModel::SlowParties { min, .. } => {
                if *min > 0.0 && *min <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("min delay {min} must be in (0, 1]"))
                }
            }
        }
    }

    fn sample(&self, env: &Envelope<impl Payload>, rng: &mut ChaCha8Rng) -> f64 {
        let delay = match self {
            DelayModel::Uniform { min } => rng.gen_range(*min..=1.0),
            DelayModel::Lockstep => 1.0,
            DelayModel::SlowParties { slow, min } => {
                if slow.contains(&env.from) || slow.contains(&env.to) {
                    1.0
                } else {
                    *min
                }
            }
        };
        debug_assert!(
            delay > 0.0 && delay <= 1.0,
            "sampled delay {delay} violates the (0, 1] normalization"
        );
        delay
    }
}

/// Static parameters of an asynchronous run.
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound (statically corrupted parties are chosen by the
    /// adversary through [`AsyncAdversary::corrupted`]).
    pub t: usize,
    /// Seed for the delay model.
    pub seed: u64,
    /// The delay model.
    pub delay: DelayModel,
    /// Hard stop: error out if honest parties have not all terminated
    /// after this many queue events.
    pub max_events: usize,
}

/// Per-activation sending context.
#[derive(Debug)]
pub struct AsyncCtx<M> {
    me: PartyId,
    n: usize,
    now: f64,
    outbox: Vec<Envelope<M>>,
    timers: Vec<(f64, u64)>,
    retransmits: usize,
    log: EventLog,
    tracing: bool,
}

/// Everything an activation produced, for transports that drive
/// [`AsyncProtocol`] handlers outside the in-process run loop (the real
/// TCP nodes in `crates/net`). Obtained via [`AsyncCtx::into_parts`].
#[derive(Debug)]
pub struct CtxParts<M> {
    /// Messages sent during the activation, in send order.
    pub outbox: Vec<Envelope<M>>,
    /// Timers set during the activation, as `(delay, token)`.
    pub timers: Vec<(f64, u64)>,
    /// The log of the protocol events emitted during the activation
    /// (empty unless the context was created with tracing enabled).
    pub log: EventLog,
    /// Retransmissions credited via [`AsyncCtx::note_retransmit`].
    pub retransmits: usize,
}

impl<M: Payload> AsyncCtx<M> {
    fn new(me: PartyId, n: usize, now: f64) -> Self {
        AsyncCtx {
            me,
            n,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            retransmits: 0,
            log: EventLog::new(),
            tracing: false,
        }
    }

    /// A context for driving a protocol handler outside the in-process run
    /// loop — the transport seam used by the real-socket backend. Collect
    /// the resulting sends/timers/events with [`AsyncCtx::into_parts`].
    #[must_use]
    pub fn external(me: PartyId, n: usize, now: f64, tracing: bool) -> Self {
        let mut ctx = AsyncCtx::new(me, n, now);
        ctx.tracing = tracing;
        ctx
    }

    /// Consumes the context into its accumulated effects.
    #[must_use]
    pub fn into_parts(self) -> CtxParts<M> {
        CtxParts {
            outbox: self.outbox,
            timers: self.timers,
            log: self.log,
            retransmits: self.retransmits,
        }
    }

    /// This party's id.
    pub fn me(&self) -> PartyId {
        self.me
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Whether this activation is being recorded. Protocols rarely need
    /// this — [`AsyncCtx::emit_with`] already gates on it — but adapters
    /// that drive an inner synchronous protocol (real-aa's bundled party)
    /// use it to pick a traced inner context up front.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Sends `msg` to `to` (delivered after a model-chosen delay).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn send(&mut self, to: PartyId, msg: M) {
        assert!(to.index() < self.n, "recipient {to} out of range");
        self.outbox.push(Envelope {
            from: self.me,
            to,
            payload: msg,
        });
    }

    /// Sends `msg` to every party (including the sender).
    pub fn broadcast(&mut self, msg: M) {
        for i in 0..self.n {
            self.outbox.push(Envelope {
                from: self.me,
                to: PartyId(i),
                payload: msg.clone(),
            });
        }
    }

    /// Schedules [`AsyncProtocol::on_timer`] for this party `delay` time
    /// units from now, carrying `token`. Timers are local: they are exempt
    /// from link faults, though a crashed party's timers are deferred to
    /// its recovery instant.
    pub fn set_timer(&mut self, delay: f64, token: u64) {
        debug_assert!(delay > 0.0, "timer delay must be positive");
        self.timers.push((delay, token));
    }

    /// Records one protocol-level retransmission, surfaced in
    /// [`AsyncMetrics::retransmissions`]. Called by the [`Reliable`]
    /// sublayer; available to any protocol that re-sends.
    pub fn note_retransmit(&mut self) {
        self.retransmits += 1;
    }

    /// Emits a protocol-level trace event. Zero-cost when the run is not
    /// recorded: the closure is only evaluated under an active
    /// [`AsyncRecorder`] (mirroring `sim_net::RoundCtx::emit_with`), and
    /// then the built event is packed into the activation's log at once.
    pub fn emit_with(&mut self, f: impl FnOnce() -> ProtoEvent) {
        if self.tracing {
            self.log.push(f());
        }
    }

    /// Hands over the log of an inner context this activation drove (a
    /// synchronous protocol's `RoundCtx`), as if its events had been
    /// emitted here. Dropped when the run is not recorded.
    pub fn absorb_log(&mut self, log: EventLog) {
        if self.tracing {
            self.log.append(log);
        }
    }
}

/// An asynchronous protocol: a per-party event handler.
pub trait AsyncProtocol {
    /// Message type.
    type Msg: Payload;
    /// Output type.
    type Output: Clone;

    /// Called once at time 0.
    fn on_start(&mut self, ctx: &mut AsyncCtx<Self::Msg>);

    /// Called on each delivered message. Implementations should keep
    /// responding even after producing an output — asynchronous peers may
    /// still depend on their cooperation.
    fn on_message(&mut self, env: Envelope<Self::Msg>, ctx: &mut AsyncCtx<Self::Msg>);

    /// Called when a timer set through [`AsyncCtx::set_timer`] fires.
    /// The default implementation ignores timers.
    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<Self::Msg>) {
        let _ = (token, ctx);
    }

    /// The party's output once decided.
    fn output(&self) -> Option<Self::Output>;
}

/// The asynchronous Byzantine adversary: statically corrupts a set and
/// reacts to messages delivered to corrupted parties by injecting
/// arbitrary traffic from corrupted senders.
pub trait AsyncAdversary<M: Payload> {
    /// The statically corrupted set (must have at most `t` members).
    fn corrupted(&self) -> Vec<PartyId>;

    /// Called at time 0; `sends` collects `(from, to, msg)` injections
    /// (`from` must be corrupted).
    fn on_start(&mut self, sends: &mut Vec<(PartyId, PartyId, M)>);

    /// Called whenever `env` is delivered to corrupted party `env.to`.
    fn on_deliver(&mut self, env: &Envelope<M>, sends: &mut Vec<(PartyId, PartyId, M)>);
}

/// The do-nothing adversary (no corruption).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassiveAsync;

impl<M: Payload> AsyncAdversary<M> for PassiveAsync {
    fn corrupted(&self) -> Vec<PartyId> {
        Vec::new()
    }
    fn on_start(&mut self, _sends: &mut Vec<(PartyId, PartyId, M)>) {}
    fn on_deliver(&mut self, _env: &Envelope<M>, _sends: &mut Vec<(PartyId, PartyId, M)>) {}
}

/// Crash-at-start faults: the corrupted parties never send anything.
#[derive(Clone, Debug)]
pub struct SilentAsync {
    /// The crashed set.
    pub parties: Vec<PartyId>,
}

impl<M: Payload> AsyncAdversary<M> for SilentAsync {
    fn corrupted(&self) -> Vec<PartyId> {
        self.parties.clone()
    }
    fn on_start(&mut self, _sends: &mut Vec<(PartyId, PartyId, M)>) {}
    fn on_deliver(&mut self, _env: &Envelope<M>, _sends: &mut Vec<(PartyId, PartyId, M)>) {}
}

/// Why an asynchronous run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum AsyncSimError {
    /// `n == 0`, `t >= n`, an invalid delay model, or the adversary
    /// corrupted more than `t`.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The event queue drained or the event budget ran out before all
    /// honest parties produced outputs — an asynchronous deadlock.
    Stalled {
        /// Events processed before stalling.
        events: usize,
    },
    /// The fault plan is structurally invalid for this network.
    BadFaultPlan {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for AsyncSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsyncSimError::BadConfig { reason } => write!(f, "bad async config: {reason}"),
            AsyncSimError::Stalled { events } => {
                write!(f, "asynchronous deadlock after {events} delivery events")
            }
            AsyncSimError::BadFaultPlan { reason } => write!(f, "bad fault plan: {reason}"),
        }
    }
}

impl Error for AsyncSimError {}

/// Counters describing what the substrate (and the fault plan) did during
/// one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncMetrics {
    /// Messages delivered (to honest and corrupted recipients alike).
    pub delivered: usize,
    /// Protocol-level retransmissions (see [`AsyncCtx::note_retransmit`]).
    pub retransmissions: usize,
    /// Messages lost to the fault plan: probabilistic drops, severed
    /// partition links, and deliveries to crashed recipients.
    pub fault_drops: usize,
    /// Extra copies injected by the fault plan's duplication faults.
    pub fault_dups: usize,
    /// Messages whose delay was forced to the maximum by a spike fault.
    pub fault_delay_spikes: usize,
    /// Timer activations delivered to protocols.
    pub timer_fires: usize,
}

/// The result of a completed asynchronous run.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncReport<O> {
    /// Per-party outputs; `None` exactly for corrupted parties and
    /// permanently crashed (never-recovering) parties.
    pub outputs: Vec<Option<O>>,
    /// Which parties were corrupted.
    pub corrupted: Vec<bool>,
    /// Which honest parties were permanently crashed by the fault plan
    /// (all `false` on plan-free runs).
    pub crashed: Vec<bool>,
    /// Time (in normalized delay units ≤ 1 per hop) at which the last
    /// honest party decided — the asynchronous analogue of round
    /// complexity.
    pub completion_time: f64,
    /// Total messages delivered.
    pub messages_delivered: usize,
    /// Substrate counters (retransmissions, fault firings, timers).
    pub metrics: AsyncMetrics,
}

impl<O: Clone> AsyncReport<O> {
    /// Outputs of the honest (and not permanently crashed) parties only.
    pub fn honest_outputs(&self) -> Vec<O> {
        self.outputs
            .iter()
            .zip(self.corrupted.iter().zip(&self.crashed))
            .filter(|(_, (&c, &d))| !c && !d)
            .map(|(o, _)| o.clone().expect("honest parties decide on success"))
            .collect()
    }
}

/// What a scheduler hands back to the run loop: a message delivery or a
/// local timer firing.
#[derive(Clone, Debug)]
pub enum SchedEvent<M> {
    /// Deliver `env` to `env.to`.
    Deliver(Envelope<M>),
    /// Fire `party`'s timer carrying `token`.
    Timer {
        /// The timer's owner.
        party: PartyId,
        /// The token passed back to [`AsyncProtocol::on_timer`].
        token: u64,
    },
}

/// The pluggable event-selection policy of an asynchronous run.
///
/// The run loop ([`run_async_with`]) is scheduler-agnostic: it pushes
/// every send and timer into the scheduler and activates whatever the
/// scheduler pops next. [`SeededScheduler`] reproduces the classic
/// seeded delay-model semantics ([`run_async`] / [`run_async_faulted`]
/// are thin wrappers over it); exhaustive-exploration tools implement
/// this trait to *enumerate* delivery orders instead of sampling one.
pub trait Scheduler<M: Payload> {
    /// Accepts a message sent at time `now`. The scheduler decides when
    /// (and, for fault-modelling schedulers, whether) it is delivered.
    fn push_send(&mut self, now: f64, env: Envelope<M>);

    /// Accepts a timer set at time `now` to fire `delay` units later. The
    /// run loop also defers a crashed party's timer to its recovery
    /// instant `rt` through `push_timer(rt, party, token, 0.0)`.
    fn push_timer(&mut self, now: f64, party: PartyId, token: u64, delay: f64);

    /// Pops the next event together with its delivery time, or `None`
    /// when no event remains.
    fn pop(&mut self) -> Option<(f64, SchedEvent<M>)>;

    /// The substrate counters this scheduler accumulates; the run loop
    /// also bumps `timer_fires`, `fault_drops` and `delivered` through
    /// this access.
    fn metrics_mut(&mut self) -> &mut AsyncMetrics;
}

/// An event in the delivery queue, ordered by time then sequence number
/// (for determinism).
struct Event<M> {
    time: f64,
    seq: u64,
    what: SchedEvent<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == std::cmp::Ordering::Equal && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The synchronous round a moment of async time belongs to: a message
/// sent at time `s` counts as round `⌊s⌋ + 1` traffic, aligning the
/// fault plan's round-indexed windows with normalized async time (round
/// `r` spans the time interval `[r − 1, r)`).
#[must_use]
pub fn round_of(time: f64) -> u32 {
    let floored = time.max(0.0).floor();
    if floored >= f64::from(u32::MAX - 1) {
        u32::MAX - 1
    } else {
        floored as u32 + 1
    }
}

/// When a party down at `round` will be back up, in time units; `None`
/// if it never recovers.
fn recovery_time(plan: &FaultPlan, party: usize, round: u32) -> Option<f64> {
    plan.crashes
        .iter()
        .filter(|c| c.party == party && c.down(round))
        .map(|c| c.recover_round)
        .max()
        .and_then(|rr| (rr != u32::MAX).then(|| f64::from(rr - 1)))
}

/// The classic seeded scheduler: a time-ordered event queue plus
/// everything needed to push into it — delay sampling, fault-plan
/// application, and the metric counters. This is the [`Scheduler`] that
/// [`run_async`] and [`run_async_faulted`] run on.
pub struct SeededScheduler<'a, M: Payload> {
    heap: BinaryHeap<Reverse<Event<M>>>,
    seq: u64,
    delay: &'a DelayModel,
    rng: ChaCha8Rng,
    plan: Option<&'a FaultPlan>,
    fault_rng: ChaCha8Rng,
    metrics: AsyncMetrics,
}

impl<'a, M: Payload> SeededScheduler<'a, M> {
    /// Builds the scheduler for `cfg` (and optionally a fault plan whose
    /// link faults it applies at push time).
    pub fn new(cfg: &'a AsyncConfig, plan: Option<&'a FaultPlan>) -> Self {
        SeededScheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            delay: &cfg.delay,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            plan,
            fault_rng: ChaCha8Rng::seed_from_u64(plan.map_or(0, |p| p.seed)),
            metrics: AsyncMetrics::default(),
        }
    }

    fn push_raw(&mut self, time: f64, what: SchedEvent<M>) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            what,
        }));
    }
}

impl<M: Payload> Scheduler<M> for SeededScheduler<'_, M> {
    /// Queues a message sent at `now`, applying link faults. The main
    /// delay stream sees exactly one draw per logical send whether or not
    /// a plan is active, so a plan never perturbs the base schedule.
    fn push_send(&mut self, now: f64, env: Envelope<M>) {
        if let Some(plan) = self.plan {
            if plan.severed(round_of(now), env.from.index(), env.to.index()) {
                self.metrics.fault_drops += 1;
                return;
            }
        }
        let mut delay = self.delay.sample(&env, &mut self.rng);
        let mut duplicate = None;
        if let Some(plan) = self.plan {
            if !plan.lockstep_compatible() {
                // Fixed draw order per send: drop, duplicate, spike.
                let drop_roll = self.fault_rng.gen_range(0..1000u32);
                let dup_roll = self.fault_rng.gen_range(0..1000u32);
                let spike_roll = self.fault_rng.gen_range(0..1000u32);
                if drop_roll < plan.drop_permille {
                    self.metrics.fault_drops += 1;
                    return;
                }
                if spike_roll < plan.delay_spike_permille {
                    self.metrics.fault_delay_spikes += 1;
                    delay = 1.0;
                }
                if dup_roll < plan.dup_permille {
                    self.metrics.fault_dups += 1;
                    duplicate = Some(self.delay.sample(&env, &mut self.fault_rng));
                }
            }
        }
        if let Some(dup_delay) = duplicate {
            self.push_raw(now + dup_delay, SchedEvent::Deliver(env.clone()));
        }
        self.push_raw(now + delay, SchedEvent::Deliver(env));
    }

    fn push_timer(&mut self, now: f64, party: PartyId, token: u64, delay: f64) {
        self.push_raw(now + delay, SchedEvent::Timer { party, token });
    }

    fn pop(&mut self) -> Option<(f64, SchedEvent<M>)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.what))
    }

    fn metrics_mut(&mut self) -> &mut AsyncMetrics {
        &mut self.metrics
    }
}

/// Runs an asynchronous protocol instance to completion (no fault plan).
///
/// # Errors
///
/// * [`AsyncSimError::BadConfig`] for invalid `n`/`t`, an invalid delay
///   model, or an oversized corrupted set;
/// * [`AsyncSimError::Stalled`] if honest parties stop making progress
///   (queue drained) or `max_events` is exceeded.
pub fn run_async<P, A, F>(
    cfg: AsyncConfig,
    factory: F,
    adversary: A,
) -> Result<AsyncReport<P::Output>, AsyncSimError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    let mut sched = SeededScheduler::new(&cfg, None);
    run_async_with(&cfg, None, factory, adversary, &mut sched, None)
}

/// [`run_async`] under a [`FaultPlan`]: probabilistic drop, duplication
/// and delay-spike faults per message, plus scheduled partitions and
/// crash/recovery windows mapped onto async time (round `r` spans the
/// time interval `[r − 1, r)`).
///
/// Async fault semantics (the documented choice):
///
/// * drop/duplicate/spike decisions are drawn from a dedicated RNG seeded
///   by `plan.seed`, in delivery order — independent of `max_events`
///   headroom and never perturbing the base delay schedule;
/// * a message is dropped if its link is severed at *send* time, or by a
///   probabilistic drop, or if its recipient is down at *delivery* time;
/// * a crashed party is frozen: it processes nothing while down, and its
///   timers due during the outage fire at the recovery instant instead
///   (timers of never-recovering parties are discarded);
/// * permanently crashed parties are excluded from termination, reported
///   in [`AsyncReport::crashed`] with `None` outputs.
///
/// Bare protocols generally stall under lossy plans — wrap them in
/// [`Reliable`] to restore guaranteed delivery on eventually-connected
/// links.
///
/// # Errors
///
/// As [`run_async`], plus [`AsyncSimError::BadFaultPlan`] for a
/// structurally invalid plan.
pub fn run_async_faulted<P, A, F>(
    cfg: AsyncConfig,
    plan: &FaultPlan,
    factory: F,
    adversary: A,
) -> Result<AsyncReport<P::Output>, AsyncSimError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
{
    let mut sched = SeededScheduler::new(&cfg, Some(plan));
    run_async_with(&cfg, Some(plan), factory, adversary, &mut sched, None)
}

/// Drains an activation context into the scheduler: sends, timers,
/// retransmission credit, and (when recording) emitted protocol events.
fn flush_ctx<M: Payload, S: Scheduler<M>>(
    sched: &mut S,
    ctx: AsyncCtx<M>,
    recorder: Option<&mut AsyncRecorder>,
) {
    let AsyncCtx {
        me,
        now,
        outbox,
        timers,
        retransmits,
        log,
        ..
    } = ctx;
    if let Some(rec) = recorder {
        rec.record_activation(now, me.index(), log);
    }
    sched.metrics_mut().retransmissions += retransmits;
    for env in outbox {
        sched.push_send(now, env);
    }
    for (delay, token) in timers {
        sched.push_timer(now, me, token, delay);
    }
}

/// Runs an asynchronous protocol on a caller-supplied [`Scheduler`] —
/// the substrate-level entry point behind [`run_async`] and
/// [`run_async_faulted`]. `plan` drives the run loop's crash handling
/// (deferred timers, dropped deliveries to crashed recipients); link
/// faults are the scheduler's own business.
///
/// With a `recorder`, protocol events emitted via
/// [`AsyncCtx::emit_with`] are captured into it, stamped with their
/// virtual time and per-party emission ordinal. Pair with a
/// [`VirtualScheduler`] to produce the in-process reference trace the
/// real-socket differential gate compares against.
///
/// # Errors
///
/// As [`run_async_faulted`].
pub fn run_async_with<P, A, F, S>(
    cfg: &AsyncConfig,
    plan: Option<&FaultPlan>,
    mut factory: F,
    mut adversary: A,
    sched: &mut S,
    mut recorder: Option<&mut AsyncRecorder>,
) -> Result<AsyncReport<P::Output>, AsyncSimError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
    F: FnMut(PartyId, usize) -> P,
    S: Scheduler<P::Msg>,
{
    let n = cfg.n;
    if n == 0 {
        return Err(AsyncSimError::BadConfig {
            reason: "n must be positive".into(),
        });
    }
    if cfg.t >= n {
        return Err(AsyncSimError::BadConfig {
            reason: format!("t = {} must be < n", cfg.t),
        });
    }
    cfg.delay
        .validate()
        .map_err(|reason| AsyncSimError::BadConfig { reason })?;
    if let Some(plan) = plan {
        plan.validate(n).map_err(|e| AsyncSimError::BadFaultPlan {
            reason: e.to_string(),
        })?;
    }
    let mut corrupted = vec![false; n];
    let byz = adversary.corrupted();
    if byz.len() > cfg.t {
        return Err(AsyncSimError::BadConfig {
            reason: format!("adversary corrupts {} > t = {}", byz.len(), cfg.t),
        });
    }
    for p in byz {
        if p.index() >= n {
            return Err(AsyncSimError::BadConfig {
                reason: format!("corrupted id {p} out of range"),
            });
        }
        corrupted[p.index()] = true;
    }
    let mut perm_crashed = vec![false; n];
    if let Some(plan) = plan {
        for party in plan.permanently_crashed() {
            perm_crashed[party] = true;
        }
    }

    let mut parties: Vec<Option<P>> = (0..n)
        .map(|i| {
            if corrupted[i] {
                None
            } else {
                Some(factory(PartyId(i), n))
            }
        })
        .collect();

    // Time 0: honest starts, adversary start injections.
    let tracing = recorder.is_some();
    for (i, party) in parties.iter_mut().enumerate() {
        if let Some(p) = party.as_mut() {
            let mut ctx = AsyncCtx::new(PartyId(i), n, 0.0);
            ctx.tracing = tracing;
            p.on_start(&mut ctx);
            flush_ctx(sched, ctx, recorder.as_deref_mut());
        }
    }
    let mut adv_sends = Vec::new();
    adversary.on_start(&mut adv_sends);
    for (from, to, msg) in adv_sends.drain(..) {
        assert!(
            corrupted[from.index()],
            "adversary must send from corrupted parties"
        );
        sched.push_send(
            0.0,
            Envelope {
                from,
                to,
                payload: msg,
            },
        );
    }

    let all_done = |parties: &[Option<P>], perm_crashed: &[bool]| {
        parties.iter().enumerate().all(|(i, p)| {
            p.as_ref()
                .is_none_or(|p| perm_crashed[i] || p.output().is_some())
        })
    };
    let make_report = |parties: &[Option<P>],
                       corrupted: Vec<bool>,
                       perm_crashed: Vec<bool>,
                       completion_time: f64,
                       delivered: usize,
                       metrics: AsyncMetrics| AsyncReport {
        outputs: parties
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if perm_crashed[i] {
                    None
                } else {
                    p.as_ref().and_then(P::output)
                }
            })
            .collect(),
        corrupted,
        crashed: perm_crashed,
        completion_time,
        messages_delivered: delivered,
        metrics,
    };

    let mut events = 0usize;
    let mut delivered = 0usize;
    let mut completion_time = 0.0f64;
    if all_done(&parties, &perm_crashed) {
        return Ok(make_report(
            &parties,
            corrupted,
            perm_crashed,
            completion_time,
            0,
            *sched.metrics_mut(),
        ));
    }

    while let Some((time, what)) = sched.pop() {
        events += 1;
        if events > cfg.max_events {
            return Err(AsyncSimError::Stalled { events });
        }
        let (party, activation) = match what {
            SchedEvent::Timer { party, token } => {
                let i = party.index();
                if corrupted[i] {
                    continue;
                }
                if let Some(plan) = plan {
                    let round = round_of(time);
                    if plan.crashed_in(i, round) {
                        // Defer the timer to the recovery instant; a
                        // never-recovering party's timers die with it.
                        if let Some(rt) = recovery_time(plan, i, round) {
                            sched.push_timer(rt, party, token, 0.0);
                        }
                        continue;
                    }
                }
                sched.metrics_mut().timer_fires += 1;
                (party, Activation::Timer(token))
            }
            SchedEvent::Deliver(env) => {
                let to = env.to;
                if plan.is_some_and(|p| p.crashed_in(to.index(), round_of(time))) {
                    sched.metrics_mut().fault_drops += 1;
                    continue;
                }
                if corrupted[to.index()] {
                    delivered += 1;
                    adversary.on_deliver(&env, &mut adv_sends);
                    for (from, to, msg) in adv_sends.drain(..) {
                        assert!(
                            corrupted[from.index()],
                            "adversary must send from corrupted parties"
                        );
                        sched.push_send(
                            time,
                            Envelope {
                                from,
                                to,
                                payload: msg,
                            },
                        );
                    }
                    continue;
                }
                delivered += 1;
                (to, Activation::Message(env))
            }
        };

        let i = party.index();
        let was_done = parties[i].as_ref().expect("honest").output().is_some();
        {
            let p = parties[i].as_mut().expect("honest");
            let mut ctx = AsyncCtx::new(party, n, time);
            ctx.tracing = tracing;
            match activation {
                Activation::Message(env) => p.on_message(env, &mut ctx),
                Activation::Timer(token) => p.on_timer(token, &mut ctx),
            }
            flush_ctx(sched, ctx, recorder.as_deref_mut());
        }
        if !was_done && parties[i].as_ref().expect("honest").output().is_some() {
            completion_time = completion_time.max(time);
            if all_done(&parties, &perm_crashed) {
                sched.metrics_mut().delivered = delivered;
                return Ok(make_report(
                    &parties,
                    corrupted,
                    perm_crashed,
                    completion_time,
                    delivered,
                    *sched.metrics_mut(),
                ));
            }
        }
    }
    Err(AsyncSimError::Stalled { events })
}

/// What a popped queue event asks a party to do.
enum Activation<M> {
    Message(Envelope<M>),
    Timer(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::CrashFault;

    struct Census {
        heard: usize,
        need: usize,
    }
    impl AsyncProtocol for Census {
        type Msg = u64;
        type Output = usize;
        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            ctx.broadcast(1);
        }
        fn on_message(&mut self, _e: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {
            self.heard += 1;
        }
        fn output(&self) -> Option<usize> {
            (self.heard >= self.need).then_some(self.heard)
        }
    }

    #[test]
    fn only_a_recorded_activation_evaluates_or_stores_an_event() {
        let mut inner = EventLog::new();
        inner.push(ProtoEvent::new("gc.grade").u64("leader", 1));
        let mut plain: AsyncCtx<u64> = AsyncCtx::external(PartyId(0), 2, 0.0, false);
        plain.emit_with(|| unreachable!("unrecorded: the closure must not run"));
        plain.absorb_log(inner.clone());
        assert_eq!(plain.into_parts().log.heap_bytes(), 0);

        let mut recorded: AsyncCtx<u64> = AsyncCtx::external(PartyId(0), 2, 0.0, true);
        recorded.absorb_log(inner);
        recorded.emit_with(|| ProtoEvent::new("realaa.iter").u64("iter", 0));
        let labels: Vec<_> = recorded.into_parts().log.iter().map(|e| e.label).collect();
        assert_eq!(labels, ["gc.grade", "realaa.iter"]);
    }

    #[test]
    fn waits_only_for_n_minus_t_under_silence() {
        // One silent corrupted party: honest parties wait for n - t = 3.
        let cfg = AsyncConfig {
            n: 4,
            t: 1,
            seed: 9,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 10_000,
        };
        let report = run_async(
            cfg,
            |_, _| Census { heard: 0, need: 3 },
            SilentAsync {
                parties: vec![PartyId(3)],
            },
        )
        .unwrap();
        assert!(report.corrupted[3]);
        assert!(report.outputs[3].is_none());
        for i in 0..3 {
            assert!(report.outputs[i].unwrap() >= 3);
        }
    }

    #[test]
    fn waiting_for_everyone_with_a_silent_party_stalls() {
        let cfg = AsyncConfig {
            n: 4,
            t: 1,
            seed: 9,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 10_000,
        };
        let err = run_async(
            cfg,
            |_, _| Census { heard: 0, need: 4 },
            SilentAsync {
                parties: vec![PartyId(3)],
            },
        )
        .unwrap_err();
        assert!(matches!(err, AsyncSimError::Stalled { .. }));
    }

    #[test]
    fn lockstep_delays_give_unit_time() {
        let cfg = AsyncConfig {
            n: 5,
            t: 0,
            seed: 1,
            delay: DelayModel::Lockstep,
            max_events: 10_000,
        };
        let report = run_async(cfg, |_, _| Census { heard: 0, need: 5 }, PassiveAsync).unwrap();
        assert!((report.completion_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let cfg = AsyncConfig {
                n: 6,
                t: 0,
                seed,
                delay: DelayModel::Uniform { min: 0.1 },
                max_events: 10_000,
            };
            run_async(cfg, |_, _| Census { heard: 0, need: 6 }, PassiveAsync).unwrap()
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a, b);
    }

    #[test]
    fn slow_parties_model_slows_their_links() {
        let cfg = AsyncConfig {
            n: 4,
            t: 0,
            seed: 3,
            delay: DelayModel::SlowParties {
                slow: vec![PartyId(0)],
                min: 0.1,
            },
            max_events: 10_000,
        };
        let report = run_async(cfg, |_, _| Census { heard: 0, need: 4 }, PassiveAsync).unwrap();
        // Everyone needs p0's message, which takes time 1.
        assert!(report.completion_time >= 1.0);
    }

    #[test]
    fn bad_configs_rejected() {
        let cfg = AsyncConfig {
            n: 0,
            t: 0,
            seed: 0,
            delay: DelayModel::Lockstep,
            max_events: 10,
        };
        assert!(matches!(
            run_async(cfg, |_, _| Census { heard: 0, need: 1 }, PassiveAsync),
            Err(AsyncSimError::BadConfig { .. })
        ));
        let cfg = AsyncConfig {
            n: 4,
            t: 0,
            seed: 0,
            delay: DelayModel::Lockstep,
            max_events: 10,
        };
        assert!(matches!(
            run_async(
                cfg,
                |_, _| Census { heard: 0, need: 1 },
                SilentAsync {
                    parties: vec![PartyId(0)]
                }
            ),
            Err(AsyncSimError::BadConfig { .. })
        ));
    }

    #[test]
    fn delay_models_respect_the_unit_normalization() {
        // Satellite: every model's sampled delays stay in (0, 1].
        let env = Envelope {
            from: PartyId(0),
            to: PartyId(1),
            payload: 0u64,
        };
        let models = [
            DelayModel::Uniform { min: 0.001 },
            DelayModel::Uniform { min: 1.0 },
            DelayModel::Lockstep,
            DelayModel::SlowParties {
                slow: vec![PartyId(0)],
                min: 0.5,
            },
            DelayModel::SlowParties {
                slow: vec![],
                min: 0.25,
            },
        ];
        for model in &models {
            model.validate().unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            for _ in 0..500 {
                let d = model.sample(&env, &mut rng);
                assert!(d > 0.0 && d <= 1.0, "{model:?} sampled {d}");
            }
        }
    }

    #[test]
    fn invalid_delay_models_are_a_clean_config_error() {
        for bad_min in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = AsyncConfig {
                n: 3,
                t: 0,
                seed: 0,
                delay: DelayModel::Uniform { min: bad_min },
                max_events: 10,
            };
            let err =
                run_async(cfg, |_, _| Census { heard: 0, need: 1 }, PassiveAsync).unwrap_err();
            assert!(
                matches!(err, AsyncSimError::BadConfig { .. }),
                "min = {bad_min}: {err}"
            );
        }
    }

    /// Fires a timer chain: decides after 3 timer hops, no messages.
    struct TimerChain {
        hops: u64,
    }
    impl AsyncProtocol for TimerChain {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            ctx.set_timer(0.5, 0);
        }
        fn on_message(&mut self, _e: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<u64>) {
            self.hops = token + 1;
            if self.hops < 3 {
                ctx.set_timer(0.5, self.hops);
            }
        }
        fn output(&self) -> Option<u64> {
            (self.hops >= 3).then_some(self.hops)
        }
    }

    #[test]
    fn timers_fire_in_order_and_count_in_metrics() {
        let cfg = AsyncConfig {
            n: 2,
            t: 0,
            seed: 5,
            delay: DelayModel::Lockstep,
            max_events: 1_000,
        };
        let report = run_async(cfg, |_, _| TimerChain { hops: 0 }, PassiveAsync).unwrap();
        assert_eq!(report.outputs, vec![Some(3), Some(3)]);
        assert_eq!(report.metrics.timer_fires, 6);
        assert!((report.completion_time - 1.5).abs() < 1e-12);
    }

    #[test]
    fn crashed_recipients_lose_messages_and_timers_defer() {
        // Party 1 is down for rounds 2..4 (time [1, 3)).
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                party: 1,
                crash_round: 2,
                recover_round: 4,
            }],
            ..FaultPlan::none()
        };
        // Two timers set at 0 with delay 1.5, token 9 then token 7, fire
        // at 1.5 — or, for party 1 (down), are deferred to 3.
        struct Stamp {
            fired: Vec<(u64, u64)>,
        }
        impl AsyncProtocol for Stamp {
            type Msg = u64;
            type Output = Vec<(u64, u64)>;
            fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
                ctx.set_timer(1.5, 9);
                ctx.set_timer(1.5, 7);
            }
            fn on_message(&mut self, _e: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<u64>) {
                self.fired.push((token, ctx.now().to_bits()));
            }
            fn output(&self) -> Option<Vec<(u64, u64)>> {
                (self.fired.len() == 2).then(|| self.fired.clone())
            }
        }
        let cfg = AsyncConfig {
            n: 2,
            t: 0,
            seed: 5,
            delay: DelayModel::Lockstep,
            max_events: 1_000,
        };
        let report =
            run_async_faulted(cfg, &plan, |_, _| Stamp { fired: Vec::new() }, PassiveAsync)
                .unwrap();
        // Party 0's timers fire on time at 1.5; party 1's are deferred to
        // exactly 3.0, the recovery instant, and still fire in the order
        // they were set (not by token).
        let at = |time: f64| vec![(9, time.to_bits()), (7, time.to_bits())];
        assert_eq!(report.outputs, vec![Some(at(1.5)), Some(at(3.0))]);
        assert_eq!(report.metrics.timer_fires, 4);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_headroom_invariant() {
        let plan = FaultPlan {
            seed: 77,
            drop_permille: 150,
            dup_permille: 100,
            delay_spike_permille: 200,
            ..FaultPlan::none()
        };
        let run = |max_events| {
            let cfg = AsyncConfig {
                n: 5,
                t: 0,
                seed: 21,
                delay: DelayModel::Uniform { min: 0.1 },
                max_events,
            };
            run_async_faulted(
                cfg,
                &plan,
                |_, _| Reliable::new(Census { heard: 0, need: 5 }, 5),
                PassiveAsync,
            )
            .unwrap()
        };
        let a = run(100_000);
        let b = run(100_000);
        assert_eq!(a, b, "same seed + plan must reproduce bit-for-bit");
        // Headroom that does not truncate the run must not change it.
        let c = run(250_000);
        assert_eq!(a, c, "max_events headroom leaked into the run");
        assert!(a.metrics.retransmissions > 0 || a.metrics.fault_drops == 0);
    }

    /// A minimal custom [`Scheduler`]: FIFO message delivery, timers only
    /// at quiescence — smoke-tests the pluggable run loop.
    #[derive(Default)]
    struct Fifo {
        msgs: std::collections::VecDeque<Envelope<u64>>,
        timers: std::collections::VecDeque<(f64, PartyId, u64)>,
        now: f64,
        metrics: AsyncMetrics,
    }

    impl Scheduler<u64> for Fifo {
        fn push_send(&mut self, _now: f64, env: Envelope<u64>) {
            self.msgs.push_back(env);
        }
        fn push_timer(&mut self, now: f64, party: PartyId, token: u64, delay: f64) {
            self.timers.push_back((now + delay, party, token));
        }
        fn pop(&mut self) -> Option<(f64, SchedEvent<u64>)> {
            self.now += 1e-6;
            if let Some(env) = self.msgs.pop_front() {
                return Some((self.now, SchedEvent::Deliver(env)));
            }
            self.timers.pop_front().map(|(due, party, token)| {
                self.now = self.now.max(due);
                (self.now, SchedEvent::Timer { party, token })
            })
        }
        fn metrics_mut(&mut self) -> &mut AsyncMetrics {
            &mut self.metrics
        }
    }

    #[test]
    fn custom_fifo_scheduler_drives_the_run_loop() {
        let cfg = AsyncConfig {
            n: 4,
            t: 0,
            seed: 0,
            delay: DelayModel::Lockstep, // unused by Fifo
            max_events: 10_000,
        };
        let mut sched = Fifo::default();
        let report = run_async_with(
            &cfg,
            None,
            |_, _| Census { heard: 0, need: 4 },
            PassiveAsync,
            &mut sched,
            None,
        )
        .unwrap();
        assert_eq!(report.outputs, vec![Some(4); 4]);
        assert_eq!(report.messages_delivered, 16);
    }

    #[test]
    fn invalid_fault_plans_are_rejected() {
        let plan = FaultPlan {
            drop_permille: 2000,
            ..FaultPlan::none()
        };
        let cfg = AsyncConfig {
            n: 3,
            t: 0,
            seed: 0,
            delay: DelayModel::Lockstep,
            max_events: 10,
        };
        let err = run_async_faulted(
            cfg,
            &plan,
            |_, _| Census { heard: 0, need: 1 },
            PassiveAsync,
        )
        .unwrap_err();
        assert!(matches!(err, AsyncSimError::BadFaultPlan { .. }), "{err}");
    }
}
