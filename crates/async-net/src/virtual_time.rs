//! Distributable virtual time: the deterministic schedule shared by the
//! in-process simulator and the real TCP transport (`crates/net`).
//!
//! [`SeededScheduler`](crate::SeededScheduler) draws delays from one
//! global RNG in pop order, which cannot be reproduced by n independent
//! processes. This module replaces that with **content-keyed** delays: the
//! delay of the `k`-th message on the directed link `from → to` is a pure
//! function of `(seed, from, to, k)`. Any process that knows the seed can
//! compute the delivery time of any message locally, so a networked
//! cluster and an in-process run replay the *same* virtual schedule.
//!
//! Two further ingredients make the order total and distributable:
//!
//! * [`VKey`] — the global tie-break order on events `(time, class,
//!   a, b, c)`. The in-process [`VirtualScheduler`] pops in exactly this
//!   order; each networked node applies the same comparator to its local
//!   pending heap, and since a party's activations are a projection of the
//!   global order, the two agree.
//! * strictly positive lookahead — [`link_delay`] returns delays
//!   **strictly** greater than `min`, so a conservative
//!   (Chandy–Misra–Bryant-style) node that has seen watermark `w` on a
//!   link knows no future delivery on it can occur at or before
//!   `w + min`.
//!
//! [`AsyncRecorder`] keeps the protocol-level events of a run — each
//! activation's packed [`EventLog`] under its virtual time and the party's
//! emission counter — so per-process traces can be merged and compared
//! event-for-event (`aa_trace::reconcile_proto`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use aa_trace::{EventKind, EventLog, Trace, TraceRecord};
use sim_net::{Envelope, PartyId, Payload};

use crate::{round_of, AsyncMetrics, SchedEvent, Scheduler};

/// The splitmix64 mixing step — the same finalizer the fuzzer and the
/// batched gradecast wire use for cheap seeded hashing.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The delay of the `lseq`-th message on the directed link `from → to`
/// under `seed`: deterministic, content-keyed, and **strictly** inside
/// `(min, 1]`.
///
/// Strictness is load-bearing: it gives the conservative transport a
/// positive lookahead of `min` per link (a message sent at or after a
/// promise `w` is delivered strictly after `w + min`), so processing all
/// pending events at times `≤ watermark + min` can never deliver out of
/// order.
#[must_use]
pub fn link_delay(seed: u64, from: usize, to: usize, lseq: u64, min: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&min), "min delay {min} not in [0, 1)");
    let mut h = splitmix64(seed ^ 0xa076_1d64_78bd_642f);
    h = splitmix64(h ^ (from as u64));
    h = splitmix64(h ^ (to as u64));
    h = splitmix64(h ^ lseq);
    // 53 uniform bits mapped to (0, 1]: the `+ 1` excludes 0 exactly.
    let unit = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    min + (1.0 - min) * unit
}

/// The global total order on virtual-time events. Messages (`class 0`)
/// are keyed by `(from, to, lseq)`, timers (`class 1`) by `(party,
/// timer_seq, token)` — every event a run produces has a distinct key, so
/// ties in `time` are broken identically by every process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VKey {
    /// Virtual delivery/firing time.
    pub time: f64,
    /// 0 = message delivery, 1 = timer firing.
    pub class: u8,
    /// Message: sender index. Timer: owner index.
    pub a: u64,
    /// Message: recipient index. Timer: the owner's timer ordinal.
    pub b: u64,
    /// Message: link ordinal `lseq`. Timer: token.
    pub c: u64,
}

impl Eq for VKey {}

impl PartialOrd for VKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.class.cmp(&other.class))
            .then(self.a.cmp(&other.a))
            .then(self.b.cmp(&other.b))
            .then(self.c.cmp(&other.c))
    }
}

struct VEvent<M> {
    key: VKey,
    what: SchedEvent<M>,
}

impl<M> PartialEq for VEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for VEvent<M> {}
impl<M> PartialOrd for VEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for VEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The in-process reference [`Scheduler`] for virtual-time runs: delays
/// come from [`link_delay`], pops follow the [`VKey`] order. A networked
/// cluster with the same `(n, seed, min_delay)` replays the identical
/// schedule, which is what the differential gate in `crates/net` checks.
pub struct VirtualScheduler<M> {
    seed: u64,
    min_delay: f64,
    heap: BinaryHeap<Reverse<VEvent<M>>>,
    link_seq: BTreeMap<(usize, usize), u64>,
    timer_seq: Vec<u64>,
    metrics: AsyncMetrics,
}

impl<M> VirtualScheduler<M> {
    /// Builds the scheduler for an `n`-party run keyed by `seed` with
    /// per-link lookahead `min_delay` (must be in `[0, 1)`; the
    /// transport's default is 0.5).
    #[must_use]
    pub fn new(n: usize, seed: u64, min_delay: f64) -> Self {
        VirtualScheduler {
            seed,
            min_delay,
            heap: BinaryHeap::new(),
            link_seq: BTreeMap::new(),
            timer_seq: vec![0; n],
            metrics: AsyncMetrics::default(),
        }
    }
}

impl<M: Payload> Scheduler<M> for VirtualScheduler<M> {
    fn push_send(&mut self, now: f64, env: Envelope<M>) {
        let (from, to) = (env.from.index(), env.to.index());
        // The link's Data ordinal: 0-based, then bumped.
        let next = self.link_seq.entry((from, to)).or_insert(0);
        let lseq = *next;
        *next += 1;
        let delay = link_delay(self.seed, from, to, lseq, self.min_delay);
        self.heap.push(Reverse(VEvent {
            key: VKey {
                time: now + delay,
                class: 0,
                a: from as u64,
                b: to as u64,
                c: lseq,
            },
            what: SchedEvent::Deliver(env),
        }));
    }

    fn push_timer(&mut self, now: f64, party: PartyId, token: u64, delay: f64) {
        let i = party.index();
        let ts = self.timer_seq[i];
        self.timer_seq[i] += 1;
        self.heap.push(Reverse(VEvent {
            key: VKey {
                time: now + delay,
                class: 1,
                a: i as u64,
                b: ts,
                c: token,
            },
            what: SchedEvent::Timer { party, token },
        }));
    }

    fn pop(&mut self) -> Option<(f64, SchedEvent<M>)> {
        self.heap.pop().map(|Reverse(e)| (e.key.time, e.what))
    }

    fn metrics_mut(&mut self) -> &mut AsyncMetrics {
        &mut self.metrics
    }
}

/// Collects protocol events during a virtual-time run: each activation's
/// log is kept as it was written, under the virtual time (`vt`) it ran at
/// and the party's emission ordinal (`pseq`) of its first event. The
/// stamps become fields when the record is expanded; sorting the stamped
/// events by `(vt, party, pseq)` yields a canonical projection that is
/// identical between an in-process run and a merged per-process networked
/// run of the same schedule.
#[derive(Clone, Debug)]
pub struct AsyncRecorder {
    record: TraceRecord,
    pseq: Vec<u64>,
}

impl AsyncRecorder {
    /// A fresh recorder for an `n`-party, corruption-bound-`t` run.
    #[must_use]
    pub fn new(n: usize, t: usize, label: &str) -> Self {
        AsyncRecorder {
            record: TraceRecord::new(n, t, label),
            pseq: vec![0; n],
        }
    }

    /// Records everything one activation of `party` at virtual time `vt`
    /// emitted, by moving its log in.
    pub fn record_activation(&mut self, vt: f64, party: usize, log: EventLog) {
        let first_pseq = self.pseq[party];
        self.pseq[party] += log.len() as u64;
        self.record
            .push_activation(round_of(vt), party, vt, first_pseq, log);
    }

    /// Records a transport-level rejection (tampered MAC, replay, garbage
    /// frame) as a `fault_drop` on `from → to` at virtual time `vt`.
    pub fn record_drop(&mut self, vt: f64, from: usize, to: usize) {
        self.record_net(vt, EventKind::FaultDrop { from, to });
    }

    /// Records a transport-level state transition (reconnect attempt,
    /// dead-peer declaration, backoff exhaustion, WAL recovery) at
    /// virtual time `vt`. These are non-proto events: the differential
    /// gate's proto projection ignores them, so forensics gain the
    /// transport timeline without perturbing reconciliation.
    pub fn record_net(&mut self, vt: f64, kind: EventKind) {
        self.record.push_event(round_of(vt), kind);
    }

    /// Read access to what has been recorded so far.
    #[must_use]
    pub fn record(&self) -> &TraceRecord {
        &self.record
    }

    /// Consumes the recorder, yielding the packed record.
    #[must_use]
    pub fn into_record(self) -> TraceRecord {
        self.record
    }

    /// Consumes the recorder, yielding the expanded trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.record.to_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run_async_with, AsyncConfig, AsyncCtx, AsyncProtocol, DelayModel, PassiveAsync, ProtoEvent,
    };

    #[test]
    fn link_delay_is_strict_and_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for min in [0.0, 0.25, 0.5, 0.9] {
                for lseq in 0..200 {
                    let d = link_delay(seed, 1, 3, lseq, min);
                    assert!(d > min && d <= 1.0, "delay {d} outside ({min}, 1]");
                    assert_eq!(d, link_delay(seed, 1, 3, lseq, min));
                }
            }
        }
        // Distinct keys give distinct delays (no accidental collapse).
        assert_ne!(link_delay(7, 0, 1, 0, 0.5), link_delay(7, 1, 0, 0, 0.5));
        assert_ne!(link_delay(7, 0, 1, 0, 0.5), link_delay(7, 0, 1, 1, 0.5));
        assert_ne!(link_delay(7, 0, 1, 0, 0.5), link_delay(8, 0, 1, 0, 0.5));
    }

    #[test]
    fn vkey_order_is_total_and_matches_fields() {
        let m = |t: f64, a: u64, b: u64, c: u64| VKey {
            time: t,
            class: 0,
            a,
            b,
            c,
        };
        let k = |t: f64| VKey {
            time: t,
            class: 1,
            a: 0,
            b: 0,
            c: 0,
        };
        assert!(m(1.0, 9, 9, 9) < m(2.0, 0, 0, 0), "time dominates");
        assert!(m(1.0, 0, 0, 0) < k(1.0), "messages before timers on ties");
        assert!(m(1.0, 0, 0, 0) < m(1.0, 0, 0, 1), "lseq breaks final ties");
        assert_eq!(m(1.0, 2, 3, 4), m(1.0, 2, 3, 4));
    }

    /// Everybody broadcasts its id; outputs (and emits one proto event)
    /// after hearing from all.
    struct Chatty {
        heard: usize,
        n: usize,
        done: bool,
    }
    impl AsyncProtocol for Chatty {
        type Msg = u64;
        type Output = usize;
        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            ctx.broadcast(ctx.me().index() as u64);
        }
        fn on_message(&mut self, _e: Envelope<u64>, ctx: &mut AsyncCtx<u64>) {
            self.heard += 1;
            if self.heard >= self.n && !self.done {
                self.done = true;
                let heard = self.heard;
                ctx.emit_with(|| ProtoEvent::new("census.done").u64("heard", heard as u64));
            }
        }
        fn output(&self) -> Option<usize> {
            self.done.then_some(self.heard)
        }
    }

    #[test]
    fn recorded_virtual_runs_reproduce_bit_for_bit() {
        let run = || {
            let cfg = AsyncConfig {
                n: 4,
                t: 0,
                seed: 11,
                delay: DelayModel::Uniform { min: 0.5 },
                max_events: 100_000,
            };
            let mut sched = VirtualScheduler::new(4, 11, 0.5);
            let mut rec = AsyncRecorder::new(4, 0, "vt-test");
            let report = run_async_with(
                &cfg,
                None,
                |_, n| Chatty {
                    heard: 0,
                    n,
                    done: false,
                },
                PassiveAsync,
                &mut sched,
                Some(&mut rec),
            )
            .unwrap();
            (report, rec.into_trace().to_canonical_string())
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb);
        assert_eq!(ta, tb, "recorded traces must be byte-identical");
        assert_eq!(ra.outputs, vec![Some(4); 4]);
        // One proto event per party, each stamped with vt + pseq.
        let trace = aa_trace::Trace::parse(&ta).unwrap();
        let protos: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Proto { party, event } => Some((*party, event)),
                _ => None,
            })
            .collect();
        assert_eq!(protos.len(), 4);
        for (_, ev) in &protos {
            assert!(ev.field("vt").is_some());
            assert!(ev.field("pseq").is_some());
        }
    }
}
