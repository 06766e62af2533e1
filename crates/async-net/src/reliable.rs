//! A reliable-delivery sublayer for asynchronous protocols.
//!
//! [`Reliable<P>`] wraps any [`AsyncProtocol`] and restores exactly-once
//! delivery over the lossy links of a [`FaultPlan`](sim_net::FaultPlan):
//!
//! * every payload is framed as [`RelMsg::Data`] with a per-sender
//!   sequence number and acknowledged by the recipient with
//!   [`RelMsg::Ack`];
//! * unacknowledged messages are retransmitted on a timer with capped
//!   exponential backoff (retransmissions are counted in
//!   [`AsyncMetrics::retransmissions`](crate::AsyncMetrics));
//! * duplicate deliveries (link duplication faults, or retransmissions
//!   whose ack was lost) are filtered by a per-sender seen-set before they
//!   reach the inner protocol.
//!
//! On eventually-connected links (all partitions heal, all crashes
//! recover) every message is eventually delivered exactly once, so an
//! inner protocol that terminates under reliable channels terminates under
//! any such plan. Acks are authenticated the same way all envelopes are:
//! an ack is only honoured if it comes from the party the data was
//! addressed to, so a Byzantine party cannot cancel traffic between two
//! honest parties.

use std::collections::{BTreeMap, BTreeSet};

use sim_net::{Envelope, PartyId, Payload};

use crate::{AsyncCtx, AsyncProtocol};

/// Timer tokens with this bit set belong to the reliability layer; inner
/// protocols must keep their own tokens below it. Sequence numbers wrap
/// around below this bit, so a retransmission token can never collide
/// with the namespace of inner-protocol tokens.
pub const RETRANSMIT_BIT: u64 = 1 << 63;

/// First retransmission timeout, in normalized delay units (a round trip
/// costs at most 2).
const BASE_RTO: f64 = 2.5;

/// Backoff cap.
const MAX_RTO: f64 = 16.0;

/// The wire frame of the reliable sublayer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelMsg<M> {
    /// An application payload with the sender's sequence number.
    Data {
        /// Per-sender, per-message sequence number.
        seq: u64,
        /// The wrapped application message.
        inner: M,
    },
    /// Acknowledges receipt of the sender's `Data { seq, .. }`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl<M: Payload> Payload for RelMsg<M> {
    fn size_bytes(&self) -> usize {
        match self {
            // seq header + payload.
            RelMsg::Data { inner, .. } => 8 + inner.size_bytes(),
            RelMsg::Ack { .. } => 8,
        }
    }
}

/// An in-flight message awaiting acknowledgement.
#[derive(Debug)]
struct InFlight<M> {
    to: PartyId,
    payload: M,
    attempt: u32,
}

/// Wraps an [`AsyncProtocol`] with acks, retransmission, and duplicate
/// suppression. Wire type becomes [`RelMsg<P::Msg>`]; everything else —
/// including the inner protocol's own timers — is passed through.
#[derive(Debug)]
pub struct Reliable<P: AsyncProtocol> {
    inner: P,
    n: usize,
    next_seq: u64,
    unacked: BTreeMap<u64, InFlight<P::Msg>>,
    /// Per-sender sequence numbers already delivered to the inner protocol.
    seen: Vec<BTreeSet<u64>>,
}

impl<P: AsyncProtocol> Reliable<P> {
    /// Wraps `inner` for an `n`-party network.
    pub fn new(inner: P, n: usize) -> Self {
        Reliable {
            inner,
            n,
            next_seq: 0,
            unacked: BTreeMap::new(),
            seen: vec![BTreeSet::new(); n],
        }
    }

    /// Like [`Reliable::new`], but starts the sender-side sequence counter
    /// at `first_seq` instead of 0. Exists so tests (and the exhaustive
    /// checker) can exercise the wraparound of the 63-bit sequence space
    /// without sending 2⁶³ messages first.
    pub fn with_initial_seq(inner: P, n: usize, first_seq: u64) -> Self {
        let mut r = Reliable::new(inner, n);
        r.next_seq = first_seq & !RETRANSMIT_BIT;
        r
    }

    /// Read access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The sequence number the next outgoing `Data` frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A structural FNV-1a fingerprint of the sublayer state: the
    /// sequence counter, every `(seq, to, attempt)` in flight, and the
    /// contents of the seen-sets. Payload bytes are not hashed, so the
    /// fingerprint needs no message codec; two states with equal
    /// fingerprints arose from the same deterministic send/ack history.
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.next_seq);
        mix(self.unacked.len() as u64);
        for (&seq, m) in &self.unacked {
            mix(seq);
            mix(m.to.index() as u64);
            mix(u64::from(m.attempt));
        }
        for s in &self.seen {
            mix(s.len() as u64);
            for &seq in s {
                mix(seq);
            }
        }
        h
    }

    fn backoff(attempt: u32) -> f64 {
        (BASE_RTO * f64::from(1u32 << attempt.min(10))).min(MAX_RTO)
    }

    /// Runs `f` against the inner protocol with an inner-typed context,
    /// then frames the resulting sends and forwards the resulting timers.
    fn activate_inner(
        &mut self,
        ctx: &mut AsyncCtx<RelMsg<P::Msg>>,
        f: impl FnOnce(&mut P, &mut AsyncCtx<P::Msg>),
    ) {
        let mut inner_ctx = AsyncCtx::new(ctx.me, ctx.n, ctx.now);
        inner_ctx.tracing = ctx.tracing;
        f(&mut self.inner, &mut inner_ctx);
        ctx.retransmits += inner_ctx.retransmits;
        ctx.log.append(inner_ctx.log);
        for (delay, token) in inner_ctx.timers {
            debug_assert!(
                token & RETRANSMIT_BIT == 0,
                "inner timer token {token} collides with the reliability layer"
            );
            ctx.set_timer(delay, token);
        }
        for env in inner_ctx.outbox {
            let seq = self.next_seq;
            // Sequence numbers live in the 63-bit space below
            // RETRANSMIT_BIT so that `RETRANSMIT_BIT | seq` round-trips;
            // after 2⁶³ sends the counter wraps and relies on the
            // receivers' seen-sets having long forgotten the reused seqs.
            self.next_seq = (self.next_seq + 1) & !RETRANSMIT_BIT;
            ctx.send(
                env.to,
                RelMsg::Data {
                    seq,
                    inner: env.payload.clone(),
                },
            );
            self.unacked.insert(
                seq,
                InFlight {
                    to: env.to,
                    payload: env.payload,
                    attempt: 0,
                },
            );
            ctx.set_timer(BASE_RTO, RETRANSMIT_BIT | seq);
        }
    }
}

impl<P: AsyncProtocol> AsyncProtocol for Reliable<P> {
    type Msg = RelMsg<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut AsyncCtx<Self::Msg>) {
        self.activate_inner(ctx, |p, inner_ctx| p.on_start(inner_ctx));
    }

    fn on_message(&mut self, env: Envelope<Self::Msg>, ctx: &mut AsyncCtx<Self::Msg>) {
        match env.payload {
            RelMsg::Data { seq, inner } => {
                // Always (re-)ack: the previous ack may have been lost.
                ctx.send(env.from, RelMsg::Ack { seq });
                let sender = env.from.index();
                debug_assert!(sender < self.n, "sender out of range");
                if self.seen[sender].insert(seq) {
                    let unwrapped = Envelope {
                        from: env.from,
                        to: env.to,
                        payload: inner,
                    };
                    self.activate_inner(ctx, |p, inner_ctx| p.on_message(unwrapped, inner_ctx));
                }
            }
            RelMsg::Ack { seq } => {
                // Only the addressed recipient can acknowledge.
                if self.unacked.get(&seq).is_some_and(|m| m.to == env.from) {
                    self.unacked.remove(&seq);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<Self::Msg>) {
        if token & RETRANSMIT_BIT == 0 {
            self.activate_inner(ctx, |p, inner_ctx| p.on_timer(token, inner_ctx));
            return;
        }
        let seq = token & !RETRANSMIT_BIT;
        if let Some(m) = self.unacked.get_mut(&seq) {
            m.attempt += 1;
            let (to, payload, attempt) = (m.to, m.payload.clone(), m.attempt);
            ctx.note_retransmit();
            ctx.send(
                to,
                RelMsg::Data {
                    seq,
                    inner: payload,
                },
            );
            ctx.set_timer(Self::backoff(attempt), token);
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_async, run_async_faulted, AsyncConfig, DelayModel, PassiveAsync};
    use sim_net::{CrashFault, FaultPlan, Partition};

    /// Broadcasts once; outputs after hearing from everyone — the protocol
    /// that stalls forever on a single lost message.
    struct NeedAll {
        heard: BTreeSet<usize>,
        n: usize,
    }
    impl AsyncProtocol for NeedAll {
        type Msg = u64;
        type Output = usize;
        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            ctx.broadcast(ctx.me().index() as u64);
        }
        fn on_message(&mut self, env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {
            self.heard.insert(env.from.index());
        }
        fn output(&self) -> Option<usize> {
            (self.heard.len() >= self.n).then_some(self.heard.len())
        }
    }

    fn need_all(n: usize) -> impl FnMut(PartyId, usize) -> Reliable<NeedAll> {
        move |_, _| {
            Reliable::new(
                NeedAll {
                    heard: BTreeSet::new(),
                    n,
                },
                n,
            )
        }
    }

    #[test]
    fn transparent_on_clean_links() {
        let cfg = AsyncConfig {
            n: 4,
            t: 0,
            seed: 3,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 50_000,
        };
        let report = run_async(cfg, need_all(4), PassiveAsync).unwrap();
        assert_eq!(report.outputs, vec![Some(4); 4]);
        assert_eq!(report.metrics.retransmissions, 0);
    }

    #[test]
    fn recovers_every_message_under_heavy_loss() {
        // 40% drop + 20% duplication: NeedAll would stall bare, but the
        // sublayer retransmits and dedups until everyone has everything.
        let plan = FaultPlan {
            seed: 13,
            drop_permille: 400,
            dup_permille: 200,
            delay_spike_permille: 100,
            ..FaultPlan::none()
        };
        let cfg = AsyncConfig {
            n: 5,
            t: 0,
            seed: 8,
            delay: DelayModel::Uniform { min: 0.1 },
            max_events: 200_000,
        };
        let report = run_async_faulted(cfg, &plan, need_all(5), PassiveAsync).unwrap();
        assert_eq!(report.outputs, vec![Some(5); 5]);
        assert!(report.metrics.fault_drops > 0, "plan did fire");
        assert!(
            report.metrics.retransmissions > 0,
            "losses were recovered by retransmission"
        );
    }

    #[test]
    fn survives_a_healing_partition_and_a_recovering_crash() {
        let plan = FaultPlan {
            partitions: vec![Partition {
                side: vec![0, 1],
                from_round: 1,
                heal_round: 4,
            }],
            crashes: vec![CrashFault {
                party: 4,
                crash_round: 2,
                recover_round: 6,
            }],
            ..FaultPlan::none()
        };
        assert!(plan.eventually_connected());
        let cfg = AsyncConfig {
            n: 5,
            t: 0,
            seed: 4,
            delay: DelayModel::Uniform { min: 0.3 },
            max_events: 200_000,
        };
        let report = run_async_faulted(cfg, &plan, need_all(5), PassiveAsync).unwrap();
        assert_eq!(report.outputs, vec![Some(5); 5]);
        assert!(report.metrics.retransmissions > 0);
        // Termination time extends past the last fault window.
        assert!(report.completion_time >= 3.0);
    }

    #[test]
    fn duplication_faults_do_not_double_deliver() {
        struct CountAll {
            deliveries: usize,
        }
        impl AsyncProtocol for CountAll {
            type Msg = u64;
            type Output = usize;
            fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
                ctx.broadcast(1);
            }
            fn on_message(&mut self, _env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {
                self.deliveries += 1;
            }
            fn output(&self) -> Option<usize> {
                (self.deliveries >= 4).then_some(self.deliveries)
            }
        }
        let plan = FaultPlan {
            seed: 99,
            dup_permille: 1000, // every message duplicated
            ..FaultPlan::none()
        };
        let cfg = AsyncConfig {
            n: 4,
            t: 0,
            seed: 12,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 100_000,
        };
        let report = run_async_faulted(
            cfg,
            &plan,
            |_, _| Reliable::new(CountAll { deliveries: 0 }, 4),
            PassiveAsync,
        )
        .unwrap();
        assert!(report.metrics.fault_dups > 0);
        // Each party saw exactly n distinct messages despite 100% dup.
        assert_eq!(report.outputs, vec![Some(4); 4]);
    }

    fn ctx(me: usize, n: usize) -> AsyncCtx<RelMsg<u64>> {
        AsyncCtx::new(PartyId(me), n, 0.0)
    }

    fn fresh(n: usize) -> NeedAll {
        NeedAll {
            heard: BTreeSet::new(),
            n,
        }
    }

    fn ack(from: usize, to: usize, seq: u64) -> Envelope<RelMsg<u64>> {
        Envelope {
            from: PartyId(from),
            to: PartyId(to),
            payload: RelMsg::Ack { seq },
        }
    }

    #[test]
    fn duplicate_acks_are_idempotent_and_authenticated() {
        let mut r = Reliable::new(fresh(3), 3);
        let mut c = ctx(0, 3);
        r.on_start(&mut c); // broadcast: seqs 0, 1, 2 to parties 0, 1, 2
        assert_eq!(r.unacked.len(), 3);

        // An ack from a party the data was not addressed to is ignored.
        r.on_message(ack(2, 0, 1), &mut ctx(0, 3));
        assert_eq!(r.unacked.len(), 3, "forged ack must not cancel traffic");

        // The addressed recipient's ack clears the slot...
        r.on_message(ack(1, 0, 1), &mut ctx(0, 3));
        assert_eq!(r.unacked.len(), 2);
        // ...and re-delivering the same ack (or acking an unknown seq) is
        // a harmless no-op.
        r.on_message(ack(1, 0, 1), &mut ctx(0, 3));
        r.on_message(ack(1, 0, 777), &mut ctx(0, 3));
        assert_eq!(r.unacked.len(), 2);

        // A retransmit timer for the acked seq finds nothing to resend.
        let mut c = ctx(0, 3);
        r.on_timer(RETRANSMIT_BIT | 1, &mut c);
        assert!(c.outbox.is_empty(), "acked messages are not retransmitted");
    }

    #[test]
    fn sequence_numbers_wrap_below_the_retransmit_bit() {
        let mut r = Reliable::with_initial_seq(fresh(3), 3, RETRANSMIT_BIT - 2);
        let mut c = ctx(0, 3);
        r.on_start(&mut c); // 3 sends: seqs 2⁶³−2, 2⁶³−1, then wrap to 0
        let seqs: Vec<u64> = c
            .outbox
            .iter()
            .map(|e| match e.payload {
                RelMsg::Data { seq, .. } => seq,
                RelMsg::Ack { .. } => panic!("no acks expected"),
            })
            .collect();
        assert_eq!(seqs, vec![RETRANSMIT_BIT - 2, RETRANSMIT_BIT - 1, 0]);
        assert_eq!(r.next_seq(), 1, "counter wrapped below the timer bit");
        // Every retransmit token keeps the namespace bit and round-trips
        // back to its seq.
        for (_, token) in &c.timers {
            assert_ne!(token & RETRANSMIT_BIT, 0);
            assert!(seqs.contains(&(token & !RETRANSMIT_BIT)));
        }
        // The retransmission path still works for a wrapped (seq 0) frame.
        let mut c = ctx(0, 3);
        r.on_timer(RETRANSMIT_BIT, &mut c); // token for seq 0
        assert_eq!(c.outbox.len(), 1);
        assert!(matches!(c.outbox[0].payload, RelMsg::Data { seq: 0, .. }));
    }

    #[test]
    fn duplicate_data_is_reacked_but_delivered_once() {
        let mut r = Reliable::new(fresh(3), 3);
        let data = Envelope {
            from: PartyId(1),
            to: PartyId(0),
            payload: RelMsg::Data {
                seq: RETRANSMIT_BIT - 1, // near-wraparound seq on the receive path
                inner: 42u64,
            },
        };
        for round in 0..2 {
            let mut c = ctx(0, 3);
            r.on_message(data.clone(), &mut c);
            let acks = c
                .outbox
                .iter()
                .filter(|e| matches!(e.payload, RelMsg::Ack { seq } if seq == RETRANSMIT_BIT - 1))
                .count();
            assert_eq!(acks, 1, "every copy is re-acked (round {round})");
        }
        assert_eq!(
            r.inner().heard.len(),
            1,
            "inner protocol saw the payload exactly once"
        );
    }

    #[test]
    fn fingerprint_tracks_every_structural_field() {
        let mut r = Reliable::new(fresh(3), 3);
        let mut c = ctx(0, 3);
        r.on_start(&mut c);
        let base = r.state_fingerprint();
        // Acking a frame changes the fingerprint.
        r.on_message(ack(1, 0, 1), &mut ctx(0, 3));
        let after_ack = r.state_fingerprint();
        assert_ne!(base, after_ack);
        // A retransmission bumps `attempt` — also visible.
        r.on_timer(RETRANSMIT_BIT | 2, &mut ctx(0, 3));
        assert_ne!(after_ack, r.state_fingerprint());
    }

    #[test]
    fn backoff_is_capped() {
        assert!((Reliable::<NeedAll>::backoff(0) - BASE_RTO).abs() < 1e-12);
        assert!((Reliable::<NeedAll>::backoff(1) - 2.0 * BASE_RTO).abs() < 1e-12);
        assert!((Reliable::<NeedAll>::backoff(30) - MAX_RTO).abs() < 1e-12);
        // Monotone nondecreasing.
        let mut last = 0.0;
        for a in 0..12 {
            let b = Reliable::<NeedAll>::backoff(a);
            assert!(b >= last);
            last = b;
        }
    }
}
