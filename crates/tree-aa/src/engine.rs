//! The pluggable real-valued AA engine inside the tree protocols.
//!
//! The paper's reduction (Sections 4–7) is independent of which
//! real-valued AA protocol runs underneath — it only needs Validity,
//! ε-Agreement and a publicly computable round count (the Section 7 note
//! makes the same point for the `t < n/2` authenticated setting). This
//! module packages the two engines implemented in this workspace behind a
//! small enum so every tree protocol can run with either:
//!
//! * [`EngineKind::Gradecast`] — `RealAA` of Ben-Or–Dolev–Hoch, 3 rounds
//!   per iteration, `O(log δ / log log δ)` rounds total (round-optimal),
//!   one slot-vector broadcast per party per round;
//! * [`EngineKind::Halving`] — the classic trim-and-halve iteration, 1
//!   round per iteration, `O(log δ)` rounds total.

use real_aa::{
    halving_iterations, iterations_for, IteratedAaConfig, IteratedAaParty, PlainValueMsg,
    RealAaConfig, RealAaMsg, RealAaParty,
};
use sim_net::{Outbox, PartyId, Payload, Protocol, RoundCtx};

/// Which real-valued AA protocol powers the reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Gradecast-based `RealAA` (round-optimal; the paper's choice).
    Gradecast,
    /// Classic halving iteration (the `O(log δ)` baseline).
    Halving,
}

impl EngineKind {
    /// Former name of [`EngineKind::Gradecast`]'s wire. Exists only until
    /// a benchmark issue re-points the frozen `benchmark/` sources.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const GradecastBatched: EngineKind = EngineKind::Gradecast;
}

/// The fixed number of communication rounds `kind` needs for ε-agreement
/// on inputs that are `d`-close.
///
/// # Panics
///
/// Panics on non-finite or non-positive `eps`, or negative `d` (via the
/// underlying formulas).
pub fn engine_rounds(kind: EngineKind, d: f64, eps: f64) -> u32 {
    match kind {
        EngineKind::Gradecast => 3 * iterations_for(d, eps),
        EngineKind::Halving => halving_iterations(d, eps),
    }
}

/// A wire message of either engine, so composed protocols have a single
/// message type.
#[derive(Clone, Debug, PartialEq)]
pub enum InnerMsg {
    /// Gradecast-based engine traffic.
    Real(RealAaMsg),
    /// Halving engine traffic.
    Plain(PlainValueMsg),
}

impl Payload for InnerMsg {
    fn size_bytes(&self) -> usize {
        1 + match self {
            InnerMsg::Real(m) => m.size_bytes(),
            InnerMsg::Plain(m) => m.size_bytes(),
        }
    }
}

/// A running instance of the selected engine, driven with *local* round
/// numbers by the embedding protocol.
#[derive(Clone, Debug)]
pub enum InnerAa {
    /// Gradecast-based `RealAA` instance (boxed: it carries per-leader
    /// tallies and dwarfs the halving variant).
    Real(Box<RealAaParty>),
    /// Halving-iteration instance.
    Halving(IteratedAaParty),
}

impl InnerAa {
    /// Starts an engine of `kind` for party `me` with the given public
    /// parameters and private input.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (`n ≤ 3t`, bad `eps`/`d`) —
    /// embedding protocols validate their configs first.
    pub fn new(
        kind: EngineKind,
        me: PartyId,
        n: usize,
        t: usize,
        eps: f64,
        d: f64,
        input: f64,
    ) -> Self {
        match kind {
            EngineKind::Gradecast => {
                let cfg = RealAaConfig::new(n, t, eps, d).expect("validated by caller");
                InnerAa::Real(Box::new(RealAaParty::new(me, cfg, input)))
            }
            EngineKind::Halving => {
                let cfg = IteratedAaConfig::new(n, t, eps, d).expect("validated by caller");
                InnerAa::Halving(IteratedAaParty::new(me, cfg, input))
            }
        }
    }

    /// Drives one local round: feeds the engine the inner messages
    /// delivered this round — `(sender, message)` pairs borrowed from the
    /// embedding protocol's inbox, nothing cloned; traffic of the other
    /// engine is ignored — and returns the traffic it wants delivered
    /// next round (already wrapped back into [`InnerMsg`]).
    ///
    /// The outbox keeps its shape: inner broadcasts stay broadcasts, so
    /// the embedding protocol can re-broadcast them without expanding to
    /// `n` per-recipient clones.
    pub fn step<'a>(
        &mut self,
        me: PartyId,
        n: usize,
        local_round: u32,
        received: impl Iterator<Item = (PartyId, &'a InnerMsg)>,
    ) -> Outbox<InnerMsg> {
        match self {
            InnerAa::Real(p) => {
                let mut ctx = RoundCtx::new(me, n);
                let own = received.filter_map(|(from, m)| match m {
                    InnerMsg::Real(m) => Some((from, m)),
                    InnerMsg::Plain(_) => None,
                });
                p.step_on(local_round, own, &mut ctx);
                rewrap(ctx.into_outbox(), InnerMsg::Real)
            }
            InnerAa::Halving(p) => {
                let mut ctx = RoundCtx::new(me, n);
                let own = received.filter_map(|(from, m)| match m {
                    InnerMsg::Plain(m) => Some((from, m)),
                    InnerMsg::Real(_) => None,
                });
                p.step_on(local_round, own, &mut ctx);
                rewrap(ctx.into_outbox(), InnerMsg::Plain)
            }
        }
    }

    /// The engine's output, once terminated.
    pub fn output(&self) -> Option<f64> {
        match self {
            InnerAa::Real(p) => p.output(),
            InnerAa::Halving(p) => p.output(),
        }
    }

    /// The engine's current estimate, before termination — the quantity the
    /// flight recorder logs as the party's position after each halving
    /// step.
    pub fn current_value(&self) -> f64 {
        match self {
            InnerAa::Real(p) => p.current_value(),
            InnerAa::Halving(p) => p.current_value(),
        }
    }
}

/// Re-wraps an engine's outbox into the composed message type, preserving
/// the unicast/broadcast split (a broadcast stays one payload, not `n`).
fn rewrap<M: Payload>(outbox: Outbox<M>, wrap: impl Fn(M) -> InnerMsg) -> Outbox<InnerMsg> {
    let mut ctx = RoundCtx::new(outbox.sender(), outbox.n());
    let (unicasts, broadcasts) = outbox.into_parts();
    for m in broadcasts {
        ctx.broadcast(wrap(m));
    }
    for e in unicasts {
        ctx.send(e.to, wrap(e.payload));
    }
    ctx.into_outbox()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::{Inbox, Received};

    /// The `(sender, message)` view of a hand-built inbox.
    fn pairs(inbox: &Inbox<InnerMsg>) -> impl Iterator<Item = (PartyId, &InnerMsg)> {
        inbox.iter().map(|r| (r.from, &r.payload))
    }

    /// Drive both engines by hand through their local rounds, all honest.
    fn run_engine(kind: EngineKind, inputs: &[f64], d: f64) -> Vec<f64> {
        let n = inputs.len();
        let t = (n - 1) / 3;
        let mut engines: Vec<InnerAa> = (0..n)
            .map(|i| InnerAa::new(kind, PartyId(i), n, t, 1.0, d, inputs[i]))
            .collect();
        let rounds = engine_rounds(kind, d, 1.0);
        let mut inboxes: Vec<Inbox<InnerMsg>> = vec![Inbox::empty(); n];
        for r in 1..=rounds + 1 {
            let mut next: Vec<Vec<Received<InnerMsg>>> = vec![Vec::new(); n];
            for (i, eng) in engines.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[i]);
                for env in eng.step(PartyId(i), n, r, pairs(&inbox)).envelopes() {
                    next[env.to.index()].push(Received {
                        from: env.from,
                        payload: env.payload,
                    });
                }
            }
            inboxes = next.into_iter().map(Inbox::from_messages).collect();
        }
        engines
            .iter()
            .map(|e| e.output().expect("terminated"))
            .collect()
    }

    #[test]
    fn wire_size_is_tag_plus_inner() {
        let plain = InnerMsg::Plain(PlainValueMsg {
            iter: 0,
            value: 1.0,
        });
        assert_eq!(plain.size_bytes(), 1 + 12);
        let real = InnerMsg::Real(RealAaMsg {
            iter: 0,
            body: gradecast::GcBatchMsg::Lead(real_aa::R64::new(2.0)),
        });
        assert_eq!(real.size_bytes(), 1 + 13);
    }

    #[test]
    fn both_engines_converge_honestly() {
        let inputs = [0.0, 30.0, 12.0, 25.0];
        for kind in [EngineKind::Gradecast, EngineKind::Halving] {
            let outs = run_engine(kind, &inputs, 30.0);
            let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(hi - lo <= 1.0, "{kind:?} spread {}", hi - lo);
            assert!(
                outs.iter().all(|&o| (0.0..=30.0).contains(&o)),
                "{kind:?} validity"
            );
        }
    }

    #[test]
    fn round_counts_differ_as_expected() {
        let d = 1_000_000.0;
        assert!(
            engine_rounds(EngineKind::Gradecast, d, 1.0)
                < engine_rounds(EngineKind::Halving, d, 1.0) * 3
        );
        assert_eq!(engine_rounds(EngineKind::Halving, d, 1.0), 20);
    }

    #[test]
    fn cross_engine_messages_are_ignored() {
        // A Real engine fed a Plain message must not panic or act on it.
        let mut eng = InnerAa::new(EngineKind::Gradecast, PartyId(0), 4, 1, 1.0, 8.0, 3.0);
        let _ = eng.step(PartyId(0), 4, 1, std::iter::empty());
        let stray = Received {
            from: PartyId(1),
            payload: InnerMsg::Plain(PlainValueMsg {
                iter: 0,
                value: 4.0,
            }),
        };
        let out = eng.step(PartyId(0), 4, 2, pairs(&Inbox::from_messages(vec![stray])));
        // Round 2 of gradecast with no leads echoes for no one.
        match out.broadcasts() {
            [InnerMsg::Real(RealAaMsg {
                body: gradecast::GcBatchMsg::Echoes(batch),
                ..
            })] => assert_eq!(batch.slots().iter().count(), 0),
            other => panic!("expected one empty echo batch, got {other:?}"),
        }
    }
}
