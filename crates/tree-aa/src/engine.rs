//! The pluggable real-valued AA engine inside the tree protocols.
//!
//! The paper's reduction (Sections 4–7) is independent of which
//! real-valued AA protocol runs underneath — it only needs Validity,
//! ε-Agreement and a publicly computable round count (the Section 7 note
//! makes the same point for the `t < n/2` authenticated setting). This
//! module packages the two engines implemented in this workspace behind
//! [`InnerAa`], which tags their traffic with the phase of the run it
//! belongs to ([`TreeMsg`]): every tree protocol speaks that one wire and
//! runs with either engine:
//!
//! * [`EngineKind::Gradecast`] — `RealAA` of Ben-Or–Dolev–Hoch, 3 rounds
//!   per iteration, `O(log δ / log log δ)` rounds total (round-optimal),
//!   one broadcast per party per round: a one-instance [`BundledAaParty`],
//!   the party every bundled deployment runs;
//! * [`EngineKind::Halving`] — the classic trim-and-halve iteration, 1
//!   round per iteration, `O(log δ)` rounds total.

use real_aa::{
    halving_iterations, iterations_for, BundledAaMsg, BundledAaParty, IteratedAaConfig,
    IteratedAaParty, PlainValueMsg, RealAaConfig,
};
use sim_net::{Inbox, PartyId, Payload, Protocol, RoundCtx};

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
    /// Gradecast-based engine traffic: one-instance bundles.
    Real(BundledAaMsg),
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

/// The wire message of every tree protocol: engine traffic tagged with the
/// phase of the engine run it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeMsg {
    /// 1 = `PathsFinder`, 2 = projection.
    pub phase: u8,
    /// The engine message.
    pub inner: InnerMsg,
}

impl Payload for TreeMsg {
    fn size_bytes(&self) -> usize {
        1 + self.inner.size_bytes()
    }
}

/// One phase's engine run, driven with *local* round numbers by the
/// embedding protocol.
#[derive(Clone, Debug)]
pub struct InnerAa {
    phase: u8,
    engine: Engine,
}

#[derive(Clone, Debug)]
enum Engine {
    /// Gradecast-based `RealAA`: a one-instance bundle (boxed: it carries
    /// per-leader tallies and dwarfs the halving variant).
    Real(Box<BundledAaParty>),
    /// Halving-iteration instance.
    Halving(IteratedAaParty),
}

impl InnerAa {
    /// Starts an engine of `kind` for party `me`, tagged `phase`, that
    /// reaches 1-agreement on `d`-close inputs from the private `input`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (`n ≤ 3t`, bad `d`) —
    /// embedding protocols validate their configs first.
    pub fn new(
        kind: EngineKind,
        phase: u8,
        me: PartyId,
        n: usize,
        t: usize,
        d: f64,
        input: f64,
    ) -> Self {
        let engine = match kind {
            EngineKind::Gradecast => {
                let cfg = RealAaConfig::new(n, t, 1.0, d).expect("validated by caller");
                let party = BundledAaParty::new(me, cfg, vec![input]).expect("one instance");
                Engine::Real(Box::new(party))
            }
            EngineKind::Halving => {
                let cfg = IteratedAaConfig::new(n, t, 1.0, d).expect("validated by caller");
                Engine::Halving(IteratedAaParty::new(me, cfg, input))
            }
        };
        InnerAa { phase, engine }
    }

    /// Drives one local round: feeds the engine this phase's traffic of
    /// its own kind from `inbox` (borrowed, nothing cloned; anything else
    /// is ignored) and sends what it wants delivered next round through
    /// `ctx`, tagged with the phase. Inner broadcasts stay broadcasts.
    pub fn step(&mut self, local_round: u32, inbox: &Inbox<TreeMsg>, ctx: &mut RoundCtx<TreeMsg>) {
        let phase = self.phase;
        let mine = inbox.iter().filter(move |r| r.payload.phase == phase);
        match &mut self.engine {
            Engine::Real(p) => {
                let mut inner = RoundCtx::new(ctx.me(), ctx.n());
                let own = mine.filter_map(|r| match &r.payload.inner {
                    InnerMsg::Real(m) => Some((r.from, m)),
                    InnerMsg::Plain(_) => None,
                });
                p.step_on(local_round, own, &mut inner);
                forward(inner, phase, InnerMsg::Real, ctx);
            }
            Engine::Halving(p) => {
                let mut inner = RoundCtx::new(ctx.me(), ctx.n());
                let own = mine.filter_map(|r| match &r.payload.inner {
                    InnerMsg::Plain(m) => Some((r.from, m)),
                    InnerMsg::Real(_) => None,
                });
                p.step_on(local_round, own, &mut inner);
                forward(inner, phase, InnerMsg::Plain, ctx);
            }
        }
    }

    /// The engine's output, once terminated.
    pub fn output(&self) -> Option<f64> {
        match &self.engine {
            // `None` until the engine decides, so its one-element output
            // is cloned once, at the decision, not every round.
            Engine::Real(p) => p.output().map(|out| out[0]),
            Engine::Halving(p) => p.output(),
        }
    }

    /// The engine's current estimate, before termination — the quantity the
    /// flight recorder logs as the party's position after each halving
    /// step.
    pub fn current_value(&self) -> f64 {
        match &self.engine {
            Engine::Real(p) => *p.history(0).last().expect("a history starts at the input"),
            Engine::Halving(p) => p.current_value(),
        }
    }
}

/// Sends an engine's round through the embedding protocol's context,
/// wrapped and phase-tagged, broadcasts first (one payload, not `n`).
/// The engine's own trace events are dropped: the embedding protocol
/// reports its decisions itself.
fn forward<M: Payload>(
    inner: RoundCtx<M>,
    phase: u8,
    wrap: fn(M) -> InnerMsg,
    ctx: &mut RoundCtx<TreeMsg>,
) {
    let (unicasts, broadcasts) = inner.into_outbox().into_parts();
    for m in broadcasts {
        let inner = wrap(m);
        ctx.broadcast(TreeMsg { phase, inner });
    }
    for e in unicasts {
        let inner = wrap(e.payload);
        ctx.send(e.to, TreeMsg { phase, inner });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradecast::GcBundleMsg;
    use sim_net::{Outbox, Received};
    use std::sync::Arc;

    /// One local round of `eng` as party `me` of `n`, returning its outbox.
    fn step(
        eng: &mut InnerAa,
        me: usize,
        n: usize,
        round: u32,
        inbox: &Inbox<TreeMsg>,
    ) -> Outbox<TreeMsg> {
        let mut ctx = RoundCtx::new(PartyId(me), n);
        eng.step(round, inbox, &mut ctx);
        ctx.into_outbox()
    }

    /// Drive both engines by hand through their local rounds, all honest.
    fn run_engine(kind: EngineKind, inputs: &[f64], d: f64) -> Vec<f64> {
        let n = inputs.len();
        let t = (n - 1) / 3;
        let mut engines: Vec<InnerAa> = (0..n)
            .map(|i| InnerAa::new(kind, 1, PartyId(i), n, t, d, inputs[i]))
            .collect();
        let rounds = engine_rounds(kind, d, 1.0);
        let mut inboxes: Vec<Inbox<TreeMsg>> = vec![Inbox::empty(); n];
        for r in 1..=rounds + 1 {
            let mut next: Vec<Vec<Received<TreeMsg>>> = vec![Vec::new(); n];
            for (i, eng) in engines.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[i]);
                for env in step(eng, i, n, r, &inbox).envelopes() {
                    assert_eq!(env.payload.phase, 1, "traffic carries the phase");
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
        let real = InnerMsg::Real(BundledAaMsg {
            iter: 0,
            body: GcBundleMsg::Leads(Arc::new([Some(real_aa::R64::new(2.0))])),
        });
        // 1 tag + 4 iter + 1 bundle tag + 1 outer bitmap + 8 value.
        assert_eq!(real.size_bytes(), 1 + 14);
        // 1 phase byte + 1 inner tag byte + (4 + 8) plain value bytes.
        let msg = TreeMsg {
            phase: 1,
            inner: plain,
        };
        assert_eq!(msg.size_bytes(), 14);
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
        // A Real engine of phase 2 fed a Plain message and a lead of
        // phase 1 must not panic or act on either.
        let mut eng = InnerAa::new(EngineKind::Gradecast, 2, PartyId(0), 4, 1, 8.0, 3.0);
        let _ = step(&mut eng, 0, 4, 1, &Inbox::empty());
        let stray = |phase, inner| Received {
            from: PartyId(1),
            payload: TreeMsg { phase, inner },
        };
        let plain = InnerMsg::Plain(PlainValueMsg {
            iter: 0,
            value: 4.0,
        });
        let lead = InnerMsg::Real(BundledAaMsg {
            iter: 0,
            body: GcBundleMsg::Leads(Arc::new([Some(real_aa::R64::new(4.0))])),
        });
        let inbox = Inbox::from_messages(vec![stray(2, plain), stray(1, lead)]);
        let out = step(&mut eng, 0, 4, 2, &inbox);
        // Round 2 of gradecast with no leads echoes for no one.
        match out.broadcasts() {
            [TreeMsg {
                phase: 2,
                inner:
                    InnerMsg::Real(BundledAaMsg {
                        body: GcBundleMsg::Echoes(bundle),
                        ..
                    }),
            }] => assert!(bundle
                .instances()
                .flatten()
                .all(|(present, _)| !present.contains(&true))),
            other => panic!("expected one empty echo bundle, got {other:?}"),
        }
    }
}
