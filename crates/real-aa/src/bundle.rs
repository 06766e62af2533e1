//! The bundled `RealAA` party: k in-flight instances over one wire.
//!
//! [`RealAaParty`](crate::RealAaParty) amortizes gradecast
//! framing across the n *leaders* of one AA instance;
//! [`BundledAaParty`] amortizes it across k concurrent *instances* as
//! well. Every round each party broadcasts **one**
//! [`GcBundleMsg`] whose outer slots range over instances (absent =
//! that instance already terminated here), so the per-round message
//! count — and, over real sockets, the syscall count — is that of a
//! single instance no matter how many are in flight.
//!
//! # Equivalence
//!
//! Literal: a bundle is k copies of the solo party's per-instance machine
//! and round schedule (`crate::instance`), each fed by its own lanes and
//! muted set of the one gradecast core the solo party runs at `k = 1`
//! ([`BundleGradecast`]); this module is only the wire.
//! `tests/bundle_equiv.rs` checks it end to end: outputs, round counts,
//! trajectories and per-instance trace events (keyed by `inst`) equal
//! each instance run alone, under every adversary and configuration edge
//! it tries, in both engine step modes.
//!
//! # Async wiring
//!
//! [`AsyncProtocol`] is a timer-paced lockstep adapter: a message's round
//! is recomputed from its content (`Leads` → 3i+1, `Echoes` → 3i+2,
//! `Votes` → 3i+3; a tag outside the schedule is dropped), arrivals are
//! buffered per round, and a local round timer — one and a half delay
//! bounds, so every in-round send lands before the next tick — drives the
//! same `step` the synchronous engine calls. Late arrivals are omissions,
//! as in the synchronous model, so `Reliable<BundledAaParty>` runs
//! unchanged over the real sockets in `crates/net`.
//!
//! A malformed bundle — outer width ≠ k, an inner width ≠ n — is dropped
//! whole by the gradecast core and claims no instance (see
//! `gradecast::bundle`); the tests below send every such shape under both
//! engines.

use std::collections::BTreeMap;

use async_net::{AsyncCtx, AsyncProtocol};
use gradecast::{BundleGradecast, GcBundleMsg};
use sim_net::{Envelope, Inbox, PartyId, Payload, Protocol, Received, RoundCtx};

use crate::instance::{Instance, Phase, Scratch};
use crate::real_aa::RealAaConfig;
use crate::value::R64;

pub use gradecast::BundleError;

/// A bundled `RealAA` wire message: a gradecast bundle tagged with its
/// iteration, exactly like the solo party's
/// [`RealAaMsg`](crate::RealAaMsg).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundledAaMsg {
    /// Iteration index (0-based).
    pub iter: u32,
    /// The bundled gradecast body.
    pub body: GcBundleMsg<R64>,
}

impl Payload for BundledAaMsg {
    fn size_bytes(&self) -> usize {
        4 + self.body.size_bytes()
    }
}

/// The normalized round length of the async lockstep adapter. Delays
/// are normalized to (0, 1], so any message sent at a round boundary
/// arrives strictly before the next tick fires.
const ROUND_LEN: f64 = 1.5;

/// The wire round a bundled message belongs to, recomputed from its
/// content (phase within the 3-round iteration); `None` when the
/// sender-chosen tag names no `u32` round at all.
fn wire_round(msg: &BundledAaMsg) -> Option<u32> {
    let phase = match msg.body {
        GcBundleMsg::Leads(_) => 1,
        GcBundleMsg::Echoes(_) => 2,
        GcBundleMsg::Votes(_) => 3,
    };
    msg.iter.checked_mul(3)?.checked_add(phase)
}

/// One party running k bundled `RealAA(ε)` instances in lockstep.
///
/// All instances share the configuration and the round schedule of
/// [`RealAaParty`](crate::RealAaParty) — iteration `i`
/// occupies rounds `3i+1..=3i+3` — but each advances its own value,
/// muted set, and (with [`RealAaConfig::early_stopping`]) its own
/// termination round. The party outputs once every instance has.
#[derive(Clone, Debug)]
pub struct BundledAaParty {
    cfg: RealAaConfig,
    me: PartyId,
    insts: Vec<Instance>,
    /// The gradecast core; its per-instance muted sets carry across
    /// iterations.
    gc: BundleGradecast<R64>,
    output: Option<Vec<f64>>,
    /// Scratch shared by all k instances.
    scratch: Scratch,
    /// Async adapter: the last round stepped (0 before `on_start`).
    async_round: u32,
    /// Async adapter: arrivals bucketed by wire round, consumed when the
    /// following round's timer fires.
    async_buf: BTreeMap<u32, Vec<Received<BundledAaMsg>>>,
}

impl BundledAaParty {
    /// Creates the party with one input value per bundled instance
    /// (`k = inputs.len()`).
    ///
    /// # Errors
    ///
    /// [`BundleError::Empty`] if `inputs` is empty.
    ///
    /// # Panics
    ///
    /// As [`RealAaParty::new`](crate::RealAaParty::new): every input
    /// must be finite and `me` in range.
    pub fn new(me: PartyId, cfg: RealAaConfig, inputs: Vec<f64>) -> Result<Self, BundleError> {
        let insts: Vec<Instance> = inputs
            .into_iter()
            .enumerate()
            .map(|(j, v)| Instance::new(v, Some(j)))
            .collect();
        assert!(me.index() < cfg.n, "party id out of range");
        Ok(BundledAaParty {
            cfg,
            me,
            gc: BundleGradecast::new(me, cfg.n, cfg.t, insts.len())?,
            insts,
            output: None,
            scratch: Scratch::default(),
            async_round: 0,
            async_buf: BTreeMap::new(),
        })
    }

    /// Number of bundled instances.
    pub fn k(&self) -> usize {
        self.insts.len()
    }

    /// Instance `inst`'s value trajectory (`[0]` = input); panics if
    /// `inst >= k`.
    pub fn history(&self, inst: usize) -> &[f64] {
        &self.insts[inst].history
    }

    /// How many parties instance `inst` has muted so far; panics if
    /// `inst >= k`.
    pub fn muted_count(&self, inst: usize) -> usize {
        self.gc.muted(inst).iter().filter(|&&m| m).count()
    }

    /// Which instances are still running here.
    fn active(&self) -> Vec<bool> {
        self.insts.iter().map(|i| i.output.is_none()).collect()
    }

    fn decide(&mut self) {
        self.output = Some(self.insts.iter_mut().map(Instance::decide).collect());
    }

    /// Drives one synchronous round from the async run loop, replaying
    /// the resulting sends, events, and (unless the party terminated)
    /// the next round's timer into the async context.
    fn run_async_round(
        &mut self,
        round: u32,
        msgs: Vec<Received<BundledAaMsg>>,
        ctx: &mut AsyncCtx<BundledAaMsg>,
    ) {
        self.async_round = round;
        let inbox = Inbox::from_messages(msgs);
        let mut rctx = if ctx.tracing() {
            RoundCtx::traced(self.me, self.cfg.n)
        } else {
            RoundCtx::new(self.me, self.cfg.n)
        };
        Protocol::step(self, round, &inbox, &mut rctx);
        ctx.absorb_log(rctx.take_log());
        let out = rctx.into_outbox();
        for msg in out.broadcasts() {
            ctx.broadcast(msg.clone());
        }
        for env in out.unicasts() {
            ctx.send(env.to, env.payload.clone());
        }
        if self.output.is_none() {
            ctx.set_timer(ROUND_LEN, u64::from(round) + 1);
        }
    }
}

impl Protocol for BundledAaParty {
    type Msg = BundledAaMsg;
    type Output = Vec<f64>;

    fn step(&mut self, round: u32, inbox: &Inbox<BundledAaMsg>, ctx: &mut RoundCtx<BundledAaMsg>) {
        if self.output.is_some() {
            return;
        }
        let tagged = |tag: u32| {
            inbox
                .iter()
                .filter(move |e| e.payload.iter == tag)
                .map(|e| (e.from, &e.payload.body))
        };
        let (iter, body) = match Phase::of(&self.cfg, round) {
            Phase::Decide => {
                self.decide();
                return;
            }
            Phase::Lead { grade, iter } => {
                if let Some(at) = grade {
                    let active = self.active();
                    let (insts, scratch) = (&mut self.insts, &mut self.scratch);
                    self.gc
                        .on_votes_with(tagged(at.iter), &active, |j, grades, muted| {
                            insts[j].finish(&self.cfg, at, grades, muted, scratch, ctx);
                        });
                    if self.insts.iter().all(|i| i.output.is_some()) {
                        self.decide();
                        return;
                    }
                }
                self.gc.reset();
                let leads = self
                    .insts
                    .iter()
                    .map(|i| i.output.is_none().then(|| R64::new(i.value)))
                    .collect();
                (iter, self.gc.lead_msg(leads))
            }
            Phase::Echo(iter) => (iter, self.gc.on_leads(tagged(iter), &self.active())),
            Phase::Vote(iter) => (iter, self.gc.on_echoes(tagged(iter), &self.active())),
        };
        ctx.broadcast(BundledAaMsg { iter, body });
    }

    fn output(&self) -> Option<Vec<f64>> {
        self.output.clone()
    }
}

impl AsyncProtocol for BundledAaParty {
    type Msg = BundledAaMsg;
    type Output = Vec<f64>;

    fn on_start(&mut self, ctx: &mut AsyncCtx<BundledAaMsg>) {
        self.run_async_round(1, Vec::new(), ctx);
    }

    fn on_message(&mut self, env: Envelope<BundledAaMsg>, _ctx: &mut AsyncCtx<BundledAaMsg>) {
        // A round-r message is consumed when stepping round r + 1; once
        // that has happened the arrival is late — an omission, exactly
        // as in the synchronous model. No honest message names a round
        // outside the schedule, so one that does is dropped here rather
        // than kept until the run ends.
        match wire_round(&env.payload) {
            Some(r) if r >= self.async_round && r <= self.cfg.rounds() => {
                self.async_buf.entry(r).or_default().push(Received {
                    from: env.from,
                    payload: env.payload,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<BundledAaMsg>) {
        if self.output.is_some() || token <= u64::from(self.async_round) {
            return;
        }
        let round = u32::try_from(token).expect("round tokens fit u32");
        let msgs = self.async_buf.remove(&(round - 1)).unwrap_or_default();
        // Older buckets can no longer be consumed; drop them.
        self.async_buf.retain(|&r, _| r >= round);
        self.run_async_round(round, msgs, ctx);
    }

    fn output(&self) -> Option<Vec<f64>> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use async_net::{
        run_async, AsyncAdversary, AsyncConfig, DelayModel, PassiveAsync, RelMsg, Reliable,
        SilentAsync,
    };
    use gradecast::{GcSlots, GcValue};
    use sim_net::{
        run_simulation, run_simulation_traced, AdversaryCtx, EngineConfig, EventKind, Passive,
        SimConfig, StaticByzantine, Trace,
    };

    fn cfg(n: usize, t: usize) -> RealAaConfig {
        RealAaConfig::new(n, t, 0.5, 10.0).unwrap()
    }

    fn sync_outputs(cfg: RealAaConfig, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        run_simulation(
            SimConfig {
                n: cfg.n,
                t: cfg.t,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
            Passive,
        )
        .unwrap()
        .honest_outputs()
    }

    #[test]
    fn empty_bundle_is_rejected() {
        let err = BundledAaParty::new(PartyId(0), cfg(4, 1), Vec::new()).unwrap_err();
        assert_eq!(err, BundleError::Empty);
    }

    #[test]
    fn bundle_of_one_matches_the_solo_party() {
        let cfg = cfg(7, 2);
        let inputs = [2.0, 9.0, 5.0, 7.0, 3.0, 8.0, 4.0];
        let bundled: Vec<Vec<f64>> =
            sync_outputs(cfg, &inputs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let solo = run_simulation(
            SimConfig {
                n: 7,
                t: 2,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| crate::RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(
            bundled,
            solo.outputs
                .iter()
                .map(|o| vec![(*o).unwrap()])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn async_lockstep_matches_the_synchronous_engine() {
        let cfg = cfg(4, 1);
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, 10.0 - i as f64]).collect();
        let sync = sync_outputs(cfg, &inputs);
        for seed in [1, 7, 42] {
            let report = run_async(
                AsyncConfig {
                    n: 4,
                    t: 1,
                    seed,
                    delay: DelayModel::Uniform { min: 0.1 },
                    max_events: 200_000,
                },
                |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
                PassiveAsync,
            )
            .unwrap();
            assert_eq!(report.honest_outputs(), sync, "seed {seed}");
        }
    }

    #[test]
    fn reliable_wrapper_runs_the_bundle_over_lossy_links() {
        // Reliable<BundledAaParty>: the composition the TCP nodes in
        // crates/net deploy. A crashed-at-start party is within t.
        let cfg = cfg(4, 1);
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, (2 * i) as f64]).collect();
        let report = run_async(
            AsyncConfig {
                n: 4,
                t: 1,
                seed: 3,
                delay: DelayModel::Uniform { min: 0.1 },
                max_events: 400_000,
            },
            |id, _| {
                Reliable::new(
                    BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
                    4,
                )
            },
            SilentAsync {
                parties: vec![PartyId(2)],
            },
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert_eq!(outs.len(), 3);
        for inst in 0..2 {
            let vals: Vec<f64> = outs.iter().map(|o| o[inst]).collect();
            let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread <= cfg.eps, "instance {inst} spread {spread}");
        }
    }

    #[test]
    fn wire_rounds_follow_the_phase_schedule() {
        let mut party = BundledAaParty::new(PartyId(0), cfg(4, 1), vec![1.0]).unwrap();
        let mut rctx = RoundCtx::new(PartyId(0), 4);
        Protocol::step(&mut party, 1, &Inbox::empty(), &mut rctx);
        let out = rctx.into_outbox();
        assert_eq!(wire_round(&out.broadcasts()[0]), Some(1));
        let mut rctx = RoundCtx::new(PartyId(0), 4);
        Protocol::step(&mut party, 2, &Inbox::empty(), &mut rctx);
        let out = rctx.into_outbox();
        assert_eq!(wire_round(&out.broadcasts()[0]), Some(2));
    }

    /// Bundles whose iteration tags a Byzantine sender picks: `3 * iter +
    /// phase` overflows `u32` for the first two tags and names a round
    /// far past any schedule for the last two.
    fn hostile_bundles(n: usize, k: usize) -> Vec<BundledAaMsg> {
        let v = R64::new(1e9);
        let echoes = GcSlots::from_options(vec![Some(v); n]);
        let votes = GcSlots::from_options(vec![Some(7); n]);
        let bodies = [
            GcBundleMsg::Leads(Arc::new(GcSlots::from_options(vec![Some(v); k]))),
            GcBundleMsg::echoes(GcSlots::from_options(vec![Some(echoes); k])),
            GcBundleMsg::votes(GcSlots::from_options(vec![Some(votes); k])),
        ];
        [u32::MAX, 0x5555_5556, 0x5555_5554, 1000]
            .into_iter()
            .flat_map(|iter| {
                bodies.iter().map(move |body| BundledAaMsg {
                    iter,
                    body: body.clone(),
                })
            })
            .collect()
    }

    /// Party 3 sends `hostile_bundles` to everyone at time 0, then
    /// nothing.
    struct Hostile(Vec<BundledAaMsg>);

    impl AsyncAdversary<BundledAaMsg> for Hostile {
        fn corrupted(&self) -> Vec<PartyId> {
            vec![PartyId(3)]
        }
        fn on_start(&mut self, sends: &mut Vec<(PartyId, PartyId, BundledAaMsg)>) {
            for to in 0..3 {
                sends.extend(self.0.iter().map(|m| (PartyId(3), PartyId(to), m.clone())));
            }
        }
        fn on_deliver(
            &mut self,
            _env: &Envelope<BundledAaMsg>,
            _sends: &mut Vec<(PartyId, PartyId, BundledAaMsg)>,
        ) {
        }
    }

    #[test]
    fn hostile_iteration_tags_are_dropped_without_panicking() {
        let cfg = cfg(4, 1);
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, 10.0 - i as f64]).collect();
        let hostile = hostile_bundles(4, 2);

        // Straight through `on_message`: nothing overflows, nothing is
        // kept for a round that never comes.
        let mut party = BundledAaParty::new(PartyId(0), cfg, inputs[0].clone()).unwrap();
        let mut ctx = AsyncCtx::external(PartyId(0), 4, 0.0, false);
        for payload in hostile.clone() {
            let env = Envelope {
                from: PartyId(3),
                to: PartyId(0),
                payload,
            };
            AsyncProtocol::on_message(&mut party, env, &mut ctx);
        }
        assert!(party.async_buf.is_empty(), "hostile bundles were buffered");

        // In a run: the honest outputs are the synchronous engine's with
        // party 3 silent.
        let sync = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
            StaticByzantine {
                parties: vec![PartyId(3)],
                behave: |_: &mut AdversaryCtx<'_, BundledAaMsg>| {},
            },
        )
        .unwrap()
        .honest_outputs();
        for seed in [1, 7] {
            let report = run_async(
                AsyncConfig {
                    n: 4,
                    t: 1,
                    seed,
                    delay: DelayModel::Uniform { min: 0.1 },
                    max_events: 200_000,
                },
                |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
                Hostile(hostile.clone()),
            )
            .unwrap();
            assert_eq!(report.honest_outputs(), sync, "seed {seed}");
        }
    }

    /// A `phase` bundle (1 leads, 2 echoes, 3 votes) whose outer slot `j`
    /// is absent for `None` and otherwise carries 1e9 — outside every
    /// honest hull — in an all-present inner slot of width `w`.
    fn junk(phase: u32, outer: &[Option<usize>]) -> GcBundleMsg<R64> {
        fn full<T: Clone>(e: T, w: usize) -> GcSlots<T> {
            GcSlots::from_options(vec![Some(e); w])
        }
        let v = R64::new(1e9);
        let slots = outer.iter();
        match phase {
            1 => GcBundleMsg::Leads(Arc::new(slots.map(|w| w.map(|_| v)).collect())),
            2 => GcBundleMsg::echoes(slots.map(|w| w.map(|w| full(v, w))).collect()),
            _ => GcBundleMsg::votes(slots.map(|w| w.map(|w| full(v.hash32(), w))).collect()),
        }
    }

    /// `phase` bundles for `k` instances of `n` leaders, in sending
    /// order: ones dropped whole (outer width k ∓ 1, the wider naming
    /// instance k; for echoes and votes, instance 1 at inner width n ∓ 1),
    /// one carrying nothing (an empty outer bitmap), then one speaking in
    /// instance 1 alone, with an all-present inner bitmap.
    fn hostile_shapes(phase: u32, n: usize, k: usize) -> Vec<GcBundleMsg<R64>> {
        let mut shapes = vec![vec![Some(n); k - 1], vec![Some(n); k + 1]];
        if phase > 1 {
            for w in [n - 1, n + 1] {
                shapes.push((0..k).map(|j| Some(if j == 1 { w } else { n })).collect());
            }
        }
        shapes.push(vec![None; k]);
        shapes.push((0..k).map(|j| (j == 1).then_some(n)).collect());
        shapes.iter().map(|s| junk(phase, s)).collect()
    }

    fn phase(body: &GcBundleMsg<R64>) -> u32 {
        match body {
            GcBundleMsg::Leads(_) => 1,
            GcBundleMsg::Echoes(_) => 2,
            GcBundleMsg::Votes(_) => 3,
        }
    }

    /// Inputs of the hostile-shape runs: `n` parties × 3 instances.
    fn shape_inputs(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|p| (0..3).map(|j| ((p * 7 + j * 3) % 11) as f64).collect())
            .collect()
    }

    /// Instance `inst`'s honest outputs (parties 0..3) lie in the hull of
    /// its honest inputs and agree within ε.
    fn assert_valid(cfg: RealAaConfig, inputs: &[Vec<f64>], outs: &[Vec<f64>], inst: usize) {
        let ins: Vec<f64> = inputs[..3].iter().map(|i| i[inst]).collect();
        let vals: Vec<f64> = outs.iter().map(|o| o[inst]).collect();
        let (lo, hi) = (
            ins.iter().cloned().fold(f64::MAX, f64::min),
            ins.iter().cloned().fold(f64::MIN, f64::max),
        );
        assert!(
            vals.iter().all(|v| (lo..=hi).contains(v)),
            "instance {inst}: {vals:?}"
        );
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= cfg.eps, "instance {inst}: {vals:?}");
    }

    /// Instance `inst`'s protocol events at parties 0..3.
    fn instance_events(trace: &Trace, inst: u64) -> Vec<String> {
        let of_inst = |e: &sim_net::ProtoEvent| {
            e.field("inst").and_then(aa_trace::Json::as_u64) == Some(inst)
        };
        trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Proto { party, event } if *party < 3 && of_inst(event) => {
                    Some(format!("{} {party} {event:?}", e.round))
                }
                _ => None,
            })
            .collect()
    }

    /// Party 3 sends, in every round and ahead of its honest bundle, the
    /// `hostile_shapes`, and after it an all-present junk bundle (a
    /// repeat in every instance). Instances 0 and 2 must be bit-identical
    /// to the all-honest run; instance 1, where the junk spoke first,
    /// stays valid.
    #[test]
    fn malformed_bundles_leave_untouched_instances_bit_identical() {
        let (n, k) = (4, 3);
        let cfg = cfg(n, 1);
        let inputs = shape_inputs(n);
        let engine = EngineConfig::from(SimConfig {
            n,
            t: 1,
            max_rounds: 10 + cfg.rounds(),
        });
        let party =
            |id: PartyId, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap();
        let (honest, honest_trace) = run_simulation_traced(engine, party, Passive).unwrap();
        let hostile = StaticByzantine {
            parties: vec![PartyId(3)],
            behave: |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
                let own: Vec<_> = ctx.tentative_outbox(PartyId(3)).envelopes().collect();
                for env in own {
                    let BundledAaMsg { iter, body } = env.payload;
                    let mut bodies = hostile_shapes(phase(&body), n, k);
                    bodies.push(junk(phase(&body), &vec![Some(n); k]));
                    bodies.insert(bodies.len() - 1, body);
                    for body in bodies {
                        ctx.send(PartyId(3), env.to, BundledAaMsg { iter, body });
                    }
                }
            },
        };
        let (report, trace) = run_simulation_traced(engine, party, hostile).unwrap();
        let (outs, want) = (report.honest_outputs(), honest.honest_outputs());
        for j in [0, 2] {
            for p in 0..3 {
                assert_eq!(outs[p][j], want[p][j], "instance {j}, party {p}");
            }
            assert_eq!(
                instance_events(&trace, j as u64),
                instance_events(&honest_trace, j as u64)
            );
        }
        assert_ne!(
            instance_events(&trace, 1),
            instance_events(&honest_trace, 1)
        );
        assert_valid(cfg, &inputs, &outs, 1);
    }

    /// Party 3 sends `Reliable` data frames carrying these bundles to
    /// everyone at time 0, then nothing.
    struct HostileFrames(Vec<BundledAaMsg>);

    impl AsyncAdversary<RelMsg<BundledAaMsg>> for HostileFrames {
        fn corrupted(&self) -> Vec<PartyId> {
            vec![PartyId(3)]
        }
        fn on_start(&mut self, sends: &mut Vec<(PartyId, PartyId, RelMsg<BundledAaMsg>)>) {
            for to in 0..3 {
                for (seq, inner) in (0..).zip(&self.0) {
                    let inner = inner.clone();
                    sends.push((PartyId(3), PartyId(to), RelMsg::Data { seq, inner }));
                }
            }
        }
        fn on_deliver(
            &mut self,
            _env: &Envelope<RelMsg<BundledAaMsg>>,
            _sends: &mut Vec<(PartyId, PartyId, RelMsg<BundledAaMsg>)>,
        ) {
        }
    }

    /// The same shapes for iteration 0 through `Reliable` over lossy
    /// async links, party 3 otherwise silent: instances 0 and 2 equal the
    /// lockstep run with party 3 silent; instance 1 stays valid.
    #[test]
    fn malformed_bundles_over_reliable_links_touch_only_their_instance() {
        let (n, k) = (4, 3);
        let cfg = cfg(n, 1);
        let inputs = shape_inputs(n);
        let party = |id: PartyId| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap();
        let silent = run_simulation(
            SimConfig {
                n,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| party(id),
            StaticByzantine {
                parties: vec![PartyId(3)],
                behave: |_: &mut AdversaryCtx<'_, BundledAaMsg>| {},
            },
        )
        .unwrap()
        .honest_outputs();
        let frames: Vec<BundledAaMsg> = (1..=3)
            .flat_map(|phase| hostile_shapes(phase, n, k))
            .map(|body| BundledAaMsg { iter: 0, body })
            .collect();
        for seed in [1, 7] {
            let report = run_async(
                AsyncConfig {
                    n,
                    t: 1,
                    seed,
                    delay: DelayModel::Uniform { min: 0.1 },
                    max_events: 400_000,
                },
                |id, _| Reliable::new(party(id), n),
                HostileFrames(frames.clone()),
            )
            .unwrap();
            let outs = report.honest_outputs();
            for p in 0..3 {
                assert_eq!(
                    [outs[p][0], outs[p][2]],
                    [silent[p][0], silent[p][2]],
                    "seed {seed}"
                );
            }
            assert_valid(cfg, &inputs, &outs, 1);
        }
    }
}
