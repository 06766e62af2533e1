//! Byzantine strategies against the tree protocols.

use std::sync::Arc;

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use gradecast::{GcBundle, GcBundleMsg, GcValue};
use real_aa::{BundledAaMsg, PlainValueMsg, R64};
use sim_net::{Adversary, AdversaryCtx, PartyId};

use crate::baseline::PlainVertexMsg;
use crate::engine::{InnerMsg, TreeMsg};

/// Chaos against `TreeAA`/`PathsFinder`/projection parties: statically
/// takes a set over ([`AdversaryCtx::take_over`]: the engine stops running
/// their protocol, whose traffic this adversary never reads) and sprays
/// random phase-tagged engine messages with values across (and beyond)
/// the index domain. Safety properties must survive anything it does.
///
/// Each round a corrupted party draws one leader slot, one value and a
/// burst count below 2n, and builds its hostile one-instance lead /
/// single-slot echo / single-slot vote bundle once; the ≈ n unicasts of
/// the round share them by `Arc`. Each unicast draws one 64-bit word,
/// split by multiply-shift into a recipient uniform over all n parties, an
/// iteration tag uniform over `0..=⌈r/3⌉` in round r, a real:plain coin
/// of 4:1, one of the three bundle kinds and one of the two phases, all
/// independent. A plain (halving) message draws its `f64` value too.
#[derive(Clone, Debug)]
pub struct TreeAaChaos {
    byz: Vec<PartyId>,
    rng: ChaCha8Rng,
    /// Upper bound of the index domain values are drawn from (e.g.
    /// `2·|V(T)|`).
    pub index_span: f64,
}

impl TreeAaChaos {
    /// Creates the adversary with its own deterministic RNG.
    pub fn new(byz: Vec<PartyId>, seed: u64, index_span: f64) -> Self {
        TreeAaChaos {
            byz,
            rng: ChaCha8Rng::seed_from_u64(seed),
            index_span,
        }
    }
}

impl Adversary<TreeMsg> for TreeAaChaos {
    fn round(&mut self, ctx: &mut AdversaryCtx<'_, TreeMsg>) {
        if ctx.round() == 1 {
            for &b in &self.byz {
                ctx.take_over(b).expect("static set within budget");
            }
        }
        let n = ctx.n();
        let rng = &mut self.rng;
        for &b in &self.byz {
            let span = -1.0..=self.index_span + 1.0;
            let leader = rng.gen_range(0..n);
            let x = R64::new(rng.gen_range(span.clone()));
            let vote = [(leader, x.hash32())];
            let bodies = [
                GcBundleMsg::Leads(Arc::new([Some(x)])),
                GcBundleMsg::Echoes(Arc::new(GcBundle::with_first(None, n, [(leader, x)]))),
                GcBundleMsg::Votes(Arc::new(GcBundle::with_first(None, n, vote))),
            ];
            let bursts = rng.gen_range(0..2 * n);
            let tags = ctx.round().div_ceil(3) as usize + 1;
            for _ in 0..bursts {
                let mut word = rng.next_u64();
                let to = PartyId(take(&mut word, n));
                let iter = take(&mut word, tags) as u32;
                let real = take(&mut word, 5) < 4;
                let kind = take(&mut word, 3);
                let phase = 1 + take(&mut word, 2) as u8;
                let inner = if real {
                    let body = bodies[kind].clone();
                    InnerMsg::Real(BundledAaMsg { iter, body })
                } else {
                    let value = rng.gen_range(span.clone());
                    InnerMsg::Plain(PlainValueMsg { iter, value })
                };
                ctx.send(b, to, TreeMsg { phase, inner });
            }
        }
    }
}

/// Draws uniformly from `0..m` off `word` by multiply-shift and leaves
/// the rest of `word` for the next draw: the draw is the high half of
/// `word · m`, the rest its low half. Successive draws from one uniform
/// word decode `⌊word · m₁m₂⋯ / 2⁶⁴⌋` digit by digit, so every joint
/// outcome is within 2⁻⁶⁴ of probability `1 / (m₁m₂⋯)`.
fn take(word: &mut u64, m: usize) -> usize {
    let wide = u128::from(*word) * m as u128;
    *word = wide as u64;
    (wide >> 64) as usize
}

/// Chaos against the Nowak–Rybicki baseline: takes a static set over
/// ([`AdversaryCtx::take_over`]) and equivocates random (possibly invalid)
/// vertex claims per recipient, per iteration.
#[derive(Clone, Debug)]
pub struct NrChaos {
    byz: Vec<PartyId>,
    rng: ChaCha8Rng,
    /// `|V(T)|`; claimed vertices are drawn from `0..vertex_count + 2`
    /// (slightly out of range to probe input validation).
    pub vertex_count: usize,
}

impl NrChaos {
    /// Creates the adversary with its own deterministic RNG.
    pub fn new(byz: Vec<PartyId>, seed: u64, vertex_count: usize) -> Self {
        NrChaos {
            byz,
            rng: ChaCha8Rng::seed_from_u64(seed),
            vertex_count,
        }
    }
}

impl Adversary<PlainVertexMsg> for NrChaos {
    fn round(&mut self, ctx: &mut AdversaryCtx<'_, PlainVertexMsg>) {
        if ctx.round() == 1 {
            for &b in &self.byz.clone() {
                ctx.take_over(b).expect("static set within budget");
            }
        }
        let n = ctx.n();
        let iter = ctx.round() - 1;
        for &b in &self.byz.clone() {
            for to in 0..n {
                let vertex = self.rng.gen_range(0..self.vertex_count as u32 + 2);
                ctx.send(b, PartyId(to), PlainVertexMsg { iter, vertex });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_aa::{TreeAaConfig, TreeAaParty};
    use crate::validity::check_tree_aa;
    use crate::EngineKind;
    use sim_net::{
        run_simulation, run_simulation_traced, EngineConfig, EventKind, Payload, SimConfig,
    };
    use std::sync::{Arc, Mutex};
    use tree_model::generate;
    use tree_model::VertexId;

    const CHAOS_N: usize = 7;

    /// A [`TreeAaParty`] that logs `(party, round, iteration tag)` for
    /// every hostile lead it receives in the echo round of the lead's own
    /// phase and tag, the one round its engine absorbs that iteration's
    /// leads. Phase 1 runs local rounds `1..=r1` as global rounds; phase 2's
    /// local round `L` is global round `r1 + L`.
    struct Watched {
        party: TreeAaParty,
        byz: Vec<PartyId>,
        r1: u32,
        landed: Arc<Mutex<Vec<(usize, u32, u32)>>>,
    }

    impl sim_net::Protocol for Watched {
        type Msg = TreeMsg;
        type Output = VertexId;

        fn step(
            &mut self,
            round: u32,
            inbox: &sim_net::Inbox<TreeMsg>,
            ctx: &mut sim_net::RoundCtx<TreeMsg>,
        ) {
            for m in inbox.iter().filter(|m| self.byz.contains(&m.from)) {
                let local = match m.payload.phase {
                    1 if round <= self.r1 => round,
                    2 => round.saturating_sub(self.r1),
                    _ => continue,
                };
                if let InnerMsg::Real(BundledAaMsg {
                    iter,
                    body: GcBundleMsg::Leads(_),
                }) = m.payload.inner
                {
                    if u64::from(local) == 3 * u64::from(iter) + 2 {
                        let me = ctx.me().index();
                        self.landed.lock().unwrap().push((me, round, iter));
                    }
                }
            }
            self.party.step(round, inbox, ctx);
        }

        fn output(&self) -> Option<VertexId> {
            self.party.output()
        }
    }

    /// One `TreeAA` run (n = 7, t = 2, caterpillar) under [`TreeAaChaos`]
    /// seeded `seed`: checks validity and 1-agreement, returns the trace
    /// and the hostile leads honest parties absorbed (see [`Watched`]).
    fn survive_chaos(seed: u64) -> (sim_net::Trace, Vec<(usize, u32, u32)>) {
        let tree = Arc::new(generate::caterpillar(6, 2));
        let (n, t) = (CHAOS_N, 2);
        let cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree).unwrap();
        assert!(cfg.phase1_rounds() >= 3 && cfg.phase2_rounds() >= 3);
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth((i * 7) % m).unwrap())
            .collect();
        let byz = vec![PartyId(seed as usize % n), PartyId((seed as usize + 3) % n)];
        let adv = TreeAaChaos::new(byz.clone(), seed, 2.0 * m as f64);
        let landed = Arc::new(Mutex::new(Vec::new()));
        let (report, trace) = run_simulation_traced(
            EngineConfig::from(SimConfig {
                n,
                t,
                max_rounds: cfg.total_rounds() + 5,
            }),
            |id, _| Watched {
                party: TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
                byz: byz.clone(),
                r1: cfg.phase1_rounds(),
                landed: Arc::clone(&landed),
            },
            adv,
        )
        .unwrap();
        let honest_inputs: Vec<VertexId> = (0..n)
            .filter(|i| !byz.iter().any(|b| b.index() == *i))
            .map(|i| inputs[i])
            .collect();
        check_tree_aa(&tree, &honest_inputs, &report.honest_outputs()).unwrap();
        let landed = landed.lock().unwrap().clone();
        (trace, landed)
    }

    #[test]
    fn tree_aa_survives_chaos() {
        for seed in 0..5 {
            survive_chaos(seed);
        }
    }

    /// The chaos must be traffic the engine parses, not noise it drops:
    /// a hostile lead that reaches an honest party in the echo round of
    /// its phase and iteration tag is echoed, so that party's echo bundle
    /// carries a slot for a corrupted leader and outgrows the largest
    /// bundle honest leads alone can produce. Checked per party and round
    /// in each of 20 seeds, both ways: every outgrown honest broadcast
    /// follows an absorbed hostile lead, and every hostile lead absorbed
    /// in a phase's first iteration is echoed (later ones may come from a
    /// leader the recipient has muted). Such a lead reaches some honest
    /// party in 13 of the 20 seeds under one draw per burst (11 under the
    /// draw-per-field stream it replaced); the check asks for at least 10.
    #[test]
    fn chaos_traffic_reaches_the_engine() {
        let honest_leaders = (2..CHAOS_N).map(|i| (i, R64::new(0.0)));
        let echoes = GcBundle::with_first(None, CHAOS_N, honest_leaders);
        let honest_only = TreeMsg {
            phase: 1,
            inner: InnerMsg::Real(BundledAaMsg {
                iter: 0,
                body: GcBundleMsg::Echoes(Arc::new(echoes)),
            }),
        };
        let mut reached = Vec::new();
        for seed in 0..20 {
            let (trace, landed) = survive_chaos(seed);
            let outgrown: Vec<(usize, u32)> = trace
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Broadcast {
                        from,
                        bytes,
                        byzantine: false,
                    } if bytes > honest_only.size_bytes() => Some((from, e.round)),
                    _ => None,
                })
                .collect();
            for &(from, round) in &outgrown {
                assert!(
                    landed.iter().any(|&(p, r, _)| (p, r) == (from, round)),
                    "seed {seed}: party {from}'s round-{round} echo outgrew honest leads \
                     without a hostile lead"
                );
            }
            for &(p, r, iter) in &landed {
                assert!(
                    iter > 0 || outgrown.contains(&(p, r)),
                    "seed {seed}: party {p} did not echo the hostile lead it got in round {r}"
                );
            }
            if landed.iter().any(|&(_, _, iter)| iter == 0) {
                reached.push(seed);
            }
        }
        assert!(
            reached.len() >= 10,
            "a first-iteration hostile lead reached an honest party only with seeds {reached:?}"
        );
    }

    /// Records every message a corrupted party sends it, tagged with the
    /// round it was sent in: `(round, phase, kind, iteration tag)`, kind
    /// 0–2 for a lead, echo or vote bundle and 3 for a plain value.
    struct Recorder {
        byz_from: usize,
        last_round: u32,
        heard: Vec<(u32, u8, usize, u32)>,
    }

    impl sim_net::Protocol for Recorder {
        type Msg = TreeMsg;
        type Output = Vec<(u32, u8, usize, u32)>;

        fn step(
            &mut self,
            round: u32,
            inbox: &sim_net::Inbox<TreeMsg>,
            _ctx: &mut sim_net::RoundCtx<TreeMsg>,
        ) {
            for m in inbox.iter().filter(|m| m.from.index() >= self.byz_from) {
                let (kind, iter) = match &m.payload.inner {
                    InnerMsg::Real(BundledAaMsg { iter, body }) => match body {
                        GcBundleMsg::Leads(_) => (0, *iter),
                        GcBundleMsg::Echoes(_) => (1, *iter),
                        GcBundleMsg::Votes(_) => (2, *iter),
                    },
                    InnerMsg::Plain(PlainValueMsg { iter, .. }) => (3, *iter),
                };
                self.heard.push((round - 1, m.payload.phase, kind, iter));
            }
            self.last_round = round;
        }

        fn output(&self) -> Option<Self::Output> {
            (self.last_round > CHAOS_ROUNDS).then(|| self.heard.clone())
        }
    }

    /// Rounds of chaos the traffic-mix test observes.
    const CHAOS_ROUNDS: u32 = 30;

    /// Pearson's χ² of `observed` counts against equal expectations, and
    /// whether it lies within five standard deviations of its mean (the
    /// cell count minus one).
    fn uniform(observed: &[usize]) -> (f64, bool) {
        let total: usize = observed.iter().sum();
        let expected = total as f64 / observed.len() as f64;
        let chi2: f64 = observed
            .iter()
            .map(|&o| (o as f64 - expected).powi(2) / expected)
            .sum();
        let dof = (observed.len() - 1) as f64;
        (chi2, chi2 <= dof + 5.0 * (2.0 * dof).sqrt())
    }

    /// Whether `hits` of `total` trials lie within five standard
    /// deviations of a `p`-coin's expectation.
    fn binomial(hits: usize, total: usize, p: f64) -> bool {
        let (n, hits) = (total as f64, hits as f64);
        (hits - n * p).abs() <= 5.0 * (n * p * (1.0 - p)).sqrt()
    }

    /// `TreeAaChaos`'s traffic mix, which both simulation workloads run
    /// against: over 30 rounds at n = 128, t = 42 (≈ 1.6 · 10⁵ bursts),
    /// every burst's recipient is uniform over all n parties; among the
    /// bursts honest parties receive, 80 % carry a gradecast bundle and
    /// 20 % a plain value, the three bundle kinds and the two phases are
    /// equally likely, and a burst sent in round r carries an iteration
    /// tag uniform over `0..=⌈r/3⌉`. Every tolerance is five standard
    /// deviations: χ² ≤ dof + 5·√(2·dof) for the uniform ones.
    #[test]
    fn chaos_bursts_follow_the_documented_mix() {
        let (n, t) = (128, 42);
        let byz: Vec<PartyId> = (n - t..n).map(PartyId).collect();
        let (report, trace) = run_simulation_traced(
            EngineConfig::from(SimConfig {
                n,
                t,
                max_rounds: CHAOS_ROUNDS + 1,
            }),
            |_, _| Recorder {
                byz_from: n - t,
                last_round: 0,
                heard: Vec::new(),
            },
            TreeAaChaos::new(byz, 29, 100.0),
        )
        .unwrap();

        let mut recipients = vec![0usize; n];
        for e in &trace.events {
            if let EventKind::Inject { to, .. } = e.kind {
                recipients[to] += 1;
            }
        }
        let bursts: usize = recipients.iter().sum();
        assert!(bursts >= 100_000, "{bursts} bursts");
        let (chi2, ok) = uniform(&recipients);
        assert!(ok, "recipients: χ² = {chi2} over {} cells", n);

        let heard: Vec<(u32, u8, usize, u32)> =
            report.outputs.into_iter().flatten().flatten().collect();
        let real = heard.iter().filter(|h| h.2 < 3).count();
        assert!(
            binomial(real, heard.len(), 0.8),
            "{real} real of {}",
            heard.len()
        );
        let mut kinds = [0usize; 3];
        let mut phases = [0usize; 2];
        for &(_, phase, kind, _) in &heard {
            if kind < 3 {
                kinds[kind] += 1;
            }
            phases[usize::from(phase) - 1] += 1;
        }
        let (chi2, ok) = uniform(&kinds);
        assert!(ok, "kinds {kinds:?}: χ² = {chi2}");
        assert!(binomial(phases[0], heard.len(), 0.5), "phases {phases:?}");
        // Rounds 3k - 2 ..= 3k draw tags from the same k + 1 values.
        for k in 1..=CHAOS_ROUNDS.div_ceil(3) {
            let mut tags = vec![0usize; k as usize + 1];
            for &(round, _, _, iter) in &heard {
                if round.div_ceil(3) == k {
                    tags[iter as usize] += 1;
                }
            }
            let (chi2, ok) = uniform(&tags);
            assert!(
                ok,
                "tags of rounds {}..={}: {tags:?}, χ² = {chi2}",
                3 * k - 2,
                3 * k
            );
        }
    }

    #[test]
    fn baseline_survives_chaos() {
        use crate::baseline::{NowakRybickiConfig, NowakRybickiParty};
        let tree = Arc::new(generate::path(20));
        let n = 7;
        let t = 2;
        let cfg = NowakRybickiConfig::new(n, t, &tree).unwrap();
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth((i * 3) % m).unwrap())
            .collect();
        for seed in 0..5 {
            let byz = vec![PartyId(seed as usize % n), PartyId((seed as usize + 2) % n)];
            let adv = NrChaos::new(byz.clone(), seed, m);
            let report = run_simulation(
                SimConfig {
                    n,
                    t,
                    max_rounds: cfg.rounds() + 5,
                },
                |id, _| {
                    NowakRybickiParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()])
                },
                adv,
            )
            .unwrap();
            let honest_inputs: Vec<VertexId> = (0..n)
                .filter(|i| !byz.iter().any(|b| b.index() == *i))
                .map(|i| inputs[i])
                .collect();
            check_tree_aa(&tree, &honest_inputs, &report.honest_outputs()).unwrap();
        }
    }
}
