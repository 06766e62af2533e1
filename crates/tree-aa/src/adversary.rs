//! Byzantine strategies against the tree protocols.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use gradecast::{GcBatchMsg, GcSlots, GcValue};
use real_aa::{PlainValueMsg, RealAaMsg, R64};
use sim_net::{Adversary, AdversaryCtx, PartyId};

use crate::baseline::PlainVertexMsg;
use crate::engine::InnerMsg;
use crate::tree_aa::TreeMsg;

/// Chaos against `TreeAA`/`PathsFinder`/projection parties: statically
/// corrupts a set and sprays random phase-tagged engine messages with
/// values across (and beyond) the index domain. Safety properties must
/// survive anything it does.
///
/// Each round a corrupted party picks one leader slot and one value and
/// builds its hostile lead / single-slot echo batch / single-slot vote
/// batch once; the ≈ n unicasts of the round share them by `Arc`, with
/// recipient, iteration tag, kind and phase drawn per message (halving
/// values are drawn per message too — they are plain `f64`s).
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
                ctx.corrupt(b).expect("static set within budget");
            }
        }
        let n = ctx.n();
        let rng = &mut self.rng;
        for &b in &self.byz {
            let span = -1.0..=self.index_span + 1.0;
            let leader = rng.gen_range(0..n);
            let x = R64::new(rng.gen_range(span.clone()));
            let bodies = [
                GcBatchMsg::Lead(x),
                GcBatchMsg::echoes(GcSlots::single(n, leader, x)),
                GcBatchMsg::votes(GcSlots::single(n, leader, x.hash32())),
            ];
            let bursts = rng.gen_range(0..2 * n);
            for _ in 0..bursts {
                let to = PartyId(rng.gen_range(0..n));
                let iter = rng.gen_range(0..ctx.round().div_ceil(3) + 1);
                let inner = if rng.gen_bool(0.8) {
                    let body = bodies[rng.gen_range(0..3usize)].clone();
                    InnerMsg::Real(RealAaMsg { iter, body })
                } else {
                    let value = rng.gen_range(span.clone());
                    InnerMsg::Plain(PlainValueMsg { iter, value })
                };
                let phase = if rng.gen_bool(0.5) { 1 } else { 2 };
                ctx.send(b, to, TreeMsg { phase, inner });
            }
        }
    }
}

/// Chaos against the Nowak–Rybicki baseline: equivocates random (possibly
/// invalid) vertex claims per recipient, per iteration.
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
                ctx.corrupt(b).expect("static set within budget");
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
    use std::sync::Arc;
    use tree_model::generate;
    use tree_model::VertexId;

    const CHAOS_N: usize = 7;

    /// One `TreeAA` run (n = 7, t = 2, caterpillar) under [`TreeAaChaos`]
    /// seeded `seed`: checks validity and 1-agreement, returns the trace.
    fn survive_chaos(seed: u64) -> sim_net::Trace {
        let tree = Arc::new(generate::caterpillar(6, 2));
        let (n, t) = (CHAOS_N, 2);
        let cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree).unwrap();
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth((i * 7) % m).unwrap())
            .collect();
        let byz = vec![PartyId(seed as usize % n), PartyId((seed as usize + 3) % n)];
        let adv = TreeAaChaos::new(byz.clone(), seed, 2.0 * m as f64);
        let (report, trace) = run_simulation_traced(
            EngineConfig::from(SimConfig {
                n,
                t,
                max_rounds: cfg.total_rounds() + 5,
            }),
            |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            adv,
        )
        .unwrap();
        let honest_inputs: Vec<VertexId> = (0..n)
            .filter(|i| !byz.iter().any(|b| b.index() == *i))
            .map(|i| inputs[i])
            .collect();
        check_tree_aa(&tree, &honest_inputs, &report.honest_outputs()).unwrap();
        trace
    }

    #[test]
    fn tree_aa_survives_chaos() {
        for seed in 0..5 {
            survive_chaos(seed);
        }
    }

    /// The chaos must be traffic the engine parses, not noise it drops:
    /// when a hostile lead lands, the honest recipient echoes it, so its
    /// echo batch carries a slot for a corrupted leader and outgrows the
    /// largest batch honest leads alone can produce.
    #[test]
    fn chaos_traffic_reaches_the_engine() {
        let honest_leaders = (0..CHAOS_N).map(|i| (i >= 2).then(|| R64::new(0.0)));
        let honest_only = TreeMsg {
            phase: 1,
            inner: InnerMsg::Real(RealAaMsg {
                iter: 0,
                body: GcBatchMsg::echoes(GcSlots::from_options(honest_leaders.collect())),
            }),
        };
        for seed in 0..5 {
            let parsed = survive_chaos(seed).events.iter().any(|e| {
                matches!(e.kind, EventKind::Broadcast { bytes, byzantine: false, .. }
                    if bytes > honest_only.size_bytes())
            });
            assert!(parsed, "seed {seed}: no honest party echoed a hostile lead");
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
