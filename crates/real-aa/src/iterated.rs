//! The classic iteration-based AA baseline (Dolev et al. [12]): one
//! broadcast round per iteration, trim-and-halve update, `O(log(D/ε))`
//! rounds. `RealAA` is benchmarked against this throughout the experiment
//! harness.

use sim_net::{Inbox, PartyId, Payload, Protocol, RoundCtx};

use crate::multiset::trimmed_midpoint;
use crate::rounds::halving_iterations;

/// Public parameters of the halving baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IteratedAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; requires `t < n/3`.
    pub t: usize,
    /// Output agreement tolerance ε.
    pub eps: f64,
    /// Public promise: honest inputs are `diameter_bound`-close.
    pub diameter_bound: f64,
}

impl IteratedAaConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`,
    /// `eps ≤ 0`, or `diameter_bound < 0` (or non-finite values).
    pub fn new(n: usize, t: usize, eps: f64, diameter_bound: f64) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!("iterated AA requires n > 3t, got n = {n}, t = {t}"));
        }
        if !eps.is_finite() || eps <= 0.0 {
            return Err(format!("epsilon must be positive and finite, got {eps}"));
        }
        if !diameter_bound.is_finite() || diameter_bound < 0.0 {
            return Err(format!(
                "diameter bound must be finite and >= 0, got {diameter_bound}"
            ));
        }
        Ok(IteratedAaConfig {
            n,
            t,
            eps,
            diameter_bound,
        })
    }

    /// Fixed iteration count `⌈log₂(D/ε)⌉` (1 round each).
    pub fn iterations(&self) -> u32 {
        halving_iterations(self.diameter_bound, self.eps)
    }

    /// Total communication rounds (1 per iteration).
    pub fn rounds(&self) -> u32 {
        self.iterations()
    }
}

/// A plain broadcast value message (iteration-tagged so Byzantine replays
/// across iterations are ignored).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlainValueMsg {
    /// Iteration index (0-based).
    pub iter: u32,
    /// The sender's current value.
    pub value: f64,
}

impl Payload for PlainValueMsg {
    fn size_bytes(&self) -> usize {
        4 + 8
    }
}

/// One party of the halving baseline: in each iteration, broadcast the
/// current value, trim the `t` extremes on each side of the received
/// multiset, and move to the midpoint of the survivors. Unlike `RealAA`
/// there is no equivocation detection, so a Byzantine party can perturb
/// *every* iteration — which is exactly why this protocol cannot beat a
/// per-iteration halving and needs `Θ(log(D/ε))` rounds.
#[derive(Clone, Debug)]
pub struct IteratedAaParty {
    cfg: IteratedAaConfig,
    value: f64,
    iterations_done: u32,
    output: Option<f64>,
}

impl IteratedAaParty {
    /// Creates the party with its input value.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not finite or `me` is out of range.
    pub fn new(me: PartyId, cfg: IteratedAaConfig, input: f64) -> Self {
        assert!(input.is_finite(), "honest inputs must be finite");
        assert!(me.index() < cfg.n, "party id out of range");
        IteratedAaParty {
            cfg,
            value: input,
            iterations_done: 0,
            output: None,
        }
    }

    /// The party's running estimate.
    pub fn current_value(&self) -> f64 {
        self.value
    }
}

impl IteratedAaParty {
    /// [`Protocol::step`] on `(sender, message)` pairs instead of an
    /// [`Inbox`] (see `RealAaParty::step_on`).
    pub fn step_on<'a>(
        &mut self,
        round: u32,
        received: impl Iterator<Item = (PartyId, &'a PlainValueMsg)>,
        ctx: &mut RoundCtx<PlainValueMsg>,
    ) {
        if self.output.is_some() {
            return;
        }
        if round == 1 && self.cfg.iterations() == 0 {
            self.output = Some(self.value);
            return;
        }
        if round > self.cfg.rounds() + 1 {
            // Past the schedule (a benign fault froze us through the
            // decision round): adopt the current value, which never
            // leaves the hull of accepted values.
            self.output = Some(self.value);
            return;
        }
        // Round r delivers iteration r-2's values (round 1 delivers
        // nothing) and sends iteration r-1's.
        if round >= 2 {
            let iter_tag = round - 2;
            // Keep one value per sender for this iteration (first wins).
            let mut seen = vec![false; self.cfg.n];
            let mut values = Vec::with_capacity(self.cfg.n);
            for (from, msg) in received {
                if msg.iter == iter_tag && msg.value.is_finite() && !seen[from.index()] {
                    seen[from.index()] = true;
                    values.push(msg.value);
                }
            }
            if let Some(mid) = trimmed_midpoint(&mut values, self.cfg.t) {
                self.value = mid;
            }
            self.iterations_done += 1;
            ctx.emit_with(|| {
                sim_net::ProtoEvent::new("halving.iter")
                    .u64("iter", u64::from(iter_tag))
                    .f64("value", self.value)
            });
            if self.iterations_done >= self.cfg.iterations() {
                self.output = Some(self.value);
                return;
            }
        }
        ctx.broadcast(PlainValueMsg {
            iter: round - 1,
            value: self.value,
        });
    }
}

impl Protocol for IteratedAaParty {
    type Msg = PlainValueMsg;
    type Output = f64;

    fn step(
        &mut self,
        round: u32,
        inbox: &Inbox<PlainValueMsg>,
        ctx: &mut RoundCtx<PlainValueMsg>,
    ) {
        self.step_on(round, inbox.iter().map(|e| (e.from, &e.payload)), ctx);
    }

    fn output(&self) -> Option<f64> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::{run_simulation, AdversaryCtx, Passive, SimConfig, StaticByzantine};

    fn spread(outs: &[f64]) -> f64 {
        let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    #[test]
    fn message_size_is_iter_plus_value() {
        assert_eq!(
            PlainValueMsg {
                iter: 0,
                value: 1.5
            }
            .size_bytes(),
            12
        );
    }

    #[test]
    fn converges_all_honest() {
        let cfg = IteratedAaConfig::new(4, 1, 1.0, 64.0).unwrap();
        let inputs = [0.0, 64.0, 16.0, 48.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| IteratedAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert!(spread(&outs) <= 1.0);
        for &o in &outs {
            assert!((0.0..=64.0).contains(&o));
        }
        assert_eq!(report.communication_rounds(), cfg.rounds());
    }

    #[test]
    fn uses_one_round_per_iteration() {
        let cfg = IteratedAaConfig::new(4, 1, 1.0, 1024.0).unwrap();
        assert_eq!(cfg.rounds(), 10); // log2(1024)
    }

    #[test]
    fn equivocating_byzantine_cannot_break_validity_or_agreement() {
        let cfg = IteratedAaConfig::new(4, 1, 1.0, 8.0).unwrap();
        let inputs = [0.0, 8.0, 4.0, 999.0]; // p3 corrupted below
        let adv = StaticByzantine {
            parties: vec![PartyId(3)],
            behave: |ctx: &mut AdversaryCtx<'_, PlainValueMsg>| {
                let iter = ctx.round() - 1;
                // Send +inf-like extremes: high to p0, low to p1.
                ctx.send(PartyId(3), PartyId(0), PlainValueMsg { iter, value: 1e12 });
                ctx.send(PartyId(3), PartyId(1), PlainValueMsg { iter, value: -1e12 });
                ctx.send(PartyId(3), PartyId(2), PlainValueMsg { iter, value: 1e12 });
            },
        };
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| IteratedAaParty::new(id, cfg, inputs[id.index()]),
            adv,
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert!(spread(&outs) <= 1.0, "spread {} too large", spread(&outs));
        for &o in &outs {
            assert!((0.0..=8.0).contains(&o), "validity violated: {o}");
        }
    }

    #[test]
    fn nonfinite_byzantine_values_are_dropped() {
        let cfg = IteratedAaConfig::new(4, 1, 1.0, 4.0).unwrap();
        let inputs = [0.0, 4.0, 2.0, 2.0];
        let adv = StaticByzantine {
            parties: vec![PartyId(3)],
            behave: |ctx: &mut AdversaryCtx<'_, PlainValueMsg>| {
                let iter = ctx.round() - 1;
                ctx.broadcast(
                    PartyId(3),
                    PlainValueMsg {
                        iter,
                        value: f64::NAN,
                    },
                );
            },
        };
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| IteratedAaParty::new(id, cfg, inputs[id.index()]),
            adv,
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert!(spread(&outs) <= 1.0);
        for &o in &outs {
            assert!(o.is_finite() && (0.0..=4.0).contains(&o));
        }
    }
}
