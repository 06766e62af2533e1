//! Byzantine strategies against the real-valued AA protocols.
//!
//! The centerpiece is [`BudgetSplitEquivocator`], the strategy that
//! realizes the worst-case convergence envelope of Theorem 1/Lemma 5
//! against `RealAA`: it spends its corruption budget `t` across iterations
//! according to a schedule `(t_1, …, t_R)`, burning `t_i` fresh Byzantine
//! leaders in iteration `i` on engineered `{0, 1}` grade splits that make
//! one half of the honest parties accept an extreme value that the other
//! half rejects. Each burned leader is detected (and silenced) by *all*
//! honest parties, so the spread after `R` iterations tracks
//! `D · Π tᵢ / (n − 2t)^R` — maximized by the near-equal split
//! `tᵢ ≈ t/R`, which is exactly the supremum in Fekete's bound.
//!
//! Both strategies speak the one `RealAA` wire, [`BundledAaMsg`]: they
//! attack instance 0 of a bundle (a solo run is `k = 1`).

use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use gradecast::{GcBundle, GcBundleMsg, GcValue};
use sim_net::{Adversary, AdversaryCtx, PartyId};

use crate::bundle::BundledAaMsg;
use crate::real_aa::FILL;
use crate::value::R64;

/// Splits `budget` into `rounds` near-equal positive parts (the maximizer
/// of `Π tᵢ` under `Σ tᵢ ≤ budget`, restricted to using every iteration).
/// When `budget < rounds`, only the first `budget` iterations get one unit
/// each.
///
/// # Example
///
/// ```
/// use real_aa::adversary::equal_split_schedule;
///
/// assert_eq!(equal_split_schedule(7, 3), vec![3, 2, 2]);
/// assert_eq!(equal_split_schedule(2, 4), vec![1, 1, 0, 0]);
/// ```
pub fn equal_split_schedule(budget: usize, rounds: usize) -> Vec<usize> {
    if rounds == 0 {
        return Vec::new();
    }
    let base = budget / rounds;
    let extra = budget % rounds;
    (0..rounds).map(|i| base + usize::from(i < extra)).collect()
}

/// The Fekete-envelope adversary against instance 0 of
/// [`crate::BundledAaParty`].
///
/// Construction takes the statically corrupted set and a per-iteration
/// burn schedule; see the module docs for the strategy. Unburned corrupted
/// parties behave honestly (their tentative traffic is forwarded), both to
/// preserve their budget — a party that deviates detectably is silenced —
/// and to serve as echo/vote helpers for the engineered splits.
#[derive(Clone, Debug)]
pub struct BudgetSplitEquivocator {
    byz: Vec<PartyId>,
    schedule: Vec<usize>,
    next_fresh: usize,
    /// Plans for the iteration currently being attacked:
    /// `(leader, accepting_group, value)`.
    plans: Vec<(PartyId, Vec<PartyId>, f64)>,
    honest: Vec<PartyId>,
    low_group: Vec<PartyId>,
    high_group: Vec<PartyId>,
    /// Attack the same leaders every scheduled iteration instead of
    /// burning fresh ones — only useful against the no-muting ablation,
    /// where detection has no consequences.
    reuse_leaders: bool,
    /// Predict the ablated (variable-multiset) update rule instead of the
    /// fill rule.
    model_variable_multisets: bool,
}

impl BudgetSplitEquivocator {
    /// Creates the adversary.
    ///
    /// # Panics
    ///
    /// Panics if the schedule spends more than `byz.len()` leaders in
    /// total, or if `byz` is empty while the schedule is not all-zero.
    pub fn new(n: usize, byz: Vec<PartyId>, schedule: Vec<usize>) -> Self {
        let spend: usize = schedule.iter().sum();
        assert!(
            spend <= byz.len(),
            "schedule spends {spend} leaders but only {} are corrupted",
            byz.len()
        );
        let honest: Vec<PartyId> = (0..n).map(PartyId).filter(|p| !byz.contains(p)).collect();
        let half = honest.len() / 2;
        BudgetSplitEquivocator {
            low_group: honest[..half].to_vec(),
            high_group: honest[half..].to_vec(),
            honest,
            byz,
            schedule,
            next_fresh: 0,
            plans: Vec::new(),
            reuse_leaders: false,
            model_variable_multisets: false,
        }
    }

    /// Creates a leader-reusing variant: the *same* leaders attack every
    /// scheduled iteration. Only effective against the no-muting ablation
    /// (the real protocol silences them after their first split). The
    /// schedule may spend more than `byz.len()` in total, but no single
    /// iteration may use more leaders than are corrupted.
    ///
    /// # Panics
    ///
    /// Panics if some iteration's burn count exceeds `byz.len()`.
    pub fn new_reusing(n: usize, byz: Vec<PartyId>, schedule: Vec<usize>) -> Self {
        let per_iter = schedule.iter().copied().max().unwrap_or(0);
        assert!(
            per_iter <= byz.len(),
            "iteration burns {per_iter} leaders but only {} are corrupted",
            byz.len()
        );
        let mut adv = Self::new(n, byz, vec![]);
        adv.schedule = schedule;
        adv.reuse_leaders = true;
        adv
    }

    /// Predicts the variable-multiset (ablated) honest update rule.
    pub fn modeling_variable_multisets(mut self) -> Self {
        self.model_variable_multisets = true;
        self
    }

    fn plan_iteration(&mut self, iter: usize, ctx: &AdversaryCtx<'_, BundledAaMsg>, t: usize) {
        self.plans.clear();
        let burn = self.schedule.get(iter).copied().unwrap_or(0);
        if burn == 0 {
            return;
        }
        // Reconstruct the common base multiset M of this iteration: every
        // honest party accepts (at grade 2) the leads of all honest parties
        // and of all still-honest-behaving corrupted parties. Burned
        // leaders are muted by everyone; the leaders about to be burned
        // have their leads replaced below.
        let start = if self.reuse_leaders {
            0
        } else {
            self.next_fresh
        };
        let fresh: Vec<PartyId> = self.byz[start..].iter().copied().take(burn).collect();
        let mut base: Vec<f64> = Vec::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in (0..ctx.n()).map(PartyId) {
            if fresh.contains(&p) {
                continue; // handled as per-group extras below
            }
            if self.byz[..self.next_fresh].contains(&p) && !self.reuse_leaders {
                // Burned earlier: silenced. Under the fill rule every
                // honest party substitutes the public constant; under the
                // ablated rule the slot simply disappears.
                if !self.model_variable_multisets {
                    base.push(FILL);
                }
                continue;
            }
            let outbox = ctx.tentative_outbox(p);
            let mut payloads = outbox
                .broadcasts()
                .iter()
                .chain(outbox.unicasts().iter().map(|e| &e.payload));
            let lead = payloads.find_map(|msg| match &msg.body {
                // Instance 0's lead.
                GcBundleMsg::Leads(leads) => leads.first().and_then(|v| v.map(R64::get)),
                _ => None,
            });
            match lead {
                Some(v) => {
                    base.push(v);
                    if self.honest.contains(&p) {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                // Terminated party: graded 0.
                None if !self.model_variable_multisets => base.push(FILL),
                None => {}
            }
        }
        if fresh.is_empty() || !lo.is_finite() || !hi.is_finite() {
            return; // honest parties are silent (terminated); nothing to do
        }
        if !self.reuse_leaders {
            self.next_fresh += fresh.len();
        }

        // Choose, for each fresh leader, a target group (the honest half
        // that will accept) and a planted value, maximizing the divergence
        // of the two groups' trimmed means. The adversary has full
        // information, so it simply evaluates the update rule. Candidate
        // values: the honest extremes and far-out values (which survive as
        // extra copies of the multiset's edge elements after trimming).
        let spanwidth = (hi - lo).max(1.0);
        let candidates = [lo, hi, lo - 4.0 * spanwidth, hi + 4.0 * spanwidth];
        let options: Vec<(bool, f64)> = candidates
            .iter()
            .flat_map(|&x| [(true, x), (false, x)])
            .collect();

        let variable = self.model_variable_multisets;
        let eval = |assign: &[(bool, f64)]| -> f64 {
            let mut m_high = base.clone();
            let mut m_low = base.clone();
            for &(to_high, x) in assign {
                if to_high {
                    m_high.push(x);
                    if !variable {
                        m_low.push(FILL);
                    }
                } else {
                    if !variable {
                        m_high.push(FILL);
                    }
                    m_low.push(x);
                }
            }
            match (
                crate::multiset::trimmed_mean(&mut m_high, t),
                crate::multiset::trimmed_mean(&mut m_low, t),
            ) {
                (Some(a), Some(b)) => (a - b).abs(),
                _ => 0.0,
            }
        };

        let mut best: Vec<(bool, f64)> = vec![options[0]; fresh.len()];
        let mut best_score = eval(&best);
        if fresh.len() <= 3 {
            // Exhaustive search over per-leader assignments.
            let k = options.len();
            let total = k.pow(fresh.len() as u32);
            for code in 0..total {
                let mut c = code;
                let assign: Vec<(bool, f64)> = (0..fresh.len())
                    .map(|_| {
                        let o = options[c % k];
                        c /= k;
                        o
                    })
                    .collect();
                let score = eval(&assign);
                if score > best_score {
                    best_score = score;
                    best = assign;
                }
            }
        } else {
            // All leaders share the best single option.
            for &opt in &options {
                let assign = vec![opt; fresh.len()];
                let score = eval(&assign);
                if score > best_score {
                    best_score = score;
                    best = assign;
                }
            }
        }

        for (j, &leader) in fresh.iter().enumerate() {
            let (to_high, x) = best[j];
            let group = if to_high {
                self.high_group.clone()
            } else {
                self.low_group.clone()
            };
            self.plans.push((leader, group, x));
        }
    }
}

impl Adversary<BundledAaMsg> for BudgetSplitEquivocator {
    fn round(&mut self, ctx: &mut AdversaryCtx<'_, BundledAaMsg>) {
        if ctx.round() == 1 {
            for &b in &self.byz {
                ctx.corrupt(b).expect("static set within budget");
            }
        }
        let iter = (ctx.round() - 1) / 3;
        let phase = (ctx.round() - 1) % 3;
        let c = self.byz.len();
        let n = ctx.n();
        let t = ctx.t();

        if phase == 0 {
            self.plan_iteration(iter as usize, ctx, t);
            // Every corrupted machine behaves honestly, except that the
            // leaders being burned lead selectively: value x to the first
            // n - t - c honest parties only.
            let s_size = n.saturating_sub(t + c).min(self.honest.len());
            for &b in &self.byz {
                match self.plans.iter().find(|&&(q, _, _)| q == b) {
                    None => ctx.forward(b),
                    Some(&(q, _, x)) => {
                        let own = ctx.tentative_outbox(q).broadcasts().first();
                        let own = own.and_then(|m| match &m.body {
                            GcBundleMsg::Leads(leads) => Some(leads.to_vec()),
                            _ => None,
                        });
                        // Its own leads (or one instance), x in instance 0.
                        let mut leads = own.unwrap_or_else(|| vec![None]);
                        leads[0] = Some(R64::new(x));
                        let leads: Arc<[_]> = leads.into();
                        for &p in &self.honest[..s_size] {
                            let body = GcBundleMsg::Leads(Arc::clone(&leads));
                            ctx.send(q, p, BundledAaMsg { iter, body });
                        }
                    }
                }
            }
            return;
        }

        if self.plans.is_empty() {
            for &b in &self.byz {
                ctx.forward(b);
            }
            return;
        }

        // Top-ups. A receiver absorbs one bundle per sender per phase, so
        // a top-up cannot ride beside the forwarded bundle: each recipient
        // gets *one* bundle per corrupted sender — the corrupted machine's
        // honest bundle, with slot q of instance 0 overwritten for the
        // recipients being topped up.
        //
        // Echo round: every corrupted party echoes x for q to the
        // designated honest voters V (|V| = t + 1 - c members of the
        // accepting group), completing their n - t echoes. Vote round:
        // every corrupted party votes x toward the whole accepting group,
        // lifting it to t + 1 votes (grade 1) while the other group sees
        // at most t.
        let reach = if phase == 1 {
            (t + 1).saturating_sub(c).max(1)
        } else {
            n
        };
        for &b in &self.byz {
            let honest_batch = ctx.tentative_outbox(b).broadcasts().first().cloned();
            for to in (0..n).map(PartyId) {
                let mut topups = self
                    .plans
                    .iter()
                    .filter(|(_, group, _)| group.iter().take(reach).any(|&a| a == to))
                    .map(|&(q, _, x)| (q.index(), R64::new(x)))
                    .peekable();
                if topups.peek().is_none() {
                    if let Some(msg) = &honest_batch {
                        ctx.send(b, to, msg.clone());
                    }
                    continue;
                }
                let base = honest_batch.as_ref().map(|m| &m.body);
                let body = if phase == 1 {
                    let base = match base {
                        Some(GcBundleMsg::Echoes(bundle)) => Some(&**bundle),
                        _ => None,
                    };
                    GcBundleMsg::Echoes(Arc::new(GcBundle::with_first(base, n, topups)))
                } else {
                    let base = match base {
                        Some(GcBundleMsg::Votes(bundle)) => Some(&**bundle),
                        _ => None,
                    };
                    let topups = topups.map(|(q, x)| (q, x.hash32()));
                    GcBundleMsg::Votes(Arc::new(GcBundle::with_first(base, n, topups)))
                };
                ctx.send(b, to, BundledAaMsg { iter, body });
            }
        }
    }
}

/// A chaos adversary for `RealAA`: statically takes a set over
/// ([`AdversaryCtx::take_over`]: the engine stops running their protocol,
/// whose traffic this adversary never reads) and sprays random,
/// arbitrarily tagged one-instance bundles — each speaking for a random
/// subset of leaders — with values drawn from around the honest input
/// range. Used by the property tests: whatever it does, validity and
/// ε-agreement must hold.
#[derive(Clone, Debug)]
pub struct RealAaChaos {
    byz: Vec<PartyId>,
    rng: ChaCha8Rng,
    /// Values are sampled uniformly from this range (deliberately wider
    /// than any honest range to probe validity).
    pub value_range: (f64, f64),
}

impl RealAaChaos {
    /// Creates the adversary with its own deterministic RNG.
    pub fn new(byz: Vec<PartyId>, seed: u64, value_range: (f64, f64)) -> Self {
        use rand::SeedableRng;
        RealAaChaos {
            byz,
            rng: ChaCha8Rng::seed_from_u64(seed),
            value_range,
        }
    }
}

/// A one-instance bundle, each of its `n` slots present with probability ½.
fn random_first<T: GcValue>(
    rng: &mut ChaCha8Rng,
    n: usize,
    mut entry: impl FnMut(&mut ChaCha8Rng) -> T,
) -> GcBundle<T> {
    let mut slots = Vec::new();
    for l in 0..n {
        if rng.gen_bool(0.5) {
            slots.push((l, entry(rng)));
        }
    }
    GcBundle::with_first(None, n, slots)
}

impl Adversary<BundledAaMsg> for RealAaChaos {
    fn round(&mut self, ctx: &mut AdversaryCtx<'_, BundledAaMsg>) {
        if ctx.round() == 1 {
            for &b in &self.byz {
                ctx.take_over(b).expect("static set within budget");
            }
        }
        let n = ctx.n();
        let (lo, hi) = self.value_range;
        let rng = &mut self.rng;
        for &b in &self.byz {
            let bursts = rng.gen_range(0..2 * n);
            for _ in 0..bursts {
                let to = PartyId(rng.gen_range(0..n));
                // Tags near the plausible current iteration, sometimes off.
                let iter = ((ctx.round() - 1) / 3).saturating_sub(rng.gen_range(0..2))
                    + rng.gen_range(0..2u32);
                let x = |rng: &mut ChaCha8Rng| R64::new(rng.gen_range(lo..=hi));
                let body = match rng.gen_range(0..3) {
                    0 => GcBundleMsg::Leads(Arc::new([Some(x(rng))])),
                    1 => GcBundleMsg::Echoes(Arc::new(random_first(rng, n, x))),
                    _ => GcBundleMsg::Votes(Arc::new(random_first(rng, n, |rng| x(rng).hash32()))),
                };
                ctx.send(b, to, BundledAaMsg { iter, body });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{firsts, solo, spread};
    use crate::RealAaConfig;
    use sim_net::{run_simulation, SimConfig};

    #[test]
    fn equal_split_examples() {
        assert_eq!(equal_split_schedule(6, 3), vec![2, 2, 2]);
        assert_eq!(equal_split_schedule(5, 3), vec![2, 2, 1]);
        assert_eq!(equal_split_schedule(0, 2), vec![0, 0]);
        assert_eq!(equal_split_schedule(3, 0), Vec::<usize>::new());
    }

    /// The equivocator burns one leader in iteration 1 against n = 7,
    /// t = 2; the run must preserve validity and ε-agreement, and every
    /// honest party must end up having muted the burned leader.
    #[test]
    fn burned_leader_is_silenced_but_safety_holds() {
        let n = 7;
        let t = 2;
        let cfg = RealAaConfig::new(n, t, 1.0, 100.0).unwrap();
        let byz = vec![PartyId(0), PartyId(1)];
        let adv = BudgetSplitEquivocator::new(n, byz, vec![1, 1]);
        let inputs = [0.0, 0.0, 0.0, 100.0, 30.0, 60.0, 90.0];
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| solo(id, cfg, inputs[id.index()]),
            adv,
        )
        .unwrap();
        let outs = firsts(&report);
        assert!(spread(&outs) <= 1.0, "eps-agreement violated: {outs:?}");
        for &o in &outs {
            assert!((0.0..=100.0).contains(&o), "validity violated: {o}");
        }
    }

    /// Against the equivocator the first attacked iteration must actually
    /// produce divergent honest values (otherwise the adversary is a
    /// no-op and the convergence benchmark is meaningless).
    #[test]
    fn split_produces_real_divergence_then_recovers() {
        let n = 7;
        let t = 2;
        // Only one iteration of budget: after it, all honest multisets
        // agree again and the spread collapses to 0 in the next iteration.
        let cfg = RealAaConfig::new(n, t, 1e-9, 100.0).unwrap();
        let byz = vec![PartyId(5), PartyId(6)];
        let adv = BudgetSplitEquivocator::new(n, byz, vec![2]);
        let inputs = [0.0, 25.0, 50.0, 75.0, 100.0, 0.0, 0.0];
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| solo(id, cfg, inputs[id.index()]),
            adv,
        )
        .unwrap();
        let outs = firsts(&report);
        // eps is tiny; the protocol still converges because the budget is
        // exhausted after iteration 1 and every later iteration is clean.
        assert!(spread(&outs) <= 1e-9, "final spread {}", spread(&outs));
        for &o in &outs {
            assert!((0.0..=100.0).contains(&o));
        }
    }

    #[test]
    #[should_panic(expected = "schedule spends")]
    fn overspending_schedule_rejected() {
        let _ = BudgetSplitEquivocator::new(7, vec![PartyId(0)], vec![2]);
    }
}
