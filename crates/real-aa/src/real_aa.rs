//! The public configuration of the gradecast-based `RealAA` protocol
//! (Theorem 3's building block). The iteration rule, termination, trace
//! events and round schedule are `crate::instance`'s; the one party that
//! runs them, at any number of instances, is
//! [`BundledAaParty`](crate::BundledAaParty).

use crate::rounds::iterations_for;

/// The public constant substituted for leaders whose gradecast was not
/// accepted (grade 0), keeping every multiset at exactly `n` entries.
/// Any public value works (at most `t` slots are non-honest, so the fills
/// are trimmed whenever they are extreme); the budget-split adversary
/// assumes it when it predicts the honest update rule.
pub(crate) const FILL: f64 = 0.0;

/// Public parameters of a `RealAA(ε)` execution. All parties must be
/// constructed with identical configs (the parameters are public in the
/// model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RealAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; the protocol requires `t < n/3`.
    pub t: usize,
    /// Output agreement tolerance ε.
    pub eps: f64,
    /// Public promise: honest inputs are `diameter_bound`-close.
    pub diameter_bound: f64,
    /// When `true`, a party additionally terminates as soon as the spread
    /// of its *accepted* multiset is ≤ ε (sound early stopping: honest
    /// values all carry grade 2, so the accepted spread upper-bounds the
    /// honest spread; once the honest spread is ≤ ε, validity confines all
    /// future honest values — and hence all outputs — to that ε-window).
    pub early_stopping: bool,
    /// When `Some(r)`, run exactly `r` iterations instead of the
    /// [`iterations_for`] formula. Used by convergence experiments that
    /// deliberately under-provision rounds to trace the adversarial
    /// envelope; ε-agreement is only guaranteed when `r` is at least the
    /// formula value.
    pub iterations_override: Option<u32>,
    /// **Ablation only — weakens the protocol.** Skip the fill rule and
    /// average the accepted values alone (variable-size multisets). A
    /// planted extreme value then shifts the trim window and the
    /// per-iteration divergence can reach `range/2` instead of
    /// `t_i/(n−2t)`; the `e10_ablations` experiment quantifies it.
    pub ablate_variable_multisets: bool,
    /// **Ablation only — weakens the protocol.** Never mute detected
    /// equivocators. A single Byzantine leader can then cause an
    /// inconsistency in *every* iteration and round optimality is lost;
    /// quantified by `e10_ablations`.
    pub ablate_no_muting: bool,
}

impl RealAaConfig {
    /// Creates a fixed-round configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`,
    /// `eps ≤ 0`, or `diameter_bound < 0` (or either is non-finite).
    pub fn new(n: usize, t: usize, eps: f64, diameter_bound: f64) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!("RealAA requires n > 3t, got n = {n}, t = {t}"));
        }
        if !eps.is_finite() || eps <= 0.0 {
            return Err(format!("epsilon must be positive and finite, got {eps}"));
        }
        if !diameter_bound.is_finite() || diameter_bound < 0.0 {
            return Err(format!(
                "diameter bound must be finite and >= 0, got {diameter_bound}"
            ));
        }
        Ok(RealAaConfig {
            n,
            t,
            eps,
            diameter_bound,
            early_stopping: false,
            iterations_override: None,
            ablate_variable_multisets: false,
            ablate_no_muting: false,
        })
    }

    /// Enables early stopping (see [`RealAaConfig::early_stopping`]).
    pub fn with_early_stopping(mut self) -> Self {
        self.early_stopping = true;
        self
    }

    /// Fixes the iteration count (see
    /// [`RealAaConfig::iterations_override`]).
    pub fn with_fixed_iterations(mut self, r: u32) -> Self {
        self.iterations_override = Some(r);
        self
    }

    /// Enables the variable-multiset ablation (see
    /// [`RealAaConfig::ablate_variable_multisets`]; weakens the protocol).
    pub fn with_ablated_fill_rule(mut self) -> Self {
        self.ablate_variable_multisets = true;
        self
    }

    /// Enables the no-muting ablation (see
    /// [`RealAaConfig::ablate_no_muting`]; weakens the protocol).
    pub fn with_ablated_muting(mut self) -> Self {
        self.ablate_no_muting = true;
        self
    }

    /// The fixed iteration count `R` of this configuration.
    pub fn iterations(&self) -> u32 {
        self.iterations_override
            .unwrap_or_else(|| iterations_for(self.diameter_bound, self.eps))
    }

    /// Total communication rounds of the fixed-round protocol
    /// (3 per iteration).
    pub fn rounds(&self) -> u32 {
        3 * self.iterations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{firsts, nested, solo, spread};
    use crate::{BundledAaMsg, R64};
    use gradecast::GcBundleMsg;
    use sim_net::{run_simulation, CrashAdversary, PartyId, Passive, Payload, SimConfig};
    use std::sync::Arc;

    #[test]
    fn message_sizes_are_deep() {
        // Lead at k = 1: 4 iter + 1 tag + 1 outer bitmap + 8 value (the
        // R64 is sized at 8 bytes, not size_of::<R64>() shallow).
        let lead = BundledAaMsg {
            iter: 0,
            body: GcBundleMsg::Leads(Arc::new([Some(R64::new(1.0))])),
        };
        assert_eq!(lead.size_bytes(), 4 + 1 + 1 + 8);
        // Echo entries are sized as `size_of::<R64>()`: the same 8.
        assert_eq!(std::mem::size_of::<R64>(), R64::new(1.0).size_bytes());
        // Full 8-slot echo batch at k = 1: 4 iter + 1 tag + 1 outer
        // bitmap + 1 inner bitmap + 8 × 8.
        let inner = (0..8).map(|i| Some(R64::new(i as f64))).collect();
        let echoes = BundledAaMsg {
            iter: 1,
            body: GcBundleMsg::Echoes(Arc::new(nested(&[Some(inner)]))),
        };
        assert_eq!(echoes.size_bytes(), 4 + 1 + 1 + 1 + 64);
    }

    #[test]
    fn step_modes_agree_with_byte_identical_traces_n256() {
        use sim_net::{run_simulation_traced, EngineConfig, StepMode};
        // The kernels genuinely engage here: every echo and vote batch at
        // n = 256 goes through the SSE2 tally sweep (partial ones too:
        // party 3 crashes in round 2) and the trimmed slice has
        // n − 2t = 172 ≥ 128 elements, exercising the chunked sum.
        let n = 256;
        let t = 42;
        let cfg = RealAaConfig::new(n, t, 1.0, 2.0).unwrap();
        let inputs: Vec<f64> = (0..n).map(|i| (i % 17) as f64 / 8.0).collect();
        let run = |mode| {
            run_simulation_traced(
                EngineConfig {
                    sim: SimConfig {
                        n,
                        t,
                        max_rounds: 10 + cfg.rounds(),
                    },
                    step_mode: mode,
                },
                |id, _| solo(id, cfg, inputs[id.index()]),
                CrashAdversary {
                    crashes: vec![(PartyId(3), 2)],
                },
            )
            .unwrap()
        };
        let (ref_report, ref_trace) = run(StepMode::Sequential);
        let ref_bytes = ref_trace.to_canonical_string();
        for mode in [
            StepMode::Parallel { threads: 3 },
            StepMode::Parallel { threads: 0 },
        ] {
            let (report, trace) = run(mode);
            assert_eq!(report, ref_report, "mode {mode:?} diverged");
            assert_eq!(
                trace.to_canonical_string(),
                ref_bytes,
                "mode {mode:?} trace not byte-identical"
            );
        }
        // Trace byte accounting reconciles with the metrics.
        aa_trace::check_round_totals(&ref_trace).unwrap();
        let totals = aa_trace::recomputed_totals(&ref_trace);
        assert_eq!(totals.bytes, ref_report.metrics.total_bytes());
    }

    fn run_honest(n: usize, t: usize, eps: f64, d: f64, inputs: &[f64]) -> Vec<f64> {
        let cfg = RealAaConfig::new(n, t, eps, d).unwrap();
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| solo(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        firsts(&report)
    }

    #[test]
    fn all_honest_exact_agreement_after_first_iteration() {
        // With no Byzantine interference the honest range collapses to a
        // point in the very first iteration.
        let outs = run_honest(4, 1, 1.0, 100.0, &[0.0, 100.0, 40.0, 60.0]);
        assert_eq!(spread(&outs), 0.0);
        // Trimmed mean of all four values: drop 0 and 100, mean(40,60).
        assert!((outs[0] - 50.0).abs() < 1e-12);
    }

    #[test]
    fn validity_within_input_range() {
        let inputs = [2.0, 9.0, 5.0, 7.0, 3.0, 8.0, 4.0];
        let outs = run_honest(7, 2, 0.5, 10.0, &inputs);
        for &o in &outs {
            assert!(
                (2.0..=9.0).contains(&o),
                "output {o} escaped the input range"
            );
        }
    }

    #[test]
    fn zero_iteration_config_outputs_inputs() {
        let outs = run_honest(4, 1, 2.0, 1.0, &[0.3, 0.9, 0.5, 0.7]);
        assert_eq!(outs, vec![0.3, 0.9, 0.5, 0.7]);
    }

    #[test]
    fn crash_faults_tolerated() {
        let cfg = RealAaConfig::new(4, 1, 1.0, 8.0).unwrap();
        let inputs = [0.0, 8.0, 2.0, 6.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| solo(id, cfg, inputs[id.index()]),
            CrashAdversary {
                crashes: vec![(PartyId(1), 2)],
            },
        )
        .unwrap();
        let outs = firsts(&report);
        assert!(spread(&outs) <= 1.0);
        for &o in &outs {
            assert!((0.0..=8.0).contains(&o));
        }
    }

    #[test]
    fn early_stopping_halts_after_one_iteration_without_faults() {
        let cfg = RealAaConfig::new(4, 1, 1.0, 1000.0)
            .unwrap()
            .with_early_stopping();
        assert!(cfg.iterations() > 2);
        let inputs = [0.0, 1000.0, 400.0, 600.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| solo(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        // One full iteration (rounds 1-3) plus the quiet processing round.
        assert_eq!(report.communication_rounds(), 3 + 3);
        // Spread is 0 after iteration 1; parties stop after iteration 2
        // confirms it (accepted spread measured on iteration-1 values is
        // the input spread, which exceeds eps).
        let outs = firsts(&report);
        assert_eq!(spread(&outs), 0.0);
    }

    #[test]
    fn fixed_round_count_matches_config() {
        let cfg = RealAaConfig::new(4, 1, 1.0, 64.0).unwrap();
        let inputs = [0.0, 64.0, 10.0, 30.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| solo(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(report.communication_rounds(), cfg.rounds());
    }

    /// Two colluding leaders (n = 7, t = 2) lead ∓`f64::MAX` and follow
    /// the protocol otherwise: both values are accepted, so `hi − lo`
    /// overflows, and the logged spread must saturate at `f64::MAX`.
    #[test]
    fn colluding_extreme_leads_log_a_finite_spread() {
        use sim_net::StaticByzantine;
        use sim_net::{run_simulation_traced, AdversaryCtx, EngineConfig, EventKind};
        let (n, t) = (7, 2);
        let cfg = RealAaConfig::new(n, t, 1.0, 8.0).unwrap();
        let inputs = [-f64::MAX, f64::MAX, 0.0, 8.0, 3.0, 5.0, 2.0];
        let (report, trace) = run_simulation_traced(
            EngineConfig::from(SimConfig {
                n,
                t,
                max_rounds: 10 + cfg.rounds(),
            }),
            |id, _| solo(id, cfg, inputs[id.index()]),
            StaticByzantine {
                parties: vec![PartyId(0), PartyId(1)],
                behave: |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
                    ctx.forward(PartyId(0));
                    ctx.forward(PartyId(1));
                },
            },
        )
        .unwrap();
        let spreads: Vec<f64> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Proto { event, .. } if event.label == "realaa.iter" => {
                    match event.field("spread") {
                        Some(aa_trace::Json::Num(x)) => Some(*x),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect();
        assert!(
            spreads.contains(&f64::MAX),
            "extremes not accepted: {spreads:?}"
        );
        assert!(spreads.iter().all(|s| s.is_finite()), "{spreads:?}");
        let outs = firsts(&report);
        assert!(spread(&outs) <= cfg.eps);
        assert!(outs.iter().all(|o| (0.0..=8.0).contains(o)), "{outs:?}");
    }

    #[test]
    fn config_rejects_bad_parameters() {
        assert!(RealAaConfig::new(3, 1, 1.0, 1.0).is_err());
        assert!(RealAaConfig::new(4, 1, 0.0, 1.0).is_err());
        assert!(RealAaConfig::new(4, 1, 1.0, -1.0).is_err());
        assert!(RealAaConfig::new(4, 1, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn identical_inputs_identical_outputs() {
        let outs = run_honest(4, 1, 0.1, 50.0, &[7.0, 7.0, 7.0, 7.0]);
        assert!(outs.iter().all(|&o| o == 7.0));
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;
    use crate::{BundledAaMsg, BundledAaParty};
    use sim_net::{step_standalone, Inbox, PartyId, Protocol, Received};

    /// Drive parties manually so the trajectory stays inspectable.
    #[test]
    fn history_records_input_and_every_iteration() {
        let n = 4;
        let cfg = RealAaConfig::new(n, 1, 1.0, 64.0).unwrap();
        let inputs = [0.0, 64.0, 16.0, 48.0];
        let mut parties: Vec<BundledAaParty> = (0..n)
            .map(|i| BundledAaParty::new(PartyId(i), cfg, vec![inputs[i]]).unwrap())
            .collect();
        let mut inboxes: Vec<Inbox<BundledAaMsg>> = (0..n).map(|_| Inbox::empty()).collect();
        for r in 1..=cfg.rounds() + 1 {
            let mut next: Vec<Vec<Received<BundledAaMsg>>> = vec![Vec::new(); n];
            for (i, p) in parties.iter_mut().enumerate() {
                let outbox = step_standalone(p, PartyId(i), n, r, &inboxes[i]);
                for env in outbox.envelopes() {
                    next[env.to.index()].push(Received {
                        from: env.from,
                        payload: env.payload,
                    });
                }
            }
            inboxes = next.into_iter().map(Inbox::from_messages).collect();
        }
        for (i, p) in parties.iter().enumerate() {
            assert!(p.output().is_some());
            let h = p.history(0);
            assert_eq!(h[0], inputs[i]);
            assert_eq!(h.len() as u32, cfg.iterations() + 1);
            // Honest run: iteration 1 collapses everyone to the same
            // trimmed mean, which then persists.
            assert_eq!(h[1], 32.0); // mean of {16, 48} after trimming 0/64
            assert!(h[1..].windows(2).all(|w| w[0] == w[1]));
        }
    }
}
