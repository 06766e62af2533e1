//! The `RealAA` iteration, written once.
//!
//! [`Instance`] is one `RealAA(ε)` instance minus its gradecast, and
//! [`Phase::of`] is the round schedule.
//! [`BundledAaParty`](crate::BundledAaParty) runs k of them behind one
//! `BundleGradecast` and keeps only the wire; a solo run is `k = 1`.

use gradecast::{Grade, GradecastOutput};
use sim_net::{Payload, ProtoEvent, RoundCtx};

use crate::multiset::trimmed_mean;
use crate::real_aa::{RealAaConfig, FILL};
use crate::value::R64;

/// What the schedule asks of a party in one round. Iteration `i`
/// (0-based) occupies rounds `3i+1` (lead), `3i+2` (echo) and `3i+3`
/// (vote); its votes are graded at the start of round `3i+4`, the next
/// iteration's lead round, so iterations pipeline seamlessly and the
/// protocol uses exactly `3R` communication rounds.
pub(crate) enum Phase {
    /// Output the current value: no iterations (inputs are promised
    /// ε-close), or past the schedule (a benign fault froze the party
    /// through its decision round; the value never leaves the hull).
    Decide,
    /// Round `3i+1`: grade iteration `i − 1` if there is one, then lead
    /// iteration `iter = i`.
    Lead { grade: Option<Grading>, iter: u32 },
    /// Round `3i+2`: absorb iteration `i`'s leads and echo.
    Echo(u32),
    /// Round `3i+3`: absorb iteration `i`'s echoes and vote.
    Vote(u32),
}

/// An iteration to grade, with `R` computed once a round, not per instance.
#[derive(Clone, Copy)]
pub(crate) struct Grading {
    pub(crate) iter: u32,
    iterations: u32,
}

impl Phase {
    /// The round schedule of `cfg`.
    pub(crate) fn of(cfg: &RealAaConfig, round: u32) -> Phase {
        let iterations = cfg.iterations();
        if iterations == 0 || round > 3 * iterations + 1 {
            return Phase::Decide;
        }
        let iter = (round - 1) / 3;
        match (round - 1) % 3 {
            0 => {
                let grade = iter.checked_sub(1).map(|iter| Grading { iter, iterations });
                Phase::Lead { grade, iter }
            }
            1 => Phase::Echo(iter),
            _ => Phase::Vote(iter),
        }
    }
}

/// Scratch of [`Instance::finish`], reused across instances and iterations.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    multiset: Vec<f64>,
    accepted: Vec<f64>,
}

/// One `RealAA` instance's state apart from its wire. Only
/// [`Instance::finish`] and [`Instance::decide`] change it.
#[derive(Clone, Debug)]
pub(crate) struct Instance {
    pub(crate) value: f64,
    /// Value after each completed iteration (index 0 = input).
    pub(crate) history: Vec<f64>,
    pub(crate) output: Option<f64>,
    /// The bundle slot, its events' `inst` field (0 at `k = 1`).
    inst: usize,
}

impl Instance {
    /// An instance with room in its history for the input and each of
    /// the schedule's `iterations`. Panics on a non-finite input (honest
    /// inputs are real values).
    pub(crate) fn new(input: f64, inst: usize, iterations: u32) -> Self {
        assert!(input.is_finite(), "honest inputs must be finite");
        let mut history = Vec::with_capacity(iterations as usize + 1);
        history.push(input);
        Instance {
            value: input,
            history,
            output: None,
            inst,
        }
    }

    /// Decides on the current value unless already decided.
    pub(crate) fn decide(&mut self) -> f64 {
        *self.output.get_or_insert(self.value)
    }

    /// Completes iteration `at.iter` from its `grades` (one per leader):
    /// the `gc.grade` events, the iteration rule, the `realaa.iter` event,
    /// the termination rule; returns whether the instance has decided.
    /// Inlined (measured): the bundle calls it k times a grading round.
    #[inline]
    pub(crate) fn finish<M: Payload>(
        &mut self,
        cfg: &RealAaConfig,
        at: Grading,
        grades: &[GradecastOutput<R64>],
        muted: &mut [bool],
        scratch: &mut Scratch,
        ctx: &mut RoundCtx<M>,
    ) -> bool {
        let head = |label| {
            ProtoEvent::new(label)
                .u64("iter", u64::from(at.iter))
                .u64("inst", self.inst as u64)
        };
        for (leader, out) in grades.iter().enumerate() {
            ctx.emit_with(|| {
                let mut ev = head("gc.grade")
                    .u64("leader", leader as u64)
                    .u64("grade", u64::from(out.grade.as_u8()));
                if let Some(v) = out.value {
                    ev = ev.f64("value", v.get());
                }
                ev
            });
        }
        let (mean, accepted) = apply_iteration(cfg, grades, muted, scratch);
        // `None` is unreachable (the multiset always has n > 3t > 2t
        // entries); keeping the current value would preserve validity.
        self.value = mean.unwrap_or(self.value);
        self.history.push(self.value);
        // Saturated: two accepted values at ∓`f64::MAX` (colluding leaders,
        // t ≥ 2) are `+inf` apart, and a logged spread stays finite.
        let spread = accepted.map(|(lo, hi)| (hi - lo).min(f64::MAX));
        ctx.emit_with(|| {
            let mut ev = head("realaa.iter");
            if let (Some((lo, hi)), Some(spread)) = (accepted, spread) {
                ev = ev.f64("lo", lo).f64("hi", hi).f64("spread", spread);
            }
            ev.f64("value", self.value)
        });
        // The termination rule: the fixed count, or (early stopping) an
        // accepted spread within ε.
        let fixed_done = self.history.len() > at.iterations as usize;
        let early = cfg.early_stopping && spread.is_some_and(|s| s <= cfg.eps);
        if fixed_done || early {
            self.output = Some(self.value);
        }
        self.output.is_some()
    }
}

/// The numeric core of one completed iteration — multiset construction
/// with the fill rule, muting, accepted-range scan, trimmed mean. Returns
/// the trimmed mean to adopt and the accepted range (`None` when nothing
/// was accepted).
///
/// The accepted-range scan and the trimmed-mean sum run through the
/// `aa-kernels` chunked kernels: exact left-to-right/streaming semantics
/// below the dispatch threshold (recorded small-n traces unchanged),
/// auto-vectorized at the n ≥ 1024 scale sizes.
fn apply_iteration(
    cfg: &RealAaConfig,
    grades: &[GradecastOutput<R64>],
    muted: &mut [bool],
    scratch: &mut Scratch,
) -> (Option<f64>, Option<(f64, f64)>) {
    // Build the size-n multiset: one slot per leader, the accepted value
    // for grades >= 1 and the public fill constant otherwise. Keeping
    // every honest multiset at exactly n entries is essential: two honest
    // multisets then differ in at most t_i *replacements* (the leaders
    // burned this iteration), and the trimmed means of equal-size
    // multisets differing in k replacements diverge by at most
    // k * range / (n - 2t) — the envelope behind Theorem 3. (With
    // variable-size multisets, one planted extreme value shifts the whole
    // trim window and the divergence can reach range/2.)
    scratch.multiset.clear();
    scratch.accepted.clear();
    for (leader, out) in grades.iter().enumerate() {
        // Acceptance is purely grade-based; muting below only affects
        // future relaying (see crate docs).
        if out.accepted() {
            let v = out.value.expect("accepted implies value").get();
            scratch.multiset.push(v);
            scratch.accepted.push(v);
        } else if !cfg.ablate_variable_multisets {
            scratch.multiset.push(FILL);
        }
        if out.grade <= Grade::One && !cfg.ablate_no_muting {
            muted[leader] = true;
        }
    }
    (
        trimmed_mean(&mut scratch.multiset, cfg.t),
        aa_kernels::min_max_f64(&scratch.accepted),
    )
}
