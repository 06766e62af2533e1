//! Helpers shared by the unit tests under `src/` (the library includes
//! this file through `#[path]`) and the integration tests under `tests/`:
//! a solo `RealAA` run is the bundle at `k = 1`, and a gradecast bundle
//! can be written as nested slots.
//!
//! The includer names `BundledAaParty` and `RealAaConfig` at its crate
//! root: the library re-exports them there, and a test file imports them
//! from `real_aa`.

// Each test crate that includes this file uses a subset of it.
#![allow(dead_code)]

use crate::{BundledAaParty, RealAaConfig};
use gradecast::{GcBundle, GcValue};
use sim_net::{PartyId, RunReport};

/// The bundle of nested slots: per instance, `None` if absent, else its
/// slots over the leaders, `None` where absent.
pub fn nested<T: GcValue>(slots: &[Option<Vec<Option<T>>>]) -> GcBundle<T> {
    let outer = slots.iter().map(Option::is_some).collect();
    let widths = slots.iter().flatten().map(Vec::len).collect();
    let lanes = || slots.iter().flatten().flatten();
    let present = lanes().map(Option::is_some).collect();
    let keys = lanes().map(|e| e.as_ref().map_or(0, T::bits64)).collect();
    GcBundle::from_lanes(outer, widths, present, keys).expect("nested slots are lanes")
}

/// A solo `RealAA` party: the bundle at `k = 1`.
pub fn solo(id: PartyId, cfg: RealAaConfig, input: f64) -> BundledAaParty {
    BundledAaParty::new(id, cfg, vec![input]).expect("k = 1")
}

/// The honest outputs of a `k = 1` run.
pub fn firsts(report: &RunReport<Vec<f64>>) -> Vec<f64> {
    report.honest_outputs().iter().map(|o| o[0]).collect()
}

/// max − min of a value slice.
pub fn spread(outs: &[f64]) -> f64 {
    let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}
