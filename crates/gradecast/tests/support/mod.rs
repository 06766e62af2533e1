//! Helpers shared by the unit tests under `src/` (the library includes
//! this file through `#[path]`) and the integration tests under `tests/`.
//!
//! The includer names `BundleGradecast`, `GcBundle`, `GcBundleMsg`,
//! `GcValue` and `GradecastOutput` at its crate root: the library exports
//! them there, and a test file imports them from `gradecast`.

// Each test crate that includes this file uses a subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use crate::{BundleGradecast, GcBundle, GcBundleMsg, GcValue, GradecastOutput};
use sim_net::{Inbox, PartyId, Protocol, RoundCtx};

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

/// One parallel gradecast on a simulation: every party leads one
/// instance (`k = 1`) with its input and outputs its per-leader grades
/// after three communication rounds.
#[derive(Clone, Debug)]
pub struct Solo {
    value: u64,
    gc: BundleGradecast<u64>,
    output: Option<Vec<GradecastOutput<u64>>>,
}

impl Solo {
    /// Party `me` of `n` (corruption bound `t`), leading `value`.
    pub fn new(me: PartyId, n: usize, t: usize, value: u64) -> Self {
        let gc = BundleGradecast::new(me, n, t, 1).expect("k = 1");
        Solo {
            value,
            gc,
            output: None,
        }
    }
}

impl Protocol for Solo {
    type Msg = GcBundleMsg<u64>;
    type Output = Vec<GradecastOutput<u64>>;

    fn step(&mut self, round: u32, inbox: &Inbox<Self::Msg>, ctx: &mut RoundCtx<Self::Msg>) {
        let heard = || inbox.iter().map(|e| (e.from, &e.payload));
        match round {
            1 => ctx.broadcast(self.gc.lead_msg(Arc::new([Some(self.value)]))),
            2 => ctx.broadcast(self.gc.on_leads(heard(), &[true])),
            3 => ctx.broadcast(self.gc.on_echoes(heard(), &[true])),
            4 => self.output = self.gc.on_votes(heard(), &[true]).remove(0),
            _ => {}
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.output.clone()
    }
}
