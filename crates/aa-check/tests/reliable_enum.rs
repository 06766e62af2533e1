//! The `Reliable` sublayer under exhaustively enumerated schedules.
//!
//! The in-crate `async-net` tests cover the reliable sublayer under
//! *sampled* fault schedules; here the enumerating scheduler drives it
//! through **every** delivery order up to a decision depth, with every
//! send duplicated at the link layer (`duplicate_sends`), asserting on
//! each explored schedule that
//!
//! * duplicate deliveries are filtered before the inner protocol
//!   (exactly-once semantics survive adversarial reordering), and
//! * the 63-bit sequence space wraps below `RETRANSMIT_BIT` without
//!   colliding acks or retransmit timers, even when the counter starts
//!   at the wrap boundary.

use std::collections::BTreeSet;

use aa_check::sched::EnumeratingScheduler;
use async_net::{
    run_async_with, AsyncConfig, AsyncCtx, AsyncProtocol, DelayModel, PassiveAsync, Reliable,
    RETRANSMIT_BIT,
};
use sim_net::Envelope;

/// Outputs the total inner deliveries once every sender has been heard.
/// If the reliable layer ever leaked a duplicate to the inner protocol
/// before completion, `total` would exceed the number of distinct
/// senders at decision time.
#[derive(Debug)]
struct CountDistinct {
    n: usize,
    total: usize,
    distinct: BTreeSet<usize>,
}

impl CountDistinct {
    fn new(n: usize) -> Self {
        CountDistinct {
            n,
            total: 0,
            distinct: BTreeSet::new(),
        }
    }
}

impl AsyncProtocol for CountDistinct {
    type Msg = u64;
    type Output = usize;

    fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
        ctx.broadcast(ctx.me().index() as u64);
    }

    fn on_message(&mut self, env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {
        self.total += 1;
        self.distinct.insert(env.from.index());
    }

    fn output(&self) -> Option<usize> {
        (self.distinct.len() >= self.n).then_some(self.total)
    }
}

/// Runs every schedule of `n` parties of [`Reliable<CountDistinct>`] up
/// to `depth` enumerated decisions with link-level duplication of every
/// send, asserting exactly-once inner delivery on each; returns
/// `(executions, completed)`.
fn explore_reliable(n: usize, depth: usize, first_seq: u64, max_runs: usize) -> (usize, usize) {
    let cfg = AsyncConfig {
        n,
        t: 0,
        seed: 0,
        delay: DelayModel::Lockstep,
        max_events: 100_000,
    };
    let mut script: Vec<usize> = Vec::new();
    let mut executions = 0;
    let mut completed = 0;
    loop {
        executions += 1;
        assert!(
            executions <= max_runs,
            "exploration did not finish within {max_runs} runs"
        );
        // Only the sleep-set rule cuts runs.
        let mut sched = EnumeratingScheduler::new(depth, &script);
        sched.duplicate_sends = true;
        let result = run_async_with(
            &cfg,
            None,
            |_, _| Reliable::with_initial_seq(CountDistinct::new(n), n, first_seq),
            PassiveAsync,
            &mut sched,
            None,
        );
        let pruned = sched.pruned_by_sleep;
        match result {
            Ok(report) => {
                completed += 1;
                assert_eq!(
                    report.outputs,
                    vec![Some(n); n],
                    "a schedule leaked a duplicate into the inner protocol \
                     (script {script:?}, first_seq {first_seq:#x})"
                );
                assert!(
                    report.metrics.fault_dups > 0,
                    "link duplication was active on every run"
                );
            }
            Err(e) => assert!(
                pruned,
                "non-pruned schedule failed (script {script:?}): {e:?}"
            ),
        }
        let next = (0..sched.taken.len())
            .rev()
            .find(|&k| sched.taken[k] + 1 < sched.branching[k]);
        match next {
            Some(k) => {
                script = sched.taken[..k].to_vec();
                script.push(sched.taken[k] + 1);
            }
            None => break,
        }
    }
    (executions, completed)
}

#[test]
fn duplicates_are_deduped_on_every_enumerated_schedule() {
    let (executions, completed) = explore_reliable(3, 3, 0, 100_000);
    assert!(executions > 1, "the schedule tree must branch");
    assert!(completed >= 1);
}

#[test]
fn wraparound_seqs_survive_every_enumerated_schedule() {
    // The sender-side counter starts two frames below the wrap boundary,
    // so the first broadcast spans {2^63-2, 2^63-1, 0}: acks and
    // retransmit tokens for wrapped and unwrapped seqs coexist in every
    // explored delivery order.
    let (executions, completed) = explore_reliable(3, 3, RETRANSMIT_BIT - 2, 100_000);
    assert!(executions > 1);
    assert!(completed >= 1);
}

#[test]
fn exploration_counts_are_deterministic() {
    let a = explore_reliable(3, 2, RETRANSMIT_BIT - 2, 100_000);
    let b = explore_reliable(3, 2, RETRANSMIT_BIT - 2, 100_000);
    assert_eq!(a, b);
}

#[test]
fn duplicate_ack_floods_cannot_unstick_the_wrap_counter() {
    // Direct (non-enumerated) check of the ack path at the wrap
    // boundary, mirroring the in-crate duplicate-ack test but through
    // the public constructor: redundant acks for a wrapped seq are
    // idempotent across every delivery interleaving of the first hop.
    let cfg = AsyncConfig {
        n: 2,
        t: 0,
        seed: 0,
        delay: DelayModel::Lockstep,
        max_events: 50_000,
    };
    let mut script: Vec<usize> = Vec::new();
    let mut runs = 0;
    loop {
        runs += 1;
        assert!(runs <= 10_000);
        let mut sched = EnumeratingScheduler::new(4, &script);
        sched.duplicate_sends = true; // every Data *and every Ack* doubled
        let result = run_async_with(
            &cfg,
            None,
            |_, _| Reliable::with_initial_seq(CountDistinct::new(2), 2, RETRANSMIT_BIT - 1),
            PassiveAsync,
            &mut sched,
            None,
        );
        match result {
            Ok(report) => assert_eq!(report.outputs, vec![Some(2); 2]),
            Err(e) => assert!(sched.pruned_by_sleep, "{e:?}"),
        }
        let next = (0..sched.taken.len())
            .rev()
            .find(|&k| sched.taken[k] + 1 < sched.branching[k]);
        match next {
            Some(k) => {
                script = sched.taken[..k].to_vec();
                script.push(sched.taken[k] + 1);
            }
            None => break,
        }
    }
    assert!(runs > 1);
}
