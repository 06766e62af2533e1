//! The enumerating [`Scheduler`]: one deterministic execution per choice
//! script, with sleep-set pruning.
//!
//! The checker explores delivery schedules by *re-execution*: a run is a
//! pure function of its **choice script** — at each of the first `depth`
//! message deliveries the scheduler picks the script's choice among the
//! currently deliverable (awake) messages; past the script (or the depth
//! horizon) it always picks choice 0, which is FIFO creation order, the
//! canonical tail. While executing, the scheduler records how many
//! choices were available at each decision (`branching`) and which was
//! taken (`taken`), which is exactly what the driver needs to enumerate
//! the next unexplored script.
//!
//! One pruning rule collapses redundant interleavings, **sleep sets**
//! (DPOR): when the driver explores the siblings of a decision in order,
//! each later sibling's subtree need not re-deliver the earlier siblings
//! first — they are put to sleep and wake only when a *dependent* event
//! (a delivery to the same recipient) runs. If every pending message is
//! asleep the whole branch is redundant and the run stops with
//! [`EnumeratingScheduler::pruned_by_sleep`]. There is no visited-state
//! rule: every branch that is not sleep-pruned runs to completion.
//!
//! Timers only fire at quiescence (no deliverable message), at
//! `max(now, due)` in `(due, creation)` order — the natural enumeration
//! analogue of "timers are slower than any message chain".

use async_net::{AsyncMetrics, SchedEvent, Scheduler};
use sim_net::{Envelope, PartyId, Payload};

/// Advance of the synthetic clock per popped event — keeps activation
/// times strictly increasing (so silence bookkeeping stays ordered)
/// while never crossing a unit-time boundary within a plausible run.
const TICK: f64 = 1e-6;

/// A message sitting in the enumeration queue (kept in creation order —
/// position 0 is the canonical FIFO head).
struct PendingMsg<M> {
    env: Envelope<M>,
    /// Asleep: not choosable until a same-recipient delivery wakes it.
    asleep: bool,
}

/// See the [module docs](self).
pub struct EnumeratingScheduler<M> {
    /// Enumeration horizon: decisions beyond this index take choice 0.
    depth: usize,
    /// Choices to replay; shorter than `depth` means canonical tail.
    script: Vec<usize>,
    pending: Vec<PendingMsg<M>>,
    /// `(due, id, party, token)` — popped at quiescence in `(due, id)`
    /// order.
    timers: Vec<(f64, u64, PartyId, u64)>,
    next_id: u64,
    now: f64,
    /// Deliveries recorded in order (`from`, `to`, payload bytes) — the
    /// raw material of counterexample traces.
    pub deliveries: Vec<(usize, usize, usize)>,
    /// Number of awake choices at each decision point.
    pub branching: Vec<usize>,
    /// Choice taken at each decision point.
    pub taken: Vec<usize>,
    /// Set when a branch died because every pending message was asleep.
    pub pruned_by_sleep: bool,
    /// When `true`, every pushed send is enqueued twice — the
    /// at-least-once link abstraction used to drive the [`Reliable`]
    /// sublayer's dedup logic through enumerated schedules.
    ///
    /// [`Reliable`]: async_net::Reliable
    pub duplicate_sends: bool,
    metrics: AsyncMetrics,
}

impl<M: Payload> EnumeratingScheduler<M> {
    /// Creates a scheduler that replays `script` and enumerates up to
    /// `depth` decisions.
    pub fn new(depth: usize, script: &[usize]) -> Self {
        EnumeratingScheduler {
            depth,
            script: script.to_vec(),
            pending: Vec::new(),
            timers: Vec::new(),
            next_id: 0,
            now: 0.0,
            deliveries: Vec::new(),
            branching: Vec::new(),
            taken: Vec::new(),
            pruned_by_sleep: false,
            duplicate_sends: false,
            metrics: AsyncMetrics::default(),
        }
    }

    fn enqueue(&mut self, env: Envelope<M>) {
        self.pending.push(PendingMsg { env, asleep: false });
    }
}

impl<M: Payload> Scheduler<M> for EnumeratingScheduler<M> {
    fn push_send(&mut self, _now: f64, env: Envelope<M>) {
        if self.duplicate_sends {
            self.metrics.fault_dups += 1;
            self.enqueue(env.clone());
        }
        self.enqueue(env);
    }

    fn push_timer(&mut self, now: f64, party: PartyId, token: u64, delay: f64) {
        self.timers.push((now + delay, self.next_id, party, token));
        self.next_id += 1;
    }

    fn pop(&mut self) -> Option<(f64, SchedEvent<M>)> {
        if !self.pending.is_empty() {
            let k = self.taken.len();
            let pos = if k < self.depth {
                // Enumerated decision: choose among awake messages.
                let awake: Vec<usize> = (0..self.pending.len())
                    .filter(|&i| !self.pending[i].asleep)
                    .collect();
                if awake.is_empty() {
                    // Every continuation from here re-orders events whose
                    // interleavings an earlier sibling already covers.
                    self.pruned_by_sleep = true;
                    return None;
                }
                // Clamp rather than assert: scripts generated against a
                // different assignment (the minimizer mutates behaviours)
                // may over-index a narrower awake list; `taken` records
                // what actually ran, so replays stay faithful.
                let choice = self
                    .script
                    .get(k)
                    .copied()
                    .unwrap_or(0)
                    .min(awake.len() - 1);
                self.branching.push(awake.len());
                self.taken.push(choice);
                // Sleep-set rule: the subtree for choice `c` must not
                // start with any earlier sibling — those interleavings
                // belong to the siblings' own subtrees.
                for &i in &awake[..choice] {
                    self.pending[i].asleep = true;
                }
                awake[choice]
            } else {
                // Canonical tail: FIFO, ignoring sleep flags (no
                // branching happens past the horizon, so delivering a
                // sleeping message cannot duplicate an explored branch).
                0
            };
            let msg = self.pending.remove(pos);
            // A delivery wakes everything dependent on it: later
            // deliveries to the same recipient no longer commute with
            // the schedule prefix.
            for other in &mut self.pending {
                if other.env.to == msg.env.to {
                    other.asleep = false;
                }
            }
            self.now += TICK;
            self.deliveries.push((
                msg.env.from.index(),
                msg.env.to.index(),
                msg.env.payload.size_bytes(),
            ));
            return Some((self.now, SchedEvent::Deliver(msg.env)));
        }
        // Quiescence: fire the earliest timer, jumping the clock to it.
        let best = self
            .timers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(i, _)| i)?;
        let (due, _, party, token) = self.timers.remove(best);
        self.now = (self.now + TICK).max(due);
        Some((self.now, SchedEvent::Timer { party, token }))
    }

    fn metrics_mut(&mut self) -> &mut AsyncMetrics {
        &mut self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: usize, to: usize, payload: u64) -> Envelope<u64> {
        Envelope {
            from: PartyId(from),
            to: PartyId(to),
            payload,
        }
    }

    #[test]
    fn canonical_script_is_fifo() {
        let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(2, &[]);
        s.push_send(0.0, env(0, 1, 10));
        s.push_send(0.0, env(0, 2, 20));
        s.push_send(0.0, env(1, 2, 30));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop())
            .map(|(_, e)| match e {
                SchedEvent::Deliver(env) => env.payload,
                SchedEvent::Timer { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert_eq!(s.branching, vec![3, 2]);
        assert_eq!(s.taken, vec![0, 0]);
    }

    #[test]
    fn scripts_select_and_record_choices_and_sleep_earlier_siblings() {
        // Choice 2 at the first decision: deliver payload 30 first, and
        // the skipped siblings (10, 20) go to sleep. 30 goes to party 2,
        // which wakes 20 (same recipient) but not 10.
        let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(3, &[2]);
        s.push_send(0.0, env(0, 1, 10));
        s.push_send(0.0, env(0, 2, 20));
        s.push_send(0.0, env(1, 2, 30));
        let first = match s.pop().unwrap().1 {
            SchedEvent::Deliver(env) => env.payload,
            SchedEvent::Timer { .. } => unreachable!(),
        };
        assert_eq!(first, 30);
        assert_eq!(s.branching, vec![3]);
        assert_eq!(s.taken, vec![2]);
        // 10 is asleep, 20 awake: the next decision has exactly 1 choice.
        let second = match s.pop().unwrap().1 {
            SchedEvent::Deliver(env) => env.payload,
            SchedEvent::Timer { .. } => unreachable!(),
        };
        assert_eq!(second, 20);
        assert_eq!(s.branching, vec![3, 1]);
    }

    #[test]
    fn all_asleep_prunes_the_branch() {
        let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(4, &[1]);
        s.push_send(0.0, env(0, 1, 10));
        s.push_send(0.0, env(0, 2, 20));
        // Deliver 20 (choice 1): 10 goes to sleep and nothing to party 1
        // remains to wake it.
        let _ = s.pop().unwrap();
        assert!(s.pop().is_none());
        assert!(s.pruned_by_sleep);
    }

    #[test]
    fn timers_fire_at_quiescence_in_due_order() {
        let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(0, &[]);
        s.push_timer(0.0, PartyId(0), 7, 5.0);
        s.push_timer(0.0, PartyId(1), 8, 2.0);
        s.push_send(0.0, env(0, 1, 10));
        // The message drains first, then timers by due time.
        assert!(matches!(s.pop().unwrap().1, SchedEvent::Deliver(_)));
        let (t1, e1) = s.pop().unwrap();
        assert!(matches!(e1, SchedEvent::Timer { token: 8, .. }));
        assert!((t1 - 2.0).abs() < 1e-9);
        let (t2, e2) = s.pop().unwrap();
        assert!(matches!(e2, SchedEvent::Timer { token: 7, .. }));
        assert!((t2 - 5.0).abs() < 1e-9);
        assert!(s.pop().is_none());
    }

    #[test]
    fn duplicate_sends_enqueue_two_copies() {
        let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(0, &[]);
        s.duplicate_sends = true;
        s.push_send(0.0, env(0, 1, 10));
        assert_eq!(s.pending.len(), 2);
        assert_eq!(s.metrics.fault_dups, 1);
    }
}
