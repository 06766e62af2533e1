//! The enumerating [`Scheduler`]: one deterministic execution per choice
//! script, with sleep-set and visited-state pruning.
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
//! Two prunings collapse redundant interleavings:
//!
//! * **Sleep sets** (DPOR): when the driver explores the siblings of a
//!   decision in order, each later sibling's subtree need not re-deliver
//!   the earlier siblings first — they are put to sleep and wake only
//!   when a *dependent* event (a delivery to the same recipient) runs.
//!   If every pending message is asleep the whole branch is redundant
//!   and the run stops with [`EnumeratingScheduler::pruned_by_sleep`].
//! * **Visited states**, in symmetry mode only ([`SymMode`]): after
//!   every activation inside the enumeration horizon, an orbit-canonical
//!   key of the run so far is checked against the exploration's
//!   [`VisitedMap`]; on a hit the run aborts
//!   ([`EnumeratingScheduler::pruned_by_visited`]) because an earlier
//!   visit of the same orbit covers every continuation still reachable
//!   from here. Without symmetry there is no visited rule: keyed on the
//!   engine state it pruned no branch on any measured instance, yet
//!   cost a `Debug` rendering of every party and pending payload per
//!   activation.
//!
//! Timers only fire at quiescence (no deliverable message), at
//! `max(now, due)` in `(due, creation)` order — the natural enumeration
//! analogue of "timers are slower than any message chain".

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use async_net::{AsyncMetrics, SchedEvent, Scheduler};
use sim_net::{Envelope, PartyId, Payload};

/// Advance of the synthetic clock per popped event — keeps activation
/// times strictly increasing (so silence bookkeeping stays ordered)
/// while never crossing a unit-time boundary within a plausible run.
const TICK: f64 = 1e-6;

/// The orbit-canonical keys one symmetry-reduced exploration has seen,
/// each with the decision depth and decision-prefix hash that recorded
/// it. The sequential explorer keeps one per assignment; each portfolio
/// unit keeps its own (see `crate::portfolio`).
#[derive(Debug, Default)]
pub struct VisitedMap(HashMap<u64, (usize, u64)>);

impl VisitedMap {
    /// Applies the revisit rule for `key` observed at decision depth
    /// `depth` by a run whose decision prefix hashes to `prefix`:
    /// returns `false` (prune) when the key was recorded at a strictly
    /// shallower depth, or at the *same* depth by a *different* prefix
    /// (an orbit sibling rather than a DFS replay — every descendant
    /// script re-executes its ancestors' prefix, and those replays must
    /// not prune themselves). Otherwise records/refreshes the entry and
    /// returns `true`.
    pub fn observe(&mut self, key: u64, depth: usize, prefix: u64) -> bool {
        match self.0.get_mut(&key) {
            Some((seen, _)) if *seen < depth => false,
            Some((seen, first)) if *seen == depth && *first != prefix => false,
            Some(entry) => {
                *entry = (depth, prefix);
                true
            }
            None => {
                self.0.insert(key, (depth, prefix));
                true
            }
        }
    }
}

/// One recorded scheduler event in a party's history (symmetry mode).
struct HistEvent {
    /// Clock value right after the event was popped.
    now_bits: u64,
    /// `0` = delivery, `1` = timer fire.
    kind: u8,
    /// Sender index for deliveries (unused for timers).
    from: usize,
    /// Timer token (unused for deliveries).
    token: u64,
    /// Per-group-element hash of the relabeled payload (empty for
    /// timers).
    payload_g: Vec<u64>,
}

/// Hashes one payload once per group element (the relabeled images).
pub type PayloadHasher<M> = Box<dyn Fn(&M) -> Vec<u64> + Send>;

/// Symmetry-reduction state: per-party event histories, the party
/// permutations and payload relabeling of the instance's symmetry group
/// (built by `crate::sym::SymmetryGroup::sym_mode`), and the
/// exploration's [`VisitedMap`].
///
/// In symmetry mode the visited key is not a digest of the engine state
/// (which is opaque and cannot be relabeled) but of the *event history*
/// that produced it: each party's state is a deterministic function of
/// its input and its timestamped delivery/timer sequence, so hashing the
/// histories, the per-(sender, recipient) pending-queue projections and
/// the outstanding timers — minimized over every group element — yields
/// one canonical key per symmetry orbit.
pub struct SymMode<'v, M> {
    /// `(π, π⁻¹)` per group element.
    perms: Vec<(Vec<usize>, Vec<usize>)>,
    /// Per-group-element relabeled payload hasher.
    hasher: PayloadHasher<M>,
    /// Per-party event histories for the current execution.
    histories: Vec<Vec<HistEvent>>,
    /// Keys seen so far; shared across the executions of one
    /// exploration.
    visited: &'v mut VisitedMap,
}

impl<'v, M> SymMode<'v, M> {
    /// Builds the tracker for an `n`-party run under the given party
    /// permutations and payload hasher, recording keys into `visited`.
    pub fn new(
        perms: Vec<(Vec<usize>, Vec<usize>)>,
        hasher: PayloadHasher<M>,
        n: usize,
        visited: &'v mut VisitedMap,
    ) -> Self {
        assert!(!perms.is_empty(), "symmetry group must contain identity");
        SymMode {
            perms,
            hasher,
            histories: (0..n).map(|_| Vec::new()).collect(),
            visited,
        }
    }
}

/// A message sitting in the enumeration queue (kept in creation order —
/// position 0 is the canonical FIFO head).
struct PendingMsg<M> {
    env: Envelope<M>,
    /// Asleep: not choosable until a same-recipient delivery wakes it.
    asleep: bool,
    /// Per-group-element relabeled payload hashes (symmetry mode only).
    payload_g: Vec<u64>,
}

/// See the [module docs](self).
pub struct EnumeratingScheduler<'v, M> {
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
    /// Set when the run aborted on an orbit already visited (symmetry
    /// mode only).
    pub pruned_by_visited: bool,
    /// Symmetry mode: when set, runs are cut on orbit-canonical keys
    /// already in its visited map.
    pub(crate) sym: Option<SymMode<'v, M>>,
    /// When `true`, every pushed send is enqueued twice — the
    /// at-least-once link abstraction used to drive the [`Reliable`]
    /// sublayer's dedup logic through enumerated schedules.
    ///
    /// [`Reliable`]: async_net::Reliable
    pub duplicate_sends: bool,
    metrics: AsyncMetrics,
}

impl<'v, M: Payload> EnumeratingScheduler<'v, M> {
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
            pruned_by_visited: false,
            sym: None,
            duplicate_sends: false,
            metrics: AsyncMetrics::default(),
        }
    }

    fn enqueue(&mut self, env: Envelope<M>) {
        let payload_g = match &self.sym {
            Some(sym) => (sym.hasher)(&env.payload),
            None => Vec::new(),
        };
        self.pending.push(PendingMsg {
            env,
            asleep: false,
            payload_g,
        });
    }

    /// Orbit-canonical visited key (symmetry mode): the minimum, over the
    /// group, of a digest of the relabeled run so far.
    ///
    /// Hashed per group element `g = (σ, π)`:
    ///
    /// * the clock, and each party slot `j`'s event history taken from
    ///   party `π⁻¹(j)` with senders mapped through `π` and payloads
    ///   through the precomputed `σ/π`-relabeled hash — the histories
    ///   determine the party states, since a party is a deterministic
    ///   function of its input and its timestamped event sequence;
    /// * the pending queue as per-`(π(from), π(to))` projections in queue
    ///   order: FIFO order *within* a sender→recipient pair survives the
    ///   relabeling (both runs push a pair's messages in the same causal
    ///   order), while the global interleaving does not. Sleep flags are
    ///   deliberately excluded — broadcasts enqueue recipients in party-id
    ///   order, so skipped-sibling sets do not mirror; the audit
    ///   cross-check (`explore::explore`) guards that approximation;
    /// * outstanding timers as a `(due, π(party), token)` multiset — ids
    ///   (creation order) do not mirror under `π` and only break ties
    ///   between simultaneous timers, another audit-guarded projection.
    fn canonical_key(&self) -> u64 {
        let sym = self.sym.as_ref().expect("canonical_key requires sym mode");
        let mut best = u64::MAX;
        for (gi, (pi, pi_inv)) in sym.perms.iter().enumerate() {
            let mut h = DefaultHasher::new();
            self.now.to_bits().hash(&mut h);
            for &src in pi_inv {
                let hist = &sym.histories[src];
                hist.len().hash(&mut h);
                for ev in hist {
                    ev.now_bits.hash(&mut h);
                    ev.kind.hash(&mut h);
                    if ev.kind == 0 {
                        pi[ev.from].hash(&mut h);
                        ev.payload_g.get(gi).copied().unwrap_or(0).hash(&mut h);
                    } else {
                        ev.token.hash(&mut h);
                    }
                }
            }
            let mut pairs: Vec<(usize, usize, u64)> = self
                .pending
                .iter()
                .map(|m| {
                    (
                        pi[m.env.from.index()],
                        pi[m.env.to.index()],
                        m.payload_g.get(gi).copied().unwrap_or(0),
                    )
                })
                .collect();
            // Stable sort: queue order within each (from, to) pair is
            // preserved.
            pairs.sort_by_key(|&(f, t, _)| (f, t));
            pairs.hash(&mut h);
            let mut timers: Vec<(u64, usize, u64)> = self
                .timers
                .iter()
                .map(|&(due, _, p, tok)| (due.to_bits(), pi[p.index()], tok))
                .collect();
            timers.sort_unstable();
            timers.hash(&mut h);
            best = best.min(h.finish());
        }
        best
    }
}

impl<M: Payload> Scheduler<M> for EnumeratingScheduler<'_, M> {
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

    fn push_at(&mut self, time: f64, what: SchedEvent<M>) {
        match what {
            SchedEvent::Deliver(env) => self.enqueue(env),
            SchedEvent::Timer { party, token } => {
                self.timers.push((time, self.next_id, party, token));
                self.next_id += 1;
            }
        }
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
            if let Some(sym) = &mut self.sym {
                sym.histories[msg.env.to.index()].push(HistEvent {
                    now_bits: self.now.to_bits(),
                    kind: 0,
                    from: msg.env.from.index(),
                    token: 0,
                    payload_g: msg.payload_g,
                });
            }
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
        if let Some(sym) = &mut self.sym {
            sym.histories[party.index()].push(HistEvent {
                now_bits: self.now.to_bits(),
                kind: 1,
                from: 0,
                token,
                payload_g: Vec::new(),
            });
        }
        Some((self.now, SchedEvent::Timer { party, token }))
    }

    fn metrics_mut(&mut self) -> &mut AsyncMetrics {
        &mut self.metrics
    }

    fn after_activation(&mut self) -> bool {
        // Keys only matter while branching is still possible.
        if self.sym.is_none() || self.taken.len() >= self.depth {
            return true;
        }
        let key = self.canonical_key();
        let mut h = DefaultHasher::new();
        self.taken.hash(&mut h);
        let sym = self.sym.as_mut().expect("checked above");
        if sym.visited.observe(key, self.taken.len(), h.finish()) {
            true
        } else {
            self.pruned_by_visited = true;
            false
        }
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
        assert!(!s.pruned_by_visited);
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
    fn visited_states_prune_only_when_seen_strictly_shallower() {
        let mut visited = VisitedMap::default();
        assert!(visited.observe(42, 1, 7)); // first visit: recorded
        assert!(visited.observe(42, 1, 7)); // same depth, same prefix: replay
        assert!(!visited.observe(42, 1, 8)); // same depth, other prefix: orbit sibling
        assert!(!visited.observe(42, 2, 7)); // deeper than the recorded visit
        assert!(visited.observe(43, 2, 7)); // another key is independent
    }

    #[test]
    fn symmetry_mode_prunes_a_revisited_orbit_inside_the_horizon() {
        fn sym_mode(visited: &mut VisitedMap) -> SymMode<'_, u64> {
            let identity = (vec![0, 1], vec![0, 1]);
            SymMode::new(vec![identity], Box::new(|&m| vec![m]), 2, visited)
        }
        let mut visited = VisitedMap::default();
        {
            let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(4, &[]);
            s.sym = Some(sym_mode(&mut visited));
            s.taken = vec![0]; // pretend depth 1
            assert!(s.after_activation()); // first visit: recorded
            assert!(s.after_activation()); // same prefix: replay, no prune
        }
        {
            let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(4, &[]);
            s.sym = Some(sym_mode(&mut visited));
            s.taken = vec![0, 1]; // the same (empty) history, deeper
            assert!(!s.after_activation());
            assert!(s.pruned_by_visited);
        }
        {
            // Past the horizon nothing is looked up.
            let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(1, &[]);
            s.sym = Some(sym_mode(&mut visited));
            s.taken = vec![0, 1];
            assert!(s.after_activation());
        }
        // Without symmetry there is no visited rule at all.
        let mut s: EnumeratingScheduler<u64> = EnumeratingScheduler::new(4, &[]);
        s.taken = vec![0, 1];
        assert!(s.after_activation());
        assert!(!s.pruned_by_visited);
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
