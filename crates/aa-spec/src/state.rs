//! The global small-step machine: explicit state, enabled actions,
//! guarded transitions.
//!
//! A [`SpecState`] is the whole world — every party's state, the
//! in-flight message queue, pending timers, and the clock. An
//! [`Action`] is one scheduler decision; [`SpecState::step`] applies it
//! with exactly the engine's bookkeeping (event counting, the TICK
//! clock, timer ordering) so that replaying the same schedule produces
//! bit-identical floating-point times. Terminal states are exactly the
//! states with no enabled action.

use crate::party::{SpecCtx, SpecEvidence, SpecMsg, SpecOutcome, SpecParty};
use crate::tree::SpecTree;

/// The scheduler's clock granularity (the engine's TICK).
pub const TICK: f64 = 1e-6;

/// A Byzantine behaviour from the lattice (spec copy of
/// `aa_check::ByzBehavior`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecBehavior {
    /// Send nothing, ever.
    Silent,
    /// Behave like an honest party with this input (dense index).
    Consistent(u32),
    /// Split the honest parties: Init the first half with one vertex and
    /// the second half with another, then echo the second to everyone.
    Equivocate(u32, u32),
}

/// One model-checking instance: the static data a run is a function of.
#[derive(Clone, Debug)]
pub struct SpecInstance {
    /// Number of parties; the last `behaviors.len()` are corrupted.
    pub n: usize,
    /// Corruption bound.
    pub t: usize,
    /// The tree.
    pub tree: SpecTree,
    /// Honest inputs (dense vertex indices), one per honest party.
    pub inputs: Vec<usize>,
    /// Corrupted-party behaviours (party `n - k + i` gets `behaviors[i]`).
    pub behaviors: Vec<SpecBehavior>,
    /// Event budget per run.
    pub max_events: usize,
}

impl SpecInstance {
    /// The fixed iteration count, from the tree's diameter (the
    /// engine's `⌈log₂ D⌉ + 2` rule).
    pub fn iterations(&self) -> u32 {
        let d = self.tree.diameter();
        if d <= 1 {
            0
        } else {
            (d as f64).log2().ceil() as u32 + 2
        }
    }

    /// Whether party `i` is corrupted (corrupted parties are the last
    /// `behaviors.len()`).
    pub fn is_corrupted(&self, i: usize) -> bool {
        i >= self.n - self.behaviors.len()
    }
}

/// An in-flight message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecEnvelope {
    /// Sender.
    pub from: usize,
    /// Recipient.
    pub to: usize,
    /// The payload.
    pub msg: SpecMsg,
}

/// Why a run halted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecHalt {
    /// Every honest party produced an output.
    Done,
    /// The event budget was exceeded, or the queue and timers drained
    /// without completion (the engine's `Stalled { events }`).
    Stalled(usize),
}

/// One scheduler decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Deliver the queued message at this position.
    Deliver(usize),
    /// Quiescence: fire the earliest pending timer.
    FireTimer,
    /// Nothing left at all: halt as stalled.
    Stall,
}

/// The explicit global state.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecState {
    /// Per-party state; corrupted slots are `None`.
    pub parties: Vec<Option<SpecParty>>,
    /// In-flight messages, in send order (the engine's FIFO queue).
    pub queue: Vec<SpecEnvelope>,
    /// Pending timers: `(due, id, party, token)`.
    pub timers: Vec<(f64, u64, usize, u64)>,
    next_timer_id: u64,
    /// The scheduler clock.
    pub now: f64,
    /// Events consumed so far.
    pub events: usize,
    /// Messages delivered so far (corrupted recipients included).
    pub delivered: usize,
    /// Latest time an honest party first produced its output.
    pub completion_time: f64,
    /// Set once the run halts; no action is enabled afterwards.
    pub halted: Option<SpecHalt>,
}

impl SpecState {
    /// The initial state: honest `on_start`s in party order (each
    /// flushed before the next starts), then the adversary's time-0
    /// injections, exactly like the engine's run loop.
    pub fn init(inst: &SpecInstance) -> Self {
        let iterations = inst.iterations();
        let mut state = SpecState {
            parties: (0..inst.n)
                .map(|i| {
                    if inst.is_corrupted(i) {
                        None
                    } else {
                        Some(SpecParty::new(inst.n, inst.t, iterations, inst.inputs[i]))
                    }
                })
                .collect(),
            queue: Vec::new(),
            timers: Vec::new(),
            next_timer_id: 0,
            now: 0.0,
            events: 0,
            delivered: 0,
            completion_time: 0.0,
            halted: None,
        };
        for i in 0..inst.n {
            if state.parties[i].is_none() {
                continue;
            }
            let mut ctx = SpecCtx::new(i, inst.n, 0.0);
            state.parties[i].as_mut().unwrap().on_start(&mut ctx);
            state.flush(ctx);
        }
        // Adversary time-0 injections, in behaviour order (the spec copy
        // of LatticeAdversary::on_start).
        let honest = inst.n - inst.behaviors.len();
        for (k, behavior) in inst.behaviors.iter().enumerate() {
            let from = honest + k;
            match *behavior {
                SpecBehavior::Silent => {}
                SpecBehavior::Consistent(v) => {
                    for to in 0..honest {
                        state.queue.push(SpecEnvelope {
                            from,
                            to,
                            msg: SpecMsg::Rbc {
                                iter: 0,
                                broadcaster: from,
                                inner: crate::rbc::SpecRbcMsg::Init(v),
                            },
                        });
                    }
                }
                SpecBehavior::Equivocate(a, b) => {
                    for to in 0..honest {
                        let v = if to < honest / 2 { a } else { b };
                        state.queue.push(SpecEnvelope {
                            from,
                            to,
                            msg: SpecMsg::Rbc {
                                iter: 0,
                                broadcaster: from,
                                inner: crate::rbc::SpecRbcMsg::Init(v),
                            },
                        });
                        state.queue.push(SpecEnvelope {
                            from,
                            to,
                            msg: SpecMsg::Rbc {
                                iter: 0,
                                broadcaster: from,
                                inner: crate::rbc::SpecRbcMsg::Echo(b),
                            },
                        });
                    }
                }
            }
        }
        if state.all_honest_done() {
            state.halted = Some(SpecHalt::Done);
        }
        state
    }

    fn all_honest_done(&self) -> bool {
        self.parties
            .iter()
            .all(|p| p.as_ref().is_none_or(|p| p.output.is_some()))
    }

    /// Appends an activation's sends and timers to the global state
    /// (the engine's `flush_ctx`: sends in push order, then timers).
    fn flush(&mut self, ctx: SpecCtx) {
        let me = ctx.me;
        let now = ctx.now;
        for (to, msg) in ctx.outbox {
            self.queue.push(SpecEnvelope { from: me, to, msg });
        }
        for (delay, token) in ctx.timers {
            self.timers
                .push((now + delay, self.next_timer_id, me, token));
            self.next_timer_id += 1;
        }
    }

    /// Every action enabled in this state. Empty exactly when the
    /// state is terminal.
    pub fn enabled(&self) -> Vec<Action> {
        if self.halted.is_some() {
            return Vec::new();
        }
        if !self.queue.is_empty() {
            return (0..self.queue.len()).map(Action::Deliver).collect();
        }
        if !self.timers.is_empty() {
            return vec![Action::FireTimer];
        }
        vec![Action::Stall]
    }

    /// Applies one enabled action.
    ///
    /// # Panics
    ///
    /// Panics if the action is not enabled (delivering from an empty or
    /// out-of-range queue position, firing with no pending timer, or
    /// stepping a halted state).
    pub fn step(&mut self, inst: &SpecInstance, action: Action) {
        assert!(self.halted.is_none(), "stepping a halted state");
        match action {
            Action::Deliver(pos) => {
                let env = self.queue.remove(pos);
                self.now += TICK;
                self.events += 1;
                if self.events > inst.max_events {
                    self.halted = Some(SpecHalt::Stalled(self.events));
                    return;
                }
                if self.parties[env.to].is_none() {
                    // Corrupted recipient: consumed silently (the
                    // lattice adversary's on_deliver sends nothing).
                    self.delivered += 1;
                    return;
                }
                self.delivered += 1;
                let mut ctx = SpecCtx::new(env.to, inst.n, self.now);
                let party = self.parties[env.to].as_mut().unwrap();
                let was_done = party.output.is_some();
                party.on_message(&inst.tree, env.from, &env.msg, &mut ctx);
                let now_done = party.output.is_some();
                self.flush(ctx);
                if !was_done && now_done {
                    self.completion_time = self.completion_time.max(self.now);
                    if self.all_honest_done() {
                        self.halted = Some(SpecHalt::Done);
                    }
                }
            }
            Action::FireTimer => {
                assert!(self.queue.is_empty(), "timers only fire at quiescence");
                // Earliest timer by (due, id) — the engine's ordering.
                let pos = (0..self.timers.len())
                    .min_by(|&a, &b| {
                        let (da, ia, ..) = self.timers[a];
                        let (db, ib, ..) = self.timers[b];
                        da.total_cmp(&db).then(ia.cmp(&ib))
                    })
                    .expect("FireTimer requires a pending timer");
                let (due, _, party, token) = self.timers.remove(pos);
                self.now = (self.now + TICK).max(due);
                self.events += 1;
                if self.events > inst.max_events {
                    self.halted = Some(SpecHalt::Stalled(self.events));
                    return;
                }
                let mut ctx = SpecCtx::new(party, inst.n, self.now);
                let p = self.parties[party].as_mut().expect("honest timer");
                let was_done = p.output.is_some();
                p.on_timer(token, &mut ctx);
                let now_done = p.output.is_some();
                self.flush(ctx);
                if !was_done && now_done {
                    self.completion_time = self.completion_time.max(self.now);
                    if self.all_honest_done() {
                        self.halted = Some(SpecHalt::Done);
                    }
                }
            }
            Action::Stall => {
                assert!(
                    self.queue.is_empty() && self.timers.is_empty(),
                    "stall only when nothing is pending"
                );
                self.halted = Some(SpecHalt::Stalled(self.events));
            }
        }
    }

    /// Renders the halted state in the engine's terminal format
    /// (`aa_check::explore::terminal`), for set comparison.
    ///
    /// # Panics
    ///
    /// Panics if the state has not halted.
    pub fn render_terminal(&self, inst: &SpecInstance) -> String {
        match self.halted.as_ref().expect("terminal states only") {
            SpecHalt::Stalled(events) => format!("stalled({events})"),
            SpecHalt::Done => {
                let slots: Vec<String> = self
                    .parties
                    .iter()
                    .map(|p| match p {
                        None => "corrupted".to_string(),
                        Some(p) => match p.output.as_ref().expect("done means all output") {
                            SpecOutcome::Value(v) => format!("value({v})"),
                            SpecOutcome::Degraded {
                                fallback,
                                evidence,
                                observed,
                            } => {
                                let set: std::collections::BTreeSet<(u8, usize, u32)> = evidence
                                    .iter()
                                    .map(|ev| match *ev {
                                        SpecEvidence::Silence { party, round } => (0, party, round),
                                        SpecEvidence::Equivocation { party, .. } => (1, party, 0),
                                    })
                                    .collect();
                                format!(
                                    "degraded({fallback}, evidence {set:?}, observed {observed}, budget {})",
                                    inst.t
                                )
                            }
                        },
                    })
                    .collect();
                slots.join("; ")
            }
        }
    }
}

/// One run of the spec under a choice script (mirrors the engine's
/// script semantics: the first `depth` deliveries branch, later ones
/// take queue position 0, scripts are clamped into range).
#[derive(Clone, Debug)]
pub struct SpecRun {
    /// The final (halted) state.
    pub state: SpecState,
    /// Queue size at each scripted decision.
    pub branching: Vec<usize>,
    /// Choice taken at each scripted decision.
    pub taken: Vec<usize>,
}

/// Executes one script against the spec machine.
pub fn spec_run(inst: &SpecInstance, script: &[usize], depth: usize) -> SpecRun {
    let mut state = SpecState::init(inst);
    let mut branching = Vec::new();
    let mut taken = Vec::new();
    while state.halted.is_none() {
        if !state.queue.is_empty() {
            let k = taken.len();
            let pos = if k < depth {
                let width = state.queue.len();
                let choice = script.get(k).copied().unwrap_or(0).min(width - 1);
                branching.push(width);
                taken.push(choice);
                choice
            } else {
                0
            };
            state.step(inst, Action::Deliver(pos));
        } else if !state.timers.is_empty() {
            state.step(inst, Action::FireTimer);
        } else {
            state.step(inst, Action::Stall);
        }
    }
    SpecRun {
        state,
        branching,
        taken,
    }
}

/// Counters from one spec exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecExploreStats {
    /// Runs executed.
    pub executions: usize,
    /// The exploration hit `max_runs` before exhausting the tree.
    pub truncated: bool,
}

/// Explores every schedule of `inst` up to `depth` scripted decisions
/// — the full tree, with **no pruning of any kind** — calling `visit`
/// on every halted run.
pub fn spec_explore<F>(
    inst: &SpecInstance,
    depth: usize,
    max_runs: usize,
    mut visit: F,
) -> SpecExploreStats
where
    F: FnMut(&[usize], &SpecRun),
{
    let mut stats = SpecExploreStats::default();
    let mut script: Vec<usize> = Vec::new();
    loop {
        stats.executions += 1;
        let run = spec_run(inst, &script, depth);
        visit(&script, &run);
        let next = (0..run.taken.len())
            .rev()
            .find(|&k| run.taken[k] + 1 < run.branching[k]);
        match next {
            Some(k) => {
                script = run.taken[..k].to_vec();
                script.push(run.taken[k] + 1);
            }
            None => break,
        }
        if stats.executions >= max_runs {
            stats.truncated = true;
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SpecTree;
    use tree_model::generate;

    fn instance(
        n: usize,
        t: usize,
        tree: &tree_model::Tree,
        behaviors: Vec<SpecBehavior>,
    ) -> SpecInstance {
        let m = tree.vertex_count();
        SpecInstance {
            n,
            t,
            tree: SpecTree::from_tree(tree),
            inputs: (0..n).map(|i| i % m).collect(),
            behaviors,
            max_events: 200_000,
        }
    }

    /// Walk a fixed pseudo-schedule, checking determinism and terminal
    /// closure at every state along the way.
    fn walk_and_check(inst: &SpecInstance, salt: usize) {
        let mut state = SpecState::init(inst);
        let mut steps = 0usize;
        loop {
            let enabled = state.enabled();
            // Terminal closure: no enabled transitions iff halted.
            assert_eq!(enabled.is_empty(), state.halted.is_some());
            if enabled.is_empty() {
                break;
            }
            let action = enabled[(steps * 7 + salt) % enabled.len()];
            // Transition determinism: applying the same action to the
            // same state twice gives equal states.
            let mut a = state.clone();
            let mut b = state.clone();
            a.step(inst, action);
            b.step(inst, action);
            assert_eq!(a, b, "nondeterministic step {action:?} at step {steps}");
            state = a;
            steps += 1;
        }
    }

    #[test]
    fn transitions_are_deterministic_and_terminals_are_closed() {
        let path4 = generate::path(4);
        let star4 = generate::star(4);
        for (inst, salts) in [
            (instance(4, 0, &path4, vec![]), 0..3),
            (instance(4, 1, &path4, vec![SpecBehavior::Silent]), 0..3),
            (
                instance(4, 1, &star4, vec![SpecBehavior::Equivocate(0, 3)]),
                0..3,
            ),
        ] {
            for salt in salts {
                walk_and_check(&inst, salt);
            }
        }
    }

    #[test]
    fn honest_path2_outputs_inputs_immediately() {
        // Diameter 1 -> zero iterations -> output at time 0.
        let tree = generate::path(2);
        let inst = instance(4, 1, &tree, vec![SpecBehavior::Silent]);
        let state = SpecState::init(&inst);
        assert_eq!(state.halted, Some(SpecHalt::Done));
        assert_eq!(
            state.render_terminal(&inst),
            "value(0); value(1); value(0); corrupted"
        );
    }

    #[test]
    fn spec_runs_satisfy_validity_and_agreement() {
        // Spec-level protocol properties, checked by the engine's
        // property predicates on every all-Value spec run.
        let tree = std::sync::Arc::new(generate::path(4));
        let inst = instance(4, 1, &tree, vec![SpecBehavior::Consistent(3)]);
        let vs: Vec<_> = tree.vertices().collect();
        let stats = spec_explore(&inst, 2, 100_000, |script, run| {
            let honest: Vec<_> = (0..inst.n).filter(|&i| !inst.is_corrupted(i)).collect();
            let inputs: Vec<_> = honest.iter().map(|&i| vs[inst.inputs[i]]).collect();
            let outputs: Vec<_> = honest
                .iter()
                .map(
                    |&i| match run.state.parties[i].as_ref().unwrap().output.as_ref() {
                        Some(SpecOutcome::Value(v)) => vs[*v],
                        other => panic!("unexpected outcome {other:?} under {script:?}"),
                    },
                )
                .collect();
            if let Err(violation) = aa_check::props::check_vertex_outcome(&tree, &inputs, &outputs)
            {
                panic!("{violation} under {script:?}");
            }
        });
        assert!(!stats.truncated);
        assert!(stats.executions > 1);
    }
}
