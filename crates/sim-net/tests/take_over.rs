//! The take-over contract of [`AdversaryCtx::take_over`]:
//!
//! * from the round after the take-over the party is frozen — not
//!   stepped, no protocol events, an empty tentative outbox, so
//!   `forward` delivers nothing;
//! * messages to it still count in the metrics and appear in the trace,
//!   but never enter its inbox;
//! * a take-over runs identically in both step modes;
//! * in a `ComposedAdversary`, later parts see the frozen party's empty
//!   outbox;
//! * under a fault plan, every copy outside the shared broadcast list —
//!   a cut broadcast's, a unicast, an injection — is dropped across a
//!   cut or from a down sender, and otherwise counted, traced and queued
//!   unless its recipient is taken over or down next round;
//! * an injection meets that rule when it is sent, and what was sent to
//!   a party before a take-over later in the same round is never read.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use sim_net::{
    run_simulation_faulted_traced, run_simulation_traced, Adversary, AdversaryCtx,
    ComposedAdversary, CrashFault, EngineConfig, EventKind, FaultPlan, Inbox, Partition, PartyId,
    Payload, ProtoEvent, Protocol, RoundCtx, RunReport, ScriptedAdversary, SimConfig, StepMode,
    Trace,
};

/// Broadcasts and emits one protocol event every round; done after four
/// rounds.
struct Chatter {
    done: bool,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = ();

    fn step(&mut self, round: u32, _inbox: &Inbox<u64>, ctx: &mut RoundCtx<u64>) {
        ctx.emit_with(|| ProtoEvent::new("chatter.step"));
        ctx.broadcast(u64::from(round));
        self.done = round >= 4;
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

/// A payload whose live copies are countable: every copy holds the
/// adversary's `Arc`, so its strong count says how many copies the
/// engine still keeps anywhere.
#[derive(Clone, Debug)]
struct Token(#[allow(dead_code)] Arc<()>);

impl Payload for Token {
    fn size_bytes(&self) -> usize {
        8
    }
}

fn traced(n: usize, mode: StepMode, adversary: impl Adversary<u64>) -> (RunReport<()>, Trace) {
    let cfg = EngineConfig {
        sim: SimConfig {
            n,
            t: 1,
            max_rounds: 6,
        },
        step_mode: mode,
    };
    run_simulation_traced(cfg, |_, _| Chatter { done: false }, adversary).unwrap()
}

/// Rounds in which `party` emitted a protocol event.
fn proto_rounds(trace: &Trace, party: usize) -> Vec<u32> {
    let mut rounds: Vec<u32> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Proto { party: p, .. } if p == party))
        .map(|e| e.round)
        .collect();
    rounds.dedup();
    rounds
}

/// Rounds in which `party`'s own broadcast was delivered.
fn broadcast_rounds(trace: &Trace, party: usize) -> Vec<u32> {
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Broadcast { from, .. } if from == party))
        .map(|e| e.round)
        .collect()
}

#[test]
fn a_taken_over_party_is_frozen_from_the_next_round() {
    let mut outbox_seen = Vec::new();
    let adversary = ScriptedAdversary(|ctx: &mut AdversaryCtx<'_, u64>| {
        if ctx.round() == 2 {
            ctx.take_over(PartyId(0)).unwrap();
        }
        outbox_seen.push(ctx.tentative_outbox(PartyId(0)).broadcasts().len());
        if ctx.is_corrupted(PartyId(0)) {
            ctx.forward(PartyId(0));
        }
    });
    let (report, trace) = traced(4, StepMode::Sequential, adversary);
    assert_eq!(report.rounds_executed, 4);
    assert!(report.corrupted[0] && report.outputs[0].is_none());
    // Stepped in rounds 1 and 2 (the take-over round), never after.
    assert_eq!(proto_rounds(&trace, 0), [1, 2]);
    assert_eq!(proto_rounds(&trace, 1), [1, 2, 3, 4]);
    assert_eq!(outbox_seen, [1, 1, 0, 0]);
    // Forwarding delivers the take-over round's broadcast, then nothing.
    assert_eq!(broadcast_rounds(&trace, 0), [1, 2]);
    let forwards = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Forward { party: 0 })
        .count();
    assert_eq!(forwards, 3);
    aa_trace::check_round_totals(&trace).unwrap();
}

/// Relays every token sent to it on to parties 0 and 2, as unicasts;
/// done after four rounds.
struct Relay {
    done: bool,
}

impl Protocol for Relay {
    type Msg = Token;
    type Output = ();

    fn step(&mut self, round: u32, inbox: &Inbox<Token>, ctx: &mut RoundCtx<Token>) {
        for m in inbox.iter() {
            ctx.send(PartyId(0), m.payload.clone());
            ctx.send(PartyId(2), m.payload.clone());
        }
        self.done = round >= 4;
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

#[test]
fn deliveries_to_a_taken_over_party_are_counted_but_not_queued() {
    let (to_taken, to_honest) = (Arc::new(()), Arc::new(()));
    let mut live = Vec::new();
    let adversary = ScriptedAdversary(|ctx: &mut AdversaryCtx<'_, Token>| {
        if ctx.round() == 1 {
            ctx.take_over(PartyId(0)).unwrap();
            for _ in 0..3 {
                ctx.send(PartyId(0), PartyId(0), Token(Arc::clone(&to_taken)));
                ctx.send(PartyId(0), PartyId(1), Token(Arc::clone(&to_honest)));
            }
        }
        // After the adversary's sends, what round r queued is held, if
        // anywhere, beside round r's tentative outboxes.
        live.push((Arc::strong_count(&to_taken), Arc::strong_count(&to_honest)));
    });
    let (report, trace) = run_simulation_traced(
        EngineConfig::from(SimConfig {
            n: 4,
            t: 1,
            max_rounds: 6,
        }),
        |_, _| Relay { done: false },
        adversary,
    )
    .unwrap();
    // Besides the adversary's own copy: in round 1 the three tokens
    // injected to party 1 wait in its inbox, while none of the three
    // injected to the taken-over party 0 is queued. In round 2 party 1
    // has read them (they are gone) and its six relays wait in its
    // tentative outbox. In round 3 party 1's relays wait in party 2's
    // inbox (none in party 0's) and party 2's six relays in its outbox;
    // round 4 alike.
    assert_eq!(live, [(1, 4), (1, 7), (1, 10), (1, 10)]);
    // Every message to party 0 still counts and is traced: the six
    // injections of round 1, the six relays of rounds 2 and 3.
    let counts: Vec<(usize, usize, usize)> = report
        .metrics
        .per_round
        .iter()
        .map(|r| (r.honest_messages, r.byzantine_messages, r.bytes))
        .collect();
    assert_eq!(counts, [(0, 6, 48), (6, 0, 48), (6, 0, 48), (6, 0, 48)]);
    let to_party_0 = |round: u32| {
        trace
            .events
            .iter()
            .filter(|e| e.round == round)
            .filter(|e| match e.kind {
                EventKind::Inject { to, bytes, .. } | EventKind::Unicast { to, bytes, .. } => {
                    to == 0 && bytes == 8
                }
                _ => false,
            })
            .count()
    };
    assert_eq!([1, 2, 3, 4].map(to_party_0), [3, 3, 3, 3]);
    aa_trace::check_round_totals(&trace).unwrap();
    let totals = aa_trace::recomputed_totals(&trace);
    assert_eq!(totals.messages(), report.metrics.total_messages());
    assert_eq!(totals.bytes, report.metrics.total_bytes());
}

/// Takes party 1 over in round 2 and speaks for it with per-recipient
/// content from then on.
fn taking_over(ctx: &mut AdversaryCtx<'_, u64>) {
    if ctx.round() == 2 {
        ctx.take_over(PartyId(1)).unwrap();
    }
    if ctx.is_corrupted(PartyId(1)) {
        for to in 0..ctx.n() {
            ctx.send(
                PartyId(1),
                PartyId(to),
                u64::from(ctx.round()) * 10 + to as u64,
            );
        }
    }
}

#[test]
fn a_take_over_runs_identically_in_both_step_modes() {
    let run = |mode| traced(7, mode, ScriptedAdversary(taking_over));
    let (report_seq, trace_seq) = run(StepMode::Sequential);
    let (report_par, trace_par) = run(StepMode::Parallel { threads: 3 });
    assert_eq!(report_seq, report_par);
    assert_eq!(
        trace_seq.to_canonical_string(),
        trace_par.to_canonical_string()
    );
    assert_eq!(proto_rounds(&trace_seq, 1), [1, 2]);
}

#[test]
fn a_later_part_of_a_composed_adversary_sees_the_frozen_outbox() {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut composed: ComposedAdversary<u64> = ComposedAdversary::new(Vec::new());
    composed.push(ScriptedAdversary(|ctx: &mut AdversaryCtx<'_, u64>| {
        if ctx.round() == 1 {
            ctx.take_over(PartyId(2)).unwrap();
        }
    }));
    let log = Rc::clone(&seen);
    composed.push(ScriptedAdversary(move |ctx: &mut AdversaryCtx<'_, u64>| {
        let outbox = ctx.tentative_outbox(PartyId(2));
        log.borrow_mut()
            .push((ctx.is_corrupted(PartyId(2)), outbox.broadcasts().len()));
        ctx.forward(PartyId(2));
    }));
    let (_, trace) = traced(4, StepMode::Sequential, composed);
    // Round 1: corrupted, but stepped before the take-over; later rounds:
    // frozen, for the later part as for the engine.
    assert_eq!(*seen.borrow(), [(true, 1), (true, 0), (true, 0), (true, 0)]);
    assert_eq!(broadcast_rounds(&trace, 2), [1]);
}

/// Broadcasts its token and sends it to party 0 every round; done after
/// six rounds.
struct Talker {
    token: Token,
    done: bool,
}

impl Protocol for Talker {
    type Msg = Token;
    type Output = ();

    fn step(&mut self, round: u32, _inbox: &Inbox<Token>, ctx: &mut RoundCtx<Token>) {
        ctx.broadcast(self.token.clone());
        ctx.send(PartyId(0), self.token.clone());
        self.done = round >= 6;
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every way a copy leaves the shared broadcast list, in one faulted run:
/// party 0 is taken over in round 1; party 1 is corrupted and forwarded
/// every round, and down in round 4; parties {0, 1, 2} are cut off from
/// {3, 4, 5} in rounds 2 and 3, while honest party 4 is down. Party 0
/// (live) injects to everyone and party 1 injects to party 3 every
/// round, so injections cross the cut, come from a down sender and reach
/// the taken-over party.
#[test]
fn every_per_recipient_copy_follows_one_rule_in_both_step_modes() {
    let plan = FaultPlan {
        partitions: vec![Partition {
            side: vec![0, 1, 2],
            from_round: 2,
            heal_round: 4,
        }],
        crashes: vec![
            CrashFault {
                party: 1,
                crash_round: 4,
                recover_round: 5,
            },
            CrashFault {
                party: 4,
                crash_round: 2,
                recover_round: 4,
            },
        ],
        ..FaultPlan::none()
    };
    let run = |mode| {
        let tokens: Vec<Arc<()>> = (0..6).map(|_| Arc::new(())).collect();
        let (live_inject, down_inject) = (Arc::new(()), Arc::new(()));
        let mut live = Vec::new();
        let adversary = ScriptedAdversary(|ctx: &mut AdversaryCtx<'_, Token>| {
            if ctx.round() == 1 {
                ctx.take_over(PartyId(0)).unwrap();
                ctx.corrupt(PartyId(1)).unwrap();
            }
            ctx.forward(PartyId(1));
            for to in 0..ctx.n() {
                ctx.send(PartyId(0), PartyId(to), Token(Arc::clone(&live_inject)));
            }
            ctx.send(PartyId(1), PartyId(3), Token(Arc::clone(&down_inject)));
            // After the adversary's sends: what round r - 1 delivered and
            // round r queued is held, if anywhere.
            live.push([
                Arc::strong_count(&tokens[1]),
                Arc::strong_count(&tokens[3]),
                Arc::strong_count(&live_inject),
                Arc::strong_count(&down_inject),
            ]);
        });
        let cfg = EngineConfig {
            sim: SimConfig {
                n: 6,
                t: 2,
                max_rounds: 8,
            },
            step_mode: mode,
        };
        let (report, trace) = run_simulation_faulted_traced(
            cfg,
            &plan,
            |id, _| Talker {
                token: Token(Arc::clone(&tokens[id.index()])),
                done: false,
            },
            adversary,
        )
        .unwrap();
        (report, trace, live)
    };
    for mode in [StepMode::Sequential, StepMode::Parallel { threads: 3 }] {
        let (report, trace, live) = run(mode);
        assert_eq!(report.rounds_executed, 6, "{mode:?}");
        // Besides the test's copy and the party's own, a talker's token
        // is held twice by its tentative outbox when it was stepped, once
        // by the shared list when last round's broadcast went there, and
        // once per queued recipient when it crossed an active cut. No
        // copy is queued for the taken-over party 0, nor for a party that
        // is down in the next round: party 1's cut broadcast of round 2
        // is queued for parties 1 and 2, that of round 3 for party 2
        // only (party 1 is down in round 4), and party 3's of round 2 for
        // parties 3 and 5 (party 4 is down in round 3). An injection is
        // held once per queued recipient besides the adversary's copy,
        // from its round's adversary until the next one: party 0's of
        // round 1 skips party 4, that of round 3 reaches party 2 only;
        // party 1's, dropped across the cut and while it is down, is held
        // only in rounds 1, 5 and 6.
        assert_eq!(
            live,
            [
                [4, 4, 5, 2],
                [5, 5, 3, 1],
                [6, 6, 2, 1],
                [3, 7, 6, 1],
                [4, 5, 6, 2],
                [5, 5, 6, 2],
            ],
            "{mode:?}"
        );
        let counts: Vec<(usize, usize, usize)> = report
            .metrics
            .per_round
            .iter()
            .map(|r| (r.honest_messages, r.byzantine_messages, r.bytes))
            .collect();
        assert_eq!(
            counts,
            [
                (28, 14, 336),
                (10, 7, 136),
                (10, 7, 136),
                (28, 6, 272),
                (28, 14, 336),
                (28, 14, 336),
            ],
            "{mode:?}"
        );
        assert_eq!(
            format!("{:016x}", fnv1a(trace.to_canonical_string().as_bytes())),
            "f024b0c390f7864d",
            "{mode:?}"
        );
        aa_trace::check_round_totals(&trace).unwrap();
        let totals = aa_trace::recomputed_totals(&trace);
        assert_eq!(totals.messages(), report.metrics.total_messages());
        assert_eq!(totals.bytes, report.metrics.total_bytes());
    }
}

/// An injection is judged when it is sent, by the same rule as every
/// other per-recipient copy, in one faulted run (n = 7, t = 3): party 0
/// is taken over and party 1 corrupted and forwarded in round 1;
/// parties {0, 1, 2} are cut off from {3, 4, 5, 6} in rounds 2 and 3;
/// party 2 is down in round 3 and party 1 in round 4. Every round party
/// 0 injects to everyone — across the cut, and in round 2 to party 2,
/// which is down next round — and party 1 injects to party 3, also while
/// it is down. In round 5 party 0 sends to party 5, then takes party 5
/// over, then sends to it again, and party 5 injects to party 4.
#[test]
fn an_injection_follows_the_copy_rule_when_it_is_sent() {
    let plan = FaultPlan {
        partitions: vec![Partition {
            side: vec![0, 1, 2],
            from_round: 2,
            heal_round: 4,
        }],
        crashes: vec![
            CrashFault {
                party: 1,
                crash_round: 4,
                recover_round: 5,
            },
            CrashFault {
                party: 2,
                crash_round: 3,
                recover_round: 4,
            },
        ],
        ..FaultPlan::none()
    };
    let run = |mode| {
        let tokens: Vec<Arc<()>> = (0..7).map(|_| Arc::new(())).collect();
        let injects: Vec<Arc<()>> = (0..4).map(|_| Arc::new(())).collect();
        let mut live = Vec::new();
        let adversary = ScriptedAdversary(|ctx: &mut AdversaryCtx<'_, Token>| {
            let token = |i: usize| Token(Arc::clone(&injects[i]));
            if ctx.round() == 1 {
                ctx.take_over(PartyId(0)).unwrap();
                ctx.corrupt(PartyId(1)).unwrap();
            }
            ctx.forward(PartyId(1));
            for to in 0..ctx.n() {
                ctx.send(PartyId(0), PartyId(to), token(0));
            }
            ctx.send(PartyId(1), PartyId(3), token(1));
            if ctx.round() == 5 {
                ctx.send(PartyId(0), PartyId(5), token(2));
                ctx.take_over(PartyId(5)).unwrap();
                ctx.send(PartyId(0), PartyId(5), token(2));
                ctx.send(PartyId(5), PartyId(4), token(3));
            }
            // After the adversary's sends: what round r - 1 delivered and
            // round r queued is held, if anywhere.
            let mut counts: Vec<usize> = [1, 3, 5].map(|p| Arc::strong_count(&tokens[p])).into();
            counts.extend(injects.iter().map(Arc::strong_count));
            live.push(counts);
        });
        let cfg = EngineConfig {
            sim: SimConfig {
                n: 7,
                t: 3,
                max_rounds: 8,
            },
            step_mode: mode,
        };
        let (report, trace) = run_simulation_faulted_traced(
            cfg,
            &plan,
            |id, _| Talker {
                token: Token(Arc::clone(&tokens[id.index()])),
                done: false,
            },
            adversary,
        )
        .unwrap();
        (report, trace, live)
    };
    for mode in [StepMode::Sequential, StepMode::Parallel { threads: 3 }] {
        let (report, trace, live) = run(mode);
        // Columns: the talker tokens of parties 1, 3 and 5, then party
        // 0's injection, party 1's, party 0's to party 5 around the
        // take-over, and party 5's. Party 0's injection of round 2 is
        // queued for party 1 only: party 0 is taken over, party 2 is down
        // next round and the others are across the cut. Party 1's is
        // queued in rounds 1, 5 and 6 only: across the cut in rounds 2
        // and 3, from a down sender in round 4. In round 5 the two copies
        // party 0 sends to party 5 before taking it over (its injection
        // to everyone and the first of column 6) are queued, unread, until
        // round 6's adversary phase clears them; the one sent after is
        // not queued. Party 5's injection is queued for party 4.
        assert_eq!(
            live,
            [
                [4, 4, 4, 7, 2, 1, 1],
                [5, 5, 5, 2, 1, 1, 1],
                [5, 8, 8, 2, 1, 1, 1],
                [3, 8, 8, 7, 1, 1, 1],
                [4, 5, 5, 7, 2, 2, 2],
                [5, 5, 2, 6, 2, 1, 1],
            ],
            "{mode:?}"
        );
        assert_eq!(
            format!("{:016x}", fnv1a(trace.to_canonical_string().as_bytes())),
            "93caeb20ddf0835d",
            "{mode:?}"
        );
        assert_eq!(
            format!("{:016x}", fnv1a(format!("{report:?}").as_bytes())),
            "1900bfa25d870bdd",
            "{mode:?}"
        );
        aa_trace::check_round_totals(&trace).unwrap();
        let totals = aa_trace::recomputed_totals(&trace);
        assert_eq!(totals.messages(), report.metrics.total_messages());
        assert_eq!(totals.bytes, report.metrics.total_bytes());
    }
}
