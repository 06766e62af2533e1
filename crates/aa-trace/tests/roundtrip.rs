//! Codec round-trip properties: any trace the event model can express
//! must survive `to_canonical_string` → `parse` → `to_canonical_string`
//! bit-for-bit — the contract the golden-trace suite and the corpus
//! format depend on. Traces are expanded deterministically from a single
//! seed (the vendored proptest has no collection strategies), so every
//! failure is reproducible from one integer.

use aa_codec::Json;
use aa_trace::{EventKind, EventLog, ProtoEvent, Trace, TraceEvent, TraceRecord};
use proptest::prelude::*;

/// splitmix64 — deterministic seed-stream expansion.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A finite, canonical-representable f64 (integral halves).
fn arb_f64(s: &mut u64) -> f64 {
    (next(s) % 20_001) as f64 / 2.0 - 5_000.0
}

fn arb_json(s: &mut u64) -> Json {
    match next(s) % 5 {
        0 => Json::Null,
        1 => Json::Bool(next(s).is_multiple_of(2)),
        2 => Json::Num(arb_f64(s)),
        3 => Json::Str(format!("s{}", next(s) % 1000)),
        _ => Json::int(next(s) % 1_000_000),
    }
}

fn arb_proto(s: &mut u64) -> ProtoEvent {
    let labels = ["gc.grade", "realaa.iter", "treeaa.path", "pk.phase", "x"];
    let mut event = ProtoEvent::new(labels[(next(s) % 5) as usize]);
    for k in 0..next(s) % 4 {
        event.fields.push((format!("f{k}").into(), arb_json(s)));
    }
    event
}

fn arb_kind(s: &mut u64, n: usize) -> EventKind {
    let party = |s: &mut u64| (next(s) as usize) % n;
    match next(s) % 8 {
        0 => EventKind::RoundStart,
        1 => EventKind::Proto {
            party: party(s),
            event: arb_proto(s),
        },
        2 => EventKind::Corrupt { party: party(s) },
        3 => EventKind::Forward { party: party(s) },
        4 => EventKind::Broadcast {
            from: party(s),
            bytes: (next(s) % 4096) as usize,
            byzantine: next(s).is_multiple_of(2),
        },
        5 => EventKind::Unicast {
            from: party(s),
            to: party(s),
            bytes: (next(s) % 4096) as usize,
            byzantine: next(s).is_multiple_of(2),
        },
        6 => EventKind::Inject {
            from: party(s),
            to: party(s),
            bytes: (next(s) % 4096) as usize,
        },
        _ => EventKind::RoundEnd {
            honest_messages: (next(s) % 10_000) as usize,
            byzantine_messages: (next(s) % 10_000) as usize,
            bytes: (next(s) % (1 << 20)) as usize,
        },
    }
}

/// Expands a seed into a structurally arbitrary (not necessarily
/// well-bracketed) trace — the codec must round-trip *any* event list.
fn arb_trace(seed: u64) -> Trace {
    let mut s = seed;
    let n = 1 + (next(&mut s) as usize) % 16;
    let mut trace = Trace::new(n, n / 4, &format!("seed:{seed}"));
    let events = next(&mut s) % 40;
    let mut round = 0u32;
    for _ in 0..events {
        round += (next(&mut s) % 2) as u32;
        let kind = arb_kind(&mut s, n);
        trace.push(round, kind);
    }
    trace
}

/// An event as the builders make it — static names, the four value kinds
/// at their edges — or, one time in four, as a parsed trace holds it:
/// owned names and any JSON value.
fn arb_emitted(s: &mut u64) -> ProtoEvent {
    const KEYS: [&str; 6] = ["iter", "inst", "leader", "grade", "value", "lo"];
    if next(s).is_multiple_of(4) {
        let mut parsed = arb_proto(s);
        parsed.label = parsed.label.into_owned().into();
        return parsed;
    }
    let mut event =
        ProtoEvent::new(["gc.grade", "realaa.iter", "treeaa.out"][(next(s) % 3) as usize]);
    for _ in 0..next(s) % 7 {
        let key = KEYS[(next(s) % 6) as usize];
        let pick = next(s);
        event = match next(s) % 4 {
            0 => event.u64(
                key,
                [0, 1, (1 << 53) + 1, u64::MAX, pick][(pick % 5) as usize],
            ),
            1 => {
                let edges = [
                    -0.0,
                    0.0,
                    5e-324,
                    f64::MIN_POSITIVE / 2.0,
                    -1e300,
                    arb_f64(s),
                ];
                event.f64(key, edges[(pick % 6) as usize])
            }
            2 => event.bool(key, pick.is_multiple_of(2)),
            _ => {
                let texts = [String::new(), "\"q\\\n".repeat(256), format!("s{pick}")];
                event.str(key, &texts[(pick % 3) as usize])
            }
        };
    }
    event
}

/// The same seeded run recorded twice: packed, as a virtual-time
/// recorder keeps it — one log per activation under its `vt`/`pseq`
/// stamp, some of them assembled from an inner context's log, non-proto
/// events in between — and built directly, event by stamped event.
fn arb_recording(seed: u64) -> (TraceRecord, Trace) {
    let mut s = seed;
    let n = 1 + (next(&mut s) as usize) % 5;
    let label = format!("seed:{seed}");
    let mut record = TraceRecord::new(n, n / 4, &label);
    let mut direct = Trace::new(n, n / 4, &label);
    let mut pseq = vec![0u64; n];
    for _ in 0..next(&mut s) % 24 {
        let party = (next(&mut s) as usize) % n;
        let vt = (next(&mut s) % 4096) as f64 / 64.0;
        let round = vt as u32 + 1;
        if next(&mut s).is_multiple_of(4) {
            let kind = match next(&mut s) % 3 {
                0 => EventKind::FaultDrop { from: party, to: 0 },
                1 => EventKind::NetDeadPeer { party, peer: 0 },
                _ => EventKind::NetRecovery { party, replayed: 9 },
            };
            record.push_event(round, kind.clone());
            direct.push(round, kind);
            continue;
        }
        // Zero events: an activation that emitted nothing leaves no entry.
        let count = next(&mut s) % 6;
        let split = next(&mut s) % (count + 1);
        let (mut log, mut inner) = (EventLog::new(), EventLog::new());
        for i in 0..count {
            let event = arb_emitted(&mut s);
            let stamped = event.clone().f64("vt", vt).u64("pseq", pseq[party] + i);
            direct.push(
                round,
                EventKind::Proto {
                    party,
                    event: stamped,
                },
            );
            if i < split { &mut log } else { &mut inner }.push(event);
        }
        log.append(inner);
        record.push_activation(round, party, vt, pseq[party], log);
        pseq[party] += count;
    }
    (record, direct)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_encode_is_identity(seed in any::<u64>()) {
        let trace = arb_trace(seed);
        let text = trace.to_canonical_string();
        let parsed = Trace::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("unparseable: {e}\n{text}")))?;
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_canonical_string(), text);
    }

    #[test]
    fn fingerprint_survives_the_roundtrip(seed in any::<u64>()) {
        let trace = arb_trace(seed);
        let parsed = Trace::parse(&trace.to_canonical_string()).unwrap();
        prop_assert_eq!(parsed.fingerprint(), trace.fingerprint());
    }

    #[test]
    fn event_json_roundtrips_individually(seed in any::<u64>()) {
        let trace = arb_trace(seed);
        for event in &trace.events {
            let json = event.to_json();
            let back = TraceEvent::from_json(&json)
                .map_err(|e| TestCaseError::fail(format!("{e}: {json}")))?;
            prop_assert_eq!(&back, event);
        }
    }

    #[test]
    fn an_expanded_record_is_the_directly_built_trace(seed in any::<u64>()) {
        let (record, direct) = arb_recording(seed);
        let expanded = record.to_trace();
        prop_assert_eq!(expanded.to_canonical_string(), direct.to_canonical_string());
        // Bit for bit, too: canonical JSON prints -0.0 as 0, `Debug` does not.
        prop_assert_eq!(format!("{expanded:?}"), format!("{direct:?}"));
    }
}

/// An accepted spread of ±`f64::MAX` makes a RealAA iteration's spread
/// +inf; the trace it lands in must still read back.
#[test]
fn a_trace_with_an_infinite_spread_reads_back() {
    let mut trace = Trace::new(7, 2, "inf-spread");
    trace.push(
        3,
        EventKind::Proto {
            party: 0,
            event: ProtoEvent::new("realaa.iter")
                .f64("spread", f64::INFINITY)
                .f64("value", 1.5),
        },
    );
    let text = trace.to_canonical_string();
    let back = Trace::parse(&text).expect("reads back");
    assert_eq!(back.to_canonical_string(), text);
    assert_eq!(back.fingerprint(), trace.fingerprint());
}
