//! Golden-trace conformance suite: every checked-in flight recording
//! under `golden-traces/` must be reproduced byte-for-byte by re-running
//! its scenario, and must satisfy all `aa-trace` invariant checkers.
//!
//! A golden file's `label` field stores `"<scenario>:<seed>"`, so the
//! file alone determines how to regenerate it
//! (`treeaa trace --scenario <name> --seed <S>` emits the same bytes).
//! Any protocol or engine change that alters observable behaviour —
//! message order, grade assignment, hull evolution, corruption timing —
//! shows up here as a readable first-divergence diff instead of a silent
//! semantic drift.

use std::fs;
use std::path::PathBuf;

use aa_fuzz::{
    record_scenario, run_case_traced, AdvAtom, AdvAtomKind, Family, FuzzCase, ProtocolKind,
    TreeSpec, SCENARIO_NAMES,
};
use aa_trace::Trace;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden-traces")
}

/// All golden files, sorted by name for deterministic test order.
fn golden_files() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = fs::read_dir(golden_dir())
        .expect("golden-traces/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable golden file");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    files.sort();
    assert!(
        (4..=10).contains(&files.len()),
        "expected 4-10 golden traces, found {}",
        files.len()
    );
    files
}

/// Panics with a readable event-level diff of the first divergence.
fn assert_traces_identical(file: &str, golden: &Trace, fresh: &Trace) {
    assert_eq!(
        (golden.n, golden.t, &golden.label),
        (fresh.n, fresh.t, &fresh.label),
        "{file}: trace header diverged"
    );
    for (i, (g, f)) in golden.events.iter().zip(&fresh.events).enumerate() {
        assert_eq!(
            g,
            f,
            "{file}: first divergence at event {i} of {}:\n  golden: {g}\n  fresh:  {f}",
            golden.events.len()
        );
    }
    assert_eq!(
        golden.events.len(),
        fresh.events.len(),
        "{file}: traces agree on the first {} events but lengths differ",
        golden.events.len().min(fresh.events.len())
    );
}

#[test]
fn golden_traces_replay_byte_identically() {
    for (file, text) in golden_files() {
        let golden = Trace::parse(text.trim())
            .unwrap_or_else(|e| panic!("{file}: unparseable golden trace: {e}"));
        let (name, seed) = golden
            .label
            .split_once(':')
            .unwrap_or_else(|| panic!("{file}: label `{}` is not <scenario>:<seed>", golden.label));
        let seed: u64 = seed
            .parse()
            .unwrap_or_else(|_| panic!("{file}: bad seed in label `{}`", golden.label));
        let fresh =
            record_scenario(name, seed).unwrap_or_else(|e| panic!("{file}: replay failed: {e}"));
        // Event-level diff first (readable), then the byte-level contract.
        assert_traces_identical(&file, &golden, &fresh);
        assert_eq!(
            text.trim(),
            fresh.to_canonical_string(),
            "{file}: events match but serialized bytes differ"
        );
    }
}

#[test]
fn golden_traces_pass_every_invariant_checker() {
    for (file, text) in golden_files() {
        let golden = Trace::parse(text.trim()).expect("parseable golden trace");
        aa_trace::check_all(&golden).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!golden.events.is_empty(), "{file}: empty trace");
    }
}

/// FNV-1a over the canonical rendering of a trace's protocol events in
/// recorded order — the part of a recording that does not depend on how
/// the engine encodes its messages. (Lockstep recordings carry no
/// `vt`/`pseq` stamps for [`aa_trace::proto_projection`] to sort by; their
/// recorded order is already canonical.)
fn proto_fingerprint(trace: &Trace) -> u64 {
    let protos: Vec<String> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, aa_trace::EventKind::Proto { .. }))
        .map(|e| e.to_json().to_string())
        .collect();
    aa_trace::fnv1a_64(protos.join("\n").as_bytes())
}

/// Protocol-event fingerprints of the four recordings that run the
/// gradecast engine, computed from the files as recorded on the retired
/// one-message-per-leader wire. Re-recording them on the slot-vector wire
/// changed message counts and byte totals only: every grade, iteration
/// summary, path and output event must still hash to these values.
const WIRE_INDEPENDENT_PINS: [(&str, u64); 4] = [
    ("broom-realaa-equivocate.trace.json", 0xba1c_4ff8_61c3_f100),
    ("caterpillar-equivocate.trace.json", 0x3a2e_8aff_6bf7_602e),
    ("path-honest.trace.json", 0x1e85_6a03_e94f_eff1),
    ("star-crash.trace.json", 0x7c65_900e_d202_ce53),
];

#[test]
fn protocol_events_survived_the_wire_change() {
    let files = golden_files();
    for (file, pinned) in WIRE_INDEPENDENT_PINS {
        let (_, text) = files
            .iter()
            .find(|(name, _)| name == file)
            .unwrap_or_else(|| panic!("{file}: golden trace missing"));
        let golden = Trace::parse(text.trim()).expect("parseable golden trace");
        assert_eq!(
            proto_fingerprint(&golden),
            pinned,
            "{file}: protocol events differ from the pre-port recording"
        );
    }
}

#[test]
fn golden_traces_cover_every_scenario() {
    let names: Vec<String> = golden_files()
        .into_iter()
        .map(|(file, _)| file.trim_end_matches(".trace.json").to_string())
        .collect();
    for name in SCENARIO_NAMES {
        assert!(
            names.iter().any(|n| n == name),
            "scenario `{name}` has no golden trace (have: {names:?})"
        );
    }
}

/// The acceptance criterion of the tracing layer: the same seed and
/// scenario produce byte-identical trace JSON under sequential and
/// parallel stepping, across party counts ([`run_case_traced`] fails
/// with `TraceDeterminism` otherwise).
#[test]
fn traces_are_mode_invariant_across_party_counts() {
    for (n, protocol) in [
        (4, ProtocolKind::TreeAaGradecast),
        (7, ProtocolKind::TreeAaGradecast),
        (16, ProtocolKind::TreeAaGradecast),
        (64, ProtocolKind::TreeAaHalving),
    ] {
        let t = (n - 1) / 3;
        let case = FuzzCase {
            seed: 99,
            tree: TreeSpec {
                family: Family::Caterpillar,
                size: 12,
                seed: 7,
            },
            n,
            t,
            protocol,
            inputs: (0..n).map(|i| (i * 5) % 13).collect(),
            atoms: vec![AdvAtom {
                kind: AdvAtomKind::Equivocate,
                victims: vec![0],
            }],
            faults: Vec::new(),
        };
        let traced =
            run_case_traced(&case).unwrap_or_else(|e| panic!("n={n} {:?}: {e}", protocol.name()));
        assert_eq!(traced.trace.n, n);
        assert!(!traced.trace.events.is_empty());
    }
}
