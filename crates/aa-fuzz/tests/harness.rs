//! End-to-end tests of the fuzzing harness: batch determinism, a smoke
//! sweep over the generated case stream, and the full
//! find → minimize → persist → replay loop.

use std::fs;

use aa_fuzz::{
    gen_case, minimize, replay_corpus, run_batch, run_case, run_case_mutated, save_case,
    CheckFailure, FuzzCase, FuzzOptions, Json, Mutation,
};

/// A smoke sweep: the first 60 cases of the default seed all satisfy
/// every invariant of the pipeline.
#[test]
fn smoke_sweep_finds_no_violations() {
    for index in 0..60 {
        let case = gen_case(42, index);
        run_case(&case).unwrap_or_else(|e| panic!("case {index} ({}) failed: {e}", case.to_json()));
    }
}

/// Two identical batches produce bit-identical reports — the contract
/// behind `cli fuzz --seed` reproducibility.
#[test]
fn batches_are_bit_identical() {
    let opts = FuzzOptions {
        seed: 7,
        cases: 40,
        minimize: false,
        faults: false,
        corpus_dir: None,
    };
    let mut first = Vec::new();
    let mut second = Vec::new();
    let violations_a = run_batch(&opts, &mut first).unwrap();
    let violations_b = run_batch(&opts, &mut second).unwrap();
    assert_eq!(violations_a, violations_b);
    assert_eq!(first, second);
    assert_eq!(violations_a, 0, "{}", String::from_utf8_lossy(&first));
}

/// A faulted batch is clean, bit-identical across runs, and differs from
/// the fault-free report only by the overlaid fault plans.
#[test]
fn faulted_batches_are_clean_and_bit_identical() {
    let opts = FuzzOptions {
        seed: 7,
        cases: 25,
        minimize: false,
        faults: true,
        corpus_dir: None,
    };
    let mut first = Vec::new();
    let mut second = Vec::new();
    let violations_a = run_batch(&opts, &mut first).unwrap();
    let violations_b = run_batch(&opts, &mut second).unwrap();
    assert_eq!(violations_a, violations_b);
    assert_eq!(first, second);
    assert_eq!(violations_a, 0, "{}", String::from_utf8_lossy(&first));
}

/// Generated cases survive a JSON round trip exactly.
#[test]
fn generated_cases_roundtrip_through_json() {
    for index in 0..100 {
        let case = gen_case(13, index);
        let text = case.to_json().to_string();
        let back = FuzzCase::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, case);
    }
}

/// The acceptance-criteria loop: inject a validity bug (mutation), let
/// the fuzzer catch it, minimize it to a tiny repro, persist it, and
/// replay it from disk.
#[test]
fn injected_bug_is_caught_minimized_and_persisted() {
    // Find the first generated case the mutation breaks.
    let (index, case) = (0..200)
        .map(|i| (i, gen_case(99, i)))
        .find(|(_, c)| run_case_mutated(c, Mutation::SkewFirstOutput).is_err())
        .expect("the planted validity bug must be caught within 200 cases");

    let minimized = minimize(&case, Mutation::SkewFirstOutput, 500);
    let vertex_count = minimized.case.tree.build().vertex_count();
    assert!(
        vertex_count <= 8,
        "case {index} minimized to {vertex_count} vertices, want <= 8"
    );

    // Persist the repro, then replay it from disk. The un-mutated
    // protocol is correct, so corpus replay must pass — the corpus
    // records bugs that have since been fixed.
    let dir = std::env::temp_dir().join("aa-fuzz-harness-corpus");
    let _ = fs::remove_dir_all(&dir);
    save_case(&dir, &minimized.case, &minimized.failure.to_string()).unwrap();
    assert_eq!(replay_corpus(&dir), Ok(1));
    let _ = fs::remove_dir_all(&dir);
}

/// A bug that only the trace shows — the outputs are untouched — is
/// caught by the one pipeline, and the minimizer, which re-runs that same
/// pipeline, shrinks it to a tiny repro instead of finding the case clean.
#[test]
fn trace_only_bug_is_caught_and_minimized() {
    let case = gen_case(42, 0);
    let failure = run_case_mutated(&case, Mutation::DropFirstRoundEnd)
        .expect_err("a corrupted trace must be caught");
    assert!(
        matches!(failure, CheckFailure::TraceInvariant(_)),
        "{failure:?}"
    );

    let minimized = minimize(&case, Mutation::DropFirstRoundEnd, 500);
    assert!(
        matches!(minimized.failure, CheckFailure::TraceInvariant(_)),
        "{:?}",
        minimized.failure
    );
    let vertex_count = minimized.case.tree.build().vertex_count();
    assert!(
        vertex_count <= 8,
        "minimized to {vertex_count} vertices, want <= 8"
    );
}

/// Replay reports still-failing corpus entries instead of silently
/// accepting them.
#[test]
fn replay_rejects_a_case_that_violates_invariants() {
    // An impossible round bound cannot be stored (validate would pass but
    // the case is honest), so exercise the error path with a case whose
    // inputs make the baseline trivially pass, then tamper with the file
    // to an unknown protocol name — load must fail loudly.
    let dir = std::env::temp_dir().join("aa-fuzz-harness-bad-corpus");
    let _ = fs::remove_dir_all(&dir);
    let case = gen_case(1, 0);
    let path = save_case(&dir, &case, "ok").unwrap();
    let tampered = fs::read_to_string(&path)
        .unwrap()
        .replace(case.protocol.name(), "no-such-protocol");
    fs::write(&path, tampered).unwrap();
    assert!(replay_corpus(&dir).is_err());
    let _ = fs::remove_dir_all(&dir);
}
