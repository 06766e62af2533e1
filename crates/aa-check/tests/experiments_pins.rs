//! Regression pins for the EXPERIMENTS.md explored-state table.
//!
//! The model-checking section of EXPERIMENTS.md publishes exact
//! exploration counters (assignments, executions, pruned branches) for
//! a fixed set of instances. Those numbers are part of the repo's
//! reproducibility claim — "reports are bit-identical across reruns" —
//! so any drift in the scheduler, the lattice, or the pruning rules
//! must show up as a test failure here, not as a silent doc rot.

use std::sync::Arc;

use aa_check::{check, CheckOptions, CheckProtocol, CheckReport};
use tree_model::generate;

fn run(
    n: usize,
    t: usize,
    tree: tree_model::Tree,
    protocol: CheckProtocol,
    depth: usize,
) -> CheckReport {
    let mut opts = CheckOptions::new(n, t, Arc::new(tree), protocol);
    opts.depth = depth;
    // The table was measured without truncation; the default budget is
    // too small for the depth-3 n = 5 row.
    opts.max_runs = 1_000_000;
    let report = check(&opts).expect("table instances are valid");
    assert!(report.violation.is_none(), "table rows are all PASS");
    assert!(!report.truncated, "table rows are untruncated");
    report
}

fn pin(report: &CheckReport, assignments: usize, executions: usize, sleep: usize) {
    assert_eq!(
        (report.assignments, report.executions, report.pruned_sleep),
        (assignments, executions, sleep),
        "explored-state counters drifted from the EXPERIMENTS.md table",
    );
}

#[test]
fn depth2_rows_match_the_experiments_table() {
    let report = run(4, 1, generate::path(4), CheckProtocol::TreeAa, 2);
    pin(&report, 7, 1_338, 0);

    let report = run(5, 1, generate::path(5), CheckProtocol::TreeAa, 2);
    pin(&report, 7, 3_198, 0);
}

/// The deeper rows; minutes in a debug build, so they run in release
/// (`cargo test --release -p aa-check -- --ignored`, about 30 s), which
/// CI's per-PR model-check smoke job does.
#[test]
#[ignore = "deep rows are slow in debug; run them in release"]
fn depth3_and_depth4_rows_match_the_experiments_table() {
    let report = run(4, 1, generate::path(4), CheckProtocol::TreeAa, 3);
    pin(&report, 7, 14_469, 0);

    let report = run(4, 1, generate::star(4), CheckProtocol::TreeAa, 3);
    pin(&report, 7, 14_469, 0);

    let report = run(4, 1, generate::path(4), CheckProtocol::RealAa, 3);
    pin(&report, 7, 14_469, 0);

    let report = run(4, 1, generate::path(4), CheckProtocol::TreeAa, 4);
    pin(&report, 7, 149_217, 6);

    let report = run(5, 1, generate::path(5), CheckProtocol::TreeAa, 3);
    pin(&report, 7, 50_696, 0);
}
