//! Chaos acceptance: ≥ 20 seeded fault plans (resets, stalls, single-bit
//! corruption, partitions, transient blackouts) injected below the frame
//! layer by the [`net::chaos`] relay must never cost correctness — every
//! node of a 4-party cluster still terminates with 1-agreeing outputs
//! inside the honest input hull, with every corrupted byte rejected at
//! the MAC/codec layer rather than delivered.
//!
//! Unlike the clean-loopback gate, these runs do *not* assert the
//! differential gate: chaos-induced frame loss shifts the retransmitting
//! layer's schedule, which is exactly the freedom the protocol's
//! asynchronous model grants it.

use net::node::ReconnectPolicy;
use net::{run_local_cluster_opts, seeded_plan, ClusterChaos, ClusterOpts, GateCase};
use std::time::Duration;
use tree_model::VertexId;

const SPIDER9: &str =
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\nvertex 7\nvertex 8\n\
edge 0 1\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 0 6\nedge 6 7\nedge 7 8\n";

fn case_for(seed: u64) -> GateCase {
    let picks = [
        (seed % 9) as usize,
        (seed * 3 + 1) as usize % 9,
        (seed * 5 + 4) as usize % 9,
        (seed * 7 + 2) as usize % 9,
    ];
    GateCase::from_text(SPIDER9, &picks, 1, seed).expect("valid case")
}

/// [`ReconnectPolicy::patient`] with the dead-peer deadline pushed out
/// further: on a loaded CI host, thread starvation can keep a link down
/// long past its real outage, and a spuriously dead peer turns an
/// eventually-connected plan into a degraded run.
fn tolerant() -> ReconnectPolicy {
    let mut p = ReconnectPolicy::patient();
    p.dead_after_ms = 60_000;
    p
}

fn run_seed(seed: u64) {
    let case = case_for(seed);
    let mut opts = ClusterOpts::new(0xc4a0_5000 + seed);
    opts.reconnect = Some(tolerant());
    opts.wall_timeout = Some(Duration::from_secs(120));
    opts.chaos = Some(ClusterChaos {
        plan: seeded_plan(seed, case.n()),
        round_ms: 40,
    });
    let report = run_local_cluster_opts(&case, &opts)
        .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));

    // Correctness under chaos: non-degraded, 1-agreeing, in-hull.
    let outputs: Vec<VertexId> = report
        .outcomes
        .iter()
        .map(|o| {
            assert!(
                !o.is_degraded(),
                "seed {seed}: transient chaos must not degrade: {o:?}"
            );
            *o.value()
        })
        .collect();
    tree_aa::check_tree_aa(&case.tree, &case.inputs, &outputs)
        .unwrap_or_else(|v| panic!("seed {seed}: {v}"));

    // Chaos is caught, never delivered: a corrupted frame surfaces as a
    // MAC/codec rejection (or a connection cut), never as an accepted
    // bad frame — acceptance would show up as an outcome failure above.
    // Dead peers are NOT asserted zero: under heavy host load a
    // wall-clock liveness deadline can fire spuriously, and the run is
    // still required to terminate correctly when it does.
    let _ = &report.stats;
}

/// The headline acceptance criterion: 20 seeded eventually-connected
/// plans, all terminating correctly. Ignored by default (several
/// minutes of wall clock); the CI chaos-smoke job runs it explicitly
/// with `-- --ignored`.
#[test]
#[ignore = "chaos acceptance: minutes of wall clock, run by the CI chaos-smoke job"]
fn twenty_seeded_chaos_plans_terminate_in_hull() {
    let mut threads = Vec::new();
    for seed in 0..20u64 {
        threads.push(std::thread::spawn(move || run_seed(seed)));
        // Bound concurrency: each run is 4 nodes + 4 proxies of threads,
        // and over-subscribing the host starves the wall-clock liveness
        // machinery inside the runs.
        if threads.len() == 2 {
            for t in threads.drain(..) {
                t.join().expect("chaos run panicked");
            }
        }
    }
    for t in threads {
        t.join().expect("chaos run panicked");
    }
}

/// At least one of the standard seeds actually exercises the fault
/// machinery end to end — the relay draws real blood (rejections or
/// forced reconnects), and the cluster shrugs it off.
#[test]
fn chaos_actually_injects_faults_somewhere() {
    let mut rejected = 0u64;
    let mut reconnects = 0u64;
    for seed in [2u64, 5, 11] {
        let case = case_for(seed);
        let mut opts = ClusterOpts::new(0xfa57 + seed);
        opts.reconnect = Some(tolerant());
        opts.wall_timeout = Some(Duration::from_secs(120));
        opts.chaos = Some(ClusterChaos {
            plan: seeded_plan(seed, case.n()),
            round_ms: 40,
        });
        let report = run_local_cluster_opts(&case, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));
        for o in &report.outcomes {
            assert!(!o.is_degraded(), "seed {seed}");
        }
        rejected += report
            .stats
            .iter()
            .map(|x| x.rejected_mac + x.rejected_malformed)
            .sum::<u64>();
        reconnects += report.stats.iter().map(|x| x.reconnects).sum::<u64>();
    }
    assert!(
        rejected + reconnects > 0,
        "three chaos plans injected no observable fault at all"
    );
}
