//! Tier-1 smoke of the shipped path: the code every deployment and every
//! benchmark workload actually runs — the bundled and solo `RealAA`
//! parties on the slot-vector gradecast wire, `TreeAA` on top of them
//! under Byzantine traffic, the Fekete-envelope adversary, the
//! write-ahead log, the TCP node behind the differential gate, and the
//! flight recorder of a bundled TCP deployment. Each case is a thin slice
//! of a fuller suite in its own crate; together they must stay well
//! under 30 s.

use std::sync::Arc;

use aa_trace::{merge_traces, EventKind, Trace};
use net::{
    differential_gate, read_wal, run_local_cluster, run_local_nodes, ClusterOpts, GateCase,
    NodeConfig, WalHeader, WalRecord, WalWriter, WIRE_VERSION,
};
use tree_aa_repro::async_net::Reliable;
use tree_aa_repro::real_aa::adversary::{equal_split_schedule, BudgetSplitEquivocator};
use tree_aa_repro::real_aa::{BundledAaParty, RealAaConfig, RealAaParty};
use tree_aa_repro::sim_net::{
    run_simulation, run_simulation_traced, CrashAdversary, PartyId, Passive, SimConfig,
};
use tree_aa_repro::tree_aa::adversary::TreeAaChaos;
use tree_aa_repro::tree_aa::{check_tree_aa, EngineKind, TreeAaConfig, TreeAaParty};
use tree_aa_repro::tree_model::{generate, Tree, VertexId};

fn spread(outs: &[f64]) -> f64 {
    let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// Instance `j` of a k = 3 bundle decides exactly what a solo party
/// running that instance alone decides, honest and under a crash.
#[test]
fn bundled_equals_solo_bit_for_bit_at_k3() {
    let (n, t, k) = (7, 2, 3);
    let cfg = RealAaConfig::new(n, t, 0.5, 10.0)
        .unwrap()
        .with_early_stopping();
    let sim = SimConfig {
        n,
        t,
        max_rounds: cfg.rounds() + 5,
    };
    let input = |p: usize, j: usize| ((p * 31 + j * 17 + 3) % 101) as f64 / 10.0;
    for crashes in [vec![], vec![(PartyId(4), 5)]] {
        let bundled = run_simulation(
            sim,
            |id, _| {
                let inputs = (0..k).map(|j| input(id.index(), j)).collect();
                BundledAaParty::new(id, cfg, inputs).expect("k >= 1")
            },
            CrashAdversary {
                crashes: crashes.clone(),
            },
        )
        .unwrap();
        for j in 0..k {
            let solo = run_simulation(
                sim,
                |id, _| RealAaParty::new(id, cfg, input(id.index(), j)),
                CrashAdversary {
                    crashes: crashes.clone(),
                },
            )
            .unwrap();
            assert_eq!(solo.corrupted, bundled.corrupted);
            for p in 0..n {
                let b = bundled.outputs[p].as_ref().map(|outs| outs[j].to_bits());
                let s = solo.outputs[p].map(f64::to_bits);
                assert_eq!(b, s, "instance {j}, party {p}, crashes {crashes:?}");
            }
        }
    }
}

/// `TreeAA` at `n` parties with `byz` (at most t = ⌊(n − 1)/3⌋ of them)
/// driven by `TreeAaChaos`: validity, 1-agreement and the fuzzer's and
/// benchmark's round bound (the decision lands in the step after the last
/// scheduled communication round).
fn tree_aa_chaos_run(tree: &Arc<Tree>, n: usize, stride: usize, byz: Vec<PartyId>, seed: u64) {
    let t = (n - 1) / 3;
    let cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, tree).unwrap();
    let m = tree.vertex_count();
    let inputs: Vec<VertexId> = (0..n)
        .map(|i| tree.vertices().nth((i * stride) % m).unwrap())
        .collect();
    let report = run_simulation(
        SimConfig {
            n,
            t,
            max_rounds: cfg.total_rounds() + 5,
        },
        |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
        TreeAaChaos::new(byz.clone(), seed, 2.0 * m as f64),
    )
    .unwrap();
    let honest_inputs: Vec<VertexId> = (0..n)
        .filter(|&i| !byz.contains(&PartyId(i)))
        .map(|i| inputs[i])
        .collect();
    check_tree_aa(tree, &honest_inputs, &report.honest_outputs()).unwrap();
    assert!(report.rounds_executed <= cfg.total_rounds() + 1);
}

#[test]
fn tree_aa_under_chaos_at_n7() {
    let tree = Arc::new(generate::caterpillar(6, 2));
    for seed in 0..3u64 {
        let byz = vec![PartyId(seed as usize), PartyId(seed as usize + 3)];
        tree_aa_chaos_run(&tree, 7, 7, byz, seed);
    }
}

/// The benchmark's `sim-treeaa-wide` shape at a width that is not a
/// multiple of the tally sweep's SIMD step: every echo and vote batch is
/// partial (t silent leaders), so each one takes the kernel body, its
/// scalar tail and the per-slot leftovers.
#[test]
fn tree_aa_under_chaos_at_n67() {
    let tree = Arc::new(generate::caterpillar(6, 2));
    let byz = (67 - 22..67).map(PartyId).collect();
    tree_aa_chaos_run(&tree, 67, 7, byz, 3);
}

/// The benchmark's `sim-treeaa-bigtree` shape: one shared Euler list and
/// an LCA climb at the phase boundary, not per-party |V|-sized tables.
#[test]
fn tree_aa_under_chaos_on_the_65535_vertex_caterpillar() {
    let tree = Arc::new(generate::caterpillar(21_845, 2));
    assert_eq!(tree.vertex_count(), 65_535);
    tree_aa_chaos_run(&tree, 7, 9_973, vec![PartyId(5), PartyId(6)], 1);
}

/// After R attacked iterations the honest spread stays within Lemma 5's
/// `D · Π tᵢ / (n − 2t)^R` — and the first split really bites, so the
/// bound is being tested against a live adversary.
#[test]
fn budget_split_equivocator_stays_within_the_lemma5_envelope() {
    let (n, t, d) = (10usize, 3usize, 1000.0);
    for r in 1..=3u32 {
        let schedule = equal_split_schedule(t, r as usize);
        let cfg = RealAaConfig::new(n, t, 1e-12, d)
            .unwrap()
            .with_fixed_iterations(r);
        let byz: Vec<PartyId> = (0..t).map(PartyId).collect();
        let inputs: Vec<f64> = (0..n).map(|i| d * i as f64 / (n - 1) as f64).collect();
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            BudgetSplitEquivocator::new(n, byz, schedule.clone()),
        )
        .unwrap();
        let measured = spread(&report.honest_outputs());
        let envelope = d * schedule
            .iter()
            .map(|&ti| ti as f64 / (n - 2 * t) as f64)
            .product::<f64>();
        assert!(
            measured <= envelope + 1e-9,
            "R = {r}: spread {measured} > {envelope}"
        );
        assert!(measured > 0.0, "R = {r}: the equivocator split nothing");
    }
}

#[test]
fn wal_write_torn_tail_read_round_trip() {
    let path = std::env::temp_dir().join(format!("treeaa-smoke-{}.wal", std::process::id()));
    let header = WalHeader {
        config_fp: 0xfeed_beef_cafe_f00d,
        me: 1,
        n: 4,
        t: 1,
        seed: 7,
        min_delay_bits: 0.1f64.to_bits(),
        wire_version: WIRE_VERSION,
        label: "smoke".into(),
    };
    let reserves: Vec<WalRecord> = (0..3)
        .map(|peer| WalRecord::Reserve {
            peer,
            upto: 64 * (peer as u64 + 1),
        })
        .collect();
    let mut wal = WalWriter::create(&path, &header).unwrap();
    for rec in &reserves {
        wal.append(rec).unwrap();
    }
    drop(wal);

    // A crash mid-append leaves a partial record at the end of the file.
    let intact = std::fs::read(&path).unwrap();
    let mut partial = Vec::new();
    reserves[0].write_to(&mut Vec::new(), &mut partial).unwrap();
    let torn = [&intact[..], &partial[..7]].concat();
    std::fs::write(&path, torn).unwrap();

    let scan = read_wal(&path).unwrap();
    assert_eq!(scan.valid_len, intact.len() as u64);
    assert_eq!(scan.records[0], WalRecord::Header(header));
    assert_eq!(scan.records[1..], reserves[..]);

    // Recovery truncates the tail and appends where the valid log ended.
    let mut wal = WalWriter::append_to(&path, scan.valid_len).unwrap();
    wal.append(&reserves[2]).unwrap();
    drop(wal);
    let rescan = read_wal(&path).unwrap();
    assert_eq!(rescan.records.len(), scan.records.len() + 1);
    assert_eq!(rescan.records.last(), Some(&reserves[2]));
    std::fs::remove_file(&path).unwrap();
}

/// One case of `net/tests/loopback_gate.rs`: four real TCP nodes on
/// loopback replay the in-process reference schedule event for event,
/// and a clean run needs none of the transport's failure machinery.
#[test]
fn loopback_cluster_passes_the_differential_gate() {
    let spider9 = "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n\
vertex 7\nvertex 8\nedge 0 1\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 0 6\nedge 6 7\n\
edge 7 8\n";
    let seed = 3;
    let case = GateCase::from_text(spider9, &[3, 1, 1, 5], 1, seed).expect("valid case");
    let reference = case.reference_run().expect("reference run");
    let cluster = run_local_cluster(&case, 0xc0ff_ee03).expect("cluster run");

    assert_eq!(cluster.outcomes, reference.outcomes);
    let outputs: Vec<VertexId> = cluster.outcomes.iter().map(|o| *o.value()).collect();
    check_tree_aa(&case.tree, &case.inputs, &outputs).unwrap();
    let reconciled = differential_gate(&reference.trace, &cluster.merged_trace).unwrap();
    assert!(reconciled > 0, "gate reconciled no events");
    for (i, s) in cluster.stats.iter().enumerate() {
        let rejects = s.rejected_mac + s.rejected_replay + s.rejected_malformed;
        assert_eq!(
            (rejects, s.retransmissions, s.dead_peers),
            (0, 0, 0),
            "node {i}"
        );
    }
}

/// One case of `net/tests/bundle_cluster.rs`: every node of a k = 3
/// `Reliable<BundledAaParty>` deployment records exactly the protocol
/// events its party emits in the lockstep engine, each under its
/// `vt`/`pseq` stamp, and the four records merge. (`Reliable` hands the
/// inner party's log on; with that step missing every output check
/// still passes and the traces are silently empty.)
#[test]
fn bundled_tcp_nodes_record_every_event_their_party_emits() {
    let (n, t, k) = (4, 1, 3);
    let cfg = RealAaConfig::new(n, t, 0.5, 8.0).unwrap();
    let party = |id: PartyId| {
        let inputs = (0..k).map(|j| (id.index() * 2) as f64 + j as f64 * 0.71);
        BundledAaParty::new(id, cfg, inputs.collect()).expect("k >= 1")
    };
    let sim = SimConfig {
        n,
        t,
        max_rounds: 500,
    };
    let (_, lockstep) = run_simulation_traced(sim.into(), |id, _| party(id), Passive).unwrap();
    let emitted_by = |trace: &Trace, me: usize| {
        let events = trace.events.iter();
        events
            .filter(|e| matches!(&e.kind, EventKind::Proto { party, .. } if *party == me))
            .count()
    };

    let reports = run_local_nodes(
        n,
        &ClusterOpts::new(0xb0bb_1e03),
        |me, peers, secret| NodeConfig::new(me, n, t, peers, secret, 0x5eed, 7),
        |me| Ok(Reliable::new(party(PartyId(me)), n)),
        |_| 0,
    )
    .expect("cluster run");
    let traces: Vec<Trace> = reports.iter().map(|r| r.trace.to_trace()).collect();
    for (me, trace) in traces.iter().enumerate() {
        assert!(emitted_by(&lockstep, me) > 0, "party {me} emits nothing");
        assert_eq!(
            emitted_by(trace, me),
            emitted_by(&lockstep, me),
            "node {me}"
        );
        for e in &trace.events {
            if let EventKind::Proto { event, .. } = &e.kind {
                assert!(
                    event.field("vt").is_some() && event.field("pseq").is_some(),
                    "node {me}: unstamped {e}"
                );
            }
        }
    }
    let merged = merge_traces(&traces).expect("stamped traces of one run merge");
    assert_eq!(
        merged.events.len(),
        traces.iter().map(|t| t.events.len()).sum()
    );
}
