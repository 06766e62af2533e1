//! `Reliable<BundledAaParty>` over real loopback TCP: the bundled
//! many-instance AA party runs unchanged behind the async party traits,
//! and every node's per-instance outputs match the in-process
//! synchronous engine exactly — and so does every node's record of its
//! protocol events.

use aa_trace::{fnv1a_64, EventKind, ProtoEvent, Trace};
use async_net::Reliable;
use net::{run_local_nodes, ClusterOpts, NodeConfig, NodeReport};
use real_aa::{BundledAaParty, RealAaConfig};
use sim_net::{run_simulation, run_simulation_traced, PartyId, Passive, SimConfig};

const N: usize = 4;
const T: usize = 1;
const K: usize = 3;

fn bundle_inputs(me: usize, k: usize) -> Vec<f64> {
    // Distinct geometry per instance so agreement is non-trivial.
    (0..k)
        .map(|j| (me as f64) * 2.0 + (j as f64) * 0.71)
        .collect()
}

fn aa_config() -> RealAaConfig {
    RealAaConfig::new(N, T, 0.5, 8.0).expect("valid config")
}

fn sync_reference(k: usize) -> Vec<Vec<f64>> {
    let cfg = aa_config();
    let report = run_simulation(
        SimConfig {
            n: N,
            t: T,
            max_rounds: 500,
        },
        |id, _n| BundledAaParty::new(id, cfg, bundle_inputs(id.index(), k)).expect("k >= 1"),
        Passive,
    )
    .expect("reference simulation");
    report.honest_outputs()
}

/// Four `Reliable<BundledAaParty>` nodes of `k` instances each over
/// loopback TCP.
fn deploy(k: usize) -> Vec<NodeReport<Vec<f64>>> {
    let cfg = aa_config();
    run_local_nodes(
        N,
        &ClusterOpts::new(0xb0bb_1e00),
        |me, peers, secret| {
            let mut node_cfg = NodeConfig::new(me, N, T, peers, secret, 0x5eed, 7);
            node_cfg.label = "bundle-loopback".into();
            node_cfg
        },
        |me| {
            let party = BundledAaParty::new(PartyId(me), cfg, bundle_inputs(me, k))
                .map_err(|e| e.to_string())?;
            Ok(Reliable::new(party, N))
        },
        |_| 0,
    )
    .expect("cluster run")
}

/// A deployment carrying one instance and one carrying `K` both
/// reproduce the engine.
#[test]
fn bundled_party_runs_over_real_sockets() {
    for k in [1, K] {
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(N);
        for (me, report) in deploy(k).into_iter().enumerate() {
            assert_eq!(report.stats.rejected_malformed, 0, "k={k} node {me}");
            assert_eq!(report.stats.rejected_mac, 0, "k={k} node {me}");
            outputs.push(
                report
                    .output
                    .unwrap_or_else(|| panic!("k={k} node {me} had no output")),
            );
        }

        // Per-instance ε-agreement and validity over real sockets.
        for j in 0..k {
            let vals: Vec<f64> = outputs.iter().map(|o| o[j]).collect();
            let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
            let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
            assert!(hi - lo <= 0.5, "instance {j}: spread {} too wide", hi - lo);
            let ins: Vec<f64> = (0..N).map(|m| bundle_inputs(m, k)[j]).collect();
            let in_lo = ins.iter().cloned().fold(f64::MAX, f64::min);
            let in_hi = ins.iter().cloned().fold(f64::MIN, f64::max);
            assert!(
                vals.iter().all(|v| (in_lo..=in_hi).contains(v)),
                "instance {j}: output left the input hull"
            );
        }

        // The networked run is not just correct — it is the same run: the
        // codec, framing, and virtual-time loop reproduce the in-process
        // synchronous engine's outputs bit for bit.
        assert_eq!(outputs, sync_reference(k), "k={k}");
    }
}

/// `party`'s proto events of `trace`, in recorded order.
fn proto_events(trace: &Trace, party: usize) -> Vec<&ProtoEvent> {
    let events = trace.events.iter();
    events
        .filter_map(|e| match &e.kind {
            EventKind::Proto { party: p, event } if *p == party => Some(event),
            _ => None,
        })
        .collect()
}

/// A node's record is the party's own: what it emits in the lockstep
/// engine, under the activation's `vt` and the party's running `pseq`.
/// The fingerprints pin every byte of the canonical rendering, stamps
/// included; they were taken before the recorder kept packed logs.
#[test]
fn every_node_records_the_events_its_party_emits() {
    const K: usize = 50;
    const PINS: [u64; N] = [
        0xe734_4831_43e2_285e,
        0xbe1f_5f0e_8955_e070,
        0x38a1_475c_752a_07ee,
        0x72ad_3e71_ca53_11fc,
    ];
    let cfg = aa_config();
    let sim = SimConfig {
        n: N,
        t: T,
        max_rounds: 500,
    };
    let (_, reference) = run_simulation_traced(
        sim.into(),
        |id, _n| BundledAaParty::new(id, cfg, bundle_inputs(id.index(), K)).expect("k >= 1"),
        Passive,
    )
    .expect("reference simulation");

    for (me, report) in deploy(K).iter().enumerate() {
        let trace = report.trace.to_trace();
        let recorded = proto_events(&trace, me);
        // 5 iterations × 50 instances × (4 grades + 1 value).
        assert_eq!(recorded.len(), 1250, "node {me}");
        assert_eq!(recorded.len(), trace.events.len(), "node {me}: a clean run");

        let lines: Vec<String> = trace.events.iter().map(|e| e.to_string()).collect();
        let fp = fnv1a_64(lines.join("\n").as_bytes());
        assert_eq!(fp, PINS[me], "node {me}: {fp:016x}");

        let unstamped: Vec<ProtoEvent> = recorded
            .iter()
            .map(|e| {
                let mut e = (*e).clone();
                e.fields.retain(|(k, _)| k != "vt" && k != "pseq");
                e
            })
            .collect();
        let emitted: Vec<ProtoEvent> = proto_events(&reference, me).into_iter().cloned().collect();
        assert_eq!(unstamped, emitted, "node {me}");
    }
}
