//! End-to-end WAL recovery: a node whose log is truncated mid-run must
//! replay its prefix, re-handshake with fresh peers, rejoin the
//! protocol, and still reproduce the in-process reference schedule
//! event for event — crash recovery is invisible to the differential
//! gate.
//!
//! The in-process shape of the `treeaa` e2e (which SIGKILLs a real
//! process): run a durable cluster to completion, cut one node's WAL
//! back to a record boundary in the middle of its run (everything a
//! crashed process would have on disk), then re-run the cluster with
//! that node in recovery mode and everyone else starting fresh.

use std::fs;
use std::path::{Path, PathBuf};

use net::{
    differential_gate, node_config, proto_fingerprint, read_wal, run_local_cluster_opts,
    run_node_durable, ClusterOpts, Durability, GateCase, NetError, ReconnectPolicy, WalCursor,
    WalError,
};

const SPIDER9: &str =
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\nvertex 7\nvertex 8\n\
edge 0 1\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 0 6\nedge 6 7\nedge 7 8\n";

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("treeaa-recovery-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Truncates `node`'s WAL back to the record boundary closest to half
/// its records (never before the header), returning how many records
/// survive — the on-disk state of a process killed mid-run.
fn cut_wal_in_half(dir: &Path, node: usize) -> usize {
    let path = dir.join(format!("node{node}.wal"));
    let bytes = fs::read(&path).expect("read wal");
    let mut cursor = WalCursor::new();
    cursor.push(&bytes);
    let mut boundaries = Vec::new();
    while cursor.next_record().expect("valid wal").is_some() {
        boundaries.push(cursor.consumed());
    }
    assert!(
        boundaries.len() >= 4,
        "run too short to cut meaningfully ({} records)",
        boundaries.len()
    );
    let keep = boundaries.len() / 2;
    // Mimic a torn tail on top of the cut: recovery must shave the
    // partial record before replaying.
    let mut torn = bytes[..boundaries[keep - 1] as usize].to_vec();
    torn.extend_from_slice(&bytes[boundaries[keep - 1] as usize..][..3.min(bytes.len())]);
    fs::write(&path, torn).expect("truncate wal");
    keep
}

#[test]
fn a_truncated_node_recovers_and_the_gate_still_holds() {
    let case = GateCase::from_text(SPIDER9, &[0, 5, 8, 3], 1, 42).expect("valid case");
    let reference = case.reference_run().expect("reference run");
    let scratch = TempDir::new("gate");

    let mut opts = ClusterOpts::new(0xd00d_f00d);
    opts.wal_dir = Some(scratch.0.clone());
    opts.reconnect = Some(ReconnectPolicy::patient());

    // Run 1: a clean durable run, leaving complete WALs behind.
    let clean = run_local_cluster_opts(&case, &opts).expect("clean durable run");
    assert_eq!(clean.outcomes, reference.outcomes);
    differential_gate(&reference.trace, &clean.merged_trace).expect("clean gate");

    // Crash node 2 in the middle of its run: cut its WAL back to half
    // its records (plus a torn tail), as SIGKILL would leave it.
    let crashed = 2usize;
    let kept = cut_wal_in_half(&scratch.0, crashed);
    assert!(kept >= 2, "the cut must keep the header and some events");

    // Run 2: node 2 replays its prefix and rejoins; everyone else
    // starts fresh (their WALs are re-created).
    opts.recover = vec![crashed];
    let recovered = run_local_cluster_opts(&case, &opts).expect("recovered run");

    assert_eq!(
        recovered.outcomes, reference.outcomes,
        "recovery must not change any outcome"
    );
    let reconciled = differential_gate(&reference.trace, &recovered.merged_trace)
        .expect("the gate must hold through a recovery");
    assert!(reconciled > 0);

    // The proto fingerprint is blind to the crash: a recovered run
    // hashes identically to the unperturbed reference.
    assert_eq!(
        proto_fingerprint(&recovered.merged_trace).unwrap(),
        proto_fingerprint(&reference.trace).unwrap(),
    );

    // The recovered node deduplicated the frames it had already
    // consumed (fresh peers regenerate them); nothing anywhere tripped
    // a replay filter or MAC check.
    assert!(
        recovered.stats[crashed].dup_frames > 0,
        "node {crashed} should see duplicates of frames it replayed: {:?}",
        recovered.stats[crashed]
    );
    for (i, s) in recovered.stats.iter().enumerate() {
        assert_eq!(s.rejected_replay, 0, "node {i}: {s:?}");
        assert_eq!(s.rejected_mac, 0, "node {i}: {s:?}");
        assert_eq!(s.rejected_malformed, 0, "node {i}: {s:?}");
    }
}

/// Recovery is deterministic: two recoveries from the same truncated
/// WAL produce bit-identical merged traces.
#[test]
fn recovery_reruns_are_bit_identical() {
    let case = GateCase::from_text(SPIDER9, &[1, 6, 4, 8], 1, 77).expect("valid case");
    let scratch = TempDir::new("rerun");

    let mut opts = ClusterOpts::new(0xbeef);
    opts.wal_dir = Some(scratch.0.clone());
    opts.reconnect = Some(ReconnectPolicy::patient());
    run_local_cluster_opts(&case, &opts).expect("clean durable run");

    let crashed = 1usize;
    cut_wal_in_half(&scratch.0, crashed);
    // Preserve the truncated WAL so the second recovery replays the
    // exact same prefix (each recovery run appends to the log).
    let wal_path = scratch.0.join(format!("node{crashed}.wal"));
    let snapshot = fs::read(&wal_path).expect("snapshot wal");

    opts.recover = vec![crashed];
    let a = run_local_cluster_opts(&case, &opts).expect("first recovery");
    fs::write(&wal_path, &snapshot).expect("restore wal");
    let b = run_local_cluster_opts(&case, &opts).expect("second recovery");

    assert_eq!(
        a.merged_trace.to_canonical_string(),
        b.merged_trace.to_canonical_string(),
        "recovery reruns diverge"
    );
    assert_eq!(a.outcomes, b.outcomes);
}

/// The WAL a recovery leaves behind is itself valid and consistent: a
/// header plus the replayed prefix plus the live continuation, readable
/// end to end with no torn tail.
#[test]
fn a_recovered_wal_is_itself_readable() {
    let case = GateCase::from_text(SPIDER9, &[2, 7, 0, 5], 1, 9).expect("valid case");
    let scratch = TempDir::new("rewal");

    let mut opts = ClusterOpts::new(0xcafe);
    opts.wal_dir = Some(scratch.0.clone());
    run_local_cluster_opts(&case, &opts).expect("clean durable run");

    let crashed = 3usize;
    let kept = cut_wal_in_half(&scratch.0, crashed);
    opts.recover = vec![crashed];
    run_local_cluster_opts(&case, &opts).expect("recovered run");

    let scan = read_wal(&scratch.0.join(format!("node{crashed}.wal"))).expect("readable wal");
    assert!(
        scan.records.len() >= kept,
        "the continued log ({}) must extend the replayed prefix ({kept})",
        scan.records.len()
    );
    let on_disk = fs::metadata(scratch.0.join(format!("node{crashed}.wal")))
        .expect("stat wal")
        .len();
    assert_eq!(scan.valid_len, on_disk, "no torn tail after a clean exit");
}

/// A log written before the binary payload format (the checked-in
/// fixture: header, reservation and remote event as the JSON-era writer
/// produced them) is refused by name — by the scanner and by
/// `run_node_durable(.., recover)`, before anything touches the network
/// — instead of being misparsed, and the file is left as it was.
#[test]
fn a_json_era_log_is_refused_by_name() {
    let fixture = fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/json-era.wal"
    ))
    .expect("read fixture");
    let scratch = TempDir::new("jsonera");
    let wal_path = scratch.0.join("node2.wal");
    fs::write(&wal_path, &fixture).expect("place fixture");

    let Err(WalError::Mismatch(why)) = read_wal(&wal_path) else {
        panic!("the scanner must refuse a JSON-era log as a mismatch");
    };
    assert!(why.contains("JSON WAL format"), "{why}");

    let case = GateCase::from_text(SPIDER9, &[0, 5, 8, 3], 1, 42).expect("valid case");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cfg = node_config(&case, 2, vec![addr; 4], 0xd00d_f00d);
    let durability = Durability {
        wal_path: wal_path.clone(),
        recover: true,
    };
    let err = run_node_durable(
        &cfg,
        listener,
        case.party(2),
        Some(&durability),
        |p| p.state_fingerprint(),
        || {},
    )
    .expect_err("recovery across the format change must be refused");
    let NetError::Recovery(text) = &err else {
        panic!("expected NetError::Recovery, got {err:?}");
    };
    assert!(
        text.contains("log written by the JSON WAL format, cannot recover across this upgrade"),
        "{text}"
    );
    assert_eq!(fs::read(&wal_path).expect("reread"), fixture);
}
