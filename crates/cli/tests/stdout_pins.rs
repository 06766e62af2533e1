//! Byte-exact stdout pins for every in-process subcommand: `gen` (every
//! family, text and DOT), `info`, `bounds`, `run` (every protocol ×
//! engine × adversary row), `trace`, `check`, `fuzz`, `wal-dump` and
//! `help`. Short outputs are pinned as text, long ones as the FNV-1a
//! digest of the exact bytes. A refactor of the command line must leave
//! every pin as it is.

use treeaa_cli::{execute, parse_args};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one command line in process and returns its stdout.
fn stdout(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = parse_args(&args).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    let mut out = Vec::new();
    execute(cmd, &mut out).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    String::from_utf8(out).unwrap()
}

/// A scratch file path, unique per process and name.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("treeaa-pins-{}-{name}", std::process::id()))
}

/// Writes `gen --family <family> --size <size>` to a scratch file.
fn tree_file(family: &str, size: usize) -> String {
    let file = scratch(&format!("{family}{size}.tree"));
    std::fs::write(
        &file,
        stdout(&format!("gen --family {family} --size {size}")),
    )
    .unwrap();
    file.display().to_string()
}

/// Checks every `(command line, digest)` pair and reports all mismatches
/// at once.
fn check_digests(pins: &[(String, u64)]) {
    let bad: Vec<String> = pins
        .iter()
        .filter_map(|(line, want)| {
            let got = fnv1a(stdout(line).as_bytes());
            (got != *want).then(|| format!("`{line}`: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(bad.is_empty(), "stdout moved:\n{}", bad.join("\n"));
}

#[test]
fn gen_prints_every_family_as_text_and_dot() {
    let pins: [(&str, u64, u64); 7] = [
        ("path", 0x7137_0253_2988_8dbc, 0x7579_546d_51f6_f487),
        ("star", 0x5eee_c249_a08f_4e9c, 0xa6bb_a4f6_fda5_c72d),
        ("binary", 0xf755_df3f_4172_3969, 0x41e7_d0c6_4cd0_b4f9),
        ("caterpillar", 0xe74a_9757_2a28_fca3, 0xe7f9_f7d5_32d2_064c),
        ("spider", 0x988a_3da1_6f8f_826b, 0x572e_aa45_daa8_8edf),
        ("broom", 0xfe11_3113_cd30_9d7a, 0x2b4c_c102_f018_be5d),
        ("random", 0x92de_8a8c_8113_43c5, 0xab65_0933_dd85_0f68),
    ];
    let mut lines = Vec::new();
    for (family, text, dot) in pins {
        let line = format!("gen --family {family} --size 12 --seed 7");
        lines.push((line.clone(), text));
        lines.push((format!("{line} --dot"), dot));
    }
    check_digests(&lines);
}

#[test]
fn info_prints_the_tree_and_the_round_counts() {
    let file = tree_file("caterpillar", 12);
    let text = stdout(&format!("info --tree {file}"));
    std::fs::remove_file(file).unwrap();
    assert_eq!(text, INFO);
}

#[test]
fn bounds_prints_the_lower_bounds() {
    assert_eq!(stdout("bounds --diameter 1000 --n 31 --t 10"), BOUNDS);
}

#[test]
fn run_prints_rounds_messages_and_outputs_for_every_row() {
    let file = tree_file("path", 9);
    let rows = [
        ("treeaa", "gradecast", "none", 0xde1d_cbb7_327b_60fb),
        ("treeaa", "gradecast", "chaos", 0x1973_8ffe_6073_1ae9),
        ("treeaa", "halving", "none", 0x7408_2d0a_ed12_b609),
        ("treeaa", "gradecast", "crash", 0x71af_701b_3056_2f2e),
        ("treeaa", "gradecast", "omission", 0x65cd_1e15_28b1_3d80),
        ("baseline", "gradecast", "none", 0x54bc_f30f_1fa1_7db9),
        ("baseline", "gradecast", "omission", 0x3683_6c7a_53a4_6666),
        ("baseline", "gradecast", "chaos", 0x2943_4080_6fc5_06ed),
    ];
    let lines: Vec<(String, u64)> = rows
        .iter()
        .map(|&(protocol, engine, adversary, pin)| {
            let line = format!(
                "run --tree {file} --inputs v0000,v0003,v0006,v0008 --t 1 --protocol {protocol} \
                 --engine {engine} --adversary {adversary} --seed 11"
            );
            (line, pin)
        })
        .collect();
    check_digests(&lines);
    std::fs::remove_file(file).unwrap();
}

#[test]
fn trace_check_and_fuzz_print_what_they_printed() {
    check_digests(&[
        (
            "trace --scenario star-halving-honest --seed 3".into(),
            0x07c5_3263_88be_5307,
        ),
        (
            "check --n 4 --tree path4 --depth 2".into(),
            0xb0ce_ebd9_ea12_4d91,
        ),
        ("fuzz --seed 42 --cases 5".into(), 0x7152_01cb_7e02_c389),
    ]);
}

#[test]
fn wal_dump_prints_a_fixed_log() {
    let path = scratch("node1.wal");
    let header = net::WalHeader {
        config_fp: 0xfeed,
        me: 1,
        n: 4,
        t: 1,
        seed: 7,
        min_delay_bits: 0.5f64.to_bits(),
        wire_version: net::WIRE_VERSION,
        label: "pins".into(),
    };
    // A log one recovery wrote to: the second header opens the second
    // incarnation.
    let mut wal = net::WalWriter::create(&path, &header).unwrap();
    let timer = net::wal::WalEvent {
        time_bits: 1.5f64.to_bits(),
        class: 1,
        a: 1,
        b: 0,
        c: 7,
        remote: None,
    };
    let mark = net::wal::WalMark {
        time_bits: 1.5f64.to_bits(),
        events: 1,
        probe: 0xabcd,
    };
    for rec in [
        net::WalRecord::Event(timer),
        net::WalRecord::Mark(mark),
        net::WalRecord::Header(header),
    ] {
        wal.append(&rec).unwrap();
    }
    drop(wal);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0, 0, 0, 17, 2]);
    std::fs::write(&path, bytes).unwrap();
    let text = stdout(&format!("wal-dump {}", path.display()));
    std::fs::remove_file(path).unwrap();
    assert_eq!(text, WAL_DUMP);
}

#[test]
fn help_prints_the_usage() {
    assert_eq!(stdout("help"), HELP);
}

const INFO: &str = "\
vertices        12
diameter        5
root            v0000
euler list len  23
rounds n=4  t=1: TreeAA 30 (phase1 15 + phase2 15), baseline 5
rounds n=7  t=2: TreeAA 30 (phase1 15 + phase2 15), baseline 5
rounds n=10 t=3: TreeAA 30 (phase1 15 + phase2 15), baseline 5
";

const BOUNDS: &str = "\
exact Fekete round lower bound  3
Theorem 2 closed form           1.86
  K(1, D) = 243.902439
  K(2, D) = 14.872100
  K(3, D) = 0.522337
  K(4, D) = 0.012740
  K(5, D) = 0.000311
  K(6, D) = 0.000008
  K(7, D) = 0.000000
  K(8, D) = 0.000000
RealAA rounds for eps = 1       21
";

const WAL_DUMP: &str = r#"{"k": "hdr", "fp": "000000000000feed", "me": 1, "n": 4, "t": 1, "seed": "0000000000000007", "mind": "3fe0000000000000", "wire": 2, "label": "pins"}
{"k": "ev", "vt": "3ff8000000000000", "class": 1, "a": "0000000000000001", "b": "0000000000000000", "c": "0000000000000007"}
{"k": "mark", "vt": "3ff8000000000000", "events": "0000000000000001", "probe": "000000000000abcd"}
{"k": "hdr", "fp": "000000000000feed", "me": 1, "n": 4, "t": 1, "seed": "0000000000000007", "mind": "3fe0000000000000", "wire": 2, "label": "pins"}
{"k": "end", "records": 4, "valid_len": 231, "torn_tail_bytes": 5}
"#;

const HELP: &str = r#"treeaa — Byzantine approximate agreement on trees (PODC 2025 reproduction)

USAGE:
  treeaa gen    --family <path|star|binary|caterpillar|spider|broom|random>
                --size <K> [--seed <S>] [--dot]
  treeaa info   --tree <familyK|file>
  treeaa run    --tree <familyK|file> --inputs <l1,l2,...> [--t <T>]
                [--protocol treeaa|baseline] [--engine gradecast|halving]
                [--adversary none|chaos|crash|omission] [--seed <S>]
  treeaa bounds --diameter <D> --n <N> --t <T>
  treeaa fuzz   [--seed <S>] [--cases <K>] [--minimize] [--faults]
                [--corpus <dir>]
  treeaa check  --n <N> --tree <familyK|file> [--t <T>]
                [--protocol tree-aa|real-aa] [--depth <D>]
                [--max-runs <K>] [--threads <W>] [--out <file>]
  treeaa trace  --scenario <name> [--seed <S>] [--out <file>]
  treeaa serve  --tree <familyK|file> --inputs <l1,l2,...> --party-id <I>
                [--t <T>] [--seed <S>] [--secret <K>]
                [--bind <addr:port>] [--peers <a0,a1,...>]
                [--trace-out <file>] [--wal <file>] [--recover]
                [--dead-after-ms <MS>]
  treeaa cluster --tree <familyK|file> --inputs <l1,l2,...> [--t <T>]
                [--seed <S>] [--secret <K>]
                [--runs <R>] [--gate] [--supervise] [--chaos <S>]
                [--kill-after-ready <i,j,...>] [--wal-dir <dir>]
  treeaa wal-dump <file>

`run` uses one party per input label; with an adversary, the *last* t
parties are corrupted and their input labels are ignored.

`fuzz` runs K generated cases (random tree, inputs and adversary; all a
pure function of the seed) through TreeAA, the baseline and RealAA,
checking determinism, the round bound, validity and agreement. With
--minimize, failing cases are shrunk before reporting; with --corpus,
minimized repros are written there as JSON for `cargo test` replay.
With --faults, each case is additionally overlaid with a deterministic
benign-fault plan (healing partitions, crash/recovery windows, and
occasional over-budget crash sets), and the degradation contract is
checked: transient faults still terminate within the relaxed round
bound, and over-budget fault sets must yield `Degraded` outcomes with
checkable evidence certificates. Identical seed and case count give
bit-identical output. Exits non-zero if any case fails.

`check` exhaustively model-checks one small instance (n <= 6, trees of
<= 7 vertices): every Byzantine value-assignment from a finite message
lattice x every asynchronous delivery schedule up to --depth enumerated
decisions, with sleep-set pruning. Every completed execution is
checked for validity, convex-hull containment,
1-agreement (or eps-agreement for real-aa), the termination bound and
the degradation contract, and a canonical run is cross-checked against
the lockstep synchronous simulators. --tree takes a generated family
with a trailing size (`path4`, `star5`) or a tree file. Output is
bit-identical across reruns; on failure the minimized counterexample
is printed and, with --out, its replayable trace JSON is saved. Exits
non-zero on a violation.

`trace` runs a named canonical scenario (path-honest, star-crash,
caterpillar-equivocate, broom-realaa-equivocate, path-baseline-flaky,
star-halving-honest, partition-heal, crash-recovery, bundle-k4-honest,
bundle-k4-crash) under the deterministic flight recorder and emits
the canonical trace JSON — every round, send, delivery and protocol
decision. The trace is byte-identical across step modes and runs, so
`(scenario, seed)` reproduces the file exactly.

`serve` runs one party of a real multi-process deployment: it binds a
TCP listener, prints `PORT <p>`, learns the full index-aligned address
vector from --peers or from a `PEERS a0,...,an-1` stdin line, completes
the MAC-authenticated handshakes, prints `READY`, executes the async
tree-AA protocol under conservative virtual-time synchronisation, and
prints one final machine-readable `OUTCOME` line. All processes of a
deployment must be launched with identical --tree/--inputs/--t/--seed
(a fingerprint in the handshake rejects mismatches) and the
same --secret. With --wal the node appends every protocol-relevant
state transition to a checksummed write-ahead log, flushed to the OS
per record and not fsynced: it survives a SIGKILL of the process (the
page cache outlives it), not power loss. With --recover it
first replays that log (shaving any torn tail a crash left behind),
re-handshakes under the same config fingerprint, and rejoins the
protocol exactly where it died — recovery is invisible to the
differential gate. --dead-after-ms is how long a peer's link may stay
down before the peer is declared dead; raising it lets peers sit out a
supervised restart.

`cluster` is the local launcher and referee: it spawns n `serve`
processes on 127.0.0.1 ephemeral ports (n = number of input labels),
wires them up over the PORT/PEERS protocol, waits for the outcomes, and
checks 1-agreement inside the input hull. With --gate it additionally
runs the in-process reference simulator on the same case, demands that
the merged networked trace reconciles with the reference trace event
for event — the differential gate — and prints the schedule-blind
`proto fingerprint` of the merged trace. --runs repeats the whole
deployment as a load driver; every run must pass. A liveness watchdog
turns a silent stall into a diagnostic dump and a non-zero exit instead
of a hang. Exits non-zero on any disagreement, degradation, or gate
divergence, and, without --chaos, when any node rejected a replayed
frame (a recovered node must number its frames past its earlier lives).

With --supervise every child runs durably (a WAL under --wal-dir)
behind a stable supervisor-owned relay; a child that exits before its
OUTCOME is restarted with --recover under capped backoff (at most 3
restarts) and its relay is retargeted to the new incarnation.
--kill-after-ready i,j SIGKILLs those children once the whole
deployment is READY — the crash-recovery e2e.
--chaos S drives the relays with the seeded fault plan S (connection
resets, byte corruption, latency stalls, transient blackouts);
correctness is still refereed, but --gate is refused because chaos
legitimately shifts the retransmission schedule.
--wal-dir keeps the WALs of a --supervise or --chaos run (by default
a scratch directory, removed after a passing run); without either flag
no child writes one, and the option is refused.

`wal-dump` prints a node's (binary) write-ahead log as one canonical
JSON line per record — message bodies as length and FNV-1a, not bytes —
and a final `end` line with the record count, the valid prefix length
and whether a torn tail follows it. A corrupt, oversized or JSON-era
record ends the dump with its typed error and a non-zero exit, after
the records before it.
"#;
