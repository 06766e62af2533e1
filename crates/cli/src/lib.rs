//! The `treeaa` command-line tool: generate input-space trees, run the AA
//! protocols on them (with or without adversaries), and query the
//! lower-bound calculators — all from tree files in the plain-text format
//! of [`tree_model::parse_tree`].
//!
//! ```text
//! treeaa gen --family caterpillar --size 30 > map.tree
//! treeaa info --tree map.tree
//! treeaa run --tree map.tree --inputs v0003,v0007,v0012,v0020 --t 1 \
//!            --adversary chaos --seed 7
//! treeaa bounds --diameter 1000 --n 31 --t 10
//! ```
//!
//! Argument parsing and command execution live in this library crate so
//! they are unit-testable; `main.rs` is a thin shim.

#![warn(missing_docs)]
use std::collections::HashMap;
use std::sync::Arc;

use lower_bound::{fekete_k, round_lower_bound, theorem2_formula};
use rand::SeedableRng;
use sim_net::{run_simulation, CrashAdversary, PartyId, Passive, SelectiveOmission, SimConfig};
use tree_aa::adversary::TreeAaChaos;
use tree_aa::{
    check_tree_aa, EngineKind, NowakRybickiConfig, NowakRybickiParty, TreeAaConfig, TreeAaParty,
};
use tree_model::{generate, parse_tree, Tree, VertexId};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `gen`: emit a generated tree (optionally as DOT).
    Gen {
        /// Family name (path, star, binary, caterpillar, spider, broom,
        /// random).
        family: String,
        /// Target size parameter.
        size: usize,
        /// Emit Graphviz DOT instead of the text format.
        dot: bool,
        /// Seed for the random family.
        seed: u64,
    },
    /// `info`: tree statistics and protocol round counts.
    Info {
        /// Path to a tree file.
        tree: String,
    },
    /// `run`: execute a protocol on a tree file.
    Run {
        /// Path to a tree file.
        tree: String,
        /// Comma-separated input vertex labels (one per party).
        inputs: String,
        /// Corruption bound.
        t: usize,
        /// `treeaa` or `baseline`.
        protocol: String,
        /// `gradecast` or `halving`.
        engine: String,
        /// `none`, `chaos`, `crash`, or `omission` (corrupts the last `t`
        /// parties).
        adversary: String,
        /// Adversary seed.
        seed: u64,
    },
    /// `bounds`: print lower bounds for the given parameters.
    Bounds {
        /// Input-space diameter.
        diameter: f64,
        /// Number of parties.
        n: usize,
        /// Corruption bound.
        t: usize,
    },
    /// `fuzz`: run the deterministic adversarial property fuzzer.
    Fuzz {
        /// Master seed of the case stream.
        seed: u64,
        /// Number of cases.
        cases: u64,
        /// Minimize failing cases before reporting them.
        minimize: bool,
        /// Overlay generated benign-fault plans (partitions, crash
        /// windows) and check the degradation contract.
        faults: bool,
        /// Directory for minimized repro files (empty disables saving).
        corpus: String,
    },
    /// `check`: exhaustively model-check a small instance (bounded
    /// schedule enumeration × Byzantine message-lattice assignments).
    Check {
        /// Number of parties (`n > 3t`, `n <= 5`).
        n: usize,
        /// Corruption bound (defaults to `(n - 1) / 3`).
        t: usize,
        /// Tree spec: `<family><size>` (e.g. `path4`, `star5`) or a tree
        /// file path.
        tree: String,
        /// `tree-aa` or `real-aa`.
        protocol: String,
        /// Enumerated delivery decisions per execution.
        depth: usize,
        /// Total execution budget across all assignments.
        max_runs: usize,
        /// Portfolio worker threads (0 = sequential exploration).
        threads: usize,
        /// Symmetry reduction: canonicalize visited states under the
        /// tree's automorphism group (audit-gated).
        symmetry: bool,
        /// File for the counterexample trace JSON if a check fails
        /// (empty disables saving).
        out: String,
    },
    /// `trace`: record a deterministic flight-recorder trace of a named
    /// canonical scenario.
    Trace {
        /// Scenario name (see [`aa_fuzz::scenario_names`]).
        scenario: String,
        /// Adversary seed.
        seed: u64,
        /// Output file (empty writes the JSON to stdout).
        out: String,
    },
    /// `serve`: run one party of a real networked deployment — a TCP
    /// process speaking the MAC-authenticated wire protocol of the
    /// `net` crate.
    Serve {
        /// Tree spec: `<family><size>` (e.g. `path9`) or a tree file.
        tree: String,
        /// Comma-separated input vertex labels (one per party).
        inputs: String,
        /// This process's party index in `0..n`.
        party_id: usize,
        /// Corruption bound.
        t: usize,
        /// Seed of the shared content-keyed delay schedule.
        seed: u64,
        /// Delay floor / conservative lookahead.
        min_delay: f64,
        /// Shared MAC secret (all processes of a deployment must agree).
        secret: u64,
        /// Listen address (`127.0.0.1:0` picks an ephemeral port).
        bind: String,
        /// Comma-separated peer addresses, index-aligned with party ids;
        /// empty reads a `PEERS a0,...,an-1` line from stdin after the
        /// `PORT` line is printed.
        peers: String,
        /// File for this node's canonical trace JSON (empty disables).
        trace_out: String,
        /// Write-ahead log file recording every protocol-relevant state
        /// transition (empty disables durability).
        wal: String,
        /// Replay the WAL at `--wal` before going live: the node
        /// re-executes its logged prefix, re-handshakes, and rejoins the
        /// protocol mid-run. A missing or empty WAL falls back to a
        /// fresh start, so a supervisor can pass this unconditionally.
        recover: bool,
        /// Override of the reconnect policy's dial-attempt budget.
        reconnect_attempts: Option<u32>,
        /// Override of the reconnect policy's dead-peer deadline, in
        /// milliseconds of continuous disconnection.
        dead_after_ms: Option<u64>,
    },
    /// `cluster`: launch `n` local `serve` processes on loopback,
    /// referee their outcomes, and optionally run the differential
    /// trace gate against the in-process reference simulator.
    Cluster {
        /// Tree spec: `<family><size>` (e.g. `path9`) or a tree file.
        tree: String,
        /// Comma-separated input vertex labels (one per party).
        inputs: String,
        /// Corruption bound.
        t: usize,
        /// Seed of the shared content-keyed delay schedule.
        seed: u64,
        /// Delay floor / conservative lookahead.
        min_delay: f64,
        /// Shared MAC secret.
        secret: u64,
        /// Number of repeated runs (load driver).
        runs: u64,
        /// Check every run's merged trace against the in-process
        /// reference, event for event.
        gate: bool,
        /// Supervise the children: run every node durably behind a
        /// stable supervisor-owned relay and restart crashed nodes into
        /// `--recover` mode with capped backoff.
        supervise: bool,
        /// Seed of a chaos fault plan injected by the relays (resets,
        /// corruption, stalls, transient blackouts). Implies relays;
        /// incompatible with `--gate` (chaos legitimately shifts the
        /// retransmission schedule).
        chaos: Option<u64>,
        /// Comma-separated party indices to SIGKILL once every node has
        /// printed `READY` (the supervised crash-recovery e2e); empty
        /// kills nobody. Requires `--supervise`.
        kill_after_ready: String,
        /// Directory for the children's WALs in supervised mode (empty
        /// uses a per-run scratch directory).
        wal_dir: String,
    },
    /// `wal-dump`: print a node's write-ahead log, one JSON line per
    /// record.
    WalDump {
        /// Path to a WAL file.
        file: String,
    },
    /// `help` or no/unknown arguments.
    Help,
}

/// Parses `--key value` style options after the subcommand.
fn options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option starting with --, got `{k}`"))?;
        if key == "dot"
            || key == "minimize"
            || key == "faults"
            || key == "gate"
            || key == "recover"
            || key == "supervise"
            || key == "symmetry"
        {
            map.insert(key.to_string(), "true".to_string());
            continue;
        }
        let v = it
            .next()
            .ok_or_else(|| format!("option --{key} needs a value"))?;
        map.insert(key.to_string(), v.clone());
    }
    Ok(map)
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, missing options
/// or malformed values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    if cmd == "wal-dump" {
        // The one subcommand with a positional argument.
        return match &args[1..] {
            [file] if !file.starts_with("--") => Ok(Command::WalDump { file: file.clone() }),
            _ => Err("usage: treeaa wal-dump <file>".into()),
        };
    }
    let opts = options(&args[1..])?;
    match cmd.as_str() {
        "gen" => Ok(Command::Gen {
            family: req(&opts, "family")?.to_string(),
            size: parse_num(req(&opts, "size")?, "size")?,
            dot: opts.contains_key("dot"),
            seed: opts.get("seed").map_or(Ok(0), |s| parse_num(s, "seed"))?,
        }),
        "info" => Ok(Command::Info {
            tree: req(&opts, "tree")?.to_string(),
        }),
        "run" => Ok(Command::Run {
            tree: req(&opts, "tree")?.to_string(),
            inputs: req(&opts, "inputs")?.to_string(),
            t: opts.get("t").map_or(Ok(1), |s| parse_num(s, "t"))?,
            protocol: opts
                .get("protocol")
                .cloned()
                .unwrap_or_else(|| "treeaa".into()),
            engine: opts
                .get("engine")
                .cloned()
                .unwrap_or_else(|| "gradecast".into()),
            adversary: opts
                .get("adversary")
                .cloned()
                .unwrap_or_else(|| "none".into()),
            seed: opts.get("seed").map_or(Ok(0), |s| parse_num(s, "seed"))?,
        }),
        "bounds" => Ok(Command::Bounds {
            diameter: parse_num(req(&opts, "diameter")?, "diameter")?,
            n: parse_num(req(&opts, "n")?, "n")?,
            t: parse_num(req(&opts, "t")?, "t")?,
        }),
        "fuzz" => Ok(Command::Fuzz {
            seed: opts.get("seed").map_or(Ok(0), |s| parse_num(s, "seed"))?,
            cases: opts
                .get("cases")
                .map_or(Ok(100), |s| parse_num(s, "cases"))?,
            minimize: opts.contains_key("minimize"),
            faults: opts.contains_key("faults"),
            corpus: opts.get("corpus").cloned().unwrap_or_default(),
        }),
        "check" => {
            let n: usize = parse_num(req(&opts, "n")?, "n")?;
            Ok(Command::Check {
                n,
                t: opts
                    .get("t")
                    .map_or(Ok(n.saturating_sub(1) / 3), |s| parse_num(s, "t"))?,
                tree: req(&opts, "tree")?.to_string(),
                protocol: opts
                    .get("protocol")
                    .cloned()
                    .unwrap_or_else(|| "tree-aa".into()),
                depth: opts.get("depth").map_or(Ok(3), |s| parse_num(s, "depth"))?,
                max_runs: opts
                    .get("max-runs")
                    .map_or(Ok(50_000), |s| parse_num(s, "max-runs"))?,
                threads: opts
                    .get("threads")
                    .map_or(Ok(0), |s| parse_num(s, "threads"))?,
                symmetry: opts.contains_key("symmetry"),
                out: opts.get("out").cloned().unwrap_or_default(),
            })
        }
        "serve" => Ok(Command::Serve {
            tree: req(&opts, "tree")?.to_string(),
            inputs: req(&opts, "inputs")?.to_string(),
            party_id: parse_num(req(&opts, "party-id")?, "party-id")?,
            t: opts.get("t").map_or(Ok(1), |s| parse_num(s, "t"))?,
            seed: opts.get("seed").map_or(Ok(0), |s| parse_num(s, "seed"))?,
            min_delay: opts
                .get("min-delay")
                .map_or(Ok(0.5), |s| parse_num(s, "min-delay"))?,
            secret: opts
                .get("secret")
                .map_or(Ok(0), |s| parse_num(s, "secret"))?,
            bind: opts
                .get("bind")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:0".into()),
            peers: opts.get("peers").cloned().unwrap_or_default(),
            trace_out: opts.get("trace-out").cloned().unwrap_or_default(),
            wal: opts.get("wal").cloned().unwrap_or_default(),
            recover: opts.contains_key("recover"),
            reconnect_attempts: opts
                .get("reconnect-attempts")
                .map(|s| parse_num(s, "reconnect-attempts"))
                .transpose()?,
            dead_after_ms: opts
                .get("dead-after-ms")
                .map(|s| parse_num(s, "dead-after-ms"))
                .transpose()?,
        }),
        "cluster" => Ok(Command::Cluster {
            tree: req(&opts, "tree")?.to_string(),
            inputs: req(&opts, "inputs")?.to_string(),
            t: opts.get("t").map_or(Ok(1), |s| parse_num(s, "t"))?,
            seed: opts.get("seed").map_or(Ok(0), |s| parse_num(s, "seed"))?,
            min_delay: opts
                .get("min-delay")
                .map_or(Ok(0.5), |s| parse_num(s, "min-delay"))?,
            secret: opts
                .get("secret")
                .map_or(Ok(0), |s| parse_num(s, "secret"))?,
            runs: opts.get("runs").map_or(Ok(1), |s| parse_num(s, "runs"))?,
            gate: opts.contains_key("gate"),
            supervise: opts.contains_key("supervise"),
            chaos: opts
                .get("chaos")
                .map(|s| parse_num(s, "chaos"))
                .transpose()?,
            kill_after_ready: opts.get("kill-after-ready").cloned().unwrap_or_default(),
            wal_dir: opts.get("wal-dir").cloned().unwrap_or_default(),
        }),
        "trace" => Ok(Command::Trace {
            scenario: req(&opts, "scenario")?.to_string(),
            seed: opts.get("seed").map_or(Ok(0), |s| parse_num(s, "seed"))?,
            out: opts.get("out").cloned().unwrap_or_default(),
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command `{other}`; see `treeaa help`")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
treeaa — Byzantine approximate agreement on trees (PODC 2025 reproduction)

USAGE:
  treeaa gen    --family <path|star|binary|caterpillar|spider|broom|random>
                --size <K> [--seed <S>] [--dot]
  treeaa info   --tree <file>
  treeaa run    --tree <file> --inputs <l1,l2,...> [--t <T>]
                [--protocol treeaa|baseline] [--engine gradecast|halving]
                [--adversary none|chaos|crash|omission] [--seed <S>]
  treeaa bounds --diameter <D> --n <N> --t <T>
  treeaa fuzz   [--seed <S>] [--cases <K>] [--minimize] [--faults]
                [--corpus <dir>]
  treeaa check  --n <N> --tree <familyK|file> [--t <T>]
                [--protocol tree-aa|real-aa] [--depth <D>]
                [--max-runs <K>] [--threads <W>] [--symmetry]
                [--out <file>]
  treeaa trace  --scenario <name> [--seed <S>] [--out <file>]
  treeaa serve  --tree <familyK|file> --inputs <l1,l2,...> --party-id <I>
                [--t <T>] [--seed <S>] [--min-delay <F>] [--secret <K>]
                [--bind <addr:port>] [--peers <a0,a1,...>]
                [--trace-out <file>] [--wal <file>] [--recover]
                [--reconnect-attempts <K>] [--dead-after-ms <MS>]
  treeaa cluster --tree <familyK|file> --inputs <l1,l2,...> [--t <T>]
                [--seed <S>] [--min-delay <F>] [--secret <K>]
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

`check` exhaustively model-checks one small instance (n <= 5, trees of
<= 7 vertices): every Byzantine value-assignment from a finite message
lattice x every asynchronous delivery schedule up to --depth enumerated
decisions, with sleep-set and visited-state pruning. Every completed
execution is checked for validity, convex-hull containment,
1-agreement (or eps-agreement for real-aa), the termination bound and
the degradation contract, and a canonical run is cross-checked against
the lockstep synchronous simulators. --tree takes a generated family
with a trailing size (`path4`, `star5`) or a tree file. Output is
bit-identical across reruns; on failure the minimized counterexample
is printed and, with --out, its replayable trace JSON is saved. Exits
non-zero on a violation.

`trace` runs a named canonical scenario (path-honest, star-crash,
caterpillar-equivocate, broom-realaa-equivocate, path-baseline-flaky,
star-halving-honest, partition-heal, crash-recovery) under the
deterministic flight recorder and emits
the canonical trace JSON — every round, send, delivery and protocol
decision. The trace is byte-identical across step modes and runs, so
`(scenario, seed)` reproduces the file exactly.

`serve` runs one party of a real multi-process deployment: it binds a
TCP listener, prints `PORT <p>`, learns the full index-aligned address
vector from --peers or from a `PEERS a0,...,an-1` stdin line, completes
the MAC-authenticated handshakes, prints `READY`, executes the async
tree-AA protocol under conservative virtual-time synchronisation, and
prints one final machine-readable `OUTCOME` line. All processes of a
deployment must be launched with identical --tree/--inputs/--t/--seed/
--min-delay (a fingerprint in the handshake rejects mismatches) and the
same --secret. With --wal the node appends every protocol-relevant
state transition to a checksummed write-ahead log, flushed to the OS
per record and not fsynced: it survives a SIGKILL of the process (the
page cache outlives it), not power loss. With --recover it
first replays that log (shaving any torn tail a crash left behind),
re-handshakes under the same config fingerprint, and rejoins the
protocol exactly where it died — recovery is invisible to the
differential gate. --reconnect-attempts and --dead-after-ms loosen the
reconnect policy so peers sit out a supervised restart.

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
divergence.

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

`wal-dump` prints a node's (binary) write-ahead log as one canonical
JSON line per record — message bodies as length and FNV-1a, not bytes —
and a final `end` line with the record count, the valid prefix length
and whether a torn tail follows it. A corrupt, oversized or JSON-era
record ends the dump with its typed error and a non-zero exit, after
the records before it.
";

fn build_family(family: &str, size: usize, seed: u64) -> Result<Tree, String> {
    if size == 0 {
        return Err("size must be positive".into());
    }
    Ok(match family {
        "path" => generate::path(size),
        "star" => generate::star(size),
        "binary" => generate::balanced_kary(2, (size.max(2) as f64).log2().floor() as u32),
        "caterpillar" => generate::caterpillar(size.div_ceil(3).max(1), 2),
        "spider" => generate::spider(4, size.div_ceil(4).max(1)),
        "broom" => generate::broom(size.div_ceil(2).max(1), size / 2),
        "random" => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            generate::random_prufer(size, &mut rng)
        }
        other => return Err(format!("unknown family `{other}`")),
    })
}

/// Resolves a `check` tree spec: a family name with a trailing size
/// (`path4`, `star5`) or a path to a tree file.
fn build_tree_spec(spec: &str) -> Result<Tree, String> {
    let digits = spec.len() - spec.chars().rev().take_while(char::is_ascii_digit).count();
    let (family, size) = spec.split_at(digits);
    if !family.is_empty() && !size.is_empty() {
        if let Ok(tree) = build_family(family, size.parse().map_err(|_| "bad size")?, 0) {
            return Ok(tree);
        }
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("`{spec}` is neither a tree family spec nor a readable file: {e}"))?;
    parse_tree(&text).map_err(|e| e.to_string())
}

/// Builds the fully pinned networked-execution case shared by `serve`
/// processes, the `cluster` launcher, and the in-process reference run.
/// Every process of a deployment derives the same case (and thus the
/// same handshake fingerprint) from the same arguments.
fn build_gate_case(
    tree_spec: &str,
    inputs: &str,
    t: usize,
    seed: u64,
    min_delay: f64,
) -> Result<net::GateCase, String> {
    let tree = build_tree_spec(tree_spec)?;
    let input_ids: Vec<VertexId> = inputs
        .split(',')
        .map(str::trim)
        .map(|l| {
            tree.vertex(l)
                .ok_or_else(|| format!("unknown vertex label `{l}`"))
        })
        .collect::<Result<_, _>>()?;
    if !(min_delay > 0.0 && min_delay <= 1.0) {
        return Err(format!("--min-delay must be in (0, 1], got {min_delay}"));
    }
    let case = net::GateCase {
        tree: Arc::new(tree),
        inputs: input_ids,
        t,
        seed,
        min_delay,
        label: format!("serve-{seed}"),
    };
    case.protocol_config()?;
    Ok(case)
}

/// Parses the comma-separated, index-aligned peer address vector.
fn parse_peer_addrs(list: &str, n: usize) -> Result<Vec<std::net::SocketAddr>, String> {
    let addrs: Vec<std::net::SocketAddr> = list
        .split(',')
        .map(str::trim)
        .map(|a| {
            a.parse()
                .map_err(|e| format!("bad peer address `{a}`: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if addrs.len() != n {
        return Err(format!(
            "expected {n} peer addresses (one per party), got {}",
            addrs.len()
        ));
    }
    Ok(addrs)
}

/// One parsed `OUTCOME` line printed by a `serve` process.
#[derive(Debug)]
struct ServeOutcome {
    party: usize,
    vertex: String,
    degraded: bool,
    over_budget: bool,
    retx: u64,
}

fn parse_outcome_line(line: &str) -> Result<ServeOutcome, String> {
    let rest = line
        .trim()
        .strip_prefix("OUTCOME ")
        .ok_or_else(|| format!("not an OUTCOME line: `{line}`"))?;
    let mut o = ServeOutcome {
        party: usize::MAX,
        vertex: String::new(),
        degraded: false,
        over_budget: false,
        retx: 0,
    };
    for field in rest.split_whitespace() {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed OUTCOME field `{field}`"))?;
        match k {
            "party" => o.party = parse_num(v, "party")?,
            "vertex" => o.vertex = v.to_string(),
            "degraded" => o.degraded = parse_num(v, "degraded")?,
            "over_budget" => o.over_budget = parse_num(v, "over_budget")?,
            "retx" => o.retx = parse_num(v, "retx")?,
            _ => {}
        }
    }
    if o.party == usize::MAX || o.vertex.is_empty() {
        return Err(format!("incomplete OUTCOME line: `{line}`"));
    }
    Ok(o)
}

/// Everything needed to launch one `serve` child of a cluster run.
struct ClusterSpec<'a> {
    exe: &'a std::path::Path,
    tree: &'a str,
    inputs: &'a str,
    t: usize,
    seed: u64,
    min_delay: f64,
    secret: u64,
}

/// Per-incarnation launch parameters of one `serve` child.
#[derive(Default)]
struct ChildLaunch<'a> {
    /// `--peers` to pass directly (None uses the PORT/PEERS protocol).
    peers: Option<&'a str>,
    /// `--trace-out` file.
    trace_file: Option<&'a std::path::Path>,
    /// `--wal` file and whether to pass `--recover`.
    wal: Option<(&'a std::path::Path, bool)>,
    /// `--reconnect-attempts` / `--dead-after-ms` overrides.
    reconnect: Option<(u32, u64)>,
}

/// Spawns one `serve` child with piped stdin/stdout.
fn spawn_serve_child(
    spec: &ClusterSpec<'_>,
    i: usize,
    launch: &ChildLaunch<'_>,
) -> Result<(std::process::Child, std::process::ChildStdout), String> {
    use std::process::Stdio;
    let mut cmd = std::process::Command::new(spec.exe);
    cmd.arg("serve")
        .args(["--tree", spec.tree])
        .args(["--inputs", spec.inputs])
        .args(["--party-id", &i.to_string()])
        .args(["--t", &spec.t.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--min-delay", &spec.min_delay.to_string()])
        .args(["--secret", &spec.secret.to_string()])
        .args(["--bind", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if let Some(peers) = launch.peers {
        cmd.args(["--peers", peers]);
    }
    if let Some(file) = launch.trace_file {
        cmd.args(["--trace-out", &file.to_string_lossy()]);
    }
    if let Some((wal, recover)) = launch.wal {
        cmd.args(["--wal", &wal.to_string_lossy()]);
        if recover {
            cmd.arg("--recover");
        }
    }
    if let Some((attempts, dead_after)) = launch.reconnect {
        cmd.args(["--reconnect-attempts", &attempts.to_string()])
            .args(["--dead-after-ms", &dead_after.to_string()]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("party {i}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    Ok((child, stdout))
}

/// One stdout event from a cluster child.
enum ChildEvent {
    Line(String),
    Eof,
}

/// Streams one incarnation's stdout into the supervisor's event queue.
/// Each incarnation gets its own reader thread; the thread dies with
/// the pipe, so per-party events stay ordered (…lines, then Eof).
fn spawn_stdout_reader(
    i: usize,
    stdout: std::process::ChildStdout,
    tx: std::sync::mpsc::Sender<(usize, ChildEvent)>,
) {
    use std::io::{BufRead, BufReader};
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((i, ChildEvent::Line(line))).is_err() {
                return;
            }
        }
        let _ = tx.send((i, ChildEvent::Eof));
    });
}

/// Supervision state of one child slot (across incarnations).
struct ChildSlot {
    child: Option<std::process::Child>,
    port: Option<u16>,
    ready: bool,
    outcome: Option<ServeOutcome>,
    reaped: bool,
    restarts: u32,
    last_line: String,
}

/// Restarts a crashed child are capped at this many per slot.
const MAX_RESTARTS: u32 = 3;

/// No event from any child for this long earns a diagnostic dump; for
/// twice this long, the supervisor kills the deployment and errors out
/// instead of hanging.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(30);

/// What a managed (`--supervise` and/or `--chaos`) cluster run adds to
/// the plain launch.
struct Managed<'a> {
    /// Directory of the children's WALs.
    wal_dir: &'a std::path::Path,
    /// Seed of the relays' fault plan.
    chaos: Option<u64>,
    /// Parties to SIGKILL once the deployment is READY.
    kills: &'a [usize],
    /// Restart children that die before their OUTCOME.
    supervise: bool,
}

/// The cluster launcher and referee: spawns `n` `serve` children, wires
/// them over the PORT/PEERS protocol, and collects their outcomes (and
/// traces, when `trace_files` names one file per party). A watchdog
/// turns a silent stall into a diagnostic dump and an error.
///
/// A plain run hands the children each other's ports. A managed run
/// fronts every child with a supervisor-owned relay with a *stable*
/// address and hands out the relays instead, so when a crashed child
/// restarts on a fresh ephemeral port (binding the old port would race
/// lingering TIME_WAIT sockets), the supervisor simply retargets its
/// relay and the peers' reconnect dials reach the new incarnation.
/// Managed children run durably (a WAL each under `wal_dir`) and
/// restarts pass `--recover`, so a restarted node replays its prefix
/// and rejoins mid-protocol. With `chaos = Some(seed)` the same relays
/// also inject the seeded fault plan.
fn run_cluster(
    spec: &ClusterSpec<'_>,
    n: usize,
    trace_files: Option<&[std::path::PathBuf]>,
    managed: Option<&Managed<'_>>,
) -> Result<Vec<ServeOutcome>, String> {
    use std::io::Write;
    use std::sync::mpsc;

    // Chaos needs many dial attempts (relay resets are routine) but a
    // dead-peer deadline well below the node's wall cap: a peer that
    // exits just as a reset eats its final Done announcement would
    // otherwise be waited on until the wall timeout. Plain supervision
    // needs the opposite — few retries, but a deadline long enough to
    // sit out a capped-backoff restart plus a WAL replay.
    let reconnect = managed.map(|m| {
        if m.chaos.is_some() {
            (200u32, 15_000u64)
        } else {
            (60u32, 20_000u64)
        }
    });
    let max_restarts = if managed.is_some_and(|m| m.supervise) {
        MAX_RESTARTS
    } else {
        0
    };
    let kills = managed.map_or(&[][..], |m| m.kills);
    let wal_file = |i: usize| managed.map(|m| m.wal_dir.join(format!("node{i}.wal")));

    let (tx, rx) = mpsc::channel::<(usize, ChildEvent)>();
    let mut slots: Vec<ChildSlot> = Vec::with_capacity(n);
    for i in 0..n {
        let wal = wal_file(i);
        let launch = ChildLaunch {
            trace_file: trace_files.map(|files| files[i].as_path()),
            wal: wal.as_deref().map(|w| (w, false)),
            reconnect,
            ..ChildLaunch::default()
        };
        let (child, stdout) = spawn_serve_child(spec, i, &launch)?;
        spawn_stdout_reader(i, stdout, tx.clone());
        slots.push(ChildSlot {
            child: Some(child),
            port: None,
            ready: false,
            outcome: None,
            reaped: false,
            restarts: 0,
            last_line: String::new(),
        });
    }

    let mut proxies: Vec<net::ChaosProxy> = Vec::new();
    let mut peer_list = String::new();
    let mut kills_fired = kills.is_empty();
    let mut idle_strikes = 0u32;

    let dump = |slots: &[ChildSlot], note: &str| {
        eprintln!("supervisor: {note}");
        for (i, s) in slots.iter().enumerate() {
            eprintln!(
                "supervisor:   party {i}: port={:?} ready={} outcome={} reaped={} \
                 restarts={} last=`{}`",
                s.port,
                s.ready,
                s.outcome.is_some(),
                s.reaped,
                s.restarts,
                s.last_line,
            );
        }
    };

    let result = (|| -> Result<(), String> {
        loop {
            if slots.iter().all(|s| s.outcome.is_some() && s.reaped) {
                return Ok(());
            }
            let (i, event) = match rx.recv_timeout(WATCHDOG) {
                Ok(ev) => ev,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    idle_strikes += 1;
                    dump(&slots, "no progress from any child, dumping state");
                    if idle_strikes >= 2 {
                        return Err(format!(
                            "watchdog: no child produced output for {}s",
                            WATCHDOG.as_secs() * u64::from(idle_strikes)
                        ));
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("watchdog: every child stream closed unexpectedly".into());
                }
            };
            idle_strikes = 0;
            match event {
                ChildEvent::Line(line) => {
                    slots[i].last_line.clone_from(&line);
                    if let Some(port) = line.strip_prefix("PORT ") {
                        let port: u16 = parse_num(port.trim(), "port")?;
                        slots[i].port = Some(port);
                        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
                        if let Some(proxy) = proxies.get(i) {
                            // A restarted incarnation: swing its stable
                            // relay over to the fresh port.
                            proxy.retarget(addr);
                            eprintln!("supervisor: party {i} back up on {addr}, relay retargeted");
                        } else if peer_list.is_empty() && slots.iter().all(|s| s.port.is_some()) {
                            // Bring-up complete: hand out the children's
                            // own addresses or, managed, front every child
                            // with a relay and hand out the relays'.
                            let ports = slots.iter().map(|s| {
                                std::net::SocketAddr::from((
                                    [127, 0, 0, 1],
                                    s.port.expect("all ports known"),
                                ))
                            });
                            let peers: Vec<std::net::SocketAddr> = match managed {
                                None => ports.collect(),
                                Some(m) => {
                                    for (j, target) in ports.enumerate() {
                                        let plan = match m.chaos {
                                            Some(seed) => net::seeded_plan(seed, n),
                                            None => sim_net::FaultPlan::none(),
                                        };
                                        let proxy = net::spawn_chaos_proxy(
                                            target,
                                            net::ChaosConfig {
                                                plan,
                                                node: j,
                                                round_ms: 40,
                                            },
                                        )
                                        .map_err(|e| format!("relay for party {j}: {e}"))?;
                                        proxies.push(proxy);
                                    }
                                    proxies.iter().map(|p| p.addr).collect()
                                }
                            };
                            peer_list = peers
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(",");
                            for (j, slot) in slots.iter_mut().enumerate() {
                                let child = slot.child.as_mut().expect("live child");
                                let stdin = child.stdin.as_mut().expect("piped stdin");
                                writeln!(stdin, "PEERS {peer_list}")
                                    .map_err(|e| format!("party {j}: {e}"))?;
                            }
                        }
                    } else if line.trim() == "READY" {
                        slots[i].ready = true;
                        if !kills_fired && slots.iter().all(|s| s.ready) {
                            kills_fired = true;
                            for &k in kills {
                                eprintln!("supervisor: SIGKILL party {k} (deployment is READY)");
                                if let Some(child) = slots[k].child.as_mut() {
                                    child.kill().map_err(|e| format!("kill party {k}: {e}"))?;
                                }
                            }
                        }
                    } else if line.starts_with("OUTCOME ") {
                        slots[i].outcome = Some(parse_outcome_line(&line)?);
                    }
                }
                ChildEvent::Eof => {
                    let mut child = slots[i].child.take().expect("live child");
                    let status = child.wait().map_err(|e| format!("party {i}: {e}"))?;
                    if slots[i].outcome.is_some() {
                        if !status.success() {
                            return Err(format!(
                                "party {i}: exited with {status} after its OUTCOME"
                            ));
                        }
                        slots[i].reaped = true;
                        continue;
                    }
                    // Died before an outcome: restart into recovery, or
                    // give up and surface how it actually died.
                    if peer_list.is_empty() {
                        return Err(format!("party {i}: exited with {status} during bring-up"));
                    }
                    if slots[i].restarts >= max_restarts {
                        return Err(format!(
                            "party {i}: exited with {status} before its OUTCOME \
                             ({max_restarts} restart(s) allowed)"
                        ));
                    }
                    let backoff = std::time::Duration::from_millis(
                        (100u64 << slots[i].restarts.min(10)).min(1_000),
                    );
                    eprintln!(
                        "supervisor: party {i} exited with {status}; restarting with --recover \
                         in {backoff:?} ({}/{max_restarts})",
                        slots[i].restarts + 1,
                    );
                    std::thread::sleep(backoff);
                    let wal = wal_file(i);
                    let launch = ChildLaunch {
                        peers: Some(&peer_list),
                        trace_file: trace_files.map(|files| files[i].as_path()),
                        wal: wal.as_deref().map(|w| (w, true)),
                        reconnect,
                    };
                    let (child, stdout) = spawn_serve_child(spec, i, &launch)?;
                    spawn_stdout_reader(i, stdout, tx.clone());
                    slots[i].child = Some(child);
                    slots[i].port = None;
                    slots[i].ready = false;
                    slots[i].restarts += 1;
                }
            }
        }
    })();

    if let Err(e) = result {
        dump(&slots, &format!("aborting: {e}"));
        for slot in &mut slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        return Err(e);
    }
    let mut outcomes: Vec<ServeOutcome> = slots
        .into_iter()
        .map(|s| s.outcome.expect("complete run"))
        .collect();
    outcomes.sort_by_key(|o| o.party);
    Ok(outcomes)
}

/// Executes a command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a message for file, parse, or protocol-precondition problems.
pub fn execute(cmd: Command, out: &mut impl std::io::Write) -> Result<(), String> {
    let io = |e: std::io::Error| format!("i/o error: {e}");
    match cmd {
        Command::Help => write!(out, "{USAGE}").map_err(io),
        Command::Gen {
            family,
            size,
            dot,
            seed,
        } => {
            let tree = build_family(&family, size, seed)?;
            let text = if dot {
                tree.to_dot(&[])
            } else {
                tree.to_text()
            };
            write!(out, "{text}").map_err(io)
        }
        Command::Info { tree } => {
            let text = std::fs::read_to_string(&tree).map_err(io)?;
            let tree = parse_tree(&text).map_err(|e| e.to_string())?;
            let list = tree.euler_list();
            writeln!(out, "vertices        {}", tree.vertex_count()).map_err(io)?;
            writeln!(out, "diameter        {}", tree.diameter()).map_err(io)?;
            writeln!(out, "root            {}", tree.label(tree.root())).map_err(io)?;
            writeln!(out, "euler list len  {}", list.len()).map_err(io)?;
            for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
                let cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree)
                    .map_err(|e| e.to_string())?;
                let nr = NowakRybickiConfig::new(n, t, &tree).map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "rounds n={n:<2} t={t}: TreeAA {} (phase1 {} + phase2 {}), baseline {}",
                    cfg.total_rounds(),
                    cfg.phase1_rounds(),
                    cfg.phase2_rounds(),
                    nr.rounds()
                )
                .map_err(io)?;
            }
            Ok(())
        }
        Command::Bounds { diameter, n, t } => {
            writeln!(
                out,
                "exact Fekete round lower bound  {}",
                round_lower_bound(diameter, n, t)
            )
            .map_err(io)?;
            writeln!(
                out,
                "Theorem 2 closed form           {:.2}",
                theorem2_formula(diameter, n, t)
            )
            .map_err(io)?;
            for r in 1..=8u32 {
                writeln!(out, "  K({r}, D) = {:.6}", fekete_k(r, diameter, n, t)).map_err(io)?;
            }
            writeln!(
                out,
                "RealAA rounds for eps = 1       {}",
                real_aa::iterations_for(diameter, 1.0) * 3
            )
            .map_err(io)
        }
        Command::Fuzz {
            seed,
            cases,
            minimize,
            faults,
            corpus,
        } => {
            let opts = aa_fuzz::FuzzOptions {
                seed,
                cases,
                minimize,
                faults,
                corpus_dir: (!corpus.is_empty()).then(|| corpus.into()),
            };
            let violations = aa_fuzz::run_batch(&opts, out).map_err(io)?;
            if violations == 0 {
                Ok(())
            } else {
                Err(format!("{violations} invariant violation(s) found"))
            }
        }
        Command::Check {
            n,
            t,
            tree,
            protocol,
            depth,
            max_runs,
            threads,
            symmetry,
            out: out_path,
        } => {
            let tree = Arc::new(build_tree_spec(&tree)?);
            let protocol = aa_check::CheckProtocol::parse(&protocol)?;
            let mut opts = aa_check::CheckOptions::new(n, t, tree, protocol);
            opts.depth = depth;
            opts.max_runs = max_runs;
            opts.threads = (threads > 0).then_some(threads);
            opts.symmetry = symmetry;
            let report = aa_check::check(&opts)?;
            write!(out, "{report}").map_err(io)?;
            writeln!(out).map_err(io)?;
            match report.violation {
                None => Ok(()),
                Some(cex) => {
                    if !out_path.is_empty() {
                        let json = cex.trace.to_canonical_string();
                        std::fs::write(&out_path, format!("{json}\n")).map_err(io)?;
                        writeln!(out, "counterexample trace -> {out_path}").map_err(io)?;
                    }
                    Err(format!("property violation: {}", cex.violation))
                }
            }
        }
        Command::WalDump { file } => {
            let bytes = std::fs::read(&file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
            let mut cursor = net::WalCursor::new();
            cursor.push(&bytes);
            let mut records = 0u64;
            while let Some(rec) = cursor.next_record().map_err(|e| e.to_string())? {
                writeln!(out, "{}", rec.to_json()).map_err(io)?;
                records += 1;
            }
            use aa_trace::Json;
            let end = Json::Obj(vec![
                ("k".into(), Json::Str("end".into())),
                ("records".into(), Json::int(records)),
                ("valid_len".into(), Json::int(cursor.consumed())),
                ("torn_tail_bytes".into(), Json::int(cursor.pending() as u64)),
            ]);
            writeln!(out, "{end}").map_err(io)
        }
        Command::Trace {
            scenario,
            seed,
            out: out_path,
        } => {
            let trace = aa_fuzz::record_scenario(&scenario, seed)?;
            let json = trace.to_canonical_string();
            if out_path.is_empty() {
                writeln!(out, "{json}").map_err(io)
            } else {
                std::fs::write(&out_path, format!("{json}\n")).map_err(io)?;
                writeln!(
                    out,
                    "trace: {} events, fingerprint {:016x} -> {out_path}",
                    trace.events.len(),
                    trace.fingerprint()
                )
                .map_err(io)
            }
        }
        Command::Run {
            tree,
            inputs,
            t,
            protocol,
            engine,
            adversary,
            seed,
        } => {
            let text = std::fs::read_to_string(&tree).map_err(io)?;
            let tree = Arc::new(parse_tree(&text).map_err(|e| e.to_string())?);
            let labels: Vec<&str> = inputs.split(',').map(str::trim).collect();
            let n = labels.len();
            let input_ids: Vec<VertexId> = labels
                .iter()
                .map(|l| {
                    tree.vertex(l)
                        .ok_or_else(|| format!("unknown vertex label `{l}`"))
                })
                .collect::<Result<_, _>>()?;
            let engine = match engine.as_str() {
                "gradecast" => EngineKind::Gradecast,
                "halving" => EngineKind::Halving,
                other => return Err(format!("unknown engine `{other}`")),
            };
            let byz: Vec<PartyId> = if adversary == "none" {
                Vec::new()
            } else {
                (n - t..n).map(PartyId).collect()
            };

            let (outputs, rounds, messages) = match protocol.as_str() {
                "treeaa" => {
                    let cfg = TreeAaConfig::new(n, t, engine, &tree).map_err(|e| e.to_string())?;
                    let max = cfg.total_rounds() + 5;
                    let factory = |id: PartyId, _| {
                        TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), input_ids[id.index()])
                    };
                    let sim = SimConfig {
                        n,
                        t,
                        max_rounds: max,
                    };
                    let report = match adversary.as_str() {
                        "none" => run_simulation(sim, factory, Passive),
                        "chaos" => run_simulation(
                            sim,
                            factory,
                            TreeAaChaos::new(byz.clone(), seed, 2.0 * tree.vertex_count() as f64),
                        ),
                        "crash" => run_simulation(
                            sim,
                            factory,
                            CrashAdversary {
                                crashes: byz.iter().map(|&p| (p, 2)).collect(),
                            },
                        ),
                        "omission" => run_simulation(
                            sim,
                            factory,
                            SelectiveOmission::new(byz.clone(), 0.4, seed),
                        ),
                        other => return Err(format!("unknown adversary `{other}`")),
                    }
                    .map_err(|e| e.to_string())?;
                    (
                        report.honest_outputs(),
                        report.communication_rounds(),
                        report.metrics.total_messages(),
                    )
                }
                "baseline" => {
                    let cfg = NowakRybickiConfig::new(n, t, &tree).map_err(|e| e.to_string())?;
                    let max = cfg.rounds() + 5;
                    let factory = |id: PartyId, _| {
                        NowakRybickiParty::new(
                            id,
                            cfg.clone(),
                            Arc::clone(&tree),
                            input_ids[id.index()],
                        )
                    };
                    let sim = SimConfig {
                        n,
                        t,
                        max_rounds: max,
                    };
                    let report = match adversary.as_str() {
                        "none" => run_simulation(sim, factory, Passive),
                        "crash" => run_simulation(
                            sim,
                            factory,
                            CrashAdversary {
                                crashes: byz.iter().map(|&p| (p, 2)).collect(),
                            },
                        ),
                        "omission" => run_simulation(
                            sim,
                            factory,
                            SelectiveOmission::new(byz.clone(), 0.4, seed),
                        ),
                        other => {
                            return Err(format!(
                                "adversary `{other}` is not available for the baseline"
                            ))
                        }
                    }
                    .map_err(|e| e.to_string())?;
                    (
                        report.honest_outputs(),
                        report.communication_rounds(),
                        report.metrics.total_messages(),
                    )
                }
                other => return Err(format!("unknown protocol `{other}`")),
            };

            let honest_inputs: Vec<VertexId> = (0..n)
                .filter(|i| !byz.iter().any(|b| b.index() == *i))
                .map(|i| input_ids[i])
                .collect();
            writeln!(out, "rounds    {rounds}").map_err(io)?;
            writeln!(out, "messages  {messages}").map_err(io)?;
            for (i, &v) in outputs.iter().enumerate() {
                writeln!(out, "party {i}: output {}", tree.label(v)).map_err(io)?;
            }
            match check_tree_aa(&tree, &honest_inputs, &outputs) {
                Ok(()) => writeln!(out, "verified: validity + 1-agreement hold").map_err(io),
                Err(v) => Err(format!("PROPERTY VIOLATION: {v}")),
            }
        }
        Command::Serve {
            tree,
            inputs,
            party_id,
            t,
            seed,
            min_delay,
            secret,
            bind,
            peers,
            trace_out,
            wal,
            recover,
            reconnect_attempts,
            dead_after_ms,
        } => {
            let case = build_gate_case(&tree, &inputs, t, seed, min_delay)?;
            let n = case.n();
            if party_id >= n {
                return Err(format!("--party-id {party_id} out of range (n = {n})"));
            }
            if recover && wal.is_empty() {
                return Err("--recover needs a log to replay; pass --wal <file>".into());
            }
            let listener = std::net::TcpListener::bind(&bind).map_err(io)?;
            let port = listener.local_addr().map_err(io)?.port();
            writeln!(out, "PORT {port}").map_err(io)?;
            out.flush().map_err(io)?;
            let peer_list = if peers.is_empty() {
                let mut line = String::new();
                std::io::stdin().read_line(&mut line).map_err(io)?;
                line.trim()
                    .strip_prefix("PEERS ")
                    .ok_or_else(|| format!("expected `PEERS a0,...` on stdin, got `{line}`"))?
                    .to_string()
            } else {
                peers
            };
            let addrs = parse_peer_addrs(&peer_list, n)?;
            let mut cfg = net::node_config(&case, party_id, addrs, secret);
            if let Some(attempts) = reconnect_attempts {
                cfg.reconnect.attempts = attempts;
            }
            if let Some(dead_after) = dead_after_ms {
                cfg.reconnect.dead_after_ms = dead_after;
            }
            let durability = (!wal.is_empty()).then(|| net::Durability {
                wal_path: std::path::PathBuf::from(&wal),
                recover,
            });
            let party = case.party(party_id);
            // READY must reach the launcher the moment the links are up
            // (crash tests kill victims on it), so it bypasses `out` and
            // goes straight to the process stdout — the same stream in a
            // real `serve` process.
            let report = net::run_node_durable(
                &cfg,
                listener,
                party,
                durability.as_ref(),
                |p| p.state_fingerprint(),
                || {
                    use std::io::Write as _;
                    let mut so = std::io::stdout();
                    let _ = writeln!(so, "READY");
                    let _ = so.flush();
                },
            )
            .map_err(|e| format!("party {party_id}: {e}"))?;
            if !trace_out.is_empty() {
                let json = report.trace.to_trace().to_canonical_string();
                std::fs::write(&trace_out, format!("{json}\n")).map_err(io)?;
            }
            let outcome = report
                .output
                .ok_or_else(|| format!("party {party_id} terminated without an output"))?;
            let over_budget = match &outcome {
                sim_net::Outcome::Degraded(d) => d.certificate.exceeds_budget(),
                sim_net::Outcome::Value(_) => false,
            };
            writeln!(
                out,
                "OUTCOME party={party_id} vertex={} degraded={} over_budget={} retx={} vtime={:.3}",
                case.tree.label(*outcome.value()),
                outcome.is_degraded(),
                over_budget,
                report.stats.retransmissions,
                report.vtime,
            )
            .map_err(io)?;
            out.flush().map_err(io)
        }
        Command::Cluster {
            tree,
            inputs,
            t,
            seed,
            min_delay,
            secret,
            runs,
            gate,
            supervise,
            chaos,
            kill_after_ready,
            wal_dir,
        } => {
            let case = build_gate_case(&tree, &inputs, t, seed, min_delay)?;
            let n = case.n();
            let kills: Vec<usize> = kill_after_ready
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| parse_num(s, "kill-after-ready index"))
                .collect::<Result<_, _>>()?;
            if kills.iter().any(|&k| k >= n) {
                return Err(format!("--kill-after-ready index out of range (n = {n})"));
            }
            if !kills.is_empty() && !supervise {
                return Err(
                    "--kill-after-ready needs --supervise (nobody would restart the victim)".into(),
                );
            }
            if gate && chaos.is_some() {
                return Err(
                    "--gate and --chaos are incompatible: chaos legitimately shifts the \
                     retransmission schedule the gate reconciles"
                        .into(),
                );
            }
            let managed = supervise || chaos.is_some();
            let exe = std::env::current_exe().map_err(io)?;
            let spec = ClusterSpec {
                exe: &exe,
                tree: &tree,
                inputs: &inputs,
                t,
                seed,
                min_delay,
                secret,
            };
            let reference = if gate {
                Some(case.reference_run()?)
            } else {
                None
            };
            for run in 0..runs {
                let trace_files: Option<Vec<std::path::PathBuf>> = gate.then(|| {
                    let dir = std::env::temp_dir();
                    (0..n)
                        .map(|i| {
                            dir.join(format!(
                                "treeaa-cluster-{}-{run}-{i}.trace.json",
                                std::process::id()
                            ))
                        })
                        .collect()
                });
                let wdir = managed.then(|| {
                    if wal_dir.is_empty() {
                        std::env::temp_dir()
                            .join(format!("treeaa-wal-{}-{run}", std::process::id()))
                    } else {
                        std::path::PathBuf::from(&wal_dir)
                    }
                });
                if let Some(dir) = &wdir {
                    std::fs::create_dir_all(dir).map_err(io)?;
                }
                let managed = wdir.as_deref().map(|dir| Managed {
                    wal_dir: dir,
                    chaos,
                    kills: &kills,
                    supervise,
                });
                let result = run_cluster(&spec, n, trace_files.as_deref(), managed.as_ref());
                // A failed run keeps its WALs around for diagnosis.
                if let (Some(dir), true, true) = (&wdir, wal_dir.is_empty(), result.is_ok()) {
                    let _ = std::fs::remove_dir_all(dir);
                }
                let outcomes = result.map_err(|e| format!("run {run}: {e}"))?;
                for o in &outcomes {
                    if o.degraded {
                        return Err(format!(
                            "run {run}: party {} degraded on a clean deployment",
                            o.party
                        ));
                    }
                }
                let outputs: Vec<VertexId> = outcomes
                    .iter()
                    .map(|o| {
                        case.tree
                            .vertex(&o.vertex)
                            .ok_or_else(|| format!("run {run}: unknown output `{}`", o.vertex))
                    })
                    .collect::<Result<_, _>>()?;
                check_tree_aa(&case.tree, &case.inputs, &outputs)
                    .map_err(|v| format!("run {run}: PROPERTY VIOLATION: {v}"))?;
                let labels: Vec<&str> = outcomes.iter().map(|o| o.vertex.as_str()).collect();
                writeln!(out, "run {run}: outputs {} (verified)", labels.join(" ")).map_err(io)?;
                if let (Some(reference), Some(files)) = (&reference, &trace_files) {
                    let traces = files
                        .iter()
                        .map(|f| {
                            let text = std::fs::read_to_string(f).map_err(io)?;
                            let _ = std::fs::remove_file(f);
                            aa_trace::Trace::parse(&text)
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let merged = aa_trace::merge_traces(&traces)?;
                    let reconciled = net::differential_gate(&reference.trace, &merged)
                        .map_err(|e| format!("run {run}: differential gate FAILED: {e}"))?;
                    writeln!(out, "run {run}: gate reconciled {reconciled} proto events")
                        .map_err(io)?;
                    // Schedule-blind hash of the merged protocol events:
                    // bit-identical across reruns, and blind to whether
                    // any node crashed and recovered along the way.
                    let fp =
                        net::proto_fingerprint(&merged).map_err(|e| format!("run {run}: {e}"))?;
                    writeln!(out, "run {run}: proto fingerprint {fp:016x}").map_err(io)?;
                }
            }
            writeln!(out, "cluster: {runs} run(s) passed on {n} processes").map_err(io)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_gen() {
        let cmd = parse_args(&argv("gen --family path --size 5 --dot")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen {
                family: "path".into(),
                size: 5,
                dot: true,
                seed: 0
            }
        );
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse_args(&argv("run --tree x.tree --inputs a,b,c,d")).unwrap();
        match cmd {
            Command::Run {
                t,
                protocol,
                engine,
                adversary,
                ..
            } => {
                assert_eq!(t, 1);
                assert_eq!(protocol, "treeaa");
                assert_eq!(engine, "gradecast");
                assert_eq!(adversary, "none");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_required_option_is_an_error() {
        let err = parse_args(&argv("gen --size 5")).unwrap_err();
        assert!(err.contains("--family"), "{err}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn gen_and_info_roundtrip_through_a_file() {
        let mut buf = Vec::new();
        execute(
            Command::Gen {
                family: "caterpillar".into(),
                size: 12,
                dot: false,
                seed: 0,
            },
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.tree");
        std::fs::write(&file, &buf).unwrap();

        let mut info = Vec::new();
        execute(
            Command::Info {
                tree: file.to_string_lossy().into_owned(),
            },
            &mut info,
        )
        .unwrap();
        let text = String::from_utf8(info).unwrap();
        assert!(text.contains("vertices        12"), "{text}");
        assert!(text.contains("TreeAA"), "{text}");
    }

    #[test]
    fn run_executes_and_verifies() {
        let mut buf = Vec::new();
        execute(
            Command::Gen {
                family: "path".into(),
                size: 9,
                dot: false,
                seed: 0,
            },
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.tree");
        std::fs::write(&file, &buf).unwrap();

        for (protocol, engine, adversary) in [
            ("treeaa", "gradecast", "none"),
            ("treeaa", "gradecast", "chaos"),
            ("treeaa", "halving", "none"),
            ("treeaa", "gradecast", "crash"),
            ("treeaa", "gradecast", "omission"),
            ("baseline", "gradecast", "none"),
            ("baseline", "gradecast", "omission"),
        ] {
            let mut out = Vec::new();
            execute(
                Command::Run {
                    tree: file.to_string_lossy().into_owned(),
                    inputs: "v0000,v0003,v0006,v0008".into(),
                    t: 1,
                    protocol: protocol.into(),
                    engine: engine.into(),
                    adversary: adversary.into(),
                    seed: 11,
                },
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(
                text.contains("verified"),
                "{protocol}/{engine}/{adversary}: {text}"
            );
        }
    }

    #[test]
    fn parses_fuzz_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&argv("fuzz")).unwrap(),
            Command::Fuzz {
                seed: 0,
                cases: 100,
                minimize: false,
                faults: false,
                corpus: String::new(),
            }
        );
        assert_eq!(
            parse_args(&argv(
                "fuzz --seed 42 --cases 500 --minimize --faults --corpus fuzz-corpus"
            ))
            .unwrap(),
            Command::Fuzz {
                seed: 42,
                cases: 500,
                minimize: true,
                faults: true,
                corpus: "fuzz-corpus".into(),
            }
        );
    }

    #[test]
    fn fuzz_runs_clean_and_is_bit_identical() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Fuzz {
                    seed: 42,
                    cases: 25,
                    minimize: true,
                    faults: false,
                    corpus: String::new(),
                },
                &mut out,
            )
            .unwrap();
            out
        };
        let first = run();
        assert_eq!(first, run());
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("0 violation(s)"), "{text}");
    }

    #[test]
    fn faulted_fuzz_runs_clean_and_is_bit_identical() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Fuzz {
                    seed: 42,
                    cases: 15,
                    minimize: false,
                    faults: true,
                    corpus: String::new(),
                },
                &mut out,
            )
            .unwrap();
            out
        };
        let first = run();
        assert_eq!(first, run());
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("faults on"), "{text}");
        assert!(text.contains("0 violation(s)"), "{text}");
    }

    #[test]
    fn parses_check_with_defaults() {
        assert_eq!(
            parse_args(&argv("check --n 4 --tree path4 --protocol tree-aa")).unwrap(),
            Command::Check {
                n: 4,
                t: 1,
                tree: "path4".into(),
                protocol: "tree-aa".into(),
                depth: 3,
                max_runs: 50_000,
                threads: 0,
                symmetry: false,
                out: String::new(),
            }
        );
        assert_eq!(
            parse_args(&argv(
                "check --n 5 --t 1 --tree star5 --protocol real-aa --depth 2 \
                 --max-runs 999 --threads 4 --symmetry --out cex.json"
            ))
            .unwrap(),
            Command::Check {
                n: 5,
                t: 1,
                tree: "star5".into(),
                protocol: "real-aa".into(),
                depth: 2,
                max_runs: 999,
                threads: 4,
                symmetry: true,
                out: "cex.json".into(),
            }
        );
        assert!(parse_args(&argv("check --tree path4")).is_err());
    }

    // The acceptance invocation: `treeaa check --n 4 --tree path4
    // --protocol tree-aa` explores exhaustively, passes, reports its
    // explored/pruned counts, and is bit-identical across reruns.
    #[test]
    fn check_passes_and_is_bit_identical() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Check {
                    n: 4,
                    t: 1,
                    tree: "path4".into(),
                    protocol: "tree-aa".into(),
                    depth: 2,
                    max_runs: 50_000,
                    threads: 0,
                    symmetry: false,
                    out: String::new(),
                },
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        assert!(first.contains("verdict: PASS"), "{first}");
        assert!(first.contains("executions:"), "{first}");
        assert!(first.contains("canonical fingerprint:"), "{first}");
        assert!(!first.contains("[truncated"), "{first}");
    }

    // `--threads` and `--symmetry` flow through to the checker: the
    // report names the portfolio width and the symmetry reduction, and
    // the portfolio rerun is bit-identical for any thread count.
    #[test]
    fn check_symmetry_portfolio_flags_flow_through() {
        let run = |threads: usize| {
            let mut out = Vec::new();
            execute(
                Command::Check {
                    n: 4,
                    t: 1,
                    tree: "star4".into(),
                    protocol: "tree-aa".into(),
                    depth: 2,
                    max_runs: 50_000,
                    threads,
                    symmetry: true,
                    out: String::new(),
                },
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let two = run(2);
        assert!(two.contains("verdict: PASS"), "{two}");
        assert!(two.contains("portfolio: 2 threads"), "{two}");
        assert!(two.contains("symmetry: max group order"), "{two}");
        assert_eq!(two, run(2), "portfolio reruns must be bit-identical");
    }

    #[test]
    fn check_accepts_a_tree_file_and_rejects_bad_specs() {
        let mut buf = Vec::new();
        execute(
            Command::Gen {
                family: "path".into(),
                size: 4,
                dot: false,
                seed: 0,
            },
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("check.tree");
        std::fs::write(&file, &buf).unwrap();
        let mut out = Vec::new();
        execute(
            Command::Check {
                n: 4,
                t: 1,
                tree: file.to_string_lossy().into_owned(),
                protocol: "tree-aa".into(),
                depth: 1,
                max_runs: 10_000,
                threads: 0,
                symmetry: false,
                out: String::new(),
            },
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("verdict: PASS"));

        let err = execute(
            Command::Check {
                n: 4,
                t: 1,
                tree: "definitely-not-a-tree".into(),
                protocol: "tree-aa".into(),
                depth: 1,
                max_runs: 10,
                threads: 0,
                symmetry: false,
                out: String::new(),
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("neither a tree family spec"), "{err}");
    }

    #[test]
    fn parses_trace_with_defaults() {
        assert_eq!(
            parse_args(&argv("trace --scenario path-honest")).unwrap(),
            Command::Trace {
                scenario: "path-honest".into(),
                seed: 0,
                out: String::new(),
            }
        );
        assert!(parse_args(&argv("trace")).is_err());
    }

    #[test]
    fn trace_emits_reproducible_canonical_json() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Trace {
                    scenario: "star-halving-honest".into(),
                    seed: 3,
                    out: String::new(),
                },
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        let parsed = aa_fuzz::Json::parse(first.trim()).unwrap();
        assert_eq!(
            parsed.get("label").and_then(aa_fuzz::Json::as_str),
            Some("star-halving-honest:3")
        );
    }

    #[test]
    fn trace_writes_a_file_and_reports_the_fingerprint() {
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("golden.trace.json");
        let mut out = Vec::new();
        execute(
            Command::Trace {
                scenario: "path-honest".into(),
                seed: 1,
                out: file.to_string_lossy().into_owned(),
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fingerprint"), "{text}");
        let written = std::fs::read_to_string(&file).unwrap();
        assert!(
            written.starts_with('{') && written.ends_with("}\n"),
            "bad file shape"
        );
    }

    #[test]
    fn trace_unknown_scenario_lists_the_names() {
        let err = execute(
            Command::Trace {
                scenario: "bogus".into(),
                seed: 0,
                out: String::new(),
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("caterpillar-equivocate"), "{err}");
    }

    #[test]
    fn parses_serve_with_defaults() {
        assert_eq!(
            parse_args(&argv(
                "serve --tree path9 --inputs a,b,c,d --party-id 2 --seed 9"
            ))
            .unwrap(),
            Command::Serve {
                tree: "path9".into(),
                inputs: "a,b,c,d".into(),
                party_id: 2,
                t: 1,
                seed: 9,
                min_delay: 0.5,
                secret: 0,
                bind: "127.0.0.1:0".into(),
                peers: String::new(),
                trace_out: String::new(),
                wal: String::new(),
                recover: false,
                reconnect_attempts: None,
                dead_after_ms: None,
            }
        );
        let err = parse_args(&argv("serve --tree path9 --inputs a,b")).unwrap_err();
        assert!(err.contains("--party-id"), "{err}");
    }

    #[test]
    fn parses_serve_durability_flags() {
        let cmd = parse_args(&argv(
            "serve --tree path9 --inputs a,b,c,d --party-id 1 --wal /tmp/n1.wal --recover \
             --reconnect-attempts 60 --dead-after-ms 20000",
        ))
        .unwrap();
        let Command::Serve {
            wal,
            recover,
            reconnect_attempts,
            dead_after_ms,
            ..
        } = cmd
        else {
            panic!("not a serve command: {cmd:?}");
        };
        assert_eq!(wal, "/tmp/n1.wal");
        assert!(recover);
        assert_eq!(reconnect_attempts, Some(60));
        assert_eq!(dead_after_ms, Some(20_000));
    }

    #[test]
    fn parses_cluster_with_gate_flag() {
        assert_eq!(
            parse_args(&argv(
                "cluster --tree path9 --inputs a,b,c,d --runs 5 --gate --secret 77"
            ))
            .unwrap(),
            Command::Cluster {
                tree: "path9".into(),
                inputs: "a,b,c,d".into(),
                t: 1,
                seed: 0,
                min_delay: 0.5,
                secret: 77,
                runs: 5,
                gate: true,
                supervise: false,
                chaos: None,
                kill_after_ready: String::new(),
                wal_dir: String::new(),
            }
        );
    }

    #[test]
    fn parses_cluster_supervision_flags() {
        let cmd = parse_args(&argv(
            "cluster --tree path9 --inputs a,b,c,d --supervise --chaos 7 \
             --kill-after-ready 1,3 --wal-dir /tmp/wals",
        ))
        .unwrap();
        let Command::Cluster {
            supervise,
            chaos,
            kill_after_ready,
            wal_dir,
            ..
        } = cmd
        else {
            panic!("not a cluster command: {cmd:?}");
        };
        assert!(supervise);
        assert_eq!(chaos, Some(7));
        assert_eq!(kill_after_ready, "1,3");
        assert_eq!(wal_dir, "/tmp/wals");
    }

    #[test]
    fn cluster_refuses_contradictory_fault_flags() {
        let cluster = |extra: &str| {
            parse_args(&argv(&format!(
                "cluster --tree path9 --inputs v0000,v0003,v0006,v0008 {extra}"
            )))
            .unwrap()
        };
        let err = execute(cluster("--gate --chaos 3"), &mut Vec::new()).unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
        let err = execute(cluster("--kill-after-ready 1"), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--supervise"), "{err}");
        let err =
            execute(cluster("--supervise --kill-after-ready 9"), &mut Vec::new()).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn parses_wal_dump_with_its_positional_file() {
        assert_eq!(
            parse_args(&argv("wal-dump /tmp/node0.wal")).unwrap(),
            Command::WalDump {
                file: "/tmp/node0.wal".into()
            }
        );
        for bad in ["wal-dump", "wal-dump a b", "wal-dump --file x"] {
            let err = parse_args(&argv(bad)).unwrap_err();
            assert!(err.contains("wal-dump <file>"), "{bad}: {err}");
        }
    }

    #[test]
    fn wal_dump_prints_records_then_the_valid_length_and_torn_tail() {
        let path = std::env::temp_dir().join(format!("treeaa-dump-{}.wal", std::process::id()));
        let header = net::WalHeader {
            config_fp: 0xfeed,
            me: 1,
            n: 4,
            t: 1,
            seed: 7,
            min_delay_bits: 0.5f64.to_bits(),
            wire_version: net::WIRE_VERSION,
            label: "dump".into(),
        };
        let mut wal = net::WalWriter::create(&path, &header).unwrap();
        wal.append(&net::WalRecord::Reserve { peer: 2, upto: 64 })
            .unwrap();
        drop(wal);
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, [&intact[..], &[0, 0, 0, 17, 2]].concat()).unwrap();

        let dump = |file: &std::path::Path| {
            let mut out = Vec::new();
            let cmd = Command::WalDump {
                file: file.display().to_string(),
            };
            let status = execute(cmd, &mut out);
            (String::from_utf8(out).unwrap(), status)
        };
        let (text, status) = dump(&path);
        status.unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with(r#"{"k": "hdr", "fp": "000000000000feed""#));
        assert_eq!(
            lines[1],
            r#"{"k": "res", "peer": 2, "upto": "0000000000000040"}"#
        );
        assert_eq!(
            lines[2],
            format!(
                r#"{{"k": "end", "records": 2, "valid_len": {}, "torn_tail_bytes": 5}}"#,
                intact.len()
            )
        );

        // Corruption: the records before it, then the typed error.
        let mut corrupt = intact.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        std::fs::write(&path, corrupt).unwrap();
        let (text, status) = dump(&path);
        assert_eq!(text.lines().count(), 1, "{text}");
        let err = status.unwrap_err();
        assert!(err.contains("fails its checksum"), "{err}");
        std::fs::remove_file(&path).unwrap();

        let err = dump(std::path::Path::new("/nonexistent/treeaa.wal"))
            .1
            .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn serve_recover_without_a_wal_is_refused() {
        let err = execute(
            parse_args(&argv(
                "serve --tree path9 --inputs v0000,v0003,v0006,v0008 --party-id 0 --recover",
            ))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("--wal"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_arguments_cleanly() {
        let err = execute(
            Command::Serve {
                tree: "path9".into(),
                inputs: "v0000,v0003,v0006,v0008".into(),
                party_id: 9,
                t: 1,
                seed: 0,
                min_delay: 0.5,
                secret: 0,
                bind: "127.0.0.1:0".into(),
                peers: "x".into(),
                trace_out: String::new(),
                wal: String::new(),
                recover: false,
                reconnect_attempts: None,
                dead_after_ms: None,
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        let err = execute(
            Command::Cluster {
                tree: "path9".into(),
                inputs: "v0000,nope".into(),
                t: 1,
                seed: 0,
                min_delay: 0.5,
                secret: 0,
                runs: 1,
                gate: false,
                supervise: false,
                chaos: None,
                kill_after_ready: String::new(),
                wal_dir: String::new(),
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("unknown vertex label"), "{err}");
    }

    #[test]
    fn outcome_lines_roundtrip_through_the_parser() {
        let o = parse_outcome_line(
            "OUTCOME party=2 vertex=v0003 degraded=true over_budget=true retx=7 vtime=16.000",
        )
        .unwrap();
        assert_eq!(o.party, 2);
        assert_eq!(o.vertex, "v0003");
        assert!(o.degraded && o.over_budget);
        assert_eq!(o.retx, 7);
        assert!(parse_outcome_line("READY").is_err());
        assert!(parse_outcome_line("OUTCOME party=1").is_err());
    }

    #[test]
    fn bounds_prints_the_numbers() {
        let mut out = Vec::new();
        execute(
            Command::Bounds {
                diameter: 1000.0,
                n: 31,
                t: 10,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Fekete"));
        assert!(text.contains("Theorem 2"));
    }

    #[test]
    fn unknown_vertex_label_is_a_clean_error() {
        let mut buf = Vec::new();
        execute(
            Command::Gen {
                family: "path".into(),
                size: 4,
                dot: false,
                seed: 0,
            },
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("labels.tree");
        std::fs::write(&file, &buf).unwrap();
        let err = execute(
            Command::Run {
                tree: file.to_string_lossy().into_owned(),
                inputs: "nope,v0001,v0002,v0003".into(),
                t: 1,
                protocol: "treeaa".into(),
                engine: "gradecast".into(),
                adversary: "none".into(),
                seed: 0,
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("unknown vertex label"), "{err}");
    }
}
