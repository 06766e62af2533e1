//! `treeaa cluster`: the local launcher and referee — `n` `serve`
//! processes on loopback, their outcomes checked, and optionally the
//! differential trace gate against the in-process reference simulator.

use tree_aa::check_tree_aa;
use tree_model::VertexId;

use crate::serve::build_gate_case;
use crate::{io, parse_num, Opts, Subcommand};

/// `cluster`: launch `n` local `serve` processes on loopback, referee
/// their outcomes, and optionally run the differential trace gate
/// against the in-process reference simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster {
    /// Tree spec: `<family><size>` (e.g. `path9`) or a tree file.
    pub tree: String,
    /// Comma-separated input vertex labels (one per party).
    pub inputs: String,
    /// Corruption bound.
    pub t: usize,
    /// Seed of the shared content-keyed delay schedule.
    pub seed: u64,
    /// Shared MAC secret.
    pub secret: u64,
    /// Number of repeated runs (load driver).
    pub runs: u64,
    /// Check every run's merged trace against the in-process
    /// reference, event for event.
    pub gate: bool,
    /// Supervise the children: run every node durably behind a
    /// stable supervisor-owned relay and restart crashed nodes into
    /// `--recover` mode with capped backoff.
    pub supervise: bool,
    /// Seed of a chaos fault plan injected by the relays (resets,
    /// corruption, stalls, transient blackouts). Implies relays;
    /// incompatible with `--gate` (chaos legitimately shifts the
    /// retransmission schedule).
    pub chaos: Option<u64>,
    /// Comma-separated party indices to SIGKILL once every node has
    /// printed `READY` (the supervised crash-recovery e2e); empty
    /// kills nobody. Requires `--supervise`.
    pub kill_after_ready: String,
    /// Directory for the children's WALs under `--supervise` or
    /// `--chaos` (empty uses a per-run scratch directory). Requires one
    /// of them.
    pub wal_dir: String,
}

impl Subcommand for Cluster {
    const FLAGS: &'static [&'static str] = &["gate", "supervise"];
    const HELP: &'static str = "
  treeaa cluster --tree <familyK|file> --inputs <l1,l2,...> [--t <T>]
                [--seed <S>] [--secret <K>]
                [--runs <R>] [--gate] [--supervise] [--chaos <S>]
                [--kill-after-ready <i,j,...>] [--wal-dir <dir>]

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
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Cluster {
            tree: o.req("tree")?,
            inputs: o.req("inputs")?,
            t: o.or("t", 1)?,
            seed: o.or("seed", 0)?,
            secret: o.or("secret", 0)?,
            runs: o.or("runs", 1)?,
            gate: o.flag("gate"),
            supervise: o.flag("supervise"),
            chaos: o.opt("chaos")?,
            kill_after_ready: o.or("kill-after-ready", String::new())?,
            wal_dir: o.or("wal-dir", String::new())?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let case = build_gate_case(&self.tree, &self.inputs, self.t, self.seed)?;
        let n = case.n();
        let kills: Vec<usize> = self
            .kill_after_ready
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_num(s, "kill-after-ready index"))
            .collect::<Result<_, _>>()?;
        if kills.iter().any(|&k| k >= n) {
            return Err(format!("--kill-after-ready index out of range (n = {n})"));
        }
        if !kills.is_empty() && !self.supervise {
            return Err(
                "--kill-after-ready needs --supervise (nobody would restart the victim)".into(),
            );
        }
        if self.gate && self.chaos.is_some() {
            return Err(
                "--gate and --chaos are incompatible: chaos legitimately shifts the \
                 retransmission schedule the gate reconciles"
                    .into(),
            );
        }
        let managed = self.supervise || self.chaos.is_some();
        if !self.wal_dir.is_empty() && !managed {
            return Err(
                "--wal-dir needs --supervise or --chaos (only their children keep a WAL)".into(),
            );
        }
        let exe = std::env::current_exe().map_err(io)?;
        let spec = ClusterSpec {
            exe: &exe,
            tree: &self.tree,
            inputs: &self.inputs,
            t: self.t,
            seed: self.seed,
            secret: self.secret,
        };
        let reference = self.gate.then(|| case.reference_run()).transpose()?;
        for run in 0..self.runs {
            let trace_files: Option<Vec<std::path::PathBuf>> = self.gate.then(|| {
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
                if self.wal_dir.is_empty() {
                    std::env::temp_dir().join(format!("treeaa-wal-{}-{run}", std::process::id()))
                } else {
                    std::path::PathBuf::from(&self.wal_dir)
                }
            });
            if let Some(dir) = &wdir {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
            let managed = wdir.as_deref().map(|dir| Managed {
                wal_dir: dir,
                chaos: self.chaos,
                kills: &kills,
                supervise: self.supervise,
            });
            let result = run_cluster(&spec, n, trace_files.as_deref(), managed.as_ref());
            // A failed run keeps its WALs around for diagnosis.
            if let (Some(dir), true, true) = (&wdir, self.wal_dir.is_empty(), result.is_ok()) {
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
                // Without chaos relays nothing on the path can replay a
                // frame: a rejected replay is a node reusing `wire_seq`s.
                if o.replays > 0 && self.chaos.is_none() {
                    return Err(format!(
                        "run {run}: party {} rejected {} replayed frame(s) without --chaos",
                        o.party, o.replays
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
                let fp = net::proto_fingerprint(&merged).map_err(|e| format!("run {run}: {e}"))?;
                writeln!(out, "run {run}: proto fingerprint {fp:016x}").map_err(io)?;
            }
        }
        writeln!(out, "cluster: {} run(s) passed on {n} processes", self.runs).map_err(io)
    }
}

/// One parsed `OUTCOME` line printed by a `serve` process.
#[derive(Debug)]
struct ServeOutcome {
    party: usize,
    vertex: String,
    degraded: bool,
    /// Frames this node's replay filter rejected (`NetStats::rejected_replay`).
    replays: u64,
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
        replays: u64::MAX,
    };
    for field in rest.split_whitespace() {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed OUTCOME field `{field}`"))?;
        match k {
            "party" => o.party = parse_num(v, "party")?,
            "vertex" => o.vertex = v.to_string(),
            "degraded" => o.degraded = parse_num(v, "degraded")?,
            "replays" => o.replays = parse_num(v, "replays")?,
            _ => {}
        }
    }
    if o.party == usize::MAX || o.vertex.is_empty() || o.replays == u64::MAX {
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
    /// `--dead-after-ms` override.
    dead_after_ms: Option<u64>,
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
    if let Some(dead_after) = launch.dead_after_ms {
        cmd.args(["--dead-after-ms", &dead_after.to_string()]);
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

    // Chaos needs a dead-peer deadline well below the node's wall cap:
    // a peer that exits just as a reset eats its final Done announcement
    // would otherwise be waited on until the wall timeout. Plain
    // supervision needs one long enough to sit out a capped-backoff
    // restart plus a WAL replay.
    let dead_after_ms = managed.map(|m| if m.chaos.is_some() { 15_000 } else { 20_000 });
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
            dead_after_ms,
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
                        dead_after_ms,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::{execute, parse_args, Command};

    #[test]
    fn parses_cluster_with_gate_flag() {
        assert_eq!(
            parse_args(&argv(
                "cluster --tree path9 --inputs a,b,c,d --runs 5 --gate --secret 77"
            ))
            .unwrap(),
            Command::Cluster(Cluster {
                tree: "path9".into(),
                inputs: "a,b,c,d".into(),
                t: 1,
                seed: 0,
                secret: 77,
                runs: 5,
                gate: true,
                supervise: false,
                chaos: None,
                kill_after_ready: String::new(),
                wal_dir: String::new(),
            })
        );
    }

    #[test]
    fn parses_cluster_supervision_flags() {
        let cmd = parse_args(&argv(
            "cluster --tree path9 --inputs a,b,c,d --supervise --chaos 7 \
             --kill-after-ready 1,3 --wal-dir /tmp/wals",
        ))
        .unwrap();
        let Command::Cluster(Cluster {
            supervise,
            chaos,
            kill_after_ready,
            wal_dir,
            ..
        }) = cmd
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
    fn cluster_refuses_a_wal_dir_no_child_would_write() {
        let dir = std::env::temp_dir().join(format!("treeaa-unused-wals-{}", std::process::id()));
        let cmd = format!(
            "cluster --tree path9 --inputs v0000,v0003,v0006,v0008 --wal-dir {}",
            dir.display()
        );
        let err = execute(parse_args(&argv(&cmd)).unwrap(), &mut Vec::new()).unwrap_err();
        assert!(
            err.contains("--supervise") && err.contains("--chaos"),
            "{err}"
        );
        assert!(!dir.exists(), "a refused run made its WAL dir");
    }

    #[test]
    fn outcome_lines_roundtrip_through_the_parser() {
        let o = parse_outcome_line(
            "OUTCOME party=2 vertex=v0003 degraded=true over_budget=true retx=7 replays=3 \
             vtime=16.000",
        )
        .unwrap();
        assert_eq!(o.party, 2);
        assert_eq!(o.vertex, "v0003");
        assert!(o.degraded);
        assert_eq!(o.replays, 3);
        assert!(parse_outcome_line("READY").is_err());
        assert!(parse_outcome_line("OUTCOME party=1").is_err());
        // A line without the replay count is incomplete.
        assert!(parse_outcome_line("OUTCOME party=1 vertex=v0000 degraded=false").is_err());
    }
}
