//! `treeaa serve`: one party of a real networked deployment — a TCP
//! process speaking the MAC-authenticated wire protocol of the `net`
//! crate.

use std::sync::Arc;

use crate::tools::{build_tree_spec, parse_labels};
use crate::{io, Opts, Subcommand};

/// `serve`: run one party of a real networked deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct Serve {
    /// Tree spec: `<family><size>` (e.g. `path9`) or a tree file.
    pub tree: String,
    /// Comma-separated input vertex labels (one per party).
    pub inputs: String,
    /// This process's party index in `0..n`.
    pub party_id: usize,
    /// Corruption bound.
    pub t: usize,
    /// Seed of the shared content-keyed delay schedule.
    pub seed: u64,
    /// Shared MAC secret (all processes of a deployment must agree).
    pub secret: u64,
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Comma-separated peer addresses, index-aligned with party ids;
    /// empty reads a `PEERS a0,...,an-1` line from stdin after the
    /// `PORT` line is printed.
    pub peers: String,
    /// File for this node's canonical trace JSON (empty disables).
    pub trace_out: String,
    /// Write-ahead log file recording every protocol-relevant state
    /// transition (empty disables durability).
    pub wal: String,
    /// Replay the WAL at `--wal` before going live: the node
    /// re-executes its logged prefix, re-handshakes, and rejoins the
    /// protocol mid-run. A missing or empty WAL falls back to a
    /// fresh start, so a supervisor can pass this unconditionally.
    pub recover: bool,
    /// Override of the reconnect policy's dead-peer deadline, in
    /// milliseconds of continuous disconnection.
    pub dead_after_ms: Option<u64>,
}

impl Subcommand for Serve {
    const FLAGS: &'static [&'static str] = &["recover"];
    const HELP: &'static str = "
  treeaa serve  --tree <familyK|file> --inputs <l1,l2,...> --party-id <I>
                [--t <T>] [--seed <S>] [--secret <K>]
                [--bind <addr:port>] [--peers <a0,a1,...>]
                [--trace-out <file>] [--wal <file>] [--recover]
                [--dead-after-ms <MS>]

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
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Serve {
            tree: o.req("tree")?,
            inputs: o.req("inputs")?,
            party_id: o.req("party-id")?,
            t: o.or("t", 1)?,
            seed: o.or("seed", 0)?,
            secret: o.or("secret", 0)?,
            bind: o.or("bind", "127.0.0.1:0".into())?,
            peers: o.or("peers", String::new())?,
            trace_out: o.or("trace-out", String::new())?,
            wal: o.or("wal", String::new())?,
            recover: o.flag("recover"),
            dead_after_ms: o.opt("dead-after-ms")?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let party_id = self.party_id;
        let case = build_gate_case(&self.tree, &self.inputs, self.t, self.seed)?;
        let n = case.n();
        if party_id >= n {
            return Err(format!("--party-id {party_id} out of range (n = {n})"));
        }
        if self.recover && self.wal.is_empty() {
            return Err("--recover needs a log to replay; pass --wal <file>".into());
        }
        let listener = std::net::TcpListener::bind(&self.bind).map_err(io)?;
        let port = listener.local_addr().map_err(io)?.port();
        writeln!(out, "PORT {port}").map_err(io)?;
        out.flush().map_err(io)?;
        let peer_list = if self.peers.is_empty() {
            let mut line = String::new();
            std::io::stdin().read_line(&mut line).map_err(io)?;
            line.trim()
                .strip_prefix("PEERS ")
                .ok_or_else(|| format!("expected `PEERS a0,...` on stdin, got `{line}`"))?
                .to_string()
        } else {
            self.peers
        };
        let addrs = parse_peer_addrs(&peer_list, n)?;
        let mut cfg = net::node_config(&case, party_id, addrs, self.secret);
        if let Some(dead_after) = self.dead_after_ms {
            cfg.reconnect.dead_after_ms = dead_after;
        }
        let durability = (!self.wal.is_empty()).then(|| net::Durability {
            wal_path: std::path::PathBuf::from(&self.wal),
            recover: self.recover,
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
        if !self.trace_out.is_empty() {
            let json = report.trace.to_trace().to_canonical_string();
            std::fs::write(&self.trace_out, format!("{json}\n")).map_err(io)?;
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
            "OUTCOME party={party_id} vertex={} degraded={} over_budget={} retx={} replays={} \
             vtime={:.3}",
            case.tree.label(*outcome.value()),
            outcome.is_degraded(),
            over_budget,
            report.stats.retransmissions,
            report.stats.rejected_replay,
            report.vtime,
        )
        .map_err(io)?;
        out.flush().map_err(io)
    }
}

/// Builds the fully pinned networked-execution case shared by `serve`
/// processes, the `cluster` launcher, and the in-process reference run.
/// Every process of a deployment derives the same case (and thus the
/// same handshake fingerprint) from the same arguments; the delay floor
/// is the transport default 0.5.
pub(crate) fn build_gate_case(
    tree_spec: &str,
    inputs: &str,
    t: usize,
    seed: u64,
) -> Result<net::GateCase, String> {
    let tree = build_tree_spec(tree_spec)?;
    let case = net::GateCase {
        inputs: parse_labels(&tree, inputs)?,
        tree: Arc::new(tree),
        t,
        seed,
        min_delay: 0.5,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::tests::argv;
    use crate::{execute, parse_args, Command};

    #[test]
    fn parses_serve_with_defaults() {
        assert_eq!(
            parse_args(&argv(
                "serve --tree path9 --inputs a,b,c,d --party-id 2 --seed 9"
            ))
            .unwrap(),
            Command::Serve(Serve {
                tree: "path9".into(),
                inputs: "a,b,c,d".into(),
                party_id: 2,
                t: 1,
                seed: 9,
                secret: 0,
                bind: "127.0.0.1:0".into(),
                peers: String::new(),
                trace_out: String::new(),
                wal: String::new(),
                recover: false,
                dead_after_ms: None,
            })
        );
        let err = parse_args(&argv("serve --tree path9 --inputs a,b")).unwrap_err();
        assert!(err.contains("--party-id"), "{err}");
    }

    #[test]
    fn parses_serve_durability_flags() {
        let cmd = parse_args(&argv(
            "serve --tree path9 --inputs a,b,c,d --party-id 1 --wal /tmp/n1.wal --recover \
             --dead-after-ms 20000",
        ))
        .unwrap();
        let Command::Serve(Serve {
            wal,
            recover,
            dead_after_ms,
            ..
        }) = cmd
        else {
            panic!("not a serve command: {cmd:?}");
        };
        assert_eq!(wal, "/tmp/n1.wal");
        assert!(recover);
        assert_eq!(dead_after_ms, Some(20_000));
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
            Command::Serve(Serve {
                tree: "path9".into(),
                inputs: "v0000,v0003,v0006,v0008".into(),
                party_id: 9,
                t: 1,
                seed: 0,
                secret: 0,
                bind: "127.0.0.1:0".into(),
                peers: "x".into(),
                trace_out: String::new(),
                wal: String::new(),
                recover: false,
                dead_after_ms: None,
            }),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        let err = execute(
            Command::Cluster(Cluster {
                tree: "path9".into(),
                inputs: "v0000,nope".into(),
                t: 1,
                seed: 0,
                secret: 0,
                runs: 1,
                gate: false,
                supervise: false,
                chaos: None,
                kill_after_ready: String::new(),
                wal_dir: String::new(),
            }),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("unknown vertex label"), "{err}");
    }

    #[test]
    fn the_gate_case_keeps_the_transport_delay_floor() {
        let case = build_gate_case("path9", "v0000,v0003,v0006,v0008", 1, 5).unwrap();
        assert_eq!(case.min_delay, 0.5);
        // Every process derives the same fingerprint from the same
        // arguments, and a different seed moves it.
        let again = build_gate_case("path9", "v0000,v0003,v0006,v0008", 1, 5).unwrap();
        assert_eq!(case.config_fp(), again.config_fp());
        let other = build_gate_case("path9", "v0000,v0003,v0006,v0008", 1, 6).unwrap();
        assert_ne!(case.config_fp(), other.config_fp());
    }
}
