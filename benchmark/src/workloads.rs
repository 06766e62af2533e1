//! The six workloads: their shapes, how one run of each is generated,
//! executed, and checked.
//!
//! Load model, all workloads: a closed loop with one driver thread and
//! one run in flight — run *r+1* starts when every honest party of run
//! *r* has an output. The driver adds no threads or connections of its
//! own: a TCP run is the system's n = 4 node threads plus their
//! per-link readers and writers; `sim-treeaa-wide` is the engine's own
//! worker pool. Loopback only, no injected wall-clock delay, so latency
//! is processor time + kernel loopback + the transport's virtual-time
//! pacing.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use async_aa::{AsyncAaMsg, AsyncTreeAaParty};
use async_net::{AsyncProtocol, RelMsg, Reliable};
use net::{
    node_config, run_node_durable, Durability, GateCase, NetStats, NodeConfig, NodeReport,
    WireCodec,
};
use real_aa::{BundledAaMsg, BundledAaParty, RealAaConfig};
use sim_net::{
    run_simulation_with, Adversary, EngineConfig, PartyId, Passive, Protocol, RunReport, SimConfig,
};
use tree_aa::adversary::TreeAaChaos;
use tree_aa::{check_tree_aa, EngineKind, TreeAaConfig, TreeAaParty};
use tree_model::{Tree, VertexId};

use crate::replay::{replay_node, ReplayCost};
use crate::seed;
use crate::stats::cpu_seconds;
use crate::timed::{LayerNames, Recorder, Timed, ASYNC_AA, REAL_AA, RELIABLE, TREE_AA};

/// Parties and corruption bound of the four small-cluster workloads.
const SMALL_N: usize = 4;
const SMALL_T: usize = 1;
/// `RealAA` agreement tolerance and input-diameter promise of the
/// bundled workloads (the values `treeaa bench --bundle` uses).
const EPS: f64 = 0.5;
const DIAMETER: f64 = 8.0;
/// Pendant leaves per spine vertex of every caterpillar tree.
const LEGS: usize = 2;
/// Cluster secret of the TCP deployments (any value; both ends share it).
const SECRET: u64 = 0xbe9c_b09d;
/// Wall-clock cap on one TCP deployment; a run that hits it has failed.
const TCP_WALL_CAP: Duration = Duration::from_secs(30);

/// What a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `Reliable<BundledAaParty>` over loopback TCP with a WAL per node,
    /// `k` instances per deployment.
    TcpBundle {
        /// Bundled AA instances per deployment.
        k: usize,
    },
    /// `Reliable<AsyncTreeAaParty>` over loopback TCP with a WAL per
    /// node, on caterpillar(`spine`, 2) — the `treeaa cluster` path.
    TcpTreeAa {
        /// Spine length of the caterpillar.
        spine: usize,
    },
    /// `BundledAaParty` under the lockstep engine, no adversary.
    SimBundle {
        /// Bundled AA instances per run.
        k: usize,
    },
    /// `TreeAaParty` (batched gradecast engine) under the lockstep
    /// engine, the last `t` parties corrupted by `TreeAaChaos`.
    SimTreeAa {
        /// Parties.
        n: usize,
        /// Corruption bound, and corrupted parties.
        t: usize,
        /// Spine length of the caterpillar.
        spine: usize,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name later issues cite.
    pub name: &'static str,
    /// What runs.
    pub shape: Shape,
    /// Timed runs when no `--seconds` budget is given.
    pub runs: usize,
    /// Untimed warm-up runs per set-up.
    pub warmups: usize,
    /// Why the workload exists (one line; the README has the paragraph).
    pub why: &'static str,
}

/// The benchmark's workloads at full size.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tcp-bundle-wal",
        shape: Shape::TcpBundle { k: 1000 },
        runs: 50,
        warmups: 2,
        why: "headline: k=1000 bundled TCP deployment with WAL; codec, MAC, frame, WAL and gradecast all do byte-proportional work",
    },
    Workload {
        name: "tcp-solo-wal",
        shape: Shape::TcpBundle { k: 1 },
        runs: 400,
        warmups: 10,
        why: "same deployment at k=1: bytes negligible, so link bring-up, paced rounds, null frames and node-loop polls remain",
    },
    Workload {
        name: "tcp-treeaa-wal",
        shape: Shape::TcpTreeAa { spine: 341 },
        runs: 200,
        warmups: 5,
        why: "the treeaa cluster path: hundreds of small frames and WAL records per node, so per-frame and per-append costs show; only async-aa user",
    },
    Workload {
        name: "sim-bundle",
        shape: Shape::SimBundle { k: 10_000 },
        runs: 60,
        warmups: 2,
        why: "k=10^4 in-process: pure gradecast/real-aa/aa-kernels arithmetic plus sim-net dispatch, no sockets and no WAL",
    },
    Workload {
        name: "sim-treeaa-bigtree",
        shape: Shape::SimTreeAa { n: 31, t: 10, spine: 21_845 },
        runs: 80,
        warmups: 2,
        why: "|V|=65535 under Byzantine traffic: tree-model geometry (n x list_construction, projection at the phase boundary) dominates",
    },
    Workload {
        name: "sim-treeaa-wide",
        shape: Shape::SimTreeAa { n: 256, t: 85, spine: 341 },
        runs: 24,
        warmups: 1,
        why: "n=256 on a small tree: sim-net stepping (parallel path at the threshold) and O(n^2) gradecast tallies dominate, geometry does little",
    },
];

impl Workload {
    /// The workload named `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at toy size, for the smoke test: k = 8,
    /// |V| = 63, n as specified except `sim-treeaa-wide` at n = 16,
    /// two runs.
    #[must_use]
    pub fn toy(self) -> Workload {
        const TOY_K: usize = 8;
        const TOY_SPINE: usize = 21;
        let shape = match self.shape {
            Shape::TcpBundle { k } => Shape::TcpBundle { k: k.min(TOY_K) },
            Shape::SimBundle { k } => Shape::SimBundle { k: k.min(TOY_K) },
            Shape::TcpTreeAa { .. } => Shape::TcpTreeAa { spine: TOY_SPINE },
            Shape::SimTreeAa { n, .. } if n > 31 => Shape::SimTreeAa {
                n: 16,
                t: 5,
                spine: TOY_SPINE,
            },
            Shape::SimTreeAa { n, t, .. } => Shape::SimTreeAa {
                n,
                t,
                spine: TOY_SPINE,
            },
        };
        Workload {
            shape,
            runs: 2,
            warmups: 1,
            ..self
        }
    }

    /// Whether runs go over TCP (and so have transport layers to trace).
    #[must_use]
    pub fn is_tcp(&self) -> bool {
        matches!(
            self.shape,
            Shape::TcpBundle { .. } | Shape::TcpTreeAa { .. }
        )
    }

    /// AA instances one run decides.
    #[must_use]
    pub fn agreements_per_run(&self) -> u64 {
        match self.shape {
            Shape::TcpBundle { k } | Shape::SimBundle { k } => k as u64,
            Shape::TcpTreeAa { .. } | Shape::SimTreeAa { .. } => 1,
        }
    }
}

/// How a run is instrumented.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// As a user runs it. End-to-end metrics come from these runs only.
    Plain,
    /// TCP without the WAL (the denominator of the WAL on/off ratio).
    NoWal,
    /// Every party wrapped in [`Timed`].
    Traced {
        /// Where the spans go.
        rec: &'a Arc<Recorder>,
        /// On TCP, also replay the run's WALs through the transport
        /// layers.
        replay: bool,
    },
}

impl<'a> Mode<'a> {
    fn recorder(self) -> Option<&'a Arc<Recorder>> {
        match self {
            Mode::Traced { rec, .. } => Some(rec),
            Mode::Plain | Mode::NoWal => None,
        }
    }
}

/// Transport counters of one TCP run, summed over its nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetTotals {
    /// Nodes in the deployment (Σ over runs once totals are added up).
    pub nodes: u64,
    /// Σ `NetStats::frames_sent` (Data, Done, Hello).
    pub frames_sent: u64,
    /// Σ `NetStats::nulls_sent`.
    pub nulls_sent: u64,
    /// Σ `NetStats::bytes_sent`.
    pub bytes_sent: u64,
    /// Σ `NetStats::bytes_received`.
    pub bytes_received: u64,
    /// Σ of the three reject counters.
    pub rejects: u64,
    /// Σ `NetStats::reconnects`.
    pub reconnects: u64,
    /// Σ `NetStats::send_drops`.
    pub send_drops: u64,
    /// Σ `NetStats::retransmissions`.
    pub retransmissions: u64,
}

impl std::ops::AddAssign for NetTotals {
    fn add_assign(&mut self, o: NetTotals) {
        self.nodes += o.nodes;
        self.frames_sent += o.frames_sent;
        self.nulls_sent += o.nulls_sent;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.rejects += o.rejects;
        self.reconnects += o.reconnects;
        self.send_drops += o.send_drops;
        self.retransmissions += o.retransmissions;
    }
}

impl NetTotals {
    fn of(stats: &[NetStats]) -> NetTotals {
        let sum = |f: fn(&NetStats) -> u64| stats.iter().map(f).sum();
        NetTotals {
            nodes: stats.len() as u64,
            frames_sent: sum(|s| s.frames_sent),
            nulls_sent: sum(|s| s.nulls_sent),
            bytes_sent: sum(|s| s.bytes_sent),
            bytes_received: sum(|s| s.bytes_received),
            rejects: sum(|s| s.rejected_mac + s.rejected_replay + s.rejected_malformed),
            reconnects: sum(|s| s.reconnects),
            send_drops: sum(|s| s.send_drops),
            retransmissions: sum(|s| s.retransmissions),
        }
    }
}

/// What one checked run measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSample {
    /// Wall seconds from the first party/node construction until every
    /// honest party has an output (TCP: until every node has returned).
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the same
    /// interval.
    pub cpu_s: f64,
    /// sim: `RunReport::communication_rounds()`; TCP: ⌈max node vtime⌉.
    pub rounds: f64,
    /// sim: `Metrics::total_bytes()`; TCP: Σ `NetStats::bytes_sent`.
    pub bytes: u64,
    /// sim: `Metrics::total_messages()`; TCP: frames + nulls sent.
    pub messages: u64,
    /// TCP runs only.
    pub net: Option<NetTotals>,
    /// Traced TCP runs only: the WAL replay, summed over nodes.
    pub replay: Option<ReplayCost>,
}

/// A workload set up and ready to run.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub spec: Workload,
    seed: u64,
    /// The tree workloads' public tree and its vertices in index order.
    tree: Option<(Arc<Tree>, Vec<VertexId>)>,
    /// This process's temp root: every WAL directory lives under it.
    tmp: PathBuf,
    failures: AtomicU64,
}

/// Distinguishes the temp roots of several [`Bench`]es in one process
/// (the smoke test runs them on parallel threads).
static BENCH_SERIAL: AtomicU64 = AtomicU64::new(0);

/// The directory traces, failed runs and temp roots go under.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

impl Bench {
    /// Generates the workload's public tree and creates its temp root.
    /// Warm-up runs are the caller's (they are timed as part of set-up).
    ///
    /// # Errors
    ///
    /// If the temp root cannot be created.
    pub fn new(spec: Workload, seed: u64) -> Result<Bench, String> {
        let tree = match spec.shape {
            Shape::TcpTreeAa { spine } | Shape::SimTreeAa { spine, .. } => {
                let tree = Arc::new(tree_model::generate::caterpillar(spine, LEGS));
                let verts = tree.vertices().collect();
                Some((tree, verts))
            }
            Shape::TcpBundle { .. } | Shape::SimBundle { .. } => None,
        };
        let serial = BENCH_SERIAL.fetch_add(1, Ordering::Relaxed);
        let tmp = out_dir().join(format!("tmp-{}-{serial}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
        Ok(Bench {
            spec,
            seed,
            tree,
            tmp,
            failures: AtomicU64::new(0),
        })
    }

    /// The workload's tree, if it has one.
    #[must_use]
    pub fn tree(&self) -> Option<&Arc<Tree>> {
        self.tree.as_ref().map(|(t, _)| t)
    }

    /// Honest input vertices of run `run` (tree workloads).
    #[must_use]
    pub fn tree_inputs(&self, run: u64, parties: usize) -> Vec<VertexId> {
        let (_, verts) = self.tree.as_ref().expect("a tree workload");
        (0..parties as u64)
            .map(|p| verts[seed::index(self.seed, run, p, 0, verts.len())])
            .collect()
    }

    /// The schedule bound `rounds_to_decision` is checked against and
    /// normalised by: the protocol's fixed round count, and the paper's
    /// `log₂X / log₂log₂X` with X = |V| (`TreeAA`) or D/ε (`RealAA`).
    #[must_use]
    pub fn round_bounds(&self) -> (u32, f64) {
        let paper = |x: f64| x.log2() / x.log2().log2();
        match self.spec.shape {
            Shape::TcpBundle { .. } | Shape::SimBundle { .. } => {
                (bundle_cfg().rounds(), paper(DIAMETER / EPS))
            }
            Shape::SimTreeAa { n, t, .. } => {
                let tree = self.tree().expect("a tree workload");
                let cfg = TreeAaConfig::new(n, t, EngineKind::GradecastBatched, tree)
                    .expect("shapes satisfy n > 3t");
                (cfg.total_rounds(), paper(tree.vertex_count() as f64))
            }
            Shape::TcpTreeAa { .. } => {
                let tree = self.tree().expect("a tree workload");
                // The async protocol has no lockstep schedule; its
                // iteration count stands in (each costs a few async
                // time units).
                let iters = async_aa::AsyncTreeAaConfig::new(SMALL_N, SMALL_T, tree)
                    .expect("4 > 3")
                    .iterations;
                (iters, paper(tree.vertex_count() as f64))
            }
        }
    }

    /// Generates run `run`'s inputs, executes it, and checks its outputs.
    ///
    /// # Errors
    ///
    /// A run that errored, timed out, ended degraded, or failed its
    /// output check. Its WALs and a description are kept under
    /// `out/failed/`.
    pub fn run_once(&self, run: u64, mode: Mode<'_>) -> Result<RunSample, String> {
        let wal_dir = self.tmp.join(format!("run-{run}"));
        let result = match self.spec.shape {
            Shape::SimBundle { k } => self.sim_bundle(run, k, mode),
            Shape::SimTreeAa { n, t, .. } => self.sim_tree_aa(run, n, t, mode),
            Shape::TcpBundle { k } => self.tcp_bundle(run, k, mode, &wal_dir),
            Shape::TcpTreeAa { .. } => self.tcp_tree_aa(run, mode, &wal_dir),
        };
        match &result {
            Ok(_) => {
                if wal_dir.exists() {
                    std::fs::remove_dir_all(&wal_dir)
                        .map_err(|e| io_err("remove", &wal_dir, &e))?;
                }
            }
            Err(why) => self.keep_failure(run, why, &wal_dir),
        }
        result
    }

    /// Moves a failed run's WAL directory under `out/failed/` with a
    /// description of the failure. Best effort: the failure itself is
    /// already reported through `run_once`'s error.
    fn keep_failure(&self, run: u64, why: &str, wal_dir: &Path) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let failed_dir = out_dir().join("failed");
        let dest = failed_dir.join(format!("{}-seed{}-run{run}", self.spec.name, self.seed));
        let _ = std::fs::remove_dir_all(&dest);
        let kept = std::fs::create_dir_all(&failed_dir).and_then(|()| {
            if wal_dir.exists() {
                std::fs::rename(wal_dir, &dest)
            } else {
                std::fs::create_dir_all(&dest)
            }
        });
        if kept.is_ok() {
            let _ = std::fs::write(
                dest.join("failure.txt"),
                format!(
                    "workload {}\nshape {:?}\nseed {}\nrun {run}\n{why}\n",
                    self.spec.name, self.spec.shape, self.seed
                ),
            );
        }
    }

    fn sim_bundle(&self, run: u64, k: usize, mode: Mode<'_>) -> Result<RunSample, String> {
        let cfg = bundle_cfg();
        let inputs = self.bundle_inputs(run, k);
        let sim = SimConfig {
            n: cfg.n,
            t: cfg.t,
            max_rounds: cfg.rounds() + 8,
        };
        let build =
            |id: PartyId| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).expect("k >= 1");
        let (sample, report) = match mode.recorder() {
            None => measure_sim(sim, run, None, &build, Passive),
            Some(rec) => measure_sim(
                sim,
                run,
                Some(rec),
                |id| Timed::new(rec, &REAL_AA, id.index(), || build(id)),
                Passive,
            ),
        }?;
        check_bundle(&inputs, &report.honest_outputs(), cfg.eps)?;
        check_rounds(report.rounds_executed, cfg.rounds())?;
        Ok(sample)
    }

    fn sim_tree_aa(
        &self,
        run: u64,
        n: usize,
        t: usize,
        mode: Mode<'_>,
    ) -> Result<RunSample, String> {
        let (tree, _) = self.tree.as_ref().expect("a tree workload");
        let cfg = TreeAaConfig::new(n, t, EngineKind::GradecastBatched, tree)?;
        let inputs = self.tree_inputs(run, n);
        let byz: Vec<PartyId> = (n - t..n).map(PartyId).collect();
        let chaos = TreeAaChaos::new(
            byz,
            seed::derive(self.seed, run, u64::MAX, 0),
            cfg.list_len as f64,
        );
        let sim = SimConfig {
            n,
            t,
            max_rounds: cfg.total_rounds() + 8,
        };
        let build =
            |id: PartyId| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]);
        let (sample, report) = match mode.recorder() {
            None => measure_sim(sim, run, None, &build, chaos),
            Some(rec) => measure_sim(
                sim,
                run,
                Some(rec),
                |id| Timed::new(rec, &TREE_AA, id.index(), || build(id)),
                chaos,
            ),
        }?;
        let honest = n - t;
        if report
            .corrupted
            .iter()
            .enumerate()
            .any(|(i, &c)| c != (i >= honest))
        {
            return Err("the corrupted set is not the last t parties".into());
        }
        check_tree(tree, &inputs[..honest], report.honest_outputs())?;
        check_rounds(report.rounds_executed, cfg.total_rounds())?;
        Ok(sample)
    }

    fn tcp_bundle(
        &self,
        run: u64,
        k: usize,
        mode: Mode<'_>,
        wal_dir: &Path,
    ) -> Result<RunSample, String> {
        let cfg = bundle_cfg();
        let n = cfg.n;
        let inputs = self.bundle_inputs(run, k);
        // The in-process reference the networked outputs must equal bit
        // for bit.
        let reference = run_simulation_with(
            EngineConfig::from(SimConfig {
                n,
                t: cfg.t,
                max_rounds: cfg.rounds() + 8,
            }),
            |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).expect("k >= 1"),
            Passive,
        )
        .map_err(|e| format!("reference run: {e}"))?
        .honest_outputs();

        let delay_seed = seed::derive(self.seed, run, u64::MAX, 1);
        let node_cfg = |me: usize, peers: Vec<SocketAddr>| {
            let mut c = NodeConfig::new(me, n, cfg.t, peers, SECRET, k as u64, delay_seed);
            c.label = "bench-bundle".into();
            c.wall_timeout = TCP_WALL_CAP;
            c
        };
        let (sample, reports) = deploy::<BundledAaParty, BundledAaMsg>(
            n,
            run,
            mode,
            wal_dir,
            &REAL_AA,
            node_cfg,
            |me| BundledAaParty::new(PartyId(me), cfg, inputs[me].clone()).expect("k >= 1"),
        )?;
        let outputs = node_outputs(&reports)?;
        check_bundle(&inputs, &outputs, cfg.eps)?;
        let same_bits = |a: &Vec<f64>, b: &Vec<f64>| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if outputs.len() != reference.len()
            || !outputs.iter().zip(&reference).all(|(a, b)| same_bits(a, b))
        {
            return Err("networked outputs differ from the in-process reference".into());
        }
        Ok(sample)
    }

    fn tcp_tree_aa(&self, run: u64, mode: Mode<'_>, wal_dir: &Path) -> Result<RunSample, String> {
        let (tree, _) = self.tree.as_ref().expect("a tree workload");
        let case = GateCase {
            tree: Arc::clone(tree),
            inputs: self.tree_inputs(run, SMALL_N),
            t: SMALL_T,
            seed: seed::derive(self.seed, run, u64::MAX, 1),
            min_delay: 0.5,
            label: format!("bench-treeaa-{run}"),
        };
        let proto = case.protocol_config()?;
        let reference = case.reference_run()?.outcomes;

        let (sample, reports) = deploy::<AsyncTreeAaParty, AsyncAaMsg>(
            case.n(),
            run,
            mode,
            wal_dir,
            &ASYNC_AA,
            |me, peers| {
                let mut c = node_config(&case, me, peers, SECRET);
                c.wall_timeout = TCP_WALL_CAP;
                c
            },
            |me| AsyncTreeAaParty::new(proto.clone(), Arc::clone(tree), case.inputs[me]),
        )?;
        let outcomes = node_outputs(&reports)?;
        if outcomes.iter().any(sim_net::Outcome::is_degraded) {
            return Err("a node ended degraded".into());
        }
        if outcomes != reference {
            return Err("networked outcomes differ from GateCase::reference_run".into());
        }
        let values = outcomes.iter().map(|o| *o.value()).collect();
        check_tree(tree, &case.inputs, values)?;
        Ok(sample)
    }

    /// `inputs[party][instance]` in `[0, D)`.
    fn bundle_inputs(&self, run: u64, k: usize) -> Vec<Vec<f64>> {
        (0..SMALL_N as u64)
            .map(|p| {
                (0..k as u64)
                    .map(|j| seed::unit(self.seed, run, p, j) * DIAMETER)
                    .collect()
            })
            .collect()
    }
}

impl Drop for Bench {
    /// Removes the temp root, unless a run failed (its logs were moved
    /// out already; anything left may help explain it).
    fn drop(&mut self) {
        if self.failures.load(Ordering::Relaxed) == 0 {
            let _ = std::fs::remove_dir_all(&self.tmp);
        }
    }
}

fn bundle_cfg() -> RealAaConfig {
    RealAaConfig::new(SMALL_N, SMALL_T, EPS, DIAMETER).expect("4 > 3, eps and D are valid")
}

/// Wall and CPU seconds of `f`.
fn measure<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let cpu0 = cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    let r = f();
    let wall = start.elapsed().as_secs_f64();
    (wall, cpu_seconds().unwrap_or(0.0) - cpu0, r)
}

/// One lockstep run, party construction included in the timed interval
/// (`run_simulation` builds the parties itself).
fn measure_sim<P, A>(
    sim: SimConfig,
    run: u64,
    rec: Option<&Arc<Recorder>>,
    mut build: impl FnMut(PartyId) -> P,
    adversary: A,
) -> Result<(RunSample, RunReport<P::Output>), String>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
{
    let go = || run_simulation_with(EngineConfig::from(sim), |id, _| build(id), adversary);
    let (wall_s, cpu_s, report) = measure(|| match rec {
        Some(rec) => rec.run(run as u32, go),
        None => go(),
    });
    let report = report.map_err(|e| format!("simulation: {e}"))?;
    let sample = RunSample {
        wall_s,
        cpu_s,
        rounds: f64::from(report.communication_rounds()),
        bytes: report.metrics.total_bytes() as u64,
        messages: report.metrics.total_messages() as u64,
        net: None,
        replay: None,
    };
    Ok((sample, report))
}

/// One loopback deployment of `Reliable<P>`: n listeners bound on
/// ephemeral ports before any node starts, one node thread each, a WAL
/// per node unless `mode` is [`Mode::NoWal`]. The timed interval runs
/// from before the first party is constructed until every node thread
/// has returned. In traced mode the parties are
/// `Timed<Reliable<Timed<P>>>` and the WALs are replayed afterwards.
fn deploy<P, M>(
    n: usize,
    run: u64,
    mode: Mode<'_>,
    wal_dir: &Path,
    names: &'static LayerNames,
    node_cfg: impl Fn(usize, Vec<SocketAddr>) -> NodeConfig,
    build: impl Fn(usize) -> P,
) -> Result<Deployed<P::Output>, String>
where
    P: AsyncProtocol<Msg = M> + Send,
    P::Output: Send,
    M: WireCodec + Send,
{
    let wal = !matches!(mode, Mode::NoWal);
    if wal {
        std::fs::create_dir_all(wal_dir).map_err(|e| io_err("create", wal_dir, &e))?;
    }
    let wal_path = |me: usize| wal_dir.join(format!("node{me}.wal"));
    let go = || -> Result<Vec<NodeReport<P::Output>>, String> {
        let listeners = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bind: {e}"))?;
        let peers = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("local_addr: {e}"))?;
        let nodes = listeners.into_iter().enumerate().map(|(me, listener)| {
            let durability = wal.then(|| Durability {
                wal_path: wal_path(me),
                recover: false,
            });
            (node_cfg(me, peers.clone()), listener, durability)
        });
        match mode.recorder() {
            None => run_nodes(
                nodes
                    .map(|node| {
                        let party = Reliable::new(build(node.0.me), n);
                        (node, party)
                    })
                    .collect(),
                Reliable::state_fingerprint,
                None,
            ),
            Some(rec) => run_nodes(
                nodes
                    .map(|node| {
                        let me = node.0.me;
                        let party = Timed::new(rec, &RELIABLE, me, || {
                            Reliable::new(Timed::new(rec, names, me, || build(me)), n)
                        });
                        (node, party)
                    })
                    .collect(),
                |p| p.inner().state_fingerprint(),
                Some(rec),
            ),
        }
    };
    let (wall_s, cpu_s, reports) = measure(|| match mode.recorder() {
        Some(rec) => rec.run(run as u32, go),
        None => go(),
    });
    let reports = reports?;

    let stats: Vec<NetStats> = reports.iter().map(|r| r.stats).collect();
    let totals = NetTotals::of(&stats);
    if totals.rejects != 0 {
        return Err(format!(
            "{} frames rejected on a clean loopback",
            totals.rejects
        ));
    }
    let replay = match mode {
        Mode::Traced { replay: true, .. } => {
            let mut sum = ReplayCost::default();
            for (me, s) in stats.iter().enumerate() {
                sum += replay_node::<RelMsg<M>>(
                    &wal_path(me),
                    &wal_dir.join(format!("node{me}.replay")),
                    me,
                    SECRET,
                    s.nulls_sent,
                )?;
            }
            Some(sum)
        }
        Mode::Traced { replay: false, .. } | Mode::Plain | Mode::NoWal => None,
    };
    let sample = RunSample {
        wall_s,
        cpu_s,
        rounds: reports.iter().map(|r| r.vtime).fold(0.0, f64::max).ceil(),
        bytes: totals.bytes_sent,
        messages: totals.frames_sent + totals.nulls_sent,
        net: Some(totals),
        replay,
    };
    Ok((sample, reports))
}

type Node = (NodeConfig, TcpListener, Option<Durability>);
/// A deployment's sample and every node's report.
type Deployed<O> = (RunSample, Vec<NodeReport<O>>);

/// Runs every node on its own thread and joins them all.
fn run_nodes<Q>(
    nodes: Vec<(Node, Q)>,
    probe: impl Fn(&Q) -> u64 + Sync,
    rec: Option<&Arc<Recorder>>,
) -> Result<Vec<NodeReport<Q::Output>>, String>
where
    Q: AsyncProtocol + Send,
    Q::Msg: WireCodec,
    Q::Output: Send,
{
    let probe = &probe;
    std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|((cfg, listener, durability), party)| {
                s.spawn(move || {
                    let me = cfg.me as u32;
                    let durability = durability.as_ref();
                    match rec {
                        None => run_node_durable(&cfg, listener, party, durability, probe, || {}),
                        Some(rec) => rec.scope("net.node", me, 0, || {
                            let entered = rec.now_ns();
                            run_node_durable(&cfg, listener, party, durability, probe, || {
                                rec.close("net.node.bringup", me, entered);
                            })
                        }),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(me, h)| {
                h.join()
                    .map_err(|_| format!("node {me} panicked"))?
                    .map_err(|e| format!("node {me}: {e}"))
            })
            .collect()
    })
}

fn node_outputs<O: Clone>(reports: &[NodeReport<O>]) -> Result<Vec<O>, String> {
    reports
        .iter()
        .enumerate()
        .map(|(me, r)| {
            r.output
                .clone()
                .ok_or(format!("node {me} terminated without an output"))
        })
        .collect()
}

/// Bundled `RealAA`: every instance's outputs lie in the hull of its
/// honest inputs and are ε-close. `inputs` and `outputs` are
/// `[party][instance]`, all parties honest.
fn check_bundle(inputs: &[Vec<f64>], outputs: &[Vec<f64>], eps: f64) -> Result<(), String> {
    if outputs.len() != inputs.len() {
        return Err(format!(
            "{} parties decided, {} expected",
            outputs.len(),
            inputs.len()
        ));
    }
    let k = inputs[0].len();
    if outputs.iter().any(|o| o.len() != k) {
        return Err("a party decided the wrong number of instances".into());
    }
    let span = |vals: &[Vec<f64>], j: usize| {
        vals.iter()
            .map(|v| v[j])
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(x), hi.max(x))
            })
    };
    for j in 0..k {
        let (in_lo, in_hi) = span(inputs, j);
        let (out_lo, out_hi) = span(outputs, j);
        if !(in_lo <= out_lo && out_hi <= in_hi) {
            return Err(format!(
                "instance {j}: outputs [{out_lo}, {out_hi}] leave the input hull [{in_lo}, {in_hi}]"
            ));
        }
        if out_hi - out_lo > eps {
            return Err(format!(
                "instance {j}: outputs {} apart, eps = {eps}",
                out_hi - out_lo
            ));
        }
    }
    Ok(())
}

/// `TreeAA`: hull validity and 1-agreement of the honest outputs. Equal
/// outputs are checked once (the pairwise distance check is quadratic).
fn check_tree(
    tree: &Tree,
    honest_inputs: &[VertexId],
    mut outputs: Vec<VertexId>,
) -> Result<(), String> {
    if outputs.len() != honest_inputs.len() {
        return Err(format!(
            "{} honest outputs, {} expected",
            outputs.len(),
            honest_inputs.len()
        ));
    }
    outputs.sort_unstable();
    outputs.dedup();
    check_tree_aa(tree, honest_inputs, &outputs).map_err(|v| v.to_string())
}

/// The run must finish within the protocol's fixed schedule (the engine
/// needs one extra round to observe the last outputs).
fn check_rounds(executed: u32, schedule: u32) -> Result<(), String> {
    if executed > schedule + 1 {
        return Err(format!(
            "{executed} rounds executed, the schedule allows {}",
            schedule + 1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_check_rejects_hull_escapes_and_wide_outputs() {
        let inputs = vec![vec![1.0], vec![3.0]];
        assert!(check_bundle(&inputs, &[vec![2.0], vec![2.25]], 0.5).is_ok());
        assert!(check_bundle(&inputs, &[vec![0.5], vec![0.75]], 0.5).is_err());
        assert!(check_bundle(&inputs, &[vec![1.0], vec![3.0]], 0.5).is_err());
        assert!(check_bundle(&inputs, &[vec![2.0]], 0.5).is_err());
    }

    #[test]
    fn tree_check_rejects_far_apart_outputs() {
        let tree = tree_model::generate::path(5);
        let v: Vec<VertexId> = tree.vertices().collect();
        assert!(check_tree(&tree, &[v[0], v[4]], vec![v[2], v[3]]).is_ok());
        assert!(check_tree(&tree, &[v[0], v[4]], vec![v[1], v[3]]).is_err());
        assert!(check_tree(&tree, &[v[1], v[2]], vec![v[3], v[3]]).is_err());
    }

    #[test]
    fn toy_shapes_keep_the_party_counts() {
        let toy = |name: &str| Workload::named(name).unwrap().toy().shape;
        assert_eq!(toy("tcp-bundle-wal"), Shape::TcpBundle { k: 8 });
        assert_eq!(toy("tcp-solo-wal"), Shape::TcpBundle { k: 1 });
        assert_eq!(
            toy("sim-treeaa-bigtree"),
            Shape::SimTreeAa {
                n: 31,
                t: 10,
                spine: 21
            }
        );
        assert_eq!(
            toy("sim-treeaa-wide"),
            Shape::SimTreeAa {
                n: 16,
                t: 5,
                spine: 21
            }
        );
    }
}
