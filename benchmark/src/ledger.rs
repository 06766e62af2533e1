//! Folds the spans and counters of traced runs into the per-layer
//! metrics.
//!
//! Every per-run figure is the mean over the traced runs, so the parts
//! of a run add up to the mean traced run wall exactly:
//!
//! * sim: `wall = Σ party construction + Σ step ÷ workers + engine self`;
//! * TCP: `wall = Σ party construction + bring-up + Reliable self +
//!   inner handlers + codec + MAC + frame + WAL append + unattributed`,
//!   where everything after the constructions (which run one after
//!   another on the driver thread) is per node — Σ over the nodes ÷ n —
//!   and the four transport parts come from the WAL replay.

use crate::metrics::Values;
use crate::replay::ReplayCost;
use crate::timed::{totals_by_name, LayerNames, NameTotal, Span, RELIABLE};
use crate::workloads::{NetTotals, RunSample};

/// Sums over the traced runs of one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Traced runs folded in.
    pub runs: u64,
    /// Of those, runs whose WALs were replayed.
    pub replayed: u64,
    wall_ns: f64,
    /// Inner-party construction (driver thread, sequential).
    new_ns: f64,
    /// Inner-party `step`s or handlers, Σ over parties.
    call_ns: f64,
    calls: f64,
    /// The most expensive lockstep round (Σ its steps ÷ workers).
    slowest_round_ns: f64,
    /// `Reliable`'s own time: its spans minus the inner party's.
    reliable_self_ns: f64,
    reliable_calls: f64,
    bringup_ns: f64,
    messages: f64,
    bytes: f64,
    net: NetTotals,
    replay: ReplayCost,
}

fn get(totals: &std::collections::BTreeMap<&'static str, NameTotal>, name: &str) -> NameTotal {
    totals.get(name).copied().unwrap_or_default()
}

impl Ledger {
    /// Adds one traced run: its spans, its sample, the layer its inner
    /// parties belong to, and the engine's worker count (1 when parties
    /// are stepped one after another, and on TCP).
    pub fn add_run(
        &mut self,
        spans: &[Span],
        sample: &RunSample,
        inner: &LayerNames,
        workers: usize,
    ) {
        let totals = totals_by_name(spans);
        let handlers = |names: &LayerNames| {
            [names.step, names.on_start, names.on_message, names.on_timer].map(|n| get(&totals, n))
        };
        self.runs += 1;
        self.wall_ns += sample.wall_s * 1e9;
        self.new_ns += get(&totals, inner.new).total_ns as f64;
        for t in handlers(inner) {
            self.call_ns += t.total_ns as f64;
            self.calls += t.count as f64;
        }
        self.reliable_self_ns += get(&totals, RELIABLE.new).self_ns as f64;
        for t in handlers(&RELIABLE) {
            self.reliable_self_ns += t.self_ns as f64;
            self.reliable_calls += t.count as f64;
        }
        self.bringup_ns += get(&totals, "net.node.bringup").total_ns as f64;

        let mut per_round = std::collections::BTreeMap::<u32, u64>::new();
        for s in spans.iter().filter(|s| s.name == inner.step) {
            *per_round.entry(s.round).or_default() += s.dur_ns();
        }
        self.slowest_round_ns +=
            per_round.values().copied().max().unwrap_or(0) as f64 / workers as f64;

        self.messages += sample.messages as f64;
        self.bytes += sample.bytes as f64;
        if let Some(net) = sample.net {
            self.net += net;
        }
        if let Some(replay) = sample.replay {
            self.replayed += 1;
            self.replay += replay;
        }
    }

    /// Mean traced run wall in milliseconds.
    #[must_use]
    pub fn mean_wall_ms(&self) -> f64 {
        self.wall_ns / self.runs.max(1) as f64 / 1e6
    }

    /// Emits the lockstep-engine metrics. `layer` is `real-aa` or
    /// `tree-aa`.
    pub fn emit_sim(&self, out: &mut Values, layer: SimLayer, workers: usize) {
        let runs = self.runs.max(1) as f64;
        let ms = |ns: f64| ns / runs / 1e6;
        let wall = ms(self.wall_ns);
        let new = ms(self.new_ns);
        let step = ms(self.call_ns);
        let engine = (wall - new - step / workers as f64).max(0.0);
        match layer {
            SimLayer::RealAa => {
                out.set("real-aa.party_new_ms", new);
                out.set("real-aa.step_ms", step);
                out.set("real-aa.step_share", step / workers as f64 / wall);
            }
            SimLayer::TreeAa => {
                out.set("tree-aa.party_new_ms", new);
                out.set("tree-aa.step_ms", step);
                out.set("tree-aa.slowest_round_ms", ms(self.slowest_round_ns));
                out.set("tree-aa.new_share", new / wall);
            }
        }
        out.set("sim-net.engine_self_ms", engine);
        out.set("sim-net.engine_self_share", engine / wall);
        out.set(
            "sim-net.ns_per_delivery",
            engine * 1e6 / (self.messages / runs),
        );
        out.set("sim-net.messages_per_run", self.messages / runs);
        out.set("sim-net.bytes_per_run", self.bytes / runs);
        out.set("sim-net.step_parallelism", step / (wall - new));
    }

    /// Emits the TCP metrics. `layer` is the inner party's.
    pub fn emit_tcp(&self, out: &mut Values, layer: TcpLayer) {
        let runs = self.runs.max(1) as f64;
        let nodes = self.net.nodes.max(1) as f64 / runs;
        let replayed = self.replayed.max(1) as f64;
        // Per run, on the driver thread.
        let ms = |ns: f64| ns / runs / 1e6;
        // Per run and node.
        let node_ms = |ns: f64| ns / runs / nodes / 1e6;
        // Per replayed run and node.
        let replay_ms = |ns: u64| ns as f64 / replayed / nodes / 1e6;
        let per_node = |count: u64| count as f64 / runs / nodes;

        let wall = ms(self.wall_ns);
        let new = ms(self.new_ns);
        let inner = node_ms(self.call_ns);
        let reliable = node_ms(self.reliable_self_ns);
        let bringup = node_ms(self.bringup_ns);
        let r = &self.replay;
        let codec = replay_ms(r.encode_ns + r.decode_ns);
        let mac = replay_ms(r.mac_ns);
        let frame = replay_ms(r.frame_ns);
        let wal = replay_ms(r.wal_append_ns);
        let unattributed = wall - new - inner - reliable - bringup - codec - mac - frame - wal;

        match layer {
            TcpLayer::RealAa => {
                out.set("real-aa.party_new_ms", new);
                out.set("real-aa.step_ms", inner);
                out.set("real-aa.step_share", inner / wall);
            }
            TcpLayer::AsyncAa => {
                out.set("async-aa.party_new_ms", new);
                out.set("async-aa.handler_ms", inner);
                out.set("async-aa.handler_calls", self.calls / runs / nodes);
            }
        }
        out.set("async-net.reliable_self_ms", reliable);
        out.set(
            "async-net.handler_calls",
            self.reliable_calls / runs / nodes,
        );
        out.set(
            "async-net.retransmissions",
            per_node(self.net.retransmissions),
        );

        let per_byte = |ns: u64, bytes: u64| ns as f64 / bytes.max(1) as f64;
        out.set(
            "net.codec.encode_ns_per_byte",
            per_byte(r.encode_ns, r.body_bytes),
        );
        out.set(
            "net.codec.decode_ns_per_byte",
            per_byte(r.decode_ns, r.body_bytes),
        );
        out.set("net.codec.busy_ms_per_run", codec);
        out.set("net.mac.ns_per_byte", per_byte(r.mac_ns, r.mac_bytes));
        out.set("net.mac.busy_ms_per_run", mac);
        out.set("net.frame.busy_ms_per_run", frame);
        let frames = self.net.frames_sent + self.net.nulls_sent;
        out.set("net.frame.frames_per_run", per_node(frames));
        out.set("net.frame.bytes_per_run", per_node(self.net.bytes_sent));
        out.set("net.frame.nulls_per_run", per_node(self.net.nulls_sent));
        out.set(
            "net.frame.null_ratio",
            self.net.nulls_sent as f64 / frames.max(1) as f64,
        );

        out.set(
            "net.wal.append_us_per_record",
            r.wal_append_ns as f64 / r.wal_records.max(1) as f64 / 1e3,
        );
        out.set("net.wal.append_ms_per_run", wal);
        out.set(
            "net.wal.records_per_run",
            r.wal_records as f64 / replayed / nodes,
        );
        out.set(
            "net.wal.bytes_per_run",
            r.wal_bytes as f64 / replayed / nodes,
        );
        // Payload bytes received per replayed run: the counters cover all
        // traced runs, the logs only the replayed ones.
        let received = self.net.bytes_received as f64 / runs * replayed;
        out.set(
            "net.wal.amplification",
            r.wal_bytes as f64 / received.max(1.0),
        );
        out.set("net.wal.scan_ms_per_run", replay_ms(r.wal_scan_ns));

        out.set("net.node.bringup_ms", bringup);
        out.set("net.node.unattributed_ms", unattributed);
        out.set("net.node.unattributed_share", unattributed / wall);
        out.set("net.node.rejects", self.net.rejects as f64);
        out.set("net.node.reconnects", self.net.reconnects as f64);
        out.set("net.node.send_drops", self.net.send_drops as f64);
    }
}

/// The protocol layer of a lockstep workload's parties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimLayer {
    /// `BundledAaParty`.
    RealAa,
    /// `TreeAaParty`.
    TreeAa,
}

/// The protocol layer inside `Reliable` on a TCP workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpLayer {
    /// `BundledAaParty`.
    RealAa,
    /// `AsyncTreeAaParty`.
    AsyncAa,
}

/// The ledger parts of a TCP workload, by metric name: with
/// `net.node.unattributed_ms` they add up to `bench.traced_run_wall_ms`.
#[must_use]
pub fn tcp_ledger_parts(layer: TcpLayer) -> [&'static str; 8] {
    let (new, inner) = match layer {
        TcpLayer::RealAa => ("real-aa.party_new_ms", "real-aa.step_ms"),
        TcpLayer::AsyncAa => ("async-aa.party_new_ms", "async-aa.handler_ms"),
    };
    [
        new,
        inner,
        "async-net.reliable_self_ms",
        "net.node.bringup_ms",
        "net.codec.busy_ms_per_run",
        "net.mac.busy_ms_per_run",
        "net.frame.busy_ms_per_run",
        "net.wal.append_ms_per_run",
    ]
}
