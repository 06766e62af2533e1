//! Real-socket transport for the asynchronous tree-AA stack.
//!
//! The simulators in this workspace execute every party in one process
//! under a scheduler they control. This crate runs the *same* protocol
//! objects — `Reliable<AsyncTreeAaParty>` behind the unchanged
//! [`async_net::AsyncProtocol`] traits — across real TCP connections,
//! one OS process (or thread) per party, and still reproduces the
//! in-process schedule bit for bit. The layers, bottom up:
//!
//! * [`frame`] — length-prefixed framing with an incremental,
//!   desync-proof decoder;
//! * [`mac`] — SipHash-2-4 under pairwise keys from a cluster secret;
//! * [`codec`] — total binary codecs for the protocol messages;
//! * [`wire`] — the authenticated [`wire::WrapperMsg`] envelope
//!   (handshake, data, virtual-time promises, completion);
//! * [`wal`] — a per-node write-ahead log of protocol-relevant state
//!   transitions (checksummed, torn-tail tolerant) that lets a
//!   SIGKILLed node replay itself back to its crash point;
//! * `core` (private) — the socket-free node core: the link state
//!   machine (filters, watermarks, gap-resend retention, control plane)
//!   and the virtual-time driver with its one activation path, shared
//!   by the live run and WAL replay;
//! * [`node`] — the per-party TCP node, a thin shell around the core:
//!   connect/accept with peer handshakes, per-peer reader/writer
//!   threads, capped-backoff reconnects, the WAL file, wall-clock
//!   pacing;
//! * [`cluster`] — an in-process loopback cluster (n nodes, n threads,
//!   real sockets) used by the tests and the differential gate;
//! * [`chaos`] — a seeded fault-injecting TCP relay (resets, stalls,
//!   corruption, partitions) driven by the `sim_net` fault plans;
//! * [`gate`] — the differential trace gate: a networked run's merged
//!   trace must reconcile event-for-event with the in-process
//!   [`async_net::VirtualScheduler`] reference run of the same seed.

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod codec;
mod core;
pub mod frame;
pub mod gate;
pub mod mac;
pub mod node;
pub mod wal;
pub mod wire;

pub use chaos::{seeded_plan, spawn_chaos_proxy, ChaosConfig, ChaosProxy};
pub use cluster::{
    node_config, run_local_cluster, run_local_cluster_opts, run_local_nodes, ClusterChaos,
    ClusterOpts, ClusterReport,
};
pub use codec::{CodecError, Reader, WireCodec};
pub use frame::{frame, FrameBuffer, FrameError, MAX_FRAME, PREFIX_LEN};
pub use gate::{differential_gate, proto_fingerprint, GateCase, ReferenceRun};
pub use mac::{pair_key, siphash24, MacKey};
pub use node::{
    run_node, run_node_durable, Durability, NetError, NetStats, NodeConfig, NodeReport,
    ReconnectPolicy,
};
pub use wal::{read_wal, WalCursor, WalError, WalHeader, WalRecord, WalScan, WalWriter};
pub use wire::{FrameKind, HelloBody, WrapperMsg, WIRE_VERSION};
