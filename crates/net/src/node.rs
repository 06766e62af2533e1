//! A real TCP node driving an [`AsyncProtocol`] deterministically.
//!
//! Each node owns one OS process (or thread, in the loopback cluster),
//! talks to its peers over plain `TcpStream`s carrying MAC-authenticated
//! [`WrapperMsg`] envelopes, and replays — bit for bit — the schedule the
//! in-process [`async_net::VirtualScheduler`] would produce for the same
//! `(n, seed, min_delay)`. The trick is conservative virtual-time
//! synchronization (Chandy–Misra–Bryant null messages):
//!
//! * Every Data frame carries its virtual send time and its
//!   content-keyed virtual delivery time `vdeliver = vsend +`
//!   [`async_net::link_delay`], computed from the per-link Data ordinal
//!   `lseq` that travels in the envelope.
//! * For each peer the node maintains a **watermark** `L_j`: a proven
//!   lower bound such that every Data frame still to arrive from `j` has
//!   `vdeliver > L_j`. A Data or Done frame with send time `s` raises it
//!   to `s + min_delay` (the sender's clock is monotone and every delay
//!   strictly exceeds `min_delay`); a Null frame raises it to the
//!   explicit promise it carries.
//! * Pending events (arrived Data, local timers, self-deliveries) are
//!   processed in the global [`VKey`] order, but only while their time is
//!   at most `bound = min_j L_j` — so no event can ever arrive "in the
//!   past", and the node's activation order equals the reference
//!   schedule restricted to this party.
//! * After draining, the node promises `bound + min_delay` to its peers:
//!   any later activation happens strictly after `bound`, so any later
//!   Data has `vdeliver > bound + min_delay`. Mutual promises advance
//!   idle nodes by `min_delay` per exchange, which is what lets silence
//!   timers fire even when crashed peers send nothing.
//!
//! Termination: a node that produced its output broadcasts a Done frame
//! and keeps cooperating (acks, echo relays) until every peer is done or
//! dead, then tears the links down. Connection loss triggers capped-
//! backoff reconnects by the dialing side (`i` dials every `j < i`);
//! a peer unreachable past the policy's deadline is declared dead and
//! excluded from the bound, leaving protocol-level degradation to the
//! silence-evidence machinery above the transport.
//!
//! # Durability and crash recovery
//!
//! With a [`Durability`] attached ([`run_node_durable`]), the node
//! appends every protocol-relevant transition to a [`crate::wal`] log
//! *before* acting on it: `wire_seq` reservations before frames hit the
//! wire, processed events (with the raw payload for remote deliveries)
//! before they activate the protocol, and periodic integrity marks
//! carrying a caller-supplied state probe. Appends are flushed to the
//! OS, not `fsync`ed: the log survives the process being killed (the
//! page cache outlives it), not power loss. A SIGKILLed node restarted
//! with `recover` replays the log through a fresh protocol instance —
//! deterministically reconstructing its pending heap, per-link `lseq`
//! ordinals, retention buffers, and trace — then re-handshakes and
//! resumes mid-protocol without perturbing the virtual-time schedule.
//!
//! Two transport mechanisms make the rejoin loss-free:
//!
//! * **`wire_seq` reservation blocks** guarantee the recovered node's
//!   frames are never mistaken for replays by peers whose filters
//!   already saw pre-crash sequence numbers.
//! * **Handshake gap-resend**: every Hello carries the set of Data
//!   `lseq` ordinals its sender has received on the reverse link, and
//!   both sides of a (re)connect answer by resending exactly the
//!   retained frames the other side is missing — with fresh `wire_seq`
//!   but the *original* `lseq`/`vsend`/`vdeliver`, so the delivery
//!   schedule is preserved event for event. Duplicates (a frame both
//!   retained and already delivered) are dropped by a per-link dedup
//!   set without ever touching the replay filter.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aa_trace::{EventKind, Trace};
use async_net::{link_delay, AsyncCtx, AsyncProtocol, AsyncRecorder, VKey};
use sim_net::{Envelope, PartyId};

use crate::codec::WireCodec;
use crate::frame::{frame, FrameBuffer, MAX_FRAME, PREFIX_LEN};
use crate::mac::{pair_key, MacKey};
use crate::wal::{self, WalEvent, WalHeader, WalMark, WalRecord, WalRemote, WalWriter};
use crate::wire::{FrameKind, HelloBody, WrapperMsg, MAX_HAVE_EXTRAS, WIRE_VERSION};

/// `wire_seq` numbers are reserved (and WAL-logged) in blocks this big,
/// so steady-state sends cost one log append per block, not per frame.
const WIRE_SEQ_BLOCK: u64 = 256;

/// Cap on retained outgoing Data frames per link. Eviction past the cap
/// sacrifices gap-resend completeness (a reconnecting peer missing an
/// evicted frame falls back to `Reliable` retransmission), never safety.
const RETAIN_CAP: usize = 16_384;

/// Consecutive rejected frames after which a connection is cut. A
/// corrupted byte can desynchronize the frame layer, turning the rest of
/// the stream into garbage; cutting after a burst lets the reconnect +
/// gap-resend machinery re-establish a clean link. The threshold keeps
/// isolated forged/replayed frames (an *attack*, not corruption) from
/// tearing down an otherwise healthy connection.
const REJECT_CUT_THRESHOLD: u32 = 8;

/// A WAL integrity mark is appended every this many processed events.
const MARK_INTERVAL: u64 = 64;

/// Control-plane keepalive period. Null promises and Done notices are
/// fire-and-forget; on a live-but-lossy link (chaos corruption without a
/// reset) a lost one is never retransmitted by `Reliable`, which covers
/// Data only. Every period the main loop re-announces its current
/// promise to peers still working and its Done to peers that have not
/// acknowledged it, so no single lost control frame can stall anyone.
const KEEPALIVE_MS: u64 = 100;

/// Reconnection behaviour after a link drops.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Dial attempts before giving up on a peer.
    pub attempts: u32,
    /// Delay before the first retry; doubles per attempt.
    pub base_delay_ms: u64,
    /// Cap on the per-attempt delay.
    pub max_delay_ms: u64,
    /// A peer disconnected for this long is declared dead even on the
    /// accepting side (which cannot dial).
    pub dead_after_ms: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 4,
            base_delay_ms: 25,
            max_delay_ms: 400,
            dead_after_ms: 1500,
        }
    }
}

impl ReconnectPolicy {
    fn backoff(&self, attempt: u32) -> Duration {
        let ms = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        Duration::from_millis(ms)
    }

    /// A policy patient enough to sit through a supervised restart:
    /// many attempts, and a dead-peer deadline comfortably above the
    /// supervisor's worst-case backoff-and-replay window.
    #[must_use]
    pub fn patient() -> Self {
        ReconnectPolicy {
            attempts: 40,
            base_delay_ms: 25,
            max_delay_ms: 400,
            dead_after_ms: 15_000,
        }
    }
}

/// Write-ahead logging for a node run. Records are flushed to the OS on
/// append, so the log survives SIGKILL of the process, not power loss.
#[derive(Clone, Debug)]
pub struct Durability {
    /// Where this node's WAL lives.
    pub wal_path: PathBuf,
    /// Replay an existing WAL at `wal_path` before going live. A
    /// missing or empty file falls back to a fresh start, so a
    /// supervisor can pass `recover` unconditionally.
    pub recover: bool,
}

/// Everything a node needs to join a cluster.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's party index.
    pub me: usize,
    /// Number of parties.
    pub n: usize,
    /// Corruption bound (recorded in the trace header).
    pub t: usize,
    /// Peer addresses, indexed by party; `peers[me]` is ignored.
    pub peers: Vec<SocketAddr>,
    /// Shared cluster secret the pairwise MAC keys derive from.
    pub secret: u64,
    /// Fingerprint of the run configuration, checked in the handshake.
    pub config_fp: u64,
    /// Seed of the deterministic delay schedule.
    pub seed: u64,
    /// Per-link lookahead; must match the reference run's delay floor.
    pub min_delay: f64,
    /// Trace label.
    pub label: String,
    /// Reconnect policy.
    pub reconnect: ReconnectPolicy,
    /// How long to wait for all links to come up initially.
    pub handshake_timeout: Duration,
    /// Hard wall-clock cap on the whole run.
    pub wall_timeout: Duration,
    /// Hard cap on processed virtual events (runaway guard).
    pub max_events: u64,
}

impl NodeConfig {
    /// A configuration with the transport defaults (`min_delay` 0.5,
    /// 10 s handshake, 60 s wall cap, 2 M events).
    #[must_use]
    pub fn new(
        me: usize,
        n: usize,
        t: usize,
        peers: Vec<SocketAddr>,
        secret: u64,
        config_fp: u64,
        seed: u64,
    ) -> Self {
        NodeConfig {
            me,
            n,
            t,
            peers,
            secret,
            config_fp,
            seed,
            min_delay: 0.5,
            label: "net".into(),
            reconnect: ReconnectPolicy::default(),
            handshake_timeout: Duration::from_secs(10),
            wall_timeout: Duration::from_secs(60),
            max_events: 2_000_000,
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.me >= self.n {
            return Err(NetError::Config(format!(
                "me = {} out of range for n = {}",
                self.me, self.n
            )));
        }
        if self.peers.len() != self.n {
            return Err(NetError::Config(format!(
                "expected {} peer addresses, got {}",
                self.n,
                self.peers.len()
            )));
        }
        if !(0.0..1.0).contains(&self.min_delay) {
            return Err(NetError::Config(format!(
                "min_delay {} outside [0, 1)",
                self.min_delay
            )));
        }
        Ok(())
    }

    fn wal_header(&self) -> WalHeader {
        WalHeader {
            config_fp: self.config_fp,
            me: self.me,
            n: self.n,
            t: self.t,
            seed: self.seed,
            min_delay_bits: self.min_delay.to_bits(),
            wire_version: WIRE_VERSION,
            label: self.label.clone(),
        }
    }
}

/// A transport-level failure of a node run.
#[derive(Clone, Debug)]
pub enum NetError {
    /// The configuration is internally inconsistent.
    Config(String),
    /// A socket operation failed irrecoverably.
    Io(String),
    /// The cluster's links did not all come up (or a peer presented a
    /// mismatching configuration fingerprint / wire version).
    Handshake(String),
    /// The wall-clock cap elapsed before termination.
    WallTimeout {
        /// Elapsed time when the run was abandoned.
        elapsed_ms: u64,
    },
    /// The event cap was hit — the run stopped making real progress.
    Stalled {
        /// Events processed when the run was abandoned.
        events: u64,
    },
    /// Every peer was declared dead before this node produced an
    /// output. Alone it can never complete (the protocol needs `n − t`
    /// parties), and with no live watermark the conservative bound is
    /// unbounded — retransmission timers would spin the event loop
    /// forever. Failing fast hands the decision to the supervisor.
    Isolated {
        /// Events processed when the node found itself alone.
        events: u64,
    },
    /// The write-ahead log could not be replayed into this run: it is
    /// corrupt past the recoverable prefix, belongs to a different run
    /// configuration, or the deterministic replay diverged from it.
    Recovery(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Config(m) => write!(f, "config error: {m}"),
            NetError::Io(m) => write!(f, "io error: {m}"),
            NetError::Handshake(m) => write!(f, "handshake failed: {m}"),
            NetError::WallTimeout { elapsed_ms } => {
                write!(f, "wall-clock timeout after {elapsed_ms} ms")
            }
            NetError::Stalled { events } => write!(f, "stalled after {events} events"),
            NetError::Isolated { events } => {
                write!(f, "every peer died before an output ({events} events in)")
            }
            NetError::Recovery(m) => write!(f, "recovery failed: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl From<wal::WalError> for NetError {
    fn from(e: wal::WalError) -> Self {
        NetError::Recovery(e.to_string())
    }
}

/// Transport counters, reported per node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data/Done/Hello frames sent.
    pub frames_sent: u64,
    /// Authenticated frames received (all kinds).
    pub frames_received: u64,
    /// Null (virtual-time promise) frames sent.
    pub nulls_sent: u64,
    /// Payload bytes enqueued to writers.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Frames rejected for a bad MAC.
    pub rejected_mac: u64,
    /// Frames rejected as replays (stale `wire_seq`).
    pub rejected_replay: u64,
    /// Frames rejected as structurally malformed.
    pub rejected_malformed: u64,
    /// Successful reconnects.
    pub reconnects: u64,
    /// Protocol-level retransmissions (from the `Reliable` layer).
    pub retransmissions: u64,
    /// Peers declared dead.
    pub dead_peers: u64,
    /// Data frames dropped because the link was down when sending.
    pub send_drops: u64,
    /// Data frames gap-resent from retention during a handshake.
    pub resent_frames: u64,
    /// Duplicate Data frames dropped by the per-link `lseq` dedup set
    /// (authenticated, fresh `wire_seq`, already-delivered ordinal).
    pub dup_frames: u64,
    /// Dead peers revived by a successful re-handshake.
    pub revived_peers: u64,
    /// Retained frames evicted past [`RETAIN_CAP`].
    pub retain_evicted: u64,
}

/// What a completed (or degraded-but-terminated) node run produced.
#[derive(Clone, Debug)]
pub struct NodeReport<O> {
    /// The protocol's output, if it decided.
    pub output: Option<O>,
    /// This node's recorded trace (its own proto events + transport
    /// drops), ready for [`aa_trace::merge_traces`].
    pub trace: Trace,
    /// Transport counters.
    pub stats: NetStats,
    /// Final virtual time.
    pub vtime: f64,
}

/// The set of Data `lseq` ordinals received on one incoming link,
/// stored as a contiguous prefix plus out-of-order extras — the exact
/// shape the Hello's gap-resend advertisement uses.
#[derive(Debug, Default)]
struct HaveSet {
    /// Every `lseq < prefix` has been received.
    prefix: u64,
    /// Received ordinals at or above `prefix`.
    extras: BTreeSet<u64>,
}

impl HaveSet {
    fn contains(&self, lseq: u64) -> bool {
        lseq < self.prefix || self.extras.contains(&lseq)
    }

    fn insert(&mut self, lseq: u64) {
        if lseq < self.prefix {
            return;
        }
        if lseq == self.prefix {
            self.prefix += 1;
            while self.extras.remove(&self.prefix) {
                self.prefix += 1;
            }
        } else {
            self.extras.insert(lseq);
        }
    }
}

/// A sent Data frame kept for handshake gap-resend: enough to rebuild
/// the exact wire frame (modulo `wire_seq`, which is always fresh).
#[derive(Debug)]
struct Retained {
    vsend: f64,
    vdeliver: f64,
    body: Vec<u8>,
}

/// A liveness transition observed by a helper thread, queued for the
/// main loop to record into the trace.
#[derive(Clone, Copy, Debug)]
enum Transition {
    Reconnect { peer: usize, attempt: usize },
    BackoffExhausted { peer: usize, attempts: usize },
    DeadPeer { peer: usize },
}

/// Per-peer shared state, written by reader/acceptor/reconnect threads
/// and drained by the main loop.
#[derive(Debug)]
struct PeerSt {
    inbox: VecDeque<WrapperMsg>,
    /// Lower bound on future Data `vdeliver` from this peer.
    watermark: f64,
    /// Highest authenticated incoming `wire_seq` (replay filter).
    last_auth: Option<u64>,
    /// Next outgoing `wire_seq` on this link.
    out_wire_seq: u64,
    /// Exclusive upper bound of the WAL-reserved `wire_seq` block.
    wire_reserved: u64,
    /// Highest promise already sent to this peer.
    last_promised: f64,
    /// Data `lseq` ordinals received from this peer (dedup + Hello).
    have: HaveSet,
    /// Sent Data frames retained for gap-resend, by `lseq`.
    retain: BTreeMap<u64, Retained>,
    /// Whether this peer has been sent our Done on the *current*
    /// connection (a reconnect clears it, so Done is re-announced).
    done_notified: bool,
    /// Whether this peer acknowledged our Done. Until then the
    /// keepalive re-announces it — a Done lost on a live-but-lossy
    /// link must not stall the peer's termination.
    done_acked: bool,
    /// A `Done` arrived from this peer and its `DoneAck` has not been
    /// sent yet (the main loop drains this on its next pass).
    ack_owed: bool,
    done: bool,
    dead: bool,
    connected: bool,
    reconnecting: bool,
    down_since: Option<Instant>,
    /// Rejections not yet recorded in the trace (count since last drain).
    pending_drops: u64,
    tx: Option<mpsc::Sender<Vec<u8>>>,
}

impl PeerSt {
    fn new() -> Self {
        PeerSt {
            inbox: VecDeque::new(),
            watermark: 0.0,
            last_auth: None,
            out_wire_seq: 0,
            wire_reserved: 0,
            last_promised: 0.0,
            have: HaveSet::default(),
            retain: BTreeMap::new(),
            done_notified: false,
            done_acked: false,
            ack_owed: false,
            done: false,
            dead: false,
            connected: false,
            reconnecting: false,
            down_since: None,
            pending_drops: 0,
            tx: None,
        }
    }
}

#[derive(Debug)]
struct Inner {
    peers: Vec<PeerSt>,
    stats: NetStats,
    /// Liveness transitions queued for the main loop's recorder.
    transitions: Vec<Transition>,
    /// First WAL append failure (surfaced as a run error).
    wal_error: Option<String>,
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// The acceptor ignores connections until this is set — a
    /// recovering node must finish its replay before any handshake can
    /// read the retention/have state the replay rebuilds.
    accepting: AtomicBool,
    /// The write-ahead log, when the run is durable.
    /// Lock order: `inner` before `wal`, never the reverse.
    wal: Mutex<Option<WalWriter>>,
    /// Stream clones registered for unblocking shutdown.
    streams: Mutex<Vec<TcpStream>>,
    /// Writer threads: joined *before* the sockets are torn down so
    /// queued frames (the final Done) still reach the wire.
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Reader and reconnect threads: unblocked by the socket shutdown
    /// and the shutdown flag, joined last.
    aux_handles: Mutex<Vec<JoinHandle<()>>>,
    me: usize,
    n: usize,
    secret: u64,
    min_delay: f64,
}

impl Shared {
    fn key(&self, peer: usize) -> MacKey {
        pair_key(self.secret, self.me, peer)
    }
}

/// A locally pending virtual event.
enum LocalEv<M> {
    Deliver(Envelope<M>),
    Timer(u64),
}

struct Pend<M> {
    key: VKey,
    what: LocalEv<M>,
    /// `(vsend, raw body)` of the frame behind a remote delivery, kept
    /// only when a WAL is attached (the log must be able to re-inject
    /// the payload at replay).
    wire: Option<(f64, Vec<u8>)>,
}

impl<M> PartialEq for Pend<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Pend<M> {}
impl<M> PartialOrd for Pend<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pend<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Reads exactly one frame from `stream` (which must have a read
/// timeout set), failing on EOF, timeout, or framing errors.
///
/// This must consume EXACTLY the frame's bytes, never more: the peer's
/// first protocol frames can already sit behind the Hello in the socket
/// buffer (the peer registers the link the moment its Hello response is
/// written, and may start the protocol before we finish reading it). A
/// buffered read here would swallow those frames and silently lose
/// them — forcing retransmissions that shift the whole delay schedule.
fn read_one_frame(stream: &mut TcpStream) -> Result<Vec<u8>, NetError> {
    let mut prefix = [0u8; PREFIX_LEN];
    stream.read_exact(&mut prefix).map_err(map_handshake_eof)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(NetError::Handshake(format!(
            "oversized handshake frame ({len} bytes)"
        )));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(map_handshake_eof)?;
    Ok(payload)
}

fn map_handshake_eof(e: io::Error) -> NetError {
    if e.kind() == ErrorKind::UnexpectedEof {
        NetError::Handshake("connection closed mid-handshake".into())
    } else {
        NetError::from(e)
    }
}

/// Allocates the next outgoing `wire_seq` on the link to `peer`. With a
/// WAL attached, sequence numbers are claimed in [`WIRE_SEQ_BLOCK`]-size
/// reservation blocks whose records hit the log *before* any frame in
/// the block can hit the wire — so a recovered node resumes past every
/// sequence number a peer's replay filter might already have seen. The
/// append runs under `inner` (lock order `inner` before `wal`) and
/// allocates nothing.
fn assign_wire_seq(shared: &Shared, inner: &mut Inner, peer: usize) -> u64 {
    let (s, reserve) = {
        let p = &mut inner.peers[peer];
        let s = p.out_wire_seq;
        p.out_wire_seq += 1;
        if s >= p.wire_reserved {
            let upto = s + WIRE_SEQ_BLOCK;
            p.wire_reserved = upto;
            (s, Some(upto))
        } else {
            (s, None)
        }
    };
    if let Some(upto) = reserve {
        let mut wal = shared.wal.lock().expect("wal lock");
        if let Some(w) = wal.as_mut() {
            if let Err(e) = w.append(&WalRecord::Reserve { peer, upto }) {
                drop(wal);
                inner.wal_error.get_or_insert(e.to_string());
            }
        }
    }
    s
}

fn make_hello(shared: &Shared, cfg_fp: u64, peer: usize) -> WrapperMsg {
    let (wire_seq, have_prefix, have_extras) = {
        let mut inner = shared.inner.lock().expect("net lock");
        let s = assign_wire_seq(shared, &mut inner, peer);
        let p = &inner.peers[peer];
        // Truncating an absurdly fragmented have-set only costs the
        // peer some duplicate resends, which the dedup set absorbs.
        let extras: Vec<u64> = p
            .have
            .extras
            .iter()
            .copied()
            .take(MAX_HAVE_EXTRAS)
            .collect();
        (s, p.have.prefix, extras)
    };
    WrapperMsg {
        kind: FrameKind::Hello,
        from: shared.me as u32,
        to: peer as u32,
        wire_seq,
        lseq: 0,
        vsend: 0.0,
        vdeliver: 0.0,
        body: HelloBody {
            config_fp: cfg_fp,
            version: WIRE_VERSION,
            have_prefix,
            have_extras,
        }
        .to_bytes(),
        mac: 0,
    }
    .signed(shared.key(peer))
}

/// Authenticates an incoming Hello against `expected_from` (or any peer
/// if `None`), returning the sender and the decoded body. Updates the
/// replay filter.
fn check_hello(
    shared: &Shared,
    cfg_fp: u64,
    msg: &WrapperMsg,
    expected_from: Option<usize>,
) -> Result<(usize, HelloBody), NetError> {
    if msg.kind != FrameKind::Hello {
        return Err(NetError::Handshake("first frame is not a Hello".into()));
    }
    let from = msg.from as usize;
    if from >= shared.n || from == shared.me || msg.to != shared.me as u32 {
        return Err(NetError::Handshake(format!(
            "hello addressed {} -> {}",
            msg.from, msg.to
        )));
    }
    if let Some(exp) = expected_from {
        if from != exp {
            return Err(NetError::Handshake(format!(
                "expected hello from {exp}, got {from}"
            )));
        }
    }
    if !msg.verify(shared.key(from)) {
        return Err(NetError::Handshake(format!(
            "hello from {from} failed authentication"
        )));
    }
    let hello = HelloBody::from_bytes(&msg.body).map_err(|e| NetError::Handshake(e.to_string()))?;
    if hello.version != WIRE_VERSION {
        return Err(NetError::Handshake(format!(
            "peer {from} speaks wire version {}, expected {WIRE_VERSION}",
            hello.version
        )));
    }
    if hello.config_fp != cfg_fp {
        return Err(NetError::Handshake(format!(
            "peer {from} runs configuration {:#018x}, expected {cfg_fp:#018x}",
            hello.config_fp
        )));
    }
    {
        let mut inner = shared.inner.lock().expect("net lock");
        let p = &mut inner.peers[from];
        if p.last_auth.is_some_and(|s| msg.wire_seq <= s) {
            return Err(NetError::Handshake(format!("replayed hello from {from}")));
        }
        p.last_auth = Some(msg.wire_seq);
    }
    Ok((from, hello))
}

/// Wires a freshly handshaken stream into the node: registers clones
/// for shutdown, resends the retained Data frames the peer's Hello says
/// it is missing, spawns the writer and reader threads, marks the peer
/// connected (reviving it if it had been declared dead).
fn register_connection(
    shared: &Arc<Shared>,
    peer: usize,
    stream: TcpStream,
    peer_hello: &HelloBody,
) -> Result<(), NetError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(NetError::Handshake("node shutting down".into()));
    }
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(None)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let reader_stream = stream.try_clone()?;
    let writer_stream = stream.try_clone()?;
    shared.streams.lock().expect("net lock").push(stream);

    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    {
        let mut inner = shared.inner.lock().expect("net lock");
        // Gap-resend, inside the same critical section that publishes
        // the sender: the resent frames are queued before any new
        // protocol frame can use this link, and in ascending `lseq`
        // order, so the peer's watermark only ever sees a monotone
        // `vsend` sequence. Frames the peer acknowledges are pruned.
        let lseqs: Vec<u64> = inner.peers[peer].retain.keys().copied().collect();
        for lseq in lseqs {
            if peer_hello.has(lseq) {
                inner.peers[peer].retain.remove(&lseq);
                continue;
            }
            let wire_seq = assign_wire_seq(shared, &mut inner, peer);
            let (vsend, vdeliver, body) = {
                let r = &inner.peers[peer].retain[&lseq];
                (r.vsend, r.vdeliver, r.body.clone())
            };
            let msg = WrapperMsg {
                kind: FrameKind::Data,
                from: shared.me as u32,
                to: peer as u32,
                wire_seq,
                lseq,
                vsend,
                vdeliver,
                body,
                mac: 0,
            }
            .signed(shared.key(peer));
            let bytes = frame(&msg.encode());
            inner.stats.frames_sent += 1;
            inner.stats.resent_frames += 1;
            inner.stats.bytes_sent += bytes.len() as u64;
            let _ = tx.send(bytes);
        }
        let revived = {
            let p = &mut inner.peers[peer];
            p.tx = Some(tx);
            p.connected = true;
            p.down_since = None;
            // A fresh connection starts from a clean promise slate, and
            // re-announces our Done if we already produced output. An
            // ack owed on the dropped connection is re-owed here (the
            // peer is done; its keepalive would re-ask anyway).
            p.last_promised = 0.0;
            p.done_notified = false;
            if p.done {
                p.ack_owed = true;
            }
            std::mem::replace(&mut p.dead, false)
        };
        if revived {
            inner.stats.revived_peers += 1;
        }
    }

    let sh = Arc::clone(shared);
    let writer = thread::spawn(move || writer_loop(&sh, peer, writer_stream, &rx));
    let sh = Arc::clone(shared);
    let reader = thread::spawn(move || reader_loop(&sh, peer, reader_stream));
    shared.writer_handles.lock().expect("net lock").push(writer);
    shared.aux_handles.lock().expect("net lock").push(reader);
    shared.cv.notify_all();
    Ok(())
}

fn mark_disconnected(shared: &Shared, peer: usize) {
    let mut inner = shared.inner.lock().expect("net lock");
    let p = &mut inner.peers[peer];
    if p.connected {
        p.connected = false;
        p.tx = None;
        p.down_since = Some(Instant::now());
    }
    drop(inner);
    shared.cv.notify_all();
}

fn writer_loop(shared: &Shared, peer: usize, mut stream: TcpStream, rx: &mpsc::Receiver<Vec<u8>>) {
    while let Ok(bytes) = rx.recv() {
        if stream.write_all(&bytes).is_err() {
            mark_disconnected(shared, peer);
            return;
        }
    }
    let _ = stream.flush();
}

fn reader_loop(shared: &Shared, peer: usize, mut stream: TcpStream) {
    let key = shared.key(peer);
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 65536];
    let mut bad_streak = 0u32;
    'conn: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let k = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => k,
        };
        fb.push(&buf[..k]);
        loop {
            match fb.next_frame() {
                Ok(Some(payload)) => {
                    if handle_frame(shared, peer, key, &payload) {
                        bad_streak = 0;
                    } else {
                        bad_streak += 1;
                        if bad_streak >= REJECT_CUT_THRESHOLD {
                            // The stream has desynchronized from the
                            // frame layer (corruption below us): cut it
                            // and let reconnect + gap-resend rebuild a
                            // clean link.
                            let _ = stream.shutdown(Shutdown::Both);
                            break 'conn;
                        }
                    }
                }
                Ok(None) => break,
                // Oversized prefix: the stream is garbage; cut the link
                // (the reconnect machinery takes over).
                Err(_) => {
                    reject(shared, peer, |s| &mut s.rejected_malformed);
                    let _ = stream.shutdown(Shutdown::Both);
                    break 'conn;
                }
            }
        }
    }
    mark_disconnected(shared, peer);
}

/// Counts a rejected frame: bumps the chosen counter and queues a
/// `fault_drop` trace record for the main loop.
fn reject(shared: &Shared, peer: usize, counter: impl FnOnce(&mut NetStats) -> &mut u64) {
    let mut inner = shared.inner.lock().expect("net lock");
    *counter(&mut inner.stats) += 1;
    inner.peers[peer].pending_drops += 1;
    drop(inner);
    shared.cv.notify_all();
}

/// Authenticates and sorts one incoming frame. Rejected frames are
/// counted and traced, never delivered. Returns whether the frame was
/// accepted (duplicates count as accepted — they prove the stream is
/// healthy).
fn handle_frame(shared: &Shared, peer: usize, key: MacKey, payload: &[u8]) -> bool {
    let Ok(msg) = WrapperMsg::decode(payload) else {
        reject(shared, peer, |s| &mut s.rejected_malformed);
        return false;
    };
    if msg.from != peer as u32 || msg.to != shared.me as u32 || msg.kind == FrameKind::Hello {
        reject(shared, peer, |s| &mut s.rejected_malformed);
        return false;
    }
    if !msg.verify(key) {
        reject(shared, peer, |s| &mut s.rejected_mac);
        return false;
    }
    let mut inner = shared.inner.lock().expect("net lock");
    let stale = inner.peers[peer]
        .last_auth
        .is_some_and(|s| msg.wire_seq <= s);
    if stale {
        inner.stats.rejected_replay += 1;
        inner.peers[peer].pending_drops += 1;
        drop(inner);
        shared.cv.notify_all();
        return false;
    }
    inner.peers[peer].last_auth = Some(msg.wire_seq);
    inner.stats.frames_received += 1;
    inner.stats.bytes_received += payload.len() as u64 + 4;
    let min_delay = shared.min_delay;
    let Inner { peers, stats, .. } = &mut *inner;
    let p = &mut peers[peer];
    match msg.kind {
        FrameKind::Data => {
            // Future Data is sent at a clock ≥ vsend with delay > min.
            p.watermark = p.watermark.max(msg.vsend + min_delay);
            if p.have.contains(msg.lseq) {
                // A gap-resend we already delivered: the watermark gain
                // is kept, the payload is dropped without a trace event
                // (it is not a fault, just redundancy).
                stats.dup_frames += 1;
            } else {
                p.have.insert(msg.lseq);
                p.inbox.push_back(msg);
            }
        }
        FrameKind::Null => {
            // The promise IS the bound; no extra lookahead on top.
            p.watermark = p.watermark.max(msg.vsend);
        }
        FrameKind::Done => {
            // Possibly a keepalive re-announcement; setting the flags
            // again is idempotent, and every copy earns a fresh ack (the
            // previous ack may itself have been lost).
            p.done = true;
            p.ack_owed = true;
            p.watermark = p.watermark.max(msg.vsend + min_delay);
        }
        FrameKind::DoneAck => {
            p.done_acked = true;
            p.watermark = p.watermark.max(msg.vsend + min_delay);
        }
        FrameKind::Hello => unreachable!("filtered above"),
    }
    drop(inner);
    shared.cv.notify_all();
    true
}

/// Dials `peer`, performs the mutual Hello exchange, and registers the
/// connection.
///
/// `patience` is how long to wait for the peer's Hello response. The
/// initial bring-up passes the whole handshake budget: once our Hello
/// is written the peer may register this connection at any moment, so
/// abandoning it early and redialing would let the peer send the first
/// protocol frames into a dead socket — losing them, forcing a
/// retransmission, and (fatally for the differential gate) shifting
/// the delay schedule. Reconnects mid-run use a short patience instead;
/// a lost frame there is already the fault path `Reliable` covers.
fn dial_handshake(
    shared: &Arc<Shared>,
    cfg: &NodeConfig,
    peer: usize,
    patience: Duration,
) -> Result<(), NetError> {
    let mut stream = TcpStream::connect_timeout(&cfg.peers[peer], Duration::from_millis(500))?;
    stream.set_nodelay(true).ok();
    let hello = make_hello(shared, cfg.config_fp, peer);
    stream.write_all(&frame(&hello.encode()))?;
    stream.set_read_timeout(Some(patience))?;
    let payload = read_one_frame(&mut stream)?;
    let msg = WrapperMsg::decode(&payload).map_err(|e| NetError::Handshake(e.to_string()))?;
    let (_, peer_hello) = check_hello(shared, cfg.config_fp, &msg, Some(peer))?;
    register_connection(shared, peer, stream, &peer_hello)
}

/// One accepted connection: identify the dialer by its Hello, answer
/// with ours, register.
fn accept_handshake(
    shared: &Arc<Shared>,
    cfg: &NodeConfig,
    mut stream: TcpStream,
) -> Result<(), NetError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let payload = read_one_frame(&mut stream)?;
    let msg = WrapperMsg::decode(&payload).map_err(|e| NetError::Handshake(e.to_string()))?;
    let (peer, peer_hello) = check_hello(shared, cfg.config_fp, &msg, None)?;
    if peer < shared.me {
        // Canonical direction: the higher index dials the lower.
        return Err(NetError::Handshake(format!(
            "peer {peer} must accept our dial, not dial us"
        )));
    }
    let hello = make_hello(shared, cfg.config_fp, peer);
    stream.write_all(&frame(&hello.encode()))?;
    register_connection(shared, peer, stream, &peer_hello)
}

/// Background reconnect attempts for a dialed peer; declares it dead
/// when the policy is exhausted.
fn reconnect_loop(shared: &Arc<Shared>, cfg: &NodeConfig, peer: usize) {
    for attempt in 0..cfg.reconnect.attempts {
        thread::sleep(cfg.reconnect.backoff(attempt));
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        {
            let mut inner = shared.inner.lock().expect("net lock");
            inner.transitions.push(Transition::Reconnect {
                peer,
                attempt: attempt as usize,
            });
            drop(inner);
            shared.cv.notify_all();
        }
        if dial_handshake(shared, cfg, peer, Duration::from_secs(2)).is_ok() {
            let mut inner = shared.inner.lock().expect("net lock");
            inner.stats.reconnects += 1;
            inner.peers[peer].reconnecting = false;
            drop(inner);
            shared.cv.notify_all();
            return;
        }
    }
    let mut inner = shared.inner.lock().expect("net lock");
    inner.transitions.push(Transition::BackoffExhausted {
        peer,
        attempts: cfg.reconnect.attempts as usize,
    });
    let p = &mut inner.peers[peer];
    p.reconnecting = false;
    let newly_dead = !p.dead && !p.connected;
    if newly_dead {
        p.dead = true;
        inner.stats.dead_peers += 1;
        inner.transitions.push(Transition::DeadPeer { peer });
    }
    drop(inner);
    shared.cv.notify_all();
}

/// Runs the protocol over real sockets until global termination.
///
/// `listener` must already be bound (bind first, share the address,
/// then start the cluster — this is what makes port assignment
/// race-free). `on_ready` fires once every link is up, right before
/// virtual time starts.
///
/// # Errors
///
/// [`NetError`] on configuration, handshake, wall-clock, or event-cap
/// failures. Peer crashes are *not* errors: the node keeps going and
/// lets the protocol degrade.
///
/// # Panics
///
/// Panics if an internal lock is poisoned (a helper thread panicked).
pub fn run_node<P, R>(
    cfg: &NodeConfig,
    listener: TcpListener,
    proto: P,
    on_ready: R,
) -> Result<NodeReport<P::Output>, NetError>
where
    P: AsyncProtocol,
    P::Msg: WireCodec,
    R: FnOnce(),
{
    run_node_durable(cfg, listener, proto, None, |_| 0, on_ready)
}

/// [`run_node`] with an optional write-ahead log and crash recovery.
///
/// `probe` fingerprints the protocol state; it is stamped into periodic
/// WAL marks and re-checked during replay, so a divergent recovery is
/// detected instead of silently corrupting the run. Pass `|_| 0` when
/// no meaningful fingerprint exists.
///
/// # Errors
///
/// Everything [`run_node`] returns, plus [`NetError::Recovery`] when an
/// existing WAL cannot be replayed (corrupt, mismatched configuration,
/// written by the JSON-era payload format, or diverged) and
/// [`NetError::Io`] when an append fails mid-run.
///
/// # Panics
///
/// Panics if an internal lock is poisoned (a helper thread panicked).
pub fn run_node_durable<P, R, F>(
    cfg: &NodeConfig,
    listener: TcpListener,
    proto: P,
    durability: Option<&Durability>,
    probe: F,
    on_ready: R,
) -> Result<NodeReport<P::Output>, NetError>
where
    P: AsyncProtocol,
    P::Msg: WireCodec,
    R: FnOnce(),
    F: Fn(&P) -> u64,
{
    cfg.validate()?;

    // Open (or recover) the WAL before anything touches the network.
    let mut replay: Option<Vec<WalRecord>> = None;
    let wal_writer = match durability {
        None => None,
        Some(d) => {
            let header = cfg.wal_header();
            let existing = d.recover && std::fs::metadata(&d.wal_path).is_ok_and(|m| m.len() > 0);
            if existing {
                let scan = wal::read_wal(&d.wal_path)?;
                match scan.records.first() {
                    Some(WalRecord::Header(h)) if *h == header => {}
                    Some(WalRecord::Header(h)) => {
                        return Err(NetError::Recovery(format!(
                            "wal belongs to another run (config {:#018x}, expected {:#018x})",
                            h.config_fp, cfg.config_fp
                        )))
                    }
                    _ => return Err(NetError::Recovery("wal has no header record".into())),
                }
                let w = WalWriter::append_to(&d.wal_path, scan.valid_len)?;
                replay = Some(scan.records);
                Some(w)
            } else {
                Some(WalWriter::create(&d.wal_path, &header)?)
            }
        }
    };

    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            peers: (0..cfg.n).map(|_| PeerSt::new()).collect(),
            stats: NetStats::default(),
            transitions: Vec::new(),
            wal_error: None,
        }),
        cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        accepting: AtomicBool::new(false),
        wal: Mutex::new(wal_writer),
        streams: Mutex::new(Vec::new()),
        writer_handles: Mutex::new(Vec::new()),
        aux_handles: Mutex::new(Vec::new()),
        me: cfg.me,
        n: cfg.n,
        secret: cfg.secret,
        min_delay: cfg.min_delay,
    });

    // Lifetime acceptor: serves both the initial handshakes from higher
    // peers and any re-dials after a drop.
    listener.set_nonblocking(true)?;
    let acceptor = {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        thread::spawn(move || loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if !shared.accepting.load(Ordering::SeqCst) {
                // Replay in progress: let dialers wait in the backlog.
                thread::sleep(Duration::from_millis(3));
                continue;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    // Handshake concurrently: a serial acceptor would
                    // block peer k's Hello behind peer j's, long enough
                    // for k to give up a connection we then register —
                    // and the first frames written into it are lost.
                    stream.set_nonblocking(false).ok();
                    let sh = Arc::clone(&shared);
                    let hcfg = cfg.clone();
                    let h = thread::spawn(move || {
                        let _ = accept_handshake(&sh, &hcfg, stream);
                    });
                    shared.aux_handles.lock().expect("net lock").push(h);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(3))
                }
                Err(_) => thread::sleep(Duration::from_millis(3)),
            }
        })
    };

    let result = drive_node(cfg, &shared, proto, replay, &probe, on_ready);

    // Teardown: close writer channels and join the writers first so
    // queued frames (the final Done) are flushed, then tear down the
    // sockets to unblock readers, then join everything else.
    shared.shutdown.store(true, Ordering::SeqCst);
    {
        let mut inner = shared.inner.lock().expect("net lock");
        for p in &mut inner.peers {
            p.tx = None;
        }
    }
    shared.cv.notify_all();
    let writers = std::mem::take(&mut *shared.writer_handles.lock().expect("net lock"));
    for h in writers {
        let _ = h.join();
    }
    for s in shared.streams.lock().expect("net lock").iter() {
        let _ = s.shutdown(Shutdown::Both);
    }
    let aux = std::mem::take(&mut *shared.aux_handles.lock().expect("net lock"));
    for h in aux {
        let _ = h.join();
    }
    let _ = acceptor.join();
    result
}

/// Appends one record to the WAL, if one is attached.
fn append_wal(shared: &Shared, rec: &WalRecord) -> Result<(), NetError> {
    let mut wal = shared.wal.lock().expect("wal lock");
    if let Some(w) = wal.as_mut() {
        w.append(rec)
            .map_err(|e| NetError::Io(format!("wal append: {e}")))?;
    }
    Ok(())
}

/// The virtual-time main loop (see the module docs for the invariants).
#[allow(clippy::too_many_lines)]
fn drive_node<P, R>(
    cfg: &NodeConfig,
    shared: &Arc<Shared>,
    mut proto: P,
    replay: Option<Vec<WalRecord>>,
    probe: &dyn Fn(&P) -> u64,
    on_ready: R,
) -> Result<NodeReport<P::Output>, NetError>
where
    P: AsyncProtocol,
    P::Msg: WireCodec,
    R: FnOnce(),
{
    let me = cfg.me;
    let n = cfg.n;
    let start = Instant::now();

    let mut pending: BinaryHeap<Reverse<Pend<P::Msg>>> = BinaryHeap::new();
    let mut recorder = AsyncRecorder::new(n, cfg.t, &cfg.label);
    let mut vnow = 0.0f64;
    let mut timer_seq = 0u64;
    // Per-destination Data ordinals for my outgoing links (incl. self).
    let mut out_lseq = vec![0u64; n];
    let mut done_sent = false;
    let mut last_keepalive = Instant::now();
    let mut events_processed = 0u64;
    let mut retransmissions = 0u64;
    // Schedule debugging: dump every processed event key to stderr.
    let debug_events = std::env::var_os("TREEAA_NET_DEBUG").is_some();

    // A reusable closure would borrow too much; plain fn with the lot.
    // `live` is false during WAL replay: the protocol's reactions are
    // reconstructed (retention, lseq ordinals, timers, trace) but
    // nothing touches the wire — those frames were sent pre-crash.
    #[allow(clippy::too_many_arguments)]
    fn apply_parts<M: WireCodec + sim_net::Payload>(
        ctx: AsyncCtx<M>,
        vnow: f64,
        cfg: &NodeConfig,
        shared: &Shared,
        pending: &mut BinaryHeap<Reverse<Pend<M>>>,
        recorder: &mut AsyncRecorder,
        out_lseq: &mut [u64],
        timer_seq: &mut u64,
        retransmissions: &mut u64,
        live: bool,
    ) {
        let me = cfg.me;
        let parts = ctx.into_parts();
        for event in parts.events {
            recorder.record_proto(vnow, me, event);
        }
        if parts.retransmits > 0 && std::env::var_os("TREEAA_NET_DEBUG").is_some() {
            eprintln!("RETX node={me} t={vnow:.17} count={}", parts.retransmits);
        }
        *retransmissions += parts.retransmits as u64;
        for (delay, token) in parts.timers {
            let ts = *timer_seq;
            *timer_seq += 1;
            pending.push(Reverse(Pend {
                key: VKey {
                    time: vnow + delay,
                    class: 1,
                    a: me as u64,
                    b: ts,
                    c: token,
                },
                what: LocalEv::Timer(token),
                wire: None,
            }));
        }
        for env in parts.outbox {
            let to = env.to.index();
            let lseq = out_lseq[to];
            out_lseq[to] += 1;
            let delay = link_delay(cfg.seed, me, to, lseq, cfg.min_delay);
            let vdeliver = vnow + delay;
            if to == me {
                pending.push(Reverse(Pend {
                    key: VKey {
                        time: vdeliver,
                        class: 0,
                        a: me as u64,
                        b: me as u64,
                        c: lseq,
                    },
                    what: LocalEv::Deliver(env),
                    wire: None,
                }));
                continue;
            }
            let body = env.payload.to_bytes();
            let mut inner = shared.inner.lock().expect("net lock");
            {
                // Retain for handshake gap-resend, whatever the link
                // state: a reconnecting peer asks for history by lseq.
                let Inner { peers, stats, .. } = &mut *inner;
                let p = &mut peers[to];
                p.retain.insert(
                    lseq,
                    Retained {
                        vsend: vnow,
                        vdeliver,
                        body: body.clone(),
                    },
                );
                if p.retain.len() > RETAIN_CAP {
                    let oldest = *p.retain.keys().next().expect("nonempty");
                    p.retain.remove(&oldest);
                    stats.retain_evicted += 1;
                }
            }
            if !live {
                continue;
            }
            let wire_seq = assign_wire_seq(shared, &mut inner, to);
            let tx = inner.peers[to].tx.clone();
            match tx {
                Some(tx) => {
                    let msg = WrapperMsg {
                        kind: FrameKind::Data,
                        from: me as u32,
                        to: to as u32,
                        wire_seq,
                        lseq,
                        vsend: vnow,
                        vdeliver,
                        body,
                        mac: 0,
                    }
                    .signed(pair_key(cfg.secret, me, to));
                    let bytes = frame(&msg.encode());
                    inner.stats.frames_sent += 1;
                    inner.stats.bytes_sent += bytes.len() as u64;
                    drop(inner);
                    // A send error is surfaced by the writer thread.
                    let _ = tx.send(bytes);
                }
                None => {
                    // Link down: the frame is lost; Reliable retransmits
                    // (and the retention copy covers a later handshake).
                    inner.stats.send_drops += 1;
                }
            }
        }
    }

    // Control-frame sender (Null / Done).
    let send_ctl = |kind: FrameKind, to: usize, vsend: f64, inner: &mut Inner| {
        let wire_seq = assign_wire_seq(shared, inner, to);
        if let Some(tx) = inner.peers[to].tx.clone() {
            let msg = WrapperMsg {
                kind,
                from: me as u32,
                to: to as u32,
                wire_seq,
                lseq: 0,
                vsend,
                vdeliver: vsend,
                body: Vec::new(),
                mac: 0,
            }
            .signed(pair_key(cfg.secret, me, to));
            let bytes = frame(&msg.encode());
            if kind == FrameKind::Null {
                inner.stats.nulls_sent += 1;
            } else {
                inner.stats.frames_sent += 1;
            }
            inner.stats.bytes_sent += bytes.len() as u64;
            let _ = tx.send(bytes);
        }
    };

    // ---- WAL replay (crash recovery), before any link comes up ----
    let recovered = replay.is_some();
    if let Some(records) = replay {
        // The start activation, exactly as the pre-crash process ran it.
        let mut ctx = AsyncCtx::external(PartyId(me), n, 0.0, true);
        proto.on_start(&mut ctx);
        apply_parts(
            ctx,
            0.0,
            cfg,
            shared,
            &mut pending,
            &mut recorder,
            &mut out_lseq,
            &mut timer_seq,
            &mut retransmissions,
            false,
        );
        let mut replayed = 0u64;
        for rec in records {
            match rec {
                WalRecord::Header(_) => {}
                WalRecord::Reserve { peer, upto } => {
                    let mut inner = shared.inner.lock().expect("net lock");
                    let p = &mut inner.peers[peer];
                    p.out_wire_seq = p.out_wire_seq.max(upto);
                    p.wire_reserved = p.wire_reserved.max(upto);
                }
                WalRecord::Event(ev) => {
                    let key = VKey {
                        time: f64::from_bits(ev.time_bits),
                        class: ev.class,
                        a: ev.a,
                        b: ev.b,
                        c: ev.c,
                    };
                    let what = if let Some(r) = ev.remote {
                        let payload = P::Msg::from_bytes(&r.body).map_err(|e| {
                            NetError::Recovery(format!(
                                "wal event {replayed}: undecodable payload: {e}"
                            ))
                        })?;
                        let mut inner = shared.inner.lock().expect("net lock");
                        let p = &mut inner.peers[r.from];
                        p.have.insert(r.lseq);
                        // Re-prove the watermark this frame once proved.
                        let w = f64::from_bits(r.vsend_bits) + cfg.min_delay;
                        p.watermark = p.watermark.max(w);
                        drop(inner);
                        LocalEv::Deliver(Envelope {
                            from: PartyId(r.from),
                            to: PartyId(me),
                            payload,
                        })
                    } else {
                        // A locally generated event: deterministic
                        // replay must have it at the head of the heap.
                        let Some(Reverse(head)) = pending.pop() else {
                            return Err(NetError::Recovery(format!(
                                "wal event {replayed}: no pending local event"
                            )));
                        };
                        if head.key != key {
                            return Err(NetError::Recovery(format!(
                                "wal event {replayed}: schedule diverged"
                            )));
                        }
                        head.what
                    };
                    vnow = key.time;
                    replayed += 1;
                    events_processed += 1;
                    let mut ctx = AsyncCtx::external(PartyId(me), n, vnow, true);
                    match what {
                        LocalEv::Deliver(env) => proto.on_message(env, &mut ctx),
                        LocalEv::Timer(token) => proto.on_timer(token, &mut ctx),
                    }
                    apply_parts(
                        ctx,
                        vnow,
                        cfg,
                        shared,
                        &mut pending,
                        &mut recorder,
                        &mut out_lseq,
                        &mut timer_seq,
                        &mut retransmissions,
                        false,
                    );
                }
                WalRecord::Mark(m) => {
                    let fp = probe(&proto);
                    if fp != m.probe {
                        return Err(NetError::Recovery(format!(
                            "probe mismatch at {} events: logged {:016x}, replayed {fp:016x}",
                            m.events, m.probe
                        )));
                    }
                }
            }
        }
        recorder.record_net(
            vnow,
            EventKind::NetRecovery {
                party: me,
                replayed: replayed as usize,
            },
        );
    }
    shared.accepting.store(true, Ordering::SeqCst);

    // Initial link bring-up: dial lower peers (retrying while the
    // cluster boots), wait for higher peers to dial us. Two robustness
    // rules keep a lossy (chaos) network from burning the budget:
    // per-attempt patience is bounded well below the whole budget, and
    // a link that came up but dropped again while we wait for the rest
    // is redialed — the main loop's reconnect machinery is not running
    // yet, so the bring-up must do its own healing. An abandoned
    // half-open handshake is safe since wire v2: the redial
    // re-negotiates with the HaveSet, and any frame the peer sent into
    // the dead socket is gap-resent with its original schedule.
    let attempt_patience = cfg.handshake_timeout.min(Duration::from_secs(2));
    loop {
        for peer in 0..me {
            let up = {
                let inner = shared.inner.lock().expect("net lock");
                inner.peers[peer].connected
            };
            if !up {
                if let Err(e) = dial_handshake(shared, cfg, peer, attempt_patience) {
                    if debug_events {
                        eprintln!("DIAL node={me} peer={peer} retry after: {e}");
                    }
                }
            }
        }
        let inner = shared.inner.lock().expect("net lock");
        let up = (0..n)
            .filter(|&j| j != me)
            .filter(|&j| inner.peers[j].connected)
            .count();
        if up == n - 1 {
            break;
        }
        if start.elapsed() >= cfg.handshake_timeout {
            return Err(NetError::Handshake(format!("only {up}/{} links up", n - 1)));
        }
        let _ = shared
            .cv
            .wait_timeout(inner, Duration::from_millis(20))
            .expect("net lock");
    }
    on_ready();

    let wal_on = shared.wal.lock().expect("wal lock").is_some();

    if !recovered {
        // Virtual time starts: the protocol's one-shot start activation.
        let mut ctx = AsyncCtx::external(PartyId(me), n, 0.0, true);
        proto.on_start(&mut ctx);
        apply_parts(
            ctx,
            0.0,
            cfg,
            shared,
            &mut pending,
            &mut recorder,
            &mut out_lseq,
            &mut timer_seq,
            &mut retransmissions,
            true,
        );
    }

    loop {
        if start.elapsed() > cfg.wall_timeout {
            return Err(NetError::WallTimeout {
                elapsed_ms: start.elapsed().as_millis() as u64,
            });
        }

        // Drain shared state and snapshot the bound in ONE critical
        // section. The two must be atomic: a frame arriving between a
        // drain and a later bound computation would already have raised
        // its peer's watermark while still sitting undrained in the
        // inbox, letting the bound overtake its delivery time — and an
        // unrelated pending event could then be processed out of order.
        // With the atomic snapshot, every frame received after it has
        // `vdeliver` strictly above the snapshot watermark (FIFO links,
        // monotone sender clocks, delays > min_delay), hence above the
        // bound used for this processing pass.
        let mut frames = Vec::new();
        let mut drops = Vec::new();
        let transitions;
        let (bound, all_peers_finished, all_done_acked) = {
            let mut inner = shared.inner.lock().expect("net lock");
            if let Some(e) = inner.wal_error.take() {
                return Err(NetError::Io(format!("wal append: {e}")));
            }
            for j in (0..n).filter(|&j| j != me) {
                let p = &mut inner.peers[j];
                while let Some(m) = p.inbox.pop_front() {
                    frames.push(m);
                }
                if p.pending_drops > 0 {
                    drops.push((j, p.pending_drops));
                    p.pending_drops = 0;
                }
            }
            transitions = std::mem::take(&mut inner.transitions);
            let mut bound = f64::INFINITY;
            let mut finished = true;
            let mut acked = true;
            for j in (0..n).filter(|&j| j != me) {
                let p = &inner.peers[j];
                if !p.dead {
                    bound = bound.min(p.watermark);
                }
                finished &= p.done || p.dead;
                // A done peer that hung up has exited; it can no longer
                // acknowledge, and no longer needs to.
                acked &= p.done_acked || p.dead || (p.done && !p.connected);
            }
            (bound, finished, acked)
        };
        // All peers dead without an output: nothing can ever arrive and
        // the unbounded `bound` would let retransmission timers spin
        // the event loop to its cap. Fail fast instead.
        if bound.is_infinite() && !done_sent && n > 1 {
            return Err(NetError::Isolated {
                events: events_processed,
            });
        }

        let mut activity = !frames.is_empty() || !drops.is_empty();
        for (j, k) in drops {
            for _ in 0..k {
                recorder.record_drop(vnow, j, me);
            }
        }
        for tr in transitions {
            let kind = match tr {
                Transition::Reconnect { peer, attempt } => EventKind::NetReconnect {
                    party: me,
                    peer,
                    attempt,
                },
                Transition::BackoffExhausted { peer, attempts } => EventKind::NetBackoffExhausted {
                    party: me,
                    peer,
                    attempts,
                },
                Transition::DeadPeer { peer } => EventKind::NetDeadPeer { party: me, peer },
            };
            recorder.record_net(vnow, kind);
        }
        for mut m in frames {
            match P::Msg::from_bytes(&m.body) {
                Ok(payload) => pending.push(Reverse(Pend {
                    key: VKey {
                        time: m.vdeliver,
                        class: 0,
                        a: u64::from(m.from),
                        b: me as u64,
                        c: m.lseq,
                    },
                    what: LocalEv::Deliver(Envelope {
                        from: PartyId(m.from as usize),
                        to: PartyId(me),
                        payload,
                    }),
                    wire: wal_on.then(|| (m.vsend, std::mem::take(&mut m.body))),
                })),
                Err(_) => {
                    recorder.record_drop(vnow, m.from as usize, me);
                    shared
                        .inner
                        .lock()
                        .expect("net lock")
                        .stats
                        .rejected_malformed += 1;
                }
            }
        }

        // Process the safe prefix in the global VKey order.
        while pending.peek().is_some_and(|Reverse(p)| p.key.time <= bound) {
            let Reverse(mut ev) = pending.pop().expect("peeked");
            vnow = ev.key.time;
            events_processed += 1;
            if events_processed > cfg.max_events {
                return Err(NetError::Stalled {
                    events: events_processed,
                });
            }
            if debug_events {
                eprintln!(
                    "EV node={me} t={:.17} class={} a={} b={} c={}",
                    ev.key.time, ev.key.class, ev.key.a, ev.key.b, ev.key.c
                );
            }
            if wal_on {
                // Log the activation BEFORE it mutates the protocol:
                // a crash between the append and the activation just
                // replays one extra event. The raw body moves out of
                // the pending entry into the record: nothing reads it
                // after the append.
                let remote = match (&ev.what, ev.wire.take()) {
                    (LocalEv::Deliver(env), Some((vsend, body))) if env.from.index() != me => {
                        Some(WalRemote {
                            from: env.from.index(),
                            lseq: ev.key.c,
                            vsend_bits: vsend.to_bits(),
                            body,
                        })
                    }
                    _ => None,
                };
                append_wal(
                    shared,
                    &WalRecord::Event(WalEvent {
                        time_bits: ev.key.time.to_bits(),
                        class: ev.key.class,
                        a: ev.key.a,
                        b: ev.key.b,
                        c: ev.key.c,
                        remote,
                    }),
                )?;
            }
            let mut ctx = AsyncCtx::external(PartyId(me), n, vnow, true);
            match ev.what {
                LocalEv::Deliver(env) => proto.on_message(env, &mut ctx),
                LocalEv::Timer(token) => proto.on_timer(token, &mut ctx),
            }
            apply_parts(
                ctx,
                vnow,
                cfg,
                shared,
                &mut pending,
                &mut recorder,
                &mut out_lseq,
                &mut timer_seq,
                &mut retransmissions,
                true,
            );
            if wal_on && events_processed.is_multiple_of(MARK_INTERVAL) {
                append_wal(
                    shared,
                    &WalRecord::Mark(WalMark {
                        time_bits: vnow.to_bits(),
                        events: events_processed,
                        probe: probe(&proto),
                    }),
                )?;
            }
            activity = true;
        }

        // Output reached: tell every peer that has not heard it on its
        // current connection (a reconnect re-announces).
        if proto.output().is_some() {
            let mut inner = shared.inner.lock().expect("net lock");
            for j in (0..n).filter(|&j| j != me) {
                let wants = {
                    let p = &inner.peers[j];
                    p.connected && !p.done_notified
                };
                if wants {
                    send_ctl(FrameKind::Done, j, vnow, &mut inner);
                    inner.peers[j].done_notified = true;
                    activity = true;
                }
            }
            done_sent = true;
        }

        // Acknowledge received Dones, and run the control-plane
        // keepalive: re-announce the current promise to peers still
        // working and our Done to peers that have not acknowledged it.
        // Control frames have no retransmission layer under them; the
        // periodic re-send is what makes their loss survivable.
        {
            let mut inner = shared.inner.lock().expect("net lock");
            for j in (0..n).filter(|&j| j != me) {
                let owed = {
                    let p = &inner.peers[j];
                    p.connected && p.ack_owed
                };
                if owed {
                    send_ctl(FrameKind::DoneAck, j, vnow, &mut inner);
                    inner.peers[j].ack_owed = false;
                }
            }
            if last_keepalive.elapsed() >= Duration::from_millis(KEEPALIVE_MS) {
                last_keepalive = Instant::now();
                for j in (0..n).filter(|&j| j != me) {
                    let (up, acked, peer_done, promised) = {
                        let p = &inner.peers[j];
                        (
                            p.connected && !p.dead,
                            p.done_acked,
                            p.done,
                            p.last_promised,
                        )
                    };
                    if !up {
                        continue;
                    }
                    if done_sent && !acked {
                        send_ctl(FrameKind::Done, j, vnow, &mut inner);
                    } else if !peer_done && promised > 0.0 {
                        send_ctl(FrameKind::Null, j, promised, &mut inner);
                    }
                }
            }
        }

        if done_sent && all_peers_finished && all_done_acked {
            break;
        }

        // Promise the new bound: any future Data from us is strictly
        // beyond `bound + min_delay` (activations happen after `bound`,
        // delays strictly exceed `min_delay`).
        if bound.is_finite() {
            let promise = bound + cfg.min_delay;
            let mut inner = shared.inner.lock().expect("net lock");
            for j in (0..n).filter(|&j| j != me) {
                let wants = {
                    let p = &inner.peers[j];
                    p.connected && !p.dead && promise > p.last_promised
                };
                if wants {
                    send_ctl(FrameKind::Null, j, promise, &mut inner);
                    inner.peers[j].last_promised = promise;
                }
            }
        }

        // Liveness bookkeeping: promote silent links to dead, kick
        // reconnects for peers we dial.
        {
            let mut inner = shared.inner.lock().expect("net lock");
            for j in (0..n).filter(|&j| j != me) {
                let p = &mut inner.peers[j];
                if p.connected || p.dead {
                    continue;
                }
                // Endgame: every peer is finished and this one hung up
                // after sending its Done — it has exited. Redialing
                // would only be refused, and nothing is owed either way.
                if p.done && done_sent && all_peers_finished {
                    continue;
                }
                let down_for = p.down_since.map_or(Duration::ZERO, |t| t.elapsed());
                if down_for >= Duration::from_millis(cfg.reconnect.dead_after_ms) {
                    p.dead = true;
                    p.reconnecting = false;
                    inner.stats.dead_peers += 1;
                    inner.transitions.push(Transition::DeadPeer { peer: j });
                } else if j < me && !p.reconnecting {
                    p.reconnecting = true;
                    let sh = Arc::clone(shared);
                    let th_cfg = cfg.clone();
                    let handle = thread::spawn(move || reconnect_loop(&sh, &th_cfg, j));
                    shared.aux_handles.lock().expect("net lock").push(handle);
                }
            }
        }

        if !activity {
            let inner = shared.inner.lock().expect("net lock");
            let _ = shared
                .cv
                .wait_timeout(inner, Duration::from_millis(3))
                .expect("net lock");
        }
    }

    let mut stats = {
        let inner = shared.inner.lock().expect("net lock");
        inner.stats
    };
    stats.retransmissions = retransmissions;
    Ok(NodeReport {
        output: proto.output(),
        trace: recorder.into_trace(),
        stats,
        vtime: vnow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_respects_the_cap() {
        let p = ReconnectPolicy {
            attempts: 10,
            base_delay_ms: 25,
            max_delay_ms: 400,
            dead_after_ms: 1500,
        };
        assert_eq!(p.backoff(0), Duration::from_millis(25));
        assert_eq!(p.backoff(1), Duration::from_millis(50));
        assert_eq!(p.backoff(2), Duration::from_millis(100));
        assert_eq!(p.backoff(3), Duration::from_millis(200));
        assert_eq!(p.backoff(4), Duration::from_millis(400));
        assert_eq!(p.backoff(5), Duration::from_millis(400));
        // The shift is clamped: huge attempt counts neither overflow
        // nor wrap below the cap.
        assert_eq!(p.backoff(63), Duration::from_millis(400));
    }

    #[test]
    fn have_set_compacts_the_contiguous_prefix() {
        let mut h = HaveSet::default();
        assert!(!h.contains(0));
        h.insert(0);
        h.insert(2);
        h.insert(4);
        assert_eq!(h.prefix, 1);
        assert!(h.contains(0) && h.contains(2) && !h.contains(1) && !h.contains(3));
        h.insert(1);
        // 1 closes the gap; 2 is absorbed from extras, 3 is still open.
        assert_eq!(h.prefix, 3);
        assert_eq!(h.extras.iter().copied().collect::<Vec<_>>(), vec![4]);
        h.insert(3);
        assert_eq!(h.prefix, 5);
        assert!(h.extras.is_empty());
        // Re-inserting below the prefix is a no-op.
        h.insert(0);
        assert_eq!(h.prefix, 5);
    }

    /// A protocol that outputs immediately and never sends anything —
    /// the node's liveness machinery is the entire subject under test.
    struct InstantProto;

    impl AsyncProtocol for InstantProto {
        type Msg = u64;
        type Output = u8;

        fn on_start(&mut self, _ctx: &mut AsyncCtx<u64>) {}

        fn on_message(&mut self, _env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {}

        fn output(&self) -> Option<u8> {
            Some(1)
        }
    }

    /// Binds a fake peer-0 listener, answers exactly one handshake,
    /// then goes silent or deaf per the scenario.
    fn fake_peer_zero(secret: u64, cfg_fp: u64) -> (std::net::TcpListener, SocketAddr) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _ = (secret, cfg_fp);
        (listener, addr)
    }

    fn answer_one_handshake(listener: &std::net::TcpListener, secret: u64, cfg_fp: u64) {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let payload = read_one_frame(&mut stream).expect("node hello");
        let msg = WrapperMsg::decode(&payload).expect("decode hello");
        assert_eq!(msg.kind, FrameKind::Hello);
        let reply = WrapperMsg {
            kind: FrameKind::Hello,
            from: 0,
            to: 1,
            wire_seq: 0,
            lseq: 0,
            vsend: 0.0,
            vdeliver: 0.0,
            body: HelloBody {
                config_fp: cfg_fp,
                version: WIRE_VERSION,
                have_prefix: 0,
                have_extras: Vec::new(),
            }
            .to_bytes(),
            mac: 0,
        }
        .signed(pair_key(secret, 0, 1));
        stream.write_all(&frame(&reply.encode())).expect("reply");
        // Linger briefly so the node's first frames have a live socket,
        // then cut the connection.
        thread::sleep(Duration::from_millis(60));
        let _ = stream.shutdown(Shutdown::Both);
    }

    fn scripted_disconnect_trace(policy: ReconnectPolicy) -> (Trace, NetStats) {
        let secret = 0x5eed;
        let cfg_fp = 0xfeed_f00d;
        let (peer_listener, peer_addr) = fake_peer_zero(secret, cfg_fp);
        let my_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let my_addr = my_listener.local_addr().expect("addr");

        let fake = thread::spawn(move || {
            answer_one_handshake(&peer_listener, secret, cfg_fp);
            // Dropping the listener here makes every reconnect dial
            // fail fast with a refusal instead of a slow timeout.
            drop(peer_listener);
        });

        let mut cfg = NodeConfig::new(1, 2, 0, vec![peer_addr, my_addr], secret, cfg_fp, 7);
        cfg.reconnect = policy;
        cfg.handshake_timeout = Duration::from_secs(5);
        cfg.wall_timeout = Duration::from_secs(20);
        let report = run_node(&cfg, my_listener, InstantProto, || {}).expect("node run");
        fake.join().expect("fake peer");
        assert_eq!(report.output, Some(1));
        (report.trace, report.stats)
    }

    #[test]
    fn a_scripted_disconnect_traces_reconnects_then_exhaustion_then_death() {
        let (trace, stats) = scripted_disconnect_trace(ReconnectPolicy {
            attempts: 3,
            base_delay_ms: 5,
            max_delay_ms: 20,
            dead_after_ms: 60_000,
        });
        let fault_events: Vec<&EventKind> = trace
            .events
            .iter()
            .map(|e| &e.kind)
            .filter(|k| {
                matches!(
                    k,
                    EventKind::NetReconnect { .. }
                        | EventKind::NetBackoffExhausted { .. }
                        | EventKind::NetDeadPeer { .. }
                )
            })
            .collect();
        // Exactly: one reconnect attempt per policy slot, then the
        // exhaustion marker, then the dead-peer declaration.
        assert_eq!(fault_events.len(), 5, "events: {fault_events:?}");
        for (i, ev) in fault_events.iter().take(3).enumerate() {
            assert_eq!(
                **ev,
                EventKind::NetReconnect {
                    party: 1,
                    peer: 0,
                    attempt: i
                }
            );
        }
        assert_eq!(
            *fault_events[3],
            EventKind::NetBackoffExhausted {
                party: 1,
                peer: 0,
                attempts: 3
            }
        );
        assert_eq!(
            *fault_events[4],
            EventKind::NetDeadPeer { party: 1, peer: 0 }
        );
        assert_eq!(stats.dead_peers, 1);
        assert_eq!(stats.reconnects, 0);
    }

    #[test]
    fn the_dead_peer_deadline_fires_without_waiting_for_backoff_exhaustion() {
        let (trace, stats) = scripted_disconnect_trace(ReconnectPolicy {
            attempts: 100,
            base_delay_ms: 200,
            max_delay_ms: 200,
            dead_after_ms: 40,
        });
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::NetDeadPeer { party: 1, peer: 0 }));
        assert!(!trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::NetBackoffExhausted { .. })));
        assert_eq!(stats.dead_peers, 1);
    }
}
