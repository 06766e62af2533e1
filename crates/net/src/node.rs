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
//! silence-evidence machinery above the transport. The shell's threads
//! block on sockets, queues and the node's condvar, never on a sleep.
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

use std::fmt;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aa_trace::TraceRecord;
use async_net::AsyncProtocol;

use crate::codec::WireCodec;
use crate::core::{DataOut, Driver, Event, LinkId, LinkTable, Outbox, Reject};
use crate::frame::{FrameBuffer, MAX_FRAME, PREFIX_LEN};
use crate::wal::{self, WalHeader, WalRecord, WalWriter};
use crate::wire::{HelloBody, WIRE_VERSION};

/// Consecutive rejected frames after which a connection is cut. A
/// corrupted byte can desynchronize the frame layer, turning the rest of
/// the stream into garbage; cutting after a burst lets the reconnect +
/// gap-resend machinery re-establish a clean link. The threshold keeps
/// isolated forged/replayed frames (an *attack*, not corruption) from
/// tearing down an otherwise healthy connection.
const REJECT_CUT_THRESHOLD: u32 = 8;

/// Control-plane keepalive period. Null promises and Done notices are
/// fire-and-forget; on a live-but-lossy link (chaos corruption without a
/// reset) a lost one is never retransmitted by `Reliable`, which covers
/// Data only. Every period the main loop tells the link table the
/// keepalive is due, and it re-announces the current promise to peers
/// still working and our Done to peers that have not acknowledged it,
/// so no single lost control frame can stall anyone.
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

    pub(crate) fn wal_header(&self) -> WalHeader {
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
    /// Data, Done and DoneAck frames sent (gap-resends included; Hello
    /// and Null frames are not).
    pub frames_sent: u64,
    /// Authenticated frames received (all kinds).
    pub frames_received: u64,
    /// Null (virtual-time promise) frames sent.
    pub nulls_sent: u64,
    /// Framed bytes (length prefix + envelope) enqueued to writers, Null
    /// frames included, Hellos not.
    pub bytes_sent: u64,
    /// Framed bytes of the authenticated frames received.
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
    /// Retained frames evicted past the per-link retention cap.
    pub retain_evicted: u64,
}

/// What a completed (or degraded-but-terminated) node run produced.
#[derive(Clone, Debug)]
pub struct NodeReport<O> {
    /// The protocol's output, if it decided.
    pub output: Option<O>,
    /// What this node recorded (its own proto events + transport drops
    /// and notes), packed as it was written — tens of bytes per proto
    /// event. [`TraceRecord::to_trace`] expands it into the canonical
    /// trace [`aa_trace::merge_traces`] takes; a caller that never reads
    /// the trace never pays for one.
    pub trace: TraceRecord,
    /// Transport counters.
    pub stats: NetStats,
    /// Final virtual time.
    pub vtime: f64,
}

/// The shell's end of one link: what the core's `connected` flag stands
/// for in sockets and channels. Replaced whole on link-up, emptied on
/// link-down, so a reconnecting peer costs no descriptor per attempt.
#[derive(Default)]
struct LinkSlot {
    /// The writer thread's queue.
    tx: Option<mpsc::Sender<Vec<u8>>>,
    /// A clone of the connection, kept to unblock its reader.
    stream: Option<TcpStream>,
    down_since: Option<Instant>,
}

impl LinkSlot {
    /// Closes the connection: the writer drains its queue and exits, the
    /// reader's blocking read returns.
    fn close(&mut self) {
        self.tx = None;
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// Everything behind the node's one lock.
struct Inner {
    table: LinkTable,
    /// Scratch the table's methods fill and the critical section that
    /// filled it empties ([`Shared::flush`]; `drive_node`'s Data path).
    out: Outbox,
    links: Vec<LinkSlot>,
    /// First WAL append failure (surfaced as a run error).
    wal_error: Option<String>,
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// The acceptor thread and the address that wakes it from `accept()`.
    acceptor: Mutex<Option<(JoinHandle<()>, SocketAddr)>>,
    /// The write-ahead log, when the run is durable.
    /// Lock order: `inner` before `wal`, never the reverse.
    wal: Mutex<Option<WalWriter>>,
    /// Writer threads: joined *before* the sockets are torn down so
    /// queued frames (the final Done) still reach the wire.
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Reader, handshake and reconnect threads: unblocked by the socket
    /// shutdown and the shutdown flag, joined last.
    aux_handles: Mutex<Vec<JoinHandle<()>>>,
    id: LinkId,
}

impl Shared {
    fn new(cfg: &NodeConfig, wal: Option<WalWriter>) -> Arc<Shared> {
        let id = LinkId::of(cfg);
        Arc::new(Shared {
            inner: Mutex::new(Inner {
                table: LinkTable::new(id),
                out: Outbox::default(),
                links: (0..cfg.n).map(|_| LinkSlot::default()).collect(),
                wal_error: None,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            acceptor: Mutex::new(None),
            wal: Mutex::new(wal),
            writer_handles: Mutex::new(Vec::new()),
            aux_handles: Mutex::new(Vec::new()),
            id,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("net lock")
    }

    /// Carries out what the table just decided, inside the critical
    /// section that decided it: the log first, then the wire (ordering
    /// 3, see [`Outbox`]). A send error is surfaced by the writer thread.
    fn flush(&self, inner: &mut Inner) {
        self.flush_log(inner);
        for (peer, bytes) in inner.out.frames.drain(..) {
            if let Some(tx) = &inner.links[peer].tx {
                let _ = tx.send(bytes);
            }
        }
    }

    /// The log half of [`Shared::flush`].
    fn flush_log(&self, inner: &mut Inner) {
        if inner.out.log.is_empty() {
            return;
        }
        let mut wal = self.wal.lock().expect("wal lock");
        for rec in inner.out.log.drain(..) {
            if let Some(Err(e)) = wal.as_mut().map(|w| w.append(&rec)) {
                inner.wal_error.get_or_insert(e.to_string());
            }
        }
    }

    /// Appends one record to the WAL, if one is attached.
    fn append_wal(&self, rec: &WalRecord) -> Result<(), NetError> {
        match self.wal.lock().expect("wal lock").as_mut() {
            Some(w) => w
                .append(rec)
                .map_err(|e| NetError::Io(format!("wal append: {e}"))),
            None => Ok(()),
        }
    }
}

/// Keeps a helper thread's handle for the final join, first joining the
/// ones that already finished — the list tracks live threads, not every
/// thread the run ever started.
fn park(handles: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut hs = handles.lock().expect("net lock");
    let mut i = 0;
    while i < hs.len() {
        if hs[i].is_finished() {
            let _ = hs.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    hs.push(handle);
}

/// Reads exactly one frame from `stream` (which must have a read
/// timeout set), failing on EOF, timeout, or framing errors.
///
/// Ordering 4: this must consume EXACTLY the frame's bytes, never more.
/// The peer's first protocol frames can already sit behind the Hello in
/// the socket buffer (the peer registers the link the moment its Hello
/// response is written, and may start the protocol before we finish
/// reading it). A buffered read here would swallow those frames and
/// silently lose them — forcing retransmissions that shift the whole
/// delay schedule.
fn read_one_frame(stream: &mut TcpStream) -> Result<Vec<u8>, NetError> {
    let mut prefix = [0u8; PREFIX_LEN];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(NetError::Handshake(format!(
            "oversized handshake frame ({len} bytes)"
        )));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes our Hello to `stream`; its `wire_seq` reservation is logged
/// first.
fn write_hello(shared: &Shared, peer: usize, stream: &mut TcpStream) -> Result<(), NetError> {
    let bytes = {
        let mut guard = shared.lock();
        let inner = &mut *guard;
        let bytes = inner.table.hello(peer, &mut inner.out);
        shared.flush(inner);
        bytes
    };
    Ok(stream.write_all(&bytes)?)
}

/// Reads and authenticates the peer's Hello (MAC off the lock, replay
/// filter under it).
fn read_hello(
    shared: &Shared,
    stream: &mut TcpStream,
    expected_from: Option<usize>,
) -> Result<(usize, HelloBody), NetError> {
    let payload = read_one_frame(stream)?;
    let (from, wire_seq, hello) = shared.id.open_hello(&payload, expected_from)?;
    shared.lock().table.admit_hello(from, wire_seq)?;
    Ok((from, hello))
}

/// Wires a freshly handshaken stream into the node: the table marks the
/// link up and queues the gap-resend, the slot takes the new sender and
/// stream (closing a connection it replaces), and the writer and reader
/// threads start.
fn register_connection(
    shared: &Arc<Shared>,
    peer: usize,
    stream: TcpStream,
    peer_hello: &HelloBody,
) -> Result<(), NetError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(None)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let reader_stream = stream.try_clone()?;
    let writer_stream = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let epoch = {
        let mut guard = shared.lock();
        // Checked under the lock teardown takes to close the slots, so a
        // link is either refused here or closed there.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::Handshake("node shutting down".into()));
        }
        let inner = &mut *guard;
        let epoch = inner.table.link_up(peer, peer_hello, &mut inner.out);
        inner.links[peer].close();
        inner.links[peer] = LinkSlot {
            tx: Some(tx),
            stream: Some(stream),
            down_since: None,
        };
        // Still inside the critical section: the gap-resend is in the
        // new queue before anyone else can see the link (ordering 2).
        shared.flush(inner);
        epoch
    };
    let sh = Arc::clone(shared);
    let writer = thread::spawn(move || writer_loop(&sh, peer, epoch, writer_stream, &rx));
    let sh = Arc::clone(shared);
    let reader = thread::spawn(move || reader_loop(&sh, peer, epoch, reader_stream));
    park(&shared.writer_handles, writer);
    park(&shared.aux_handles, reader);
    shared.cv.notify_all();
    Ok(())
}

/// A reader or writer of connection `epoch` saw it die.
fn link_down(shared: &Shared, peer: usize, epoch: u64) {
    let mut inner = shared.lock();
    if inner.table.link_down(peer, epoch) {
        let slot = &mut inner.links[peer];
        slot.close();
        slot.down_since = Some(Instant::now());
    }
    drop(inner);
    shared.cv.notify_all();
}

fn writer_loop(
    shared: &Shared,
    peer: usize,
    epoch: u64,
    mut stream: TcpStream,
    rx: &mpsc::Receiver<Vec<u8>>,
) {
    while let Ok(bytes) = rx.recv() {
        if stream.write_all(&bytes).is_err() {
            link_down(shared, peer, epoch);
            return;
        }
    }
    let _ = stream.flush();
}

fn reader_loop(shared: &Shared, peer: usize, epoch: u64, mut stream: TcpStream) {
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
                    if handle_frame(shared, peer, &payload) {
                        bad_streak = 0;
                        continue;
                    }
                    bad_streak += 1;
                    if bad_streak < REJECT_CUT_THRESHOLD {
                        continue;
                    }
                    // The stream has desynchronized from the frame layer
                    // (corruption below us).
                }
                Ok(None) => break,
                // Oversized prefix: the stream is garbage.
                Err(_) => {
                    shared.lock().table.reject(peer, Reject::Malformed);
                    shared.cv.notify_all();
                }
            }
            // Cut the link and let reconnect + gap-resend rebuild a
            // clean one.
            let _ = stream.shutdown(Shutdown::Both);
            break 'conn;
        }
    }
    link_down(shared, peer, epoch);
}

/// Authenticates (off the lock) and sorts (under it) one incoming
/// frame. Rejected frames are counted and traced, never delivered.
/// Returns whether the frame was accepted.
fn handle_frame(shared: &Shared, peer: usize, payload: &[u8]) -> bool {
    let accepted = match shared.id.open_frame(peer, payload) {
        Ok(msg) => shared.lock().table.accept(peer, msg, payload.len()),
        Err(why) => {
            shared.lock().table.reject(peer, why);
            false
        }
    };
    shared.cv.notify_all();
    accepted
}

/// Dials `peer`, performs the mutual Hello exchange, and registers the
/// connection.
///
/// `patience` is how long to wait for the peer's Hello response: the
/// initial bring-up passes `min(handshake budget, 2 s)` per attempt,
/// reconnects mid-run 2 s. Giving up on a half-open handshake is safe
/// since wire v2 — if the peer registered the connection anyway and
/// sent its first protocol frames into the dead socket, the redial
/// re-negotiates with the have-set and those frames are gap-resent
/// with their original schedule.
fn dial_handshake(
    shared: &Arc<Shared>,
    cfg: &NodeConfig,
    peer: usize,
    patience: Duration,
) -> Result<(), NetError> {
    let mut stream = TcpStream::connect_timeout(&cfg.peers[peer], Duration::from_millis(500))?;
    write_hello(shared, peer, &mut stream)?;
    stream.set_read_timeout(Some(patience))?;
    let (_, peer_hello) = read_hello(shared, &mut stream, Some(peer))?;
    register_connection(shared, peer, stream, &peer_hello)
}

/// One accepted connection: identify the dialer by its Hello, answer
/// with ours, register.
fn accept_handshake(shared: &Arc<Shared>, mut stream: TcpStream) -> Result<(), NetError> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let (peer, peer_hello) = read_hello(shared, &mut stream, None)?;
    if peer < shared.id.me {
        // Canonical direction: the higher index dials the lower.
        return Err(NetError::Handshake(format!(
            "peer {peer} must accept our dial, not dial us"
        )));
    }
    write_hello(shared, peer, &mut stream)?;
    register_connection(shared, peer, stream, &peer_hello)
}

/// Background reconnect attempts for a dialed peer; declares it dead
/// when the policy is exhausted.
fn reconnect_loop(shared: &Arc<Shared>, cfg: &NodeConfig, peer: usize) {
    let cv = &shared.cv;
    let running = |_: &mut Inner| !shared.shutdown.load(Ordering::SeqCst);
    for attempt in 0..cfg.reconnect.attempts {
        // On the condvar, not a sleep: teardown's notify ends the backoff.
        let _ = cv.wait_timeout_while(shared.lock(), cfg.reconnect.backoff(attempt), running);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared
            .lock()
            .table
            .reconnect_attempt(peer, attempt as usize);
        shared.cv.notify_all();
        if dial_handshake(shared, cfg, peer, Duration::from_secs(2)).is_ok() {
            shared.lock().table.reconnected(peer);
            shared.cv.notify_all();
            return;
        }
    }
    shared
        .lock()
        .table
        .reconnect_exhausted(peer, cfg.reconnect.attempts as usize);
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
/// written by the JSON-era payload format, naming a party outside the
/// run, or diverged) and [`NetError::Io`] when an append fails mid-run.
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
    let (wal, replay) = open_wal(cfg, durability)?;
    let shared = Shared::new(cfg, wal);
    let result = drive_node(cfg, &shared, listener, proto, replay, &probe, on_ready);
    teardown(&shared);
    result
}

/// Opens the run's WAL: a fresh log, or — recovering — the existing
/// one reopened for append past its valid prefix, with the records to
/// replay.
fn open_wal(
    cfg: &NodeConfig,
    durability: Option<&Durability>,
) -> Result<(Option<WalWriter>, Option<Vec<WalRecord>>), NetError> {
    let Some(d) = durability else {
        return Ok((None, None));
    };
    let header = cfg.wal_header();
    let existing = d.recover && std::fs::metadata(&d.wal_path).is_ok_and(|m| m.len() > 0);
    if !existing {
        return Ok((Some(WalWriter::create(&d.wal_path, &header)?), None));
    }
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
    let writer = WalWriter::append_to(&d.wal_path, scan.valid_len)?;
    Ok((Some(writer), Some(scan.records)))
}

/// Lifetime acceptor: serves both the initial handshakes from higher
/// peers and any re-dials after a drop. It blocks in `accept()` until
/// [`teardown`] dials it; an unspecified IP is dialed on loopback.
fn spawn_acceptor(shared: &Arc<Shared>, listener: TcpListener) -> Result<(), NetError> {
    let mut wake = listener.local_addr()?;
    match &mut wake {
        SocketAddr::V4(a) if a.ip().is_unspecified() => a.set_ip(Ipv4Addr::LOCALHOST),
        SocketAddr::V6(a) if a.ip().is_unspecified() => a.set_ip(Ipv6Addr::LOCALHOST),
        _ => {}
    }
    let sh = Arc::clone(shared);
    let handle = thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            if sh.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Handshake concurrently: a serial acceptor would block
            // peer k's Hello behind peer j's, long enough for k to give
            // up a connection we then register — and the first frames
            // written into it are lost.
            let shared = Arc::clone(&sh);
            let handle = thread::spawn(move || {
                let _ = accept_handshake(&shared, stream);
            });
            park(&sh.aux_handles, handle);
        }
    });
    *shared.acceptor.lock().expect("net lock") = Some((handle, wake));
    Ok(())
}

/// The acceptor goes first (woken by one dial, detached if that fails).
/// Then ordering 6: close the writer queues and join the writers, so
/// queued frames (the final Done) are flushed; only then shut the
/// sockets down to unblock the readers, and join everything else.
fn teardown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    if let Some((acceptor, wake)) = shared.acceptor.lock().expect("net lock").take() {
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = acceptor.join();
        }
    }
    for slot in &mut shared.lock().links {
        slot.tx = None;
    }
    shared.cv.notify_all();
    let writers = std::mem::take(&mut *shared.writer_handles.lock().expect("net lock"));
    for h in writers {
        let _ = h.join();
    }
    for slot in &mut shared.lock().links {
        slot.close();
    }
    let aux = std::mem::take(&mut *shared.aux_handles.lock().expect("net lock"));
    for h in aux {
        let _ = h.join();
    }
}

/// Initial link bring-up: dial lower peers (retrying while the cluster
/// boots), wait for higher peers to dial us. Two robustness rules keep
/// a lossy (chaos) network from burning the budget: per-attempt
/// patience is bounded well below the whole budget, and a link that
/// came up but dropped again while we wait for the rest is redialed —
/// the main loop's reconnect machinery is not running yet, so the
/// bring-up must do its own healing.
fn bring_up(cfg: &NodeConfig, shared: &Arc<Shared>, start: Instant) -> Result<(), NetError> {
    let attempt_patience = cfg.handshake_timeout.min(Duration::from_secs(2));
    loop {
        for peer in 0..cfg.me {
            if !shared.lock().table.connected(peer) {
                // A failed dial is retried on the next pass.
                let _ = dial_handshake(shared, cfg, peer, attempt_patience);
            }
        }
        let inner = shared.lock();
        let up = inner.table.links_up();
        if up == cfg.n - 1 {
            return Ok(());
        }
        if start.elapsed() >= cfg.handshake_timeout {
            return Err(NetError::Handshake(format!(
                "only {up}/{} links up",
                cfg.n - 1
            )));
        }
        let _ = shared
            .cv
            .wait_timeout(inner, Duration::from_millis(20))
            .expect("net lock");
    }
}

/// The virtual-time main loop (see the module docs for the invariants):
/// replay, the acceptor, bring-up, then drain → activate the safe prefix
/// → control plane → liveness, until the table says the run is over.
fn drive_node<P, R>(
    cfg: &NodeConfig,
    shared: &Arc<Shared>,
    listener: TcpListener,
    proto: P,
    replay: Option<Vec<WalRecord>>,
    probe: &dyn Fn(&P) -> u64,
    on_ready: R,
) -> Result<NodeReport<P::Output>, NetError>
where
    P: AsyncProtocol,
    P::Msg: WireCodec,
    R: FnOnce(),
{
    let start = Instant::now();
    let durable = shared.wal.lock().expect("wal lock").is_some();
    let mut driver = Driver::new(cfg, proto, durable);
    // One live activation's message to a remote peer. Its reservation is
    // logged under the lock, but the frame is queued after the release:
    // the send wakes the writer thread, and a wake-up taken with the
    // node's lock held parks every reader of this node behind it.
    let mut wire = |d: DataOut| {
        let mut guard = shared.lock();
        let inner = &mut *guard;
        inner.table.send_data(d, &mut inner.out);
        shared.flush_log(inner);
        let frame = inner.out.frames.pop();
        let send = frame.and_then(|(peer, bytes)| Some((inner.links[peer].tx.clone()?, bytes)));
        drop(guard);
        if let Some((tx, bytes)) = send {
            let _ = tx.send(bytes);
        }
    };

    // Ordering 5: replay rebuilds what a Hello reads before the acceptor
    // exists (dialers wait in the kernel backlog).
    let recovered = replay.is_some();
    if let Some(records) = replay {
        driver.replay(records, &mut shared.lock().table, probe)?;
    }
    spawn_acceptor(shared, listener)?;
    bring_up(cfg, shared, start)?;
    on_ready();
    if !recovered {
        // Virtual time starts: the protocol's one-shot start activation.
        driver.activate(0.0, Event::Start, &mut wire);
    }

    let dead_after = Duration::from_millis(cfg.reconnect.dead_after_ms);
    let mut last_keepalive = start;
    loop {
        if start.elapsed() > cfg.wall_timeout {
            return Err(NetError::WallTimeout {
                elapsed_ms: start.elapsed().as_millis() as u64,
            });
        }
        let drained = {
            let mut inner = shared.lock();
            if let Some(e) = inner.wal_error.take() {
                return Err(NetError::Io(format!("wal append: {e}")));
            }
            inner.table.drain()
        };
        let snap = drained.snap;
        let mut activity = drained.has_input();
        let undecodable = driver.absorb(drained)?;
        if undecodable > 0 {
            shared.lock().table.stats.rejected_malformed += undecodable;
        }

        let mut log = |rec: WalRecord| shared.append_wal(&rec);
        activity |= driver.run_ready(snap, probe, &mut log, &mut wire)?;

        let keepalive_due = last_keepalive.elapsed() >= Duration::from_millis(KEEPALIVE_MS);
        if keepalive_due {
            last_keepalive = Instant::now();
        }
        {
            let mut guard = shared.lock();
            let inner = &mut *guard;
            let (vnow, output_ready) = (driver.vnow(), driver.has_output());
            let ctl = inner
                .table
                .control(vnow, output_ready, keepalive_due, snap, &mut inner.out);
            shared.flush(inner);
            if ctl.finished {
                break;
            }
            activity |= ctl.announced;

            // Promote silent links to dead, kick reconnects for peers we dial.
            let links = &inner.links;
            let expired = |j: usize| {
                let down_for = links[j].down_since.map_or(Duration::ZERO, |t| t.elapsed());
                down_for >= dead_after
            };
            for j in inner.table.liveness(snap.all_finished, expired) {
                let sh = Arc::clone(shared);
                let th_cfg = cfg.clone();
                let handle = thread::spawn(move || reconnect_loop(&sh, &th_cfg, j));
                park(&shared.aux_handles, handle);
            }
        }
        if !activity {
            // A critical section of its own, not the guard above carried
            // into the wait: carried over, no wake-up is ever missed, the
            // loop turns more often and a run sends more Null frames.
            let _ = shared
                .cv
                .wait_timeout(shared.lock(), Duration::from_millis(3))
                .expect("net lock");
        }
    }
    let stats = shared.lock().table.stats;
    Ok(driver.finish(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame;
    use crate::mac::pair_key;
    use crate::wire::{FrameKind, WrapperMsg};
    use aa_trace::EventKind;
    use async_net::AsyncCtx;
    use sim_net::Envelope;

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

    /// Fake peer 0 answers one handshake from node 1 (its Hello carrying
    /// `wire_seq`, which the node's replay filter wants increasing),
    /// lingers, then cuts the connection.
    fn answer_one_handshake(listener: &TcpListener, secret: u64, cfg_fp: u64, wire_seq: u64) {
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
            wire_seq,
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

    /// The shell holds exactly one registered stream and one writer
    /// queue per live link — `live` of them.
    fn assert_one_slot_per_live_link(shared: &Shared, live: usize) {
        let inner = shared.lock();
        let streams = inner.links.iter().filter(|l| l.stream.is_some()).count();
        let queues = inner.links.iter().filter(|l| l.tx.is_some()).count();
        assert_eq!(
            (streams, queues, inner.table.links_up()),
            (live, live, live)
        );
    }

    /// Runs node 1 of 2 against a fake peer 0 that answers `handshakes`
    /// handshakes, cutting each connection, then stops listening.
    fn scripted_disconnect_trace(
        policy: ReconnectPolicy,
        handshakes: u64,
    ) -> (aa_trace::Trace, NetStats) {
        let secret = 0x5eed;
        let cfg_fp = 0xfeed_f00d;
        let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer_addr = peer_listener.local_addr().expect("addr");
        let my_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let my_addr = my_listener.local_addr().expect("addr");

        let fake = thread::spawn(move || {
            for k in 0..handshakes {
                answer_one_handshake(&peer_listener, secret, cfg_fp, k);
            }
            // Dropping the listener here makes every further reconnect
            // dial fail fast with a refusal instead of a slow timeout.
            drop(peer_listener);
        });

        let mut cfg = NodeConfig::new(1, 2, 0, vec![peer_addr, my_addr], secret, cfg_fp, 7);
        cfg.reconnect = policy;
        cfg.handshake_timeout = Duration::from_secs(5);
        cfg.wall_timeout = Duration::from_secs(20);
        // `run_node`, opened up to look at the slots before teardown.
        let shared = Shared::new(&cfg, None);
        let at_ready = Arc::clone(&shared);
        let result = drive_node(
            &cfg,
            &shared,
            my_listener,
            InstantProto,
            None,
            &|_| 0,
            move || {
                assert_one_slot_per_live_link(&at_ready, 1);
            },
        );
        // Every forced reconnect replaced the slot and every cut emptied
        // it: the peer is dead now, and nothing is left registered.
        assert_one_slot_per_live_link(&shared, 0);
        teardown(&shared);
        let report = result.expect("node run");
        fake.join().expect("fake peer");
        assert_eq!(report.output, Some(1));
        (report.trace.to_trace(), report.stats)
    }

    #[test]
    fn a_scripted_disconnect_traces_reconnects_then_exhaustion_then_death() {
        let policy = ReconnectPolicy {
            attempts: 3,
            base_delay_ms: 5,
            max_delay_ms: 20,
            dead_after_ms: 60_000,
        };
        let (trace, stats) = scripted_disconnect_trace(policy, 1);
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

        // Two forced reconnects before the peer goes away for good: the
        // slot invariant (checked inside) holds, and both are counted.
        let (_, stats) = scripted_disconnect_trace(policy, 3);
        assert_eq!((stats.reconnects, stats.dead_peers), (2, 1));
    }

    #[test]
    fn the_dead_peer_deadline_fires_without_waiting_for_backoff_exhaustion() {
        let started = Instant::now();
        let (trace, stats) = scripted_disconnect_trace(
            ReconnectPolicy {
                attempts: 100,
                base_delay_ms: 30_000,
                max_delay_ms: 30_000,
                dead_after_ms: 40,
            },
            1,
        );
        // Teardown included: the reconnect thread is parked in its first
        // 30 s backoff when the run ends, and teardown's notify ends it.
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
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

    /// `treeaa serve --bind 0.0.0.0:0` hands the node such a listener:
    /// teardown's wake-up dial must reach it through loopback.
    #[test]
    fn teardown_wakes_an_acceptor_on_the_unspecified_address() {
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cfg = NodeConfig::new(0, 1, 0, vec![addr], 0x5eed, 0xfeed_f00d, 7);
        let node_cfg = cfg.clone();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(run_node(&node_cfg, listener, InstantProto, || {}).map(|r| r.output));
        });
        // The watchdog: a run whose teardown hangs on its acceptor fails
        // here instead of wedging the suite.
        let output = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("run_node returned within 5 s");
        assert_eq!(output.expect("node run"), Some(1));

        // Linux also routes a dial to 0.0.0.0 to loopback; hosts that
        // refuse one need the mapping, so the wake address is checked too.
        let shared = Shared::new(&cfg, None);
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind");
        spawn_acceptor(&shared, listener).expect("acceptor");
        let wake = shared
            .acceptor
            .lock()
            .expect("net lock")
            .as_ref()
            .map(|a| a.1);
        assert!(wake.is_some_and(|a| a.ip().is_loopback()), "{wake:?}");
        teardown(&shared);
    }
}
