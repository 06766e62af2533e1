//! A real TCP node driving an [`AsyncProtocol`] deterministically.
//!
//! Each node owns one OS process (or thread, in the loopback cluster),
//! talks to its peers over plain `TcpStream`s carrying MAC-authenticated
//! [`WrapperMsg`](crate::wire::WrapperMsg) envelopes, and replays — bit for bit — the schedule the
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
//!   processed in the global [`VKey`](async_net::VKey) order, but only while their time is
//!   at most `bound = min_j L_j` — so no event can ever arrive "in the
//!   past", and the node's activation order equals the reference
//!   schedule restricted to this party.
//! * After draining, the node sends the pass's Data, then promises
//!   `bound + min_delay` to its peers: the pass's Data may be due
//!   sooner, but any later activation happens strictly after `bound`,
//!   so any later Data has `vdeliver > bound + min_delay`. Mutual
//!   promises advance idle nodes by `min_delay` per exchange, which is
//!   what lets silence timers fire even when crashed peers send nothing.
//!
//! Termination: a node that produced its output broadcasts a Done frame
//! and keeps cooperating (acks, echo relays) until every peer is done or
//! dead, then tears the links down.
//!
//! Each link has one thread for its lifetime: `i` dials every `j < i`
//! from a thread per lower peer that dials, handshakes, reads the
//! connection until it dies and redials after a capped backoff; a
//! higher peer's connection is handshaken and read by the thread that
//! accepted it. A connection is read, its Hello included, through one
//! [`FrameBuffer`], and ended by its writer, which shuts the socket
//! down behind the last frame queued. A peer whose link has been down
//! for the policy's dead-after period — on either end — is declared
//! dead and excluded from the bound, leaving protocol-level degradation
//! to the silence-evidence machinery above the transport. The shell's
//! threads block on sockets, queues and the node's condvar, never on a
//! sleep. A pass's frames to a peer reach its writer as one batch,
//! written with vectored writes.
//!
//! # Durability and crash recovery
//!
//! With a [`Durability`] attached ([`run_node_durable`]), the main loop
//! owns the [`crate::wal`] log and appends to it alone: the run's
//! header before any socket exists, each processed event (with the raw
//! payload for remote deliveries) before it activates the protocol, and
//! periodic integrity marks carrying a caller-supplied state probe.
//! Appends are flushed to the OS, not `fsync`ed: the log survives the
//! process being killed (the page cache outlives it), not power loss. A
//! SIGKILLed node restarted with `recover` replays the log through a
//! fresh protocol instance — deterministically reconstructing its
//! pending heap, per-link `lseq` ordinals, retention buffers, and trace
//! — then re-handshakes and resumes mid-protocol without perturbing the
//! virtual-time schedule.
//!
//! Two transport mechanisms make the rejoin loss-free:
//!
//! * **Incarnations** keep the recovered node's frames from being
//!   mistaken for replays by peers whose filters already saw pre-crash
//!   sequence numbers: a node whose log holds `k` headers is
//!   incarnation `k`, appends its header again, and numbers the frames
//!   of every link from `k << 40` on.
//! * **Handshake gap-resend**: every Hello carries the set of Data
//!   `lseq` ordinals its sender has received on the reverse link, and
//!   both sides of a (re)connect answer by resending exactly the
//!   retained frames the other side is missing — with fresh `wire_seq`
//!   but the *original* `lseq`/`vsend`/`vdeliver`, so the delivery
//!   schedule is preserved event for event. Duplicates (a frame both
//!   retained and already delivered) are dropped by a per-link dedup
//!   set without ever touching the replay filter.

use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aa_trace::TraceRecord;
use async_net::AsyncProtocol;

use crate::codec::WireCodec;
use crate::core::{reincarnate, DataOut, Driver, Event, LinkId, LinkTable, Outbox, Reject};
use crate::frame::{FrameBuffer, FrameError};
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
    /// Delay before the first retry; doubles per attempt.
    pub base_delay_ms: u64,
    /// Cap on the per-attempt delay.
    pub max_delay_ms: u64,
    /// A peer whose link has been down this long is declared dead, on
    /// the dialing and the accepting end alike.
    pub dead_after_ms: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
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

    /// A policy patient enough to sit through a supervised restart: a
    /// dead-peer deadline comfortably above the supervisor's worst-case
    /// backoff-and-replay window.
    #[must_use]
    pub fn patient() -> Self {
        ReconnectPolicy {
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
    /// missing file, or one without a complete record, falls back to a
    /// fresh start, so a supervisor can pass `recover` unconditionally.
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
    /// Frame batches handed to the kernel: one per peer per pass that sends it any.
    pub writes: u64,
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
    /// Successful redials: links to a lower peer up again after the
    /// first.
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
    /// Handshakes refused at either end: another configuration or wire
    /// version, a replayed Hello, a hostile first frame, no Hello before
    /// the connection ended or the wait ran out. A failed dial is not
    /// one, nor a connection turned away during teardown.
    pub refused_handshakes: u64,
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

/// One pass's frames to one peer, in order: a writer's unit of work.
type Batch = Vec<Vec<u8>>;

/// The shell's end of one link: what the core's `connected` flag stands
/// for in sockets and channels. Replaced whole on link-up, emptied on
/// link-down, so a reconnecting peer costs no descriptor per attempt.
#[derive(Default)]
struct LinkSlot {
    /// The writer thread's queue.
    tx: Option<mpsc::Sender<Batch>>,
    /// A clone of the connection, kept to cut it.
    stream: Option<TcpStream>,
    down_since: Option<Instant>,
}

impl LinkSlot {
    /// Cuts the connection at once: the queue is discarded and the
    /// socket shut down, so the writer's remaining frames fail and the
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
    /// filled it empties ([`Inner::flush`]).
    out: Outbox,
    links: Vec<LinkSlot>,
}

impl Inner {
    /// Empties what the table just decided into one batch per peer, in
    /// the order decided, paired with the peer's queue (none if its link
    /// is down). A send error is surfaced by the writer thread.
    fn flush(&mut self) -> Vec<(mpsc::Sender<Batch>, Batch)> {
        let mut batches = vec![Batch::new(); self.links.len()];
        for (peer, bytes) in self.out.drain(..) {
            batches[peer].push(bytes);
        }
        let slots = self.links.iter().zip(batches);
        let full = slots.filter(|(_, b)| !b.is_empty());
        full.filter_map(|(s, b)| Some((s.tx.clone()?, b))).collect()
    }
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// [`NetStats::writes`], counted by the writers.
    writes: AtomicU64,
    /// The acceptor thread and the address that wakes it from `accept()`.
    acceptor: Mutex<Option<(JoinHandle<()>, SocketAddr)>>,
    /// Link threads (each dials or accepts, then runs its connection
    /// with a writer of its own), joined at teardown.
    link_threads: Mutex<Vec<JoinHandle<()>>>,
    id: LinkId,
}

impl Shared {
    fn new(cfg: &NodeConfig, incarnation: u64) -> Arc<Shared> {
        let id = LinkId::of(cfg);
        Arc::new(Shared {
            inner: Mutex::new(Inner {
                table: LinkTable::new(id, incarnation),
                out: Outbox::default(),
                links: (0..cfg.n).map(|_| LinkSlot::default()).collect(),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            writes: AtomicU64::new(0),
            acceptor: Mutex::new(None),
            link_threads: Mutex::new(Vec::new()),
            id,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("net lock")
    }
}

/// Keeps a thread's handle in `threads` for the final join, first
/// joining the ones that already finished — the list tracks live
/// threads, not every thread the run ever started. The node's link
/// threads and the chaos relay's forwarding threads are kept this way.
pub(crate) fn park(threads: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut hs = threads.lock().expect("thread list lock");
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

/// A connection's incoming bytes for its whole life: the socket, the
/// one [`FrameBuffer`] everything it delivers goes through, and one
/// read buffer. The Hello exchange and then [`reader_loop`] pull frames
/// from the same value, so frames the peer sent right behind its Hello
/// wait in the buffer until the link is registered.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Inline, so it lives on the link thread's stack: a heap buffer per
    /// connection raised the peak RSS of back-to-back runs by ≈ 10 %.
    chunk: [u8; 1 << 16],
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(),
            chunk: [0; 1 << 16],
        }
    }

    /// The next frame, reading the socket as needed; `Ok(None)` once
    /// the socket ends (EOF, an error or its read timeout). An
    /// oversized length prefix is the error, found before anything is
    /// allocated for the frame.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return Ok(Some(payload));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) | Err(_) => return Ok(None),
                Ok(k) => self.frames.push(&self.chunk[..k]),
            }
        }
    }
}

/// The Hello exchange on a fresh connection, for both ends. The dialer
/// of `dialed` writes its Hello first; the acceptor (`None`) reads
/// first, learns the peer from its Hello and checks the canonical
/// direction (the higher index dials the lower). The peer's Hello is
/// awaited for `patience`, authenticated off the lock and admitted by
/// the replay filter under it; ours is built under the lock and written
/// off it. Each end judges the peer's wire version
/// and configuration only once both Hellos are out, so a mismatch is
/// refused at both ends with its reason. Returns the peer and its
/// Hello.
fn handshake(
    shared: &Shared,
    conn: &mut Conn,
    dialed: Option<usize>,
    patience: Duration,
) -> Result<(usize, HelloBody), NetError> {
    conn.stream.set_read_timeout(Some(patience))?;
    if let Some(peer) = dialed {
        let hello = shared.lock().table.hello(peer);
        conn.stream.write_all(&hello)?;
    }
    let payload = conn
        .next_frame()
        .map_err(|e| NetError::Handshake(e.to_string()))?
        .ok_or_else(|| NetError::Handshake("connection ended before a Hello".into()))?;
    let (peer, wire_seq, hello) = shared.id.open_hello(&payload, dialed)?;
    shared.lock().table.admit_hello(peer, wire_seq)?;
    if dialed.is_none() {
        if peer < shared.id.me {
            return Err(NetError::Handshake(format!(
                "peer {peer} must accept our dial, not dial us"
            )));
        }
        let ours = shared.lock().table.hello(peer);
        conn.stream.write_all(&ours)?;
    }
    shared.id.check_hello(peer, &hello)?;
    Ok((peer, hello))
}

/// A fresh connection for its whole life: the handshake, then the
/// registration — the table marks the link up and queues the
/// gap-resend, the slot takes the new queue and a clone of the stream
/// (cutting a connection it replaces) — then this thread reads it while
/// a scoped writer drains its queue, until it dies. An error means the
/// link never came up; a refused handshake is counted and its reason
/// kept for [`bring_up`].
fn run_connection(
    shared: &Shared,
    stream: TcpStream,
    dialed: Option<usize>,
    patience: Duration,
) -> Result<(), NetError> {
    let mut conn = Conn::new(stream);
    let (peer, peer_hello) = handshake(shared, &mut conn, dialed, patience).inspect_err(|e| {
        if let NetError::Handshake(why) = e {
            shared.lock().table.refuse(why);
        }
    })?;
    let stream = &conn.stream;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(None)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let slot_stream = stream.try_clone()?;
    let writer_stream = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<Batch>();
    let epoch = {
        let mut guard = shared.lock();
        // Checked under the lock teardown takes to drop the queues, so a
        // link is either refused here or ended there.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::Handshake("node shutting down".into()));
        }
        let inner = &mut *guard;
        let epoch = inner.table.link_up(peer, &peer_hello, &mut inner.out);
        inner.links[peer].close();
        inner.links[peer] = LinkSlot {
            tx: Some(tx),
            stream: Some(slot_stream),
            down_since: None,
        };
        // Still inside the critical section: the gap-resend is in the
        // new queue before anyone else can see the link (ordering 2).
        for (tx, batch) in inner.flush() {
            let _ = tx.send(batch);
        }
        epoch
    };
    shared.cv.notify_all();
    thread::scope(|s| {
        s.spawn(move || writer_loop(shared, peer, epoch, writer_stream, rx));
        reader_loop(shared, peer, epoch, &mut conn);
    });
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

/// Writes connection `epoch`'s batches to its socket ([`write_batch`]);
/// a failed write takes the link down.
///
/// Ordering 6: the writer is the one that ends its connection. Once its
/// queue closes (teardown drops it, or link-down emptied the slot), it
/// has handed every frame queued before the close to the kernel, which
/// sends them ahead of the FIN this shutdown queues — so the final Done
/// and DoneAck reach the wire. The shutdown also ends the reader's
/// blocking read.
fn writer_loop(
    shared: &Shared,
    peer: usize,
    epoch: u64,
    mut stream: TcpStream,
    rx: mpsc::Receiver<Batch>,
) {
    while let Ok(batch) = rx.recv() {
        if write_batch(&mut stream, &batch).is_err() {
            link_down(shared, peer, epoch);
            return;
        }
        shared.writes.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Puts `batch` on the socket with vectored writes, advancing past
/// partial ones. The frames are never copied together: that would hold
/// a second copy of every batch while it is written.
fn write_batch(stream: &mut TcpStream, batch: &[Vec<u8>]) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice> = batch.iter().map(|f| IoSlice::new(f)).collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => IoSlice::advance_slices(&mut rest, k),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn reader_loop(shared: &Shared, peer: usize, epoch: u64, conn: &mut Conn) {
    let mut bad_streak = 0u32;
    loop {
        match conn.next_frame() {
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
        // Cut the link and let reconnect + gap-resend rebuild a clean
        // one.
        let _ = conn.stream.shutdown(Shutdown::Both);
        break;
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

/// The link to lower peer `peer`, on one thread for the whole run: dial,
/// run the connection until it dies, then wait out a capped
/// backoff on the condvar (teardown's notify ends it) and redial. Stops
/// at teardown or once the table no longer wants the link. Redials after
/// an outage are traced by attempt; the dead-peer deadline, not this
/// thread, decides when they stop.
///
/// The peer's Hello is awaited for `min(handshake budget, 2 s)`. Giving
/// up on a half-open handshake is safe since wire v2 — if the peer
/// registered the connection anyway and sent its first protocol frames
/// into the dead socket, the redial re-negotiates with the have-set and
/// those frames are gap-resent with their original schedule.
fn dial_link(shared: &Shared, cfg: &NodeConfig, peer: usize) {
    let patience = cfg.handshake_timeout.min(Duration::from_secs(2));
    // `attempt` counts failed dials since the link was last up; the
    // dials before it first came up are not redials.
    let (mut attempt, mut redial) = (0u32, false);
    loop {
        {
            let mut inner = shared.lock();
            if shared.shutdown.load(Ordering::SeqCst) || !inner.table.wants_dial(peer) {
                return;
            }
            if redial {
                inner.table.reconnect_attempt(peer, attempt as usize);
            }
        }
        let served = TcpStream::connect_timeout(&cfg.peers[peer], Duration::from_millis(500))
            .map_err(NetError::from)
            .and_then(|stream| run_connection(shared, stream, Some(peer), patience));
        match served {
            Ok(()) => (attempt, redial) = (0, true),
            Err(_) => attempt += 1,
        }
        let backoff = cfg.reconnect.backoff(attempt);
        let running = |_: &mut Inner| !shared.shutdown.load(Ordering::SeqCst);
        let _ = shared
            .cv
            .wait_timeout_while(shared.lock(), backoff, running);
    }
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
    let wal = open_wal(cfg, durability)?;
    let shared = Shared::new(cfg, wal.incarnation);
    let mut result = drive_node(cfg, &shared, listener, proto, wal, &probe, on_ready);
    teardown(&shared);
    if let Ok(report) = &mut result {
        report.stats.writes = shared.writes.load(Ordering::Relaxed);
    }
    result
}

/// A run's log: the writer the main loop appends through (none when the
/// run is not durable), the incarnation it opened and what the earlier
/// ones logged, to replay (nothing on a fresh log).
#[derive(Default)]
struct Wal {
    writer: Option<WalWriter>,
    incarnation: u64,
    replay: Vec<WalRecord>,
}

/// Opens the run's WAL: recovering, the existing log is scanned, and
/// [`reincarnate`] checks it; the file is then cut back to its valid
/// prefix and the header appended. A fresh run's log is cut back to
/// nothing instead, and so is a missing one or one without a complete
/// record (killed during its first append, before any socket existed).
fn open_wal(cfg: &NodeConfig, durability: Option<&Durability>) -> Result<Wal, NetError> {
    let Some(d) = durability else {
        return Ok(Wal::default());
    };
    let existing = d.recover && std::fs::metadata(&d.wal_path).is_ok_and(|m| m.len() > 0);
    let scan = existing.then(|| wal::read_wal(&d.wal_path)).transpose()?;
    let (replay, valid_len) = scan.map_or((Vec::new(), 0), |s| (s.records, s.valid_len));
    let mut writer = None;
    let incarnation = reincarnate(&replay, &cfg.wal_header(), |rec| {
        let w = writer.insert(WalWriter::append_to(&d.wal_path, valid_len)?);
        Ok(w.append(&rec)?)
    })?;
    Ok(Wal {
        writer,
        incarnation,
        replay,
    })
}

/// Lifetime acceptor: hands every connection from a higher peer — the
/// initial one and any re-dial after a drop — to a link thread of its
/// own. It blocks in `accept()` until [`teardown`] dials it; an
/// unspecified IP is dialed on loopback.
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
            park(
                &sh.link_threads,
                thread::spawn(move || {
                    let _ = run_connection(&shared, stream, None, Duration::from_secs(2));
                }),
            );
        }
    });
    *shared.acceptor.lock().expect("net lock") = Some((handle, wake));
    Ok(())
}

/// Ends the run's threads in one pass. The acceptor goes first (woken
/// by one dial, detached if that fails). Dropping every queue then has
/// each writer send what it holds and end its connection (ordering 6,
/// see [`writer_loop`]), which ends its link thread's read; the notify
/// ends the dialers' backoffs. Every link thread is joined last, each
/// after its writer.
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
    let threads = std::mem::take(&mut *shared.link_threads.lock().expect("net lock"));
    for h in threads {
        let _ = h.join();
    }
}

/// Initial link bring-up: the link threads dial the lower peers and
/// accept the higher ones, redialing a link that drops meanwhile; this
/// waits on the condvar until every link is up or the budget is spent.
fn bring_up(cfg: &NodeConfig, shared: &Shared, start: Instant) -> Result<(), NetError> {
    let budget = cfg.handshake_timeout.saturating_sub(start.elapsed());
    let (inner, _) = shared
        .cv
        .wait_timeout_while(shared.lock(), budget, |i| i.table.links_up() < cfg.n - 1)
        .expect("net lock");
    let up = inner.table.links_up();
    if up < cfg.n - 1 {
        let mut why = format!("only {up}/{} links up", cfg.n - 1);
        if let Some(refusal) = &inner.table.last_refusal {
            why += &format!("; last refusal: {refusal}");
        }
        return Err(NetError::Handshake(why));
    }
    Ok(())
}

/// The virtual-time main loop (see the module docs for the invariants):
/// replay, the acceptor and the dialing threads, bring-up, then drain →
/// activate the safe prefix → control plane → liveness, until the table
/// says the run is over. The WAL's one writer lives here, and no append
/// runs under the node's lock.
fn drive_node<P, R>(
    cfg: &NodeConfig,
    shared: &Arc<Shared>,
    listener: TcpListener,
    proto: P,
    wal: Wal,
    probe: &dyn Fn(&P) -> u64,
    on_ready: R,
) -> Result<NodeReport<P::Output>, NetError>
where
    P: AsyncProtocol,
    P::Msg: WireCodec,
    R: FnOnce(),
{
    let start = Instant::now();
    let (mut writer, replay) = (wal.writer, wal.replay);
    let mut driver = Driver::new(cfg, proto, writer.is_some());
    // The pass's Data, in activation order; its control step seals it.
    let mut data: Vec<DataOut> = Vec::new();

    // Ordering 5: replay rebuilds what a Hello reads before the acceptor
    // and the dialing threads exist (dialers wait in the kernel backlog).
    let recovered = !replay.is_empty();
    if recovered {
        driver.replay(replay, &mut shared.lock().table, probe)?;
    }
    spawn_acceptor(shared, listener)?;
    for peer in 0..cfg.me {
        let (sh, th_cfg) = (Arc::clone(shared), cfg.clone());
        park(
            &shared.link_threads,
            thread::spawn(move || dial_link(&sh, &th_cfg, peer)),
        );
    }
    bring_up(cfg, shared, start)?;
    on_ready();
    if !recovered {
        // Virtual time starts: the protocol's one-shot start activation.
        driver.activate(0.0, Event::Start, &mut |d| data.push(d));
    }

    let mut log = |rec: WalRecord| {
        let appended = writer.as_mut().map_or(Ok(()), |w| w.append(&rec));
        appended.map_err(|e| NetError::Io(format!("wal append: {e}")))
    };
    let dead_after = Duration::from_millis(cfg.reconnect.dead_after_ms);
    let mut last_keepalive = start;
    loop {
        if start.elapsed() > cfg.wall_timeout {
            return Err(NetError::WallTimeout {
                elapsed_ms: start.elapsed().as_millis() as u64,
            });
        }
        let drained = shared.lock().table.drain();
        let snap = drained.snap;
        let mut activity = drained.has_input();
        driver.absorb(drained)?;

        activity |= driver.run_ready(snap, probe, &mut log, &mut |d| data.push(d))?;

        let keepalive_due = last_keepalive.elapsed() >= Duration::from_millis(KEEPALIVE_MS);
        if keepalive_due {
            last_keepalive = Instant::now();
        }
        let (batches, ctl) = {
            let mut guard = shared.lock();
            let inner = &mut *guard;
            // The pass's Data before the promise that follows it, which
            // may exceed their delivery times.
            for d in data.drain(..) {
                inner.table.send_data(d, &mut inner.out);
            }
            let (vnow, output_ready) = (driver.vnow(), driver.has_output());
            let ctl = inner
                .table
                .control(vnow, output_ready, keepalive_due, snap, &mut inner.out);
            if !ctl.finished {
                // Promote links down for the dead-after period to dead.
                let down_for = |j: usize| inner.links[j].down_since.map(|t| t.elapsed());
                let expired = |j| down_for(j).is_some_and(|d| d >= dead_after);
                inner.table.liveness(snap.all_finished, expired);
            }
            (inner.flush(), ctl)
        };
        // Sent after the lock's release: a wake-up taken with the lock
        // held parks every reader of this node behind it.
        for (tx, batch) in batches {
            let _ = tx.send(batch);
        }
        if ctl.finished {
            break;
        }
        activity |= ctl.announced;
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
    use gradecast::GcBundleMsg;
    use sim_net::{Envelope, PartyId};

    const SECRET: u64 = 0x5eed;
    const CFG_FP: u64 = 0xfeed_f00d;

    #[test]
    fn backoff_doubles_from_base_and_respects_the_cap() {
        let p = ReconnectPolicy {
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

    /// A protocol that outputs how many messages it was delivered, once
    /// there was one.
    #[derive(Default)]
    struct CountProto(u8);

    impl AsyncProtocol for CountProto {
        type Msg = u64;
        type Output = u8;

        fn on_start(&mut self, _ctx: &mut AsyncCtx<u64>) {}

        fn on_message(&mut self, _env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {
            self.0 += 1;
        }

        fn output(&self) -> Option<u8> {
            (self.0 > 0).then_some(self.0)
        }
    }

    /// An envelope of `kind` from fake party `from` to `to`, unsigned.
    fn envelope(kind: FrameKind, from: u32, to: u32, wire_seq: u64) -> WrapperMsg {
        WrapperMsg {
            kind,
            from,
            to,
            wire_seq,
            lseq: 0,
            vsend: 0.0,
            vdeliver: 0.0,
            body: Vec::new(),
            mac: 0,
        }
    }

    /// A Hello from fake party `from` to `to` with an empty have-set.
    fn hello(from: u32, to: u32, wire_seq: u64) -> WrapperMsg {
        let body = HelloBody {
            config_fp: CFG_FP,
            version: WIRE_VERSION,
            have_prefix: 0,
            have_extras: Vec::new(),
        };
        WrapperMsg {
            body: body.to_bytes(),
            ..envelope(FrameKind::Hello, from, to, wire_seq)
        }
    }

    /// `msg` signed under its pair's key and framed.
    fn sealed(msg: WrapperMsg) -> Vec<u8> {
        let key = pair_key(SECRET, msg.from as usize, msg.to as usize);
        frame(&msg.signed(key).encode())
    }

    /// A fake peer's end of an accepted or dialed connection, reading
    /// through the shell's own [`Conn`].
    fn fake_end(stream: TcpStream) -> Conn {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        Conn::new(stream)
    }

    /// The next frame the node sent, decoded; `None` once it closed.
    fn next_msg(conn: &mut Conn) -> Option<WrapperMsg> {
        let payload = conn.next_frame().expect("framing")?;
        Some(WrapperMsg::decode(&payload).expect("decode"))
    }

    /// Fake peer 0 answers one handshake from node 1 (its Hello carrying
    /// `wire_seq`, which the node's replay filter wants increasing),
    /// lingers, then cuts the connection.
    fn answer_one_handshake(listener: &TcpListener, wire_seq: u64) {
        let mut conn = fake_end(listener.accept().expect("accept").0);
        let node_hello = next_msg(&mut conn).expect("node hello");
        assert_eq!(node_hello.kind, FrameKind::Hello);
        let reply = sealed(hello(0, 1, wire_seq));
        conn.stream.write_all(&reply).expect("reply");
        // Linger briefly so the node's first frames have a live socket,
        // then cut the connection.
        thread::sleep(Duration::from_millis(60));
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Fake peer 0 of node 1 for a whole run: answers the node's Hello
    /// with its own followed, in the same `write_all`, by `behind` and a
    /// Done and a DoneAck (the node's Done acknowledged ahead of time),
    /// each sealed with the next `wire_seq`. Then, once `unread` returns,
    /// it reads until the node ends the connection. Returns the frames
    /// the node sent after its Hello.
    fn fake_lower_peer(
        listener: TcpListener,
        behind: Vec<WrapperMsg>,
        unread: impl FnOnce(),
    ) -> Vec<WrapperMsg> {
        let mut conn = fake_end(listener.accept().expect("accept").0);
        let node_hello = next_msg(&mut conn).expect("node hello");
        assert_eq!(node_hello.kind, FrameKind::Hello);
        let done = [FrameKind::Done, FrameKind::DoneAck].map(|k| envelope(k, 0, 1, 0));
        let mut bytes = sealed(hello(0, 1, 0));
        for (wire_seq, msg) in (1..).zip(behind.into_iter().chain(done)) {
            bytes.extend(sealed(WrapperMsg { wire_seq, ..msg }));
        }
        conn.stream.write_all(&bytes).expect("hello and frames");
        unread();
        std::iter::from_fn(|| next_msg(&mut conn)).collect()
    }

    /// Runs node 1 of 2 with `proto` against [`fake_lower_peer`].
    fn run_against_fake_lower_peer<P>(
        proto: P,
        behind: Vec<WrapperMsg>,
        unread: impl FnOnce() + Send + 'static,
    ) -> (NodeReport<P::Output>, Vec<WrapperMsg>)
    where
        P: AsyncProtocol,
        P::Msg: WireCodec,
    {
        let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let my_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peers = [&peer_listener, &my_listener].map(|l| l.local_addr().expect("addr"));
        let fake = thread::spawn(move || fake_lower_peer(peer_listener, behind, unread));
        let mut cfg = NodeConfig::new(1, 2, 0, peers.to_vec(), SECRET, CFG_FP, 7);
        cfg.wall_timeout = Duration::from_secs(5);
        let report = run_node(&cfg, my_listener, proto, || {}).expect("node run");
        (report, fake.join().expect("fake peer"))
    }

    #[test]
    fn frames_behind_the_hello_are_delivered_once() {
        let data = WrapperMsg {
            vdeliver: async_net::link_delay(7, 0, 1, 0, 0.5),
            body: 42u64.to_bytes(),
            ..envelope(FrameKind::Data, 0, 1, 0)
        };
        // The promise that lets the node's bound pass the delivery time.
        let null = WrapperMsg {
            vsend: 2.0,
            ..envelope(FrameKind::Null, 0, 1, 0)
        };
        let frames = vec![data, null];
        let (report, _) = run_against_fake_lower_peer(CountProto::default(), frames, || {});
        assert_eq!(report.output, Some(1));
        let s = report.stats;
        assert_eq!(
            (s.rejected_mac, s.rejected_replay, s.rejected_malformed),
            (0, 0, 0)
        );
        assert_eq!(
            (s.dup_frames, s.resent_frames, s.retransmissions),
            (0, 0, 0)
        );
        assert_eq!(s.frames_received, 4, "{s:?}");
    }

    /// Outputs at once, after queueing party 0 more Data than a
    /// loopback connection's kernel buffers hold (128 leads of 8192
    /// values, ≈ 8 MiB). Each time it is asked for its output it says so
    /// on its channel; the node first asks once the start activation's
    /// frames are queued.
    struct Flood(mpsc::Sender<()>);

    impl AsyncProtocol for Flood {
        type Msg = GcBundleMsg<u64>;
        type Output = u8;

        fn on_start(&mut self, ctx: &mut AsyncCtx<Self::Msg>) {
            let leads: Arc<[Option<u64>]> = vec![Some(7); 8192].into();
            for _ in 0..128 {
                ctx.send(PartyId(0), GcBundleMsg::Leads(Arc::clone(&leads)));
            }
        }

        fn on_message(&mut self, _env: Envelope<Self::Msg>, _ctx: &mut AsyncCtx<Self::Msg>) {}

        fn output(&self) -> Option<u8> {
            let _ = self.0.send(());
            Some(1)
        }
    }

    #[test]
    fn teardown_drains_every_queue_before_it_closes() {
        // The node is done in its first pass after the flood, while its
        // writer still holds most of the Data with nobody reading: the
        // Done and the DoneAck that pass queued sit behind megabytes.
        // The fake starts reading well after the node began its teardown.
        let (flooded, unread) = mpsc::channel();
        let unread = move || {
            unread.recv().expect("the flood was queued");
            thread::sleep(Duration::from_millis(100));
        };
        let (report, seen) = run_against_fake_lower_peer(Flood(flooded), Vec::new(), unread);
        assert_eq!(report.output, Some(1));
        // The fake read to EOF, and everything queued came before it.
        let kinds: Vec<FrameKind> = seen.iter().map(|m| m.kind).collect();
        let data = kinds.iter().filter(|&&k| k == FrameKind::Data).count();
        assert_eq!(data, 128);
        assert!(kinds.contains(&FrameKind::Done), "{kinds:?}");
        assert!(kinds.contains(&FrameKind::DoneAck), "{kinds:?}");
    }

    /// Sends party 0 `BURST` messages from each of three timers, at
    /// virtual times 1, 2 and 3. It outputs one pass after the last has
    /// fired: the first time it is asked after that, it says no, so
    /// that pass ends with a promise rather than a Done.
    #[derive(Default)]
    struct Ticks {
        fired: u64,
        asked: std::cell::Cell<bool>,
    }

    const BURST: u64 = 3;

    impl AsyncProtocol for Ticks {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            for t in 1..=3 {
                ctx.set_timer(t as f64, t);
            }
        }

        fn on_message(&mut self, _env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {}

        fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<u64>) {
            for k in 0..BURST {
                ctx.send(PartyId(0), token << 8 | k);
            }
            self.fired += 1;
        }

        fn output(&self) -> Option<u64> {
            (self.fired == 3 && self.asked.replace(true)).then_some(self.fired)
        }
    }

    /// A Null promises that every Data frame still to come is due after
    /// it. The peer promises far ahead, so all three timers fire in one
    /// pass whose Data is due long before the promise that pass makes:
    /// the Data must reach the wire first.
    #[test]
    fn no_data_frame_follows_a_promise_beyond_its_delivery_time() {
        let far = WrapperMsg {
            vsend: 1000.0,
            ..envelope(FrameKind::Null, 0, 1, 0)
        };
        let (report, seen) = run_against_fake_lower_peer(Ticks::default(), vec![far], || {});
        assert_eq!(report.output, Some(3));
        let mut promised = f64::NEG_INFINITY;
        for m in &seen {
            match m.kind {
                FrameKind::Null => promised = promised.max(m.vsend),
                FrameKind::Data => assert!(
                    m.vdeliver > promised,
                    "Data due at {} after a promise of {promised}",
                    m.vdeliver
                ),
                _ => {}
            }
        }
        let data = seen.iter().filter(|m| m.kind == FrameKind::Data).count();
        assert_eq!(data as u64, 3 * BURST);
        assert!(promised > 1000.0, "the far promise was passed on");
    }

    #[test]
    fn flush_hands_each_peer_one_batch_in_fifo_order() {
        let addr: SocketAddr = (Ipv4Addr::LOCALHOST, 0).into();
        let cfg = NodeConfig::new(0, 4, 1, vec![addr; 4], SECRET, CFG_FP, 7);
        let shared = Shared::new(&cfg, 0);
        let mut inner = shared.lock();
        let queues: Vec<mpsc::Receiver<Batch>> = (1..4)
            .map(|peer| {
                let (tx, rx) = mpsc::channel();
                inner.links[peer].tx = Some(tx);
                rx
            })
            .collect();
        for (k, peer) in [1, 2, 1, 1, 2, 3].into_iter().enumerate() {
            inner.out.push((peer, vec![k as u8]));
        }
        for (tx, batch) in inner.flush() {
            tx.send(batch).expect("queue open");
        }
        assert!(inner.out.is_empty());
        let got: Vec<Vec<Batch>> = queues.iter().map(|rx| rx.try_iter().collect()).collect();
        let frames = |ks: &[u8]| -> Vec<Batch> { vec![ks.iter().map(|&k| vec![k]).collect()] };
        assert_eq!(got, [frames(&[0, 2, 3]), frames(&[1, 4]), frames(&[5])]);
    }

    /// Sends every other party `BURST` messages in its start activation
    /// and outputs at once.
    struct Burst;

    impl AsyncProtocol for Burst {
        type Msg = u64;
        type Output = u8;

        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            let me = ctx.me();
            for to in (0..ctx.n()).map(PartyId).filter(|&p| p != me) {
                for k in 0..BURST {
                    ctx.send(to, k);
                }
            }
        }

        fn on_message(&mut self, _env: Envelope<u64>, _ctx: &mut AsyncCtx<u64>) {}

        fn output(&self) -> Option<u8> {
            Some(1)
        }
    }

    /// Two real nodes on loopback: a pass's frames to a peer leave in one
    /// write, so a node writes fewer times than it sends frames.
    #[test]
    fn a_pass_reaches_each_peer_in_one_write() {
        let listeners = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"));
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        let nodes: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let cfg = NodeConfig::new(me, 2, 0, peers.clone(), SECRET, CFG_FP, 7);
                thread::spawn(move || run_node(&cfg, listener, Burst, || {}))
            })
            .collect();
        for (me, node) in nodes.into_iter().enumerate() {
            let s = node.join().expect("node thread").expect("node run").stats;
            assert!(s.writes >= 1, "node {me}: {s:?}");
            assert!(s.writes < s.frames_sent + s.nulls_sent, "node {me}: {s:?}");
        }
    }

    #[test]
    fn a_hostile_first_frame_is_a_refused_handshake_at_either_end() {
        let oversized = u32::MAX.to_be_bytes().to_vec();
        let not_hello = |from, to| sealed(envelope(FrameKind::Data, from, to, 0));
        let patience = Duration::from_secs(2);
        for (what, down, up) in [
            ("oversized", oversized.clone(), oversized),
            ("non-Hello", not_hello(0, 1), not_hello(1, 0)),
        ] {
            // Dialing end: node 1 dials fake peer 0, which answers the
            // node's Hello with `down`.
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let cfg = NodeConfig::new(1, 2, 0, vec![addr, addr], SECRET, CFG_FP, 7);
            let shared = Shared::new(&cfg, 0);
            let fake = thread::spawn(move || {
                let mut conn = fake_end(listener.accept().expect("accept").0);
                let node_hello = next_msg(&mut conn).expect("node hello");
                assert_eq!(node_hello.kind, FrameKind::Hello);
                conn.stream.write_all(&down).expect("hostile reply");
                // The node drops the connection and sends nothing more.
                next_msg(&mut conn).map(|m| m.kind)
            });
            let started = Instant::now();
            let mut conn = Conn::new(TcpStream::connect(addr).expect("dial"));
            let refused = handshake(&shared, &mut conn, Some(0), patience);
            drop(conn);
            // Refused at once: the node did not wait for, let alone
            // allocate, the 4 GiB an oversized prefix announces.
            assert!(started.elapsed() < Duration::from_secs(1), "{what}");
            assert!(matches!(refused, Err(NetError::Handshake(_))), "{what}");
            assert_eq!(fake.join().expect("fake peer"), None, "{what}");
            assert_eq!(shared.lock().table.links_up(), 0, "{what}");

            // Accepting end: fake peer 1 dials node 0 and opens with `up`.
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let cfg = NodeConfig::new(0, 2, 0, vec![addr, addr], SECRET, CFG_FP, 7);
            let shared = Shared::new(&cfg, 0);
            let fake = thread::spawn(move || {
                let mut conn = fake_end(TcpStream::connect(addr).expect("dial"));
                conn.stream.write_all(&up).expect("hostile hello");
                // The node never answers with its Hello.
                next_msg(&mut conn).map(|m| m.kind)
            });
            let mut conn = Conn::new(listener.accept().expect("accept").0);
            let refused = handshake(&shared, &mut conn, None, patience);
            drop(conn);
            assert!(matches!(refused, Err(NetError::Handshake(_))), "{what}");
            assert_eq!(fake.join().expect("fake peer"), None, "{what}");
            assert_eq!(shared.lock().table.links_up(), 0, "{what}");
        }
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
        let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer_addr = peer_listener.local_addr().expect("addr");
        let my_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let my_addr = my_listener.local_addr().expect("addr");

        let fake = thread::spawn(move || {
            for k in 0..handshakes {
                answer_one_handshake(&peer_listener, k);
            }
            // Dropping the listener here makes every further reconnect
            // dial fail fast with a refusal instead of a slow timeout.
            drop(peer_listener);
        });

        let mut cfg = NodeConfig::new(1, 2, 0, vec![peer_addr, my_addr], SECRET, CFG_FP, 7);
        cfg.reconnect = policy;
        cfg.handshake_timeout = Duration::from_secs(5);
        cfg.wall_timeout = Duration::from_secs(20);
        // `run_node`, opened up to look at the slots before teardown.
        let shared = Shared::new(&cfg, 0);
        let at_ready = Arc::clone(&shared);
        let result = drive_node(
            &cfg,
            &shared,
            my_listener,
            InstantProto,
            Wal::default(),
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
    fn a_scripted_disconnect_traces_redials_until_the_deadline_declares_death() {
        let policy = ReconnectPolicy {
            base_delay_ms: 5,
            max_delay_ms: 20,
            dead_after_ms: 500,
        };
        let (trace, stats) = scripted_disconnect_trace(policy, 1);
        let fault_events: Vec<&EventKind> = trace
            .events
            .iter()
            .map(|e| &e.kind)
            .filter(|k| {
                matches!(
                    k,
                    EventKind::NetReconnect { .. } | EventKind::NetDeadPeer { .. }
                )
            })
            .collect();
        // Exactly: redials numbered 0, 1, … for as long as the link is
        // down, then the dead-peer declaration, after which the dialing
        // thread stops.
        let (last, redials) = fault_events.split_last().expect("events");
        assert_eq!(**last, EventKind::NetDeadPeer { party: 1, peer: 0 });
        assert!(!redials.is_empty(), "events: {fault_events:?}");
        for (i, ev) in redials.iter().enumerate() {
            assert_eq!(
                **ev,
                EventKind::NetReconnect {
                    party: 1,
                    peer: 0,
                    attempt: i
                }
            );
        }
        assert_eq!(stats.dead_peers, 1);
        assert_eq!(stats.reconnects, 0);

        // Two forced reconnects before the peer goes away for good: the
        // slot invariant (checked inside) holds, and both are counted.
        let (_, stats) = scripted_disconnect_trace(policy, 3);
        assert_eq!((stats.reconnects, stats.dead_peers), (2, 1));
    }

    #[test]
    fn the_dead_peer_deadline_fires_while_the_dialer_backs_off() {
        let started = Instant::now();
        let (trace, stats) = scripted_disconnect_trace(
            ReconnectPolicy {
                base_delay_ms: 30_000,
                max_delay_ms: 30_000,
                dead_after_ms: 40,
            },
            1,
        );
        // Teardown included: the dialing thread is parked in its first
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
            .any(|e| matches!(e.kind, EventKind::NetReconnect { .. })));
        assert_eq!(stats.dead_peers, 1);
    }

    #[test]
    fn a_silent_peer_does_not_hold_up_the_dial_to_another() {
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        let answering = TcpListener::bind("127.0.0.1:0").expect("bind");
        let my_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peers = [&silent, &answering, &my_listener].map(|l| l.local_addr().expect("addr"));
        let mut cfg = NodeConfig::new(2, 3, 0, peers.to_vec(), SECRET, CFG_FP, 7);
        cfg.handshake_timeout = Duration::from_secs(1);
        // Peer 0 accepts node 2's dial and never answers its Hello.
        let mute = thread::spawn(move || silent.accept().map(|(stream, _)| stream));
        let started = Instant::now();
        let node = thread::spawn(move || run_node(&cfg, my_listener, InstantProto, || {}));

        // Peer 1 gets node 2's Hello without waiting out peer 0's patience.
        let mut conn = fake_end(answering.accept().expect("accept").0);
        let hello = next_msg(&mut conn).expect("hello");
        let waited = started.elapsed();
        assert_eq!((hello.kind, hello.from, hello.to), (FrameKind::Hello, 2, 1));
        assert!(waited < Duration::from_millis(500), "took {waited:?}");

        // Nobody answers, so bring-up runs out of its budget.
        let result = node.join().expect("node thread");
        assert!(matches!(result, Err(NetError::Handshake(_))), "{result:?}");
        drop(mute.join().expect("mute peer"));
    }

    #[test]
    fn a_peer_with_another_configuration_is_refused_at_both_ends_with_the_reason() {
        let listeners = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"));
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        let nodes: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let fp = CFG_FP + me as u64;
                let mut cfg = NodeConfig::new(me, 2, 0, peers.clone(), SECRET, fp, 7);
                cfg.handshake_timeout = Duration::from_secs(1);
                thread::spawn(move || {
                    let shared = Shared::new(&cfg, 0);
                    let result = drive_node(
                        &cfg,
                        &shared,
                        listener,
                        InstantProto,
                        Wal::default(),
                        &|_| 0,
                        || {},
                    );
                    teardown(&shared);
                    let refused = shared.lock().table.stats.refused_handshakes;
                    (result.err(), refused)
                })
            })
            .collect();
        for (me, node) in nodes.into_iter().enumerate() {
            let (err, refused) = node.join().expect("node thread");
            let err = err.map(|e| e.to_string()).unwrap_or_default();
            assert!(err.contains("runs configuration"), "node {me}: {err:?}");
            assert!(refused >= 1, "node {me}: {refused} refusals");
        }
    }

    /// `treeaa serve --bind 0.0.0.0:0` hands the node such a listener:
    /// teardown's wake-up dial must reach it through loopback.
    #[test]
    fn teardown_wakes_an_acceptor_on_the_unspecified_address() {
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cfg = NodeConfig::new(0, 1, 0, vec![addr], SECRET, CFG_FP, 7);
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
        let shared = Shared::new(&cfg, 0);
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

    /// A node killed during its first header append left a proper
    /// prefix of that record, and no socket: recovering from it is a
    /// fresh start. A log that opens with another record is refused.
    #[test]
    fn a_torn_first_header_recovers_as_a_fresh_start() {
        let path = std::env::temp_dir().join(format!("treeaa-torn-hdr-{}.wal", std::process::id()));
        // One party, so the run needs no peer; its own address is unused.
        let cfg = NodeConfig::new(
            0,
            1,
            0,
            vec![(Ipv4Addr::LOCALHOST, 0).into()],
            SECRET,
            CFG_FP,
            7,
        );
        let run = || {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let durability = Durability {
                wal_path: path.clone(),
                recover: true,
            };
            run_node_durable(
                &cfg,
                listener,
                InstantProto,
                Some(&durability),
                |_| 0,
                || {},
            )
        };
        let framed = |rec: WalRecord| {
            let mut bytes = Vec::new();
            rec.write_to(&mut Vec::new(), &mut bytes).expect("framed");
            bytes
        };
        let whole = framed(WalRecord::Header(cfg.wal_header()));
        for cut in 0..whole.len() {
            std::fs::write(&path, &whole[..cut]).expect("torn log");
            let report = run().unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(report.output, Some(1));
            assert_eq!(std::fs::read(&path).expect("log"), whole, "cut {cut}");
        }

        let mark = wal::WalMark {
            time_bits: 0,
            events: 0,
            probe: 0,
        };
        std::fs::write(&path, framed(WalRecord::Mark(mark))).expect("headless log");
        let err = run().expect_err("a log must open with its header");
        assert!(
            err.to_string().contains("wal has no header record"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
