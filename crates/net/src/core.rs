//! The socket-free node core: two deterministic state machines that
//! decide everything `node.rs` (the shell) then carries out. The module
//! docs of [`crate::node`] explain the virtual-time scheme they run.
//!
//! * [`LinkTable`] — per-peer link state: replay and dup filters,
//!   watermarks, `wire_seq` reservation, gap-resend retention, the Done /
//!   DoneAck / keepalive / promise rules, liveness. The shell keeps it
//!   behind its one lock.
//! * [`Driver`] — the pending events, the virtual clock, the timer and
//!   `lseq` ordinals, the recorder and the protocol; main thread only.
//!   [`Driver::activate`] is its one activation path: start, the live
//!   loop and [`Driver::replay`] differ only in where outgoing Data goes
//!   ([`LinkTable::send_data`] or [`LinkTable::retain`]).
//!
//! Methods return what to send and what to log ([`Outbox`]); nothing
//! here holds a socket, a channel, a file or a clock. Wall time enters
//! as values the shell computed ("the keepalive is due", "down for the
//! dead-after period"). Of the six load-bearing orderings, four are
//! stated at the method that enforces them ([`LinkTable::drain`],
//! [`LinkTable::link_up`], [`Outbox`], [`Driver::run_ready`]) and two in
//! the shell (one-frame handshake reads; writers joined before sockets
//! close), with the accept-after-replay gate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use aa_trace::EventKind;
use async_net::{link_delay, AsyncCtx, AsyncProtocol, AsyncRecorder, VKey};
use sim_net::{Envelope, PartyId};

use crate::codec::WireCodec;
use crate::frame::frame;
use crate::mac::{pair_key, MacKey};
use crate::node::{NetError, NetStats, NodeConfig, NodeReport};
use crate::wal::{WalEvent, WalMark, WalRecord, WalRemote};
use crate::wire::{FrameKind, HelloBody, WrapperMsg, MAX_HAVE_EXTRAS, WIRE_VERSION};

/// `wire_seq` numbers are reserved (and WAL-logged) in blocks this big,
/// so steady-state sends cost one log append per block, not per frame.
const WIRE_SEQ_BLOCK: u64 = 256;

/// Cap on retained outgoing Data frames per link. Eviction past the cap
/// sacrifices gap-resend completeness (a reconnecting peer missing an
/// evicted frame falls back to `Reliable` retransmission), never safety.
const RETAIN_CAP: usize = 16_384;

/// A WAL integrity mark is appended every this many processed events.
const MARK_INTERVAL: u64 = 64;

/// What to send and what to log, filled by [`LinkTable`] methods.
///
/// Ordering 3, first half: a `Reserve` record is pushed into `log`
/// before the first frame of its block is pushed into `frames`, and the
/// shell appends all of `log` before it sends any of `frames`, inside
/// the critical section that produced them — so no `wire_seq` reaches
/// the wire before the reservation covering it reaches the log.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) log: Vec<WalRecord>,
    /// Framed, MACed envelopes, by destination peer.
    pub(crate) frames: Vec<(usize, Vec<u8>)>,
}

/// An envelope minus what the link adds (`wire_seq`, MAC): a protocol
/// message leaving an activation, a retained copy of one, or — with an
/// empty body — a control frame.
#[derive(Clone, Debug)]
pub(crate) struct DataOut {
    pub(crate) to: usize,
    pub(crate) lseq: u64,
    pub(crate) vsend: f64,
    pub(crate) vdeliver: f64,
    pub(crate) body: Vec<u8>,
}

impl DataOut {
    /// A frame outside the Data schedule (control, Hello) stamped `vsend`.
    fn bare(to: usize, vsend: f64, body: Vec<u8>) -> DataOut {
        DataOut {
            to,
            lseq: 0,
            vsend,
            vdeliver: vsend,
            body,
        }
    }
}

/// Why an incoming frame was refused.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Reject {
    Malformed,
    Mac,
    Replay,
}

/// This node's identity on every link. `Copy`, so the shell's reader
/// and handshake threads authenticate without the table or its lock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkId {
    pub(crate) me: usize,
    n: usize,
    secret: u64,
    config_fp: u64,
    min_delay: f64,
}

impl LinkId {
    pub(crate) fn of(cfg: &NodeConfig) -> LinkId {
        LinkId {
            me: cfg.me,
            n: cfg.n,
            secret: cfg.secret,
            config_fp: cfg.config_fp,
            min_delay: cfg.min_delay,
        }
    }

    fn key(&self, peer: usize) -> MacKey {
        pair_key(self.secret, self.me, peer)
    }

    /// `signed → encode → frame`: the one place an outgoing envelope is
    /// built, whatever its kind.
    fn seal(&self, kind: FrameKind, wire_seq: u64, d: DataOut) -> Vec<u8> {
        let msg = WrapperMsg {
            kind,
            from: self.me as u32,
            to: d.to as u32,
            wire_seq,
            lseq: d.lseq,
            vsend: d.vsend,
            vdeliver: d.vdeliver,
            body: d.body,
            mac: 0,
        };
        frame(&msg.signed(self.key(d.to)).encode())
    }

    /// The stateless half of frame acceptance on the link from `peer`:
    /// structure, addressing, MAC. [`LinkTable::accept`] is the other.
    pub(crate) fn open_frame(&self, peer: usize, payload: &[u8]) -> Result<WrapperMsg, Reject> {
        let msg = WrapperMsg::decode(payload).map_err(|_| Reject::Malformed)?;
        if msg.from != peer as u32 || msg.to != self.me as u32 || msg.kind == FrameKind::Hello {
            return Err(Reject::Malformed);
        }
        if !msg.verify(self.key(peer)) {
            return Err(Reject::Mac);
        }
        Ok(msg)
    }

    /// The stateless half of a handshake: authenticates a Hello against
    /// `expected_from` (or any peer if `None`) and checks wire version
    /// and configuration. Returns the sender, the Hello's `wire_seq`
    /// (for [`LinkTable::admit_hello`]) and the decoded body.
    pub(crate) fn open_hello(
        &self,
        payload: &[u8],
        expected_from: Option<usize>,
    ) -> Result<(usize, u64, HelloBody), NetError> {
        let fail = |m: String| Err(NetError::Handshake(m));
        let msg = WrapperMsg::decode(payload).map_err(|e| NetError::Handshake(e.to_string()))?;
        if msg.kind != FrameKind::Hello {
            return fail("first frame is not a Hello".into());
        }
        let from = msg.from as usize;
        if from >= self.n || from == self.me || msg.to != self.me as u32 {
            return fail(format!("hello addressed {} -> {}", msg.from, msg.to));
        }
        if let Some(exp) = expected_from.filter(|&exp| exp != from) {
            return fail(format!("expected hello from {exp}, got {from}"));
        }
        if !msg.verify(self.key(from)) {
            return fail(format!("hello from {from} failed authentication"));
        }
        let hello =
            HelloBody::from_bytes(&msg.body).map_err(|e| NetError::Handshake(e.to_string()))?;
        if hello.version != WIRE_VERSION {
            return fail(format!(
                "peer {from} speaks wire version {}, expected {WIRE_VERSION}",
                hello.version
            ));
        }
        if hello.config_fp != self.config_fp {
            return fail(format!(
                "peer {from} runs configuration {:#018x}, expected {:#018x}",
                hello.config_fp, self.config_fp
            ));
        }
        Ok((from, msg.wire_seq, hello))
    }
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

/// Per-peer link state.
#[derive(Debug, Default)]
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
    /// Sent Data frames retained for gap-resend, by `lseq`: enough to
    /// rebuild the exact frame, modulo the always-fresh `wire_seq`.
    retain: BTreeMap<u64, DataOut>,
    /// Whether this peer has been sent our Done on the *current*
    /// connection (a reconnect clears it, so Done is re-announced).
    done_notified: bool,
    /// Whether this peer acknowledged our Done. Until then the
    /// keepalive re-announces it — a Done lost on a live-but-lossy
    /// link must not stall the peer's termination.
    done_acked: bool,
    /// A `Done` arrived from this peer and its `DoneAck` has not been
    /// sent yet ([`LinkTable::control`] drains this).
    ack_owed: bool,
    done: bool,
    dead: bool,
    connected: bool,
    reconnecting: bool,
    /// Counts connections to this peer. Reader and writer report a
    /// link's death with the epoch they were started under, so a stale
    /// connection dying late cannot take down its successor.
    epoch: u64,
    /// Rejections not yet recorded in the trace (count since last drain).
    pending_drops: u64,
}

/// The bound and termination flags of one [`LinkTable::drain`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Snapshot {
    /// `min` over non-dead peers' watermarks; infinite with none left.
    pub(crate) bound: f64,
    /// Every peer is done or dead.
    pub(crate) all_finished: bool,
    /// Every peer acknowledged our Done, died, or finished and hung up.
    pub(crate) all_acked: bool,
    /// Every peer died before this node produced an output.
    pub(crate) isolated: bool,
}

/// Everything one [`LinkTable::drain`] hands the main loop.
#[derive(Debug)]
pub(crate) struct Drained {
    frames: Vec<WrapperMsg>,
    drops: Vec<(usize, u64)>,
    /// Liveness transitions since the last drain, as trace events.
    notes: Vec<EventKind>,
    pub(crate) snap: Snapshot,
}

impl Drained {
    /// Whether anything arrived (counts as loop activity).
    pub(crate) fn has_input(&self) -> bool {
        !self.frames.is_empty() || !self.drops.is_empty()
    }
}

/// What [`LinkTable::control`] decided besides the frames it queued.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Control {
    /// A first Done went out on some link (counts as loop activity).
    pub(crate) announced: bool,
    /// Done sent, every peer finished, every ack in: the run is over.
    pub(crate) finished: bool,
}

/// The link state machine. See the module docs.
#[derive(Debug)]
pub(crate) struct LinkTable {
    id: LinkId,
    peers: Vec<PeerSt>,
    pub(crate) stats: NetStats,
    /// Liveness transitions queued for the trace.
    notes: Vec<EventKind>,
    /// Our Done has been announced (the protocol produced its output).
    done_sent: bool,
}

impl LinkTable {
    pub(crate) fn new(id: LinkId) -> LinkTable {
        LinkTable {
            id,
            peers: (0..id.n).map(|_| PeerSt::default()).collect(),
            stats: NetStats::default(),
            notes: Vec::new(),
            done_sent: false,
        }
    }

    fn others(&self) -> impl Iterator<Item = usize> {
        let me = self.id.me;
        (0..self.id.n).filter(move |&j| j != me)
    }

    pub(crate) fn connected(&self, peer: usize) -> bool {
        self.peers[peer].connected
    }

    /// How many links are up.
    pub(crate) fn links_up(&self) -> usize {
        self.others().filter(|&j| self.peers[j].connected).count()
    }

    /// Allocates the next outgoing `wire_seq` on the link to `peer`.
    /// Sequence numbers are claimed in [`WIRE_SEQ_BLOCK`]-size blocks
    /// whose `Reserve` records go out through `out.log` (see [`Outbox`]
    /// for why that is ahead of the wire) — so a recovered node resumes
    /// past every sequence number a peer's replay filter may have seen.
    fn next_wire_seq(&mut self, peer: usize, out: &mut Outbox) -> u64 {
        let p = &mut self.peers[peer];
        let s = p.out_wire_seq;
        p.out_wire_seq += 1;
        if s >= p.wire_reserved {
            p.wire_reserved = s + WIRE_SEQ_BLOCK;
            let upto = p.wire_reserved;
            out.log.push(WalRecord::Reserve { peer, upto });
        }
        s
    }

    /// Stamps `d` with a fresh `wire_seq` and, if the link is up, queues
    /// and counts its frame. Returns whether it was queued.
    fn emit(&mut self, kind: FrameKind, d: DataOut, out: &mut Outbox) -> bool {
        let to = d.to;
        let wire_seq = self.next_wire_seq(to, out);
        if !self.peers[to].connected {
            return false;
        }
        let bytes = self.id.seal(kind, wire_seq, d);
        if kind == FrameKind::Null {
            self.stats.nulls_sent += 1;
        } else {
            self.stats.frames_sent += 1;
        }
        self.stats.bytes_sent += bytes.len() as u64;
        out.frames.push((to, bytes));
        true
    }

    fn send_ctl(&mut self, kind: FrameKind, to: usize, vsend: f64, out: &mut Outbox) {
        self.emit(kind, DataOut::bare(to, vsend, Vec::new()), out);
    }

    /// Our Hello to `peer`, advertising the Data ordinals already held
    /// on the reverse link. Written by the handshake itself, so not
    /// queued and not counted.
    pub(crate) fn hello(&mut self, peer: usize, out: &mut Outbox) -> Vec<u8> {
        let wire_seq = self.next_wire_seq(peer, out);
        let have = &self.peers[peer].have;
        // Truncating an absurdly fragmented have-set only costs the
        // peer some duplicate resends, which the dedup set absorbs.
        let have_extras = have.extras.iter().copied().take(MAX_HAVE_EXTRAS).collect();
        let body = HelloBody {
            config_fp: self.id.config_fp,
            version: WIRE_VERSION,
            have_prefix: have.prefix,
            have_extras,
        };
        let hello = DataOut::bare(peer, 0.0, body.to_bytes());
        self.id.seal(FrameKind::Hello, wire_seq, hello)
    }

    /// The replay-filter half of a handshake, after [`LinkId::open_hello`].
    pub(crate) fn admit_hello(&mut self, from: usize, wire_seq: u64) -> Result<(), NetError> {
        let p = &mut self.peers[from];
        if p.last_auth.is_some_and(|s| wire_seq <= s) {
            return Err(NetError::Handshake(format!("replayed hello from {from}")));
        }
        p.last_auth = Some(wire_seq);
        Ok(())
    }

    /// A handshake with `peer` completed: marks the link up (reviving a
    /// dead peer), queues the gap-resend and returns the link's epoch.
    ///
    /// Ordering 2: the retained Data frames `peer_hello` does not
    /// acknowledge are queued here, in ascending `lseq` order, and the
    /// shell sends them in the critical section of this call — before
    /// any new protocol frame can use the link. The peer's watermark
    /// therefore only ever sees a monotone `vsend` sequence. Frames the
    /// peer acknowledges are pruned.
    pub(crate) fn link_up(&mut self, peer: usize, peer_hello: &HelloBody, out: &mut Outbox) -> u64 {
        let p = &mut self.peers[peer];
        p.connected = true;
        p.epoch += 1;
        // A fresh connection starts from a clean promise slate, and
        // re-announces our Done if we already produced output. An ack
        // owed on the dropped connection is re-owed here (the peer is
        // done; its keepalive would re-ask anyway).
        p.last_promised = 0.0;
        p.done_notified = false;
        p.ack_owed |= p.done;
        if std::mem::replace(&mut p.dead, false) {
            self.stats.revived_peers += 1;
        }
        let mut retain = std::mem::take(&mut self.peers[peer].retain);
        retain.retain(|lseq, _| !peer_hello.has(*lseq));
        for d in retain.values() {
            self.emit(FrameKind::Data, d.clone(), out);
            self.stats.resent_frames += 1;
        }
        self.peers[peer].retain = retain;
        self.peers[peer].epoch
    }

    /// The connection of `epoch` to `peer` died. Returns whether that
    /// took the link down (not for a stale epoch or a link already
    /// down), i.e. whether the shell should close its end and stamp the
    /// down time.
    pub(crate) fn link_down(&mut self, peer: usize, epoch: u64) -> bool {
        let p = &mut self.peers[peer];
        let was_up = p.connected && p.epoch == epoch;
        if was_up {
            p.connected = false;
        }
        was_up
    }

    /// Counts a rejected frame and queues its `fault_drop` trace record.
    pub(crate) fn reject(&mut self, peer: usize, why: Reject) {
        match why {
            Reject::Malformed => self.stats.rejected_malformed += 1,
            Reject::Mac => self.stats.rejected_mac += 1,
            Reject::Replay => self.stats.rejected_replay += 1,
        }
        self.peers[peer].pending_drops += 1;
    }

    /// Sorts one authenticated frame of `wire_len` payload bytes from
    /// `peer`. Returns whether it was accepted; a stale `wire_seq` is
    /// counted and traced as a replay, never delivered. Duplicates
    /// count as accepted — they prove the stream is healthy.
    pub(crate) fn accept(&mut self, peer: usize, msg: WrapperMsg, wire_len: usize) -> bool {
        if self.peers[peer]
            .last_auth
            .is_some_and(|s| msg.wire_seq <= s)
        {
            self.reject(peer, Reject::Replay);
            return false;
        }
        let min_delay = self.id.min_delay;
        let p = &mut self.peers[peer];
        p.last_auth = Some(msg.wire_seq);
        self.stats.frames_received += 1;
        self.stats.bytes_received += wire_len as u64 + 4;
        match msg.kind {
            FrameKind::Data => {
                // Future Data is sent at a clock ≥ vsend with delay > min.
                p.watermark = p.watermark.max(msg.vsend + min_delay);
                if p.have.contains(msg.lseq) {
                    // A gap-resend we already delivered: the watermark
                    // gain is kept, the payload is dropped without a
                    // trace event (it is not a fault, just redundancy).
                    self.stats.dup_frames += 1;
                } else {
                    p.have.insert(msg.lseq);
                    p.inbox.push_back(msg);
                }
            }
            // The promise IS the bound; no extra lookahead on top.
            FrameKind::Null => p.watermark = p.watermark.max(msg.vsend),
            FrameKind::Done => {
                // Possibly a keepalive re-announcement; setting the
                // flags again is idempotent, and every copy earns a
                // fresh ack (the previous ack may itself have been lost).
                p.done = true;
                p.ack_owed = true;
                p.watermark = p.watermark.max(msg.vsend + min_delay);
            }
            FrameKind::DoneAck => {
                p.done_acked = true;
                p.watermark = p.watermark.max(msg.vsend + min_delay);
            }
            FrameKind::Hello => unreachable!("open_frame refuses Hello"),
        }
        true
    }

    /// Empties the inboxes and snapshots the bound.
    ///
    /// Ordering 1: both happen in this one call, which the shell makes
    /// in one critical section. A frame arriving between a drain and a
    /// later bound computation would already have raised its peer's
    /// watermark while still sitting undrained in the inbox, letting
    /// the bound overtake its delivery time — and an unrelated pending
    /// event could then be processed out of order. With the atomic
    /// snapshot, every frame received after it has `vdeliver` strictly
    /// above the snapshot watermark (FIFO links, monotone sender
    /// clocks, delays > `min_delay`), hence above the bound used for
    /// this processing pass.
    pub(crate) fn drain(&mut self) -> Drained {
        let (mut frames, mut drops) = (Vec::new(), Vec::new());
        let mut snap = Snapshot {
            bound: f64::INFINITY,
            all_finished: true,
            all_acked: true,
            isolated: false,
        };
        for j in self.others() {
            let p = &mut self.peers[j];
            frames.extend(p.inbox.drain(..));
            if p.pending_drops > 0 {
                drops.push((j, std::mem::take(&mut p.pending_drops)));
            }
            if !p.dead {
                snap.bound = snap.bound.min(p.watermark);
            }
            snap.all_finished &= p.done || p.dead;
            // A done peer that hung up has exited; it can no longer
            // acknowledge, and no longer needs to.
            snap.all_acked &= p.done_acked || p.dead || (p.done && !p.connected);
        }
        snap.isolated = snap.bound.is_infinite() && !self.done_sent && self.id.n > 1;
        Drained {
            frames,
            drops,
            notes: std::mem::take(&mut self.notes),
            snap,
        }
    }

    /// Keeps `d` for handshake gap-resend, whatever the link state: a
    /// reconnecting peer asks for history by `lseq`. This is all a
    /// replayed activation does with its output — those frames were
    /// sent before the crash.
    pub(crate) fn retain(&mut self, d: DataOut) {
        let p = &mut self.peers[d.to];
        p.retain.insert(d.lseq, d);
        if p.retain.len() > RETAIN_CAP {
            p.retain.pop_first();
            self.stats.retain_evicted += 1;
        }
    }

    /// A live activation's output: retained, stamped with a fresh
    /// `wire_seq`, and queued for the wire if the link is up. With the
    /// link down the frame is lost; `Reliable` retransmits (and the
    /// retention copy covers a later handshake).
    pub(crate) fn send_data(&mut self, d: DataOut, out: &mut Outbox) {
        self.retain(d.clone());
        if !self.emit(FrameKind::Data, d, out) {
            self.stats.send_drops += 1;
        }
    }

    /// The control plane of one main-loop pass, in order:
    ///
    /// 1. output reached — Done to every peer that has not heard it on
    ///    its current connection (a reconnect re-announces);
    /// 2. a DoneAck for every Done received since the last pass;
    /// 3. when the keepalive is due — Done again to peers that have not
    ///    acknowledged it, else the current promise again to peers
    ///    still working. Control frames have no retransmission layer
    ///    under them; the periodic re-send is what makes their loss
    ///    survivable;
    /// 4. unless the run is over — a Null to every peer the new promise
    ///    `bound + min_delay` exceeds the last one sent to. Any future
    ///    Data from us is strictly beyond it: activations happen after
    ///    `bound`, delays strictly exceed `min_delay`.
    pub(crate) fn control(
        &mut self,
        vnow: f64,
        output_ready: bool,
        keepalive_due: bool,
        snap: Snapshot,
        out: &mut Outbox,
    ) -> Control {
        let mut announced = false;
        for j in self.others() {
            let p = &mut self.peers[j];
            if output_ready && p.connected && !p.done_notified {
                p.done_notified = true;
                announced = true;
                self.send_ctl(FrameKind::Done, j, vnow, out);
            }
            let p = &mut self.peers[j];
            if p.connected && std::mem::take(&mut p.ack_owed) {
                self.send_ctl(FrameKind::DoneAck, j, vnow, out);
            }
        }
        self.done_sent |= output_ready;
        if keepalive_due {
            for j in self.others() {
                let p = &self.peers[j];
                if !p.connected || p.dead {
                    continue;
                }
                if self.done_sent && !p.done_acked {
                    self.send_ctl(FrameKind::Done, j, vnow, out);
                } else if !p.done && p.last_promised > 0.0 {
                    self.send_ctl(FrameKind::Null, j, p.last_promised, out);
                }
            }
        }
        let finished = self.done_sent && snap.all_finished && snap.all_acked;
        let promise = snap.bound + self.id.min_delay;
        if !finished && promise.is_finite() {
            for j in self.others() {
                let p = &mut self.peers[j];
                if p.connected && !p.dead && promise > p.last_promised {
                    p.last_promised = promise;
                    self.send_ctl(FrameKind::Null, j, promise, out);
                }
            }
        }
        Control {
            announced,
            finished,
        }
    }

    /// Liveness bookkeeping for links that are down: declares dead the
    /// peers `expired` says have been down for the dead-after period,
    /// and returns the peers we dial whose reconnect should start now.
    pub(crate) fn liveness(
        &mut self,
        all_finished: bool,
        expired: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let (me, mut redial) = (self.id.me, Vec::new());
        for j in self.others() {
            let p = &mut self.peers[j];
            // Endgame: every peer is finished and this one hung up
            // after sending its Done — it has exited. Redialing would
            // only be refused, and nothing is owed either way.
            let exited = p.done && self.done_sent && all_finished;
            if p.connected || p.dead || exited {
                continue;
            }
            if expired(j) {
                p.reconnecting = false;
                self.declare_dead(j);
            } else if j < me && !p.reconnecting {
                p.reconnecting = true;
                redial.push(j);
            }
        }
        redial
    }

    fn declare_dead(&mut self, peer: usize) {
        self.peers[peer].dead = true;
        self.stats.dead_peers += 1;
        let party = self.id.me;
        self.notes.push(EventKind::NetDeadPeer { party, peer });
    }

    /// A reconnect attempt to `peer` is about to dial.
    pub(crate) fn reconnect_attempt(&mut self, peer: usize, attempt: usize) {
        let party = self.id.me;
        self.notes.push(EventKind::NetReconnect {
            party,
            peer,
            attempt,
        });
    }

    /// The reconnect to `peer` re-established the link.
    pub(crate) fn reconnected(&mut self, peer: usize) {
        self.stats.reconnects += 1;
        self.peers[peer].reconnecting = false;
    }

    /// The reconnect policy ran out of attempts: the peer is declared
    /// dead unless something else brought the link back meanwhile.
    pub(crate) fn reconnect_exhausted(&mut self, peer: usize, attempts: usize) {
        let party = self.id.me;
        self.notes.push(EventKind::NetBackoffExhausted {
            party,
            peer,
            attempts,
        });
        let p = &mut self.peers[peer];
        p.reconnecting = false;
        if !p.dead && !p.connected {
            self.declare_dead(peer);
        }
    }

    /// A party index read from WAL record `k`, checked before it is
    /// used as one: the log's checksum is not a MAC.
    fn logged_party(&self, k: usize, party: usize) -> Result<usize, NetError> {
        if party >= self.id.n || party == self.id.me {
            return Err(NetError::Recovery(format!(
                "wal record {k} names party {party}, n = {} and this node is {}",
                self.id.n, self.id.me
            )));
        }
        Ok(party)
    }
}

/// One activation of the protocol.
#[derive(Debug)]
pub(crate) enum Event<M> {
    /// The one-shot start activation at virtual time zero.
    Start,
    Deliver(Envelope<M>),
    Timer(u64),
}

/// What a pending virtual event carries besides its key: the
/// activation, and the `(vsend, raw body)` of the frame behind a remote
/// delivery — kept only in a durable run (the log must be able to
/// re-inject the payload at replay).
type Pend<M> = (Event<M>, Option<(f64, Vec<u8>)>);

/// The virtual-time engine around the protocol. See the module docs.
pub(crate) struct Driver<P: AsyncProtocol> {
    me: usize,
    n: usize,
    seed: u64,
    min_delay: f64,
    max_events: u64,
    /// Whether a WAL is attached: received bodies are kept for it, and
    /// activations are logged.
    durable: bool,
    proto: P,
    /// Keys are distinct: a timer ordinal or a deduplicated link
    /// ordinal is part of each.
    pending: BTreeMap<VKey, Pend<P::Msg>>,
    recorder: AsyncRecorder,
    vnow: f64,
    timer_seq: u64,
    /// Per-destination Data ordinals for my outgoing links (incl. self).
    out_lseq: Vec<u64>,
    events: u64,
    retransmissions: u64,
}

impl<P> Driver<P>
where
    P: AsyncProtocol,
    P::Msg: WireCodec,
{
    pub(crate) fn new(cfg: &NodeConfig, proto: P, durable: bool) -> Self {
        Driver {
            me: cfg.me,
            n: cfg.n,
            seed: cfg.seed,
            min_delay: cfg.min_delay,
            max_events: cfg.max_events,
            durable,
            proto,
            pending: BTreeMap::new(),
            recorder: AsyncRecorder::new(cfg.n, cfg.t, &cfg.label),
            vnow: 0.0,
            timer_seq: 0,
            out_lseq: vec![0; cfg.n],
            events: 0,
            retransmissions: 0,
        }
    }

    pub(crate) fn vnow(&self) -> f64 {
        self.vnow
    }

    pub(crate) fn has_output(&self) -> bool {
        self.proto.output().is_some()
    }

    /// Runs one activation at virtual time `time` and applies its
    /// effects: trace events recorded, timers and self-deliveries
    /// pushed onto the heap, and every message for a remote peer handed
    /// to `wire` with its link ordinal and content-keyed delivery time.
    /// The only activation path: start, live loop and replay differ in
    /// `wire` alone.
    pub(crate) fn activate(
        &mut self,
        time: f64,
        event: Event<P::Msg>,
        wire: &mut impl FnMut(DataOut),
    ) {
        let me = self.me;
        self.vnow = time;
        let mut ctx = AsyncCtx::external(PartyId(me), self.n, time, true);
        match event {
            Event::Start => self.proto.on_start(&mut ctx),
            Event::Deliver(env) => self.proto.on_message(env, &mut ctx),
            Event::Timer(token) => self.proto.on_timer(token, &mut ctx),
        }
        let parts = ctx.into_parts();
        self.recorder.record_activation(time, me, parts.log);
        self.retransmissions += parts.retransmits as u64;
        for (delay, token) in parts.timers {
            let key = VKey {
                time: time + delay,
                class: 1,
                a: me as u64,
                b: self.timer_seq,
                c: token,
            };
            self.timer_seq += 1;
            self.pending.insert(key, (Event::Timer(token), None));
        }
        for env in parts.outbox {
            let to = env.to.index();
            let lseq = self.out_lseq[to];
            self.out_lseq[to] += 1;
            let vdeliver = time + link_delay(self.seed, me, to, lseq, self.min_delay);
            if to == me {
                let key = VKey {
                    time: vdeliver,
                    class: 0,
                    a: me as u64,
                    b: me as u64,
                    c: lseq,
                };
                self.pending.insert(key, (Event::Deliver(env), None));
            } else {
                wire(DataOut {
                    to,
                    lseq,
                    vsend: time,
                    vdeliver,
                    body: env.payload.to_bytes(),
                });
            }
        }
    }

    /// Takes in one [`LinkTable::drain`]: rejections and liveness
    /// transitions go to the trace, received Data among the pending
    /// events. Returns how many frames carried an undecodable payload
    /// (traced as drops here; the caller owns the counter).
    ///
    /// # Errors
    ///
    /// [`NetError::Isolated`] when every peer died before an output:
    /// nothing can ever arrive, and the unbounded `bound` would let
    /// retransmission timers spin the event loop to its cap.
    pub(crate) fn absorb(&mut self, drained: Drained) -> Result<u64, NetError> {
        let me = self.me;
        if drained.snap.isolated {
            return Err(NetError::Isolated {
                events: self.events,
            });
        }
        for (j, k) in drained.drops {
            for _ in 0..k {
                self.recorder.record_drop(self.vnow, j, me);
            }
        }
        for note in drained.notes {
            self.recorder.record_net(self.vnow, note);
        }
        let mut undecodable = 0;
        for mut m in drained.frames {
            let from = m.from as usize;
            let Ok(payload) = P::Msg::from_bytes(&m.body) else {
                self.recorder.record_drop(self.vnow, from, me);
                undecodable += 1;
                continue;
            };
            let key = VKey {
                time: m.vdeliver,
                class: 0,
                a: u64::from(m.from),
                b: me as u64,
                c: m.lseq,
            };
            let env = Envelope {
                from: PartyId(from),
                to: PartyId(me),
                payload,
            };
            let wire = self.durable.then(|| (m.vsend, std::mem::take(&mut m.body)));
            self.pending.insert(key, (Event::Deliver(env), wire));
        }
        Ok(undecodable)
    }

    /// Processes the safe prefix of the global [`VKey`] order: every
    /// pending event whose time is inside `snap.bound`. Returns whether
    /// there was any.
    ///
    /// Once this node has output and every peer has died, nothing is
    /// left to process: no frame can arrive, `bound` is infinite, and
    /// the pending events are retransmission timers that re-arm
    /// themselves — processing them would spin to the event cap before
    /// [`LinkTable::control`] could end the run. The twin of
    /// [`Snapshot::isolated`], after the output instead of before it.
    ///
    /// Ordering 3, second half: in a durable run each event's record
    /// goes to `log` BEFORE the event activates the protocol — a crash
    /// between the append and the activation just replays one extra
    /// event. The raw body moves out of the pending entry into the
    /// record: nothing reads it after the append. Every
    /// [`MARK_INTERVAL`] events an integrity mark carrying `probe`'s
    /// fingerprint of the protocol follows the activation.
    ///
    /// # Errors
    ///
    /// [`NetError::Stalled`] past the event cap; whatever `log` returns.
    pub(crate) fn run_ready(
        &mut self,
        snap: Snapshot,
        probe: &dyn Fn(&P) -> u64,
        log: &mut impl FnMut(WalRecord) -> Result<(), NetError>,
        wire: &mut impl FnMut(DataOut),
    ) -> Result<bool, NetError> {
        let bound = snap.bound;
        if bound.is_infinite() && self.has_output() {
            return Ok(false);
        }
        let mut any = false;
        while self
            .pending
            .first_key_value()
            .is_some_and(|(k, _)| k.time <= bound)
        {
            let (key, (what, raw)) = self.pending.pop_first().expect("peeked");
            any = true;
            self.events += 1;
            if self.events > self.max_events {
                return Err(NetError::Stalled {
                    events: self.events,
                });
            }
            if self.durable {
                let remote = match (&what, raw) {
                    (Event::Deliver(env), Some((vsend, body))) => Some(WalRemote {
                        from: env.from.index(),
                        lseq: key.c,
                        vsend_bits: vsend.to_bits(),
                        body,
                    }),
                    _ => None,
                };
                log(WalRecord::Event(WalEvent {
                    time_bits: key.time.to_bits(),
                    class: key.class,
                    a: key.a,
                    b: key.b,
                    c: key.c,
                    remote,
                }))?;
            }
            self.activate(key.time, what, wire);
            if self.durable && self.events.is_multiple_of(MARK_INTERVAL) {
                log(WalRecord::Mark(WalMark {
                    time_bits: key.time.to_bits(),
                    events: self.events,
                    probe: probe(&self.proto),
                }))?;
            }
        }
        Ok(any)
    }

    /// Crash recovery: feeds a WAL's records back through
    /// [`Driver::activate`] with sends suppressed, rebuilding in `links`
    /// what the pre-crash process held — `wire_seq` reservations, the
    /// have-sets, the watermarks its received frames proved, retention —
    /// and in `self` the pending events, the ordinals and the trace.
    ///
    /// # Errors
    ///
    /// [`NetError::Recovery`] when a record names a party outside the
    /// run, a payload does not decode, the deterministic replay diverges
    /// from the logged schedule, or a mark's probe disagrees.
    pub(crate) fn replay(
        &mut self,
        records: Vec<WalRecord>,
        links: &mut LinkTable,
        probe: &dyn Fn(&P) -> u64,
    ) -> Result<(), NetError> {
        let fail = |k: usize, what: &str| NetError::Recovery(format!("wal record {k}: {what}"));
        // The start activation, exactly as the pre-crash process ran it.
        self.activate(0.0, Event::Start, &mut |d| links.retain(d));
        let mut replayed = 0usize;
        for (k, rec) in records.into_iter().enumerate() {
            match rec {
                WalRecord::Header(_) => {}
                WalRecord::Reserve { peer, upto } => {
                    // Resume past the logged block.
                    let peer = links.logged_party(k, peer)?;
                    let p = &mut links.peers[peer];
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
                    let event = if let Some(r) = ev.remote {
                        let from = links.logged_party(k, r.from)?;
                        let payload = P::Msg::from_bytes(&r.body)
                            .map_err(|e| fail(k, &format!("undecodable payload: {e}")))?;
                        // The ordinal is held again, and the watermark
                        // this frame once proved is re-proved.
                        let p = &mut links.peers[from];
                        p.have.insert(r.lseq);
                        let proved = f64::from_bits(r.vsend_bits) + self.min_delay;
                        p.watermark = p.watermark.max(proved);
                        Event::Deliver(Envelope {
                            from: PartyId(from),
                            to: PartyId(self.me),
                            payload,
                        })
                    } else {
                        // A locally generated event: deterministic
                        // replay must have it first in line.
                        let (head, (what, _)) = self
                            .pending
                            .pop_first()
                            .ok_or_else(|| fail(k, "no pending local event"))?;
                        if head != key {
                            return Err(fail(k, "schedule diverged"));
                        }
                        what
                    };
                    replayed += 1;
                    self.events += 1;
                    self.activate(key.time, event, &mut |d| links.retain(d));
                }
                WalRecord::Mark(m) => {
                    let fp = probe(&self.proto);
                    if fp != m.probe {
                        return Err(NetError::Recovery(format!(
                            "probe mismatch at {} events: logged {:016x}, replayed {fp:016x}",
                            m.events, m.probe
                        )));
                    }
                }
            }
        }
        let party = self.me;
        self.recorder
            .record_net(self.vnow, EventKind::NetRecovery { party, replayed });
        Ok(())
    }

    /// Ends the run: the report, with the link table's counters.
    pub(crate) fn finish(self, mut stats: NetStats) -> NodeReport<P::Output> {
        stats.retransmissions = self.retransmissions;
        NodeReport {
            output: self.proto.output(),
            trace: self.recorder.into_record(),
            stats,
            vtime: self.vnow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PREFIX_LEN;
    use aa_trace::ProtoEvent;

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

    /// The shipped part of this file names nothing that does I/O, reads
    /// a clock or shares state between threads.
    #[test]
    fn core_is_sans_io() {
        let source = include_str!("core.rs");
        let shipped = &source[..source.find("#[cfg(test)]").expect("test module")];
        for banned in [
            "std::net", "std::fs", "Instant", "Mutex", "thread::", "mpsc", "env::",
        ] {
            assert!(!shipped.contains(banned), "core.rs names `{banned}`");
        }
    }

    // ---- an in-memory cluster: core state machines, queues for wires ----

    const N: usize = 3;
    const ROUNDS: u64 = 24;
    /// The "round" of the one timer-driven message.
    const TICK: u64 = 0xffff_ffff;

    /// `ROUNDS` all-to-all rounds over `u64`s (round in the high half,
    /// value in the low), self-deliveries included, plus one timer whose
    /// firing sends a message outside the rounds. The output folds in
    /// every delivery in order, so equal outputs mean equal schedules.
    struct Rounds {
        me: usize,
        round: u64,
        value: u64,
        got: BTreeMap<u64, Vec<u64>>,
        acc: u64,
        out: Option<u64>,
    }

    impl Rounds {
        fn new(me: usize) -> Rounds {
            Rounds {
                me,
                round: 0,
                value: 17 * me as u64 + 3,
                got: BTreeMap::new(),
                acc: 0,
                out: None,
            }
        }
    }

    impl AsyncProtocol for Rounds {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            ctx.set_timer(0.7, 9);
            ctx.broadcast(self.value);
        }

        fn on_message(&mut self, env: Envelope<u64>, ctx: &mut AsyncCtx<u64>) {
            let (from, msg) = (env.from.index() as u64, env.payload);
            self.acc = (self.acc ^ msg ^ (from << 56)).wrapping_mul(0x0100_0000_01b3);
            ctx.emit_with(|| ProtoEvent::new("got").u64("from", from).u64("msg", msg));
            let (round, value) = (msg >> 32, msg & 0xffff_ffff);
            if round == TICK {
                return;
            }
            self.got.entry(round).or_default().push(value);
            while self.out.is_none() && self.got.get(&self.round).is_some_and(|g| g.len() == N) {
                let sum: u64 = self.got[&self.round].iter().sum();
                self.value = sum % 1000 + self.me as u64;
                self.round += 1;
                if self.round == ROUNDS {
                    self.out = Some(self.acc);
                } else {
                    ctx.broadcast(self.round << 32 | self.value);
                }
            }
        }

        fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<u64>) {
            ctx.send(PartyId((self.me + 1) % N), TICK << 32 | token);
        }

        fn output(&self) -> Option<u64> {
            self.out
        }
    }

    fn probe(p: &Rounds) -> u64 {
        p.acc ^ p.round
    }

    fn config(me: usize) -> NodeConfig {
        NodeConfig::new(me, N, 0, Vec::new(), 0x5eed, 0xf00d, 11)
    }

    fn others(me: usize) -> impl Iterator<Item = usize> {
        (0..N).filter(move |&j| j != me)
    }

    /// Framed bytes in flight, by `(from, to)`.
    type Wires = BTreeMap<(usize, usize), VecDeque<Vec<u8>>>;

    /// A node's WAL as a `Vec`, with a scripted point of death.
    struct Log {
        records: Vec<WalRecord>,
        /// Die when the log holds this many records: right after the
        /// append that gets it there (`false`: nothing the record
        /// describes has happened yet), or right before the next one
        /// (`true`: everything it describes is on the wire).
        cut: Option<(usize, bool)>,
        dead: bool,
    }

    impl Log {
        fn append(&mut self, rec: WalRecord) -> Result<(), NetError> {
            self.dead |= self.cut == Some((self.records.len(), true));
            if !self.dead {
                self.records.push(rec);
                self.dead = self.cut == Some((self.records.len(), false));
            }
            if self.dead {
                return Err(NetError::Io("scripted crash".into()));
            }
            Ok(())
        }
    }

    /// The log first, then the wire — `Shared::flush`, over queues. A
    /// dead process sends nothing.
    fn flush(me: usize, out: &mut Outbox, log: &mut Log, wires: &mut Wires) {
        for rec in out.log.drain(..) {
            let _ = log.append(rec);
        }
        for (to, bytes) in out.frames.drain(..) {
            if !log.dead {
                wires.entry((me, to)).or_default().push_back(bytes);
            }
        }
    }

    /// What the shell is to the real node, minus threads and sockets.
    struct Node {
        me: usize,
        table: LinkTable,
        driver: Driver<Rounds>,
        out: Outbox,
        log: Log,
        finished: bool,
    }

    impl Node {
        fn new(me: usize, records: Vec<WalRecord>) -> Node {
            let cfg = config(me);
            Node {
                me,
                table: LinkTable::new(LinkId::of(&cfg)),
                driver: Driver::new(&cfg, Rounds::new(me), true),
                out: Outbox::default(),
                log: Log {
                    records,
                    cut: None,
                    dead: false,
                },
                finished: false,
            }
        }

        fn fresh(me: usize) -> Node {
            Node::new(me, vec![WalRecord::Header(config(me).wal_header())])
        }

        /// Runs `f` on the table and carries out what it decided.
        fn on_table<T>(
            &mut self,
            wires: &mut Wires,
            f: impl FnOnce(&mut LinkTable, &mut Outbox) -> T,
        ) -> T {
            let result = f(&mut self.table, &mut self.out);
            flush(self.me, &mut self.out, &mut self.log, wires);
            result
        }

        /// The safe prefix of `snap` (`None`: the start activation),
        /// each message flushed as the shell's `send_data` does.
        fn activate(&mut self, snap: Option<Snapshot>, wires: &mut Wires) -> bool {
            let Node {
                me,
                table,
                driver,
                out,
                log,
                ..
            } = self;
            let log = std::cell::RefCell::new(log);
            let mut wire = |d| {
                table.send_data(d, out);
                flush(*me, out, &mut log.borrow_mut(), wires);
            };
            let Some(snap) = snap else {
                driver.activate(0.0, Event::Start, &mut wire);
                return true;
            };
            let mut append = |rec| log.borrow_mut().append(rec);
            driver
                .run_ready(snap, &probe, &mut append, &mut wire)
                .unwrap_or(true)
        }

        /// What the reader threads do with the bytes queued for this
        /// node. Returns whether there were any.
        fn read_wires(&mut self, wires: &mut Wires) -> bool {
            let mut any = false;
            for j in others(self.me) {
                while let Some(bytes) = wires.get_mut(&(j, self.me)).and_then(VecDeque::pop_front) {
                    let payload = &bytes[PREFIX_LEN..];
                    let msg = self.table.id.open_frame(j, payload).expect("honest peer");
                    assert!(self.table.accept(j, msg, payload.len()));
                    any = true;
                }
            }
            any
        }

        /// One pass of the main loop, after the readers' work. Returns
        /// whether anything happened.
        fn step(&mut self, wires: &mut Wires) -> bool {
            let mut progress = self.read_wires(wires);
            let drained = self.table.drain();
            let snap = drained.snap;
            assert_eq!(self.driver.absorb(drained).expect("peers alive"), 0);
            progress |= self.activate(Some(snap), wires);
            let (vnow, ready) = (self.driver.vnow(), self.driver.has_output());
            let (finished, sent) = self.on_table(wires, |t, out| {
                let ctl = t.control(vnow, ready, false, snap, out);
                (ctl.finished, !out.frames.is_empty())
            });
            self.finished = finished && !self.log.dead;
            progress || sent || self.finished
        }
    }

    struct World {
        nodes: Vec<Node>,
        wires: Wires,
        /// `epoch[i][j]`: the epoch of node i's current link to j.
        epoch: [[u64; N]; N],
        crashes: usize,
    }

    impl World {
        /// Both halves of a handshake between `i` and `j`, as
        /// `dial_handshake` and `accept_handshake` run them. Whatever the
        /// old connection still had in flight is read after the Hellos
        /// are written and before they are admitted — the window in
        /// which a frame is both received and gap-resent.
        fn handshake(&mut self, i: usize, j: usize) {
            let hello = |w: &mut World, from: usize, to: usize| {
                w.nodes[from].on_table(&mut w.wires, |t, out| t.hello(to, out))
            };
            let link = |w: &mut World, at: usize, hello: &[u8]| {
                let id = w.nodes[at].table.id;
                let (from, wire_seq, body) =
                    id.open_hello(&hello[PREFIX_LEN..], None).expect("hello");
                w.epoch[at][from] = w.nodes[at].on_table(&mut w.wires, |t, out| {
                    t.admit_hello(from, wire_seq).expect("fresh hello");
                    t.link_up(from, &body, out)
                });
            };
            let from_i = hello(self, i, j);
            let from_j = hello(self, j, i);
            self.nodes[i].read_wires(&mut self.wires);
            self.nodes[j].read_wires(&mut self.wires);
            link(self, j, &from_i);
            link(self, i, &from_j);
        }

        /// Steps `who` round-robin until none of them makes progress or
        /// one dies (returned).
        fn settle(&mut self, who: &[usize]) -> Option<usize> {
            for _ in 0..100_000 {
                let mut progress = false;
                for &i in who {
                    if self.nodes[i].finished {
                        continue;
                    }
                    progress |= self.nodes[i].step(&mut self.wires);
                    if self.nodes[i].log.dead {
                        return Some(i);
                    }
                    if self.nodes[i].finished {
                        // The process exits: its peers read EOF.
                        for j in others(i) {
                            let epoch = self.epoch[j][i];
                            self.nodes[j].table.link_down(i, epoch);
                        }
                    }
                }
                if !progress {
                    return None;
                }
            }
            panic!("the script does not settle");
        }

        /// Node `x` is gone: bytes in flight toward it are lost and its
        /// peers read EOF. Then a new process replays the log it left
        /// and re-handshakes — after the peers ran on alone as far as
        /// they could (sends into the dead link are dropped), or at once
        /// (what `x` had in flight is still unread at the handshake).
        fn crash_and_recover(&mut self, x: usize, peers_settle_first: bool) {
            self.crashes += 1;
            let peers: Vec<usize> = others(x).collect();
            for &j in &peers {
                self.wires.remove(&(j, x));
                let epoch = self.epoch[j][x];
                assert!(self.nodes[j].table.link_down(x, epoch));
            }
            if peers_settle_first {
                assert_eq!(self.settle(&peers), None);
            }
            let log = std::mem::take(&mut self.nodes[x].log.records);
            let mut node = Node::new(x, log.clone());
            node.driver
                .replay(log, &mut node.table, &probe)
                .expect("replay");
            self.nodes[x] = node;
            for &j in &peers {
                self.handshake(x, j);
            }
        }

        /// Runs the script to completion; `cut = (victim, len, late)`
        /// crashes the victim once, at that point of its log.
        fn run(cut: Option<(usize, usize, bool)>) -> World {
            let mut w = World {
                nodes: (0..N).map(Node::fresh).collect(),
                wires: Wires::new(),
                epoch: [[0; N]; N],
                crashes: 0,
            };
            for i in 0..N {
                for j in 0..i {
                    w.handshake(i, j);
                }
            }
            for node in &mut w.nodes {
                node.activate(None, &mut w.wires);
            }
            if let Some((victim, len, late)) = cut {
                w.nodes[victim].log.cut = Some((len, late));
            }
            let all: Vec<usize> = (0..N).collect();
            while let Some(x) = w.settle(&all) {
                w.crash_and_recover(x, cut.is_some_and(|(_, _, late)| late));
            }
            assert!(w.nodes.iter().all(|n| n.finished), "the script stalled");
            w
        }

        fn outputs(&self) -> Vec<Option<u64>> {
            self.nodes.iter().map(|n| n.driver.proto.output()).collect()
        }
    }

    fn deliveries(log: &[WalRecord]) -> impl Iterator<Item = (usize, u64)> + '_ {
        log.iter().filter_map(|rec| match rec {
            WalRecord::Event(WalEvent {
                remote: Some(r), ..
            }) => Some((r.from, r.lseq)),
            _ => None,
        })
    }

    /// The recover invariant: across a crash, no Data `lseq` delivered
    /// to the protocol is lost or delivered twice. `before` is the log
    /// the crashed process left (what replay feeds the protocol),
    /// `after` what the recovered process appended to it (what it fed
    /// the protocol live), `clean` the log of the same run uncrashed.
    fn recover_invariant(
        before: &[WalRecord],
        after: &[WalRecord],
        clean: &[WalRecord],
    ) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for d in deliveries(before).chain(deliveries(after)) {
            if !seen.insert(d) {
                return Err(format!("Data (from, lseq) = {d:?} delivered twice"));
            }
        }
        let want: BTreeSet<(usize, u64)> = deliveries(clean).collect();
        match want.symmetric_difference(&seen).next() {
            Some(d) if want.contains(d) => Err(format!("Data (from, lseq) = {d:?} lost")),
            Some(d) => Err(format!("Data (from, lseq) = {d:?} delivered from nowhere")),
            None => Ok(()),
        }
    }

    #[test]
    fn no_delivery_is_lost_or_doubled_at_any_wal_prefix() {
        let victim = 1;
        let clean = World::run(None);
        let clean_log = &clean.nodes[victim].log.records;
        assert_eq!(clean.crashes, 0);
        assert!(clean_log.iter().any(|r| matches!(r, WalRecord::Mark(_))));
        // Header + one reservation per link: what bring-up logs. Shorter
        // prefixes hold no delivery and no activation.
        let armed = 1 + (N - 1);
        let mut crashed_runs = 0;
        for cut in armed..=clean_log.len() {
            for late in [false, true] {
                let w = World::run(Some((victim, cut, late)));
                for (i, node) in w.nodes.iter().enumerate() {
                    // The peers never died: all of their log is "before".
                    let log = &node.log.records;
                    let (before, after) = log.split_at(if i == victim { cut } else { log.len() });
                    recover_invariant(before, after, &clean.nodes[i].log.records)
                        .unwrap_or_else(|e| panic!("cut {cut}, late {late}, node {i}: {e}"));
                }
                assert_eq!(w.outputs(), clean.outputs(), "cut {cut}, late {late}");
                crashed_runs += w.crashes;
            }
        }
        // Every prefix crashed once, but for the two ends that cannot:
        // dying "after" a record bring-up wrote, "before" one never written.
        assert_eq!(crashed_runs, 2 * (clean_log.len() - armed + 1) - 2);
    }

    #[test]
    fn replay_equals_live() {
        let x = 1;
        let clean = World::run(None);
        let log = &clean.nodes[x].log.records;

        // Live: the logged inputs arrive as frames and go through the
        // filters, the heap and the bound, and out onto the wire.
        let mut live = Node::fresh(x);
        let mut wires = Wires::new();
        let nobody_has_anything = HelloBody {
            config_fp: 0,
            version: WIRE_VERSION,
            have_prefix: 0,
            have_extras: Vec::new(),
        };
        for j in others(x) {
            live.on_table(&mut wires, |t, out| t.link_up(j, &nobody_has_anything, out));
        }
        live.activate(None, &mut wires);
        for (wire_seq, rec) in log.iter().enumerate() {
            let WalRecord::Event(ev) = rec else { continue };
            let time = f64::from_bits(ev.time_bits);
            if let Some(r) = &ev.remote {
                let data = DataOut {
                    to: x,
                    lseq: r.lseq,
                    vsend: f64::from_bits(r.vsend_bits),
                    vdeliver: time,
                    body: r.body.clone(),
                };
                let peer = LinkId::of(&config(r.from));
                let bytes = peer.seal(FrameKind::Data, wire_seq as u64, data);
                wires.entry((r.from, x)).or_default().push_back(bytes);
                assert!(live.read_wires(&mut wires));
            }
            let drained = live.table.drain();
            let snap = Snapshot {
                bound: time,
                ..drained.snap
            };
            assert_eq!(live.driver.absorb(drained).expect("peers alive"), 0);
            assert!(live.activate(Some(snap), &mut wires));
        }
        let steps = |log: &[WalRecord]| -> Vec<WalRecord> {
            let keep = |r: &&WalRecord| matches!(r, WalRecord::Event(_) | WalRecord::Mark(_));
            log.iter().filter(keep).cloned().collect()
        };
        assert_eq!(
            steps(&live.log.records),
            steps(log),
            "live logs what it was fed"
        );

        // Replay: the same inputs straight from the log.
        let mut re = Node::new(x, log.clone());
        re.driver
            .replay(log.clone(), &mut re.table, &probe)
            .expect("replay");

        // Identical canonical traces, but for replay's closing marker.
        let re_trace = re.driver.recorder.record().to_trace();
        let (marker, replayed) = re_trace.events.split_last().expect("marker");
        assert_eq!(
            replayed,
            &live.driver.recorder.record().to_trace().events[..]
        );
        let recovery = EventKind::NetRecovery {
            party: x,
            replayed: live.driver.events as usize,
        };
        assert_eq!(marker.kind, recovery);
        assert_eq!(re.driver.out_lseq, live.driver.out_lseq);
        assert_eq!(re.driver.timer_seq, live.driver.timer_seq);
        assert_eq!(re.driver.vnow.to_bits(), live.driver.vnow.to_bits());
        assert_eq!(re.driver.proto.output(), live.driver.proto.output());
        for j in others(x) {
            let (a, b) = (&re.table.peers[j], &live.table.peers[j]);
            assert!(a.retain.keys().eq(b.retain.keys()), "retention toward {j}");
            assert!(!a.retain.is_empty());
            assert_eq!(
                a.watermark.to_bits(),
                b.watermark.to_bits(),
                "watermark of {j}"
            );
            assert_eq!(
                (a.have.prefix, &a.have.extras),
                (b.have.prefix, &b.have.extras)
            );
            // Replay put nothing on the wire; the live run sent it all.
            assert_eq!(wires[&(x, j)].len(), b.retain.len());
        }
        assert!(re.out.frames.is_empty() && re.table.stats.frames_sent == 0);
    }

    #[test]
    fn a_wal_naming_a_party_outside_the_run_is_a_typed_error() {
        let header = || WalRecord::Header(config(1).wal_header());
        let remote_from = |from| {
            WalRecord::Event(WalEvent {
                time_bits: 1.0f64.to_bits(),
                class: 0,
                a: from as u64,
                b: 1,
                c: 0,
                remote: Some(WalRemote {
                    from,
                    lseq: 0,
                    vsend_bits: 0.25f64.to_bits(),
                    body: 7u64.to_bytes(),
                }),
            })
        };
        let reserve_for = |peer| WalRecord::Reserve { peer, upto: 256 };
        for (bad, party) in [
            (reserve_for(N), N),
            (reserve_for(1), 1),
            (reserve_for(usize::MAX), usize::MAX),
            (remote_from(N + 4), N + 4),
            (remote_from(1), 1),
        ] {
            let mut node = Node::fresh(1);
            let err = node
                .driver
                .replay(vec![header(), reserve_for(0), bad], &mut node.table, &probe)
                .expect_err("out-of-range party");
            let NetError::Recovery(msg) = err else {
                panic!("wrong error: {err}")
            };
            assert!(
                msg.contains(&format!("wal record 2 names party {party}")),
                "{msg}"
            );
        }
        let mut node = Node::fresh(1);
        node.driver
            .replay(
                vec![header(), reserve_for(0), remote_from(2)],
                &mut node.table,
                &probe,
            )
            .expect("in-range parties replay");
    }

    // ---- table tests on the link state machine ----

    /// Node 0 of 2 with its link to peer 1 up, and peer 1's identity to
    /// seal frames with.
    fn linked_pair() -> (LinkTable, LinkId, Outbox) {
        let cfg = |me| NodeConfig::new(me, 2, 0, Vec::new(), 0x5eed, 0xf00d, 11);
        let mut table = LinkTable::new(LinkId::of(&cfg(0)));
        let mut out = Outbox::default();
        let hello = table.hello(1, &mut out);
        let (_, _, body) = LinkId::of(&cfg(1))
            .open_hello(&hello[PREFIX_LEN..], Some(0))
            .expect("own hello");
        table.link_up(1, &body, &mut out);
        out.log.clear();
        (table, LinkId::of(&cfg(1)), out)
    }

    /// Feeds `table` a frame from peer 1; returns whether it was accepted.
    fn feed(
        table: &mut LinkTable,
        peer: LinkId,
        kind: FrameKind,
        wire_seq: u64,
        d: DataOut,
    ) -> bool {
        let bytes = peer.seal(kind, wire_seq, d);
        let payload = &bytes[PREFIX_LEN..];
        let msg = table.id.open_frame(1, payload).expect("authentic");
        table.accept(1, msg, payload.len())
    }

    fn data(lseq: u64, vsend: f64) -> DataOut {
        DataOut {
            to: 0,
            lseq,
            vsend,
            vdeliver: vsend + 0.75,
            body: lseq.to_bytes(),
        }
    }

    /// The `(kind, vsend)` of every frame queued since the last call.
    fn sent(out: &mut Outbox) -> Vec<(FrameKind, f64)> {
        let decode = |(_, bytes): (usize, Vec<u8>)| {
            let msg = WrapperMsg::decode(&bytes[PREFIX_LEN..]).expect("own frame");
            (msg.kind, msg.vsend)
        };
        out.frames.drain(..).map(decode).collect()
    }

    #[test]
    fn the_replay_filter_wants_strictly_increasing_wire_seq_and_the_dup_filter_fresh_lseq() {
        use FrameKind::{Data, Null};
        let (mut t, peer, _) = linked_pair();
        // (kind, wire_seq, lseq, vsend) -> accepted?, then the counters
        // (rejected_replay, dup_frames, delivered so far, watermark).
        let rows = [
            ((Data, 5, 0, 1.0), true, (0, 0, 1, 1.5)),
            ((Data, 5, 1, 1.1), false, (1, 0, 1, 1.5)), // same wire_seq: replay
            ((Data, 3, 1, 1.1), false, (2, 0, 1, 1.5)), // older wire_seq: replay
            ((Data, 6, 1, 1.1), true, (2, 0, 2, 1.6)),
            // A gap-resend of lseq 0 under a fresh wire_seq: accepted, not
            // delivered again, and its watermark gain is kept.
            ((Data, 7, 0, 2.0), true, (2, 1, 2, 2.5)),
            // Out of order above the prefix, then its duplicate.
            ((Data, 8, 4, 2.0), true, (2, 1, 3, 2.5)),
            ((Data, 9, 4, 2.0), true, (2, 2, 3, 2.5)),
            // A promise is the bound itself; a lower one never lowers it.
            ((Null, 10, 0, 4.0), true, (2, 2, 3, 4.0)),
            ((Null, 11, 0, 3.0), true, (2, 2, 3, 4.0)),
        ];
        for (row, ((kind, wire_seq, lseq, vsend), accepted, want)) in rows.into_iter().enumerate() {
            assert_eq!(
                feed(&mut t, peer, kind, wire_seq, data(lseq, vsend)),
                accepted,
                "row {row}"
            );
            let p = &t.peers[1];
            let got = (
                t.stats.rejected_replay,
                t.stats.dup_frames,
                p.inbox.len(),
                p.watermark,
            );
            assert_eq!(got, want, "row {row}");
        }
        // Each replay is owed one `fault_drop`; duplicates are not faults.
        let drained = t.drain();
        assert_eq!(drained.drops, vec![(1, 2)]);
        assert_eq!(
            drained.frames.iter().map(|m| m.lseq).collect::<Vec<_>>(),
            vec![0, 1, 4]
        );
        assert_eq!(drained.snap.bound, 4.0);
    }

    #[test]
    fn done_doneack_keepalive_and_promise_rules() {
        use FrameKind::{Done, DoneAck, Null};
        let (mut t, peer, mut out) = linked_pair();
        let snap = |t: &mut LinkTable| t.drain().snap;
        let empty = DataOut {
            to: 0,
            lseq: 0,
            vsend: 2.0,
            vdeliver: 2.0,
            body: Vec::new(),
        };

        // Working, bound 0: the first promise goes out once, and again
        // only when the keepalive is due or the bound moved.
        let s = snap(&mut t);
        t.control(0.0, false, false, s, &mut out);
        assert_eq!(sent(&mut out), vec![(Null, 0.5)]);
        t.control(0.0, false, false, s, &mut out);
        assert_eq!(sent(&mut out), vec![]);
        t.control(0.0, false, true, s, &mut out);
        assert_eq!(
            sent(&mut out),
            vec![(Null, 0.5)],
            "keepalive re-announces the promise"
        );
        assert!(feed(&mut t, peer, Null, 1, empty.clone()));
        let s = snap(&mut t);
        t.control(0.0, false, false, s, &mut out);
        assert_eq!(sent(&mut out), vec![(Null, 2.5)]);

        // Output reached: Done once per connection; the keepalive
        // repeats it until it is acknowledged.
        let c = t.control(1.0, true, false, s, &mut out);
        assert!(c.announced && !c.finished);
        assert_eq!(sent(&mut out), vec![(Done, 1.0)]);
        let c = t.control(1.0, true, false, s, &mut out);
        assert!(!c.announced);
        assert_eq!(sent(&mut out), vec![]);
        t.control(1.0, true, true, s, &mut out);
        assert_eq!(
            sent(&mut out),
            vec![(Done, 1.0)],
            "unacknowledged Done re-announced"
        );
        assert!(feed(&mut t, peer, DoneAck, 2, empty.clone()));
        t.control(1.0, true, true, s, &mut out);
        assert_eq!(
            sent(&mut out),
            vec![(Null, 2.5)],
            "acked: back to re-promising"
        );

        // Every received Done — a re-announcement too — earns an ack.
        for wire_seq in [3, 4] {
            assert!(feed(&mut t, peer, Done, wire_seq, empty.clone()));
            let s = snap(&mut t);
            let c = t.control(1.0, true, false, s, &mut out);
            assert!(c.finished, "done both ways and acknowledged");
            assert_eq!(sent(&mut out), vec![(DoneAck, 1.0)]);
        }
        // A done peer is not re-promised to, and a finished run promises
        // nothing new.
        let s = snap(&mut t);
        t.control(1.0, true, true, s, &mut out);
        assert_eq!(sent(&mut out), vec![]);

        // A reconnect clears the slate: Done again, the owed ack again,
        // and the promise from scratch.
        assert!(t.link_down(1, 1) && !t.link_down(1, 1));
        let s = snap(&mut t);
        t.control(1.0, true, true, s, &mut out);
        assert_eq!(
            sent(&mut out),
            vec![],
            "nothing goes into a link that is down"
        );
        let hello = HelloBody {
            config_fp: 0,
            version: WIRE_VERSION,
            have_prefix: 0,
            have_extras: Vec::new(),
        };
        assert_eq!(t.link_up(1, &hello, &mut out), 2);
        assert!(
            !t.link_down(1, 1),
            "a stale epoch cannot take the new link down"
        );
        t.peers[1].done_acked = false;
        let s = snap(&mut t);
        let c = t.control(1.0, true, false, s, &mut out);
        assert!(c.announced && !c.finished);
        assert_eq!(
            sent(&mut out),
            vec![(Done, 1.0), (DoneAck, 1.0), (Null, 3.0)]
        );
    }

    /// Outputs at once, then re-arms a retransmission timer forever:
    /// `Reliable` waiting for acknowledgements that will never come.
    struct Nagging;

    impl AsyncProtocol for Nagging {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut AsyncCtx<u64>) {
            ctx.set_timer(1.0, 0);
        }

        fn on_message(&mut self, _: Envelope<u64>, _: &mut AsyncCtx<u64>) {}

        fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<u64>) {
            ctx.set_timer(1.0, token);
        }

        fn output(&self) -> Option<u64> {
            Some(0)
        }
    }

    #[test]
    fn a_node_that_output_and_then_lost_every_peer_ends_its_run() {
        let mut cfg = config(0);
        cfg.max_events = 1_000;
        let mut table = LinkTable::new(LinkId::of(&cfg));
        let mut driver = Driver::new(&cfg, Nagging, false);
        let mut out = Outbox::default();
        driver.activate(0.0, Event::Start, &mut |_| unreachable!("sends nothing"));
        let snap = table.drain().snap;
        let ctl = table.control(driver.vnow(), driver.has_output(), false, snap, &mut out);
        assert!(!ctl.finished, "the peers have not finished");

        // After the output, every peer is declared dead.
        assert!(table.liveness(false, |_| true).is_empty());
        let drained = table.drain();
        let snap = drained.snap;
        assert!(snap.bound.is_infinite() && snap.all_finished && !snap.isolated);
        assert_eq!(driver.absorb(drained).expect("output came first"), 0);
        let ran = driver.run_ready(snap, &|_| 0, &mut |_| Ok(()), &mut |_| unreachable!());
        assert!(matches!(ran, Ok(false)), "{ran:?}");
        let ctl = table.control(driver.vnow(), driver.has_output(), false, snap, &mut out);
        assert!(ctl.finished);
    }
}
