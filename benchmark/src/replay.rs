//! WAL replay: times the transport layers on a finished run's real
//! traffic.
//!
//! `net::read_wal` on a node's log yields every `WalRemote.body` the node
//! received — the exact bytes that crossed the socket. Those bytes are
//! pushed, stage by stage, through the public functions the node itself
//! calls: `WireCodec::decode`/`encode`, `WrapperMsg::signed`/`verify`,
//! `WrapperMsg::encode`/`decode` with `frame`/`FrameBuffer`, and every
//! record is re-appended with `WalWriter::append` to a fresh file. Each
//! stage is one loop under one timer, so per-call clock reads do not
//! inflate the small ones.

use std::ops::AddAssign;
use std::path::Path;
use std::time::Instant;

use net::{
    frame, pair_key, read_wal, FrameBuffer, FrameKind, WalHeader, WalRecord, WalWriter, WireCodec,
    WrapperMsg,
};

/// What replaying one or more nodes' logs cost, stage by stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayCost {
    /// `WireCodec::decode` of every received body.
    pub decode_ns: u64,
    /// `WireCodec::encode` of the same messages (the sender's side).
    pub encode_ns: u64,
    /// Σ body bytes pushed through the codec (each direction).
    pub body_bytes: u64,
    /// `signed` + `verify` of every frame, nulls included.
    pub mac_ns: u64,
    /// Σ bytes the MAC covered (sign and verify each count once).
    pub mac_bytes: u64,
    /// Envelope `encode`/`decode` plus `frame`/`FrameBuffer`.
    pub frame_ns: u64,
    /// Re-appending every record to a fresh log.
    pub wal_append_ns: u64,
    /// Records in the log, header included.
    pub wal_records: u64,
    /// Size of the log in bytes.
    pub wal_bytes: u64,
    /// `read_wal` of the log (the recovery read side).
    pub wal_scan_ns: u64,
}

impl AddAssign for ReplayCost {
    fn add_assign(&mut self, o: ReplayCost) {
        self.decode_ns += o.decode_ns;
        self.encode_ns += o.encode_ns;
        self.body_bytes += o.body_bytes;
        self.mac_ns += o.mac_ns;
        self.mac_bytes += o.mac_bytes;
        self.frame_ns += o.frame_ns;
        self.wal_append_ns += o.wal_append_ns;
        self.wal_records += o.wal_records;
        self.wal_bytes += o.wal_bytes;
        self.wal_scan_ns += o.wal_scan_ns;
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Replays node `me`'s log at `wal`, plus `nulls` payload-free promise
/// frames (nulls are not logged; the node reports how many it sent).
/// `scratch` receives the re-appended copy and is removed afterwards.
///
/// # Errors
///
/// A log that does not scan, a body that does not decode, or a stage
/// whose output differs from its input — each means the run's traffic
/// was not what the transport claims, and fails the run.
pub fn replay_node<M: WireCodec>(
    wal: &Path,
    scratch: &Path,
    me: usize,
    secret: u64,
    nulls: u64,
) -> Result<ReplayCost, String> {
    let mut cost = ReplayCost::default();

    let start = Instant::now();
    let scan = read_wal(wal).map_err(|e| format!("node {me}: wal scan: {e}"))?;
    cost.wal_scan_ns = ns_since(start);
    cost.wal_records = scan.records.len() as u64;
    cost.wal_bytes = scan.valid_len;

    let remotes: Vec<_> = scan
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Event(ev) => ev.remote.as_ref().map(|rem| (ev, rem)),
            _ => None,
        })
        .collect();
    cost.body_bytes = remotes.iter().map(|(_, r)| r.body.len() as u64).sum();

    let start = Instant::now();
    let msgs = remotes
        .iter()
        .map(|(_, r)| M::from_bytes(&r.body))
        .collect::<Result<Vec<M>, _>>()
        .map_err(|e| format!("node {me}: logged body does not decode: {e}"))?;
    cost.decode_ns = ns_since(start);

    let start = Instant::now();
    let bodies: Vec<Vec<u8>> = msgs.iter().map(M::to_bytes).collect();
    cost.encode_ns = ns_since(start);
    if bodies.iter().zip(&remotes).any(|(b, (_, r))| *b != r.body) {
        return Err(format!(
            "node {me}: codec does not round-trip the logged bytes"
        ));
    }

    // The envelopes the senders built: one Data frame per logged body,
    // then the promise frames.
    let unsigned: Vec<WrapperMsg> = remotes
        .iter()
        .zip(bodies)
        .map(|((ev, rem), body)| WrapperMsg {
            kind: FrameKind::Data,
            from: rem.from as u32,
            to: me as u32,
            wire_seq: rem.lseq,
            lseq: rem.lseq,
            vsend: f64::from_bits(rem.vsend_bits),
            vdeliver: f64::from_bits(ev.time_bits),
            body,
            mac: 0,
        })
        .chain((0..nulls).map(|i| WrapperMsg {
            kind: FrameKind::Null,
            from: u32::from(me == 0),
            to: me as u32,
            wire_seq: i,
            lseq: 0,
            vsend: i as f64,
            vdeliver: i as f64,
            body: Vec::new(),
            mac: 0,
        }))
        .collect();
    let keys: Vec<_> = unsigned
        .iter()
        .map(|w| pair_key(secret, w.from as usize, me))
        .collect();
    let covered: u64 = unsigned
        .iter()
        .map(|w| (net::wire::HEADER_LEN + w.body.len()) as u64)
        .sum();
    cost.mac_bytes = 2 * covered;

    let start = Instant::now();
    let signed: Vec<WrapperMsg> = unsigned
        .into_iter()
        .zip(&keys)
        .map(|(w, &key)| w.signed(key))
        .collect();
    cost.mac_ns = ns_since(start);

    let start = Instant::now();
    let mut stream = FrameBuffer::new();
    for w in &signed {
        stream.push(&frame(&w.encode()));
    }
    let mut received = Vec::with_capacity(signed.len());
    while let Some(payload) = stream
        .next_frame()
        .map_err(|e| format!("node {me}: reframing: {e}"))?
    {
        received
            .push(WrapperMsg::decode(&payload).map_err(|e| format!("node {me}: envelope: {e}"))?);
    }
    cost.frame_ns = ns_since(start);
    if received != signed {
        return Err(format!(
            "node {me}: framing does not round-trip the envelopes"
        ));
    }

    let start = Instant::now();
    let verified = received.iter().zip(&keys).all(|(w, &key)| w.verify(key));
    cost.mac_ns += ns_since(start);
    if !verified {
        return Err(format!("node {me}: a re-signed envelope failed to verify"));
    }

    let Some(WalRecord::Header(header)) = scan.records.first() else {
        return Err(format!("node {me}: wal has no header record"));
    };
    cost.wal_append_ns = reappend(scratch, header, &scan.records[1..])
        .map_err(|e| format!("node {me}: wal re-append: {e}"))?;
    let copied = std::fs::metadata(scratch).map_err(|e| e.to_string())?.len();
    std::fs::remove_file(scratch).map_err(|e| e.to_string())?;
    if copied != scan.valid_len {
        return Err(format!(
            "node {me}: re-appended log is {copied} bytes, the original {}",
            scan.valid_len
        ));
    }
    Ok(cost)
}

fn reappend(path: &Path, header: &WalHeader, rest: &[WalRecord]) -> Result<u64, net::WalError> {
    let start = Instant::now();
    let mut w = WalWriter::create(path, header)?;
    for rec in rest {
        w.append(rec)?;
    }
    drop(w);
    Ok(ns_since(start))
}
