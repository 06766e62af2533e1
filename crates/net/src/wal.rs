//! Write-ahead log for durable `serve` nodes.
//!
//! Each node appends its protocol-relevant state transitions — the
//! configuration header, `wire_seq` reservation watermarks, every
//! processed event (with the raw body for remote deliveries), and
//! periodic integrity marks — so that a SIGKILL'd process can be
//! restarted with `--recover` and deterministically replay itself back
//! to the exact pre-crash state (see `node::run_node_durable`).
//!
//! # On-disk format
//!
//! A WAL is a flat sequence of records. Each record is
//!
//! ```text
//! [u32 BE payload length][payload][u64 LE FNV-1a of payload]
//! ```
//!
//! where the payload is one tag byte, then fixed-width little-endian
//! fields (read back with the wire's [`Reader`]):
//!
//! ```text
//! 0x01 Header  format:u8 (= WAL_FORMAT)  config_fp:u64  me:u64  n:u64
//!              t:u64  seed:u64  min_delay_bits:u64  wire_version:u32
//!              label_len:u32  label (UTF-8)
//! 0x02 Reserve peer:u64  upto:u64
//! 0x03 Event   time_bits:u64  class:u8  a:u64  b:u64  c:u64   (local)
//! 0x04 Event   the same five fields, then  from:u64  lseq:u64
//!              vsend_bits:u64  body_len:u32  body (raw)        (remote)
//! 0x05 Mark    time_bits:u64  events:u64  probe:u64
//! ```
//!
//! No optional fields, no padding, trailing bytes rejected: every record
//! has exactly one encoding, and a remote event costs its body plus 74
//! bytes. A payload starting with `{` is refused by name — that is how
//! the earlier JSON-with-hex payloads began.
//!
//! # Reopen policy
//!
//! * A **torn tail** (the file ends mid-record, because the process was
//!   killed mid-`write`) is not an error: the reader stops at the last
//!   complete record and reports the valid prefix length, and reopening
//!   for append truncates the torn bytes away.
//! * A **complete record whose checksum does not match** is a hard
//!   [`WalError::Checksum`]: the log is corrupt, not merely torn, and
//!   recovery must not guess.
//! * A length prefix announcing more than [`MAX_WAL_RECORD`] bytes is a
//!   hard [`WalError::Oversized`] — the standard babbling-stream guard,
//!   mirroring the frame layer's `MAX_FRAME`.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use aa_trace::{fnv1a_64, fnv1a_64_extend, Json};

use crate::codec::{CodecError, Reader};
use crate::frame::MAX_FRAME;

/// Hard cap on a single WAL record's payload: a remote event's body is
/// at most one frame, plus the 62 bytes of its fixed-width fields.
pub const MAX_WAL_RECORD: usize = MAX_FRAME + 62;

/// The payload format version, second byte of every header record.
const WAL_FORMAT: u8 = 2;

const TAG_HEADER: u8 = 1;
const TAG_RESERVE: u8 = 2;
const TAG_LOCAL: u8 = 3;
const TAG_REMOTE: u8 = 4;
const TAG_MARK: u8 = 5;

const JSON_ERA: &str = "log written by the JSON WAL format, cannot recover across this upgrade";

/// A typed WAL failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An underlying filesystem error.
    Io(String),
    /// A length prefix announced (or an append would need) more than
    /// [`MAX_WAL_RECORD`] bytes.
    Oversized {
        /// Byte offset of the offending record.
        offset: u64,
        /// The announced payload length.
        announced: usize,
    },
    /// A complete record's checksum did not match its payload.
    Checksum {
        /// Byte offset of the corrupt record.
        offset: u64,
    },
    /// A record passed its checksum but its payload does not decode.
    Malformed {
        /// Byte offset of the malformed record.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// The log disagrees with the run it is being replayed into (wrong
    /// config fingerprint or payload format, diverged replay, bad mark).
    Mismatch(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Oversized { offset, announced } => write!(
                f,
                "wal record at byte {offset} announces {announced} bytes > max {MAX_WAL_RECORD}"
            ),
            WalError::Checksum { offset } => {
                write!(f, "wal record at byte {offset} fails its checksum")
            }
            WalError::Malformed { offset, reason } => {
                write!(f, "wal record at byte {offset} is malformed: {reason}")
            }
            WalError::Mismatch(e) => write!(f, "wal mismatch: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

/// The run-identifying header, always the first record of a WAL.
#[derive(Clone, Debug, PartialEq)]
pub struct WalHeader {
    /// The cluster configuration fingerprint (must match at recovery).
    pub config_fp: u64,
    /// This node's party index.
    pub me: usize,
    /// Number of parties.
    pub n: usize,
    /// Corruption bound.
    pub t: usize,
    /// Delay-schedule seed.
    pub seed: u64,
    /// Bit pattern of the minimum link delay.
    pub min_delay_bits: u64,
    /// Wire protocol version the run started under.
    pub wire_version: u32,
    /// Trace label.
    pub label: String,
}

/// Payload of a remote `Data` delivery inside a [`WalRecord::Event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRemote {
    /// The sending party.
    pub from: usize,
    /// The link-local Data ordinal (feeds the delay schedule).
    pub lseq: u64,
    /// Bit pattern of the sender's virtual send time.
    pub vsend_bits: u64,
    /// The raw message body, exactly as it arrived.
    pub body: Vec<u8>,
}

/// One processed event: the virtual-time key it was popped at, plus the
/// remote payload when the event came off the wire (local timers and
/// self-deliveries are regenerated by replay and need no payload).
#[derive(Clone, Debug, PartialEq)]
pub struct WalEvent {
    /// Bit pattern of the event's virtual time.
    pub time_bits: u64,
    /// VKey class (0 = delivery, 1 = timer).
    pub class: u8,
    /// VKey tiebreaker `a` (sender / owning party).
    pub a: u64,
    /// VKey tiebreaker `b` (receiver / timer set-time ordinal).
    pub b: u64,
    /// VKey tiebreaker `c` (lseq / timer token).
    pub c: u64,
    /// Present iff the event is a remote delivery.
    pub remote: Option<WalRemote>,
}

/// A periodic integrity mark: after `events` processed events at
/// virtual time `time_bits`, the protocol-state probe (the `Reliable`
/// sublayer's structural fingerprint) read `probe`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalMark {
    /// Bit pattern of the virtual time of the mark.
    pub time_bits: u64,
    /// Number of events processed so far.
    pub events: u64,
    /// Protocol-state fingerprint at this point.
    pub probe: u64,
}

/// One WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// The run-identifying header (first record).
    Header(WalHeader),
    /// `wire_seq` reservation: sequence numbers below `upto` on the
    /// directed link to `peer` may already be on the wire. Appended
    /// *before* any frame in the block is sent, so a recovered node
    /// resumes past every sequence number a peer might have seen.
    Reserve {
        /// The destination peer.
        peer: usize,
        /// Exclusive upper bound of the reserved block.
        upto: u64,
    },
    /// A processed protocol event.
    Event(WalEvent),
    /// A periodic integrity mark.
    Mark(WalMark),
}

fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn bad(what: &'static str) -> CodecError {
    CodecError::BadValue { what }
}

fn index(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    usize::try_from(r.u64()?).map_err(|_| bad("wal index"))
}

impl WalRecord {
    /// Display-only canonical JSON (`treeaa wal-dump`): 64-bit fields
    /// as hex strings, a body as its length and FNV-1a.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let hx = |x: u64| Json::Str(format!("{x:016x}"));
        let int = |x: usize| Json::int(x as u64);
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut put = |k: &str, v: Json| fields.push((k.to_string(), v));
        match self {
            WalRecord::Header(h) => {
                put("k", Json::Str("hdr".into()));
                put("fp", hx(h.config_fp));
                put("me", int(h.me));
                put("n", int(h.n));
                put("t", int(h.t));
                put("seed", hx(h.seed));
                put("mind", hx(h.min_delay_bits));
                put("wire", Json::int(u64::from(h.wire_version)));
                put("label", Json::Str(h.label.clone()));
            }
            WalRecord::Reserve { peer, upto } => {
                put("k", Json::Str("res".into()));
                put("peer", int(*peer));
                put("upto", hx(*upto));
            }
            WalRecord::Event(ev) => {
                put("k", Json::Str("ev".into()));
                put("vt", hx(ev.time_bits));
                put("class", Json::int(u64::from(ev.class)));
                put("a", hx(ev.a));
                put("b", hx(ev.b));
                put("c", hx(ev.c));
                if let Some(r) = &ev.remote {
                    put("from", int(r.from));
                    put("lseq", hx(r.lseq));
                    put("vsend", hx(r.vsend_bits));
                    put("body_len", int(r.body.len()));
                    put("body_fnv", hx(fnv1a_64(&r.body)));
                }
            }
            WalRecord::Mark(m) => {
                put("k", Json::Str("mark".into()));
                put("vt", hx(m.time_bits));
                put("events", hx(m.events));
                put("probe", hx(m.probe));
            }
        }
        Json::Obj(fields)
    }

    /// Appends the payload, minus a remote event's raw body, to `head`
    /// and returns that body (empty for every other record).
    fn encode_head(&self, head: &mut Vec<u8>) -> &[u8] {
        match self {
            WalRecord::Header(h) => {
                head.extend_from_slice(&[TAG_HEADER, WAL_FORMAT]);
                let (me, n, t) = (h.me as u64, h.n as u64, h.t as u64);
                put_u64s(head, &[h.config_fp, me, n, t, h.seed, h.min_delay_bits]);
                head.extend_from_slice(&h.wire_version.to_le_bytes());
                head.extend_from_slice(&(h.label.len() as u32).to_le_bytes());
                head.extend_from_slice(h.label.as_bytes());
            }
            WalRecord::Reserve { peer, upto } => {
                head.push(TAG_RESERVE);
                put_u64s(head, &[*peer as u64, *upto]);
            }
            WalRecord::Event(ev) => {
                head.push(if ev.remote.is_some() {
                    TAG_REMOTE
                } else {
                    TAG_LOCAL
                });
                put_u64s(head, &[ev.time_bits]);
                head.push(ev.class);
                put_u64s(head, &[ev.a, ev.b, ev.c]);
                if let Some(r) = &ev.remote {
                    put_u64s(head, &[r.from as u64, r.lseq, r.vsend_bits]);
                    head.extend_from_slice(&(r.body.len() as u32).to_le_bytes());
                    return &r.body;
                }
            }
            WalRecord::Mark(m) => {
                head.push(TAG_MARK);
                put_u64s(head, &[m.time_bits, m.events, m.probe]);
            }
        }
        &[]
    }

    /// Writes the framed record — length prefix, payload, FNV-1a — to
    /// `out` piece by piece, the body straight from the record. `head` is
    /// scratch for the fixed-width fields.
    ///
    /// # Errors
    ///
    /// [`WalError::Oversized`] (offset 0, nothing written) above
    /// [`MAX_WAL_RECORD`]; otherwise whatever `out` reports.
    pub fn write_to(&self, head: &mut Vec<u8>, out: &mut impl Write) -> Result<(), WalError> {
        head.clear();
        let body = self.encode_head(head);
        let announced = head.len() + body.len();
        if announced > MAX_WAL_RECORD {
            return Err(WalError::Oversized {
                offset: 0,
                announced,
            });
        }
        out.write_all(&(announced as u32).to_be_bytes())?;
        out.write_all(head)?;
        out.write_all(body)?;
        out.write_all(&fnv1a_64_extend(fnv1a_64(head), body).to_le_bytes())?;
        Ok(())
    }

    /// Decodes one checksummed payload; total, and allocates no more
    /// than the payload's own length.
    fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_HEADER => {
                if r.u8()? != WAL_FORMAT {
                    return Err(bad("wal format version"));
                }
                WalRecord::Header(WalHeader {
                    config_fp: r.u64()?,
                    me: index(&mut r)?,
                    n: index(&mut r)?,
                    t: index(&mut r)?,
                    seed: r.u64()?,
                    min_delay_bits: r.u64()?,
                    wire_version: r.u32()?,
                    label: {
                        let len = r.u32()? as usize;
                        let utf8 = std::str::from_utf8(r.bytes(len)?);
                        utf8.map_err(|_| bad("wal header label"))?.to_string()
                    },
                })
            }
            TAG_RESERVE => WalRecord::Reserve {
                peer: index(&mut r)?,
                upto: r.u64()?,
            },
            tag @ (TAG_LOCAL | TAG_REMOTE) => {
                let mut ev = WalEvent {
                    time_bits: r.u64()?,
                    class: r.u8()?,
                    a: r.u64()?,
                    b: r.u64()?,
                    c: r.u64()?,
                    remote: None,
                };
                if tag == TAG_REMOTE {
                    ev.remote = Some(WalRemote {
                        from: index(&mut r)?,
                        lseq: r.u64()?,
                        vsend_bits: r.u64()?,
                        body: {
                            let len = r.u32()? as usize;
                            r.bytes(len)?.to_vec()
                        },
                    });
                }
                WalRecord::Event(ev)
            }
            TAG_MARK => WalRecord::Mark(WalMark {
                time_bits: r.u64()?,
                events: r.u64()?,
                probe: r.u64()?,
            }),
            tag => {
                return Err(CodecError::BadTag {
                    what: "wal record",
                    tag,
                })
            }
        };
        match r.remaining() {
            0 => Ok(rec),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// Incremental WAL decoder: push bytes in any chunking, pop complete
/// records. Mirrors the frame layer's `FrameBuffer`: a truncated tail is
/// "not yet a record"; an oversized prefix or a checksum failure is a
/// hard error that poisons the cursor.
#[derive(Debug, Default)]
pub struct WalCursor {
    buf: Vec<u8>,
    pos: usize,
    consumed: u64,
    poisoned: Option<WalError>,
}

impl WalCursor {
    /// An empty cursor.
    #[must_use]
    pub fn new() -> Self {
        WalCursor::default()
    }

    /// Appends raw log bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Total bytes consumed as complete, checksummed records — the valid
    /// prefix length to truncate a torn log back to.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes buffered but not yet consumed (a torn tail, if the stream
    /// has ended).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete record, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`WalError::Oversized`], [`WalError::Checksum`] or
    /// [`WalError::Malformed`]; the cursor stays poisoned afterwards.
    pub fn next_record(&mut self) -> Result<Option<WalRecord>, WalError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let offset = self.consumed;
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let announced = u32::from_be_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if announced > MAX_WAL_RECORD {
            return self.poison(WalError::Oversized { offset, announced });
        }
        let total = 4 + announced + 8;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[4..4 + announced];
        let sum = u64::from_le_bytes(avail[4 + announced..total].try_into().expect("8 bytes"));
        if fnv1a_64(payload) != sum {
            return self.poison(WalError::Checksum { offset });
        }
        if payload.first() == Some(&b'{') {
            return self.poison(WalError::Mismatch(JSON_ERA.into()));
        }
        match WalRecord::decode(payload) {
            Ok(rec) => {
                self.pos += total;
                self.consumed += total as u64;
                if self.pos > 65536 && self.pos * 2 > self.buf.len() {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some(rec))
            }
            Err(e) => self.poison(WalError::Malformed {
                offset,
                reason: e.to_string(),
            }),
        }
    }

    fn poison(&mut self, err: WalError) -> Result<Option<WalRecord>, WalError> {
        self.poisoned = Some(err.clone());
        Err(err)
    }
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every complete, checksummed record, in append order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix in bytes; anything beyond is a torn
    /// tail from a mid-write crash.
    pub valid_len: u64,
}

/// Reads an entire WAL file, stopping cleanly at a torn tail.
///
/// # Errors
///
/// I/O failures and hard corruption ([`WalError::Checksum`],
/// [`WalError::Oversized`], [`WalError::Malformed`]) are errors; a torn
/// tail is not (it is simply excluded from `valid_len`).
pub fn read_wal(path: &Path) -> Result<WalScan, WalError> {
    let mut file = File::open(path)?;
    let mut cursor = WalCursor::new();
    let mut chunk = [0u8; 65536];
    loop {
        let got = file.read(&mut chunk)?;
        if got == 0 {
            break;
        }
        cursor.push(&chunk[..got]);
    }
    let mut records = Vec::new();
    while let Some(rec) = cursor.next_record()? {
        records.push(rec);
    }
    Ok(WalScan {
        records,
        valid_len: cursor.consumed(),
    })
}

/// An append handle on a WAL file. Every record is flushed to the OS on
/// append — under the SIGKILL crash model the page cache survives the
/// process, so a buffered `write` is durable without `fsync`.
#[derive(Debug)]
pub struct WalWriter {
    out: BufWriter<File>,
    path: PathBuf,
    /// Scratch for a record's fixed-width fields: appends allocate nothing.
    head: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) a fresh WAL and writes its header record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, header: &WalHeader) -> Result<WalWriter, WalError> {
        let file = File::create(path)?;
        let mut w = WalWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            head: Vec::with_capacity(128),
        };
        w.append(&WalRecord::Header(header.clone()))?;
        Ok(w)
    }

    /// Reopens an existing WAL for append, truncating a torn tail at
    /// `valid_len` first (as reported by [`read_wal`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_to(path: &Path, valid_len: u64) -> Result<WalWriter, WalError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            head: Vec::with_capacity(128),
        })
    }

    /// Appends one record — prefix, fields, raw body and checksum go
    /// straight into the buffered file — and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// As [`WalRecord::write_to`]: [`WalError::Oversized`] or a
    /// filesystem error.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        rec.write_to(&mut self.head, &mut self.out)?;
        self.out.flush()?;
        Ok(())
    }

    /// The file this writer appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Header(WalHeader {
                config_fp: 0xfeed_beef_cafe_f00d,
                me: 2,
                n: 4,
                t: 1,
                seed: 7,
                min_delay_bits: 0.25f64.to_bits(),
                wire_version: 2,
                label: "serve-7".into(),
            }),
            WalRecord::Reserve { peer: 0, upto: 256 },
            WalRecord::Event(WalEvent {
                time_bits: 0.375f64.to_bits(),
                class: 0,
                a: 1,
                b: 2,
                c: 0,
                remote: Some(WalRemote {
                    from: 1,
                    lseq: 0,
                    vsend_bits: 0.0f64.to_bits(),
                    body: vec![0, 1, 2, 0xff],
                }),
            }),
            WalRecord::Event(WalEvent {
                time_bits: 2.5f64.to_bits(),
                class: 1,
                a: 2,
                b: 3,
                c: u64::MAX,
                remote: None,
            }),
            WalRecord::Mark(WalMark {
                time_bits: 2.5f64.to_bits(),
                events: 2,
                probe: 0xdead_beef,
            }),
        ]
    }

    fn framed(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        rec.write_to(&mut Vec::new(), &mut out).unwrap();
        out
    }

    #[test]
    fn records_roundtrip_through_framing() {
        let mut cursor = WalCursor::new();
        for rec in sample_records() {
            cursor.push(&framed(&rec));
        }
        let mut out = Vec::new();
        while let Some(r) = cursor.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out, sample_records());
        assert_eq!(cursor.pending(), 0);
    }

    /// The layout in the module docs, byte for byte.
    #[test]
    fn the_documented_layout_is_what_is_written() {
        let bytes = framed(&WalRecord::Reserve {
            peer: 3,
            upto: 0x0102,
        });
        let payload = [2, 3, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0];
        assert_eq!(bytes[..4], [0, 0, 0, 17]);
        assert_eq!(bytes[4..21], payload);
        assert_eq!(bytes[21..], fnv1a_64(&payload).to_le_bytes());

        let recs = sample_records();
        let header = framed(&recs[0]);
        assert_eq!(header[4..6], [TAG_HEADER, WAL_FORMAT]);
        assert_eq!(header.len(), 4 + 58 + "serve-7".len() + 8);
        assert_eq!(framed(&recs[2]).len(), 74 + 4, "remote event: body + 74");
        assert_eq!(framed(&recs[3]).len(), 4 + 34 + 8, "local event");
        assert_eq!(framed(&recs[4]).len(), 4 + 25 + 8, "mark");
    }

    #[test]
    fn display_json_names_a_body_by_length_and_fnv() {
        let recs = sample_records();
        let line = recs[2].to_json().to_string();
        assert!(line.contains(r#""k": "ev""#) && line.contains(r#""body_len": 4"#));
        let fnv = format!(r#""body_fnv": "{:016x}""#, fnv1a_64(&[0, 1, 2, 0xff]));
        assert!(line.contains(&fnv), "{line}");
        assert!(!line.contains("000102ff"), "no hex body: {line}");
        assert_eq!(
            recs[1].to_json().to_string(),
            r#"{"k": "res", "peer": 0, "upto": "0000000000000100"}"#
        );
    }

    #[test]
    fn an_oversized_record_is_a_typed_error_not_a_panic() {
        let with_body = |len: usize| {
            WalRecord::Event(WalEvent {
                time_bits: 0,
                class: 0,
                a: 1,
                b: 0,
                c: 0,
                remote: Some(WalRemote {
                    from: 1,
                    lseq: 0,
                    vsend_bits: 0,
                    body: vec![0xab; len],
                }),
            })
        };
        let path = std::env::temp_dir().join(format!("treeaa-wal-big-{}.wal", std::process::id()));
        let WalRecord::Header(hdr) = &sample_records()[0] else {
            panic!("first sample is the header")
        };
        let mut w = WalWriter::create(&path, hdr).unwrap();
        // The largest body the frame layer can deliver still fits.
        w.append(&with_body(MAX_FRAME)).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let err = w.append(&with_body(MAX_FRAME + 1)).unwrap_err();
        assert_eq!(
            err,
            WalError::Oversized {
                offset: 0,
                announced: MAX_FRAME + 1 + 62
            }
        );
        // Nothing of the refused record reached the file, and the
        // writer is still usable.
        w.append(&WalRecord::Reserve { peer: 0, upto: 1 }).unwrap();
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before + 4 + 17 + 8);
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_json_era_payload_is_refused_by_name() {
        let payload = br#"{"k":"res","peer":1,"upto":"0000000000000200"}"#;
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        let mut cursor = WalCursor::new();
        cursor.push(&bytes);
        let err = cursor.next_record().unwrap_err();
        assert_eq!(err, WalError::Mismatch(JSON_ERA.into()));
        assert_eq!(cursor.next_record().unwrap_err(), err, "poisoned");
        assert_eq!(cursor.consumed(), 0);
    }

    #[test]
    fn file_scan_truncates_a_torn_tail() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("treeaa-wal-test-{}.wal", std::process::id()));
        let recs = sample_records();
        let WalRecord::Header(hdr) = &recs[0] else {
            panic!("first sample is the header")
        };
        let mut w = WalWriter::create(&path, hdr).unwrap();
        for rec in &recs[1..] {
            w.append(rec).unwrap();
        }
        drop(w);
        // Tear the last record in half.
        let full = std::fs::read(&path).unwrap();
        let torn_len = full.len() - 5;
        std::fs::write(&path, &full[..torn_len]).unwrap();

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), recs.len() - 1, "torn record excluded");
        assert!(scan.valid_len < torn_len as u64);

        // Reopening for append truncates the tear and new records land
        // on a clean boundary.
        let mut w = WalWriter::append_to(&path, scan.valid_len).unwrap();
        w.append(recs.last().unwrap()).unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), recs.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_corruption_is_a_typed_error() {
        let rec = WalRecord::Reserve { peer: 1, upto: 512 };
        let mut bytes = framed(&rec);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut cursor = WalCursor::new();
        cursor.push(&bytes);
        let err = cursor.next_record().unwrap_err();
        assert!(
            matches!(err, WalError::Checksum { .. } | WalError::Malformed { .. }),
            "got {err:?}"
        );
        // Poisoned: pushing a clean record afterwards does not recover.
        cursor.push(&framed(&rec));
        assert!(cursor.next_record().is_err());
    }
}
