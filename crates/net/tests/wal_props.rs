//! WAL framing properties, mirroring the frame-codec suite: arbitrary
//! records must round-trip through [`WalCursor`] under arbitrary byte
//! chunking, a torn final record must be truncated (never fatal), a
//! checksum flip must surface as the typed [`WalError::Checksum`], and
//! garbage input must never panic or over-consume. On top of the framing,
//! the binary payload codec is pinned: one encoding per record, every
//! single-bit flip rejected, hostile payloads behind a *valid* checksum
//! rejected without allocating by an announced length, and a remote
//! event costing its body plus a fixed header. Records are expanded
//! deterministically from seeds (the vendored proptest has no
//! collection strategies), so every failure reproduces from integers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aa_trace::fnv1a_64;
use net::wal::{WalEvent, WalMark, WalRemote};
use net::{WalCursor, WalError, WalHeader, WalRecord};
use proptest::prelude::*;

/// Counts the bytes each thread asks the allocator for, so a test can
/// bound what one decoder call allocates while others run beside it.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor can run during thread teardown. `realloc` keeps its
// default (alloc + copy + dealloc through these methods), so growth is
// counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Bytes this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The framed bytes `WalWriter::append` would write for `rec`.
fn framed(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    rec.write_to(&mut Vec::new(), &mut out)
        .expect("in-range record");
    out
}

/// Frames an arbitrary payload with a length prefix and a checksum that
/// passes: what is left to stop it is the payload decoder alone.
fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
    out
}

fn remote_event(body: Vec<u8>) -> WalRecord {
    WalRecord::Event(WalEvent {
        time_bits: 0.375f64.to_bits(),
        class: 0,
        a: 1,
        b: 2,
        c: 9,
        remote: Some(WalRemote {
            from: 1,
            lseq: 9,
            vsend_bits: 0.25f64.to_bits(),
            body,
        }),
    })
}

/// Offset of a remote event's `body_len` inside its payload: tag, the
/// five key fields (8 + 1 + 8 + 8 + 8), `from`, `lseq`, `vsend_bits`.
const BODY_LEN_AT: usize = 1 + 33 + 24;

/// splitmix64 — deterministic seed-stream expansion.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A record of any variant, derived from the seed stream.
fn record(s: &mut u64) -> WalRecord {
    match next(s) % 4 {
        0 => WalRecord::Header(WalHeader {
            config_fp: next(s),
            me: (next(s) % 64) as usize,
            n: (next(s) % 64) as usize,
            t: (next(s) % 8) as usize,
            seed: next(s),
            min_delay_bits: next(s),
            wire_version: (next(s) & 0xffff) as u32,
            label: format!("wal-prop-{:x}", next(s) & 0xffff),
        }),
        1 => WalRecord::Reserve {
            peer: (next(s) % 64) as usize,
            upto: next(s),
        },
        2 => {
            let remote = if next(s).is_multiple_of(2) {
                let len = (next(s) % 512) as usize;
                Some(WalRemote {
                    from: (next(s) % 64) as usize,
                    lseq: next(s),
                    vsend_bits: next(s),
                    body: (0..len).map(|_| (next(s) & 0xff) as u8).collect(),
                })
            } else {
                None
            };
            WalRecord::Event(WalEvent {
                time_bits: next(s),
                class: (next(s) % 2) as u8,
                a: next(s),
                b: next(s),
                c: next(s),
                remote,
            })
        }
        _ => WalRecord::Mark(WalMark {
            time_bits: next(s),
            events: next(s),
            probe: next(s),
        }),
    }
}

/// Expands `seed` into 1..=8 records plus their concatenated encoding
/// and the cumulative byte offset after each record.
fn log_from(seed: u64) -> (Vec<WalRecord>, Vec<u8>, Vec<usize>) {
    let mut s = seed;
    let count = 1 + (next(&mut s) as usize) % 8;
    let records: Vec<WalRecord> = (0..count).map(|_| record(&mut s)).collect();
    let mut wire = Vec::new();
    let mut boundaries = Vec::new();
    for r in &records {
        wire.extend_from_slice(&framed(r));
        boundaries.push(wire.len());
    }
    (records, wire, boundaries)
}

/// Feeds `bytes` into `cursor` in pseudo-random chunks.
fn push_chunked(cursor: &mut WalCursor, bytes: &[u8], seed: u64) {
    let mut s = seed;
    let mut pos = 0;
    while pos < bytes.len() {
        let k = 1 + (next(&mut s) as usize) % 97;
        let end = (pos + k).min(bytes.len());
        cursor.push(&bytes[pos..end]);
        pos = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any record sequence survives any chunking bit-for-bit, in order,
    /// and the cursor accounts for every byte.
    #[test]
    fn roundtrip_any_records_any_chunking(seed in any::<u64>(), chunk_seed in any::<u64>()) {
        let (records, wire, _) = log_from(seed);
        let mut cursor = WalCursor::new();
        push_chunked(&mut cursor, &wire, chunk_seed);
        for expect in &records {
            let got = cursor.next_record().expect("valid log").expect("complete record");
            prop_assert_eq!(&got, expect);
        }
        prop_assert_eq!(cursor.next_record().expect("clean tail"), None);
        prop_assert_eq!(cursor.consumed(), wire.len() as u64);
        prop_assert_eq!(cursor.pending(), 0);
        // Canonical form: what decoded re-encodes to the bytes it came
        // from, so a log and its re-appended copy have equal length.
        let again: Vec<u8> = records.iter().flat_map(framed).collect();
        prop_assert_eq!(again, wire);
    }

    /// Every single-bit flip of a framed record — prefix, payload or
    /// checksum — ends in a typed error or "need more bytes": never a
    /// panic, never a record (which could only be a *different* one).
    #[test]
    fn no_single_bit_flip_yields_a_record(seed in any::<u64>()) {
        let mut s = seed;
        let bytes = framed(&record(&mut s));
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut cursor = WalCursor::new();
            cursor.push(&flipped);
            match cursor.next_record() {
                Ok(None) => prop_assert!(bit < 32, "only a longer prefix waits: bit {}", bit),
                Ok(Some(rec)) => prop_assert!(false, "bit {} decoded as {:?}", bit, rec),
                Err(WalError::Checksum { offset: 0 }
                | WalError::Malformed { offset: 0, .. }
                | WalError::Oversized { offset: 0, .. }) => {}
                Err(other) => prop_assert!(false, "bit {}: {:?}", bit, other),
            }
            prop_assert_eq!(cursor.consumed(), 0);
        }
    }

    /// A remote event costs its body plus a fixed header: the log is as
    /// large as the traffic it records, not a multiple of it.
    #[test]
    fn a_remote_event_frames_to_its_body_plus_a_fixed_header(len in 0usize..70_000) {
        let bytes = framed(&remote_event(vec![0x5a; len]));
        prop_assert!(bytes.len() <= len + 96, "{} bytes for a {}-byte body", bytes.len(), len);
    }

    /// Cutting the log mid-record (a crash mid-append) loses only the
    /// torn record: every complete record before the cut decodes, the
    /// cursor reports no error, and `consumed()` lands exactly on the
    /// last complete record boundary — the truncation point recovery
    /// uses.
    #[test]
    fn a_torn_tail_is_truncated_not_fatal(seed in any::<u64>(), cut_pick in any::<u64>()) {
        let (records, wire, boundaries) = log_from(seed);
        // Cut strictly inside some record: offset in [start+1, end).
        let idx = (cut_pick as usize) % records.len();
        let start = if idx == 0 { 0 } else { boundaries[idx - 1] };
        let span = boundaries[idx] - start;
        let cut = start + 1 + (cut_pick >> 32) as usize % (span - 1).max(1);

        let mut cursor = WalCursor::new();
        cursor.push(&wire[..cut]);
        let mut got = Vec::new();
        while let Some(r) = cursor.next_record().expect("torn tail is not an error") {
            got.push(r);
        }
        prop_assert_eq!(&got[..], &records[..idx]);
        prop_assert_eq!(cursor.consumed(), start as u64);
        prop_assert_eq!(cursor.pending(), cut - start);
    }

    /// Flipping any bit of a record's payload or checksum yields the
    /// typed [`WalError::Checksum`] at that record's offset; every
    /// record before it still decodes, and the cursor stays poisoned.
    #[test]
    fn checksum_corruption_is_a_typed_error(seed in any::<u64>(), flip_pick in any::<u64>()) {
        let (records, mut wire, boundaries) = log_from(seed);
        // Flip one bit past the 4-byte length prefix of some record
        // (corrupting the prefix itself is the oversize/garbage case).
        let idx = (flip_pick as usize) % records.len();
        let start = if idx == 0 { 0 } else { boundaries[idx - 1] };
        let span = boundaries[idx] - start - 4;
        let at = start + 4 + (flip_pick >> 24) as usize % span;
        wire[at] ^= 1 << ((flip_pick >> 56) % 8);

        let mut cursor = WalCursor::new();
        cursor.push(&wire);
        for expect in &records[..idx] {
            let got = cursor.next_record().expect("prefix is intact").expect("complete");
            prop_assert_eq!(&got, expect);
        }
        let err = cursor.next_record().expect_err("corrupt record");
        prop_assert_eq!(err, WalError::Checksum { offset: start as u64 });
        // Poisoned: the same typed error, forever.
        let again = cursor.next_record().expect_err("cursor stays poisoned");
        prop_assert_eq!(again, WalError::Checksum { offset: start as u64 });
    }

    /// Arbitrary garbage never panics and never consumes bytes it did
    /// not verify: the cursor either waits for more input or reports a
    /// typed error.
    #[test]
    fn garbage_never_panics_or_over_consumes(seed in any::<u64>(), len in 0usize..4096) {
        let mut s = seed;
        let garbage: Vec<u8> = (0..len).map(|_| (next(&mut s) & 0xff) as u8).collect();
        let mut cursor = WalCursor::new();
        cursor.push(&garbage);
        // Draining Ok(Some(_)) records is astronomically unlikely on
        // garbage, but legal; stop on clean-tail or typed error.
        while let Ok(Some(_)) = cursor.next_record() {}
        prop_assert!(cursor.consumed() <= garbage.len() as u64);
    }
}

/// Hostile payloads behind a checksum that passes: each is `Malformed`
/// at its own offset, the cursor consumes nothing, and the decoder
/// allocates no more than the record's own length — in particular not
/// the length a field announces.
#[test]
fn hostile_payloads_with_a_valid_checksum_are_malformed_and_cheap() {
    let event = framed(&remote_event(vec![7; 300]));
    let event = &event[4..event.len() - 8];
    let local = framed(&WalRecord::Event(WalEvent {
        time_bits: 1,
        class: 1,
        a: 2,
        b: 3,
        c: 4,
        remote: None,
    }));
    let local = &local[4..local.len() - 8];
    let header = framed(&WalRecord::Header(WalHeader {
        config_fp: 1,
        me: 2,
        n: 4,
        t: 1,
        seed: 7,
        min_delay_bits: 0.1f64.to_bits(),
        wire_version: 2,
        label: "a-label-long-enough-to-outweigh-an-error-message".repeat(3),
    }));
    let header = &header[4..header.len() - 8];
    let patched = |base: &[u8], at: usize, with: &[u8]| {
        let mut p = base.to_vec();
        p[at..at + with.len()].copy_from_slice(with);
        p
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "body length one past the payload",
            patched(event, BODY_LEN_AT, &301u32.to_le_bytes()),
        ),
        (
            "body length of 4 GiB",
            patched(event, BODY_LEN_AT, &u32::MAX.to_le_bytes()),
        ),
        (
            "body length short of the payload",
            patched(event, BODY_LEN_AT, &299u32.to_le_bytes()),
        ),
        ("trailing payload byte", [event, &[0]].concat()),
        ("unknown tag 0", patched(event, 0, &[0])),
        ("unknown tag 9", patched(event, 0, &[9])),
        ("unknown tag 0xff", patched(event, 0, &[0xff])),
        ("local tag on a remote payload", patched(event, 0, &[3])),
        ("remote tag on a local payload", patched(local, 0, &[4])),
        (
            "non-UTF-8 header label",
            patched(header, header.len() - 1, &[0xff]),
        ),
        (
            "label length of 4 GiB",
            patched(header, 54, &u32::MAX.to_le_bytes()),
        ),
        ("unknown header format", patched(header, 1, &[1])),
        ("empty payload", Vec::new()),
    ];
    for (what, payload) in cases {
        let bytes = frame_payload(&payload);
        let mut cursor = WalCursor::new();
        cursor.push(&bytes);
        let (got, allocated) = allocated_by(|| cursor.next_record());
        assert!(
            matches!(got, Err(WalError::Malformed { offset: 0, .. })),
            "{what}: {got:?}"
        );
        assert_eq!(cursor.consumed(), 0, "{what}");
        // The floor of 128 is the error text (built, then cloned into
        // the poisoned cursor), which a 12-byte record cannot outweigh.
        assert!(
            allocated <= bytes.len().max(128),
            "{what}: allocated {allocated} bytes for a {}-byte record",
            bytes.len()
        );
    }
}
