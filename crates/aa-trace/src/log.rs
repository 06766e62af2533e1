//! The packed protocol-event log: what a recording context writes at
//! `emit_with`, and what a virtual-time recorder keeps per activation.
//!
//! This module is the only place that knows the format. An [`EventLog`]
//! is an append-only byte string plus the table of names it refers to:
//!
//! ```text
//! event  := label:id  nfields:varint  field*
//! field  := key:id  value
//! value  := 0x00 f64-bits:8 LE          (every `Json::Num`, so `u64`/`f64`)
//!         | 0x01 | 0x02                 (`false` | `true`)
//!         | 0x03 len:varint utf8        (`Json::Str`)
//!         | 0x04                        (`Json::Null`)
//!         | 0x05 count:varint value*    (`Json::Arr`)
//!         | 0x06 count:varint (len:varint utf8 value)*   (`Json::Obj`)
//! id     := varint index into the log's name table
//! varint := LEB128
//! ```
//!
//! Every length and index is a varint, so nothing is ever truncated to
//! fit a fixed-width slot: an event with 300 fields, a log with 300
//! distinct names, or a megabyte string round-trips like any other. A
//! five-field `gc.grade` event is 2 + 5 × 10 = 52 bytes. Names are held
//! as the `Cow<'static, str>` they arrived as — a string literal stays a
//! borrowed pointer, a parsed trace's name stays owned — and are interned
//! per log by pointer first, by content second.
//!
//! Expansion ([`EventLog::iter`], [`TraceRecord::to_trace`]) rebuilds the
//! [`ProtoEvent`]s exactly: `to_canonical_string` of an expanded trace is
//! byte-identical to that of the trace built from the events directly.

use std::borrow::Cow;

use aa_codec::Json;

use crate::{EventKind, ProtoEvent, Trace, TraceEvent};

const TAG_NUM: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_NULL: u8 = 4;
const TAG_ARR: u8 = 5;
const TAG_OBJ: u8 = 6;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_json(out: &mut Vec<u8>, value: &Json) {
    match value {
        Json::Num(x) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Json::Bool(b) => out.push(if *b { TAG_TRUE } else { TAG_FALSE }),
        Json::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Json::Null => out.push(TAG_NULL),
        Json::Arr(items) => {
            out.push(TAG_ARR);
            put_varint(out, items.len() as u64);
            for item in items {
                put_json(out, item);
            }
        }
        Json::Obj(fields) => {
            out.push(TAG_OBJ);
            put_varint(out, fields.len() as u64);
            for (key, item) in fields {
                put_str(out, key);
                put_json(out, item);
            }
        }
    }
}

/// A read cursor over bytes [`EventLog::push`] wrote. The bytes are
/// private to this module, so a short or ill-tagged read is a bug here,
/// not bad input: the getters panic.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> &'a [u8] {
        let (head, tail) = self.0.split_at(len);
        self.0 = tail;
        head
    }

    fn varint(&mut self) -> usize {
        let mut v = 0u64;
        for shift in (0..).step_by(7) {
            let b = self.take(1)[0];
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        v as usize
    }

    fn str(&mut self) -> &'a str {
        let len = self.varint();
        std::str::from_utf8(self.take(len)).expect("the log copied this from a str")
    }

    fn json(&mut self) -> Json {
        match self.take(1)[0] {
            TAG_NUM => {
                let bits = self.take(8).try_into().expect("eight bytes taken");
                Json::Num(f64::from_bits(u64::from_le_bytes(bits)))
            }
            TAG_FALSE => Json::Bool(false),
            TAG_TRUE => Json::Bool(true),
            TAG_STR => Json::Str(self.str().to_string()),
            TAG_NULL => Json::Null,
            TAG_ARR => Json::Arr((0..self.varint()).map(|_| self.json()).collect()),
            TAG_OBJ => Json::Obj(
                (0..self.varint())
                    .map(|_| (self.str().to_string(), self.json()))
                    .collect(),
            ),
            tag => unreachable!("the log never writes value tag {tag}"),
        }
    }
}

/// An append-only packed log of [`ProtoEvent`]s (see the module docs for
/// the layout). An empty log owns no heap memory.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// The name table the packed events index into.
    names: Vec<Cow<'static, str>>,
    bytes: Vec<u8>,
    len: usize,
}

impl EventLog {
    /// An empty log (allocates nothing).
    #[must_use]
    pub const fn new() -> Self {
        EventLog {
            names: Vec::new(),
            bytes: Vec::new(),
            len: 0,
        }
    }

    /// How many events the log holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of packed events (the name table not included).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Heap bytes the log has reserved: the packed events' buffer and the
    /// name table (not the text of an owned name, which only a parsed
    /// trace has).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.names.capacity() * size_of::<Cow<'static, str>>()
    }

    /// The table index of `name`, adding it if new. The table is a
    /// handful of entries and an emit site passes the same literals every
    /// time, so the first pass compares pointers only; content is
    /// compared when that misses (an owned name, or one literal at two
    /// addresses).
    fn intern(&mut self, name: Cow<'static, str>) -> u64 {
        let same_slice = |n: &Cow<'static, str>| {
            n.len() == name.len() && std::ptr::eq(n.as_ptr(), name.as_ptr())
        };
        let at = self
            .names
            .iter()
            .position(same_slice)
            .or_else(|| self.names.iter().position(|n| *n == name))
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        at as u64
    }

    /// Packs `event` onto the end of the log.
    pub fn push(&mut self, event: ProtoEvent) {
        let label = self.intern(event.label);
        put_varint(&mut self.bytes, label);
        put_varint(&mut self.bytes, event.fields.len() as u64);
        for (key, value) in event.fields {
            let key = self.intern(key);
            put_varint(&mut self.bytes, key);
            put_json(&mut self.bytes, &value);
        }
        self.len += 1;
    }

    /// Moves every event of `other` onto the end of this log. Into an
    /// empty log — an adapter handing an inner context's log to the outer
    /// one — this is a move of the buffers; otherwise the two name tables
    /// differ and `other`'s events are re-interned one by one.
    pub fn append(&mut self, other: EventLog) {
        if self.is_empty() {
            *self = other;
        } else {
            for event in other.iter() {
                self.push(event);
            }
        }
    }

    /// Expands the log back into its events, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = ProtoEvent> + '_ {
        let mut cur = Cursor(&self.bytes);
        (0..self.len).map(move |_| {
            let label = self.names[cur.varint()].clone();
            let fields = (0..cur.varint())
                .map(|_| (self.names[cur.varint()].clone(), cur.json()))
                .collect();
            ProtoEvent { label, fields }
        })
    }
}

/// One entry of a [`TraceRecord`].
#[derive(Clone, Debug)]
enum Entry {
    /// Everything one activation of `party` at virtual time `vt` emitted;
    /// its `i`-th event is the party's `first_pseq + i`-th overall.
    Activation {
        round: u32,
        party: usize,
        vt: f64,
        first_pseq: u64,
        log: EventLog,
    },
    /// A non-proto event, verbatim.
    Other(TraceEvent),
}

/// What a virtual-time recorder keeps of a run: per activation that
/// emitted anything its stamp and its packed log, interleaved in
/// recording order with the (few) non-proto events. The canonical
/// [`Trace`] — every proto event carrying its `vt`/`pseq` fields — exists
/// only once [`TraceRecord::to_trace`] is called.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    n: usize,
    t: usize,
    label: String,
    entries: Vec<Entry>,
}

impl TraceRecord {
    /// An empty record with the given trace header.
    #[must_use]
    pub fn new(n: usize, t: usize, label: &str) -> Self {
        TraceRecord {
            n,
            t,
            label: label.to_string(),
            entries: Vec::new(),
        }
    }

    /// Records what one activation emitted (nothing, for an empty `log`).
    pub fn push_activation(
        &mut self,
        round: u32,
        party: usize,
        vt: f64,
        first_pseq: u64,
        log: EventLog,
    ) {
        if !log.is_empty() {
            self.entries.push(Entry::Activation {
                round,
                party,
                vt,
                first_pseq,
                log,
            });
        }
    }

    /// Records a non-proto event.
    pub fn push_event(&mut self, round: u32, kind: EventKind) {
        self.entries.push(Entry::Other(TraceEvent { round, kind }));
    }

    /// Expands the record into the canonical trace: every proto event in
    /// recording order with `vt` and `pseq` appended to its fields.
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::new(self.n, self.t, &self.label);
        for entry in &self.entries {
            match entry {
                Entry::Activation {
                    round,
                    party,
                    vt,
                    first_pseq,
                    log,
                } => {
                    for (pseq, event) in (*first_pseq..).zip(log.iter()) {
                        trace.push(
                            *round,
                            EventKind::Proto {
                                party: *party,
                                event: event.f64("vt", *vt).u64("pseq", pseq),
                            },
                        );
                    }
                }
                Entry::Other(event) => trace.events.push(event.clone()),
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grade(leader: u64) -> ProtoEvent {
        ProtoEvent::new("gc.grade")
            .u64("iter", 3)
            .u64("inst", 999)
            .u64("leader", leader)
            .u64("grade", 2)
            .f64("value", 0.125)
    }

    #[test]
    fn a_five_field_grade_event_adds_52_bytes() {
        let mut log = EventLog::new();
        assert_eq!(log.heap_bytes(), 0);
        log.push(grade(0));
        let before = log.byte_len();
        log.push(grade(1));
        // The bound the recorder's cost is budgeted on is 96.
        assert_eq!(log.byte_len() - before, 2 + 5 * 10);
        assert_eq!(log.iter().collect::<Vec<_>>(), [grade(0), grade(1)]);
    }

    #[test]
    fn nothing_wraps_past_255_fields_255_names_or_a_64k_string() {
        let long = "x".repeat(70_000);
        let mut wide = ProtoEvent::new("wide");
        for k in 0..300 {
            wide.fields
                .push((Cow::Owned(format!("k{k}")), Json::int(k)));
        }
        let events = [
            wide,
            ProtoEvent::new("text").str("long", &long).str("none", ""),
            ProtoEvent::new("k7").u64("k299", 1),
        ];
        let mut log = EventLog::new();
        for event in &events {
            log.push(event.clone());
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        // 300 keys and three labels, one of which is also a key.
        assert_eq!(log.names.len(), 300 + 4);
    }

    #[test]
    fn a_literal_is_interned_once_whatever_its_address() {
        let mut log = EventLog::new();
        log.push(ProtoEvent::new("a").u64("k", 1));
        log.push(ProtoEvent {
            label: Cow::Owned("a".to_string()),
            fields: vec![(Cow::Owned("k".to_string()), Json::Null)],
        });
        assert_eq!(log.names, ["a", "k"]);
    }

    #[test]
    fn append_moves_into_an_empty_log_and_reinterns_into_a_full_one() {
        let mut inner = EventLog::new();
        inner.push(grade(5));
        let bytes = inner.bytes.as_ptr();
        let mut outer = EventLog::new();
        outer.append(inner.clone());
        assert_ne!(outer.bytes.as_ptr(), bytes, "a clone is a copy");
        let mut outer = EventLog::new();
        outer.append(inner);
        assert_eq!(outer.bytes.as_ptr(), bytes, "the buffer itself moved");

        let mut other = EventLog::new();
        other.push(ProtoEvent::new("realaa.iter").f64("value", -0.0));
        other.push(grade(6));
        outer.append(other);
        let value = ProtoEvent::new("realaa.iter").f64("value", -0.0);
        assert_eq!(
            format!("{:?}", outer.iter().collect::<Vec<_>>()),
            format!("{:?}", [grade(5), value, grade(6)])
        );
    }
}
