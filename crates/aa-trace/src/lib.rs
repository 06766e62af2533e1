//! Deterministic flight-recorder traces for the simulation stack.
//!
//! A [`Trace`] is an append-only log of structured events describing one
//! simulated run: engine events (round boundaries, every delivered send with
//! its byte cost, adversary corruption and forwarding actions) interleaved
//! with protocol-level events (gradecast grade assignment, RealAA hull
//! bounds per iteration, TreeAA path selection). The engine appends events
//! in a fixed order — party-id order within a round, senders in id order
//! during delivery — so a trace is **bit-identical across `Sequential` and
//! `Parallel` step modes**: same seed, same scenario, same bytes.
//!
//! Traces serialize through the canonical JSON codec in [`aa_codec`], which
//! renders any value to exactly one byte string; trace equality can
//! therefore be checked as string equality, and golden traces can be diffed
//! event-by-event.
//!
//! Recording contexts do not hold built events: `emit_with` packs each
//! one into an [`EventLog`] at once, a virtual-time recorder keeps those
//! logs in a [`TraceRecord`], and the canonical [`Trace`] is expanded
//! from them only where somebody reads it (see the `log` module).
//!
//! The module also ships trace-level invariant checkers used by the fuzz
//! harness and the conformance suite:
//!
//! * [`check_round_totals`] — per-round totals recorded at `RoundEnd` equal
//!   the totals recomputed from the individual send events;
//! * [`check_hull_monotone`] — the hull (spread) of honest parties'
//!   per-iteration AA values never grows;
//! * [`check_grade_semantics`] — honest gradecast grades for one leader
//!   differ by at most one, and all accepting parties bind the same value.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

pub use aa_codec::{fnv1a_64, fnv1a_64_extend, Json};

mod log;

pub use log::{EventLog, TraceRecord};

/// A protocol-level event emitted by a party during its `step`.
///
/// `label` names the event kind (`"gc.grade"`, `"realaa.iter"`,
/// `"treeaa.path"`, ...); `fields` hold the payload in insertion order so
/// serialization stays canonical. Every emit site names its label and
/// keys with string literals, which are held as they are — building an
/// event allocates its field list and nothing else; a parsed trace owns
/// its names.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoEvent {
    /// Event kind, dot-namespaced by protocol (e.g. `"realaa.iter"`).
    pub label: Cow<'static, str>,
    /// Ordered key/value payload.
    pub fields: Vec<(Cow<'static, str>, Json)>,
}

/// Room for the widest event any protocol emits (six fields) plus the
/// `vt`/`pseq` stamps, so a field list is sized once.
const FIELDS_HINT: usize = 8;

impl ProtoEvent {
    /// Creates an event with no fields.
    #[inline]
    pub fn new(label: &'static str) -> Self {
        ProtoEvent {
            label: Cow::Borrowed(label),
            fields: Vec::with_capacity(FIELDS_HINT),
        }
    }

    #[inline]
    fn with(mut self, key: &'static str, value: Json) -> Self {
        self.fields.push((Cow::Borrowed(key), value));
        self
    }

    /// Appends an unsigned-integer field (builder style).
    #[inline]
    #[must_use]
    pub fn u64(self, key: &'static str, value: u64) -> Self {
        self.with(key, Json::int(value))
    }

    /// Appends a float field (builder style).
    #[inline]
    #[must_use]
    pub fn f64(self, key: &'static str, value: f64) -> Self {
        self.with(key, Json::Num(value))
    }

    /// Appends a string field (builder style).
    #[inline]
    #[must_use]
    pub fn str(self, key: &'static str, value: &str) -> Self {
        self.with(key, Json::Str(value.to_string()))
    }

    /// Appends a boolean field (builder style).
    #[inline]
    #[must_use]
    pub fn bool(self, key: &'static str, value: bool) -> Self {
        self.with(key, Json::Bool(value))
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One trace event kind. Party indices are raw `usize`s so this crate has
/// no dependency on `sim-net` (which depends on us).
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// The engine began a round.
    RoundStart,
    /// A party emitted a protocol-level event during its step.
    Proto {
        /// The emitting party.
        party: usize,
        /// The event payload.
        event: ProtoEvent,
    },
    /// The adversary corrupted a party this round.
    Corrupt {
        /// The newly corrupted party.
        party: usize,
    },
    /// The adversary forwarded a corrupted party's honest traffic.
    Forward {
        /// The corrupted party whose tentative outbox was delivered.
        party: usize,
    },
    /// A broadcast was delivered to all `n` parties.
    Broadcast {
        /// The sender.
        from: usize,
        /// Payload size of **one** copy; the engine's accounting charges
        /// `bytes * n` for the fan-out.
        bytes: usize,
        /// Whether the sender was corrupted when it sent.
        byzantine: bool,
    },
    /// A unicast was delivered.
    Unicast {
        /// The sender.
        from: usize,
        /// The recipient.
        to: usize,
        /// Payload size.
        bytes: usize,
        /// Whether the sender was corrupted when it sent.
        byzantine: bool,
    },
    /// An adversary-injected message was delivered.
    Inject {
        /// The (corrupted) party the message claims to be from.
        from: usize,
        /// The recipient.
        to: usize,
        /// Payload size.
        bytes: usize,
    },
    /// The engine finished a round; totals mirror the round's metrics.
    RoundEnd {
        /// Messages delivered on behalf of honest parties this round.
        honest_messages: usize,
        /// Messages delivered on behalf of corrupted parties this round.
        byzantine_messages: usize,
        /// Total bytes on the wire this round.
        bytes: usize,
    },
    /// A fault plan dropped a message on the link `from -> to`.
    ///
    /// Fault events carry no byte cost: the message never reached the
    /// wire, so the totals checkers ignore them.
    FaultDrop {
        /// The sender.
        from: usize,
        /// The intended recipient.
        to: usize,
    },
    /// A fault plan crashed a party (benign crash, distinct from
    /// adversarial [`EventKind::Corrupt`]: the party may recover).
    FaultCrash {
        /// The crashed party.
        party: usize,
    },
    /// A previously crashed party recovered and rejoined.
    FaultRecover {
        /// The recovering party.
        party: usize,
    },
    /// A scheduled network partition came into effect.
    PartitionStart {
        /// Index of the partition in the fault plan.
        id: usize,
    },
    /// A scheduled network partition healed.
    PartitionHeal {
        /// Index of the partition in the fault plan.
        id: usize,
    },
    /// A real-transport node attempted to re-dial a disconnected peer.
    NetReconnect {
        /// The party attempting the reconnect.
        party: usize,
        /// The peer being re-dialed.
        peer: usize,
        /// 0-based attempt number within the current outage.
        attempt: usize,
    },
    /// A real-transport node declared a peer dead (crash-fault budget
    /// consumed; the peer's watermark no longer gates progress).
    NetDeadPeer {
        /// The party making the declaration.
        party: usize,
        /// The peer declared dead.
        peer: usize,
    },
    /// A real-transport node restarted from its write-ahead log and
    /// rejoined the protocol mid-run.
    NetRecovery {
        /// The recovering party.
        party: usize,
        /// How many protocol events were replayed from the WAL.
        replayed: usize,
    },
}

/// One entry of a [`Trace`]: a round number plus the event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// The 1-based round the event belongs to.
    pub round: u32,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Canonical JSON for this event (one flat object).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("round".to_string(), Json::int(u64::from(self.round)))];
        let kind = |name: &str| ("kind".to_string(), Json::Str(name.to_string()));
        match &self.kind {
            EventKind::RoundStart => fields.push(kind("round_start")),
            EventKind::Proto { party, event } => {
                fields.push(kind("proto"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
                fields.push(("label".to_string(), Json::Str(event.label.to_string())));
                let payload = event.fields.iter().map(|(k, v)| (k.to_string(), v.clone()));
                fields.push(("fields".to_string(), Json::Obj(payload.collect())));
            }
            EventKind::Corrupt { party } => {
                fields.push(kind("corrupt"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
            }
            EventKind::Forward { party } => {
                fields.push(kind("forward"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
            }
            EventKind::Broadcast {
                from,
                bytes,
                byzantine,
            } => {
                fields.push(kind("broadcast"));
                fields.push(("from".to_string(), Json::int(*from as u64)));
                fields.push(("bytes".to_string(), Json::int(*bytes as u64)));
                fields.push(("byz".to_string(), Json::Bool(*byzantine)));
            }
            EventKind::Unicast {
                from,
                to,
                bytes,
                byzantine,
            } => {
                fields.push(kind("unicast"));
                fields.push(("from".to_string(), Json::int(*from as u64)));
                fields.push(("to".to_string(), Json::int(*to as u64)));
                fields.push(("bytes".to_string(), Json::int(*bytes as u64)));
                fields.push(("byz".to_string(), Json::Bool(*byzantine)));
            }
            EventKind::Inject { from, to, bytes } => {
                fields.push(kind("inject"));
                fields.push(("from".to_string(), Json::int(*from as u64)));
                fields.push(("to".to_string(), Json::int(*to as u64)));
                fields.push(("bytes".to_string(), Json::int(*bytes as u64)));
            }
            EventKind::RoundEnd {
                honest_messages,
                byzantine_messages,
                bytes,
            } => {
                fields.push(kind("round_end"));
                fields.push(("honest".to_string(), Json::int(*honest_messages as u64)));
                fields.push(("byz".to_string(), Json::int(*byzantine_messages as u64)));
                fields.push(("bytes".to_string(), Json::int(*bytes as u64)));
            }
            EventKind::FaultDrop { from, to } => {
                fields.push(kind("fault_drop"));
                fields.push(("from".to_string(), Json::int(*from as u64)));
                fields.push(("to".to_string(), Json::int(*to as u64)));
            }
            EventKind::FaultCrash { party } => {
                fields.push(kind("fault_crash"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
            }
            EventKind::FaultRecover { party } => {
                fields.push(kind("fault_recover"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
            }
            EventKind::PartitionStart { id } => {
                fields.push(kind("partition_start"));
                fields.push(("id".to_string(), Json::int(*id as u64)));
            }
            EventKind::PartitionHeal { id } => {
                fields.push(kind("partition_heal"));
                fields.push(("id".to_string(), Json::int(*id as u64)));
            }
            EventKind::NetReconnect {
                party,
                peer,
                attempt,
            } => {
                fields.push(kind("net_reconnect"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
                fields.push(("peer".to_string(), Json::int(*peer as u64)));
                fields.push(("attempt".to_string(), Json::int(*attempt as u64)));
            }
            EventKind::NetDeadPeer { party, peer } => {
                fields.push(kind("net_dead_peer"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
                fields.push(("peer".to_string(), Json::int(*peer as u64)));
            }
            EventKind::NetRecovery { party, replayed } => {
                fields.push(kind("net_recovery"));
                fields.push(("party".to_string(), Json::int(*party as u64)));
                fields.push(("replayed".to_string(), Json::int(*replayed as u64)));
            }
        }
        Json::Obj(fields)
    }

    /// Parses one event object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field.
    pub fn from_json(json: &Json) -> Result<TraceEvent, String> {
        let round = req_usize(json, "round")? as u32;
        let kind_name = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("event missing `kind`")?;
        let kind = match kind_name {
            "round_start" => EventKind::RoundStart,
            "proto" => {
                let label = json
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("proto event missing `label`")?;
                let Some(Json::Obj(fields)) = json.get("fields") else {
                    return Err("proto event missing `fields` object".into());
                };
                let owned = |(k, v): &(String, Json)| (Cow::Owned(k.clone()), v.clone());
                EventKind::Proto {
                    party: req_usize(json, "party")?,
                    event: ProtoEvent {
                        label: Cow::Owned(label.to_string()),
                        fields: fields.iter().map(owned).collect(),
                    },
                }
            }
            "corrupt" => EventKind::Corrupt {
                party: req_usize(json, "party")?,
            },
            "forward" => EventKind::Forward {
                party: req_usize(json, "party")?,
            },
            "broadcast" => EventKind::Broadcast {
                from: req_usize(json, "from")?,
                bytes: req_usize(json, "bytes")?,
                byzantine: req_bool(json, "byz")?,
            },
            "unicast" => EventKind::Unicast {
                from: req_usize(json, "from")?,
                to: req_usize(json, "to")?,
                bytes: req_usize(json, "bytes")?,
                byzantine: req_bool(json, "byz")?,
            },
            "inject" => EventKind::Inject {
                from: req_usize(json, "from")?,
                to: req_usize(json, "to")?,
                bytes: req_usize(json, "bytes")?,
            },
            "round_end" => EventKind::RoundEnd {
                honest_messages: req_usize(json, "honest")?,
                byzantine_messages: req_usize(json, "byz")?,
                bytes: req_usize(json, "bytes")?,
            },
            "fault_drop" => EventKind::FaultDrop {
                from: req_usize(json, "from")?,
                to: req_usize(json, "to")?,
            },
            "fault_crash" => EventKind::FaultCrash {
                party: req_usize(json, "party")?,
            },
            "fault_recover" => EventKind::FaultRecover {
                party: req_usize(json, "party")?,
            },
            "partition_start" => EventKind::PartitionStart {
                id: req_usize(json, "id")?,
            },
            "partition_heal" => EventKind::PartitionHeal {
                id: req_usize(json, "id")?,
            },
            "net_reconnect" => EventKind::NetReconnect {
                party: req_usize(json, "party")?,
                peer: req_usize(json, "peer")?,
                attempt: req_usize(json, "attempt")?,
            },
            "net_dead_peer" => EventKind::NetDeadPeer {
                party: req_usize(json, "party")?,
                peer: req_usize(json, "peer")?,
            },
            "net_recovery" => EventKind::NetRecovery {
                party: req_usize(json, "party")?,
                replayed: req_usize(json, "replayed")?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(TraceEvent { round, kind })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

fn req_usize(json: &Json, key: &str) -> Result<usize, String> {
    json.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("event missing integer `{key}`"))
}

fn req_bool(json: &Json, key: &str) -> Result<bool, String> {
    match json.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("event missing boolean `{key}`")),
    }
}

/// A full flight-recorder trace of one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Number of parties.
    pub n: usize,
    /// Corruption budget.
    pub t: usize,
    /// Free-form scenario label (`""` when not run from a named scenario).
    pub label: String,
    /// The event log, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(n: usize, t: usize, label: &str) -> Self {
        Trace {
            n,
            t,
            label: label.to_string(),
            events: Vec::new(),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, round: u32, kind: EventKind) {
        self.events.push(TraceEvent { round, kind });
    }

    /// Canonical JSON for the whole trace.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".to_string(), Json::int(self.n as u64)),
            ("t".to_string(), Json::int(self.t as u64)),
            ("label".to_string(), Json::Str(self.label.clone())),
            (
                "events".to_string(),
                Json::Arr(self.events.iter().map(TraceEvent::to_json).collect()),
            ),
        ])
    }

    /// The canonical byte string; two traces are bit-identical iff these
    /// strings are equal.
    pub fn to_canonical_string(&self) -> String {
        self.to_json().to_string()
    }

    /// FNV-1a fingerprint of the canonical byte string.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_64(self.to_canonical_string().as_bytes())
    }

    /// Rebuilds a trace from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn from_json(json: &Json) -> Result<Trace, String> {
        let n = req_usize(json, "n")?;
        let t = req_usize(json, "t")?;
        let label = json
            .get("label")
            .and_then(Json::as_str)
            .ok_or("trace missing `label`")?
            .to_string();
        let raw = json
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("trace missing `events` array")?;
        let events = raw
            .iter()
            .enumerate()
            .map(|(i, e)| TraceEvent::from_json(e).map_err(|m| format!("event {i}: {m}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace {
            n,
            t,
            label,
            events,
        })
    }

    /// Parses a trace from canonical (or any) JSON text.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first schema error.
    pub fn parse(text: &str) -> Result<Trace, String> {
        Trace::from_json(&Json::parse(text)?)
    }

    /// Whether any fault-plan event (drop, crash, recover, partition
    /// boundary) was recorded.
    pub fn has_faults(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                EventKind::FaultDrop { .. }
                    | EventKind::FaultCrash { .. }
                    | EventKind::FaultRecover { .. }
                    | EventKind::PartitionStart { .. }
                    | EventKind::PartitionHeal { .. }
            )
        })
    }

    /// The round each party was first corrupted in, if ever.
    pub fn corruption_rounds(&self) -> BTreeMap<usize, u32> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            if let EventKind::Corrupt { party } = e.kind {
                out.entry(party).or_insert(e.round);
            }
        }
        out
    }
}

/// Message/byte totals recomputed from a trace's send events, mirroring the
/// engine's accounting (a broadcast counts `n` messages and `bytes * n`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Messages charged to honest parties.
    pub honest_messages: usize,
    /// Messages charged to corrupted parties (including injections).
    pub byzantine_messages: usize,
    /// Bytes on the wire.
    pub bytes: usize,
}

impl Totals {
    /// All messages, honest plus byzantine.
    pub fn messages(&self) -> usize {
        self.honest_messages + self.byzantine_messages
    }

    fn absorb(&mut self, kind: &EventKind, n: usize) {
        match *kind {
            EventKind::Broadcast {
                bytes, byzantine, ..
            } => {
                if byzantine {
                    self.byzantine_messages += n;
                } else {
                    self.honest_messages += n;
                }
                self.bytes += bytes * n;
            }
            EventKind::Unicast {
                bytes, byzantine, ..
            } => {
                if byzantine {
                    self.byzantine_messages += 1;
                } else {
                    self.honest_messages += 1;
                }
                self.bytes += bytes;
            }
            EventKind::Inject { bytes, .. } => {
                self.byzantine_messages += 1;
                self.bytes += bytes;
            }
            _ => {}
        }
    }
}

/// Recomputes run-wide totals from the trace's individual send events.
pub fn recomputed_totals(trace: &Trace) -> Totals {
    let mut totals = Totals::default();
    for e in &trace.events {
        totals.absorb(&e.kind, trace.n);
    }
    totals
}

/// Checks that every round is well-bracketed (`RoundStart` ... `RoundEnd`,
/// consecutive round numbers from 1) and that each `RoundEnd`'s totals equal
/// the totals recomputed from the round's traced sends.
///
/// # Errors
///
/// Returns a message pinpointing the first offending round.
pub fn check_round_totals(trace: &Trace) -> Result<(), String> {
    let mut current: Option<(u32, Totals)> = None;
    let mut last_closed = 0u32;
    for e in &trace.events {
        match &e.kind {
            EventKind::RoundStart => {
                if current.is_some() {
                    return Err(format!("round {} started inside an open round", e.round));
                }
                if e.round != last_closed + 1 {
                    return Err(format!(
                        "round {} started after round {last_closed}",
                        e.round
                    ));
                }
                current = Some((e.round, Totals::default()));
            }
            EventKind::RoundEnd {
                honest_messages,
                byzantine_messages,
                bytes,
            } => {
                let (round, totals) = current
                    .take()
                    .ok_or_else(|| format!("round {} ended without a matching start", e.round))?;
                if e.round != round {
                    return Err(format!(
                        "round {} ended while round {round} was open",
                        e.round
                    ));
                }
                let recorded = Totals {
                    honest_messages: *honest_messages,
                    byzantine_messages: *byzantine_messages,
                    bytes: *bytes,
                };
                if recorded != totals {
                    return Err(format!(
                        "round {round}: RoundEnd totals {recorded:?} != recomputed {totals:?}"
                    ));
                }
                last_closed = round;
            }
            kind => {
                let (round, totals) = current
                    .as_mut()
                    .ok_or_else(|| format!("event outside any round: {e}"))?;
                if e.round != *round {
                    return Err(format!(
                        "event tagged round {} inside round {round}: {e}",
                        e.round
                    ));
                }
                totals.absorb(kind, trace.n);
            }
        }
    }
    if current.is_some() {
        return Err("trace ends inside an open round".into());
    }
    Ok(())
}

/// Tolerance for float comparisons in the hull checker. The per-iteration
/// values are trimmed means of finitely many inputs; any growth beyond this
/// is a real violation, not rounding.
const HULL_TOL: f64 = 1e-9;

/// Checks that the spread (max − min) of honest parties' per-iteration AA
/// values is monotonically non-increasing, over the `realaa.iter` and
/// `halving.iter` event families.
///
/// A party's value for iteration `k` counts as honest if the party was not
/// yet corrupted in the round the event was emitted; since corruption is
/// monotone, the honest set can only shrink, and each new honest value lies
/// in the hull of the previous honest values — so the spread cannot grow.
///
/// # Errors
///
/// Returns a message naming the label, iteration, and offending spreads.
pub fn check_hull_monotone(trace: &Trace) -> Result<(), String> {
    let corrupted = trace.corruption_rounds();
    for label in ["realaa.iter", "halving.iter"] {
        // iteration -> honest values.
        let mut by_iter: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for e in &trace.events {
            let EventKind::Proto { party, event } = &e.kind else {
                continue;
            };
            if event.label != label {
                continue;
            }
            if corrupted.get(party).is_some_and(|&cr| e.round >= cr) {
                continue;
            }
            let iter = event
                .field("iter")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{label} event missing `iter`"))?;
            let value = match event.field("value") {
                Some(Json::Num(x)) => *x,
                _ => return Err(format!("{label} event missing numeric `value`")),
            };
            by_iter.entry(iter).or_default().push(value);
        }
        let mut prev: Option<(u64, f64)> = None;
        for (iter, values) in &by_iter {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = hi - lo;
            if let Some((prev_iter, prev_spread)) = prev {
                if spread > prev_spread + HULL_TOL {
                    return Err(format!(
                        "{label}: honest hull grew from {prev_spread} (iter {prev_iter}) \
                         to {spread} (iter {iter})"
                    ));
                }
            }
            prev = Some((*iter, spread));
        }
    }
    Ok(())
}

/// Checks gradecast semantics over `gc.grade` events: for each (round,
/// instance, leader), honest parties' grades differ by at most one, and
/// every honest party with grade ≥ 1 binds the same value. The optional
/// `inst` field separates bundled AA instances sharing a round; events
/// without it (every single-instance protocol) group under instance 0.
///
/// # Errors
///
/// Returns a message naming the round, leader, and offending grades/values.
pub fn check_grade_semantics(trace: &Trace) -> Result<(), String> {
    /// Honest grades and bound values for one (round, instance, leader).
    type GradeGroup = (Vec<u64>, Vec<Json>);
    let corrupted = trace.corruption_rounds();
    let mut groups: BTreeMap<(u32, u64, u64), GradeGroup> = BTreeMap::new();
    for e in &trace.events {
        let EventKind::Proto { party, event } = &e.kind else {
            continue;
        };
        if event.label != "gc.grade" {
            continue;
        }
        if corrupted.get(party).is_some_and(|&cr| e.round >= cr) {
            continue;
        }
        let leader = event
            .field("leader")
            .and_then(Json::as_u64)
            .ok_or("gc.grade event missing `leader`")?;
        let inst = event.field("inst").and_then(Json::as_u64).unwrap_or(0);
        let grade = event
            .field("grade")
            .and_then(Json::as_u64)
            .ok_or("gc.grade event missing `grade`")?;
        let entry = groups.entry((e.round, inst, leader)).or_default();
        entry.0.push(grade);
        if grade >= 1 {
            let value = event
                .field("value")
                .cloned()
                .ok_or("gc.grade event with grade >= 1 missing `value`")?;
            entry.1.push(value);
        }
    }
    for ((round, inst, leader), (grades, values)) in &groups {
        let min = grades.iter().min().expect("non-empty group");
        let max = grades.iter().max().expect("non-empty group");
        if max - min > 1 {
            return Err(format!(
                "round {round}, instance {inst}, leader {leader}: honest grades {grades:?} \
                 differ by more than 1"
            ));
        }
        if let Some(first) = values.first() {
            if values.iter().any(|v| v != first) {
                return Err(format!(
                    "round {round}, instance {inst}, leader {leader}: accepting parties bound \
                     different values {values:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Runs every trace-level invariant checker.
///
/// # Errors
///
/// Returns the first checker's message, prefixed with the checker name.
pub fn check_all(trace: &Trace) -> Result<(), String> {
    check_round_totals(trace).map_err(|m| format!("round totals: {m}"))?;
    check_hull_monotone(trace).map_err(|m| format!("hull monotonicity: {m}"))?;
    check_grade_semantics(trace).map_err(|m| format!("grade semantics: {m}"))?;
    Ok(())
}

/// The virtual-time sort key of a `vt`/`pseq`-stamped proto event:
/// `(vt, party, pseq)`. Virtual-time recordings (async-net's
/// `AsyncRecorder`, the real-socket nodes in `crates/net`) stamp every
/// proto event with these fields; sorting by this key turns any
/// interleaving — one global in-process log, or n per-process logs — into
/// the same canonical sequence.
///
/// # Errors
///
/// Returns a message if the event lacks the `vt`/`pseq` stamps (i.e. it
/// did not come from a virtual-time recording).
fn vt_key(event: &TraceEvent) -> Result<(f64, usize, u64), String> {
    let EventKind::Proto { party, event } = &event.kind else {
        return Err(format!("not a proto event: {event}"));
    };
    let vt = match event.field("vt") {
        Some(Json::Num(x)) => *x,
        _ => {
            return Err(format!(
                "proto event `{}` missing numeric `vt` stamp (not a virtual-time recording)",
                event.label
            ))
        }
    };
    let pseq = event
        .field("pseq")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("proto event `{}` missing `pseq` stamp", event.label))?;
    Ok((vt, *party, pseq))
}

/// Extracts a trace's protocol events in canonical virtual-time order —
/// sorted by `(vt, party, pseq)`. This is the projection the differential
/// gate compares: engine/transport bookkeeping (fault drops, round
/// markers) is excluded, emission interleaving is normalized away.
///
/// # Errors
///
/// Returns a message if any proto event lacks the `vt`/`pseq` stamps.
pub fn proto_projection(trace: &Trace) -> Result<Vec<TraceEvent>, String> {
    let mut keyed: Vec<((f64, usize, u64), TraceEvent)> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Proto { .. }))
        .map(|e| vt_key(e).map(|k| (k, e.clone())))
        .collect::<Result<_, _>>()?;
    keyed.sort_by(|((ta, pa, sa), _), ((tb, pb, sb), _)| {
        ta.total_cmp(tb).then(pa.cmp(pb)).then(sa.cmp(sb))
    });
    Ok(keyed.into_iter().map(|(_, e)| e).collect())
}

/// Merges the per-process traces of one networked run into a single
/// canonical trace: headers must agree, proto events are sorted globally
/// by `(vt, party, pseq)`, and non-proto events (transport `fault_drop`s)
/// follow, sorted by round then canonical rendering. Two reruns of the
/// same deterministic schedule merge to bit-identical traces.
///
/// # Errors
///
/// Returns a message on header mismatch or a missing `vt`/`pseq` stamp.
pub fn merge_traces(traces: &[Trace]) -> Result<Trace, String> {
    let first = traces.first().ok_or("cannot merge zero traces")?;
    let mut merged = Trace::new(first.n, first.t, &first.label);
    for (i, t) in traces.iter().enumerate() {
        if (t.n, t.t, &t.label) != (first.n, first.t, &first.label) {
            return Err(format!(
                "trace {i} header (n={}, t={}, label={:?}) disagrees with trace 0 \
                 (n={}, t={}, label={:?})",
                t.n, t.t, t.label, first.n, first.t, first.label
            ));
        }
    }
    let combined = Trace {
        n: first.n,
        t: first.t,
        label: first.label.clone(),
        events: traces.iter().flat_map(|t| t.events.clone()).collect(),
    };
    merged.events = proto_projection(&combined)?;
    let mut rest: Vec<TraceEvent> = combined
        .events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Proto { .. }))
        .cloned()
        .collect();
    rest.sort_by(|a, b| {
        a.round
            .cmp(&b.round)
            .then_with(|| a.to_json().to_string().cmp(&b.to_json().to_string()))
    });
    merged.events.extend(rest);
    Ok(merged)
}

/// The differential gate: checks that two virtual-time recordings contain
/// **identical protocol events** — same events, same payloads, same
/// canonical `(vt, party, pseq)` order — and returns how many events were
/// reconciled. `reference` is typically the in-process async-net run,
/// `networked` the merged per-process trace of a real-socket cluster run
/// of the same seed and topology.
///
/// # Errors
///
/// Returns a message naming the first diverging event index with both
/// canonical renderings (or the missing/extra tail), or a stamp/header
/// extraction failure.
pub fn reconcile_proto(reference: &Trace, networked: &Trace) -> Result<usize, String> {
    if (reference.n, reference.t) != (networked.n, networked.t) {
        return Err(format!(
            "header mismatch: reference (n={}, t={}) vs networked (n={}, t={})",
            reference.n, reference.t, networked.n, networked.t
        ));
    }
    first_divergence(
        ("reference", &proto_projection(reference)?),
        ("networked", &proto_projection(networked)?),
    )
}

/// Compares two named event sequences by their canonical renderings and
/// returns how many events they share when they are identical.
///
/// # Errors
///
/// Names the first differing event index with both renderings, or, when
/// one sequence is a prefix of the other, the longer side, how many
/// extra events it has and the first of them.
pub fn first_divergence(
    (left, a): (&str, &[TraceEvent]),
    (right, b): (&str, &[TraceEvent]),
) -> Result<usize, String> {
    for (i, (ea, eb)) in a.iter().zip(b).enumerate() {
        let (ra, rb) = (ea.to_string(), eb.to_string());
        if ra != rb {
            return Err(format!(
                "first divergence at event {i}:\n  {left}: {ra}\n  {right}: {rb}"
            ));
        }
    }
    let common = a.len().min(b.len());
    let (who, longer) = if a.len() > b.len() {
        (left, a)
    } else {
        (right, b)
    };
    match longer.get(common) {
        None => Ok(common),
        Some(first) => Err(format!(
            "{who} has {} extra event(s) after the {common} shared, first: {first}",
            longer.len() - common
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(trace: &mut Trace, r: u32, body: Vec<EventKind>) {
        trace.push(r, EventKind::RoundStart);
        let mut totals = Totals::default();
        for kind in body {
            totals.absorb(&kind, trace.n);
            trace.push(r, kind);
        }
        trace.push(
            r,
            EventKind::RoundEnd {
                honest_messages: totals.honest_messages,
                byzantine_messages: totals.byzantine_messages,
                bytes: totals.bytes,
            },
        );
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new(4, 1, "sample");
        round(
            &mut t,
            1,
            vec![
                EventKind::Proto {
                    party: 0,
                    event: ProtoEvent::new("realaa.iter")
                        .u64("iter", 0)
                        .f64("value", 0.5)
                        .f64("spread", 1.0),
                },
                EventKind::Corrupt { party: 3 },
                EventKind::Broadcast {
                    from: 0,
                    bytes: 12,
                    byzantine: false,
                },
                EventKind::Unicast {
                    from: 1,
                    to: 2,
                    bytes: 7,
                    byzantine: false,
                },
                EventKind::Inject {
                    from: 3,
                    to: 0,
                    bytes: 12,
                },
            ],
        );
        round(
            &mut t,
            2,
            vec![EventKind::Broadcast {
                from: 3,
                bytes: 2,
                byzantine: true,
            }],
        );
        t
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let trace = sample_trace();
        let text = trace.to_canonical_string();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_canonical_string(), text);
    }

    #[test]
    fn round_totals_accept_consistent_trace() {
        check_round_totals(&sample_trace()).unwrap();
    }

    #[test]
    fn round_totals_catch_mismatch() {
        let mut trace = sample_trace();
        // Tamper with the last RoundEnd.
        let last = trace.events.last_mut().unwrap();
        if let EventKind::RoundEnd { bytes, .. } = &mut last.kind {
            *bytes += 1;
        }
        let err = check_round_totals(&trace).unwrap_err();
        assert!(err.contains("round 2"), "{err}");
    }

    #[test]
    fn round_totals_catch_missing_bracket() {
        let mut trace = sample_trace();
        trace
            .events
            .retain(|e| e.kind != EventKind::RoundStart || e.round != 2);
        assert!(check_round_totals(&trace).is_err());
    }

    #[test]
    fn broadcast_charges_fanout() {
        let mut trace = Trace::new(5, 1, "");
        round(
            &mut trace,
            1,
            vec![EventKind::Broadcast {
                from: 2,
                bytes: 10,
                byzantine: false,
            }],
        );
        let totals = recomputed_totals(&trace);
        assert_eq!(totals.honest_messages, 5);
        assert_eq!(totals.bytes, 50);
    }

    #[test]
    fn hull_checker_accepts_shrinking_and_rejects_growth() {
        let mut trace = Trace::new(4, 1, "");
        let iter_event = |iter: u64, value: f64| EventKind::Proto {
            party: (value * 10.0) as usize % 4,
            event: ProtoEvent::new("realaa.iter")
                .u64("iter", iter)
                .f64("value", value),
        };
        round(
            &mut trace,
            1,
            vec![
                iter_event(0, 0.0),
                iter_event(0, 0.4),
                iter_event(1, 0.1),
                iter_event(1, 0.3),
            ],
        );
        check_hull_monotone(&trace).unwrap();

        let mut bad = Trace::new(4, 1, "");
        round(
            &mut bad,
            1,
            vec![
                iter_event(0, 0.0),
                iter_event(0, 0.1),
                iter_event(1, 0.0),
                iter_event(1, 0.9),
            ],
        );
        assert!(check_hull_monotone(&bad).is_err());
    }

    #[test]
    fn hull_checker_ignores_corrupted_parties() {
        let mut trace = Trace::new(4, 1, "");
        let ev = |party: usize, iter: u64, value: f64| EventKind::Proto {
            party,
            event: ProtoEvent::new("realaa.iter")
                .u64("iter", iter)
                .f64("value", value),
        };
        // Party 3 is corrupted in round 1; its wild values must not count.
        round(
            &mut trace,
            1,
            vec![
                EventKind::Corrupt { party: 3 },
                ev(0, 0, 0.0),
                ev(1, 0, 0.2),
                ev(3, 0, 100.0),
                ev(0, 1, 0.05),
                ev(1, 1, 0.15),
                ev(3, 1, -50.0),
            ],
        );
        check_hull_monotone(&trace).unwrap();
    }

    #[test]
    fn grade_checker_enforces_gap_and_binding() {
        let grade_ev = |party: usize, leader: u64, grade: u64, value: &str| EventKind::Proto {
            party,
            event: ProtoEvent::new("gc.grade")
                .u64("leader", leader)
                .u64("grade", grade)
                .str("value", value),
        };
        let mut good = Trace::new(4, 1, "");
        round(
            &mut good,
            1,
            vec![
                grade_ev(0, 0, 2, "a"),
                grade_ev(1, 0, 1, "a"),
                grade_ev(2, 0, 2, "a"),
            ],
        );
        check_grade_semantics(&good).unwrap();

        let mut gap = Trace::new(4, 1, "");
        round(
            &mut gap,
            1,
            vec![grade_ev(0, 0, 2, "a"), grade_ev(1, 0, 0, "a")],
        );
        assert!(check_grade_semantics(&gap).is_err());

        let mut split = Trace::new(4, 1, "");
        round(
            &mut split,
            1,
            vec![grade_ev(0, 0, 2, "a"), grade_ev(1, 0, 1, "b")],
        );
        assert!(check_grade_semantics(&split).is_err());
    }

    #[test]
    fn grade_checker_separates_bundle_instances() {
        let grade_ev =
            |party: usize, inst: u64, leader: u64, grade: u64, value: &str| EventKind::Proto {
                party,
                event: ProtoEvent::new("gc.grade")
                    .u64("inst", inst)
                    .u64("leader", leader)
                    .u64("grade", grade)
                    .str("value", value),
            };
        // Same round, same leader, different bundled instances binding
        // different values: legal — instances are independent gradecasts.
        let mut good = Trace::new(4, 1, "");
        round(
            &mut good,
            4,
            vec![
                grade_ev(0, 0, 1, 2, "a"),
                grade_ev(1, 0, 1, 2, "a"),
                grade_ev(0, 1, 1, 2, "b"),
                grade_ev(1, 1, 1, 2, "b"),
            ],
        );
        check_grade_semantics(&good).unwrap();

        // But a split *within* one instance is still caught.
        let mut split = Trace::new(4, 1, "");
        round(
            &mut split,
            4,
            vec![grade_ev(0, 1, 1, 2, "a"), grade_ev(1, 1, 1, 2, "b")],
        );
        let err = check_grade_semantics(&split).unwrap_err();
        assert!(err.contains("instance 1"), "unexpected message: {err}");
    }

    #[test]
    fn fault_events_roundtrip_and_cost_nothing() {
        let mut trace = Trace::new(4, 1, "faulty");
        round(
            &mut trace,
            1,
            vec![
                EventKind::PartitionStart { id: 0 },
                EventKind::FaultCrash { party: 2 },
                EventKind::FaultDrop { from: 0, to: 3 },
                EventKind::Broadcast {
                    from: 1,
                    bytes: 8,
                    byzantine: false,
                },
            ],
        );
        round(
            &mut trace,
            2,
            vec![
                EventKind::PartitionHeal { id: 0 },
                EventKind::FaultRecover { party: 2 },
            ],
        );
        assert!(trace.has_faults());
        assert!(!sample_trace().has_faults());
        // Round-trip identity through canonical JSON.
        let text = trace.to_canonical_string();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_canonical_string(), text);
        // Fault events carry no message/byte cost; only the broadcast counts.
        let totals = recomputed_totals(&trace);
        assert_eq!(totals.honest_messages, 4);
        assert_eq!(totals.bytes, 32);
        check_round_totals(&trace).unwrap();
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample_trace();
        let mut b = sample_trace();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.label.push('!');
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// A `vt`/`pseq`-stamped proto event, as virtual-time recorders emit.
    fn stamped(party: usize, vt: f64, pseq: u64, iter: u64) -> TraceEvent {
        TraceEvent {
            round: vt.floor() as u32 + 1,
            kind: EventKind::Proto {
                party,
                event: ProtoEvent::new("treeaa.iter")
                    .u64("iter", iter)
                    .f64("vt", vt)
                    .u64("pseq", pseq),
            },
        }
    }

    #[test]
    fn proto_projection_sorts_by_vt_party_pseq() {
        let mut t = Trace::new(3, 0, "vt");
        for e in [
            stamped(2, 1.5, 0, 0),
            stamped(0, 0.5, 1, 1),
            stamped(0, 0.5, 0, 0),
            stamped(1, 0.5, 0, 0),
        ] {
            t.events.push(e);
        }
        t.events.push(TraceEvent {
            round: 1,
            kind: EventKind::FaultDrop { from: 0, to: 1 },
        });
        let proj = proto_projection(&t).unwrap();
        assert_eq!(proj.len(), 4, "non-proto events excluded");
        let keys: Vec<_> = proj.iter().map(|e| vt_key(e).unwrap()).collect();
        assert_eq!(
            keys,
            vec![(0.5, 0, 0), (0.5, 0, 1), (0.5, 1, 0), (1.5, 2, 0)]
        );
    }

    #[test]
    fn unstamped_proto_events_are_rejected() {
        let mut t = Trace::new(2, 0, "");
        t.push(
            1,
            EventKind::Proto {
                party: 0,
                event: ProtoEvent::new("gc.grade").u64("grade", 2),
            },
        );
        let err = proto_projection(&t).unwrap_err();
        assert!(err.contains("vt"), "{err}");
    }

    #[test]
    fn merge_is_order_invariant_and_header_checked() {
        let mut a = Trace::new(2, 0, "cluster");
        a.events.push(stamped(0, 0.7, 0, 0));
        a.events.push(stamped(0, 1.7, 1, 1));
        let mut b = Trace::new(2, 0, "cluster");
        b.events.push(stamped(1, 0.6, 0, 0));
        b.events.push(TraceEvent {
            round: 1,
            kind: EventKind::FaultDrop { from: 0, to: 1 },
        });
        let ab = merge_traces(&[a.clone(), b.clone()]).unwrap();
        let ba = merge_traces(&[b.clone(), a.clone()]).unwrap();
        assert_eq!(
            ab.to_canonical_string(),
            ba.to_canonical_string(),
            "merge must not depend on input order"
        );
        // Proto events first (sorted), transport events after.
        assert!(matches!(
            ab.events[0].kind,
            EventKind::Proto { party: 1, .. }
        ));
        assert!(matches!(
            ab.events.last().unwrap().kind,
            EventKind::FaultDrop { .. }
        ));

        let mut other = Trace::new(3, 0, "cluster");
        other.events.push(stamped(2, 0.9, 0, 0));
        assert!(merge_traces(&[a, other]).is_err(), "header mismatch");
    }

    #[test]
    fn reconcile_accepts_equal_and_pinpoints_divergence() {
        let mut reference = Trace::new(2, 0, "ref");
        reference.events.push(stamped(0, 0.5, 0, 0));
        reference.events.push(stamped(1, 0.9, 0, 0));
        // Same events recorded across two per-process traces.
        let mut p0 = Trace::new(2, 0, "ref");
        p0.events.push(stamped(0, 0.5, 0, 0));
        let mut p1 = Trace::new(2, 0, "ref");
        p1.events.push(stamped(1, 0.9, 0, 0));
        let merged = merge_traces(&[p0, p1]).unwrap();
        assert_eq!(reconcile_proto(&reference, &merged).unwrap(), 2);

        // A diverging payload is named with its index.
        let mut tampered = merged.clone();
        if let EventKind::Proto { event, .. } = &mut tampered.events[1].kind {
            event.fields[0].1 = Json::int(99);
        }
        let err = reconcile_proto(&reference, &tampered).unwrap_err();
        assert!(err.contains("event 1"), "{err}");
        assert!(
            err.contains(&format!("reference: {}", reference.events[1]))
                && err.contains(&format!("networked: {}", tampered.events[1])),
            "{err}"
        );

        // A missing event is reported as an extra on the other side.
        let mut short = merged.clone();
        short.events.pop();
        let err = reconcile_proto(&reference, &short).unwrap_err();
        assert!(err.contains("reference has 1 extra"), "{err}");
    }
}
