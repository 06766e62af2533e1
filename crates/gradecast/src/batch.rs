//! Batched parallel gradecast: all `n` instances of a round in one
//! struct-of-arrays message per sender.
//!
//! The textbook protocol has every party broadcast one `Echo`/`Vote`
//! message *per instance* — n² broadcasts fanning out to n recipients
//! each, O(n³) delivered messages per round. This module keeps the
//! protocol's decisions bit-for-bit identical (pinned against a
//! per-leader test oracle in this module's tests) while flattening the
//! encoding: each party broadcasts **one** message per phase carrying a
//! struct-of-arrays view of all n instances — a presence bitmap (⌈n/8⌉
//! wire bytes) plus a dense vector of per-leader entries — wrapped in an
//! [`Arc`] so cloning a batch out of an inbox never copies the arrays.
//!
//! Two levers cut the bytes:
//!
//! * **Shared framing.** The per-message tag + leader-id overhead (5 of
//!   the 13 bytes of a per-leader `u64` echo) is paid once per batch, not
//!   once per instance.
//! * **Votes by hash.** A vote batch carries a 4-byte hash per instance
//!   instead of the value. Soundness: a vote key can only reach grade
//!   relevance (> t votes) if some honest party voted it, which needs
//!   n − t matching echoes, of which ≥ n − 2t came from honest parties —
//!   and those honest echo broadcasts reached *every* party, so every
//!   honest receiver already holds the voted value in its echo tally
//!   with count ≥ n − 2t > t and can resolve the hash locally. Keys that
//!   resolve to nothing can never exceed t votes and grade `Zero`.
//!   Resolution is exact when [`GcValue::hash32`] is collision-free on
//!   the candidate set; a 32-bit collision between two tallied candidates
//!   degrades the argmax to collision-resistance (documented, not silent:
//!   the protocol still only ever outputs values some party echoed).
//!
//! # Absorbing a batch: sweep, then leftovers
//!
//! Every party folds n batches of n slots into its tallies in each echo
//! and vote round — the protocol's Θ(n²) local work. The tallies are the
//! crate's one tally core (see the crate docs) at one instance: per
//! leader, the `u64` key of the first entry seen (a value is its
//! [`GcValue::bits64`], so no value is stored) and that key's `u32`
//! distinct-sender count. A [`GcBatch`] carries, beside its wire-shaped
//! [`GcSlots`], the matching **dense view**: an n-wide key vector
//! ([`GcValue::bits64`] of an echo entry, the widened hash of a vote
//! entry, 0 where absent) next to the slots' byte-wide presence lanes.
//! The view is built once, where the batch is assembled, and rides the
//! `Arc` all n receivers share; it is not on the wire
//! ([`Payload::size_bytes`] reports bitmap + present entries only).
//!
//! Absorbing a batch is then one [`aa_kernels::tally_eq_u64`] sweep over
//! those arrays, whatever the presence pattern: it counts every present
//! slot whose key equals the leader's candidate and reports how many
//! present slots it could not count. Only when that is non-zero does the
//! **per-slot rule** run, on exactly those slots, in leader order: adopt
//! the first key seen for a leader as its candidate (count 1), count a
//! match, or send a divergent key — Byzantine equivocation — to a
//! `BTreeMap` overflow table. A count leaves 0 only by adoption and never
//! returns, so `cnt > 0 ⇔ the leader has a candidate`: no separate
//! candidate flags exist, and a present key 0 (`+0.0` has `bits64 == 0`)
//! over a still-zeroed candidate is adopted, not counted, because the
//! sweep skips count-0 lanes. Slots of one message belong to distinct
//! leaders, so sweep-then-leftovers leaves the tallies exactly as a single
//! per-slot pass would.
//!
//! Only the first batch per sender per phase is absorbed: a Byzantine
//! sender gains nothing by repeating itself on an authenticated channel.
//! A batch of the wrong width is dropped without using up that turn.

use std::fmt;
use std::sync::Arc;

use sim_net::{PartyId, Payload};

use crate::arena::Arena;
use crate::grade::GradecastOutput;

/// A value batched gradecast can tally in struct-of-arrays form.
///
/// The tallies hold 64-bit keys, not values: `bits64` must be
/// **injective** on the values a deployment actually gradecasts, and
/// `from_bits64` its inverse there. Both wire types in this repository
/// qualify exactly (`u64` is the identity, `real-aa`'s `R64` uses the
/// IEEE-754 bit pattern, injective on finite reals).
pub trait GcValue: Clone + Ord + std::fmt::Debug {
    /// An injective 64-bit encoding of the value.
    fn bits64(&self) -> u64;

    /// The value whose [`GcValue::bits64`] is `bits`; only ever called
    /// with keys of values that were tallied.
    fn from_bits64(bits: u64) -> Self;

    /// The 32-bit key vote batches carry on the wire: a fixed avalanche
    /// mix of [`GcValue::bits64`] (splitmix64 finalizer, xor-folded).
    fn hash32(&self) -> u32 {
        let z = self.bits64().wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z >> 32) ^ z) as u32
    }
}

impl GcValue for u64 {
    fn bits64(&self) -> u64 {
        *self
    }

    fn from_bits64(bits: u64) -> Self {
        bits
    }
}

/// Wire bytes of an n-slot presence bitmap.
fn bitmap_bytes(n: usize) -> usize {
    n.div_ceil(8)
}

/// A struct-of-arrays view of per-leader slots: a presence bitmap plus
/// a dense vector of entries in leader order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcSlots<T> {
    pub(crate) present: Vec<bool>,
    entries: Vec<T>,
}

impl<T> GcSlots<T> {
    /// Builds slots from a per-leader option vector.
    pub fn from_options(slots: Vec<Option<T>>) -> Self {
        slots.into_iter().collect()
    }

    /// Builds slots from the presence vector and the entries of the
    /// present slots in leader order (what a wire decoder has in hand).
    /// `None` unless there is exactly one entry per present slot.
    pub fn from_parts(present: Vec<bool>, entries: Vec<T>) -> Option<Self> {
        let expected = present.iter().filter(|&&p| p).count();
        (entries.len() == expected).then_some(GcSlots { present, entries })
    }

    /// `n` slots with only `slot` present — the shape of a message that
    /// speaks about a single leader.
    ///
    /// # Panics
    ///
    /// Panics unless `slot < n`.
    pub fn single(n: usize, slot: usize, entry: T) -> Self {
        let mut present = vec![false; n];
        present[slot] = true;
        GcSlots {
            present,
            entries: vec![entry],
        }
    }

    /// Number of leader slots (present or not).
    pub fn n(&self) -> usize {
        self.present.len()
    }

    /// Iterates `(leader, entry)` over the present slots in leader order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let mut entries = self.entries.iter();
        self.present.iter().enumerate().filter_map(move |(l, &p)| {
            if p {
                entries.next().map(|e| (l, e))
            } else {
                None
            }
        })
    }

    /// Whether `slot` is present. Out-of-range slots are absent.
    pub fn is_present(&self, slot: usize) -> bool {
        self.present.get(slot).copied().unwrap_or(false)
    }

    /// Wire bytes of the bitmap plus per-entry payloads as sized by `f`.
    /// Public so nested batch formats (the bundled wire in
    /// [`crate::bundle`]) can size inner slots recursively.
    pub fn wire_bytes_with(&self, f: impl Fn(&T) -> usize) -> usize {
        bitmap_bytes(self.n()) + self.entries.iter().map(f).sum::<usize>()
    }
}

impl<T> FromIterator<Option<T>> for GcSlots<T> {
    fn from_iter<I: IntoIterator<Item = Option<T>>>(slots: I) -> Self {
        let slots = slots.into_iter();
        let mut present = Vec::with_capacity(slots.size_hint().0);
        let mut entries = Vec::with_capacity(slots.size_hint().0);
        for slot in slots {
            present.push(slot.is_some());
            entries.extend(slot);
        }
        GcSlots { present, entries }
    }
}

/// One sender's echo or vote batch as the batched wire shares it: the
/// wire-shaped [`GcSlots`] plus their dense view, an n-wide tally-key
/// vector the receivers' sweep reads in place (see the module docs).
/// Built only through [`GcBatchMsg::echoes`] / [`GcBatchMsg::votes`], so
/// the keys always agree with the slots; equality and `Debug` are the
/// slots'.
#[derive(Clone, PartialEq, Eq)]
pub struct GcBatch<T> {
    slots: GcSlots<T>,
    /// Per leader: the tally key of its entry, 0 where the slot is absent.
    keys: Box<[u64]>,
}

impl<T> GcBatch<T> {
    fn new(slots: GcSlots<T>, key: impl Fn(&T) -> u64) -> Self {
        let mut keys = vec![0; slots.n()].into_boxed_slice();
        for (l, entry) in slots.iter() {
            keys[l] = key(entry);
        }
        GcBatch { slots, keys }
    }

    /// The wire-shaped slots.
    pub fn slots(&self) -> &GcSlots<T> {
        &self.slots
    }
}

impl<T: fmt::Debug> fmt::Debug for GcBatch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.slots.fmt(f)
    }
}

/// A batched gradecast message: one broadcast per sender per phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcBatchMsg<V> {
    /// Round 1: the leader's own value.
    Lead(V),
    /// Round 2: this sender's echo for every leader it heard, as one
    /// `Arc`-shared struct-of-arrays batch.
    Echoes(Arc<GcBatch<V>>),
    /// Round 3: this sender's vote for every leader that reached the
    /// echo threshold — 4 bytes per instance ([`GcValue::hash32`]).
    Votes(Arc<GcBatch<u32>>),
}

impl<V: GcValue> GcBatchMsg<V> {
    /// The echo batch carrying `slots` (dense view built here, once).
    pub fn echoes(slots: GcSlots<V>) -> Self {
        GcBatchMsg::Echoes(Arc::new(GcBatch::new(slots, GcValue::bits64)))
    }

    /// The vote batch carrying `slots` (dense view built here, once).
    pub fn votes(slots: GcSlots<u32>) -> Self {
        GcBatchMsg::Votes(Arc::new(GcBatch::new(slots, |&h| u64::from(h))))
    }
}

impl<V: Payload> Payload for GcBatchMsg<V> {
    fn size_bytes(&self) -> usize {
        // Tag byte + batch body. Entry payloads are sized through their
        // own `Payload` impls so heap-carrying values count their real
        // wire size and trace byte accounting reconciles. The dense view
        // is receiver-side layout, not wire bytes.
        match self {
            GcBatchMsg::Lead(v) => 1 + v.size_bytes(),
            GcBatchMsg::Echoes(batch) => 1 + batch.slots.wire_bytes_with(Payload::size_bytes),
            GcBatchMsg::Votes(batch) => 1 + batch.slots.wire_bytes_with(|_| 4),
        }
    }
}

/// One batch of `n` parallel gradecast instances (every party leads one),
/// as a pure three-phase state machine: the crate's tally core with one
/// instance.
///
/// The caller drives the phases in order, feeding each phase the messages
/// delivered for it and broadcasting the message each phase returns:
/// [`BatchGradecast::lead_msg`], [`BatchGradecast::on_leads`],
/// [`BatchGradecast::on_echoes`], then [`BatchGradecast::on_votes`] for
/// the final [`GradecastOutput`] per leader. Values are `Ord` so vote
/// tallies have a deterministic maximum.
#[derive(Clone, Debug)]
pub struct BatchGradecast<V> {
    pub(crate) arena: Arena<V>,
}

impl<V: GcValue> BatchGradecast<V> {
    /// Creates a batch for party `me` out of `n` with corruption bound
    /// `t`, with no leaders muted.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `me < n` — gradecast's guarantees need
    /// `t < n/3`, and constructing it outside that regime is a bug.
    pub fn new(me: PartyId, n: usize, t: usize) -> Self {
        BatchGradecast {
            arena: Arena::new(me, n, t, vec![false; n]),
        }
    }

    /// Starts the next batch in place: every tally emptied, the muted set
    /// kept — how `RealAA` recycles its core every iteration.
    pub fn reset(&mut self) {
        self.arena.reset();
    }

    /// The muted set.
    pub fn muted(&self) -> &[bool] {
        self.arena.muted(0)
    }

    /// The muted set, for the caller's muting rule: a muted leader gets no
    /// relaying (echo or vote) here.
    pub fn muted_mut(&mut self) -> &mut [bool] {
        self.arena.muted_mut(0)
    }

    /// Phase 1: the message this party broadcasts as leader of its own
    /// instance.
    pub fn lead_msg(&self, value: V) -> GcBatchMsg<V> {
        GcBatchMsg::Lead(value)
    }

    /// Phase 2: consume round-1 leads, return the echo batch to
    /// broadcast. The first lead per leader wins; leads from muted or
    /// out-of-range leaders are ignored and get no slot.
    pub fn on_leads<'a, I>(&mut self, inbox: I) -> GcBatchMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            if let GcBatchMsg::Lead(v) = msg {
                self.arena.absorb_lead(0, from, v);
            }
        }
        GcBatchMsg::echoes(self.arena.echo_slots(0))
    }

    /// Phase 3: consume round-2 echo batches, return the vote batch to
    /// broadcast. A vote slot for leader `ℓ` is present iff `n − t`
    /// distinct parties echoed one value for `ℓ` and `ℓ` is not muted.
    pub fn on_echoes<'a, I>(&mut self, inbox: I) -> GcBatchMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            if let GcBatchMsg::Echoes(batch) = msg {
                if batch.slots.n() == self.arena.n {
                    let (keys, present) = (&batch.keys, &batch.slots.present);
                    self.arena.echo.absorb(from, [0], keys, present);
                }
            }
        }
        GcBatchMsg::votes(self.arena.vote_slots(0))
    }

    /// Phase 4: consume round-3 vote batches and produce the output for
    /// every leader (muted ones too — muting suppresses *relaying*, not
    /// *evaluation*; see the crate docs on why `RealAA` needs this split).
    pub fn on_votes<'a, I>(&mut self, inbox: I) -> Vec<GradecastOutput<V>>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            if let GcBatchMsg::Votes(batch) = msg {
                if batch.slots.n() == self.arena.n {
                    let (keys, present) = (&batch.keys, &batch.slots.present);
                    self.arena.vote.absorb(from, [0], keys, present);
                }
            }
        }
        let mut out = Vec::with_capacity(self.arena.n);
        self.arena.grade(0, &mut out);
        out
    }
}

/// Runs a single batch of `n` parallel gradecasts on a simulation: every
/// party leads one instance with its input value and outputs the vector of
/// per-leader `(value, grade)` results after 3 communication rounds,
/// emitting one `gc.grade` trace event per leader.
///
/// Primarily a test and measurement harness for the primitive; `RealAA`
/// embeds [`BatchGradecast`] directly to pipeline iterations.
#[derive(Clone, Debug)]
pub struct BatchGradecastProtocol<V> {
    value: V,
    gc: BatchGradecast<V>,
    output: Option<Vec<GradecastOutput<V>>>,
}

impl<V: GcValue> BatchGradecastProtocol<V> {
    /// Creates the party state machine for `me` with input `value`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` (see [`BatchGradecast::new`]).
    pub fn new(me: PartyId, n: usize, t: usize, value: V) -> Self {
        BatchGradecastProtocol {
            value,
            gc: BatchGradecast::new(me, n, t),
            output: None,
        }
    }

    /// Mutes `leader` before the run starts.
    pub fn mute(&mut self, leader: PartyId) {
        self.gc.muted_mut()[leader.index()] = true;
    }
}

impl<V> sim_net::Protocol for BatchGradecastProtocol<V>
where
    V: GcValue + Send + Sync,
    GcBatchMsg<V>: Payload,
{
    type Msg = GcBatchMsg<V>;
    type Output = Vec<GradecastOutput<V>>;

    fn step(
        &mut self,
        round: u32,
        inbox: &sim_net::Inbox<Self::Msg>,
        ctx: &mut sim_net::RoundCtx<Self::Msg>,
    ) {
        // Batches arrive `Arc`-shared, so feeding the state machine by
        // reference out of the inbox copies nothing.
        let received = || inbox.iter().map(|e| (e.from, &e.payload));
        match round {
            1 => ctx.broadcast(self.gc.lead_msg(self.value.clone())),
            2 => {
                let batch = self.gc.on_leads(received());
                ctx.broadcast(batch);
            }
            3 => {
                let batch = self.gc.on_echoes(received());
                ctx.broadcast(batch);
            }
            4 => {
                let outputs = self.gc.on_votes(received());
                for (leader, slot) in outputs.iter().enumerate() {
                    ctx.emit_with(|| {
                        let mut ev = sim_net::ProtoEvent::new("gc.grade")
                            .u64("leader", leader as u64)
                            .u64("grade", u64::from(slot.grade.as_u8()));
                        if let Some(v) = &slot.value {
                            ev = ev.str("value", &format!("{v:?}"));
                        }
                        ev
                    });
                }
                self.output = Some(outputs);
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::Grade;
    /// The textbook per-leader encoding — one `Echo`/`Vote` message per
    /// instance, `BTreeMap` tallies keyed by value — kept only as the
    /// reference the batched machine's decisions are compared against.
    mod oracle {
        use std::collections::BTreeMap;

        use sim_net::{PartyId, Payload};

        use crate::grade::{Grade, GradecastOutput};

        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum GcMsg<V> {
            Lead(V),
            /// "leader `ℓ` sent me this value".
            Echo(PartyId, V),
            /// "I saw `n − t` matching echoes of this value for `ℓ`".
            Vote(PartyId, V),
        }

        impl<V: Payload> Payload for GcMsg<V> {
            fn size_bytes(&self) -> usize {
                // Tag byte + optional leader id (4 bytes) + value payload.
                match self {
                    GcMsg::Lead(v) => 1 + v.size_bytes(),
                    GcMsg::Echo(_, v) | GcMsg::Vote(_, v) => 1 + 4 + v.size_bytes(),
                }
            }
        }

        /// `n` parallel instances; per (leader, sender) the first message
        /// wins.
        pub struct ParallelGradecast<V> {
            n: usize,
            t: usize,
            muted: Vec<bool>,
            leads: Vec<Option<V>>,
            echo_tally: Vec<BTreeMap<V, usize>>,
            echo_seen: Vec<Vec<bool>>,
            vote_tally: Vec<BTreeMap<V, usize>>,
            vote_seen: Vec<Vec<bool>>,
        }

        impl<V: Clone + Ord> ParallelGradecast<V> {
            pub fn with_muted(n: usize, t: usize, muted: Vec<bool>) -> Self {
                ParallelGradecast {
                    n,
                    t,
                    muted,
                    leads: vec![None; n],
                    echo_tally: vec![BTreeMap::new(); n],
                    echo_seen: vec![vec![false; n]; n],
                    vote_tally: vec![BTreeMap::new(); n],
                    vote_seen: vec![vec![false; n]; n],
                }
            }

            pub fn on_leads(&mut self, inbox: &[(PartyId, GcMsg<V>)]) -> Vec<GcMsg<V>> {
                for (from, msg) in inbox {
                    if let GcMsg::Lead(v) = msg {
                        let leader = from.index();
                        if !self.muted[leader] && self.leads[leader].is_none() {
                            self.leads[leader] = Some(v.clone());
                        }
                    }
                }
                self.leads
                    .iter()
                    .enumerate()
                    .filter_map(|(leader, lead)| {
                        lead.as_ref()
                            .map(|v| GcMsg::Echo(PartyId(leader), v.clone()))
                    })
                    .collect()
            }

            pub fn on_echoes(&mut self, inbox: &[(PartyId, GcMsg<V>)]) -> Vec<GcMsg<V>> {
                for (from, msg) in inbox {
                    if let GcMsg::Echo(leader, v) = msg {
                        let (l, s) = (leader.index(), from.index());
                        if l < self.n && !self.echo_seen[l][s] {
                            self.echo_seen[l][s] = true;
                            *self.echo_tally[l].entry(v.clone()).or_insert(0) += 1;
                        }
                    }
                }
                let mut votes = Vec::new();
                for l in 0..self.n {
                    if self.muted[l] {
                        continue;
                    }
                    if let Some((v, _)) = self.echo_tally[l]
                        .iter()
                        .find(|&(_, &c)| c >= self.n - self.t)
                    {
                        votes.push(GcMsg::Vote(PartyId(l), v.clone()));
                    }
                }
                votes
            }

            pub fn on_votes(&mut self, inbox: &[(PartyId, GcMsg<V>)]) -> Vec<GradecastOutput<V>> {
                for (from, msg) in inbox {
                    if let GcMsg::Vote(leader, v) = msg {
                        let (l, s) = (leader.index(), from.index());
                        if l < self.n && !self.vote_seen[l][s] {
                            self.vote_seen[l][s] = true;
                            *self.vote_tally[l].entry(v.clone()).or_insert(0) += 1;
                        }
                    }
                }
                (0..self.n)
                    .map(|l| {
                        // Deterministic argmax: max count, smallest value
                        // on ties.
                        let best = self.vote_tally[l]
                            .iter()
                            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)));
                        match best {
                            Some((v, &c)) if c >= self.n - self.t => GradecastOutput {
                                value: Some(v.clone()),
                                grade: Grade::Two,
                            },
                            Some((v, &c)) if c > self.t => GradecastOutput {
                                value: Some(v.clone()),
                                grade: Grade::One,
                            },
                            _ => GradecastOutput {
                                value: None,
                                grade: Grade::Zero,
                            },
                        }
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn from_parts_wants_one_entry_per_present_slot() {
        let options = vec![Some(7u64), None, Some(9)];
        let parts = GcSlots::from_parts(vec![true, false, true], vec![7, 9]);
        assert_eq!(parts, Some(GcSlots::from_options(options)));
        assert_eq!(
            GcSlots::from_parts(vec![true, false, true], vec![7u64]),
            None
        );
        assert_eq!(GcSlots::from_parts(vec![false], vec![7u64]), None);
    }

    /// Hand-driven cores (`aa-check`, tests) may pass any `PartyId`: a
    /// sender outside `0..n` is dropped like a wrong-width batch, in every
    /// phase.
    #[test]
    fn out_of_range_senders_are_ignored() {
        let n = 4;
        let mut m = BatchGradecast::<u64>::new(PartyId(0), n, 1);
        let untouched = format!("{m:?}");
        for from in [PartyId(n), PartyId(usize::MAX)] {
            let lead = GcBatchMsg::Lead(5u64);
            let echo_slots = GcSlots::from_options(vec![Some(5u64); n]);
            let vote_slots = GcSlots::from_options(vec![Some(5u64.hash32()); n]);
            let echoes = GcBatchMsg::echoes(echo_slots);
            let votes = GcBatchMsg::<u64>::votes(vote_slots);
            assert_eq!(
                m.on_leads([(from, &lead)]),
                GcBatchMsg::echoes(GcSlots::from_options(vec![None; n]))
            );
            assert_eq!(
                m.on_echoes([(from, &echoes)]),
                GcBatchMsg::votes(GcSlots::from_options(vec![None; n]))
            );
            assert!(m
                .on_votes([(from, &votes)])
                .iter()
                .all(|o| o.grade == Grade::Zero));
        }
        assert_eq!(format!("{m:?}"), untouched);
    }

    use oracle::{GcMsg, ParallelGradecast};
    use sim_net::{run_simulation, AdversaryCtx, Passive, SimConfig, StaticByzantine};

    /// Drives `n` machines of both implementations through identical
    /// scenarios (scripted per-recipient leads for equivocation, per-party
    /// silence for crashes) and asserts every output is equal.
    struct Scenario {
        n: usize,
        t: usize,
        /// `lead[sender][recipient]`: the lead value `recipient` receives
        /// from `sender` (None = silent toward that recipient).
        leads: Vec<Vec<Option<u64>>>,
        /// Parties that never send echoes/votes.
        silent: Vec<bool>,
        /// Leaders muted at every party.
        muted: Vec<bool>,
    }

    fn run_reference(s: &Scenario) -> Vec<Vec<GradecastOutput<u64>>> {
        let mut ms: Vec<ParallelGradecast<u64>> = (0..s.n)
            .map(|_| ParallelGradecast::with_muted(s.n, s.t, s.muted.clone()))
            .collect();
        // Echoes/votes are broadcast, so every recipient sees one shared
        // list.
        let mut echoes: Vec<(PartyId, GcMsg<u64>)> = Vec::new();
        for (r, m) in ms.iter_mut().enumerate() {
            let inbox: Vec<(PartyId, GcMsg<u64>)> = (0..s.n)
                .filter_map(|snd| s.leads[snd][r].map(|v| (PartyId(snd), GcMsg::Lead(v))))
                .collect();
            let out = m.on_leads(&inbox);
            if !s.silent[r] {
                echoes.extend(out.into_iter().map(|msg| (PartyId(r), msg)));
            }
        }
        let mut votes: Vec<(PartyId, GcMsg<u64>)> = Vec::new();
        for (r, m) in ms.iter_mut().enumerate() {
            let out = m.on_echoes(&echoes);
            if !s.silent[r] {
                votes.extend(out.into_iter().map(|msg| (PartyId(r), msg)));
            }
        }
        ms.iter_mut().map(|m| m.on_votes(&votes)).collect()
    }

    fn run_batched(s: &Scenario) -> Vec<Vec<GradecastOutput<u64>>> {
        let mut ms: Vec<BatchGradecast<u64>> = (0..s.n)
            .map(|i| {
                let mut m = BatchGradecast::new(PartyId(i), s.n, s.t);
                m.muted_mut().copy_from_slice(&s.muted);
                m
            })
            .collect();
        let mut echo_batches: Vec<(PartyId, GcBatchMsg<u64>)> = Vec::new();
        for (r, m) in ms.iter_mut().enumerate() {
            let inbox: Vec<(PartyId, GcBatchMsg<u64>)> = (0..s.n)
                .filter_map(|snd| s.leads[snd][r].map(|v| (PartyId(snd), GcBatchMsg::Lead(v))))
                .collect();
            let batch = m.on_leads(inbox.iter().map(|(p, msg)| (*p, msg)));
            if !s.silent[r] {
                echo_batches.push((PartyId(r), batch));
            }
        }
        let mut vote_batches: Vec<(PartyId, GcBatchMsg<u64>)> = Vec::new();
        for (r, m) in ms.iter_mut().enumerate() {
            let batch = m.on_echoes(echo_batches.iter().map(|(p, msg)| (*p, msg)));
            if !s.silent[r] {
                vote_batches.push((PartyId(r), batch));
            }
        }
        ms.iter_mut()
            .map(|m| m.on_votes(vote_batches.iter().map(|(p, msg)| (*p, msg))))
            .collect()
    }

    fn assert_equivalent(s: &Scenario) {
        let reference = run_reference(s);
        let batched = run_batched(s);
        assert_eq!(reference, batched);
    }

    fn honest_leads(n: usize) -> Vec<Vec<Option<u64>>> {
        (0..n).map(|snd| vec![Some(100 + snd as u64); n]).collect()
    }

    #[test]
    fn equivalent_all_honest() {
        let n = 7;
        let s = Scenario {
            n,
            t: 2,
            leads: honest_leads(n),
            silent: vec![false; n],
            muted: vec![false; n],
        };
        assert_equivalent(&s);
        for out in run_batched(&s) {
            for (l, slot) in out.iter().enumerate() {
                assert_eq!(slot.grade, Grade::Two);
                assert_eq!(slot.value, Some(100 + l as u64));
            }
        }
    }

    #[test]
    fn equivalent_with_crashed_parties() {
        let n = 7;
        let mut leads = honest_leads(n);
        // Party 3 crashed before leading; party 5 led but stays silent
        // afterwards.
        for slot in leads[3].iter_mut() {
            *slot = None;
        }
        let mut silent = vec![false; n];
        silent[3] = true;
        silent[5] = true;
        let s = Scenario {
            n,
            t: 2,
            leads,
            silent,
            muted: vec![false; n],
        };
        assert_equivalent(&s);
    }

    #[test]
    fn equivalent_with_equivocating_leader() {
        let n = 7;
        let mut leads = honest_leads(n);
        // Leader 0 equivocates: 111 to the first half, 222 to the rest.
        for (r, slot) in leads[0].iter_mut().enumerate() {
            *slot = Some(if r <= n / 2 { 111 } else { 222 });
        }
        let s = Scenario {
            n,
            t: 2,
            leads,
            silent: vec![false; n],
            muted: vec![false; n],
        };
        assert_equivalent(&s);
        // And the binding property holds on the batched side.
        let outs = run_batched(&s);
        let mut bound = None;
        for out in &outs {
            if out[0].accepted() {
                let v = out[0].value.unwrap();
                assert_eq!(*bound.get_or_insert(v), v);
            }
        }
    }

    #[test]
    fn equivalent_with_muted_leader() {
        let n = 7;
        let mut muted = vec![false; n];
        muted[2] = true;
        let s = Scenario {
            n,
            t: 2,
            leads: honest_leads(n),
            silent: vec![false; n],
            muted,
        };
        assert_equivalent(&s);
        for out in run_batched(&s) {
            assert_eq!(out[2].grade, Grade::Zero);
        }
    }

    #[test]
    fn duplicate_batches_from_same_sender_count_once() {
        let n = 4;
        let mut m = BatchGradecast::<u64>::new(PartyId(0), n, 1);
        let votes = GcBatchMsg::votes(GcSlots::single(n, 1, 9u64.hash32()));
        let out = m.on_votes([
            (PartyId(2), &votes),
            (PartyId(2), &votes),
            (PartyId(2), &votes),
        ]);
        // One distinct vote < t + 1, so grade 0 (and the hash resolves to
        // nothing anyway without echoes — either way Zero).
        assert_eq!(out[1].grade, Grade::Zero);
    }

    #[test]
    fn batch_bytes_beat_unbatched_by_2x_at_n1024() {
        // The acceptance-criterion ratio, computed from the same
        // `Payload::size_bytes` accounting the engine traces: per sender
        // and per batch, unbatched gradecast broadcasts n echoes + n
        // votes of 13 bytes each, the batched wire sends one echo batch
        // and one vote batch.
        let n = 1024usize;
        let unbatched_echo: usize = (0..n)
            .map(|l| GcMsg::Echo(PartyId(l), 7u64).size_bytes())
            .sum();
        let unbatched_vote: usize = (0..n)
            .map(|l| GcMsg::Vote(PartyId(l), 7u64).size_bytes())
            .sum();
        let echo_batch =
            GcBatchMsg::echoes(GcSlots::from_options((0..n).map(|_| Some(7u64)).collect()))
                .size_bytes();
        let vote_batch = GcBatchMsg::<u64>::votes(GcSlots::from_options(
            (0..n).map(|_| Some(7u64.hash32())).collect(),
        ))
        .size_bytes();
        let unbatched = unbatched_echo + unbatched_vote;
        let batched = echo_batch + vote_batch;
        assert!(
            unbatched >= 2 * batched,
            "expected ≥ 2x byte reduction, got {unbatched} vs {batched}"
        );
    }

    #[test]
    fn slot_sizes_account_bitmap_and_entries() {
        // 10 slots, 3 present u64 entries: 2 bitmap bytes + 3 × 8.
        let mut slots = vec![None; 10];
        slots[1] = Some(1u64);
        slots[4] = Some(2u64);
        slots[9] = Some(3u64);
        let msg = GcBatchMsg::echoes(GcSlots::from_options(slots));
        assert_eq!(msg.size_bytes(), 1 + 2 + 24);
    }

    #[test]
    fn hash32_is_stable_and_spread() {
        // Pin the mixer so recorded traces stay replayable: a silent
        // change to `hash32` would alter vote-batch contents.
        assert_eq!(0u64.hash32(), 0x5d7c_35e6);
        assert_eq!(1u64.hash32(), 0x3a1c_2af7);
        assert_ne!(1u64.hash32(), 2u64.hash32());
    }

    #[test]
    fn heap_values_count_their_real_size() {
        // A 100-byte string must contribute 100 bytes, not the 24-byte
        // shallow size of the `String` header.
        let v = "x".repeat(100);
        let lead: GcBatchMsg<String> = GcBatchMsg::Lead(v.clone());
        // `String` is sized as a `Payload` without being a `GcValue`; the
        // keys play no part in wire bytes.
        let slots = GcSlots::from_options(vec![None, Some(v), None]);
        let echoes: GcBatchMsg<String> = GcBatchMsg::Echoes(Arc::new(GcBatch::new(slots, |_| 0)));
        assert_eq!(lead.size_bytes(), 1 + 100);
        assert_eq!(echoes.size_bytes(), 1 + 1 + 100);
    }

    #[test]
    fn two_votes_at_t1_grade_one() {
        let n = 4; // t = 1: grade 1 needs 2 votes, grade 2 needs 3.
        let mut m = BatchGradecast::<u64>::new(PartyId(0), n, 1);
        // The voted value must be in the echo tally for its hash to
        // resolve.
        let echo = GcBatchMsg::echoes(GcSlots::single(n, 3, 7u64));
        let _ = m.on_echoes([(PartyId(1), &echo)]);
        let vote = GcBatchMsg::votes(GcSlots::single(n, 3, 7u64.hash32()));
        let out = m.on_votes([(PartyId(1), &vote), (PartyId(2), &vote)]);
        assert_eq!(out[3].grade, Grade::One);
        assert_eq!(out[3].value, Some(7));
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_too_many_faults() {
        let _ = BatchGradecast::<u64>::new(PartyId(0), 6, 2);
    }

    #[test]
    fn first_lead_wins() {
        let mut m = BatchGradecast::<u64>::new(PartyId(0), 4, 1);
        let (a, b) = (GcBatchMsg::Lead(5), GcBatchMsg::Lead(6));
        let echoes = m.on_leads([(PartyId(1), &a), (PartyId(1), &b)]);
        assert_eq!(echoes, GcBatchMsg::echoes(GcSlots::single(4, 1, 5)));
    }

    fn sim(n: usize, t: usize) -> SimConfig {
        SimConfig {
            n,
            t,
            max_rounds: 10,
        }
    }

    #[test]
    fn honest_run_three_communication_rounds() {
        let report = run_simulation(
            sim(4, 1),
            |id, n| BatchGradecastProtocol::new(id, n, 1, id.index() as u64),
            Passive,
        )
        .unwrap();
        assert_eq!(report.communication_rounds(), 3);
        for out in report.honest_outputs() {
            for (l, slot) in out.iter().enumerate() {
                assert_eq!(slot.grade, Grade::Two);
                assert_eq!(slot.value, Some(l as u64));
            }
        }
    }

    #[test]
    fn silent_byzantine_leader_grades_zero() {
        let adv = StaticByzantine {
            parties: vec![PartyId(0)],
            behave: |_: &mut AdversaryCtx<'_, GcBatchMsg<u64>>| {},
        };
        let report = run_simulation(
            sim(4, 1),
            |id, n| BatchGradecastProtocol::new(id, n, 1, id.index() as u64),
            adv,
        )
        .unwrap();
        for out in report.honest_outputs() {
            assert_eq!(out[0].grade, Grade::Zero);
            assert_eq!(out[0].value, None);
            for slot in &out[1..] {
                assert_eq!(slot.grade, Grade::Two);
            }
        }
    }

    #[test]
    fn equivocating_leader_cannot_bind_two_values() {
        // Leader 0 sends value 111 to parties 1..=3 and 222 to 4..7.
        let adv = StaticByzantine {
            parties: vec![PartyId(0)],
            behave: |ctx: &mut AdversaryCtx<'_, GcBatchMsg<u64>>| {
                if ctx.round() == 1 {
                    for i in 1..7 {
                        let v = if i <= 3 { 111 } else { 222 };
                        ctx.send(PartyId(0), PartyId(i), GcBatchMsg::Lead(v));
                    }
                }
            },
        };
        let report = run_simulation(
            sim(7, 2),
            |id, n| BatchGradecastProtocol::new(id, n, 2, id.index() as u64),
            adv,
        )
        .unwrap();
        // Binding: all honest grades >= 1 share one value; grades differ by
        // at most 1.
        let mut bound: Option<u64> = None;
        let mut grades = Vec::new();
        for out in &report.honest_outputs() {
            let slot = &out[0];
            grades.push(slot.grade.as_u8());
            if slot.accepted() {
                let v = slot.value.expect("accepted implies a value");
                assert_eq!(*bound.get_or_insert(v), v, "two values bound");
            }
        }
        let (min, max) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
        assert!(max - min <= 1, "grade gap violated: {grades:?}");
    }
}
