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
//!   Resolution is exact when [`GcValue::bits64`] is injective and
//!   [`GcValue::hash32`] collision-free on the candidate set; a 32-bit
//!   collision between two tallied candidates degrades the argmax to
//!   collision-resistance (documented, not silent: the protocol still
//!   only ever outputs values some party echoed).
//!
//! # Absorbing a batch: sweep, then leftovers
//!
//! Every party folds n batches of n slots into its tallies in each echo
//! and vote round — the protocol's Θ(n²) local work. The tallies are
//! struct-of-arrays (per leader: the `u64` key of the first value seen,
//! its `u32` distinct-sender count), and a [`GcBatch`] carries, beside its
//! wire-shaped [`GcSlots`], the matching **dense view**: an n-wide `u64`
//! key vector ([`GcValue::bits64`] of an echo entry, the widened hash of
//! a vote entry, 0 where absent) next to the slots' byte-wide presence
//! lanes. The view is built once, where the batch is assembled, and rides
//! the `Arc` all n receivers share; it is not on the wire
//! ([`Payload::size_bytes`] reports bitmap + present entries only).
//!
//! Absorbing a batch is then one [`aa_kernels::tally_eq_u64`] sweep over
//! those arrays, whatever the presence pattern: it counts every present
//! slot whose key equals the leader's candidate and reports how many
//! present slots it could not count. Only when that is non-zero does the
//! **per-slot rule** run, on exactly those slots, in leader order: adopt
//! the first value seen for a leader as its candidate (count 1), count a
//! match, or send a divergent value — Byzantine equivocation — to a
//! `BTreeMap` overflow table. A count leaves 0 only by adoption and never
//! returns, so `cnt > 0 ⇔ the leader has a candidate`: no separate
//! candidate flags exist, and a present key 0 (`+0.0` has `bits64 == 0`)
//! over a still-zeroed candidate is adopted, not counted, because the
//! sweep skips count-0 lanes. Slots of one message belong to distinct
//! leaders, so sweep-then-leftovers leaves the tallies exactly as a single
//! per-slot pass would.
//!
//! Nested per-instance slots of the bundled wire ([`crate::bundle`],
//! n = 4 and 10⁴ of them per message) carry no dense view; their cores
//! apply the per-slot rule to every present slot
//! ([`BatchGradecast::absorb_echo_slots`]).
//!
//! A Byzantine sender gains nothing by repeating itself on an
//! authenticated channel: only the first batch per sender per phase is
//! absorbed.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sim_net::{PartyId, Payload};

use crate::grade::{Grade, GradecastOutput};

/// A value batched gradecast can tally in struct-of-arrays form.
///
/// `bits64` must be **injective** on the values a deployment actually
/// gradecasts: the batch tallies compare 64-bit keys, not values, so two
/// distinct values mapping to the same key would be merged. Both wire
/// types in this repository qualify exactly (`u64` is the identity,
/// `real-aa`'s `R64` uses the IEEE-754 bit pattern, injective on finite
/// reals).
pub trait GcValue: Clone + Ord + std::fmt::Debug {
    /// An injective 64-bit encoding of the value.
    fn bits64(&self) -> u64;

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
}

/// Wire bytes of an n-slot presence bitmap.
fn bitmap_bytes(n: usize) -> usize {
    n.div_ceil(8)
}

/// A struct-of-arrays view of per-leader slots: a presence bitmap plus
/// a dense vector of entries in leader order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcSlots<T> {
    present: Vec<bool>,
    entries: Vec<T>,
}

impl<T> GcSlots<T> {
    /// Builds slots from a per-leader option vector.
    pub fn from_options(slots: Vec<Option<T>>) -> Self {
        let mut present = Vec::with_capacity(slots.len());
        let mut entries = Vec::new();
        for slot in slots {
            present.push(slot.is_some());
            if let Some(v) = slot {
                entries.push(v);
            }
        }
        GcSlots { present, entries }
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
/// as a pure three-phase state machine.
///
/// The caller drives the phases in order, feeding each phase the messages
/// delivered for it and broadcasting the message each phase returns:
/// [`BatchGradecast::lead_msg`], [`BatchGradecast::on_leads`],
/// [`BatchGradecast::on_echoes`], then [`BatchGradecast::on_votes`] for
/// the final [`GradecastOutput`] per leader. Values are `Ord` so vote
/// tallies have a deterministic maximum.
#[derive(Clone, Debug)]
pub struct BatchGradecast<V> {
    me: PartyId,
    n: usize,
    t: usize,
    muted: Vec<bool>,
    /// Per leader: the lead value received (first lead wins).
    leads: Vec<Option<V>>,

    /// Per sender: whether an echo batch was already absorbed.
    echo_from: Vec<bool>,
    /// Per leader: `bits64` of the first value echoed for it (its
    /// candidate; meaningful only where `echo_cnt > 0`).
    echo_bits: Vec<u64>,
    /// Per leader: distinct-sender echo count for the candidate; 0 iff
    /// no echo for the leader was absorbed yet.
    echo_cnt: Vec<u32>,
    /// Per leader: the candidate value (`Some` iff `echo_cnt > 0`).
    echo_val: Vec<Option<V>>,
    /// Rare path: `(leader, bits64)` → (value, count) for second and
    /// further distinct values — only Byzantine equivocation lands here.
    echo_overflow: BTreeMap<(usize, u64), (V, u32)>,

    /// Per sender: whether a vote batch was already absorbed.
    vote_from: Vec<bool>,
    /// Per leader: the first vote hash seen, widened for the kernel
    /// (meaningful only where `vote_cnt > 0`).
    vote_bits: Vec<u64>,
    /// Per leader: distinct-sender vote count for the first hash; 0 iff
    /// no vote for the leader was absorbed yet.
    vote_cnt: Vec<u32>,
    /// Rare path: `(leader, hash)` → count for further distinct hashes.
    vote_overflow: BTreeMap<(usize, u32), u32>,
}

/// Whether a `width`-slot batch from `sender` is the one to absorb for
/// its phase — the first of the right width — marking it seen. A wrong
/// width, a repeat and an out-of-range sender (the engine and the MAC
/// layer only hand in ids < n; hand-driven cores may not) are dropped.
fn admit(seen: &mut [bool], sender: usize, width: usize) -> bool {
    if width != seen.len() {
        return false;
    }
    match seen.get_mut(sender) {
        Some(seen) if !*seen => {
            *seen = true;
            true
        }
        _ => false,
    }
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
        Self::with_muted(me, n, t, vec![false; n])
    }

    /// Creates a batch with an initial muted set (carried over between
    /// `RealAA` iterations).
    ///
    /// # Panics
    ///
    /// As [`BatchGradecast::new`]; additionally requires
    /// `muted.len() == n`.
    pub fn with_muted(me: PartyId, n: usize, t: usize, muted: Vec<bool>) -> Self {
        assert!(n > 3 * t, "gradecast requires n > 3t (n = {n}, t = {t})");
        assert!(me.index() < n, "party id out of range");
        assert_eq!(muted.len(), n, "muted set must cover all parties");
        BatchGradecast {
            me,
            n,
            t,
            muted,
            leads: vec![None; n],
            echo_from: vec![false; n],
            echo_bits: vec![0; n],
            echo_cnt: vec![0; n],
            echo_val: vec![None; n],
            echo_overflow: BTreeMap::new(),
            vote_from: vec![false; n],
            vote_bits: vec![0; n],
            vote_cnt: vec![0; n],
            vote_overflow: BTreeMap::new(),
        }
    }

    /// Resets every tally to the freshly-constructed state with a new
    /// muted set, reusing the existing buffers. Equivalent to
    /// `*self = BatchGradecast::with_muted(me, n, t, muted.to_vec())`
    /// without the nine heap allocations — how `RealAA` and a bundle of
    /// many instances recycle their cores every iteration.
    ///
    /// # Panics
    ///
    /// Panics unless `muted.len() == n`.
    pub fn reset_with_muted(&mut self, muted: &[bool]) {
        assert_eq!(muted.len(), self.n, "muted set must cover all parties");
        self.muted.copy_from_slice(muted);
        self.leads.fill(None);
        self.echo_from.fill(false);
        self.echo_bits.fill(0);
        self.echo_cnt.fill(0);
        self.echo_val.fill(None);
        self.echo_overflow.clear();
        self.vote_from.fill(false);
        self.vote_bits.fill(0);
        self.vote_cnt.fill(0);
        self.vote_overflow.clear();
    }

    /// This party's id.
    pub fn me(&self) -> PartyId {
        self.me
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Corruption bound.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Stops relaying for `leader`.
    pub fn mute(&mut self, leader: PartyId) {
        self.muted[leader.index()] = true;
    }

    /// Whether `leader` is muted here.
    pub fn is_muted(&self, leader: PartyId) -> bool {
        self.muted[leader.index()]
    }

    /// The muted set, for carrying into the next batch.
    pub fn muted(&self) -> &[bool] {
        &self.muted
    }

    /// Phase 1: the message this party broadcasts as leader of its own
    /// instance.
    pub fn lead_msg(&self, value: V) -> GcBatchMsg<V> {
        GcBatchMsg::Lead(value)
    }

    /// Phase 2: consume round-1 leads, return the echo batch to
    /// broadcast. Leads from muted leaders are ignored and get no slot.
    pub fn on_leads<'a, I>(&mut self, inbox: I) -> GcBatchMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            if let GcBatchMsg::Lead(v) = msg {
                self.absorb_lead(from, v);
            }
        }
        GcBatchMsg::echoes(self.echo_slots())
    }

    /// Absorbs one round-1 lead from `from` (first lead per leader wins;
    /// muted and out-of-range leaders are ignored). The absorb half of
    /// [`BatchGradecast::on_leads`], public so the bundled wire in
    /// [`crate::bundle`] can feed many instances from one message.
    pub fn absorb_lead(&mut self, from: PartyId, v: &V) {
        let leader = from.index();
        if leader < self.n && !self.muted[leader] && self.leads[leader].is_none() {
            self.leads[leader] = Some(v.clone());
        }
    }

    /// The echo slots this party would broadcast after absorbing leads:
    /// the produce half of [`BatchGradecast::on_leads`].
    pub fn echo_slots(&self) -> GcSlots<V> {
        let mut present = Vec::with_capacity(self.n);
        let mut entries = Vec::with_capacity(self.n);
        for lead in &self.leads {
            present.push(lead.is_some());
            if let Some(v) = lead {
                entries.push(v.clone());
            }
        }
        GcSlots { present, entries }
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
                self.absorb_echo_batch(from, batch);
            }
        }
        GcBatchMsg::votes(self.vote_slots())
    }

    /// The vote slots this party would broadcast after absorbing echoes:
    /// the produce half of [`BatchGradecast::on_echoes`].
    pub fn vote_slots(&self) -> GcSlots<u32> {
        let mut present = Vec::with_capacity(self.n);
        let mut entries = Vec::with_capacity(self.n);
        for l in 0..self.n {
            if self.muted[l] {
                present.push(false);
                continue;
            }
            // At most one value can reach n − t distinct echoes (two
            // would need 2(n − t) > n senders), so checking the first
            // candidate then the overflow table is order-independent.
            let vote = if self.echo_cnt[l] as usize >= self.n - self.t {
                Some(
                    self.echo_val[l]
                        .as_ref()
                        .expect("counted implies value")
                        .hash32(),
                )
            } else {
                self.echo_overflow
                    .range((l, 0)..=(l, u64::MAX))
                    .find(|(_, (_, c))| *c as usize >= self.n - self.t)
                    .map(|(_, (v, _))| v.hash32())
            };
            present.push(vote.is_some());
            if let Some(h) = vote {
                entries.push(h);
            }
        }
        GcSlots { present, entries }
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
                self.absorb_vote_batch(from, batch);
            }
        }
        self.grade_all()
    }

    /// Grades every leader: the produce half of
    /// [`BatchGradecast::on_votes`].
    pub fn grade_all(&self) -> Vec<GradecastOutput<V>> {
        (0..self.n).map(|l| self.grade_leader(l)).collect()
    }

    /// [`BatchGradecast::grade_all`] into a caller-owned buffer
    /// (cleared first), so a bundle grading many instances per round
    /// allocates nothing.
    pub fn grade_into(&self, out: &mut Vec<GradecastOutput<V>>) {
        out.clear();
        out.extend((0..self.n).map(|l| self.grade_leader(l)));
    }

    /// Folds one sender's echo batch into the per-leader tallies: one
    /// kernel sweep over the batch's dense view, then the per-slot rule
    /// on the slots the sweep reports uncounted (see the module docs).
    fn absorb_echo_batch(&mut self, sender: PartyId, batch: &GcBatch<V>) {
        if !admit(&mut self.echo_from, sender.index(), batch.slots.n()) {
            return;
        }
        let mut uncounted = aa_kernels::tally_eq_u64(
            &batch.keys,
            &batch.slots.present,
            &self.echo_bits,
            &mut self.echo_cnt,
        );
        for (l, v) in batch.slots.iter() {
            if uncounted == 0 {
                break;
            }
            // The sweep counted exactly the slots with a candidate that
            // matches; a counted slot fails both tests.
            if self.echo_cnt[l] == 0 || self.echo_bits[l] != batch.keys[l] {
                self.tally_echo(l, batch.keys[l], v);
                uncounted -= 1;
            }
        }
    }

    /// Folds one sender's echo slots into the per-leader tallies slot by
    /// slot — the absorb path of the bundled wire's nested slots, which
    /// carry no dense view. Wrong-width slots, an out-of-range sender and
    /// duplicates from the same sender are ignored.
    pub fn absorb_echo_slots(&mut self, sender: PartyId, slots: &GcSlots<V>) {
        if admit(&mut self.echo_from, sender.index(), slots.n()) {
            for (l, v) in slots.iter() {
                self.tally_echo(l, v.bits64(), v);
            }
        }
    }

    /// The per-slot echo rule: the first value seen for `leader` becomes
    /// its candidate, a match is counted, a divergent value goes to the
    /// overflow table.
    fn tally_echo(&mut self, leader: usize, bits: u64, v: &V) {
        if self.echo_cnt[leader] == 0 {
            self.echo_bits[leader] = bits;
            self.echo_cnt[leader] = 1;
            self.echo_val[leader] = Some(v.clone());
        } else if self.echo_bits[leader] == bits {
            self.echo_cnt[leader] += 1;
        } else {
            self.echo_overflow
                .entry((leader, bits))
                .or_insert_with(|| (v.clone(), 0))
                .1 += 1;
        }
    }

    /// Folds one sender's vote batch into the per-leader hash tallies,
    /// mirroring [`BatchGradecast::absorb_echo_batch`].
    fn absorb_vote_batch(&mut self, sender: PartyId, batch: &GcBatch<u32>) {
        if !admit(&mut self.vote_from, sender.index(), batch.slots.n()) {
            return;
        }
        let mut uncounted = aa_kernels::tally_eq_u64(
            &batch.keys,
            &batch.slots.present,
            &self.vote_bits,
            &mut self.vote_cnt,
        );
        for (l, &h) in batch.slots.iter() {
            if uncounted == 0 {
                break;
            }
            if self.vote_cnt[l] == 0 || self.vote_bits[l] != u64::from(h) {
                self.tally_vote(l, h);
                uncounted -= 1;
            }
        }
    }

    /// Folds one sender's vote slots into the per-leader hash tallies
    /// slot by slot, mirroring [`BatchGradecast::absorb_echo_slots`].
    pub fn absorb_vote_slots(&mut self, sender: PartyId, slots: &GcSlots<u32>) {
        if admit(&mut self.vote_from, sender.index(), slots.n()) {
            for (l, &h) in slots.iter() {
                self.tally_vote(l, h);
            }
        }
    }

    /// The per-slot vote rule, mirroring [`BatchGradecast::tally_echo`].
    fn tally_vote(&mut self, leader: usize, hash: u32) {
        if self.vote_cnt[leader] == 0 {
            self.vote_bits[leader] = u64::from(hash);
            self.vote_cnt[leader] = 1;
        } else if self.vote_bits[leader] == u64::from(hash) {
            self.vote_cnt[leader] += 1;
        } else {
            *self.vote_overflow.entry((leader, hash)).or_insert(0) += 1;
        }
    }

    /// Resolves a vote hash for `leader` to the value it binds: among
    /// the echo-tallied candidates matching the hash, the one with the
    /// highest echo count (smallest value on ties — deterministic, and
    /// the > t-echo dominance argument in the module docs makes the
    /// count tie unreachable for grade-relevant keys).
    fn resolve_hash(&self, leader: usize, hash: u32) -> Option<(V, u32)> {
        let mut best: Option<(V, u32)> = None;
        let cand = self.echo_val[leader]
            .clone()
            .map(|v| (v, self.echo_cnt[leader]));
        let overflow = self
            .echo_overflow
            .range((leader, 0)..=(leader, u64::MAX))
            .map(|(_, (v, c))| (v.clone(), *c));
        for (v, c) in cand.into_iter().chain(overflow) {
            if v.hash32() != hash {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bv, bc)) => c > *bc || (c == *bc && v < *bv),
            };
            if better {
                best = Some((v, c));
            }
        }
        best
    }

    /// Grades `leader` from its resolved vote tally: grade 2 at `n − t`
    /// votes, grade 1 at `t + 1`, grade 0 otherwise.
    fn grade_leader(&self, leader: usize) -> GradecastOutput<V> {
        // Gather (hash, count) pairs, resolve each to a value, then take
        // the deterministic argmax (max count, smallest value on ties).
        // Unresolvable hashes carry ≤ t votes (see module docs) and
        // cannot influence the outcome, so dropping them is exact.
        let first = (self.vote_cnt[leader] > 0)
            .then(|| (self.vote_bits[leader] as u32, self.vote_cnt[leader]));
        let overflow = self
            .vote_overflow
            .range((leader, 0)..=(leader, u32::MAX))
            .map(|(&(_, h), &c)| (h, c));
        let mut best: Option<(V, u32)> = None;
        for (hash, count) in first.into_iter().chain(overflow) {
            let Some((value, _)) = self.resolve_hash(leader, hash) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((bv, bc)) => count > *bc || (count == *bc && value < *bv),
            };
            if better {
                best = Some((value, count));
            }
        }
        match best {
            Some((v, c)) if c as usize >= self.n - self.t => GradecastOutput {
                value: Some(v),
                grade: Grade::Two,
            },
            Some((v, c)) if c as usize > self.t => GradecastOutput {
                value: Some(v),
                grade: Grade::One,
            },
            _ => GradecastOutput {
                value: None,
                grade: Grade::Zero,
            },
        }
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
        self.gc.mute(leader);
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

    /// The tallies as the per-slot loop kept them before the dense view
    /// existed — explicit candidate flags, one three-way branch per present
    /// slot, no kernel — with its vote and grade rules, verbatim. The
    /// sweep-then-leftovers path must leave exactly this state.
    mod model {
        use std::collections::BTreeMap;

        use super::super::{GcSlots, GcValue};
        use crate::grade::{Grade, GradecastOutput};

        pub struct PerSlotTallies {
            pub n: usize,
            pub t: usize,
            pub muted: Vec<bool>,
            pub echo_from: Vec<bool>,
            pub echo_set: Vec<bool>,
            pub echo_bits: Vec<u64>,
            pub echo_cnt: Vec<u32>,
            pub echo_val: Vec<Option<u64>>,
            pub echo_overflow: BTreeMap<(usize, u64), (u64, u32)>,
            pub vote_from: Vec<bool>,
            pub vote_set: Vec<bool>,
            pub vote_bits: Vec<u64>,
            pub vote_cnt: Vec<u32>,
            pub vote_overflow: BTreeMap<(usize, u32), u32>,
        }

        impl PerSlotTallies {
            pub fn new(n: usize, t: usize, muted: Vec<bool>) -> Self {
                PerSlotTallies {
                    n,
                    t,
                    muted,
                    echo_from: vec![false; n],
                    echo_set: vec![false; n],
                    echo_bits: vec![0; n],
                    echo_cnt: vec![0; n],
                    echo_val: vec![None; n],
                    echo_overflow: BTreeMap::new(),
                    vote_from: vec![false; n],
                    vote_set: vec![false; n],
                    vote_bits: vec![0; n],
                    vote_cnt: vec![0; n],
                    vote_overflow: BTreeMap::new(),
                }
            }

            pub fn absorb_echoes(&mut self, sender: usize, slots: &GcSlots<u64>) {
                if slots.n() != self.n || self.echo_from[sender] {
                    return;
                }
                self.echo_from[sender] = true;
                for (l, v) in slots.iter() {
                    let bits = v.bits64();
                    if !self.echo_set[l] {
                        self.echo_set[l] = true;
                        self.echo_bits[l] = bits;
                        self.echo_cnt[l] = 1;
                        self.echo_val[l] = Some(*v);
                    } else if self.echo_bits[l] == bits {
                        self.echo_cnt[l] += 1;
                    } else {
                        self.echo_overflow
                            .entry((l, v.bits64()))
                            .or_insert_with(|| (*v, 0))
                            .1 += 1;
                    }
                }
            }

            pub fn absorb_votes(&mut self, sender: usize, slots: &GcSlots<u32>) {
                if slots.n() != self.n || self.vote_from[sender] {
                    return;
                }
                self.vote_from[sender] = true;
                for (l, &h) in slots.iter() {
                    if !self.vote_set[l] {
                        self.vote_set[l] = true;
                        self.vote_bits[l] = u64::from(h);
                        self.vote_cnt[l] = 1;
                    } else if self.vote_bits[l] == u64::from(h) {
                        self.vote_cnt[l] += 1;
                    } else {
                        *self.vote_overflow.entry((l, h)).or_insert(0) += 1;
                    }
                }
            }

            pub fn vote_slots(&self) -> GcSlots<u32> {
                let votes = (0..self.n).map(|l| {
                    if self.muted[l] {
                        None
                    } else if self.echo_set[l] && self.echo_cnt[l] as usize >= self.n - self.t {
                        Some(self.echo_val[l].expect("set implies value").hash32())
                    } else {
                        self.echo_overflow
                            .range((l, 0)..=(l, u64::MAX))
                            .find(|(_, (_, c))| *c as usize >= self.n - self.t)
                            .map(|(_, (v, _))| v.hash32())
                    }
                });
                GcSlots::from_options(votes.collect())
            }

            fn resolve_hash(&self, leader: usize, hash: u32) -> Option<(u64, u32)> {
                let mut best: Option<(u64, u32)> = None;
                let cand = self.echo_set[leader].then(|| {
                    (
                        self.echo_val[leader].expect("set implies value"),
                        self.echo_cnt[leader],
                    )
                });
                let overflow = self
                    .echo_overflow
                    .range((leader, 0)..=(leader, u64::MAX))
                    .map(|(_, (v, c))| (*v, *c));
                for (v, c) in cand.into_iter().chain(overflow) {
                    if v.hash32() != hash {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some((bv, bc)) => c > *bc || (c == *bc && v < *bv),
                    };
                    if better {
                        best = Some((v, c));
                    }
                }
                best
            }

            pub fn grade_all(&self) -> Vec<GradecastOutput<u64>> {
                (0..self.n).map(|l| self.grade_leader(l)).collect()
            }

            fn grade_leader(&self, leader: usize) -> GradecastOutput<u64> {
                let first = self.vote_set[leader]
                    .then(|| (self.vote_bits[leader] as u32, self.vote_cnt[leader]));
                let overflow = self
                    .vote_overflow
                    .range((leader, 0)..=(leader, u32::MAX))
                    .map(|(&(_, h), &c)| (h, c));
                let mut best: Option<(u64, u32)> = None;
                for (hash, count) in first.into_iter().chain(overflow) {
                    let Some((value, _)) = self.resolve_hash(leader, hash) else {
                        continue;
                    };
                    let better = match &best {
                        None => true,
                        Some((bv, bc)) => count > *bc || (count == *bc && value < *bv),
                    };
                    if better {
                        best = Some((value, count));
                    }
                }
                match best {
                    Some((v, c)) if c as usize >= self.n - self.t => GradecastOutput {
                        value: Some(v),
                        grade: Grade::Two,
                    },
                    Some((v, c)) if c as usize > self.t => GradecastOutput {
                        value: Some(v),
                        grade: Grade::One,
                    },
                    _ => GradecastOutput {
                        value: None,
                        grade: Grade::Zero,
                    },
                }
            }
        }
    }

    use model::PerSlotTallies;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Asserts that `core`'s tallies and everything derived from them
    /// equal the per-slot model's.
    fn assert_matches_model(core: &BatchGradecast<u64>, model: &PerSlotTallies, at: &str) {
        for l in 0..model.n {
            assert_eq!(
                core.echo_cnt[l] > 0,
                model.echo_set[l],
                "{at}: echo set {l}"
            );
            assert_eq!(
                core.vote_cnt[l] > 0,
                model.vote_set[l],
                "{at}: vote set {l}"
            );
            if model.echo_set[l] {
                assert_eq!(core.echo_bits[l], model.echo_bits[l], "{at}: echo key {l}");
            }
            if model.vote_set[l] {
                assert_eq!(core.vote_bits[l], model.vote_bits[l], "{at}: vote key {l}");
            }
        }
        assert_eq!(core.echo_cnt, model.echo_cnt, "{at}: echo counts");
        assert_eq!(core.echo_val, model.echo_val, "{at}: echo values");
        assert_eq!(
            core.echo_overflow, model.echo_overflow,
            "{at}: echo overflow"
        );
        assert_eq!(core.vote_cnt, model.vote_cnt, "{at}: vote counts");
        assert_eq!(
            core.vote_overflow, model.vote_overflow,
            "{at}: vote overflow"
        );
        assert_eq!(core.vote_slots(), model.vote_slots(), "{at}: vote slots");
        assert_eq!(core.grade_all(), model.grade_all(), "{at}: grades");
    }

    /// One random batch of `width` slots — partial, single-slot, full or
    /// equivocating — that never names the last leader.
    fn random_batch<T>(
        rng: &mut ChaCha8Rng,
        width: usize,
        honest: impl Fn(usize) -> T,
        stray: impl Fn(&mut ChaCha8Rng) -> T,
    ) -> GcSlots<T> {
        let shape = rng.gen_range(0u8..5);
        let single = rng.gen_range(0..width);
        let options = (0..width).map(|l| {
            let present = match shape {
                0 => rng.gen_bool(0.7),
                1 => l == single,
                _ => true,
            };
            let entry = if shape == 4 && rng.gen_bool(0.3) {
                stray(rng)
            } else {
                honest(l)
            };
            (present && l + 1 < width).then_some(entry)
        });
        GcSlots::from_options(options.collect())
    }

    /// A seeded `(sender, slots)` sequence for one phase. The opening
    /// batch speaks for leader 1 alone (the caller makes its entry the
    /// key-0 one); then random batches, a sixth of them of the wrong
    /// width, from repeating senders (all but a sender's first are
    /// dropped); only the closing batch, from the one sender kept fresh,
    /// names the last leader.
    fn random_sequence<T>(
        rng: &mut ChaCha8Rng,
        n: usize,
        honest: impl Fn(usize) -> T + Copy,
        stray: impl Fn(&mut ChaCha8Rng) -> T + Copy,
    ) -> Vec<(usize, GcSlots<T>)> {
        let mut seq = vec![(2 % n, GcSlots::single(n, 1, honest(1)))];
        for _ in 0..2 * n.min(40) {
            let width = match rng.gen_range(0u8..12) {
                0 => n - 1,
                1 => n + 1,
                _ => n,
            };
            let sender = rng.gen_range(0..n - 1);
            seq.push((sender, random_batch(rng, width, honest, stray)));
        }
        seq.push((n - 1, GcSlots::single(n, n - 1, honest(n - 1))));
        seq
    }

    /// Runs one seeded echo sequence and one vote sequence through the
    /// dense path (`on_echoes` / `on_votes`), the per-slot path
    /// (`absorb_*_slots`) and the model, comparing after every prefix;
    /// returns the model for coverage checks.
    fn run_prefixes(n: usize, seed: u64) -> PerSlotTallies {
        let t = (n - 1) / 3;
        let mut rng = ChaCha8Rng::seed_from_u64(seed << 16 | n as u64);
        let muted: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
        let mut dense = BatchGradecast::<u64>::with_muted(PartyId(0), n, t, muted.clone());
        let mut per_slot = dense.clone();
        let mut model = PerSlotTallies::new(n, t, muted);
        // Leader 1's honest value and vote hash are 0 — the initial
        // content of the zeroed candidate arrays — and its first batch
        // finds it without a candidate: the sweep must leave that slot to
        // the rule, which adopts it.
        let honest = |l: usize| if l == 1 { 0 } else { 1000 + l as u64 };
        let honest_hash = |l: usize| if l == 1 { 0 } else { honest(l).hash32() };
        const STRAYS: [u64; 4] = [0, 1, u64::MAX, 1 << 32];
        let stray = |rng: &mut ChaCha8Rng| STRAYS[rng.gen_range(0..STRAYS.len())];
        let stray_hash = |rng: &mut ChaCha8Rng| match rng.gen_range(0u8..4) {
            0 => 0,
            1 => u32::MAX,
            _ => stray(rng).hash32(),
        };

        let echoes = random_sequence(&mut rng, n, honest, stray);
        for (i, (sender, slots)) in echoes.iter().enumerate() {
            let msg = GcBatchMsg::echoes(slots.clone());
            dense.on_echoes([(PartyId(*sender), &msg)]);
            per_slot.absorb_echo_slots(PartyId(*sender), slots);
            model.absorb_echoes(*sender, slots);
            assert_matches_model(&dense, &model, &format!("n {n} dense echo {i}"));
            assert_matches_model(&per_slot, &model, &format!("n {n} per-slot echo {i}"));
        }
        let votes = random_sequence(&mut rng, n, honest_hash, stray_hash);
        for (i, (sender, slots)) in votes.iter().enumerate() {
            let msg = GcBatchMsg::<u64>::votes(slots.clone());
            dense.on_votes([(PartyId(*sender), &msg)]);
            per_slot.absorb_vote_slots(PartyId(*sender), slots);
            model.absorb_votes(*sender, slots);
            assert_matches_model(&dense, &model, &format!("n {n} dense vote {i}"));
            assert_matches_model(&per_slot, &model, &format!("n {n} per-slot vote {i}"));
        }
        model
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

    /// Sweep-then-leftovers (and the per-slot path the bundle's cores
    /// take) against the per-slot model after every prefix of seeded
    /// random sequences of partial, single-slot, full, equivocating,
    /// duplicate-sender and wrong-width batches, at widths on both sides
    /// of a multiple of the SIMD step.
    #[test]
    fn dense_and_per_slot_paths_match_the_model_after_every_prefix() {
        for n in [4usize, 7, 16, 31, 64, 67, 256] {
            // (an echo counted, an echo diverged, a vote diverged): over
            // the seeds the sequences reach every branch of the rule.
            let mut reached = (false, false, false);
            for seed in 0..(512 / n as u64).clamp(2, 8) {
                let model = run_prefixes(n, seed);
                assert!(model.echo_set[1] && model.echo_bits[1] == 0, "key 0");
                assert!(model.vote_set[1] && model.vote_bits[1] == 0, "hash 0");
                assert_eq!(model.echo_cnt[n - 1], 1, "last leader echoed last");
                assert_eq!(model.vote_cnt[n - 1], 1, "last leader voted last");
                reached.0 |= model.echo_cnt.iter().any(|&c| c > 1);
                reached.1 |= !model.echo_overflow.is_empty();
                reached.2 |= !model.vote_overflow.is_empty();
            }
            assert_eq!(reached, (true, true, true), "n {n}");
        }
    }

    /// Hand-driven cores (the bundle, `aa-check`, tests) may pass any
    /// `PartyId`: a sender outside `0..n` is dropped like a wrong-width
    /// batch, in every phase and on both absorb paths.
    #[test]
    fn out_of_range_senders_are_ignored() {
        let n = 4;
        let mut m = BatchGradecast::<u64>::new(PartyId(0), n, 1);
        let untouched = format!("{m:?}");
        for from in [PartyId(n), PartyId(usize::MAX)] {
            let lead = GcBatchMsg::Lead(5u64);
            let echo_slots = GcSlots::from_options(vec![Some(5u64); n]);
            let vote_slots = GcSlots::from_options(vec![Some(5u64.hash32()); n]);
            m.absorb_lead(from, &5);
            m.absorb_echo_slots(from, &echo_slots);
            m.absorb_vote_slots(from, &vote_slots);
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
            .map(|i| BatchGradecast::with_muted(PartyId(i), s.n, s.t, s.muted.clone()))
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
