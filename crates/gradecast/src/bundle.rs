//! Bundled gradecast: one wire round shared by k in-flight AA instances.
//!
//! A production agreement service runs many approximate-agreement
//! instances concurrently. Running them as separate protocols multiplies
//! the per-round framing (and, over real sockets, the per-message
//! syscalls) by k. This module amortizes the substrate: each party
//! broadcasts **one** message per phase carrying a struct-of-arrays
//! vector over all k instances — an outer presence bitmap (absent slot =
//! instance already finished at that sender) whose entries are exactly
//! the per-instance [`GcBatchMsg`](crate::GcBatchMsg) bodies of the
//! batched wire, `Arc`-shared so inbox clones never copy the arrays.
//! Delivered bytes per round stay O(n²) of framing shared across all k
//! instances, plus the per-instance payload each instance would have
//! paid anyway.
//!
//! # One core, k lanes
//!
//! [`BundleGradecast`] is the crate's one tally core at `k` instances
//! (lane `j·n + ℓ` is leader `ℓ` of instance `j`);
//! [`BatchGradecast`](crate::BatchGradecast) is the same core at `k = 1`. A [`GcBundle`]
//! carries, beside its nested wire slots, one flat dense view — the key
//! and presence lanes of its present instances, back to back — built
//! once where it is assembled or decoded. A sender's bundle is absorbed by
//! one kernel sweep per run of consecutive instances (one sweep when all
//! are present) and the same per-slot rule on the leftovers, so instance
//! `j` ends with exactly the grades a standalone batch fed the same slots
//! would, and a Byzantine sender equivocating in one instance perturbs
//! only that instance's lanes. `crates/real-aa/tests/bundle_equiv.rs`
//! extends this to outcomes, trajectories and trace events.
//!
//! An absent *outer* slot means the sender had nothing to say for that
//! instance — as if it were silent in a standalone run, which is what
//! early-stopped instances need. Admission is per instance: a sender's
//! first slot in an instance is absorbed, a later one dropped alone.
//!
//! # Malformed bundles
//!
//! A bundle is `k` instances of `n` slots or nothing: one whose outer
//! width is not `k` (so also one naming an instance `≥ k`), or any of
//! whose present inner slots is not `n` wide, is dropped **whole**, like
//! a wrong-width batch, and claims no instance. An honest bundle from the
//! same sender is still absorbed after it.

use std::fmt;
use std::sync::Arc;

use sim_net::{PartyId, Payload};

use crate::arena::Arena;
use crate::batch::{GcSlots, GcValue};
use crate::grade::GradecastOutput;

/// A structurally invalid bundle request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BundleError {
    /// A bundle must carry at least one instance (k ≥ 1).
    Empty,
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Empty => write!(f, "bundle must carry at least one instance (k = 0)"),
        }
    }
}

impl std::error::Error for BundleError {}

/// One sender's echo or vote bundle as the bundled wire shares it: the
/// nested wire slots (outer over instances, inner over leaders) plus
/// their flat dense view (see the module docs). Built only through
/// [`GcBundleMsg::echoes`] / [`GcBundleMsg::votes`], so the view always
/// agrees with the slots; equality and `Debug` are the slots'.
#[derive(Clone, PartialEq, Eq)]
pub struct GcBundle<T> {
    slots: GcSlots<GcSlots<T>>,
    /// The width every present inner slot has; `None` when they differ
    /// or none is present (nothing to absorb either way).
    width: Option<usize>,
    /// The present instances' tally keys, back to back (0 where absent).
    keys: Box<[u64]>,
    /// The present instances' presence lanes, back to back.
    present: Box<[bool]>,
}

impl<T> GcBundle<T> {
    fn new(slots: GcSlots<GcSlots<T>>, key: impl Fn(&T) -> u64) -> Self {
        let widths = || slots.iter().map(|(_, inner)| inner.n());
        let width = widths().next().filter(|&w| widths().all(|x| x == w));
        let mut keys = Vec::with_capacity(widths().sum());
        let mut present = Vec::with_capacity(keys.capacity());
        for (_, inner) in slots.iter() {
            let at = keys.len();
            keys.resize(at + inner.n(), 0);
            present.extend_from_slice(&inner.present);
            for (l, entry) in inner.iter() {
                keys[at + l] = key(entry);
            }
        }
        GcBundle {
            slots,
            width,
            keys: keys.into(),
            present: present.into(),
        }
    }

    /// The wire-shaped slots.
    pub fn slots(&self) -> &GcSlots<GcSlots<T>> {
        &self.slots
    }
}

impl<T: fmt::Debug> fmt::Debug for GcBundle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.slots.fmt(f)
    }
}

/// A bundled gradecast message: one broadcast per sender per phase,
/// shared by all k instances. The outer [`GcSlots`] ranges over
/// instances (absent = the sender has finished that instance); inner
/// bodies are the per-instance batched wire of [`crate::batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcBundleMsg<V> {
    /// Round 3i+1: the sender's own lead value for each active instance.
    Leads(Arc<GcSlots<V>>),
    /// Round 3i+2: per active instance, the sender's echo slots over all
    /// n leaders.
    Echoes(Arc<GcBundle<V>>),
    /// Round 3i+3: per active instance, the sender's vote hashes.
    Votes(Arc<GcBundle<u32>>),
}

impl<V: GcValue> GcBundleMsg<V> {
    /// The echo bundle carrying `slots` (dense view built here, once).
    pub fn echoes(slots: GcSlots<GcSlots<V>>) -> Self {
        GcBundleMsg::Echoes(Arc::new(GcBundle::new(slots, GcValue::bits64)))
    }

    /// The vote bundle carrying `slots` (dense view built here, once).
    pub fn votes(slots: GcSlots<GcSlots<u32>>) -> Self {
        GcBundleMsg::Votes(Arc::new(GcBundle::new(slots, |&h| u64::from(h))))
    }
}

impl<V: Payload> Payload for GcBundleMsg<V> {
    fn size_bytes(&self) -> usize {
        // Tag byte + outer bitmap + nested per-instance bodies, sized
        // recursively with the same per-entry accounting as the batched
        // wire so trace byte totals reconcile across both formats.
        match self {
            GcBundleMsg::Leads(slots) => 1 + slots.wire_bytes_with(Payload::size_bytes),
            GcBundleMsg::Echoes(b) => {
                1 + b
                    .slots
                    .wire_bytes_with(|inner| inner.wire_bytes_with(Payload::size_bytes))
            }
            GcBundleMsg::Votes(b) => {
                1 + b
                    .slots
                    .wire_bytes_with(|inner| inner.wire_bytes_with(|_| 4))
            }
        }
    }
}

/// k parallel-gradecast batches driven by one bundled wire message per
/// phase: the crate's tally core at k instances.
///
/// Every phase takes `active[j]` per instance: finished instances get no
/// outer slot and no grades, exactly like a terminated standalone party.
/// Phases panic unless `active` (and `lead_msg`'s values) has length `k`.
#[derive(Clone, Debug)]
pub struct BundleGradecast<V> {
    pub(crate) arena: Arena<V>,
}

impl<V: GcValue> BundleGradecast<V> {
    /// Creates a bundle of `k` instances for party `me` out of `n` with
    /// corruption bound `t`, no leaders muted anywhere.
    ///
    /// # Errors
    ///
    /// [`BundleError::Empty`] if `k == 0`.
    ///
    /// # Panics
    ///
    /// As [`BatchGradecast::new`](crate::BatchGradecast::new): requires
    /// `n > 3t` and `me < n`.
    pub fn new(me: PartyId, n: usize, t: usize, k: usize) -> Result<Self, BundleError> {
        if k == 0 {
            return Err(BundleError::Empty);
        }
        Ok(BundleGradecast {
            arena: Arena::new(me, n, t, vec![false; k * n]),
        })
    }

    /// Number of bundled instances.
    pub fn k(&self) -> usize {
        self.arena.k
    }

    /// Starts the next round of batches in place: every tally emptied,
    /// every instance's muted set kept.
    pub fn reset(&mut self) {
        self.arena.reset();
    }

    /// Instance `inst`'s muted set; panics if `inst >= k`.
    pub fn muted(&self, inst: usize) -> &[bool] {
        self.arena.muted(inst)
    }

    /// Whether `bundle` is `k` instances of `n` slots (see the module
    /// docs on malformed bundles).
    fn shaped<T>(&self, bundle: &GcBundle<T>) -> bool {
        bundle.slots.n() == self.k() && bundle.width == Some(self.arena.n)
    }

    /// Phase 1: the bundled lead message — this party's own value per
    /// instance, `None` for instances it has finished.
    pub fn lead_msg(&self, values: Vec<Option<V>>) -> GcBundleMsg<V> {
        assert_eq!(values.len(), self.k(), "one lead slot per instance");
        GcBundleMsg::Leads(Arc::new(GcSlots::from_options(values)))
    }

    /// Phase 2: consume round-3i+1 lead bundles, return the echo bundle
    /// to broadcast.
    pub fn on_leads<'a, I>(&mut self, inbox: I, active: &[bool]) -> GcBundleMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBundleMsg<V>)>,
        V: 'a,
    {
        assert_eq!(active.len(), self.k(), "one active flag per instance");
        for (from, msg) in inbox {
            if let GcBundleMsg::Leads(slots) = msg {
                if slots.n() == self.k() {
                    for (inst, v) in slots.iter() {
                        self.arena.absorb_lead(inst, from, v);
                    }
                }
            }
        }
        let echoes = (0..self.k()).map(|j| active[j].then(|| self.arena.echo_slots(j)));
        GcBundleMsg::echoes(echoes.collect())
    }

    /// Phase 3: consume round-3i+2 echo bundles, return the vote bundle
    /// to broadcast.
    pub fn on_echoes<'a, I>(&mut self, inbox: I, active: &[bool]) -> GcBundleMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBundleMsg<V>)>,
        V: 'a,
    {
        assert_eq!(active.len(), self.k(), "one active flag per instance");
        for (from, msg) in inbox {
            if let GcBundleMsg::Echoes(b) = msg {
                if self.shaped(b) {
                    let insts = b.slots.iter().map(|(j, _)| j);
                    self.arena.echo.absorb(from, insts, &b.keys, &b.present);
                }
            }
        }
        let votes = (0..self.k()).map(|j| active[j].then(|| self.arena.vote_slots(j)));
        GcBundleMsg::votes(votes.collect())
    }

    /// Phase 4: consume round-3i+3 vote bundles and grade every leader
    /// of every active instance (`None` for inactive instances).
    pub fn on_votes<'a, I>(
        &mut self,
        inbox: I,
        active: &[bool],
    ) -> Vec<Option<Vec<GradecastOutput<V>>>>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBundleMsg<V>)>,
        V: 'a,
    {
        let mut out = vec![None; self.k()];
        self.on_votes_with(inbox, active, |j, grades, _| out[j] = Some(grades.to_vec()));
        out
    }

    /// [`BundleGradecast::on_votes`] without a vector per instance: calls
    /// `f(j, grades, muted)` for every active instance `j` in order, with
    /// its grades and its muted set, for the caller's muting rule.
    pub fn on_votes_with<'a, I, F>(&mut self, inbox: I, active: &[bool], mut f: F)
    where
        I: IntoIterator<Item = (PartyId, &'a GcBundleMsg<V>)>,
        V: 'a,
        F: FnMut(usize, &[GradecastOutput<V>], &mut [bool]),
    {
        assert_eq!(active.len(), self.k(), "one active flag per instance");
        for (from, msg) in inbox {
            if let GcBundleMsg::Votes(b) = msg {
                if self.shaped(b) {
                    let insts = b.slots.iter().map(|(j, _)| j);
                    self.arena.vote.absorb(from, insts, &b.keys, &b.present);
                }
            }
        }
        let mut grades = Vec::with_capacity(self.arena.n);
        for j in (0..self.k()).filter(|&j| active[j]) {
            self.arena.grade(j, &mut grades);
            f(j, &grades, self.arena.muted_mut(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchGradecast, GcBatchMsg};
    use crate::grade::Grade;
    use aa_codec::Json;

    /// One lockstep bundled run: every party leads `lead_of(party, inst)`
    /// in every instance (None = silent in that instance), all instances
    /// active throughout. Returns `outputs[party][inst][leader]`.
    fn run_bundled(
        n: usize,
        t: usize,
        k: usize,
        lead_of: impl Fn(usize, usize) -> Option<u64>,
        silent: &[bool],
        tamper_echoes: impl Fn(usize, GcBundleMsg<u64>) -> GcBundleMsg<u64>,
    ) -> Vec<Vec<Vec<GradecastOutput<u64>>>> {
        let active = vec![true; k];
        let mut ms: Vec<BundleGradecast<u64>> = (0..n)
            .map(|i| BundleGradecast::new(PartyId(i), n, t, k).unwrap())
            .collect();
        let leads: Vec<(PartyId, GcBundleMsg<u64>)> = (0..n)
            .map(|snd| {
                let values = (0..k).map(|j| lead_of(snd, j)).collect();
                (PartyId(snd), ms[snd].lead_msg(values))
            })
            .collect();
        let mut echoes: Vec<(PartyId, GcBundleMsg<u64>)> = Vec::new();
        for r in 0..n {
            let batch = ms[r].on_leads(leads.iter().map(|(p, m)| (*p, m)), &active);
            if !silent[r] {
                echoes.push((PartyId(r), tamper_echoes(r, batch)));
            }
        }
        let mut votes: Vec<(PartyId, GcBundleMsg<u64>)> = Vec::new();
        for r in 0..n {
            let batch = ms[r].on_echoes(echoes.iter().map(|(p, m)| (*p, m)), &active);
            if !silent[r] {
                votes.push((PartyId(r), batch));
            }
        }
        (0..n)
            .map(|r| {
                ms[r]
                    .on_votes(votes.iter().map(|(p, m)| (*p, m)), &active)
                    .into_iter()
                    .map(|o| o.expect("all instances active"))
                    .collect()
            })
            .collect()
    }

    /// The independent reference: one standalone [`BatchGradecast`] run
    /// per instance, same leads. Returns `outputs[party][inst][leader]`.
    fn run_independent(
        n: usize,
        t: usize,
        k: usize,
        lead_of: impl Fn(usize, usize) -> Option<u64>,
    ) -> Vec<Vec<Vec<GradecastOutput<u64>>>> {
        let mut out = vec![Vec::new(); n];
        for j in 0..k {
            let mut ms: Vec<BatchGradecast<u64>> = (0..n)
                .map(|i| BatchGradecast::new(PartyId(i), n, t))
                .collect();
            let leads: Vec<(PartyId, GcBatchMsg<u64>)> = (0..n)
                .filter_map(|snd| lead_of(snd, j).map(|v| (PartyId(snd), GcBatchMsg::Lead(v))))
                .collect();
            let echoes: Vec<(PartyId, GcBatchMsg<u64>)> = (0..n)
                .map(|r| {
                    let batch = ms[r].on_leads(leads.iter().map(|(p, m)| (*p, m)));
                    (PartyId(r), batch)
                })
                .collect();
            let votes: Vec<(PartyId, GcBatchMsg<u64>)> = (0..n)
                .map(|r| {
                    let batch = ms[r].on_echoes(echoes.iter().map(|(p, m)| (*p, m)));
                    (PartyId(r), batch)
                })
                .collect();
            for (r, m) in ms.iter_mut().enumerate() {
                out[r].push(m.on_votes(votes.iter().map(|(p, m)| (*p, m))));
            }
        }
        out
    }

    #[test]
    fn empty_bundle_is_a_typed_error() {
        assert_eq!(
            BundleGradecast::<u64>::new(PartyId(0), 4, 1, 0).unwrap_err(),
            BundleError::Empty
        );
        let msg = BundleError::Empty.to_string();
        assert!(msg.contains("k = 0"), "unhelpful error: {msg}");
    }

    #[test]
    fn bundled_equals_independent_per_instance() {
        let (n, t, k) = (7, 2, 3);
        // Instance 0 all honest, instance 1 has a silent leader, instance
        // 2 has distinct values everywhere.
        let lead_of = |snd: usize, j: usize| match j {
            1 if snd == 3 => None,
            _ => Some(1000 * j as u64 + snd as u64),
        };
        let bundled = run_bundled(n, t, k, lead_of, &vec![false; n], |_, m| m);
        let independent = run_independent(n, t, k, lead_of);
        assert_eq!(bundled, independent);
        for out in &bundled {
            assert_eq!(out[1][3].grade, Grade::Zero);
            assert_eq!(out[0][2].value, Some(2));
        }
    }

    #[test]
    fn byzantine_in_one_instance_corrupts_only_that_instance() {
        let (n, t, k) = (7, 2, 3);
        let lead_of = |snd: usize, j: usize| Some(1000 * j as u64 + snd as u64);
        // Parties 5 and 6 crash after leading, so every leader sits at
        // exactly n − t = 5 echoes — the margin where one Byzantine
        // echoer matters. Party 0 then tampers its echo bundle in
        // instance 1 only, fabricating a value for every leader: true
        // echo counts drop to 4, no party votes, and every grade in
        // instance 1 collapses to Zero. Instances 0 and 2 must stay
        // bit-identical to the untampered baseline at every party.
        let mut silent = vec![false; n];
        silent[5] = true;
        silent[6] = true;
        let tamper = |r: usize, m: GcBundleMsg<u64>| {
            if r != 0 {
                return m;
            }
            let GcBundleMsg::Echoes(outer) = &m else {
                panic!("phase 2 produces echoes")
            };
            let rewritten = (0..k)
                .map(|j| {
                    let inner = outer
                        .slots()
                        .iter()
                        .find(|(i, _)| *i == j)
                        .unwrap()
                        .1
                        .clone();
                    if j == 1 {
                        Some(GcSlots::from_options(vec![Some(0xbad); n]))
                    } else {
                        Some(inner)
                    }
                })
                .collect();
            GcBundleMsg::echoes(GcSlots::from_options(rewritten))
        };
        let tampered = run_bundled(n, t, k, lead_of, &silent, tamper);
        let honest = run_bundled(n, t, k, lead_of, &silent, |_, m| m);
        assert_ne!(tampered, honest, "tampering must be visible somewhere");
        for (party, (got, want)) in tampered.iter().zip(&honest).enumerate() {
            assert_eq!(got[0], want[0], "instance 0 perturbed at party {party}");
            assert_eq!(got[2], want[2], "instance 2 perturbed at party {party}");
            for slot in &got[1] {
                assert_eq!(slot.grade, Grade::Zero, "party {party}");
            }
            for slot in &want[1] {
                assert_eq!(slot.grade, Grade::Two, "party {party}");
            }
        }
    }

    #[test]
    fn bundle_bytes_amortize_outer_framing() {
        // k instances bundled: 1 tag + outer bitmap + k inner bodies.
        // Independent: k × (1 tag + inner body). The saving is the k−1
        // repeated tags minus the outer bitmap — small per message but
        // what matters is it never grows with n, and the engine pays one
        // delivery instead of k.
        let (n, k) = (64usize, 16usize);
        let inner = GcSlots::from_options((0..n).map(|l| Some(l as u64)).collect());
        let bundled =
            GcBundleMsg::echoes((0..k).map(|_| Some(inner.clone())).collect()).size_bytes();
        let independent = k * GcBatchMsg::echoes(inner.clone()).size_bytes();
        assert_eq!(
            bundled,
            1 + k.div_ceil(8) + k * inner.wire_bytes_with(|v| v.size_bytes())
        );
        assert!(bundled < independent);
    }

    /// Encodes slots as the canonical JSON the repro/trace tooling uses:
    /// a presence bitmap array plus dense entries.
    fn slots_to_json(slots: &GcSlots<u64>) -> Json {
        let present = (0..slots.n())
            .map(|i| Json::Bool(slots.is_present(i)))
            .collect();
        let entries = slots.iter().map(|(_, &v)| Json::int(v)).collect();
        Json::Obj(vec![
            ("present".into(), Json::Arr(present)),
            ("entries".into(), Json::Arr(entries)),
        ])
    }

    fn slots_from_json(v: &Json) -> GcSlots<u64> {
        let present = v.get("present").and_then(Json::as_arr).unwrap();
        let mut entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.as_u64().unwrap());
        let options = present
            .iter()
            .map(|p| matches!(p, Json::Bool(true)).then(|| entries.next().unwrap()))
            .collect();
        GcSlots::from_options(options)
    }

    #[test]
    fn partial_presence_bitmaps_roundtrip_through_aa_codec() {
        // encode → decode → encode identity for a ragged bitmap,
        // including the all-absent and all-present borders.
        for options in [
            vec![
                None,
                Some(7),
                None,
                None,
                Some(0),
                Some((1 << 53) - 1),
                None,
            ],
            vec![None; 9],
            (0..11).map(Some).collect::<Vec<_>>(),
        ] {
            let slots = GcSlots::from_options(options);
            let text = slots_to_json(&slots).to_string();
            let parsed = Json::parse(&text).unwrap();
            let decoded = slots_from_json(&parsed);
            assert_eq!(decoded, slots);
            assert_eq!(slots_to_json(&decoded).to_string(), text);
        }
    }
}
