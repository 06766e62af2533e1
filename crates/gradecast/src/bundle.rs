//! Bundled gradecast: one wire round shared by k in-flight AA instances.
//!
//! A production agreement service runs many approximate-agreement
//! instances concurrently. Running them as separate protocols multiplies
//! the per-round framing (and, over real sockets, the per-message
//! syscalls) by k. This module amortizes the substrate: each party
//! broadcasts **one** message per phase carrying a struct-of-arrays
//! vector over all k instances — an outer presence bitmap (absent slot =
//! instance already finished at that sender) whose present instances
//! carry the per-instance wire of [`crate::batch`], `Arc`-shared so inbox
//! clones never copy the arrays. Delivered bytes per round stay O(n²) of
//! framing shared across all k instances, plus the per-instance payload
//! each instance would have paid anyway. This is the crate's only wire: a
//! single instance is `k = 1`.
//!
//! # One core, k lanes
//!
//! [`BundleGradecast`] is the crate's one tally core at `k` instances
//! (lane `j·n + ℓ` is leader `ℓ` of instance `j`). A lead is one
//! `Arc<[Option<V>]>`, one entry per instance. A [`GcBundle`] — an echo
//! or a vote — is the outer presence, each present instance's width, and
//! the presence and key lanes of its present instances, back to back:
//! what the arena writes, the codec carries and the tally reads, with no
//! nested slots in between. A sender's bundle is absorbed by one kernel
//! sweep per run of consecutive instances (a phase's first sender by one
//! bulk adopt) and the same per-slot rule on the leftovers; votes and
//! grades are one dense pass over the candidates, the general rule re-run
//! only on lanes with overflow entries. So instance `j` ends with exactly
//! the grades a `k = 1` bundle fed the same slots would, and a Byzantine
//! sender equivocating in one instance perturbs (and slows) only that
//! instance's lanes. `crates/real-aa/tests/bundle_equiv.rs`
//! extends this to outcomes, trajectories and trace events.
//!
//! An absent *outer* slot means the sender had nothing to say for that
//! instance — as if it were silent in a standalone run, which is what
//! early-stopped instances need. Admission is per instance: a sender's
//! first slot in an instance is absorbed, a later one dropped alone.
//!
//! # Malformed bundles
//!
//! A bundle is `k` instances of `n` slots or nothing: a lead whose width
//! is not `k` is ignored, and an echo or vote whose outer width is not
//! `k` (so also one naming an instance `≥ k`), or any of whose present
//! inner slots is not `n` wide, is dropped **whole** and claims no
//! instance. An honest bundle from the same sender is still absorbed
//! after it.

use std::fmt;
use std::sync::Arc;

use sim_net::{PartyId, Payload};

use crate::arena::Arena;
use crate::batch::{bitmap_bytes, GcBatch, GcValue};
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

/// One sender's echo or vote bundle: the outer presence over instances
/// (absent = finished at the sender), each present instance's width, and
/// their lanes back to back. Mixed widths are representable, so a
/// malformed bundle survives decoding and is dropped whole on absorption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcBundle<T> {
    outer: Vec<bool>,
    widths: Vec<usize>,
    lanes: GcBatch<T>,
    /// Wire bytes after the tag: the outer bitmap, one bitmap per present
    /// instance and one `size_of::<T>()` entry per present lane. Counted
    /// where the lanes are built, so a delivery reads it in O(1); a
    /// function of the fields above, so equality is unchanged by it.
    wire: usize,
}

/// Wire bytes of one `T` entry: a `GcValue` is fixed-width on the wire
/// (8 for `R64` and `u64`, 4 for a vote hash).
fn entry_bytes<T>() -> usize {
    std::mem::size_of::<T>()
}

impl<T: GcValue> GcBundle<T> {
    /// Instances present per `outer`, of `widths`, their lanes unwritten
    /// (so far no entry on the wire).
    fn new(outer: Vec<bool>, widths: Vec<usize>) -> Self {
        let lanes = GcBatch::with_capacity(widths.iter().sum());
        let bitmaps: usize = widths.iter().map(|&w| bitmap_bytes(w)).sum();
        GcBundle {
            wire: bitmap_bytes(outer.len()) + bitmaps,
            outer,
            widths,
            lanes,
        }
    }

    /// A bundle from its lanes, as a decoder has them; `None` unless the
    /// present instances' widths sum to the lanes and absent keys are 0.
    pub fn from_lanes(
        outer: Vec<bool>,
        widths: Vec<usize>,
        present: Vec<bool>,
        keys: Vec<u64>,
    ) -> Option<Self> {
        // One pass over the widths for their sum and their bitmaps, one
        // over the lanes for the key rule and the present count.
        let (lanes, bitmaps) = widths
            .iter()
            .try_fold((0usize, 0usize), |(sum, bitmaps), &w| {
                Some((sum.checked_add(w)?, bitmaps + bitmap_bytes(w)))
            })?;
        if widths.len() != outer.iter().filter(|&&p| p).count()
            || lanes != present.len()
            || keys.len() != present.len()
        {
            return None;
        }
        let entries = present
            .iter()
            .zip(&keys)
            .try_fold(0usize, |n, (&p, &key)| {
                (p || key == 0).then_some(n + usize::from(p))
            })?;
        Some(GcBundle {
            wire: bitmap_bytes(outer.len()) + bitmaps + entries * entry_bytes::<T>(),
            outer,
            widths,
            lanes: GcBatch::new(present, keys),
        })
    }

    /// `base` (or a bundle one instance wide; if present there, instance 0
    /// must be `n` wide) with instance 0 present and `entries` written
    /// over its `n` slots: how an adversary speaks for instance 0.
    pub fn with_first(
        base: Option<&Self>,
        n: usize,
        entries: impl IntoIterator<Item = (usize, T)>,
    ) -> Self {
        let mut b = base
            .cloned()
            .unwrap_or_else(|| GcBundle::new(vec![false], vec![]));
        if !std::mem::replace(&mut b.outer[0], true) {
            b.widths.insert(0, n);
            b.lanes.present.splice(0..0, std::iter::repeat_n(false, n));
            b.lanes.keys.splice(0..0, std::iter::repeat_n(0, n));
            b.wire += bitmap_bytes(n);
        }
        for (l, entry) in entries {
            assert!(l < n, "slot {l} outside the {n} leaders");
            if !std::mem::replace(&mut b.lanes.present[l], true) {
                b.wire += entry_bytes::<T>();
            }
            b.lanes.keys[l] = entry.bits64();
        }
        b
    }

    /// Per instance: its presence and key lanes, `None` where absent.
    pub fn instances(&self) -> impl ExactSizeIterator<Item = Option<(&[bool], &[u64])>> {
        let (mut at, mut widths) = (0, self.widths.iter());
        self.outer.iter().map(move |&p| {
            let lanes = at..at + if p { *widths.next()? } else { 0 };
            at = lanes.end;
            p.then(|| (&self.lanes.present[lanes.clone()], &self.lanes.keys[lanes]))
        })
    }

    fn present_instances(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.outer.len()).filter(|&j| self.outer[j])
    }
}

/// A gradecast message: one broadcast per sender per phase, shared by all
/// k instances. The outer presence ranges over instances (absent = the
/// sender has finished that instance); each present instance carries the
/// per-instance wire of [`crate::batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcBundleMsg<V> {
    /// Round 3i+1: the sender's own lead value per instance, `None` for
    /// the instances it has finished.
    Leads(Arc<[Option<V>]>),
    /// Round 3i+2: per active instance, the sender's echo slots over all
    /// n leaders.
    Echoes(Arc<GcBundle<V>>),
    /// Round 3i+3: per active instance, the sender's vote hashes.
    Votes(Arc<GcBundle<u32>>),
}

impl<V: GcValue + Payload> Payload for GcBundleMsg<V> {
    fn size_bytes(&self) -> usize {
        // Tag byte + outer bitmap + per-instance bodies, as the wire
        // carries them, so trace byte accounting reconciles.
        match self {
            GcBundleMsg::Leads(leads) => {
                let entries = leads.iter().flatten().map(Payload::size_bytes);
                1 + bitmap_bytes(leads.len()) + entries.sum::<usize>()
            }
            GcBundleMsg::Echoes(b) => 1 + b.wire,
            GcBundleMsg::Votes(b) => 1 + b.wire,
        }
    }
}

/// k parallel-gradecast instances driven by one wire message per phase:
/// the crate's tally core at k instances.
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
    /// Panics unless `n > 3t` and `me < n` — gradecast's guarantees need
    /// `t < n/3`, and constructing it outside that regime is a bug.
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

    /// Starts the next iteration in place: every tally emptied, every
    /// instance's muted set kept.
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
        bundle.outer.len() == self.k() && bundle.widths.iter().all(|&w| w == self.arena.n)
    }

    /// The `active` instances, `n` wide, written from the arena by
    /// `write`, which returns how many present lanes it wrote.
    fn written<T: GcValue>(
        &self,
        active: &[bool],
        write: impl Fn(&Arena<V>, usize, &mut GcBatch<T>) -> usize,
    ) -> Arc<GcBundle<T>> {
        let widths = vec![self.arena.n; active.iter().filter(|&&a| a).count()];
        let mut bundle = GcBundle::new(active.to_vec(), widths);
        for j in (0..active.len()).filter(|&j| active[j]) {
            bundle.wire += write(&self.arena, j, &mut bundle.lanes) * entry_bytes::<T>();
        }
        Arc::new(bundle)
    }

    /// Phase 1: the lead message — this party's own value per instance,
    /// `None` for instances it has finished.
    pub fn lead_msg(&self, values: Arc<[Option<V>]>) -> GcBundleMsg<V> {
        assert_eq!(values.len(), self.k(), "one lead slot per instance");
        GcBundleMsg::Leads(values)
    }

    /// Phase 2: consume round-3i+1 leads, return the echo bundle to
    /// broadcast. The first lead per leader wins; leads from muted or
    /// out-of-range leaders are ignored and get no slot.
    pub fn on_leads<'a, I>(&mut self, inbox: I, active: &[bool]) -> GcBundleMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBundleMsg<V>)>,
        V: 'a,
    {
        assert_eq!(active.len(), self.k(), "one active flag per instance");
        for (from, msg) in inbox {
            if let GcBundleMsg::Leads(leads) = msg {
                if leads.len() == self.k() {
                    for (inst, v) in leads.iter().enumerate() {
                        if let Some(v) = v {
                            self.arena.absorb_lead(inst, from, v);
                        }
                    }
                }
            }
        }
        GcBundleMsg::Echoes(self.written(active, Arena::push_echoes))
    }

    /// Phase 3: consume round-3i+2 echo bundles, return the vote bundle
    /// to broadcast. A vote slot for leader `ℓ` is present iff `n − t`
    /// distinct parties echoed one value for `ℓ` and `ℓ` is not muted.
    pub fn on_echoes<'a, I>(&mut self, inbox: I, active: &[bool]) -> GcBundleMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBundleMsg<V>)>,
        V: 'a,
    {
        assert_eq!(active.len(), self.k(), "one active flag per instance");
        for (from, msg) in inbox {
            if let GcBundleMsg::Echoes(b) = msg {
                if self.shaped(b) {
                    self.arena
                        .echo
                        .absorb(from, b.present_instances(), &b.lanes);
                }
            }
        }
        GcBundleMsg::Votes(self.written(active, Arena::push_votes))
    }

    /// Phase 4: consume round-3i+3 vote bundles and grade every leader
    /// of every active instance (`None` for inactive instances), muted
    /// ones too — muting suppresses *relaying*, not *evaluation*.
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
                    self.arena
                        .vote
                        .absorb(from, b.present_instances(), &b.lanes);
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
    use crate::grade::Grade;
    use crate::support::nested;
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

    /// The independent reference: one standalone `k = 1` run per
    /// instance, same leads. Returns `outputs[party][inst][leader]`.
    fn run_independent(
        n: usize,
        t: usize,
        k: usize,
        lead_of: impl Fn(usize, usize) -> Option<u64>,
    ) -> Vec<Vec<Vec<GradecastOutput<u64>>>> {
        let mut out = vec![Vec::new(); n];
        for j in 0..k {
            let lead_of = |snd: usize, _: usize| lead_of(snd, j);
            for (r, grades) in run_bundled(n, t, 1, lead_of, &vec![false; n], |_, m| m)
                .into_iter()
                .enumerate()
            {
                out[r].extend(grades);
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
    fn from_lanes_wants_the_lanes_of_the_present_widths() {
        let lanes = |outer: &[bool], widths: &[usize], present: &[bool], keys: &[u64]| {
            let (outer, widths) = (outer.to_vec(), widths.to_vec());
            GcBundle::<u64>::from_lanes(outer, widths, present.to_vec(), keys.to_vec())
        };
        let (outer, present, keys) = ([true, false, true], [true, false, false], [7, 0, 0]);
        let bundle = lanes(&outer, &[2, 1], &present, &keys).expect("well formed");
        let instances: Vec<_> = bundle.instances().collect();
        let want = [
            Some((&present[..2], &keys[..2])),
            None,
            Some((&present[2..], &keys[2..])),
        ];
        assert_eq!(instances, want);
        // Fewer and more widths than present instances.
        assert_eq!(lanes(&outer, &[3], &present, &keys), None);
        assert_eq!(lanes(&outer, &[1, 1, 1], &present, &keys), None);
        // Widths that do not sum to the lanes, or overflow doing so.
        assert_eq!(lanes(&outer, &[1, 1], &present, &keys), None);
        assert_eq!(lanes(&outer, &[usize::MAX, 4], &present, &keys), None);
        // Key and presence lanes of different lengths.
        assert_eq!(lanes(&outer, &[2, 1], &present, &[7, 0]), None);
        assert_eq!(lanes(&outer, &[2, 1], &present, &[7, 0, 0, 0]), None);
        // A nonzero key in an absent lane.
        assert_eq!(lanes(&outer, &[2, 1], &present, &[7, 0, 5]), None);
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
            let GcBundleMsg::Echoes(honest) = &m else {
                panic!("phase 2 produces echoes")
            };
            let rewritten: Vec<_> = (0..k)
                .map(|j| {
                    let (present, keys) = honest.instances().nth(j).unwrap().unwrap();
                    let inner = present.iter().zip(keys).map(|(&p, &key)| match j {
                        1 => Some(0xbad),
                        _ => p.then_some(key),
                    });
                    Some(inner.collect())
                })
                .collect();
            GcBundleMsg::Echoes(Arc::new(nested(&rewritten)))
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
        let echoes = |k: usize| {
            let inner: Vec<_> = (0..n).map(|l| Some(l as u64)).collect();
            GcBundleMsg::Echoes(Arc::new(nested(&vec![Some(inner); k]))).size_bytes()
        };
        let (bundled, independent) = (echoes(k), k * echoes(1));
        assert_eq!(bundled, 1 + k.div_ceil(8) + k * (n.div_ceil(8) + 8 * n));
        assert!(bundled < independent);
    }

    /// Encodes slots as the canonical JSON the repro/trace tooling uses:
    /// a presence bitmap array plus dense entries.
    fn slots_to_json(slots: &[Option<u64>]) -> Json {
        let present = slots.iter().map(|s| Json::Bool(s.is_some())).collect();
        let entries = slots.iter().flatten().map(|&v| Json::int(v)).collect();
        Json::Obj(vec![
            ("present".into(), Json::Arr(present)),
            ("entries".into(), Json::Arr(entries)),
        ])
    }

    fn slots_from_json(v: &Json) -> Arc<[Option<u64>]> {
        let present = v.get("present").and_then(Json::as_arr).unwrap();
        let mut entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.as_u64().unwrap());
        present
            .iter()
            .map(|p| matches!(p, Json::Bool(true)).then(|| entries.next().unwrap()))
            .collect()
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
            let slots: Arc<[Option<u64>]> = options.into();
            let text = slots_to_json(&slots).to_string();
            let parsed = Json::parse(&text).unwrap();
            let decoded = slots_from_json(&parsed);
            assert_eq!(decoded, slots);
            assert_eq!(slots_to_json(&decoded).to_string(), text);
        }
    }
}
