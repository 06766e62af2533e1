//! The one tally core: `k` instances × `n` leaders of parallel gradecast
//! in instance-major struct-of-arrays lanes (lane `j·n + ℓ` is leader `ℓ`
//! of instance `j`), allocated once per party and reset in place each
//! iteration; [`BundleGradecast`](crate::BundleGradecast) drives it. It
//! writes echo and vote messages as presence and key lanes and
//! [`Tally::absorb`] reads them in that form (see the [`crate::batch`]
//! module docs for the rule).
//!
//! The honest case is dense. A fresh tally adopts its first sender whole
//! (the **bulk adopt**: keys into `bits`, presence into `cnt`, the
//! per-slot rule over counts of 0). Vote writing and grading read each
//! lane's candidate directly (the **dense pass**), then re-run the general
//! rule on the instance's lanes with overflow entries (the **overflow
//! patch**, one map range per tally). A lane without them has only its
//! candidate, where both rules agree; a Byzantine instance slows no other.

use std::collections::BTreeMap;
use std::ops::Range;

use sim_net::PartyId;

use crate::batch::{GcBatch, GcValue};
use crate::grade::{Grade, GradecastOutput};

/// One phase's tallies (echoes or votes) over the arena's lanes. Keys are
/// [`GcValue::bits64`] for echoes and the widened hash for votes.
#[derive(Clone, Debug)]
pub(crate) struct Tally {
    n: usize,
    /// Whether no instance was absorbed since the last reset: every count
    /// is 0, so the next sender is adopted whole.
    fresh: bool,
    /// Per (instance, sender): whether that sender's lanes were absorbed.
    from: Vec<bool>,
    /// Per lane: the key of the first entry absorbed — the candidate,
    /// meaningful only where `cnt > 0`.
    bits: Vec<u64>,
    /// Per lane: how many distinct senders sent the candidate; 0 iff no
    /// entry for the lane was absorbed yet.
    cnt: Vec<u32>,
    /// Rare path: `(lane, key)` → count of a further distinct key. Only
    /// Byzantine equivocation lands here.
    overflow: BTreeMap<(usize, u64), u32>,
}

impl Tally {
    fn new(n: usize, lanes: usize) -> Self {
        Tally {
            n,
            fresh: true,
            from: vec![false; lanes],
            bits: vec![0; lanes],
            cnt: vec![0; lanes],
            overflow: BTreeMap::new(),
        }
    }

    /// Empties the tallies. Candidates need no clearing: a count of 0
    /// marks them unset.
    fn reset(&mut self) {
        self.fresh = true;
        self.from.fill(false);
        self.cnt.fill(0);
        self.overflow.clear();
    }

    /// Folds in one sender's message: `insts` are the instances it
    /// carries, in increasing order, and `msg` their `n` lanes each, back
    /// to back. An instance the sender already spoke in is skipped; the
    /// rest are absorbed by one kernel sweep per run of consecutive
    /// instances, then the per-slot rule on the lanes the sweep reports
    /// uncounted — or, by a fresh tally, one bulk adopt per run. An
    /// out-of-range sender is dropped.
    pub(crate) fn absorb<T>(
        &mut self,
        from: PartyId,
        insts: impl IntoIterator<Item = usize>,
        msg: &GcBatch<T>,
    ) {
        let (n, sender) = (self.n, from.index());
        if sender >= n {
            return;
        }
        // The current run: its first arena lane, first message lane, length.
        let (mut lane, mut at, mut len) = (0, 0, 0);
        for (i, j) in insts.into_iter().enumerate() {
            if std::mem::replace(&mut self.from[j * n + sender], true) {
                continue;
            }
            if lane + len != j * n {
                self.sweep(lane..lane + len, at, msg);
                (lane, at, len) = (j * n, i * n, 0);
            }
            len += n;
        }
        self.sweep(lane..lane + len, at, msg);
        // The last run is empty iff no instance was absorbed.
        self.fresh &= len == 0;
    }

    /// Sweep, then leftovers, over arena `lanes` against the message lanes
    /// from `at` on; a bulk adopt if the tally is fresh.
    fn sweep<T>(&mut self, lanes: Range<usize>, at: usize, msg: &GcBatch<T>) {
        let view = at..at + lanes.len();
        let (keys, present) = (&msg.keys[view.clone()], &msg.present[view]);
        if self.fresh {
            // The per-slot rule over counts of 0: adopt every present key.
            self.bits[lanes.clone()].copy_from_slice(keys);
            for (c, &p) in self.cnt[lanes].iter_mut().zip(present) {
                *c = u32::from(p);
            }
            return;
        }
        let mut uncounted = aa_kernels::tally_eq_u64(
            keys,
            present,
            &self.bits[lanes.clone()],
            &mut self.cnt[lanes.clone()],
        );
        for (i, lane) in lanes.enumerate() {
            if uncounted == 0 {
                break;
            }
            // The sweep counted exactly the present lanes whose candidate
            // matches; a counted lane fails both tests.
            if present[i] && (self.cnt[lane] == 0 || self.bits[lane] != keys[i]) {
                self.tally(lane, keys[i]);
                uncounted -= 1;
            }
        }
    }

    /// The per-slot rule: the first key seen for a lane becomes its
    /// candidate, a match is counted, a divergent key goes to the
    /// overflow table.
    fn tally(&mut self, lane: usize, key: u64) {
        if self.cnt[lane] == 0 {
            self.bits[lane] = key;
            self.cnt[lane] = 1;
        } else if self.bits[lane] == key {
            self.cnt[lane] += 1;
        } else {
            *self.overflow.entry((lane, key)).or_insert(0) += 1;
        }
    }

    /// A lane's `(key, count)` pairs: the candidate, then the overflow in
    /// key order.
    fn entries(&self, lane: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        let first = (self.cnt[lane] > 0).then(|| (self.bits[lane], self.cnt[lane]));
        let overflow = self.overflow.range((lane, 0)..=(lane, u64::MAX));
        first
            .into_iter()
            .chain(overflow.map(|(&(_, key), &c)| (key, c)))
    }

    /// The lanes in `lanes` with overflow entries, in order, one item per
    /// entry.
    fn overflowed(&self, lanes: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let entries = self.overflow.range((lanes.start, 0)..(lanes.end, 0));
        entries.map(|(&(lane, _), _)| lane)
    }
}

/// Whether `(v, c)` beats the running argmax `top`: more count, or the
/// same count and a smaller value.
fn beats<V: Ord>(top: &Option<(V, u32)>, v: &V, c: u32) -> bool {
    match top {
        None => true,
        Some((tv, tc)) => c > *tc || (c == *tc && v < tv),
    }
}

/// `k × n` lanes of parallel gradecast: leads, echo and vote tallies, and
/// the muted sets, which outlive [`Arena::reset`].
#[derive(Clone, Debug)]
pub(crate) struct Arena<V> {
    pub(crate) n: usize,
    t: usize,
    pub(crate) k: usize,
    muted: Vec<bool>,
    /// Per lane: the lead received (first lead wins) — the echo lanes.
    leads: GcBatch<V>,
    /// Per instance: how many leads it absorbed, its echo bundle's
    /// present lanes.
    led: Vec<usize>,
    pub(crate) echo: Tally,
    pub(crate) vote: Tally,
}

impl<V: GcValue> Arena<V> {
    /// An arena for party `me` with one `n`-wide muted set per instance,
    /// back to back (`k = muted.len() / n`).
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `me < n` — gradecast's guarantees need
    /// `t < n/3`, and constructing it outside that regime is a bug.
    pub(crate) fn new(me: PartyId, n: usize, t: usize, muted: Vec<bool>) -> Self {
        assert!(n > 3 * t, "gradecast requires n > 3t (n = {n}, t = {t})");
        assert!(me.index() < n, "party id out of range");
        let lanes = muted.len();
        Arena {
            n,
            t,
            k: lanes / n,
            muted,
            leads: GcBatch::new(vec![false; lanes], vec![0; lanes]),
            led: vec![0; lanes / n],
            echo: Tally::new(n, lanes),
            vote: Tally::new(n, lanes),
        }
    }

    /// Starts the next iteration: empties every tally, keeps the muted
    /// sets.
    pub(crate) fn reset(&mut self) {
        self.leads.present.fill(false);
        self.leads.keys.fill(0);
        self.led.fill(0);
        self.echo.reset();
        self.vote.reset();
    }

    fn lanes(&self, inst: usize) -> Range<usize> {
        inst * self.n..(inst + 1) * self.n
    }

    /// Instance `inst`'s muted set.
    pub(crate) fn muted(&self, inst: usize) -> &[bool] {
        &self.muted[self.lanes(inst)]
    }

    pub(crate) fn muted_mut(&mut self, inst: usize) -> &mut [bool] {
        let lanes = self.lanes(inst);
        &mut self.muted[lanes]
    }

    /// Absorbs `from`'s lead in instance `inst`: the first lead per leader
    /// wins; muted and out-of-range leaders are ignored.
    pub(crate) fn absorb_lead(&mut self, inst: usize, from: PartyId, v: &V) {
        if from.index() < self.n {
            let lane = inst * self.n + from.index();
            if !self.muted[lane] && !self.leads.present[lane] {
                self.leads.present[lane] = true;
                self.leads.keys[lane] = v.bits64();
                self.led[inst] += 1;
            }
        }
    }

    /// Appends instance `inst`'s echo lanes, the leads absorbed, to `out`;
    /// returns how many are present.
    pub(crate) fn push_echoes(&self, inst: usize, out: &mut GcBatch<V>) -> usize {
        let lanes = self.lanes(inst);
        out.present
            .extend_from_slice(&self.leads.present[lanes.clone()]);
        out.keys.extend_from_slice(&self.leads.keys[lanes]);
        self.led[inst]
    }

    /// Appends instance `inst`'s vote lanes to `out`: a vote for leader
    /// `ℓ` iff `n − t` distinct parties echoed one value for `ℓ` and `ℓ`
    /// is not muted. Dense from the echo candidates, then the overflow
    /// patch. Returns how many votes it appended.
    pub(crate) fn push_votes(&self, inst: usize, out: &mut GcBatch<u32>) -> usize {
        let (lanes, at) = (self.lanes(inst), out.keys.len());
        let need = (self.n - self.t) as u32;
        let mut votes = 0;
        for lane in lanes.clone() {
            let vote = self.echo.cnt[lane] >= need && !self.muted[lane];
            votes += usize::from(vote);
            out.present.push(vote);
            let hash = || V::from_bits64(self.echo.bits[lane]).hash32();
            out.keys.push(if vote { u64::from(hash()) } else { 0 });
        }
        // At most one value can reach `n − t` echoes (two would need
        // `2(n − t) > n` senders), so the first one found is the one.
        for lane in self.echo.overflowed(lanes.clone()) {
            let echoed = || self.echo.entries(lane).find(|&(_, c)| c >= need);
            let vote = (!self.muted[lane]).then(echoed).flatten();
            let vote = vote.map(|(key, _)| V::from_bits64(key).hash32());
            let i = at + lane - lanes.start;
            votes = votes + usize::from(vote.is_some()) - usize::from(out.present[i]);
            (out.present[i], out.keys[i]) = (vote.is_some(), vote.map_or(0, u64::from));
        }
        votes
    }

    /// Grades every leader of instance `inst` into `out` (cleared first),
    /// muted ones too: muting suppresses relaying, not evaluation.
    ///
    /// A vote hash resolves to the echo candidate with that hash and the
    /// most echoes (smallest value on ties); the leader's value is the
    /// resolved hash with the most votes (smallest value on ties) — grade
    /// 2 at `n − t` votes, 1 at `t + 1`, 0 otherwise. Unresolvable hashes
    /// carry ≤ t votes (see the [`crate::batch`] docs) and cannot change
    /// the outcome, so dropping them is exact. Dense from the vote and
    /// echo candidates, then the overflow patch.
    pub(crate) fn grade(&self, inst: usize, out: &mut Vec<GradecastOutput<V>>) {
        out.clear();
        let lanes = self.lanes(inst);
        out.extend(lanes.clone().map(|lane| {
            let (c, echoed) = (self.vote.cnt[lane], self.echo.cnt[lane] > 0);
            let v = (c > 0 && echoed).then(|| V::from_bits64(self.echo.bits[lane]));
            let v = v.filter(|v| u64::from(v.hash32()) == self.vote.bits[lane]);
            self.graded(v.map(|v| (v, c)))
        }));
        let patch = self.echo.overflowed(lanes.clone());
        for lane in patch.chain(self.vote.overflowed(lanes.clone())) {
            out[lane - lanes.start] = self.grade_lane(lane);
        }
    }

    /// The general grading rule for `lane`.
    fn grade_lane(&self, lane: usize) -> GradecastOutput<V> {
        let mut top = None;
        for (hash, c) in self.vote.entries(lane) {
            if let Some(v) = self.resolve(lane, hash) {
                if beats(&top, &v, c) {
                    top = Some((v, c));
                }
            }
        }
        self.graded(top)
    }

    /// A leader's grade from its top `(value, votes)`, if it has one.
    fn graded(&self, top: Option<(V, u32)>) -> GradecastOutput<V> {
        match top {
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

    /// The echo candidate of `lane` a vote `hash` binds: the one with that
    /// hash and the most echoes (smallest value on ties).
    fn resolve(&self, lane: usize, hash: u64) -> Option<V> {
        let mut top = None;
        for (key, c) in self.echo.entries(lane) {
            let v = V::from_bits64(key);
            if u64::from(v.hash32()) == hash && beats(&top, &v, c) {
                top = Some((v, c));
            }
        }
        top.map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{GcBundle, GcBundleMsg};
    use crate::support::nested;
    use crate::BundleGradecast;
    use std::sync::Arc;
    /// The tallies as the per-slot loop kept them before the dense view
    /// existed — explicit candidate flags, one three-way branch per present
    /// slot, no kernel — with its vote and grade rules, verbatim. The
    /// sweep-then-leftovers path must leave exactly this state.
    mod model {
        use std::collections::BTreeMap;

        use crate::batch::GcValue;
        use crate::grade::{Grade, GradecastOutput};

        /// `(leader, entry)` over the present slots, in leader order.
        fn present<T>(slots: &[Option<T>]) -> impl Iterator<Item = (usize, &T)> {
            slots
                .iter()
                .enumerate()
                .filter_map(|(l, e)| Some((l, e.as_ref()?)))
        }

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

            pub fn absorb_echoes(&mut self, sender: usize, slots: &[Option<u64>]) {
                if sender >= self.n || slots.len() != self.n || self.echo_from[sender] {
                    return;
                }
                self.echo_from[sender] = true;
                for (l, v) in present(slots) {
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

            pub fn absorb_votes(&mut self, sender: usize, slots: &[Option<u32>]) {
                if sender >= self.n || slots.len() != self.n || self.vote_from[sender] {
                    return;
                }
                self.vote_from[sender] = true;
                for (l, &h) in present(slots) {
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

            pub fn vote_slots(&self) -> Vec<Option<u32>> {
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
                votes.collect()
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
    fn assert_matches_model(core: &Arena<u64>, model: &PerSlotTallies, at: &str) {
        for (tally, set, bits, cnt) in [
            (
                &core.echo,
                &model.echo_set,
                &model.echo_bits,
                &model.echo_cnt,
            ),
            (
                &core.vote,
                &model.vote_set,
                &model.vote_bits,
                &model.vote_cnt,
            ),
        ] {
            assert_eq!(&tally.cnt, cnt, "{at}: counts");
            for l in 0..model.n {
                assert_eq!(tally.cnt[l] > 0, set[l], "{at}: set {l}");
                if set[l] {
                    assert_eq!(tally.bits[l], bits[l], "{at}: key {l}");
                }
            }
        }
        let echo_overflow = model.echo_overflow.iter().map(|(&k, &(_, c))| (k, c));
        let vote_overflow = model
            .vote_overflow
            .iter()
            .map(|(&(l, h), &c)| ((l, u64::from(h)), c));
        assert!(
            core.echo.overflow.clone().into_iter().eq(echo_overflow),
            "{at}: echo overflow"
        );
        assert!(
            core.vote.overflow.clone().into_iter().eq(vote_overflow),
            "{at}: vote overflow"
        );
        let mut votes = GcBatch::with_capacity(model.n);
        let voted = core.push_votes(0, &mut votes);
        let slots = model.vote_slots();
        assert_eq!(voted, slots.iter().flatten().count(), "{at}: votes counted");
        let present = slots.iter().map(Option::is_some).collect();
        let keys = slots.iter().map(|v| v.map_or(0, u64::from)).collect();
        assert_eq!(votes, GcBatch::new(present, keys), "{at}: vote lanes");
        let mut grades = Vec::new();
        core.grade(0, &mut grades);
        assert_eq!(grades, model.grade_all(), "{at}: grades");
    }

    /// One random batch of `width` slots — partial, single-slot, full or
    /// equivocating — that never names the last leader.
    fn random_batch<T>(
        rng: &mut ChaCha8Rng,
        width: usize,
        honest: impl Fn(usize) -> T,
        stray: impl Fn(&mut ChaCha8Rng) -> T,
    ) -> Vec<Option<T>> {
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
        options.collect()
    }

    /// `n` slots with only `slot` present.
    fn single<T>(n: usize, slot: usize, entry: T) -> Vec<Option<T>> {
        let mut entry = Some(entry);
        (0..n)
            .map(|l| if l == slot { entry.take() } else { None })
            .collect()
    }

    /// A seeded `(sender, slots)` sequence for one phase. The opening
    /// batch speaks for leader 1 alone (the caller makes its entry the
    /// key-0 one); then random batches, a sixth of them of the wrong
    /// width and a sixteenth from a sender out of range, from repeating
    /// senders (all but a sender's first are dropped); only the closing
    /// batch, from the one sender kept fresh, names the last leader.
    fn random_sequence<T>(
        rng: &mut ChaCha8Rng,
        n: usize,
        honest: impl Fn(usize) -> T + Copy,
        stray: impl Fn(&mut ChaCha8Rng) -> T + Copy,
    ) -> Vec<(usize, Vec<Option<T>>)> {
        let mut seq = vec![(2 % n, single(n, 1, honest(1)))];
        for _ in 0..2 * n.min(40) {
            let width = match rng.gen_range(0u8..12) {
                0 => n - 1,
                1 => n + 1,
                _ => n,
            };
            let sender = match rng.gen_range(0u8..16) {
                0 => n,
                _ => rng.gen_range(0..n - 1),
            };
            seq.push((sender, random_batch(rng, width, honest, stray)));
        }
        seq.push((n - 1, single(n, n - 1, honest(n - 1))));
        seq
    }

    /// The `k`-wide bundle with only instance `j` present, carrying `inner`.
    fn only<T: GcValue>(k: usize, j: usize, inner: &[Option<T>]) -> GcBundle<T> {
        nested(&single(k, j, inner.to_vec()))
    }

    /// The `k`-wide bundle with every instance but `j` carrying the full
    /// `n`-wide slots `entry(leader)`.
    fn all_but<T: GcValue>(
        k: usize,
        j: usize,
        n: usize,
        entry: impl Fn(usize) -> T,
    ) -> GcBundle<T> {
        let slots: Vec<_> = (0..k)
            .map(|i| (i != j).then(|| (0..n).map(|l| Some(entry(l))).collect()))
            .collect();
        nested(&slots)
    }

    /// A bundle at `k` with instance `j` fed one phase's Byzantine
    /// pattern, after every sender's honest bundle for the other
    /// instances; its `(vote lanes, grades)` for instance `j` must equal
    /// the `k = 1` bundle's after every prefix, and the other instances
    /// must grade every leader 2.
    struct WireUnderTest {
        k: usize,
        j: usize,
        gc: BundleGradecast<u64>,
    }

    impl WireUnderTest {
        fn new(n: usize, t: usize, k: usize, j: usize, muted: &[bool]) -> Self {
            let mut gc = BundleGradecast::new(PartyId(0), n, t, k).unwrap();
            gc.arena.muted_mut(j).copy_from_slice(muted);
            let background = GcBundleMsg::Echoes(Arc::new(all_but(k, j, n, |l| 1000 + l as u64)));
            let _ = gc.on_echoes((0..n).map(|s| (PartyId(s), &background)), &vec![true; k]);
            WireUnderTest { k, j, gc }
        }

        fn echo(&mut self, sender: usize, slots: &[Option<u64>]) -> GcBatch<u32> {
            let msg = GcBundleMsg::Echoes(Arc::new(only(self.k, self.j, slots)));
            let votes = self
                .gc
                .on_echoes([(PartyId(sender), &msg)], &vec![true; self.k]);
            let GcBundleMsg::Votes(votes) = votes else {
                panic!("phase 3 votes")
            };
            let (present, keys) = votes.instances().nth(self.j).unwrap().unwrap();
            GcBatch::new(present.to_vec(), keys.to_vec())
        }

        fn start_votes(&mut self, n: usize) {
            let hashes = all_but(self.k, self.j, n, |l| (1000 + l as u64).hash32());
            let background = GcBundleMsg::Votes(Arc::new(hashes));
            let _ = self.gc.on_votes(
                (0..n).map(|s| (PartyId(s), &background)),
                &vec![true; self.k],
            );
        }

        fn vote(&mut self, sender: usize, slots: &[Option<u32>]) -> Vec<GradecastOutput<u64>> {
            let msg = GcBundleMsg::Votes(Arc::new(only(self.k, self.j, slots)));
            let mut grades = self
                .gc
                .on_votes([(PartyId(sender), &msg)], &vec![true; self.k]);
            for (i, g) in grades.iter().enumerate().filter(|&(i, _)| i != self.j) {
                let g = g.as_ref().unwrap();
                assert!(
                    g.iter().all(|o| o.grade == Grade::Two),
                    "instance {i} disturbed"
                );
            }
            grades.swap_remove(self.j).unwrap()
        }
    }

    /// Runs one seeded echo sequence and one vote sequence through a
    /// bundle at k = 1, comparing its core with the model after every
    /// prefix, and through a bundle at k = 3 with each instance in turn
    /// carrying the sequence, comparing its vote lanes and grades with the
    /// k = 1 bundle's; returns the model for coverage checks.
    fn run_prefixes(n: usize, seed: u64) -> PerSlotTallies {
        let t = (n - 1) / 3;
        let mut rng = ChaCha8Rng::seed_from_u64(seed << 16 | n as u64);
        let muted: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
        let mut wires: Vec<WireUnderTest> = [(1, 0), (3, 0), (3, 1), (3, 2)]
            .into_iter()
            .map(|(k, j)| WireUnderTest::new(n, t, k, j, &muted))
            .collect();
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
            let votes: Vec<_> = wires.iter_mut().map(|w| w.echo(*sender, slots)).collect();
            model.absorb_echoes(*sender, slots);
            assert_matches_model(&wires[0].gc.arena, &model, &format!("n {n} echo {i}"));
            for (w, got) in wires.iter().zip(&votes).skip(1) {
                let at = format!("n {n} echo {i} k {} j {}", w.k, w.j);
                assert_eq!(*got, votes[0], "{at}");
            }
        }
        wires.iter_mut().for_each(|w| w.start_votes(n));
        let votes = random_sequence(&mut rng, n, honest_hash, stray_hash);
        for (i, (sender, slots)) in votes.iter().enumerate() {
            let grades: Vec<_> = wires.iter_mut().map(|w| w.vote(*sender, slots)).collect();
            model.absorb_votes(*sender, slots);
            assert_matches_model(&wires[0].gc.arena, &model, &format!("n {n} vote {i}"));
            for (w, got) in wires.iter().zip(&grades).skip(1) {
                let at = format!("n {n} vote {i} k {} j {}", w.k, w.j);
                assert_eq!(*got, grades[0], "{at}");
            }
        }
        model
    }

    /// A phase's first bundle dropped whole — too narrow, or from a
    /// sender out of range — leaves the tally fresh, and the next sender
    /// is adopted whole, in both phases.
    #[test]
    fn a_dropped_first_bundle_leaves_the_bulk_adopt_to_the_next_sender() {
        let (n, k) = (4, 3);
        // Instance j lacks leader j.
        let slots: Vec<Option<Vec<Option<u64>>>> = (0..k)
            .map(|j| Some((0..n).map(|l| (l != j).then_some(10 + l as u64)).collect()))
            .collect();
        let lanes = slots.iter().flatten().flatten();
        let cnt: Vec<u32> = lanes.clone().map(|e| u32::from(e.is_some())).collect();
        let hashes: Vec<_> = slots
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|s| s.iter().map(|e| e.map(|v| v.hash32())).collect())
            })
            .collect();
        let echoes = GcBundleMsg::Echoes(Arc::new(nested(&slots)));
        let votes = GcBundleMsg::Votes(Arc::new(nested(&hashes)));
        let narrow = (
            GcBundleMsg::Echoes(Arc::new(nested(&slots[1..]))),
            GcBundleMsg::Votes(Arc::new(nested(&hashes[1..]))),
        );
        let active = vec![true; k];
        for (from, (echo_first, vote_first)) in [
            (PartyId(0), (&narrow.0, &narrow.1)),
            (PartyId(n), (&echoes, &votes)),
        ] {
            let mut gc = BundleGradecast::<u64>::new(PartyId(0), n, 1, k).unwrap();
            let _ = gc.on_echoes([(from, echo_first)], &active);
            assert!(
                gc.arena.echo.fresh,
                "a dropped echo bundle claimed the tally"
            );
            let _ = gc.on_echoes([(PartyId(1), &echoes)], &active);
            let _ = gc.on_votes([(from, vote_first)], &active);
            assert!(
                gc.arena.vote.fresh,
                "a dropped vote bundle claimed the tally"
            );
            let _ = gc.on_votes([(PartyId(1), &votes)], &active);
            let (echo, vote) = (&gc.arena.echo, &gc.arena.vote);
            assert!(!echo.fresh && !vote.fresh);
            assert_eq!((&echo.cnt, &vote.cnt), (&cnt, &cnt));
            let keys = lanes.clone().map(|e| e.unwrap_or(0));
            assert!(echo.bits.iter().copied().eq(keys));
            let keys = lanes
                .clone()
                .map(|e| e.map_or(0, |v| u64::from(v.hash32())));
            assert!(vote.bits.iter().copied().eq(keys));
        }
    }

    /// A stray first entry for every leader of one instance becomes the
    /// candidate, and the honest key of the other senders reaches the
    /// thresholds in the overflow table: the vote and the grade come from
    /// the patch, and the instances around it stay dense.
    #[test]
    fn the_overflow_patch_votes_and_grades_a_key_behind_a_stray_candidate() {
        /// `k` instances of `n` slots, all present, `entry(inst, leader)`.
        fn full<T: GcValue>(k: usize, n: usize, entry: impl Fn(usize, usize) -> T) -> GcBundle<T> {
            let inst = |i| Some((0..n).map(|l| Some(entry(i, l))).collect());
            nested(&(0..k).map(inst).collect::<Vec<_>>())
        }
        let (k, j, stray) = (3, 1, 99u64);
        for n in [4, 7, 16] {
            let t = (n - 1) / 3;
            let honest = |_, l: usize| 10 + l as u64;
            let lied = |i, l| if i == j { stray } else { honest(i, l) };
            // Sender 0 speaks first and lies; the others are honest.
            let inbox = |lie: GcBundleMsg<u64>, truth: GcBundleMsg<u64>| {
                let mut heard = vec![(PartyId(0), lie)];
                heard.extend((1..n).map(|s| (PartyId(s), truth.clone())));
                heard
            };
            let mut gc = BundleGradecast::<u64>::new(PartyId(0), n, t, k).unwrap();
            let active = vec![true; k];
            let heard = inbox(
                GcBundleMsg::Echoes(Arc::new(full(k, n, lied))),
                GcBundleMsg::Echoes(Arc::new(full(k, n, honest))),
            );
            let voted = gc.on_echoes(heard.iter().map(|(s, m)| (*s, m)), &active);
            let honest_votes = full(k, n, |i, l| honest(i, l).hash32());
            assert_eq!(
                voted,
                GcBundleMsg::Votes(Arc::new(honest_votes.clone())),
                "n {n}"
            );
            assert_eq!(gc.arena.echo.cnt[j * n..(j + 1) * n], vec![1; n]);
            let heard = inbox(
                GcBundleMsg::Votes(Arc::new(full(k, n, |i, l| lied(i, l).hash32()))),
                GcBundleMsg::Votes(Arc::new(honest_votes)),
            );
            let grades = gc.on_votes(heard.iter().map(|(s, m)| (*s, m)), &active);
            for (i, grades) in grades.into_iter().enumerate() {
                let want = (0..n).map(|l| GradecastOutput {
                    value: Some(honest(i, l)),
                    grade: Grade::Two,
                });
                assert!(grades.unwrap().into_iter().eq(want), "n {n}: instance {i}");
            }
        }
    }

    /// Sweep-then-leftovers against the per-slot model after every
    /// prefix of seeded random sequences of partial, single-slot, full,
    /// equivocating (the overflow path), key-0, duplicate-sender,
    /// out-of-range-sender and wrong-width batches over randomly muted
    /// leaders, at widths on both sides of a multiple of the SIMD step —
    /// and the same patterns at k = 3, instance by instance, against
    /// k = 1.
    #[test]
    fn one_core_matches_the_model_after_every_prefix() {
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
}
