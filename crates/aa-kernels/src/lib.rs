//! Chunked reduction and tally kernels for the AA hot loops.
//!
//! `RealAA`'s trimmed-mean update, the accepted-hull min/max scans, and the
//! batched gradecast tallies all reduce large dense arrays once per party
//! per round. At n = 4096 those reductions dominate the per-round local
//! work, so this crate provides them as *chunked* kernels written so the
//! compiler's auto-vectorizer turns the lane loops into SIMD, plus
//! `#[cfg]`-gated explicit SSE2 paths on `x86_64` where the auto-vectorizer
//! does not deliver and the baseline ISA makes the intrinsics
//! unconditionally safe: the f64 sum, and the gradecast tally sweep
//! ([`tally_eq_u64`] / [`eq_count_u64`]). SSE2 has no 64-bit integer
//! compare, so no spelling of the tally loop auto-vectorizes (every one
//! tried measures 1.1–2.3 ns/slot at n = 256, i.e. scalar); two 32-bit
//! compares and two shuffles do, at 0.3–0.55 ns/slot.
//!
//! # The kernel contract
//!
//! Every kernel has a scalar reference implementation (`*_ref`) that
//! performs **the same floating-point operations in the same association
//! order**; kernels are *bit-identical* to their references on every input
//! they accept (NaN-free for the f64 kernels). This is what lets the
//! protocol stack adopt them without perturbing a single recorded trace:
//!
//! * Reductions over fewer than [`CHUNK_DISPATCH`] elements use the plain
//!   left-to-right order every pre-existing call site used, so all small
//!   instances (golden traces, the model checker, the fuzz corpus) compute
//!   byte-for-byte the values they always did.
//! * Reductions at or above [`CHUNK_DISPATCH`] elements switch to a fixed
//!   [`LANES`]-accumulator association (lane `j` folds elements
//!   `j, j+LANES, …`; lanes combine pairwise, then the tail folds in
//!   left-to-right). The association is part of the contract — scalar
//!   reference, auto-vectorized chunked loop, and the explicit-SIMD path
//!   all produce identical bits because IEEE-754 addition is deterministic
//!   once the order is fixed.
//!
//! Min/max kernels use strict `<` / `>` comparisons (first extremum wins),
//! never `f64::min`/`f64::max`, so their tie behaviour on `±0.0` is fully
//! specified rather than left to whichever `minnum` lowering the backend
//! picks for a given vector width.

#![warn(missing_docs)]

/// Element count at which the f64 reductions switch from the historical
/// left-to-right order to the chunked [`LANES`]-accumulator order.
///
/// Every pre-scaling workload in this repository (golden traces at
/// n ≤ 64, the aa-check instances at n ≤ 5, the fuzz corpus) reduces
/// fewer elements than this, so the switch cannot perturb any recorded
/// artifact; the n ∈ {1024, 4096} scale path always exceeds it.
pub const CHUNK_DISPATCH: usize = 128;

/// Number of independent accumulator lanes in the chunked f64 kernels
/// (8 f64 lanes = two 256-bit or four 128-bit vector registers).
pub const LANES: usize = 8;

/// Combines 8 lane accumulators pairwise: `((l0+l1)+(l2+l3)) +
/// ((l4+l5)+(l6+l7))`. Shared by every sum path so they agree bitwise.
#[inline]
fn combine_lanes(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Strict left-to-right f64 sum — the historical small-input order.
#[inline]
fn sum_sequential(xs: &[f64]) -> f64 {
    let mut s = 0.0;
    for &x in xs {
        s += x;
    }
    s
}

/// Scalar reference for [`sum_f64`]: same dispatch, same lane association,
/// no explicit SIMD. Kernel and reference are bit-identical on every
/// input.
pub fn sum_f64_ref(xs: &[f64]) -> f64 {
    if xs.len() < CHUNK_DISPATCH {
        return sum_sequential(xs);
    }
    let mut acc = [0.0f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        // One scalar add per lane per chunk; the auto-vectorizer may or
        // may not vectorize this reference, but either way the operation
        // order — and therefore the result bits — is the same.
        for j in 0..LANES {
            acc[j] += chunk[j];
        }
    }
    let mut s = combine_lanes(&acc);
    for &x in tail {
        s += x;
    }
    s
}

/// Sums `xs` (NaN-free): left-to-right below [`CHUNK_DISPATCH`], the
/// chunked [`LANES`]-lane association at or above it. Bit-identical to
/// [`sum_f64_ref`] everywhere.
pub fn sum_f64(xs: &[f64]) -> f64 {
    if xs.len() < CHUNK_DISPATCH {
        return sum_sequential(xs);
    }
    // SSE2 is part of the x86_64 baseline: no runtime detection needed,
    // the gate is purely an ISA availability cfg.
    #[cfg(target_arch = "x86_64")]
    {
        unsafe { simd::sum_chunked_sse2(xs) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        sum_f64_ref(xs)
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{combine_lanes, LANES};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_add_pd, _mm_and_si128, _mm_andnot_si128, _mm_castps_si128,
        _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_cvtsi32_si128, _mm_loadu_pd, _mm_loadu_si128,
        _mm_set1_epi32, _mm_setzero_pd, _mm_setzero_si128, _mm_shuffle_ps, _mm_storeu_pd,
        _mm_storeu_si128, _mm_sub_epi32, _mm_unpacklo_epi16, _mm_unpacklo_epi8,
    };

    /// Slots per iteration of [`tally_sweep_sse2`]: four `u32` counts fill
    /// one 128-bit register.
    pub(super) const TALLY_STEP: usize = 4;

    /// The shared inner loop of [`super::tally_eq_u64`] (`MASKED`) and
    /// [`super::eq_count_u64`] (not `MASKED`, `present` unread) over the
    /// first `len − len % TALLY_STEP` slots; returns how many of those
    /// slots were eligible (present, or all of them) but not counted.
    ///
    /// Per four slots: two `pcmpeqd` compare the 32-bit halves of the keys
    /// (SSE2 has no 64-bit compare), two shuffles gather the low-half and
    /// high-half results into slot order, and their `and` is the 64-bit
    /// equality as a 32-bit lane mask, ready to meet the `u32` counts.
    ///
    /// # Safety
    ///
    /// SSE2 is unconditionally available on `x86_64`. The caller
    /// guarantees `keys`, `cands` and `counts` (and `present` when
    /// `MASKED`) have equal lengths.
    pub(super) unsafe fn tally_sweep_sse2<const MASKED: bool>(
        keys: &[u64],
        present: &[bool],
        cands: &[u64],
        counts: &mut [u32],
    ) -> usize {
        let zero = _mm_setzero_si128();
        let mut eligible = _mm_set1_epi32(1);
        let mut empty = zero;
        let mut uncounted = zero;
        let body = keys.len() - keys.len() % TALLY_STEP;
        for i in (0..body).step_by(TALLY_STEP) {
            let (k, c) = (keys.as_ptr().add(i), cands.as_ptr().add(i));
            let eq01 = _mm_cmpeq_epi32(_mm_loadu_si128(k.cast()), _mm_loadu_si128(c.cast()));
            let eq23 = _mm_cmpeq_epi32(
                _mm_loadu_si128(k.add(2).cast()),
                _mm_loadu_si128(c.add(2).cast()),
            );
            let (eq01, eq23) = (_mm_castsi128_ps(eq01), _mm_castsi128_ps(eq23));
            let eq = _mm_and_si128(
                _mm_castps_si128(_mm_shuffle_ps::<0b10_00_10_00>(eq01, eq23)),
                _mm_castps_si128(_mm_shuffle_ps::<0b11_01_11_01>(eq01, eq23)),
            );
            let cnt_ptr = counts.as_mut_ptr().add(i).cast::<__m128i>();
            let cnt = _mm_loadu_si128(cnt_ptr);
            if MASKED {
                // Four presence bytes (a `bool` is the byte 0 or 1),
                // zero-extended to four 32-bit lanes of 0 or 1.
                let bytes = present.as_ptr().add(i).cast::<i32>().read_unaligned();
                eligible =
                    _mm_unpacklo_epi16(_mm_unpacklo_epi8(_mm_cvtsi32_si128(bytes), zero), zero);
                empty = _mm_cmpeq_epi32(cnt, zero);
            }
            let inc = _mm_and_si128(_mm_andnot_si128(empty, eq), eligible);
            _mm_storeu_si128(cnt_ptr, _mm_add_epi32(cnt, inc));
            uncounted = _mm_add_epi32(uncounted, _mm_sub_epi32(eligible, inc));
        }
        let mut lanes = [0u32; TALLY_STEP];
        _mm_storeu_si128(lanes.as_mut_ptr().cast(), uncounted);
        lanes.iter().map(|&l| l as usize).sum()
    }

    /// Chunked sum over four 2-wide SSE2 accumulators holding lanes
    /// `(0,1) (2,3) (4,5) (6,7)`; combined through [`combine_lanes`] so
    /// the bits match the scalar reference exactly.
    ///
    /// # Safety
    ///
    /// SSE2 is unconditionally available on `x86_64`; the pointer
    /// arithmetic stays within `xs`.
    pub(super) unsafe fn sum_chunked_sse2(xs: &[f64]) -> f64 {
        let chunks = xs.chunks_exact(LANES);
        let tail = chunks.remainder();
        let mut v = [_mm_setzero_pd(); 4];
        for chunk in chunks {
            let p = chunk.as_ptr();
            for (i, acc) in v.iter_mut().enumerate() {
                *acc = _mm_add_pd(*acc, _mm_loadu_pd(p.add(2 * i)));
            }
        }
        let mut acc = [0.0f64; LANES];
        for (i, reg) in v.iter().enumerate() {
            _mm_storeu_pd(acc.as_mut_ptr().add(2 * i), *reg);
        }
        let mut s = combine_lanes(&acc);
        for &x in tail {
            s += x;
        }
        s
    }
}

/// Scalar reference for [`min_max_f64`]: one strict-comparison pass,
/// first extremum wins. NaN-free inputs only (a NaN never compares `<`
/// or `>`, so it would simply be skipped — callers enforce finiteness).
pub fn min_max_f64_ref(xs: &[f64]) -> Option<(f64, f64)> {
    let (&first, rest) = xs.split_first()?;
    let mut lo = first;
    let mut hi = first;
    for &x in rest {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    Some((lo, hi))
}

/// Min and max of `xs` (NaN-free) in one chunked pass, or `None` on empty
/// input. Bit-identical to [`min_max_f64_ref`]: strict comparisons are
/// order-insensitive on totally ordered inputs, and ties (equal bits, or
/// `±0.0` which never satisfies `<`/`>` against its twin) keep the
/// earliest element in both implementations.
pub fn min_max_f64(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < CHUNK_DISPATCH {
        return min_max_f64_ref(xs);
    }
    let mut lo = [xs[0]; LANES];
    let mut hi = [xs[0]; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for j in 0..LANES {
            let x = chunk[j];
            if x < lo[j] {
                lo[j] = x;
            }
            if x > hi[j] {
                hi[j] = x;
            }
        }
    }
    let mut l = lo[0];
    let mut h = hi[0];
    for j in 1..LANES {
        if lo[j] < l {
            l = lo[j];
        }
        if hi[j] > h {
            h = hi[j];
        }
    }
    for &x in tail {
        if x < l {
            l = x;
        }
        if x > h {
            h = x;
        }
    }
    // `±0.0` caveat: strict comparisons never distinguish the signed
    // zeros, so when zero is an extremum both implementations keep the
    // *first* zero they visit — and the lane traversal visits elements in
    // a different order than the reference. Canonicalize to the first
    // zero in slice order (what the reference reports) so the
    // bit-identity contract stays unconditional.
    if l == 0.0 {
        l = first_zero(xs);
    }
    if h == 0.0 {
        h = first_zero(xs);
    }
    Some((l, h))
}

/// First signed zero in slice order — the bit pattern the sequential
/// reference reports when zero is an extremum.
fn first_zero(xs: &[f64]) -> f64 {
    xs.iter().copied().find(|&x| x == 0.0).unwrap_or(0.0)
}

/// Scalar reference for [`min_max_usize`].
pub fn min_max_usize_ref(xs: &[usize]) -> Option<(usize, usize)> {
    let (&first, rest) = xs.split_first()?;
    let mut lo = first;
    let mut hi = first;
    for &x in rest {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    Some((lo, hi))
}

/// Min and max of a position slice in one chunked pass, or `None` on
/// empty input. Integer comparisons are exact, so kernel and reference
/// agree on every input unconditionally.
pub fn min_max_usize(xs: &[usize]) -> Option<(usize, usize)> {
    if xs.len() < CHUNK_DISPATCH {
        return min_max_usize_ref(xs);
    }
    let mut lo = [xs[0]; LANES];
    let mut hi = [xs[0]; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for j in 0..LANES {
            let x = chunk[j];
            lo[j] = lo[j].min(x);
            hi[j] = hi[j].max(x);
        }
    }
    let mut l = lo[0];
    let mut h = hi[0];
    for j in 1..LANES {
        l = l.min(lo[j]);
        h = h.max(hi[j]);
    }
    for &x in tail {
        l = l.min(x);
        h = h.max(x);
    }
    Some((l, h))
}

/// Scalar reference for [`eq_count_u64`].
pub fn eq_count_u64_ref(vals: &[u64], cands: &[u64], counts: &mut [u32]) -> usize {
    assert_eq!(vals.len(), cands.len());
    assert_eq!(vals.len(), counts.len());
    let mut mismatches = 0;
    for i in 0..vals.len() {
        if vals[i] == cands[i] {
            counts[i] += 1;
        } else {
            mismatches += 1;
        }
    }
    mismatches
}

/// The unmasked tally sweep: for every slot `i`, increments `counts[i]`
/// when `vals[i] == cands[i]`, and returns how many slots mismatched.
/// [`tally_eq_u64`] with every slot present and no empty-candidate rule.
///
/// On `x86_64` this is the explicit SSE2 loop [`tally_eq_u64`] runs
/// (0.3–0.55 ns/slot at n = 256; the auto-vectorizer leaves every scalar
/// spelling at 1.1–2.3 because SSE2 lacks a 64-bit compare), the scalar
/// reference elsewhere and for the tail. Exact integer semantics, so
/// kernel ≡ reference on every input.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn eq_count_u64(vals: &[u64], cands: &[u64], counts: &mut [u32]) -> usize {
    assert_eq!(vals.len(), cands.len());
    assert_eq!(vals.len(), counts.len());
    #[cfg(target_arch = "x86_64")]
    {
        let body = vals.len() - vals.len() % simd::TALLY_STEP;
        // SAFETY: SSE2 is part of the x86_64 baseline, and the three
        // slices were just asserted equal in length (the unmasked sweep
        // never reads `present`).
        let swept = unsafe { simd::tally_sweep_sse2::<false>(vals, &[], cands, counts) };
        swept + eq_count_u64_ref(&vals[body..], &cands[body..], &mut counts[body..])
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        eq_count_u64_ref(vals, cands, counts)
    }
}

/// Scalar reference for [`tally_eq_u64`].
pub fn tally_eq_u64_ref(
    keys: &[u64],
    present: &[bool],
    cands: &[u64],
    counts: &mut [u32],
) -> usize {
    assert_eq!(keys.len(), present.len());
    assert_eq!(keys.len(), cands.len());
    assert_eq!(keys.len(), counts.len());
    let mut uncounted = 0;
    for i in 0..keys.len() {
        if !present[i] {
            continue;
        }
        if counts[i] != 0 && keys[i] == cands[i] {
            counts[i] += 1;
        } else {
            uncounted += 1;
        }
    }
    uncounted
}

/// The batched-gradecast tally kernel: one sender's n-wide key vector
/// folded into the per-leader tallies in a single masked sweep. For every
/// slot `i`, `counts[i] += 1` iff the slot is present, the leader already
/// has a candidate (`counts[i] != 0` — a count is only ever raised from 0
/// by adopting a candidate, so a zeroed `cands[i]` is never mistaken for
/// a real key 0) and `keys[i] == cands[i]`. Returns how many *present*
/// slots were not counted: 0 tells the caller the message is fully
/// absorbed, anything else is the number of slots its per-slot rule still
/// owes (first value for a leader, or a divergent one).
///
/// Explicit SSE2 on `x86_64` (see [`eq_count_u64`]), scalar reference
/// elsewhere and for the tail; exact integer semantics, so kernel ≡
/// [`tally_eq_u64_ref`] on every input.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn tally_eq_u64(keys: &[u64], present: &[bool], cands: &[u64], counts: &mut [u32]) -> usize {
    assert_eq!(keys.len(), present.len());
    assert_eq!(keys.len(), cands.len());
    assert_eq!(keys.len(), counts.len());
    #[cfg(target_arch = "x86_64")]
    {
        let body = keys.len() - keys.len() % simd::TALLY_STEP;
        // SAFETY: SSE2 is part of the x86_64 baseline, and the four
        // slices were just asserted equal in length.
        let swept = unsafe { simd::tally_sweep_sse2::<true>(keys, present, cands, counts) };
        swept
            + tally_eq_u64_ref(
                &keys[body..],
                &present[body..],
                &cands[body..],
                &mut counts[body..],
            )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        tally_eq_u64_ref(keys, present, cands, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_edges() {
        assert_eq!(sum_f64(&[]), 0.0);
        assert_eq!(sum_f64(&[2.5]), 2.5);
        assert_eq!(min_max_f64(&[]), None);
        assert_eq!(min_max_f64(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(min_max_usize(&[]), None);
        assert_eq!(min_max_usize(&[3]), Some((3, 3)));
    }

    #[test]
    fn small_sum_is_left_to_right() {
        // 0.1 + 0.2 + 0.3 depends on association; the small path must use
        // the historical left-to-right order exactly.
        let xs = [0.1, 0.2, 0.3];
        assert_eq!(sum_f64(&xs).to_bits(), ((0.1f64 + 0.2) + 0.3).to_bits());
    }

    #[test]
    fn large_sum_matches_reference_bits() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e3).collect();
        assert_eq!(sum_f64(&xs).to_bits(), sum_f64_ref(&xs).to_bits());
    }

    #[test]
    fn large_sum_uses_the_lane_association() {
        let xs: Vec<f64> = (0..CHUNK_DISPATCH).map(|i| 0.1 * i as f64).collect();
        let mut acc = [0.0f64; LANES];
        for chunk in xs.chunks_exact(LANES) {
            for j in 0..LANES {
                acc[j] += chunk[j];
            }
        }
        assert_eq!(sum_f64(&xs).to_bits(), combine_lanes(&acc).to_bits());
    }

    #[test]
    fn min_max_finds_extrema_wherever_they_sit() {
        for pos in [0usize, 1, 200, 255] {
            let mut xs = vec![5.0; 256];
            xs[pos] = -9.0;
            xs[255 - pos] = 9.0;
            let (lo, hi) = min_max_f64(&xs).unwrap();
            assert_eq!((lo, hi), (-9.0, 9.0));
        }
    }

    #[test]
    fn signed_zero_min_is_canonical() {
        let mut xs = vec![1.0; 300];
        xs[13] = 0.0;
        xs[250] = -0.0;
        let (lo, _) = min_max_f64(&xs).unwrap();
        let (rlo, _) = min_max_f64_ref(&xs).unwrap();
        assert_eq!(lo.to_bits(), rlo.to_bits());
    }

    #[test]
    fn eq_count_counts_and_reports_mismatches() {
        let vals = [1u64, 2, 3, 4, 5, 6, 7, 8, 9];
        let cands = [1u64, 0, 3, 4, 5, 0, 7, 8, 9];
        let mut counts = [0u32; 9];
        let mism = eq_count_u64(&vals, &cands, &mut counts);
        assert_eq!(mism, 2);
        assert_eq!(counts, [1, 0, 1, 1, 1, 0, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn eq_count_rejects_length_mismatch() {
        let mut counts = [0u32; 2];
        let _ = eq_count_u64(&[1, 2, 3], &[1, 2, 3], &mut counts);
    }
}
