//! Property tests for the kernel contract: every chunked/SIMD kernel is
//! bit-identical to its scalar reference on every input it accepts
//! (NaN-free for the f64 kernels), across the edge shapes the protocol
//! stack actually produces — n ∈ {1, 2, odd, 4096}, dispatch-boundary
//! lengths, signed zeros, and adversarially repeated values.

use aa_kernels::{
    eq_count_u64, eq_count_u64_ref, min_max_f64, min_max_f64_ref, min_max_usize, min_max_usize_ref,
    sum_f64, sum_f64_ref, tally_eq_u64, tally_eq_u64_ref, CHUNK_DISPATCH, LANES,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The length shapes that matter: tiny, the dispatch boundary ±1, odd
/// sizes that leave a ragged tail, and the full n=4096 scale target.
const EDGE_LENS: [usize; 12] = [
    1,
    2,
    3,
    7,
    CHUNK_DISPATCH - 1,
    CHUNK_DISPATCH,
    CHUNK_DISPATCH + 1,
    CHUNK_DISPATCH + LANES - 1,
    255,
    1021,
    4095,
    4096,
];

/// A NaN-free f64 vector: mixed magnitudes, signed zeros, repeats.
fn arb_floats() -> impl Strategy<Value = Vec<f64>> {
    (0usize..EDGE_LENS.len(), any::<u64>()).prop_map(|(li, seed)| {
        let n = EDGE_LENS[li];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.gen_range(0u8..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from(rng.gen_range(-4i32..=4)),
                3 => rng.gen_range(-1.0f64..1.0) * 1e-12,
                4 => rng.gen_range(-1.0f64..1.0) * 1e12,
                _ => rng.gen_range(-1.0f64..1.0),
            })
            .collect()
    })
}

fn arb_usizes() -> impl Strategy<Value = Vec<usize>> {
    (0usize..EDGE_LENS.len(), any::<u64>()).prop_map(|(li, seed)| {
        let n = EDGE_LENS[li];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0usize..10_000)).collect()
    })
}

/// Tally-shaped input: slot values, candidate values biased to collide
/// with them (the honest all-match message plus Byzantine divergence),
/// and a pre-existing count vector.
fn arb_tally() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u32>)> {
    (0usize..EDGE_LENS.len(), any::<u64>()).prop_map(|(li, seed)| {
        let n = EDGE_LENS[li];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let cands: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..16)).collect();
        let vals: Vec<u64> = cands
            .iter()
            .map(|&c| {
                if rng.gen_range(0u8..4) == 0 {
                    rng.gen_range(0u64..16)
                } else {
                    c
                }
            })
            .collect();
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..100)).collect();
        (vals, cands, counts)
    })
}

/// The tally sweeps against their scalar references at the lengths around
/// the SIMD step (4) and the protocol's widths: seeded keys that differ
/// from the candidate in the low half only, the high half only, or both
/// (the 64-bit equality is assembled from two 32-bit compares), key 0 and
/// key `u64::MAX`, absent lanes, zero counts (no candidate yet — a present
/// key 0 over a zeroed candidate must stay uncounted), and one planted
/// mismatch in the SIMD body and one in the tail.
#[test]
fn tally_sweeps_match_their_references_at_every_edge_length() {
    const KEYS: [u64; 6] = [0, 1, 1 << 32, u64::MAX, u64::MAX - 1, u64::MAX >> 32];
    for len in [0usize, 1, 3, 4, 5, 127, 128, 129, 255, 256, 257, 4096] {
        for seed in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed << 16 | len as u64);
            let cands: Vec<u64> = (0..len)
                .map(|_| KEYS[rng.gen_range(0..KEYS.len())])
                .collect();
            let mut keys: Vec<u64> = cands
                .iter()
                .map(|&c| match rng.gen_range(0u8..8) {
                    0 => c ^ 1,
                    1 => c ^ (1 << 32),
                    2 => KEYS[rng.gen_range(0..KEYS.len())],
                    _ => c,
                })
                .collect();
            // Seed 0 is the all-match, all-present, all-counted message
            // apart from the two planted mismatches.
            let present: Vec<bool> = (0..len).map(|_| seed == 0 || rng.gen_bool(0.7)).collect();
            let counts: Vec<u32> = (0..len)
                .map(|_| match rng.gen_range(0u8..4) {
                    0 if seed != 0 => 0,
                    _ => rng.gen_range(1u32..300),
                })
                .collect();
            if len > 4 {
                keys[1] = !cands[1]; // inside the first SIMD step
                keys[len - 1] = !cands[len - 1]; // the tail (or the last step)
            }

            let (mut k_counts, mut r_counts) = (counts.clone(), counts.clone());
            let k = tally_eq_u64(&keys, &present, &cands, &mut k_counts);
            let r = tally_eq_u64_ref(&keys, &present, &cands, &mut r_counts);
            assert_eq!(
                (k, &k_counts),
                (r, &r_counts),
                "tally, len {len} seed {seed}"
            );
            for i in 0..len {
                let counted = present[i] && counts[i] != 0 && keys[i] == cands[i];
                assert_eq!(k_counts[i], counts[i] + u32::from(counted), "slot {i}");
            }

            let (mut k_counts, mut r_counts) = (counts.clone(), counts);
            let k = eq_count_u64(&keys, &cands, &mut k_counts);
            let r = eq_count_u64_ref(&keys, &cands, &mut r_counts);
            assert_eq!(
                (k, k_counts),
                (r, r_counts),
                "eq_count, len {len} seed {seed}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sum_kernel_is_bit_identical_to_reference(xs in arb_floats()) {
        prop_assert_eq!(sum_f64(&xs).to_bits(), sum_f64_ref(&xs).to_bits());
    }

    #[test]
    fn min_max_f64_kernel_is_bit_identical_to_reference(xs in arb_floats()) {
        let k = min_max_f64(&xs).expect("non-empty");
        let r = min_max_f64_ref(&xs).expect("non-empty");
        prop_assert_eq!(k.0.to_bits(), r.0.to_bits());
        prop_assert_eq!(k.1.to_bits(), r.1.to_bits());
    }

    #[test]
    fn min_max_usize_kernel_matches_reference(xs in arb_usizes()) {
        prop_assert_eq!(min_max_usize(&xs), min_max_usize_ref(&xs));
    }

    #[test]
    fn eq_count_kernel_matches_reference((vals, cands, counts) in arb_tally()) {
        let mut k_counts = counts.clone();
        let mut r_counts = counts;
        let k = eq_count_u64(&vals, &cands, &mut k_counts);
        let r = eq_count_u64_ref(&vals, &cands, &mut r_counts);
        prop_assert_eq!(k, r);
        prop_assert_eq!(k_counts, r_counts);
    }

    #[test]
    fn small_sums_preserve_the_historical_order(seed in any::<u64>()) {
        // Below the dispatch threshold the kernel must reproduce the exact
        // left-to-right fold every pre-scaling call site used.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(0usize..CHUNK_DISPATCH);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let naive: f64 = xs.iter().sum();
        prop_assert_eq!(sum_f64(&xs).to_bits(), naive.to_bits());
    }
}
