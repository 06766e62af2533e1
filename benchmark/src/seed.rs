//! Every generated input, adversary seed and delay-schedule seed is a
//! splitmix64 chain over `(--seed, run, party, instance)`: the program
//! under test only ever sees generated inputs, and the same `--seed`
//! reproduces them all.

use async_net::splitmix64;

/// The 64-bit value derived for `(seed, run, party, instance)`.
#[must_use]
pub fn derive(seed: u64, run: u64, party: u64, instance: u64) -> u64 {
    let mut h = splitmix64(seed ^ 0x6265_6e63_686d_726b);
    for x in [run, party, instance] {
        h = splitmix64(h ^ x);
    }
    h
}

/// A derived value mapped to `[0, 1)` (53 uniform bits).
#[must_use]
pub fn unit(seed: u64, run: u64, party: u64, instance: u64) -> f64 {
    (derive(seed, run, party, instance) >> 11) as f64 / (1u64 << 53) as f64
}

/// A derived index in `0..bound`.
///
/// # Panics
///
/// Panics if `bound == 0`.
#[must_use]
pub fn index(seed: u64, run: u64, party: u64, instance: u64, bound: usize) -> usize {
    assert!(bound > 0, "empty index range");
    (derive(seed, run, party, instance) % bound as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_coordinate_sensitive() {
        assert_eq!(derive(1, 2, 3, 4), derive(1, 2, 3, 4));
        let base = derive(1, 2, 3, 4);
        for other in [
            derive(2, 2, 3, 4),
            derive(1, 3, 3, 4),
            derive(1, 2, 4, 4),
            derive(1, 2, 3, 5),
        ] {
            assert_ne!(base, other);
        }
        let u = unit(9, 0, 1, 2);
        assert!((0.0..1.0).contains(&u));
        assert!(index(9, 0, 1, 2, 7) < 7);
    }
}
