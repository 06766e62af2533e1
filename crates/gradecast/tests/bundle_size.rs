//! An echo or vote bundle counts its wire size where its lanes are built;
//! `Payload::size_bytes` must still equal the size recounted from the
//! lanes — tag, outer bitmap, then per present instance its bitmap and one
//! fixed-width entry per present lane — for every way a bundle is made:
//! `with_first` on nothing or on a base, `from_lanes` (mixed widths
//! included), and the arena's echoes and votes at k = 1 and k = 3.

use std::sync::Arc;

use gradecast::{BundleGradecast, GcBundle, GcBundleMsg, GcValue};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_net::{PartyId, Payload};

/// The wire bytes of an echo or vote message, recounted from its lanes.
fn recount<T: GcValue>(bundle: &GcBundle<T>) -> usize {
    let body: usize = bundle
        .instances()
        .flatten()
        .map(|(present, _)| {
            let entries = present.iter().filter(|&&p| p).count();
            present.len().div_ceil(8) + entries * std::mem::size_of::<T>()
        })
        .sum();
    1 + bundle.instances().len().div_ceil(8) + body
}

/// Asserts that an echo bundle and a vote bundle built the same way size
/// as their recount.
fn assert_sized(echoes: GcBundle<u64>, votes: GcBundle<u32>) {
    let (want_echoes, want_votes) = (recount(&echoes), recount(&votes));
    let echoes = GcBundleMsg::<u64>::Echoes(Arc::new(echoes));
    let votes = GcBundleMsg::<u64>::Votes(Arc::new(votes));
    assert_eq!(echoes.size_bytes(), want_echoes, "{echoes:?}");
    assert_eq!(votes.size_bytes(), want_votes, "{votes:?}");
}

/// Random lanes for `outer`'s present instances at `widths`: each lane
/// present with probability ½, with a nonzero key where present.
fn lanes<T: GcValue>(rng: &mut ChaCha8Rng, outer: Vec<bool>, widths: Vec<usize>) -> GcBundle<T> {
    let total: usize = widths.iter().sum();
    let present: Vec<bool> = (0..total).map(|_| rng.gen_bool(0.5)).collect();
    let keys = present
        .iter()
        .map(|&p| {
            if p {
                rng.gen_range(1..u64::from(u32::MAX))
            } else {
                0
            }
        })
        .collect();
    GcBundle::from_lanes(outer, widths, present, keys).expect("well-shaped lanes")
}

/// A random bundle shape: 1–4 instances, each present with probability
/// ½ (instance 0 with probability `first`), widths in `0..12` — mixed
/// unless `n` pins instance 0's.
fn shape(rng: &mut ChaCha8Rng, first: f64, n: Option<usize>) -> (Vec<bool>, Vec<usize>) {
    let k = rng.gen_range(1..=4usize);
    let outer: Vec<bool> = (0..k)
        .map(|j| rng.gen_bool(if j == 0 { first } else { 0.5 }))
        .collect();
    let widths = (0..k)
        .filter(|&j| outer[j])
        .map(|j| match n {
            Some(n) if j == 0 => n,
            _ => rng.gen_range(0..12usize),
        })
        .collect();
    (outer, widths)
}

/// `with_first`'s entries: random slots of `0..n`, repeats included (a
/// slot written twice is one entry).
fn entries(rng: &mut ChaCha8Rng, n: usize) -> Vec<(usize, u32)> {
    (0..rng.gen_range(0..2 * n))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(1..u32::MAX)))
        .collect()
}

fn check_with_first(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(1..20usize);
    let writes = entries(&mut rng, n);
    let echo_writes = writes.iter().map(|&(l, v)| (l, u64::from(v)));
    if rng.gen_bool(0.5) {
        assert_sized(
            GcBundle::with_first(None, n, echo_writes),
            GcBundle::with_first(None, n, writes.iter().copied()),
        );
    } else {
        let (outer, widths) = shape(&mut rng, 0.5, Some(n));
        let echoes: GcBundle<u64> = lanes(&mut rng, outer.clone(), widths.clone());
        let votes: GcBundle<u32> = lanes(&mut rng, outer, widths);
        assert_sized(echoes.clone(), votes.clone());
        assert_sized(
            GcBundle::with_first(Some(&echoes), n, echo_writes),
            GcBundle::with_first(Some(&votes), n, writes.iter().copied()),
        );
    }
}

fn check_from_lanes(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (outer, widths) = shape(&mut rng, 0.5, None);
    assert_sized(
        lanes(&mut rng, outer.clone(), widths.clone()),
        lanes(&mut rng, outer, widths),
    );
}

/// Every party of a k-bundle hears a random subset of the leads, then a
/// random subset of the echo bundles, for two iterations (the second
/// after `reset`); every echo and vote bundle the arena writes must size
/// as its recount.
fn check_arena(seed: u64, k: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = rng.gen_range(0..=2usize);
    let n = 3 * t + 1 + rng.gen_range(0..3usize);
    let mut parties: Vec<BundleGradecast<u64>> = (0..n)
        .map(|i| BundleGradecast::new(PartyId(i), n, t, k).expect("k >= 1"))
        .collect();
    let heard = |rng: &mut ChaCha8Rng, msgs: &[GcBundleMsg<u64>]| -> Vec<usize> {
        (0..msgs.len()).filter(|_| rng.gen_bool(0.85)).collect()
    };
    for _ in 0..2 {
        let active: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.8)).collect();
        let leads: Vec<GcBundleMsg<u64>> = parties
            .iter()
            .map(|p| {
                let values = (0..k).map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0..4u64)));
                p.lead_msg(values.collect())
            })
            .collect();
        let mut echoes = Vec::new();
        for p in &mut parties {
            let from = heard(&mut rng, &leads);
            echoes.push(p.on_leads(from.into_iter().map(|i| (PartyId(i), &leads[i])), &active));
        }
        for echo in &echoes {
            let GcBundleMsg::Echoes(bundle) = echo else {
                panic!("on_leads returns echoes");
            };
            assert_eq!(echo.size_bytes(), recount(bundle));
        }
        for p in &mut parties {
            let from = heard(&mut rng, &echoes);
            let votes = p.on_echoes(from.into_iter().map(|i| (PartyId(i), &echoes[i])), &active);
            let GcBundleMsg::Votes(bundle) = &votes else {
                panic!("on_echoes returns votes");
            };
            assert_eq!(votes.size_bytes(), recount(bundle));
            p.reset();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn with_first_sizes_as_its_recount(seed in any::<u64>()) {
        check_with_first(seed);
    }

    #[test]
    fn from_lanes_sizes_as_its_recount(seed in any::<u64>()) {
        check_from_lanes(seed);
    }

    #[test]
    fn arena_bundles_size_as_their_recount_at_k1(seed in any::<u64>()) {
        check_arena(seed, 1);
    }

    #[test]
    fn arena_bundles_size_as_their_recount_at_k3(seed in any::<u64>()) {
        check_arena(seed, 3);
    }
}
