//! Direct micro-calls into the leaf layers: `tree-model` on the
//! workload's own tree, `aa-kernels` at the two scan lengths the
//! workloads produce (n = 256 parties, k = 10⁴ instances), and one
//! hand-driven gradecast per wire generation in use, with no engine
//! around it.

use std::hint::black_box;
use std::time::Instant;

use gradecast::{BatchGradecast, BundleGradecast, GcBatchMsg, GcBundleMsg};
use real_aa::R64;
use sim_net::{PartyId, Payload};
use tree_model::{list_construction, LcaTable, ProjectionTable, Tree, VertexId};

/// The party count of the `aa-kernels` / batch-gradecast micro-calls
/// (`sim-treeaa-wide`'s n).
pub const MICRO_N: usize = 256;
/// The instance count of the `aa-kernels` / bundle-gradecast micro-calls
/// (`sim-bundle`'s k).
pub const MICRO_K: usize = 10_000;

/// Median nanoseconds of `reps` calls of `f`.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Median nanoseconds of one call of `f`, each sample timing `inner`
/// back-to-back calls so a sub-microsecond kernel outlasts the clock.
fn median_ns_batched<R>(reps: usize, inner: usize, mut f: impl FnMut() -> R) -> f64 {
    median_ns(reps, || {
        for _ in 0..inner {
            black_box(f());
        }
    }) / inner as f64
}

/// `tree-model` build costs on `tree`, in milliseconds per call:
/// `(list_construction, LcaTable::new, ProjectionTable::new, convex_hull)`.
/// The projection is onto the root-to-farthest-vertex path (the longest
/// one `TreeAA` can pick); the hull is of `inputs`.
#[must_use]
pub fn tree_model_ms(tree: &Tree, inputs: &[VertexId], reps: usize) -> [f64; 4] {
    let deepest = tree
        .vertices()
        .max_by_key(|&v| tree.depth(v))
        .expect("trees are non-empty");
    let path = tree.path(tree.root(), deepest);
    [
        median_ns(reps, || list_construction(black_box(tree))),
        median_ns(reps, || LcaTable::new(black_box(tree))),
        median_ns(reps, || ProjectionTable::new(black_box(tree), &path)),
        median_ns(reps, || tree.convex_hull(black_box(inputs))),
    ]
    .map(|ns| ns / 1e6)
}

/// `aa-kernels` nanoseconds per element at slice length `len`:
/// `(sum_f64, min_max_f64, eq_count_u64)`.
#[must_use]
pub fn kernels_ns_per_elem(len: usize, reps: usize) -> [f64; 3] {
    let xs: Vec<f64> = (0..len).map(|i| (i % 97) as f64 * 0.25).collect();
    let vals: Vec<u64> = (0..len as u64).collect();
    let mut counts = vec![0u32; len];
    // Enough back-to-back calls that one sample is ≥ ~100k elements.
    let inner = (100_000 / len).max(1);
    [
        median_ns_batched(reps, inner, || aa_kernels::sum_f64(black_box(&xs))),
        median_ns_batched(reps, inner, || aa_kernels::min_max_f64(black_box(&xs))),
        median_ns_batched(reps, inner, || {
            aa_kernels::eq_count_u64(black_box(&vals), &vals, &mut counts)
        }),
    ]
    .map(|ns| ns / len as f64)
}

/// One party's work in one all-honest bundled gradecast (lead, echo,
/// vote, grade) with `n` parties and `k` instances. With identical leads
/// everywhere, every honest party broadcasts the same echo and vote
/// bundle, so one party's own bundles stand in for all `n` senders.
/// Returns `(nanoseconds per instance, echo bundle wire bytes)`.
///
/// # Panics
///
/// Panics if `k == 0` or `n ≤ 3t`.
#[must_use]
pub fn bundle_gradecast(n: usize, t: usize, k: usize, reps: usize) -> (f64, usize) {
    let active = vec![true; k];
    let senders = || (0..n).map(PartyId);
    let mut echo_bytes = 0;
    let mut round = || {
        let mut gc: BundleGradecast<R64> =
            BundleGradecast::new(PartyId(0), n, t, k).expect("k >= 1");
        let leads: Vec<GcBundleMsg<R64>> = senders()
            .map(|p| gc.lead_msg((0..k).map(|j| Some(R64::new((p.0 + j) as f64))).collect()))
            .collect();
        let echoes = gc.on_leads(senders().zip(&leads), &active);
        echo_bytes = echoes.size_bytes();
        let votes = gc.on_echoes(senders().map(|p| (p, &echoes)), &active);
        gc.on_votes(senders().map(|p| (p, &votes)), &active)
    };
    // All-honest, so every leader of every instance must be accepted.
    assert!(
        round()
            .iter()
            .flatten()
            .flatten()
            .all(gradecast::GradecastOutput::accepted),
        "an all-honest bundled gradecast left a leader ungraded"
    );
    let ns = median_ns(reps, round);
    (ns / k as f64, echo_bytes)
}

/// One party's work in one all-honest batched gradecast with `n`
/// parties, in microseconds (same stand-in argument as
/// [`bundle_gradecast`]).
///
/// # Panics
///
/// Panics if `n ≤ 3t`.
#[must_use]
pub fn batch_gradecast_us(n: usize, t: usize, reps: usize) -> f64 {
    let senders = || (0..n).map(PartyId);
    let round = || {
        let mut gc: BatchGradecast<u64> = BatchGradecast::new(PartyId(0), n, t);
        let leads: Vec<GcBatchMsg<u64>> = senders().map(|p| gc.lead_msg(p.0 as u64)).collect();
        let echoes = gc.on_leads(senders().zip(&leads));
        let votes = gc.on_echoes(senders().map(|p| (p, &echoes)));
        gc.on_votes(senders().map(|p| (p, &votes)))
    };
    assert!(
        round().iter().all(gradecast::GradecastOutput::accepted),
        "an all-honest batched gradecast left a leader ungraded"
    );
    median_ns(reps, round) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_calls_return_positive_times_at_toy_sizes() {
        let tree = tree_model::generate::caterpillar(5, 2);
        let inputs: Vec<VertexId> = tree.vertices().take(3).collect();
        assert!(tree_model_ms(&tree, &inputs, 2).iter().all(|&ms| ms > 0.0));
        assert!(kernels_ns_per_elem(64, 2).iter().all(|&ns| ns > 0.0));
        let (ns, bytes) = bundle_gradecast(4, 1, 8, 2);
        assert!(ns > 0.0 && bytes > 0);
        assert!(batch_gradecast_us(16, 5, 2) > 0.0);
    }
}
