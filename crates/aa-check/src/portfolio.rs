//! Portfolio exploration: the DFS frontier farmed across threads.
//!
//! The schedule tree of one lattice assignment is partitioned at its
//! *first* decision: unit `c` owns every script whose first choice is
//! `c` (the probe run discovers the first branching factor). Each unit
//! is the explorer's own DFS (`crate::explore::dfs`) over the scripts
//! extending `[c]`, so the units tile the tree exactly; they run on a
//! work queue drained by a scoped thread pool.
//!
//! Determinism is by construction, not by scheduling discipline: every
//! unit's result is a pure function of `(instance, assignment, unit,
//! budget)`, and the merge folds unit results in unit order. Reruns are
//! bit-identical for every thread count — including `--threads 1` — and
//! an untruncated portfolio's totals equal the sequential explorer's.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::explore::{dfs, execute, Execution, ExploreResult, Instance};
use crate::lattice::LatticeAssignment;

/// Explores one assignment's schedule tree across `threads` workers.
///
/// `max_runs` is split across the units so that their caps sum to it
/// exactly (the first `max_runs mod units` units get one run more), so
/// the budget — and hence the merged stats — is independent of the
/// thread count. A failure is the lowest-indexed failing unit's first —
/// deterministic, though not necessarily the sequential explorer's
/// first failure.
pub fn explore_portfolio<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    threads: usize,
    classify: &F,
) -> ExploreResult
where
    F: Fn(&Execution, &[usize]) -> Option<String> + Sync,
{
    // Probe: discover the first decision's branching factor. Unit c's
    // first run replays this schedule's sibling [c], so the probe itself
    // is not counted in the stats.
    let branch0 = execute(instance, assignment, &[], depth)
        .branching
        .first()
        .copied()
        .unwrap_or(0);
    let prefixes: Vec<Vec<usize>> = if branch0 == 0 {
        vec![Vec::new()]
    } else {
        (0..branch0).map(|c| vec![c]).collect()
    };
    let units = prefixes.len();
    let queue: Mutex<VecDeque<(usize, Vec<usize>)>> =
        Mutex::new(prefixes.into_iter().enumerate().collect());
    let results: Vec<Mutex<Option<ExploreResult>>> = (0..units).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, units) {
            s.spawn(|| loop {
                let job = queue.lock().expect("no poisoned queue").pop_front();
                let Some((idx, prefix)) = job else { break };
                let cap = max_runs / units + usize::from(idx < max_runs % units);
                let r = dfs(
                    instance,
                    assignment,
                    depth,
                    cap,
                    &prefix,
                    &mut |exec, script| classify(exec, script),
                );
                *results[idx].lock().expect("no poisoned result slot") = Some(r);
            });
        }
    });
    // Deterministic merge in unit order.
    let mut merged = ExploreResult::default();
    for slot in results {
        merged.absorb(
            slot.into_inner()
                .expect("no poisoned result slot")
                .expect("every unit ran"),
        );
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::enumerate_assignments;
    use std::sync::Arc;
    use tree_model::{generate, VertexId};

    fn tiny_instance(n: usize, t: usize, vertices: usize) -> Instance {
        let tree = Arc::new(generate::path(vertices));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let inputs = (0..n).map(|i| vs[i % vs.len()]).collect();
        Instance {
            n,
            t,
            tree,
            inputs,
            max_events: 200_000,
        }
    }

    fn signature(threads: usize) -> crate::ExploreStats {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let r = explore_portfolio(
            &instance,
            assignment,
            3,
            10_000,
            threads,
            &|exec: &Execution, _: &[usize]| match &exec.result {
                Ok(_) => None,
                Err(e) => Some(format!("unexpected error: {e:?}")),
            },
        );
        assert!(r.failure.is_none(), "{:?}", r.failure);
        r.stats
    }

    #[test]
    fn thread_counts_are_observationally_equivalent() {
        let baseline = signature(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(signature(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn units_tile_the_schedule_tree() {
        // Every schedule of the sequential explorer appears in exactly
        // one unit, and nothing but the sleep-set rule prunes, so
        // untruncated stats are equal field for field — on an honest
        // instance and on a Byzantine one (the last lattice assignment
        // equivocates).
        for (instance, assignment, depth) in [
            (
                tiny_instance(4, 0, 3),
                enumerate_assignments(0, 3)[0].clone(),
                3,
            ),
            (
                tiny_instance(4, 1, 4),
                enumerate_assignments(1, 4).pop().unwrap(),
                2,
            ),
        ] {
            let probe = execute(&instance, &assignment, &[], depth);
            assert!(probe.branching[0] > 1, "precondition: several units");
            let seq = crate::explore::explore(&instance, &assignment, depth, 100_000, |_, _| None);
            assert!(!seq.stats.truncated);
            let par = explore_portfolio(
                &instance,
                &assignment,
                depth,
                100_000,
                4,
                &|_: &Execution, _: &[usize]| None,
            );
            assert_eq!(par.stats, seq.stats, "{}", assignment.describe());
        }
    }

    #[test]
    fn failures_pick_the_lowest_unit_deterministically() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let fail_all = |_: &Execution, _: &[usize]| Some("synthetic".to_string());
        let r1 = explore_portfolio(&instance, assignment, 2, 10_000, 4, &fail_all);
        let r2 = explore_portfolio(&instance, assignment, 2, 10_000, 2, &fail_all);
        let f1 = r1.failure.expect("fails");
        let f2 = r2.failure.expect("fails");
        assert_eq!(f1, f2);
    }

    #[test]
    fn budget_split_is_exact_and_thread_count_independent() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let units = execute(&instance, assignment, &[], 3).branching[0];
        // Budgets below, at and off a multiple of the unit count.
        for max_runs in [units - 1, 2 * units, 40, 41] {
            let run = |threads| {
                explore_portfolio(
                    &instance,
                    assignment,
                    3,
                    max_runs,
                    threads,
                    &|_: &Execution, _: &[usize]| None,
                )
                .stats
            };
            let baseline = run(1);
            assert!(baseline.truncated);
            assert_eq!(baseline.executions, max_runs, "max_runs = {max_runs}");
            for threads in [2, 4, 7] {
                assert_eq!(run(threads), baseline, "threads = {threads}");
            }
        }
    }
}
