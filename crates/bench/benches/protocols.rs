//! Criterion benches for the auxiliary protocols: gradecast batches,
//! phase-king BA, and the asynchronous safe-area protocol.

use std::sync::Arc;

use async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{run_async, AsyncConfig, DelayModel, PassiveAsync};
use bench::spaced_inputs;
use byz_agreement::{PhaseKingConfig, PhaseKingParty};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gradecast::BatchGradecastProtocol;
use sim_net::{run_simulation, Passive, SimConfig};
use tree_model::generate;

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    for &(n, t) in &[(7usize, 2usize), (13, 4)] {
        g.bench_with_input(BenchmarkId::new("gradecast_batch", n), &n, |b, _| {
            b.iter(|| {
                run_simulation(
                    SimConfig {
                        n,
                        t,
                        max_rounds: 8,
                    },
                    |id, nn| BatchGradecastProtocol::new(id, nn, t, id.index() as u64),
                    Passive,
                )
                .unwrap()
            })
        });

        g.bench_with_input(BenchmarkId::new("phase_king", n), &n, |b, _| {
            let cfg = PhaseKingConfig::new(n, t).unwrap();
            b.iter(|| {
                run_simulation(
                    SimConfig {
                        n,
                        t,
                        max_rounds: cfg.rounds() + 5,
                    },
                    |id, _| PhaseKingParty::new(id, cfg, id.index() as u64),
                    Passive,
                )
                .unwrap()
            })
        });
    }

    for &size in &[64usize, 512] {
        let tree = Arc::new(generate::path(size));
        let (n, t) = (7usize, 2usize);
        let inputs = spaced_inputs(&tree, n, size / n + 1);
        let cfg = AsyncTreeAaConfig::new(n, t, &tree).unwrap();
        g.bench_with_input(BenchmarkId::new("async_tree_aa", size), &size, |b, _| {
            b.iter(|| {
                run_async(
                    AsyncConfig {
                        n,
                        t,
                        seed: 7,
                        delay: DelayModel::Uniform { min: 0.2 },
                        max_events: 10_000_000,
                    },
                    |id, _| {
                        AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()])
                    },
                    PassiveAsync,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
