//! Criterion benches for the combinatorial substrate: the local
//! computations every party performs (ListConstruction, hulls, LCA,
//! projections) at experiment scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gradecast::BatchGradecastProtocol;
use real_aa::{RealAaConfig, RealAaParty};
use sim_net::{
    run_simulation_with, EngineConfig, Inbox, Passive, Payload, Protocol, RoundCtx, SimConfig,
    StepMode,
};
use tree_model::{generate, list_construction, LcaTable, ProjectionTable};

/// Upper bound on engine bench sizes, settable via `BENCH_MAX_N` — CI's
/// bench-smoke job runs with `BENCH_MAX_N=64`, the nightly bench with
/// `BENCH_MAX_N=1024`, and full-scale recording sessions with `4096`.
/// Defaults to 256, the historical ceiling.
fn bench_max_n() -> usize {
    std::env::var("BENCH_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// A broadcast payload with a real heap body, sized like a protocol
/// message carrying a value vector (64 words ≈ a batched state digest).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blob(Vec<u64>);

impl Payload for Blob {
    fn size_bytes(&self) -> usize {
        8 * self.0.len()
    }
}

/// Each party broadcasts a fresh blob every round for `ROUNDS` rounds and
/// then outputs how many messages it saw — pure engine fan-out, no
/// protocol logic to speak of.
struct Flooder {
    rounds: u32,
    seen: usize,
    done: bool,
}

const FLOOD_ROUNDS: u32 = 3;

impl Protocol for Flooder {
    type Msg = Blob;
    type Output = usize;

    fn step(&mut self, round: u32, inbox: &Inbox<Blob>, ctx: &mut RoundCtx<Blob>) {
        self.seen += inbox.len();
        if round <= self.rounds {
            ctx.broadcast(Blob(vec![round as u64; 64]));
        } else {
            self.done = true;
        }
    }

    fn output(&self) -> Option<usize> {
        self.done.then_some(self.seen)
    }
}

/// The engine substrate under protocol-shaped load: broadcast fan-out,
/// a full parallel-gradecast batch, and one `RealAA` iteration, across
/// the experiment scale the message-complexity scenarios use.
fn bench_engine(c: &mut Criterion) {
    let max_n = bench_max_n();
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    // Step modes timed side by side: the sequential baseline and the
    // work-stealing path at a fixed thread count, so recording sessions
    // capture the parallel speedup (or, on few-core hosts, its absence)
    // with everything else held constant.
    let modes: [(&str, StepMode); 2] = [
        ("", StepMode::Sequential),
        ("_par4", StepMode::Parallel { threads: 4 }),
    ];
    for &n in [16usize, 64, 256, 1024, 4096]
        .iter()
        .filter(|&&n| n <= max_n)
    {
        let t = (n - 1) / 3;

        for &(suffix, mode) in &modes {
            let cfg = |n, t, max_rounds| EngineConfig {
                sim: SimConfig { n, t, max_rounds },
                step_mode: mode,
            };

            g.bench_with_input(
                BenchmarkId::new(format!("broadcast_fanout{suffix}"), n),
                &n,
                |b, &n| {
                    b.iter(|| {
                        run_simulation_with(
                            cfg(n, 0, FLOOD_ROUNDS + 2),
                            |_, _| Flooder {
                                rounds: FLOOD_ROUNDS,
                                seen: 0,
                                done: false,
                            },
                            Passive,
                        )
                        .unwrap()
                    })
                },
            );

            g.bench_with_input(
                BenchmarkId::new(format!("gradecast_batch_soa{suffix}"), n),
                &n,
                |b, &n| {
                    b.iter(|| {
                        run_simulation_with(
                            cfg(n, t, 8),
                            |id, nn| BatchGradecastProtocol::new(id, nn, t, id.index() as u64),
                            Passive,
                        )
                        .unwrap()
                    })
                },
            );

            g.bench_with_input(
                BenchmarkId::new(format!("realaa_batch_iteration{suffix}"), n),
                &n,
                |b, &n| {
                    // d = 2, eps = 1: exactly one gradecast-based iteration.
                    let pcfg = RealAaConfig::new(n, t, 1.0, 2.0).unwrap();
                    let inputs: Vec<f64> =
                        (0..n).map(|i| 2.0 * i as f64 / (n - 1) as f64).collect();
                    b.iter(|| {
                        run_simulation_with(
                            cfg(n, t, pcfg.rounds() + 5),
                            |id, _| RealAaParty::new(id, pcfg, inputs[id.index()]),
                            Passive,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    g.finish();
}

/// The kernels in isolation: scalar reference vs dispatching entry point
/// at the sizes the trimmed-mean and hull scans actually see.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    for &len in [64usize, 256, 1024, 4096]
        .iter()
        .filter(|&&l| l <= bench_max_n())
    {
        let xs: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
        let us: Vec<usize> = (0..len).map(|i| i.wrapping_mul(0x9E37) % 7919).collect();
        g.bench_with_input(BenchmarkId::new("sum_f64_ref", len), &len, |b, _| {
            b.iter(|| aa_kernels::sum_f64_ref(&xs))
        });
        g.bench_with_input(BenchmarkId::new("sum_f64", len), &len, |b, _| {
            b.iter(|| aa_kernels::sum_f64(&xs))
        });
        g.bench_with_input(BenchmarkId::new("min_max_f64_ref", len), &len, |b, _| {
            b.iter(|| aa_kernels::min_max_f64_ref(&xs))
        });
        g.bench_with_input(BenchmarkId::new("min_max_f64", len), &len, |b, _| {
            b.iter(|| aa_kernels::min_max_f64(&xs))
        });
        g.bench_with_input(BenchmarkId::new("min_max_usize", len), &len, |b, _| {
            b.iter(|| aa_kernels::min_max_usize(&us))
        });
    }
    g.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &size in &[1024usize, 16384] {
        let path = generate::path(size);
        let cat = generate::caterpillar(size / 3, 2);

        g.bench_with_input(
            BenchmarkId::new("list_construction", size),
            &size,
            |b, _| b.iter(|| list_construction(&cat)),
        );

        g.bench_with_input(BenchmarkId::new("convex_hull", size), &size, |b, _| {
            let s: Vec<_> = cat.vertices().step_by(97).collect();
            b.iter(|| cat.convex_hull(&s))
        });

        g.bench_with_input(BenchmarkId::new("lca_table_build", size), &size, |b, _| {
            b.iter(|| LcaTable::new(&cat))
        });

        g.bench_with_input(BenchmarkId::new("projection_table", size), &size, |b, _| {
            let dia = path.diameter_info().path;
            b.iter(|| ProjectionTable::new(&path, &dia))
        });

        g.bench_with_input(BenchmarkId::new("diameter", size), &size, |b, _| {
            b.iter(|| cat.diameter_info())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_substrate, bench_engine, bench_kernels);
criterion_main!(benches);
