//! Runs one workload: set-up, the untraced timed runs the end-to-end
//! metrics come from, and — with tracing on — the traced runs, the
//! no-WAL runs and the micro-calls the per-layer metrics come from.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use aa_codec::Json;
use sim_net::auto_threads;

use crate::calibrate::Calibrator;
use crate::ledger::{Ledger, SimLayer, TcpLayer};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::micro::{self, MICRO_K, MICRO_N};
use crate::stats::{median, peak_rss_mb, percentile, sorted, tail_percentile, timed};
use crate::timed::{LayerNames, Recorder, Span, ASYNC_AA, REAL_AA, TREE_AA};
use crate::workloads::{Bench, Mode, RunSample, Shape, Workload};

/// Set-up is repeated this many times and `setup_s` is the median, so one
/// slow tree build or warm-up does not decide it.
const SETUPS: usize = 5;
/// A time budget still runs at least this many timed runs.
const MIN_RUNS: usize = 3;
/// Full spans are kept (and written to the trace file) for this many
/// traced runs; later runs only add to the ledger.
const KEPT_SPAN_RUNS: u64 = 3;
/// WAL replays stop once the untimed work around the traced runs (mostly
/// the replays: one `read_wal` of a k = 1000 log takes seconds today) has
/// used this many seconds.
const REPLAY_BUDGET_S: f64 = 6.0;
/// Run ids of warm-up runs start here, apart from the timed runs'.
const WARMUP_BASE: u64 = 1 << 32;
/// Run ids of the traced and no-WAL phases start here.
const TRACED_BASE: u64 = 2 << 32;
const NOWAL_BASE: u64 = 3 << 32;

/// Repetitions of each micro-call (the median is reported).
const MICRO_REPS: usize = 15;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: every phase stops after this many seconds. Without
    /// it a phase does the workload's own fixed run count, so two commits
    /// do identical work.
    pub seconds: Option<f64>,
    /// `--trace`.
    pub trace: bool,
}

/// What one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Runs attempted, warm-ups and traced runs included.
    pub attempted: u64,
    /// Runs that errored, timed out, ended degraded or failed a check.
    pub failed: u64,
    /// Every metric computed: the end-to-end ones always, the per-layer
    /// ones when tracing was on.
    pub values: Values,
    /// Human-readable lines: the load model, sample counts, the paper
    /// constant, failures.
    pub notes: Vec<String>,
}

#[derive(Default)]
struct Phase {
    samples: Vec<RunSample>,
    errors: Vec<String>,
}

impl Phase {
    fn attempted(&self) -> u64 {
        (self.samples.len() + self.errors.len()) as u64
    }
}

/// Runs runs numbered from `first` until the budget is used. `mode` is
/// asked before every run; `after` sees every successful run and the
/// seconds `run_once` spent around it (generating inputs, computing the
/// reference, checking, replaying).
fn phase<'a>(
    bench: &Bench,
    runs: usize,
    seconds: Option<f64>,
    first: u64,
    mut mode: impl FnMut() -> Mode<'a>,
    mut after: impl FnMut(u64, &RunSample, f64),
) -> Phase {
    let start = Instant::now();
    let mut out = Phase::default();
    for i in 0.. {
        let done = match seconds {
            Some(s) => i >= MIN_RUNS && start.elapsed().as_secs_f64() >= s,
            None => i >= runs,
        };
        if done {
            break;
        }
        let (total_s, result) = timed(|| bench.run_once(first + i as u64, mode()));
        match result {
            Ok(sample) => {
                after(i as u64, &sample, total_s - sample.wall_s);
                out.samples.push(sample);
            }
            Err(e) => out.errors.push(format!("run {i}: {e}")),
        }
    }
    out
}

fn ignore(_: u64, _: &RunSample, _: f64) {}

/// Runs the workload and computes its metrics.
///
/// # Errors
///
/// If set-up fails, or no timed run succeeded (then there is no latency
/// to report).
pub fn run_workload(opts: &Options) -> Result<Outcome, String> {
    let spec = opts.workload;
    let mut notes = vec![format!(
        "load model: closed loop, one driver thread, one run in flight; loopback only, no injected \
         delay (latency = processor time + kernel loopback + virtual-time pacing); host cores: {}",
        cores()
    )];
    let mut attempted = 0;
    let mut errors = Vec::new();

    // The calibration loop is read after every set-up and every timed
    // run: always right after a run of the program under test.
    let mut cal = Calibrator::default();

    // Set-up: tree generation, temp root, warm-up runs. In traced mode
    // `setup_s` is not reported, so once is enough.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        drop(bench.take());
        let (secs, b) = timed(|| -> Result<Bench, String> {
            let b = Bench::new(spec, opts.seed)?;
            let warm = phase(&b, spec.warmups, None, WARMUP_BASE, || Mode::Plain, ignore);
            attempted += warm.attempted();
            errors.extend(warm.errors.into_iter().map(|e| format!("warm-up {e}")));
            Ok(b)
        });
        cal.read();
        bench = Some(b?);
        setup_s.push(secs);
    }
    let bench = bench.expect("at least one set-up");

    // In traced mode a time budget is split between the untraced
    // baseline and the traced runs.
    let (plain_s, traced_s) = if opts.trace {
        (opts.seconds.map(|s| s / 2.0), opts.seconds.map(|s| s / 2.0))
    } else {
        (opts.seconds, None)
    };
    let plain_runs = phase(
        &bench,
        spec.runs,
        plain_s,
        0,
        || Mode::Plain,
        |_, _, _| cal.read(),
    );
    attempted += plain_runs.attempted();
    errors.extend(plain_runs.errors.iter().cloned());
    if plain_runs.samples.is_empty() {
        return Err(format!("no timed run succeeded: {}", errors.join("; ")));
    }

    let mut values = Values::default();
    let walls_ms: Vec<f64> = plain_runs.samples.iter().map(|s| s.wall_s * 1e3).collect();
    end_to_end(
        &mut values,
        &mut notes,
        &bench,
        &plain_runs.samples,
        &walls_ms,
        &setup_s,
        &cal,
    );

    if opts.trace {
        let traced_runs = (spec.runs / 10).max(5);
        let rec = Arc::new(Recorder::default());
        let (inner, workers) = inner_layer(spec.shape);
        let mut ledger = Ledger::default();
        let mut kept: Vec<Span> = Vec::new();
        let around_s = Cell::new(0.0);
        let traced = phase(
            &bench,
            traced_runs,
            traced_s,
            TRACED_BASE,
            || {
                // A failed run never reaches `after`; drop what it recorded.
                rec.drain();
                Mode::Traced {
                    rec: &rec,
                    replay: around_s.get() < REPLAY_BUDGET_S,
                }
            },
            |i, sample, around| {
                around_s.set(around_s.get() + around);
                let spans = rec.drain();
                ledger.add_run(&spans, sample, inner, workers);
                if i < KEPT_SPAN_RUNS {
                    kept.extend(spans);
                }
            },
        );
        attempted += traced.attempted();
        errors.extend(traced.errors.iter().map(|e| format!("traced {e}")));
        if traced.samples.is_empty() {
            return Err(format!("no traced run succeeded: {}", errors.join("; ")));
        }
        let traced_ms: Vec<f64> = traced.samples.iter().map(|s| s.wall_s * 1e3).collect();
        values.set("bench.traced_run_wall_ms", ledger.mean_wall_ms());
        values.set("bench.traced_runs", ledger.runs as f64);
        values.set("bench.replayed_runs", ledger.replayed as f64);
        values.set(
            "bench.trace_overhead_pct",
            (median(&traced_ms) / median(&walls_ms) - 1.0) * 100.0,
        );
        match spec.shape {
            Shape::SimBundle { .. } => ledger.emit_sim(&mut values, SimLayer::RealAa, workers),
            Shape::SimTreeAa { .. } => ledger.emit_sim(&mut values, SimLayer::TreeAa, workers),
            Shape::TcpBundle { .. } => ledger.emit_tcp(&mut values, TcpLayer::RealAa),
            Shape::TcpTreeAa { .. } => ledger.emit_tcp(&mut values, TcpLayer::AsyncAa),
        }

        if spec.is_tcp() {
            let nowal = phase(
                &bench,
                traced_runs,
                traced_s.map(|s| s / 2.0),
                NOWAL_BASE,
                || Mode::NoWal,
                ignore,
            );
            attempted += nowal.attempted();
            errors.extend(nowal.errors.iter().map(|e| format!("no-wal {e}")));
            if !nowal.samples.is_empty() {
                let off: Vec<f64> = nowal.samples.iter().map(|s| s.wall_s * 1e3).collect();
                values.set(
                    "net.wal.on_off_latency_ratio",
                    median(&walls_ms) / median(&off),
                );
            }
        }
        micro_calls(&mut values, &bench);
        match write_trace(&bench, opts, &values, &kept) {
            Ok(path) => notes.push(format!("trace written to {path}")),
            Err(e) => errors.push(format!("trace file: {e}")),
        }
    }

    let failed = errors.len() as u64;
    notes.push(format!(
        "failure_rate {} ({failed} of {attempted} runs)",
        failed as f64 / attempted as f64
    ));
    notes.extend(errors.into_iter().map(|e| format!("FAILED {e}")));
    Ok(Outcome {
        attempted,
        failed,
        values,
        notes,
    })
}

/// Host cores, as the engine's `StepMode::Auto` sees them.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The span names of the workload's inner parties, and how many engine
/// workers step them concurrently.
fn inner_layer(shape: Shape) -> (&'static LayerNames, usize) {
    match shape {
        Shape::SimBundle { .. } => (&REAL_AA, auto_threads(4, cores())),
        Shape::SimTreeAa { n, .. } => (&TREE_AA, auto_threads(n, cores())),
        Shape::TcpBundle { .. } => (&REAL_AA, 1),
        Shape::TcpTreeAa { .. } => (&ASYNC_AA, 1),
    }
}

fn end_to_end(
    values: &mut Values,
    notes: &mut Vec<String>,
    bench: &Bench,
    samples: &[RunSample],
    walls_ms: &[f64],
    setup_s: &[f64],
    cal: &Calibrator,
) {
    let runs = samples.len();
    let agreements = (runs as u64 * bench.spec.agreements_per_run()) as f64;
    let sum = |f: fn(&RunSample) -> f64| samples.iter().map(f).sum::<f64>();
    let walls = sorted(walls_ms);
    let tail = tail_percentile(runs);
    let rounds = sum(|s| s.rounds) / runs as f64;
    let (schedule, paper) = bench.round_bounds();

    // Timed metrics are corrected for host contention: divided by how
    // much slower than its best the calibration loop ran meanwhile.
    let slowdown = cal.slowdown();
    let p50 = percentile(&walls, 50.0);
    values.set(
        "agreements_per_s",
        agreements / sum(|s| s.wall_s) * slowdown,
    );
    values.set("decision_latency_p50_ms", p50 / slowdown);
    values.set(
        "decision_latency_tail_ms",
        percentile(&walls, f64::from(tail)) / slowdown,
    );
    values.set("rounds_to_decision", rounds);
    values.set("bytes_per_agreement", sum(|s| s.bytes as f64) / agreements);
    values.set(
        "cpu_ms_per_agreement",
        sum(|s| s.cpu_s) * 1e3 / agreements / slowdown,
    );
    // Off Linux the metric stays unset and is reported as missing.
    if let Some(mb) = peak_rss_mb() {
        values.set("peak_rss_mb", mb - cal.resident_mb());
    }
    values.set("setup_s", median(setup_s) / slowdown);
    values.set("bench.host_slowdown", slowdown);
    values.set("bench.decision_latency_p50_raw_ms", p50);

    notes.push(format!(
        "{runs} timed runs, {} agreements each; decision_latency_tail_ms is p{tail} of {runs} samples",
        bench.spec.agreements_per_run()
    ));
    notes.push(format!(
        "setup_s is the median of {} set-ups: {setup_s:.4?} s uncorrected",
        setup_s.len()
    ));
    notes.push(format!(
        "host slowdown {slowdown:.4} (median / fastest of {} calibration readings): timed metrics are \
         divided by it; uncorrected decision_latency_p50_ms {p50:.4}",
        cal.readings()
    ));
    notes.push(format!(
        "rounds_to_decision {rounds} = {:.3} x (log2 X / log2 log2 X = {paper:.3}); protocol schedule: {schedule}",
        rounds / paper
    ));
}

fn micro_calls(values: &mut Values, bench: &Bench) {
    if let Some(tree) = bench.tree() {
        let parties = match bench.spec.shape {
            Shape::SimTreeAa { n, .. } => n,
            _ => 4,
        };
        let [list, lca, proj, hull] =
            micro::tree_model_ms(tree, &bench.tree_inputs(0, parties), MICRO_REPS);
        values.set("tree-model.list_construction_ms", list);
        values.set("tree-model.lca_build_ms", lca);
        values.set("tree-model.projection_build_ms", proj);
        values.set("tree-model.hull_ms", hull);
    }
    let [sum_n, mm_n, eq_n] = micro::kernels_ns_per_elem(MICRO_N, MICRO_REPS);
    let [sum_k, mm_k, eq_k] = micro::kernels_ns_per_elem(MICRO_K, MICRO_REPS);
    values.set("aa-kernels.sum_f64_ns_per_elem_n256", sum_n);
    values.set("aa-kernels.sum_f64_ns_per_elem_k10000", sum_k);
    values.set("aa-kernels.min_max_f64_ns_per_elem_n256", mm_n);
    values.set("aa-kernels.min_max_f64_ns_per_elem_k10000", mm_k);
    values.set("aa-kernels.eq_count_u64_ns_per_elem_n256", eq_n);
    values.set("aa-kernels.eq_count_u64_ns_per_elem_k10000", eq_k);
    let (bundle_ns, bundle_bytes) = micro::bundle_gradecast(4, 1, MICRO_K, MICRO_REPS);
    values.set("gradecast.bundle_round_ns_per_instance", bundle_ns);
    values.set("gradecast.bundle_msg_bytes", bundle_bytes as f64);
    values.set(
        "gradecast.batch_round_us_n256",
        micro::batch_gradecast_us(MICRO_N, 85, MICRO_REPS),
    );
    if matches!(
        bench.spec.shape,
        Shape::SimBundle { .. } | Shape::TcpBundle { .. }
    ) {
        values.set("real-aa.iterations", f64::from(bench.round_bounds().0 / 3));
    }
}

/// The `host` block no number should be read without.
#[must_use]
pub fn host(seed: u64) -> Json {
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    Json::Obj(vec![
        ("nproc".into(), Json::int(cores() as u64)),
        ("rustc".into(), Json::Str(tool("rustc", &["--version"]))),
        (
            "git_commit".into(),
            Json::Str(tool("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed".into(), Json::int(seed)),
    ])
}

/// Writes `out/trace-<workload>.json`: the host block, every per-layer
/// value, and the full spans of the first traced runs.
fn write_trace(
    bench: &Bench,
    opts: &Options,
    values: &Values,
    spans: &[Span],
) -> Result<String, String> {
    let dir = crate::workloads::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}.json", bench.spec.name));
    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                Json::Num(values.get(d.name).unwrap_or(0.0)),
            )
        })
        .collect();
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::int(u64::from(s.id)),
                Json::int(u64::from(s.parent)),
                Json::int(u64::from(s.run)),
                if s.party == u32::MAX {
                    Json::Null
                } else {
                    Json::int(u64::from(s.party))
                },
                Json::Str(s.name.to_string()),
                Json::int(u64::from(s.round)),
                Json::int(s.start_ns),
                Json::int(s.end_ns),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(bench.spec.name.to_string())),
        ("shape".into(), Json::Str(format!("{:?}", bench.spec.shape))),
        ("host".into(), host(opts.seed)),
        ("per_layer".into(), Json::Obj(metrics)),
        (
            "span_columns".into(),
            Json::Arr(
                [
                    "id", "parent", "run", "party", "name", "round", "start_ns", "end_ns",
                ]
                .map(|c| Json::Str(c.to_string()))
                .to_vec(),
            ),
        ),
        ("spans".into(), Json::Arr(rows)),
    ]);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

/// The end-to-end metrics of an outcome, or the per-layer ones (every
/// name of the table; a layer off the workload's path reads 0).
///
/// # Errors
///
/// Names the end-to-end metrics that have no value.
pub fn reported(
    outcome: &Outcome,
    trace: bool,
) -> Result<Vec<(crate::metrics::MetricDef, f64)>, String> {
    if trace {
        Ok(PER_LAYER
            .iter()
            .map(|d| (*d, outcome.values.get(d.name).unwrap_or(0.0)))
            .collect())
    } else {
        outcome.values.complete(&END_TO_END)
    }
}
