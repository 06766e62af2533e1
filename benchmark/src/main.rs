//! `treeaa-benchmark run | repeat` — see `benchmark/README.md`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use aa_codec::Json;
use treeaa_benchmark::metrics::{MetricDef, END_TO_END};
use treeaa_benchmark::runner::{host, reported, run_workload, Options, Outcome};
use treeaa_benchmark::stats::{median, quartile_spread};
use treeaa_benchmark::workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: treeaa-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
       treeaa-benchmark repeat <sets> [--seed S] [--seconds T]

run     one workload in this process, or (without --workload) every workload
        in a child process of its own; prints every metric by name with its
        unit and, as the last line, one JSON object.
repeat  the full benchmark <sets> times on one seed; per workload x end-to-end
        metric, each set's value, the spread between sets and PASS/FAIL
        against the metric's bound. With fixed run counts the counted metrics
        of the in-process workloads must agree exactly.

--seed defaults to 1. Without --seconds every workload does its fixed number
of runs; with it, each phase is cut off after T seconds instead.";

/// The flags both subcommands take.
#[derive(Clone, Debug)]
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    /// `repeat`'s <sets>.
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                flags.workload =
                    Some(Workload::named(name).ok_or_else(|| {
                        format!("unknown workload `{name}`; one of: {}", known())
                    })?);
            }
            "--seed" => {
                flags.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` is the
                // spelling the benchmark driver uses.
                flags.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

impl Flags {
    fn options(&self, workload: Workload) -> Options {
        Options {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
        }
    }

    /// The arguments that make a child process run `workload` as this
    /// process would.
    fn child_args(&self, workload: &Workload) -> Vec<String> {
        let mut args = vec![
            "run".to_string(),
            "--workload".into(),
            workload.name.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ];
        if let Some(s) = self.seconds {
            args.extend(["--seconds".into(), s.to_string()]);
        }
        args
    }
}

/// The last-line JSON object of one workload's run.
fn result_json(outcome: &Outcome, metrics: &[(MetricDef, f64)], correct: bool) -> Json {
    let metrics = metrics
        .iter()
        .map(|(d, v)| {
            let entry = vec![
                ("value".to_string(), Json::Num(*v)),
                ("unit".to_string(), Json::Str(d.unit.to_string())),
            ];
            (d.name.to_string(), Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::int(outcome.attempted)),
        ("failed".into(), Json::int(outcome.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Runs one workload in this process and prints its report. Returns
/// whether everything was correct.
fn run_one(flags: &Flags, workload: Workload) -> Result<bool, String> {
    println!("workload {} ({:?})", workload.name, workload.shape);
    println!("why: {}", workload.why);
    println!("host: {}", host(flags.seed));
    let outcome = run_workload(&flags.options(workload))?;
    for note in &outcome.notes {
        println!("{note}");
    }
    // The human-readable report has every metric computed; the JSON line
    // has the end-to-end metrics, or with tracing on the per-layer ones.
    for (d, v) in outcome.values.complete(&END_TO_END)? {
        println!("{:<44} {v:>16.4} {}", d.name, d.unit);
    }
    let metrics = reported(&outcome, flags.trace)?;
    if flags.trace {
        for (d, v) in &metrics {
            println!("{:<44} {v:>16.4} {}", d.name, d.unit);
        }
    }
    let correct = outcome.failed == 0;
    println!("{}", result_json(&outcome, &metrics, correct));
    Ok(correct)
}

/// Runs `workload` in a child process, echoing its output, and returns
/// the parsed last line.
fn run_child(flags: &Flags, workload: &Workload) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(flags.child_args(workload))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let json = Json::parse(last).map_err(|e| {
        format!(
            "{}: exit {:?}, no result line ({e})",
            workload.name,
            output.status.code()
        )
    })?;
    if !output.status.success() {
        println!("{}: exit {:?}", workload.name, output.status.code());
    }
    Ok(json)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn is_correct(result: &Json) -> bool {
    matches!(result.get("correct"), Some(Json::Bool(true)))
}

/// `run` without `--workload`: every workload in its own child.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let mut all_correct = true;
    let mut by_workload = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in &WORKLOADS {
        println!();
        match run_child(flags, w) {
            Ok(result) => {
                all_correct &= is_correct(&result);
                attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
                by_workload.push((w.name.to_string(), result));
            }
            Err(e) => {
                println!("{e}");
                all_correct = false;
            }
        }
    }
    println!();
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(all_correct)),
            ("attempted".into(), Json::int(attempted)),
            ("failed".into(), Json::int(failed)),
            ("workloads".into(), Json::Obj(by_workload)),
        ])
    );
    Ok(all_correct)
}

/// `repeat <sets>`: the repeatability check.
fn repeat(flags: &Flags) -> Result<bool, String> {
    let sets: u64 = match flags.positional.as_slice() {
        [n] => n.parse().map_err(|e| format!("<sets>: {e}"))?,
        _ => return Err("repeat takes exactly one <sets>".into()),
    };
    if sets < 2 {
        return Err("a spread needs at least two sets".into());
    }
    let flags = Flags {
        trace: false,
        ..flags.clone()
    };
    // values[(workload, metric)] = one value per set.
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for set in 0..sets {
        for w in &WORKLOADS {
            println!("\n== set {set}, seed {}, {}", flags.seed, w.name);
            let result = run_child(&flags, w)?;
            all_ok &= is_correct(&result);
            for d in &END_TO_END {
                let v = metric_value(&result, d.name)
                    .ok_or_else(|| format!("{}: `{}` missing from the output", w.name, d.name))?;
                values.entry((w.name, d.name)).or_default().push(v);
            }
        }
    }
    println!("\nspread = (Q3 - Q1) / median over the sets, quartiles as Python's statistics.quantiles(n=4)");
    for w in &WORKLOADS {
        println!("\n{}", w.name);
        for d in &END_TO_END {
            let vs = &values[&(w.name, d.name)];
            let spread = quartile_spread(vs);
            let bound = d.bound.expect("end-to-end metrics have bounds");
            // In process, with fixed run counts, one seed gives the same
            // rounds and bytes every time; a time budget changes how
            // many runs the mean is over.
            let exact = !w.is_tcp()
                && flags.seconds.is_none()
                && matches!(d.name, "rounds_to_decision" | "bytes_per_agreement");
            let pass = if exact {
                vs.iter().all(|v| *v == vs[0])
            } else {
                spread <= bound
            };
            all_ok &= pass;
            println!(
                "  {:<26} median {:>14.4} {:<6} spread {:>7.4} bound {:>5.2} ({} is better) {}{}  {:?}",
                d.name,
                median(vs),
                d.unit,
                spread,
                bound,
                d.better.as_str(),
                if pass { "PASS" } else { "FAIL" },
                if exact { " (exact)" } else { "" },
                vs
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_flags(rest).and_then(|flags| match flags.workload {
                Some(w) => run_one(&flags, w),
                None => run_all(&flags),
            })
        }
        Some((cmd, rest)) if cmd == "repeat" => parse_flags(rest).and_then(|f| repeat(&f)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
