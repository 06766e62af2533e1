//! Every workload at toy size with tracing on, the schema the driver
//! holds `BENCHMARK.json` to, and the binary's output contract.

use std::collections::BTreeSet;

use aa_codec::Json;
use treeaa_benchmark::ledger::{tcp_ledger_parts, TcpLayer};
use treeaa_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use treeaa_benchmark::runner::{reported, run_workload, Options, Outcome};
use treeaa_benchmark::workloads::{Shape, Workload, WORKLOADS};

fn toy(name: &str, seed: u64, trace: bool) -> Outcome {
    let workload = Workload::named(name)
        .expect("a workload of the benchmark")
        .toy();
    let outcome = run_workload(&Options {
        workload,
        seed,
        seconds: None,
        trace,
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(outcome.failed, 0, "{name}: {:#?}", outcome.notes);
    // One warm-up per set-up (five untraced, one traced) and two timed
    // runs, plus five traced and, on TCP, five no-WAL runs.
    let expected = match (trace, workload.is_tcp()) {
        (false, _) => 5 + 2,
        (true, false) => 1 + 2 + 5,
        (true, true) => 1 + 2 + 5 + 5,
    };
    assert_eq!(outcome.attempted, expected, "{name}");
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .values
        .get(name)
        .unwrap_or_else(|| panic!("`{name}` was not computed"))
}

/// End-to-end metrics are all present and positive (a regression bound is
/// a share of the value, so none may be 0), on two seeds.
fn check_end_to_end(name: &str) {
    for seed in [1, 2] {
        let outcome = toy(name, seed, false);
        let metrics = reported(&outcome, false).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (d, v) in metrics {
            // A toy run can finish inside one 10 ms tick of the CPU clock.
            let positive = v > 0.0 || (d.name == "cpu_ms_per_agreement" && v == 0.0);
            assert!(
                v.is_finite() && positive,
                "{name} seed {seed}: {} = {v}",
                d.name
            );
        }
    }
}

/// The traced TCP ledger adds up to the traced run wall.
fn check_tcp(name: &str, layer: TcpLayer) {
    check_end_to_end(name);
    let outcome = toy(name, 1, true);
    let parts: f64 = tcp_ledger_parts(layer)
        .iter()
        .map(|p| value(&outcome, p))
        .sum();
    let wall = value(&outcome, "bench.traced_run_wall_ms");
    let unattributed = value(&outcome, "net.node.unattributed_ms");
    assert!(
        (parts + unattributed - wall).abs() <= 1e-9 * wall,
        "{name}: {parts} + {unattributed} != {wall}"
    );
    assert!(
        parts > 0.0 && unattributed > 0.0,
        "{name}: {parts}, {unattributed}"
    );
    assert_eq!(value(&outcome, "bench.replayed_runs"), 5.0);
    for zero in [
        "net.node.rejects",
        "net.node.reconnects",
        "net.node.send_drops",
        "async-net.retransmissions",
    ] {
        assert_eq!(value(&outcome, zero), 0.0, "{name}: {zero}");
    }
    for positive in [
        "net.codec.encode_ns_per_byte",
        "net.mac.ns_per_byte",
        "net.frame.frames_per_run",
        "net.wal.append_us_per_record",
        "net.wal.amplification",
        "net.wal.scan_ms_per_run",
        "net.wal.on_off_latency_ratio",
        "async-net.handler_calls",
    ] {
        assert!(value(&outcome, positive) > 0.0, "{name}: {positive}");
    }
    assert!(
        outcome.values.get("sim-net.engine_self_ms").is_none(),
        "{name} has no engine"
    );
}

/// The traced lockstep ledger adds up too (one worker at toy size).
fn check_sim(name: &str, layer: &str) {
    check_end_to_end(name);
    let outcome = toy(name, 1, true);
    let m = |suffix: &str| value(&outcome, &format!("{layer}.{suffix}"));
    let wall = value(&outcome, "bench.traced_run_wall_ms");
    let sum = m("party_new_ms") + m("step_ms") + value(&outcome, "sim-net.engine_self_ms");
    assert!((sum - wall).abs() <= 1e-9 * wall, "{name}: {sum} != {wall}");
    assert!(value(&outcome, "sim-net.messages_per_run") > 0.0);
    assert!(
        outcome.values.get("net.node.bringup_ms").is_none(),
        "{name} has no transport"
    );
}

#[test]
fn tcp_bundle_wal() {
    check_tcp("tcp-bundle-wal", TcpLayer::RealAa);
}

#[test]
fn tcp_solo_wal() {
    check_tcp("tcp-solo-wal", TcpLayer::RealAa);
}

#[test]
fn tcp_treeaa_wal() {
    check_tcp("tcp-treeaa-wal", TcpLayer::AsyncAa);
}

#[test]
fn sim_bundle() {
    check_sim("sim-bundle", "real-aa");
}

#[test]
fn sim_treeaa_bigtree() {
    check_sim("sim-treeaa-bigtree", "tree-aa");
}

#[test]
fn sim_treeaa_wide() {
    assert!(matches!(
        Workload::named("sim-treeaa-wide").unwrap().toy().shape,
        Shape::SimTreeAa { n: 16, .. }
    ));
    check_sim("sim-treeaa-wide", "tree-aa");
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string field `{key}`"))
}

fn keys(obj: &Json) -> BTreeSet<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `BENCHMARK.json` names exactly the workloads and metrics the runner
/// prints, with the same units, directions and bounds.
#[test]
fn benchmark_json_matches_the_runner() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| j.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml") && command.last() == Some(&"run"));
    let run_seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&run_seconds));

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let listed: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(listed, WORKLOADS.map(|w| w.name));
    for (w, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
        assert!(well_formed(spec.name));
        assert_eq!(str_field(w, "why"), spec.why);
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let check_table = |key: &str, table: &[MetricDef], bounded: bool| {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (j, d) in listed.iter().zip(table) {
            let mut expect = BTreeSet::from(["name", "unit", "better"]);
            if bounded {
                expect.insert("bound");
            }
            assert_eq!(keys(j), expect, "{}", d.name);
            assert!(well_formed(d.name), "{}", d.name);
            assert_eq!(str_field(j, "name"), d.name);
            assert_eq!(str_field(j, "unit"), d.unit, "{}", d.name);
            assert_eq!(str_field(j, "better"), d.better.as_str(), "{}", d.name);
            if bounded {
                let Some(Json::Num(bound)) = j.get("bound") else {
                    panic!("{}: bound", d.name)
                };
                assert_eq!(Some(*bound), d.bound, "{}", d.name);
                assert!((0.0..=0.25).contains(bound));
            }
        }
    };
    check_table("end_to_end", &END_TO_END, true);
    check_table("per_layer", &PER_LAYER, false);
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

/// The binary, as the driver calls it: the last line of standard output
/// is one JSON object with exactly `correct`, `attempted`, `failed` and
/// `metrics`, holding every end-to-end metric (`--trace 0`) or every
/// per-layer metric (`--trace 1`) with its unit.
#[test]
fn binary_prints_the_result_line() {
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_treeaa-benchmark"))
            .args([
                "run",
                "--workload",
                "tcp-solo-wal",
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                trace,
            ])
            .output()
            .expect("the benchmark binary runs");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(output.status.success(), "{stdout}");
        let result = Json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
        assert_eq!(
            keys(&result),
            BTreeSet::from(["correct", "attempted", "failed", "metrics"])
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = result.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            table.iter().map(|d| d.name).collect::<BTreeSet<_>>()
        );
        for d in table {
            let m = metrics.get(d.name).unwrap();
            assert_eq!(keys(m), BTreeSet::from(["value", "unit"]));
            assert_eq!(str_field(m, "unit"), d.unit);
            assert!(
                matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
                "{}",
                d.name
            );
        }
        // Every metric is also printed by name with its unit.
        for d in table {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(d.name) && l.ends_with(d.unit)),
                "{}",
                d.name
            );
        }
    }
}

#[test]
fn unknown_arguments_are_refused_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--frobnicate"],
        &["repeat", "1"],
        &[],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_treeaa-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
