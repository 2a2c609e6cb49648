//! Runs every workload at its smoke size, untraced and traced, through
//! the real binary, and checks the result line against `BENCHMARK.json`,
//! so the harness cannot rot between the runs that measure with it.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use rabitq_serve::Json;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let attempted = result
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    assert!(attempted >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object missing");
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(got, want, "{workload}: metrics differ from BENCHMARK.json");
    if !trace {
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
        }
    }
}

#[test]
fn benchmark_workloads_are_runnable_workloads() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, ["serve_search", "batch_highdim"]);
}

/// Every workload the binary knows, including `serve_mixed`, which
/// `BENCHMARK.json` leaves out (see `spec.rs`). One at a time: the
/// open-loop generators judge their own lateness, which parallel runs on
/// a small machine would distort.
#[test]
fn every_workload_runs_at_smoke_size() {
    for workload in ["serve_search", "batch_highdim", "serve_mixed"] {
        check(workload, false);
        check(workload, true);
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(64));
    assert!(out.stdout.is_empty());
}
