//! The repository benchmark: one command runs a named workload against
//! the RaBitQ serving stack through its public APIs, checks every
//! answer, and prints every end-to-end metric (or, with `--trace 1`,
//! every per-layer metric) by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_search`, `batch_highdim`, `serve_mixed` (see
//! `spec.rs` and `BENCHMARK.json` for why each exists). `--smoke` runs a
//! tiny size of the workload that finishes in seconds.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A human-readable summary and the provenance go to standard error; the
//! full result (provenance, metrics, generator health, check messages)
//! goes to `perfbench/out/<workload>-seed<seed>-trace<t>.json`, and a
//! traced run also writes its spans to `…-seed<seed>.spans.jsonl`.
//!
//! Exit codes: 0 when every check passed; 1 when any answer check
//! failed (the result line says `"correct": false`); 2 when the run is
//! invalid because an open-loop generator's backlog grew (no result
//! line); 64 on a usage error.

mod http;
mod load;
mod probe;
mod run;
mod spec;
mod stats;
mod trace;

use rabitq_core::hw;
use spec::Spec;
use stats::{json_num, json_str, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("search_qps", "1/s"),
    ("search_p50_ms", "ms"),
    ("recall_at_k", "1"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_vector", "B"),
    ("reopen_s", "s"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A layer a workload does
/// not exercise reports 0 (e.g. every `serve.*` on `batch_highdim`).
const PER_LAYER: [(&str, &str); 39] = [
    ("serve.rtt_us", "us"),
    ("serve.router_us", "us"),
    ("serve.edge_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.shed_total", "count"),
    ("serve.expired_total", "count"),
    ("serve.unattributed_frac", "1"),
    ("serve.insert_rtt_us", "us"),
    ("store.search_us", "us"),
    ("store.segments_per_query", "count"),
    ("store.memtable_rows", "count"),
    ("store.insert_us", "us"),
    ("store.wal_bytes_per_insert", "B"),
    ("store.wal_fsyncs", "count"),
    ("store.seal_ms", "ms"),
    ("store.seals", "count"),
    ("store.compact_ms", "ms"),
    ("store.compactions", "count"),
    ("store.compaction_bytes_rewritten", "B"),
    ("store.io_retries", "count"),
    ("store.reopen_ms", "ms"),
    ("ivf.search_us", "us"),
    ("ivf.buckets_probed", "count"),
    ("ivf.candidates_estimated", "count"),
    ("ivf.candidates_reranked", "count"),
    ("ivf.rerank_ratio", "1"),
    ("ivf.stage.rotate_us", "us"),
    ("ivf.stage.lut_build_us", "us"),
    ("ivf.stage.scan_us", "us"),
    ("ivf.stage.rerank_us", "us"),
    ("ivf.stage.merge_us", "us"),
    ("core.rotate_us", "us"),
    ("core.quantize_us", "us"),
    ("core.lut_build_us", "us"),
    ("core.scan_ns_per_code", "ns"),
    ("core.encode_us_per_vector", "us"),
    ("kmeans.train_ms", "ms"),
    ("kmeans.probe_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` when there is
/// one.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, spec: &Spec, root: &Path) -> String {
    let features: Vec<String> = hw::cpu_features().iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"params\":{},\
         \"git_commit\":{},\"nproc\":{},\"kernel\":{},\"cpu_features\":[{}],\"rustc\":{}}}",
        json_str(spec.name),
        args.seed,
        json_num(args.seconds),
        args.trace,
        args.smoke,
        json_str(&spec.describe()),
        json_str(&git_commit(root)),
        hw::cores(),
        json_str(hw::active_kernel()),
        features.join(","),
        json_str(env!("PERFBENCH_RUSTC_VERSION"))
    )
}

fn metrics_json(list: &[(&str, &str)], m: &Metrics) -> String {
    let fields: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(m.get(name).unwrap_or(0.0)),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                spec::NAMES.join("|")
            );
            return ExitCode::from(64);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.smoke) else {
        eprintln!(
            "error: unknown workload {:?}; one of {}",
            args.workload,
            spec::NAMES.join(", ")
        );
        return ExitCode::from(64);
    };

    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(&bench_dir).to_path_buf();
    let out_dir = bench_dir.join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the benchmark's work directory");
    let prov = provenance(&args, &spec, &root);
    eprintln!("perfbench provenance: {prov}");

    let tracer = Tracer::new(args.trace);
    let threads = hw::cores();
    let run = run::Run {
        spec: &spec,
        seed: args.seed,
        seconds: args.seconds,
        threads,
        tracer: &tracer,
        work: work.clone(),
    };
    let mut outcome = run.execute();
    std::fs::remove_dir_all(&work).ok();
    outcome.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");

    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| outcome.e2e.get(n).is_none())
        .collect();
    assert!(
        missing.is_empty(),
        "workload left end-to-end metrics unset: {missing:?}"
    );

    let checks = &outcome.checks;
    let correct = checks.failed() == 0 && outcome.invalid.is_none();
    let (list, metrics): (&[(&str, &str)], &Metrics) = if args.trace {
        (&PER_LAYER, &outcome.layer)
    } else {
        (&END_TO_END, &outcome.e2e)
    };

    // Human-readable summary.
    eprintln!(
        "perfbench {} seed={} trace={}: attempted={} failed={}",
        spec.name,
        args.seed,
        args.trace,
        checks.attempted(),
        checks.failed()
    );
    for (name, unit) in list {
        eprintln!(
            "  {name:<34} {:>14.4} {unit}",
            metrics.get(name).unwrap_or(0.0)
        );
    }
    if args.trace {
        eprintln!("  (traced end-to-end, for the tracing overhead)");
        for (name, unit) in END_TO_END {
            eprintln!(
                "  {name:<34} {:>14.4} {unit}",
                outcome.e2e.get(name).unwrap_or(0.0)
            );
        }
    }
    for msg in checks.messages() {
        eprintln!("  check failed: {msg}");
    }

    // The full result artifact.
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let violations: Vec<String> = checks.messages().iter().map(|m| json_str(m)).collect();
    let mut artifact = format!(
        "{{\"provenance\":{prov},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"invalid\":{},\
         \"violations\":[{}],\"end_to_end\":{},\"notes\":{{{}}}",
        checks.attempted(),
        checks.failed(),
        outcome.invalid.as_deref().map_or("null".into(), json_str),
        violations.join(","),
        metrics_json(&END_TO_END, &outcome.e2e),
        notes.join(",")
    );
    if args.trace {
        let spans = out_dir.join(format!("{}-seed{}.spans.jsonl", spec.name, args.seed));
        let self_times: Vec<String> = tracer
            .self_times()
            .iter()
            .map(|(name, st)| {
                format!(
                    "{}:{{\"count\":{},\"mean_self_us\":{},\"total_ms\":{}}}",
                    json_str(name),
                    st.count,
                    json_num(st.mean_self_us()),
                    json_num(st.total_ns as f64 / 1e6)
                )
            })
            .collect();
        artifact.push_str(&format!(
            ",\"per_layer\":{},\"self_time\":{{{}}},\"spans_file\":{}",
            metrics_json(&PER_LAYER, &outcome.layer),
            self_times.join(","),
            json_str(&spans.display().to_string())
        ));
        if let Err(e) = tracer.write(&spans, &prov) {
            eprintln!("warning: could not write {}: {e}", spans.display());
        }
    }
    artifact.push('}');
    let path = out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, artifact) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }

    if let Some(reason) = &outcome.invalid {
        eprintln!("run invalid, not reported: {reason}");
        return ExitCode::from(2);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted(),
        checks.failed(),
        metrics_json(list, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
