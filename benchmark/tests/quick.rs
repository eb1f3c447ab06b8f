//! Every workload, end to end and traced, at `--quick` size — and the
//! contract between the binary's output and `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use atc_benchmark::harness::{checked_scan, pack_pass, setup, Bufs, Tally};
use atc_benchmark::json::Json;
use atc_benchmark::span::Tracer;
use atc_benchmark::spec::{workload, workloads, DEFAULT_SECONDS, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("metric list")
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the real binary on one workload and returns the contract line.
fn run_quick(name: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_atc-benchmark"))
        .args([
            "--workload",
            name,
            "--seed",
            "3",
            "--quick",
            "--trace",
            trace,
        ])
        .arg("--out")
        .arg(scratch("quick"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{name} --trace {trace} exited {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn names_in_benchmark_json_are_the_ones_the_binary_knows() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("name"))
        .collect();
    let known: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    assert_eq!(names, known);
    for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<_> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(declared(&spec, list), ours, "{list}");
    }
    let legal = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let metrics = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name);
    for name in names.into_iter().chain(metrics) {
        assert!(legal(name), "{name} is not a legal name");
    }
    assert_eq!(
        spec.get("run_seconds").and_then(Json::num),
        Some(DEFAULT_SECONDS)
    );
}

#[test]
fn every_workload_passes_its_checks_in_quick_mode() {
    let spec = benchmark_json();
    for w in workloads() {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run_quick(w.name, trace);
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{} {list}",
                w.name
            );
            assert_eq!(line.get("failed").and_then(Json::num), Some(0.0));
            assert!(
                line.get("attempted")
                    .and_then(Json::num)
                    .expect("attempted")
                    >= 1.0
            );
            let emitted: Vec<(String, String)> = line
                .get("metrics")
                .expect("metrics")
                .fields()
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::num);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{} {name} has no value",
                        w.name
                    );
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::str).expect("unit").to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(&spec, list), "{} {list}", w.name);
        }
        // The traced run leaves its spans where the README says.
        let trace_file = scratch("quick").join(format!("trace-{}.json", w.name));
        let trace = Json::parse(&std::fs::read_to_string(trace_file).expect("trace file"))
            .expect("trace JSON");
        assert!(!trace.get("spans").expect("spans").items().is_empty());
    }
}

#[test]
fn a_corrupt_store_byte_is_a_failed_scan_not_a_panic() {
    let w = workload("mixed_lossless_bzip").expect("workload").quick();
    let inputs = setup(&w, 5).expect("set-up");
    let root = scratch("corrupt-store");
    let mut off = Tracer::off();
    pack_pass(&w, &inputs.raw, &root, &mut Bufs::default(), &mut off, 0).expect("pack");

    let mut tally = Tally::default();
    let clean = tally.record(
        "scan pass",
        checked_scan(&w, &inputs, &root, &mut off, 0, &mut None),
    );
    assert!(clean.is_some());
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    let data = root.join("shard-000").join("data.atc");
    let mut bytes = std::fs::read(&data).expect("shard payload");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x40;
    std::fs::write(&data, bytes).expect("rewrite payload");

    let broken = tally.record(
        "scan pass",
        checked_scan(&w, &inputs, &root, &mut off, 1, &mut None),
    );
    assert!(broken.is_none());
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(
        tally.failures[0].starts_with("scan pass: "),
        "{:?}",
        tally.failures
    );
    let _ = std::fs::remove_dir_all(&root);
}
