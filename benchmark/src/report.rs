//! The parent side of a run: spawn the children, pool their samples,
//! turn them into named metrics.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::harness::reference_bits;
use crate::json::Json;
use crate::spec::{MetricDef, Workload, CHILDREN, END_TO_END, PER_LAYER, REFERENCE_SEED};
use crate::stats::{median, midmean, percentile, Summary};

/// What to run for one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Full-size workload (quick sizing is applied by the child).
    pub workload: Workload,
    /// Seed of the trace and of the serve positions.
    pub seed: u64,
    /// Timed seconds of the whole run, divided among the children.
    pub seconds: f64,
    /// `--quick`: one child, fixed small pass counts.
    pub quick: bool,
    /// Traced run: one child, per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Directory for store roots and trace files.
    pub out: PathBuf,
}

/// One workload's result: the contract's four keys, plus the detail
/// (quartiles, sample counts, failure reasons) behind them.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub result: Json,
    /// Summaries and counts that do not fit the contract line.
    pub detail: Json,
}

/// Spawns one child of this executable and parses its report line.
fn spawn_child(cfg: &RunConfig, seconds: f64, index: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", cfg.workload.name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--child", &index.to_string()])
        .args(cfg.quick.then_some("--quick"))
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out)
        // One malloc arena: left to itself glibc spreads the threaded
        // workload's short-lived threads over several, and a child's
        // peak RSS then lands anywhere in 152-181 MiB (one arena: 109-110)
        // with no timing the better for it (README, "Noise").
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child report: {e}"))
}

/// Appends `def` with its measured `value` to a `metrics` object.
fn push_metric(metrics: &mut Json, def: &MetricDef, value: f64) {
    let mut m = Json::obj();
    m.set("value", value);
    m.set("unit", def.unit);
    metrics.set(def.name, m);
}

/// Runs one workload: `CHILDREN` fresh processes for an untraced run
/// (one for a quick or traced run), samples pooled before any median.
///
/// # Errors
///
/// Fails when a child cannot be spawned or prints no report; failed
/// *operations* are not errors, they are counted in the result.
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    // A traced child also runs traced passes, the stage replay and the
    // local and protocol probes; half the timed budget keeps its wall
    // time near an untraced run's.
    let (children, seconds) = if cfg.quick || cfg.trace {
        (1, cfg.seconds / 2.0)
    } else {
        (CHILDREN, cfg.seconds / CHILDREN as f64)
    };
    let mut reports = Vec::new();
    for index in 0..children {
        reports.push(spawn_child(cfg, seconds, index)?);
    }
    let field = |key: &str| -> Vec<f64> {
        reports
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::num))
            .collect()
    };
    let pooled = |key: &str| -> Vec<f64> {
        reports
            .iter()
            .flat_map(|r| r.get(key).map(Json::nums).unwrap_or_default())
            .collect()
    };
    let per_child_percentile = |p: f64| -> Vec<f64> {
        reports
            .iter()
            .filter_map(|r| r.get("serve_ms").map(|ops| percentile(&ops.nums(), p)))
            .collect()
    };
    let mut attempted: f64 = field("attempted").iter().sum();
    let mut failed: f64 = field("failed").iter().sum();
    let mut failures: Vec<Json> = reports
        .iter()
        .flat_map(|r| r.get("failures").map_or(&[][..], Json::items).to_vec())
        .collect();

    // What must repeat exactly does: every child saw the same trace and
    // wrote the same bytes.
    let filtered = field("filtered");
    let bits = field("bits_per_address");
    if filtered.len() != children || bits.len() != children {
        failed += 1.0;
        failures.push("a child did not finish its pack phase".into());
    }
    if filtered.windows(2).any(|p| p[0] != p[1]) || bits.windows(2).any(|p| p[0] != p[1]) {
        failed += 1.0;
        failures.push("filtered count or bits/address differ between children".into());
    }

    // The reported bits/address is that of the reference-seed trace,
    // packed here once: it repeats exactly whatever `--seed` is.
    let mut reference = 0.0;
    if !cfg.trace {
        let w = if cfg.quick {
            cfg.workload.quick()
        } else {
            cfg.workload.clone()
        };
        attempted += 1.0;
        match reference_bits(&w, &cfg.out) {
            Ok(b) => {
                reference = b;
                if cfg.seed == REFERENCE_SEED && bits.first() != Some(&b) {
                    failed += 1.0;
                    failures.push("reference pack and children disagree on bits/address".into());
                }
            }
            Err(e) => {
                failed += 1.0;
                failures.push(format!("reference pack: {e}").into());
            }
        }
    }

    let (pack_s, scan_s, serve_ms) = (pooled("pack_s"), pooled("scan_s"), pooled("serve_ms"));
    let serve_rounds = pooled("serve_round_mvalues_s");
    let n_raw = field("n_raw").first().copied().unwrap_or(0.0);
    let n_filtered = filtered.first().copied().unwrap_or(0.0);
    let mut metrics = Json::obj();
    if cfg.trace {
        let layer = reports[0].get("layer").cloned().unwrap_or(Json::obj());
        for def in PER_LAYER {
            let value = layer.get(def.name).and_then(Json::num).unwrap_or_else(|| {
                failed += 1.0;
                failures.push(format!("per-layer metric {} was not measured", def.name).into());
                0.0
            });
            push_metric(&mut metrics, def, value);
        }
    } else {
        for def in END_TO_END {
            let value = match def.name {
                "setup_s" => median(&field("setup_s")),
                "pack_raw_maddr_s" => n_raw / median(&pack_s) / 1e6,
                "scan_maddr_s" => n_filtered / median(&scan_s) / 1e6,
                // The middle half's mean, not the median: a round of
                // the hot/cold mix holds one or two cold ops costing
                // two to six segment decodes each, and the median of
                // forty such rounds moves with the draw of positions.
                "serve_mvalues_s" => midmean(&serve_rounds),
                "serve_op_p50_ms" => median(&serve_ms),
                "bits_per_address" => reference,
                // The mean child, not the median: on the threaded
                // workload a child's peak is one of two levels 9 % apart
                // (which buffers happened to be live together), and the
                // middle of three flips between them.
                "peak_rss_mib" => {
                    let kib = field("peak_rss_kib");
                    kib.iter().sum::<f64>() / kib.len().max(1) as f64 / 1024.0
                }
                other => unreachable!("no rule for end-to-end metric {other}"),
            };
            push_metric(&mut metrics, def, value);
        }
    }

    let mut result = Json::obj();
    result.set("correct", failed == 0.0 && attempted > 0.0);
    result.set("attempted", attempted.max(1.0));
    result.set("failed", failed);
    result.set("metrics", metrics);

    let mut detail = Json::obj();
    detail.set("children", children as u64);
    detail.set("n_raw", n_raw);
    detail.set("filtered", n_filtered);
    detail.set(
        "bits_per_address_seed",
        bits.first().copied().unwrap_or(0.0),
    );
    detail.set("setup_s", Summary::of(&field("setup_s")).to_json());
    detail.set("pack_pass_s", Summary::of(&pack_s).to_json());
    detail.set("scan_pass_s", Summary::of(&scan_s).to_json());
    detail.set("serve_op_ms", Summary::of(&serve_ms).to_json());
    detail.set(
        "serve_round_mvalues_s",
        Summary::of(&serve_rounds).to_json(),
    );
    detail.set("serve_op_p90_ms_per_child", per_child_percentile(90.0));
    detail.set("failures", failures);
    Ok(Outcome { result, detail })
}

/// Runs every workload in `workloads` and assembles a result set (the
/// shape `agree` compares and `results/pr11.json` records). `traced`
/// adds a traced run per workload, reported under `"layers"`.
///
/// # Errors
///
/// Propagates [`run_workload`] errors.
pub fn run_suite(workloads: &[Workload], base: &RunConfig, traced: bool) -> Result<Json, String> {
    let mut set = Json::obj();
    set.set("seed", base.seed);
    set.set("seconds", base.seconds);
    set.set("quick", base.quick);
    set.set(
        "cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
    );
    let mut by_name = Json::obj();
    for w in workloads {
        let mut cfg = RunConfig {
            workload: w.clone(),
            trace: false,
            ..base.clone()
        };
        eprintln!("[atc-benchmark] {}: end to end", w.name);
        let end_to_end = run_workload(&cfg)?;
        let traced = if traced {
            cfg.trace = true;
            eprintln!("[atc-benchmark] {}: traced", w.name);
            Some(run_workload(&cfg)?)
        } else {
            None
        };
        // One tally per workload: an operation that failed on the
        // traced run fails the entry like any other.
        let runs = || std::iter::once(&end_to_end).chain(&traced);
        let sum = |key: &str| -> f64 {
            runs()
                .filter_map(|r| r.result.get(key).and_then(Json::num))
                .sum()
        };
        let metrics = |r: &Outcome| r.result.get("metrics").cloned().unwrap_or(Json::Null);
        let mut entry = Json::obj();
        entry.set(
            "correct",
            runs().all(|r| r.result.get("correct") == Some(&Json::Bool(true))),
        );
        entry.set("attempted", sum("attempted"));
        entry.set("failed", sum("failed"));
        entry.set("metrics", metrics(&end_to_end));
        entry.set("detail", end_to_end.detail.clone());
        if let Some(t) = &traced {
            entry.set("layers", metrics(t));
            entry.set(
                "layers_failures",
                t.detail.get("failures").cloned().unwrap_or(Json::Null),
            );
        }
        by_name.set(w.name, entry);
    }
    set.set("workloads", by_name);
    Ok(set)
}

/// Writes `text` to `path`, creating the directory.
///
/// # Errors
///
/// Returns the I/O error as text.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
