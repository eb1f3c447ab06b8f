//! Command line of `atc-benchmark` (normally reached through `run.sh`).
//!
//! ```text
//! atc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--quick] [--out DIR] [--selfcheck]
//! atc-benchmark agree A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! With `--workload` the last line of stdout is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics.
//! Without it every workload runs and a result set is printed on
//! stdout (logs go to stderr, so `> FILE` saves it); `--trace` then
//! adds the per-layer metrics.

use std::path::PathBuf;

use crate::agree::compare;
use crate::harness::{run_child, Budget, ChildConfig};
use crate::json::Json;
use crate::report::{run_suite, run_workload, write_file, RunConfig};
use crate::spec::{workload, workloads, DEFAULT_SECONDS};

const USAGE: &str = "usage: atc-benchmark [--workload NAME] [--seed N] [--seconds S] \
    [--trace [0|1]] [--quick] [--out DIR] [--selfcheck]\n       \
    atc-benchmark agree A.json B.json [--spec BENCHMARK.json]";

/// Nesting levels a result set is expanded to when printed: set →
/// workloads → workload → metrics, one metric per line.
const SET_LEVELS: usize = 4;

/// Parsed flags.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    child: u64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    out: PathBuf,
    spec: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        child: 0,
        trace: false,
        quick: false,
        selfcheck: false,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                f.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if f.seconds.is_nan() || f.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--child" => {
                f.child = value("--child")?
                    .parse()
                    .map_err(|_| "--child takes a whole number")?
            }
            "--out" => f.out = value("--out")?.into(),
            "--spec" => f.spec = value("--spec")?.into(),
            "--quick" => f.quick = true,
            "--selfcheck" => f.selfcheck = true,
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                f.trace = match it.peek().map(|s| s.as_str()) {
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
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(f: &Flags) -> Result<bool, String> {
    match f.positional.first().map(String::as_str) {
        Some("child") => {
            let name = f.workload.as_deref().ok_or("child needs --workload")?;
            let w = workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
            // One child of a run (spawned by `report::run_workload`):
            // `--seconds` is this child's share, `--child` its index.
            let report = run_child(&ChildConfig {
                workload: if f.quick { w.quick() } else { w },
                seed: f.seed,
                child: f.child,
                budget: if f.quick {
                    Budget::Quick
                } else {
                    Budget::Seconds(f.seconds)
                },
                trace: f.trace,
                out: f.out.clone(),
            });
            println!("{report}");
            return Ok(true);
        }
        Some("agree") => {
            let [_, a, b] = f.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let verdict = compare(
                &read_json(&f.spec)?,
                &read_json(a.as_ref())?,
                &read_json(b.as_ref())?,
            );
            print!("{}", verdict.report);
            println!("{}", if verdict.agree { "AGREE" } else { "DISAGREE" });
            return Ok(verdict.agree);
        }
        Some(_) => return Err(USAGE.into()),
        None => {}
    }

    let selected = match &f.workload {
        Some(name) => vec![workload(name).ok_or_else(|| format!("unknown workload {name}"))?],
        None => workloads(),
    };
    let base = RunConfig {
        workload: selected[0].clone(),
        seed: f.seed,
        seconds: f.seconds,
        quick: f.quick,
        trace: f.trace,
        out: f.out.clone(),
    };
    if f.selfcheck {
        // Two complete sets of the same commit must agree within the
        // benchmark's own bounds.
        let spec = read_json(&f.spec)?;
        let mut sets = Vec::new();
        for side in ["a", "b"] {
            eprintln!("[atc-benchmark] selfcheck: set {side}");
            let set = run_suite(&selected, &base, f.trace)?;
            let path = f.out.join(format!("selfcheck-{side}-seed{}.json", f.seed));
            write_file(&path, &set.pretty(SET_LEVELS))?;
            sets.push(set);
        }
        let verdict = compare(&spec, &sets[0], &sets[1]);
        print!("{}", verdict.report);
        println!("{}", if verdict.agree { "AGREE" } else { "DISAGREE" });
        return Ok(verdict.agree);
    }

    if f.workload.is_some() {
        // The driver's form: detail first, the contract object last.
        let outcome = run_workload(&base)?;
        println!("{}", outcome.detail);
        println!("{}", outcome.result);
        return Ok(true);
    }
    let set = run_suite(&selected, &base, f.trace)?;
    print!("{}", set.pretty(SET_LEVELS));
    let all_correct = set
        .get("workloads")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .all(|(_, e)| e.get("correct") == Some(&Json::Bool(true)));
    Ok(all_correct)
}

/// Runs the command line; returns the process exit code (0 on success,
/// 1 when operations failed or sets disagree, 2 on usage or I/O errors).
pub fn main(args: &[String]) -> i32 {
    match parse(args).and_then(|f| run(&f)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("atc-benchmark: {e}");
            2
        }
    }
}
