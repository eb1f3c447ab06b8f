//! `atc-benchmark agree A.json B.json`: do two result sets of the same
//! commit agree within the bounds `BENCHMARK.json` fixes?

use crate::json::Json;

/// Per-layer metrics that are counts of the input, not timings: two
/// runs of one seed must report them identically.
const EXACT_LAYERS: &[&str] = &["cache.filter_survival_ratio", "io.store_bytes"];

/// End-to-end metric that repeats exactly (for any seed).
const EXACT_END_TO_END: &str = "bits_per_address";

/// Detail fields that repeat exactly for a given seed.
const EXACT_DETAIL: &[&str] = &["filtered", "bits_per_address_seed"];

/// The comparison's outcome: a printable report and the verdict.
#[derive(Debug)]
pub struct Agreement {
    /// One line per workload (worst ratio) plus one per disagreement.
    pub report: String,
    /// True when every metric × workload pair is within its bound.
    pub agree: bool,
}

/// The `(name, entry)` pairs of a result set.
fn entries(set: &Json) -> &[(String, Json)] {
    set.get("workloads").map(Json::fields).unwrap_or_default()
}

fn value(entry: &Json, section: &str, name: &str) -> Option<f64> {
    entry.get(section)?.get(name)?.get("value")?.num()
}

/// Compares result sets `a` and `b` against `spec` (`BENCHMARK.json`).
///
/// Every workload either set holds is compared. Timings agree when
/// `max/min − 1` is within the metric's `bound`; `bits_per_address` (of
/// the reference trace and of the seed's), the filtered count and the
/// count-like per-layer metrics must be identical. A workload or metric
/// missing on one side, or a failed operation on either, is a
/// disagreement.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Agreement {
    let mut report = String::new();
    let mut agree = true;
    let mut differ = |report: &mut String, line: String| {
        agree = false;
        report.push_str(&format!("  DISAGREE {line}\n"));
    };
    if a.get("seed") != b.get("seed") || a.get("quick") != b.get("quick") {
        differ(
            &mut report,
            "the two sets were run with different --seed or --quick".into(),
        );
    }
    let mut names: Vec<&str> = entries(a).iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in entries(b) {
        if !names.contains(&k.as_str()) {
            names.push(k);
        }
    }
    if names.is_empty() {
        differ(&mut report, "no workload in either set".into());
    }
    for name in names {
        let sides = (
            a.get("workloads").and_then(|s| s.get(name)),
            b.get("workloads").and_then(|s| s.get(name)),
        );
        let (Some(ea), Some(eb)) = sides else {
            differ(&mut report, format!("{name}: in only one of the sets"));
            continue;
        };
        let mut worst = (0.0f64, "-");
        for m in spec.get("end_to_end").map(Json::items).unwrap_or_default() {
            let metric = m.get("name").and_then(Json::str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (value(ea, "metrics", metric), value(eb, "metrics", metric))
            else {
                differ(&mut report, format!("{name} {metric}: missing"));
                continue;
            };
            if metric == EXACT_END_TO_END {
                if va != vb {
                    differ(
                        &mut report,
                        format!("{name} {metric}: {va} vs {vb} (must be identical)"),
                    );
                }
                continue;
            }
            let excess = va.max(vb) / va.min(vb) - 1.0;
            // The worst pair is the one that uses most of its bound.
            if excess / bound > worst.0 {
                worst = (excess / bound, metric);
            }
            if excess.is_nan() || excess > bound {
                differ(
                    &mut report,
                    format!(
                        "{name} {metric}: {va} vs {vb} differ by {:.1}% (bound {:.1}%)",
                        excess * 100.0,
                        bound * 100.0
                    ),
                );
            }
        }
        for exact in EXACT_DETAIL {
            let of = |e: &Json| e.get("detail")?.get(exact)?.num();
            if of(ea) != of(eb) {
                differ(&mut report, format!("{name}: {exact} differs"));
            }
        }
        for layer in EXACT_LAYERS {
            let pair = (value(ea, "layers", layer), value(eb, "layers", layer));
            if let (Some(va), Some(vb)) = pair {
                if va != vb {
                    differ(
                        &mut report,
                        format!("{name} {layer}: {va} vs {vb} (must be identical)"),
                    );
                }
            }
        }
        for (side, e) in [("A", ea), ("B", eb)] {
            if e.get("correct") != Some(&Json::Bool(true)) {
                differ(
                    &mut report,
                    format!("{name}: set {side} has failed operations"),
                );
            }
        }
        report.push_str(&format!(
            "{name}: worst pair {} uses {:.0}% of its bound\n",
            worst.1,
            worst.0 * 100.0
        ));
    }
    Agreement { report, agree }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pack: f64, bits: f64) -> Json {
        set_with(pack, bits, true)
    }

    fn set_with(pack: f64, bits: f64, correct: bool) -> Json {
        Json::parse(&format!(
            r#"{{"seed": 1, "quick": false, "workloads": {{"w": {{"correct": {correct},
               "metrics": {{"pack": {{"value": {pack}, "unit": "x"}},
                            "bits_per_address": {{"value": {bits}, "unit": "b"}}}},
               "detail": {{"filtered": 10}}}}}}}}"#
        ))
        .unwrap()
    }

    fn spec() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "w", "why": ""}],
                "end_to_end": [{"name": "pack", "unit": "x", "better": "higher", "bound": 0.1},
                               {"name": "bits_per_address", "unit": "b", "better": "lower", "bound": 0.02}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn within_bound_agrees_and_beyond_does_not() {
        assert!(compare(&spec(), &set(100.0, 3.5), &set(105.0, 3.5)).agree);
        let far = compare(&spec(), &set(100.0, 3.5), &set(120.0, 3.5));
        assert!(!far.agree);
        assert!(far.report.contains("DISAGREE w pack"));
    }

    #[test]
    fn bits_per_address_must_repeat_exactly() {
        assert!(!compare(&spec(), &set(100.0, 3.5), &set(100.0, 3.5001)).agree);
    }

    #[test]
    fn a_workload_in_only_one_set_disagrees() {
        let empty = Json::parse(r#"{"seed": 1, "quick": false, "workloads": {}}"#).unwrap();
        assert!(!compare(&spec(), &set(1.0, 1.0), &empty).agree);
        assert!(!compare(&spec(), &empty, &set(1.0, 1.0)).agree);
        assert!(!compare(&spec(), &empty, &empty).agree);
    }

    #[test]
    fn sets_of_one_workload_are_compared_on_that_workload() {
        // `--selfcheck --workload w`: the spec names more workloads than
        // the sets hold.
        let spec = Json::parse(
            r#"{"workloads": [{"name": "w", "why": ""}, {"name": "other", "why": ""}],
                "end_to_end": [{"name": "pack", "unit": "x", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert!(compare(&spec, &set(100.0, 3.5), &set(101.0, 3.5)).agree);
    }

    #[test]
    fn failed_operations_on_either_side_disagree() {
        // `correct` covers the traced run too (report::run_suite folds
        // its tally in), so a failed stage replay lands here.
        let bad = compare(&spec(), &set(100.0, 3.5), &set_with(100.0, 3.5, false));
        assert!(!bad.agree);
        assert!(bad.report.contains("set B has failed operations"));
    }
}
