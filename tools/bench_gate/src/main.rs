//! Perf-regression gate over the repo's `BENCH_*.json` artifacts.
//!
//! CI regenerates each benchmark JSON and hands this tool the committed
//! baseline plus the fresh run:
//!
//! ```text
//! bench_gate --out artifacts/bench_gate.json \
//!     baseline/BENCH_broker_throughput.json=BENCH_broker_throughput.json
//! ```
//!
//! Each positional argument is one `baseline=candidate` pair. Rows of the
//! two reports' `results` arrays are matched by their identity fields
//! (string-valued fields plus `workers`/`publishers`/`connections`), then
//! two families of checks run per matched row:
//!
//! - **throughput** — `msgs_per_sec` may not drop more than
//!   `--max-regression-pct` (default 20) below the baseline. Skipped when
//!   the reports' `quick` flags differ: a quick run and a full run measure
//!   different workload sizes, so their absolute rates are not comparable.
//! - **allocations** — `allocs_per_msg` may not grow more than
//!   `--max-alloc-growth-pct` (default 15) plus a 0.5 allocs/msg absolute
//!   slack over the baseline, and may never exceed the absolute ceiling
//!   `--max-allocs-per-msg` (default 0.5) no matter what the baseline
//!   says — the pooled delivery path is allocation-free in steady state,
//!   so anything above that is a hot-path leak even if the committed
//!   baseline drifted with it. Allocation counts per message are nearly
//!   workload-independent, so this check runs even across a quick/full
//!   mismatch, but only when both reports say `alloc_profiling: true`.
//!
//! Reports recorded on hosts with different core counts (`host.cores`)
//! are not compared at all: the pair fails with a note, since every
//! threaded row's rate depends on how many cores its threads overlap on.
//! A baseline row missing from the candidate fails the gate (rows must
//! not silently disappear); a metric missing from the *baseline* is
//! skipped with a note, so the gate tolerates baselines that predate a
//! metric. The verdict (and every comparison) is written as JSON to
//! `--out` and the process exits non-zero on failure.

use serde::{Serialize, Value};

/// Tolerances, overridable from the command line.
struct GateConfig {
    max_regression_pct: f64,
    max_alloc_growth_pct: f64,
    /// Absolute allocs/msg slack on top of the percentage, so baselines
    /// near zero don't fail on ±1 allocation of jitter.
    alloc_abs_slack: f64,
    /// Hard ceiling on candidate allocs/msg, independent of the baseline.
    /// The steady-state delivery path is pooled and allocation-free, so a
    /// candidate above this is a hot-path allocation leak even if the
    /// committed baseline drifted upward with it.
    alloc_abs_max: f64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            max_regression_pct: 20.0,
            max_alloc_growth_pct: 15.0,
            alloc_abs_slack: 0.5,
            alloc_abs_max: 0.5,
        }
    }
}

/// One metric compared between a baseline row and its candidate row.
#[derive(Serialize)]
struct Comparison {
    bench: String,
    row: String,
    metric: &'static str,
    baseline: f64,
    candidate: f64,
    /// Relative change, percent; positive means the candidate is larger.
    change_pct: f64,
    limit_pct: f64,
    /// `pass`, `fail`, or `skipped`.
    status: &'static str,
}

/// The artifact uploaded by CI.
#[derive(Serialize)]
struct Verdict {
    gate: &'static str,
    max_regression_pct: f64,
    max_alloc_growth_pct: f64,
    max_allocs_per_msg: f64,
    comparisons: Vec<Comparison>,
    /// Human-readable context: skipped families, schema gaps, failures.
    notes: Vec<String>,
    failures: usize,
    verdict: &'static str,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Identity of a result row: every string field plus the integer fields
/// that parameterize a run. Metric fields (floats, counters) are excluded
/// so the key is stable across reruns.
fn row_key(row: &Value) -> String {
    let mut parts = Vec::new();
    if let Some(obj) = row.as_object() {
        for (k, v) in obj {
            match v {
                Value::Str(s) => parts.push(format!("{k}={s}")),
                Value::U64(n) if matches!(k.as_str(), "workers" | "publishers" | "connections") => {
                    parts.push(format!("{k}={n}"));
                }
                _ => {}
            }
        }
    }
    parts.join(",")
}

fn rows(report: &Value) -> Vec<&Value> {
    match report.get("results") {
        Some(Value::Array(rows)) => rows.iter().collect(),
        _ => Vec::new(),
    }
}

fn bench_name(report: &Value) -> String {
    report
        .get("bench")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string()
}

/// Runs both check families over one baseline/candidate report pair,
/// appending comparisons and notes.
fn compare_reports(
    baseline: &Value,
    candidate: &Value,
    cfg: &GateConfig,
    comparisons: &mut Vec<Comparison>,
    notes: &mut Vec<String>,
) {
    let bench = bench_name(baseline);
    if bench_name(candidate) != bench {
        notes.push(format!(
            "{bench}: candidate is a different bench ({}) — pair mismatch",
            bench_name(candidate)
        ));
        comparisons.push(Comparison {
            bench,
            row: String::new(),
            metric: "bench",
            baseline: 0.0,
            candidate: 0.0,
            change_pct: 0.0,
            limit_pct: 0.0,
            status: "fail",
        });
        return;
    }

    let cores = |r: &Value| r.get("host").and_then(|h| h.get("cores")).and_then(as_f64);
    if let (Some(base), Some(cand)) = (cores(baseline), cores(candidate)) {
        if base != cand {
            notes.push(format!(
                "{bench}: baseline recorded on {base} cores, candidate on {cand} — \
                 not comparable; re-record the baseline on the gating host"
            ));
            comparisons.push(Comparison {
                bench,
                row: String::new(),
                metric: "host.cores",
                baseline: base,
                candidate: cand,
                change_pct: 0.0,
                limit_pct: 0.0,
                status: "fail",
            });
            return;
        }
    }

    let quick = |r: &Value| r.get("quick").and_then(as_bool);
    let quick_match = quick(baseline) == quick(candidate);
    if !quick_match {
        notes.push(format!(
            "{bench}: quick flags differ (baseline {:?}, candidate {:?}) — \
             throughput rows skipped, allocation rows still checked",
            quick(baseline),
            quick(candidate)
        ));
    }
    let profiled = |r: &Value| r.get("alloc_profiling").and_then(as_bool).unwrap_or(false);
    let alloc_gate = profiled(baseline) && profiled(candidate);
    if !alloc_gate {
        notes.push(format!(
            "{bench}: allocation rows skipped (alloc_profiling absent or off in one report)"
        ));
    }

    let candidates = rows(candidate);
    for base_row in rows(baseline) {
        let key = row_key(base_row);
        let Some(cand_row) = candidates.iter().find(|r| row_key(r) == key) else {
            notes.push(format!("{bench}: row `{key}` missing from candidate"));
            comparisons.push(Comparison {
                bench: bench.clone(),
                row: key,
                metric: "row",
                baseline: 0.0,
                candidate: 0.0,
                change_pct: 0.0,
                limit_pct: 0.0,
                status: "fail",
            });
            continue;
        };

        // Throughput: candidate must stay within max_regression_pct below.
        if let Some(base) = base_row.get("msgs_per_sec").and_then(as_f64) {
            let cand = cand_row.get("msgs_per_sec").and_then(as_f64).unwrap_or(0.0);
            let change_pct = (cand / base - 1.0) * 100.0;
            let status = if !quick_match {
                "skipped"
            } else if change_pct < -cfg.max_regression_pct {
                "fail"
            } else {
                "pass"
            };
            comparisons.push(Comparison {
                bench: bench.clone(),
                row: key.clone(),
                metric: "msgs_per_sec",
                baseline: base,
                candidate: cand,
                change_pct,
                limit_pct: cfg.max_regression_pct,
                status,
            });
        }

        // Allocations: candidate may not grow past the envelope, and may
        // never exceed the absolute allocs/msg ceiling regardless of what
        // the committed baseline says. Rows that pay for a feature by
        // design (e.g. per-message tracing allocates its flight-recorder
        // records) declare their own `alloc_budget`, which replaces the
        // global ceiling for that row; the baseline's declaration wins so
        // a candidate cannot quietly raise its own allowance.
        let declared = |r: &Value| r.get("alloc_budget").and_then(as_f64).filter(|b| *b > 0.0);
        let ceiling = declared(base_row)
            .or_else(|| declared(cand_row))
            .unwrap_or(cfg.alloc_abs_max);
        match base_row.get("allocs_per_msg").and_then(as_f64) {
            Some(base) if alloc_gate => {
                let cand = cand_row
                    .get("allocs_per_msg")
                    .and_then(as_f64)
                    .unwrap_or(0.0);
                let limit = base * (1.0 + cfg.max_alloc_growth_pct / 100.0) + cfg.alloc_abs_slack;
                let change_pct = if base > 0.0 {
                    (cand / base - 1.0) * 100.0
                } else {
                    0.0
                };
                if cand > ceiling {
                    notes.push(format!(
                        "{bench}: row `{key}` candidate allocs_per_msg {cand} exceeds the \
                         absolute ceiling {ceiling} — hot-path allocation leak"
                    ));
                }
                comparisons.push(Comparison {
                    bench: bench.clone(),
                    row: key.clone(),
                    metric: "allocs_per_msg",
                    baseline: base,
                    candidate: cand,
                    change_pct,
                    limit_pct: cfg.max_alloc_growth_pct,
                    status: if cand > limit || cand > ceiling {
                        "fail"
                    } else {
                        "pass"
                    },
                });
            }
            Some(_) => {}
            None => {
                // No baseline metric: the growth check has nothing to
                // compare against, but the absolute ceiling still applies
                // to the candidate.
                match cand_row.get("allocs_per_msg").and_then(as_f64) {
                    Some(cand) if alloc_gate => {
                        notes.push(format!(
                            "{bench}: row `{key}` has no allocs_per_msg in the baseline — \
                             growth check skipped, absolute ceiling still enforced \
                             (refresh the committed baseline)"
                        ));
                        comparisons.push(Comparison {
                            bench: bench.clone(),
                            row: key.clone(),
                            metric: "allocs_per_msg",
                            baseline: 0.0,
                            candidate: cand,
                            change_pct: 0.0,
                            limit_pct: 0.0,
                            status: if cand > ceiling { "fail" } else { "pass" },
                        });
                    }
                    _ => {
                        if alloc_gate {
                            notes.push(format!(
                                "{bench}: row `{key}` has no allocs_per_msg in either report — \
                                 allocation check skipped"
                            ));
                        }
                    }
                }
            }
        }
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("bench_gate: {path} is not JSON: {e}"))
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate [--out PATH] [--max-regression-pct N] \
         [--max-alloc-growth-pct N] [--max-allocs-per-msg N] \
         BASELINE=CANDIDATE [BASELINE=CANDIDATE ...]"
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg = GateConfig::default();
    let mut out: Option<String> = None;
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--max-regression-pct" => {
                cfg.max_regression_pct = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-alloc-growth-pct" => {
                cfg.max_alloc_growth_pct = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-allocs-per-msg" => {
                cfg.alloc_abs_max = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            pair => {
                let Some((base, cand)) = pair.split_once('=') else {
                    usage()
                };
                pairs.push((base.to_string(), cand.to_string()));
            }
        }
    }
    if pairs.is_empty() {
        usage();
    }

    let mut comparisons = Vec::new();
    let mut notes = Vec::new();
    for (base_path, cand_path) in &pairs {
        let baseline = load(base_path);
        let candidate = load(cand_path);
        compare_reports(&baseline, &candidate, &cfg, &mut comparisons, &mut notes);
    }

    let failures = comparisons.iter().filter(|c| c.status == "fail").count();
    let verdict = Verdict {
        gate: "bench_gate",
        max_regression_pct: cfg.max_regression_pct,
        max_alloc_growth_pct: cfg.max_alloc_growth_pct,
        max_allocs_per_msg: cfg.alloc_abs_max,
        comparisons,
        notes,
        failures,
        verdict: if failures == 0 { "pass" } else { "fail" },
    };

    for c in &verdict.comparisons {
        eprintln!(
            "{:<4}  {:<18} {:<28} {:<14} {:>12.1} -> {:>12.1}  ({:+.1}%, limit {:.0}%)",
            c.status, c.bench, c.row, c.metric, c.baseline, c.candidate, c.change_pct, c.limit_pct
        );
    }
    for n in &verdict.notes {
        eprintln!("note: {n}");
    }
    eprintln!(
        "bench_gate verdict: {} ({failures} failures)",
        verdict.verdict
    );

    let json = serde_json::to_string_pretty(&verdict).expect("verdict serializes") + "\n";
    if let Some(path) = &out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("bench_gate: write {path}: {e}"));
        eprintln!("wrote {path}");
    } else {
        println!("{json}");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(quick: bool, profiling: bool, rate: f64, allocs: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "bench": "broker_throughput",
                "quick": {quick},
                "alloc_profiling": {profiling},
                "results": [
                    {{"policy": "edf", "workers": 4,
                      "msgs_per_sec": {rate}, "allocs_per_msg": {allocs}}}
                ]
            }}"#
        ))
        .expect("test report parses")
    }

    fn run(base: &Value, cand: &Value) -> (Vec<Comparison>, Vec<String>) {
        let mut comparisons = Vec::new();
        let mut notes = Vec::new();
        compare_reports(
            base,
            cand,
            &GateConfig::default(),
            &mut comparisons,
            &mut notes,
        );
        (comparisons, notes)
    }

    #[test]
    fn reports_from_different_core_counts_are_refused() {
        let on = |cores: u64| -> Value {
            serde_json::from_str(&format!(
                r#"{{
                    "bench": "broker_throughput", "quick": true,
                    "alloc_profiling": true, "host": {{"cores": {cores}}},
                    "results": [
                        {{"policy": "edf", "publishers": 4,
                          "msgs_per_sec": 10000.0, "allocs_per_msg": 0.2}}
                    ]
                }}"#
            ))
            .expect("test report parses")
        };
        let (cmp, notes) = run(&on(1), &on(2));
        assert_eq!(cmp.len(), 1, "no row is compared");
        assert_eq!((cmp[0].metric, cmp[0].status), ("host.cores", "fail"));
        assert!(notes.iter().any(|n| n.contains("not comparable")));
        // Same core count: the rows are compared as usual.
        let (cmp, _) = run(&on(2), &on(2));
        assert!(cmp.iter().all(|c| c.status == "pass") && cmp.len() == 2);
    }

    #[test]
    fn matching_rows_within_tolerance_pass() {
        let (cmp, _) = run(
            &report(true, true, 10_000.0, 0.2),
            &report(true, true, 9_000.0, 0.25),
        );
        assert_eq!(cmp.len(), 2);
        assert!(
            cmp.iter().all(|c| c.status == "pass"),
            "10% drop is tolerated"
        );
        assert_eq!(cmp[0].row, "policy=edf,workers=4");
    }

    #[test]
    fn throughput_regression_beyond_limit_fails() {
        let (cmp, _) = run(
            &report(true, true, 10_000.0, 0.2),
            &report(true, true, 7_000.0, 0.2),
        );
        let tput = cmp.iter().find(|c| c.metric == "msgs_per_sec").unwrap();
        assert_eq!(tput.status, "fail", "-30% breaches the 20% limit");
    }

    #[test]
    fn allocation_growth_fails_even_across_quick_mismatch() {
        // Baseline is a full run, candidate quick: throughput must be
        // skipped, but +1.5 allocs/msg still fails the allocation gate.
        let (cmp, notes) = run(
            &report(false, true, 50_000.0, 1.4),
            &report(true, true, 10_000.0, 2.9),
        );
        let tput = cmp.iter().find(|c| c.metric == "msgs_per_sec").unwrap();
        assert_eq!(tput.status, "skipped");
        let alloc = cmp.iter().find(|c| c.metric == "allocs_per_msg").unwrap();
        assert_eq!(alloc.status, "fail");
        assert!(notes.iter().any(|n| n.contains("quick flags differ")));
    }

    #[test]
    fn allocation_gate_skipped_without_profiling() {
        let (cmp, notes) = run(
            &report(true, false, 10_000.0, 0.0),
            &report(true, true, 10_000.0, 5.0),
        );
        assert!(cmp.iter().all(|c| c.metric != "allocs_per_msg"));
        assert!(notes.iter().any(|n| n.contains("allocation rows skipped")));
    }

    #[test]
    fn missing_candidate_row_fails() {
        let base = report(true, true, 10_000.0, 1.4);
        let cand: Value = serde_json::from_str(
            r#"{"bench": "broker_throughput", "quick": true,
                "alloc_profiling": true, "results": []}"#,
        )
        .unwrap();
        let (cmp, notes) = run(&base, &cand);
        assert!(cmp.iter().any(|c| c.metric == "row" && c.status == "fail"));
        assert!(notes.iter().any(|n| n.contains("missing from candidate")));
    }

    #[test]
    fn baseline_without_alloc_metric_keeps_the_absolute_ceiling() {
        let base: Value = serde_json::from_str(
            r#"{"bench": "broker_throughput", "quick": true,
                "alloc_profiling": true, "results": [
                    {"policy": "edf", "workers": 4, "msgs_per_sec": 10000.0}
                ]}"#,
        )
        .unwrap();
        // A low-allocation candidate passes (growth check skipped)...
        let (cmp, notes) = run(&base, &report(true, true, 10_000.0, 0.2));
        assert!(cmp.iter().all(|c| c.status == "pass"));
        assert!(notes.iter().any(|n| n.contains("no allocs_per_msg")));
        // ...but a candidate over the ceiling still fails without any
        // baseline number to grow from.
        let (cmp, _) = run(&base, &report(true, true, 10_000.0, 1.4));
        let alloc = cmp.iter().find(|c| c.metric == "allocs_per_msg").unwrap();
        assert_eq!(alloc.status, "fail");
    }

    #[test]
    fn absolute_alloc_ceiling_fails_despite_generous_baseline() {
        // Growth envelope would allow 1.4 * 1.15 + 0.5 ≈ 2.1, but the
        // 0.5 allocs/msg absolute ceiling catches the drifted pair.
        let (cmp, notes) = run(
            &report(true, true, 10_000.0, 1.4),
            &report(true, true, 10_000.0, 1.45),
        );
        let alloc = cmp.iter().find(|c| c.metric == "allocs_per_msg").unwrap();
        assert_eq!(alloc.status, "fail");
        assert!(notes.iter().any(|n| n.contains("absolute ceiling")));
    }
}
