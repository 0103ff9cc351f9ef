//! `BENCH_<suite>.json` emission, schema validation, and baseline
//! comparison for the `sapred bench` harness.
//!
//! The report schema is `sapred-bench/v1`:
//!
//! ```json
//! {
//!   "schema": "sapred-bench/v1",
//!   "suite": "dispatch",
//!   "quick": false,
//!   "env": {"rustc": "...", "commit": "...", "cores": 1,
//!           "os": "linux", "arch": "x86_64", "profile": "release"},
//!   "cells": [
//!     {"name": "...", "seed": 7, "iters": 3, "deterministic": true,
//!      "config": {...}, "counters": {"events_processed": 12345, ...},
//!      "wall_s": [..], "metrics": {"wall_p50_s": 0.05, ...}}
//!   ]
//! }
//! ```
//!
//! Everything outside `wall_s`/`metrics` (and the `env` timing-free
//! fingerprint fields that describe the machine) is deterministic at a
//! fixed seed: rerunning the suite must reproduce `config`, `seed`,
//! `iters`, and every counter bit-for-bit. [`compare`] exploits the split:
//! counter mismatches are reported as **determinism drift** (the engine's
//! behavior changed), while metric movements past a threshold are
//! **timing regressions** (it got slower). Cells whose configs differ —
//! e.g. a `--quick` run against a full baseline — are **skipped**, never
//! force-compared.

use std::collections::BTreeMap;
use std::process::Command;

use sapred_obs::json::{self, array, num, Obj, Value};

use crate::harness::CellResult;

/// Schema tag written to (and required of) every report.
pub const SCHEMA: &str = "sapred-bench/v1";

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

/// Environment fingerprint: compiler, commit, core count, platform, and
/// build profile. Subprocess probes (`rustc`, `git`) degrade to
/// `"unknown"` when unavailable, so reports can be produced anywhere.
pub fn env_fingerprint() -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit =
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let cores = sapred_core::parallel::available_threads();
    Obj::new()
        .str("rustc", &rustc)
        .str("commit", &commit)
        .int("cores", cores as u64)
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .finish()
}

fn cell_json(cell: &CellResult) -> String {
    let counters =
        cell.counters.iter().fold(Obj::new(), |obj, (name, &value)| obj.int(name, value)).finish();
    let metrics =
        cell.metrics.iter().fold(Obj::new(), |obj, (name, &value)| obj.num(name, value)).finish();
    let obj = Obj::new()
        .str("name", &cell.name)
        .int("seed", cell.seed)
        .int("iters", cell.iters as u64)
        .bool("deterministic", cell.deterministic)
        .raw("config", &cell.config)
        .raw("counters", &counters)
        .raw("wall_s", &array(cell.wall_s.iter().map(|&w| num(w))))
        .raw("metrics", &metrics);
    match &cell.error {
        Some(e) => obj.str("error", e).finish(),
        None => obj.finish(),
    }
}

/// Serialize a suite run to the `sapred-bench/v1` report document.
pub fn suite_json(suite: &str, quick: bool, cells: &[CellResult]) -> String {
    Obj::new()
        .str("schema", SCHEMA)
        .str("suite", suite)
        .bool("quick", quick)
        .raw("env", &env_fingerprint())
        .raw("cells", &array(cells.iter().map(cell_json)))
        .finish()
}

fn expect_str<'v>(v: &'v Value, key: &str, at: &str) -> Result<&'v str, String> {
    v.get(key).and_then(Value::as_str).ok_or_else(|| format!("{at}: missing string field {key:?}"))
}

fn expect_obj<'v>(
    v: &'v Value,
    key: &str,
    at: &str,
) -> Result<&'v BTreeMap<String, Value>, String> {
    v.get(key).and_then(Value::as_obj).ok_or_else(|| format!("{at}: missing object field {key:?}"))
}

/// Parse and structurally validate a report document against
/// [`SCHEMA`]. Returns the parsed [`Value`] so callers can go on to
/// compare without re-parsing.
pub fn validate_schema(text: &str) -> Result<Value, String> {
    let doc = json::parse(text)?;
    let schema = expect_str(&doc, "schema", "report")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
    }
    expect_str(&doc, "suite", "report")?;
    doc.get("quick")
        .filter(|v| matches!(v, Value::Bool(_)))
        .ok_or("report: missing bool field \"quick\"")?;
    let env = doc.get("env").ok_or("report: missing object field \"env\"")?;
    for key in ["rustc", "commit", "os", "arch", "profile"] {
        expect_str(env, key, "env")?;
    }
    env.get("cores").and_then(Value::as_num).ok_or("env: missing numeric field \"cores\"")?;
    let cells =
        doc.get("cells").and_then(Value::as_arr).ok_or("report: missing array field \"cells\"")?;
    for (i, cell) in cells.iter().enumerate() {
        let at = format!("cells[{i}]");
        let name = expect_str(cell, "name", &at)?;
        let at = format!("cell {name:?}");
        for key in ["seed", "iters"] {
            cell.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("{at}: missing numeric field {key:?}"))?;
        }
        cell.get("deterministic")
            .filter(|v| matches!(v, Value::Bool(_)))
            .ok_or_else(|| format!("{at}: missing bool field \"deterministic\""))?;
        expect_obj(cell, "config", &at)?;
        for (counter, value) in expect_obj(cell, "counters", &at)? {
            value
                .as_num()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .ok_or_else(|| format!("{at}: counter {counter:?} is not a non-negative int"))?;
        }
        for (metric, value) in expect_obj(cell, "metrics", &at)? {
            value
                .as_num()
                .filter(|n| n.is_finite())
                .ok_or_else(|| format!("{at}: metric {metric:?} is not a finite number"))?;
        }
        cell.get("wall_s")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{at}: missing array field \"wall_s\""))?;
    }
    Ok(doc)
}

/// Read and validate a [`SCHEMA`] report from disk. Every failure names
/// the offending path — the two classic `--compare` footguns are a
/// baseline that was never generated (missing file) and one damaged by a
/// crashed or interrupted run (unparseable JSON), and both must say *which
/// file* rather than surface a bare IO/parse error.
pub fn load_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            format!(
                "baseline {path} does not exist — generate it first \
                 (e.g. `sapred bench --suite <name> --out <dir>`)"
            )
        } else {
            format!("read {path}: {e}")
        }
    })?;
    validate_schema(&text).map_err(|e| format!("{path}: {e}"))
}

/// The outcome of comparing a fresh report against a baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Human-readable per-cell/per-metric report lines, in order.
    pub lines: Vec<String>,
    /// Cells present in both but with differing configs (not compared).
    pub skipped: usize,
    /// Cells whose deterministic counters differ — behavior changed.
    pub drifts: usize,
    /// Timing metrics that moved past the threshold in the bad direction.
    pub regressions: usize,
    /// Timing metrics that moved past the threshold in the good direction.
    pub improvements: usize,
}

impl Comparison {
    /// Whether a gated comparison should fail the run.
    pub fn gate_failed(&self) -> bool {
        self.drifts > 0 || self.regressions > 0
    }
}

/// Whether higher values of `metric` are better (throughputs) or worse
/// (latencies/durations — the default).
fn higher_is_better(metric: &str) -> bool {
    metric.ends_with("_per_s")
}

fn cells_by_name(doc: &Value) -> BTreeMap<String, &Value> {
    doc.get("cells")
        .and_then(Value::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|c| Some((c.get("name")?.as_str()?.to_string(), c)))
        .collect()
}

/// Compare a fresh report (`new`) against a `baseline`, both already
/// validated by [`validate_schema`]. `threshold` is the relative change
/// past which a timing metric counts as a regression/improvement (0.25 =
/// 25%). Counter mismatches are always drift, regardless of threshold.
pub fn compare(baseline: &Value, new: &Value, threshold: f64) -> Comparison {
    let mut cmp = Comparison::default();
    let old_cells = cells_by_name(baseline);
    let new_cells = cells_by_name(new);
    for (name, new_cell) in &new_cells {
        let Some(old_cell) = old_cells.get(name) else {
            cmp.lines.push(format!("{name}: new cell (no baseline) — not compared"));
            continue;
        };
        if old_cell.get("config") != new_cell.get("config") {
            cmp.lines.push(format!("{name}: config differs from baseline — skipped"));
            cmp.skipped += 1;
            continue;
        }
        // Counters: exact match required (deterministic at fixed seed).
        let empty = BTreeMap::new();
        let old_counters = old_cell.get("counters").and_then(Value::as_obj).unwrap_or(&empty);
        let new_counters = new_cell.get("counters").and_then(Value::as_obj).unwrap_or(&empty);
        let mut drifted = Vec::new();
        for (counter, old_v) in old_counters {
            let old_n = old_v.as_num().unwrap_or(f64::NAN);
            let new_n = new_counters.get(counter).and_then(Value::as_num).unwrap_or(f64::NAN);
            if old_n != new_n {
                drifted.push(format!("{counter} {old_n} -> {new_n}"));
            }
        }
        if !drifted.is_empty() {
            cmp.drifts += 1;
            cmp.lines.push(format!("{name}: DETERMINISM DRIFT: {}", drifted.join(", ")));
        }
        // Metrics: relative deltas against the threshold.
        let old_metrics = old_cell.get("metrics").and_then(Value::as_obj).unwrap_or(&empty);
        let new_metrics = new_cell.get("metrics").and_then(Value::as_obj).unwrap_or(&empty);
        for (metric, old_v) in old_metrics {
            let Some(new_v) = new_metrics.get(metric).and_then(Value::as_num) else {
                continue;
            };
            let old_n = old_v.as_num().unwrap_or(f64::NAN);
            if !(old_n.is_finite() && new_v.is_finite()) || old_n.abs() < 1e-12 {
                continue;
            }
            let rel = (new_v - old_n) / old_n.abs();
            let worse = if higher_is_better(metric) { -rel } else { rel };
            let verdict = if worse > threshold {
                cmp.regressions += 1;
                "  REGRESSION"
            } else if worse < -threshold {
                cmp.improvements += 1;
                "  improvement"
            } else {
                ""
            };
            cmp.lines.push(format!(
                "{name}/{metric}: {old_n:.6} -> {new_v:.6} ({:+.1}%){verdict}",
                rel * 100.0
            ));
        }
    }
    for name in old_cells.keys() {
        if !new_cells.contains_key(name) {
            cmp.lines.push(format!("{name}: present in baseline but not in this run"));
        }
    }
    cmp
}
