//! `BENCH_<suite>.json` emission, schema validation, and baseline
//! comparison for the `sapred bench` harness.
//!
//! The report schema is `sapred-bench/v2`:
//!
//! ```json
//! {
//!   "schema": "sapred-bench/v2",
//!   "suite": "dispatch",
//!   "env": {"rustc": "...", "cores": 1, "os": "linux",
//!           "arch": "x86_64", "profile": "release"},
//!   "cells": [
//!     {"name": "...", "seed": 7, "iters": 3, "deterministic": true,
//!      "config": {...}, "counters": {"events_processed": 12345, ...},
//!      "wall_s": [..], "metrics": {"wall_p50_s": 0.05, ...}}
//!   ]
//! }
//! ```
//!
//! Everything outside `wall_s`, `metrics` and `env` is deterministic at a
//! fixed seed: rerunning the suite must reproduce `config`, `seed`,
//! `iters`, and every counter bit-for-bit. [`compare`] checks what a
//! baseline pins (the suite, the cell names, and each cell's `config` and
//! `counters`) and never reads a timing.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use sapred_obs::json::{self, array, num, Obj, Value};

use crate::harness::CellResult;

/// Schema tag written to (and required of) every report.
pub const SCHEMA: &str = "sapred-bench/v2";

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

/// Environment fingerprint: compiler, core count, platform, and build
/// profile. The `rustc` probe degrades to `"unknown"` when unavailable,
/// so reports can be produced anywhere.
pub fn env_fingerprint() -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let cores = sapred_core::parallel::available_threads();
    Obj::new()
        .str("rustc", &rustc)
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

/// Serialize a suite run to the [`SCHEMA`] report document.
pub fn suite_json(suite: &str, cells: &[CellResult]) -> String {
    Obj::new()
        .str("schema", SCHEMA)
        .str("suite", suite)
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
    let env = doc.get("env").ok_or("report: missing object field \"env\"")?;
    for key in ["rustc", "os", "arch", "profile"] {
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

/// The suite a report was run for (`""` if the field is missing).
pub fn suite_of(doc: &Value) -> &str {
    doc.get("suite").and_then(Value::as_str).unwrap_or_default()
}

fn cells_by_name(doc: &Value) -> BTreeMap<String, &Value> {
    doc.get("cells")
        .and_then(Value::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|c| Some((c.get("name")?.as_str()?.to_string(), c)))
        .collect()
}

fn show(v: Option<&Value>) -> String {
    match v {
        None => "missing".into(),
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(other) => format!("{other:?}"),
    }
}

/// `key old -> new` for every key whose value differs between the objects
/// `old_cell[field]` and `new_cell[field]`, a key missing on one side
/// included.
fn field_diffs(old_cell: &Value, new_cell: &Value, field: &str) -> Vec<String> {
    let empty = BTreeMap::new();
    let old = old_cell.get(field).and_then(Value::as_obj).unwrap_or(&empty);
    let new = new_cell.get(field).and_then(Value::as_obj).unwrap_or(&empty);
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    keys.into_iter()
        .filter(|k| old.get(*k) != new.get(*k))
        .map(|k| format!("{k} {} -> {}", show(old.get(k)), show(new.get(k))))
        .collect()
}

/// Every way a fresh report (`new`) departs from a `baseline`, both
/// already validated by [`validate_schema`], one line per mismatch naming
/// its cell: a different suite, a baseline cell missing from the run, a
/// run cell missing from the baseline, or a cell whose `config` or
/// `counters` differ. Empty when the run reproduces the baseline. Timings
/// are never read.
pub fn compare(baseline: &Value, new: &Value) -> Vec<String> {
    let mut mismatches = Vec::new();
    let (old_suite, new_suite) = (suite_of(baseline), suite_of(new));
    if old_suite != new_suite {
        mismatches.push(format!("suite: baseline `{old_suite}`, run `{new_suite}`"));
    }
    let old_cells = cells_by_name(baseline);
    let new_cells = cells_by_name(new);
    for (name, old_cell) in &old_cells {
        let Some(new_cell) = new_cells.get(name) else {
            mismatches.push(format!("{name}: in the baseline but not in this run"));
            continue;
        };
        for field in ["config", "counters"] {
            let diffs = field_diffs(old_cell, new_cell, field);
            if !diffs.is_empty() {
                mismatches.push(format!("{name}: {field} changed: {}", diffs.join(", ")));
            }
        }
    }
    for name in new_cells.keys().filter(|name| !old_cells.contains_key(*name)) {
        mismatches.push(format!("{name}: in this run but not in the baseline"));
    }
    mismatches
}
