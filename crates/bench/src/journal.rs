//! Crash-safe resume journal for fleet sweeps.
//!
//! A sweep with `--journal` records every completed cell as one JSONL line
//! keyed by its coordinate label. The whole file is rewritten through the
//! atomic stage-and-commit helper on each record, so a `SIGKILL` at any
//! instant leaves either the previous journal intact or the new one fully
//! committed — the only tolerated damage is a torn *final* line from a
//! crash inside a non-atomic writer, which `load` silently drops (that
//! cell simply re-runs).
//!
//! Determinism contract: a cell's `CellSummary` round-trips *bit-exactly*.
//! Integer fields are emitted as JSON integers; the five `f64` response
//! statistics are emitted as their IEEE-754 bit patterns (decimal `u64`
//! strings), so a resumed sweep's `sapred-fleet/v2` report is byte-identical
//! to the uninterrupted one at any thread count.
//!
//! The header line carries the journal schema and an FNV-1a fingerprint of
//! the grid's canonical JSON ([`FleetGrid::to_json`]); resuming against a
//! different grid is a hard, path-naming error rather than a silent mix of
//! incompatible cells.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sapred_cluster::CellSummary;
use sapred_obs::json::{self, array, quoted, Obj, Value};
use sapred_obs::profile::Counter;
use sapred_obs::write_atomic;

use crate::fleet::FleetGrid;

/// Journal schema tag; bumped on any incompatible line-format change.
pub const JOURNAL_SCHEMA: &str = "sapred-fleet-journal/v2";

/// One journaled cell: the outcome exactly as the fleet recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledCell {
    /// Seed derived from the coordinate label; checked against the grid on
    /// load so a stale journal cannot smuggle in a foreign cell.
    pub cell_seed: u64,
    /// The cell's result: a bit-exact summary, or the panic/error message.
    pub outcome: Result<CellSummary, String>,
    /// Engine counters in [`Counter::ALL`] order (zeros for failed cells).
    pub counters: [u64; Counter::ALL.len()],
}

/// The on-disk journal plus its parsed entries.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    header: String,
    lines: Vec<String>,
    entries: BTreeMap<String, JournaledCell>,
}

impl Journal {
    /// Start a fresh journal for `grid`, atomically writing the header line
    /// (an existing file at `path` is replaced).
    pub fn create(path: &Path, grid: &FleetGrid) -> Result<Self, String> {
        let header = Obj::new()
            .str("schema", JOURNAL_SCHEMA)
            .str("grid_fingerprint", &grid.fingerprint().to_string())
            .finish();
        let journal = Journal {
            path: path.to_path_buf(),
            header,
            lines: Vec::new(),
            entries: BTreeMap::new(),
        };
        journal.flush()?;
        Ok(journal)
    }

    /// Load an existing journal for `grid`, tolerating a torn final line.
    /// Missing file is *not* an error: resume from nothing is a cold start.
    pub fn load_or_create(path: &Path, grid: &FleetGrid) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Self::create(path, grid);
            }
            Err(e) => return Err(format!("journal {}: {e}", path.display())),
        };
        let mut journal = Journal {
            path: path.to_path_buf(),
            header: String::new(),
            lines: Vec::new(),
            entries: BTreeMap::new(),
        };
        let lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == n;
            if line.is_empty() {
                continue;
            }
            let parsed = match json::parse(line) {
                Ok(v) => v,
                // A crash mid-write can tear only the final line; anything
                // unparsable earlier means real corruption.
                Err(_) if last => break,
                Err(e) => {
                    return Err(format!(
                        "journal {} line {}: unparsable entry: {e}",
                        path.display(),
                        i + 1
                    ));
                }
            };
            if i == 0 {
                check_header(&parsed, grid)
                    .map_err(|e| format!("journal {}: {e}", path.display()))?;
                journal.header = line.to_string();
                continue;
            }
            let (label, cell) = match decode_entry(&parsed) {
                Ok(entry) => entry,
                Err(_) if last => break,
                Err(e) => {
                    return Err(format!("journal {} line {}: {e}", path.display(), i + 1));
                }
            };
            journal.lines.push(line.to_string());
            journal.entries.insert(label, cell);
        }
        if journal.header.is_empty() {
            // Empty or fully-torn file: start over with a valid header.
            return Self::create(path, grid);
        }
        Ok(journal)
    }

    /// Record one completed cell and atomically persist the whole journal.
    pub fn record(&mut self, label: &str, cell: JournaledCell) -> Result<(), String> {
        self.lines.push(encode_entry(label, &cell));
        self.entries.insert(label.to_string(), cell);
        self.flush()
    }

    /// Cells already journaled, keyed by coordinate label.
    pub fn entries(&self) -> &BTreeMap<String, JournaledCell> {
        &self.entries
    }

    fn flush(&self) -> Result<(), String> {
        let mut text = String::with_capacity(
            self.header.len() + 1 + self.lines.iter().map(|l| l.len() + 1).sum::<usize>(),
        );
        text.push_str(&self.header);
        text.push('\n');
        for line in &self.lines {
            text.push_str(line);
            text.push('\n');
        }
        write_atomic(&self.path, text.as_bytes())
            .map_err(|e| format!("journal {}: {e}", self.path.display()))
    }
}

fn check_header(v: &Value, grid: &FleetGrid) -> Result<(), String> {
    let schema = v.get("schema").and_then(Value::as_str);
    if schema != Some(JOURNAL_SCHEMA) {
        return Err(format!(
            "expected schema {JOURNAL_SCHEMA:?}, found {:?}",
            schema.unwrap_or("<missing>")
        ));
    }
    let found = v
        .get("grid_fingerprint")
        .and_then(Value::as_str)
        .ok_or_else(|| "header is missing grid_fingerprint".to_string())?;
    let expected = grid.fingerprint().to_string();
    if found != expected {
        return Err(format!(
            "was written for a different grid (fingerprint {found}, this grid is {expected}); \
             delete the journal or rerun without --resume"
        ));
    }
    Ok(())
}

/// `CellSummary` integer fields in serialization order.
const INT_FIELDS: [&str; 6] =
    ["n_queries", "n_failed", "total_tasks", "total_attempts", "task_failures", "node_crashes"];

/// `CellSummary` f64 fields (stored as IEEE-754 bit patterns) in order.
const BITS_FIELDS: [&str; 5] =
    ["makespan", "mean_response", "p50_response", "p95_response", "p99_response"];

fn encode_entry(label: &str, cell: &JournaledCell) -> String {
    let mut obj = Obj::new().str("label", label).str("cell_seed", &cell.cell_seed.to_string());
    match &cell.outcome {
        Ok(s) => {
            let ints = [
                s.n_queries,
                s.n_failed,
                s.total_tasks,
                s.total_attempts,
                s.task_failures,
                s.node_crashes,
            ];
            for (name, v) in INT_FIELDS.iter().zip(ints) {
                obj = obj.int(name, v as u64);
            }
            let bits =
                [s.makespan, s.mean_response, s.p50_response, s.p95_response, s.p99_response];
            for (name, v) in BITS_FIELDS.iter().zip(bits) {
                obj = obj.str(name, &v.to_bits().to_string());
            }
            obj = obj.raw("counters", &array(cell.counters.iter().map(|c| quoted(&c.to_string()))));
        }
        Err(msg) => obj = obj.str("error", msg),
    }
    obj.finish()
}

fn u64_str(v: &Value, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Value::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("missing or malformed field {field:?}"))
}

fn usize_field(v: &Value, field: &str) -> Result<usize, String> {
    v.get(field)
        .and_then(Value::as_num)
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing or malformed field {field:?}"))
}

fn decode_entry(v: &Value) -> Result<(String, JournaledCell), String> {
    let label = v
        .get("label")
        .and_then(Value::as_str)
        .ok_or_else(|| "entry is missing label".to_string())?
        .to_string();
    let cell_seed = u64_str(v, "cell_seed")?;
    if let Some(err) = v.get("error").and_then(Value::as_str) {
        return Ok((
            label,
            JournaledCell {
                cell_seed,
                outcome: Err(err.to_string()),
                counters: [0; Counter::ALL.len()],
            },
        ));
    }
    let ints: Vec<usize> =
        INT_FIELDS.iter().map(|f| usize_field(v, f)).collect::<Result<_, _>>()?;
    let bits: Vec<f64> =
        BITS_FIELDS.iter().map(|f| u64_str(v, f).map(f64::from_bits)).collect::<Result<_, _>>()?;
    let summary = CellSummary {
        n_queries: ints[0],
        n_failed: ints[1],
        makespan: bits[0],
        mean_response: bits[1],
        p50_response: bits[2],
        p95_response: bits[3],
        p99_response: bits[4],
        total_tasks: ints[2],
        total_attempts: ints[3],
        task_failures: ints[4],
        node_crashes: ints[5],
    };
    let raw = v
        .get("counters")
        .and_then(Value::as_arr)
        .ok_or_else(|| "entry is missing counters".to_string())?;
    if raw.len() != Counter::ALL.len() {
        return Err(format!("entry has {} counters, expected {}", raw.len(), Counter::ALL.len()));
    }
    let mut counters = [0u64; Counter::ALL.len()];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = val
            .as_str()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| "malformed counter value".to_string())?;
    }
    Ok((label, JournaledCell { cell_seed, outcome: Ok(summary), counters }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{bench_grid, WorkloadSpec};

    fn grid() -> FleetGrid {
        bench_grid(2, 2, 2, WorkloadSpec::uniform(4, 2, 3, 2), 7)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sapred-journal-{}-{name}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join("journal.jsonl")
    }

    fn sample_summary() -> CellSummary {
        CellSummary {
            n_queries: 12,
            n_failed: 1,
            makespan: 123.456789,
            mean_response: 0.1 + 0.2, // deliberately non-representable
            p50_response: 7.25,
            p95_response: f64::NAN,
            p99_response: 1e-300,
            total_tasks: 300,
            total_attempts: 321,
            task_failures: 21,
            node_crashes: 2,
        }
    }

    fn sample_cell(seed: u64) -> JournaledCell {
        let mut counters = [0u64; Counter::ALL.len()];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = (seed.wrapping_mul(31)).wrapping_add(i as u64);
        }
        JournaledCell { cell_seed: seed, outcome: Ok(sample_summary()), counters }
    }

    fn bits_eq(a: &CellSummary, b: &CellSummary) -> bool {
        a.n_queries == b.n_queries
            && a.n_failed == b.n_failed
            && a.makespan.to_bits() == b.makespan.to_bits()
            && a.mean_response.to_bits() == b.mean_response.to_bits()
            && a.p50_response.to_bits() == b.p50_response.to_bits()
            && a.p95_response.to_bits() == b.p95_response.to_bits()
            && a.p99_response.to_bits() == b.p99_response.to_bits()
            && a.total_tasks == b.total_tasks
            && a.total_attempts == b.total_attempts
            && a.task_failures == b.task_failures
            && a.node_crashes == b.node_crashes
    }

    #[test]
    fn round_trips_bit_exactly_including_nan_and_error_cells() {
        let grid = grid();
        let path = tmp("roundtrip");
        let mut journal = Journal::create(&path, &grid).unwrap();
        journal.record("cell-a", sample_cell(11)).unwrap();
        journal
            .record(
                "cell-b",
                JournaledCell {
                    cell_seed: 22,
                    outcome: Err("panicked: index out of \"bounds\"\nat fleet.rs".into()),
                    counters: [0; Counter::ALL.len()],
                },
            )
            .unwrap();

        let loaded = Journal::load_or_create(&path, &grid).unwrap();
        assert_eq!(loaded.entries().len(), 2);
        let a = &loaded.entries()["cell-a"];
        assert_eq!(a.cell_seed, 11);
        assert!(bits_eq(a.outcome.as_ref().unwrap(), &sample_summary()));
        assert_eq!(a.counters, sample_cell(11).counters);
        let b = &loaded.entries()["cell-b"];
        assert_eq!(
            b.outcome.as_ref().unwrap_err(),
            "panicked: index out of \"bounds\"\nat fleet.rs"
        );
    }

    #[test]
    fn torn_final_line_is_dropped_but_earlier_corruption_is_fatal() {
        let grid = grid();
        let path = tmp("torn");
        let mut journal = Journal::create(&path, &grid).unwrap();
        journal.record("cell-a", sample_cell(1)).unwrap();
        journal.record("cell-b", sample_cell(2)).unwrap();

        // Tear the last line mid-byte, as a crash inside a write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 25];
        std::fs::write(&path, torn).unwrap();
        let loaded = Journal::load_or_create(&path, &grid).unwrap();
        assert_eq!(loaded.entries().len(), 1, "torn tail entry should be dropped");
        assert!(loaded.entries().contains_key("cell-a"));

        // The same damage on a *non-final* line must be a loud error that
        // names the journal path.
        let mut lines: Vec<&str> = text.lines().collect();
        let second = lines[1];
        let cut = &second[..second.len() - 10];
        lines[1] = cut;
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = Journal::load_or_create(&path, &grid).unwrap_err();
        assert!(err.contains("journal"), "error should say what file: {err}");
        assert!(err.contains("line 2"), "error should locate the damage: {err}");
    }

    #[test]
    fn grid_fingerprint_mismatch_is_rejected() {
        let grid = grid();
        let other = bench_grid(3, 2, 2, WorkloadSpec::uniform(4, 2, 3, 2), 7);
        let path = tmp("fingerprint");
        let mut journal = Journal::create(&path, &grid).unwrap();
        journal.record("cell-a", sample_cell(1)).unwrap();
        let err = Journal::load_or_create(&path, &other).unwrap_err();
        assert!(err.contains("different grid"), "{err}");
        assert!(err.contains("journal"), "{err}");
    }

    #[test]
    fn missing_file_and_empty_file_are_cold_starts() {
        let grid = grid();
        let path = tmp("cold");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::load_or_create(&path, &grid).unwrap();
        assert!(journal.entries().is_empty());
        std::fs::write(&path, "").unwrap();
        let journal = Journal::load_or_create(&path, &grid).unwrap();
        assert!(journal.entries().is_empty());
    }
}
