//! The paper's evaluation, pinned: `sapred reproduce` must print
//! `tests/golden/reproduce.txt` byte for byte, and its eleven fidelity
//! values must be bit-equal to the references the repository benchmark
//! (`perfbench/src/paper.rs`) checks every `paper` run against.
//!
//! Release-only: the full reproduction takes about 20 s optimized and many
//! minutes in a debug build. `cargo test --release` runs both tests; the
//! reduced-population test in `sapred_core::experiments::reproduce` is the
//! debug-build tripwire.

use sapred::core::experiments::reproduce::reproduce;
use std::path::Path;
use std::process::Command;

const GOLDEN: &str = "tests/golden/reproduce.txt";
const REGENERATE: &str =
    "cargo run --release --bin sapred -- reproduce > tests/golden/reproduce.txt";

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The lines that differ, position by position (the report's layout is
/// fixed, so a positional diff points at the changed rows).
fn line_diff(expected: &str, actual: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            for (sign, line) in [('-', w), ('+', g)] {
                if let Some(line) = line {
                    out.push_str(&format!("{:>4} {sign} {line}\n", i + 1));
                }
            }
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with cargo test --release")]
fn reproduce_prints_the_golden_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_sapred"))
        .arg("reproduce")
        .output()
        .expect("the sapred binary starts");
    assert!(
        out.status.success(),
        "sapred reproduce failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("the report is UTF-8");
    let expected = repo_file(GOLDEN);
    assert!(
        actual == expected,
        "`sapred reproduce` differs from {GOLDEN} (- golden, + now):\n{}\n\
         If the change is intended, regenerate the file with\n  {REGENERATE}",
        line_diff(&expected, &actual)
    );
}

/// `(name, reference)` of every `fid("name", higher_is_better, reference)`
/// entry in the benchmark's `FIDELITY` table, in its order.
fn benchmark_references() -> Vec<(String, f64)> {
    repo_file("perfbench/src/paper.rs")
        .lines()
        .filter_map(|line| line.trim().strip_prefix("fid(\""))
        .map(|rest| {
            let (name, rest) = rest.split_once('"').expect("a quoted fidelity name");
            let value = rest.trim_end_matches(['(', ')', ',']).rsplit(',').next();
            let value = value.expect("a reference value").trim();
            (name.to_string(), value.parse().expect("the reference is an f64 literal"))
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with cargo test --release")]
fn fidelity_is_bit_equal_to_the_benchmark_references() {
    let references = benchmark_references();
    assert_eq!(references.len(), 11, "perfbench's FIDELITY table: {references:?}");
    let values = reproduce().expect("the reproduction runs").fidelity();
    let mismatches: Vec<String> = references
        .iter()
        .zip(values)
        .filter(|((_, want), got)| want.to_bits() != got.to_bits())
        .map(|((name, want), got)| format!("{name}: reference {want:?}, now {got:?}"))
        .collect();
    assert!(mismatches.is_empty(), "fidelity values moved:\n{}", mismatches.join("\n"));
}
