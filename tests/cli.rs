//! The `sapred` binary end to end: a misspelt or foreign flag, or a value
//! a flag cannot take, is an error that names it, never silently ignored,
//! and `gather` writes a catalog that loads back.

use std::process::{Command, Output};

fn sapred(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sapred"))
        .args(args)
        .output()
        .expect("the sapred binary starts")
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let cases: [(&[&str], &str); 12] = [
        (&["reproduce", "--queries", "5"], "--queries"),
        (&["explain", "--sql", "SELECT 1", "--sacle", "3"], "--sacle"),
        (&["trace", "bing", "--queue_cap", "3"], "--queue_cap"),
        // Admission-control, prediction-guard and live-oracle flags:
        // `sapred` offers none of them.
        (&["trace", "bing", "--guard", "on"], "--guard"),
        (&["trace", "bing", "--oracle", "recalibrating"], "--oracle"),
        (&["trace", "bing", "--queue-cap", "3"], "--queue-cap"),
        // `bench` has one shape per cell and a compare that reads no timing.
        (&["bench", "--quick"], "--quick"),
        (&["bench", "--iters", "1"], "--iters"),
        (&["bench", "--threshold", "0.1"], "--threshold"),
        (&["bench", "--gate"], "--gate"),
        (&["bench", "--validate", "BENCH_dispatch.json"], "--validate"),
        (&["bench", "--compare-files", "a.json", "b.json"], "--compare-files"),
    ];
    for (args, flag) in cases {
        let out = sapred(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "sapred {args:?} succeeded");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "sapred {args:?}: {stderr}");
    }
    // `sapred` has no grid sweeper.
    let out = sapred(&["fleet"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "sapred fleet: {stderr}");
    assert!(stderr.contains("unknown command `fleet`"), "sapred fleet: {stderr}");
}

#[test]
fn gather_writes_a_catalog_that_loads_back() {
    let dir = std::env::temp_dir().join(format!("sapred_cli_gather_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cat.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sapred"))
        .args(["gather", "--scale", "0.01", "--out"])
        .arg(&path)
        .output()
        .expect("the sapred binary starts");
    assert!(out.status.success(), "gather failed: {}", String::from_utf8_lossy(&out.stderr));
    let loaded = sapred::core::persist::load_catalog(&path).expect("the catalog loads back");
    let db = sapred::relation::gen::generate(sapred::relation::gen::GenConfig::new(0.01));
    assert_eq!(loaded.len(), db.catalog().len());
    for table in db.catalog().tables() {
        let got = loaded.get(table.name()).unwrap_or_else(|| panic!("{} missing", table.name()));
        assert_eq!(got.schema(), table.schema());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A scale that is not a finite positive number is refused by name before
/// any instance is generated, and `gather` then writes no catalog. (The
/// upper limit is checked on `checked_row_counts` alone: a scale past it
/// would need ~100 GB if the check failed.)
#[test]
fn non_finite_or_non_positive_scales_are_rejected() {
    let dir = std::env::temp_dir().join(format!("sapred_cli_scale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cat.json");
    for scale in ["nan", "inf", "-inf", "-4", "0", "-0"] {
        let runs: [&[&str]; 3] = [
            &["gather", "--scale", scale, "--out", path.to_str().unwrap()],
            &["explain", "--sql", "SELECT 1", "--scale", scale],
            &["predict", "--sql", "SELECT 1", "--scale", scale],
        ];
        for args in runs {
            let out = sapred(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "sapred {args:?} succeeded");
            assert!(stderr.contains("error: --scale: scale"), "sapred {args:?}: {stderr}");
        }
        assert!(!path.exists(), "gather --scale {scale} wrote a catalog");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A value a flag cannot take is refused by name before any work starts:
/// no training, no mix preparation, no comparison.
#[test]
fn bad_flag_values_are_rejected_before_any_work() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_dispatch.json");
    let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
    for gap in ["0", "-1", "nan", "inf"] {
        cases.push((vec!["simulate", "--mix", "bing", "--gap", gap, "--queries", "8"], "--gap"));
        cases.push((vec!["trace", "bing", "--gap", gap, "--queries", "8"], "--gap"));
    }
    for divisor in ["0", "-2", "nan"] {
        cases.push((vec!["simulate", "--mix", "facebook", "--divisor", divisor], "--divisor"));
        cases.push((vec!["trace", "facebook", "--divisor", divisor], "--divisor"));
    }
    cases.push((vec!["trace", "bing", "--sched", "nope", "--queries", "8"], "--sched"));
    cases.push((vec!["bench", "--threads", "0", "--compare", baseline], "--threads"));
    for (args, flag) in cases {
        let out = sapred(&args);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "sapred {args:?}: {stderr}");
        assert!(stderr.contains(&format!("error: {flag}")), "sapred {args:?}: {stderr}");
        assert!(stdout.is_empty(), "sapred {args:?} started work: {stdout}");
    }
    // A suite `bench` does not have, or a baseline of another suite, runs
    // no cell and writes no report.
    let dir = std::env::temp_dir().join(format!("sapred_cli_suite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_dir = dir.to_str().expect("UTF-8 path");
    let runs: [(&[&str], &str); 2] = [
        (&["bench", "--suite", "fleet", "--out", out_dir], "unknown suite `fleet`"),
        (
            &["bench", "--suite", "scale", "--compare", baseline, "--out", out_dir],
            "pins suite `dispatch`, not `scale`",
        ),
    ];
    for (args, wanted) in runs {
        let out = sapred(args);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "sapred {args:?}: {stderr}");
        assert!(stderr.contains(wanted), "sapred {args:?}: {stderr}");
        assert!(stdout.is_empty(), "sapred {args:?} started work: {stdout}");
        let written = std::fs::read_dir(&dir).expect("temp dir").count();
        assert_eq!(written, 0, "sapred {args:?} wrote {written} file(s)");
    }
    std::fs::remove_dir_all(&dir).ok();
}
