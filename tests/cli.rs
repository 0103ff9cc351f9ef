//! The `sapred` binary end to end: a misspelt or foreign flag is an error
//! that names it, never silently ignored, and `gather` writes a catalog
//! that loads back.

use std::process::Command;

#[test]
fn unknown_flags_are_rejected_by_name() {
    let cases: [(&[&str], &str); 9] = [
        (&["reproduce", "--queries", "5"], "--queries"),
        (&["explain", "--sql", "SELECT 1", "--sacle", "3"], "--sacle"),
        (&["trace", "bing", "--queue_cap", "3"], "--queue_cap"),
        // Admission-control, prediction-guard and live-oracle flags:
        // `sapred` offers none of them.
        (&["trace", "bing", "--guard", "on"], "--guard"),
        (&["trace", "bing", "--oracle", "recalibrating"], "--oracle"),
        (&["trace", "bing", "--queue-cap", "3"], "--queue-cap"),
        (&["fleet", "--queue-caps", "0,8"], "--queue-caps"),
        // The fleet has no resume journal.
        (&["fleet", "--journal", "j.jsonl"], "--journal"),
        (&["fleet", "--resume"], "--resume"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sapred"))
            .args(args)
            .output()
            .expect("the sapred binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "sapred {args:?} succeeded");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "sapred {args:?}: {stderr}");
    }
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
            let out = Command::new(env!("CARGO_BIN_EXE_sapred"))
                .args(args)
                .output()
                .expect("the sapred binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "sapred {args:?} succeeded");
            assert!(stderr.contains("error: --scale: scale"), "sapred {args:?}: {stderr}");
        }
        assert!(!path.exists(), "gather --scale {scale} wrote a catalog");
    }
    std::fs::remove_dir_all(&dir).ok();
}
