//! End-to-end tests of the `sapred bench` harness: deterministic cells,
//! schema-valid reports, and the compare classifier (clean / skipped /
//! drift / regression).

use sapred_bench::harness::{dispatch_suite, run_cell, run_suite, CellKind, CellResult, CellSpec};
use sapred_bench::report::{compare, load_report, suite_json, validate_schema, SCHEMA};

/// A tiny dispatch cell that runs in milliseconds even in debug builds.
fn tiny_cell() -> CellSpec {
    CellSpec {
        name: "dispatch_incremental",
        kind: CellKind::Dispatch { n_queries: 6, jobs: 2, maps: 4, reduces: 2, traced: false },
        iters: 2,
        seed: 7,
    }
}

#[test]
fn quick_dispatch_suite_is_deterministic_and_schema_valid() {
    let specs = dispatch_suite(true);
    let first = run_suite(&specs, 2);
    let second = run_suite(&specs, 1);
    assert_eq!(first.len(), specs.len());
    for (a, b) in first.iter().zip(&second) {
        assert!(a.deterministic, "cell {} not deterministic across iters", a.name);
        assert_eq!(a.name, b.name);
        assert_eq!(a.config, b.config, "cell {} config not reproducible", a.name);
        assert_eq!(a.counters, b.counters, "cell {} counters not reproducible", a.name);
        assert_eq!(a.seed, b.seed);
        assert!(!a.metrics.is_empty());
    }

    let doc_text = suite_json("dispatch", true, &first);
    let doc = validate_schema(&doc_text).expect("fresh report validates");
    assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), SCHEMA);

    // Self-comparison is clean: no skips, no drift, no regressions.
    let again = validate_schema(&suite_json("dispatch", true, &second)).unwrap();
    let cmp = compare(&doc, &again, 1e9);
    assert_eq!(cmp.skipped, 0, "{:?}", cmp.lines);
    assert_eq!(cmp.drifts, 0, "{:?}", cmp.lines);
    assert_eq!(cmp.regressions, 0, "{:?}", cmp.lines);
}

#[test]
fn compare_classifies_regression_drift_and_config_mismatch() {
    let base = run_cell(&tiny_cell());
    let baseline =
        validate_schema(&suite_json("dispatch", true, std::slice::from_ref(&base))).unwrap();

    // Timing regression: wall percentile doubled, throughput halved.
    let mut slow = base.clone();
    for (metric, value) in slow.metrics.iter_mut() {
        if metric.ends_with("_per_s") {
            *value /= 4.0;
        } else {
            *value *= 4.0;
        }
    }
    let slow_doc = validate_schema(&suite_json("dispatch", true, &[slow])).unwrap();
    let cmp = compare(&baseline, &slow_doc, 0.25);
    assert!(cmp.regressions > 0, "{:?}", cmp.lines);
    assert_eq!(cmp.drifts, 0);
    assert!(cmp.gate_failed());
    // The same movement in the good direction is an improvement, not a
    // regression (direction depends on the metric's name).
    let cmp_back = compare(&slow_doc, &baseline, 0.25);
    assert_eq!(cmp_back.regressions, 0, "{:?}", cmp_back.lines);
    assert!(cmp_back.improvements > 0);

    // Counter mismatch is determinism drift regardless of threshold.
    let mut drifted = base.clone();
    *drifted.counters.get_mut("events_processed").unwrap() += 1;
    let drift_doc = validate_schema(&suite_json("dispatch", true, &[drifted])).unwrap();
    let cmp = compare(&baseline, &drift_doc, 1e9);
    assert_eq!(cmp.drifts, 1, "{:?}", cmp.lines);
    assert!(cmp.gate_failed());

    // Config mismatch (e.g. quick vs. full shapes) is skipped, not judged.
    let mut respec = tiny_cell();
    respec.kind = CellKind::Dispatch { n_queries: 4, jobs: 2, maps: 4, reduces: 2, traced: false };
    let other = run_cell(&respec);
    let other_doc = validate_schema(&suite_json("dispatch", true, &[other])).unwrap();
    let cmp = compare(&baseline, &other_doc, 1e9);
    assert_eq!(cmp.skipped, 1, "{:?}", cmp.lines);
    assert!(!cmp.gate_failed());
}

/// One panicking cell must not take down the suite: the survivors finish,
/// the explosion is recorded on its own cell with its panic message, and
/// the report (with the failed cell in it) still validates.
#[test]
fn run_suite_survives_a_panicking_cell() {
    // `iters: 0` trips `run_cell`'s assertion — a deterministic panic
    // injected through the public spec surface, no test-only hooks.
    let exploder = CellSpec { name: "exploder", iters: 0, ..tiny_cell() };
    let specs = [tiny_cell(), exploder, tiny_cell()];
    let cells = run_suite(&specs, 2);
    assert_eq!(cells.len(), specs.len(), "a panicking cell lost results");

    let failed = &cells[1];
    assert_eq!(failed.name, "exploder");
    let msg = failed.error.as_ref().expect("panic recorded as an error");
    assert!(msg.contains("zero iterations"), "panic message lost: {msg}");
    assert!(!failed.deterministic);
    assert!(failed.counters.is_empty() && failed.wall_s.is_empty() && failed.metrics.is_empty());

    for survivor in [&cells[0], &cells[2]] {
        assert!(survivor.error.is_none());
        assert!(survivor.deterministic, "survivor {} was corrupted", survivor.name);
        assert!(!survivor.counters.is_empty());
    }

    // The failed cell still serializes into a schema-valid report, and a
    // baseline comparison flags it as drift (its counters vanished) rather
    // than silently dropping it.
    let text = suite_json("dispatch", true, &cells);
    let doc = validate_schema(&text).expect("report with a failed cell validates");
    let healthy = run_suite(&[specs[0], specs[2]], 1);
    let mut baseline_cells = vec![healthy[0].clone(), cells[1].clone(), healthy[1].clone()];
    baseline_cells[1] = run_cell(&specs[0]); // stand-in healthy baseline for the exploder
    baseline_cells[1].name = "exploder".to_string();
    let baseline = validate_schema(&suite_json("dispatch", true, &baseline_cells)).unwrap();
    let cmp = compare(&baseline, &doc, 1e9);
    assert!(cmp.drifts > 0, "failed cell did not surface as drift: {:?}", cmp.lines);
}

#[test]
fn malformed_reports_are_rejected() {
    assert!(validate_schema("not json").is_err());
    assert!(validate_schema("{}").is_err());
    // Wrong schema tag.
    let err = validate_schema(
        r#"{"schema":"sapred-bench/v0","suite":"x","quick":false,"env":{},"cells":[]}"#,
    )
    .unwrap_err();
    assert!(err.contains("unsupported schema"), "{err}");
    // Cell with a non-integer counter.
    let err = validate_schema(concat!(
        r#"{"schema":"sapred-bench/v1","suite":"x","quick":false,"#,
        r#""env":{"rustc":"r","commit":"c","cores":1,"os":"linux","arch":"x","profile":"release"},"#,
        r#""cells":[{"name":"a","seed":1,"iters":1,"deterministic":true,"config":{},"#,
        r#""counters":{"events_processed":1.5},"wall_s":[0.1],"metrics":{}}]}"#
    ))
    .unwrap_err();
    assert!(err.contains("non-negative int"), "{err}");
}

/// `--compare` against a baseline that was never generated must say which
/// file is missing and how to create it, not surface a bare IO error.
#[test]
fn load_report_names_a_missing_baseline() {
    let path = std::env::temp_dir()
        .join(format!("sapred-load-missing-{}", std::process::id()))
        .join("BENCH_nope.json");
    let err = load_report(path.to_str().unwrap()).unwrap_err();
    assert!(err.contains("BENCH_nope.json"), "error must name the path: {err}");
    assert!(err.contains("does not exist"), "error must say what's wrong: {err}");
    assert!(err.contains("sapred bench"), "error must say how to fix it: {err}");
}

/// An unparseable or wrong-schema baseline must also name its path.
#[test]
fn load_report_names_an_unparseable_baseline() {
    let dir = std::env::temp_dir().join(format!("sapred-load-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_bad.json");
    std::fs::write(&path, "{\"schema\": \"sapred-bench/v1\", truncated").unwrap();
    let err = load_report(path.to_str().unwrap()).unwrap_err();
    assert!(err.contains("BENCH_bad.json"), "error must name the path: {err}");

    std::fs::write(&path, "{\"schema\": \"something-else/v9\"}").unwrap();
    let err = load_report(path.to_str().unwrap()).unwrap_err();
    assert!(err.contains("BENCH_bad.json"), "error must name the path: {err}");
    assert!(err.contains("something-else/v9"), "error must show the bad schema: {err}");
}

/// A valid report loads and returns the parsed document.
#[test]
fn load_report_round_trips_a_valid_report() {
    let dir = std::env::temp_dir().join(format!("sapred-load-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_ok.json");
    let cells = run_suite(&dispatch_suite(true)[..1], 1);
    std::fs::write(&path, suite_json("dispatch", true, &cells)).unwrap();
    let doc = load_report(path.to_str().unwrap()).expect("valid report loads");
    assert_eq!(doc.get("suite").and_then(|v| v.as_str()), Some("dispatch"));
}

/// `sapred bench` exits nonzero when a cell panicked or was
/// non-deterministic, naming each such cell; a sound cell names nothing.
#[test]
fn failed_and_non_deterministic_cells_fail_the_run() {
    let failed = CellResult::failed(&tiny_cell(), "boom".into());
    assert_eq!(failed.fault().as_deref(), Some("dispatch_incremental failed: boom"));
    let mut flaky = failed.clone();
    flaky.error = None;
    assert_eq!(flaky.fault().as_deref(), Some("dispatch_incremental is non-deterministic"));
    let mut sound = flaky;
    sound.deterministic = true;
    assert_eq!(sound.fault(), None);
}
