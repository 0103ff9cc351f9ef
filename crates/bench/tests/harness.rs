//! End-to-end tests of the `sapred bench` harness: deterministic cells,
//! schema-valid reports, and the strict baseline compare.

use sapred_bench::harness::{run_cell, run_suite, CellKind, CellResult, CellSpec};
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

/// Three small cells, one of each kind the suites run.
fn small_suite() -> Vec<CellSpec> {
    vec![
        tiny_cell(),
        CellSpec {
            name: "fault_stress",
            kind: CellKind::FaultStress { n_queries: 6, jobs: 2, maps: 6, reduces: 3 },
            iters: 2,
            seed: 11,
        },
        CellSpec {
            name: "scale",
            kind: CellKind::Scale { n_queries: 8, jobs: 2, maps: 6, reduces: 2 },
            iters: 1,
            seed: 7,
        },
    ]
}

#[test]
fn suite_runs_are_deterministic_and_schema_valid() {
    let specs = small_suite();
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

    let doc = validate_schema(&suite_json("dispatch", &first)).expect("fresh report validates");
    assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), SCHEMA);

    // A run at another thread count reproduces the first one's pins.
    let again = validate_schema(&suite_json("dispatch", &second)).unwrap();
    assert_eq!(compare(&doc, &again), Vec::<String>::new());
}

/// Anything a baseline pins that a run does not reproduce fails the
/// compare with a line naming the cell; timings are never compared.
#[test]
fn compare_fails_on_any_mismatch_and_names_its_cell() {
    let cells = run_suite(&small_suite(), 1);
    let doc = |cells: &[CellResult]| validate_schema(&suite_json("dispatch", cells)).unwrap();
    let baseline = doc(&cells);

    // A self-compare passes, however different the timings.
    let mut slow = cells.clone();
    for cell in &mut slow {
        cell.wall_s.iter_mut().for_each(|w| *w *= 4.0);
        cell.metrics.values_mut().for_each(|m| *m *= 4.0);
    }
    assert_eq!(compare(&baseline, &doc(&slow)), Vec::<String>::new());

    // A counter change.
    let mut drifted = cells.clone();
    *drifted[1].counters.get_mut("events_processed").unwrap() += 1;
    let got = compare(&baseline, &doc(&drifted));
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].starts_with("fault_stress: counters changed: events_processed "), "{got:?}");

    // A config change.
    let mut respec = small_suite();
    respec[2].kind = CellKind::Scale { n_queries: 9, jobs: 2, maps: 6, reduces: 2 };
    let got = compare(&baseline, &doc(&run_suite(&respec, 1)));
    assert!(got.contains(&"scale: config changed: n_queries 8 -> 9".to_string()), "{got:?}");

    // A baseline cell missing from the run.
    let got = compare(&baseline, &doc(&cells[..2]));
    assert_eq!(got, ["scale: in the baseline but not in this run"]);

    // A run cell missing from the baseline.
    let got = compare(&doc(&cells[1..]), &baseline);
    assert_eq!(got, ["dispatch_incremental: in this run but not in the baseline"]);

    // A report of another suite.
    let other = validate_schema(&suite_json("scale", &cells)).unwrap();
    assert_eq!(compare(&baseline, &other), ["suite: baseline `dispatch`, run `scale`"]);
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
    // compare against a healthy baseline fails on it (its counters
    // vanished) rather than silently dropping it.
    let doc = validate_schema(&suite_json("dispatch", &cells))
        .expect("report with a failed cell validates");
    let stand_in = CellResult { name: "exploder".to_string(), ..run_cell(&specs[0]) };
    let events = stand_in.counters["events_processed"];
    let baseline_cells = [cells[0].clone(), stand_in, cells[2].clone()];
    let baseline = validate_schema(&suite_json("dispatch", &baseline_cells)).unwrap();
    let got = compare(&baseline, &doc);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].starts_with("exploder: counters changed: "), "{got:?}");
    assert!(got[0].contains(&format!("events_processed {events} -> missing")), "{got:?}");
}

#[test]
fn malformed_reports_are_rejected() {
    assert!(validate_schema("not json").is_err());
    assert!(validate_schema("{}").is_err());
    // Wrong schema tag.
    let err = validate_schema(
        r#"{"schema":"sapred-bench/v1","suite":"x","quick":false,"env":{},"cells":[]}"#,
    )
    .unwrap_err();
    assert!(err.contains("unsupported schema"), "{err}");
    // Cell with a non-integer counter.
    let err = validate_schema(concat!(
        r#"{"schema":"sapred-bench/v2","suite":"x","#,
        r#""env":{"rustc":"r","cores":1,"os":"linux","arch":"x","profile":"release"},"#,
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
    std::fs::write(&path, "{\"schema\": \"sapred-bench/v2\", truncated").unwrap();
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
    let cells = run_suite(&[tiny_cell()], 1);
    let text = suite_json("dispatch", &cells);
    std::fs::write(&path, &text).unwrap();
    let doc = load_report(path.to_str().unwrap()).expect("valid report loads");
    assert_eq!(doc, validate_schema(&text).unwrap());
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
