//! `sapred` — command-line driver for the semantics-aware query prediction
//! framework. A thin shell over [`sapred::core::Pipeline`]: every command
//! walks some prefix of the staged lifecycle (percolate → train → predict
//! → simulate).
//!
//! ```text
//! sapred explain    --sql "SELECT ..." [--scale GB]        # DAG + estimates vs ground truth
//! sapred gather     --scale GB --out catalog.json          # export metastore statistics
//! sapred train      [--queries N] [--seed S]               # fit models, print Tables 3-5
//! sapred predict    --sql "SELECT ..." [--scale GB]        # train + predict one query
//! sapred simulate   --mix bing|facebook [--gap S] [--divisor D]   # Fig. 8
//! sapred trace      bing|facebook [--out trace.json] [--events events.jsonl] [--metrics metrics.json]
//! sapred fleet      [--schedulers CSV] [--fail-probs CSV] [--seeds N] [--out fleet.json]   # grid sweep
//! sapred bench      [--suite dispatch|pipeline|fleet|scale|all] [--quick] [--compare BENCH.json] [--gate]
//! sapred motivation [--small GB] [--big GB]                # Figs. 1-2
//! ```

use sapred::cluster::sched::{Fifo, Hcs, Hfs, Srt, Swrd};
use sapred::cluster::{
    AdmissionConfig, DemandOracle, FrozenOracle, GuardedOracle, Run, ShedPolicy,
};
use sapred::core::experiments::accuracy::{job_accuracy, map_task_accuracy, reduce_task_accuracy};
use sapred::core::experiments::motivation::motivation;
use sapred::core::experiments::scheduling::run_schedulers;
use sapred::core::telemetry::record_sim_outcomes;
use sapred::core::{Error, Pipeline, RecalibratingOracle};
use sapred::obs::{
    write_atomic, ChromeTraceSink, Counter, JsonlSink, MetricsSink, SpanProfiler, Tee,
};
use sapred::plan::ground_truth::execute_dag;
use sapred::relation::persist::save_catalog;
use sapred::selectivity::EstimatorKind;
use sapred::workload::mixes::{bing_mix, facebook_mix, MixSpec};
use sapred::workload::population::PopulationConfig;
use sapred_bench::fleet::{
    run_fleet, run_fleet_journaled, AdmissionLevel, FaultLevel, FleetGrid, SchedKind, WorkloadSpec,
};
use sapred_bench::harness::{
    dispatch_suite, fleet_suite, pipeline_suite, run_suite, scale_suite, CellResult,
};
use sapred_bench::report::{compare, suite_json, validate_schema, Comparison};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `trace` takes its workload positionally, `bench` has boolean flags,
    // and `fleet` strips its boolean `--resume` before the value-taking
    // flag parser runs — so all three parse their own args.
    let result = if command == "trace" {
        cmd_trace(&args[1..])
    } else if command == "bench" {
        cmd_bench(&args[1..])
    } else if command == "fleet" {
        let resume = args[1..].iter().any(|a| a == "--resume");
        let rest: Vec<String> = args[1..].iter().filter(|a| *a != "--resume").cloned().collect();
        parse_flags(&rest).and_then(|flags| cmd_fleet(&flags, resume))
    } else {
        match parse_flags(&args[1..]) {
            Ok(flags) => match command.as_str() {
                "explain" => cmd_explain(&flags),
                "gather" => cmd_gather(&flags),
                "train" => cmd_train(&flags),
                "predict" => cmd_predict(&flags),
                "simulate" => cmd_simulate(&flags),
                "motivation" => cmd_motivation(&flags),
                "help" | "--help" | "-h" => {
                    println!("{USAGE}");
                    Ok(())
                }
                other => Err(Error::invalid(format!("unknown command `{other}`"))),
            },
            Err(e) => Err(e),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "sapred — semantics-aware query prediction for MapReduce

USAGE:
  sapred explain    --sql <QUERY> [--scale <GB>] [--seed <N>] [--estimator <histogram|sample|catalog>]
  sapred gather     --scale <GB> --out <FILE> [--seed <N>]
  sapred train      [--queries <N>] [--seed <N>]
  sapred predict    --sql <QUERY> [--scale <GB>] [--queries <N>] [--estimator <histogram|sample|catalog>]
  sapred simulate   --mix <bing|facebook> [--gap <SECONDS>] [--divisor <D>] [--queries <N>]
  sapred trace      <bing|facebook> [--sched <swrd|hcs|hfs|fifo|srt>] [--out <trace.json>]
                    [--events <events.jsonl>] [--metrics <metrics.json>] [--oracle <frozen|recalibrating>]
                    [--gap <SECONDS>] [--divisor <D>] [--queries <N>] [--seed <N>]
                    [--queue-cap <N>] [--deadline <SECONDS>]
                    [--shed-policy <reject-newest|largest-wrd>] [--guard <on|off>]
                    [--profile <profile.json>]
  sapred fleet      [--grid <GRID.json>] [--schedulers <CSV of swrd|hcs|hfs|fifo|srt>]
                    [--fail-probs <CSV>] [--queue-caps <CSV>] [--deadline <SECONDS>]
                    [--shed-policy <reject-newest|largest-wrd>] [--seeds <N>] [--seed <BASE>]
                    [--queries <N>] [--jobs <N>] [--maps <N>] [--reduces <N>]
                    [--estimators <CSV of histogram|sample|catalog>] [--skews <CSV>]
                    [--threads <N>] [--out <fleet.json>]
                    [--journal <JOURNAL.jsonl>] [--resume]
  sapred bench      [--suite <dispatch|pipeline|fleet|scale|all>] [--quick] [--iters <N>] [--threads <N>]
                    [--out <DIR>] [--compare <BENCH.json>] [--threshold <FRACTION>] [--gate]
                    [--validate <BENCH.json>]... [--compare-files <OLD.json> <NEW.json>]
  sapred motivation [--small <GB>] [--big <GB>]";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, Error> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(Error::invalid(format!("expected a --flag, found `{key}`")));
        };
        let value = it.next().ok_or_else(|| Error::invalid(format!("--{name} needs a value")))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, Error> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| Error::invalid(format!("--{name} expects a number, got `{v}`")))
        }
    }
}

fn flag_usize(flags: &HashMap<String, String>, name: &str, default: usize) -> Result<usize, Error> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| Error::invalid(format!("--{name} expects an integer, got `{v}`")))
        }
    }
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, Error> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| Error::invalid(format!("--{name} is required")))
}

/// Parse an optional `--estimator histogram|sample|catalog` flag.
fn flag_estimator(flags: &HashMap<String, String>) -> Result<EstimatorKind, Error> {
    match flags.get("estimator") {
        None => Ok(EstimatorKind::default()),
        Some(v) => parse_estimator(v),
    }
}

fn parse_estimator(name: &str) -> Result<EstimatorKind, Error> {
    EstimatorKind::parse(name).ok_or_else(|| {
        Error::invalid(format!("unknown estimator `{name}` (expected histogram|sample|catalog)"))
    })
}

fn cmd_explain(flags: &HashMap<String, String>) -> Result<(), Error> {
    let sql = required(flags, "sql")?;
    let scale = flag_f64(flags, "scale", 10.0)?;
    let seed = flag_usize(flags, "seed", 42)? as u64;
    let estimator = flag_estimator(flags)?;
    let mut pipe = Pipeline::with_seed(seed);
    pipe.framework_mut().est_config.kind = estimator;
    println!("generating a {scale} GB TPC-H instance (seed {seed}, {estimator} estimator)...");
    let semantics = pipe.percolate_sql("cli", sql, scale)?;
    let block_size = pipe.framework().est_config.block_size;
    let actuals = execute_dag(&semantics.dag, pipe.database(scale), block_size);
    println!("\n{} job(s):", semantics.dag.len());
    for (job, (est, act)) in
        semantics.dag.jobs().iter().zip(semantics.estimates.iter().zip(&actuals))
    {
        let deps = job.deps();
        let deps = if deps.is_empty() {
            "-".to_string()
        } else {
            deps.iter().map(|d| format!("J{d}")).collect::<Vec<_>>().join(",")
        };
        println!(
            "  J{} {:<8} deps {:<6} D_in {:>8.3} GB | IS est {:.3} act {:.3} | \
             FS est {:.4} act {:.4} | {} maps{}",
            job.id,
            job.category().to_string(),
            deps,
            est.d_in / 1e9,
            est.is,
            act.is_ratio(),
            est.fs,
            act.fs_ratio(),
            est.n_maps,
            if job.broadcasts.is_empty() {
                String::new()
            } else {
                format!(" | {} map-join(s)", job.broadcasts.len())
            },
        );
    }
    Ok(())
}

fn cmd_gather(flags: &HashMap<String, String>) -> Result<(), Error> {
    let scale = flag_f64(flags, "scale", 1.0)?;
    let out = required(flags, "out")?;
    let seed = flag_usize(flags, "seed", 42)? as u64;
    let mut pipe = Pipeline::with_seed(seed);
    let catalog = pipe.database(scale).catalog();
    save_catalog(catalog, out).map_err(|e| Error::io(format!("write {out}"), e))?;
    println!("wrote statistics for {} tables to {out}", catalog.len());
    Ok(())
}

/// A pipeline trained on the CLI's standard population.
fn trained_pipeline(n_queries: usize, seed: u64) -> Result<Pipeline, Error> {
    let mut pipe = Pipeline::with_seed(seed);
    let config = PopulationConfig {
        n_queries,
        scales_gb: vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0],
        scale_out_gb: vec![],
        seed,
    };
    pipe.train(&config)?;
    Ok(pipe)
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), Error> {
    let n = flag_usize(flags, "queries", 400)?;
    let seed = flag_usize(flags, "seed", 71)? as u64;
    let mut pipe = Pipeline::with_seed(seed);
    let config = PopulationConfig {
        n_queries: n,
        scales_gb: vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        scale_out_gb: vec![150.0, 200.0],
        seed,
    };
    println!("running {n} training queries on the simulated cluster...");
    let fw = *pipe.framework();
    let training = pipe.train(&config)?;
    let (train, test) = training.split();
    println!("\n{}", job_accuracy(&train, &test, &training.models));
    println!("\n{}", map_task_accuracy(&train, &training.models, &fw));
    println!("\n{}", reduce_task_accuracy(&train, &training.models, &fw));
    Ok(())
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<(), Error> {
    let sql = required(flags, "sql")?;
    let scale = flag_f64(flags, "scale", 10.0)?;
    let n = flag_usize(flags, "queries", 150)?;
    println!("training on {n} queries...");
    let mut pipe = trained_pipeline(n, 7)?;
    pipe.framework_mut().est_config.kind = flag_estimator(flags)?;
    let semantics = pipe.percolate_sql("cli", sql, scale)?;
    let predictor = pipe.predictor()?;
    for (job, est) in semantics.dag.jobs().iter().zip(&semantics.estimates) {
        let p = predictor.job_prediction(est, job.kind.has_reduce());
        println!(
            "J{} {:<8} job {:>7.1}s | map task {:>5.1}s | reduce task {:>5.1}s",
            job.id,
            job.category().to_string(),
            predictor.job_seconds(est),
            p.map_task_time,
            p.reduce_task_time
        );
    }
    println!("query WRD: {:.0} container-seconds", predictor.query_wrd(&semantics));
    println!("predicted response (idle cluster): {:.1}s", predictor.query_seconds(&semantics));
    Ok(())
}

fn parse_mix(name: &str) -> Result<MixSpec, Error> {
    match name {
        "bing" => Ok(bing_mix()),
        "facebook" => Ok(facebook_mix()),
        other => Err(Error::invalid(format!("unknown mix `{other}` (expected bing|facebook)"))),
    }
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), Error> {
    let mix = parse_mix(required(flags, "mix")?)?;
    let gap = flag_f64(flags, "gap", if mix.name == "bing" { 8.0 } else { 3.0 })?;
    let divisor = flag_f64(flags, "divisor", 1.0)?;
    let n = flag_usize(flags, "queries", 200)?;
    println!("training on {n} queries...");
    let mut pipe = trained_pipeline(n, 79)?;
    println!("preparing the {} mix (gap {gap}s, scale /{divisor})...", mix.name);
    let prepared = pipe.prepare_mix(&mix, gap, divisor, 79);
    println!("\n{}", run_schedulers(&prepared, pipe.framework(), true));
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), Error> {
    // The workload may be given positionally (`sapred trace bing`) or via
    // `--mix`, matching `simulate`.
    let (positional, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.as_str()), &args[1..]),
        _ => (None, args),
    };
    let flags = parse_flags(rest)?;
    let mix = match positional {
        Some(name) => parse_mix(name)?,
        None => parse_mix(required(&flags, "mix")?)?,
    };
    let gap = flag_f64(&flags, "gap", if mix.name == "bing" { 8.0 } else { 3.0 })?;
    let divisor = flag_f64(&flags, "divisor", 1.0)?;
    let n = flag_usize(&flags, "queries", 200)?;
    let seed = flag_usize(&flags, "seed", 79)? as u64;
    let sched_name = flags.get("sched").map(String::as_str).unwrap_or("swrd");
    let oracle_name = flags.get("oracle").map(String::as_str).unwrap_or("frozen");
    let trace_path = flags.get("out").map(String::as_str).unwrap_or("trace.json");
    let events_path = flags.get("events").map(String::as_str).unwrap_or("events.jsonl");
    let metrics_path = flags.get("metrics").map(String::as_str).unwrap_or("metrics.json");
    let profile_path = flags.get("profile").map(String::as_str);

    // Overload knobs: a bounded admission queue with a shed policy, per-query
    // deadlines, and the prediction guardrails. All default to off, in which
    // case the run is bit-identical to the pre-admission engine.
    let shed_policy = match flags.get("shed-policy").map(String::as_str).unwrap_or("reject-newest")
    {
        "reject-newest" => ShedPolicy::RejectNewest,
        "largest-wrd" => ShedPolicy::ShedLargestWrd,
        other => {
            return Err(Error::invalid(format!(
                "unknown shed policy `{other}` (expected reject-newest|largest-wrd)"
            )))
        }
    };
    let admission = AdmissionConfig {
        queue_cap: flag_usize(&flags, "queue-cap", 0)?,
        deadline: flag_f64(&flags, "deadline", f64::INFINITY)?,
        shed_policy,
        ..AdmissionConfig::default()
    };
    let guard = match flags.get("guard").map(String::as_str).unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(Error::invalid(format!("--guard expects on|off, got `{other}`"))),
    };

    println!("training on {n} queries...");
    let mut pipe = trained_pipeline(n, seed)?;
    // The run is self-profiled (stage spans + event-loop counters); the
    // result is only written out when `--profile` asks for it.
    let prof = std::rc::Rc::new(SpanProfiler::new());
    pipe.set_profiler(std::rc::Rc::clone(&prof));
    println!("preparing the {} mix (gap {gap}s, scale /{divisor})...", mix.name);
    let prepared = pipe.prepare_mix(&mix, gap, divisor, seed);

    // Every artifact is buffered in memory and committed through the
    // atomic stage-and-rename helper, so a crash mid-run never leaves a
    // torn events/trace/metrics file behind.
    let mut sink = Tee::new(
        JsonlSink::new(Vec::new()),
        Tee::new(
            ChromeTraceSink::new(),
            MetricsSink::new(pipe.framework().cluster.total_containers()),
        ),
    );

    // The online stage: `frozen` replays the percolated predictions;
    // `recalibrating` lets each completed job's actuals re-rank the rest.
    // `--guard on` wraps either one in the prediction guardrails (quarantine
    // plus trust-driven degraded-mode scheduling).
    let recalibrating = match oracle_name {
        "frozen" => false,
        "recalibrating" => true,
        other => {
            return Err(Error::invalid(format!(
                "unknown oracle `{other}` (expected frozen|recalibrating)"
            )))
        }
    };
    let mut frozen = FrozenOracle;
    let mut guarded_frozen = GuardedOracle::new(FrozenOracle);
    let mut recal = RecalibratingOracle::new();
    let mut guarded_recal = GuardedOracle::new(RecalibratingOracle::new());
    let oracle: &mut dyn DemandOracle = match (recalibrating, guard) {
        (false, false) => &mut frozen,
        (false, true) => &mut guarded_frozen,
        (true, false) => &mut recal,
        (true, true) => &mut guarded_recal,
    };
    println!("tracing {} queries under {}...", prepared.queries.len(), sched_name.to_uppercase());
    let run = Run::new().sink(&mut sink).oracle(&mut *oracle).profiler(&*prof);
    let queries = &prepared.queries;
    let outcome = match sched_name {
        "swrd" => pipe.simulate(pipe.simulator(Swrd).with_admission(admission), queries, run),
        "hcs" => pipe.simulate(pipe.simulator(Hcs).with_admission(admission), queries, run),
        "hfs" => pipe.simulate(pipe.simulator(Hfs).with_admission(admission), queries, run),
        "fifo" => pipe.simulate(pipe.simulator(Fifo).with_admission(admission), queries, run),
        "srt" => pipe.simulate(pipe.simulator(Srt).with_admission(admission), queries, run),
        other => {
            return Err(Error::invalid(format!(
                "unknown scheduler `{other}` (expected swrd|hcs|hfs|fifo|srt)"
            )))
        }
    };
    let report = outcome?.into_report();
    let (trust, degraded) = (oracle.trust(), oracle.degraded());
    // Post-hoc prediction-drift telemetry against the simulated truth.
    record_sim_outcomes(&prepared.queries, &report, &pipe.framework().cluster, &mut sink, &*prof);

    let Tee { a: jsonl, b: Tee { a: chrome, b: mut metrics } } = sink;
    let lines = jsonl.lines();
    let events_buf = jsonl.finish().map_err(|e| Error::io(format!("write {events_path}"), e))?;
    write_atomic(events_path, &events_buf)
        .map_err(|e| Error::io(format!("write {events_path}"), e))?;
    let mut trace_buf = Vec::new();
    chrome.write(&mut trace_buf).map_err(|e| Error::io(format!("write {trace_path}"), e))?;
    write_atomic(trace_path, &trace_buf)
        .map_err(|e| Error::io(format!("write {trace_path}"), e))?;
    write_atomic(metrics_path, metrics.finish(report.makespan))
        .map_err(|e| Error::io(format!("write {metrics_path}"), e))?;

    println!("\nmakespan {:.1}s, mean response {:.1}s", report.makespan, report.mean_response());
    println!("container utilization: {:.1}%", 100.0 * metrics.utilization(report.makespan));
    if admission.is_active() {
        let a = &report.admission;
        println!(
            "admission: {} shed, {} rejected, {} resubmissions, {} deadline misses \
             (max {} active)",
            a.queries_shed,
            a.queries_rejected.len(),
            a.resubmissions,
            a.deadline_misses.len(),
            a.max_active
        );
    }
    if guard {
        println!(
            "prediction guard: trust {trust:.2}{}",
            if degraded { ", in degraded mode" } else { "" }
        );
    }
    if recalibrating {
        let drift = if guard { guarded_recal.inner().drift() } else { recal.drift() };
        println!("\nmid-run recalibration drift (the oracle's view):\n{drift}");
    }
    println!("\nprediction drift vs simulated truth:\n{}", metrics.drift);
    println!("wrote {lines} events to {events_path}");
    println!(
        "wrote {} trace spans to {trace_path} (chrome://tracing, ui.perfetto.dev)",
        chrome.span_count()
    );
    println!("wrote metrics to {metrics_path}");
    if let Some(path) = profile_path {
        write_atomic(path, prof.to_json()).map_err(|e| Error::io(format!("write {path}"), e))?;
        println!("wrote span profile to {path}");
        println!("\n{}", prof.summary());
    }
    Ok(())
}

fn parse_shed_policy(name: &str) -> Result<ShedPolicy, Error> {
    match name {
        "reject-newest" | "reject_newest" => Ok(ShedPolicy::RejectNewest),
        "largest-wrd" | "largest_wrd" => Ok(ShedPolicy::ShedLargestWrd),
        other => Err(Error::invalid(format!(
            "unknown shed policy `{other}` (expected reject-newest|largest-wrd)"
        ))),
    }
}

/// Load a declarative fleet grid from a JSON file. The format is exactly
/// the `grid` object a fleet report echoes, so a previous run's output can
/// be replayed: `workloads` (objects with `n_queries`/`jobs`/`maps`/
/// `reduces` and optional `skew`), `schedulers` (names), `fault_levels`
/// (failure probabilities), `admissions` (objects with `queue_cap`,
/// `deadline` — `null`/absent means none — and `shed_policy`), optional
/// `estimators` (names; defaults to `["histogram"]`), and `seeds`.
fn load_grid_file(path: &str) -> Result<FleetGrid, Error> {
    use sapred::obs::json::Value;
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(format!("read {path}"), e))?;
    let doc =
        sapred::obs::json::parse(&text).map_err(|e| Error::invalid(format!("{path}: {e}")))?;
    let arr = |key: &str| -> Result<&[Value], Error> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| Error::invalid(format!("{path}: missing array field {key:?}")))
    };
    let field_usize = |v: &Value, key: &str, at: &str| -> Result<usize, Error> {
        v.get(key)
            .and_then(Value::as_num)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as usize)
            .ok_or_else(|| Error::invalid(format!("{path}: {at}: {key:?} must be a whole number")))
    };

    let mut workloads = Vec::new();
    for (i, w) in arr("workloads")?.iter().enumerate() {
        let at = format!("workloads[{i}]");
        let skew = match w.get("skew") {
            None | Some(Value::Null) => 0.0,
            Some(v) => v.as_num().ok_or_else(|| {
                Error::invalid(format!("{path}: {at}: \"skew\" must be a number or null"))
            })?,
        };
        workloads.push(WorkloadSpec {
            n_queries: field_usize(w, "n_queries", &at)?,
            jobs: field_usize(w, "jobs", &at)?,
            maps: field_usize(w, "maps", &at)?,
            reduces: field_usize(w, "reduces", &at)?,
            skew,
        });
    }
    let mut schedulers = Vec::new();
    for (i, s) in arr("schedulers")?.iter().enumerate() {
        let name = s
            .as_str()
            .ok_or_else(|| Error::invalid(format!("{path}: schedulers[{i}] must be a string")))?;
        schedulers.push(SchedKind::parse(name).map_err(Error::invalid)?);
    }
    let mut faults = Vec::new();
    for (i, f) in arr("fault_levels")?.iter().enumerate() {
        let p = f
            .as_num()
            .ok_or_else(|| Error::invalid(format!("{path}: fault_levels[{i}] must be a number")))?;
        faults.push(FaultLevel { task_fail_prob: p });
    }
    let mut admissions = Vec::new();
    for (i, a) in arr("admissions")?.iter().enumerate() {
        let at = format!("admissions[{i}]");
        let deadline = match a.get("deadline") {
            None | Some(Value::Null) => f64::INFINITY,
            Some(v) => v.as_num().ok_or_else(|| {
                Error::invalid(format!("{path}: {at}: \"deadline\" must be a number or null"))
            })?,
        };
        let shed_policy = match a.get("shed_policy") {
            None => ShedPolicy::default(),
            Some(v) => parse_shed_policy(v.as_str().ok_or_else(|| {
                Error::invalid(format!("{path}: {at}: \"shed_policy\" must be a string"))
            })?)?,
        };
        admissions.push(AdmissionLevel {
            queue_cap: field_usize(a, "queue_cap", &at)?,
            deadline,
            shed_policy,
        });
    }
    let mut estimators = Vec::new();
    if let Some(list) = doc.get("estimators").and_then(Value::as_arr) {
        for (i, e) in list.iter().enumerate() {
            let name = e.as_str().ok_or_else(|| {
                Error::invalid(format!("{path}: estimators[{i}] must be a string"))
            })?;
            estimators.push(parse_estimator(name)?);
        }
    }
    if estimators.is_empty() {
        estimators.push(EstimatorKind::Histogram);
    }
    let mut seeds = Vec::new();
    for (i, s) in arr("seeds")?.iter().enumerate() {
        let seed = match s {
            // Seeds may exceed f64's integer range, so strings are accepted.
            Value::Str(text) => text.parse::<u64>().ok(),
            v => v.as_num().filter(|n| n.fract() == 0.0 && *n >= 0.0).map(|n| n as u64),
        }
        .ok_or_else(|| Error::invalid(format!("{path}: seeds[{i}] must be a u64")))?;
        seeds.push(seed);
    }
    Ok(FleetGrid { workloads, schedulers, faults, admissions, estimators, seeds })
}

/// `sapred fleet`: expand a declarative (workload × scheduler × fault ×
/// admission × seed) grid, run every cell across worker threads, print the
/// aggregation layer, and write the aggregate JSON report — bit-identical
/// for the same grid at any `--threads` value. With `--journal` every
/// completed cell is persisted as it finishes, and `--resume` adopts a
/// previous (possibly killed) sweep's cells instead of re-running them.
fn cmd_fleet(flags: &HashMap<String, String>, resume: bool) -> Result<(), Error> {
    fn parse_csv(raw: &str) -> impl Iterator<Item = &str> {
        raw.split(',').map(str::trim).filter(|s| !s.is_empty())
    }
    let threads = flag_usize(flags, "threads", 0)?;
    let out = flags.get("out").map(String::as_str).unwrap_or("fleet.json");
    let journal = flags.get("journal").map(String::as_str);
    if resume && journal.is_none() {
        return Err(Error::invalid("--resume requires --journal <path>"));
    }

    let grid = if let Some(path) = flags.get("grid") {
        load_grid_file(path)?
    } else {
        let scheds = flags.get("schedulers").map(String::as_str).unwrap_or("swrd,hcs");
        let schedulers = parse_csv(scheds)
            .map(|s| SchedKind::parse(s).map_err(Error::invalid))
            .collect::<Result<Vec<_>, _>>()?;
        let probs = flags.get("fail-probs").map(String::as_str).unwrap_or("0,0.08");
        let faults = parse_csv(probs)
            .map(|s| {
                s.parse::<f64>()
                    .map(|task_fail_prob| FaultLevel { task_fail_prob })
                    .map_err(|_| Error::invalid(format!("--fail-probs: `{s}` is not a number")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deadline = flag_f64(flags, "deadline", f64::INFINITY)?;
        let shed_policy = parse_shed_policy(
            flags.get("shed-policy").map(String::as_str).unwrap_or("largest-wrd"),
        )?;
        let caps = flags.get("queue-caps").map(String::as_str).unwrap_or("0");
        let admissions = parse_csv(caps)
            .map(|s| {
                let cap: usize = s.parse().map_err(|_| {
                    Error::invalid(format!("--queue-caps: `{s}` is not an integer"))
                })?;
                // Cap 0 is the inert config; --deadline/--shed-policy only
                // shape the capped levels.
                Ok(if cap == 0 {
                    AdmissionLevel::off()
                } else {
                    AdmissionLevel { queue_cap: cap, deadline, shed_policy }
                })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        let estimators =
            parse_csv(flags.get("estimators").map(String::as_str).unwrap_or("histogram"))
                .map(parse_estimator)
                .collect::<Result<Vec<_>, _>>()?;
        // One workload per requested skew level; `0` keeps the legacy
        // uniform dispatch workload.
        let skews = parse_csv(flags.get("skews").map(String::as_str).unwrap_or("0"))
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| Error::invalid(format!("--skews: `{s}` is not a number")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n_seeds = flag_usize(flags, "seeds", 2)?;
        let base = flag_usize(flags, "seed", 42)? as u64;
        let n_queries = flag_usize(flags, "queries", 10)?;
        let jobs = flag_usize(flags, "jobs", 2)?;
        let maps = flag_usize(flags, "maps", 6)?;
        let reduces = flag_usize(flags, "reduces", 2)?;
        FleetGrid {
            workloads: skews
                .iter()
                .map(|&skew| WorkloadSpec { n_queries, jobs, maps, reduces, skew })
                .collect(),
            schedulers,
            faults,
            admissions,
            estimators,
            seeds: (0..n_seeds.max(1) as u64).map(|i| base.wrapping_add(i)).collect(),
        }
    };

    println!(
        "running fleet: {} cell(s) = {} workload(s) x {} scheduler(s) x {} fault level(s) \
         x {} admission config(s) x {} estimator(s) x {} seed(s)...",
        grid.n_cells(),
        grid.workloads.len(),
        grid.schedulers.len(),
        grid.faults.len(),
        grid.admissions.len(),
        grid.estimators.len(),
        grid.seeds.len()
    );
    let report = match journal {
        Some(path) => {
            let prof = SpanProfiler::new();
            let report =
                run_fleet_journaled(&grid, threads, std::path::Path::new(path), resume, &prof)
                    .map_err(Error::invalid)?;
            let resumed = prof.counter(Counter::CellsResumed);
            if resume {
                println!("resumed {resumed} journaled cell(s) from {path}");
            }
            report
        }
        None => run_fleet(&grid, threads).map_err(Error::invalid)?,
    };
    println!("completed {} cell(s), {} failed", report.completed(), report.failed());
    for cell in &report.cells {
        if let Err(e) = &cell.outcome {
            println!("  FAILED {}: {e}", cell.label);
        }
    }

    println!("\nper-(scheduler x fault) surface (makespan / mean response, seconds):");
    for p in report.surfaces() {
        println!(
            "  {:<5} @ {:<6} ({:>3} cells) | makespan mean {:>8.1} p95 {:>8.1} | \
             response mean {:>8.1} p95 {:>8.1}",
            p.sched,
            p.fault,
            p.n_cells,
            p.makespan_mean,
            p.makespan_p95,
            p.response_mean,
            p.response_p95
        );
    }
    let crossovers = report.crossovers();
    if crossovers.is_empty() {
        println!("\nno scheduler crossovers detected");
    } else {
        for x in &crossovers {
            println!(
                "\ncrossover: {} vs {} flips at fault level {} \
                 (mean response {:.1}s vs {:.1}s)",
                x.reference, x.other, x.fault, x.reference_mean, x.other_mean
            );
        }
    }
    let frontiers: Vec<_> =
        report.frontiers().into_iter().filter(|f| f.admission != "off").collect();
    if !frontiers.is_empty() {
        println!("\nshed/deadline frontier (per submitted query):");
        for f in &frontiers {
            println!(
                "  {:<16} @ {:<6} ({:>3} cells) | shed {:.3} | reject {:.3} | \
                 resubmit {:.3} | miss {:.3}",
                f.admission,
                f.fault,
                f.n_cells,
                f.shed_rate,
                f.reject_rate,
                f.resubmit_rate,
                f.miss_rate
            );
        }
    }

    write_atomic(out, report.to_json()).map_err(|e| Error::io(format!("write {out}"), e))?;
    println!("\nwrote aggregate fleet report to {out}");
    Ok(())
}

/// `sapred bench`: run the deterministic suite(s), write
/// `BENCH_<suite>.json`, and optionally compare against a baseline.
/// Parses its own arguments because `--quick`/`--gate` take no value.
fn cmd_bench(args: &[String]) -> Result<(), Error> {
    let mut suite = "all".to_string();
    let mut quick = false;
    let mut gate = false;
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out_dir = ".".to_string();
    let mut iters_override: Option<usize> = None;
    let mut compare_path: Option<String> = None;
    let mut threshold = 0.25f64;
    let mut validate_paths: Vec<String> = Vec::new();
    let mut compare_files: Option<(String, String)> = None;

    let mut it = args.iter();
    while let Some(key) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| Error::invalid(format!("--{name} needs a value")))
        };
        match key.as_str() {
            "--suite" => suite = value("suite")?,
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--threads" => {
                let v = value("threads")?;
                threads = v.parse().map_err(|_| {
                    Error::invalid(format!("--threads expects an integer, got `{v}`"))
                })?;
            }
            "--out" => out_dir = value("out")?,
            "--iters" => {
                let v = value("iters")?;
                let n: usize = v.parse().map_err(|_| {
                    Error::invalid(format!("--iters expects an integer, got `{v}`"))
                })?;
                if n == 0 {
                    return Err(Error::invalid("--iters must be at least 1"));
                }
                iters_override = Some(n);
            }
            "--compare" => compare_path = Some(value("compare")?),
            "--threshold" => {
                let v = value("threshold")?;
                threshold = v.parse().map_err(|_| {
                    Error::invalid(format!("--threshold expects a number, got `{v}`"))
                })?;
            }
            "--validate" => validate_paths.push(value("validate")?),
            "--compare-files" => {
                let old = value("compare-files")?;
                let new = value("compare-files")?;
                compare_files = Some((old, new));
            }
            other => return Err(Error::invalid(format!("unknown bench flag `{other}`"))),
        }
    }

    // Missing/unparseable baselines are the classic `--compare` footguns;
    // `load_report` turns both into errors that name the offending path.
    let load = |path: &str| -> Result<sapred::obs::json::Value, Error> {
        sapred_bench::report::load_report(path).map_err(Error::invalid)
    };

    // Validation-only mode: check the given reports and stop.
    if !validate_paths.is_empty() {
        for path in &validate_paths {
            let doc = load(path)?;
            let cells = doc.get("cells").and_then(|c| c.as_arr()).map(<[_]>::len).unwrap_or(0);
            println!("{path}: valid {} report, {cells} cell(s)", sapred_bench::report::SCHEMA);
        }
        return Ok(());
    }

    let finish_compare = |cmp: &Comparison| -> Result<(), Error> {
        for line in &cmp.lines {
            println!("  {line}");
        }
        println!(
            "compare: {} regression(s), {} improvement(s), {} drift(s), {} skipped \
             (threshold {:.0}%)",
            cmp.regressions,
            cmp.improvements,
            cmp.drifts,
            cmp.skipped,
            threshold * 100.0
        );
        if gate && cmp.gate_failed() {
            // The gate is a deliberate local/manual switch; CI runs
            // report-only (no --gate), so a noisy runner can't block it.
            eprintln!("bench gate FAILED");
            std::process::exit(2);
        }
        Ok(())
    };

    // File-vs-file comparison mode: no suite run at all.
    if let Some((old_path, new_path)) = compare_files {
        let (old_doc, new_doc) = (load(&old_path)?, load(&new_path)?);
        println!("comparing {new_path} against baseline {old_path}:");
        return finish_compare(&compare(&old_doc, &new_doc, threshold));
    }

    let suites: Vec<(&str, Vec<sapred_bench::harness::CellSpec>)> = match suite.as_str() {
        "dispatch" => vec![("dispatch", dispatch_suite(quick))],
        "pipeline" => vec![("pipeline", pipeline_suite(quick))],
        "fleet" => vec![("fleet", fleet_suite(quick))],
        "scale" => vec![("scale", scale_suite(quick))],
        "all" => vec![
            ("dispatch", dispatch_suite(quick)),
            ("pipeline", pipeline_suite(quick)),
            ("fleet", fleet_suite(quick)),
            ("scale", scale_suite(quick)),
        ],
        other => {
            return Err(Error::invalid(format!(
                "unknown suite `{other}` (expected dispatch|pipeline|fleet|scale|all)"
            )))
        }
    };
    if compare_path.is_some() && suites.len() > 1 {
        return Err(Error::invalid(
            "--compare needs a single suite (add --suite dispatch, pipeline, fleet, or scale)",
        ));
    }

    std::fs::create_dir_all(&out_dir).map_err(|e| Error::io(format!("create {out_dir}"), e))?;
    for (name, mut specs) in suites {
        if let Some(n) = iters_override {
            for spec in &mut specs {
                spec.iters = n;
            }
        }
        // Load the baseline *before* the run writes anything: the fresh
        // report may land on the very path being compared against.
        let baseline = match &compare_path {
            Some(path) => Some((path.clone(), load(path)?)),
            None => None,
        };
        println!(
            "running {name} suite ({} cells{}, {threads} worker thread(s))...",
            specs.len(),
            if quick { ", quick" } else { "" }
        );
        let cells = run_suite(&specs, threads);
        print_cells(&cells);
        let text = suite_json(name, quick, &cells);
        let fresh =
            validate_schema(&text).map_err(|e| Error::invalid(format!("emitted report: {e}")))?;
        let path = format!("{out_dir}/BENCH_{name}.json");
        write_atomic(&path, &text).map_err(|e| Error::io(format!("write {path}"), e))?;
        println!("wrote {path}");
        if let Some((baseline_path, baseline)) = baseline {
            println!("comparing against baseline {baseline_path}:");
            finish_compare(&compare(&baseline, &fresh, threshold))?;
        }
    }
    Ok(())
}

fn print_cells(cells: &[CellResult]) {
    for cell in cells {
        if let Some(err) = &cell.error {
            println!("  {:<22} FAILED: {err}", cell.name);
            continue;
        }
        let wall = cell.metrics.get("wall_p50_s").copied().unwrap_or(0.0);
        // Fleet cells headline sims/s; everything else events/s.
        let rate = match cell.metrics.get("sims_per_s") {
            Some(&sims) => format!("{sims:>12.2} sims/s  "),
            None => {
                let events = cell.metrics.get("events_per_s").copied().unwrap_or(0.0);
                format!("{events:>12.0} events/s")
            }
        };
        let dropped = cell.counters.get("span_samples_dropped").copied().unwrap_or(0);
        println!(
            "  {:<22} wall p50 {:>9.4}s | {rate} | {}{}",
            cell.name,
            wall,
            if cell.deterministic { "deterministic" } else { "NON-DETERMINISTIC" },
            if dropped > 0 {
                format!(" | {dropped} span sample(s) dropped past the cap")
            } else {
                String::new()
            }
        );
    }
}

fn cmd_motivation(flags: &HashMap<String, String>) -> Result<(), Error> {
    let small = flag_f64(flags, "small", 10.0)?;
    let big = flag_f64(flags, "big", 100.0)?;
    let mut pipe = Pipeline::with_seed(2018);
    let fw = *pipe.framework();
    let report = motivation(pipe.pool_mut(), &fw, None, small, big);
    println!("{report}");
    println!("small-query slowdown under HCS: {:.2}x", report.small_query_slowdown());
    Ok(())
}
