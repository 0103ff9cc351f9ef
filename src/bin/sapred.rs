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
//! sapred bench      [--suite dispatch|scale|all] [--compare BENCH.json]   # pin engine counters
//! sapred reproduce                                         # Figs. 1-2, Tables 2-5, Figs. 6-8, ablations
//! ```

use sapred::cluster::sched::{Fifo, Hcs, Hfs, Srt, Swrd};
use sapred::cluster::Run;
use sapred::core::experiments::accuracy::{job_accuracy, map_task_accuracy, reduce_task_accuracy};
use sapred::core::experiments::reproduce::reproduce;
use sapred::core::experiments::scheduling::run_schedulers;
use sapred::core::persist::save_catalog;
use sapred::core::telemetry::record_sim_outcomes;
use sapred::core::{Error, Pipeline};
use sapred::obs::{write_atomic, ChromeTraceSink, JsonlSink, MetricsSink, SpanProfiler, Tee};
use sapred::plan::ground_truth::execute_dag;
use sapred::relation::gen::checked_row_counts;
use sapred::selectivity::EstimatorKind;
use sapred::workload::mixes::{bing_mix, facebook_mix, MixSpec};
use sapred::workload::population::PopulationConfig;
use sapred_bench::harness::{dispatch_suite, run_suite, scale_suite, CellResult};
use sapred_bench::report::{compare, load_report, suite_json, suite_of, validate_schema};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "explain" => cmd_explain(rest),
        "gather" => cmd_gather(rest),
        "train" => cmd_train(rest),
        "predict" => cmd_predict(rest),
        "simulate" => cmd_simulate(rest),
        "reproduce" => cmd_reproduce(rest),
        "trace" => cmd_trace(rest),
        "bench" => cmd_bench(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Error::invalid(format!("unknown command `{other}`"))),
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
                    [--events <events.jsonl>] [--metrics <metrics.json>]
                    [--gap <SECONDS>] [--divisor <D>] [--queries <N>] [--seed <N>]
                    [--profile <profile.json>]
  sapred bench      [--suite <dispatch|scale|all>] [--threads <N>] [--out <DIR>]
                    [--compare <BENCH.json>]
  sapred reproduce";

/// Parse `--name value` pairs, rejecting any name not in `accepted`.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, Error> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(Error::invalid(format!("expected a --flag, found `{key}`")));
        };
        if !accepted.contains(&name) {
            return Err(Error::invalid(format!("unknown flag `{key}`")));
        }
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

/// `--scale` in GB, refused unless an instance can be generated at it
/// (see [`checked_row_counts`]).
fn flag_scale(flags: &HashMap<String, String>, default: f64) -> Result<f64, Error> {
    let scale = flag_f64(flags, "scale", default)?;
    checked_row_counts(scale).map_err(|e| Error::invalid(format!("--scale: {e}")))?;
    Ok(scale)
}

/// A flag that must be a finite number above zero (`--gap`, `--divisor`).
fn flag_positive(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, Error> {
    let v = flag_f64(flags, name, default)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(Error::invalid(format!("--{name}: {v} is not a finite positive number")))
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
        Some(v) => EstimatorKind::parse(v).map_err(Error::invalid),
    }
}

fn cmd_explain(args: &[String]) -> Result<(), Error> {
    let flags = &parse_flags(args, &["sql", "scale", "seed", "estimator"])?;
    let sql = required(flags, "sql")?;
    let scale = flag_scale(flags, 10.0)?;
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

fn cmd_gather(args: &[String]) -> Result<(), Error> {
    let flags = &parse_flags(args, &["scale", "out", "seed"])?;
    let scale = flag_scale(flags, 1.0)?;
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

fn cmd_train(args: &[String]) -> Result<(), Error> {
    let flags = &parse_flags(args, &["queries", "seed"])?;
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

fn cmd_predict(args: &[String]) -> Result<(), Error> {
    let flags = &parse_flags(args, &["sql", "scale", "queries", "estimator"])?;
    let sql = required(flags, "sql")?;
    let scale = flag_scale(flags, 10.0)?;
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

/// A scheduler `trace --sched` can run.
#[derive(Clone, Copy)]
enum SchedKind {
    Swrd,
    Hcs,
    Hfs,
    Fifo,
    Srt,
}

impl SchedKind {
    const ALL: [SchedKind; 5] =
        [SchedKind::Swrd, SchedKind::Hcs, SchedKind::Hfs, SchedKind::Fifo, SchedKind::Srt];

    fn label(self) -> &'static str {
        match self {
            SchedKind::Swrd => "swrd",
            SchedKind::Hcs => "hcs",
            SchedKind::Hfs => "hfs",
            SchedKind::Fifo => "fifo",
            SchedKind::Srt => "srt",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        SchedKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| format!("unknown scheduler `{s}` (expected swrd|hcs|hfs|fifo|srt)"))
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), Error> {
    let flags = &parse_flags(args, &["mix", "gap", "divisor", "queries"])?;
    let mix = parse_mix(required(flags, "mix")?)?;
    let gap = flag_positive(flags, "gap", if mix.name == "bing" { 8.0 } else { 3.0 })?;
    let divisor = flag_positive(flags, "divisor", 1.0)?;
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
    let flags = parse_flags(
        rest,
        &[
            "mix", "sched", "out", "events", "metrics", "gap", "divisor", "queries", "seed",
            "profile",
        ],
    )?;
    let mix = match positional {
        Some(name) => parse_mix(name)?,
        None => parse_mix(required(&flags, "mix")?)?,
    };
    let gap = flag_positive(&flags, "gap", if mix.name == "bing" { 8.0 } else { 3.0 })?;
    let divisor = flag_positive(&flags, "divisor", 1.0)?;
    let n = flag_usize(&flags, "queries", 200)?;
    let seed = flag_usize(&flags, "seed", 79)? as u64;
    let sched = flags.get("sched").map(String::as_str).unwrap_or("swrd");
    let sched = SchedKind::parse(sched).map_err(|e| Error::invalid(format!("--sched: {e}")))?;
    let trace_path = flags.get("out").map(String::as_str).unwrap_or("trace.json");
    let events_path = flags.get("events").map(String::as_str).unwrap_or("events.jsonl");
    let metrics_path = flags.get("metrics").map(String::as_str).unwrap_or("metrics.json");
    let profile_path = flags.get("profile").map(String::as_str);

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

    let label = sched.label().to_uppercase();
    println!("tracing {} queries under {label}...", prepared.queries.len());
    let run = Run::new().sink(&mut sink).profiler(&*prof);
    let queries = &prepared.queries;
    let outcome = match sched {
        SchedKind::Swrd => pipe.simulate(pipe.simulator(Swrd), queries, run),
        SchedKind::Hcs => pipe.simulate(pipe.simulator(Hcs), queries, run),
        SchedKind::Hfs => pipe.simulate(pipe.simulator(Hfs), queries, run),
        SchedKind::Fifo => pipe.simulate(pipe.simulator(Fifo), queries, run),
        SchedKind::Srt => pipe.simulate(pipe.simulator(Srt), queries, run),
    };
    let report = outcome?.into_report();
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

/// `sapred bench`: run the deterministic suite(s), write
/// `BENCH_<suite>.json`, and with `--compare` require the run to reproduce
/// a baseline's cells, configs and counters.
fn cmd_bench(args: &[String]) -> Result<(), Error> {
    let flags = &parse_flags(args, &["suite", "threads", "out", "compare"])?;
    let threads = flag_usize(flags, "threads", sapred::core::parallel::available_threads())?;
    if threads == 0 {
        return Err(Error::invalid("--threads: 0 is not a positive integer"));
    }
    let out_dir = flags.get("out").map(String::as_str).unwrap_or(".");
    let suites = match flags.get("suite").map(String::as_str).unwrap_or("all") {
        "dispatch" => vec![("dispatch", dispatch_suite())],
        "scale" => vec![("scale", scale_suite())],
        "all" => vec![("dispatch", dispatch_suite()), ("scale", scale_suite())],
        other => {
            return Err(Error::invalid(format!(
                "unknown suite `{other}` (expected dispatch|scale|all)"
            )))
        }
    };
    // Load the baseline *before* the run writes anything: the fresh report
    // may land on the very path being compared against. `load_report`
    // names the path of a missing or unparseable baseline.
    let baseline = match flags.get("compare") {
        None => None,
        Some(path) => {
            let [(suite, _)] = suites.as_slice() else {
                return Err(Error::invalid(
                    "--compare needs a single suite (add --suite dispatch or scale)",
                ));
            };
            let doc = load_report(path).map_err(Error::invalid)?;
            let pinned = suite_of(&doc);
            if pinned != *suite {
                return Err(Error::invalid(format!(
                    "--compare: {path} pins suite `{pinned}`, not `{suite}`"
                )));
            }
            Some((path, doc))
        }
    };

    std::fs::create_dir_all(out_dir).map_err(|e| Error::io(format!("create {out_dir}"), e))?;
    let mut faults = Vec::new();
    for (name, specs) in suites {
        println!("running {name} suite ({} cells, {threads} worker thread(s))...", specs.len());
        let cells = run_suite(&specs, threads);
        print_cells(&cells);
        faults.extend(cells.iter().filter_map(CellResult::fault));
        let text = suite_json(name, &cells);
        let fresh =
            validate_schema(&text).map_err(|e| Error::invalid(format!("emitted report: {e}")))?;
        let path = format!("{out_dir}/BENCH_{name}.json");
        write_atomic(&path, &text).map_err(|e| Error::io(format!("write {path}"), e))?;
        println!("wrote {path}");
        if let Some((baseline_path, baseline)) = &baseline {
            let mismatches = compare(baseline, &fresh);
            println!("compare against {baseline_path}: {} mismatch(es)", mismatches.len());
            faults.extend(mismatches);
        }
    }
    if !faults.is_empty() {
        eprintln!("bench FAILED:\n  {}", faults.join("\n  "));
        std::process::exit(2);
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
        let events = cell.metrics.get("events_per_s").copied().unwrap_or(0.0);
        println!(
            "  {:<22} wall p50 {:>9.4}s | {events:>12.0} events/s | {}",
            cell.name,
            wall,
            if cell.deterministic { "deterministic" } else { "NON-DETERMINISTIC" },
        );
    }
}

/// `sapred reproduce`: the paper's evaluation on its one configuration.
fn cmd_reproduce(args: &[String]) -> Result<(), Error> {
    parse_flags(args, &[])?;
    eprintln!("reproducing the paper's evaluation (about 5 s in a release build)...");
    print!("{}", reproduce()?);
    Ok(())
}
