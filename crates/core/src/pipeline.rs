//! The staged query-lifecycle pipeline: one facade over the whole stack.
//!
//! [`Pipeline`] owns the framework configuration, the generated-database
//! pool, and (once trained) the predictor, and walks a query through the
//! lifecycle stages in order:
//!
//! 1. **percolate** — query text (SQL or Pig) → DAG + selectivity
//!    estimates ([`Pipeline::percolate_sql`], [`Pipeline::percolate_pig`]);
//! 2. **train** — fit the multivariate time models on a simulated query
//!    population ([`Pipeline::train`]);
//! 3. **predict** — per-job/task times, WRD, query response
//!    (via [`Pipeline::predictor`]);
//! 4. **simulate** — run workloads on the simulated cluster
//!    ([`Pipeline::simulate`]), optionally traced, profiled, or under
//!    faults.
//!
//! Every stage that can fail returns the unified [`Error`], so a driver is
//! a chain of `?`s. The CLI, all the examples, and the integration tests
//! consume the stack through this type.

use crate::error::Error;
use crate::framework::{Framework, Predictor, QuerySemantics};
use crate::training::{fit_models, run_population, split_train_test, QueryRun, TrainedModels};
use sapred_cluster::build::build_sim_query;
use sapred_cluster::job::{JobPrediction, SimQuery};
use sapred_cluster::sched::Scheduler;
use sapred_cluster::{Run, RunOutcome, Simulator};
use sapred_obs::profile::{Profiler, SpanProfiler};
use sapred_obs::EventSink;
use sapred_plan::ground_truth::execute_dag;
use sapred_query::pig::PigScript;
use sapred_relation::gen::Database;
use sapred_workload::pool::DbPool;
use sapred_workload::population::{generate_population, PopulationConfig};
use std::rc::Rc;

/// A completed training round: the measured runs and the fitted models.
#[derive(Debug, Clone)]
pub struct Training {
    /// Every population query's measured run (alone on an idle cluster).
    pub runs: Vec<QueryRun>,
    /// The three fitted models of §4.
    pub models: TrainedModels,
}

impl Training {
    /// The 3:1 train/test split the models were fitted under.
    pub fn split(&self) -> (Vec<&QueryRun>, Vec<&QueryRun>) {
        split_train_test(&self.runs)
    }
}

/// The query-lifecycle facade. See the [module docs](self).
#[derive(Debug)]
pub struct Pipeline {
    framework: Framework,
    pool: DbPool,
    training: Option<Training>,
    predictor: Option<Predictor>,
    /// Stage profiler: when attached, every lifecycle stage records a span
    /// (`"percolate"`, `"train"`, `"predict"`, `"simulate"`). `Rc` so stage
    /// guards can borrow the profiler without pinning `self`.
    profiler: Option<Rc<SpanProfiler>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// A pipeline with the paper's testbed configuration and database
    /// seed 42.
    pub fn new() -> Self {
        Self::with_seed(42)
    }

    /// A pipeline whose generated databases use `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            framework: Framework::new(),
            pool: DbPool::new(seed),
            training: None,
            predictor: None,
            profiler: None,
        }
    }

    /// Attach (or replace) the stage profiler: lifecycle stages record
    /// spans on it (`"percolate"`, `"train"`, `"predict"`, `"simulate"`).
    /// Keep a clone of the `Rc` to read the timings afterwards.
    pub fn set_profiler(&mut self, profiler: Rc<SpanProfiler>) {
        self.profiler = Some(profiler);
    }

    /// The attached stage profiler, if any.
    pub fn profiler(&self) -> Option<&Rc<SpanProfiler>> {
        self.profiler.as_ref()
    }

    // Stage-span helper: returns a clone of the profiler handle so the
    // caller's RAII guard borrows a local, not `self` (stage methods go on
    // to take `&mut self.pool`).
    fn stage_profiler(&self) -> Option<Rc<SpanProfiler>> {
        self.profiler.clone()
    }

    /// The framework configuration.
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// Mutable access to the framework configuration (e.g. to resize the
    /// simulated cluster for capacity planning).
    pub fn framework_mut(&mut self) -> &mut Framework {
        &mut self.framework
    }

    /// The generated database at `scale_gb` (generated and cached on
    /// first use).
    pub fn database(&mut self, scale_gb: f64) -> &Database {
        self.pool.get(scale_gb)
    }

    /// The underlying database pool, for workload generators that manage
    /// their own scales.
    pub fn pool_mut(&mut self) -> &mut DbPool {
        &mut self.pool
    }

    // --- Stage 1: percolation -------------------------------------------

    /// Percolate a HiveQL query at `scale_gb`: parse → analyze → compile
    /// to a MapReduce DAG → estimate per-job selectivities.
    pub fn percolate_sql(
        &mut self,
        name: &str,
        sql: &str,
        scale_gb: f64,
    ) -> Result<QuerySemantics, Error> {
        let prof = self.stage_profiler();
        let _stage = prof.as_ref().map(|p| p.span("percolate"));
        let db = self.pool.get(scale_gb);
        Ok(self.framework.percolate_sql(name, sql, db)?)
    }

    /// Percolate a Pig Latin-style dataflow script at `scale_gb`.
    pub fn percolate_pig(
        &mut self,
        name: &str,
        script: &PigScript,
        scale_gb: f64,
    ) -> Result<QuerySemantics, Error> {
        let prof = self.stage_profiler();
        let _stage = prof.as_ref().map(|p| p.span("percolate"));
        let db = self.pool.get(scale_gb);
        Ok(self.framework.percolate_pig(name, script, db.catalog())?)
    }

    // --- Stage 2: training ----------------------------------------------

    /// Train the time models on a simulated query population and bind the
    /// resulting [`Predictor`]. Returns the training round (runs + models);
    /// it stays available through [`Pipeline::training`].
    pub fn train(&mut self, config: &PopulationConfig) -> Result<&Training, Error> {
        let prof = self.stage_profiler();
        let _stage = prof.as_ref().map(|p| p.span("train"));
        let pop = generate_population(config, &mut self.pool);
        let runs = run_population(&pop, &mut self.pool, &self.framework)?;
        let (train, _) = split_train_test(&runs);
        let models = fit_models(&train, &self.framework)?;
        self.predictor = Some(Predictor::new(models.clone(), self.framework));
        self.training = Some(Training { runs, models });
        Ok(self.training.as_ref().expect("just set"))
    }

    /// The last training round, if any.
    pub fn training(&self) -> Option<&Training> {
        self.training.as_ref()
    }

    /// Instantiate a workload mix (Table 2) as simulator-ready queries,
    /// carrying the trained predictor's percolated task-time predictions
    /// when available.
    pub fn prepare_mix(
        &mut self,
        mix: &sapred_workload::mixes::MixSpec,
        mean_gap_s: f64,
        scale_divisor: f64,
        seed: u64,
    ) -> crate::experiments::scheduling::PreparedWorkload {
        crate::experiments::scheduling::prepare_workload(
            mix,
            &mut self.pool,
            &self.framework,
            self.predictor.as_ref(),
            mean_gap_s,
            scale_divisor,
            seed,
        )
    }

    // --- Stage 3: prediction --------------------------------------------

    /// The trained predictor.
    ///
    /// # Errors
    /// [`Error::NotTrained`] before the first [`Pipeline::train`] call.
    pub fn predictor(&self) -> Result<&Predictor, Error> {
        self.predictor.as_ref().ok_or(Error::NotTrained)
    }

    /// Per-job task-time predictions for a percolated query, or an empty
    /// vector when no predictor is trained (a prediction-free cluster).
    pub fn predictions(&self, semantics: &QuerySemantics) -> Vec<JobPrediction> {
        match &self.predictor {
            Some(p) => p.predictions(semantics),
            None => Vec::new(),
        }
    }

    // --- Stage 4: simulation --------------------------------------------

    /// Materialize a simulator-ready query: exact ground-truth execution
    /// for task sizes, plus the trained predictor's percolated task-time
    /// predictions (empty when untrained).
    pub fn sim_query(
        &mut self,
        name: impl Into<String>,
        arrival: f64,
        semantics: &QuerySemantics,
        scale_gb: f64,
    ) -> SimQuery {
        let prof = self.stage_profiler();
        let _stage = prof.as_ref().map(|p| p.span("predict"));
        let db = self.pool.get(scale_gb);
        let actuals = execute_dag(&semantics.dag, db, self.framework.est_config.block_size);
        let predictions = self.predictions(semantics);
        build_sim_query(
            name,
            arrival,
            &semantics.dag,
            &actuals,
            &predictions,
            &self.framework.cluster,
        )
    }

    /// A simulator over this pipeline's cluster and cost model, for
    /// [`Pipeline::simulate`]. Chain `with_faults` onto it to inject
    /// failures.
    pub fn simulator<S: Scheduler>(&self, scheduler: S) -> Simulator<S> {
        Simulator::new(self.framework.cluster, self.framework.cost, scheduler)
    }

    /// Run `queries` on `sim` as `run` describes (see
    /// [`Simulator::execute`]): traced through a sink, profiled, resumed,
    /// or stopped early. Records a `"simulate"` stage span on the pipeline
    /// profiler, when one is attached.
    ///
    /// # Errors
    /// [`Error::Invalid`] for a malformed query (see [`SimQuery::validate`],
    /// which also rejects non-finite predictions) or fault plan, which
    /// `execute` checks before the run starts, and [`Error::Sim`] if the
    /// run itself fails.
    pub fn simulate<S: Scheduler, K: EventSink, P: Profiler>(
        &self,
        mut sim: Simulator<S>,
        queries: &[SimQuery],
        run: Run<'_, K, P>,
    ) -> Result<RunOutcome, Error> {
        let prof = self.stage_profiler();
        let _stage = prof.as_ref().map(|p| p.span("simulate"));
        Ok(sim.execute(queries, run)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_cluster::sched::Fifo;

    #[test]
    fn untrained_pipeline_is_explicit_about_it() {
        let p = Pipeline::new();
        assert!(matches!(p.predictor(), Err(Error::NotTrained)));
    }

    #[test]
    fn malformed_robustness_configs_surface_as_errors() {
        use sapred_cluster::FaultPlan;
        let p = Pipeline::new();
        let bad_plan = FaultPlan { task_fail_prob: 2.0, ..FaultPlan::none() };
        assert!(matches!(
            p.simulate(p.simulator(Fifo).with_faults(bad_plan), &[], Run::new()),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn non_finite_predictions_surface_as_errors() {
        let mut p = Pipeline::with_seed(7);
        let semantics =
            p.percolate_sql("t", "SELECT count(*) FROM orders", 0.5).expect("valid query");
        let mut q = p.sim_query("t", 0.0, &semantics, 0.5);
        q.jobs[0].prediction.reduce_task_time = f64::NAN;
        let err = p.simulate(p.simulator(Fifo), std::slice::from_ref(&q), Run::new()).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(err.to_string().contains("job 0"), "the error should name the job: {err}");
    }

    #[test]
    fn attached_profiler_records_stage_spans() {
        use sapred_obs::profile::Counter;

        let prof = Rc::new(SpanProfiler::new());
        let mut p = Pipeline::with_seed(7);
        p.set_profiler(Rc::clone(&prof));
        let semantics =
            p.percolate_sql("t", "SELECT count(*) FROM orders", 0.5).expect("valid query");
        let q = p.sim_query("t", 0.0, &semantics, 0.5);
        let queries = std::slice::from_ref(&q);

        // An unprofiled run records the stage span but no engine counters...
        p.simulate(p.simulator(Fifo), queries, Run::new()).unwrap();
        assert_eq!(prof.counter(Counter::EventsProcessed), 0);
        // ...while a profiled one feeds the same profiler both.
        p.simulate(p.simulator(Fifo), queries, Run::new().profiler(&*prof)).unwrap();
        assert_eq!(prof.span_stat("percolate").unwrap().count, 1);
        assert_eq!(prof.span_stat("predict").unwrap().count, 1);
        assert_eq!(prof.span_stat("simulate").unwrap().count, 2);
        assert!(prof.counter(Counter::EventsProcessed) > 0);
        assert!(prof.counter(Counter::TasksLaunched) > 0);
        assert!(prof.balanced());
        // An unprofiled pipeline records nothing, and stays usable.
        let mut bare = Pipeline::with_seed(7);
        assert!(bare.profiler().is_none());
        bare.percolate_sql("t", "SELECT count(*) FROM orders", 0.5).unwrap();
    }

    #[test]
    fn lifecycle_stages_compose() {
        let mut p = Pipeline::with_seed(7);
        let semantics =
            p.percolate_sql("t", "SELECT count(*) FROM orders", 0.5).expect("valid query");
        assert_eq!(semantics.dag.len(), 1);
        // Untrained: prediction-free sim query still works.
        let q = p.sim_query("t", 0.0, &semantics, 0.5);
        let report = p
            .simulate(p.simulator(Fifo), std::slice::from_ref(&q), Run::new())
            .unwrap()
            .into_report();
        assert!(report.queries[0].finish > 0.0);

        let config = PopulationConfig {
            n_queries: 60,
            scales_gb: vec![0.5, 1.0],
            scale_out_gb: vec![],
            seed: 7,
        };
        p.train(&config).expect("training succeeds");
        assert!(p.predictor().is_ok());
        assert!(!p.predictions(&semantics).is_empty());
        let q = p.sim_query("t", 0.0, &semantics, 0.5);
        assert!(q.jobs[0].prediction.map_task_time > 0.0);
    }
}
