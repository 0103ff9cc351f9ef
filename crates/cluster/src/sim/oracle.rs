//! The prediction boundary between the prediction layer and the engine.
//!
//! Per-task time predictions are computed offline and frozen into each
//! [`SimJob`] when the workload is built, as the paper's SWRD scheduler
//! is fed (§5.4). The engine reads them through a [`DemandOracle`]: once
//! up front for every job, and again when a job is submitted. The default
//! [`FrozenOracle`] returns the frozen prediction, which the golden-bits
//! fixtures pin.

use crate::job::{JobPrediction, SimJob};
use sapred_obs::QueryId;

/// A source of per-job demand predictions, consulted by the engine at run
/// start and at job submit.
///
/// Implementations are object-safe: the engine takes `&mut dyn
/// DemandOracle` so callers can hold state without infecting the
/// simulator with extra type parameters.
pub trait DemandOracle {
    /// Predicted mean task times for `job` of `query`.
    ///
    /// Called once per job before the run starts (seeding the scheduler's
    /// demand aggregates) and once more when the job is submitted.
    fn predict(&mut self, query: QueryId, job: &SimJob) -> JobPrediction;
}

/// The default oracle: answers with the prediction frozen into the job at
/// build time, as the golden fixtures pin.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrozenOracle;

impl DemandOracle for FrozenOracle {
    fn predict(&mut self, _query: QueryId, job: &SimJob) -> JobPrediction {
        job.prediction
    }
}
