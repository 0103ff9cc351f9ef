//! Helpers shared by the engine's integration tests.

use sapred_cluster::sched::{RunnableJob, Scheduler, TaskChoice};

/// `S`'s choices and scores without its [`Scheduler::key`], like a wrapper
/// that forwards only `pick` and `score`: the engine drops the pick index
/// and scans every runnable set.
#[derive(Clone)]
pub struct Keyless<S>(pub S);

impl<S: Scheduler> Scheduler for Keyless<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        self.0.pick(runnable)
    }

    fn score(&self, job: &RunnableJob) -> f64 {
        self.0.score(job)
    }
}
