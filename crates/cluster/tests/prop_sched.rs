//! Property tests: every scheduler returns choices that are members of the
//! runnable set, with the kind implied by the job's phase.

use proptest::prelude::*;
use sapred_cluster::job::TaskKind;
use sapred_cluster::sched::{Fifo, Hcs, Hfs, RunnableJob, Scheduler, Srt, Swrd};

fn runnable_strategy() -> impl Strategy<Value = Vec<RunnableJob>> {
    prop::collection::vec(
        (
            0usize..8,
            0usize..4,
            0.0f64..1000.0,
            0.0f64..1000.0,
            0usize..50,
            0usize..10,
            0usize..20,
            0.0f64..1e5,
        )
            .prop_map(|(query, job, submit, arrival, maps, reduces, running, wrd)| {
                RunnableJob {
                    query: sapred_cluster::QueryId(query),
                    job: sapred_cluster::JobId(job),
                    submit_time: submit,
                    arrival,
                    // Reduces pend only when maps are done: enforce the
                    // engine's invariant in generated data.
                    pending_maps: if reduces > 0 { 0 } else { maps.max(1) },
                    pending_reduces: reduces,
                    running,
                    query_wrd: wrd,
                    query_time: wrd / 108.0,
                }
            }),
        0..12,
    )
    .prop_map(|mut jobs| {
        // (query, job) must be unique so choices resolve unambiguously.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.query = sapred_cluster::QueryId(i % 5);
            j.job = sapred_cluster::JobId(i);
        }
        jobs
    })
}

fn check<S: Scheduler>(mut s: S, runnable: &[RunnableJob]) -> Result<(), TestCaseError> {
    match s.pick(runnable) {
        None => prop_assert!(runnable.is_empty(), "{} left work on the table", s.name()),
        Some(c) => {
            let j = runnable
                .iter()
                .find(|r| r.query == c.query && r.job == c.job)
                .expect("choice must reference a runnable job");
            let expected = if j.pending_reduces > 0 { TaskKind::Reduce } else { TaskKind::Map };
            prop_assert_eq!(c.kind, expected);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_schedulers_pick_valid_choices(runnable in runnable_strategy()) {
        check(Fifo, &runnable)?;
        check(Hcs, &runnable)?;
        check(Hfs, &runnable)?;
        check(Swrd, &runnable)?;
        check(Srt, &runnable)?;
    }

    #[test]
    fn swrd_picks_a_minimum_wrd_query(runnable in runnable_strategy()) {
        prop_assume!(!runnable.is_empty());
        let c = Swrd.pick(&runnable).unwrap();
        let min_wrd = runnable.iter().map(|r| r.query_wrd).fold(f64::INFINITY, f64::min);
        let chosen = runnable.iter().find(|r| r.query == c.query && r.job == c.job).unwrap();
        prop_assert!(chosen.query_wrd <= min_wrd + 1e-9);
    }

    #[test]
    fn hfs_picks_a_minimum_running_job(runnable in runnable_strategy()) {
        prop_assume!(!runnable.is_empty());
        let c = Hfs.pick(&runnable).unwrap();
        let min_running = runnable.iter().map(|r| r.running).min().unwrap();
        let chosen = runnable.iter().find(|r| r.query == c.query && r.job == c.job).unwrap();
        prop_assert_eq!(chosen.running, min_running);
    }

    #[test]
    fn hcs_picks_the_earliest_submitted(runnable in runnable_strategy()) {
        prop_assume!(!runnable.is_empty());
        let c = Hcs.pick(&runnable).unwrap();
        let min_submit =
            runnable.iter().map(|r| r.submit_time).fold(f64::INFINITY, f64::min);
        let chosen = runnable.iter().find(|r| r.query == c.query && r.job == c.job).unwrap();
        prop_assert!(chosen.submit_time <= min_submit + 1e-9);
    }
}
