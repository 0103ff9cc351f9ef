//! Schedulers: job-level FIFO / Capacity / Fair, and the paper's
//! query-level SWRD (Smallest Weighted Resource Demand first, §4.3).
//!
//! Each free container goes to one runnable job. A built-in policy is a
//! name and a [`PickKey`] ([`Scheduler::key`]): its whole ordering as one
//! lexicographic key, smallest first. The trait derives the rest from the
//! key: [`Scheduler::pick`] takes the minimum-key job and
//! [`Scheduler::score`] decodes the leading slot. The engine keeps a wide
//! runnable set in a pick index (O(log R) upkeep per touched job instead of
//! a scan of all R runnable jobs) and calls `pick` on narrow ones; both
//! take the same minimum. A policy without a key overrides `pick`, and the
//! engine then scans every set. A job never has pending maps and pending
//! reduces at the same time (reduces unlock when the map phase completes),
//! so the choice of task kind is implied.

use crate::job::TaskKind;
use sapred_obs::{JobId, QueryId};

/// A scheduler's view of one runnable job (has at least one pending task).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnableJob {
    /// Owning query's id.
    pub query: QueryId,
    /// Job id within the query's DAG.
    pub job: JobId,
    /// When Hive submitted this job to the cluster.
    pub submit_time: f64,
    /// When the owning query arrived.
    pub arrival: f64,
    /// Map tasks not yet dispatched.
    pub pending_maps: usize,
    /// Reduce tasks not yet dispatched (0 until the map phase ends).
    pub pending_reduces: usize,
    /// Currently running tasks of this job.
    pub running: usize,
    /// Remaining Weighted Resource Demand of the owning *query* (Eq. 10),
    /// from percolated predictions. Zero when prediction is disabled.
    pub query_wrd: f64,
    /// Remaining critical-path time of the owning query (predicted job
    /// processing times along the unfinished DAG), used by [`Srt`].
    pub query_time: f64,
}

impl RunnableJob {
    /// The task kind this job would run next.
    pub fn next_kind(&self) -> TaskKind {
        if self.pending_reduces > 0 {
            TaskKind::Reduce
        } else {
            TaskKind::Map
        }
    }
}

/// The engine's ask: which runnable job gets the next free container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskChoice {
    /// Chosen query.
    pub query: QueryId,
    /// Chosen job id within the query.
    pub job: JobId,
    /// Task kind to launch (implied by the job's phase).
    pub kind: TaskKind,
}

/// A policy's whole ordering as a fixed-width lexicographic key: the
/// runnable job with the smallest key wins. Float fields enter through
/// [`f64_key`]; unused trailing slots are zero.
pub type PickKey = [u64; 5];

/// Map an `f64` onto a `u64` whose unsigned order is [`f64::total_cmp`]'s
/// order (`-NaN < -inf < … < -0.0 < +0.0 < … < +inf < NaN`). A NaN (e.g. a
/// corrupted prediction percolating into a query's WRD) therefore sorts
/// after every real number instead of panicking the dispatch loop.
pub fn f64_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The exact inverse of [`f64_key`]: `key_f64(f64_key(x))` has the bits of
/// `x`, NaN payloads included.
pub fn key_f64(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Scheduling policy.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &'static str;
    /// Choose a job for the next free container, or `None` to leave it idle.
    /// The default takes the runnable job with the minimum
    /// [`Scheduler::key`].
    ///
    /// # Panics
    /// The default panics on a non-empty set if the policy has no key: a
    /// policy without a key must override `pick`.
    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        runnable
            .iter()
            .min_by_key(|r| self.key(r).expect("a policy without a key must override pick"))
            .map(choice)
    }
    /// The policy's primary ranking score for `job` — **lower wins** for
    /// every built-in policy. Recorded in observability decision events
    /// ([`sapred_obs::Event::Decision`]) so traces show *why* a candidate
    /// won. The default is the leading [`PickKey`] slot decoded by
    /// [`key_f64`] (e.g. the owning query's WRD for [`Swrd`]); later slots
    /// break its ties. A policy without a key scores `0.0`.
    fn score(&self, job: &RunnableJob) -> f64 {
        self.key(job).map_or(0.0, |k| key_f64(k[0]))
    }
    /// The policy's whole ordering for `job` as a [`PickKey`], or `None`
    /// (the default) for a policy that has none. Every built-in policy has
    /// a key; a keyless one (a wrapper that forwards only `pick` and
    /// `score`) makes the engine scan every runnable set. With a key, the
    /// engine keeps the runnable set in a pick index and, on wide sets,
    /// dispatches the minimum-key job without a scan.
    ///
    /// Contract: the key ends in the `(query, job)` pair, which makes it
    /// unique. It depends only on `job`'s own fields. A policy returns
    /// `Some` for every job or for none.
    fn key(&self, job: &RunnableJob) -> Option<PickKey> {
        let _ = job;
        None
    }
}

pub(crate) fn choice(j: &RunnableJob) -> TaskChoice {
    TaskChoice { query: j.query, job: j.job, kind: j.next_kind() }
}

/// Query-arrival FIFO: containers go to the earliest-arrived query's jobs
/// first (job submit order within a query). A simple query-aware baseline —
/// it avoids cross-query interleaving but ignores resource demand.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn key(&self, j: &RunnableJob) -> Option<PickKey> {
        Some([f64_key(j.arrival), j.query.0 as u64, f64_key(j.submit_time), j.job.0 as u64, 0])
    }
}

/// Hadoop Capacity Scheduler (single queue, the paper's configuration):
/// jobs are served strictly in *job submission* order with greedy backfill.
/// Because a DAG's downstream jobs are submitted only when their parents
/// finish, jobs of later queries routinely overtake them — the resource
/// thrashing of paper §2.1 (Figs. 1–2).
#[derive(Debug, Default, Clone, Copy)]
pub struct Hcs;

impl Scheduler for Hcs {
    fn name(&self) -> &'static str {
        "HCS"
    }

    fn key(&self, j: &RunnableJob) -> Option<PickKey> {
        Some([f64_key(j.submit_time), j.query.0 as u64, j.job.0 as u64, 0, 0])
    }
}

/// Hadoop Fair Scheduler: every active job gets an equal share of
/// containers; each free container goes to the runnable job with the fewest
/// running tasks. Resources are divided thinly across all jobs (§2.1).
#[derive(Debug, Default, Clone, Copy)]
pub struct Hfs;

impl Scheduler for Hfs {
    fn name(&self) -> &'static str {
        "HFS"
    }

    // The running count enters as a float so the score decodes like every
    // other policy's; counts below 2^53 keep their integer order.
    fn key(&self, j: &RunnableJob) -> Option<PickKey> {
        Some([
            f64_key(j.running as f64),
            f64_key(j.submit_time),
            j.query.0 as u64,
            j.job.0 as u64,
            0,
        ])
    }
}

/// The paper's case-study scheduler (§4.3): queries are ranked by their
/// remaining Weighted Resource Demand; all containers go to the
/// smallest-WRD query first (job submit order within the query). Requires
/// the percolated per-task time predictions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Swrd;

impl Scheduler for Swrd {
    fn name(&self) -> &'static str {
        "SWRD"
    }

    fn key(&self, j: &RunnableJob) -> Option<PickKey> {
        Some([
            f64_key(j.query_wrd),
            f64_key(j.arrival),
            j.query.0 as u64,
            f64_key(j.submit_time),
            j.job.0 as u64,
        ])
    }
}

/// Smallest-Remaining-Time-first at the query level: like SWRD but ranking
/// queries by their predicted remaining *critical-path time* instead of
/// their Weighted Resource Demand. The paper argues (§4.3) that temporal
/// demand alone is not enough — a query's WRD also captures how many
/// containers it will occupy; the A4 ablation compares the two directly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Srt;

impl Scheduler for Srt {
    fn name(&self) -> &'static str {
        "SRT"
    }

    fn key(&self, j: &RunnableJob) -> Option<PickKey> {
        Some([
            f64_key(j.query_time),
            f64_key(j.arrival),
            j.query.0 as u64,
            f64_key(j.submit_time),
            j.job.0 as u64,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(query: usize, job_id: usize, submit: f64, arrival: f64) -> RunnableJob {
        RunnableJob {
            query: QueryId(query),
            job: JobId(job_id),
            submit_time: submit,
            arrival,
            pending_maps: 3,
            pending_reduces: 0,
            running: 0,
            query_wrd: 100.0,
            query_time: 50.0,
        }
    }

    #[test]
    fn fifo_prefers_oldest_query() {
        let mut s = Fifo;
        // Query 1 arrived later but its job was submitted earlier.
        let r = vec![job(0, 1, 10.0, 0.0), job(1, 0, 5.0, 2.0)];
        let c = s.pick(&r).unwrap();
        assert_eq!(c.query, QueryId(0));
    }

    #[test]
    fn hcs_prefers_earliest_submitted_job() {
        let mut s = Hcs;
        let r = vec![job(0, 1, 10.0, 0.0), job(1, 0, 5.0, 2.0)];
        let c = s.pick(&r).unwrap();
        assert_eq!(c.query, QueryId(1), "HCS follows job submit order, not query arrival");
    }

    #[test]
    fn hfs_balances_running_counts() {
        let mut s = Hfs;
        let mut a = job(0, 0, 0.0, 0.0);
        a.running = 5;
        let b = job(1, 0, 1.0, 1.0);
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
    }

    #[test]
    fn swrd_prefers_smallest_demand() {
        let mut s = Swrd;
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_wrd = 500.0;
        let mut b = job(1, 0, 1.0, 1.0);
        b.query_wrd = 50.0;
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
    }

    #[test]
    fn srt_prefers_smallest_remaining_time() {
        let mut s = Srt;
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_time = 500.0;
        a.query_wrd = 1.0; // would win under SWRD
        let mut b = job(1, 0, 1.0, 1.0);
        b.query_time = 5.0;
        b.query_wrd = 1000.0;
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
    }

    #[test]
    fn reduce_kind_when_reduces_pending() {
        let mut s = Fifo;
        let mut a = job(0, 0, 0.0, 0.0);
        a.pending_maps = 0;
        a.pending_reduces = 2;
        let c = s.pick(&[a]).unwrap();
        assert_eq!(c.kind, TaskKind::Reduce);
    }

    #[test]
    fn scores_expose_each_policy_primary_key() {
        let mut a = job(0, 0, 3.0, 1.0);
        a.running = 4;
        a.query_wrd = 77.0;
        a.query_time = 9.0;
        assert_eq!(Fifo.score(&a), 1.0);
        assert_eq!(Hcs.score(&a), 3.0);
        assert_eq!(Hfs.score(&a), 4.0);
        assert_eq!(Swrd.score(&a), 77.0);
        assert_eq!(Srt.score(&a), 9.0);
    }

    #[test]
    fn picked_candidate_has_minimal_score() {
        // For every score-driven policy, the picked job's score is the
        // minimum over the runnable set (ties broken by secondary keys).
        let mut r = vec![job(0, 0, 3.0, 1.0), job(1, 0, 1.0, 2.0), job(2, 0, 2.0, 0.5)];
        r[0].query_wrd = 30.0;
        r[1].query_wrd = 10.0;
        r[2].query_wrd = 20.0;
        r[0].query_time = 8.0;
        r[1].query_time = 12.0;
        r[2].query_time = 4.0;
        r[1].running = 6;

        fn check<S: Scheduler>(mut s: S, r: &[RunnableJob]) {
            let c = s.pick(r).unwrap();
            let chosen = r.iter().find(|j| (j.query, j.job) == (c.query, c.job)).unwrap();
            let min = r.iter().map(|j| s.score(j)).fold(f64::INFINITY, f64::min);
            assert!(s.score(chosen) <= min, "{}: {} > {min}", s.name(), s.score(chosen));
        }
        check(Fifo, &r);
        check(Hcs, &r);
        check(Hfs, &r);
        check(Swrd, &r);
        check(Srt, &r);
    }

    #[test]
    fn nan_scores_cannot_panic_a_pick() {
        // A NaN in any float key (a corrupted prediction percolating into
        // WRD, an uninitialized time) must degrade to "sorts last", never
        // panic the dispatch loop. Exercise every policy with NaN in every
        // float field of one candidate.
        let mut poisoned = job(0, 0, f64::NAN, f64::NAN);
        poisoned.query_wrd = f64::NAN;
        poisoned.query_time = f64::NAN;
        let clean = job(1, 0, 2.0, 2.0);

        fn check<S: Scheduler>(mut s: S, r: &[RunnableJob]) {
            let c = s.pick(r).expect("NaN keys must not panic or empty the pick");
            assert_eq!(c.query, QueryId(1), "{}: NaN sorts after real keys", s.name());
            assert_eq!(reference_pick(s.name(), r), Some(c), "{}: reference disagrees", s.name());
        }
        check(Fifo, &[poisoned, clean]);
        check(Hcs, &[poisoned, clean]);
        check(Hfs, &[poisoned, clean]);
        check(Swrd, &[poisoned, clean]);
        check(Srt, &[poisoned, clean]);

        // All-NaN candidate sets still produce a deterministic pick.
        let twin = { job(1, 0, f64::NAN, f64::NAN) };
        let mut twin = twin;
        twin.query_wrd = f64::NAN;
        twin.query_time = f64::NAN;
        for r in [&[poisoned, twin][..], &[twin, poisoned][..]] {
            assert_eq!(Swrd.pick(r).unwrap().query, QueryId(0));
            assert_eq!(Srt.pick(r).unwrap().query, QueryId(0));
            assert_eq!(Fifo.pick(r).unwrap().query, QueryId(0));
            assert_eq!(reference_pick("SWRD", r).unwrap().query, QueryId(0));
            assert_eq!(reference_pick("SRT", r).unwrap().query, QueryId(0));
            assert_eq!(reference_pick("FIFO", r).unwrap().query, QueryId(0));
        }
    }

    /// HCS's order, and the tie-break chain of the others.
    fn submit_order(a: &RunnableJob, b: &RunnableJob) -> std::cmp::Ordering {
        a.submit_time.total_cmp(&b.submit_time).then(a.query.cmp(&b.query)).then(a.job.cmp(&b.job))
    }

    /// The oracle for the derived `pick`: each keyed policy's ordering
    /// written out as a comparator chain over the job's fields.
    fn reference_pick(policy: &str, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        let by_query_then_submit = |a: &RunnableJob, b: &RunnableJob| {
            a.arrival.total_cmp(&b.arrival).then(a.query.cmp(&b.query)).then(submit_order(a, b))
        };
        let order = |a: &RunnableJob, b: &RunnableJob| match policy {
            "FIFO" => a
                .arrival
                .total_cmp(&b.arrival)
                .then(a.query.cmp(&b.query))
                .then(a.submit_time.total_cmp(&b.submit_time))
                .then(a.job.cmp(&b.job)),
            "HCS" => submit_order(a, b),
            "HFS" => a.running.cmp(&b.running).then(submit_order(a, b)),
            "SWRD" => a.query_wrd.total_cmp(&b.query_wrd).then(by_query_then_submit(a, b)),
            "SRT" => a.query_time.total_cmp(&b.query_time).then(by_query_then_submit(a, b)),
            other => panic!("no reference comparator for {other}"),
        };
        runnable.iter().min_by(|a, b| order(a, b)).map(choice)
    }

    #[test]
    fn f64_key_orders_like_total_cmp() {
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        let mut x = 5u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            xs.push(f64::from_bits(x));
        }
        for a in &xs {
            assert_eq!(key_f64(f64_key(*a)).to_bits(), a.to_bits(), "{a:e} does not round-trip");
            for b in &xs {
                assert_eq!(
                    f64_key(*a).cmp(&f64_key(*b)),
                    a.total_cmp(b),
                    "{a:e} ({:#x}) vs {b:e} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    #[test]
    fn minimum_key_is_the_pick_on_random_sets() {
        // Few distinct values so primary keys tie often, and every float
        // edge case (NaN of both signs, ±0.0, ±inf) in every float field.
        const FLOATS: [f64; 9] =
            [f64::NAN, -f64::NAN, f64::NEG_INFINITY, -1.0, -0.0, 0.0, 2.5, 7.0, f64::INFINITY];
        let mut x = 17u64;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % n) as usize
        };
        for round in 0..500 {
            let mut r: Vec<RunnableJob> = Vec::new();
            for _ in 0..1 + round % 12 {
                let (q, jb) = (next(5), next(4));
                if r.iter().any(|e| (e.query, e.job) == (QueryId(q), JobId(jb))) {
                    continue;
                }
                let mut e = job(q, jb, FLOATS[next(9)], FLOATS[next(9)]);
                e.query_wrd = FLOATS[next(9)];
                e.query_time = FLOATS[next(9)];
                e.running = next(3);
                if next(2) == 0 {
                    (e.pending_maps, e.pending_reduces) = (0, 1 + next(3));
                }
                r.push(e);
            }
            fn agree<S: Scheduler>(mut s: S, r: &[RunnableJob], round: usize) {
                let want = reference_pick(s.name(), r);
                assert_eq!(s.pick(r), want, "{} round {round}: {r:?}", s.name());
            }
            agree(Fifo, &r, round);
            agree(Hcs, &r, round);
            agree(Hfs, &r, round);
            agree(Swrd, &r, round);
            agree(Srt, &r, round);
        }
    }

    #[test]
    fn empty_runnable_gives_none() {
        assert!(Fifo.pick(&[]).is_none());
        assert!(Hcs.pick(&[]).is_none());
        assert!(Hfs.pick(&[]).is_none());
        assert!(Swrd.pick(&[]).is_none());
        assert!(Srt.pick(&[]).is_none());
    }
}
