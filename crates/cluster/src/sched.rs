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
//! take the same minimum. [`HcsQueues`] ranks a job by its queue's share,
//! which no per-job key expresses, so it has no key and writes its own
//! `pick`. A job never has pending maps and pending reduces at the same
//! time (reduces unlock when the map phase completes), so the choice of
//! task kind is implied.

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
    /// Total running tasks of the owning query (all jobs), used by
    /// [`HcsQueues`] for per-queue share accounting.
    pub query_running: usize,
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
    /// (the default) for a policy that has none. With a key, the engine
    /// keeps the runnable set in a pick index and, on wide sets, dispatches
    /// the minimum-key job without a scan.
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

/// The multi-queue Hadoop Capacity Scheduler: queries are hashed onto
/// queues, each queue has a guaranteed share of the container pool, and
/// free containers go to the most under-served queue (lowest
/// running-to-capacity ratio) with [`Hcs`]'s job order inside the queue, so
/// with a single queue it degenerates to [`Hcs`]. The paper's testbed uses the
/// default single-queue configuration; this variant exists to show the
/// thrashing of §2.1 is not an artifact of that choice.
#[derive(Debug, Clone)]
pub struct HcsQueues {
    capacities: Vec<f64>,
    /// Reusable per-queue running-count scratch, one slot per queue;
    /// `None` marks a queue with no runnable work in the current pick.
    running: Vec<Option<usize>>,
    /// Generation stamp per query id: a query was counted this pick iff
    /// its stamp equals `gen`. "Clearing" between picks is the O(1) `gen`
    /// bump below — no per-dispatch buffer wipe, no hash-set allocation.
    seen_gen: Vec<u64>,
    gen: u64,
}

impl HcsQueues {
    /// Create with one guaranteed share per queue.
    ///
    /// # Panics
    /// Panics if `capacities` is empty or has non-positive entries.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(!capacities.is_empty(), "need at least one queue");
        assert!(capacities.iter().all(|&c| c > 0.0), "capacities must be positive");
        let running = vec![None; capacities.len()];
        Self { capacities, running, seen_gen: Vec::new(), gen: 0 }
    }

    fn queue_of(&self, query: usize) -> usize {
        query % self.capacities.len()
    }
}

impl Scheduler for HcsQueues {
    fn name(&self) -> &'static str {
        "HCS-queues"
    }

    fn pick(&mut self, runnable: &[RunnableJob]) -> Option<TaskChoice> {
        // Running tasks per queue (each query counted once). The engine
        // hands us the runnable view sorted by (query, job), so queries are
        // contiguous; a last-seen check dedupes in O(n). The
        // (unsorted-caller) general case is guarded by generation stamps:
        // a query counts only when its stamp trails the pick's generation,
        // replacing the per-call HashSet allocation with a reusable buffer
        // that clears by bumping `gen`.
        self.gen += 1;
        self.running.iter_mut().for_each(|r| *r = None);
        let mut last: Option<usize> = None;
        for r in runnable {
            let q: usize = r.query.into();
            if last == Some(q) {
                continue;
            }
            last = Some(q);
            if q >= self.seen_gen.len() {
                self.seen_gen.resize(q + 1, 0);
            }
            if self.seen_gen[q] != self.gen {
                self.seen_gen[q] = self.gen;
                let qi = self.queue_of(q);
                *self.running[qi].get_or_insert(0) += r.query_running;
            }
        }
        // Most under-served queue that has pending work: every runnable
        // query was counted above, so a queue has work iff its slot is set.
        let (best_queue, _) = self
            .running
            .iter()
            .enumerate()
            .filter_map(|(q, r)| Some((q, (*r)? as f64 / self.capacities[q])))
            .min_by(|(a, ra), (b, rb)| ra.total_cmp(rb).then(a.cmp(b)))?;
        runnable
            .iter()
            .filter(|r| self.queue_of(r.query.into()) == best_queue)
            .min_by_key(|r| Hcs.key(r))
            .map(choice)
    }

    // Queue-relative ranking has no single scalar; the within-queue FIFO
    // key is still the most informative per-candidate number.
    fn score(&self, job: &RunnableJob) -> f64 {
        job.submit_time
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
            query_running: 0,
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
    fn hcs_queues_serves_the_underserved_queue() {
        // Two queues, equal capacity. Query 0 (queue 0) already has 10
        // running tasks; query 1 (queue 1) has none: queue 1 wins even
        // though query 0's job was submitted earlier.
        let mut s = HcsQueues::new(vec![0.5, 0.5]);
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_running = 10;
        let b = job(1, 0, 5.0, 5.0);
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(1));
        // With capacities 10:1, queue 0 is under-served even at 8 running.
        let mut s = HcsQueues::new(vec![10.0, 1.0]);
        let mut a = job(0, 0, 0.0, 0.0);
        a.query_running = 8;
        let mut b = job(1, 0, 5.0, 5.0);
        b.query_running = 1;
        let c = s.pick(&[a, b]).unwrap();
        assert_eq!(c.query, QueryId(0));
    }

    #[test]
    fn hcs_queues_generation_scratch_matches_hashset_reference() {
        // The generation-stamped scratch must reproduce the retired
        // HashSet dedup exactly — same counting, same pick — including on
        // unsorted views where a query's entries are not contiguous, and
        // across repeated picks (stale stamps from earlier generations
        // must not leak into later ones).
        fn reference_pick(capacities: &[f64], runnable: &[RunnableJob]) -> Option<TaskChoice> {
            let n = capacities.len();
            let queue_of = |query: usize| query % n;
            let mut running = vec![0usize; n];
            let mut last: Option<usize> = None;
            let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
            for r in runnable {
                if last == Some(r.query.into()) {
                    continue;
                }
                last = Some(r.query.into());
                if seen.insert(r.query.into()) {
                    running[queue_of(r.query.into())] += r.query_running;
                }
            }
            let best_queue = (0..n)
                .filter(|&q| runnable.iter().any(|r| queue_of(r.query.into()) == q))
                .min_by(|&a, &b| {
                    let ra = running[a] as f64 / capacities[a];
                    let rb = running[b] as f64 / capacities[b];
                    ra.total_cmp(&rb).then(a.cmp(&b))
                })?;
            runnable
                .iter()
                .filter(|r| queue_of(r.query.into()) == best_queue)
                .min_by(|a, b| submit_order(a, b))
                .map(choice)
        }

        let capacities = vec![3.0, 1.0, 2.0];
        let mut s = HcsQueues::new(capacities.clone());
        // Deterministic pseudo-random views: query ids deliberately
        // repeated and non-contiguous, varying running counts.
        let mut x = 11u64;
        for round in 0..50 {
            let mut r = Vec::new();
            for k in 0..(1 + round % 7) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let q = (x >> 33) as usize % 9;
                let mut j = job(q, k, (x % 97) as f64, 0.0);
                j.query_running = (x % 13) as usize;
                r.push(j);
            }
            let got = s.pick(&r);
            let want = reference_pick(&capacities, &r);
            assert_eq!(
                got.map(|c| (c.query, c.job, c.kind)),
                want.map(|c| (c.query, c.job, c.kind)),
                "round {round}: scratch dedup diverged from HashSet reference"
            );
        }
    }

    #[test]
    fn hcs_queues_single_queue_matches_hcs() {
        let r = vec![job(0, 1, 10.0, 0.0), job(1, 0, 5.0, 2.0)];
        let a = HcsQueues::new(vec![1.0]).pick(&r).unwrap();
        let b = Hcs.pick(&r).unwrap();
        assert_eq!((a.query, a.job), (b.query, b.job));
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
        assert_eq!(HcsQueues::new(vec![1.0]).score(&a), 3.0);
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
            if s.key(&r[0]).is_some() {
                assert_eq!(
                    reference_pick(s.name(), r),
                    Some(c),
                    "{}: reference disagrees",
                    s.name()
                );
            }
        }
        check(Fifo, &[poisoned, clean]);
        check(Hcs, &[poisoned, clean]);
        check(Hfs, &[poisoned, clean]);
        check(Swrd, &[poisoned, clean]);
        check(Srt, &[poisoned, clean]);
        // Single queue: both candidates share it, so the NaN-keyed
        // within-queue ordering is what decides.
        check(HcsQueues::new(vec![1.0]), &[poisoned, clean]);

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
        assert!(HcsQueues::new(vec![1.0]).key(&job(0, 0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn empty_runnable_gives_none() {
        assert!(Fifo.pick(&[]).is_none());
        assert!(Hcs.pick(&[]).is_none());
        assert!(Hfs.pick(&[]).is_none());
        assert!(Swrd.pick(&[]).is_none());
        assert!(Srt.pick(&[]).is_none());
        assert!(HcsQueues::new(vec![1.0]).pick(&[]).is_none());
    }
}
