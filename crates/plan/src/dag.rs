//! The DAG-of-MapReduce-jobs representation and the semantics attached to
//! every job — the payload of cross-layer percolation.

use sapred_relation::expr::Predicate;

/// Operator category of a job (paper §3.1): global shuffle operators are
/// *major* and define the job type; everything else rides along as minor
/// operators inside the job's map phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobCategory {
    /// Order-by / limit / plain filter-project jobs.
    Extract,
    /// Group-by (with map-side combine).
    Groupby,
    /// Equi-join of two inputs.
    Join,
}

impl std::fmt::Display for JobCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobCategory::Extract => "Extract",
            JobCategory::Groupby => "Groupby",
            JobCategory::Join => "Join",
        };
        f.write_str(s)
    }
}

/// A base-table input of a job, with the predicate and projection the map
/// phase applies while scanning it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInput {
    /// Base table name.
    pub table: String,
    /// Predicate applied while scanning (pushed-down filter).
    pub predicate: Predicate,
    /// Columns that survive the map phase (empty means all).
    pub projection: Vec<String>,
}

/// Where a job reads its input from: a base table or another job's output.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSrc {
    /// A base-table scan.
    Table(TableInput),
    /// The output of an earlier job in the same DAG.
    Job(usize),
}

impl InputSrc {
    /// The upstream job id, if this input is a job output.
    pub fn job_dep(&self) -> Option<usize> {
        match self {
            InputSrc::Job(j) => Some(*j),
            InputSrc::Table(_) => None,
        }
    }
}

/// The operator payload of one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Equi-join `left.left_key = right.right_key`.
    Join {
        /// Streaming (left) input.
        left: InputSrc,
        /// Build (right) input.
        right: InputSrc,
        /// Join key column on the left input.
        left_key: String,
        /// Join key column on the right input.
        right_key: String,
    },
    /// Group-by with `n_aggs` aggregates; empty `keys` is a global aggregate.
    Groupby {
        /// The grouped input.
        input: InputSrc,
        /// Group-by key columns (empty = one global group).
        keys: Vec<String>,
        /// Number of aggregate expressions computed per group.
        n_aggs: usize,
    },
    /// Total-order sort with optional limit.
    Sort {
        /// The sorted input.
        input: InputSrc,
        /// Sort key columns.
        keys: Vec<String>,
        /// Optional LIMIT (nominal rows).
        limit: Option<u64>,
    },
    /// Map-only filter/project (no reduce phase).
    MapOnly {
        /// The scanned input.
        input: InputSrc,
    },
}

impl JobKind {
    /// The job category implied by the major operator.
    pub fn category(&self) -> JobCategory {
        match self {
            JobKind::Join { .. } => JobCategory::Join,
            JobKind::Groupby { .. } => JobCategory::Groupby,
            JobKind::Sort { .. } | JobKind::MapOnly { .. } => JobCategory::Extract,
        }
    }

    /// Inputs of this job in a stable order.
    pub fn inputs(&self) -> Vec<&InputSrc> {
        match self {
            JobKind::Join { left, right, .. } => vec![left, right],
            JobKind::Groupby { input, .. }
            | JobKind::Sort { input, .. }
            | JobKind::MapOnly { input } => {
                vec![input]
            }
        }
    }

    /// Whether the job has a reduce phase.
    pub fn has_reduce(&self) -> bool {
        !matches!(self, JobKind::MapOnly { .. })
    }
}

/// A map-side (broadcast) join executed inside a job's map phase: the small
/// table ships to every mapper (Hadoop's distributed cache) and joins
/// against the job's primary input before the shuffle. In the paper's
/// taxonomy this is a *minor* operator (§3.1) — it changes the job's data
/// flow but not its category.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastJoin {
    /// The broadcast (small) table with its pushed filter/projection.
    pub table: TableInput,
    /// Join key on the streaming (primary-input) side.
    pub stream_key: String,
    /// Join key on the broadcast table.
    pub table_key: String,
}

/// One MapReduce job in a query DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct MrJob {
    /// Index of this job within its [`QueryDag`].
    pub id: usize,
    /// The job's major operator and inputs.
    pub kind: JobKind,
    /// Map-side joins applied (in order) to the job's primary input before
    /// the major operator runs. Empty unless the planner converted small
    /// joins (Hive's `auto.convert.join`, off by default in v0.10).
    pub broadcasts: Vec<BroadcastJoin>,
}

impl MrJob {
    /// A job with no map-side joins.
    pub fn new(id: usize, kind: JobKind) -> Self {
        Self { id, kind, broadcasts: Vec::new() }
    }

    /// Operator category of this job.
    pub fn category(&self) -> JobCategory {
        self.kind.category()
    }

    /// Ids of jobs this job depends on.
    pub fn deps(&self) -> Vec<usize> {
        self.kind.inputs().iter().filter_map(|i| i.job_dep()).collect()
    }
}

/// A query compiled to a DAG of MapReduce jobs, in a valid topological order
/// (every job's dependencies have smaller ids).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDag {
    /// Query name (for reports and scheduling telemetry).
    pub name: String,
    jobs: Vec<MrJob>,
}

impl QueryDag {
    /// Build a DAG, validating ids and topological ordering.
    ///
    /// # Panics
    /// Panics if job ids are not `0..n` in order or a dependency points
    /// forward (the compiler and builder only emit valid DAGs; hand-rolled
    /// construction errors should fail fast).
    pub fn new(name: impl Into<String>, jobs: Vec<MrJob>) -> Self {
        assert!(!jobs.is_empty(), "a query DAG needs at least one job");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i, "job ids must be dense and ordered");
            for d in j.deps() {
                assert!(d < i, "dependency {d} of job {i} is not topologically earlier");
            }
        }
        Self { name: name.into(), jobs }
    }

    /// The jobs in topological (id) order.
    pub fn jobs(&self) -> &[MrJob] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the DAG has no jobs (never true for valid DAGs).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job with the given id.
    pub fn job(&self, id: usize) -> &MrJob {
        &self.jobs[id]
    }

    /// Jobs with no job dependencies (runnable at submission).
    #[cfg(test)]
    pub fn roots(&self) -> Vec<usize> {
        self.jobs.iter().filter(|j| j.deps().is_empty()).map(|j| j.id).collect()
    }

    /// The terminal job (the DAG's result). By construction the last job.
    pub fn sink(&self) -> usize {
        self.jobs.len() - 1
    }

    /// Jobs that directly depend on `id`.
    pub fn dependents(&self, id: usize) -> Vec<usize> {
        self.jobs.iter().filter(|j| j.deps().contains(&id)).map(|j| j.id).collect()
    }

    /// All base tables read anywhere in the DAG (including broadcast-join
    /// side tables).
    pub fn tables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .jobs
            .iter()
            .flat_map(|j| j.kind.inputs())
            .filter_map(|i| match i {
                InputSrc::Table(t) => Some(t.table.as_str()),
                InputSrc::Job(_) => None,
            })
            .chain(
                self.jobs.iter().flat_map(|j| j.broadcasts.iter().map(|b| b.table.table.as_str())),
            )
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Length (in jobs) of the longest dependency chain.
    pub fn depth(&self) -> usize {
        let mut depth = vec![1usize; self.jobs.len()];
        for (i, j) in self.jobs.iter().enumerate() {
            for d in j.deps() {
                depth[i] = depth[i].max(depth[d] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Longest weighted dependency path: the DAG critical path given a
    /// per-job weight (e.g. predicted execution time). Used for query-level
    /// time prediction (paper §5.4).
    pub fn critical_path(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.jobs.len());
        let mut acc = vec![0.0f64; self.jobs.len()];
        for (i, j) in self.jobs.iter().enumerate() {
            let longest_dep = j.deps().iter().map(|&d| acc[d]).fold(0.0, f64::max);
            acc[i] = longest_dep + weights[i];
        }
        acc.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_relation::expr::Predicate;

    fn scan(t: &str) -> InputSrc {
        InputSrc::Table(TableInput {
            table: t.to_string(),
            predicate: Predicate::True,
            projection: vec![],
        })
    }

    fn diamond() -> QueryDag {
        // 0: join(a,b); 1: groupby(job0); 2: map-only(c); 3: join(job1, job2)
        QueryDag::new(
            "diamond",
            vec![
                MrJob::new(
                    0,
                    JobKind::Join {
                        left: scan("a"),
                        right: scan("b"),
                        left_key: "k".into(),
                        right_key: "k".into(),
                    },
                ),
                MrJob::new(
                    1,
                    JobKind::Groupby { input: InputSrc::Job(0), keys: vec!["g".into()], n_aggs: 1 },
                ),
                MrJob::new(2, JobKind::MapOnly { input: scan("c") }),
                MrJob::new(
                    3,
                    JobKind::Join {
                        left: InputSrc::Job(1),
                        right: InputSrc::Job(2),
                        left_key: "g".into(),
                        right_key: "g".into(),
                    },
                ),
            ],
        )
    }

    #[test]
    fn roots_and_sink() {
        let d = diamond();
        assert_eq!(d.roots(), vec![0, 2]);
        assert_eq!(d.sink(), 3);
        assert_eq!(d.dependents(1), vec![3]);
        assert_eq!(d.depth(), 3);
    }

    #[test]
    fn tables_deduped_sorted() {
        let d = diamond();
        assert_eq!(d.tables(), vec!["a", "b", "c"]);
    }

    #[test]
    fn critical_path_weights() {
        let d = diamond();
        // Path 0→1→3 = 5 + 2 + 1 = 8 vs 2→3 = 3 + 1 = 4.
        assert_eq!(d.critical_path(&[5.0, 2.0, 3.0, 1.0]), 8.0);
        // Make the map-only branch dominate.
        assert_eq!(d.critical_path(&[1.0, 1.0, 10.0, 1.0]), 11.0);
    }

    #[test]
    fn categories() {
        let d = diamond();
        assert_eq!(d.job(0).category(), JobCategory::Join);
        assert_eq!(d.job(1).category(), JobCategory::Groupby);
        assert_eq!(d.job(2).category(), JobCategory::Extract);
        assert!(!d.job(2).kind.has_reduce());
        assert!(d.job(0).kind.has_reduce());
    }

    #[test]
    fn single_job_dag() {
        let d = QueryDag::new("one", vec![MrJob::new(0, JobKind::MapOnly { input: scan("t") })]);
        assert_eq!(d.roots(), vec![0]);
        assert_eq!(d.sink(), 0);
        assert_eq!(d.depth(), 1);
        assert_eq!(d.critical_path(&[7.5]), 7.5);
        assert!(d.dependents(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "topologically earlier")]
    fn forward_dependency_rejected() {
        QueryDag::new(
            "bad",
            vec![
                MrJob::new(
                    0,
                    JobKind::Groupby { input: InputSrc::Job(1), keys: vec![], n_aggs: 0 },
                ),
                MrJob::new(1, JobKind::MapOnly { input: scan("a") }),
            ],
        );
    }
}
