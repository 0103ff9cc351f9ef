//! Hand-construction of query DAGs for shapes outside the SQL subset.
//!
//! Some paper workloads (e.g. TPC-H Q17 with its correlated scalar subquery)
//! compile in real Hive to DAG shapes our SQL front end does not produce.
//! [`DagBuilder`] constructs those DAGs directly while carrying exactly the
//! same per-job semantics (table predicates, projections, keys) so that the
//! estimator and ground-truth executor treat them identically to compiled
//! queries.

use crate::dag::{InputSrc, JobKind, MrJob, QueryDag, TableInput};
use sapred_relation::expr::Predicate;

/// Incremental builder for a [`QueryDag`]. Methods return the new job's id,
/// which later jobs reference through [`DagBuilder::job`].
#[derive(Debug, Default)]
pub struct DagBuilder {
    jobs: Vec<MrJob>,
}

impl DagBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An input reading `table` with a pushed predicate and projection.
    pub fn table(
        table: impl Into<String>,
        predicate: Predicate,
        projection: impl IntoIterator<Item = impl Into<String>>,
    ) -> InputSrc {
        InputSrc::Table(TableInput {
            table: table.into(),
            predicate,
            projection: projection.into_iter().map(Into::into).collect(),
        })
    }

    /// An input reading a previously added job's output.
    pub fn job(id: usize) -> InputSrc {
        InputSrc::Job(id)
    }

    fn push(&mut self, kind: JobKind) -> usize {
        let id = self.jobs.len();
        for d in kind.inputs().iter().filter_map(|i| i.job_dep()) {
            assert!(d < id, "job input {d} does not exist yet");
        }
        self.jobs.push(MrJob::new(id, kind));
        id
    }

    /// Add an equi-join job.
    pub fn join(
        &mut self,
        left: InputSrc,
        right: InputSrc,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> usize {
        self.push(JobKind::Join {
            left,
            right,
            left_key: left_key.into(),
            right_key: right_key.into(),
        })
    }

    /// Add a group-by job.
    pub fn groupby(
        &mut self,
        input: InputSrc,
        keys: impl IntoIterator<Item = impl Into<String>>,
        n_aggs: usize,
    ) -> usize {
        self.push(JobKind::Groupby {
            input,
            keys: keys.into_iter().map(Into::into).collect(),
            n_aggs,
        })
    }

    /// Add a sort (order-by) job with optional limit.
    pub fn sort(
        &mut self,
        input: InputSrc,
        keys: impl IntoIterator<Item = impl Into<String>>,
        limit: Option<u64>,
    ) -> usize {
        self.push(JobKind::Sort { input, keys: keys.into_iter().map(Into::into).collect(), limit })
    }

    /// Finish, producing a validated DAG.
    pub fn build(self, name: impl Into<String>) -> QueryDag {
        QueryDag::new(name, self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::JobCategory;
    use sapred_relation::expr::{CmpOp, Predicate};

    #[test]
    fn q17_shape() {
        // TPC-H Q17 in Hive 0.10 compiles to ~4 jobs:
        //   J0 groupby lineitem by l_partkey (avg quantity)
        //   J1 join lineitem x part (brand/container filter)
        //   J2 join J1 x J0 on partkey
        //   J3 global aggregate
        let mut b = DagBuilder::new();
        let j0 = b.groupby(
            DagBuilder::table("lineitem", Predicate::True, ["l_partkey", "l_quantity"]),
            ["l_partkey"],
            1,
        );
        let j1 = b.join(
            DagBuilder::table(
                "lineitem",
                Predicate::True,
                ["l_partkey", "l_quantity", "l_extendedprice"],
            ),
            DagBuilder::table(
                "part",
                Predicate::cmp("p_brand", CmpOp::Eq, 3.0).and(Predicate::cmp(
                    "p_container",
                    CmpOp::Eq,
                    7.0,
                )),
                ["p_partkey"],
            ),
            "l_partkey",
            "p_partkey",
        );
        let j2 = b.join(DagBuilder::job(j1), DagBuilder::job(j0), "l_partkey", "l_partkey");
        let _j3 = b.groupby(DagBuilder::job(j2), Vec::<String>::new(), 1);
        let d = b.build("q17");
        assert_eq!(d.len(), 4);
        assert_eq!(d.roots(), vec![0, 1]);
        assert_eq!(d.depth(), 3);
        assert_eq!(d.job(2).deps(), vec![1, 0]);
        assert_eq!(d.job(3).category(), JobCategory::Groupby);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut b = DagBuilder::new();
        b.groupby(DagBuilder::job(3), ["k"], 0);
    }
}
