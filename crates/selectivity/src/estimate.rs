//! DAG-walking estimator: per-job `IS`/`FS`, data sizes and the join skew
//! ratio `P`, with histogram propagation between jobs.

use crate::formulas::{join_size_bucketed, p_ratio, s_comb};
use crate::pred::{pred_selectivity, split_conjuncts};
use crate::profile::{ColProfile, RelProfile};
use sapred_plan::dag::{BroadcastJoin, InputSrc, JobCategory, JobKind, QueryDag};
use sapred_relation::expr::Predicate;
use sapred_relation::stats::Catalog;
use sapred_relation::{modeled_bytes, SCALE_DOWN};

/// The paper testbed's HDFS block size (256 MB) in modeled bytes: the
/// default for [`EstimatorConfig::block_size`], which determines estimated
/// map counts.
pub const DEFAULT_BLOCK_SIZE: f64 = 256.0 * 1024.0 * 1024.0;

/// Estimator configuration.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// HDFS block size in modeled bytes; determines estimated map counts
    /// ([`DEFAULT_BLOCK_SIZE`] = the paper testbed's 256 MB).
    pub block_size: f64,
    /// Metastore layout hint: whether group-by keys are clustered in file
    /// order (selects between the two `S_comb` cases of Eq. 2).
    pub clustered_keys: bool,
    /// Which [`EstimatorKind`](crate::estimator::EstimatorKind) refines
    /// join sizes. The default (histogram) is the paper's Eq. 5 path
    /// and changes nothing relative to [`estimate_dag`].
    pub kind: crate::estimator::EstimatorKind,
    /// Random walks per join for the sampling estimator.
    pub sample_walks: usize,
    /// Base RNG seed for the sampling estimator (mixed per job and per walk,
    /// so estimates are bit-reproducible and walk-schedule-independent).
    pub sample_seed: u64,
    /// Heavy-hitter keys tracked per join-path step by the catalog
    /// estimator.
    pub path_top_k: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            clustered_keys: false,
            kind: crate::estimator::EstimatorKind::Histogram,
            sample_walks: 512,
            sample_seed: 0x5eed,
            path_top_k: 64,
        }
    }
}

/// The estimator's prediction of one job's data dynamics.
#[derive(Debug, Clone)]
pub struct JobEstimate {
    /// Operator category of the job.
    pub category: JobCategory,
    /// Modeled input/intermediate/output bytes.
    pub d_in: f64,

    /// Modeled intermediate (map-output) bytes.
    pub d_med: f64,
    /// Modeled output bytes.
    pub d_out: f64,
    /// Physical tuple counts.
    pub tuples_in: f64,

    /// Estimated intermediate tuples (post-filter / post-combine).
    pub tuples_med: f64,
    /// Estimated output tuples.
    pub tuples_out: f64,
    /// Intermediate selectivity `D_med / D_in`.
    pub is: f64,
    /// Final selectivity `D_out / D_in`.
    pub fs: f64,
    /// Join skew ratio `P` of Eq. 7 (`None` for non-join jobs).
    pub p_ratio: Option<f64>,
    /// Estimated number of map splits.
    pub n_maps: usize,
}

/// Estimate every job of `dag` against `catalog` statistics, in job order.
///
/// This is the paper's pure-histogram path (§3, Eqs. 1–6). To route join
/// sizes through a different
/// [`EstimatorKind`](crate::estimator::EstimatorKind), use
/// [`estimate_dag_with`](crate::estimator::estimate_dag_with).
pub fn estimate_dag(
    dag: &QueryDag,
    catalog: &Catalog,
    config: &EstimatorConfig,
) -> Vec<JobEstimate> {
    estimate_dag_sized(dag, catalog, config, &mut |_| None)
}

/// [`estimate_dag`] with a join-size override hook: `join_sizer(job_id)`
/// may return a refined output tuple count for a join job, computed by a
/// non-histogram estimator. The refined count replaces Eq. 5's and the
/// propagated output profile is rescaled to it, so the refinement flows to
/// every downstream job exactly like a histogram estimate would.
pub(crate) fn estimate_dag_sized(
    dag: &QueryDag,
    catalog: &Catalog,
    config: &EstimatorConfig,
    join_sizer: &mut dyn FnMut(usize) -> Option<f64>,
) -> Vec<JobEstimate> {
    let mut profiles: Vec<RelProfile> = Vec::with_capacity(dag.len());
    let mut estimates: Vec<JobEstimate> = Vec::with_capacity(dag.len());
    for job in dag.jobs() {
        let refined = join_sizer(job.id);
        let (est, prof) = estimate_job(
            &job.kind,
            &job.broadcasts,
            catalog,
            &profiles,
            &estimates,
            config,
            refined,
        );
        profiles.push(prof);
        estimates.push(est);
    }
    estimates
}

/// A resolved job input as the estimator sees it.
struct Input {
    /// Raw bytes read by the map phase.
    raw_bytes: f64,
    /// Raw tuples read by the map phase.
    raw_tuples: f64,
    /// Predicate selectivity applied during the map scan (1 for job inputs).
    s_pred: f64,
    /// Projection selectivity of the map scan (1 for job inputs).
    s_proj: f64,
    /// Profile of the data after filter+projection.
    profile: RelProfile,
}

fn resolve(
    input: &InputSrc,
    catalog: &Catalog,
    profiles: &[RelProfile],
    estimates: &[JobEstimate],
) -> Input {
    match input {
        InputSrc::Job(j) => Input {
            raw_bytes: estimates[*j].d_out,
            raw_tuples: estimates[*j].tuples_out,
            s_pred: 1.0,
            s_proj: 1.0,
            profile: profiles[*j].clone(),
        },
        InputSrc::Table(t) => {
            let stats = catalog
                .get(&t.table)
                .unwrap_or_else(|| panic!("no catalog stats for table {}", t.table));
            let s_pred = pred_selectivity(stats, &t.predicate);
            let projection: Vec<String> = if t.projection.is_empty() {
                stats.schema().columns().iter().map(|c| c.name.clone()).collect()
            } else {
                t.projection.clone()
            };
            let proj_width: f64 =
                projection.iter().map(|c| stats.column(c).map_or(8.0, |s| s.width)).sum();
            // A degenerate schema (zero tuple width) would make this 0/0;
            // fall back to "projection keeps everything" — the projection
            // cannot drop bytes a zero-width tuple does not have.
            let tuple_width = stats.tuple_width();
            let s_proj =
                if tuple_width > 0.0 { (proj_width / tuple_width).clamp(0.0, 1.0) } else { 1.0 };
            let tuples = stats.rows() * s_pred;

            // Per-column propagation: conjuncts on a column reshape its
            // histogram; everything else scales it uniformly.
            let (per_col, _residual) = split_conjuncts(&t.predicate);
            let mut profile = RelProfile::new(tuples);
            for name in &projection {
                let col_pred: Predicate = per_col
                    .iter()
                    .filter(|(c, _)| c == name)
                    .fold(Predicate::True, |acc, (_, p)| acc.and(p.clone()));
                let width = stats.column(name).map_or(8.0, |s| s.width);
                let (distinct, histogram) = match stats.histogram(name) {
                    Some(h) => {
                        let own = h.selectivity_pred(&col_pred).max(1e-12);
                        let other = (s_pred / own).clamp(0.0, 1.0);
                        let filtered = h.filtered(&col_pred).scaled(other);
                        (filtered.distinct_total().min(tuples.max(1.0)), Some(filtered))
                    }
                    None => (
                        stats.column(name).map_or(tuples, |s| s.distinct).min(tuples.max(1.0)),
                        None,
                    ),
                };
                profile.push(name.clone(), ColProfile { width, distinct, histogram });
            }
            Input {
                raw_bytes: stats.modeled_bytes(),
                raw_tuples: stats.rows(),
                s_pred,
                s_proj,
                profile,
            }
        }
    }
}

fn splits_for(d_in: f64, block: f64) -> usize {
    ((d_in / block).ceil() as usize).max(1)
}

/// Estimate the join of two profiles on `left_key = right_key`, renaming
/// the right side's colliding columns with `suffix`. Returns the estimated
/// output tuples and the propagated output profile (Eq. 5 with histogram
/// propagation, closed-form fallback otherwise).
fn join_profiles(
    lprof: &RelProfile,
    rprof: &RelProfile,
    left_key: &str,
    right_key: &str,
    suffix: &str,
) -> (f64, RelProfile) {
    let mut right_cols: Vec<(String, ColProfile)> = Vec::new();
    let mut rkey = right_key.to_string();
    for (name, col) in rprof.columns() {
        if lprof.contains(name) {
            let renamed = format!("{name}{suffix}");
            if name == rkey {
                rkey = renamed.clone();
            }
            right_cols.push((renamed, col.clone()));
        } else {
            right_cols.push((name.to_string(), col.clone()));
        }
    }
    let lh = lprof.column(left_key).and_then(|c| c.histogram.clone());
    let rh = right_cols.iter().find(|(n, _)| *n == rkey).and_then(|(_, c)| c.histogram.clone());
    let (mut tuples_out, joint) = match (lh, rh) {
        (Some(a), Some(b)) => {
            let (t, j) = join_size_bucketed(&a, &b);
            (t, Some(j))
        }
        _ => {
            let d1 = lprof.column(left_key).map_or(1.0, |c| c.distinct);
            let d2 = right_cols.iter().find(|(n, _)| *n == rkey).map_or(1.0, |(_, c)| c.distinct);
            (lprof.tuples * rprof.tuples / d1.max(d2).max(1.0), None)
        }
    };
    tuples_out = tuples_out.min(lprof.tuples * rprof.tuples).max(0.0);
    let mut out = RelProfile::new(tuples_out);
    let fan_l = tuples_out / lprof.tuples.max(1.0);
    let fan_r = tuples_out / rprof.tuples.max(1.0);
    for (name, col) in lprof.columns() {
        out.push(name.to_string(), propagate_col(col, name == left_key, &joint, fan_l, tuples_out));
    }
    for (name, col) in &right_cols {
        out.push(name.clone(), propagate_col(col, *name == rkey, &joint, fan_r, tuples_out));
    }
    (tuples_out, out)
}

/// Fold map-side (broadcast) joins into a resolved primary input: the
/// profile becomes the joined profile, raw bytes/tuples grow by the
/// broadcast tables, and the effective `S_pred`/`S_proj` are recomputed so
/// that downstream IS/FS formulas stay consistent.
fn apply_broadcasts(
    mut input: Input,
    broadcasts: &[BroadcastJoin],
    catalog: &Catalog,
    profiles: &[RelProfile],
    estimates: &[JobEstimate],
) -> Input {
    if broadcasts.is_empty() {
        return input;
    }
    for b in broadcasts {
        let side = resolve(&InputSrc::Table(b.table.clone()), catalog, profiles, estimates);
        let (_, joined) =
            join_profiles(&input.profile, &side.profile, &b.stream_key, &b.table_key, "__b");
        input.raw_bytes += side.raw_bytes;
        input.raw_tuples += side.raw_tuples;
        input.profile = joined;
    }
    // Effective scan selectivities after the map-side joins.
    let tuple_ratio = (input.profile.tuples / input.raw_tuples.max(1.0)).max(0.0);
    let byte_ratio = (input.profile.bytes() / input.raw_bytes.max(1.0)).max(0.0);
    input.s_pred = tuple_ratio;
    input.s_proj = if tuple_ratio > 0.0 { (byte_ratio / tuple_ratio).min(1.0) } else { 1.0 };
    input
}

fn estimate_job(
    kind: &JobKind,
    broadcasts: &[BroadcastJoin],
    catalog: &Catalog,
    profiles: &[RelProfile],
    estimates: &[JobEstimate],
    config: &EstimatorConfig,
    join_override: Option<f64>,
) -> (JobEstimate, RelProfile) {
    match kind {
        JobKind::Join { left, right, left_key, right_key } => {
            let l = apply_broadcasts(
                resolve(left, catalog, profiles, estimates),
                broadcasts,
                catalog,
                profiles,
                estimates,
            );
            let r = resolve(right, catalog, profiles, estimates);
            let d_in = l.raw_bytes + r.raw_bytes;
            let r1 = if d_in > 0.0 { l.raw_bytes / d_in } else { 0.5 };
            // Eq. 3.
            let is = l.s_pred * l.s_proj * r1 + r.s_pred * r.s_proj * (1.0 - r1);
            let d_med = is * d_in;
            let tuples_med = l.profile.tuples + r.profile.tuples;

            // Rename collisions, estimate the join size (Eq. 5) and build
            // the propagated output profile.
            let (mut tuples_out, mut out) =
                join_profiles(&l.profile, &r.profile, left_key, right_key, "__r");
            // A non-histogram estimator may refine the join size; rescale
            // the propagated profile so downstream jobs see the refinement.
            if let Some(refined) = join_override {
                let cap = (l.profile.tuples * r.profile.tuples).max(0.0);
                let refined = refined.clamp(0.0, cap);
                if tuples_out > 0.0 && refined.is_finite() {
                    out = rescale_profile(&out, refined / tuples_out, refined);
                    tuples_out = refined;
                }
            }
            let p = p_ratio(l.profile.tuples, r.profile.tuples);
            let d_out = out.bytes();
            let est = JobEstimate {
                category: JobCategory::Join,
                d_in,
                d_med,
                d_out,
                tuples_in: l.raw_tuples + r.raw_tuples,
                tuples_med,
                tuples_out,
                is,
                fs: ratio(d_out, d_in),
                p_ratio: Some(p),
                n_maps: splits_for(d_in, config.block_size),
            };
            (est, out)
        }
        JobKind::Groupby { input, keys, n_aggs } => {
            let i = apply_broadcasts(
                resolve(input, catalog, profiles, estimates),
                broadcasts,
                catalog,
                profiles,
                estimates,
            );
            let d_in = i.raw_bytes;
            let n_maps = splits_for(d_in, config.block_size);
            let d_keys = i.profile.distinct_product(keys);
            // Eq. 2 (clustered / random variants).
            let sc = s_comb(i.s_pred, d_keys, i.raw_tuples, n_maps, config.clustered_keys);
            let combined = sc * i.raw_tuples;
            let key_width: f64 =
                keys.iter().map(|k| i.profile.column(k).map_or(8.0, |c| c.width)).sum();
            let out_width = key_width + 8.0 * *n_aggs as f64;
            let d_med = modeled_bytes(combined * out_width);
            // |Out| = min(T.d_keys, |T| × S_pred)  (§3.1.2, generalized).
            let tuples_out = d_keys.min(i.profile.tuples).max(0.0);
            let d_out = modeled_bytes(tuples_out * out_width);

            let mut out = RelProfile::new(tuples_out);
            for k in keys {
                if let Some(c) = i.profile.column(k) {
                    out.push(
                        k.clone(),
                        ColProfile {
                            width: c.width,
                            distinct: c.distinct.min(tuples_out.max(1.0)),
                            histogram: c.histogram.as_ref().map(|h| h.distinct_as_count()),
                        },
                    );
                } else {
                    out.push(
                        k.clone(),
                        ColProfile { width: 8.0, distinct: tuples_out, histogram: None },
                    );
                }
            }
            for a in 0..*n_aggs {
                out.push(
                    format!("__agg{a}"),
                    ColProfile { width: 8.0, distinct: tuples_out, histogram: None },
                );
            }
            let est = JobEstimate {
                category: JobCategory::Groupby,
                d_in,
                d_med,
                d_out,
                tuples_in: i.raw_tuples,
                tuples_med: combined,
                tuples_out,
                is: ratio(d_med, d_in),
                fs: ratio(d_out, d_in),
                p_ratio: None,
                n_maps,
            };
            (est, out)
        }
        JobKind::Sort { input, keys: _, limit } => {
            let i = apply_broadcasts(
                resolve(input, catalog, profiles, estimates),
                broadcasts,
                catalog,
                profiles,
                estimates,
            );
            let d_in = i.raw_bytes;
            let d_med = modeled_bytes(i.profile.tuples * i.profile.width());
            // §3.1.2 Extract: |Out| = min(|In|, k) for `limit k`, |In| for
            // order-by. Limits are nominal rows; convert to physical.
            let tuples_out = match limit {
                Some(k) => {
                    let phys = ((*k as f64) / SCALE_DOWN).ceil().max(1.0);
                    i.profile.tuples.min(phys)
                }
                None => i.profile.tuples,
            };
            let shrink = tuples_out / i.profile.tuples.max(1.0);
            let mut out = RelProfile::new(tuples_out);
            for (name, col) in i.profile.columns() {
                out.push(
                    name.to_string(),
                    ColProfile {
                        width: col.width,
                        distinct: col.distinct.min(tuples_out.max(1.0)),
                        histogram: col.histogram.as_ref().map(|h| h.scaled(shrink)),
                    },
                );
            }
            let d_out = out.bytes();
            let est = JobEstimate {
                category: JobCategory::Extract,
                d_in,
                d_med,
                d_out,
                tuples_in: i.raw_tuples,
                tuples_med: i.profile.tuples,
                tuples_out,
                is: ratio(d_med, d_in),
                fs: ratio(d_out, d_in),
                p_ratio: None,
                n_maps: splits_for(d_in, config.block_size),
            };
            (est, out)
        }
        JobKind::MapOnly { input } => {
            let i = apply_broadcasts(
                resolve(input, catalog, profiles, estimates),
                broadcasts,
                catalog,
                profiles,
                estimates,
            );
            let d_in = i.raw_bytes;
            // IS = S_pred × S_proj (§3.1.1 Extract); map-only jobs have no
            // reduce phase, so D_out = D_med.
            let d_med = modeled_bytes(i.profile.tuples * i.profile.width());
            let est = JobEstimate {
                category: JobCategory::Extract,
                d_in,
                d_med,
                d_out: d_med,
                tuples_in: i.raw_tuples,
                tuples_med: i.profile.tuples,
                tuples_out: i.profile.tuples,
                is: ratio(d_med, d_in),
                fs: ratio(d_med, d_in),
                p_ratio: None,
                n_maps: splits_for(d_in, config.block_size),
            };
            let profile = i.profile;
            (est, profile)
        }
    }
}

/// Rescale a join output profile to a refined tuple count: every column
/// histogram scales by `factor` and distinct counts re-cap at the new
/// cardinality. Keeps the *shape* of the histogram propagation while
/// adopting the refined total.
fn rescale_profile(prof: &RelProfile, factor: f64, tuples: f64) -> RelProfile {
    let mut out = RelProfile::new(tuples);
    for (name, col) in prof.columns() {
        out.push(
            name.to_string(),
            ColProfile {
                width: col.width,
                distinct: col.distinct.min(tuples.max(1.0)),
                histogram: col.histogram.as_ref().map(|h| h.scaled(factor)),
            },
        );
    }
    out
}

fn propagate_col(
    col: &ColProfile,
    is_key: bool,
    joint: &Option<sapred_relation::histogram::Histogram>,
    fanout: f64,
    out_tuples: f64,
) -> ColProfile {
    if is_key {
        if let Some(j) = joint {
            return ColProfile {
                width: col.width,
                distinct: j.distinct_total().min(out_tuples.max(1.0)),
                histogram: Some(j.clone()),
            };
        }
    }
    ColProfile {
        width: col.width,
        distinct: col.distinct.min(out_tuples.max(1.0)),
        histogram: col.histogram.as_ref().map(|h| h.scaled(fanout)),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_plan::compile::compile;
    use sapred_plan::ground_truth::execute_dag;
    use sapred_query::{analyze, parse};
    use sapred_relation::gen::{generate, Database, GenConfig, Layout};

    fn db() -> Database {
        generate(GenConfig::new(1.0).with_seed(21))
    }

    fn setup(sql: &str, db: &Database) -> (Vec<JobEstimate>, Vec<sapred_plan::JobActual>) {
        let a = analyze(&parse(sql).unwrap(), db.catalog(), db).unwrap();
        let dag = compile("q", &a);
        let cfg = EstimatorConfig {
            clustered_keys: db.config.layout == Layout::Clustered,
            ..Default::default()
        };
        let est = estimate_dag(&dag, db.catalog(), &cfg);
        let act = execute_dag(&dag, db, cfg.block_size);
        (est, act)
    }

    fn rel_err(est: f64, act: f64) -> f64 {
        if act == 0.0 {
            est.abs()
        } else {
            (est - act).abs() / act
        }
    }

    #[test]
    fn map_only_extract_is() {
        let db = db();
        let (est, act) = setup("SELECT l_partkey FROM lineitem WHERE l_quantity > 40", &db);
        // IS = S_pred × S_proj should track the exact ratio closely.
        assert!(
            rel_err(est[0].is, act[0].is_ratio()) < 0.1,
            "{} vs {}",
            est[0].is,
            act[0].is_ratio()
        );
        assert_eq!(est[0].d_out, est[0].d_med);
        assert_eq!(est[0].fs, est[0].is);
    }

    #[test]
    fn fk_join_cardinality() {
        let db = db();
        let (est, act) = setup(
            "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey",
            &db,
        );
        assert!(
            rel_err(est[0].tuples_out, act[0].tuples_out) < 0.15,
            "est {} act {}",
            est[0].tuples_out,
            act[0].tuples_out
        );
        let p = est[0].p_ratio.unwrap();
        assert!(p > 0.5 && p < 1.0);
    }

    #[test]
    fn filtered_join_cardinality() {
        let db = db();
        let (est, act) = setup(
            "SELECT l_quantity, p_size FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey \
             WHERE p_size < 10 AND l_shipdate < 1200",
            &db,
        );
        assert!(
            rel_err(est[0].tuples_out, act[0].tuples_out) < 0.3,
            "est {} act {}",
            est[0].tuples_out,
            act[0].tuples_out
        );
        assert!(rel_err(est[0].d_med, act[0].d_med) < 0.2, "{} vs {}", est[0].d_med, act[0].d_med);
    }

    #[test]
    fn groupby_cardinality_and_combine() {
        let db = db();
        let (est, act) =
            setup("SELECT l_partkey, sum(l_extendedprice) FROM lineitem GROUP BY l_partkey", &db);
        assert!(
            rel_err(est[0].tuples_out, act[0].tuples_out) < 0.15,
            "est {} act {}",
            est[0].tuples_out,
            act[0].tuples_out
        );
        // Combine estimate within 2x of truth (random layout, Eq. 2 case 2).
        assert!(
            rel_err(est[0].tuples_med, act[0].tuples_med) < 1.0,
            "est {} act {}",
            est[0].tuples_med,
            act[0].tuples_med
        );
    }

    #[test]
    fn clustered_combine_is_smaller() {
        let cl = generate(GenConfig::new(1.0).with_seed(21).with_layout(Layout::Clustered));
        let sql = "SELECT l_partkey, sum(l_extendedprice) FROM lineitem GROUP BY l_partkey";
        let (est_cl, act_cl) = setup(sql, &cl);
        let rnd = db();
        let (est_rnd, act_rnd) = setup(sql, &rnd);
        // Both layouts should be tracked by their matching Eq. 2 case.
        assert!(act_cl[0].tuples_med <= act_rnd[0].tuples_med);
        assert!(est_cl[0].tuples_med <= est_rnd[0].tuples_med);
    }

    #[test]
    fn q11_paper_walkthrough() {
        // §3.2: predicate on nation is 96% selective; the group-by output is
        // bounded by the partkey cardinality.
        let db = db();
        let (est, act) = setup(
            "SELECT ps_partkey, sum(ps_supplycost*ps_availqty) \
             FROM nation n JOIN supplier s ON \
             s.s_nationkey=n.n_nationkey AND n.n_name<>'CHINA' \
             JOIN partsupp ps ON ps.ps_suppkey=s.s_suppkey \
             GROUP BY ps_partkey;",
            &db,
        );
        assert_eq!(est.len(), 3);
        // Job 1 output ≈ 96% of supplier rows (each supplier matches one
        // nation; 24/25 survive).
        assert!(
            rel_err(est[0].tuples_out, act[0].tuples_out) < 0.25,
            "est {} act {}",
            est[0].tuples_out,
            act[0].tuples_out
        );
        // Job 2: partsupp ⋈ surviving suppliers ≈ 96% of partsupp.
        assert!(
            rel_err(est[1].tuples_out, act[1].tuples_out) < 0.25,
            "est {} act {}",
            est[1].tuples_out,
            act[1].tuples_out
        );
        // Job 3: group count ≤ partkey cardinality, tracked within 25%.
        assert!(
            rel_err(est[2].tuples_out, act[2].tuples_out) < 0.25,
            "est {} act {}",
            est[2].tuples_out,
            act[2].tuples_out
        );
    }

    #[test]
    fn chained_unshared_key_joins_propagate() {
        // lineitem ⋈ orders on orderkey, then ⋈ part on partkey: the second
        // join uses the *propagated* partkey histogram of the first join's
        // output (Bell et al. technique, §3.1.2).
        let db = db();
        let (est, act) = setup(
            "SELECT o_totalprice, p_size FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN part p ON l.l_partkey = p.p_partkey \
             WHERE o_orderdate < 1500",
            &db,
        );
        assert!(
            rel_err(est[1].tuples_out, act[1].tuples_out) < 0.35,
            "est {} act {}",
            est[1].tuples_out,
            act[1].tuples_out
        );
    }

    #[test]
    fn sort_limit_final_selectivity() {
        let db = db();
        let (est, act) =
            setup("SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 5000", &db);
        assert_eq!(est[0].tuples_out, act[0].tuples_out);
        assert!(est[0].fs < est[0].is);
    }

    #[test]
    fn estimates_are_finite_and_nonnegative() {
        let db = db();
        let queries = [
            "SELECT count(*) FROM lineitem",
            "SELECT l_partkey FROM lineitem WHERE l_quantity > 100", // empty
            "SELECT n_name FROM nation ORDER BY n_name",
        ];
        for q in queries {
            let (est, _) = setup(q, &db);
            for e in est {
                assert_all_fields_finite(&e, q);
            }
        }
    }

    /// Every numeric field of a [`JobEstimate`] must be finite and
    /// non-negative; NaN here poisons predictions and, downstream, WRD.
    fn assert_all_fields_finite(e: &JobEstimate, ctx: &str) {
        for (name, v) in [
            ("d_in", e.d_in),
            ("d_med", e.d_med),
            ("d_out", e.d_out),
            ("tuples_in", e.tuples_in),
            ("tuples_med", e.tuples_med),
            ("tuples_out", e.tuples_out),
            ("is", e.is),
            ("fs", e.fs),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{ctx}: {name} = {v}");
        }
        if let Some(p) = e.p_ratio {
            assert!(p.is_finite() && p >= 0.0, "{ctx}: p_ratio = {p}");
        }
        assert!(e.n_maps >= 1, "{ctx}: n_maps = {}", e.n_maps);
    }

    #[test]
    fn degenerate_tables_yield_finite_estimates() {
        use sapred_plan::dag::{InputSrc, JobKind, MrJob, QueryDag, TableInput};
        use sapred_relation::expr::{CmpOp, Predicate};
        use sapred_relation::schema::{ColumnDef, DataType, Schema};
        use sapred_relation::stats::{Catalog, TableStats};
        use sapred_relation::table::{Column, Table};

        // `empty` has zero rows, `konst` a single repeated value (its
        // histogram is one point), `thin` a zero-width column (so its
        // tuple width — the S_proj denominator — is zero).
        let empty = Table::new(
            "empty",
            Schema::new(vec![ColumnDef::new("k", DataType::Int)]),
            vec![Column::Int(vec![])],
        );
        let konst = Table::new(
            "konst",
            Schema::new(vec![ColumnDef::new("k", DataType::Int)]),
            vec![Column::Int(vec![7; 100])],
        );
        let thin = Table::new(
            "thin",
            Schema::new(vec![ColumnDef::new("k", DataType::Str { avg_width: 0 })]),
            vec![Column::Int(vec![1, 2, 3])],
        );
        let mut catalog = Catalog::new();
        catalog.insert(TableStats::gather(&empty, 8));
        catalog.insert(TableStats::gather(&konst, 8));
        catalog.insert(TableStats::gather(&thin, 8));

        let scan = |table: &str| {
            InputSrc::Table(TableInput {
                table: table.into(),
                predicate: Predicate::cmp("k", CmpOp::Le, 7.0),
                projection: vec!["k".into()],
            })
        };
        let dag = QueryDag::new(
            "degenerate",
            vec![
                MrJob::new(
                    0,
                    JobKind::Join {
                        left: scan("empty"),
                        right: scan("konst"),
                        left_key: "k".into(),
                        right_key: "k".into(),
                    },
                ),
                MrJob::new(
                    1,
                    JobKind::Groupby { input: InputSrc::Job(0), keys: vec!["k".into()], n_aggs: 1 },
                ),
                MrJob::new(2, JobKind::MapOnly { input: scan("thin") }),
                MrJob::new(
                    3,
                    JobKind::Sort { input: scan("konst"), keys: vec!["k".into()], limit: Some(10) },
                ),
            ],
        );
        let est = estimate_dag(&dag, &catalog, &EstimatorConfig::default());
        assert_eq!(est.len(), 4);
        for e in &est {
            assert_all_fields_finite(e, "degenerate");
        }
        // The empty side forces an empty join.
        assert_eq!(est[0].tuples_out, 0.0);
        // Zero tuple width: S_proj falls back to 1, so IS stays finite.
        assert!(est[2].is.is_finite());
    }
}
