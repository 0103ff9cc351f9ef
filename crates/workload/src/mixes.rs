//! The Bing and Facebook production workload mixes of paper Table 2,
//! regenerated from TPC-H/TPC-DS-style templates, with Poisson arrivals.

use crate::pool::DbPool;
use crate::templates::Template;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapred_plan::dag::QueryDag;
use sapred_relation::dist::exponential_gap;

/// One bin of a workload mix: an input-size band and how many queries fall
/// in it (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixBin {
    /// Inclusive scale band in nominal GB.
    pub min_gb: f64,

    /// Inclusive upper edge of the band.
    pub max_gb: f64,
    /// Queries drawn from this bin.
    pub count: usize,
}

/// A named workload composition.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Mix name ("bing" / "facebook").
    pub name: &'static str,
    /// The five input-size bins of Table 2.
    pub bins: Vec<MixBin>,
}

impl MixSpec {
    /// Total queries across all bins.
    pub fn total_queries(&self) -> usize {
        self.bins.iter().map(|b| b.count).sum()
    }
}

/// Table 2, Bing column: 44 / 8 / 24 / 22 / 2 queries in the five bins.
pub fn bing_mix() -> MixSpec {
    MixSpec {
        name: "bing",
        bins: vec![
            MixBin { min_gb: 1.0, max_gb: 10.0, count: 44 },
            MixBin { min_gb: 20.0, max_gb: 20.0, count: 8 },
            MixBin { min_gb: 50.0, max_gb: 50.0, count: 24 },
            MixBin { min_gb: 100.0, max_gb: 100.0, count: 22 },
            MixBin { min_gb: 150.0, max_gb: 150.0, count: 2 },
        ],
    }
}

/// Table 2, Facebook column: 85 / 4 / 8 / 2 / 1.
pub fn facebook_mix() -> MixSpec {
    MixSpec {
        name: "facebook",
        bins: vec![
            MixBin { min_gb: 1.0, max_gb: 10.0, count: 85 },
            MixBin { min_gb: 20.0, max_gb: 20.0, count: 4 },
            MixBin { min_gb: 50.0, max_gb: 50.0, count: 8 },
            MixBin { min_gb: 100.0, max_gb: 100.0, count: 2 },
            MixBin { min_gb: 150.0, max_gb: 150.0, count: 1 },
        ],
    }
}

/// One workload query with its Poisson arrival time.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Stable query id within the workload.
    pub id: usize,
    /// The template this query was instantiated from.
    pub template: Template,
    /// Generator scale the query's database instance was built at.
    pub scale_gb: f64,
    /// The query's actual input size in nominal GB — the quantity Table 2
    /// bins by.
    pub input_gb: f64,
    /// The compiled job DAG.
    pub dag: QueryDag,
    /// Poisson arrival time in seconds.
    pub arrival: f64,
}

/// Bytes a DAG's map phases read from base tables (counting repeated scans,
/// as HDFS would serve them).
pub fn dag_input_bytes(dag: &QueryDag, catalog: &sapred_relation::stats::Catalog) -> f64 {
    dag.jobs()
        .iter()
        .flat_map(|j| j.kind.inputs())
        .filter_map(|i| match i {
            sapred_plan::dag::InputSrc::Table(t) => {
                catalog.get(&t.table).map(|s| s.modeled_bytes())
            }
            sapred_plan::dag::InputSrc::Job(_) => None,
        })
        .sum()
}

/// Per-template input factor: nominal input GB read per generator scale-GB,
/// measured on a reference instance. Templates reading only dimension
/// tables have small factors and are excluded from the large bins (their
/// input can never reach 20+ GB at sane scales).
pub fn input_factors(pool: &mut DbPool, seed: u64) -> Vec<(Template, f64)> {
    const REF_SCALE: f64 = 1.0;
    let db = pool.get(REF_SCALE);
    let mut rng = StdRng::seed_from_u64(seed);
    Template::all()
        .iter()
        .map(|t| {
            let dag = t.instantiate(db, &mut rng).expect("reference instantiation");
            let gb = dag_input_bytes(&dag, db.catalog()) / 1e9;
            (*t, gb / REF_SCALE)
        })
        .collect()
}

/// Quantize a generator scale onto a coarse grid so the database pool stays
/// small while input sizes stay close to their bin targets.
fn quantize_scale(scale: f64) -> f64 {
    const GRID: [f64; 17] = [
        0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0,
        200.0, 300.0,
    ];
    *GRID
        .iter()
        .min_by(|a, b| {
            let da = (a.ln() - scale.ln()).abs();
            let db = (b.ln() - scale.ln()).abs();
            da.partial_cmp(&db).expect("no NaN")
        })
        .expect("grid non-empty")
}

/// Instantiate a mix. Each bin's queries get a random template whose input
/// factor can reach the bin's *input size*; the generator scale is solved as
/// `input_gb / factor` (quantized onto a coarse grid) so the query actually
/// reads the bytes its bin promises — Table 2 bins by input size, not by
/// database scale. The merged list is shuffled and assigned Poisson
/// arrivals with mean inter-arrival `mean_gap_s` seconds (paper §5.1:
/// "queries are submitted into the system following a random Poisson
/// distribution").
///
/// `scale_divisor` shrinks every bin's GB band (keeping the composition
/// shape) so unit tests can run the mix at laptop scale; `sapred reproduce`
/// passes 1.0.
pub fn generate_mix_workload(
    mix: &MixSpec,
    pool: &mut DbPool,
    mean_gap_s: f64,
    scale_divisor: f64,
    seed: u64,
) -> Vec<WorkloadQuery> {
    assert!(scale_divisor > 0.0 && mean_gap_s > 0.0);
    let factors = input_factors(pool, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks: Vec<(Template, f64, f64)> = Vec::with_capacity(mix.total_queries());
    for bin in &mix.bins {
        for _ in 0..bin.count {
            // Bin-1 input sizes are spread over the band; point bins fixed.
            let input_gb = if bin.max_gb > bin.min_gb {
                let choices = [1.0f64, 2.0, 5.0, 10.0];
                choices[rng.gen_range(0..choices.len())].clamp(bin.min_gb, bin.max_gb)
            } else {
                bin.min_gb
            } / scale_divisor;
            // A template is eligible if its generator scale stays within 3x
            // of the input target (dimension-only templates can never fill
            // a large bin).
            let (template, factor) = loop {
                let (t, f) = factors[rng.gen_range(0..factors.len())];
                if f > 0.0 && input_gb / f <= 3.0 * input_gb.max(1.0) {
                    break (t, f);
                }
            };
            let scale = quantize_scale((input_gb / factor).clamp(0.05, 300.0));
            picks.push((template, scale, input_gb));
        }
    }
    // Shuffle so arrival order is independent of bin order.
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.gen_range(0..=i));
    }
    let mut out = Vec::with_capacity(picks.len());
    let mut t = 0.0;
    for (id, (template, scale, input_gb)) in picks.into_iter().enumerate() {
        t += exponential_gap(&mut rng, 1.0 / mean_gap_s);
        let db = pool.get(scale);
        let dag = template
            .instantiate(db, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", template.name()));
        out.push(WorkloadQuery { id, template, scale_gb: scale, input_gb, dag, arrival: t });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_compositions_exact() {
        let bing = bing_mix();
        assert_eq!(bing.total_queries(), 100);
        assert_eq!(bing.bins.iter().map(|b| b.count).collect::<Vec<_>>(), vec![44, 8, 24, 22, 2]);
        let fb = facebook_mix();
        assert_eq!(fb.total_queries(), 100);
        assert_eq!(fb.bins.iter().map(|b| b.count).collect::<Vec<_>>(), vec![85, 4, 8, 2, 1]);
    }

    #[test]
    fn workload_generation_matches_composition() {
        let mix = MixSpec {
            name: "tiny",
            bins: vec![
                MixBin { min_gb: 1.0, max_gb: 10.0, count: 6 },
                MixBin { min_gb: 20.0, max_gb: 20.0, count: 2 },
            ],
        };
        let mut pool = DbPool::new(4);
        let w = generate_mix_workload(&mix, &mut pool, 10.0, 100.0, 4);
        assert_eq!(w.len(), 8);
        // Two queries with 20/100 = 0.2 GB of input.
        assert_eq!(w.iter().filter(|q| (q.input_gb - 0.2).abs() < 1e-9).count(), 2);
        // Arrivals strictly increase.
        for pair in w.windows(2) {
            assert!(pair[1].arrival > pair[0].arrival);
        }
    }

    #[test]
    fn facebook_skews_smaller_than_bing() {
        let mut pool = DbPool::new(9);
        let fb = generate_mix_workload(&facebook_mix(), &mut pool, 5.0, 200.0, 9);
        let bing = generate_mix_workload(&bing_mix(), &mut pool, 5.0, 200.0, 9);
        let mean = |w: &[WorkloadQuery]| w.iter().map(|q| q.input_gb).sum::<f64>() / w.len() as f64;
        assert!(mean(&fb) < 0.5 * mean(&bing), "fb {} bing {}", mean(&fb), mean(&bing));
    }

    #[test]
    fn input_factors_distinguish_fact_and_dimension_templates() {
        let mut pool = DbPool::new(21);
        let factors = input_factors(&mut pool, 21);
        assert_eq!(factors.len(), Template::all().len());
        let get = |name: &str| -> f64 {
            factors.iter().find(|(t, _)| t.name() == name).map(|(_, f)| *f).unwrap()
        };
        // Lineitem scanners read most of a scale-GB per GB...
        assert!(get("sort_lineitem") > 0.3, "{}", get("sort_lineitem"));
        // ...Q17 reads lineitem twice...
        assert!(get("q17_small_quantity") > 1.5 * get("sort_lineitem") * 0.8);
        // ...while dimension-only templates read almost nothing.
        assert!(get("ds_part_sizes") < 0.1, "{}", get("ds_part_sizes"));
        assert!(get("ds_supplier_balance") < 0.1);
    }

    #[test]
    fn large_bins_reach_their_input_targets() {
        let mix =
            MixSpec { name: "large", bins: vec![MixBin { min_gb: 20.0, max_gb: 20.0, count: 6 }] };
        let mut pool = DbPool::new(31);
        // Divisor 10: 2 GB input targets.
        let w = generate_mix_workload(&mix, &mut pool, 10.0, 10.0, 31);
        for q in &w {
            let actual_gb = dag_input_bytes(&q.dag, pool.peek(q.scale_gb).unwrap().catalog()) / 1e9;
            // Quantized scales put the actual input within ~2x of the target.
            assert!(
                (0.4..5.0).contains(&(actual_gb / q.input_gb)),
                "{}: target {} actual {actual_gb}",
                q.template.name(),
                q.input_gb
            );
        }
    }

    #[test]
    fn poisson_gaps_average_to_mean() {
        let mix =
            MixSpec { name: "gaps", bins: vec![MixBin { min_gb: 1.0, max_gb: 1.0, count: 60 }] };
        let mut pool = DbPool::new(11);
        let w = generate_mix_workload(&mix, &mut pool, 7.0, 10.0, 11);
        let mean_gap = w.last().unwrap().arrival / w.len() as f64;
        assert!((mean_gap - 7.0).abs() < 2.5, "mean gap {mean_gap}");
    }
}
