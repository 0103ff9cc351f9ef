//! The training/validation query population of paper §5.1: queries drawn
//! from all templates over a spread of scales (1–100 GB), plus larger
//! scale-out queries (150–400 GB) reserved for the test set.

use crate::pool::DbPool;
use crate::templates::Template;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapred_plan::dag::QueryDag;

/// One population query: a compiled DAG plus the scale it runs against.
#[derive(Debug, Clone)]
pub struct PopQuery {
    /// Stable query id (drives the train/test split).
    pub id: usize,
    /// The template this query came from.
    pub template: Template,
    /// Generator scale of the database instance it runs against.
    pub scale_gb: f64,
    /// The compiled job DAG.
    pub dag: QueryDag,
    /// True for the 150–400 GB scale-out queries added only to the test set.
    pub scale_out: bool,
}

/// Population parameters. The paper uses ~1,000 queries (→ 5,647 jobs) at
/// 1–100 GB with a 3:1 train/test split; the defaults here are a scaled
/// configuration suitable for unit tests — `sapred reproduce` passes 1,000.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of main-population queries.
    pub n_queries: usize,
    /// Scales sampled for the main population.
    pub scales_gb: Vec<f64>,
    /// Extra scale-out queries (one per scale in this list) appended for
    /// the test set (paper: 150–400 GB).
    pub scale_out_gb: Vec<f64>,
    /// RNG seed for template choice and constants.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            n_queries: 120,
            scales_gb: vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
            scale_out_gb: vec![150.0, 200.0, 400.0],
            seed: 71,
        }
    }
}

/// Generate the population. Queries cycle through all templates so every
/// operator type is represented, with random scales and constants.
pub fn generate_population(config: &PopulationConfig, pool: &mut DbPool) -> Vec<PopQuery> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let templates = Template::all();
    let mut out = Vec::with_capacity(config.n_queries + config.scale_out_gb.len());
    let mut id = 0;
    while out.len() < config.n_queries {
        let template = templates[id % templates.len()];
        let scale = config.scales_gb[rng.gen_range(0..config.scales_gb.len())];
        let db = pool.get(scale);
        match template.instantiate(db, &mut rng) {
            Ok(dag) => {
                out.push(PopQuery { id, template, scale_gb: scale, dag, scale_out: false });
                id += 1;
            }
            Err(e) => panic!("template {} failed to instantiate: {e}", template.name()),
        }
    }
    // Scale-out test queries: a few templates at very large scales.
    for (i, &scale) in config.scale_out_gb.iter().enumerate() {
        let template = templates[(i * 7 + 3) % templates.len()];
        let db = pool.get(scale);
        let dag = template.instantiate(db, &mut rng).expect("scale-out instantiation");
        out.push(PopQuery { id, template, scale_gb: scale, dag, scale_out: true });
        id += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_covers_templates_and_scales() {
        let config = PopulationConfig {
            n_queries: 40,
            scales_gb: vec![0.2, 0.5],
            scale_out_gb: vec![1.0],
            seed: 5,
        };
        let mut pool = DbPool::new(5);
        let pop = generate_population(&config, &mut pool);
        assert_eq!(pop.len(), 41);
        let templates: std::collections::HashSet<_> =
            pop.iter().map(|p| p.template.name()).collect();
        assert_eq!(templates.len(), 20, "all templates hit with 40 queries");
        assert!(pop.iter().any(|p| p.scale_gb == 0.2));
        assert!(pop.iter().any(|p| p.scale_gb == 0.5));
        assert_eq!(pop.iter().filter(|p| p.scale_out).count(), 1);
    }

    #[test]
    fn job_counts_match_paper_ratio() {
        // Paper: ~1,000 queries → 5,647 jobs ≈ 5.6 jobs/query. Our template
        // mix is lighter (more single-job shapes) but must average several
        // jobs per query.
        let config =
            PopulationConfig { n_queries: 40, scales_gb: vec![0.2], scale_out_gb: vec![], seed: 6 };
        let mut pool = DbPool::new(6);
        let pop = generate_population(&config, &mut pool);
        let jobs: usize = pop.iter().map(|p| p.dag.len()).sum();
        let ratio = jobs as f64 / pop.len() as f64;
        assert!(ratio > 1.5, "jobs per query = {ratio}");
    }

    #[test]
    fn deterministic() {
        let config =
            PopulationConfig { n_queries: 10, scales_gb: vec![0.2], scale_out_gb: vec![], seed: 8 };
        let a = generate_population(&config, &mut DbPool::new(8));
        let b = generate_population(&config, &mut DbPool::new(8));
        let names = |p: &[PopQuery]| p.iter().map(|q| q.dag.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
    }
}
