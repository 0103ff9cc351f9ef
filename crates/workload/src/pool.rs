//! A pool of generated database instances, one per nominal scale, shared by
//! all queries of that scale (regenerating 100 GB of synthetic TPC-H per
//! query would dominate every experiment's runtime).

use sapred_relation::gen::{generate, Database, GenConfig, KeyDist, Layout};
use std::collections::BTreeMap;

/// Lazily generated database instances, one per exact nominal scale (keyed
/// by the scale's `f64` bits).
#[derive(Debug, Default)]
pub struct DbPool {
    seed: u64,
    key_dist: Option<KeyDist>,
    layout: Option<Layout>,
    dbs: BTreeMap<u64, Database>,
}

impl DbPool {
    /// An empty pool; instances derive their seeds from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, key_dist: None, layout: None, dbs: BTreeMap::new() }
    }

    /// Override the key distribution for all generated instances.
    pub fn with_key_dist(mut self, d: KeyDist) -> Self {
        self.key_dist = Some(d);
        self
    }

    /// Override the row layout for all generated instances.
    pub fn with_layout(mut self, l: Layout) -> Self {
        self.layout = Some(l);
        self
    }

    /// The generator seed of the instance at `scale_gb`: the pool's seed
    /// xor the scale in tenths of a GB, rounded. Nearby scales can share
    /// a seed, never an instance.
    fn instance_seed(&self, scale_gb: f64) -> u64 {
        self.seed ^ (scale_gb * 10.0).round() as u64
    }

    /// Get (generating on first use) the instance for `scale_gb`.
    ///
    /// # Panics
    /// Panics if [`sapred_relation::gen::checked_row_counts`] refuses
    /// `scale_gb`.
    pub fn get(&mut self, scale_gb: f64) -> &Database {
        let (seed, kd, layout) = (self.instance_seed(scale_gb), self.key_dist, self.layout);
        self.dbs.entry(scale_gb.to_bits()).or_insert_with(|| {
            let mut config = GenConfig::new(scale_gb).with_seed(seed);
            if let Some(d) = kd {
                config = config.with_key_dist(d);
            }
            if let Some(l) = layout {
                config = config.with_layout(l);
            }
            generate(config)
        })
    }

    /// Read an already-generated instance without taking `&mut self`
    /// (useful after pre-warming, e.g. for parallel training workers).
    pub fn peek(&self, scale_gb: f64) -> Option<&Database> {
        self.dbs.get(&scale_gb.to_bits())
    }

    /// Number of instances generated so far.
    pub fn len(&self) -> usize {
        self.dbs.len()
    }

    /// Whether no instance has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.dbs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_cached() {
        let mut pool = DbPool::new(3);
        let rows_a = pool.get(0.5).table("lineitem").unwrap().rows();
        let rows_b = pool.get(0.5).table("lineitem").unwrap().rows();
        assert_eq!(rows_a, rows_b);
        assert_eq!(pool.len(), 1);
        pool.get(1.0);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn fractional_scales_distinct() {
        let mut pool = DbPool::new(3);
        pool.get(0.1);
        pool.get(0.2);
        assert_eq!(pool.len(), 2);
    }

    /// 1.25 and 1.3 GB round to the same tenth, so they share a seed, but
    /// each gets its own instance, of its own size. (0.25 and 0.3 GB do
    /// too, but every table of both sits at its row floor.)
    #[test]
    fn nearby_fractional_scales_get_their_own_instances() {
        let mut pool = DbPool::new(3);
        let lineitem = |pool: &mut DbPool, gb| pool.get(gb).table("lineitem").unwrap().rows();
        assert_eq!((lineitem(&mut pool, 1.25), lineitem(&mut pool, 1.3)), (7500, 7800));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.peek(1.25).unwrap().config.seed, pool.peek(1.3).unwrap().config.seed);
        assert_eq!(pool.peek(1.3).unwrap().config.seed, 3 ^ 13);
    }

    #[test]
    fn scales_affect_size() {
        let mut pool = DbPool::new(9);
        let small = pool.get(1.0).table("lineitem").unwrap().rows();
        let large = pool.get(5.0).table("lineitem").unwrap().rows();
        assert!(large > 4 * small);
    }
}
