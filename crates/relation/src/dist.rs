//! Sampling utilities implemented directly on top of `rand`.
//!
//! The approved offline crate set does not include `rand_distr`, so the three
//! distributions the reproduction needs — Zipf (skewed join/groupby keys),
//! log-normal (multiplicative task-time noise) and exponential gaps (Poisson
//! query arrivals, paper §5.1) — are implemented here from first principles.

use rand::Rng;

/// A Zipf(α) sampler over the integer domain `1..=n`.
///
/// Uses a precomputed cumulative weight table with binary-search inversion,
/// which is exact and O(log n) per sample. Suitable for the key-skew regimes
/// used in join-cardinality experiments (α in `[0, ~2]`).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `1..=n` with exponent `alpha >= 0`.
    /// `alpha == 0` degenerates to the discrete uniform distribution.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is negative/non-finite.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be finite and >= 0");
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-alpha);
            cumulative.push(total);
        }
        // Normalize so the last entry is exactly 1.0.
        let norm = 1.0 / total;
        for c in &mut cumulative {
            *c *= norm;
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Self { cumulative }
    }

    /// Domain size `n`.
    pub fn n(&self) -> u64 {
        self.cumulative.len() as u64
    }

    /// Draw one value in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in table")) {
            Ok(i) | Err(i) => (i as u64 + 1).min(self.n()),
        }
    }
}

/// Sample a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would give ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample a log-normal multiplicative factor with median 1 and the given
/// `sigma` of the underlying normal. Used as run-to-run task-time noise.
pub fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    (standard_normal(rng) * sigma).exp()
}

/// Sample an exponential inter-arrival gap with the given rate (events per
/// unit time), i.e. the gap process of a Poisson arrival stream.
pub fn exponential_gap<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "arrival rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_uniform_when_alpha_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[(z.sample(&mut rng) - 1) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should hold ~10% of the mass.
            assert!((c as f64 - 10_000.0).abs() < 800.0, "counts = {counts:?}");
        }
    }

    #[test]
    fn zipf_skews_toward_small_keys() {
        let mut rng = StdRng::seed_from_u64(7);
        let z = Zipf::new(100, 1.2);
        let mut head = 0u32;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut rng) <= 5 {
                head += 1;
            }
        }
        // With alpha = 1.2 the top-5 keys carry well over a third of the mass.
        assert!(head as f64 / n as f64 > 0.35, "head fraction {}", head as f64 / n as f64);
    }

    #[test]
    fn zipf_stays_in_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let z = Zipf::new(17, 0.9);
        for _ in 0..10_000 {
            let v = z.sample(&mut rng);
            assert!((1..=17).contains(&v));
        }
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut samples: Vec<f64> = (0..20_001).map(|_| lognormal_factor(&mut rng, 0.25)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn exponential_gap_mean_is_inverse_rate() {
        let mut rng = StdRng::seed_from_u64(17);
        let rate = 2.5;
        let n = 50_000;
        let total: f64 = (0..n).map(|_| exponential_gap(&mut rng, rate)).sum();
        let mean = total / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.02, "mean {mean}");
    }
}
