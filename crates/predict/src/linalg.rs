//! Self-contained least-squares: standardized normal equations solved by
//! Gaussian elimination with partial pivoting, plus a small ridge term.

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer samples than features.
    TooFewSamples,
    /// Inconsistent feature vector lengths.
    RaggedDesignMatrix,
    /// The (ridged) normal matrix was singular.
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples => write!(f, "fewer samples than features"),
            FitError::RaggedDesignMatrix => write!(f, "feature vectors of differing lengths"),
            FitError::Singular => write!(f, "singular normal matrix"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted linear model `y = θ₀ + Σ θᵢ xᵢ`, stored together with the
/// feature standardization used during fitting so `predict` accepts raw
/// features.
///
/// ```
/// use sapred_predict::linalg::LinearModel;
///
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0]).collect();
/// let m = LinearModel::fit(&xs, &ys).unwrap();
/// assert!((m.predict(&[10.0]) - 23.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Coefficients in standardized space; `coef[0]` is the intercept.
    coef: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl LinearModel {
    /// Fit by ridge-stabilized OLS (`lambda` defaults to `1e-9` in
    /// [`LinearModel::fit`]; pass an explicit value for ablations).
    pub fn fit_ridge(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Self, FitError> {
        Self::fit_weighted(xs, ys, None, lambda)
    }

    /// Weighted ridge least squares. With task/job times spanning three
    /// orders of magnitude and multiplicative noise, weighting each sample
    /// by `1/y²` makes the fit minimize *relative* error — the metric the
    /// paper reports — while the model stays linear in the features.
    pub fn fit_weighted(
        xs: &[Vec<f64>],
        ys: &[f64],
        weights: Option<&[f64]>,
        lambda: f64,
    ) -> Result<Self, FitError> {
        let n = xs.len();
        if n == 0 || n != ys.len() {
            return Err(FitError::TooFewSamples);
        }
        let k = xs[0].len();
        if xs.iter().any(|x| x.len() != k) {
            return Err(FitError::RaggedDesignMatrix);
        }
        if n <= k {
            return Err(FitError::TooFewSamples);
        }

        // Standardize features: keeps the normal matrix well conditioned
        // even when features span bytes (1e9..1e12) and ratios (0..1).
        let mut means = vec![0.0; k];
        let mut stds = vec![0.0; k];
        for j in 0..k {
            let mean = xs.iter().map(|x| x[j]).sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x[j] - mean).powi(2)).sum::<f64>() / n as f64;
            means[j] = mean;
            stds[j] = var.sqrt().max(1e-12);
        }
        let z = |x: &[f64], j: usize| (x[j] - means[j]) / stds[j];

        if let Some(w) = weights {
            if w.len() != n {
                return Err(FitError::RaggedDesignMatrix);
            }
        }
        // (Weighted) normal equations over [1, z₁ … z_k].
        let m = k + 1;
        let mut a = vec![vec![0.0f64; m]; m];
        let mut b = vec![0.0f64; m];
        for (i_s, (x, &y)) in xs.iter().zip(ys).enumerate() {
            let w = weights.map_or(1.0, |w| w[i_s]).max(0.0);
            let mut row = Vec::with_capacity(m);
            row.push(1.0);
            for j in 0..k {
                row.push(z(x, j));
            }
            for i in 0..m {
                b[i] += w * row[i] * y;
                for j in 0..m {
                    a[i][j] += w * row[i] * row[j];
                }
            }
        }
        for (i, row) in a.iter_mut().enumerate().skip(1) {
            row[i] += lambda * n as f64;
        }

        let coef = solve(a, b).ok_or(FitError::Singular)?;
        Ok(Self { coef, means, stds })
    }

    /// Fit with the default ridge stabilizer.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, FitError> {
        Self::fit_ridge(xs, ys, 1e-9)
    }

    /// Predict from a raw (unstandardized) feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.means.len(), "feature arity mismatch");
        let mut y = self.coef[0];
        for (j, &xj) in x.iter().enumerate() {
            y += self.coef[j + 1] * (xj - self.means[j]) / self.stds[j];
        }
        y
    }

    /// Number of (raw) features this model expects.
    pub fn arity(&self) -> usize {
        self.means.len()
    }

    /// Effective raw-space coefficients `[θ₀, θ₁, …]` (denormalized), mainly
    /// for inspection and debugging.
    #[cfg(test)]
    pub fn raw_coefficients(&self) -> Vec<f64> {
        let k = self.means.len();
        let mut out = vec![0.0; k + 1];
        out[0] = self.coef[0];
        for j in 0..k {
            let slope = self.coef[j + 1] / self.stds[j];
            out[j + 1] = slope;
            out[0] -= slope * self.means[j];
        }
        out
    }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // index form mirrors the math
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("no NaN"))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                a[row][j] -= f * a[col][j];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in i + 1..n {
            acc -= a[i][j] * x[j];
        }
        x[i] = acc / a[i][i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 3 + 2 x₁ - 0.5 x₂
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i * i % 17) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0] - 0.5 * x[1]).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 1e-3, "{} vs {y}", m.predict(x));
        }
        let raw = m.raw_coefficients();
        assert!((raw[0] - 3.0).abs() < 1e-3);
        assert!((raw[1] - 2.0).abs() < 1e-4);
        assert!((raw[2] + 0.5).abs() < 1e-4);
    }

    #[test]
    fn robust_to_huge_feature_scales() {
        // Features in the 1e9..1e12 range (byte sizes).
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<Vec<f64>> =
            (0..200).map(|_| vec![rng.gen_range(1e9..1e12), rng.gen_range(0.0..1.0)]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 + 3e-9 * x[0] + 40.0 * x[1]).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() / y < 1e-4);
        }
    }

    #[test]
    fn collinear_features_survive_ridge() {
        // x₂ = 2 x₁ exactly: plain OLS would be singular.
        let xs: Vec<Vec<f64>> = (1..40).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 + x[0]).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let mid = &xs[20];
        assert!((m.predict(mid) - ys[20]).abs() < 0.5);
    }

    #[test]
    fn too_few_samples_rejected() {
        let xs = vec![vec![1.0, 2.0]];
        let ys = vec![3.0];
        assert_eq!(LinearModel::fit(&xs, &ys), Err(FitError::TooFewSamples));
    }

    #[test]
    fn ragged_rejected() {
        let xs = vec![vec![1.0], vec![1.0, 2.0], vec![3.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert_eq!(LinearModel::fit(&xs, &ys), Err(FitError::RaggedDesignMatrix));
    }

    #[test]
    fn noise_fit_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<Vec<f64>> = (0..2000).map(|_| vec![rng.gen_range(0.0..100.0)]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 0.7 * x[0] + rng.gen_range(-1.0..1.0)).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let raw = m.raw_coefficients();
        assert!((raw[1] - 0.7).abs() < 0.02, "slope {}", raw[1]);
    }

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5; x - y = 1 → x = 2, y = 1.
        let a = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let b = vec![5.0, 1.0];
        let x = solve(a, b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let b = vec![1.0, 2.0];
        assert!(solve(a, b).is_none());
    }
}
