//! Linear regression by normal equations.
//!
//! Feature dimensionality in this crate is tiny (≤ ~30), so solving
//! `(XᵀX + λI) β = Xᵀy` with Gaussian elimination (partial pivoting) is
//! exact enough and dependency-free.

/// A fitted linear model `y ≈ β·x` (include a 1-feature for intercepts).
#[derive(Debug, Clone)]
pub struct LinearModel {
    pub beta: Vec<f64>,
}

impl LinearModel {
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.beta.len(), "feature width mismatch");
        x.iter().zip(&self.beta).map(|(a, b)| a * b).sum()
    }
}

/// Ordinary least squares. `xs` is row-major (one row per observation).
pub fn ols(xs: &[Vec<f64>], ys: &[f64]) -> LinearModel {
    ridge(xs, ys, 0.0)
}

/// Ridge regression with penalty `lambda ≥ 0` (no penalty on feature 0,
/// by convention the intercept).
pub fn ridge(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> LinearModel {
    assert!(!xs.is_empty(), "no observations");
    assert_eq!(xs.len(), ys.len());
    assert!(lambda >= 0.0);
    let d = xs[0].len();
    assert!(d > 0);
    assert!(xs.iter().all(|r| r.len() == d), "ragged feature rows");
    // XtX and Xty.
    let mut a = vec![vec![0.0f64; d]; d];
    let mut b = vec![0.0f64; d];
    for (row, &y) in xs.iter().zip(ys) {
        for i in 0..d {
            b[i] += row[i] * y;
            for j in 0..d {
                a[i][j] += row[i] * row[j];
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate().skip(1) {
        row[i] += lambda;
    }
    let beta = solve(a, b);
    LinearModel { beta }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
/// Panics on a (numerically) singular system — for regression that
/// means collinear features, which is a caller bug worth failing on.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let piv = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("NaN in matrix")
            })
            .expect("non-empty");
        assert!(
            a[piv][col].abs() > 1e-12,
            "singular system (collinear features?) at column {col}"
        );
        a.swap(col, piv);
        b.swap(col, piv);
        // Eliminate.
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot = &pivot_rows[col];
            for (k, cell) in rest[0].iter_mut().enumerate().skip(col) {
                *cell -= f * pivot[k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= a[i][j] * x[j];
        }
        x[i] = s / a[i][i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use simcore::dist::normal;
    use simcore::RngStreams;

    #[test]
    fn recovers_exact_line() {
        // y = 3 + 2x, noise-free.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![1.0, i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| 3.0 + 2.0 * i as f64).collect();
        let m = ols(&xs, &ys);
        assert!((m.beta[0] - 3.0).abs() < 1e-9);
        assert!((m.beta[1] - 2.0).abs() < 1e-9);
        assert!((m.predict(&[1.0, 10.0]) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_noisy_multivariate() {
        let mut rng = RngStreams::new(12).stream("reg");
        let true_beta = [5.0, -1.5, 0.7];
        let xs: Vec<Vec<f64>> = (0..2000)
            .map(|_| vec![1.0, rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 4.0])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                true_beta.iter().zip(x).map(|(b, v)| b * v).sum::<f64>()
                    + normal(&mut rng, 0.0, 0.5)
            })
            .collect();
        let m = ols(&xs, &ys);
        for (est, tru) in m.beta.iter().zip(&true_beta) {
            assert!((est - tru).abs() < 0.1, "beta {est} vs {tru}");
        }
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let mut rng = RngStreams::new(12).stream("reg2");
        let xs: Vec<Vec<f64>> = (0..50).map(|_| vec![1.0, rng.gen::<f64>()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 * x[1]).collect();
        let plain = ols(&xs, &ys);
        let shrunk = ridge(&xs, &ys, 100.0);
        assert!(shrunk.beta[1].abs() < plain.beta[1].abs());
        assert!(shrunk.beta[1] > 0.0, "still positively correlated");
    }

    #[test]
    fn ridge_handles_collinearity_that_breaks_ols() {
        // Two identical features: OLS normal equations are singular, but
        // ridge regularises them.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let m = ridge(&xs, &ys, 1e-3);
        // The two collinear features share the weight.
        assert!((m.beta[1] + m.beta[2] - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn singular_ols_panics() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        ols(&xs, &ys);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        ols(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]);
    }
}
