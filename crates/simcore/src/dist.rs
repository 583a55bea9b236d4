//! Distribution samplers.
//!
//! Implemented locally (rather than pulling `rand_distr`) so that the
//! exact sampling algorithms — and therefore every recorded experiment
//! number — are pinned inside this repository. All samplers take a
//! generic [`rand::Rng`] so they work with the ChaCha streams from
//! [`crate::rng`].

use rand::Rng;

/// Sample from Exponential(rate). Mean is `1/rate`.
///
/// Panics if `rate <= 0`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    // Inverse transform; 1-u in (0,1] avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

/// Sample from Normal(mean, std) via Box–Muller (single value; the
/// second value is discarded for simplicity and statelessness).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    assert!(std >= 0.0, "normal std must be non-negative, got {std}");
    if std == 0.0 {
        return mean;
    }
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return mean + std * z;
    }
}

/// Sample from LogNormal with the given parameters of the underlying
/// normal (`mu`, `sigma`). Mean of the lognormal is `exp(mu + sigma²/2)`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// LogNormal parameterised by its own mean and coefficient of variation
/// (cv = std/mean). Convenient for "jobs average 40 min, cv 1.2".
pub fn lognormal_mean_cv<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
    assert!(mean > 0.0 && cv >= 0.0);
    if cv == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    lognormal(rng, mu, sigma2.sqrt())
}

/// Sample from Pareto(scale, shape). Heavy-tailed job sizes.
///
/// Mean exists only for `shape > 1` and is `scale * shape / (shape - 1)`.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, scale: f64, shape: f64) -> f64 {
    assert!(scale > 0.0 && shape > 0.0);
    let u: f64 = rng.gen::<f64>();
    scale / (1.0 - u).powf(1.0 / shape)
}

/// Sample from Weibull(scale, shape). Used for component lifetimes in the
/// processor-aging model.
pub fn weibull<R: Rng + ?Sized>(rng: &mut R, scale: f64, shape: f64) -> f64 {
    assert!(scale > 0.0 && shape > 0.0);
    let u: f64 = rng.gen::<f64>();
    scale * (-(1.0 - u).ln()).powf(1.0 / shape)
}

/// Bernoulli trial with probability `p`.
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    rng.gen::<f64>() < p
}

/// Sample an index from a discrete distribution given by `weights`
/// (not necessarily normalised). Panics on empty or all-zero weights.
pub fn discrete<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "discrete weights must sum to a positive value");
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        assert!(w >= 0.0, "negative weight at index {i}");
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// One step of an Ornstein–Uhlenbeck process: mean-reverting noise used
/// by the synthetic weather generator.
///
/// `x` current value, `mean` long-run mean, `theta` reversion rate (1/s),
/// `sigma` volatility, `dt` time step in the same unit as `1/theta`.
pub fn ou_step<R: Rng + ?Sized>(
    rng: &mut R,
    x: f64,
    mean: f64,
    theta: f64,
    sigma: f64,
    dt: f64,
) -> f64 {
    assert!(theta >= 0.0 && sigma >= 0.0 && dt >= 0.0);
    let decay = (-theta * dt).exp();
    // Exact discretisation of the OU SDE over dt.
    let var = if theta > 0.0 {
        sigma * sigma / (2.0 * theta) * (1.0 - decay * decay)
    } else {
        sigma * sigma * dt
    };
    mean + (x - mean) * decay + normal(rng, 0.0, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStreams;

    fn rng() -> rand_chacha::ChaCha8Rng {
        RngStreams::new(1234).stream("dist-tests")
    }

    fn mean_of(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| exponential(&mut r, 0.5)).collect();
        let m = mean_of(&xs);
        assert!((m - 2.0).abs() < 0.05, "mean {m} should be ~2.0");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_moments_match() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| normal(&mut r, 10.0, 3.0)).collect();
        let m = mean_of(&xs);
        let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((m - 10.0).abs() < 0.1);
        assert!((var.sqrt() - 3.0).abs() < 0.1);
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut r = rng();
        assert_eq!(normal(&mut r, 5.0, 0.0), 5.0);
    }

    #[test]
    fn lognormal_mean_cv_calibration() {
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000)
            .map(|_| lognormal_mean_cv(&mut r, 40.0, 1.2))
            .collect();
        let m = mean_of(&xs);
        assert!((m - 40.0).abs() / 40.0 < 0.05, "mean {m} should be ~40");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| pareto(&mut r, 1.0, 2.0)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        let m = mean_of(&xs);
        // mean = shape/(shape-1) = 2.0
        assert!((m - 2.0).abs() < 0.2, "mean {m} should be ~2.0");
    }

    #[test]
    fn weibull_mean_shape_one_is_exponential() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| weibull(&mut r, 5.0, 1.0)).collect();
        let m = mean_of(&xs);
        assert!((m - 5.0).abs() < 0.15);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = rng();
        let n = (0..100_000).filter(|_| bernoulli(&mut r, 0.3)).count();
        assert!((n as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn discrete_respects_weights() {
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..90_000 {
            counts[discrete(&mut r, &[1.0, 2.0, 6.0])] += 1;
        }
        assert!((counts[0] as f64 / 10_000.0 - 1.0).abs() < 0.15);
        assert!((counts[1] as f64 / 10_000.0 - 2.0).abs() < 0.2);
        assert!((counts[2] as f64 / 10_000.0 - 6.0).abs() < 0.3);
    }

    #[test]
    fn discrete_single_weight() {
        let mut r = rng();
        assert_eq!(discrete(&mut r, &[3.0]), 0);
    }

    #[test]
    fn ou_process_reverts_to_mean() {
        let mut r = rng();
        let mut x = 50.0; // far from mean
        for _ in 0..1_000 {
            x = ou_step(&mut r, x, 10.0, 0.5, 1.0, 1.0);
        }
        // After many steps the process should hover near the mean with
        // stationary std sigma/sqrt(2 theta) = 1.0.
        assert!((x - 10.0).abs() < 6.0, "x={x} should be near 10");
    }

    #[test]
    fn ou_zero_sigma_is_deterministic_decay() {
        let mut r = rng();
        let x = ou_step(&mut r, 20.0, 10.0, 1.0, 0.0, 1.0);
        let expected = 10.0 + 10.0 * (-1.0f64).exp();
        assert!((x - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        let mut r = rng();
        exponential(&mut r, 0.0);
    }

    #[test]
    #[should_panic]
    fn discrete_rejects_all_zero() {
        let mut r = rng();
        discrete(&mut r, &[0.0, 0.0]);
    }
}
