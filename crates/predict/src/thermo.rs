//! Thermosensitivity estimation.
//!
//! The grid-operator model: demand is linear in the *heating deficit*
//! `max(0, base − T_out)`. Given (T_out, demand) observations we
//! recover the threshold `base` by scanning a candidate grid and
//! keeping the OLS fit with the lowest residual, then report the slope
//! in W/K. Experiment E7 checks the recovered parameters against the
//! generator's ground truth in `thermal::demand`.

use crate::regression::ols;

/// A fitted thermosensitivity model `demand ≈ intercept + slope · deficit`.
#[derive(Debug, Clone, Copy)]
pub struct ThermoFit {
    /// Estimated heating threshold, °C.
    pub base_c: f64,
    /// Demand slope below the threshold, W/K.
    pub slope_w_per_k: f64,
    /// Demand intercept (non-thermosensitive load), W.
    pub intercept_w: f64,
    /// Root-mean-square residual of the best fit, W.
    pub rmse_w: f64,
    /// Coefficient of determination of the best fit.
    pub r2: f64,
}

impl ThermoFit {
    /// Predicted demand at outdoor temperature `t_out`, W.
    pub fn predict_w(&self, t_out_c: f64) -> f64 {
        (self.intercept_w + self.slope_w_per_k * (self.base_c - t_out_c).max(0.0)).max(0.0)
    }
}

/// Fit the thermosensitivity model to (outdoor °C, demand W) samples.
/// `base_grid` is the candidate-threshold scan range (inclusive, 0.5 °C
/// steps).
pub fn fit(samples: &[(f64, f64)], base_grid: (f64, f64)) -> ThermoFit {
    assert!(samples.len() >= 8, "need a reasonable sample count");
    assert!(base_grid.1 > base_grid.0);
    let mean_y = samples.iter().map(|s| s.1).sum::<f64>() / samples.len() as f64;
    let ss_tot: f64 = samples.iter().map(|s| (s.1 - mean_y).powi(2)).sum();
    let mut best: Option<ThermoFit> = None;
    let mut base = base_grid.0;
    while base <= base_grid.1 + 1e-9 {
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|&(t, _)| vec![1.0, (base - t).max(0.0)])
            .collect();
        // Degenerate if no sample is below the threshold.
        if xs.iter().all(|r| r[1] == 0.0) {
            base += 0.5;
            continue;
        }
        let ys: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let m = ols(&xs, &ys);
        let ss_res: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| (y - m.predict(x)).powi(2))
            .sum();
        let rmse = (ss_res / samples.len() as f64).sqrt();
        let fit = ThermoFit {
            base_c: base,
            slope_w_per_k: m.beta[1],
            intercept_w: m.beta[0],
            rmse_w: rmse,
            r2: if ss_tot > 0.0 {
                1.0 - ss_res / ss_tot
            } else {
                0.0
            },
        };
        if best.as_ref().map(|b| rmse < b.rmse_w).unwrap_or(true) {
            best = Some(fit);
        }
        base += 0.5;
    }
    best.expect("at least one threshold candidate must be usable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{Calendar, SimDuration};
    use simcore::RngStreams;
    use thermal::demand::{generate_trace, DemandModel};
    use thermal::weather::{Weather, WeatherConfig};

    #[test]
    fn recovers_synthetic_ground_truth() {
        let streams = RngStreams::new(21);
        let weather = Weather::generate(
            WeatherConfig::paris(Calendar::JANUARY_EPOCH),
            SimDuration::YEAR,
            &streams,
        );
        let model = DemandModel::residential(500);
        let trace = generate_trace(model, &weather, SimDuration::HOUR, &streams);
        // Use full-occupancy evening samples so the occupancy factor does
        // not bias the slope (the estimator fits the 18–23 h regime).
        let samples: Vec<(f64, f64)> = trace
            .iter()
            .filter(|s| {
                let h = s.t.hour_of_day();
                (18.0..22.0).contains(&h)
            })
            .map(|s| (s.outdoor_c, s.demand_w))
            .collect();
        let fit = super::fit(&samples, (10.0, 20.0));
        let true_slope = 500.0 * 55.0; // n_homes × slope
        assert!(
            (fit.base_c - 16.0).abs() <= 1.0,
            "threshold {} should be ≈ 16 °C",
            fit.base_c
        );
        assert!(
            (fit.slope_w_per_k - true_slope).abs() / true_slope < 0.1,
            "slope {} vs true {}",
            fit.slope_w_per_k,
            true_slope
        );
        assert!(fit.r2 > 0.8, "r² = {}", fit.r2);
    }

    #[test]
    fn prediction_is_piecewise_linear() {
        let f = ThermoFit {
            base_c: 16.0,
            slope_w_per_k: 100.0,
            intercept_w: 50.0,
            rmse_w: 0.0,
            r2: 1.0,
        };
        assert_eq!(f.predict_w(20.0), 50.0);
        assert_eq!(f.predict_w(16.0), 50.0);
        assert_eq!(f.predict_w(15.0), 150.0);
        assert_eq!(f.predict_w(6.0), 1_050.0);
    }

    #[test]
    fn prediction_clamps_at_zero() {
        let f = ThermoFit {
            base_c: 16.0,
            slope_w_per_k: 100.0,
            intercept_w: -500.0,
            rmse_w: 0.0,
            r2: 1.0,
        };
        assert_eq!(f.predict_w(16.0), 0.0);
    }

    #[test]
    fn exact_synthetic_line_gives_perfect_fit() {
        let samples: Vec<(f64, f64)> = (-10..25)
            .map(|t| {
                let t = t as f64;
                (t, 30.0 + 80.0 * (15.0f64 - t).max(0.0))
            })
            .collect();
        let fit = super::fit(&samples, (10.0, 20.0));
        assert!((fit.base_c - 15.0).abs() < 0.26);
        assert!((fit.slope_w_per_k - 80.0).abs() < 2.0);
        assert!(fit.rmse_w < 10.0);
    }

    #[test]
    #[should_panic]
    fn too_few_samples_panics() {
        super::fit(&[(0.0, 1.0); 3], (10.0, 20.0));
    }
}
