//! Forecast evaluation: error metrics and walk-forward testing.

use crate::forecast::{Forecaster, Obs};

/// Error metrics of a forecast series.
#[derive(Debug, Clone, Copy)]
pub struct ForecastErrors {
    pub mae: f64,
    pub rmse: f64,
    /// Mean absolute percentage error over samples with |actual| > eps.
    pub mape: f64,
    pub n: usize,
}

/// Compute errors from (predicted, actual) pairs.
pub fn errors(pairs: &[(f64, f64)]) -> ForecastErrors {
    assert!(!pairs.is_empty(), "no forecast pairs");
    let n = pairs.len();
    let mae = pairs.iter().map(|(p, a)| (p - a).abs()).sum::<f64>() / n as f64;
    let rmse = (pairs.iter().map(|(p, a)| (p - a).powi(2)).sum::<f64>() / n as f64).sqrt();
    let eps = 1e-6;
    let pct: Vec<f64> = pairs
        .iter()
        .filter(|(_, a)| a.abs() > eps)
        .map(|(p, a)| ((p - a) / a).abs())
        .collect();
    let mape = if pct.is_empty() {
        0.0
    } else {
        pct.iter().sum::<f64>() / pct.len() as f64
    };
    ForecastErrors { mae, rmse, mape, n }
}

/// Walk-forward evaluation: fit on `[0, split)`, then predict each test
/// observation one step ahead, refitting every `refit_every` steps
/// (0 = never refit).
pub fn walk_forward<F: Forecaster>(
    forecaster: &mut F,
    data: &[Obs],
    split: usize,
    refit_every: usize,
) -> ForecastErrors {
    assert!(split > 0 && split < data.len(), "bad split {split}");
    forecaster.fit(&data[..split]);
    let mut pairs = Vec::with_capacity(data.len() - split);
    for (i, obs) in data.iter().enumerate().skip(split) {
        if refit_every > 0 && (i - split) > 0 && (i - split).is_multiple_of(refit_every) {
            forecaster.fit(&data[..i]);
        }
        pairs.push((forecaster.predict(obs), obs.demand_w));
    }
    errors(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::SeasonalNaive;

    #[test]
    fn metrics_on_known_pairs() {
        let e = errors(&[(1.0, 2.0), (3.0, 3.0), (5.0, 4.0)]);
        assert!((e.mae - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.rmse - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(e.n, 3);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let e = errors(&[(1.0, 0.0), (2.0, 4.0)]);
        assert!((e.mape - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_forecast_is_zero_error() {
        let e = errors(&[(2.0, 2.0), (3.0, 3.0)]);
        assert_eq!(e.mae, 0.0);
        assert_eq!(e.rmse, 0.0);
        assert_eq!(e.mape, 0.0);
    }

    #[test]
    fn walk_forward_on_perfectly_periodic_data_is_exact() {
        // Demand repeats every 24 h exactly → seasonal-naive is perfect.
        let data: Vec<Obs> = (0..24 * 7)
            .map(|h| Obs {
                hour_index: h,
                outdoor_c: 10.0,
                demand_w: 100.0 + (h % 24) as f64 * 10.0,
            })
            .collect();
        let mut f = SeasonalNaive::default();
        let e = walk_forward(&mut f, &data, 24 * 2, 24);
        assert!(e.mae < 1e-9, "mae = {}", e.mae);
    }

    #[test]
    #[should_panic]
    fn empty_pairs_panic() {
        errors(&[]);
    }
}
