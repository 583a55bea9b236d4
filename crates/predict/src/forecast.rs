//! Demand forecasters.
//!
//! Three methods behind one trait, compared by experiment E7:
//!
//! - [`SeasonalNaive`]: tomorrow-at-this-hour = today-at-this-hour.
//!   The honest baseline every forecasting paper must beat.
//! - [`Ses`]: simple exponential smoothing on the deseasonalised hourly
//!   profile.
//! - [`RidgeWeather`]: ridge regression on weather features (heating
//!   deficit, hour-of-day harmonics) — the "predictive computing
//!   platform" §III-C calls for, usable *ahead of time* given a weather
//!   forecast.

use crate::regression::{ridge, LinearModel};

/// One training/forecast observation.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    /// Hours since the trace start (integral hour index).
    pub hour_index: usize,
    /// Outdoor temperature, °C.
    pub outdoor_c: f64,
    /// Demand, W.
    pub demand_w: f64,
}

/// A demand forecaster.
pub trait Forecaster {
    /// Fit on a training history.
    fn fit(&mut self, history: &[Obs]);
    /// Predict demand for an observation's exogenous part (hour index +
    /// weather); the observation's `demand_w` is ignored.
    fn predict(&self, next: &Obs) -> f64;
    /// Method name for reports.
    fn name(&self) -> &'static str;
}

/// Seasonal-naive: predict the demand observed 24 h earlier.
#[derive(Debug, Clone, Default)]
pub struct SeasonalNaive {
    history: Vec<Obs>,
}

impl Forecaster for SeasonalNaive {
    fn fit(&mut self, history: &[Obs]) {
        assert!(history.len() >= 24, "need at least one day of history");
        self.history = history.to_vec();
    }

    fn predict(&self, next: &Obs) -> f64 {
        let target = next.hour_index as i64 - 24;
        // History is hour-indexed; find the matching hour (last match).
        self.history
            .iter()
            .rev()
            .find(|o| o.hour_index as i64 == target)
            .map(|o| o.demand_w)
            .unwrap_or_else(|| {
                // Fall back to the same hour-of-day mean.
                let hod = next.hour_index % 24;
                let matching: Vec<f64> = self
                    .history
                    .iter()
                    .filter(|o| o.hour_index % 24 == hod)
                    .map(|o| o.demand_w)
                    .collect();
                matching.iter().sum::<f64>() / matching.len().max(1) as f64
            })
    }

    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
}

/// Simple exponential smoothing per hour-of-day slot.
#[derive(Debug, Clone)]
pub struct Ses {
    /// Smoothing factor in `(0, 1]`.
    pub alpha: f64,
    level: [f64; 24],
    seen: [bool; 24],
}

impl Ses {
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ses {
            alpha,
            level: [0.0; 24],
            seen: [false; 24],
        }
    }
}

impl Forecaster for Ses {
    fn fit(&mut self, history: &[Obs]) {
        assert!(!history.is_empty());
        for o in history {
            let slot = o.hour_index % 24;
            if self.seen[slot] {
                self.level[slot] = self.alpha * o.demand_w + (1.0 - self.alpha) * self.level[slot];
            } else {
                self.level[slot] = o.demand_w;
                self.seen[slot] = true;
            }
        }
    }

    fn predict(&self, next: &Obs) -> f64 {
        let slot = next.hour_index % 24;
        assert!(self.seen[slot], "no history for hour slot {slot}");
        self.level[slot]
    }

    fn name(&self) -> &'static str {
        "exp-smoothing"
    }
}

/// Ridge regression on weather + time features.
#[derive(Debug, Clone)]
pub struct RidgeWeather {
    pub lambda: f64,
    /// Heating threshold used for the deficit feature, °C.
    pub base_c: f64,
    model: Option<LinearModel>,
}

impl RidgeWeather {
    pub fn new(lambda: f64, base_c: f64) -> Self {
        RidgeWeather {
            lambda,
            base_c,
            model: None,
        }
    }

    fn features(&self, o: &Obs) -> Vec<f64> {
        // Heating demand is (deficit × occupancy); occupancy is a step
        // function of the day segment, so interact the deficit with
        // segment indicators (night is the baseline) rather than smooth
        // harmonics that cannot track the steps.
        let hod = o.hour_index % 24;
        let d = (self.base_c - o.outdoor_c).max(0.0);
        let seg = |lo: usize, hi: usize| if (lo..hi).contains(&hod) { 1.0 } else { 0.0 };
        vec![
            1.0,
            d,
            d * seg(6, 9),   // morning peak
            d * seg(9, 17),  // workday trough
            d * seg(17, 23), // evening peak
        ]
    }
}

impl Forecaster for RidgeWeather {
    fn fit(&mut self, history: &[Obs]) {
        assert!(history.len() > 12, "not enough data for 6 features");
        let xs: Vec<Vec<f64>> = history.iter().map(|o| self.features(o)).collect();
        let ys: Vec<f64> = history.iter().map(|o| o.demand_w).collect();
        self.model = Some(ridge(&xs, &ys, self.lambda));
    }

    fn predict(&self, next: &Obs) -> f64 {
        let m = self.model.as_ref().expect("fit() before predict()");
        m.predict(&self.features(next)).max(0.0)
    }

    fn name(&self) -> &'static str {
        "ridge-weather"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic demand: deficit-linear with a diurnal wave.
    fn synth(hours: usize) -> Vec<Obs> {
        (0..hours)
            .map(|h| {
                let hod = (h % 24) as f64;
                let outdoor = 8.0
                    + 6.0 * ((h as f64 / 24.0) * 0.26).sin()
                    + 3.0 * (2.0 * std::f64::consts::PI * (hod - 15.0) / 24.0).cos();
                let occ = if (6.0..23.0).contains(&hod) { 1.0 } else { 0.5 };
                Obs {
                    hour_index: h,
                    outdoor_c: outdoor,
                    demand_w: 55.0 * (16.0f64 - outdoor).max(0.0) * occ,
                }
            })
            .collect()
    }

    #[test]
    fn seasonal_naive_repeats_yesterday() {
        let h = synth(72);
        let mut f = SeasonalNaive::default();
        f.fit(&h[..48]);
        let pred = f.predict(&h[48]);
        assert_eq!(pred, h[24].demand_w);
    }

    #[test]
    fn ses_tracks_slot_level() {
        let h = synth(24 * 14);
        let mut f = Ses::new(0.3);
        f.fit(&h);
        let next = Obs {
            hour_index: 24 * 14 + 8,
            outdoor_c: 5.0,
            demand_w: 0.0,
        };
        let p = f.predict(&next);
        // Should be in the ballpark of recent hour-8 demands.
        let recent: Vec<f64> = h
            .iter()
            .rev()
            .filter(|o| o.hour_index % 24 == 8)
            .take(3)
            .map(|o| o.demand_w)
            .collect();
        let lo = recent.iter().copied().fold(f64::INFINITY, f64::min) * 0.5;
        let hi = recent.iter().copied().fold(0.0, f64::max) * 1.5;
        assert!((lo..=hi).contains(&p), "p={p}, recent={recent:?}");
    }

    #[test]
    fn ridge_beats_naive_on_weather_driven_demand() {
        let h = synth(24 * 28);
        let (train, test) = h.split_at(24 * 21);
        let mut naive = SeasonalNaive::default();
        let mut ridge = RidgeWeather::new(1.0, 16.0);
        naive.fit(train);
        ridge.fit(train);
        let mae = |f: &dyn Forecaster| {
            test.iter()
                .map(|o| (f.predict(o) - o.demand_w).abs())
                .sum::<f64>()
                / test.len() as f64
        };
        // Extend naive's history progressively is not done here — it uses
        // train only, so weather swings hurt it; ridge sees the forecast
        // temperature and must win clearly.
        let m_naive = mae(&naive);
        let m_ridge = mae(&ridge);
        assert!(
            m_ridge < m_naive * 0.8,
            "ridge {m_ridge:.1} should beat naive {m_naive:.1}"
        );
    }

    #[test]
    fn ridge_never_predicts_negative() {
        let h = synth(24 * 7);
        let mut f = RidgeWeather::new(1.0, 16.0);
        f.fit(&h);
        let hot = Obs {
            hour_index: 24 * 7,
            outdoor_c: 30.0,
            demand_w: 0.0,
        };
        assert!(f.predict(&hot) >= 0.0);
    }

    #[test]
    #[should_panic]
    fn ridge_predict_before_fit_panics() {
        let f = RidgeWeather::new(1.0, 16.0);
        f.predict(&Obs {
            hour_index: 0,
            outdoor_c: 10.0,
            demand_w: 0.0,
        });
    }
}
