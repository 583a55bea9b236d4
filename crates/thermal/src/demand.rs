//! Aggregate heat-demand synthesis (thermosensitivity).
//!
//! §III-C: "Several studies reveal that the thermosensitivity is in
//! general correlated to the external weather." We model a housing
//! stock's aggregate heat demand as a piecewise-linear function of
//! outdoor temperature (the classic *thermosensitivity* model used by
//! French grid operators), modulated by an occupancy profile and noise:
//!
//! ```text
//! D(t) = n_homes · slope_w_per_k · max(0, base_c − T_out(t)) · occ(t) · (1 + ε)
//! ```
//!
//! The `predict` crate recovers `slope` and `base` from traces generated
//! here (experiment E7); the `df3_core` hybrid platform uses the demand
//! to size available DF compute capacity (experiment E6).

use crate::weather::Weather;

use simcore::dist::normal;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;

/// Parameters of the aggregate-demand model.
#[derive(Debug, Clone, Copy)]
pub struct DemandModel {
    /// Number of homes in the stock.
    pub n_homes: usize,
    /// Per-home thermosensitivity below the heating threshold, W/K.
    pub slope_w_per_k: f64,
    /// Heating threshold: no demand above this outdoor temperature, °C.
    pub base_c: f64,
    /// Relative noise (lognormal-ish multiplicative, std of ε).
    pub noise_rel_std: f64,
}

impl DemandModel {
    /// Per-home thermosensitivity of ~55 W/K with an 16 °C threshold —
    /// scaled-down residential values consistent with the Q.rad sizing
    /// (one room's loss of 1/0.03 ≈ 33 W/K plus hot water and envelope).
    pub fn residential(n_homes: usize) -> Self {
        DemandModel {
            n_homes,
            slope_w_per_k: 55.0,
            base_c: 16.0,
            noise_rel_std: 0.08,
        }
    }

    /// Expected (noise-free) demand at outdoor temperature `t_out`, W,
    /// with occupancy factor `occ ∈ [0,1]` applied.
    pub fn expected_w(&self, t_out_c: f64, occ: f64) -> f64 {
        self.n_homes as f64 * self.slope_w_per_k * (self.base_c - t_out_c).max(0.0) * occ
    }
}

/// Daily occupancy profile: demand is higher when residents are home and
/// awake (morning and evening peaks — the shape of residential heating).
pub fn occupancy_factor(t: SimTime) -> f64 {
    let h = t.hour_of_day();
    if (6.0..9.0).contains(&h) {
        1.0 // morning peak
    } else if (9.0..17.0).contains(&h) {
        0.6 // workday trough
    } else if (17.0..23.0).contains(&h) {
        1.0 // evening peak
    } else {
        0.45 // night setback
    }
}

/// One sample of a synthetic demand trace.
#[derive(Debug, Clone, Copy)]
pub struct DemandSample {
    pub t: SimTime,
    /// Outdoor temperature at the sample, °C.
    pub outdoor_c: f64,
    /// Aggregate demand, W.
    pub demand_w: f64,
}

/// Generate a demand trace at `step` resolution across the weather span.
pub fn generate_trace(
    model: DemandModel,
    weather: &Weather,
    step: SimDuration,
    streams: &RngStreams,
) -> Vec<DemandSample> {
    assert!(step > SimDuration::ZERO);
    let mut rng = streams.stream("heat-demand");
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + weather.span();
    while t <= end {
        let t_out = weather.outdoor_c(t);
        let occ = occupancy_factor(t);
        let eps = normal(&mut rng, 0.0, model.noise_rel_std);
        let demand = (model.expected_w(t_out, occ) * (1.0 + eps)).max(0.0);
        out.push(DemandSample {
            t,
            outdoor_c: t_out,
            demand_w: demand,
        });
        t += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weather::WeatherConfig;
    use simcore::time::Calendar;

    fn trace_for_year() -> Vec<DemandSample> {
        let streams = RngStreams::new(7);
        let w = Weather::generate(
            WeatherConfig::paris(Calendar::JANUARY_EPOCH),
            SimDuration::YEAR,
            &streams,
        );
        generate_trace(
            DemandModel::residential(500),
            &w,
            SimDuration::HOUR,
            &streams,
        )
    }

    #[test]
    fn winter_demand_dwarfs_summer() {
        let trace = trace_for_year();
        let jan: f64 = trace
            .iter()
            .filter(|s| s.t.day_index() < 31)
            .map(|s| s.demand_w)
            .sum();
        let jul: f64 = trace
            .iter()
            .filter(|s| (181..212).contains(&s.t.day_index()))
            .map(|s| s.demand_w)
            .sum();
        assert!(jan > 5.0 * jul.max(1.0), "jan={jan:.0} jul={jul:.0}");
    }

    #[test]
    fn demand_is_thermosensitive() {
        // Colder samples should have systematically higher demand.
        let trace = trace_for_year();
        let cold: Vec<f64> = trace
            .iter()
            .filter(|s| s.outdoor_c < 5.0)
            .map(|s| s.demand_w)
            .collect();
        let mild: Vec<f64> = trace
            .iter()
            .filter(|s| (10.0..15.0).contains(&s.outdoor_c))
            .map(|s| s.demand_w)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&cold) > 1.5 * mean(&mild));
    }

    #[test]
    fn occupancy_shapes_the_day() {
        assert_eq!(
            occupancy_factor(SimTime::ZERO + SimDuration::from_hours(7)),
            1.0
        );
        assert!(occupancy_factor(SimTime::ZERO + SimDuration::from_hours(12)) < 1.0);
        assert!(occupancy_factor(SimTime::ZERO + SimDuration::from_hours(2)) < 0.5);
    }

    #[test]
    fn expected_w_clamps_above_base() {
        let m = DemandModel::residential(100);
        assert_eq!(m.expected_w(20.0, 1.0), 0.0);
        assert!(m.expected_w(0.0, 1.0) > 0.0);
        // Linear in deficit.
        let a = m.expected_w(6.0, 1.0);
        let b = m.expected_w(-4.0, 1.0);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_validates() {
        let trace = trace_for_year();
        assert!(trace
            .iter()
            .all(|s| s.demand_w >= 0.0 && !s.outdoor_c.is_nan()));
        assert!(trace.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = trace_for_year();
        let b = trace_for_year();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[100].demand_w, b[100].demand_w);
    }
}
