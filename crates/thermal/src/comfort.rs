//! Comfort accounting.
//!
//! §III-A: "with DF servers, we can reach the same level of comfort than
//! with other heating systems (See Figure 4 for the average temperature
//! in room heated by Qarnot heater in winter)." Comfort here is the
//! fraction of observed time the room stays inside a comfort band, plus
//! the degree-hour deficit when it does not; Figure 4's monthly means
//! come from a `TimeSeries` of room temperatures.

use simcore::time::SimTime;

/// Streaming comfort statistics over a room-temperature signal.
#[derive(Debug, Clone)]
pub struct ComfortStats {
    /// Comfort band lower edge, °C.
    pub band_lo_c: f64,
    /// Comfort band upper edge, °C.
    pub band_hi_c: f64,
    in_band_s: f64,
    total_s: f64,
    /// Degree-hours spent below the band (severity-weighted discomfort).
    cold_degree_hours: f64,
    last: Option<(SimTime, f64)>,
}

impl ComfortStats {
    /// The comfort band used by the experiment suite, 18–25 °C — wide
    /// enough to cover night setback, tight enough to flag failures.
    pub fn standard() -> Self {
        Self::new(18.0, 25.0)
    }

    pub fn new(band_lo_c: f64, band_hi_c: f64) -> Self {
        assert!(band_hi_c > band_lo_c);
        ComfortStats {
            band_lo_c,
            band_hi_c,
            in_band_s: 0.0,
            total_s: 0.0,
            cold_degree_hours: 0.0,
            last: None,
        }
    }

    /// Record the room temperature at `t`. Time between consecutive
    /// samples is attributed to the *earlier* sample's temperature
    /// (piecewise-constant interpretation).
    pub fn sample(&mut self, t: SimTime, temp_c: f64) {
        if let Some((t0, v0)) = self.last {
            assert!(t >= t0, "comfort samples out of order");
            let dt_s = (t - t0).as_secs_f64();
            let dt_h = dt_s / 3600.0;
            self.total_s += dt_s;
            if v0 >= self.band_lo_c && v0 <= self.band_hi_c {
                self.in_band_s += dt_s;
            } else if v0 < self.band_lo_c {
                self.cold_degree_hours += (self.band_lo_c - v0) * dt_h;
            }
        }
        self.last = Some((t, temp_c));
    }

    /// Fraction of observed time inside the band, in `[0, 1]`.
    pub fn in_band_fraction(&self) -> f64 {
        if self.total_s == 0.0 {
            return 0.0;
        }
        self.in_band_s / self.total_s
    }

    pub fn cold_degree_hours(&self) -> f64 {
        self.cold_degree_hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn t(h: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(h)
    }

    #[test]
    fn in_band_fraction_piecewise() {
        let mut c = ComfortStats::new(18.0, 25.0);
        c.sample(t(0), 20.0); // in band for [0,1)
        c.sample(t(1), 16.0); // below for [1,3)
        c.sample(t(3), 21.0); // in band for [3,4)
        c.sample(t(4), 21.0);
        assert!((c.in_band_fraction() - 0.5).abs() < 1e-12);
        // Cold deficit: 2 K × 2 h = 4 degree-hours.
        assert!((c.cold_degree_hours() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let c = ComfortStats::standard();
        assert_eq!(c.in_band_fraction(), 0.0);
    }

    #[test]
    fn single_sample_has_no_duration() {
        let mut c = ComfortStats::standard();
        c.sample(t(5), 20.0);
        assert_eq!(c.in_band_fraction(), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_samples_panic() {
        let mut c = ComfortStats::standard();
        c.sample(t(2), 20.0);
        c.sample(t(1), 20.0);
    }
}
