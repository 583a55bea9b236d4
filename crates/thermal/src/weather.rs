//! Synthetic outdoor weather.
//!
//! Outdoor temperature is modelled as
//!
//! ```text
//! T(t) = annual_mean
//!      - seasonal_amplitude · cos(2π · (day - coldest_day)/365)   // season
//!      - diurnal_amplitude  · cos(2π · (hour - warmest_hour)/24)  // day cycle
//!      + OU(t)                                                    // weather noise
//! ```
//!
//! where `OU` is an Ornstein–Uhlenbeck process (mean-reverting, a few
//! days of correlation — cold snaps and mild spells). The trace is
//! pre-generated hourly ([`Weather::RESOLUTION`]) and linearly
//! interpolated, so a
//! `Weather` lookup is pure and O(1), and the same seed always yields
//! the same winter — the property the paired experiments rely on.

use simcore::dist::ou_step;
use simcore::time::{Calendar, SimDuration, SimTime};
use simcore::RngStreams;

/// Configuration of the synthetic climate.
#[derive(Debug, Clone, Copy)]
pub struct WeatherConfig {
    /// Calendar anchoring t = 0 to a month (phases the seasonal cycle).
    pub calendar: Calendar,
    /// Annual mean outdoor temperature, °C.
    pub annual_mean_c: f64,
    /// Half peak-to-peak of the seasonal cycle, °C.
    pub seasonal_amplitude_c: f64,
    /// Half peak-to-peak of the diurnal cycle, °C.
    pub diurnal_amplitude_c: f64,
    /// Day of (calendar) year that is coldest on average (mid-January).
    pub coldest_day_of_year: f64,
    /// Hour of day that is warmest on average.
    pub warmest_hour: f64,
    /// Stationary standard deviation of the OU noise, °C.
    pub noise_std_c: f64,
    /// Correlation time of the OU noise, days.
    pub noise_correlation_days: f64,
}

impl WeatherConfig {
    /// Paris-like climate (Qarnot's home market): annual mean ≈ 12 °C,
    /// January mean ≈ 4.5 °C, July mean ≈ 19.5 °C, ±2.5 °C weather noise
    /// with ~3-day correlation.
    pub fn paris(calendar: Calendar) -> Self {
        WeatherConfig {
            calendar,
            annual_mean_c: 12.0,
            seasonal_amplitude_c: 7.5,
            diurnal_amplitude_c: 3.5,
            coldest_day_of_year: 15.0, // Jan 16
            warmest_hour: 15.0,
            noise_std_c: 2.5,
            noise_correlation_days: 3.0,
        }
    }

    /// A colder, Nordic-like climate for sensitivity studies.
    pub fn stockholm(calendar: Calendar) -> Self {
        WeatherConfig {
            annual_mean_c: 7.0,
            seasonal_amplitude_c: 10.5,
            ..WeatherConfig::paris(calendar)
        }
    }

    /// Deterministic variant (no stochastic component) for analytic tests.
    pub fn deterministic(mut self) -> Self {
        self.noise_std_c = 0.0;
        self
    }

    /// The deterministic (noise-free) temperature at time `t`.
    pub fn baseline_at(&self, t: SimTime) -> f64 {
        // Calendar day-of-year: day index offset by the epoch month start.
        let epoch_day: f64 = simcore::time::MONTH_DAYS[..self.calendar.epoch_month as usize]
            .iter()
            .map(|&d| d as f64)
            .sum();
        let doy = (t.as_days_f64() + epoch_day) % 365.0;
        let season = -self.seasonal_amplitude_c
            * (2.0 * std::f64::consts::PI * (doy - self.coldest_day_of_year) / 365.0).cos();
        let diurnal = self.diurnal_amplitude_c
            * (2.0 * std::f64::consts::PI * (t.hour_of_day() - self.warmest_hour) / 24.0).cos();
        self.annual_mean_c + season + diurnal
    }
}

/// A pre-generated weather trace, queryable at any time within its span.
#[derive(Debug, Clone)]
pub struct Weather {
    config: WeatherConfig,
    /// OU noise samples at [`Weather::RESOLUTION`] spacing (baseline
    /// added at query).
    noise: Vec<f64>,
    span: SimDuration,
}

impl Weather {
    /// Sampling resolution of the noise trace.
    pub const RESOLUTION: SimDuration = SimDuration::HOUR;

    /// Generate a trace covering `[0, span]`.
    pub fn generate(config: WeatherConfig, span: SimDuration, streams: &RngStreams) -> Self {
        assert!(span > SimDuration::ZERO);
        let mut rng = streams.stream("weather");
        let dt = Self::RESOLUTION.as_secs_f64();
        let steps = (span.as_secs_f64() / dt).ceil() as usize + 1;
        let theta = 1.0 / (config.noise_correlation_days * 86_400.0); // 1/s
                                                                      // Stationary std sigma_stat = sigma / sqrt(2 theta) → sigma:
        let sigma = config.noise_std_c * (2.0 * theta).sqrt();
        let mut noise = Vec::with_capacity(steps);
        let mut x = 0.0;
        for _ in 0..steps {
            noise.push(x);
            x = ou_step(&mut rng, x, 0.0, theta, sigma, dt);
        }
        Weather {
            config,
            noise,
            span,
        }
    }

    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// Outdoor temperature at `t` (°C). The seasonal/diurnal baseline is
    /// periodic by construction; queries past the generated span wrap
    /// the noise trace onto its sample grid, so long horizons see the
    /// trace repeat rather than freeze at the last sample or panic.
    pub fn outdoor_c(&self, t: SimTime) -> f64 {
        assert!(t >= SimTime::ZERO, "weather queried at negative time {t}");
        let period = (self.noise.len() - 1) as f64;
        let mut pos = t.as_secs_f64() / Self::RESOLUTION.as_secs_f64();
        if pos >= period {
            pos %= period;
        }
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        let n = self.noise[i] * (1.0 - frac) + self.noise[i + 1] * frac;
        self.config.baseline_at(t) + n
    }

    /// Mean outdoor temperature over `[from, to]`, sampled at the noise
    /// resolution.
    pub fn mean_outdoor_c(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from);
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut t = from;
        while t <= to {
            sum += self.outdoor_c(t);
            count += 1;
            t += Self::RESOLUTION;
        }
        sum / count as f64
    }
}

/// A flat tabulation of a [`Weather`] trace: the full seasonal +
/// diurnal + noise temperature pre-evaluated at the trace's sample
/// resolution ([`Weather::RESOLUTION`]), queried with a wrap + linear
/// interpolation.
///
/// `Weather::outdoor_c` pays two `cos` calls plus the noise lerp on
/// every query; on the platform hot path that query runs per control
/// tick and per worker wake. A `WeatherTable` replaces it with two
/// loads and a lerp. At grid points the table is exact (it stores
/// `Weather::outdoor_c(i·res)` verbatim); between grid points it
/// deviates only by the curvature of the diurnal cosine across one
/// sample interval (< 0.05 °C at hourly resolution), which is far
/// below the weather-noise floor.
#[derive(Debug, Clone)]
pub struct WeatherTable {
    /// Total outdoor temperature at [`Weather::RESOLUTION`] spacing
    /// over the span.
    samples: Vec<f64>,
}

impl WeatherTable {
    /// Tabulate `weather` at its noise resolution: one sample per
    /// noise sample, baseline evaluated at the grid point (identical to
    /// what `Weather::outdoor_c` returns there).
    pub fn tabulate(weather: &Weather) -> Self {
        let dt = Weather::RESOLUTION.as_secs_f64();
        let mut samples = Vec::with_capacity(weather.noise.len());
        for (i, &noise) in weather.noise.iter().enumerate() {
            let t = SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * dt);
            samples.push(weather.config.baseline_at(t) + noise);
        }
        WeatherTable { samples }
    }

    /// Outdoor temperature at `t` (°C): two loads and a lerp. Queries
    /// past the span wrap, mirroring [`Weather::outdoor_c`].
    #[inline]
    pub fn outdoor_c(&self, t: SimTime) -> f64 {
        debug_assert!(t >= SimTime::ZERO, "weather queried at negative time {t}");
        let period = (self.samples.len() - 1) as f64;
        let mut pos = t.as_secs_f64() / Weather::RESOLUTION.as_secs_f64();
        if pos >= period {
            pos %= period;
        }
        let i = pos as usize;
        let frac = pos - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams() -> RngStreams {
        RngStreams::new(2024)
    }

    #[test]
    fn january_colder_than_july() {
        let cfg = WeatherConfig::paris(Calendar::JANUARY_EPOCH);
        let w = Weather::generate(cfg, SimDuration::YEAR, &streams());
        let jan = w.mean_outdoor_c(SimTime::ZERO, SimTime::ZERO + SimDuration::from_days(31));
        let jul_start = SimTime::ZERO + SimDuration::from_days(181);
        let jul = w.mean_outdoor_c(jul_start, jul_start + SimDuration::from_days(31));
        assert!(jan < 8.0, "January mean {jan} should be cold");
        assert!(jul > 16.0, "July mean {jul} should be warm");
        assert!(jul - jan > 10.0);
    }

    #[test]
    fn november_epoch_phases_season_correctly() {
        // With a November epoch, month 2 (January) must be the coldest of
        // the Nov..May window — this is what anchors Figure 4's dip.
        let cfg = WeatherConfig::paris(Calendar::NOVEMBER_EPOCH).deterministic();
        let w = Weather::generate(cfg, SimDuration::from_days(212), &streams());
        let cal = Calendar::NOVEMBER_EPOCH;
        let mut means = Vec::new();
        for m in 0..7 {
            let a = cal.month_start(m);
            let b = cal.month_start(m + 1);
            means.push(w.mean_outdoor_c(a, b - SimDuration::HOUR));
        }
        // months: Nov Dec Jan Feb Mar Apr May
        let coldest = means
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            coldest == 2 || coldest == 3,
            "coldest month should be Jan/Feb, got index {coldest}, means {means:?}"
        );
        assert!(means[6] > means[0], "May should be warmer than November");
    }

    #[test]
    fn diurnal_cycle_peaks_mid_afternoon() {
        let cfg = WeatherConfig::paris(Calendar::JANUARY_EPOCH).deterministic();
        let day = SimTime::ZERO + SimDuration::from_days(100);
        let at = |h: i64| cfg.baseline_at(day + SimDuration::from_hours(h));
        assert!(at(15) > at(4), "3pm warmer than 4am");
        assert!((at(15) - at(3)) > 5.0, "diurnal swing should be visible");
    }

    #[test]
    fn noise_has_requested_magnitude() {
        let cfg = WeatherConfig::paris(Calendar::JANUARY_EPOCH);
        let w = Weather::generate(cfg, SimDuration::YEAR, &streams());
        let det = cfg.deterministic();
        let mut dev = simcore::metrics::Summary::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + SimDuration::YEAR {
            dev.observe(w.outdoor_c(t) - det.baseline_at(t));
            t += SimDuration::from_hours(6);
        }
        assert!(
            dev.mean().abs() < 1.0,
            "noise mean {} should be ~0",
            dev.mean()
        );
        assert!(
            (dev.variance().sqrt() - 2.5).abs() < 1.0,
            "noise std {} should be ~2.5",
            dev.variance().sqrt()
        );
    }

    #[test]
    fn same_seed_same_weather() {
        let cfg = WeatherConfig::paris(Calendar::NOVEMBER_EPOCH);
        let a = Weather::generate(cfg, SimDuration::from_days(30), &RngStreams::new(5));
        let b = Weather::generate(cfg, SimDuration::from_days(30), &RngStreams::new(5));
        let t = SimTime::ZERO + SimDuration::from_days(12) + SimDuration::from_hours(7);
        assert_eq!(a.outdoor_c(t), b.outdoor_c(t));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WeatherConfig::paris(Calendar::NOVEMBER_EPOCH);
        let a = Weather::generate(cfg, SimDuration::from_days(30), &RngStreams::new(5));
        let b = Weather::generate(cfg, SimDuration::from_days(30), &RngStreams::new(6));
        let t = SimTime::ZERO + SimDuration::from_days(12);
        assert_ne!(a.outdoor_c(t), b.outdoor_c(t));
    }

    #[test]
    fn query_past_span_wraps_instead_of_panicking() {
        // Regression: horizons longer than the generated trace used to
        // panic (and Platform::finalise_energy clamped to dodge it).
        // Past the span the noise trace wraps; the seasonal baseline is
        // periodic anyway, so values stay physical.
        let cfg = WeatherConfig::paris(Calendar::JANUARY_EPOCH);
        let w = Weather::generate(cfg, SimDuration::from_days(10), &streams());
        let past = w.outdoor_c(SimTime::ZERO + SimDuration::from_days(11));
        assert!((-30.0..45.0).contains(&past), "wrapped query gave {past}");
        // The wrapped noise is the start-of-trace noise, one period back.
        let wrapped_noise = past - cfg.baseline_at(SimTime::ZERO + SimDuration::from_days(11));
        let origin_noise = w.outdoor_c(SimTime::ZERO + SimDuration::from_days(1))
            - cfg.baseline_at(SimTime::ZERO + SimDuration::from_days(1));
        assert!(
            (wrapped_noise - origin_noise).abs() < 1e-9,
            "noise must wrap onto its own grid: {wrapped_noise} vs {origin_noise}"
        );
    }

    #[test]
    fn table_is_exact_on_grid_and_close_between() {
        let cfg = WeatherConfig::paris(Calendar::JANUARY_EPOCH);
        let w = Weather::generate(cfg, SimDuration::from_days(60), &streams());
        let table = WeatherTable::tabulate(&w);
        // Exact at in-span grid points (the table stores outdoor_c
        // verbatim).
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + SimDuration::from_days(60) {
            assert_eq!(table.outdoor_c(t).to_bits(), w.outdoor_c(t).to_bits());
            t += SimDuration::HOUR;
        }
        // Between grid points the lerp misses only diurnal curvature.
        let mut max_dev = 0.0f64;
        let mut q = SimTime::ZERO + SimDuration::from_secs(930);
        while q < SimTime::ZERO + SimDuration::from_days(60) {
            max_dev = max_dev.max((table.outdoor_c(q) - w.outdoor_c(q)).abs());
            q += SimDuration::from_secs(2_711);
        }
        assert!(max_dev < 0.05, "table deviates {max_dev} °C from analytic");
    }

    #[test]
    fn table_wraps_past_span() {
        let cfg = WeatherConfig::paris(Calendar::JANUARY_EPOCH);
        let w = Weather::generate(cfg, SimDuration::from_days(10), &streams());
        let table = WeatherTable::tabulate(&w);
        let lo = table.samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = table
            .samples
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        // Past-span queries wrap onto the sample grid: a lerp of stored
        // samples, so always within the trace's range — never frozen at
        // the last sample, never a panic.
        let mut t = SimTime::ZERO + SimDuration::from_days(10);
        while t < SimTime::ZERO + SimDuration::from_days(25) {
            let v = table.outdoor_c(t);
            assert!((lo..=hi).contains(&v), "wrapped query {v} outside trace");
            t += SimDuration::from_hours(3) + SimDuration::from_secs(511);
        }
    }

    #[test]
    fn stockholm_colder_than_paris() {
        let cal = Calendar::JANUARY_EPOCH;
        let p = WeatherConfig::paris(cal).deterministic();
        let s = WeatherConfig::stockholm(cal).deterministic();
        let t = SimTime::ZERO + SimDuration::from_days(15); // mid-January
        assert!(s.baseline_at(t) < p.baseline_at(t));
    }
}
