//! Electricity tariffs.

use simcore::time::SimTime;

/// A residential/industrial electricity tariff with peak/off-peak hours
/// and a winter surcharge (French EJP/Tempo-style shape).
#[derive(Debug, Clone, Copy)]
pub struct Tariff {
    /// Base price, €/kWh.
    pub base_eur_kwh: f64,
    /// Multiplier during peak hours.
    pub peak_multiplier: f64,
    /// Peak window start hour (inclusive).
    pub peak_start_h: f64,
    /// Peak window end hour (exclusive).
    pub peak_end_h: f64,
    /// Multiplier applied across the winter months (Nov–Mar).
    pub winter_multiplier: f64,
    /// Day-of-year window considered winter: wraps around new year,
    /// `(start_doy, end_doy)` with start > end meaning a wrap.
    pub winter_window: (u32, u32),
}

impl Tariff {
    /// A France-like tariff: 0.20 €/kWh base, 1.5× on 18–22 h peaks,
    /// 1.2× in winter (Nov 1 – Mar 31).
    pub fn france() -> Self {
        Tariff {
            base_eur_kwh: 0.20,
            peak_multiplier: 1.5,
            peak_start_h: 18.0,
            peak_end_h: 22.0,
            winter_multiplier: 1.2,
            winter_window: (304, 90), // doy 304 (Nov 1) .. doy 90 (Mar 31)
        }
    }

    /// A flat tariff (ablation baseline).
    pub fn flat(eur_kwh: f64) -> Self {
        Tariff {
            base_eur_kwh: eur_kwh,
            peak_multiplier: 1.0,
            peak_start_h: 0.0,
            peak_end_h: 0.0,
            winter_multiplier: 1.0,
            winter_window: (0, 0),
        }
    }

    fn is_winter(&self, t: SimTime) -> bool {
        let (a, b) = self.winter_window;
        if a == b {
            return false;
        }
        let doy = t.day_of_year();
        if a <= b {
            (a..=b).contains(&doy)
        } else {
            doy >= a || doy <= b
        }
    }

    fn is_peak(&self, t: SimTime) -> bool {
        let h = t.hour_of_day();
        h >= self.peak_start_h && h < self.peak_end_h
    }

    /// Price at time `t`, €/kWh. Note: `t`'s day-of-year is relative to
    /// the calendar epoch; use a January epoch for tariff studies.
    pub fn price_eur_kwh(&self, t: SimTime) -> f64 {
        let mut p = self.base_eur_kwh;
        if self.is_peak(t) {
            p *= self.peak_multiplier;
        }
        if self.is_winter(t) {
            p *= self.winter_multiplier;
        }
        p
    }

    /// Cost of an energy amount consumed entirely at time `t`, €.
    pub fn cost_eur(&self, t: SimTime, kwh: f64) -> f64 {
        assert!(kwh >= 0.0);
        self.price_eur_kwh(t) * kwh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn at(day: i64, hour: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(day) + SimDuration::from_hours(hour)
    }

    #[test]
    fn peak_hours_cost_more() {
        let t = Tariff::france();
        let off = t.price_eur_kwh(at(150, 10)); // summer morning
        let peak = t.price_eur_kwh(at(150, 19)); // summer evening peak
        assert!((off - 0.20).abs() < 1e-12);
        assert!((peak - 0.30).abs() < 1e-12);
    }

    #[test]
    fn winter_surcharge_applies_and_wraps_new_year() {
        let t = Tariff::france();
        // Day 310 (mid-November) and day 30 (late January) are winter.
        assert!((t.price_eur_kwh(at(310, 10)) - 0.24).abs() < 1e-12);
        assert!((t.price_eur_kwh(at(30, 10)) - 0.24).abs() < 1e-12);
        // Day 150 (late May) is not.
        assert!((t.price_eur_kwh(at(150, 10)) - 0.20).abs() < 1e-12);
        // Winter evening peak stacks both multipliers.
        assert!((t.price_eur_kwh(at(30, 19)) - 0.36).abs() < 1e-12);
    }

    #[test]
    fn flat_tariff_is_flat() {
        let t = Tariff::flat(0.15);
        for (d, h) in [(0, 0), (100, 12), (340, 19)] {
            assert_eq!(t.price_eur_kwh(at(d, h)), 0.15);
        }
    }

    #[test]
    fn cost_scales_with_energy() {
        let t = Tariff::flat(0.10);
        assert!((t.cost_eur(at(0, 0), 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_energy_rejected() {
        Tariff::france().cost_eur(at(0, 0), -1.0);
    }
}
