//! Energy metering and PUE accounting.
//!
//! §II-A: "CloudandHeat claims a PUE (Power Usage Efficiency) value of
//! 1.026 in some of their datacenters. This is better than the one
//! obtained by Google." Experiment E2 reproduces the comparison: a DF
//! fleet has almost no facility overhead (a few watts of network gear
//! per server), while a classical datacenter spends 30–60 % extra on
//! cooling and power distribution.

use simcore::metrics::TimeWeighted;
use simcore::time::SimTime;

/// An integrating energy meter over a power signal.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    power: TimeWeighted,
}

impl EnergyMeter {
    pub fn new(t0: SimTime) -> Self {
        EnergyMeter {
            power: TimeWeighted::new(t0, 0.0),
        }
    }

    /// Update the instantaneous power draw, W.
    pub fn set_power(&mut self, t: SimTime, watts: f64) {
        assert!(watts >= 0.0, "negative power {watts}");
        self.power.set(t, watts);
    }

    /// Energy consumed so far, J.
    pub fn joules(&self, now: SimTime) -> f64 {
        self.power.integral(now)
    }
}

/// PUE accountant: tracks IT energy and facility overhead energy.
///
/// `PUE = (IT + overhead) / IT`. For a DF fleet the overhead is the
/// per-site network/control gear; for a datacenter it is the cooling
/// plant and power distribution losses.
#[derive(Debug, Clone)]
pub struct PueAccountant {
    it: EnergyMeter,
    overhead: EnergyMeter,
}

impl PueAccountant {
    pub fn new(t0: SimTime) -> Self {
        PueAccountant {
            it: EnergyMeter::new(t0),
            overhead: EnergyMeter::new(t0),
        }
    }

    /// Update the IT power draw, W.
    pub fn set_it_power(&mut self, t: SimTime, watts: f64) {
        self.it.set_power(t, watts);
    }

    /// Update the facility-overhead power draw, W.
    pub fn set_overhead_power(&mut self, t: SimTime, watts: f64) {
        self.overhead.set_power(t, watts);
    }

    /// Set both at once given an overhead *ratio* (e.g. a chiller that
    /// consumes 0.4 W per IT watt → ratio 0.4).
    pub fn set_power_with_ratio(&mut self, t: SimTime, it_watts: f64, overhead_ratio: f64) {
        assert!(overhead_ratio >= 0.0);
        self.it.set_power(t, it_watts);
        self.overhead.set_power(t, it_watts * overhead_ratio);
    }

    /// Power Usage Effectiveness over the observation window.
    /// Returns 1.0 when no IT energy has been consumed yet.
    pub fn pue(&self, now: SimTime) -> f64 {
        let it = self.it.joules(now);
        if it <= 0.0 {
            return 1.0;
        }
        (it + self.overhead.joules(now)) / it
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
    fn meter_integrates_kwh() {
        let mut m = EnergyMeter::new(t(0));
        m.set_power(t(0), 500.0);
        m.set_power(t(2), 0.0);
        assert!((m.joules(t(3)) - 3.6e6).abs() < 1e-3); // 500 W × 2 h = 1 kWh
    }

    #[test]
    fn df_fleet_pue_is_near_one() {
        // 1000 Q.rads at 350 W mean, 5 W of network gear each → PUE ≈ 1.014,
        // in the ballpark of CloudandHeat's published 1.026.
        let mut a = PueAccountant::new(t(0));
        a.set_it_power(t(0), 1000.0 * 350.0);
        a.set_overhead_power(t(0), 1000.0 * 5.0);
        let pue = a.pue(t(24 * 30));
        assert!((1.005..1.05).contains(&pue), "DF PUE {pue} should be ≈1.02");
    }

    #[test]
    fn datacenter_pue_matches_industry_range() {
        let mut a = PueAccountant::new(t(0));
        a.set_power_with_ratio(t(0), 350_000.0, 0.55); // typical chiller plant
        let pue = a.pue(t(24 * 30));
        assert!((1.5..1.6).contains(&pue), "DC PUE {pue}");
    }

    #[test]
    fn pue_with_no_energy_is_one() {
        let a = PueAccountant::new(t(0));
        assert_eq!(a.pue(t(1)), 1.0);
    }

    #[test]
    fn pue_is_time_weighted_not_instantaneous() {
        let mut a = PueAccountant::new(t(0));
        // First day: heavy cooling. Rest of month: almost none.
        a.set_power_with_ratio(t(0), 100_000.0, 0.6);
        a.set_power_with_ratio(t(24), 100_000.0, 0.1);
        let pue = a.pue(t(24 * 10));
        assert!(pue < 1.2, "window-average PUE {pue} should reflect the mix");
        assert!(pue > 1.1);
    }

    #[test]
    #[should_panic]
    fn negative_power_rejected() {
        EnergyMeter::new(t(0)).set_power(t(1), -1.0);
    }
}
