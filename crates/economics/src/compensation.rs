//! Host compensation.
//!
//! §III-C: "in the Qarnot computing model, the hosts of DF servers do
//! not pay electricity. Consequently, during the winter, these hosts
//! generally keep the same target temperature." The host's gain is the
//! electricity a resistive heater would have drawn to deliver the same
//! heat — which is exactly the DF server's consumption, since both are
//! resistive loads at the wall. The operator's cost is the same energy
//! at the operator's tariff, offset by compute revenue.

use crate::tariff::Tariff;
use simcore::time::SimTime;

/// Ledger of one host over an accounting window.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostLedger {
    /// Heat delivered to the host, kWh.
    pub heat_kwh: f64,
    /// Electricity the operator paid for, kWh (= heat for DF servers).
    pub electricity_kwh: f64,
    /// What the host would have paid to heat resistively, €.
    pub avoided_heating_cost_eur: f64,
    /// What the operator paid for the electricity, €.
    pub operator_cost_eur: f64,
}

impl HostLedger {
    /// Record one period of DF heating: `kwh` consumed at time `t`,
    /// valued at the host's tariff (avoided cost) and the operator's.
    pub fn record(&mut self, t: SimTime, kwh: f64, host_tariff: &Tariff, op_tariff: &Tariff) {
        assert!(kwh >= 0.0);
        self.heat_kwh += kwh;
        self.electricity_kwh += kwh;
        self.avoided_heating_cost_eur += host_tariff.cost_eur(t, kwh);
        self.operator_cost_eur += op_tariff.cost_eur(t, kwh);
    }

    /// The host's effective subsidy, €.
    pub fn host_gain_eur(&self) -> f64 {
        self.avoided_heating_cost_eur
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
    fn host_gain_equals_resistive_heating_bill() {
        let mut l = HostLedger::default();
        let host = Tariff::flat(0.22);
        let op = Tariff::flat(0.15); // operator buys wholesale
        l.record(at(10, 12), 100.0, &host, &op);
        assert!((l.host_gain_eur() - 22.0).abs() < 1e-9);
        assert!((l.operator_cost_eur - 15.0).abs() < 1e-9);
        assert_eq!(l.heat_kwh, 100.0);
    }

    #[test]
    fn operator_profitable_when_compute_revenue_covers_energy() {
        let mut l = HostLedger::default();
        let t = Tariff::flat(0.15);
        l.record(at(10, 12), 360.0, &t, &t); // a winter month of one Q.rad
                                             // 360 kWh ≈ 720 core-hours-at-full-tilt; at 0.10 €/core-h revenue:
        let revenue = 720.0 * 0.10;
        assert!(revenue - l.operator_cost_eur > 0.0);
        // At spot-floor prices the same energy is a loss.
        let cheap_revenue = 720.0 * 0.005;
        assert!(cheap_revenue - l.operator_cost_eur < 0.0);
    }

    #[test]
    fn winter_peak_heating_is_worth_more_to_the_host() {
        let host = Tariff::france();
        let op = Tariff::flat(0.15);
        let mut winter_evening = HostLedger::default();
        let mut summer_noon = HostLedger::default();
        winter_evening.record(at(330, 19), 10.0, &host, &op);
        summer_noon.record(at(150, 12), 10.0, &host, &op);
        assert!(winter_evening.host_gain_eur() > summer_noon.host_gain_eur());
    }
}
