//! Total cost of compute: DF fleet vs classical datacenter.
//!
//! §II-A: "the model makes it possible to build a datacenter by reusing
//! existing infrastructures (buildings, networks etc.)" and avoids
//! cooling energy. This module compares amortised €/core-hour.

/// Cost structure of a compute fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetCosts {
    /// Capital expenditure per core, €.
    pub capex_eur_per_core: f64,
    /// Amortisation period, years.
    pub amortisation_years: f64,
    /// Facility overhead ratio on energy (PUE − 1).
    pub energy_overhead_ratio: f64,
    /// Electricity price, €/kWh.
    pub electricity_eur_kwh: f64,
    /// Mean electrical power per busy core, W.
    pub watts_per_core: f64,
    /// Mean utilisation of the fleet (busy fraction).
    pub utilisation: f64,
    /// Fraction of the energy bill recovered by selling heat
    /// (DF: the host deal effectively transfers the heating value;
    /// datacenter: 0).
    pub heat_recovery_ratio: f64,
    /// Annual maintenance per core, € (DF pays distributed-maintenance
    /// logistics, §III-C).
    pub maintenance_eur_per_core_year: f64,
}

impl FleetCosts {
    /// A Q.rad fleet: no building capex (reuses homes), no cooling,
    /// energy offset by its heating value in season (~60 % of the year's
    /// energy lands during heat demand), higher per-unit maintenance.
    pub fn df_fleet() -> Self {
        FleetCosts {
            capex_eur_per_core: 120.0, // the server itself only
            amortisation_years: 5.0,
            energy_overhead_ratio: 0.03,
            electricity_eur_kwh: 0.15,
            watts_per_core: 28.0,
            utilisation: 0.45, // heat-demand bound
            heat_recovery_ratio: 0.60,
            maintenance_eur_per_core_year: 9.0,
        }
    }

    /// A classical datacenter: building + cooling capex, PUE 1.55,
    /// cheap pooled maintenance, high utilisation.
    pub fn datacenter() -> Self {
        FleetCosts {
            capex_eur_per_core: 300.0, // server + building + cooling plant
            amortisation_years: 5.0,
            energy_overhead_ratio: 0.55,
            electricity_eur_kwh: 0.12,
            watts_per_core: 25.0,
            utilisation: 0.70,
            heat_recovery_ratio: 0.0,
            maintenance_eur_per_core_year: 4.0,
        }
    }

    /// Amortised cost per *busy* core-hour, €.
    pub fn cost_per_core_hour(&self) -> f64 {
        assert!(self.utilisation > 0.0 && self.utilisation <= 1.0);
        let busy_hours_per_year = 8_760.0 * self.utilisation;
        let capex_hourly =
            self.capex_eur_per_core / (self.amortisation_years * busy_hours_per_year);
        let energy_per_busy_hour = self.watts_per_core / 1_000.0
            * (1.0 + self.energy_overhead_ratio)
            * self.electricity_eur_kwh
            * (1.0 - self.heat_recovery_ratio);
        let maintenance_hourly = self.maintenance_eur_per_core_year / busy_hours_per_year;
        capex_hourly + energy_per_busy_hour + maintenance_hourly
    }

    /// Annual energy per core, kWh (busy + idle at 20 % idle power).
    pub fn annual_energy_kwh_per_core(&self) -> f64 {
        let busy = 8_760.0 * self.utilisation * self.watts_per_core / 1_000.0;
        let idle = 8_760.0 * (1.0 - self.utilisation) * 0.2 * self.watts_per_core / 1_000.0;
        (busy + idle) * (1.0 + self.energy_overhead_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn df_core_hour_is_cheaper() {
        // The paper's economic argument: reused infrastructure + avoided
        // cooling + heat value beat the DC's scale advantages.
        let df = FleetCosts::df_fleet().cost_per_core_hour();
        let dc = FleetCosts::datacenter().cost_per_core_hour();
        assert!(
            df < dc,
            "DF {df:.4} €/core-h should undercut DC {dc:.4} €/core-h"
        );
        // Both are in a plausible absolute range (0.3–10 ¢/core-h).
        for c in [df, dc] {
            assert!((0.003..0.10).contains(&c), "cost {c} out of range");
        }
    }

    #[test]
    fn without_heat_recovery_df_loses_its_edge() {
        let mut df = FleetCosts::df_fleet();
        df.heat_recovery_ratio = 0.0;
        let dc = FleetCosts::datacenter();
        // The gap shrinks dramatically (energy dominates opex).
        let gap_with = dc.cost_per_core_hour() - FleetCosts::df_fleet().cost_per_core_hour();
        let gap_without = dc.cost_per_core_hour() - df.cost_per_core_hour();
        assert!(gap_without < gap_with);
    }

    #[test]
    fn datacenter_energy_overhead_shows_in_annual_energy() {
        let df = FleetCosts::df_fleet().annual_energy_kwh_per_core();
        let dc = FleetCosts::datacenter().annual_energy_kwh_per_core();
        // Per-core annual energy: DC's PUE overhead outweighs DF's lower
        // utilisation profile on this metric's overhead component.
        let df_overhead = df * 0.03 / 1.03;
        let dc_overhead = dc * 0.55 / 1.55;
        assert!(dc_overhead > 5.0 * df_overhead);
    }

    #[test]
    fn higher_utilisation_lowers_unit_cost() {
        let mut a = FleetCosts::df_fleet();
        a.utilisation = 0.3;
        let mut b = FleetCosts::df_fleet();
        b.utilisation = 0.8;
        assert!(b.cost_per_core_hour() < a.cost_per_core_hour());
    }

    #[test]
    #[should_panic]
    fn zero_utilisation_panics() {
        let mut c = FleetCosts::df_fleet();
        c.utilisation = 0.0;
        c.cost_per_core_hour();
    }
}
