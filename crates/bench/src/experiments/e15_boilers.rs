//! **E15 — heaters vs digital boilers** (§II-B.2, §III-C).
//!
//! Paper claims: "With digital boilers, the problem [capacity bound to
//! heating demand] might not be important because we can continue to
//! produce hot water independently of heating requests. However, this
//! will generate waste heat" — and always-generating boilers worsen
//! the urban heat island. We run a heater room, an on-demand boiler,
//! and an always-on boiler through the same simulated year and compare
//! capacity stability and waste.

use df3_core::boiler::{BoilerMode, BoilerSim};
use df3_core::regulator::RegulatorTable;
use df3_core::worker::WorkerSim;
use simcore::report::{f2, pct, Table};
use simcore::time::{Calendar, SimDuration, SimTime};
use simcore::RngStreams;
use std::sync::Arc;
use thermal::batch::ThermalBatch;
use thermal::room::RoomParams;
use thermal::thermostat::{ModulatingThermostat, SetpointSchedule};
use thermal::weather::{Weather, WeatherConfig};

/// Headline results of E15.
#[derive(Debug, Clone)]
pub struct BoilerComparison {
    /// Winter/summer mean-capacity ratio per system.
    pub heater_seasonality: f64,
    pub boiler_on_demand_seasonality: f64,
    pub boiler_always_on_seasonality: f64,
    /// Mean utilised capacity fraction over the year.
    pub heater_mean_duty: f64,
    pub boiler_on_demand_mean_duty: f64,
    /// Waste share of the always-on boiler's energy.
    pub always_on_waste_share: f64,
    pub on_demand_waste_share: f64,
}

/// Run E15 over one simulated year.
pub fn run(seed: u64) -> (BoilerComparison, Table) {
    let streams = RngStreams::new(seed);
    let cal = Calendar::JANUARY_EPOCH;
    let weather = Weather::generate(WeatherConfig::paris(cal), SimDuration::YEAR, &streams);
    let step = SimDuration::from_secs(1_800);

    // Heater: one Q.rad room with a space-heating thermostat.
    let mut heater = WorkerSim::new(
        0,
        Arc::new(RegulatorTable::qrad()),
        ModulatingThermostat::new(SetpointSchedule::standard(), 1.0),
    );
    let mut heater_rooms = ThermalBatch::default();
    heater_rooms.push(RoomParams::insulated_room(), 18.0);
    // Boilers: Stimergy racks on 12-dwelling tanks.
    let mut on_demand = BoilerSim::stimergy(12, BoilerMode::OnDemand, &streams, 0);
    let mut always_on = BoilerSim::stimergy(12, BoilerMode::AlwaysOn, &streams, 1);

    // Monthly capacity means.
    let mut heater_monthly = vec![(0.0f64, 0usize); 12];
    let mut od_monthly = vec![(0.0f64, 0usize); 12];
    let mut ao_monthly = vec![(0.0f64, 0usize); 12];
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + SimDuration::YEAR {
        heater.control_tick(t, weather.outdoor_c(t), 100, &mut heater_rooms, 0);
        on_demand.control_tick(t);
        always_on.control_tick(t);
        let m = cal.month_index(t).calendar as usize;
        heater_monthly[m].0 += heater.potential_cores() as f64 / heater.n_cores() as f64;
        heater_monthly[m].1 += 1;
        od_monthly[m].0 += on_demand.potential_cores() as f64 / on_demand.n_cores() as f64;
        od_monthly[m].1 += 1;
        ao_monthly[m].0 += always_on.potential_cores() as f64 / always_on.n_cores() as f64;
        ao_monthly[m].1 += 1;
        t += step;
    }
    let mean = |v: &[(f64, usize)], months: &[usize]| -> f64 {
        months
            .iter()
            .map(|&m| v[m].0 / v[m].1.max(1) as f64)
            .sum::<f64>()
            / months.len() as f64
    };
    let winter = [0usize, 1, 11];
    let summer = [5usize, 6, 7];
    let seasonality = |v: &[(f64, usize)]| {
        let s = mean(v, &summer);
        if s <= 1e-6 {
            f64::INFINITY
        } else {
            mean(v, &winter) / s
        }
    };
    let year: Vec<usize> = (0..12).collect();

    let result = BoilerComparison {
        heater_seasonality: seasonality(&heater_monthly),
        boiler_on_demand_seasonality: seasonality(&od_monthly),
        boiler_always_on_seasonality: seasonality(&ao_monthly),
        heater_mean_duty: mean(&heater_monthly, &year),
        boiler_on_demand_mean_duty: mean(&od_monthly, &year),
        always_on_waste_share: always_on.waste_kwh() / always_on.energy_kwh().max(1e-9),
        on_demand_waste_share: on_demand.waste_kwh() / on_demand.energy_kwh().max(1e-9),
    };
    let mut table =
        Table::new("E15 — heater vs digital boiler (capacity duty by month)").headers(&[
            "system",
            "winter duty",
            "summer duty",
            "winter/summer",
            "waste share",
        ]);
    table.row(&[
        "Q.rad space heater".into(),
        pct(mean(&heater_monthly, &winter)),
        pct(mean(&heater_monthly, &summer)),
        f2(result.heater_seasonality),
        "0 % (all heat is comfort)".into(),
    ]);
    table.row(&[
        "boiler, on-demand".into(),
        pct(mean(&od_monthly, &winter)),
        pct(mean(&od_monthly, &summer)),
        f2(result.boiler_on_demand_seasonality),
        pct(result.on_demand_waste_share),
    ]);
    table.row(&[
        "boiler, always-on".into(),
        pct(mean(&ao_monthly, &winter)),
        pct(mean(&ao_monthly, &summer)),
        f2(result.boiler_always_on_seasonality),
        pct(result.always_on_waste_share),
    ]);
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boilers_flatten_the_season_heaters_cannot() {
        let (r, table) = run(0xE15);
        assert_eq!(table.n_rows(), 3);
        // Space heating: huge winter/summer swing.
        assert!(
            r.heater_seasonality > 5.0,
            "heater seasonality {}",
            r.heater_seasonality
        );
        // On-demand boiler: mild swing (DHW is near-seasonless).
        assert!(
            r.boiler_on_demand_seasonality < 2.5,
            "on-demand boiler seasonality {}",
            r.boiler_on_demand_seasonality
        );
        // Always-on: perfectly flat…
        assert!((r.boiler_always_on_seasonality - 1.0).abs() < 0.01);
        // …but wasteful, exactly as §III-C warns, while on-demand wastes
        // almost nothing.
        assert!(
            r.always_on_waste_share > 0.15,
            "waste {}",
            r.always_on_waste_share
        );
        assert!(r.on_demand_waste_share < 0.05);
    }
}
