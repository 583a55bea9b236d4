//! The plain electric resistance heater — Figure 4's comfort baseline.
//!
//! §III-A: "as shown in [7], with DF servers, we can reach the same
//! level of comfort than with other heating systems." To check that,
//! we need the other heating system: a resistive convector driven by a
//! hysteresis thermostat. Experiment E1 runs this side by side with the
//! Q.rad loop and compares monthly mean temperatures and comfort stats.

use simcore::time::{SimDuration, SimTime};
use thermal::comfort::ComfortStats;
use thermal::room::Room;
use thermal::thermostat::{HysteresisThermostat, SetpointSchedule};
use thermal::weather::Weather;

/// A resistive convector heater.
#[derive(Debug, Clone, Copy)]
pub struct ElectricHeater {
    /// Rated power, W (1 000–2 000 W typical; the paper notes the Q.rad's
    /// 500 W "corresponds to consumption quite reasonable if not reduced
    /// for electric heating").
    pub power_w: f64,
}

impl ElectricHeater {
    pub fn convector_1kw() -> Self {
        ElectricHeater { power_w: 1_000.0 }
    }
}

/// Result of simulating one heated room for a span.
#[derive(Debug, Clone)]
pub struct HeatingRun {
    pub comfort: ComfortStats,
    /// Energy consumed, kWh.
    pub energy_kwh: f64,
    /// Mean room temperature over the run.
    pub mean_temp_c: f64,
    /// Per-sample (time, temperature) series for monthly aggregation.
    pub temps: simcore::metrics::TimeSeries,
}

/// Simulate a room heated by a hysteresis-controlled resistive heater.
pub fn simulate(
    heater: ElectricHeater,
    mut room: Room,
    schedule: SetpointSchedule,
    weather: &Weather,
    span: SimDuration,
    step: SimDuration,
) -> HeatingRun {
    assert!(step > SimDuration::ZERO);
    let mut thermostat = HysteresisThermostat::new(schedule, 0.4);
    let mut comfort = ComfortStats::standard();
    let mut temps = simcore::metrics::TimeSeries::new();
    let mut energy_j = 0.0;
    let mut t = SimTime::ZERO;
    let mut temp_sum = 0.0;
    let mut n = 0usize;
    while t < SimTime::ZERO + span {
        let heating = thermostat.update(t, room.temperature_c());
        let power = if heating { heater.power_w } else { 0.0 };
        room.step(step, weather.outdoor_c(t), power);
        energy_j += power * step.as_secs_f64();
        comfort.sample(t, room.temperature_c());
        temps.push(t, room.temperature_c());
        temp_sum += room.temperature_c();
        n += 1;
        t += step;
    }
    HeatingRun {
        comfort,
        energy_kwh: energy_j / 3.6e6,
        mean_temp_c: temp_sum / n as f64,
        temps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::Calendar;
    use simcore::RngStreams;
    use thermal::room::RoomParams;
    use thermal::weather::WeatherConfig;

    fn winter_weather() -> Weather {
        Weather::generate(
            WeatherConfig::paris(Calendar::NOVEMBER_EPOCH),
            SimDuration::from_days(30),
            &RngStreams::new(11),
        )
    }

    #[test]
    fn convector_holds_the_room_comfortable() {
        // Constant setpoint: the standard schedule's 17 °C night setback
        // sits below the 18 °C comfort band on purpose.
        let run = simulate(
            ElectricHeater::convector_1kw(),
            Room::new(RoomParams::typical_apartment_room(), 16.0),
            SetpointSchedule::constant(20.0),
            &winter_weather(),
            SimDuration::from_days(14),
            SimDuration::from_secs(300),
        );
        assert!(
            run.comfort.in_band_fraction() > 0.9,
            "in-band {}",
            run.comfort.in_band_fraction()
        );
        assert!(
            (18.0..21.5).contains(&run.mean_temp_c),
            "mean temp {}",
            run.mean_temp_c
        );
    }

    #[test]
    fn november_energy_is_plausible() {
        // A 1 kW convector in a typical room over 2 winter weeks: roughly
        // 100–250 kWh (≈ 300–700 W average).
        let run = simulate(
            ElectricHeater::convector_1kw(),
            Room::new(RoomParams::typical_apartment_room(), 16.0),
            SetpointSchedule::standard(),
            &winter_weather(),
            SimDuration::from_days(14),
            SimDuration::from_secs(300),
        );
        assert!(
            (80.0..260.0).contains(&run.energy_kwh),
            "2-week energy {} kWh",
            run.energy_kwh
        );
    }

    #[test]
    fn undersized_heater_fails_cold_snaps() {
        let run = simulate(
            ElectricHeater { power_w: 250.0 },
            Room::new(RoomParams::leaky_room(), 14.0),
            SetpointSchedule::standard(),
            &winter_weather(),
            SimDuration::from_days(14),
            SimDuration::from_secs(300),
        );
        assert!(
            run.comfort.cold_degree_hours() > 50.0,
            "a 250 W heater cannot hold a leaky room: {} K·h",
            run.comfort.cold_degree_hours()
        );
    }
}
