//! Cross-crate physics checks: energy conservation through the
//! worker's thermal loop, and comfort equivalence between a Q.rad and
//! a resistive heater (the paper's Figure 4 parity argument).

use df3::baselines::electric_heater::{simulate, ElectricHeater};
use df3::df3_core::regulator::RegulatorTable;
use df3::df3_core::worker::WorkerSim;
use df3::simcore::time::{Calendar, SimDuration, SimTime};
use df3::simcore::RngStreams;
use df3::thermal::batch::ThermalBatch;
use df3::thermal::room::{Room, RoomParams};
use df3::thermal::thermostat::{ModulatingThermostat, SetpointSchedule};
use df3::thermal::weather::{Weather, WeatherConfig};
use std::sync::Arc;

/// A one-room batch: the worker's room is slot 0.
fn one_room(initial_c: f64) -> ThermalBatch {
    let mut rooms = ThermalBatch::default();
    rooms.push(RoomParams::typical_apartment_room(), initial_c);
    rooms
}

fn winter_weather(days: i64, seed: u64) -> Weather {
    Weather::generate(
        WeatherConfig::paris(Calendar::NOVEMBER_EPOCH),
        SimDuration::from_days(days),
        &RngStreams::new(seed),
    )
}

#[test]
fn worker_energy_equals_integrated_power() {
    let weather = winter_weather(7, 21);
    let mut w = WorkerSim::new(
        0,
        Arc::new(RegulatorTable::qrad()),
        ModulatingThermostat::new(SetpointSchedule::constant(20.0), 1.5),
    );
    let mut room = one_room(17.0);
    let step = SimDuration::from_secs(600);
    let mut t = SimTime::ZERO;
    let mut manual_j = 0.0;
    while t < SimTime::ZERO + SimDuration::from_days(7) {
        // Power over [t, t+step) is what control_tick(t+step) integrates.
        w.control_tick(t, weather.outdoor_c(t), 100, &mut room, 0);
        manual_j += w.power_w() * step.as_secs_f64();
        t += step;
    }
    w.control_tick(t, weather.outdoor_c(t), 100, &mut room, 0);
    let meter_kwh = w.energy_kwh();
    let manual_kwh = manual_j / 3.6e6;
    assert!(
        (meter_kwh - manual_kwh).abs() / manual_kwh < 0.01,
        "meter {meter_kwh} vs integral {manual_kwh}"
    );
    assert!(meter_kwh > 5.0, "a winter week heats: {meter_kwh} kWh");
}

#[test]
fn qrad_and_convector_reach_the_same_comfort() {
    // The §III-A claim behind Figure 4: DF heating ≈ electric heating.
    let weather = winter_weather(14, 22);
    let schedule = SetpointSchedule::constant(20.0);

    // Q.rad loop.
    let mut w = WorkerSim::new(
        0,
        Arc::new(RegulatorTable::qrad()),
        ModulatingThermostat::new(schedule, 1.5),
    );
    let mut room = one_room(17.0);
    let step = SimDuration::from_secs(600);
    let mut t = SimTime::ZERO;
    let mut qrad_mean = 0.0;
    let mut n = 0;
    while t < SimTime::ZERO + SimDuration::from_days(14) {
        w.control_tick(t, weather.outdoor_c(t), 100, &mut room, 0);
        qrad_mean += room.temperature_c(0);
        n += 1;
        t += step;
    }
    qrad_mean /= n as f64;

    // Convector in the same weather.
    let conv = simulate(
        ElectricHeater::convector_1kw(),
        Room::new(RoomParams::typical_apartment_room(), 17.0),
        schedule,
        &weather,
        SimDuration::from_days(14),
        step,
    );

    assert!(
        (qrad_mean - conv.mean_temp_c).abs() < 1.5,
        "Q.rad mean {qrad_mean} vs convector {}",
        conv.mean_temp_c
    );
    assert!((18.0..21.0).contains(&qrad_mean));
}

#[test]
fn colder_weather_draws_more_energy() {
    let paris = winter_weather(7, 23);
    let stockholm = Weather::generate(
        WeatherConfig::stockholm(Calendar::NOVEMBER_EPOCH),
        SimDuration::from_days(7),
        &RngStreams::new(23),
    );
    let run = |weather: &Weather| {
        let mut w = WorkerSim::new(
            0,
            Arc::new(RegulatorTable::qrad()),
            ModulatingThermostat::new(SetpointSchedule::constant(20.0), 1.5),
        );
        let mut room = one_room(17.0);
        let step = SimDuration::from_secs(600);
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + SimDuration::from_days(7) {
            w.control_tick(t, weather.outdoor_c(t), 100, &mut room, 0);
            t += step;
        }
        w.control_tick(t, weather.outdoor_c(t), 100, &mut room, 0);
        w.energy_kwh()
    };
    let paris_kwh = run(&paris);
    let stockholm_kwh = run(&stockholm);
    assert!(
        stockholm_kwh > paris_kwh,
        "Stockholm {stockholm_kwh} kWh should exceed Paris {paris_kwh} kWh"
    );
}
