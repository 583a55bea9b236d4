//! Thermostats: how residents express the paper's *heating request* flow.
//!
//! §II-C: "With digital heaters, numerical targets could be defined in
//! such requests. For instance, one can ask to a Qarnot heater to set the
//! temperature at 20 degrees." Two controllers are provided:
//!
//! - [`HysteresisThermostat`]: classic bang-bang control with a dead
//!   band, emitting on/off heating demands.
//! - [`ModulatingThermostat`]: proportional control emitting a demand in
//!   `[0, 1]` — this is what the DF3 heat regulator consumes, since a
//!   DVFS ladder can produce intermediate power levels (§III-B's "heat
//!   regulator implements a DVFS based technique").
//!
//! Both honour a [`SetpointSchedule`] with day/night setback, matching
//! how residents actually drive heat demand.

use simcore::time::SimTime;

/// A daily setpoint schedule with night setback.
#[derive(Debug, Clone, Copy)]
pub struct SetpointSchedule {
    /// Daytime target, °C.
    pub day_c: f64,
    /// Night target, °C.
    pub night_c: f64,
    /// Hour the day period starts (e.g. 6.0).
    pub day_start_h: f64,
    /// Hour the night period starts (e.g. 22.0).
    pub night_start_h: f64,
}

impl SetpointSchedule {
    /// The schedule used across the experiment suite: 20 °C days
    /// (06:00–22:00), 17 °C nights. Figure 4's observed means (≈ 20–23 °C)
    /// come from rooms regulated around such setpoints plus free gains.
    pub fn standard() -> Self {
        SetpointSchedule {
            day_c: 20.0,
            night_c: 17.0,
            day_start_h: 6.0,
            night_start_h: 22.0,
        }
    }

    /// A constant setpoint all day.
    pub fn constant(c: f64) -> Self {
        SetpointSchedule {
            day_c: c,
            night_c: c,
            day_start_h: 0.0,
            night_start_h: 24.0,
        }
    }

    /// The setpoint effective at time `t`.
    pub fn setpoint_c(&self, t: SimTime) -> f64 {
        let h = t.hour_of_day();
        if h >= self.day_start_h && h < self.night_start_h {
            self.day_c
        } else {
            self.night_c
        }
    }
}

/// Bang-bang thermostat with a symmetric dead band.
#[derive(Debug, Clone, Copy)]
pub struct HysteresisThermostat {
    pub schedule: SetpointSchedule,
    /// Half-width of the dead band, K.
    pub dead_band_k: f64,
    heating: bool,
}

impl HysteresisThermostat {
    pub fn new(schedule: SetpointSchedule, dead_band_k: f64) -> Self {
        assert!(dead_band_k > 0.0);
        HysteresisThermostat {
            schedule,
            dead_band_k,
            heating: false,
        }
    }

    /// Update with the current room temperature; returns whether the
    /// heater should run.
    pub fn update(&mut self, t: SimTime, room_c: f64) -> bool {
        let sp = self.schedule.setpoint_c(t);
        if room_c <= sp - self.dead_band_k {
            self.heating = true;
        } else if room_c >= sp + self.dead_band_k {
            self.heating = false;
        }
        self.heating
    }

    pub fn is_heating(&self) -> bool {
        self.heating
    }
}

/// Proportional thermostat: demand rises linearly from 0 at the setpoint
/// to 1 at `full_demand_gap_k` below it.
#[derive(Debug, Clone, Copy)]
pub struct ModulatingThermostat {
    pub schedule: SetpointSchedule,
    /// Temperature deficit at which demand saturates at 1.0, K.
    pub full_demand_gap_k: f64,
}

impl ModulatingThermostat {
    pub fn new(schedule: SetpointSchedule, full_demand_gap_k: f64) -> Self {
        assert!(full_demand_gap_k > 0.0);
        ModulatingThermostat {
            schedule,
            full_demand_gap_k,
        }
    }

    /// Heat demand in `[0, 1]` given the current room temperature.
    pub fn demand(&self, t: SimTime, room_c: f64) -> f64 {
        let sp = self.schedule.setpoint_c(t);
        ((sp - room_c) / self.full_demand_gap_k).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn at_hour(h: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(h)
    }

    #[test]
    fn schedule_day_night() {
        let s = SetpointSchedule::standard();
        assert_eq!(s.setpoint_c(at_hour(12)), 20.0);
        assert_eq!(s.setpoint_c(at_hour(23)), 17.0);
        assert_eq!(s.setpoint_c(at_hour(3)), 17.0);
        assert_eq!(s.setpoint_c(at_hour(6)), 20.0);
    }

    #[test]
    fn constant_schedule() {
        let s = SetpointSchedule::constant(21.0);
        for h in 0..24 {
            assert_eq!(s.setpoint_c(at_hour(h)), 21.0);
        }
    }

    #[test]
    fn hysteresis_switches_with_dead_band() {
        let mut th = HysteresisThermostat::new(SetpointSchedule::constant(20.0), 0.5);
        assert!(!th.is_heating());
        assert!(th.update(at_hour(0), 19.4)); // below 19.5 → on
        assert!(th.update(at_hour(0), 20.2)); // inside band → stays on
        assert!(!th.update(at_hour(0), 20.6)); // above 20.5 → off
        assert!(!th.update(at_hour(0), 19.8)); // inside band → stays off
        assert!(th.update(at_hour(0), 19.4)); // below again → on
    }

    #[test]
    fn hysteresis_limits_switching_frequency() {
        // Feed a slowly oscillating temperature and count transitions —
        // the dead band must prevent chattering.
        let mut th = HysteresisThermostat::new(SetpointSchedule::constant(20.0), 0.5);
        let mut switches = 0;
        let mut last = th.is_heating();
        for i in 0..1000 {
            let temp = 20.0 + 0.3 * ((i as f64) * 0.5).sin(); // stays inside band
            let now = th.update(at_hour(0), temp);
            if now != last {
                switches += 1;
                last = now;
            }
        }
        assert_eq!(
            switches, 0,
            "oscillation inside the dead band must not switch"
        );
    }

    #[test]
    fn modulating_demand_is_proportional_and_clamped() {
        let th = ModulatingThermostat::new(SetpointSchedule::constant(20.0), 2.0);
        let t = at_hour(0);
        assert_eq!(th.demand(t, 22.0), 0.0);
        assert_eq!(th.demand(t, 20.0), 0.0);
        assert!((th.demand(t, 19.0) - 0.5).abs() < 1e-12);
        assert_eq!(th.demand(t, 18.0), 1.0);
        assert_eq!(th.demand(t, 10.0), 1.0);
    }

    #[test]
    fn night_setback_reduces_demand() {
        let th = ModulatingThermostat::new(SetpointSchedule::standard(), 1.5);
        let room = 18.0;
        let day = th.demand(at_hour(12), room);
        let night = th.demand(at_hour(23), room);
        assert!(day > night, "day demand {day} > night demand {night}");
    }

    #[test]
    fn closed_loop_with_room_settles_near_setpoint() {
        use crate::room::{Room, RoomParams};
        let mut room = Room::new(RoomParams::typical_apartment_room(), 15.0);
        let th = ModulatingThermostat::new(SetpointSchedule::constant(20.0), 1.5);
        let qrad_max_w = 500.0;
        let mut t = SimTime::ZERO;
        let dt = SimDuration::MINUTE * 10;
        for _ in 0..(6 * 24 * 7) {
            let demand = th.demand(t, room.temperature_c());
            room.step(dt, 5.0, qrad_max_w * demand);
            t += dt;
        }
        let temp = room.temperature_c();
        assert!(
            (18.5..20.5).contains(&temp),
            "closed loop should settle near setpoint, got {temp}"
        );
    }
}
