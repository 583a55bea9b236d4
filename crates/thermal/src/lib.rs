//! # thermal — buildings, weather, and city heat
//!
//! The thermal substrate of the DF3 framework. The paper's feasibility
//! arguments are thermal at heart: a data-furnace server is a space
//! heater ("the cooling system is replaced by a heat diffusion system"),
//! its compute capacity is driven by heat demand, and its urban
//! integration question is whether waste heat worsens the urban heat
//! island. This crate provides:
//!
//! - [`weather`]: a deterministic synthetic weather generator with
//!   seasonal, diurnal, and mean-reverting stochastic components,
//!   parameterised to a Paris-like climate (Qarnot's deployments).
//! - [`room`]: a lumped-capacitance (1R1C) room model with exact
//!   exponential integration — accurate at any step size.
//! - [`batch`]: the district-scale fast path — a structure-of-arrays
//!   kernel stepping every room in the fleet in one cached-decay sweep,
//!   bit-identical to [`room::Room::step`].
//! - [`thermostat`]: hysteresis and modulating thermostats with day /
//!   night setback schedules; these emit the paper's *heating request*
//!   flow.
//! - [`comfort`]: comfort metrics (time-in-band, degree-hour deficit)
//!   used to reproduce Figure 4.
//! - [`uhi`]: a 2-D urban district grid for the urban-heat-island
//!   analysis of §III-A (experiment E8).
//! - [`demand`]: heat-demand synthesis linking weather to aggregate
//!   demand (thermosensitivity), consumed by the `predict` crate.

pub mod batch;
pub mod comfort;
pub mod demand;
pub mod hotwater;
pub mod room;
pub mod thermostat;
pub mod uhi;
pub mod weather;

pub use batch::ThermalBatch;
pub use comfort::ComfortStats;
pub use room::{Room, RoomParams};
pub use thermostat::{HysteresisThermostat, ModulatingThermostat, SetpointSchedule};
pub use weather::{Weather, WeatherConfig, WeatherTable};
