//! # dfnet — the network substrate
//!
//! §III-B: "low power networks and communication protocols (Zigbee,
//! Lora, Sigfox, Enocean etc.) are inevitable in edge computing", while
//! the DF servers themselves talk to the Qarnot middleware "by optic
//! fiber connection". The latency arguments of the DF3 model (direct vs
//! indirect local requests, edge vs cloud round-trips, vertical vs
//! horizontal offloading) are all network arguments, so this crate
//! provides:
//!
//! - [`link`]: point-to-point link models — propagation latency,
//!   serialisation at a data rate, per-message overhead.
//! - [`protocol`]: the concrete protocol catalogue (fiber, 10 GbE, home
//!   broadband, WiFi, Zigbee, LoRa, Sigfox, EnOcean, WAN) with
//!   realistic rates, latencies, and payload limits.
//! - [`lowpower`]: regulatory duty-cycle budgeting for LoRa/Sigfox
//!   (1 % duty cycle) — the constraint that makes
//!   "ship the raw audio to the cloud" impossible and local edge
//!   processing necessary.
//! - [`collective`]: allreduce/BSP cost models quantifying the
//!   conclusion's claim that tightly-coupled applications scale poorly
//!   across homes.

pub mod collective;
pub mod link;
pub mod lowpower;
pub mod protocol;

pub use link::Link;
pub use lowpower::DutyCycleBudget;
pub use protocol::Protocol;
