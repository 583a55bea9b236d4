//! # dfhw — data-furnace server hardware
//!
//! Models of every server class the paper names (§II-B), plus the CPU,
//! DVFS, power, aging, and energy-accounting substrate they
//! share. A data-furnace server is "a classical server where the cooling
//! system is replaced by a heat diffusion system": electrically, all the
//! power it draws becomes heat in the room, which is the identity the
//! whole DF3 model rests on.
//!
//! - [`dvfs`]: discrete P-state ladders; power ∝ C·V²·f plus static
//!   leakage; the "laws of diminishing returns" curve of Le Sueur &
//!   Heiser \[17\] falls out of the model.
//! - [`cpu`]: a core with a P-state and utilisation, yielding compute
//!   throughput and electrical power.
//! - [`servers`]: the concrete classes — Q.rad (500 W, 3–4 CPUs),
//!   Nerdalize e-radiator (1000 W, dual pipe), Qarnot crypto-heater
//!   (650 W, 2 GPUs), Asperitas AIC24 boiler (200 CPUs, 20 kW, 10 GbE),
//!   Stimergy oil-immersed boiler (1–4 kW), and a classical datacenter
//!   node for the baselines.
//! - [`aging`]: temperature-accelerated processor wear (§III-C raises
//!   free-cooling aging as an open concern — we model it).
//! - [`energy`]: energy meters and PUE accounting (§II-A's PUE 1.026
//!   claim is reproduced in experiment E2).

pub mod aging;
pub mod cpu;
pub mod dvfs;
pub mod energy;
pub mod servers;

pub use cpu::CpuCore;
pub use dvfs::{DvfsLadder, PState};
pub use energy::{EnergyMeter, PueAccountant};
pub use servers::{ServerClass, ServerSpec, ServerState};
