//! # economics — seasonal pricing, tariffs, SLAs, compensation
//!
//! §IV: "data furnace introduces another dimension to classical cloud
//! pricing models: the seasonality. … in winter, the heat demand
//! increases the computing power that is then reduced in the summer.
//! We are convinced that for SLAs designers, data furnace is a field of
//! research that can still lead to very innovative proposals."
//!
//! - [`tariff`]: electricity tariffs (seasonal, peak/off-peak).
//! - [`pricing`]: capacity-indexed DF pricing — the seasonal supply
//!   curve meets a demand curve and clears a price per core-hour.
//! - [`compensation`]: the Qarnot host deal ("the hosts of DF servers
//!   do not pay electricity", §III-C) and what it is worth against a
//!   resistive electric heater.
//! - [`sla`]: availability/deadline SLOs with penalty accounting,
//!   including seasonal capacity commitments.
//! - [`mining`]: crypto-heater unit economics (§II-B.3/§IV): mining
//!   revenue plus the displaced-heating credit.

pub mod compensation;
pub mod mining;
pub mod pricing;
pub mod sla;
pub mod tariff;

pub use pricing::{CapacityPricer, PriceQuote};
pub use sla::{SlaReport, SlaTarget};
pub use tariff::Tariff;
