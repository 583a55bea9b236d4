//! # df3_core — Data Furnace in Three Flows
//!
//! The paper's primary contribution (§II-C, Figures 3 and 5): one
//! platform that services **heating requests**, **Internet (DCC)
//! computing requests**, and **local edge computing requests** (direct
//! and indirect) from the same fleet of data-furnace servers.
//!
//! - [`regulator`]: the per-server DVFS heat regulator of §III-B —
//!   translate a thermostat's heat demand into a power budget, a
//!   P-state, a usable-core count, and (when no compute is available)
//!   a resistive-backup share.
//! - [`worker`]: one DF server in one room — server power heats the
//!   room, the thermostat closes the loop, cores run jobs.
//! - [`cluster`]: a gateway-fronted cluster of workers implementing
//!   both §III-B architectures: class A (shared workers, context-switch
//!   and isolation costs) and class B (dedicated edge workers in a VPN).
//! - [`datacenter`]: the remote overflow tier for vertical offloading
//!   and the hybrid §III-A design.
//! - [`platform`]: the discrete-event model wiring weather, rooms,
//!   clusters, datacenter, request flows, policies, and metrics.
//! - [`stats`]: everything the experiments measure.
//! - [`smartgrid`]: the smart-grid manager of §III-A — monthly capacity
//!   offers negotiated from predicted heat demand.
//! - [`boiler`]: the digital-boiler variant of §II-B/§III-C — DHW
//!   tanks give stable year-round capacity, always-on mode trades it
//!   for waste heat.
//! - [`faults`]: deterministic fault injection and recovery (§IV) —
//!   declarative [`FaultPlan`]s composing worker churn, cluster
//!   blackouts, master outages, link faults, and sensor faults, plus
//!   retry/quarantine/boiler-backfill recovery.
//! - [`config`]: platform configuration presets.
//! - [`report`]: run exporters — JSONL report, Chrome trace-event
//!   timeline, Prometheus text snapshot — over one run's stats, flight
//!   recorder, and phase profiler.

mod arrivals;
pub mod boiler;
pub mod cluster;
pub mod config;
pub mod datacenter;
pub mod faults;
pub mod platform;
pub mod regulator;
pub mod report;
pub mod smartgrid;
pub mod stats;
pub mod worker;

pub use config::{ArchClass, PlatformConfig};
pub use faults::{FaultPlan, SensorFaultKind, Window};
pub use platform::{PausedRun, Platform, PlatformOutcome, RunTo};
pub use regulator::{HeatRegulator, RegulatorDecision, RegulatorTable};
pub use report::{ExportOptions, RunReport};
