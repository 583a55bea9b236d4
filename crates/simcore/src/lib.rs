//! # simcore — deterministic discrete-event simulation engine
//!
//! The substrate for the whole DF3 framework. Every other crate builds on
//! the primitives here:
//!
//! - [`time`]: virtual time ([`SimTime`], [`SimDuration`]) with calendar
//!   helpers (the paper's arguments are seasonal, so month arithmetic is
//!   first-class).
//! - [`event`]: a deterministic future-event list (stable FIFO tie-break).
//! - [`engine`]: the [`Engine`] driving a user [`Model`].
//! - [`rng`]: named, seed-derived random streams so adding a stream never
//!   perturbs existing ones (common random numbers across experiments).
//! - [`dist`]: distribution samplers (exponential, normal, Pareto, …)
//!   implemented locally so results are reproducible bit-for-bit.
//! - [`metrics`]: counters, histograms, time integrals, percentile
//!   estimation, Welford summaries.
//! - [`report`]: plain-text table rendering used by the experiment harness.
//! - [`snapshot`]: versioned, checksummed checkpoint codec — the
//!   [`Snapshot`] trait plus the `DF3SNAP` section
//!   container behind deterministic checkpoint/restore and
//!   branch-from-snapshot sweeps.
//! - [`telemetry`]: the flight recorder (interned tags, typed fields,
//!   capped ring buffer), wall-clock phase profiler, and the export
//!   back-ends (Chrome trace-event JSON, Prometheus text, JSON
//!   validation) behind the run reporters.
//!
//! ## Determinism contract
//!
//! Given the same master seed and model, a simulation produces the same
//! event sequence on every run and platform. This is enforced by: a stable
//! event-queue tie-break (insertion sequence), ChaCha-based RNGs, and no
//! wall-clock or address-dependent behaviour anywhere in the engine.

pub mod dist;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod snapshot;
pub mod telemetry;
pub mod time;

pub use engine::{Engine, Model, Scheduler};
pub use event::EventQueue;
pub use rng::RngStreams;
pub use snapshot::{Snapshot, SnapshotError, SnapshotFile, SnapshotReader, SnapshotWriter};
pub use telemetry::{Telemetry, TelemetryConfig};
pub use time::{SimDuration, SimTime};
