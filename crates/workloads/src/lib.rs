//! # workloads — request generators for the three DF3 flows
//!
//! §II-C defines the DF3 processing model as three request flows:
//! *heating requests*, *Internet computing requests* (DCC), and *local
//! computing requests* (edge, direct or indirect). This crate generates
//! the two computing flows (heat demand comes from the rooms' thermal
//! model in `df3_core`), plus the concrete application workloads the
//! paper motivates:
//!
//! - [`job`]: the common [`Job`] currency (work in giga-ops,
//!   rigid core count, optional deadline, payload sizes, organisation).
//! - [`arrival`]: Poisson and non-homogeneous arrival processes
//!   (thinning), business-hour and seasonal modulation.
//! - [`render`]: 3-D rendering batches calibrated to the published 2016
//!   Qarnot numbers — 1 100 users, 600 000 images, 11 000 000 CPU-hours.
//! - [`dcc`]: other Internet flows — financial risk batches (the
//!   "major banks" of §II-A) and BOINC-style opportunistic bags.
//! - [`edge`]: location-based services (map serving, traffic
//!   estimation) and sense-compute-actuate loops.
//! - [`alarm`]: the in-situ audio alarm-detection pipeline of Durand
//!   et al. \[11\] (experiment E11).
//! - [`peak`]: peak injection (§III-B's "management of requests peak").

pub mod alarm;
pub mod arrival;
pub mod dcc;
pub mod edge;
pub mod job;
pub mod peak;
pub mod render;

pub use job::{Flow, Job, JobId};
