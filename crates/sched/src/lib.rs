//! # sched — scheduling, offloading, fairness
//!
//! The decision-making substrate of the DF3 platform. §III-B poses the
//! scheduling questions — how to order edge and DCC work, when to
//! preempt, when to offload vertically (to the datacenter) or
//! horizontally (to a sibling cluster), and how to keep cooperation
//! between organisations fair (ref \[16\]). Each is a module here:
//!
//! - [`queue`]: ready-queue disciplines — FIFO, EDF (edge deadlines).
//! - [`preempt`]: victim selection for preempting moldable DCC work
//!   when an edge request finds the cluster full.
//! - [`offload`]: the peak-management policy of §III-B — preempt /
//!   vertical offload / horizontal offload / delay — as a pluggable
//!   decision procedure.
//! - [`fairness`]: Jain's fairness index over shared service
//!   (ref \[16\]).
//!
//! Retries and quarantine, the recovery half of fault injection, live
//! with the fault runtime in `df3_core::faults`.

pub mod fairness;
pub mod offload;
pub mod preempt;
pub mod queue;

pub use offload::{ClusterLoad, PeakAction, PeakPolicy};
pub use queue::{Discipline, ReadyQueue};
