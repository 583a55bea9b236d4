//! # bench — the experiment harness
//!
//! One module per experiment of `DESIGN.md`'s index (E1–E14). Each
//! module exposes a `run(scale)`-style entry returning both a rendered
//! [`simcore::report::Table`] (what `df3-experiments` prints and
//! `EXPERIMENTS.md` records) and a typed result struct that the
//! integration tests assert the paper-shape claims on.
//!
//! `scale` ∈ (0, 1] shrinks horizons/fleets proportionally so the same
//! code serves Criterion micro-runs, CI tests, and full regenerations.

pub mod cli;
pub mod experiments;
pub mod run_report;
pub mod snapshot_cli;

pub use experiments::*;
