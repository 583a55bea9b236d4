//! Measurement instruments used by every experiment.
//!
//! - [`Counter`]: monotone event counts.
//! - [`Summary`]: Welford mean/variance/min/max of observations.
//! - [`Histogram`]: fixed-width binned distribution with exact
//!   percentile interpolation for reporting latency distributions.
//! - [`TimeWeighted`]: time-average of a piecewise-constant signal
//!   (queue lengths, power draw, temperature).
//! - [`TimeSeries`]: (t, v) recording with per-month aggregation —
//!   Figure 4 of the paper is a monthly mean of a `TimeSeries`.

mod counter;
mod histogram;
mod summary;
mod timeseries;
mod timeweighted;

pub use counter::Counter;
pub use histogram::Histogram;
pub use summary::Summary;
pub use timeseries::{MonthlyAggregate, TimeSeries};
pub use timeweighted::TimeWeighted;
