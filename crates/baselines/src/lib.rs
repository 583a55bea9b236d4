//! # baselines — the comparator systems of §V
//!
//! "There exist alternatives to DF servers for edge computing":
//! micro-datacenters (Schneider, ref \[23\]), classical clusters, private
//! clouds, CDN infrastructure — plus the two systems the paper compares
//! against throughout: the remote **cloud datacenter** and the
//! **opportunistic desktop grid** of refs [3, 5]. And, for the comfort
//! parity of Figure 4, a plain **electric resistance heater**.
//!
//! - [`cloud`]: everything (edge included) served from a remote
//!   datacenter over the WAN — the "DCC is enough" position §V argues
//!   against.
//! - [`micro_dc`]: always-on micro-datacenters distributed in the city:
//!   metro latency, air-cooled (PUE ≈ 1.3), capacity decoupled from
//!   heat demand.
//! - [`desktop_grid`]: volunteer desktops serving compute only in idle
//!   periods — the availability-churn model that made desktop grids
//!   unsuitable for "the foundations of real-time applications".
//! - [`cdn`]: a cache layer: cacheable requests hit at the edge,
//!   compute requests must still travel to the origin.
//! - [`electric_heater`]: a resistive heater + hysteresis thermostat,
//!   the comfort baseline a Q.rad must match.

pub mod cdn;
pub mod cloud;
pub mod desktop_grid;
pub mod electric_heater;
pub mod micro_dc;

pub use cloud::CloudBaseline;
pub use desktop_grid::DesktopGrid;
pub use micro_dc::MicroDatacenter;
