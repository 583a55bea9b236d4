//! Platform configuration.

use crate::faults::FaultPlan;
use simcore::telemetry::TelemetryConfig;
use simcore::time::{Calendar, SimDuration};

/// The two §III-B cluster architectures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArchClass {
    /// Class A: every worker may serve edge *and* DCC requests. Pays a
    /// context-switch cost when a worker alternates flows, and shares
    /// one network (no isolation).
    SharedWorkers {
        /// Environment switch cost (container/VM swap between edge and
        /// DCC stacks).
        switch_cost: SimDuration,
    },
    /// Class B: `edge_workers` per cluster are dedicated to edge work
    /// inside a VPN; the rest serve DCC only. No switch cost, but edge
    /// capacity is fixed and the VPN adds per-request overhead.
    DedicatedEdge {
        /// Workers reserved for edge per cluster.
        edge_workers: usize,
        /// VPN encapsulation overhead per request (cf. `dfnet`).
        vpn_overhead: SimDuration,
    },
}

simcore::impl_snapshot! {
    enum ArchClass {
        0 => SharedWorkers { switch_cost },
        1 => DedicatedEdge { edge_workers, vpn_overhead },
    }
}

/// Full platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of DF clusters (buildings/districts).
    pub n_clusters: usize,
    /// Workers (Q.rads) per cluster.
    pub workers_per_cluster: usize,
    /// Architecture class.
    pub arch: ArchClass,
    /// Peak-management policy.
    pub peak_policy: sched::PeakPolicy,
    /// Control-loop period (thermostat/regulator tick).
    pub control_period: SimDuration,
    /// Datacenter cores for vertical offloading (0 = no datacenter).
    pub datacenter_cores: usize,
    /// Calendar anchoring of the simulated span.
    pub calendar: Calendar,
    /// Thermostat day setpoint, °C.
    pub setpoint_c: f64,
    /// Simulation horizon.
    pub horizon: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Resource-oriented fallback (§IV): during a master outage (see
    /// [`FaultPlan::master_outages`]), indirect requests degrade to
    /// direct ones (devices talk to the servers' uniform resource
    /// interface themselves) instead of failing.
    pub roc_fallback_direct: bool,
    /// Declarative fault-injection plan (§III-C, §IV): worker churn,
    /// building and master outages, link and sensor faults, and the
    /// recovery layer — the one place a run's faults are declared. The
    /// empty plan (the default) leaves the platform bit-identical to a
    /// build without the fault layer.
    pub faults: FaultPlan,
    /// Flight-recorder + phase-profiler switch. Disabled by default;
    /// a disabled recorder leaves the run bit-identical to a build
    /// without the telemetry layer (property-tested).
    pub telemetry: TelemetryConfig,
}

impl PlatformConfig {
    /// A small winter deployment used by most experiments: 4 clusters of
    /// 16 Q.rads, shared workers, hybrid peak policy, one-week horizon.
    pub fn small_winter() -> Self {
        PlatformConfig {
            n_clusters: 4,
            workers_per_cluster: 16,
            arch: ArchClass::SharedWorkers {
                switch_cost: SimDuration::from_secs(2),
            },
            peak_policy: sched::PeakPolicy::Hybrid,
            control_period: SimDuration::from_secs(600),
            datacenter_cores: 512,
            calendar: Calendar::NOVEMBER_EPOCH,
            setpoint_c: 20.0,
            horizon: SimDuration::from_days(7),
            seed: 0xDF3,
            roc_fallback_direct: false,
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A district-scale winter deployment (§III's "thousands of
    /// data-furnace servers heating whole neighbourhoods"): 100
    /// buildings of 10 Q.rads each — 1,000 rooms — driven by the
    /// batched thermal kernel. Same control period and calendar as
    /// [`PlatformConfig::small_winter`] so results are comparable.
    pub fn district_winter() -> Self {
        PlatformConfig {
            n_clusters: 100,
            workers_per_cluster: 10,
            datacenter_cores: 2048,
            ..Self::small_winter()
        }
    }

    /// Architecture-B variant of [`PlatformConfig::small_winter`].
    pub fn small_winter_arch_b(edge_workers: usize) -> Self {
        PlatformConfig {
            arch: ArchClass::DedicatedEdge {
                edge_workers,
                vpn_overhead: SimDuration::from_micros(400),
            },
            ..Self::small_winter()
        }
    }

    /// Total DF cores.
    pub fn total_df_cores(&self) -> usize {
        self.n_clusters * self.workers_per_cluster * 16
    }

    /// Validate the configuration; all experiment entry points call this.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_clusters == 0 || self.workers_per_cluster == 0 {
            return Err("need at least one cluster and one worker".into());
        }
        match self.arch {
            ArchClass::SharedWorkers { switch_cost } if switch_cost.is_negative() => {
                return Err("switch cost must not be negative".into());
            }
            ArchClass::SharedWorkers { .. } => {}
            ArchClass::DedicatedEdge {
                edge_workers,
                vpn_overhead,
            } => {
                if edge_workers >= self.workers_per_cluster {
                    return Err(format!(
                        "edge_workers {edge_workers} must leave DCC workers in a {}-worker cluster",
                        self.workers_per_cluster
                    ));
                }
                if edge_workers == 0 {
                    return Err("class B needs at least one dedicated edge worker".into());
                }
                if vpn_overhead.is_negative() {
                    return Err("VPN overhead must not be negative".into());
                }
            }
        }
        if self.control_period <= SimDuration::ZERO {
            return Err("control period must be positive".into());
        }
        if self.horizon <= SimDuration::ZERO {
            return Err("horizon must be positive".into());
        }
        if !self.setpoint_c.is_finite() {
            return Err(format!("setpoint {} °C is not finite", self.setpoint_c));
        }
        if self.calendar.epoch_month >= 12 {
            return Err(format!(
                "epoch month {} is not a month (0 = January .. 11 = December)",
                self.calendar.epoch_month
            ));
        }
        self.faults
            .validate(self.n_clusters, self.workers_per_cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(PlatformConfig::small_winter().validate().is_ok());
        assert!(PlatformConfig::small_winter_arch_b(4).validate().is_ok());
        assert!(PlatformConfig::district_winter().validate().is_ok());
    }

    #[test]
    fn district_is_at_least_a_thousand_qrads() {
        let c = PlatformConfig::district_winter();
        assert!(c.n_clusters * c.workers_per_cluster >= 1_000);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut c = PlatformConfig::small_winter();
        c.n_clusters = 0;
        assert!(c.validate().is_err());

        let c = PlatformConfig::small_winter_arch_b(16);
        assert!(
            c.validate().is_err(),
            "all-edge cluster leaves no DCC workers"
        );

        let c = PlatformConfig::small_winter_arch_b(0);
        assert!(c.validate().is_err());

        let mut c = PlatformConfig::small_winter();
        c.control_period = SimDuration::ZERO;
        assert!(c.validate().is_err());

        // Each of these used to pass, then panic mid-run or report a
        // negative latency.
        let mut c = PlatformConfig::small_winter();
        c.arch = ArchClass::SharedWorkers {
            switch_cost: SimDuration::from_secs(-1),
        };
        assert!(c.validate().is_err(), "negative switch cost");
        let mut c = PlatformConfig::small_winter();
        c.arch = ArchClass::DedicatedEdge {
            edge_workers: 4,
            vpn_overhead: SimDuration::from_millis(-30_000),
        };
        assert!(c.validate().is_err(), "negative VPN overhead");
        let mut c = PlatformConfig::small_winter();
        c.setpoint_c = f64::NAN;
        assert!(c.validate().is_err(), "NaN setpoint");
        let mut c = PlatformConfig::small_winter();
        c.calendar.epoch_month = 12;
        assert!(c.validate().is_err(), "a thirteenth month");

        // Fault plans are validated against the fleet shape.
        let mut c = PlatformConfig::small_winter();
        c.faults =
            FaultPlan::none().with_cluster_outage(99, crate::faults::Window::from_hours(1, 2));
        assert!(c.validate().is_err());
    }

    #[test]
    fn core_math() {
        let c = PlatformConfig::small_winter();
        assert_eq!(c.total_df_cores(), 4 * 16 * 16);
    }
}
