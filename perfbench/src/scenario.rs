//! The benchmark's workloads: platform shape, the job streams generated
//! from the seed, and the branch sweep's outages.
//!
//! The platform is `PlatformConfig::district_winter` with its own seed,
//! so the fleet and its weather are the same for every `--seed`; the
//! seed drives only the inputs.

use df3_core::{FaultPlan, PlatformConfig, Window};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// Job-id offsets keeping the three generated streams disjoint.
const FINANCE_ID_BASE: u64 = 100_000_000;
const BOINC_ID_BASE: u64 = 200_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DistrictWeek,
    Scale800,
    MixedFlows,
    BranchSweep,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "district_week" => Some(Workload::DistrictWeek),
            "scale_800" => Some(Workload::Scale800),
            "mixed_flows" => Some(Workload::MixedFlows),
            "branch_sweep" => Some(Workload::BranchSweep),
            _ => None,
        }
    }

    /// The workload's scenario. `smoke` shrinks the horizon to three
    /// hours, and the sweep to two branches off a one-hour warm-up.
    pub fn scenario(self, smoke: bool) -> Scenario {
        // (buildings, horizon h, edge ×, DCC ×) preset rates
        let (clusters, hours, edge_scale, dcc_scale) = match self {
            Workload::DistrictWeek => (100, 168, 1.0, 0.0),
            Workload::Scale800 => (800, 24, 8.0, 0.0),
            Workload::MixedFlows => (100, 168, 1.0, 10.0),
            Workload::BranchSweep => (100, 96, 1.0, 0.0),
        };
        let sweep = (self == Workload::BranchSweep).then_some(if smoke {
            Sweep {
                warm_hours: 1,
                branches: 2,
            }
        } else {
            Sweep {
                warm_hours: 72,
                branches: 8,
            }
        });
        Scenario {
            clusters,
            hours: if smoke { 3 } else { hours },
            edge_scale,
            dcc_scale,
            sweep,
        }
    }
}

/// Warm-up and fan-out of the branch sweep.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Sim hours run before the snapshot.
    pub warm_hours: i64,
    /// Branches restored from the snapshot per sweep.
    pub branches: u64,
}

/// One workload's platform shape and input rates.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Buildings (clusters of the preset's 10 Q.rads).
    pub clusters: usize,
    pub hours: i64,
    /// Map-serving edge load, × the preset rate.
    pub edge_scale: f64,
    /// BOINC and finance load, × the preset rates (0: no DCC work).
    pub dcc_scale: f64,
    pub sweep: Option<Sweep>,
}

impl Scenario {
    pub fn config(&self, trace: bool) -> PlatformConfig {
        let mut cfg = PlatformConfig::district_winter();
        cfg.n_clusters = self.clusters;
        cfg.horizon = SimDuration::from_hours(self.hours);
        cfg.telemetry.enabled = trace;
        cfg
    }

    /// The open-loop input: every arrival of the horizon, from `seed`.
    pub fn jobs(&self, seed: u64) -> JobStream {
        let streams = RngStreams::new(seed);
        let span = SimDuration::from_hours(self.hours);
        let mut edge = LocationServiceConfig::map_serving(Flow::EdgeIndirect);
        edge.peak_rate_per_s *= self.edge_scale;
        let jobs = location_service_jobs(edge, span, &streams, 0);
        if self.dcc_scale == 0.0 {
            return jobs;
        }
        let mut boinc = BoincConfig::standard();
        boinc.tasks_per_hour *= self.dcc_scale;
        let mut finance = FinanceConfig::bank();
        finance.batches_per_day *= self.dcc_scale;
        jobs.merge(boinc_jobs(boinc, span, &streams, BOINC_ID_BASE))
            .merge(finance_jobs(finance, span, &streams, FINANCE_ID_BASE))
    }

    /// Input arrivals the platform enters in its ledger: those before
    /// the horizon.
    pub fn arrivals(&self, jobs: &JobStream) -> u64 {
        let horizon = SimTime::ZERO + SimDuration::from_hours(self.hours);
        jobs.iter().filter(|j| j.arrival < horizon).count() as u64
    }

    /// Branch `index`'s fault plan: the base plan plus one cluster
    /// outage of 30 min to 2 h, drawn from the seed, as
    /// `df3-experiments branch` draws its own. The outage starts at
    /// least two control ticks past the snapshot point (earlier windows
    /// would rewrite warmed-up history, which `restore_branch` rejects)
    /// and at least an hour before the horizon.
    pub fn branch_plan(&self, cfg: &PlatformConfig, seed: u64, index: u64) -> FaultPlan {
        let sweep = self.sweep.expect("only the sweep has branches");
        let mut state = seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut draw = |n: u64| splitmix64(&mut state) % n;
        let warm = SimDuration::from_hours(sweep.warm_hours);
        let earliest = (warm + cfg.control_period * 2).as_secs_f64() as u64;
        let latest = (cfg.horizon.as_secs_f64() as u64 - 3_600).max(earliest);
        let start = earliest + draw(latest - earliest + 1);
        let end = start + 1_800 + draw(5_401);
        let cluster = draw(cfg.n_clusters as u64) as usize;
        cfg.faults.clone().with_cluster_outage(
            cluster,
            Window::new(
                SimDuration::from_secs(start as i64),
                SimDuration::from_secs(end as i64),
            ),
        )
    }
}

/// One SplitMix64 step: a seed-derived sequence without an RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
