//! Golden corpus for placement: eight fixed 6 h `small_winter` runs
//! under edge, finance and BOINC load, each pinned by the fingerprint
//! of its snapshot-encoded stats block and its event count.
//!
//! The load is heavy enough that every cluster fills up, so each
//! `PeakPolicy` makes thousands of decisions and the five policies
//! give five different runs. Two faulted runs (hybrid and
//! horizontal-first) see a sibling view that holds a dark building (a
//! cluster outage leaves it with zero cores) and goes empty while the
//! inter-cluster fiber is partitioned; hybrid consults siblings only
//! for edge jobs it cannot preempt for, so the horizontal-first run is
//! the one that reads the view on every decision. The last run is an
//! architecture-B fleet. Any change to how loads are computed or how
//! siblings are passed to the policy must leave every value unchanged.

use df3_core::{FaultPlan, Platform, PlatformConfig, Window};
use dfnet::link::{Degradation, LinkClass};
use sched::PeakPolicy;
use simcore::snapshot::{fingerprint, Snapshot, SnapshotWriter};
use simcore::time::SimDuration;
use simcore::RngStreams;
use workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::Flow;

/// Map-serving edge load, × the preset rate.
const EDGE_SCALE: f64 = 4.0;
/// BOINC and finance load, × the preset rates.
const DCC_SCALE: f64 = 10.0;

/// `(stats fingerprint, events)` of a 6 h run of `cfg` under edge,
/// finance and BOINC load drawn from the config's seed.
fn run(mut cfg: PlatformConfig) -> (u64, u64) {
    cfg.horizon = SimDuration::from_hours(6);
    let streams = RngStreams::new(cfg.seed);
    let mut edge = LocationServiceConfig::map_serving(Flow::EdgeIndirect);
    edge.peak_rate_per_s *= EDGE_SCALE;
    let mut boinc = BoincConfig::standard();
    boinc.tasks_per_hour *= DCC_SCALE;
    let mut finance = FinanceConfig::bank();
    finance.batches_per_day *= DCC_SCALE;
    let js = location_service_jobs(edge, cfg.horizon, &streams, 0)
        .merge(boinc_jobs(boinc, cfg.horizon, &streams, 1 << 32))
        .merge(finance_jobs(finance, cfg.horizon, &streams, 2 << 32));
    let out = Platform::new(cfg).run(&js);
    let mut w = SnapshotWriter::new();
    out.stats.encode(&mut w);
    (fingerprint(&w.into_bytes()), out.events)
}

fn with_policy(policy: PeakPolicy) -> PlatformConfig {
    PlatformConfig {
        peak_policy: policy,
        ..PlatformConfig::small_winter()
    }
}

#[test]
fn placement_outcomes_are_pinned() {
    let faulted = |policy| PlatformConfig {
        faults: FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_cluster_outage(1, Window::from_hours(1, 3))
            .with_link_fault(
                LinkClass::Fiber,
                Window::from_hours(2, 4),
                Degradation::none(),
                true,
            )
            .with_recovery(),
        ..with_policy(policy)
    };
    let horizontal = PeakPolicy::HorizontalFirst {
        max_sibling_util: 0.8,
    };
    let configs = [
        ("always_delay", with_policy(PeakPolicy::AlwaysDelay)),
        ("preempt_first", with_policy(PeakPolicy::PreemptFirst)),
        ("vertical_first", with_policy(PeakPolicy::VerticalFirst)),
        ("horizontal_first", with_policy(horizontal)),
        ("hybrid", with_policy(PeakPolicy::Hybrid)),
        ("hybrid_faulted", faulted(PeakPolicy::Hybrid)),
        ("horizontal_faulted", faulted(horizontal)),
        ("arch_b", PlatformConfig::small_winter_arch_b(4)),
    ];
    // The runs are independent; one thread each keeps the debug build quick.
    let runs: Vec<(&str, (u64, u64))> = std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .into_iter()
            .map(|(name, cfg)| (name, s.spawn(move || run(cfg))))
            .collect();
        handles
            .into_iter()
            .map(|(name, h)| (name, h.join().expect("run panicked")))
            .collect()
    });
    let expected: [(&str, (u64, u64)); 8] = [
        ("always_delay", (0x46dd_c946_b837_82ab, 34865)),
        ("preempt_first", (0x08f5_d88a_7714_bd70, 52492)),
        ("vertical_first", (0xd43b_b2b8_323a_9f9f, 55120)),
        ("horizontal_first", (0xb6be_1c8b_f70b_b690, 49177)),
        ("hybrid", (0x72a3_1217_7ac0_f074, 55131)),
        ("hybrid_faulted", (0x6f76_bdd5_eb17_134d, 54733)),
        ("horizontal_faulted", (0xb7b4_c796_9dbe_bf51, 47241)),
        ("arch_b", (0xad20_f7c8_64ec_4269, 54868)),
    ];
    assert_eq!(runs, expected.to_vec());
}
