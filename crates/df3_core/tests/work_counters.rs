//! Exact work counters of the two golden snapshot configs (the ones
//! `snapshot_roundtrip.rs` pins section by section): the engine's peak
//! queue depth and event count over a full 6 h run, and the byte length
//! of the snapshot taken at 3 h.
//!
//! Wall time on a shared host is too noisy to gate; these counters are
//! exact. The peak queue depth is the one that matters most: arrivals
//! stream into the engine from the job stream, so the queue holds only
//! the work in flight. Scheduling the stream into the queue again would
//! lift it to the number of jobs (and the snapshot with it), and fail
//! here.

use df3_core::{
    FaultPlan, Platform, PlatformConfig, RecoveryPolicy, RunTo, SensorFaultKind, Window,
};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// A 6 h `small_winter` config under `plan`.
fn config(plan: FaultPlan, telemetry: bool) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(6);
    cfg.telemetry.enabled = telemetry;
    cfg.faults = plan;
    cfg
}

/// Edge, BOINC and finance load at the preset rates, from the seed.
fn jobs(cfg: &PlatformConfig) -> JobStream {
    let streams = RngStreams::new(cfg.seed);
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    )
    .merge(boinc_jobs(
        BoincConfig::standard(),
        cfg.horizon,
        &streams,
        1 << 32,
    ))
    .merge(finance_jobs(
        FinanceConfig::bank(),
        cfg.horizon,
        &streams,
        2 << 32,
    ))
}

/// `(jobs, peak_queue, events, snapshot bytes at 3 h)` for `cfg`.
fn counters(cfg: PlatformConfig) -> (usize, usize, u64, usize) {
    let js = jobs(&cfg);
    let out = Platform::new(cfg.clone()).run(&js);
    let snapshot = match Platform::new(cfg).run_to(&js, SimTime::ZERO + SimDuration::from_hours(3))
    {
        RunTo::Paused(p) => p.snapshot_bytes(),
        RunTo::Finished(_) => panic!("3 h precedes the 6 h horizon"),
    };
    (js.len(), out.peak_queue, out.events, snapshot.len())
}

#[test]
fn work_counters_are_pinned() {
    let quiet = counters(config(FaultPlan::none(), false));
    let faulted = counters(config(
        FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_cluster_outage(1, Window::from_hours(1, 2))
            .with_master_outage(Window::from_hours(2, 4))
            .with_sensor_fault(2, None, Window::from_hours(1, 4), SensorFaultKind::Dropout)
            .with_recovery(RecoveryPolicy::standard()),
        true,
    ));
    assert_eq!(quiet, (5920, 146, 11770, 244_587));
    assert_eq!(faulted, (5920, 188, 13631, 493_082));
}
