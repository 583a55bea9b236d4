//! Cross-crate integration: the full DF3 platform driven by mixed
//! workloads from every generator, checked for accounting invariants.

use df3::df3_core::{ArchClass, FaultPlan, Platform, PlatformConfig};
use df3::simcore::time::SimDuration;
use df3::simcore::RngStreams;
use df3::workloads::alarm::{alarm_jobs, AlarmPipeline};
use df3::workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use df3::workloads::edge::{location_service_jobs, LocationServiceConfig};
use df3::workloads::job::JobStream;
use df3::workloads::Flow;

fn mixed_workload(hours: i64, seed: u64) -> JobStream {
    let span = SimDuration::from_hours(hours);
    let streams = RngStreams::new(seed);
    let mut jobs = location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        span,
        &streams,
        0,
    );
    jobs = jobs.merge(location_service_jobs(
        LocationServiceConfig::traffic_estimation(Flow::EdgeDirect),
        span,
        &streams,
        10_000_000,
    ));
    let (alarms, _) = alarm_jobs(
        AlarmPipeline::standard(),
        span,
        &streams,
        0,
        20_000_000,
        Flow::EdgeDirect,
    );
    jobs = jobs.merge(alarms);
    jobs = jobs.merge(boinc_jobs(
        BoincConfig::standard(),
        span,
        &streams,
        30_000_000,
    ));
    jobs.merge(finance_jobs(
        FinanceConfig::bank(),
        span,
        &streams,
        40_000_000,
    ))
}

fn config(hours: i64) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(hours);
    cfg
}

#[test]
fn mixed_flows_coexist_with_high_edge_quality() {
    let jobs = mixed_workload(4, 11);
    let out = Platform::new(config(4)).run(&jobs);
    let s = &out.stats;
    assert!(
        s.edge_completed.get() > 10_000,
        "edge volume: {}",
        s.edge_completed.get()
    );
    assert!(
        s.dcc_completed.get() > 50,
        "dcc volume: {}",
        s.dcc_completed.get()
    );
    assert!(
        s.edge_attainment() > 0.9,
        "edge attainment under mixed load: {}",
        s.edge_attainment()
    );
}

#[test]
fn completions_never_exceed_arrivals() {
    let jobs = mixed_workload(3, 12);
    let arrived_by_horizon = jobs
        .window(
            df3::simcore::time::SimTime::ZERO,
            df3::simcore::time::SimTime::ZERO + SimDuration::from_hours(3),
        )
        .count() as u64;
    let out = Platform::new(config(3)).run(&jobs);
    let s = &out.stats;
    let accounted = s.edge_completed.get()
        + s.edge_rejected.get()
        + s.edge_expired.get()
        + s.dcc_completed.get()
        + s.dcc_rejected.get();
    assert!(
        accounted <= arrived_by_horizon,
        "accounted {accounted} > arrived {arrived_by_horizon}"
    );
    // The vast majority of a feasible load is accounted for by the end.
    assert!(
        accounted as f64 > 0.9 * arrived_by_horizon as f64,
        "accounted {accounted} of {arrived_by_horizon}"
    );
}

#[test]
fn determinism_across_full_stack() {
    let jobs = mixed_workload(2, 13);
    let a = Platform::new(config(2)).run(&jobs);
    let b = Platform::new(config(2)).run(&jobs);
    assert_eq!(a.events, b.events);
    assert_eq!(a.stats.edge_completed.get(), b.stats.edge_completed.get());
    assert_eq!(a.stats.dcc_completed.get(), b.stats.dcc_completed.get());
    assert_eq!(a.stats.df_total_kwh, b.stats.df_total_kwh);
    assert_eq!(
        a.stats.edge_response_ms.p99(),
        b.stats.edge_response_ms.p99()
    );
}

#[test]
fn energy_splits_are_consistent() {
    let jobs = mixed_workload(3, 14);
    let out = Platform::new(config(3)).run(&jobs);
    let s = &out.stats;
    assert!(s.df_total_kwh > 0.0);
    assert!(
        s.df_compute_kwh <= s.df_total_kwh + 1e-9,
        "compute {} > total {}",
        s.df_compute_kwh,
        s.df_total_kwh
    );
    assert!(s.pue() >= 1.0);
    assert!(s.dc_facility_kwh >= s.dc_it_kwh);
}

#[test]
fn architecture_b_isolates_edge_capacity() {
    let jobs = mixed_workload(3, 15);
    let mut cfg_b = config(3);
    cfg_b.arch = ArchClass::DedicatedEdge {
        edge_workers: 6,
        vpn_overhead: SimDuration::from_micros(400),
    };
    let out = Platform::new(cfg_b).run(&jobs);
    assert!(
        out.stats.edge_attainment() > 0.9,
        "B attainment {}",
        out.stats.edge_attainment()
    );
    // Edge work must have been served despite the partition.
    assert!(out.stats.edge_work_gops > 0.0);
    assert!(out.stats.dcc_work_gops > 0.0);
}

#[test]
fn org_accounting_covers_all_flows() {
    let jobs = mixed_workload(2, 16);
    let out = Platform::new(config(2)).run(&jobs);
    let total_served: f64 = out.stats.org_served_gops.values().sum();
    let expected = out.stats.edge_work_gops + out.stats.dcc_work_gops;
    assert!(
        (total_served - expected).abs() < 1e-6 * expected.max(1.0),
        "per-org sum {total_served} vs flow sum {expected}"
    );
    // Orgs from multiple generators are present.
    assert!(out.stats.org_served_gops.len() >= 3);
}

#[test]
fn worker_failures_degrade_gracefully() {
    use df3::simcore::time::SimTime;
    let jobs = mixed_workload(4, 17);
    // Aggressive failure injection: MTBF of 12 h per worker with 1 h
    // repairs — on a 64-worker fleet that is ~20 failures in 4 h.
    let mut cfg = config(4);
    cfg.faults =
        FaultPlan::none().with_churn(SimDuration::from_hours(12), SimDuration::from_hours(1));
    let out = Platform::new(cfg).run(&jobs);
    let s = &out.stats;
    assert!(
        s.worker_failures.get() >= 5,
        "failures should occur: {}",
        s.worker_failures.get()
    );
    // Orphaned work is requeued, not lost: completion accounting still
    // covers the large majority of the load.
    let arrived = jobs
        .window(SimTime::ZERO, SimTime::ZERO + SimDuration::from_hours(4))
        .count() as u64;
    let accounted = s.edge_completed.get()
        + s.edge_rejected.get()
        + s.edge_expired.get()
        + s.dcc_completed.get()
        + s.dcc_rejected.get();
    assert!(
        accounted as f64 > 0.85 * arrived as f64,
        "accounted {accounted} of {arrived} despite failures"
    );
    // Edge quality dips but does not collapse (spare workers absorb it).
    assert!(
        s.edge_attainment() > 0.8,
        "attainment under churn: {}",
        s.edge_attainment()
    );
}

#[test]
fn failure_free_config_reports_zero_failures() {
    let jobs = mixed_workload(2, 18);
    let out = Platform::new(config(2)).run(&jobs);
    assert_eq!(out.stats.worker_failures.get(), 0);
}
