//! Unit tests of the platform: runs, faults, snapshots and branches.

use super::*;
use crate::faults::{FaultPlan, Window};
use workloads::edge::{location_service_jobs, LocationServiceConfig};

fn tiny_config() -> PlatformConfig {
    PlatformConfig {
        n_clusters: 2,
        workers_per_cluster: 4,
        horizon: SimDuration::from_hours(6),
        datacenter_cores: 64,
        ..PlatformConfig::small_winter()
    }
}

fn edge_stream(hours: i64) -> JobStream {
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        SimDuration::from_hours(hours),
        &RngStreams::new(77),
        0,
    )
}

#[test]
fn edge_requests_complete_fast_in_winter() {
    let p = Platform::new(tiny_config());
    let jobs = edge_stream(6);
    let n_jobs = jobs.len() as u64;
    let out = p.run(&jobs);
    let s = &out.stats;
    assert!(
        s.edge_completed.get() > n_jobs * 9 / 10,
        "{}/{} completed",
        s.edge_completed.get(),
        n_jobs
    );
    assert!(
        s.edge_attainment() > 0.95,
        "attainment {}",
        s.edge_attainment()
    );
    assert!(
        s.edge_response_ms.p50() < 100.0,
        "p50 {} ms should be edge-scale (compute + LAN)",
        s.edge_response_ms.p50()
    );
}

#[test]
fn dcc_overflow_reaches_datacenter() {
    use workloads::dcc::{finance_jobs, FinanceConfig};
    let mut cfg = tiny_config();
    cfg.peak_policy = sched::PeakPolicy::VerticalFirst;
    // 2×4 Q.rads = 128 cores; a heavy finance stream overflows them.
    let mut fin = FinanceConfig::bank();
    fin.batches_per_day = 600.0;
    let jobs = finance_jobs(fin, SimDuration::from_hours(6), &RngStreams::new(3), 0);
    let out = Platform::new(cfg).run(&jobs);
    assert!(out.stats.offload_vertical.get() > 0, "peaks must offload");
    assert!(out.stats.dc_share() > 0.0);
    assert!(out.stats.dcc_completed.get() > 0);
}

#[test]
fn rooms_are_heated_to_comfort() {
    // Cover a full day so the daytime setpoint (20 °C) is exercised —
    // the first 6 h are night setback (17 °C) where no warming is due.
    let mut cfg = tiny_config();
    cfg.horizon = SimDuration::from_hours(24);
    let p = Platform::new(cfg);
    let jobs = edge_stream(24);
    let out = p.run(&jobs);
    let temps = out.stats.room_temp_c.summary();
    // Starting ~17 °C, rooms must climb toward the 20 °C day setpoint.
    assert!(
        temps.max() > 18.5,
        "rooms should warm up, max mean {}",
        temps.max()
    );
    // And never run away past the setpoint band (no waste heat).
    assert!(temps.max() < 22.0, "no overshoot, got {}", temps.max());
}

#[test]
fn energy_is_accounted() {
    let p = Platform::new(tiny_config());
    let out = p.run(&edge_stream(6));
    assert!(
        out.stats.df_total_kwh > 0.5,
        "kwh {}",
        out.stats.df_total_kwh
    );
    assert!(out.stats.df_compute_kwh <= out.stats.df_total_kwh);
    assert!(out.stats.pue() >= 1.0);
}

#[test]
fn deterministic_given_seed() {
    let jobs = edge_stream(3);
    let a = Platform::new(tiny_config()).run(&jobs);
    let b = Platform::new(tiny_config()).run(&jobs);
    assert_eq!(a.events, b.events);
    assert_eq!(
        a.stats.edge_response_ms.p99(),
        b.stats.edge_response_ms.p99()
    );
    assert_eq!(a.stats.df_total_kwh, b.stats.df_total_kwh);
}

#[test]
fn preempt_policy_fires_under_pressure() {
    use workloads::dcc::{boinc_jobs, BoincConfig};
    use workloads::job::JobStream;
    let mut cfg = tiny_config();
    cfg.peak_policy = sched::PeakPolicy::Hybrid;
    cfg.datacenter_cores = 64;
    // A 2 s container swap would blow every 300 ms edge deadline on
    // preemption (that effect is measured by experiment E4); here use
    // a light swap so the preemption path itself is what's tested.
    cfg.arch = ArchClass::SharedWorkers {
        switch_cost: SimDuration::from_millis(100),
    };
    // Saturate with BOINC work, then add edge traffic.
    let mut boinc = BoincConfig::standard();
    boinc.tasks_per_hour = 4_000.0;
    boinc.mean_work_gops = 40_000.0;
    let bg = boinc_jobs(boinc, SimDuration::from_hours(6), &RngStreams::new(5), 0);
    let edge = location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        SimDuration::from_hours(6),
        &RngStreams::new(5),
        10_000_000,
    );
    let jobs = bg.merge(edge);
    let out = Platform::new(cfg).run(&jobs);
    assert!(
        out.stats.preemptions.get() > 0,
        "saturated cluster must preempt for edge"
    );
    assert!(out.stats.edge_attainment() > 0.8);
    let _ = JobStream::new(vec![]);
}

/// Run `jobs` under `cfg` with no plan and under `plan`; the two
/// runs must agree bit for bit. Returns the plan-free run.
fn assert_unperturbed(cfg: PlatformConfig, plan: FaultPlan, jobs: &JobStream) -> PlatformOutcome {
    let base = Platform::new(cfg.clone()).run(jobs);
    let planned = Platform::new(PlatformConfig {
        faults: plan,
        ..cfg
    })
    .run(jobs);
    assert_eq!(base.events, planned.events);
    assert_eq!(stats_bytes(&base.stats), stats_bytes(&planned.stats));
    base
}

/// A plan with no injector acting inside the horizon must not
/// perturb a single bit: every fault draw lives on its own RNG
/// stream, every fault code path is gated on active state, and
/// recovery acts only while the plan has an injector.
#[test]
fn inert_plan_never_perturbs_the_simulation() {
    // Every window beyond the horizon, recovery off.
    let inert = FaultPlan::none()
        .with_master_outage(Window::from_hours(1_000, 1_001))
        .with_cluster_outage(0, Window::from_hours(1_000, 1_001))
        .with_link_fault(
            LinkClass::Fiber,
            Window::from_hours(1_000, 1_001),
            dfnet::link::Degradation::brownout(),
            true,
        );
    assert_unperturbed(tiny_config(), inert, &edge_stream(6));
    // Recovery alone, on a building too small for its edge load: it
    // rejects requests without any fault, and must not retry them.
    let cfg = PlatformConfig {
        n_clusters: 1,
        workers_per_cluster: 3,
        horizon: SimDuration::from_hours(24),
        seed: 7,
        ..PlatformConfig::small_winter()
    };
    let recovery_only = FaultPlan::none().with_recovery();
    let base = assert_unperturbed(cfg, recovery_only, &edge_stream(24));
    assert!(base.stats.edge_rejected.get() > 0, "the run rejects");
}

#[test]
fn churn_with_recovery_conserves_every_job() {
    let mut cfg = tiny_config();
    cfg.faults = FaultPlan::none()
        .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
        .with_recovery();
    let jobs = edge_stream(6);
    let out = Platform::new(cfg).run(&jobs);
    let s = &out.stats;
    assert!(s.worker_failures.get() > 0, "churn must fire in 6 h");
    assert!(s.mttr_s.count() > 0, "repairs must be recorded");
    assert_eq!(
        s.edge_arrived.get(),
        s.edge_terminal() + s.edge_in_flight_end,
        "no edge job lost or duplicated"
    );
    assert!(!s.fault_timeline.is_empty());
}

#[test]
fn cluster_outage_spills_orphans_and_backfills_heat() {
    let mut cfg = tiny_config();
    cfg.faults = FaultPlan::none()
        .with_cluster_outage(0, Window::from_hours(1, 3))
        .with_recovery();
    let jobs = edge_stream(6);
    let out = Platform::new(cfg).run(&jobs);
    let s = &out.stats;
    assert_eq!(s.cluster_outages.get(), 1);
    assert!(s.worker_failures.get() >= 4, "the whole building goes dark");
    assert!(
        s.boiler_backfill_kwh > 0.0,
        "boiler must carry the dark rooms"
    );
    assert_eq!(
        s.edge_arrived.get(),
        s.edge_terminal() + s.edge_in_flight_end
    );
    // Restoration happens inside the horizon → MTTR ≈ 2 h.
    assert!(s.mttr_s.count() >= 4);
    assert!(
        (s.mttr_s.mean() - 7_200.0).abs() < 600.0,
        "MTTR {}",
        s.mttr_s.mean()
    );
}

/// Backfill covers every control period a room is dark, the last,
/// partial one included: the end of the run closes its period
/// through the same path as a tick. A 60 °C setpoint keeps the
/// thermostat demand of a backfilled room at exactly 1, so the
/// boiler energy is rooms × power × dark time, to rounding.
#[test]
fn boiler_backfill_covers_the_last_partial_period() {
    let mut cfg = tiny_config();
    cfg.setpoint_c = 60.0;
    // Six hours and seven minutes: the last period is 7 min long.
    cfg.horizon = SimDuration::from_secs(6 * 3_600 + 420);
    // Dark from 1 h 05 min to past the horizon. Backfill starts with
    // the period the outage falls in, the one opened at 1 h.
    cfg.faults = FaultPlan::none()
        .with_cluster_outage(
            0,
            Window::new(SimDuration::from_secs(3_900), SimDuration::from_hours(100)),
        )
        .with_recovery();
    // No jobs: a job would wake its worker between ticks and move
    // the start of that worker's period off the tick grid.
    let out = Platform::new(cfg.clone()).run(&JobStream::new(Vec::new()));
    let dark_s = (cfg.horizon - SimDuration::from_hours(1)).as_secs_f64();
    let want_kwh = cfg.workers_per_cluster as f64 * BACKFILL_POWER_W * dark_s / 3.6e6;
    let got = out.stats.boiler_backfill_kwh;
    assert!(
        (got - want_kwh).abs() < 1e-9 * want_kwh,
        "backfill {got} kWh, want {want_kwh} kWh"
    );
}

/// Snapshot-encode a stats block for bit-exact comparison.
fn stats_bytes(s: &PlatformStats) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    s.encode(&mut w);
    w.into_bytes()
}

fn pause_at(cfg: PlatformConfig, jobs: &JobStream, at_hours: i64) -> PausedRun {
    match Platform::new(cfg).run_to(jobs, SimTime::from_secs(at_hours * 3_600)) {
        RunTo::Paused(p) => p,
        RunTo::Finished(_) => panic!("pause point inside the horizon"),
    }
}

#[test]
fn pause_and_resume_is_bit_identical_to_a_straight_run() {
    let jobs = edge_stream(6);
    let cold = Platform::new(tiny_config()).run(&jobs);
    let paused = pause_at(tiny_config(), &jobs, 3);
    let warm = paused.resume();
    assert_eq!(cold.events, warm.events);
    assert_eq!(cold.end, warm.end);
    assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
}

#[test]
fn snapshot_restore_in_a_fresh_platform_is_bit_identical() {
    // The golden guarantee, under an ACTIVE fault plan: churn firing
    // throughout, a master outage straddling the snapshot point, and
    // the retry layer holding open chains across it.
    let mut cfg = tiny_config();
    cfg.faults = FaultPlan::none()
        .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
        .with_master_outage(Window::from_hours(2, 3))
        .with_recovery();
    let jobs = edge_stream(6);
    let cold = Platform::new(cfg.clone()).run(&jobs);
    let paused = pause_at(cfg.clone(), &jobs, 2);
    let bytes = paused.snapshot_bytes();
    // The restored run never sees the job stream: the arrivals not
    // yet dispatched travel in the snapshot's `arrivals` section.
    let warm = Platform::restore(cfg, &bytes).expect("round trip").resume();
    assert_eq!(cold.events, warm.events);
    assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
    assert!(warm.stats.worker_failures.get() > 0, "plan stayed active");
}

#[test]
fn restore_rejects_mismatched_config_or_plan() {
    let jobs = edge_stream(6);
    let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
    let mut other = tiny_config();
    other.setpoint_c += 1.0;
    assert!(Platform::restore(other, &bytes).is_err(), "config drift");
    let mut other = tiny_config();
    other.faults = FaultPlan::none().with_master_outage(Window::from_hours(4, 5));
    assert!(
        Platform::restore(other, &bytes).is_err(),
        "plan drift without restore_branch"
    );
}

#[test]
fn truncated_or_corrupted_snapshots_error_never_panic() {
    let jobs = edge_stream(6);
    let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
    for cut in [0, 1, 7, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Platform::restore(tiny_config(), &bytes[..cut]).is_err(),
            "truncation at {cut} must error"
        );
    }
    for flip in [8, 64, bytes.len() / 3, bytes.len() - 9] {
        let mut bad = bytes.clone();
        bad[flip] ^= 0x40;
        assert!(
            Platform::restore(tiny_config(), &bad).is_err(),
            "bit flip at {flip} must error"
        );
    }
}

#[test]
fn branch_restore_extends_the_fault_plan_bit_identically() {
    // Warm up under churn; branch an extra cluster outage onto the
    // snapshot. The branch must equal a cold run under the extended
    // plan, bit for bit — the basis of branch-from-snapshot sweeps.
    let base = FaultPlan::none()
        .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
        .with_recovery();
    let mut cfg = tiny_config();
    cfg.faults = base.clone();
    let jobs = edge_stream(6);
    let bytes = pause_at(cfg.clone(), &jobs, 2).snapshot_bytes();

    let mut branch_cfg = cfg.clone();
    branch_cfg.faults = base
        .clone()
        .with_cluster_outage(0, Window::from_hours(3, 4));
    let cold = Platform::new(branch_cfg.clone()).run(&jobs);
    let warm = Platform::restore_branch(&base, branch_cfg, &bytes)
        .expect("valid branch")
        .resume();
    assert_eq!(cold.events, warm.events);
    assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
    assert_eq!(warm.stats.cluster_outages.get(), 1, "branch outage fired");
}

#[test]
fn branch_restore_rejects_windows_before_the_branch_point() {
    let base = FaultPlan::none()
        .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
        .with_recovery();
    let mut cfg = tiny_config();
    cfg.faults = base.clone();
    let jobs = edge_stream(6);
    let bytes = pause_at(cfg.clone(), &jobs, 2).snapshot_bytes();
    // Starts before the snapshot: would rewrite warmed-up history.
    let mut bad = cfg.clone();
    bad.faults = base
        .clone()
        .with_cluster_outage(0, Window::from_hours(1, 3));
    assert!(Platform::restore_branch(&base, bad, &bytes).is_err());
    // Outage inside the one-tick scheduling slack is rejected too.
    let mut slack = cfg.clone();
    slack.faults = base.clone().with_cluster_outage(
        0,
        Window::new(
            SimDuration::from_secs(2 * 3_600 + 60),
            SimDuration::from_hours(3),
        ),
    );
    assert!(Platform::restore_branch(&base, slack, &bytes).is_err());
    // Dropping a base injector is not an extension.
    let mut dropped = cfg;
    dropped.faults = FaultPlan::none().with_recovery();
    assert!(Platform::restore_branch(&base, dropped, &bytes).is_err());
}

#[test]
fn quarantine_fires_inside_window_only() {
    let mut books = FaultRuntime::new(&FaultPlan::none(), 1, 2);
    let t0 = SimTime::ZERO;
    let t10 = t0 + SimDuration::from_secs(600);
    assert!(!books.record_failure(0, t0));
    assert!(!books.record_failure(0, t10));
    // The third failure within the (closed) window quarantines.
    assert!(books.record_failure(0, t0 + QUARANTINE_WINDOW));
    // A different slot is independent.
    assert!(!books.record_failure(1, t0 + QUARANTINE_WINDOW));
    // Just past a window after the second failure, the first two have
    // slid out.
    assert!(!books.record_failure(0, t10 + QUARANTINE_WINDOW + SimDuration::SECOND));
}

#[test]
fn retry_layer_reclaims_master_outage_rejections() {
    // Indirect edge requests during a master outage are rejected;
    // with retries enabled, requests arriving just before the
    // window's end get re-submitted after it and complete.
    let mut cfg = tiny_config();
    cfg.faults = FaultPlan::none()
        .with_master_outage(Window::from_hours(1, 2))
        .with_recovery();
    let jobs = edge_stream(6);
    let with_retry = Platform::new(cfg.clone()).run(&jobs);
    cfg.faults.recovery = false;
    let without = Platform::new(cfg).run(&jobs);
    assert!(with_retry.stats.jobs_retried.get() > 0);
    assert!(
        with_retry.stats.jobs_abandoned.get() > 0,
        "sub-second deadlines abandon most chains mid-outage"
    );
    assert!(without.stats.jobs_retried.get() == 0);
    let s = &with_retry.stats;
    assert_eq!(
        s.edge_arrived.get(),
        s.edge_terminal() + s.edge_in_flight_end
    );
}
