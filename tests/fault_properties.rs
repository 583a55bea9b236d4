//! Property tests on the fault-injection engine (PR 3).
//!
//! Three invariants the chaos machinery must hold for *any* plan:
//! exact work conservation (no job silently dropped or invented),
//! bit-identical determinism of repeated runs, and non-perturbation —
//! an inert plan (every window beyond the horizon, recovery disabled)
//! produces bit-identical output to no plan at all.

use df3::df3_core::faults::{FaultPlan, SensorFaultKind, Window};
use df3::df3_core::{Platform, PlatformConfig, PlatformOutcome};
use df3::dfnet::link::{Degradation, LinkClass};
use df3::simcore::time::SimDuration;
use df3::simcore::RngStreams;
use df3::workloads::edge::{location_service_jobs, LocationServiceConfig};
use df3::workloads::job::JobStream;
use df3::workloads::Flow;
use proptest::prelude::*;

/// A deliberately tiny fleet: 2 buildings × 3 Q.rads over a short
/// horizon, so 128 proptest cases stay fast while still exercising
/// churn, outages, spillover and retries.
fn tiny_config(hours: i64, seed: u64) -> PlatformConfig {
    PlatformConfig {
        n_clusters: 2,
        workers_per_cluster: 3,
        horizon: SimDuration::from_hours(hours),
        datacenter_cores: 32,
        seed,
        ..PlatformConfig::small_winter()
    }
}

fn edge_stream(hours: i64, seed: u64) -> JobStream {
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        SimDuration::from_hours(hours),
        &RngStreams::new(seed),
        0,
    )
}

/// Build a random-but-valid plan from proptest draws. `mask` switches
/// each injector on or off, so the suite covers every combination from
/// the empty plan to everything-at-once.
#[allow(clippy::too_many_arguments)]
fn random_plan(
    mask: u32,
    mtbf_mins: i64,
    repair_s: i64,
    out_start_h: i64,
    out_len_h: i64,
    stuck_c: f64,
    recovery_on: bool,
    hours: i64,
) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if mask & 1 != 0 {
        plan = plan.with_churn(
            SimDuration::from_secs(mtbf_mins * 60),
            SimDuration::from_secs(repair_s),
        );
    }
    if mask & 2 != 0 {
        let end = (out_start_h + out_len_h).min(hours);
        plan = plan.with_cluster_outage(1, Window::from_hours(out_start_h, end));
    }
    if mask & 4 != 0 {
        plan = plan.with_master_outage(Window::from_hours(0, 1));
    }
    if mask & 8 != 0 {
        plan = plan.with_link_fault(
            LinkClass::Fiber,
            Window::from_hours(0, hours),
            Degradation::brownout(),
            mask & 16 != 0,
        );
    }
    if mask & 32 != 0 {
        plan = plan.with_sensor_fault(
            0,
            None,
            Window::from_hours(0, hours),
            if mask & 64 != 0 {
                SensorFaultKind::StuckAt(stuck_c)
            } else {
                SensorFaultKind::Dropout
            },
        );
    }
    plan.recovery = recovery_on;
    plan
}

fn run_tiny(plan: FaultPlan, hours: i64, seed: u64, roc: bool) -> PlatformOutcome {
    let mut cfg = tiny_config(hours, seed);
    cfg.roc_fallback_direct = roc;
    cfg.faults = plan;
    Platform::new(cfg).run(&edge_stream(hours, seed))
}

/// The full bit-level fingerprint of a run: event count plus every
/// float path that faults could perturb. Two runs are "the same run"
/// iff these match exactly (`==` on f64, no tolerance).
fn fingerprint(out: &PlatformOutcome) -> (u64, u64, u64, u64, f64, f64, f64, f64) {
    let s = &out.stats;
    (
        out.events,
        s.edge_completed.get(),
        s.edge_terminal(),
        s.dcc_completed.get(),
        s.df_total_kwh,
        s.room_temp_c.summary().mean(),
        s.edge_response_ms.p99(),
        s.wasted_core_s,
    )
}

proptest! {
    /// Whatever the plan, the job ledger closes exactly: every arrival
    /// is completed, rejected, expired, abandoned, or still in flight.
    /// Nothing is lost, nothing is double-counted.
    #[test]
    fn conservation_holds_under_random_fault_plans(
        mask in 0u32..128,
        mtbf_mins in 20i64..120,
        repair_s in 60i64..1800,
        out_start_h in 0i64..2,
        out_len_h in 1i64..2,
        stuck_c in 0.0f64..40.0,
        recovery_sel in 0u32..2,
    ) {
        let hours = 2;
        let plan = random_plan(
            mask, mtbf_mins, repair_s, out_start_h, out_len_h,
            stuck_c, recovery_sel == 1, hours,
        );
        let out = run_tiny(plan, hours, 0xFA01, true);
        let s = &out.stats;
        prop_assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end
        );
        prop_assert_eq!(
            s.dcc_arrived.get(),
            s.dcc_completed.get() + s.dcc_rejected.get() + s.dcc_in_flight_end
        );
        let att = s.edge_attainment();
        prop_assert!((0.0..=1.0).contains(&att), "attainment {}", att);
        prop_assert!(s.wasted_core_s >= 0.0);
    }

    /// Two runs of the same seeded config + plan are bit-identical —
    /// the whole point of *deterministic* fault injection.
    #[test]
    fn seeded_chaos_runs_are_bit_identical(
        mask in 0u32..128,
        mtbf_mins in 20i64..120,
        seed in 1u64..1_000_000,
    ) {
        let hours = 1;
        let plan = random_plan(mask, mtbf_mins, 300, 0, 1, 25.0, true, hours);
        let a = run_tiny(plan.clone(), hours, seed, false);
        let b = run_tiny(plan, hours, seed, false);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// A plan whose every window lies beyond the horizon (and whose
    /// recovery layer is disabled) must not perturb the simulation at
    /// all: same events, same floats, bit for bit. Fault RNG draws on
    /// dedicated streams, so merely *carrying* a plan is free.
    #[test]
    fn inert_plans_do_not_perturb_the_run(
        seed in 1u64..1_000_000,
        far_h in 100i64..10_000,
    ) {
        let hours = 1;
        let inert = FaultPlan::none()
            .with_cluster_outage(0, Window::from_hours(far_h, far_h + 1))
            .with_master_outage(Window::from_hours(far_h, far_h + 1))
            .with_link_fault(
                LinkClass::Wan,
                Window::from_hours(far_h, far_h + 1),
                Degradation::brownout(),
                true,
            )
            .with_sensor_fault(
                1,
                Some(0),
                Window::from_hours(far_h, far_h + 1),
                SensorFaultKind::Dropout,
            );
        let base = run_tiny(FaultPlan::none(), hours, seed, false);
        let carried = run_tiny(inert, hours, seed, false);
        prop_assert_eq!(fingerprint(&base), fingerprint(&carried));
    }
}
