//! **E20 — chaos suite: the §IV heat guarantee under composed faults.**
//!
//! §IV claims the resource-oriented DF fleet "can easily guarantee that
//! the basic services delivered by the resources (heat for instance)
//! will continue to be delivered even if there are problems". E16
//! knocks out one master; this suite composes every injector of the
//! [`df3_core::faults::FaultPlan`] — worker churn, a building-level
//! blackout, repeated master outages, link partition + brownout, and
//! sensor faults — and asserts, for *every* plan, that the fleet's
//! mean room temperature stays inside a fixed band of the fault-free
//! run while the recovery layer keeps the job ledger conserved
//! (arrived = completed + rejected + expired + abandoned + in-flight;
//! nothing silently dropped).

use df3_core::faults::{FaultPlan, SensorFaultKind, Window};
use df3_core::{Platform, PlatformConfig};
use dfnet::link::{Degradation, LinkClass};
use simcore::report::{f2, pct, Table};
use simcore::time::SimDuration;
use simcore::RngStreams;
use workloads::dcc::{boinc_jobs, BoincConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// One chaos scenario's outcome.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    pub name: &'static str,
    /// Mean fleet room temperature over the run, °C.
    pub mean_temp_c: f64,
    /// |mean − fault-free mean|, °C.
    pub temp_dev_c: f64,
    /// The declared §IV band for this scenario, °C.
    pub band_c: f64,
    pub attainment: f64,
    pub failures: u64,
    pub requeued: u64,
    pub retried: u64,
    pub abandoned: u64,
    /// Mean time to repair, hours (0 when nothing was repaired).
    pub mttr_h: f64,
    /// Edge ledger closed exactly: arrived = terminal + in-flight.
    pub conserved: bool,
}

/// Headline results of E20.
#[derive(Debug, Clone)]
pub struct Chaos {
    pub baseline_temp_c: f64,
    pub baseline_attainment: f64,
    pub cases: Vec<ChaosCase>,
}

impl Chaos {
    /// The §IV invariant over every scenario.
    pub fn all_within_band(&self) -> bool {
        self.cases.iter().all(|c| c.temp_dev_c <= c.band_c)
    }

    /// No scenario lost or invented a job.
    pub fn all_conserved(&self) -> bool {
        self.cases.iter().all(|c| c.conserved)
    }
}

/// Edge traffic plus a BOINC background keeps workers busy, so churn
/// actually orphans running slices and rejections actually happen —
/// an idle fleet would trivialise every recovery metric.
pub fn jobs_for(hours: i64, seed: u64) -> JobStream {
    let horizon = SimDuration::from_hours(hours);
    let edge = location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        horizon,
        &RngStreams::new(seed),
        0,
    );
    let mut boinc = BoincConfig::standard();
    boinc.tasks_per_hour = 400.0;
    let bg = boinc_jobs(boinc, horizon, &RngStreams::new(seed ^ 0xB01), 1_000_000);
    edge.merge(bg)
}

/// The shipped fault mixes. Windows fit the minimum 6 h horizon.
pub fn plans() -> Vec<(&'static str, f64, FaultPlan)> {
    vec![
        (
            "worker churn",
            1.0,
            FaultPlan::none()
                .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
                .with_recovery(),
        ),
        (
            "building blackout",
            1.0,
            FaultPlan::none()
                .with_cluster_outage(1, Window::from_hours(1, 3))
                .with_recovery(),
        ),
        (
            "master outages + ROC",
            0.5,
            FaultPlan::none()
                .with_master_outage(Window::from_hours(1, 2))
                .with_master_outage(Window::from_hours(3, 4))
                .with_recovery(),
        ),
        (
            "fiber cut + WAN brownout",
            0.5,
            FaultPlan::none()
                .with_link_fault(
                    LinkClass::Fiber,
                    Window::from_hours(1, 3),
                    Degradation::none(),
                    true,
                )
                .with_link_fault(
                    LinkClass::Wan,
                    Window::from_hours(1, 3),
                    Degradation::brownout(),
                    false,
                )
                .with_recovery(),
        ),
        (
            "sensor dropout + stuck-at",
            1.0,
            FaultPlan::none()
                .with_sensor_fault(0, None, Window::from_hours(1, 3), SensorFaultKind::Dropout)
                .with_sensor_fault(
                    1,
                    Some(2),
                    Window::from_hours(2, 4),
                    SensorFaultKind::StuckAt(25.0),
                )
                .with_recovery(),
        ),
        (
            "everything at once",
            1.5,
            FaultPlan::none()
                .with_churn(SimDuration::from_hours(6), SimDuration::from_secs(1_800))
                .with_cluster_outage(2, Window::from_hours(2, 4))
                .with_master_outage(Window::from_hours(1, 2))
                .with_link_fault(
                    LinkClass::Fiber,
                    Window::from_hours(3, 4),
                    Degradation::brownout(),
                    false,
                )
                .with_sensor_fault(3, None, Window::from_hours(1, 5), SensorFaultKind::Dropout)
                .with_recovery(),
        ),
    ]
}

fn run_one(plan: FaultPlan, roc: bool, hours: i64, seed: u64, jobs: &JobStream) -> ChaosCase {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(hours);
    cfg.seed = seed;
    cfg.roc_fallback_direct = roc;
    cfg.faults = plan;
    let out = Platform::new(cfg).run(jobs);
    let s = &out.stats;
    ChaosCase {
        name: "",
        mean_temp_c: s.room_temp_c.summary().mean(),
        temp_dev_c: 0.0,
        band_c: 0.0,
        attainment: s.edge_attainment(),
        failures: s.worker_failures.get(),
        requeued: s.jobs_requeued.get(),
        retried: s.jobs_retried.get(),
        abandoned: s.jobs_abandoned.get(),
        mttr_h: if s.mttr_s.count() > 0 {
            s.mttr_s.mean() / 3_600.0
        } else {
            0.0
        },
        conserved: s.edge_arrived.get() == s.edge_terminal() + s.edge_in_flight_end
            && s.dcc_arrived.get()
                == s.dcc_completed.get() + s.dcc_rejected.get() + s.dcc_in_flight_end,
    }
}

/// Run E20 over `hours` (≥ 6 so every window fits).
pub fn run(hours: i64, seed: u64) -> (Chaos, Table) {
    assert!(hours >= 6, "chaos windows need a ≥ 6 h horizon");
    let jobs = jobs_for(hours, seed);
    let base = run_one(FaultPlan::none(), false, hours, seed, &jobs);
    let mut cases = Vec::new();
    for (name, band, plan) in plans() {
        // Master-outage scenarios run with the ROC fallback — the §IV
        // posture under test; the no-fallback cliff is E16's subject.
        let roc = !plan.master_outages.is_empty();
        let mut case = run_one(plan, roc, hours, seed, &jobs);
        case.name = name;
        case.band_c = band;
        case.temp_dev_c = (case.mean_temp_c - base.mean_temp_c).abs();
        cases.push(case);
    }
    let chaos = Chaos {
        baseline_temp_c: base.mean_temp_c,
        baseline_attainment: base.attainment,
        cases,
    };
    let mut table = Table::new(&format!(
        "E20 — chaos suite over {hours} h (fault-free mean room temp {} °C)",
        f2(chaos.baseline_temp_c)
    ))
    .headers(&[
        "scenario",
        "Δtemp °C (band)",
        "attainment",
        "failures",
        "requeued",
        "retried",
        "abandoned",
        "MTTR h",
        "ledger",
    ]);
    for c in &chaos.cases {
        table.row(&[
            c.name.into(),
            format!("{} (≤ {})", f2(c.temp_dev_c), f2(c.band_c)),
            pct(c.attainment),
            c.failures.to_string(),
            c.requeued.to_string(),
            c.retried.to_string(),
            c.abandoned.to_string(),
            f2(c.mttr_h),
            if c.conserved { "closed" } else { "LEAK" }.into(),
        ]);
    }
    (chaos, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_suite_holds_the_heat_guarantee() {
        let (chaos, _) = run(6, 0xDF3_2018);
        for c in &chaos.cases {
            assert!(
                c.temp_dev_c <= c.band_c,
                "{}: Δtemp {} exceeds band {}",
                c.name,
                c.temp_dev_c,
                c.band_c
            );
            assert!(c.conserved, "{}: job ledger leaked", c.name);
        }
        assert!(chaos.all_within_band());
        assert!(chaos.all_conserved());
        // The injectors actually fired.
        let churn = &chaos.cases[0];
        assert!(churn.failures > 0 && churn.requeued > 0);
        let blackout = &chaos.cases[1];
        assert!(blackout.failures >= 16, "a whole building fails");
    }
}
