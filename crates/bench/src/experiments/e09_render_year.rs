//! **E9 — the 2016 Qarnot rendering year** (§III).
//!
//! Paper numbers: "the Qarnot rendering platform … had 1100 users that
//! rendered 600,000 images for 11,000,000 hours of computations",
//! against a French DF park "not exceed\[ing\] 30,000 cores". We replay a
//! scaled rendering year through the platform and check the fleet can
//! carry it: utilisation, completion rate, and the implied full-scale
//! feasibility.

use df3_core::{Platform, PlatformConfig};
use simcore::report::{f2, pct, Table};
use simcore::time::{Calendar, SimDuration};
use simcore::RngStreams;
use workloads::render::{RenderCalibration, RenderYear};

/// Headline results of E9.
#[derive(Debug, Clone)]
pub struct RenderYearResult {
    /// Scale applied to the published workload.
    pub scale: f64,
    /// Batches completed / submitted.
    pub completion: f64,
    /// CPU-hours completed (at this scale).
    pub cpu_hours_done: f64,
    /// Mean DCC slowdown.
    pub mean_slowdown: f64,
    /// Fleet cores simulated.
    pub fleet_cores: usize,
    /// Share of work that overflowed to the datacenter.
    pub dc_share: f64,
}

/// Run E9 at `scale` of the 2016 year on a fleet scaled likewise.
/// At scale 0.04: 24 000 images on ~1 200 DF cores (the same
/// work-per-core ratio as 600 k images on 30 k cores).
pub fn run(scale: f64, seed: u64) -> (RenderYearResult, Table) {
    assert!(scale > 0.0 && scale <= 1.0);
    let year = RenderYear::generate_with(
        RenderCalibration::qarnot_2016(),
        &RngStreams::new(seed),
        scale,
    );
    // Fleet sized to the French park at the same scale: 30 000 × scale
    // cores (16 cores per Q.rad → workers), spread over 4 clusters.
    let fleet_cores = ((30_000.0 * scale) as usize).max(256);
    let workers_per_cluster = (fleet_cores / 16 / 4).max(4);
    let mut cfg = PlatformConfig::small_winter();
    cfg.calendar = Calendar::JANUARY_EPOCH;
    cfg.horizon = SimDuration::YEAR;
    cfg.workers_per_cluster = workers_per_cluster;
    cfg.control_period = SimDuration::from_secs(1_800);
    cfg.peak_policy = sched::PeakPolicy::VerticalFirst;
    cfg.datacenter_cores = 512;
    cfg.seed = seed;
    let actual_cores = cfg.total_df_cores();

    let submitted = year.stream.len() as f64;
    let out = Platform::new(cfg).run(&year.stream);
    let done = out.stats.dcc_completed.get() as f64;
    let cpu_hours_done = out.stats.dcc_work_gops / 2.4 / 3_600.0;

    let result = RenderYearResult {
        scale,
        completion: done / submitted,
        cpu_hours_done,
        mean_slowdown: out.stats.dcc_slowdown.mean(),
        fleet_cores: actual_cores,
        dc_share: out.stats.dc_share(),
    };
    let mut table = Table::new(&format!(
        "E9 — the 2016 rendering year at scale {scale} (fleet {actual_cores} DF cores)"
    ))
    .headers(&["metric", "measured", "paper (full scale)"]);
    table.row(&[
        "batches completed".into(),
        pct(result.completion),
        "600 000 images served".into(),
    ]);
    table.row(&[
        "CPU-hours completed".into(),
        f2(result.cpu_hours_done),
        format!("{:.0} (scaled target)", 11_000_000.0 * scale),
    ]);
    table.row(&["mean slowdown".into(), f2(result.mean_slowdown), "—".into()]);
    table.row(&[
        "datacenter overflow share".into(),
        pct(result.dc_share),
        "hybrid design (§III-A)".into(),
    ]);
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_render_year_is_feasible() {
        let (r, _) = run(0.02, 0xE9);
        assert!(
            r.completion > 0.95,
            "the fleet must carry the year: {}",
            r.completion
        );
        // Work volume matches the calibration (±25 %: lognormal draws).
        let target = 11_000_000.0 * r.scale;
        assert!(
            (r.cpu_hours_done - target).abs() / target < 0.3,
            "CPU-hours {} vs target {}",
            r.cpu_hours_done,
            target
        );
        assert!(r.mean_slowdown < 50.0, "slowdown {}", r.mean_slowdown);
    }
}
