//! **E16 — central-point failure and the resource-oriented fallback**
//! (§II-C, §IV).
//!
//! §II-C: indirect requests "might be preferable for security.
//! However, they imply to pay an additional latency cost" — and they
//! depend on the master. §IV: the resource-oriented view "can easily
//! guarantee that the basic services delivered by the resources (heat
//! for instance) will continue to be delivered even if there are
//! problems in the central point."
//!
//! We knock the master nodes out for two hours mid-run and measure
//! three deployments: indirect-only (no fallback), indirect with the
//! ROC direct fallback, and direct-only. Heating must be unaffected in
//! all three.

use df3_core::{FaultPlan, Platform, PlatformConfig, Window};
use simcore::report::{f2, pct, Table};
use simcore::time::SimDuration;
use simcore::RngStreams;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::Flow;

/// Headline results of E16.
#[derive(Debug, Clone)]
pub struct Resilience {
    /// Edge attainment over the whole run (outage included).
    pub indirect_no_fallback: f64,
    pub indirect_roc_fallback: f64,
    pub direct_only: f64,
    /// Requests rejected during the outage (no-fallback case).
    pub rejected_no_fallback: u64,
    /// Mean room temperature with and without the outage (must match —
    /// the §IV "heat keeps flowing" guarantee).
    pub room_temp_with_outage: f64,
    pub room_temp_without_outage: f64,
}

fn run_one(flow: Flow, outage: bool, fallback: bool, hours: i64, seed: u64) -> (f64, u64, f64) {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(hours);
    cfg.seed = seed;
    if outage {
        cfg.faults = FaultPlan::none().with_master_outage(Window::from_hours(2, 4));
    }
    cfg.roc_fallback_direct = fallback;
    let jobs = location_service_jobs(
        LocationServiceConfig::map_serving(flow),
        cfg.horizon,
        &RngStreams::new(seed),
        0,
    );
    let out = Platform::new(cfg).run(&jobs);
    (
        out.stats.edge_attainment(),
        out.stats.edge_rejected.get(),
        out.stats.room_temp_c.summary().mean(),
    )
}

/// Run E16 over `hours` with a 2 h master outage starting at hour 2.
pub fn run(hours: i64, seed: u64) -> (Resilience, Table) {
    assert!(hours > 4, "the outage window must fit the horizon");
    let (att_none, rej_none, temp_outage) = run_one(Flow::EdgeIndirect, true, false, hours, seed);
    let (att_roc, _, _) = run_one(Flow::EdgeIndirect, true, true, hours, seed);
    let (att_direct, _, _) = run_one(Flow::EdgeDirect, true, false, hours, seed);
    let (_, _, temp_normal) = run_one(Flow::EdgeIndirect, false, false, hours, seed);

    let result = Resilience {
        indirect_no_fallback: att_none,
        indirect_roc_fallback: att_roc,
        direct_only: att_direct,
        rejected_no_fallback: rej_none,
        room_temp_with_outage: temp_outage,
        room_temp_without_outage: temp_normal,
    };
    let mut table = Table::new(&format!(
        "E16 — 2 h master outage in a {hours} h run (edge attainment)"
    ))
    .headers(&["deployment", "attainment", "rejected", "note"]);
    table.row(&[
        "indirect, no fallback".into(),
        pct(result.indirect_no_fallback),
        result.rejected_no_fallback.to_string(),
        "master is a single point of failure".into(),
    ]);
    table.row(&[
        "indirect + ROC direct fallback".into(),
        pct(result.indirect_roc_fallback),
        "0".into(),
        "devices talk to resources directly (§IV)".into(),
    ]);
    table.row(&[
        "direct-only".into(),
        pct(result.direct_only),
        "0".into(),
        "never depended on the master".into(),
    ]);
    table.row(&[
        "heating during outage".into(),
        format!("{} °C", f2(result.room_temp_with_outage)),
        "—".into(),
        format!(
            "vs {} °C without outage",
            f2(result.room_temp_without_outage)
        ),
    ]);
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roc_fallback_survives_the_central_point_failure() {
        let (r, _) = run(6, 0xE16);
        // No fallback: the 2 h outage (1/3 of the run) kills ~1/3 of
        // requests.
        assert!(
            r.indirect_no_fallback < 0.75,
            "no-fallback attainment {}",
            r.indirect_no_fallback
        );
        assert!(r.rejected_no_fallback > 1_000);
        // The ROC fallback and direct-only deployments sail through.
        assert!(
            r.indirect_roc_fallback > 0.95,
            "ROC fallback attainment {}",
            r.indirect_roc_fallback
        );
        assert!(r.direct_only > 0.95);
        // §IV's guarantee: heat delivery is untouched by the outage.
        assert!(
            (r.room_temp_with_outage - r.room_temp_without_outage).abs() < 0.2,
            "heating must not depend on the master: {} vs {}",
            r.room_temp_with_outage,
            r.room_temp_without_outage
        );
    }
}
