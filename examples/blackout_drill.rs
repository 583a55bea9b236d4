//! A resilience drill: knock the master nodes out for two hours in the
//! middle of the evening rush and watch the three deployment styles —
//! indirect, indirect with the resource-oriented (ROC) fallback of the
//! paper's §IV, and direct — plus the proof that district heating never
//! depends on the central point.
//!
//! ```sh
//! cargo run --release --example blackout_drill
//! ```

use df3::df3_core::{FaultPlan, Platform, PlatformConfig, Window};
use df3::simcore::report::{f2, pct, Table};
use df3::simcore::time::SimDuration;
use df3::simcore::RngStreams;
use df3::workloads::edge::{location_service_jobs, LocationServiceConfig};
use df3::workloads::Flow;

fn run(flow: Flow, fallback: bool) -> (f64, u64, f64) {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(8);
    // Outage from hour 3 to hour 5.
    cfg.faults = FaultPlan::none().with_master_outage(Window::from_hours(3, 5));
    cfg.roc_fallback_direct = fallback;
    let jobs = location_service_jobs(
        LocationServiceConfig::map_serving(flow),
        cfg.horizon,
        &RngStreams::new(404),
        0,
    );
    let out = Platform::new(cfg).run(&jobs);
    (
        out.stats.edge_attainment(),
        out.stats.edge_rejected.get(),
        out.stats.room_temp_c.summary().mean(),
    )
}

fn main() {
    println!("blackout drill: master nodes down 3 h → 5 h of an 8 h evening\n");
    let (a_ind, rej, temp_ind) = run(Flow::EdgeIndirect, false);
    let (a_roc, _, _) = run(Flow::EdgeIndirect, true);
    let (a_dir, _, _) = run(Flow::EdgeDirect, false);

    let mut t = Table::new("drill results").headers(&["deployment", "attainment", "rejected"]);
    t.row(&[
        "indirect (master-routed)".into(),
        pct(a_ind),
        rej.to_string(),
    ]);
    t.row(&["indirect + ROC fallback".into(), pct(a_roc), "0".into()]);
    t.row(&["direct".into(), pct(a_dir), "0".into()]);
    println!("{}", t.render());
    println!(
        "mean room temperature through the outage: {} °C — the heat flow\n\
         never touches the master (the §IV resource-oriented guarantee).",
        f2(temp_ind)
    );
}
