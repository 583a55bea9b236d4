//! **E8 — urban heat island impact** (§III-A).
//!
//! The worry: "a broad deployment of DF servers could create or
//! increase the intensity of urban heat island", like air conditioners
//! \[10\] and always-hot boilers. The defence: on-demand heat ("the heat
//! is only produced according to comfort constraints") minimises waste.
//! Three district scenarios on the same 32×32 grid:
//!
//! 1. **On-demand Q.rads** — winter: all heat lands indoors (replacing
//!    electric heaters 1:1) → zero *additional* canopy flux; summer:
//!    boards are off → zero flux.
//! 2. **Always-on digital boilers** — hot water is produced year-round;
//!    in summer the surplus beyond hot-water demand is rejected.
//! 3. **e-radiators in summer mode** — full compute heat exhausted
//!    outdoors (the air-conditioner pattern).

use simcore::report::{f2, Table};
use simcore::time::SimDuration;
use thermal::uhi::{DistrictGrid, UhiParams};

/// Headline results of E8.
#[derive(Debug, Clone)]
pub struct UhiImpact {
    /// Summer UHI intensity added by each scenario, K.
    pub qrad_on_demand_k: f64,
    pub always_on_boilers_k: f64,
    pub eradiator_summer_k: f64,
    /// Peak anomaly of the worst scenario, K.
    pub worst_peak_k: f64,
}

/// Default district: 1 000 boiler-class sites of 20 kW in ~10 km².
pub const DEFAULT_SITES: usize = 1_000;
/// Default per-site IT power, W (a digital boiler).
pub const DEFAULT_UNIT_W: f64 = 20_000.0;

/// Run E8: `sites` heat sources scattered on the grid, each `unit_w`
/// watts of IT, simulated to a summer steady state.
pub fn run(sites: usize, unit_w: f64) -> (UhiImpact, Table) {
    assert!(sites > 0);
    let params = UhiParams::city();
    let settle = SimDuration::from_hours(48);
    let place = |grid: &mut DistrictGrid, watts_per_site: f64| {
        // Deterministic scatter over the grid interior.
        for s in 0..sites {
            let x = 2 + (s * 7919) % 28;
            let y = 2 + (s * 104_729) % 28;
            grid.add_waste_watts(x, y, watts_per_site);
        }
    };

    // 1. On-demand Q.rads in summer: boards off → no waste flux.
    let mut qrad = DistrictGrid::new(params, 32, 32);
    place(&mut qrad, 0.0);
    qrad.step(settle);

    // 2. Always-on boilers: summer hot-water demand absorbs ~25 % of the
    //    heat; the rest is rejected to the canopy.
    let mut boiler = DistrictGrid::new(params, 32, 32);
    place(&mut boiler, unit_w * 0.75);
    boiler.step(settle);

    // 3. e-radiators in summer mode: everything is exhausted outside.
    let mut erad = DistrictGrid::new(params, 32, 32);
    place(&mut erad, unit_w);
    erad.step(settle);

    let result = UhiImpact {
        qrad_on_demand_k: qrad.uhi_intensity(),
        always_on_boilers_k: boiler.uhi_intensity(),
        eradiator_summer_k: erad.uhi_intensity(),
        worst_peak_k: erad.peak_anomaly(),
    };
    let mut table = Table::new("E8 — added summer UHI intensity (32×32 district, 48 h settle)")
        .headers(&["scenario", "mean anomaly (K)", "note"]);
    table.row(&[
        "on-demand Q.rads".into(),
        f2(result.qrad_on_demand_k),
        "boards off; heat only on comfort request".into(),
    ]);
    table.row(&[
        "always-on digital boilers".into(),
        f2(result.always_on_boilers_k),
        "hot water absorbs ~25 %; rest rejected".into(),
    ]);
    table.row(&[
        "e-radiators (summer exhaust)".into(),
        f2(result.eradiator_summer_k),
        format!("AC-like; peak anomaly {:.2} K", result.worst_peak_k),
    ]);
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_heating_adds_no_island() {
        let (r, _) = run(DEFAULT_SITES, DEFAULT_UNIT_W);
        assert_eq!(r.qrad_on_demand_k, 0.0, "no waste heat, no island");
        assert!(r.always_on_boilers_k > 0.0);
        assert!(
            r.eradiator_summer_k > r.always_on_boilers_k,
            "full exhaust beats partial rejection: {} vs {}",
            r.eradiator_summer_k,
            r.always_on_boilers_k
        );
        // Scale check: 20 MW over ~10 km² ≈ 2 W/m² adds a fraction of a
        // kelvin — measurable, and in line with anthropogenic-flux studies.
        assert!(
            (0.1..2.0).contains(&r.eradiator_summer_k),
            "magnitude sane: {}",
            r.eradiator_summer_k
        );
    }
}
