//! Micro-datacenters (Schneider white paper, ref [23]).
//!
//! Racks distributed in the city: metro-level latency (better than the
//! cloud, slightly worse than in-building), air-cooled with small-scale
//! cooling (PUE ≈ 1.3), capacity always on and decoupled from heat
//! demand — and all of their heat is urban waste heat.

use dfnet::link::Link;
use dfnet::protocol::Protocol;
use simcore::time::SimDuration;

/// A micro-datacenter site.
#[derive(Debug, Clone, Copy)]
pub struct MicroDatacenter {
    /// Cores per site.
    pub cores: usize,
    /// Core speed, Gops/s.
    pub gops_per_core: f64,
    /// Power per busy core, W.
    pub watts_per_core: f64,
    /// Small-scale cooling overhead (PUE − 1).
    pub overhead_ratio: f64,
    /// Metro one-way latency from a device in its service area.
    pub metro_latency: SimDuration,
}

impl MicroDatacenter {
    /// A 10 kW street cabinet per ref [23]: ~320 cores, PUE 1.3, 4 ms metro.
    pub fn street_cabinet() -> Self {
        MicroDatacenter {
            cores: 320,
            gops_per_core: 3.0,
            watts_per_core: 24.0,
            overhead_ratio: 0.30,
            metro_latency: SimDuration::from_millis(4),
        }
    }

    /// One-way network path device → micro-DC.
    pub fn access_path(&self) -> Link {
        Link::new(Protocol::Wifi).with_extra_latency(self.metro_latency.as_secs_f64())
    }

    /// Response time for an interactive request of the given sizes and
    /// work, assuming an idle site (best case).
    pub fn best_case_response(
        &self,
        input_bytes: usize,
        output_bytes: usize,
        work_gops: f64,
    ) -> SimDuration {
        let link = self.access_path();
        link.transfer_time(input_bytes)
            + SimDuration::from_secs_f64(work_gops / self.gops_per_core)
            + link.transfer_time(output_bytes)
    }

    /// Facility power at a given busy-core count, W.
    pub fn facility_power_w(&self, busy_cores: usize) -> f64 {
        assert!(busy_cores <= self.cores);
        busy_cores as f64 * self.watts_per_core * (1.0 + self.overhead_ratio)
    }

    /// All the site's heat is waste heat (no heat recovery), W.
    pub fn waste_heat_w(&self, busy_cores: usize) -> f64 {
        self.facility_power_w(busy_cores)
    }

    /// PUE of the site.
    pub fn pue(&self) -> f64 {
        1.0 + self.overhead_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sits_between_building_and_cloud() {
        let m = MicroDatacenter::street_cabinet();
        let r = m.best_case_response(600, 30_000, 0.15);
        let ms = r.as_millis_f64();
        // In-building ≈ 10 ms; cloud ≈ 100+ ms; metro should be ~15-70 ms.
        assert!((10.0..80.0).contains(&ms), "micro-DC response {ms} ms");
    }

    #[test]
    fn pue_is_between_df_and_cloud() {
        let m = MicroDatacenter::street_cabinet();
        assert!(m.pue() > 1.05 && m.pue() < 1.55);
    }

    #[test]
    fn all_heat_is_waste() {
        let m = MicroDatacenter::street_cabinet();
        assert_eq!(m.waste_heat_w(100), m.facility_power_w(100));
        assert!(m.waste_heat_w(320) > 9_000.0, "a busy 10 kW cabinet");
    }

    #[test]
    #[should_panic]
    fn cannot_exceed_core_count() {
        MicroDatacenter::street_cabinet().facility_power_w(321);
    }
}
