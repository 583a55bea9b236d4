//! Seasonal capacity pricing.
//!
//! §IV: with data furnace "the variability is also on the number of
//! computing capacity: in winter, the heat demand increases the
//! computing power that is then reduced in the summer." We model the
//! spot price of a DF core-hour as a constant-elasticity response to
//! scarcity: the scarcer the heat-driven supply relative to compute
//! demand, the higher the price, floored at marginal cost.

/// Price quote for one accounting period.
#[derive(Debug, Clone, Copy)]
pub struct PriceQuote {
    /// Clearing price, €/core-hour.
    pub price_eur_core_h: f64,
    /// Core-hours actually sold (min of supply and demand).
    pub sold_core_h: f64,
}

/// Constant-elasticity capacity pricer.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPricer {
    /// Price when supply exactly meets demand, €/core-hour.
    pub reference_price: f64,
    /// Elasticity exponent: price ∝ (demand/supply)^elasticity.
    pub elasticity: f64,
    /// Marginal-cost floor, €/core-hour.
    pub floor: f64,
    /// Scarcity cap, €/core-hour.
    pub cap: f64,
}

impl CapacityPricer {
    /// Calibrated near public cloud spot prices: reference 0.02 €/core-h,
    /// floor 0.005, cap 0.20.
    pub fn standard() -> Self {
        CapacityPricer {
            reference_price: 0.02,
            elasticity: 0.8,
            floor: 0.005,
            cap: 0.20,
        }
    }

    /// Quote a period.
    pub fn quote(&self, supply_core_h: f64, demand_core_h: f64) -> PriceQuote {
        assert!(supply_core_h >= 0.0 && demand_core_h >= 0.0);
        let price = if supply_core_h <= 0.0 {
            self.cap
        } else if demand_core_h <= 0.0 {
            self.floor
        } else {
            (self.reference_price * (demand_core_h / supply_core_h).powf(self.elasticity))
                .clamp(self.floor, self.cap)
        };
        PriceQuote {
            price_eur_core_h: price,
            sold_core_h: supply_core_h.min(demand_core_h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_market_quotes_reference() {
        let p = CapacityPricer::standard();
        let q = p.quote(1_000.0, 1_000.0);
        assert!((q.price_eur_core_h - 0.02).abs() < 1e-12);
        assert_eq!(q.sold_core_h, 1_000.0);
    }

    #[test]
    fn winter_glut_cheapens_compute() {
        // Winter: heat demand creates 4× oversupply → price drops.
        let p = CapacityPricer::standard();
        let winter = p.quote(4_000.0, 1_000.0);
        let summer = p.quote(400.0, 1_000.0);
        assert!(winter.price_eur_core_h < 0.02);
        assert!(summer.price_eur_core_h > 0.02);
        assert!(summer.price_eur_core_h > 2.0 * winter.price_eur_core_h);
    }

    #[test]
    fn price_respects_floor_and_cap() {
        let p = CapacityPricer::standard();
        assert_eq!(p.quote(1e9, 1.0).price_eur_core_h, 0.005);
        assert_eq!(p.quote(1.0, 1e9).price_eur_core_h, 0.20);
        assert_eq!(p.quote(0.0, 100.0).price_eur_core_h, 0.20);
        assert_eq!(p.quote(100.0, 0.0).price_eur_core_h, 0.005);
    }

    #[test]
    fn sold_is_min_of_supply_demand() {
        let p = CapacityPricer::standard();
        assert_eq!(p.quote(500.0, 800.0).sold_core_h, 500.0);
        assert_eq!(p.quote(800.0, 500.0).sold_core_h, 500.0);
    }

    #[test]
    fn elasticity_shapes_response() {
        let gentle = CapacityPricer {
            elasticity: 0.2,
            ..CapacityPricer::standard()
        };
        let steep = CapacityPricer {
            elasticity: 2.0,
            ..CapacityPricer::standard()
        };
        let scarcity = |p: &CapacityPricer| p.quote(500.0, 1_000.0).price_eur_core_h;
        assert!(scarcity(&steep) > scarcity(&gentle));
    }
}
