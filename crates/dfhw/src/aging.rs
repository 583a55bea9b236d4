//! Temperature-accelerated processor aging.
//!
//! §III-C: "the cooling approach of DF servers might cause the
//! acceleration of processor aging and consequently, the need to replace
//! them inside DF servers." Free cooling means the silicon runs hotter
//! than in a chilled machine room. We model wear with an Arrhenius-style
//! acceleration factor: wear accrues at
//!
//! ```text
//! rate(T) = exp( (Ea/k) · (1/T_ref − 1/T) )        (T in kelvin)
//! ```
//!
//! so a die at `T_ref` wears at rate 1.0, hotter dies wear faster. A
//! part fails when accumulated wear crosses its (Weibull-distributed)
//! wear budget — replacement logistics then become a maintenance cost.

use rand::Rng;
use simcore::dist::weibull;
use simcore::time::SimDuration;

/// Arrhenius parameters of a wear mechanism.
#[derive(Debug, Clone, Copy)]
pub struct AgingParams {
    /// Activation energy over Boltzmann constant, kelvin. Typical
    /// electromigration values give Ea ≈ 0.7 eV → Ea/k ≈ 8120 K.
    pub ea_over_k: f64,
    /// Reference junction temperature at which rate = 1, °C.
    pub ref_temp_c: f64,
    /// Expected lifetime at reference temperature, years.
    pub ref_life_years: f64,
    /// Weibull shape of the lifetime distribution (>1 = wear-out).
    pub weibull_shape: f64,
}

impl AgingParams {
    /// Electromigration-dominated wear of a commodity CPU: 10 years at
    /// 65 °C junction temperature.
    pub fn commodity_cpu() -> Self {
        AgingParams {
            ea_over_k: 8_120.0,
            ref_temp_c: 65.0,
            ref_life_years: 10.0,
            weibull_shape: 3.0,
        }
    }

    /// Acceleration factor at junction temperature `temp_c` relative to
    /// the reference (1.0 at the reference, >1 when hotter).
    pub fn acceleration(&self, temp_c: f64) -> f64 {
        let t = temp_c + 273.15;
        let t_ref = self.ref_temp_c + 273.15;
        assert!(t > 0.0, "temperature below absolute zero");
        (self.ea_over_k * (1.0 / t_ref - 1.0 / t)).exp()
    }
}

/// Wear state of one processor.
#[derive(Debug, Clone, Copy)]
pub struct WearState {
    params: AgingParams,
    /// Accumulated wear in reference-years.
    wear_ref_years: f64,
    /// This part's wear budget in reference-years (sampled lifetime).
    budget_ref_years: f64,
}

impl WearState {
    /// Create with a sampled lifetime budget.
    pub fn new<R: Rng + ?Sized>(params: AgingParams, rng: &mut R) -> Self {
        // Weibull with mean ≈ ref_life: scale = life / Γ(1+1/k); for
        // k = 3, Γ(4/3) ≈ 0.8930.
        let gamma_factor = match params.weibull_shape {
            s if (s - 3.0).abs() < 1e-9 => 0.8930,
            _ => 0.9, // adequate for the shapes we use
        };
        let scale = params.ref_life_years / gamma_factor;
        let budget = weibull(rng, scale, params.weibull_shape);
        WearState {
            params,
            wear_ref_years: 0.0,
            budget_ref_years: budget,
        }
    }

    /// Deterministic variant with the exact reference lifetime (tests).
    pub fn deterministic(params: AgingParams) -> Self {
        WearState {
            params,
            wear_ref_years: params.ref_life_years,
            budget_ref_years: params.ref_life_years,
        }
        .reset()
    }

    fn reset(mut self) -> Self {
        self.wear_ref_years = 0.0;
        self
    }

    /// Accrue wear over `dt` at junction temperature `temp_c`.
    pub fn accrue(&mut self, dt: SimDuration, temp_c: f64) {
        assert!(!dt.is_negative());
        let years = dt.as_secs_f64() / (365.0 * 86_400.0);
        self.wear_ref_years += years * self.params.acceleration(temp_c);
    }

    /// Fraction of the budget consumed, ≥ 0 (may exceed 1 after failure).
    pub fn wear_fraction(&self) -> f64 {
        self.wear_ref_years / self.budget_ref_years
    }

    /// Remaining life at a constant junction temperature, years.
    pub fn remaining_life_years(&self, temp_c: f64) -> f64 {
        let remaining_ref = (self.budget_ref_years - self.wear_ref_years).max(0.0);
        remaining_ref / self.params.acceleration(temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RngStreams;

    #[test]
    fn acceleration_is_one_at_reference() {
        let p = AgingParams::commodity_cpu();
        assert!((p.acceleration(65.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hotter_wears_faster() {
        let p = AgingParams::commodity_cpu();
        let a75 = p.acceleration(75.0);
        let a85 = p.acceleration(85.0);
        assert!(a75 > 1.0 && a85 > a75);
        // Classic rule of thumb: ~2× per 10 °C in this regime.
        assert!((1.5..3.0).contains(&a75), "a(75) = {a75}");
    }

    #[test]
    fn cooler_wears_slower() {
        let p = AgingParams::commodity_cpu();
        assert!(p.acceleration(45.0) < 0.5);
    }

    #[test]
    fn wear_accrues_and_fails() {
        let mut w = WearState::deterministic(AgingParams::commodity_cpu());
        // 10 years at reference temperature exactly exhausts the budget.
        for _ in 0..10 {
            w.accrue(SimDuration::YEAR, 65.0);
        }
        assert!((w.wear_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn free_cooled_qrad_dies_sooner_than_chilled_dc() {
        // The §III-C concern, quantified: a die at 80 °C (free-cooled
        // under summer load) vs 60 °C (chilled machine room).
        let p = AgingParams::commodity_cpu();
        let mut hot = WearState::deterministic(p);
        let mut cool = WearState::deterministic(p);
        hot.accrue(SimDuration::YEAR * 5, 80.0);
        cool.accrue(SimDuration::YEAR * 5, 60.0);
        assert!(hot.wear_fraction() > 2.0 * cool.wear_fraction());
        assert!(hot.remaining_life_years(80.0) < cool.remaining_life_years(60.0));
    }

    #[test]
    fn sampled_budgets_spread_around_reference_life() {
        let streams = RngStreams::new(3);
        let mut rng = streams.stream("aging");
        let p = AgingParams::commodity_cpu();
        let budgets: Vec<f64> = (0..2000)
            .map(|_| WearState::new(p, &mut rng).budget_ref_years)
            .collect();
        let mean = budgets.iter().sum::<f64>() / budgets.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean budget {mean} ≈ 10 y");
        assert!(budgets.iter().any(|&b| b < 7.0), "some early failures");
        assert!(budgets.iter().any(|&b| b > 13.0), "some long-lived parts");
    }

    #[test]
    fn remaining_life_depends_on_future_temperature() {
        let w = WearState::deterministic(AgingParams::commodity_cpu());
        assert!(w.remaining_life_years(80.0) < w.remaining_life_years(65.0));
        assert!((w.remaining_life_years(65.0) - 10.0).abs() < 1e-9);
    }
}
