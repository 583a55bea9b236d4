//! Domestic hot water (DHW) demand and storage tanks.
//!
//! §III-C: "With digital boilers, the problem [capacity instability]
//! might not be important because we can continue to produce hot water
//! independently of heating requests. However, this will generate
//! waste heat." Hot water is drawn all year (morning and evening
//! peaks, mild seasonal variation), so a boiler-backed fleet has a far
//! flatter capacity profile than heater-backed rooms — at the price of
//! summer waste heat if it keeps computing past the tank's needs.

use rand::Rng;
use simcore::dist::normal;
use simcore::time::{SimDuration, SimTime};

/// Specific heat of water, J/(kg·K) (1 litre ≈ 1 kg).
pub const WATER_CP: f64 = 4_186.0;

/// A building's DHW draw profile.
#[derive(Debug, Clone, Copy)]
pub struct DhwProfile {
    /// Dwellings served by the tank.
    pub n_dwellings: usize,
    /// Mean hot-water use per dwelling per day, litres.
    pub litres_per_dwelling_day: f64,
    /// Cold-inlet temperature, °C.
    pub inlet_c: f64,
    /// Delivery temperature, °C.
    pub delivery_c: f64,
    /// Relative day-to-day noise on the draw volume.
    pub noise_rel_std: f64,
}

impl DhwProfile {
    /// French residential averages: ~50 l/dwelling/day at 55 °C from a
    /// 12 °C inlet.
    pub fn residential(n_dwellings: usize) -> Self {
        DhwProfile {
            n_dwellings,
            litres_per_dwelling_day: 50.0,
            inlet_c: 12.0,
            delivery_c: 55.0,
            noise_rel_std: 0.15,
        }
    }

    /// Diurnal draw weighting (integrates to 1 over 24 h): morning and
    /// evening peaks, quiet nights.
    pub fn diurnal_weight(t: SimTime) -> f64 {
        let h = t.hour_of_day();
        let w = if (6.0..9.0).contains(&h) {
            2.8
        } else if (18.0..22.0).contains(&h) {
            2.2
        } else if (9.0..18.0).contains(&h) {
            0.7
        } else {
            0.15
        };
        // Normalise: 3 h × 2.8 + 4 h × 2.2 + 9 h × 0.7 + 8 h × 0.15 = 24.7 ≈ 24 h·mean.
        w / (24.7 / 24.0)
    }

    /// Mild seasonality: inlet water is colder and draws slightly larger
    /// in winter (factor ≈ 1.15 mid-January, ≈ 0.85 mid-July for a
    /// January-epoch calendar).
    pub fn seasonal_factor(t: SimTime) -> f64 {
        let doy = t.as_days_f64() % 365.0;
        1.0 + 0.15 * (2.0 * std::f64::consts::PI * (doy - 15.0) / 365.0).cos()
    }

    /// Mean thermal power to serve the draw over a window starting at
    /// `t` (noise-free), W.
    pub fn mean_power_w(&self, t: SimTime) -> f64 {
        let litres_per_s = self.n_dwellings as f64 * self.litres_per_dwelling_day / 86_400.0;
        litres_per_s
            * Self::diurnal_weight(t)
            * Self::seasonal_factor(t)
            * WATER_CP
            * (self.delivery_c - self.inlet_c)
    }

    /// Sample the thermal power drawn over a step at `t`, W.
    pub fn sample_power_w<R: Rng + ?Sized>(&self, rng: &mut R, t: SimTime) -> f64 {
        (self.mean_power_w(t) * (1.0 + normal(rng, 0.0, self.noise_rel_std))).max(0.0)
    }
}

/// A stratification-free hot-water storage tank.
#[derive(Debug, Clone, Copy)]
pub struct WaterTank {
    /// Volume, litres.
    pub volume_l: f64,
    /// Current mean temperature, °C.
    temp_c: f64,
    /// Standing-loss coefficient, W/K (tank → ambient).
    pub loss_w_per_k: f64,
    /// Ambient (plant-room) temperature, °C.
    pub ambient_c: f64,
    /// Maximum storage temperature (hardware limit), °C.
    pub max_c: f64,
}

impl WaterTank {
    /// A 1 000 l building tank: 2.5 W/K standing losses, 85 °C cap.
    pub fn building_tank(volume_l: f64, initial_c: f64) -> Self {
        assert!(volume_l > 0.0);
        WaterTank {
            volume_l,
            temp_c: initial_c,
            loss_w_per_k: 2.5,
            ambient_c: 18.0,
            max_c: 85.0,
        }
    }

    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Heat capacity, J/K.
    pub fn capacity_j_per_k(&self) -> f64 {
        self.volume_l * WATER_CP
    }

    /// Advance the tank by `dt` with `heat_in_w` from the servers and
    /// `draw_w` of thermal power leaving with the hot water. Heat
    /// beyond the temperature cap is rejected; returns the rejected
    /// (waste) power, W.
    pub fn step(&mut self, dt: SimDuration, heat_in_w: f64, draw_w: f64) -> f64 {
        assert!(heat_in_w >= 0.0 && draw_w >= 0.0);
        let dt_s = dt.as_secs_f64();
        if dt_s == 0.0 {
            return 0.0;
        }
        let losses_w = self.loss_w_per_k * (self.temp_c - self.ambient_c).max(0.0);
        let net_w = heat_in_w - draw_w - losses_w;
        let mut new_temp = self.temp_c + net_w * dt_s / self.capacity_j_per_k();
        let mut waste_w = 0.0;
        if new_temp > self.max_c {
            // Energy that would push past the cap is rejected.
            waste_w = (new_temp - self.max_c) * self.capacity_j_per_k() / dt_s;
            new_temp = self.max_c;
        }
        // A fully drawn tank cannot go below the inlet temperature.
        self.temp_c = new_temp.max(10.0);
        waste_w
    }

    /// Demand signal in [0, 1]: 1 when cold, fading to 0 at the target.
    pub fn demand(&self, target_c: f64, full_gap_k: f64) -> f64 {
        assert!(full_gap_k > 0.0);
        ((target_c - self.temp_c) / full_gap_k).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RngStreams;

    #[test]
    fn draw_profile_has_morning_and_evening_peaks() {
        let at = |h: i64| DhwProfile::diurnal_weight(SimTime::ZERO + SimDuration::from_hours(h));
        assert!(at(7) > 2.0 * at(12));
        assert!(at(19) > 2.0 * at(12));
        assert!(at(3) < 0.3);
        // Integral ≈ 1 over the day.
        let total: f64 = (0..24).map(at).sum::<f64>() / 24.0;
        assert!((total - 1.0).abs() < 0.05, "mean weight {total}");
    }

    #[test]
    fn seasonal_swing_is_mild_compared_to_space_heating() {
        let jan = DhwProfile::seasonal_factor(SimTime::ZERO + SimDuration::from_days(15));
        let jul = DhwProfile::seasonal_factor(SimTime::ZERO + SimDuration::from_days(196));
        assert!(jan > 1.1 && jan < 1.2);
        assert!(jul < 0.9 && jul > 0.8);
        // Space heating swings ~∞ (zero in summer); DHW swings ~1.35×.
        assert!(jan / jul < 1.5);
    }

    #[test]
    fn mean_power_magnitude_is_realistic() {
        // 20 dwellings × 50 l/day × 43 K: mean ≈ 20×50×4186×43/86400 ≈ 2.1 kW.
        let p = DhwProfile::residential(20);
        let mut day_mean = 0.0;
        for h in 0..24 {
            day_mean += p.mean_power_w(SimTime::ZERO + SimDuration::from_hours(h));
        }
        day_mean /= 24.0;
        assert!(
            (1_500.0..3_000.0).contains(&day_mean),
            "mean DHW power {day_mean} W"
        );
    }

    #[test]
    fn tank_heats_and_draws_conserve_energy() {
        let mut tank = WaterTank::building_tank(1_000.0, 40.0);
        let before = tank.temp_c();
        // 5 kW in, nothing out, negligible losses for 1 h → ΔT = 5e3·3600/(1e6·4.186) ≈ 4.3 K.
        tank.step(SimDuration::HOUR, 5_000.0, 0.0);
        let dt = tank.temp_c() - before;
        assert!((dt - 4.2).abs() < 0.3, "ΔT {dt}");
        // Drawing the same power pulls it back down.
        tank.step(SimDuration::HOUR, 0.0, 5_000.0);
        assert!((tank.temp_c() - before).abs() < 0.3);
    }

    #[test]
    fn overheating_is_rejected_as_waste() {
        let mut tank = WaterTank::building_tank(100.0, 84.0);
        let waste = tank.step(SimDuration::HOUR, 20_000.0, 0.0);
        assert_eq!(tank.temp_c(), 85.0);
        assert!(waste > 15_000.0, "most of 20 kW is waste: {waste}");
    }

    #[test]
    fn demand_signal_shapes_like_thermostat() {
        let tank = WaterTank::building_tank(1_000.0, 50.0);
        assert_eq!(tank.demand(50.0, 5.0), 0.0);
        assert!((tank.demand(52.5, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(tank.demand(60.0, 5.0), 1.0);
    }

    #[test]
    fn sampled_power_is_noisy_but_unbiased() {
        let p = DhwProfile::residential(20);
        let mut rng = RngStreams::new(5).stream("dhw");
        let t = SimTime::ZERO + SimDuration::from_hours(7);
        let mean_expected = p.mean_power_w(t);
        let mean_sampled: f64 = (0..2_000)
            .map(|_| p.sample_power_w(&mut rng, t))
            .sum::<f64>()
            / 2_000.0;
        assert!((mean_sampled - mean_expected).abs() / mean_expected < 0.05);
    }
}
