//! Lumped-capacitance (1R1C) room model.
//!
//! A room is one thermal node with capacitance `C` (J/K) coupled to the
//! outdoors through resistance `R` (K/W), receiving heater power `P_h`
//! and free internal gains `P_g` (occupants, appliances, sun):
//!
//! ```text
//! C · dT/dt = (T_out − T)/R + P_h + P_g
//! ```
//!
//! Over an interval with constant inputs the ODE has the closed form
//!
//! ```text
//! T(t+Δ) = T∞ + (T(t) − T∞)·exp(−Δ/(R·C)),   T∞ = T_out + R·(P_h + P_g)
//! ```
//!
//! which we integrate **exactly** — the simulation is therefore accurate
//! at any step size, and a step is O(1).

use simcore::time::SimDuration;

/// Thermal parameters of a room.
#[derive(Debug, Clone, Copy)]
pub struct RoomParams {
    /// Thermal resistance to outdoors, K/W. Smaller = leakier.
    pub resistance_k_per_w: f64,
    /// Thermal capacitance, J/K. Larger = slower.
    pub capacitance_j_per_k: f64,
    /// Constant internal free gains, W (occupants, appliances).
    pub internal_gains_w: f64,
}

impl RoomParams {
    /// A typical ~20 m² insulated French apartment room: steady-state
    /// loss ≈ 500 W at ΔT = 15 K (matching one Q.rad's 500 W output —
    /// the paper notes the Q.rad draw "corresponds to consumption quite
    /// reasonable if not reduced for electric heating"), time constant
    /// R·C ≈ 17 h.
    pub fn typical_apartment_room() -> Self {
        RoomParams {
            resistance_k_per_w: 0.030,  // 500 W sustains ΔT = 15 K
            capacitance_j_per_k: 2.0e6, // τ = 0.03 × 2e6 s ≈ 16.7 h
            internal_gains_w: 60.0,
        }
    }

    /// A poorly insulated room: loses heat twice as fast.
    pub fn leaky_room() -> Self {
        RoomParams {
            resistance_k_per_w: 0.015,
            ..Self::typical_apartment_room()
        }
    }

    /// A well-insulated new-build room.
    pub fn insulated_room() -> Self {
        RoomParams {
            resistance_k_per_w: 0.050,
            capacitance_j_per_k: 3.0e6,
            internal_gains_w: 60.0,
        }
    }

    /// Thermal time constant R·C.
    pub fn time_constant(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.resistance_k_per_w * self.capacitance_j_per_k)
    }

    /// Steady-state heater power needed to hold `indoor_c` against
    /// `outdoor_c` (zero if gains already suffice).
    pub fn steady_state_power_w(&self, indoor_c: f64, outdoor_c: f64) -> f64 {
        ((indoor_c - outdoor_c) / self.resistance_k_per_w - self.internal_gains_w).max(0.0)
    }
}

/// A room's thermal state.
#[derive(Debug, Clone, Copy)]
pub struct Room {
    pub params: RoomParams,
    temperature_c: f64,
}

impl Room {
    pub fn new(params: RoomParams, initial_c: f64) -> Self {
        assert!(params.resistance_k_per_w > 0.0);
        assert!(params.capacitance_j_per_k > 0.0);
        Room {
            params,
            temperature_c: initial_c,
        }
    }

    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Advance the room by `dt` with constant `outdoor_c` and constant
    /// heater output `heater_w`. Returns the new temperature.
    pub fn step(&mut self, dt: SimDuration, outdoor_c: f64, heater_w: f64) -> f64 {
        assert!(heater_w >= 0.0, "heater power cannot be negative");
        assert!(!dt.is_negative());
        let p = self.params;
        let t_inf = outdoor_c + p.resistance_k_per_w * (heater_w + p.internal_gains_w);
        let tau = p.resistance_k_per_w * p.capacitance_j_per_k;
        let decay = (-dt.as_secs_f64() / tau).exp();
        self.temperature_c = t_inf + (self.temperature_c - t_inf) * decay;
        self.temperature_c
    }

    /// Instantaneous heat loss to outdoors, W (negative means gaining).
    pub fn loss_w(&self, outdoor_c: f64) -> f64 {
        (self.temperature_c - outdoor_c) / self.params.resistance_k_per_w
    }

    /// The equilibrium temperature under constant conditions.
    pub fn equilibrium_c(&self, outdoor_c: f64, heater_w: f64) -> f64 {
        outdoor_c + self.params.resistance_k_per_w * (heater_w + self.params.internal_gains_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room_at(temp: f64) -> Room {
        Room::new(RoomParams::typical_apartment_room(), temp)
    }

    #[test]
    fn converges_to_equilibrium() {
        let mut r = room_at(10.0);
        let eq = r.equilibrium_c(5.0, 500.0);
        for _ in 0..1000 {
            r.step(SimDuration::HOUR, 5.0, 500.0);
        }
        assert!((r.temperature_c() - eq).abs() < 1e-6);
        // 500 W into a 0.03 K/W room over 5 °C outdoor: eq = 5 + 0.03*560 = 21.8
        assert!((eq - 21.8).abs() < 1e-9);
    }

    #[test]
    fn exact_integration_is_step_size_invariant() {
        let mut coarse = room_at(18.0);
        let mut fine = room_at(18.0);
        coarse.step(SimDuration::from_hours(6), 0.0, 400.0);
        for _ in 0..360 {
            fine.step(SimDuration::MINUTE, 0.0, 400.0);
        }
        assert!(
            (coarse.temperature_c() - fine.temperature_c()).abs() < 1e-9,
            "closed-form integration must not depend on step size"
        );
    }

    #[test]
    fn unheated_room_decays_toward_outdoor_plus_gains() {
        let mut r = room_at(20.0);
        for _ in 0..2000 {
            r.step(SimDuration::HOUR, 2.0, 0.0);
        }
        // Equilibrium = 2 + 0.03*60 = 3.8 °C.
        assert!((r.temperature_c() - 3.8).abs() < 1e-6);
    }

    #[test]
    fn time_constant_magnitude() {
        let tau = RoomParams::typical_apartment_room().time_constant();
        let h = tau.as_hours_f64();
        assert!((10.0..30.0).contains(&h), "τ = {h} h should be realistic");
    }

    #[test]
    fn steady_state_power_matches_qrad_sizing() {
        let p = RoomParams::typical_apartment_room();
        // Holding 20 °C against 5 °C needs ~(15/0.03 - 60) = 440 W — within
        // one 500 W Q.rad, as the paper's deployment assumes.
        let need = p.steady_state_power_w(20.0, 5.0);
        assert!((need - 440.0).abs() < 1e-9);
        assert!(need < 500.0);
        // Freezing conditions exceed a single Q.rad in a leaky room.
        let leaky = RoomParams::leaky_room().steady_state_power_w(20.0, -5.0);
        assert!(leaky > 500.0, "leaky room at -5 °C needs {leaky} W");
    }

    #[test]
    fn steady_state_power_clamps_at_zero() {
        let p = RoomParams::typical_apartment_room();
        assert_eq!(p.steady_state_power_w(15.0, 25.0), 0.0);
    }

    #[test]
    fn loss_balances_heater_at_equilibrium() {
        let mut r = room_at(15.0);
        for _ in 0..2000 {
            r.step(SimDuration::HOUR, 5.0, 300.0);
        }
        let loss = r.loss_w(5.0);
        assert!(
            (loss - (300.0 + 60.0)).abs() < 1e-6,
            "at equilibrium, loss {loss} = heater + gains"
        );
    }

    #[test]
    fn insulated_room_needs_less_power() {
        let a = RoomParams::typical_apartment_room().steady_state_power_w(20.0, 0.0);
        let b = RoomParams::insulated_room().steady_state_power_w(20.0, 0.0);
        assert!(b < a);
    }

    #[test]
    fn zero_duration_step_is_identity() {
        let mut r = room_at(17.3);
        r.step(SimDuration::ZERO, -10.0, 1000.0);
        assert_eq!(r.temperature_c(), 17.3);
    }

    #[test]
    #[should_panic]
    fn negative_heater_power_panics() {
        room_at(20.0).step(SimDuration::HOUR, 5.0, -1.0);
    }
}
