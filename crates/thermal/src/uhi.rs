//! Urban heat island (UHI) district model — §III-A / experiment E8.
//!
//! The paper's urban-integration worry: "a broad deployment of DF servers
//! could create or increase the intensity of urban heat island", citing
//! air-conditioner exhaust \[10\] and always-hot boilers. The counter-
//! argument is that *on-demand* heat delivery ("the heat is only produced
//! according to comfort constraints") minimises waste heat.
//!
//! We model a district as a 2-D grid of surface cells. Each cell carries
//! a temperature **anomaly** θ (K above the rural baseline) governed by
//!
//! ```text
//! dθ/dt = q/(ρ·c_p·h)  −  θ/τ  +  D·∇²θ
//! ```
//!
//! - `q`: anthropogenic *waste* heat flux into the canopy, W/m². Heat
//!   that stays inside a building (serving a comfort request that would
//!   otherwise be served by an electric heater) contributes **zero**
//!   here; only rejected/waste heat counts. This is exactly the paper's
//!   distinction between on-demand DF heating and always-on boilers or
//!   summer-mode e-radiators.
//! - `ρ·c_p·h`: heat capacity of the urban canopy air column.
//! - `τ`: dissipation time constant (radiative cooling + ventilation).
//! - `D`: horizontal eddy-diffusion coefficient.
//!
//! The solver is forward-Euler with a stability guard; the UHI intensity
//! is the mean anomaly over urban cells — the quantity the statistics
//! of Zhou et al. \[9\] describe.

use simcore::time::SimDuration;

/// Physical parameters of the canopy model.
#[derive(Debug, Clone, Copy)]
pub struct UhiParams {
    /// Cell edge length, m.
    pub cell_size_m: f64,
    /// Effective canopy air-column height, m.
    pub canopy_height_m: f64,
    /// Dissipation time constant, s.
    pub dissipation_tau_s: f64,
    /// Horizontal eddy diffusivity, m²/s.
    pub diffusivity_m2_s: f64,
}

impl UhiParams {
    /// Plausible mid-latitude city values: 100 m cells, 50 m canopy,
    /// ~6 h dissipation, 50 m²/s eddy diffusion.
    pub fn city() -> Self {
        UhiParams {
            cell_size_m: 100.0,
            canopy_height_m: 50.0,
            dissipation_tau_s: 6.0 * 3600.0,
            diffusivity_m2_s: 50.0,
        }
    }

    /// Volumetric heat capacity of the air column per unit area, J/(K·m²).
    fn column_capacity(&self) -> f64 {
        const RHO_AIR: f64 = 1.2; // kg/m³
        const CP_AIR: f64 = 1005.0; // J/(kg·K)
        RHO_AIR * CP_AIR * self.canopy_height_m
    }

    /// Largest stable forward-Euler step for this configuration.
    pub fn max_stable_step(&self) -> SimDuration {
        let diff_limit = self.cell_size_m * self.cell_size_m / (4.0 * self.diffusivity_m2_s);
        let s = diff_limit.min(self.dissipation_tau_s) * 0.5;
        SimDuration::from_secs_f64(s)
    }
}

/// A rectangular district grid of temperature anomalies.
#[derive(Debug, Clone)]
pub struct DistrictGrid {
    params: UhiParams,
    width: usize,
    height: usize,
    /// Temperature anomaly per cell, K.
    theta: Vec<f64>,
    /// Waste-heat flux per cell, W/m².
    flux: Vec<f64>,
    scratch: Vec<f64>,
}

impl DistrictGrid {
    pub fn new(params: UhiParams, width: usize, height: usize) -> Self {
        assert!(width >= 3 && height >= 3, "grid too small for a stencil");
        DistrictGrid {
            params,
            width,
            height,
            theta: vec![0.0; width * height],
            flux: vec![0.0; width * height],
            scratch: vec![0.0; width * height],
        }
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Set the waste-heat flux of a cell, W/m².
    pub fn set_flux(&mut self, x: usize, y: usize, w_per_m2: f64) {
        assert!(w_per_m2 >= 0.0, "waste heat flux cannot be negative");
        let i = self.idx(x, y);
        self.flux[i] = w_per_m2;
    }

    /// Add waste heat expressed in watts to a cell (converted to flux).
    pub fn add_waste_watts(&mut self, x: usize, y: usize, watts: f64) {
        assert!(watts >= 0.0);
        let area = self.params.cell_size_m * self.params.cell_size_m;
        let i = self.idx(x, y);
        self.flux[i] += watts / area;
    }

    /// Clear all waste-heat fluxes (call between episodes).
    pub fn clear_flux(&mut self) {
        self.flux.iter_mut().for_each(|f| *f = 0.0);
    }

    pub fn anomaly(&self, x: usize, y: usize) -> f64 {
        self.theta[self.idx(x, y)]
    }

    /// Advance the grid by `dt`, internally sub-stepping to stay stable.
    pub fn step(&mut self, dt: SimDuration) {
        assert!(!dt.is_negative());
        let max_step = self.params.max_stable_step().as_secs_f64();
        let total = dt.as_secs_f64();
        if total == 0.0 {
            return;
        }
        let n_sub = (total / max_step).ceil().max(1.0) as usize;
        let h = total / n_sub as f64;
        for _ in 0..n_sub {
            self.euler_step(h);
        }
    }

    fn euler_step(&mut self, h: f64) {
        let p = self.params;
        let cap = p.column_capacity();
        let d_over_dx2 = p.diffusivity_m2_s / (p.cell_size_m * p.cell_size_m);
        let (w, ht) = (self.width, self.height);
        for y in 0..ht {
            for x in 0..w {
                let i = y * w + x;
                let t = self.theta[i];
                // Neumann boundaries: edge cells mirror inward (the city
                // edge exchanges with rural air through dissipation only).
                let left = self.theta[if x > 0 { i - 1 } else { i + 1 }];
                let right = self.theta[if x + 1 < w { i + 1 } else { i - 1 }];
                let up = self.theta[if y > 0 { i - w } else { i + w }];
                let down = self.theta[if y + 1 < ht { i + w } else { i - w }];
                let lap = left + right + up + down - 4.0 * t;
                let dtheta = self.flux[i] / cap - t / p.dissipation_tau_s + d_over_dx2 * lap;
                self.scratch[i] = t + h * dtheta;
            }
        }
        std::mem::swap(&mut self.theta, &mut self.scratch);
    }

    /// Mean anomaly over all cells — the UHI intensity.
    pub fn uhi_intensity(&self) -> f64 {
        self.theta.iter().sum::<f64>() / self.theta.len() as f64
    }

    /// Maximum anomaly (hot-spot severity).
    pub fn peak_anomaly(&self) -> f64 {
        self.theta.iter().copied().fold(0.0, f64::max)
    }

    /// Steady-state intensity for a uniform flux, from the analytic
    /// balance `θ* = q·τ/(ρ·c_p·h)` (diffusion vanishes when uniform).
    pub fn analytic_uniform_steady_state(&self, flux_w_m2: f64) -> f64 {
        flux_w_m2 * self.params.dissipation_tau_s / self.params.column_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> DistrictGrid {
        DistrictGrid::new(UhiParams::city(), 16, 16)
    }

    #[test]
    fn no_flux_means_no_island() {
        let mut g = grid();
        g.step(SimDuration::from_hours(24));
        assert_eq!(g.uhi_intensity(), 0.0);
    }

    #[test]
    fn uniform_flux_reaches_analytic_steady_state() {
        let mut g = grid();
        let q = 10.0; // W/m² — a realistic anthropogenic flux
        for y in 0..16 {
            for x in 0..16 {
                g.set_flux(x, y, q);
            }
        }
        // Run long past the 6 h dissipation constant.
        g.step(SimDuration::from_hours(72));
        let expected = g.analytic_uniform_steady_state(q);
        let got = g.uhi_intensity();
        assert!(
            (got - expected).abs() / expected < 0.02,
            "got {got}, expected {expected}"
        );
        // Magnitude check: 10 W/m², 6 h tau, 50 m canopy → ~3.6 K.
        assert!((3.0..4.5).contains(&expected), "expected={expected}");
    }

    #[test]
    fn hotspot_diffuses_to_neighbours() {
        let mut g = grid();
        g.add_waste_watts(8, 8, 2_000_000.0); // a 2 MW always-on boiler block
        g.step(SimDuration::from_hours(12));
        let centre = g.anomaly(8, 8);
        let near = g.anomaly(9, 8);
        let far = g.anomaly(15, 15);
        assert!(
            centre > near,
            "centre {centre} hotter than neighbour {near}"
        );
        assert!(near > far, "anomaly decays with distance: {near} vs {far}");
        assert!(centre > 0.1);
    }

    #[test]
    fn anomaly_decays_after_source_removed() {
        let mut g = grid();
        g.add_waste_watts(8, 8, 1_000_000.0);
        g.step(SimDuration::from_hours(12));
        let hot = g.peak_anomaly();
        g.clear_flux();
        g.step(SimDuration::from_hours(24));
        let cooled = g.peak_anomaly();
        assert!(
            cooled < hot * 0.1,
            "after 4 dissipation constants, {cooled} should be well below {hot}"
        );
    }

    #[test]
    fn intensity_scales_linearly_with_flux() {
        let mut a = grid();
        let mut b = grid();
        for y in 0..16 {
            for x in 0..16 {
                a.set_flux(x, y, 5.0);
                b.set_flux(x, y, 10.0);
            }
        }
        a.step(SimDuration::from_hours(48));
        b.step(SimDuration::from_hours(48));
        let ratio = b.uhi_intensity() / a.uhi_intensity();
        assert!((ratio - 2.0).abs() < 0.01, "linear system: ratio {ratio}");
    }

    #[test]
    fn step_size_insensitivity_via_substepping() {
        let mut coarse = grid();
        let mut fine = grid();
        for g in [&mut coarse, &mut fine] {
            g.add_waste_watts(5, 5, 500_000.0);
        }
        coarse.step(SimDuration::from_hours(10));
        for _ in 0..600 {
            fine.step(SimDuration::MINUTE);
        }
        let (c, f) = (coarse.uhi_intensity(), fine.uhi_intensity());
        assert!(
            (c - f).abs() / f.max(1e-9) < 0.05,
            "sub-stepped coarse {c} ≈ fine {f}"
        );
    }

    #[test]
    #[should_panic]
    fn tiny_grid_rejected() {
        DistrictGrid::new(UhiParams::city(), 2, 2);
    }

    #[test]
    #[should_panic]
    fn negative_flux_rejected() {
        grid().set_flux(0, 0, -1.0);
    }
}
