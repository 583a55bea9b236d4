//! Dynamic server state: cores, GPUs, power, and heat routing.

use super::spec::{HeatSink, ServerSpec};
use crate::cpu::CpuCore;

/// Season mode for dual-pipe servers (Nerdalize e-radiator): in winter
/// the processor heat goes indoors; in summer it is expelled outside —
/// the behaviour §III-A flags as an urban-heat-island contributor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeasonMode {
    Winter,
    Summer,
}

/// The live state of one server.
#[derive(Debug, Clone)]
pub struct ServerState {
    pub spec: ServerSpec,
    cores: Vec<CpuCore>,
    /// GPU utilisations in `[0, 1]`.
    gpu_util: Vec<f64>,
    pub season: SeasonMode,
}

impl ServerState {
    pub fn new(spec: ServerSpec) -> Self {
        let cores = (0..spec.n_cores())
            .map(|_| CpuCore::new(spec.ladder.clone()))
            .collect();
        let gpu_util = vec![0.0; spec.n_gpus];
        ServerState {
            spec,
            cores,
            gpu_util,
            season: SeasonMode::Winter,
        }
    }

    /// Set every core to `level` and `util` at once (uniform dispatch).
    pub fn set_all_cores(&mut self, level: usize, util: f64) {
        for c in &mut self.cores {
            c.set_level(level);
            c.set_util(util);
        }
    }

    /// Set GPU `i` utilisation.
    pub fn set_gpu_util(&mut self, i: usize, util: f64) {
        assert!((0.0..=1.0).contains(&util));
        self.gpu_util[i] = util;
    }

    /// Electrical power drawn now, W.
    pub fn power_w(&self) -> f64 {
        let cpus: f64 = self.cores.iter().map(|c| c.power_w()).sum();
        let gpus: f64 = self
            .gpu_util
            .iter()
            .map(|&u| self.spec.gpu_idle_w + u * (self.spec.gpu_max_w - self.spec.gpu_idle_w))
            .sum();
        self.spec.overhead_w + cpus + gpus
    }

    /// Heat delivered to the *useful* sink (room or water loop), W.
    ///
    /// All drawn power becomes heat; where it lands depends on the sink:
    /// - `Room` / `WaterLoop`: everything is useful heat.
    /// - `DualPipe`: useful indoors in winter; **zero** in summer (all
    ///   heat is exhausted outside — see [`ServerState::waste_heat_w`]).
    /// - `CoolingPlant`: nothing is useful; all becomes machine-room
    ///   waste removed at extra energy cost.
    pub fn useful_heat_w(&self) -> f64 {
        let p = self.power_w();
        match self.spec.heat_sink {
            HeatSink::Room | HeatSink::WaterLoop => p,
            HeatSink::DualPipe => match self.season {
                SeasonMode::Winter => p,
                SeasonMode::Summer => 0.0,
            },
            HeatSink::CoolingPlant => 0.0,
        }
    }

    /// Heat rejected to the environment (urban canopy), W — what the
    /// UHI model (experiment E8) consumes.
    pub fn waste_heat_w(&self) -> f64 {
        self.power_w() - self.useful_heat_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servers::ServerClass;

    #[test]
    fn idle_qrad_draws_overhead_plus_static() {
        let s = ServerState::new(ServerSpec::qrad());
        let expected = s.spec.overhead_w + 16.0 * s.spec.ladder.static_w;
        assert!((s.power_w() - expected).abs() < 1e-9);
    }

    #[test]
    fn full_load_hits_nameplate_region() {
        let mut s = ServerState::new(ServerSpec::qrad());
        let top = s.spec.ladder.n_states() - 1;
        s.set_all_cores(top, 1.0);
        let p = s.power_w();
        assert!(
            (0.8 * 500.0..1.2 * 500.0).contains(&p),
            "full Q.rad draws {p} W"
        );
    }

    #[test]
    fn qrad_heat_is_all_useful() {
        let mut s = ServerState::new(ServerSpec::qrad());
        s.set_all_cores(3, 0.8);
        assert_eq!(s.useful_heat_w(), s.power_w());
        assert_eq!(s.waste_heat_w(), 0.0);
    }

    #[test]
    fn eradiator_summer_mode_wastes_everything() {
        let mut s = ServerState::new(ServerSpec::eradiator());
        s.set_all_cores(3, 1.0);
        assert_eq!(s.season, SeasonMode::Winter);
        assert_eq!(s.waste_heat_w(), 0.0);
        s.season = SeasonMode::Summer;
        assert_eq!(s.useful_heat_w(), 0.0);
        assert!(s.waste_heat_w() > 500.0, "summer e-radiator rejects its kW");
    }

    #[test]
    fn datacenter_heat_is_never_useful() {
        let mut s = ServerState::new(ServerSpec::datacenter_node());
        s.set_all_cores(2, 1.0);
        assert_eq!(s.useful_heat_w(), 0.0);
        assert_eq!(s.waste_heat_w(), s.power_w());
    }

    #[test]
    fn crypto_heater_gpus_dominate_power() {
        let mut s = ServerState::new(ServerSpec::crypto_heater());
        let idle = s.power_w();
        s.set_gpu_util(0, 1.0);
        s.set_gpu_util(1, 1.0);
        let mining = s.power_w();
        assert!(mining - idle > 400.0, "two GPUs add {} W", mining - idle);
        assert_eq!(s.spec.class, ServerClass::CryptoHeater);
    }

    #[test]
    fn energy_conservation_power_splits_into_useful_and_waste() {
        for (mk, season) in [
            (ServerSpec::qrad(), SeasonMode::Winter),
            (ServerSpec::eradiator(), SeasonMode::Summer),
            (ServerSpec::asperitas_boiler(), SeasonMode::Winter),
            (ServerSpec::datacenter_node(), SeasonMode::Winter),
        ] {
            let mut s = ServerState::new(mk);
            s.season = season;
            s.set_all_cores(1, 0.7);
            let p = s.power_w();
            assert!(
                (s.useful_heat_w() + s.waste_heat_w() - p).abs() < 1e-9,
                "{}: heat must balance power",
                s.spec.class.name()
            );
        }
    }
}
