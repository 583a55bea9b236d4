//! Static descriptions of server classes.

use crate::dvfs::DvfsLadder;
use std::sync::Arc;

/// Which server family a spec belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerClass {
    /// Qarnot Q.rad digital heater.
    QRad,
    /// Nerdalize e-radiator digital heater.
    ERadiator,
    /// Qarnot crypto-heater (GPU miner/heater).
    CryptoHeater,
    /// Asperitas AIC24 immersion digital boiler.
    AsperitasBoiler,
    /// Stimergy oil-immersed digital boiler.
    StimergyBoiler,
    /// Classical air-cooled datacenter node (baseline comparator).
    DatacenterNode,
}

impl ServerClass {
    pub fn name(&self) -> &'static str {
        match self {
            ServerClass::QRad => "Q.rad",
            ServerClass::ERadiator => "e-radiator",
            ServerClass::CryptoHeater => "crypto-heater",
            ServerClass::AsperitasBoiler => "Asperitas AIC24",
            ServerClass::StimergyBoiler => "Stimergy boiler",
            ServerClass::DatacenterNode => "datacenter node",
        }
    }
}

/// Where a server's heat goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeatSink {
    /// Free-cooled into the room it heats (Q.rad, crypto-heater).
    Room,
    /// Dual pipeline: into the room in winter, exhausted outdoors in
    /// summer (Nerdalize e-radiator — the §III-A urban-heat concern).
    DualPipe,
    /// Into a building's hot-water loop (digital boilers).
    WaterLoop,
    /// Removed by a chilled cooling plant (datacenter node); cooling
    /// costs extra energy, captured by the PUE accountant.
    CoolingPlant,
}

/// Static specification of a server.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub class: ServerClass,
    /// Number of CPU packages.
    pub n_cpus: usize,
    /// Cores per CPU package.
    pub cores_per_cpu: usize,
    /// DVFS ladder shared by all cores.
    pub ladder: Arc<DvfsLadder>,
    /// Number of GPUs (crypto-heater).
    pub n_gpus: usize,
    /// Max power per GPU at full load, W.
    pub gpu_max_w: f64,
    /// Idle power per GPU, W.
    pub gpu_idle_w: f64,
    /// Fixed board/PSU/network overhead while powered, W.
    pub overhead_w: f64,
    /// Nameplate wall power, W (paper's figure; asserted ≈ model max).
    pub nameplate_w: f64,
    /// Network uplink, Gbit/s.
    pub network_gbps: f64,
    /// Where the heat goes.
    pub heat_sink: HeatSink,
}

impl ServerSpec {
    /// Q.rad: "3 or 4 microprocessors", 500 W, wired fiber, free-cooled.
    pub fn qrad() -> Self {
        ServerSpec {
            class: ServerClass::QRad,
            n_cpus: 4,
            cores_per_cpu: 4,
            ladder: Arc::new(DvfsLadder::desktop_i7()),
            n_gpus: 0,
            gpu_max_w: 0.0,
            gpu_idle_w: 0.0,
            overhead_w: 60.0,
            nameplate_w: 500.0,
            network_gbps: 1.0,
            heat_sink: HeatSink::Room,
        }
    }

    /// Nerdalize e-radiator: 1000 W, dual pipeline.
    pub fn eradiator() -> Self {
        ServerSpec {
            class: ServerClass::ERadiator,
            n_cpus: 8,
            cores_per_cpu: 4,
            ladder: Arc::new(DvfsLadder::desktop_i7()),
            n_gpus: 0,
            gpu_max_w: 0.0,
            gpu_idle_w: 0.0,
            overhead_w: 120.0,
            nameplate_w: 1000.0,
            network_gbps: 1.0,
            heat_sink: HeatSink::DualPipe,
        }
    }

    /// Qarnot crypto-heater QC1: 650 W, 2 GPUs.
    pub fn crypto_heater() -> Self {
        ServerSpec {
            class: ServerClass::CryptoHeater,
            n_cpus: 1,
            cores_per_cpu: 4,
            ladder: Arc::new(DvfsLadder::desktop_i7()),
            n_gpus: 2,
            gpu_max_w: 270.0,
            gpu_idle_w: 15.0,
            overhead_w: 50.0,
            nameplate_w: 650.0,
            network_gbps: 1.0,
            heat_sink: HeatSink::Room,
        }
    }

    /// Asperitas AIC24: 200 CPUs, 10 Gbps, 20 kW, immersion boiler.
    pub fn asperitas_boiler() -> Self {
        ServerSpec {
            class: ServerClass::AsperitasBoiler,
            n_cpus: 200,
            cores_per_cpu: 4,
            ladder: Arc::new(DvfsLadder::server_xeon()),
            n_gpus: 0,
            gpu_max_w: 0.0,
            gpu_idle_w: 0.0,
            overhead_w: 800.0,
            nameplate_w: 20_000.0,
            network_gbps: 10.0,
            heat_sink: HeatSink::WaterLoop,
        }
    }

    /// Stimergy oil-immersed boiler: `n_servers` (20–40) small servers
    /// totalling 1–4 kW.
    pub fn stimergy_boiler(n_servers: usize) -> Self {
        assert!(
            (20..=40).contains(&n_servers),
            "Stimergy boilers integrate 20–40 servers (got {n_servers})"
        );
        ServerSpec {
            class: ServerClass::StimergyBoiler,
            n_cpus: n_servers,
            cores_per_cpu: 2,
            ladder: Arc::new(DvfsLadder::desktop_i7()),
            n_gpus: 0,
            gpu_max_w: 0.0,
            gpu_idle_w: 0.0,
            overhead_w: 150.0,
            nameplate_w: 60.0 * n_servers as f64,
            network_gbps: 1.0,
            heat_sink: HeatSink::WaterLoop,
        }
    }

    /// A classical dual-socket datacenter node for the baselines.
    pub fn datacenter_node() -> Self {
        ServerSpec {
            class: ServerClass::DatacenterNode,
            n_cpus: 2,
            cores_per_cpu: 8,
            ladder: Arc::new(DvfsLadder::server_xeon()),
            n_gpus: 0,
            gpu_max_w: 0.0,
            gpu_idle_w: 0.0,
            overhead_w: 80.0,
            nameplate_w: 450.0,
            network_gbps: 10.0,
            heat_sink: HeatSink::CoolingPlant,
        }
    }

    /// Total core count.
    pub fn n_cores(&self) -> usize {
        self.n_cpus * self.cores_per_cpu
    }

    /// Model's maximum electrical power: all cores at top state, full
    /// utilisation, plus GPUs and overhead.
    pub fn model_max_w(&self) -> f64 {
        let top = self.ladder.n_states() - 1;
        self.overhead_w
            + self.n_cores() as f64 * self.ladder.power_w(top, 1.0)
            + self.n_gpus as f64 * self.gpu_max_w
    }

    /// Peak compute throughput, Gops/s (CPU cores only; GPU throughput
    /// is workload-specific and tracked by the mining workload itself).
    pub fn peak_gops(&self) -> f64 {
        self.n_cores() as f64 * self.ladder.max_state().freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_max_tracks_nameplate() {
        // Each class's physical model must land within 20 % of the wall
        // power the paper quotes — this is experiment E12's table.
        for spec in [
            ServerSpec::qrad(),
            ServerSpec::eradiator(),
            ServerSpec::crypto_heater(),
            ServerSpec::asperitas_boiler(),
            ServerSpec::stimergy_boiler(30),
        ] {
            let ratio = spec.model_max_w() / spec.nameplate_w;
            assert!(
                (0.8..1.2).contains(&ratio),
                "{}: model {} W vs nameplate {} W (ratio {ratio:.2})",
                spec.class.name(),
                spec.model_max_w(),
                spec.nameplate_w
            );
        }
    }

    #[test]
    fn qrad_has_paper_core_count() {
        let q = ServerSpec::qrad();
        assert_eq!(q.n_cpus, 4); // "3 or 4 microprocessors"
        assert_eq!(q.n_cores(), 16);
        assert_eq!(q.heat_sink, HeatSink::Room);
    }

    #[test]
    fn crypto_heater_has_two_gpus() {
        let c = ServerSpec::crypto_heater();
        assert_eq!(c.n_gpus, 2);
        assert!((c.nameplate_w - 650.0).abs() < 1e-9);
    }

    #[test]
    fn asperitas_is_20kw_200_cpus_10gbe() {
        let a = ServerSpec::asperitas_boiler();
        assert_eq!(a.n_cpus, 200);
        assert_eq!(a.network_gbps, 10.0);
        assert_eq!(a.nameplate_w, 20_000.0);
        assert_eq!(a.heat_sink, HeatSink::WaterLoop);
    }

    #[test]
    fn stimergy_range_enforced() {
        let s = ServerSpec::stimergy_boiler(20);
        assert!((1_000.0..=4_000.0).contains(&s.nameplate_w));
        let s = ServerSpec::stimergy_boiler(40);
        assert!((1_000.0..=4_000.0).contains(&s.nameplate_w));
    }

    #[test]
    #[should_panic]
    fn stimergy_rejects_out_of_range() {
        ServerSpec::stimergy_boiler(50);
    }

    #[test]
    fn peak_gops_scales_with_cores() {
        let q = ServerSpec::qrad();
        assert_eq!(q.peak_gops(), 16.0 * 3.0);
        let a = ServerSpec::asperitas_boiler();
        assert!(a.peak_gops() > 40.0 * q.peak_gops());
    }
}
