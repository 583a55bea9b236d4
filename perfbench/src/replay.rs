//! Outside-in replay timers: single public layer functions called on
//! inputs shaped like the workload's, and timed per call from outside.

use crate::measure::{cpu_s, median};
use df3_core::cluster::ClusterSim;
use df3_core::PlatformConfig;
use simcore::time::SimTime;
use std::hint::black_box;
use thermal::batch::ThermalBatch;
use workloads::job::JobStream;
use workloads::Job;

/// Timed batches per timer; the median batch is reported.
const BATCHES: usize = 7;
/// Minimum CPU time of one batch, seconds.
const BATCH_S: f64 = 0.002;
/// Outdoor temperature of the replayed fleet, °C (a winter day).
const OUTDOOR_C: f64 = 5.0;

/// Replay-timed per-call costs of the placement and thermal layers.
pub struct Replay {
    /// `PeakPolicy::decide` against every sibling of a full cluster.
    pub decide_ns: f64,
    /// `ClusterSim::load` on one cluster.
    pub cluster_load_ns: f64,
    /// One `ThermalBatch::stage` per room plus `step_staged`, per room.
    pub ns_per_room_step: f64,
}

/// Median CPU nanoseconds per call of `f`, after doubling the calls per
/// batch until one batch lasts `BATCH_S`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls: u64 = 1;
    loop {
        let t0 = cpu_s();
        for _ in 0..calls {
            f();
        }
        if cpu_s() - t0 >= BATCH_S {
            break;
        }
        calls *= 2;
    }
    median((0..BATCHES).map(|_| {
        let t0 = cpu_s();
        for _ in 0..calls {
            f();
        }
        (cpu_s() - t0) * 1e9 / calls as f64
    }))
}

/// Build the workload's fleet, give each cluster a different share of
/// the input's edge requests (so sibling loads differ), and time the
/// three layer functions on it.
pub fn run(cfg: &PlatformConfig, jobs: &JobStream) -> Replay {
    let mut rooms = ThermalBatch::with_capacity(cfg.n_clusters * cfg.workers_per_cluster);
    let mut clusters: Vec<ClusterSim> = (0..cfg.n_clusters)
        .map(|i| {
            ClusterSim::new(
                i,
                cfg.workers_per_cluster,
                cfg.arch,
                cfg.setpoint_c,
                &mut rooms,
            )
        })
        .collect();
    let edge: Vec<Job> = jobs.iter().filter(|j| j.is_edge()).copied().collect();
    let mut next = edge.iter().cycle();
    for (i, c) in clusters.iter_mut().enumerate() {
        for _ in 0..(i * 53) % 121 {
            let job = *next.next().expect("the input has edge requests");
            let _ = c.try_dispatch(SimTime::ZERO, OUTDOOR_C, job, &mut rooms);
        }
    }
    let loads: Vec<_> = clusters.iter().map(ClusterSim::load).collect();
    let (local, siblings) = (loads[0], &loads[1..]);
    let job = edge[0];
    let decide_ns = ns_per_call(|| {
        black_box(
            cfg.peak_policy
                .decide(black_box(&job), black_box(&local), black_box(siblings)),
        );
    });
    let home = &clusters[0];
    let cluster_load_ns = ns_per_call(|| {
        black_box(black_box(home).load());
    });
    let n = rooms.len();
    let step_ns = ns_per_call(|| {
        for i in 0..n {
            rooms.stage(i, cfg.control_period, 400.0);
        }
        rooms.step_staged(black_box(OUTDOOR_C));
    });
    Replay {
        decide_ns,
        cluster_load_ns,
        ns_per_room_step: step_ns / n as f64,
    }
}
