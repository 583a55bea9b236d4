//! Collective-communication cost models for tightly-coupled parallel
//! applications.
//!
//! The paper's conclusion: "Tightly coupled applications will have poor
//! network performance on data furnace systems." A DF cluster's workers
//! sit in different homes behind metro fiber (milliseconds apart); a
//! datacenter rack sits on 10 GbE (tens of microseconds). For a
//! bulk-synchronous (BSP) application that allreduces every iteration,
//! that latency gap multiplies by `log₂ P` each step and dominates the
//! run — quantified by experiment E19.
//!
//! Costs use the standard LogP-flavoured tree model:
//! `T_allreduce(P, n) = 2·⌈log₂ P⌉·(α + n/β)` with α the one-way link
//! latency and β the bandwidth.

use crate::link::Link;
use simcore::time::SimDuration;

/// Allreduce of `payload_bytes` across `p` ranks connected by `link`
/// (recursive-doubling tree: up and down).
pub fn allreduce_time(link: &Link, p: usize, payload_bytes: usize) -> SimDuration {
    assert!(p >= 1);
    if p == 1 {
        return SimDuration::ZERO;
    }
    let rounds = (p as f64).log2().ceil() as i64;
    link.transfer_time(payload_bytes) * (2 * rounds)
}

/// A bulk-synchronous iterative application.
#[derive(Debug, Clone, Copy)]
pub struct BspApp {
    /// Total compute per iteration, Gop (divided across ranks).
    pub work_per_iter_gops: f64,
    /// Allreduce payload per iteration, bytes.
    pub reduce_bytes: usize,
    /// Iterations to convergence.
    pub iterations: u64,
}

impl BspApp {
    /// A conjugate-gradient-class solver: 2 Gop and an 8 kB reduction
    /// per iteration (a few dot products over a mid-sized sparse
    /// system), 500 iterations.
    pub fn cg_solver() -> Self {
        BspApp {
            work_per_iter_gops: 2.0,
            reduce_bytes: 8_192,
            iterations: 500,
        }
    }

    /// An embarrassingly-parallel bag (no communication) with the same
    /// total work, for contrast.
    pub fn embarrassing(total_gops: f64) -> Self {
        BspApp {
            work_per_iter_gops: total_gops,
            reduce_bytes: 0,
            iterations: 1,
        }
    }

    /// Wall-clock on `p` ranks of `gops_per_rank` connected by `link`.
    pub fn runtime(&self, link: &Link, p: usize, gops_per_rank: f64) -> SimDuration {
        assert!(p >= 1 && gops_per_rank > 0.0);
        let compute_s = self.work_per_iter_gops / (p as f64 * gops_per_rank);
        let comm = if self.reduce_bytes > 0 {
            allreduce_time(link, p, self.reduce_bytes)
        } else {
            SimDuration::ZERO
        };
        (SimDuration::from_secs_f64(compute_s) + comm) * self.iterations as i64
    }

    /// Speedup over the 1-rank runtime.
    pub fn speedup(&self, link: &Link, p: usize, gops_per_rank: f64) -> f64 {
        let t1 = self.runtime(link, 1, gops_per_rank);
        let tp = self.runtime(link, p, gops_per_rank);
        t1 / tp
    }

    /// The rank count beyond which adding ranks stops helping (first
    /// `p` in `candidates` whose runtime exceeds the previous one).
    pub fn scaling_limit(&self, link: &Link, candidates: &[usize], gops_per_rank: f64) -> usize {
        assert!(!candidates.is_empty());
        let mut best_p = candidates[0];
        let mut best_t = self.runtime(link, best_p, gops_per_rank);
        for &p in &candidates[1..] {
            let t = self.runtime(link, p, gops_per_rank);
            if t < best_t {
                best_t = t;
                best_p = p;
            }
        }
        best_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;

    fn df_link() -> Link {
        // Workers in different homes: each hop crosses the metro fiber
        // to the PoP and back down (≈3 ms one-way in total).
        Link::new(Protocol::Fiber).with_extra_latency(0.0015)
    }

    fn dc_link() -> Link {
        Link::new(Protocol::Ethernet10G)
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let l = dc_link();
        let t2 = allreduce_time(&l, 2, 8_192);
        let t16 = allreduce_time(&l, 16, 8_192);
        let t17 = allreduce_time(&l, 17, 8_192);
        assert_eq!(t16, t2 * 4, "log₂16 = 4 rounds");
        assert_eq!(t17, t2 * 5, "ceil(log₂17) = 5 rounds");
        assert_eq!(allreduce_time(&l, 1, 8_192), SimDuration::ZERO);
    }

    #[test]
    fn tightly_coupled_scales_in_the_dc_not_on_df() {
        // The conclusion's claim, quantified.
        let app = BspApp::cg_solver();
        let df_speedup = app.speedup(&df_link(), 64, 3.0);
        let dc_speedup = app.speedup(&dc_link(), 64, 3.0);
        assert!(
            dc_speedup > 3.0 * df_speedup,
            "DC speedup {dc_speedup:.1} vs DF {df_speedup:.1} at P=64"
        );
        assert!(dc_speedup > 30.0, "DC should scale well: {dc_speedup:.1}");
        assert!(df_speedup < 20.0, "DF should stall: {df_speedup:.1}");
    }

    #[test]
    fn df_scaling_limit_is_low() {
        let app = BspApp::cg_solver();
        let candidates = [1, 2, 4, 8, 16, 32, 64, 128];
        let df_limit = app.scaling_limit(&df_link(), &candidates, 3.0);
        let dc_limit = app.scaling_limit(&dc_link(), &candidates, 3.0);
        assert!(
            df_limit < dc_limit,
            "DF limit {df_limit} should be below DC limit {dc_limit}"
        );
        assert!(df_limit <= 64);
    }

    #[test]
    fn embarrassing_work_scales_anywhere() {
        let app = BspApp::embarrassing(100_000.0);
        let df = app.speedup(&df_link(), 64, 3.0);
        assert!(
            (df - 64.0).abs() < 1.0,
            "no communication → linear speedup even on DF: {df:.1}"
        );
    }

    #[test]
    fn runtime_is_monotone_in_iterations_and_payload() {
        let l = df_link();
        let base = BspApp::cg_solver();
        let mut heavy = base;
        heavy.reduce_bytes *= 8;
        assert!(heavy.runtime(&l, 16, 3.0) > base.runtime(&l, 16, 3.0));
        let mut longer = base;
        longer.iterations *= 2;
        assert_eq!(longer.runtime(&l, 16, 3.0), base.runtime(&l, 16, 3.0) * 2);
    }
}
