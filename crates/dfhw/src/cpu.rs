//! A CPU core with a P-state and a utilisation.

use crate::dvfs::DvfsLadder;
use std::sync::Arc;

/// One core of a DF server. Cores share their ladder via `Arc` — a Q.rad
/// has 16 of them, an Asperitas boiler 1600, and cloning the ladder per
/// core would be pure waste.
#[derive(Debug, Clone)]
pub struct CpuCore {
    ladder: Arc<DvfsLadder>,
    level: usize,
    util: f64,
}

impl CpuCore {
    pub fn new(ladder: Arc<DvfsLadder>) -> Self {
        let level = ladder.n_states() - 1;
        CpuCore {
            ladder,
            level,
            util: 0.0,
        }
    }

    pub fn ladder(&self) -> &DvfsLadder {
        &self.ladder
    }

    pub fn level(&self) -> usize {
        self.level
    }

    /// Set the P-state level. Panics on an out-of-range level.
    pub fn set_level(&mut self, level: usize) {
        assert!(
            level < self.ladder.n_states(),
            "P-state {level} out of range"
        );
        self.level = level;
    }

    pub fn util(&self) -> f64 {
        self.util
    }

    /// Set utilisation in `[0, 1]`.
    pub fn set_util(&mut self, util: f64) {
        assert!((0.0..=1.0).contains(&util));
        self.util = util;
    }

    /// Electrical power drawn right now, W.
    pub fn power_w(&self) -> f64 {
        self.ladder.power_w(self.level, self.util)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CpuCore {
        CpuCore::new(Arc::new(DvfsLadder::desktop_i7()))
    }

    #[test]
    fn starts_at_top_state_idle() {
        let c = core();
        assert_eq!(c.level(), c.ladder().n_states() - 1);
        assert_eq!(c.util(), 0.0);
        assert_eq!(c.power_w(), c.ladder().static_w);
    }

    #[test]
    fn busy_core_draws_dynamic_power() {
        let mut c = core();
        c.set_util(1.0);
        let full = c.power_w();
        c.set_util(0.5);
        let half = c.power_w();
        assert!(full > half && half > c.ladder().static_w);
    }

    #[test]
    #[should_panic]
    fn out_of_range_level_panics() {
        core().set_level(99);
    }
}
