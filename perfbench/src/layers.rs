//! Exclusive-time split of a traced run, computed from the
//! `PhaseProfiler` accumulators the run hands back.
//!
//! The profiler's phases nest: dispatch contains placement, the control
//! tick and the fault runtime; the control tick contains thermal
//! staging and the fleet sweep. Event pop and dispatch are timed for
//! one event in `HOT_PHASE_STRIDE`, so their totals are scaled by the
//! stride, which makes the dispatch row an estimate. Subtracting each
//! phase from its parent makes the rows add up to the scaled pop plus
//! dispatch time. Two overlaps cannot be told apart from outside: the
//! fault-runtime interval opened inside every control tick, and
//! placement decisions made while re-dispatching a failed worker's
//! jobs. Their time shows in both rows and is taken from
//! `df3_core.dispatch.self_s` twice.

use crate::measure::median;
use simcore::telemetry::{Phase, PhaseProfiler, HOT_PHASE_STRIDE};

/// Exclusive seconds per layer, plus the call counts behind the
/// per-call rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub pop_s: f64,
    pub dispatch_self_s: f64,
    pub placement_s: f64,
    pub tick_self_s: f64,
    pub stage_s: f64,
    pub step_s: f64,
    pub faults_s: f64,
    /// Snapshot decode and platform rebuild, timed around
    /// `Platform::restore_branch`.
    pub decode_s: f64,
    /// Placement decisions (`Phase::Offload` intervals).
    pub decisions: u64,
    pub ticks: u64,
}

impl Split {
    pub fn of(p: &PhaseProfiler) -> Split {
        let secs = |phase| p.acc(phase).total_ns as f64 * 1e-9;
        let stride = HOT_PHASE_STRIDE as f64;
        let placement = secs(Phase::Offload);
        let tick = secs(Phase::ControlTick);
        let faults = secs(Phase::FaultRuntime);
        let (stage, step) = (secs(Phase::StageThermal), secs(Phase::StepStaged));
        Split {
            pop_s: secs(Phase::EventPop) * stride,
            dispatch_self_s: secs(Phase::Dispatch) * stride - placement - tick - faults,
            placement_s: placement,
            tick_self_s: tick - stage - step,
            stage_s: stage,
            step_s: step,
            faults_s: faults,
            decode_s: 0.0,
            decisions: p.acc(Phase::Offload).count,
            ticks: p.acc(Phase::ControlTick).count,
        }
    }

    pub fn add(&mut self, o: &Split) {
        self.pop_s += o.pop_s;
        self.dispatch_self_s += o.dispatch_self_s;
        self.placement_s += o.placement_s;
        self.tick_self_s += o.tick_self_s;
        self.stage_s += o.stage_s;
        self.step_s += o.step_s;
        self.faults_s += o.faults_s;
        self.decode_s += o.decode_s;
        self.decisions += o.decisions;
        self.ticks += o.ticks;
    }

    /// Row-wise median over repetitions (the counts repeat exactly, so
    /// the first repetition's stand for all).
    pub fn median(splits: &[Split]) -> Split {
        let m = |row: fn(&Split) -> f64| median(splits.iter().map(row));
        Split {
            pop_s: m(|s| s.pop_s),
            dispatch_self_s: m(|s| s.dispatch_self_s),
            placement_s: m(|s| s.placement_s),
            tick_self_s: m(|s| s.tick_self_s),
            stage_s: m(|s| s.stage_s),
            step_s: m(|s| s.step_s),
            faults_s: m(|s| s.faults_s),
            decode_s: m(|s| s.decode_s),
            decisions: splits[0].decisions,
            ticks: splits[0].ticks,
        }
    }

    /// The timed rows under their metric names, in report order.
    pub fn rows(&self) -> [(&'static str, f64); 8] {
        [
            ("simcore.engine.pop_self_s", self.pop_s),
            ("df3_core.dispatch.self_s", self.dispatch_self_s),
            ("df3_core.placement.self_s", self.placement_s),
            ("df3_core.control_tick.self_s", self.tick_self_s),
            ("thermal.batch.stage_s", self.stage_s),
            ("thermal.batch.step_s", self.step_s),
            ("df3_core.faults.self_s", self.faults_s),
            ("simcore.snapshot.decode_s", self.decode_s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_add_up_to_scaled_pop_and_dispatch() {
        let mut p = PhaseProfiler::enabled();
        p.record_ns(Phase::EventPop, 10);
        p.record_ns(Phase::Dispatch, 1_000);
        p.record_ns(Phase::ControlTick, 20_000);
        p.record_ns(Phase::StageThermal, 3_000);
        p.record_ns(Phase::StepStaged, 4_000);
        p.record_ns(Phase::Offload, 5_000);
        p.record_ns(Phase::FaultRuntime, 600);
        let s = Split::of(&p);
        let total: f64 = s.rows().iter().map(|&(_, v)| v).sum();
        let scaled = 1_010.0 * HOT_PHASE_STRIDE as f64 * 1e-9;
        assert!((total - scaled).abs() < 1e-12);
        assert!((s.tick_self_s - 13_000e-9).abs() < 1e-12);
        assert_eq!((s.decisions, s.ticks), (1, 1));
    }
}
