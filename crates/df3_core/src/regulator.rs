//! The DVFS heat regulator (§III-B).
//!
//! "To make sure that the expectations will be complied, we propose to
//! add a heat regulator system in each DF server. The heat regulator
//! implements a DVFS based technique (voltage and frequency regulation)
//! to guarantee that the energy consumed corresponds to the heat
//! demand."
//!
//! Given the thermostat's demand `d ∈ [0, 1]`, the regulator computes a
//! power budget `d × max_power` and picks the configuration that
//! maximises *compute throughput within the heat budget*:
//!
//! 1. choose the number of active cores and their P-state so total
//!    draw ≤ budget (never *above* — overshoot is discomfort);
//! 2. if the budget exceeds what the compute backlog can absorb, the
//!    shortfall goes to the resistive backup element, so the resident's
//!    comfort never depends on cloud demand (the §II-C supply/demand
//!    decoupling);
//! 3. at zero demand the board powers off — the Qarnot hybrid
//!    behaviour of §III-A ("embedded motherboards … are turned off when
//!    no heat is requested").
//!
//! Each control step needs two answers for the same demand: the budget
//! for the backlog actually present, and the *potential* cores an
//! unlimited backlog would get. One scan of the ladder yields both
//! (`HeatRegulator::decide_with_potential`); [`HeatRegulator::decide`]
//! is its budget half.

use dfhw::dvfs::DvfsLadder;

/// Regulator configuration for one server.
#[derive(Debug, Clone)]
pub struct HeatRegulator {
    /// Total cores on the server.
    pub n_cores: usize,
    /// Board/PSU overhead when powered, W.
    pub overhead_w: f64,
    /// Whether a resistive backup element exists (Q.rads have one).
    pub has_resistive_backup: bool,
    /// Demand below which the board powers off entirely.
    pub power_off_threshold: f64,
    /// Nameplate maximum power, W (heat at demand = 1).
    pub max_power_w: f64,
}

/// The regulator's decision for one control period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegulatorDecision {
    /// Whether the board is powered at all.
    pub powered: bool,
    /// Cores allowed to run compute.
    pub usable_cores: usize,
    /// P-state level for those cores.
    pub level: usize,
    /// Power the compute side may draw (incl. overhead), W.
    pub compute_budget_w: f64,
    /// Advisory resistive power if the compute side runs at its budget, W.
    /// The worker recomputes the resistive share continuously against the
    /// *actual* compute draw (see `worker::WorkerSim::power_w`).
    pub resistive_w: f64,
    /// The full heat budget `demand × max_power`, W.
    pub heat_budget_w: f64,
}

impl RegulatorDecision {
    /// A dark board: unpowered, no cores, no heat.
    pub const OFF: RegulatorDecision = RegulatorDecision {
        powered: false,
        usable_cores: 0,
        level: 0,
        compute_budget_w: 0.0,
        resistive_w: 0.0,
        heat_budget_w: 0.0,
    };

    /// Total heat that will be produced if the compute side runs at its
    /// budget, W.
    pub fn total_heat_w(&self) -> f64 {
        self.compute_budget_w + self.resistive_w
    }
}

impl HeatRegulator {
    pub fn for_qrad() -> Self {
        let spec = dfhw::servers::ServerSpec::qrad();
        HeatRegulator {
            n_cores: spec.n_cores(),
            overhead_w: spec.overhead_w,
            has_resistive_backup: true,
            power_off_threshold: 0.02,
            max_power_w: spec.nameplate_w,
        }
    }

    /// Decide the configuration for heat demand `demand ∈ [0, 1]` given
    /// the DVFS `ladder` and the compute backlog (cores' worth of work
    /// waiting or running, used to split compute vs resistive heat).
    pub fn decide(
        &self,
        ladder: &DvfsLadder,
        demand: f64,
        backlog_cores: usize,
    ) -> RegulatorDecision {
        self.decide_with_potential(ladder, demand, backlog_cores).0
    }

    /// [`HeatRegulator::decide`] plus the *potential* cores: the count
    /// it would grant with an unlimited backlog (the §III-C "computing
    /// power depends on the heat demand" metric). One scan of the
    /// ladder yields both.
    pub(crate) fn decide_with_potential(
        &self,
        ladder: &DvfsLadder,
        demand: f64,
        backlog_cores: usize,
    ) -> (RegulatorDecision, usize) {
        assert!(
            (0.0..=1.0).contains(&demand),
            "demand out of range: {demand}"
        );
        if demand < self.power_off_threshold {
            return (RegulatorDecision::OFF, 0);
        }
        let budget_w = demand * self.max_power_w;
        // Power available to cores after board overhead.
        let core_budget = (budget_w - self.overhead_w).max(0.0);
        // Find the (cores, level) pair maximising throughput within the
        // budget. Throughput = cores × freq(level); power =
        // cores × power(level). Scan levels from top down; for each, the
        // max core count that fits; keep the best throughput, once
        // capped by the backlog and once not (the potential).
        let mut best = (0usize, 0usize, 0.0f64); // (cores, level, throughput)
        let mut potential = (0usize, 0.0f64); // (cores, throughput)
        for level in (0..ladder.n_states()).rev() {
            let per_core = ladder.power_w(level, 1.0);
            if per_core <= 0.0 {
                continue;
            }
            let fit = ((core_budget / per_core).floor() as usize).min(self.n_cores);
            let gops = ladder.throughput(level);
            let thr = fit as f64 * gops;
            if thr > potential.1 + 1e-12 {
                potential = (fit, thr);
            }
            let usable = fit.min(backlog_cores);
            let thr = usable as f64 * gops;
            if thr > best.2 + 1e-12 {
                best = (usable, level, thr);
            }
        }
        let (usable_cores, level, _) = best;
        let compute_w = if usable_cores > 0 {
            self.overhead_w + usable_cores as f64 * ladder.power_w(level, 1.0)
        } else {
            // Powered but idle: overhead only (if the budget covers it).
            self.overhead_w.min(budget_w)
        };
        let resistive_w = if self.has_resistive_backup {
            (budget_w - compute_w).max(0.0)
        } else {
            0.0
        };
        let decision = RegulatorDecision {
            powered: true,
            usable_cores,
            level,
            compute_budget_w: compute_w,
            resistive_w,
            heat_budget_w: budget_w,
        };
        (decision, potential.0)
    }
}

simcore::impl_snapshot! {
    RegulatorDecision { powered, usable_cores, level, compute_budget_w, resistive_w, heat_budget_w }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> DvfsLadder {
        DvfsLadder::desktop_i7()
    }

    fn qrad() -> HeatRegulator {
        HeatRegulator::for_qrad()
    }

    /// The pre-fusion `decide`: one ladder scan per call.
    fn reference_decide(
        r: &HeatRegulator,
        ladder: &DvfsLadder,
        demand: f64,
        backlog_cores: usize,
    ) -> RegulatorDecision {
        assert!(
            (0.0..=1.0).contains(&demand),
            "demand out of range: {demand}"
        );
        if demand < r.power_off_threshold {
            return RegulatorDecision {
                powered: false,
                usable_cores: 0,
                level: 0,
                compute_budget_w: 0.0,
                resistive_w: 0.0,
                heat_budget_w: 0.0,
            };
        }
        let budget_w = demand * r.max_power_w;
        let core_budget = (budget_w - r.overhead_w).max(0.0);
        let mut best = (0usize, 0usize, 0.0f64);
        for level in (0..ladder.n_states()).rev() {
            let per_core = ladder.power_w(level, 1.0);
            if per_core <= 0.0 {
                continue;
            }
            let fit = ((core_budget / per_core).floor() as usize).min(r.n_cores);
            let usable = fit.min(backlog_cores);
            let thr = usable as f64 * ladder.throughput(level);
            if thr > best.2 + 1e-12 {
                best = (usable, level, thr);
            }
        }
        let (usable_cores, level, _) = best;
        let compute_w = if usable_cores > 0 {
            r.overhead_w + usable_cores as f64 * ladder.power_w(level, 1.0)
        } else {
            r.overhead_w.min(budget_w)
        };
        let resistive_w = if r.has_resistive_backup {
            (budget_w - compute_w).max(0.0)
        } else {
            0.0
        };
        RegulatorDecision {
            powered: true,
            usable_cores,
            level,
            compute_budget_w: compute_w,
            resistive_w,
            heat_budget_w: budget_w,
        }
    }

    /// Every field of `(decision, potential)`, floats as raw bits.
    fn bits(
        (d, potential): (RegulatorDecision, usize),
    ) -> (bool, usize, usize, u64, u64, u64, usize) {
        (
            d.powered,
            d.usable_cores,
            d.level,
            d.compute_budget_w.to_bits(),
            d.resistive_w.to_bits(),
            d.heat_budget_w.to_bits(),
            potential,
        )
    }

    /// The boiler's regulator: no resistive element, on the Xeon ladder.
    fn boiler() -> (HeatRegulator, DvfsLadder) {
        let spec = dfhw::servers::ServerSpec::asperitas_boiler();
        let r = HeatRegulator {
            n_cores: spec.n_cores(),
            overhead_w: spec.overhead_w,
            has_resistive_backup: false,
            power_off_threshold: 0.02,
            max_power_w: spec.nameplate_w,
        };
        (r, (*spec.ladder).clone())
    }

    #[test]
    fn fused_scan_matches_the_two_call_reference_bit_for_bit() {
        let (boiler, xeon) = boiler();
        for (r, l) in [(qrad(), ladder()), (boiler, xeon)] {
            let threshold = r.power_off_threshold;
            let mut demands = vec![
                0.0,
                threshold.next_down(),
                threshold,
                threshold.next_up(),
                1.0,
            ];
            demands.extend((0..=1_000).map(|i| i as f64 / 1_000.0));
            // Demands whose core budget is an exact multiple of a
            // level's per-core power, where `floor` sits on its edge: the
            // nearest such demand to each multiple, if one is within an ulp.
            let n_grid = demands.len();
            for level in 0..l.n_states() {
                let per_core = l.power_w(level, 1.0);
                for k in 0..=r.n_cores + 2 {
                    let d = (r.overhead_w + k as f64 * per_core) / r.max_power_w;
                    let on_edge = [d, d.next_down(), d.next_up()].into_iter().find(|&d| {
                        let q = (d * r.max_power_w - r.overhead_w).max(0.0) / per_core;
                        (0.0..=1.0).contains(&d) && q == q.floor()
                    });
                    demands.extend(on_edge);
                }
            }
            assert!(
                demands.len() - n_grid > r.n_cores,
                "only {} exact-integer demands",
                demands.len() - n_grid
            );
            for &demand in &demands {
                // The two-call form the worker's control step used before
                // the fused scan: a second call with a full backlog gave
                // the potential.
                let potential = reference_decide(&r, &l, demand, r.n_cores).usable_cores;
                for backlog in 0..=r.n_cores + 2 {
                    assert_eq!(
                        bits(r.decide_with_potential(&l, demand, backlog)),
                        bits((reference_decide(&r, &l, demand, backlog), potential)),
                        "demand {demand:e}, backlog {backlog}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_demand_powers_off() {
        let d = qrad().decide(&ladder(), 0.0, 100);
        assert!(!d.powered);
        assert_eq!(d.total_heat_w(), 0.0);
        assert_eq!(d.usable_cores, 0);
    }

    #[test]
    fn full_demand_full_backlog_runs_everything_hot() {
        let d = qrad().decide(&ladder(), 1.0, 100);
        assert!(d.powered);
        assert_eq!(d.usable_cores, 16);
        // Heat tracks the 500 W budget within one core's step.
        assert!(
            (d.total_heat_w() - 500.0).abs() < 30.0,
            "heat {} ≈ 500 W",
            d.total_heat_w()
        );
        assert_eq!(d.resistive_w.max(0.0), d.resistive_w);
    }

    #[test]
    fn heat_tracks_demand_across_the_range() {
        // The §III-B guarantee: produced heat ≈ demand × nameplate, for
        // any demand, when backlog is plentiful.
        let r = qrad();
        let l = ladder();
        for pct in [10, 25, 40, 55, 70, 85, 100] {
            let demand = pct as f64 / 100.0;
            let d = r.decide(&l, demand, 100);
            let target = demand * 500.0;
            assert!(
                (d.total_heat_w() - target).abs() <= 35.0,
                "demand {demand}: heat {} vs target {target}",
                d.total_heat_w()
            );
            // Never overshoot beyond tolerance: overshoot is discomfort.
            assert!(d.total_heat_w() <= target + 1e-9);
        }
    }

    #[test]
    fn no_backlog_heats_resistively() {
        // The §II-C decoupling: comfort must not depend on cloud demand.
        let d = qrad().decide(&ladder(), 0.8, 0);
        assert!(d.powered);
        assert_eq!(d.usable_cores, 0);
        assert!(
            d.resistive_w > 300.0,
            "resistive {} fills the gap",
            d.resistive_w
        );
        assert!((d.total_heat_w() - 0.8 * 500.0).abs() < 1.0);
    }

    #[test]
    fn small_backlog_mixes_compute_and_resistive() {
        let d = qrad().decide(&ladder(), 1.0, 2);
        assert_eq!(d.usable_cores, 2);
        assert!(d.resistive_w > 0.0);
        assert!((d.total_heat_w() - 500.0).abs() < 1.0);
    }

    #[test]
    fn low_demand_prefers_fewer_faster_or_more_slower_cores_by_throughput() {
        // At 30 % demand (150 W budget, 90 W for cores) the regulator
        // must pick the throughput-maximal configuration.
        let r = qrad();
        let l = ladder();
        let d = r.decide(&l, 0.3, 100);
        assert!(d.usable_cores > 0);
        // Exhaustively verify optimality.
        let core_budget = 0.3 * 500.0 - r.overhead_w;
        let mut best_thr = 0.0f64;
        for level in 0..l.n_states() {
            let fit = ((core_budget / l.power_w(level, 1.0)).floor() as usize).min(16);
            best_thr = best_thr.max(fit as f64 * l.throughput(level));
        }
        let got_thr = d.usable_cores as f64 * l.throughput(d.level);
        assert!(
            (got_thr - best_thr).abs() < 1e-9,
            "throughput {got_thr} vs optimal {best_thr}"
        );
    }

    #[test]
    fn no_resistive_backup_leaves_shortfall() {
        let mut r = qrad();
        r.has_resistive_backup = false;
        let d = r.decide(&ladder(), 0.8, 0);
        assert_eq!(d.resistive_w, 0.0);
        assert!(d.total_heat_w() < 0.8 * 500.0);
    }

    #[test]
    fn diminishing_returns_low_budget_prefers_low_states() {
        // With a tiny budget, one slow core out-computes zero fast cores.
        let r = qrad();
        let l = ladder();
        let d = r.decide(&l, 0.15, 100); // 75 W − 60 W overhead = 15 W for cores
        assert!(d.usable_cores >= 1);
        assert!(d.level < l.n_states() - 1, "must downshift, got top state");
    }

    #[test]
    #[should_panic]
    fn demand_out_of_range_panics() {
        qrad().decide(&ladder(), 1.2, 1);
    }
}
