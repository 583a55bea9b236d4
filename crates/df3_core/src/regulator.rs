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
//! unlimited backlog would get. A [`RegulatorTable`] holds every
//! answer for one (regulator, ladder) pair, built once: a decision is a
//! binary search over the core budgets at which some level's core count
//! steps up, then a walk of at most one step per DVFS level. The
//! decisions are bit-identical to a top-down scan of the ladder, which
//! the tests keep as the oracle.

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
}

/// A configuration the top-down ladder scan keeps as its best so far:
/// `cores` at `level`, worth `thr = cores × throughput(level)` Gops/s.
#[derive(Debug, Clone, Copy)]
struct Pick {
    cores: usize,
    level: usize,
    thr: f64,
}

impl Pick {
    /// The scan's start: nothing picked yet.
    const NONE: Pick = Pick {
        cores: 0,
        level: 0,
        thr: 0.0,
    };
}

/// A [`HeatRegulator`] on its [`DvfsLadder`], with every decision
/// tabulated. Built once per (regulator, ladder) pair and shared: the
/// platform builds one for its whole Q.rad fleet.
///
/// The regulator picks, for a core budget `c` (the heat budget minus
/// the board overhead), the (cores, level) pair of highest throughput
/// within it. At `level`, `fit = floor(c / per_core(level))` cores
/// (at most `n_cores`) fit; the pick is the first level, scanning from
/// the top, whose `min(fit, backlog) × throughput` beats the best so far
/// by more than `1e-12`. Each fit is a step function of `c`, so the
/// table stores the sorted budgets at which some fit steps up, found
/// against the same division the scan does, and per interval between
/// them: every level's fit, the scan's state above each level, and the
/// uncapped pick (the potential).
///
/// With a backlog `b`, the levels whose fit is below `b` are scanned
/// uncapped, exactly as the table's state above them records. Fit falls
/// and throughput rises with the level, so the highest level whose fit
/// covers `b` is the last that can win: every level below it offers `b`
/// cores at no more throughput. A decision is one binary search, a walk
/// down at most the ladder's length, and one compare.
#[derive(Debug, Clone)]
pub struct RegulatorTable {
    regulator: HeatRegulator,
    ladder: DvfsLadder,
    /// `ladder.power_w(level, 1.0)` per level, W.
    per_core_w: Vec<f64>,
    /// Sorted, distinct core budgets, W, at which some level's fit
    /// steps up. Interval `i` is `[breakpoints[i - 1], breakpoints[i])`
    /// (unbounded at either end).
    breakpoints: Vec<f64>,
    /// Per interval, one entry per level: that level's fit.
    fits: Vec<usize>,
    /// Per interval, one entry per level: the scan's pick over the
    /// levels above it, all uncapped.
    above: Vec<Pick>,
    /// Per interval: the scan's pick over every level uncapped, which
    /// gives the potential.
    uncapped: Vec<Pick>,
}

/// The least core budget `c` with `c / per_core >= k`: where the scan's
/// `floor(c / per_core)` first reaches `k`. IEEE division is monotone
/// in `c`, so the budgets that reach `k` are a ray; this walks ulp by
/// ulp from `k × per_core` to its least element.
fn least_budget_reaching(k: usize, per_core: f64) -> f64 {
    let k = k as f64;
    let mut c = k * per_core;
    while c / per_core < k {
        c = c.next_up();
    }
    while c.next_down() / per_core >= k {
        c = c.next_down();
    }
    c
}

impl RegulatorTable {
    /// Tabulate `regulator` on `ladder`.
    pub fn new(regulator: HeatRegulator, ladder: DvfsLadder) -> Self {
        let n_levels = ladder.n_states();
        let per_core_w: Vec<f64> = (0..n_levels).map(|l| ladder.power_w(l, 1.0)).collect();
        // A ladder's states have positive frequency and voltage, so
        // every level draws power and every fit is finite.
        assert!(per_core_w.iter().all(|&p| p > 0.0));
        let mut steps: Vec<(f64, usize)> = Vec::with_capacity(n_levels * regulator.n_cores);
        for (level, &p) in per_core_w.iter().enumerate() {
            steps.extend((1..=regulator.n_cores).map(|k| (least_budget_reaching(k, p), level)));
        }
        steps.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // At most one row per step, plus the row below every step.
        let n_rows = 1 + steps.len();
        let mut table = RegulatorTable {
            regulator,
            per_core_w,
            breakpoints: Vec::with_capacity(n_rows - 1),
            fits: Vec::with_capacity(n_rows * n_levels),
            above: Vec::with_capacity(n_rows * n_levels),
            uncapped: Vec::with_capacity(n_rows),
            ladder,
        };
        let mut fit = vec![0usize; n_levels];
        table.push_row(&fit);
        for group in steps.chunk_by(|a, b| a.0 == b.0) {
            for &(_, level) in group {
                fit[level] += 1;
            }
            table.breakpoints.push(group[0].0);
            table.push_row(&fit);
        }
        table
    }

    /// The regulator of the Q.rad fleet on its desktop-i7 ladder.
    pub fn qrad() -> Self {
        RegulatorTable::new(HeatRegulator::for_qrad(), DvfsLadder::desktop_i7())
    }

    /// Append the interval whose fits are `fit`: the top-down scan's
    /// state above each level, and its uncapped pick.
    fn push_row(&mut self, fit: &[usize]) {
        let row = self.above.len();
        self.fits.extend_from_slice(fit);
        self.above.resize(row + fit.len(), Pick::NONE);
        let mut pick = Pick::NONE;
        for level in (0..fit.len()).rev() {
            self.above[row + level] = pick;
            let thr = fit[level] as f64 * self.ladder.throughput(level);
            if thr > pick.thr + 1e-12 {
                pick = Pick {
                    cores: fit[level],
                    level,
                    thr,
                };
            }
        }
        self.uncapped.push(pick);
    }

    pub(crate) fn regulator(&self) -> &HeatRegulator {
        &self.regulator
    }

    pub fn ladder(&self) -> &DvfsLadder {
        &self.ladder
    }

    /// Per-core power at `level` at full utilisation, W: the same value
    /// as `ladder().power_w(level, 1.0)`, read from the table.
    #[inline]
    pub(crate) fn per_core_w(&self, level: usize) -> f64 {
        self.per_core_w[level]
    }

    /// Decide the configuration for heat demand `demand ∈ [0, 1]` and
    /// the compute backlog (cores' worth of work waiting or running,
    /// used to split compute vs resistive heat).
    pub fn decide(&self, demand: f64, backlog_cores: usize) -> RegulatorDecision {
        self.decide_with_potential(demand, backlog_cores).0
    }

    /// [`RegulatorTable::decide`] plus the *potential* cores: the count
    /// it would grant with an unlimited backlog (the §III-C "computing
    /// power depends on the heat demand" metric).
    pub(crate) fn decide_with_potential(
        &self,
        demand: f64,
        backlog_cores: usize,
    ) -> (RegulatorDecision, usize) {
        assert!(
            (0.0..=1.0).contains(&demand),
            "demand out of range: {demand}"
        );
        let r = &self.regulator;
        if demand < r.power_off_threshold {
            return (RegulatorDecision::OFF, 0);
        }
        let budget_w = demand * r.max_power_w;
        // Power available to cores after board overhead.
        let core_budget = (budget_w - r.overhead_w).max(0.0);
        let n_levels = self.per_core_w.len();
        let row = self.breakpoints.partition_point(|&b| b <= core_budget);
        let at = row * n_levels;
        let uncapped = self.uncapped[row];
        // The highest level whose fit covers the backlog gets one compare
        // against the uncapped levels above it; with none, no level is
        // capped at all.
        let covering = self.fits[at..at + n_levels]
            .iter()
            .rposition(|&fit| fit >= backlog_cores);
        let best = match covering {
            None => uncapped,
            Some(level) => {
                let above = self.above[at + level];
                let thr = backlog_cores as f64 * self.ladder.throughput(level);
                if thr > above.thr + 1e-12 {
                    Pick {
                        cores: backlog_cores,
                        level,
                        thr,
                    }
                } else {
                    above
                }
            }
        };
        let (usable_cores, level) = (best.cores, best.level);
        let compute_w = if usable_cores > 0 {
            r.overhead_w + usable_cores as f64 * self.per_core_w[level]
        } else {
            // Powered but idle: overhead only (if the budget covers it).
            r.overhead_w.min(budget_w)
        };
        let resistive_w = if r.has_resistive_backup {
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
        (decision, uncapped.cores)
    }
}

simcore::impl_snapshot! {
    RegulatorDecision { powered, usable_cores, level, compute_budget_w, resistive_w, heat_budget_w }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfhw::servers::ServerSpec;

    fn qrad() -> RegulatorTable {
        RegulatorTable::qrad()
    }

    /// A boiler's regulator on its spec's ladder: no resistive element.
    fn boiler(spec: ServerSpec) -> RegulatorTable {
        let r = HeatRegulator {
            n_cores: spec.n_cores(),
            overhead_w: spec.overhead_w,
            has_resistive_backup: false,
            power_off_threshold: 0.02,
            max_power_w: spec.nameplate_w,
        };
        RegulatorTable::new(r, (*spec.ladder).clone())
    }

    /// The oracle: one top-down scan of the ladder per decision, for
    /// the budget and the potential together.
    fn scan(
        r: &HeatRegulator,
        ladder: &DvfsLadder,
        demand: f64,
        backlog_cores: usize,
    ) -> (RegulatorDecision, usize) {
        assert!(
            (0.0..=1.0).contains(&demand),
            "demand out of range: {demand}"
        );
        if demand < r.power_off_threshold {
            return (RegulatorDecision::OFF, 0);
        }
        let budget_w = demand * r.max_power_w;
        let core_budget = (budget_w - r.overhead_w).max(0.0);
        let mut best = (0usize, 0usize, 0.0f64); // (cores, level, throughput)
        let mut potential = (0usize, 0.0f64); // (cores, throughput)
        for level in (0..ladder.n_states()).rev() {
            let per_core = ladder.power_w(level, 1.0);
            if per_core <= 0.0 {
                continue;
            }
            let fit = ((core_budget / per_core).floor() as usize).min(r.n_cores);
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
            r.overhead_w + usable_cores as f64 * ladder.power_w(level, 1.0)
        } else {
            r.overhead_w.min(budget_w)
        };
        let resistive_w = if r.has_resistive_backup {
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

    /// The demands to check on `t`: the ends, the power-off threshold
    /// ±1 ulp, a grid of 1 001, ±2 ulps around the demand whose core
    /// budget is each breakpoint, and the two adjacent demands whose core
    /// budgets straddle it (the finest step a decision can see).
    fn demands(t: &RegulatorTable) -> Vec<f64> {
        let r = &t.regulator;
        let core_budget = |d: f64| (d * r.max_power_w - r.overhead_w).max(0.0);
        let off = r.power_off_threshold;
        let mut demands = vec![0.0, 1.0, off.next_down(), off, off.next_up()];
        demands.extend((0..=1_000).map(|i| i as f64 / 1_000.0));
        for &b in &t.breakpoints {
            let d = (b + r.overhead_w) / r.max_power_w;
            let (below, above) = (d.next_down(), d.next_up());
            demands.extend([below.next_down(), below, d, above, above.next_up()]);
            let mut reach = d;
            while core_budget(reach) < b {
                reach = reach.next_up();
            }
            while core_budget(reach.next_down()) >= b {
                reach = reach.next_down();
            }
            demands.extend([reach.next_down(), reach]);
        }
        demands.retain(|d| (0.0..=1.0).contains(d));
        demands
    }

    /// Each level's fit at `demand`, by the scan's formula.
    fn oracle_fits(r: &HeatRegulator, l: &DvfsLadder, demand: f64) -> Vec<usize> {
        let core_budget = (demand * r.max_power_w - r.overhead_w).max(0.0);
        (0..l.n_states())
            .map(|level| ((core_budget / l.power_w(level, 1.0)).floor() as usize).min(r.n_cores))
            .collect()
    }

    #[test]
    fn table_matches_the_ladder_scan_bit_for_bit() {
        let regulators = [
            (qrad(), 112, 1),
            (boiler(ServerSpec::stimergy_boiler(30)), 420, 1),
            // 800 cores: every 13th backlog, plus each level's fit and
            // its neighbours, where the covering level changes.
            (boiler(ServerSpec::asperitas_boiler()), 3_980, 13),
        ];
        for (t, n_breakpoints, backlog_step) in regulators {
            let (r, l) = (&t.regulator, &t.ladder);
            assert_eq!(t.breakpoints.len(), n_breakpoints);
            assert!(t.breakpoints.windows(2).all(|w| w[0] < w[1]));
            let demands = demands(&t);
            let mut backlogs: Vec<usize> = (0..=r.n_cores + 2).step_by(backlog_step).collect();
            backlogs.extend([r.n_cores, r.n_cores + 1, r.n_cores + 2, usize::MAX]);
            for &demand in &demands {
                let mut backlogs = backlogs.clone();
                if backlog_step > 1 {
                    let fits = oracle_fits(r, l, demand);
                    backlogs.extend(fits.iter().flat_map(|&f| [f.saturating_sub(1), f, f + 1]));
                }
                for backlog in backlogs {
                    assert_eq!(
                        bits(t.decide_with_potential(demand, backlog)),
                        bits(scan(r, l, demand, backlog)),
                        "demand {demand:e}, backlog {backlog}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_demand_powers_off() {
        let d = qrad().decide(0.0, 100);
        assert!(!d.powered);
        assert_eq!(d.total_heat_w(), 0.0);
        assert_eq!(d.usable_cores, 0);
    }

    #[test]
    fn full_demand_full_backlog_runs_everything_hot() {
        let d = qrad().decide(1.0, 100);
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
        let t = qrad();
        for pct in [10, 25, 40, 55, 70, 85, 100] {
            let demand = pct as f64 / 100.0;
            let d = t.decide(demand, 100);
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
        let d = qrad().decide(0.8, 0);
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
        let d = qrad().decide(1.0, 2);
        assert_eq!(d.usable_cores, 2);
        assert!(d.resistive_w > 0.0);
        assert!((d.total_heat_w() - 500.0).abs() < 1.0);
    }

    #[test]
    fn low_demand_prefers_fewer_faster_or_more_slower_cores_by_throughput() {
        // At 30 % demand (150 W budget, 90 W for cores) the regulator
        // must pick the throughput-maximal configuration.
        let t = qrad();
        let l = t.ladder();
        let d = t.decide(0.3, 100);
        assert!(d.usable_cores > 0);
        // Exhaustively verify optimality.
        let core_budget = 0.3 * 500.0 - t.regulator().overhead_w;
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
        let mut r = HeatRegulator::for_qrad();
        r.has_resistive_backup = false;
        let d = RegulatorTable::new(r, DvfsLadder::desktop_i7()).decide(0.8, 0);
        assert_eq!(d.resistive_w, 0.0);
        assert!(d.total_heat_w() < 0.8 * 500.0);
    }

    #[test]
    fn diminishing_returns_low_budget_prefers_low_states() {
        // With a tiny budget, one slow core out-computes zero fast cores.
        let t = qrad();
        let d = t.decide(0.15, 100); // 75 W − 60 W overhead = 15 W for cores
        assert!(d.usable_cores >= 1);
        assert!(
            d.level < t.ladder().n_states() - 1,
            "must downshift, got top state"
        );
    }

    #[test]
    #[should_panic]
    fn demand_out_of_range_panics() {
        qrad().decide(1.2, 1);
    }
}
