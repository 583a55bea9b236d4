//! DVFS ladders.
//!
//! §III-B: "The heat regulator implements a DVFS based technique (voltage
//! and frequency regulation) to guarantee that the energy consumed
//! corresponds to the heat demand." A [`DvfsLadder`] is the discrete set
//! of P-states a CPU offers; dynamic power follows the classic
//! `P = C·V²·f` law plus static leakage, and throughput scales with
//! frequency. Because voltage must rise with frequency, energy-per-op
//! grows at the top of the ladder — the "laws of diminishing returns"
//! of Le Sueur & Heiser \[17\], reproduced by experiment E13.

/// One P-state: an operating point of the CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// Core frequency, GHz.
    pub freq_ghz: f64,
    /// Supply voltage, V.
    pub voltage_v: f64,
}

/// A discrete ladder of P-states with a power model.
#[derive(Debug, Clone)]
pub struct DvfsLadder {
    /// P-states sorted by ascending frequency.
    states: Vec<PState>,
    /// Effective switched capacitance, in W/(GHz·V²) per core.
    pub capacitance: f64,
    /// Static (leakage + uncore) power per core, W.
    pub static_w: f64,
}

impl DvfsLadder {
    /// Build a ladder; states are sorted by frequency and validated
    /// (voltage must be non-decreasing with frequency).
    pub fn new(mut states: Vec<PState>, capacitance: f64, static_w: f64) -> Self {
        assert!(!states.is_empty(), "a DVFS ladder needs at least one state");
        assert!(capacitance > 0.0 && static_w >= 0.0);
        states.sort_by(|a, b| a.freq_ghz.partial_cmp(&b.freq_ghz).expect("NaN freq"));
        for w in states.windows(2) {
            assert!(
                w[1].voltage_v >= w[0].voltage_v,
                "voltage must be monotone in frequency"
            );
        }
        assert!(states.iter().all(|s| s.freq_ghz > 0.0 && s.voltage_v > 0.0));
        DvfsLadder {
            states,
            capacitance,
            static_w,
        }
    }

    /// The ladder of the desktop i7-class CPUs Qarnot mounted in Q.rads:
    /// 0.8–3.0 GHz over 0.70–1.05 V. Calibrated so one 4-core package at
    /// full tilt draws ≈ 110 W (×4 CPUs + board ≈ 500 W per Q.rad at the
    /// wall, matching the paper's figure).
    pub fn desktop_i7() -> Self {
        DvfsLadder::new(
            vec![
                PState {
                    freq_ghz: 0.8,
                    voltage_v: 0.70,
                },
                PState {
                    freq_ghz: 1.2,
                    voltage_v: 0.75,
                },
                PState {
                    freq_ghz: 1.6,
                    voltage_v: 0.80,
                },
                PState {
                    freq_ghz: 2.0,
                    voltage_v: 0.86,
                },
                PState {
                    freq_ghz: 2.4,
                    voltage_v: 0.93,
                },
                PState {
                    freq_ghz: 2.8,
                    voltage_v: 1.00,
                },
                PState {
                    freq_ghz: 3.0,
                    voltage_v: 1.05,
                },
            ],
            8.0, // W/(GHz·V²)
            1.0, // static W per core
        )
    }

    /// A server-class CPU ladder for boilers and datacenter nodes:
    /// higher static power, wider dynamic range. Calibrated so the
    /// Asperitas AIC24's 200 four-core packages draw ≈ 20 kW.
    pub fn server_xeon() -> Self {
        DvfsLadder::new(
            vec![
                PState {
                    freq_ghz: 1.0,
                    voltage_v: 0.75,
                },
                PState {
                    freq_ghz: 1.5,
                    voltage_v: 0.82,
                },
                PState {
                    freq_ghz: 2.0,
                    voltage_v: 0.90,
                },
                PState {
                    freq_ghz: 2.5,
                    voltage_v: 1.00,
                },
                PState {
                    freq_ghz: 3.0,
                    voltage_v: 1.10,
                },
            ],
            6.0,
            2.5,
        )
    }

    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    pub fn state(&self, level: usize) -> PState {
        self.states[level]
    }

    pub fn min_state(&self) -> PState {
        self.states[0]
    }

    pub fn max_state(&self) -> PState {
        *self.states.last().expect("non-empty")
    }

    /// Per-core power at `level` with utilisation `util ∈ [0, 1]`:
    /// static + utilisation-scaled dynamic power.
    pub fn power_w(&self, level: usize, util: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&util),
            "utilisation out of range: {util}"
        );
        let s = self.states[level];
        self.static_w + util * self.capacitance * s.freq_ghz * s.voltage_v * s.voltage_v
    }

    /// Per-core compute throughput at `level`, in normalised giga-ops/s
    /// (1.0 GHz ≡ 1.0 Gops of the workload unit).
    pub fn throughput(&self, level: usize) -> f64 {
        self.states[level].freq_ghz
    }

    /// Energy per operation at full utilisation, nJ/op — the metric
    /// whose convexity is the diminishing-returns law (E13).
    pub fn energy_per_op_nj(&self, level: usize) -> f64 {
        self.power_w(level, 1.0) / self.throughput(level)
    }

    /// Highest level whose full-utilisation power does not exceed
    /// `budget_w` per core; `None` if even the lowest state exceeds it.
    pub fn level_for_power(&self, budget_w: f64) -> Option<usize> {
        let mut best = None;
        for (i, _) in self.states.iter().enumerate() {
            if self.power_w(i, 1.0) <= budget_w {
                best = Some(i);
            }
        }
        best
    }

    /// Lowest level whose throughput meets `min_gops`; `None` if even
    /// the top state is too slow.
    pub fn level_for_throughput(&self, min_gops: f64) -> Option<usize> {
        self.states.iter().position(|s| s.freq_ghz >= min_gops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_monotone_in_level_and_util() {
        let l = DvfsLadder::desktop_i7();
        for i in 1..l.n_states() {
            assert!(l.power_w(i, 1.0) > l.power_w(i - 1, 1.0));
        }
        assert!(l.power_w(3, 0.5) < l.power_w(3, 1.0));
        assert_eq!(l.power_w(3, 0.0), l.static_w);
    }

    #[test]
    fn desktop_i7_calibration_matches_qrad() {
        // 4 CPUs × 4 cores at max state should land near 500 W wall power.
        let l = DvfsLadder::desktop_i7();
        let per_core = l.power_w(l.n_states() - 1, 1.0);
        let qrad_w = per_core * 16.0 + 60.0; // + board/PSU overhead
        assert!(
            (420.0..560.0).contains(&qrad_w),
            "Q.rad estimate {qrad_w} W should be ≈500 W"
        );
    }

    #[test]
    fn diminishing_returns_curve_is_convex() {
        // Energy/op must be increasing at the top of the ladder [17].
        let l = DvfsLadder::desktop_i7();
        let top = l.energy_per_op_nj(l.n_states() - 1);
        let mid = l.energy_per_op_nj(l.n_states() / 2);
        assert!(
            top > mid,
            "energy/op at top {top} should exceed mid {mid} (diminishing returns)"
        );
    }

    #[test]
    fn level_for_power_selects_highest_feasible() {
        let l = DvfsLadder::desktop_i7();
        let full = l.power_w(l.n_states() - 1, 1.0);
        assert_eq!(l.level_for_power(full + 0.1), Some(l.n_states() - 1));
        let lowest = l.power_w(0, 1.0);
        assert_eq!(l.level_for_power(lowest), Some(0));
        assert_eq!(l.level_for_power(lowest - 0.1), None);
        // A mid-range budget picks a mid level, and that level's power
        // respects the budget.
        let budget = (lowest + full) / 2.0;
        let lvl = l.level_for_power(budget).unwrap();
        assert!(l.power_w(lvl, 1.0) <= budget);
        assert!(lvl > 0 && lvl < l.n_states() - 1);
    }

    #[test]
    fn level_for_throughput() {
        let l = DvfsLadder::desktop_i7();
        assert_eq!(l.level_for_throughput(0.5), Some(0));
        assert_eq!(l.level_for_throughput(2.9), Some(l.n_states() - 1));
        assert_eq!(l.level_for_throughput(10.0), None);
    }

    #[test]
    fn throughput_scales_with_frequency() {
        let l = DvfsLadder::server_xeon();
        assert_eq!(l.throughput(0), 1.0);
        assert_eq!(l.throughput(l.n_states() - 1), 3.0);
    }

    #[test]
    #[should_panic]
    fn non_monotone_voltage_rejected() {
        DvfsLadder::new(
            vec![
                PState {
                    freq_ghz: 1.0,
                    voltage_v: 1.0,
                },
                PState {
                    freq_ghz: 2.0,
                    voltage_v: 0.8,
                },
            ],
            1.0,
            0.0,
        );
    }

    #[test]
    #[should_panic]
    fn empty_ladder_rejected() {
        DvfsLadder::new(vec![], 1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn util_out_of_range_rejected() {
        DvfsLadder::desktop_i7().power_w(0, 1.5);
    }
}
