//! Time integral of a piecewise-constant signal.

use crate::time::SimTime;

/// Integral of a piecewise-constant signal (power draw, …). Call
/// [`TimeWeighted::set`] whenever the signal changes; the instrument
/// integrates value×time between changes.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    integral: f64, // value × seconds
}

impl TimeWeighted {
    /// Start tracking at time `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            value: v0,
            last_change: t0,
            integral: 0.0,
        }
    }

    /// Change the signal to `v` at time `t`. `t` must not precede the
    /// previous change.
    pub fn set(&mut self, t: SimTime, v: f64) {
        assert!(!v.is_nan(), "TimeWeighted::set(NaN)");
        assert!(t >= self.last_change, "TimeWeighted: time went backwards");
        self.integral += self.value * (t - self.last_change).as_secs_f64();
        self.value = v;
        self.last_change = t;
    }

    /// Integral of the signal over `[start, now]` in value·seconds —
    /// e.g. joules if the signal is watts.
    pub fn integral(&self, now: SimTime) -> f64 {
        assert!(now >= self.last_change);
        self.integral + self.value * (now - self.last_change).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn piecewise_average() {
        let mut g = TimeWeighted::new(t(0), 0.0);
        g.set(t(10), 4.0); // 0 for 10 s
        g.set(t(20), 2.0); // 4 for 10 s
                           // now at t=30: 2 for 10 s → 0*10 + 4*10 + 2*10 = 60
        assert!((g.integral(t(30)) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn integral_in_joules_and_wh() {
        // 500 W for one hour = 500 Wh = 1.8 MJ.
        let mut g = TimeWeighted::new(t(0), 500.0);
        let end = SimTime::ZERO + SimDuration::HOUR;
        assert!((g.integral(end) - 1_800_000.0).abs() < 1e-6);
        g.set(end, 0.0);
        let end2 = end + SimDuration::HOUR;
        assert!((g.integral(end2) - 1_800_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn backwards_time_panics() {
        let mut g = TimeWeighted::new(t(10), 0.0);
        g.set(t(5), 1.0);
    }
}
