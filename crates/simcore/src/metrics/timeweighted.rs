//! Time-weighted averaging of piecewise-constant signals.

use crate::time::{SimDuration, SimTime};

/// Time-average of a piecewise-constant signal (queue length, power draw,
/// number of busy cores, …). Call [`TimeWeighted::set`] whenever the
/// signal changes; the instrument integrates value×time between changes.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    integral: f64, // value × seconds
    weighted_start: SimTime,
    max: f64,
    min: f64,
}

impl TimeWeighted {
    /// Start tracking at time `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            value: v0,
            last_change: t0,
            integral: 0.0,
            weighted_start: t0,
            max: v0,
            min: v0,
        }
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Change the signal to `v` at time `t`. `t` must not precede the
    /// previous change.
    pub fn set(&mut self, t: SimTime, v: f64) {
        assert!(!v.is_nan(), "TimeWeighted::set(NaN)");
        assert!(t >= self.last_change, "TimeWeighted: time went backwards");
        self.integral += self.value * (t - self.last_change).as_secs_f64();
        self.value = v;
        self.last_change = t;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Add `delta` to the signal at time `t` (convenience for counters
    /// such as busy-core counts).
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(t, v);
    }

    /// Time-averaged value over `[start, now]`; `now` must be at or after
    /// the last change.
    pub fn average(&self, now: SimTime) -> f64 {
        assert!(now >= self.last_change);
        let total = (now - self.weighted_start).as_secs_f64();
        if total <= 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * (now - self.last_change).as_secs_f64();
        integral / total
    }

    /// Integral of the signal over `[start, now]` in value·seconds —
    /// e.g. joules if the signal is watts.
    pub fn integral(&self, now: SimTime) -> f64 {
        assert!(now >= self.last_change);
        self.integral + self.value * (now - self.last_change).as_secs_f64()
    }

    /// Integral expressed in value·hours (e.g. Wh if the signal is W).
    pub fn integral_hours(&self, now: SimTime) -> f64 {
        self.integral(now) / 3600.0
    }

    pub fn max_seen(&self) -> f64 {
        self.max
    }

    pub fn min_seen(&self) -> f64 {
        self.min
    }

    /// Elapsed observation window at `now`.
    pub fn window(&self, now: SimTime) -> SimDuration {
        now - self.weighted_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn piecewise_average() {
        let mut g = TimeWeighted::new(t(0), 0.0);
        g.set(t(10), 4.0); // 0 for 10 s
        g.set(t(20), 2.0); // 4 for 10 s
                           // now at t=30: 2 for 10 s → avg = (0*10 + 4*10 + 2*10)/30 = 2.0
        assert!((g.average(t(30)) - 2.0).abs() < 1e-12);
        assert_eq!(g.current(), 2.0);
        assert_eq!(g.max_seen(), 4.0);
        assert_eq!(g.min_seen(), 0.0);
    }

    #[test]
    fn integral_in_joules_and_wh() {
        // 500 W for one hour = 500 Wh = 1.8 MJ.
        let mut g = TimeWeighted::new(t(0), 500.0);
        let end = SimTime::ZERO + SimDuration::HOUR;
        assert!((g.integral(end) - 1_800_000.0).abs() < 1e-6);
        assert!((g.integral_hours(end) - 500.0).abs() < 1e-9);
        g.set(end, 0.0);
        let end2 = end + SimDuration::HOUR;
        assert!((g.integral_hours(end2) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn add_accumulates() {
        let mut busy = TimeWeighted::new(t(0), 0.0);
        busy.add(t(0), 1.0);
        busy.add(t(5), 1.0);
        busy.add(t(10), -1.0);
        // [0,5): 1, [5,10): 2, [10,20): 1 → avg over 20 s = (5+10+10)/20 = 1.25
        assert!((busy.average(t(20)) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn zero_window_returns_current() {
        let g = TimeWeighted::new(t(5), 7.0);
        assert_eq!(g.average(t(5)), 7.0);
    }

    #[test]
    #[should_panic]
    fn backwards_time_panics() {
        let mut g = TimeWeighted::new(t(10), 0.0);
        g.set(t(5), 1.0);
    }
}
