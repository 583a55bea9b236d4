//! Retry budgets and flapping-worker quarantine — the recovery-policy
//! half of the fault layer.
//!
//! Edge requests that a stressed or partially-dark platform cannot
//! place are not dropped on the floor: [`RetryPolicy`] grants each job
//! a bounded number of re-submissions with exponential backoff, and the
//! platform abandons a request only once its budget or its deadline is
//! exhausted (both outcomes are counted — nothing is silently lost).
//! [`QuarantinePolicy`] + [`FlapTracker`] keep a crash-looping worker
//! out of service longer than its nominal repair time, so the fleet is
//! not repeatedly re-orphaning the same jobs.

use simcore::time::{SimDuration, SimTime};

/// Per-job retry budget with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-submissions per job (0 disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each attempt.
    pub backoff_base: SimDuration,
    /// Backoff cap.
    pub backoff_max: SimDuration,
}

simcore::impl_snapshot! {
    RetryPolicy { max_attempts, backoff_base, backoff_max }
}

impl RetryPolicy {
    /// No retries: every terminal rejection is final.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 0,
            backoff_base: SimDuration::ZERO,
            backoff_max: SimDuration::ZERO,
        }
    }

    /// Three attempts starting at 50 ms — sized for sub-second edge
    /// deadlines (a retry that cannot fire before the deadline is never
    /// scheduled).
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(50),
            backoff_max: SimDuration::from_secs(2),
        }
    }

    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Deterministic backoff before retry number `attempt` (1-based):
    /// `base × 2^(attempt-1)`, capped at `backoff_max`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        assert!(attempt >= 1, "attempts are 1-based");
        let factor = 2f64.powi((attempt - 1).min(30) as i32);
        self.backoff_base.mul_f64(factor).min(self.backoff_max)
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts > 0 {
            if self.backoff_base <= SimDuration::ZERO {
                return Err("retry backoff base must be positive".into());
            }
            if self.backoff_max < self.backoff_base {
                return Err("retry backoff cap below base".into());
            }
        }
        Ok(())
    }
}

/// When a worker fails `threshold` times within `window`, extend its
/// repair turnaround by `extra_downtime` (a flapping board is pulled
/// for bench diagnosis rather than hot-swapped in place).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    pub threshold: u32,
    pub window: SimDuration,
    pub extra_downtime: SimDuration,
}

simcore::impl_snapshot! {
    QuarantinePolicy { threshold, window, extra_downtime }
}

impl QuarantinePolicy {
    /// Three failures in a day → 12 h out of rotation.
    pub fn standard() -> Self {
        QuarantinePolicy {
            threshold: 3,
            window: SimDuration::DAY,
            extra_downtime: SimDuration::from_hours(12),
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.threshold == 0 {
            return Err("quarantine threshold must be ≥ 1".into());
        }
        if self.window <= SimDuration::ZERO {
            return Err("quarantine window must be positive".into());
        }
        if self.extra_downtime.is_negative() {
            return Err("quarantine extra downtime cannot be negative".into());
        }
        Ok(())
    }
}

/// Sliding-window failure history per worker slot, driving
/// [`QuarantinePolicy`] decisions.
#[derive(Debug, Clone)]
pub struct FlapTracker {
    history: Vec<Vec<SimTime>>,
}

impl FlapTracker {
    pub fn new(n_slots: usize) -> Self {
        FlapTracker {
            history: vec![Vec::new(); n_slots],
        }
    }

    /// Record a failure of `slot` at `now`; returns `true` when the
    /// failure (including this one) crosses the quarantine threshold
    /// within the policy window.
    pub fn record(&mut self, slot: usize, now: SimTime, policy: &QuarantinePolicy) -> bool {
        let h = &mut self.history[slot];
        h.retain(|&t| now.saturating_since(t) <= policy.window);
        h.push(now);
        h.len() as u32 >= policy.threshold
    }

    /// Failures currently inside the window for `slot` (tests/metrics).
    pub fn recent(&self, slot: usize) -> usize {
        self.history[slot].len()
    }
}

simcore::impl_snapshot!(FlapTracker { history });

impl FlapTracker {
    /// Whether every recorded failure lies in `[0, now]`, as in any
    /// run paused at `now`.
    pub fn recorded_by(&self, now: SimTime) -> bool {
        self.history
            .iter()
            .flatten()
            .all(|t| (SimTime::ZERO..=now).contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff(1), SimDuration::from_millis(50));
        assert_eq!(p.backoff(2), SimDuration::from_millis(100));
        assert_eq!(p.backoff(3), SimDuration::from_millis(200));
        // Far past the cap: 50 ms × 2^20 ≫ 2 s.
        assert_eq!(p.backoff(21), SimDuration::from_secs(2));
    }

    #[test]
    fn disabled_policy_validates_and_is_inert() {
        let p = RetryPolicy::disabled();
        assert!(!p.enabled());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn bad_policies_are_rejected() {
        let mut p = RetryPolicy::standard();
        p.backoff_base = SimDuration::ZERO;
        assert!(p.validate().is_err());
        let mut q = QuarantinePolicy::standard();
        q.threshold = 0;
        assert!(q.validate().is_err());
    }

    #[test]
    fn flap_tracker_fires_inside_window_only() {
        let q = QuarantinePolicy {
            threshold: 3,
            window: SimDuration::from_hours(1),
            extra_downtime: SimDuration::from_hours(6),
        };
        let mut f = FlapTracker::new(2);
        let h = SimTime::ZERO + SimDuration::from_hours(1);
        assert!(!f.record(0, SimTime::ZERO, &q));
        assert!(!f.record(0, SimTime::ZERO + SimDuration::from_secs(600), &q));
        // Third failure within the hour → quarantine.
        assert!(f.record(0, SimTime::ZERO + SimDuration::from_secs(1_200), &q));
        // A different slot is independent.
        assert!(!f.record(1, SimTime::ZERO + SimDuration::from_secs(1_200), &q));
        // Much later, the window has slid past the old failures.
        assert!(!f.record(0, h + SimDuration::from_hours(5), &q));
        assert_eq!(f.recent(0), 1);
    }
}
