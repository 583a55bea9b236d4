//! The opportunistic desktop grid (refs [3, 5]).
//!
//! §I: "the experimental validation of desktop grid architectures has
//! often been done on opportunistic workloads in which computations are
//! only deployed on personal computers in idle periods. Such workloads
//! do not capture the foundations of real-time applications." We model
//! hosts whose availability alternates between ON (idle, exploitable)
//! and OFF (owner active / machine asleep) with exponential sojourns,
//! and measure what that does to latency-sensitive work.

use rand::Rng;
use simcore::dist::exponential;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;

/// Availability behaviour of one volunteer host.
#[derive(Debug, Clone, Copy)]
pub struct HostProfile {
    /// Mean idle (exploitable) period.
    pub mean_on: SimDuration,
    /// Mean busy/away (unavailable) period.
    pub mean_off: SimDuration,
    /// Cores exploitable when idle.
    pub cores: usize,
    /// Core speed, Gops/s.
    pub gops_per_core: f64,
}

impl HostProfile {
    /// A home desktop: idle ~2 h stretches, unavailable ~3 h stretches.
    pub fn home_desktop() -> Self {
        HostProfile {
            mean_on: SimDuration::from_hours(2),
            mean_off: SimDuration::from_hours(3),
            cores: 4,
            gops_per_core: 3.0,
        }
    }

    /// Long-run availability fraction.
    pub fn availability(&self) -> f64 {
        let on = self.mean_on.as_secs_f64();
        on / (on + self.mean_off.as_secs_f64())
    }
}

/// A pre-generated ON/OFF schedule for one host.
#[derive(Debug, Clone)]
pub struct HostSchedule {
    /// Sorted (start, end) ON intervals.
    intervals: Vec<(SimTime, SimTime)>,
}

impl HostSchedule {
    /// Generate a schedule over `[0, span)`.
    pub fn generate(
        profile: HostProfile,
        span: SimDuration,
        streams: &RngStreams,
        host: u64,
    ) -> Self {
        let mut rng = streams.stream_indexed("desktop-avail", host);
        let mut intervals = Vec::new();
        // Random initial phase.
        let mut t = SimTime::ZERO;
        let mut on = rng.gen::<f64>() < profile.availability();
        if on {
            // Start mid-interval.
            let first_end = SimTime::ZERO
                + SimDuration::from_secs_f64(exponential(
                    &mut rng,
                    1.0 / profile.mean_on.as_secs_f64(),
                ));
            intervals.push((SimTime::ZERO, first_end));
            t = first_end;
            on = false;
        }
        let end = SimTime::ZERO + span;
        while t < end {
            let mean = if on {
                profile.mean_on
            } else {
                profile.mean_off
            };
            let dur = SimDuration::from_secs_f64(exponential(&mut rng, 1.0 / mean.as_secs_f64()));
            if on {
                intervals.push((t, t + dur));
            }
            t += dur;
            on = !on;
        }
        HostSchedule { intervals }
    }

    /// Whether the host is exploitable at `t`.
    pub fn is_on(&self, t: SimTime) -> bool {
        self.intervals.iter().any(|&(a, b)| a <= t && t < b)
    }
}

/// The grid: many scheduled hosts.
#[derive(Debug, Clone)]
pub struct DesktopGrid {
    pub profile: HostProfile,
    pub schedules: Vec<HostSchedule>,
}

impl DesktopGrid {
    pub fn generate(
        profile: HostProfile,
        n_hosts: usize,
        span: SimDuration,
        streams: &RngStreams,
    ) -> Self {
        let schedules = (0..n_hosts)
            .map(|h| HostSchedule::generate(profile, span, streams, h as u64))
            .collect();
        DesktopGrid { profile, schedules }
    }

    /// Hosts exploitable at `t`.
    pub fn hosts_on(&self, t: SimTime) -> usize {
        self.schedules.iter().filter(|s| s.is_on(t)).count()
    }

    /// Probability (measured over hourly samples of `span`) that an
    /// arriving edge request finds zero exploitable hosts — the
    /// real-time unavailability the paper's §I objection rests on.
    pub fn outage_fraction(&self, span: SimDuration) -> f64 {
        let mut outages = 0usize;
        let mut samples = 0usize;
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + span {
            if self.hosts_on(t) == 0 {
                outages += 1;
            }
            samples += 1;
            t += SimDuration::from_secs(600);
        }
        outages as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_matches_profile() {
        let p = HostProfile::home_desktop();
        assert!((p.availability() - 0.4).abs() < 1e-12);
        let span = SimDuration::from_days(60);
        let one = DesktopGrid::generate(p, 1, span, &RngStreams::new(1));
        let a = 1.0 - one.outage_fraction(span);
        assert!((a - 0.4).abs() < 0.08, "measured {a}");
    }

    #[test]
    fn single_host_has_long_outages() {
        let grid = DesktopGrid::generate(
            HostProfile::home_desktop(),
            1,
            SimDuration::from_days(30),
            &RngStreams::new(2),
        );
        let outage = grid.outage_fraction(SimDuration::from_days(30));
        assert!(
            (0.4..0.8).contains(&outage),
            "one desktop is mostly unavailable: {outage}"
        );
    }

    #[test]
    fn many_hosts_mask_individual_churn_but_not_fully() {
        let big = DesktopGrid::generate(
            HostProfile::home_desktop(),
            20,
            SimDuration::from_days(10),
            &RngStreams::new(3),
        );
        let outage = big.outage_fraction(SimDuration::from_days(10));
        assert!(outage < 0.01, "20 hosts rarely all gone: {outage}");
        // But momentary capacity swings remain large.
        let counts: Vec<usize> = (0..200)
            .map(|i| big.hosts_on(SimTime::ZERO + SimDuration::from_hours(i)))
            .collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max >= min + 5, "capacity should swing widely: {min}..{max}");
    }

    #[test]
    fn deterministic_per_seed_and_host() {
        let p = HostProfile::home_desktop();
        let a = HostSchedule::generate(p, SimDuration::from_days(5), &RngStreams::new(7), 3);
        let b = HostSchedule::generate(p, SimDuration::from_days(5), &RngStreams::new(7), 3);
        assert_eq!(a.intervals, b.intervals);
        let c = HostSchedule::generate(p, SimDuration::from_days(5), &RngStreams::new(7), 4);
        assert_ne!(a.intervals, c.intervals);
    }
}
