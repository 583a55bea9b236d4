//! Heating request streams.
//!
//! §II-C: "The first flow is those of heating requests. The purpose of
//! these requests is to deliver heat to the environment in which the DF
//! server is deployed. … Heating requests could be collaborative or
//! individual." A heating request is *not* a job — it is a target the
//! regulator must hold — so it has its own type.

use simcore::dist::{normal, uniform};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;

/// Scope of a heating request (§II-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeatingScope {
    /// Targets one specific DF server's room.
    Individual { server: usize },
    /// Targets the mean temperature of a group of rooms.
    Collaborative { building: usize },
}

/// A heating request: "set the temperature at 20 degrees".
#[derive(Debug, Clone, Copy)]
pub struct HeatingRequest {
    /// When the resident issues it.
    pub at: SimTime,
    pub scope: HeatingScope,
    /// Requested temperature, °C.
    pub target_c: f64,
}

/// Generate a household's daily setpoint-change requests over `[0, span)`:
/// a morning raise, an evening raise, a bedtime setback — with household-
/// specific preferred temperatures and some day-to-day variation.
pub fn household_requests(
    span: SimDuration,
    streams: &RngStreams,
    server: usize,
) -> Vec<HeatingRequest> {
    let mut rng = streams.stream_indexed("heating-req", server as u64);
    // Household-specific comfort preference, persistent across days.
    let preferred = normal(&mut rng, 20.0, 0.8).clamp(18.0, 23.0);
    let setback = preferred - uniform(&mut rng, 2.0, 4.0);
    let mut out = Vec::new();
    let days = span.as_days_f64().ceil() as i64;
    for d in 0..days {
        let day = SimTime::ZERO + SimDuration::from_days(d);
        let wake = uniform(&mut rng, 6.0, 8.0);
        let sleep = uniform(&mut rng, 21.5, 23.5);
        out.push(HeatingRequest {
            at: day + SimDuration::from_hours_f64(wake),
            scope: HeatingScope::Individual { server },
            target_c: preferred + normal(&mut rng, 0.0, 0.2),
        });
        out.push(HeatingRequest {
            at: day + SimDuration::from_hours_f64(sleep),
            scope: HeatingScope::Individual { server },
            target_c: setback,
        });
    }
    out.retain(|r| r.at < SimTime::ZERO + span);
    out.sort_by_key(|r| r.at);
    out
}

/// The target in force at time `t` given a sorted request list and a
/// default before the first request.
pub fn target_at(requests: &[HeatingRequest], t: SimTime, default_c: f64) -> f64 {
    match requests.iter().rev().find(|r| r.at <= t) {
        Some(r) => r.target_c,
        None => default_c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_requests_per_day() {
        let reqs = household_requests(SimDuration::from_days(10), &RngStreams::new(6), 0);
        assert_eq!(reqs.len(), 20);
        assert!(reqs.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn day_target_above_night_target() {
        let reqs = household_requests(SimDuration::from_days(5), &RngStreams::new(6), 0);
        let noon = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_hours(12);
        let night = SimTime::ZERO
            + SimDuration::from_days(2)
            + SimDuration::from_hours(23)
            + SimDuration::from_secs(45 * 60);
        let day_t = target_at(&reqs, noon, 19.0);
        let night_t = target_at(&reqs, night, 19.0);
        assert!(
            day_t > night_t,
            "daytime target {day_t} should exceed night {night_t}"
        );
        assert!((18.0..23.5).contains(&day_t));
    }

    #[test]
    fn default_before_first_request() {
        let reqs = household_requests(SimDuration::from_days(2), &RngStreams::new(6), 0);
        assert_eq!(target_at(&reqs, SimTime::ZERO, 19.5), 19.5);
    }

    #[test]
    fn households_differ_but_are_deterministic() {
        let a = household_requests(SimDuration::from_days(3), &RngStreams::new(6), 0);
        let b = household_requests(SimDuration::from_days(3), &RngStreams::new(6), 1);
        let a2 = household_requests(SimDuration::from_days(3), &RngStreams::new(6), 0);
        assert_ne!(a[0].target_c, b[0].target_c);
        assert_eq!(a[0].target_c, a2[0].target_c);
    }
}
