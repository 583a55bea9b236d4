//! Arrival processes.
//!
//! §II-C: "the arrival laws of Internet and heating requests do not
//! necessarily depend on the same parameters. In particular, the
//! seasonality clearly affects the law of heating requests while
//! business opportunities will impact the second law." Arrivals here
//! are Poisson processes whose rate may vary with time (simulated by
//! thinning), with a ready-made business-hours modulator.

use rand::Rng;
use simcore::dist::exponential;
use simcore::time::{SimDuration, SimTime};

/// Generate arrival times of a homogeneous Poisson process with
/// `rate_per_s` over `[start, end)`.
pub fn poisson_arrivals<R: Rng + ?Sized>(
    rng: &mut R,
    rate_per_s: f64,
    start: SimTime,
    end: SimTime,
) -> Vec<SimTime> {
    assert!(rate_per_s >= 0.0);
    assert!(end >= start);
    let mut out = Vec::new();
    if rate_per_s == 0.0 {
        return out;
    }
    let mut t = start;
    loop {
        t += SimDuration::from_secs_f64(exponential(rng, rate_per_s));
        if t >= end {
            return out;
        }
        out.push(t);
    }
}

/// Generate a non-homogeneous Poisson process via thinning. `rate` gives
/// the instantaneous rate (per second) at any time; `rate_max` must
/// dominate it over the whole interval (checked probabilistically by a
/// debug assertion at each accepted point).
pub fn nonhomogeneous_arrivals<R, F>(
    rng: &mut R,
    rate: F,
    rate_max: f64,
    start: SimTime,
    end: SimTime,
) -> Vec<SimTime>
where
    R: Rng + ?Sized,
    F: Fn(SimTime) -> f64,
{
    assert!(rate_max > 0.0);
    let mut out = Vec::new();
    let mut t = start;
    loop {
        t += SimDuration::from_secs_f64(exponential(rng, rate_max));
        if t >= end {
            return out;
        }
        let r = rate(t);
        assert!(
            r <= rate_max * (1.0 + 1e-9),
            "rate {r} exceeds dominating rate {rate_max} at {t}"
        );
        assert!(r >= 0.0);
        if rng.gen::<f64>() * rate_max < r {
            out.push(t);
        }
    }
}

/// Business-hours modulation factor: 1.0 on weekday working hours,
/// lower evenings/nights/weekends. Days 0 and 1 of each 7-day cycle are
/// the weekend (the simulation epoch is a Saturday by convention).
pub fn business_factor(t: SimTime) -> f64 {
    let dow = t.day_index().rem_euclid(7);
    let h = t.hour_of_day();
    let weekend = dow == 0 || dow == 1;
    if weekend {
        0.25
    } else if (9.0..18.0).contains(&h) {
        1.0
    } else if (7.0..9.0).contains(&h) || (18.0..22.0).contains(&h) {
        0.55
    } else {
        0.15
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RngStreams;

    fn rng() -> rand_chacha::ChaCha8Rng {
        RngStreams::new(5).stream("arrivals")
    }

    #[test]
    fn poisson_count_matches_rate() {
        let mut r = rng();
        let arr = poisson_arrivals(
            &mut r,
            0.5,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(100_000),
        );
        let n = arr.len() as f64;
        assert!((n - 50_000.0).abs() < 1_000.0, "n = {n}");
        assert!(arr.windows(2).all(|w| w[0] < w[1]), "sorted, strictly");
    }

    #[test]
    fn zero_rate_is_empty() {
        let mut r = rng();
        assert!(poisson_arrivals(&mut r, 0.0, SimTime::ZERO, SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn thinning_follows_the_rate_profile() {
        let mut r = rng();
        // Rate 1.0 in the first half, 0.1 in the second.
        let end = SimTime::from_secs(200_000);
        let arr = nonhomogeneous_arrivals(
            &mut r,
            |t| {
                if t < SimTime::from_secs(100_000) {
                    1.0
                } else {
                    0.1
                }
            },
            1.0,
            SimTime::ZERO,
            end,
        );
        let first = arr
            .iter()
            .filter(|&&t| t < SimTime::from_secs(100_000))
            .count();
        let second = arr.len() - first;
        let ratio = first as f64 / second.max(1) as f64;
        assert!((8.0..12.5).contains(&ratio), "ratio {ratio} should be ~10");
    }

    #[test]
    fn business_hours_shape() {
        // Day 2 is a weekday (epoch is Saturday).
        let weekday_noon = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_hours(12);
        let weekday_night = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_hours(3);
        let weekend_noon = SimTime::ZERO + SimDuration::from_hours(12);
        assert_eq!(business_factor(weekday_noon), 1.0);
        assert!(business_factor(weekday_night) < 0.2);
        assert!(business_factor(weekend_noon) < 0.3);
    }

    #[test]
    #[should_panic]
    fn thinning_detects_rate_violation() {
        let mut r = rng();
        let _ = nonhomogeneous_arrivals(
            &mut r,
            |_| 2.0,
            1.0, // dominating rate too small
            SimTime::ZERO,
            SimTime::from_secs(10_000),
        );
    }
}
