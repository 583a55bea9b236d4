//! Edge request generators: location-based services and
//! sense-compute-actuate loops.
//!
//! Liu et al.'s second data-furnace application class — the one the
//! paper says is "representative of the scope of applications targeted
//! in Edge computing" — is "low-bandwidth neighborhood applications
//! \[including\] location-based services such as map serving, traffic
//! estimation, local navigation" (§II-A). §III-B adds the
//! sense-compute-actuate paradigm "that implies to frequently collect
//! data".

use crate::job::{Flow, Job, JobId, JobStream};
use rand::Rng;
use simcore::dist::lognormal_mean_cv;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;

/// Configuration of a location-based-service request stream (map tiles,
/// traffic estimation, local navigation).
#[derive(Debug, Clone, Copy)]
pub struct LocationServiceConfig {
    /// Requests per second at the daily peak.
    pub peak_rate_per_s: f64,
    /// Mean work per request, Gop (tile rendering / shortest path).
    pub mean_work_gops: f64,
    /// Soft deadline for an interactive answer.
    pub deadline: SimDuration,
    /// Direct or indirect delivery (§II-C).
    pub flow: Flow,
    pub org: u32,
}

impl LocationServiceConfig {
    /// Map-tile serving: light requests (~50 ms at full speed), 300 ms
    /// interactive budget.
    pub fn map_serving(flow: Flow) -> Self {
        LocationServiceConfig {
            peak_rate_per_s: 2.0,
            mean_work_gops: 0.15,
            deadline: SimDuration::from_millis(300),
            flow,
            org: 300,
        }
    }

    /// Traffic estimation: heavier aggregation, 2 s budget.
    pub fn traffic_estimation(flow: Flow) -> Self {
        LocationServiceConfig {
            peak_rate_per_s: 0.4,
            mean_work_gops: 12.0,
            deadline: SimDuration::from_secs(2),
            flow,
            org: 301,
        }
    }
}

/// Diurnal demand profile for city services: morning and evening rush.
pub fn city_diurnal_factor(t: SimTime) -> f64 {
    let h = t.hour_of_day();
    if (7.0..10.0).contains(&h) || (16.0..19.0).contains(&h) {
        1.0
    } else if (10.0..16.0).contains(&h) || (19.0..23.0).contains(&h) {
        0.6
    } else {
        0.12
    }
}

/// Generate location-service requests over `[0, span)`.
pub fn location_service_jobs(
    cfg: LocationServiceConfig,
    span: SimDuration,
    streams: &RngStreams,
    id_base: u64,
) -> JobStream {
    let mut rng = streams.stream_indexed("edge-location", cfg.org as u64);
    let arrivals = crate::arrival::nonhomogeneous_arrivals(
        &mut rng,
        |t| cfg.peak_rate_per_s * city_diurnal_factor(t),
        cfg.peak_rate_per_s,
        SimTime::ZERO,
        SimTime::ZERO + span,
    );
    let jobs = arrivals
        .iter()
        .enumerate()
        .map(|(i, &t)| Job {
            id: JobId(id_base + i as u64),
            flow: cfg.flow,
            arrival: t,
            work_gops: lognormal_mean_cv(&mut rng, cfg.mean_work_gops, 0.5),
            cores: 1,
            deadline: Some(cfg.deadline),
            input_bytes: 600,
            output_bytes: 30_000,
            org: cfg.org,
        })
        .collect();
    JobStream::new(jobs)
}

/// A periodic sense-compute-actuate loop: a sensor emits a reading every
/// `period`; the computation must finish before the next reading.
#[derive(Debug, Clone, Copy)]
pub struct SenseActuateConfig {
    /// Sampling period.
    pub period: SimDuration,
    /// Work per sample, Gop.
    pub work_gops: f64,
    /// Sensor payload, bytes.
    pub sample_bytes: usize,
    /// Jitter as a fraction of the period.
    pub jitter: f64,
    pub flow: Flow,
    pub org: u32,
}

impl SenseActuateConfig {
    /// A smart-building HVAC control loop: 10 s period.
    pub fn hvac_loop(flow: Flow) -> Self {
        SenseActuateConfig {
            period: SimDuration::from_secs(10),
            work_gops: 0.3,
            sample_bytes: 64,
            jitter: 0.05,
            flow,
            org: 310,
        }
    }
}

/// Generate one device's sense-compute-actuate stream over `[0, span)`.
/// The deadline of each job is the loop period (control must close
/// before the next sample).
pub fn sense_actuate_jobs(
    cfg: SenseActuateConfig,
    span: SimDuration,
    streams: &RngStreams,
    device: u64,
    id_base: u64,
) -> JobStream {
    assert!(cfg.period > SimDuration::ZERO);
    assert!((0.0..0.5).contains(&cfg.jitter));
    let mut rng = streams.stream_indexed("edge-sense", device);
    let mut jobs = Vec::new();
    let mut t = SimTime::ZERO;
    let mut i = 0u64;
    while t < SimTime::ZERO + span {
        let jitter = cfg
            .period
            .mul_f64(cfg.jitter * (rng.gen::<f64>() * 2.0 - 1.0));
        let arrival = t + jitter.max(SimDuration::ZERO);
        jobs.push(Job {
            id: JobId(id_base + i),
            flow: cfg.flow,
            arrival,
            work_gops: cfg.work_gops,
            cores: 1,
            deadline: Some(cfg.period),
            input_bytes: cfg.sample_bytes,
            output_bytes: 16,
            org: cfg.org,
        });
        t += cfg.period;
        i += 1;
    }
    JobStream::new(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_requests_have_deadlines() {
        let s = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_days(1),
            &RngStreams::new(3),
            0,
        );
        assert!(s.len() > 10_000, "a day of map requests, got {}", s.len());
        assert!(s
            .iter()
            .all(|j| j.deadline == Some(SimDuration::from_millis(300))));
        assert!(s.iter().all(|j| j.is_edge()));
    }

    #[test]
    fn rush_hours_dominate() {
        let s = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeDirect),
            SimDuration::from_days(2),
            &RngStreams::new(3),
            0,
        );
        let rush = s
            .iter()
            .filter(|j| {
                let h = j.arrival.hour_of_day();
                (7.0..10.0).contains(&h) || (16.0..19.0).contains(&h)
            })
            .count();
        let night = s.iter().filter(|j| j.arrival.hour_of_day() < 5.0).count();
        assert!(rush > 3 * night, "rush {rush} vs night {night}");
    }

    #[test]
    fn sense_actuate_is_periodic_with_period_deadline() {
        let cfg = SenseActuateConfig::hvac_loop(Flow::EdgeDirect);
        let s = sense_actuate_jobs(cfg, SimDuration::from_hours(1), &RngStreams::new(3), 0, 0);
        assert_eq!(s.len(), 360); // 3600 s / 10 s
        assert!(s.iter().all(|j| j.deadline == Some(cfg.period)));
        // Consecutive arrivals are one period apart, within jitter.
        let arr: Vec<f64> = s.iter().map(|j| j.arrival.as_secs_f64()).collect();
        for w in arr.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                (9.0..11.0).contains(&gap),
                "gap {gap} outside jitter bounds"
            );
        }
    }

    #[test]
    fn devices_get_independent_streams() {
        let cfg = SenseActuateConfig::hvac_loop(Flow::EdgeDirect);
        let a = sense_actuate_jobs(cfg, SimDuration::from_hours(1), &RngStreams::new(3), 0, 0);
        let b = sense_actuate_jobs(cfg, SimDuration::from_hours(1), &RngStreams::new(3), 1, 0);
        let same = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| x.arrival == y.arrival)
            .count();
        assert!(same < a.len() / 2, "jitter should differ between devices");
    }

    #[test]
    fn traffic_estimation_is_heavier_than_map_tiles() {
        let m = LocationServiceConfig::map_serving(Flow::EdgeIndirect);
        let t = LocationServiceConfig::traffic_estimation(Flow::EdgeIndirect);
        assert!(t.mean_work_gops > 10.0 * m.mean_work_gops);
        assert!(t.deadline > m.deadline);
    }
}
