//! The common job currency.
//!
//! Work is measured in **giga-operations** (Gop): a core running at
//! `f` GHz completes `f` Gop per second (see `dfhw::dvfs`). This makes
//! DVFS slowdowns, heterogeneous servers, and deadline feasibility all
//! directly computable.

use simcore::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Job identifier, unique within a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Which DF3 flow a request belongs to (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Internet computing request (distributed cloud computing).
    Dcc,
    /// Local computing request sent directly to a DF server.
    EdgeDirect,
    /// Local computing request routed through the master node.
    EdgeIndirect,
}

/// One computing request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub id: JobId,
    pub flow: Flow,
    /// Arrival time at its gateway.
    pub arrival: SimTime,
    /// Total work, Gop (spread evenly over `cores`).
    pub work_gops: f64,
    /// Rigid degree of parallelism (cores held simultaneously).
    pub cores: usize,
    /// Relative deadline from arrival (edge real-time requests).
    pub deadline: Option<SimDuration>,
    /// Request payload, bytes (device → server).
    pub input_bytes: usize,
    /// Response payload, bytes (server → device).
    pub output_bytes: usize,
    /// Owning organisation / user group (fairness accounting, ref \[16\]).
    pub org: u32,
}

impl Job {
    /// Service time on `cores` cores each delivering `gops_per_core`.
    pub fn service_time(&self, gops_per_core: f64) -> SimDuration {
        assert!(gops_per_core > 0.0);
        SimDuration::from_secs_f64(self.work_gops / (self.cores as f64 * gops_per_core))
    }

    /// Absolute deadline, if any.
    pub fn absolute_deadline(&self) -> Option<SimTime> {
        self.deadline.map(|d| self.arrival + d)
    }

    /// Whether completing at `finish` meets the deadline (jobs without
    /// deadlines always do).
    pub fn meets_deadline(&self, finish: SimTime) -> bool {
        match self.absolute_deadline() {
            Some(d) => finish <= d,
            None => true,
        }
    }

    /// Sanity-check the job's fields; generators call this before
    /// emitting, so malformed jobs never enter a simulation.
    pub fn validate(&self) -> Result<(), String> {
        if self.work_gops <= 0.0 || self.work_gops.is_nan() {
            return Err(format!("job {:?}: non-positive work", self.id));
        }
        if self.cores == 0 {
            return Err(format!("job {:?}: zero cores", self.id));
        }
        if let Some(d) = self.deadline {
            if d <= SimDuration::ZERO {
                return Err(format!("job {:?}: non-positive deadline", self.id));
            }
        }
        Ok(())
    }

    pub fn is_edge(&self) -> bool {
        matches!(self.flow, Flow::EdgeDirect | Flow::EdgeIndirect)
    }
}

simcore::impl_snapshot!(JobId(0));

simcore::impl_snapshot! {
    enum Flow { 0 => Dcc, 1 => EdgeDirect, 2 => EdgeIndirect }
}

simcore::impl_snapshot! {
    Job { id, flow, arrival, work_gops, cores, deadline, input_bytes, output_bytes, org }
}

/// A generated stream of jobs, sorted by `(arrival, id)`.
///
/// The jobs sit behind an [`Arc`], so cloning a stream, or handing it
/// to a simulation run through [`JobStream::shared`], copies no job.
#[derive(Debug, Clone, Default)]
pub struct JobStream {
    jobs: Arc<Vec<Job>>,
}

impl JobStream {
    pub fn new(mut jobs: Vec<Job>) -> Self {
        for j in &jobs {
            if let Err(e) = j.validate() {
                panic!("invalid job in stream: {e}");
            }
        }
        jobs.sort_by_key(|j| (j.arrival, j.id));
        JobStream {
            jobs: Arc::new(jobs),
        }
    }

    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The sorted jobs themselves, shared rather than copied.
    pub fn shared(&self) -> Arc<Vec<Job>> {
        Arc::clone(&self.jobs)
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Total work in the stream, Gop.
    pub fn total_work_gops(&self) -> f64 {
        self.jobs.iter().map(|j| j.work_gops).sum()
    }

    /// Merge two streams (stable by arrival, then id). Reuses `self`'s
    /// jobs in place unless another handle still shares them.
    pub fn merge(self, other: JobStream) -> JobStream {
        let mut jobs = Arc::unwrap_or_clone(self.jobs);
        jobs.extend_from_slice(&other.jobs);
        jobs.sort_by_key(|j| (j.arrival, j.id));
        JobStream {
            jobs: Arc::new(jobs),
        }
    }

    /// Jobs arriving within `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &Job> {
        self.jobs
            .iter()
            .filter(move |j| j.arrival >= from && j.arrival < to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrival_s: i64) -> Job {
        Job {
            id: JobId(id),
            flow: Flow::Dcc,
            arrival: SimTime::from_secs(arrival_s),
            work_gops: 100.0,
            cores: 2,
            deadline: None,
            input_bytes: 1_000,
            output_bytes: 1_000,
            org: 0,
        }
    }

    #[test]
    fn service_time_scales_with_cores_and_speed() {
        let j = job(1, 0);
        // 100 Gop over 2 cores at 2 Gops/core = 25 s.
        assert_eq!(j.service_time(2.0), SimDuration::from_secs(25));
        assert_eq!(j.service_time(1.0), SimDuration::from_secs(50));
    }

    #[test]
    fn deadline_semantics() {
        let mut j = job(1, 100);
        assert!(j.meets_deadline(SimTime::from_secs(1_000_000)));
        j.deadline = Some(SimDuration::from_secs(10));
        assert_eq!(j.absolute_deadline(), Some(SimTime::from_secs(110)));
        assert!(j.meets_deadline(SimTime::from_secs(110)));
        assert!(!j.meets_deadline(SimTime::from_secs(111)));
    }

    #[test]
    fn stream_sorts_by_arrival() {
        let s = JobStream::new(vec![job(2, 50), job(1, 10), job(3, 30)]);
        let arrivals: Vec<i64> = s.iter().map(|j| j.arrival.as_secs_f64() as i64).collect();
        assert_eq!(arrivals, vec![10, 30, 50]);
    }

    #[test]
    fn merge_interleaves() {
        let a = JobStream::new(vec![job(1, 10), job(2, 30)]);
        let b = JobStream::new(vec![job(3, 20)]);
        let m = a.merge(b);
        let ids: Vec<u64> = m.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert!((m.total_work_gops() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn shared_streams_hold_one_copy_of_the_jobs() {
        let s = JobStream::new(vec![job(2, 50), job(1, 10)]);
        let shared = s.shared();
        let cloned = s.clone();
        assert!(std::ptr::eq(shared.as_slice(), s.jobs()));
        assert!(std::ptr::eq(cloned.jobs(), s.jobs()));
        // Merging a shared stream leaves the other handles untouched.
        let merged = cloned.merge(JobStream::new(vec![job(3, 30)]));
        assert_eq!(merged.len(), 3);
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn window_filters_half_open() {
        let s = JobStream::new(vec![job(1, 10), job(2, 20), job(3, 30)]);
        let n = s
            .window(SimTime::from_secs(10), SimTime::from_secs(30))
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn validate_rejects_bad_jobs() {
        let mut j = job(1, 0);
        j.work_gops = 0.0;
        assert!(j.validate().is_err());
        let mut j2 = job(2, 0);
        j2.cores = 0;
        assert!(j2.validate().is_err());
        let mut j3 = job(3, 0);
        j3.deadline = Some(SimDuration::ZERO);
        assert!(j3.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn stream_rejects_invalid_jobs() {
        let mut j = job(1, 0);
        j.cores = 0;
        JobStream::new(vec![j]);
    }
}
