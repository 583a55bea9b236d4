//! The remote datacenter tier.
//!
//! Vertical offloading (§III-B) sends work "towards datacenter nodes";
//! the hybrid infrastructure (§III-A) processes requests "in classical
//! datacenter nodes" when no heat is wanted. The datacenter here is a
//! fixed pool of Xeon cores behind a WAN, FIFO-scheduled, with cooling
//! overhead charged per joule (the PUE gap of experiment E2). The WAN
//! itself is the caller's: the platform's `Links::standard().wan`.

use dfhw::dvfs::DvfsLadder;
use simcore::time::SimTime;
use std::collections::VecDeque;
use workloads::{Job, JobId};

/// Cooling + distribution overhead per IT joule (PUE − 1).
pub const OVERHEAD_RATIO: f64 = 0.55;

/// The datacenter pool.
#[derive(Debug, Clone)]
pub struct Datacenter {
    cores: usize,
    gops_per_core: f64,
    watts_per_core: f64,
    busy_cores: usize,
    queue: VecDeque<Job>,
    running: Vec<(Job, usize, SimTime)>,
    /// IT energy, J.
    it_energy_j: f64,
    last_energy_update: SimTime,
    completed: u64,
}

impl Datacenter {
    /// A pool of `cores` Xeon cores at their top speed grade.
    pub fn new(cores: usize) -> Self {
        let ladder = DvfsLadder::server_xeon();
        let top = ladder.n_states() - 1;
        Datacenter {
            cores,
            gops_per_core: ladder.throughput(top),
            watts_per_core: ladder.power_w(top, 1.0),
            busy_cores: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            it_energy_j: 0.0,
            last_energy_update: SimTime::ZERO,
            completed: 0,
        }
    }

    pub fn free_cores(&self) -> usize {
        self.cores - self.busy_cores
    }

    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs queued plus running, by flow, as `(edge, dcc)` — the
    /// datacenter leg of the platform's work-conservation ledger.
    pub fn in_flight_by_flow(&self) -> (u64, u64) {
        let mut edge = 0u64;
        let mut dcc = 0u64;
        for j in self.jobs() {
            if j.is_edge() {
                edge += 1;
            } else {
                dcc += 1;
            }
        }
        (edge, dcc)
    }

    /// Every job queued or running here.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.queue
            .iter()
            .chain(self.running.iter().map(|(j, _, _)| j))
    }

    /// Jobs running right now.
    pub fn n_running(&self) -> usize {
        self.running.len()
    }

    /// Whether `job` runs here and finishes at `finish`.
    pub fn runs(&self, job: &Job, finish: SimTime) -> bool {
        self.running
            .iter()
            .any(|(j, _, f)| j == job && *f == finish)
    }

    fn accrue_energy(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_energy_update).as_secs_f64();
        self.it_energy_j += self.busy_cores as f64 * self.watts_per_core * dt;
        self.last_energy_update = now;
    }

    /// Submit a job; returns the finish time if it starts immediately,
    /// or `None` if it queued. (The WAN latency is accounted by the
    /// caller, which knows the request's origin.)
    pub fn submit(&mut self, now: SimTime, job: Job) -> Option<SimTime> {
        self.accrue_energy(now);
        if self.free_cores() >= job.cores {
            let finish = now + job.service_time(self.gops_per_core);
            self.busy_cores += job.cores;
            self.running.push((job, job.cores, finish));
            Some(finish)
        } else {
            self.queue.push_back(job);
            None
        }
    }

    /// Complete a job at `now`; returns jobs that can now start, with
    /// their finish times (the caller schedules their completions).
    pub fn complete(&mut self, now: SimTime, id: JobId) -> Vec<(Job, SimTime)> {
        self.accrue_energy(now);
        let idx = self
            .running
            .iter()
            .position(|(j, _, _)| j.id == id)
            .unwrap_or_else(|| panic!("job {id:?} not running in datacenter"));
        let (_, cores, _) = self.running.swap_remove(idx);
        self.busy_cores -= cores;
        self.completed += 1;
        let mut started = Vec::new();
        while let Some(front) = self.queue.front() {
            if front.cores > self.free_cores() {
                break;
            }
            let job = self.queue.pop_front().expect("non-empty");
            let finish = now + job.service_time(self.gops_per_core);
            self.busy_cores += job.cores;
            self.running.push((job, job.cores, finish));
            started.push((job, finish));
        }
        started
    }

    /// Total facility energy so far (IT × (1 + overhead)), kWh.
    pub fn facility_kwh(&mut self, now: SimTime) -> f64 {
        self.accrue_energy(now);
        self.it_energy_j * (1.0 + OVERHEAD_RATIO) / 3.6e6
    }

    /// IT-only energy, kWh.
    pub fn it_kwh(&mut self, now: SimTime) -> f64 {
        self.accrue_energy(now);
        self.it_energy_j / 3.6e6
    }

    /// Checkpoint the pool's dynamic state. The core count and the Xeon
    /// speed grades are rebuilt from the platform config on restore.
    pub fn snapshot_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        use simcore::snapshot::Snapshot;
        w.put_usize(self.busy_cores);
        self.queue.encode(w);
        self.running.encode(w);
        w.put_f64(self.it_energy_j);
        self.last_energy_update.encode(w);
        w.put_u64(self.completed);
    }

    /// Overlay a checkpointed dynamic state, taken at `now`, onto a
    /// fresh pool. The energy clock must lie in `[0, now]` and the busy
    /// count must be the running jobs' sum.
    pub fn restore_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
        now: SimTime,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::{Snapshot, SnapshotError};
        self.busy_cores = r.take_usize()?;
        self.queue = VecDeque::decode(r)?;
        self.running = Vec::decode(r)?;
        self.it_energy_j = r.take_f64()?;
        self.last_energy_update = SimTime::decode(r)?;
        self.completed = r.take_u64()?;
        if !(SimTime::ZERO..=now).contains(&self.last_energy_update) {
            return Err(SnapshotError::Corrupt(format!(
                "datacenter energy clock {} lies outside [0, {now}]",
                self.last_energy_update
            )));
        }
        let occupied: usize = self.running.iter().map(|(_, c, _)| *c).sum();
        if occupied != self.busy_cores || self.busy_cores > self.cores {
            return Err(SnapshotError::Corrupt(format!(
                "datacenter ledger: {} busy cores vs {} running on a {}-core pool",
                self.busy_cores, occupied, self.cores
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;
    use workloads::Flow;

    fn job(id: u64, cores: usize, work: f64) -> Job {
        Job {
            id: JobId(id),
            flow: Flow::Dcc,
            arrival: SimTime::ZERO,
            work_gops: work,
            cores,
            deadline: None,
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    #[test]
    fn immediate_start_when_free() {
        let mut dc = Datacenter::new(8);
        let f = dc.submit(SimTime::ZERO, job(1, 4, 120.0)).unwrap();
        // 120 Gop / (4 × 3 Gops) = 10 s.
        assert_eq!(f, SimTime::from_secs(10));
        assert_eq!(dc.free_cores(), 4);
    }

    #[test]
    fn queues_when_full_and_drains_fifo() {
        let mut dc = Datacenter::new(4);
        dc.submit(SimTime::ZERO, job(1, 4, 120.0)).unwrap();
        assert!(dc.submit(SimTime::ZERO, job(2, 2, 60.0)).is_none());
        assert!(dc.submit(SimTime::ZERO, job(3, 2, 60.0)).is_none());
        assert_eq!(dc.queued(), 2);
        let started = dc.complete(SimTime::from_secs(10), JobId(1));
        assert_eq!(started.len(), 2, "both queued 2-core jobs start");
        assert_eq!(dc.queued(), 0);
        assert_eq!(dc.free_cores(), 0);
        assert_eq!(started[0].1, SimTime::from_secs(20));
    }

    #[test]
    fn fifo_respects_head_blocking() {
        let mut dc = Datacenter::new(6);
        dc.submit(SimTime::ZERO, job(1, 3, 90.0)).unwrap();
        dc.submit(SimTime::ZERO, job(2, 3, 900.0)).unwrap();
        assert!(dc.submit(SimTime::ZERO, job(3, 4, 60.0)).is_none()); // head of queue
        assert!(dc.submit(SimTime::ZERO, job(4, 2, 30.0)).is_none()); // would fit, but behind head
                                                                      // Completing job 1 frees 3 cores; the head needs 4 → strict FIFO
                                                                      // starts nothing, even though job 4 would fit.
        let started = dc.complete(SimTime::from_secs(10), JobId(1));
        assert!(started.is_empty());
        assert_eq!(dc.queued(), 2);
    }

    #[test]
    fn energy_accrues_with_overhead() {
        let mut dc = Datacenter::new(8);
        dc.submit(SimTime::ZERO, job(1, 8, 8.0 * 3.0 * 3_600.0))
            .unwrap(); // 1 h on 8 cores
        let one_hour = SimTime::ZERO + SimDuration::HOUR;
        dc.complete(one_hour, JobId(1));
        let it = dc.it_kwh(one_hour);
        let fac = dc.facility_kwh(one_hour);
        let expected_it = 8.0 * dc.watts_per_core / 1_000.0;
        assert!((it - expected_it).abs() < 1e-6);
        assert!((fac / it - 1.55).abs() < 1e-9, "PUE 1.55");
    }

    #[test]
    #[should_panic]
    fn completing_unknown_job_panics() {
        let mut dc = Datacenter::new(4);
        dc.complete(SimTime::ZERO, JobId(7));
    }
}
