//! A gateway-fronted cluster of DF workers.
//!
//! Implements both §III-B architectures over the same worker pool:
//! class A shares every worker between flows (context-switch cost on
//! alternation), class B dedicates `edge_workers` to edge traffic. The
//! cluster owns the edge (EDF) and DCC (FIFO) ready queues of its
//! gateways and exposes the load snapshot the peak policies consume.

use crate::config::ArchClass;
use crate::regulator::RegulatorTable;
use crate::worker::{RunningSlice, SensorState, WorkerSim};
use sched::queue::{Discipline, ReadyQueue};
use sched::ClusterLoad;
use simcore::time::{SimDuration, SimTime};
use std::sync::Arc;
use thermal::batch::ThermalBatch;
use thermal::room::RoomParams;
use thermal::thermostat::{ModulatingThermostat, SetpointSchedule};
use workloads::{Job, JobId};

/// Result of a local dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dispatch {
    /// Started on `worker`; completes at the given time.
    Started { worker: usize, finish: SimTime },
    /// No eligible worker can take it right now.
    Full,
}

/// Core counts summed over a cluster's workers: the capacity half of
/// [`ClusterSim::load`], kept current instead of recounted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CoreSums {
    /// Cores of the workers that are not failed.
    healthy: usize,
    busy: usize,
    preemptible: usize,
}

impl CoreSums {
    /// One worker's contribution, from its O(1) counters.
    fn of(w: &WorkerSim) -> Self {
        CoreSums {
            healthy: if w.is_failed() { 0 } else { w.n_cores() },
            busy: w.busy_cores(),
            preemptible: w.preemptible_cores(),
        }
    }
}

/// One cluster.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    pub id: usize,
    pub arch: ArchClass,
    /// Every change to a worker's running set or failed flag goes
    /// through [`ClusterSim::update_worker`], which keeps `sums` current.
    workers: Vec<WorkerSim>,
    sums: CoreSums,
    /// First room slot of this cluster in the fleet [`ThermalBatch`]
    /// (worker `w`'s room is slot `room_base + w`).
    room_base: usize,
    pub edge_queue: ReadyQueue,
    pub dcc_queue: ReadyQueue,
}

impl ClusterSim {
    /// Build a cluster of `n_workers` Q.rads, appending their rooms to
    /// the fleet batch with per-room thermal diversity (initial
    /// temperatures spread around 17 °C so rooms are not artificially
    /// synchronised).
    pub fn new(
        id: usize,
        n_workers: usize,
        arch: ArchClass,
        setpoint_c: f64,
        rooms: &mut ThermalBatch,
    ) -> Self {
        let table = Arc::new(RegulatorTable::qrad());
        Self::with_table(id, n_workers, arch, setpoint_c, rooms, &table)
    }

    /// [`ClusterSim::new`] on a Q.rad regulator `table` shared with the
    /// rest of the fleet.
    pub(crate) fn with_table(
        id: usize,
        n_workers: usize,
        arch: ArchClass,
        setpoint_c: f64,
        rooms: &mut ThermalBatch,
        table: &Arc<RegulatorTable>,
    ) -> Self {
        assert!(n_workers > 0);
        let room_base = rooms.len();
        let workers = (0..n_workers)
            .map(|w| {
                let initial_c = 16.0 + ((id * 31 + w * 7) % 40) as f64 / 20.0; // 16.0..18.0
                rooms.push(RoomParams::typical_apartment_room(), initial_c);
                let mut ws = WorkerSim::new(
                    w,
                    Arc::clone(table),
                    ModulatingThermostat::new(
                        SetpointSchedule {
                            day_c: setpoint_c,
                            night_c: setpoint_c - 3.0,
                            day_start_h: 6.0,
                            night_start_h: 22.0,
                        },
                        1.5,
                    ),
                );
                if let ArchClass::DedicatedEdge { edge_workers, .. } = arch {
                    ws.edge_dedicated = w < edge_workers;
                }
                ws
            })
            .collect();
        let mut c = ClusterSim {
            id,
            arch,
            workers,
            sums: CoreSums::default(),
            room_base,
            edge_queue: ReadyQueue::new(Discipline::Edf),
            dcc_queue: ReadyQueue::new(Discipline::Fifo),
        };
        c.sums = c.recount();
        c
    }

    /// Room slot of worker `w` in the fleet batch.
    #[inline]
    pub fn room_slot(&self, w: usize) -> usize {
        self.room_base + w
    }

    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn worker(&self, w: usize) -> &WorkerSim {
        &self.workers[w]
    }

    /// Set worker `w`'s room-sensor fault state.
    pub(crate) fn set_sensor(&mut self, w: usize, state: SensorState) {
        self.workers[w].set_sensor(state);
    }

    /// Apply `f` to worker `w` and move the cluster's core sums by the
    /// worker's change. Every mutation that can start or remove a slice,
    /// or fail or repair a board, goes through here; debug builds check
    /// the sums against a full recount after each one.
    fn update_worker<R>(&mut self, w: usize, f: impl FnOnce(&mut WorkerSim) -> R) -> R {
        let before = CoreSums::of(&self.workers[w]);
        let out = f(&mut self.workers[w]);
        let after = CoreSums::of(&self.workers[w]);
        let s = &mut self.sums;
        s.healthy = s.healthy - before.healthy + after.healthy;
        s.busy = s.busy - before.busy + after.busy;
        s.preemptible = s.preemptible - before.preemptible + after.preemptible;
        debug_assert_eq!(self.sums, self.recount(), "cluster {} core sums", self.id);
        out
    }

    /// Recount the core sums from every worker's failed flag and
    /// running slices: the source of truth `sums` must always equal.
    fn recount(&self) -> CoreSums {
        self.workers.iter().fold(CoreSums::default(), |acc, w| {
            let (busy, preemptible) = w.recount();
            CoreSums {
                healthy: acc.healthy + if w.is_failed() { 0 } else { w.n_cores() },
                busy: acc.busy + busy,
                preemptible: acc.preemptible + preemptible,
            }
        })
    }

    fn switch_cost(&self) -> SimDuration {
        match self.arch {
            ArchClass::SharedWorkers { switch_cost } => switch_cost,
            ArchClass::DedicatedEdge { .. } => SimDuration::ZERO,
        }
    }

    /// Whether worker `w` may run `job` under the architecture.
    fn eligible(&self, w: usize, job: &Job) -> bool {
        match self.arch {
            ArchClass::SharedWorkers { .. } => true,
            ArchClass::DedicatedEdge { .. } => self.workers[w].edge_dedicated == job.is_edge(),
        }
    }

    /// Minimum width a DCC job may be shrunk to (moldable tasks, ref
    /// [14]): wide batches of independent frames time-share fewer cores
    /// when the heat budget is tight. Edge jobs stay rigid — shrinking
    /// them would stretch a deadline-bound computation.
    const MOLDABLE_MIN_CORES: usize = 1;

    /// Moldable width for `job` on a worker with `free` budgeted cores:
    /// `None` if the job cannot be placed at all.
    fn moldable_width(job: &Job, free: usize) -> Option<usize> {
        if free >= job.cores {
            Some(job.cores)
        } else if !job.is_edge() && free >= Self::MOLDABLE_MIN_CORES {
            Some(free)
        } else {
            None
        }
    }

    /// Try to start `job` now. Tries workers with free budgeted cores
    /// first (preferring ones already serving the job's flow, to avoid
    /// switch costs); failing that, wakes an eligible idle worker via
    /// its regulator (the board may be off between control ticks).
    /// DCC jobs are **moldable**: they shrink to the available width.
    pub fn try_dispatch(
        &mut self,
        now: SimTime,
        outdoor_c: f64,
        job: Job,
        rooms: &mut ThermalBatch,
    ) -> Dispatch {
        let cost = self.switch_cost();
        // Pass 1: free capacity under the current budgets.
        let mut best: Option<(bool, usize, usize)> = None; // (flow match, free, idx)
        for (i, w) in self.workers.iter().enumerate() {
            if !self.eligible(i, &job) || Self::moldable_width(&job, w.free_cores()).is_none() {
                continue;
            }
            let matches = match self.arch {
                ArchClass::SharedWorkers { .. } => {
                    // Prefer a worker whose last job had the same flow.
                    w.running().last().map(|s| s.job.is_edge()) == Some(job.is_edge())
                }
                _ => true,
            };
            // Maximise (flow match, free cores); ties go to the lowest
            // index, which the strict `>` on the pair already ensures.
            let better = match best {
                None => true,
                Some((m, f, _)) => (matches, w.free_cores()) > (m, f),
            };
            if better {
                best = Some((matches, w.free_cores(), i));
            }
        }
        if let Some((_, _, i)) = best {
            let width =
                Self::moldable_width(&job, self.workers[i].free_cores()).expect("width checked");
            let finish = self
                .update_worker(i, |w| w.dispatch(now, job, width, cost))
                .expect("free_cores checked");
            return Dispatch::Started { worker: i, finish };
        }
        // Pass 2: wake an eligible worker whose board is budget-limited
        // but whose thermostat still demands heat. Failed boards cannot
        // wake — skipping them keeps arrival handling O(healthy) while
        // a cluster is dark.
        for i in 0..self.workers.len() {
            if !self.eligible(i, &job) || self.workers[i].is_failed() {
                continue;
            }
            let backlog = job.cores + self.workers[i].busy_cores();
            let slot = self.room_slot(i);
            self.workers[i].control_tick(now, outdoor_c, backlog, rooms, slot);
            if let Some(width) = Self::moldable_width(&job, self.workers[i].free_cores()) {
                let finish = self
                    .update_worker(i, |w| w.dispatch(now, job, width, cost))
                    .expect("woken with room");
                return Dispatch::Started { worker: i, finish };
            }
        }
        Dispatch::Full
    }

    /// Load snapshot for the peak policies, O(1): it reads the core sums
    /// the mutators keep current and walks no worker. Failed workers contribute no capacity: a dark building
    /// reports zero total cores, so DCC load-balancing and sibling
    /// selection route around it instead of mistaking it for an empty
    /// cluster (in fault-free runs every worker is healthy and the
    /// snapshot is unchanged).
    pub fn load(&self) -> ClusterLoad {
        ClusterLoad {
            cluster: self.id,
            total_cores: self.sums.healthy,
            busy_cores: self.sums.busy,
            preemptible_cores: self.sums.preemptible,
        }
    }

    /// Cores requested by every queued job, edge and DCC, O(1).
    fn queued_cores(&self) -> usize {
        self.edge_queue.queued_cores() + self.dcc_queue.queued_cores()
    }

    /// Heat-driven core capacity right now: what the thermostats would
    /// let compute if backlog were unlimited (the §III-C seasonality
    /// metric, experiment E6).
    pub fn usable_cores(&self) -> usize {
        self.workers.iter().map(|w| w.potential_cores()).sum()
    }

    /// Preempt enough local DCC work to place `job`, on one worker.
    /// Returns the preempted jobs (they must be requeued and their
    /// finish events cancelled by the caller) and the worker index, or
    /// `None` if no single worker can be cleared for the job.
    pub fn preempt_for(&mut self, now: SimTime, job: &Job) -> Option<(usize, Vec<Job>)> {
        // Pick the eligible worker where free + preemptible is largest.
        let target = (0..self.workers.len())
            .filter(|&i| self.eligible(i, job))
            .filter(|&i| {
                self.workers[i].free_cores() + self.workers[i].preemptible_cores() >= job.cores
            })
            .max_by_key(|&i| {
                (
                    self.workers[i].free_cores() + self.workers[i].preemptible_cores(),
                    usize::MAX - i,
                )
            })?;
        let need = job.cores - self.workers[target].free_cores();
        let running: Vec<sched::preempt::RunningTask> = self.workers[target]
            .running()
            .iter()
            .filter(|s| !s.job.is_edge())
            .map(|s| sched::preempt::RunningTask {
                id: s.job.id,
                cores: s.cores,
                progress_gops: s.done_gops(now),
                total_gops: s.job.work_gops,
            })
            .collect();
        let victims = sched::preempt::select_victims(&running, need)?;
        let jobs = self.update_worker(target, |w| {
            victims.iter().map(|&id| w.preempt(id, now)).collect()
        });
        Some((target, jobs))
    }

    /// Start `job` on worker `w` now (after [`ClusterSim::preempt_for`]
    /// cleared room there). Returns the finish time, or `None` if the
    /// worker cannot take it.
    pub(crate) fn dispatch_on(&mut self, w: usize, now: SimTime, job: Job) -> Option<SimTime> {
        let cost = self.switch_cost();
        self.update_worker(w, |worker| worker.dispatch(now, job, job.cores, cost))
    }

    /// Crash worker `w`; returns the slices it was running (see
    /// [`WorkerSim::fail`]).
    pub(crate) fn fail_worker(&mut self, w: usize) -> Vec<RunningSlice> {
        self.update_worker(w, WorkerSim::fail)
    }

    /// Return worker `w` to service.
    pub(crate) fn repair_worker(&mut self, w: usize) {
        self.update_worker(w, WorkerSim::repair);
    }

    /// Dispatch queued work after capacity changed. Edge first (EDF),
    /// then DCC (FIFO with fit-skipping). Returns the started jobs as
    /// (worker, job, finish).
    pub fn drain(
        &mut self,
        now: SimTime,
        outdoor_c: f64,
        rooms: &mut ThermalBatch,
    ) -> Vec<(usize, Job, SimTime)> {
        let mut started = Vec::new();
        // Expired edge requests are dropped (recorded by the platform).
        // The platform calls `take_expired` separately to count them.
        while let Some(job) = self.edge_queue.peek().copied() {
            match self.try_dispatch(now, outdoor_c, job, rooms) {
                Dispatch::Started { worker, finish } => {
                    self.edge_queue.pop();
                    started.push((worker, job, finish));
                }
                Dispatch::Full => break,
            }
        }
        // DCC jobs are moldable down to one core, so a single Full means
        // no eligible worker has any budgeted core free — every later
        // DCC job would fail too. Stop there (keeps drain O(started)
        // even with thousands queued).
        while let Some(job) = self.dcc_queue.pop() {
            match self.try_dispatch(now, outdoor_c, job, rooms) {
                Dispatch::Started { worker, finish } => {
                    started.push((worker, job, finish));
                }
                Dispatch::Full => {
                    self.dcc_queue.push_front(job);
                    break;
                }
            }
        }
        started
    }

    /// Drop queued edge jobs whose deadline already passed.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<Job> {
        self.edge_queue.drop_expired(now)
    }

    /// Stage every worker's pending thermal step (elapsed interval +
    /// current heat output) into the fleet batch. The platform stages
    /// *all* clusters, sweeps the batch once, then calls
    /// [`ClusterSim::finish_control_tick`] — one tight loop over the
    /// whole fleet instead of per-worker `exp` calls.
    pub fn stage_thermal(&self, now: SimTime, rooms: &mut ThermalBatch) {
        for (i, w) in self.workers.iter().enumerate() {
            let dt = now.saturating_since(w.last_tick());
            rooms.stage(self.room_base + i, dt, w.heat_w());
        }
    }

    /// Re-stage boiler heat into the rooms of failed workers (after
    /// [`ClusterSim::stage_thermal`], which staged them at 0 W): the
    /// recovery layer's backfill keeps comfort §IV-stable while boards
    /// are dark. The boiler modulates on the same thermostat as the
    /// server it stands in for. Returns the staged boiler energy, kWh.
    pub fn stage_backfill(&self, now: SimTime, rooms: &mut ThermalBatch, unit_w: f64) -> f64 {
        let mut kwh = 0.0;
        for (i, w) in self.workers.iter().enumerate() {
            if !w.is_failed() {
                continue;
            }
            let dt = now.saturating_since(w.last_tick());
            if dt <= SimDuration::ZERO {
                continue;
            }
            let slot = self.room_base + i;
            let demand = w.thermostat.demand(now, rooms.temperature_c(slot));
            let power = demand * unit_w;
            if power > 0.0 {
                rooms.stage(slot, dt, power);
                kwh += power * dt.as_secs_f64() / 3.6e6;
            }
        }
        kwh
    }

    /// Jobs owned by this cluster right now, by flow: queued plus
    /// running slices, as `(edge, dcc)` — the in-flight half of the
    /// platform's work-conservation ledger.
    pub fn in_flight_by_flow(&self) -> (u64, u64) {
        let mut edge = self.edge_queue.len() as u64;
        let mut dcc = self.dcc_queue.len() as u64;
        for w in &self.workers {
            for s in w.running() {
                if s.job.is_edge() {
                    edge += 1;
                } else {
                    dcc += 1;
                }
            }
        }
        (edge, dcc)
    }

    /// Complete the control loop on every worker after the fleet sweep:
    /// energy accounting, thermostat reads, regulator decisions.
    /// Returns (mean room temp, usable cores, mean demand).
    pub fn finish_control_tick(&mut self, now: SimTime, rooms: &ThermalBatch) -> (f64, usize, f64) {
        let queued_cores = self.queued_cores();
        let n = self.workers.len();
        let mut temp_sum = 0.0;
        let mut demand_sum = 0.0;
        for (i, w) in self.workers.iter_mut().enumerate() {
            // Every worker sees the shared backlog (it may be assigned
            // any queued job next drain).
            let room_c = rooms.temperature_c(self.room_base + i);
            let d = w.complete_tick(now, room_c, queued_cores + w.busy_cores());
            temp_sum += room_c;
            demand_sum += d;
        }
        (
            temp_sum / n as f64,
            self.usable_cores(),
            demand_sum / n as f64,
        )
    }

    /// Remove a finished job from `worker`.
    pub fn finish(&mut self, worker: usize, id: JobId) {
        self.update_worker(worker, |w| w.remove(id));
    }

    /// Total DF energy drawn so far, kWh (all workers).
    pub fn energy_kwh(&self) -> f64 {
        self.workers.iter().map(|w| w.energy_kwh()).sum()
    }

    /// Compute-attributable energy, kWh.
    pub fn compute_energy_kwh(&self) -> f64 {
        self.workers.iter().map(|w| w.compute_energy_kwh()).sum()
    }

    /// Checkpoint the cluster's dynamic state: every worker plus both
    /// ready queues. `room_base` and the worker skeletons are rebuilt
    /// by `Platform::new` from the config before the overlay.
    pub fn snapshot_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        use simcore::snapshot::Snapshot;
        w.put_usize(self.workers.len());
        for worker in &self.workers {
            worker.snapshot_state(w);
        }
        self.edge_queue.encode(w);
        self.dcc_queue.encode(w);
    }

    /// Overlay a checkpointed dynamic state, taken at `now`, onto a
    /// freshly built cluster.
    pub fn restore_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
        now: SimTime,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::{Snapshot, SnapshotError};
        let n = r.take_usize()?;
        if n != self.workers.len() {
            return Err(SnapshotError::Corrupt(format!(
                "cluster {}: snapshot has {n} workers, config built {}",
                self.id,
                self.workers.len()
            )));
        }
        for worker in &mut self.workers {
            worker.restore_state(r, now)?;
        }
        // The core sums are derived state: rebuilt, never checkpointed.
        self.sums = self.recount();
        self.edge_queue = ReadyQueue::decode(r)?;
        self.dcc_queue = ReadyQueue::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
impl ClusterSim {
    /// The O(W) load and queued-core sum, recounted from every worker's
    /// running slices and every queued job: the oracle for
    /// [`ClusterSim::load`] and [`ClusterSim::queued_cores`].
    fn load_recomputed(&self) -> (ClusterLoad, usize) {
        let sums = self.recount();
        let load = ClusterLoad {
            cluster: self.id,
            total_cores: sums.healthy,
            busy_cores: sums.busy,
            preemptible_cores: sums.preemptible,
        };
        let queued = self.edge_queue.iter().chain(self.dcc_queue.iter());
        (load, queued.map(|j| j.cores).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Flow, JobId};

    fn edge(id: u64, cores: usize) -> Job {
        Job {
            id: JobId(id),
            flow: Flow::EdgeIndirect,
            arrival: SimTime::ZERO,
            work_gops: 30.0,
            cores,
            deadline: Some(SimDuration::from_secs(30)),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    fn dcc(id: u64, cores: usize, work: f64) -> Job {
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

    /// One control period on this cluster alone, through the staged
    /// calls the platform makes for the whole fleet: stage, sweep,
    /// complete.
    fn tick(c: &mut ClusterSim, now: SimTime, outdoor_c: f64, rooms: &mut ThermalBatch) {
        c.stage_thermal(now, rooms);
        rooms.step_staged(outdoor_c);
        c.finish_control_tick(now, rooms);
    }

    /// Chill every room so thermostats demand full heat: dispatching
    /// then goes through the wake path with a full power budget.
    fn chill(c: &mut ClusterSim, rooms: &mut ThermalBatch) {
        for w in 0..c.n_workers() {
            rooms.set_temperature_c(c.room_slot(w), 10.0);
        }
        tick(c, SimTime::ZERO, 0.0, rooms);
    }

    fn cluster_a() -> (ClusterSim, ThermalBatch) {
        let mut rooms = ThermalBatch::default();
        let mut c = ClusterSim::new(
            0,
            4,
            ArchClass::SharedWorkers {
                switch_cost: SimDuration::from_secs(2),
            },
            20.0,
            &mut rooms,
        );
        chill(&mut c, &mut rooms);
        (c, rooms)
    }

    fn cluster_b() -> (ClusterSim, ThermalBatch) {
        let mut rooms = ThermalBatch::default();
        let mut c = ClusterSim::new(
            0,
            4,
            ArchClass::DedicatedEdge {
                edge_workers: 1,
                vpn_overhead: SimDuration::from_micros(400),
            },
            20.0,
            &mut rooms,
        );
        chill(&mut c, &mut rooms);
        (c, rooms)
    }

    #[test]
    fn dispatch_lands_on_a_worker() {
        let (mut c, mut rooms) = cluster_a();
        match c.try_dispatch(SimTime::ZERO, 0.0, dcc(1, 4, 120.0), &mut rooms) {
            Dispatch::Started { finish, .. } => {
                assert_eq!(finish, SimTime::from_secs(10));
            }
            Dispatch::Full => panic!("cold cluster must have room"),
        }
        assert_eq!(c.load().busy_cores, 4);
    }

    #[test]
    fn arch_b_partitions_workers() {
        let (mut c, mut rooms) = cluster_b();
        // Edge jobs only fit the single dedicated worker (16 cores).
        match c.try_dispatch(SimTime::ZERO, 0.0, edge(1, 16), &mut rooms) {
            Dispatch::Started { worker, .. } => assert_eq!(worker, 0),
            Dispatch::Full => panic!("edge worker free"),
        }
        // A second edge job finds the edge worker full → Full even though
        // 3 DCC workers are idle.
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, edge(2, 1), &mut rooms),
            Dispatch::Full
        );
        // DCC jobs cannot use the dedicated edge worker.
        for i in 0..3 {
            match c.try_dispatch(SimTime::ZERO, 0.0, dcc(10 + i, 16, 100.0), &mut rooms) {
                Dispatch::Started { worker, .. } => assert!(worker >= 1),
                Dispatch::Full => panic!("DCC workers free"),
            }
        }
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, dcc(20, 1, 10.0), &mut rooms),
            Dispatch::Full
        );
    }

    #[test]
    fn full_cluster_reports_full_and_preempts() {
        let (mut c, mut rooms) = cluster_a();
        for i in 0..4 {
            assert!(matches!(
                c.try_dispatch(SimTime::ZERO, 0.0, dcc(i, 16, 1e5), &mut rooms),
                Dispatch::Started { .. }
            ));
        }
        let e = edge(100, 4);
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, e, &mut rooms),
            Dispatch::Full
        );
        let (worker, victims) = c
            .preempt_for(SimTime::from_secs(10), &e)
            .expect("preemptible DCC work exists");
        assert_eq!(victims.len(), 1, "one 16-core victim frees plenty");
        assert!(
            victims[0].work_gops < 1e5,
            "victim keeps only remaining work"
        );
        assert!(c.worker(worker).free_cores() >= 4);
    }

    #[test]
    fn queues_drain_in_priority_order() {
        let (mut c, mut rooms) = cluster_a();
        // Fill the cluster.
        for i in 0..4 {
            c.try_dispatch(SimTime::ZERO, 0.0, dcc(i, 16, 480.0), &mut rooms); // finish at t=10
        }
        c.edge_queue.push(edge(50, 4));
        c.dcc_queue.push(dcc(51, 4, 100.0));
        // Nothing drains while full.
        assert!(c.drain(SimTime::from_secs(5), 0.0, &mut rooms).is_empty());
        // Finish one worker's job → drain starts edge first, then DCC.
        c.finish(0, JobId(0));
        let started = c.drain(SimTime::from_secs(10), 0.0, &mut rooms);
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].1.id, JobId(50), "edge first");
        assert_eq!(started[1].1.id, JobId(51));
    }

    #[test]
    fn expired_edge_jobs_are_dropped() {
        let (mut c, _rooms) = cluster_a();
        c.edge_queue.push(edge(1, 4)); // 30 s deadline from t=0
        let expired = c.take_expired(SimTime::from_secs(31));
        assert_eq!(expired.len(), 1);
        assert!(c.edge_queue.is_empty());
    }

    #[test]
    fn warm_rooms_shrink_capacity() {
        // Capacity is heat-driven (§III-C): with a backlog queued, cold
        // rooms budget many cores; warm rooms budget none.
        let (mut c, mut rooms) = cluster_a();
        for i in 0..4 {
            c.dcc_queue.push(dcc(100 + i, 16, 1e6));
        }
        tick(&mut c, SimTime::ZERO, 0.0, &mut rooms);
        let cold_cores = c.usable_cores();
        assert!(cold_cores >= 48, "cold cluster budget {cold_cores}");
        // Warm every room far above the setpoint.
        for w in 0..c.n_workers() {
            rooms.set_temperature_c(c.room_slot(w), 26.0);
        }
        tick(&mut c, SimTime::from_secs(600), 20.0, &mut rooms);
        let warm_cores = c.usable_cores();
        assert_eq!(warm_cores, 0, "no heat demand, no capacity");
    }

    #[test]
    fn failed_workers_vanish_from_load_and_dispatch() {
        let (mut c, mut rooms) = cluster_a();
        assert_eq!(c.load().total_cores, 64);
        for w in 0..c.n_workers() {
            c.fail_worker(w);
        }
        assert_eq!(c.load().total_cores, 0, "a dark cluster has no capacity");
        assert_eq!(c.load().utilisation(), 1.0, "…and never looks idle");
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, edge(1, 1), &mut rooms),
            Dispatch::Full
        );
    }

    #[test]
    fn backfill_stages_boiler_heat_for_failed_rooms_only() {
        let (mut c, mut rooms) = cluster_a();
        c.fail_worker(0);
        // Cold rooms → full thermostat demand on the failed slot.
        for w in 0..c.n_workers() {
            rooms.set_temperature_c(c.room_slot(w), 10.0);
        }
        let before = rooms.temperature_c(c.room_slot(0));
        let t1 = SimTime::from_secs(600);
        c.stage_thermal(t1, &mut rooms);
        let kwh = c.stage_backfill(t1, &mut rooms, 500.0);
        rooms.step_staged(0.0);
        // 500 W × 600 s ≈ 0.083 kWh staged into the one failed room.
        assert!((kwh - 500.0 * 600.0 / 3.6e6).abs() < 1e-9, "kwh {kwh}");
        assert!(
            rooms.temperature_c(c.room_slot(0)) > before,
            "boiler must warm the dark room"
        );
    }

    #[test]
    fn in_flight_counts_queued_and_running_by_flow() {
        let (mut c, mut rooms) = cluster_a();
        c.try_dispatch(SimTime::ZERO, 0.0, dcc(1, 8, 100.0), &mut rooms);
        c.try_dispatch(SimTime::ZERO, 0.0, edge(2, 2), &mut rooms);
        c.edge_queue.push(edge(3, 1));
        assert_eq!(c.in_flight_by_flow(), (2, 1));
    }

    #[test]
    fn cached_load_matches_recount_through_random_mutations() {
        use rand::Rng;
        let mut rng: rand_chacha::ChaCha8Rng = simcore::RngStreams::new(3).stream("oracle");
        for arch_b in [false, true] {
            let (mut c, mut rooms) = if arch_b { cluster_b() } else { cluster_a() };
            let mut now = SimTime::ZERO;
            for id in 0..3_000u64 {
                now += SimDuration::from_secs(rng.gen_range(0i64..20));
                let w = rng.gen_range(0..c.n_workers());
                match rng.gen_range(0u32..10) {
                    0..=2 => {
                        let job = if rng.gen_bool(0.5) {
                            Job {
                                arrival: now,
                                ..edge(id, rng.gen_range(1usize..5))
                            }
                        } else {
                            dcc(id, rng.gen_range(1usize..17), 500.0)
                        };
                        if c.try_dispatch(now, 0.0, job, &mut rooms) == Dispatch::Full {
                            if job.is_edge() {
                                c.edge_queue.push(job);
                            } else {
                                c.dcc_queue.push(job);
                            }
                        }
                    }
                    3 => {
                        if let Some(id) = c.worker(w).running().first().map(|s| s.job.id) {
                            c.finish(w, id);
                        }
                    }
                    4 => {
                        // As the platform does: preempt only for a job
                        // that found the cluster full.
                        let job = edge(id, rng.gen_range(1usize..9));
                        if c.try_dispatch(now, 0.0, job, &mut rooms) == Dispatch::Full {
                            if let Some((target, victims)) = c.preempt_for(now, &job) {
                                victims.into_iter().for_each(|v| c.dcc_queue.push(v));
                                assert!(c.dispatch_on(target, now, job).is_some());
                            }
                        }
                    }
                    5 => {
                        for s in c.fail_worker(w) {
                            c.dcc_queue.push(Job {
                                cores: s.cores,
                                ..s.job
                            });
                        }
                    }
                    6 => c.repair_worker(w),
                    7 => {
                        c.drain(now, 0.0, &mut rooms);
                    }
                    8 => {
                        c.take_expired(now);
                    }
                    _ => {
                        let mut wr = simcore::snapshot::SnapshotWriter::new();
                        c.snapshot_state(&mut wr);
                        let bytes = wr.into_bytes();
                        let mut fresh = if arch_b { cluster_b().0 } else { cluster_a().0 };
                        fresh
                            .restore_state(&mut simcore::snapshot::SnapshotReader::new(&bytes), now)
                            .expect("own snapshot restores");
                        assert_eq!(fresh.load(), c.load(), "restore changed the load");
                        c = fresh;
                    }
                }
                let (load, queued) = c.load_recomputed();
                assert_eq!(c.load(), load, "step {id}");
                assert_eq!(c.queued_cores(), queued, "step {id}");
            }
        }
    }

    #[test]
    fn load_snapshot_is_consistent() {
        let (mut c, mut rooms) = cluster_a();
        c.try_dispatch(SimTime::ZERO, 0.0, dcc(1, 8, 100.0), &mut rooms);
        c.try_dispatch(SimTime::ZERO, 0.0, edge(2, 2), &mut rooms);
        let l = c.load();
        assert_eq!(l.total_cores, 64);
        assert_eq!(l.busy_cores, 10);
        assert_eq!(l.preemptible_cores, 8, "only the DCC job is preemptible");
    }
}
