//! One DF worker: a server in a room, closing the heat loop.
//!
//! The worker owns its [`ModulatingThermostat`] and shares its fleet's
//! [`RegulatorTable`] (the Q.rad regulator on its DVFS ladder); its room
//! lives as one slot of the platform's fleet-wide
//! [`thermal::ThermalBatch`] (the district-scale SoA fast path). Every
//! control tick the platform stages each worker's elapsed interval and
//! heat output into the batch, sweeps all rooms in one loop, then calls
//! [`WorkerSim::complete_tick`] with the new room temperature: energy
//! accounting closes, the thermostat reads the temperature, and the
//! regulator converts the demand into a compute budget for the next
//! period. Each step sums the running slices' power once and makes one
//! table lookup, which yields both the budget and the backlog-free
//! potential ([`WorkerSim::potential_cores`]).
//! [`WorkerSim::control_tick`] steps one room of a batch and completes
//! the tick: the off-cycle wake path, single-worker studies and tests.
//!
//! Jobs occupy cores at the P-state in force at dispatch and keep that
//! speed until completion (a deliberate simplification: Qarnot's
//! middleware also avoids re-speeding running containers; the regulator
//! only steers *new* placements).

use crate::regulator::{RegulatorDecision, RegulatorTable};
use simcore::time::{SimDuration, SimTime};
use std::sync::Arc;
use thermal::batch::ThermalBatch;
use thermal::thermostat::ModulatingThermostat;
use workloads::{Job, JobId};

/// Conservative bias a degraded sensor reading is lowered by, °C: the
/// room reads colder than remembered, so the regulator errs toward
/// heating.
pub const SENSOR_BIAS_C: f64 = 0.5;

/// State of a worker's room-temperature sensor (fault injection).
///
/// The regulator must keep working — and never panic — on a faulty
/// sensor: a dropout degrades to the last-known-good reading minus a
/// conservative bias (erring toward heating), a stuck sensor feeds its
/// constant through the same clamped thermostat demand curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorState {
    Healthy,
    Dropout,
    StuckAt(f64),
}

/// A job slice running on a worker.
#[derive(Debug, Clone, Copy)]
pub struct RunningSlice {
    /// The job as submitted.
    pub job: Job,
    /// Cores the slice holds: `job.cores`, or fewer for a moldable DCC
    /// job shrunk to the free width.
    pub cores: usize,
    /// Per-core speed, Gops/s, fixed at dispatch.
    pub gops_per_core: f64,
    /// DVFS level in force at dispatch (determines `gops_per_core`);
    /// cached so power accounting needn't search the ladder per tick.
    pub level: usize,
    pub started: SimTime,
    pub finish: SimTime,
}

impl RunningSlice {
    /// Work this slice has done by `now`, Gop.
    pub fn done_gops(&self, now: SimTime) -> f64 {
        now.saturating_since(self.started).as_secs_f64() * self.cores as f64 * self.gops_per_core
    }
}

/// One DF server + room + regulator.
#[derive(Debug, Clone)]
pub struct WorkerSim {
    pub id: usize,
    /// The regulator and its DVFS ladder, shared with the fleet.
    table: Arc<RegulatorTable>,
    pub thermostat: ModulatingThermostat,
    /// Current regulator decision (budget for this control period).
    decision: RegulatorDecision,
    /// Jobs currently running.
    running: Vec<RunningSlice>,
    /// Cores held by `running` (derived; rebuilt on restore).
    busy: usize,
    /// Cores held by the non-edge slices of `running` (derived).
    preemptible: usize,
    /// Last control-tick time (thermal integration anchor).
    last_tick: SimTime,
    /// Energy drawn so far, J (compute + overhead + resistive).
    energy_j: f64,
    /// Compute-only energy, J (for PUE-style splits).
    compute_energy_j: f64,
    /// Heat-budgeted core capacity if backlog were unlimited — the
    /// §III-C "computing power depends on the heat demand" metric.
    potential_cores: usize,
    /// Whether the server is broken and awaiting repair (§III-C
    /// availability; a failed heater computes nothing and heats nothing).
    failed: bool,
    /// Whether this worker is reserved for edge work (architecture B).
    pub edge_dedicated: bool,
    /// Room-sensor state (fault injection; healthy by default).
    sensor: SensorState,
    /// Last reading taken while the sensor was healthy, °C.
    last_good_c: Option<f64>,
    /// Conservative bias subtracted from degraded readings, °C.
    pub sensor_bias_c: f64,
    /// Flow of the most recently dispatched job (context-switch cost
    /// model of architecture A).
    last_flow_was_edge: Option<bool>,
}

impl WorkerSim {
    pub fn new(id: usize, table: Arc<RegulatorTable>, thermostat: ModulatingThermostat) -> Self {
        let decision = RegulatorDecision {
            powered: true,
            usable_cores: table.regulator().n_cores,
            level: table.ladder().n_states() - 1,
            compute_budget_w: table.regulator().max_power_w,
            resistive_w: 0.0,
            heat_budget_w: 0.0,
        };
        WorkerSim {
            id,
            table,
            thermostat,
            decision,
            running: Vec::new(),
            busy: 0,
            preemptible: 0,
            last_tick: SimTime::ZERO,
            energy_j: 0.0,
            compute_energy_j: 0.0,
            potential_cores: 0,
            failed: false,
            edge_dedicated: false,
            sensor: SensorState::Healthy,
            last_good_c: None,
            sensor_bias_c: SENSOR_BIAS_C,
            last_flow_was_edge: None,
        }
    }

    /// Set the room sensor's fault state (platform fault injection).
    pub fn set_sensor(&mut self, s: SensorState) {
        self.sensor = s;
    }

    /// What the control loop *measures* given the true `room_c`. A
    /// healthy sensor reads the truth (and refreshes last-known-good);
    /// a dropout degrades to last-known-good minus the conservative
    /// bias; a stuck sensor returns its constant. Non-finite inputs
    /// degrade to the day setpoint minus the bias — the result is
    /// always finite, so the clamped thermostat demand never panics.
    fn sense(&mut self, room_c: f64) -> f64 {
        let measured = match self.sensor {
            SensorState::Healthy => {
                if room_c.is_finite() {
                    self.last_good_c = Some(room_c);
                }
                room_c
            }
            SensorState::Dropout => {
                self.last_good_c.unwrap_or(self.thermostat.schedule.day_c) - self.sensor_bias_c
            }
            SensorState::StuckAt(v) => v,
        };
        if measured.is_finite() {
            measured
        } else {
            self.thermostat.schedule.day_c - self.sensor_bias_c
        }
    }

    pub fn n_cores(&self) -> usize {
        self.table.regulator().n_cores
    }

    pub fn decision(&self) -> &RegulatorDecision {
        &self.decision
    }

    /// Cores currently occupied by running jobs. O(1): the count is
    /// kept current by every method that starts or removes a slice.
    pub fn busy_cores(&self) -> usize {
        self.busy
    }

    /// Cores available for a new dispatch right now.
    pub fn free_cores(&self) -> usize {
        self.decision.usable_cores.saturating_sub(self.busy_cores())
    }

    /// Cores held by preemptible (non-edge) jobs, O(1).
    pub fn preemptible_cores(&self) -> usize {
        self.preemptible
    }

    /// Recount `(busy, preemptible)` from the running slices: the
    /// source of truth the cached counts must always equal.
    pub(crate) fn recount(&self) -> (usize, usize) {
        self.running.iter().fold((0, 0), |(busy, pre), s| {
            (
                busy + s.cores,
                pre + if s.job.is_edge() { 0 } else { s.cores },
            )
        })
    }

    pub fn running(&self) -> &[RunningSlice] {
        &self.running
    }

    /// Compute-attributable power (overhead + running cores), W.
    pub fn compute_power_w(&self) -> f64 {
        if !self.decision.powered {
            return 0.0;
        }
        let core_w: f64 = self
            .running
            .iter()
            .map(|s| s.cores as f64 * self.table.per_core_w(s.level))
            .sum();
        self.table.regulator().overhead_w + core_w
    }

    /// The resistive share given the compute draw `compute_w`, so a
    /// caller that holds it needn't sum the running slices again.
    fn resistive_from(&self, compute_w: f64) -> f64 {
        if !self.decision.powered || !self.table.regulator().has_resistive_backup {
            return 0.0;
        }
        (self.decision.heat_budget_w - compute_w).max(0.0)
    }

    /// Instantaneous electrical power, W. Unpowered, both shares are
    /// `0.0`, so the sum is too.
    pub fn power_w(&self) -> f64 {
        let compute_w = self.compute_power_w();
        compute_w + self.resistive_from(compute_w)
    }

    /// Heat currently flowing into the room, W (all drawn power).
    pub fn heat_w(&self) -> f64 {
        self.power_w()
    }

    /// Dispatch `job` now on `cores` cores (`job.cores`, or fewer for a
    /// moldable DCC job). Returns the finish time, or `None` if the
    /// worker cannot take it (not powered, or not enough budgeted
    /// cores). `switch_cost` is added when the worker alternates
    /// between edge and DCC work (architecture A context switching).
    pub fn dispatch(
        &mut self,
        now: SimTime,
        job: Job,
        cores: usize,
        switch_cost: SimDuration,
    ) -> Option<SimTime> {
        if self.failed || !self.decision.powered || self.free_cores() < cores {
            return None;
        }
        let level = self.decision.level;
        let gops = self.table.ladder().throughput(level);
        let mut start = now;
        let is_edge = job.is_edge();
        if let Some(prev_edge) = self.last_flow_was_edge {
            if prev_edge != is_edge {
                start += switch_cost;
            }
        }
        self.last_flow_was_edge = Some(is_edge);
        let finish = start + Job { cores, ..job }.service_time(gops);
        self.busy += cores;
        if !is_edge {
            self.preemptible += cores;
        }
        self.running.push(RunningSlice {
            job,
            cores,
            gops_per_core: gops,
            level,
            started: start,
            finish,
        });
        Some(finish)
    }

    /// Remove a finished (or preempted) job; returns its slice. Panics
    /// if absent — a missing job is an event-plumbing bug.
    pub fn remove(&mut self, id: JobId) -> RunningSlice {
        let idx = self
            .running
            .iter()
            .position(|s| s.job.id == id)
            .unwrap_or_else(|| panic!("job {id:?} not running on worker {}", self.id));
        let slice = self.running.swap_remove(idx);
        self.busy -= slice.cores;
        if !slice.job.is_edge() {
            self.preemptible -= slice.cores;
        }
        slice
    }

    /// Preempt a job at `now`: remove it and return the job, at the
    /// slice's width, with its work reduced by the completed fraction
    /// (it re-enters a queue).
    pub fn preempt(&mut self, id: JobId, now: SimTime) -> Job {
        let slice = self.remove(id);
        let done = slice.done_gops(now);
        let mut job = slice.job;
        job.cores = slice.cores;
        job.work_gops = (job.work_gops - done).max(job.work_gops * 0.001);
        job
    }

    /// Time of the last control tick — the thermal integration anchor.
    /// The interval `[last_tick, now)` is what the platform stages into
    /// the fleet batch before calling [`WorkerSim::complete_tick`].
    pub fn last_tick(&self) -> SimTime {
        self.last_tick
    }

    /// Finish the control loop at `now`, after this worker's room has
    /// been advanced to `room_c`: close the energy integrals over the
    /// elapsed period, read the thermostat, and set the next period's
    /// regulator decision. Returns the demand.
    pub fn complete_tick(&mut self, now: SimTime, room_c: f64, backlog_cores: usize) -> f64 {
        let dt = now.saturating_since(self.last_tick);
        if dt > SimDuration::ZERO {
            let compute_w = self.compute_power_w();
            let heat_w = compute_w + self.resistive_from(compute_w);
            self.energy_j += heat_w * dt.as_secs_f64();
            self.compute_energy_j += compute_w * dt.as_secs_f64();
        }
        self.last_tick = now;
        if self.failed {
            // Broken hardware: dark and cold until repaired.
            self.potential_cores = 0;
            self.decision = RegulatorDecision::OFF;
            return 0.0;
        }
        let measured_c = self.sense(room_c);
        let demand = self.thermostat.demand(now, measured_c);
        // Never budget below what running jobs already hold: running
        // slices finish at their dispatched speed.
        let (decision, potential_cores) = self
            .table
            .decide_with_potential(demand, backlog_cores.max(self.busy_cores()));
        self.potential_cores = potential_cores;
        let floor = self.busy_cores();
        self.decision = RegulatorDecision {
            powered: decision.powered || floor > 0,
            usable_cores: decision.usable_cores.max(floor),
            ..decision
        };
        demand
    }

    /// Run the full control loop at `now` on this worker alone: step
    /// its room, `slot` of `rooms`, with the heat produced over the
    /// elapsed period, then [`WorkerSim::complete_tick`]. The control
    /// tick instead stages every room and sweeps the batch once.
    pub fn control_tick(
        &mut self,
        now: SimTime,
        outdoor_c: f64,
        backlog_cores: usize,
        rooms: &mut ThermalBatch,
        slot: usize,
    ) -> f64 {
        let dt = now.saturating_since(self.last_tick);
        let room_c = rooms.step_one(slot, dt, outdoor_c, self.heat_w());
        self.complete_tick(now, room_c, backlog_cores)
    }

    /// Heat-budgeted capacity at the last tick, cores (independent of
    /// the backlog actually present).
    pub fn potential_cores(&self) -> usize {
        self.potential_cores
    }

    /// Whether the server is currently broken.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Crash the server: every running slice is removed and returned
    /// (a crash keeps none of their progress), and the board goes dark
    /// until [`WorkerSim::repair`].
    pub fn fail(&mut self) -> Vec<RunningSlice> {
        self.failed = true;
        (self.busy, self.preemptible) = (0, 0);
        self.decision = RegulatorDecision::OFF;
        self.potential_cores = 0;
        self.running.drain(..).collect()
    }

    /// Return the server to service (the next control tick re-budgets it).
    pub fn repair(&mut self) {
        self.failed = false;
    }

    /// Energy drawn so far, kWh.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_j / 3.6e6
    }

    /// Compute-attributable energy, kWh.
    pub fn compute_energy_kwh(&self) -> f64 {
        self.compute_energy_j / 3.6e6
    }

    /// Checkpoint the worker's *dynamic* state. The static half (DVFS
    /// ladder, regulator, thermostat, `edge_dedicated`, sensor bias) is
    /// a pure function of the platform config and is rebuilt on
    /// restore, so only what the run mutated is encoded.
    pub fn snapshot_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        use simcore::snapshot::Snapshot;
        self.decision.encode(w);
        self.running.encode(w);
        self.last_tick.encode(w);
        w.put_f64(self.energy_j);
        w.put_f64(self.compute_energy_j);
        w.put_usize(self.potential_cores);
        w.put_bool(self.failed);
        self.sensor.encode(w);
        self.last_good_c.encode(w);
        self.last_flow_was_edge.encode(w);
    }

    /// Overlay a checkpointed dynamic state, taken at `now`, onto a
    /// freshly built worker. The state must be one the worker can
    /// reach: every slice runs at a ladder level, at that level's speed,
    /// on at most the board's cores and its job's, and starts before it
    /// finishes, the decision is one the
    /// regulator or a failure sets, with room for the running slices,
    /// and the last tick lies in `[0, now]`. Anything else is
    /// [`SnapshotError::Corrupt`]. (That each slice finishes at or
    /// after `now` is checked against its pending finish event.)
    ///
    /// [`SnapshotError::Corrupt`]: simcore::snapshot::SnapshotError::Corrupt
    pub fn restore_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
        now: SimTime,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::{Snapshot, SnapshotError};
        self.decision = RegulatorDecision::decode(r)?;
        self.running = Vec::decode(r)?;
        self.last_tick = SimTime::decode(r)?;
        self.energy_j = r.take_f64()?;
        self.compute_energy_j = r.take_f64()?;
        self.potential_cores = r.take_usize()?;
        self.failed = r.take_bool()?;
        self.sensor = SensorState::decode(r)?;
        self.last_good_c = Option::decode(r)?;
        self.last_flow_was_edge = Option::decode(r)?;
        let ladder = self.table.ladder();
        let (levels, n_cores) = (ladder.n_states(), self.n_cores());
        let slice_ok = |s: &RunningSlice| {
            s.level < levels
                && s.gops_per_core.to_bits() == ladder.throughput(s.level).to_bits()
                && (1..=n_cores.min(s.job.cores)).contains(&s.cores)
                && SimTime::ZERO <= s.started
                && s.started <= s.finish
        };
        if !self.running.iter().all(slice_ok) {
            return Err(SnapshotError::Corrupt(format!(
                "worker {}: a running slice no dispatch on a {n_cores}-core, \
                 {levels}-level board makes",
                self.id
            )));
        }
        (self.busy, self.preemptible) = self.recount();
        let d = &self.decision;
        let reachable = d.level < levels
            && self.busy <= d.usable_cores
            && d.usable_cores <= n_cores
            && (d.powered || d.usable_cores == 0)
            && !(self.failed && d.powered)
            && (SimTime::ZERO..=now).contains(&self.last_tick);
        if !reachable {
            return Err(SnapshotError::Corrupt(format!(
                "worker {}: decision {d:?} (failed: {}, {} busy cores, last tick {}) \
                 is not one a run reaches",
                self.id, self.failed, self.busy, self.last_tick
            )));
        }
        Ok(())
    }
}

simcore::impl_snapshot! {
    enum SensorState { 0 => Healthy, 1 => Dropout, 2 => StuckAt(v) }
}

simcore::impl_snapshot! {
    RunningSlice { job, cores, gops_per_core, level, started, finish }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regulator::HeatRegulator;
    use dfhw::dvfs::DvfsLadder;
    use thermal::room::RoomParams;
    use thermal::thermostat::SetpointSchedule;
    use workloads::{Flow, JobId};

    /// A worker and its room, slot 0 of a one-room batch.
    fn worker() -> (WorkerSim, ThermalBatch) {
        let mut rooms = ThermalBatch::default();
        rooms.push(RoomParams::typical_apartment_room(), 17.0);
        (
            WorkerSim::new(
                0,
                Arc::new(RegulatorTable::qrad()),
                ModulatingThermostat::new(SetpointSchedule::constant(20.0), 1.5),
            ),
            rooms,
        )
    }

    fn job(id: u64, cores: usize, work: f64, edge: bool) -> Job {
        Job {
            id: JobId(id),
            flow: if edge { Flow::EdgeIndirect } else { Flow::Dcc },
            arrival: SimTime::ZERO,
            work_gops: work,
            cores,
            deadline: None,
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    /// Restore refuses slices no dispatch makes: a speed that is not
    /// the slice's DVFS level's (a NaN one used to restore, then panic
    /// the next preemption) and a width past the job's.
    #[test]
    fn restore_refuses_a_nan_speed_and_an_overwide_slice() {
        use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let (mut w, mut rooms) = worker();
        w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        w.dispatch(SimTime::ZERO, job(1, 4, 480.0, false), 2, SimDuration::ZERO)
            .expect("cold room → full budget");
        let restore = |w: &WorkerSim| {
            let mut bytes = SnapshotWriter::new();
            w.snapshot_state(&mut bytes);
            let (mut fresh, _) = worker();
            fresh.restore_state(&mut SnapshotReader::new(&bytes.into_bytes()), SimTime::ZERO)
        };
        assert_eq!(restore(&w), Ok(()), "a molded slice restores");
        let mut nan = w.clone();
        nan.running[0].gops_per_core = f64::NAN;
        assert!(matches!(restore(&nan), Err(SnapshotError::Corrupt(_))));
        let mut wide = w.clone();
        wide.running[0].cores = 5;
        assert!(matches!(restore(&wide), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn dispatch_occupies_cores_until_finish() {
        let (mut w, mut rooms) = worker();
        w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        let finish = w
            .dispatch(SimTime::ZERO, job(1, 4, 480.0, false), 4, SimDuration::ZERO)
            .expect("cold room → full budget");
        assert_eq!(w.busy_cores(), 4);
        // 480 Gop / (4 cores × 3 Gops) = 40 s.
        assert_eq!(finish, SimTime::from_secs(40));
        let slice = w.remove(JobId(1));
        assert_eq!(slice.cores, 4);
        assert_eq!(w.busy_cores(), 0);
    }

    #[test]
    fn dispatch_fails_when_budget_exhausted() {
        let (mut w, mut rooms) = worker();
        w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        assert!(w
            .dispatch(
                SimTime::ZERO,
                job(1, 12, 100.0, false),
                12,
                SimDuration::ZERO
            )
            .is_some());
        assert!(w
            .dispatch(SimTime::ZERO, job(2, 8, 100.0, false), 8, SimDuration::ZERO)
            .is_none());
        assert!(w
            .dispatch(SimTime::ZERO, job(3, 4, 100.0, false), 4, SimDuration::ZERO)
            .is_some());
    }

    #[test]
    fn warm_room_throttles_capacity() {
        let (mut w, mut rooms) = worker();
        // Make the room warm: no demand.
        rooms.set_temperature_c(0, 24.0);
        w.control_tick(SimTime::ZERO, 15.0, 100, &mut rooms, 0);
        assert!(!w.decision().powered, "no heat demand → board off");
        assert!(w
            .dispatch(SimTime::ZERO, job(1, 1, 10.0, false), 1, SimDuration::ZERO)
            .is_none());
    }

    #[test]
    fn cold_room_creates_capacity_and_heat() {
        let (mut w, mut rooms) = worker();
        let demand = w.control_tick(SimTime::ZERO, 0.0, 100, &mut rooms, 0);
        assert!(demand > 0.9, "17 °C room, 20 °C target → high demand");
        assert!(w.decision().usable_cores >= 12);
        // With no running jobs the resistive element covers the demand.
        assert!(w.heat_w() > 300.0);
    }

    #[test]
    fn context_switch_cost_applies_on_flow_alternation() {
        let (mut w, mut rooms) = worker();
        w.control_tick(SimTime::ZERO, 0.0, 100, &mut rooms, 0);
        let cost = SimDuration::from_secs(2);
        let f1 = w
            .dispatch(SimTime::ZERO, job(1, 1, 3.0, false), 1, cost)
            .unwrap();
        assert_eq!(f1, SimTime::from_secs(1)); // first job: no switch
        let f2 = w
            .dispatch(SimTime::ZERO, job(2, 1, 3.0, true), 1, cost)
            .unwrap();
        assert_eq!(f2, SimTime::from_secs(3)); // switch DCC→edge: +2 s
        let f3 = w
            .dispatch(SimTime::ZERO, job(3, 1, 3.0, true), 1, cost)
            .unwrap();
        assert_eq!(f3, SimTime::from_secs(1)); // edge→edge: no switch
    }

    #[test]
    fn preemption_returns_remaining_work() {
        let (mut w, mut rooms) = worker();
        w.control_tick(SimTime::ZERO, 0.0, 100, &mut rooms, 0);
        w.dispatch(SimTime::ZERO, job(1, 2, 600.0, false), 2, SimDuration::ZERO);
        // After 50 s at 2×3 Gops, 300 Gop done.
        let back = w.preempt(JobId(1), SimTime::from_secs(50));
        assert!(
            (back.work_gops - 300.0).abs() < 1.0,
            "remaining {}",
            back.work_gops
        );
        assert_eq!(w.busy_cores(), 0);
    }

    #[test]
    fn thermal_loop_warms_the_room_toward_setpoint() {
        let (mut w, mut rooms) = worker();
        let mut t = SimTime::ZERO;
        let dt = SimDuration::from_secs(600);
        for _ in 0..(6 * 48) {
            // Plenty of backlog: the server heats by computing.
            w.control_tick(t, 5.0, 100, &mut rooms, 0);
            t += dt;
        }
        let temp = rooms.temperature_c(0);
        assert!(
            (18.4..21.0).contains(&temp),
            "room should settle near 20 °C, got {temp}"
        );
        assert!(w.energy_kwh() > 0.5, "energy accrued: {}", w.energy_kwh());
    }

    #[test]
    fn running_jobs_keep_their_cores_across_throttling() {
        let (mut w, mut rooms) = worker();
        w.control_tick(SimTime::ZERO, 0.0, 100, &mut rooms, 0);
        w.dispatch(SimTime::ZERO, job(1, 8, 1e6, false), 8, SimDuration::ZERO);
        // Room becomes warm: demand collapses, but the slice stays.
        rooms.set_temperature_c(0, 25.0);
        w.control_tick(SimTime::from_secs(600), 15.0, 100, &mut rooms, 0);
        assert!(w.decision().powered, "powered while a job still runs");
        assert_eq!(w.busy_cores(), 8);
        assert!(w.decision().usable_cores >= 8);
        assert_eq!(w.free_cores(), 0, "but no headroom for new work");
    }

    /// Through dispatch at several P-states, throttling, failure and
    /// repair, with and without a resistive element: a powered worker's
    /// power splits exactly into its compute and resistive shares, and
    /// each control step integrates the power read just before it.
    #[test]
    fn each_step_integrates_the_power_it_reads_bit_for_bit() {
        // Room temperatures against the 20 °C / 1.5 K thermostat: full,
        // partial and zero demand, so the dispatch P-state moves.
        let temps = [17.0, 19.3, 19.6, 18.9, 21.0, 19.8, 17.5, 20.4, 19.1];
        for backup in [true, false] {
            let (mut w, _) = worker();
            let mut r = HeatRegulator::for_qrad();
            r.has_resistive_backup = backup;
            w.table = Arc::new(RegulatorTable::new(r, DvfsLadder::desktop_i7()));
            let check_split = |w: &WorkerSim| {
                let expect = if w.decision.powered {
                    w.compute_power_w() + w.resistive_from(w.compute_power_w())
                } else {
                    0.0
                };
                assert_eq!(w.power_w().to_bits(), expect.to_bits());
            };
            let mut levels = std::collections::BTreeSet::new();
            let (mut throttled, mut failed_steps) = (0, 0);
            let (mut now, mut next_id) = (SimTime::ZERO, 0);
            for step in 0..120i64 {
                // Odd intervals, as off-cycle wake-ups give; every tenth
                // step repeats the last time (a zero interval).
                if step % 10 != 0 {
                    now += SimDuration::from_micros(37_000_001 * (step % 7 + 1));
                }
                let room_c = temps[step as usize % temps.len()];
                match step % 40 {
                    25 => drop(w.fail()),
                    31 => w.repair(),
                    _ => {}
                }
                check_split(&w);
                let (power, compute) = (w.power_w(), w.compute_power_w());
                let (energy, compute_energy) = (w.energy_j, w.compute_energy_j);
                let dt = now.saturating_since(w.last_tick()).as_secs_f64();
                w.complete_tick(now, room_c, (step % 5) as usize * 4);
                assert_eq!(w.energy_j.to_bits(), (energy + power * dt).to_bits());
                assert_eq!(
                    w.compute_energy_j.to_bits(),
                    (compute_energy + compute * dt).to_bits()
                );
                check_split(&w);
                failed_steps += usize::from(w.is_failed());
                if w.busy_cores() > 0 && w.decision.usable_cores == w.busy_cores() {
                    throttled += 1;
                }
                // Retire the oldest slice now and then, and fill up to
                // the budget with two-core slices at today's P-state.
                if step % 3 == 0 && !w.running.is_empty() {
                    w.remove(w.running[0].job.id);
                }
                while w.free_cores() >= 2 {
                    next_id += 1;
                    let j = job(next_id, 2, 1e9, next_id % 2 == 0);
                    w.dispatch(now, j, j.cores, SimDuration::ZERO).unwrap();
                }
                levels.extend(w.running.iter().map(|s| s.level));
            }
            assert!(levels.len() >= 3, "slices ran at P-states {levels:?}");
            assert!(throttled > 0 && failed_steps > 0);
        }
    }

    #[test]
    #[should_panic]
    fn removing_absent_job_panics() {
        worker().0.remove(JobId(99));
    }

    #[test]
    fn dropout_degrades_to_last_known_good_minus_bias() {
        let (mut w, mut rooms) = worker();
        // Healthy tick at 17 °C records last-known-good.
        let d_healthy = w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        w.set_sensor(SensorState::Dropout);
        // Room secretly warms to setpoint; the dropout still reads
        // ~16.5 °C (17 − 0.5 bias) → demand no lower than before.
        rooms.set_temperature_c(0, 20.0);
        let d_dropout = w.control_tick(SimTime::from_secs(600), 5.0, 100, &mut rooms, 0);
        assert!(
            d_dropout >= d_healthy,
            "conservative bias must not under-heat: {d_dropout} vs {d_healthy}"
        );
    }

    #[test]
    fn dropout_without_history_uses_setpoint_fallback() {
        let (mut w, mut rooms) = worker();
        w.set_sensor(SensorState::Dropout);
        let d = w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        // Measured = 20 − 0.5 → a sliver of demand, never a panic.
        assert!((0.0..=1.0).contains(&d));
        assert!(d > 0.0);
    }

    #[test]
    fn stuck_sensor_feeds_its_constant_through_the_clamp() {
        let (mut w, mut rooms) = worker();
        w.set_sensor(SensorState::StuckAt(30.0));
        let d = w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        assert_eq!(d, 0.0, "a hot-stuck sensor reads no demand");
        w.set_sensor(SensorState::StuckAt(-40.0));
        let d = w.control_tick(SimTime::from_secs(600), 5.0, 100, &mut rooms, 0);
        assert_eq!(d, 1.0, "a cold-stuck sensor saturates demand");
    }

    #[test]
    fn non_finite_stuck_value_never_panics() {
        let (mut w, mut rooms) = worker();
        w.set_sensor(SensorState::StuckAt(f64::NAN));
        let d = w.control_tick(SimTime::ZERO, 5.0, 100, &mut rooms, 0);
        assert!((0.0..=1.0).contains(&d));
        w.set_sensor(SensorState::StuckAt(f64::INFINITY));
        let d = w.control_tick(SimTime::from_secs(600), 5.0, 100, &mut rooms, 0);
        assert!((0.0..=1.0).contains(&d));
    }
}
