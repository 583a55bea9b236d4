//! Snapshot and restore: the checkpoint codec of a paused run and
//! every check a restored state must pass.

use super::*;

impl Platform {
    /// Rebuild a paused run from `snapshot_bytes` taken under the SAME
    /// config (weather, fleet shape, policies, fault plan — everything
    /// is fingerprint-checked). The job stream is not needed: the
    /// snapshot's `arrivals` section carries every pre-horizon arrival
    /// not yet dispatched.
    pub fn restore(config: PlatformConfig, bytes: &[u8]) -> Result<PausedRun, SnapshotError> {
        Self::restore_impl(config, None, bytes)
    }

    /// Rebuild a paused run from a snapshot taken under `base_plan`,
    /// continuing under `config.faults` instead — a *branch*. The
    /// branch plan must extend the base plan with injectors acting
    /// strictly after the snapshot point
    /// (see [`FaultPlan::is_extension_of`]); everything else in the
    /// config must match the warm-up exactly.
    pub fn restore_branch(
        base_plan: &FaultPlan,
        config: PlatformConfig,
        bytes: &[u8],
    ) -> Result<PausedRun, SnapshotError> {
        Self::restore_impl(config, Some(base_plan), bytes)
    }

    fn restore_impl(
        config: PlatformConfig,
        base_plan: Option<&FaultPlan>,
        bytes: &[u8],
    ) -> Result<PausedRun, SnapshotError> {
        let file = SnapshotFile::from_bytes(bytes)?;
        let meta: Meta = get(&file, "meta")?;
        let now = meta.now;
        // The config is the one source of the horizon: a snapshot point
        // past it, or a count past the event budget, cannot be resumed.
        let horizon = SimTime::ZERO + config.horizon;
        if now > horizon {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot point {now} is past the horizon {horizon}"
            )));
        }
        if meta.events >= EVENT_BUDGET {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has dispatched {} events, the budget is {EVENT_BUDGET}",
                meta.events
            )));
        }
        let plan = base_plan.unwrap_or(&config.faults);
        let (config_fp, plan_fp) = fingerprints(&config, plan);
        if meta.config_fp != config_fp {
            return Err(SnapshotError::Corrupt(
                "snapshot was taken under a different platform config".into(),
            ));
        }
        if meta.plan_fp != plan_fp {
            return Err(SnapshotError::Corrupt(
                if base_plan.is_some() {
                    "base plan is not the one the snapshot was taken under"
                } else {
                    "snapshot was taken under a different fault plan \
                     (use restore_branch to extend one)"
                }
                .into(),
            ));
        }
        if let Some(base) = base_plan {
            let at = now.saturating_since(SimTime::ZERO);
            config
                .faults
                .is_extension_of(base, at, config.control_period)
                .map_err(SnapshotError::Corrupt)?;
        }
        let mut p = Platform::new(config);
        let mut r = file.section("engine")?;
        let sched = Scheduler::decode_state(&mut r, horizon, file.version())?;
        r.expect_end()?;
        if sched.now() != now {
            return Err(SnapshotError::Corrupt(format!(
                "engine clock {} disagrees with snapshot meta {now}",
                sched.now()
            )));
        }
        p.streams = get(&file, "rng")?;
        p.telemetry.recorder = get(&file, "telemetry")?;
        let rooms: ThermalBatch = get(&file, "thermal")?;
        let (n, want) = (rooms.len(), p.rooms.len());
        if n != want {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n} rooms, config builds {want}"
            )));
        }
        if !rooms.same_rooms(&p.rooms) {
            return Err(SnapshotError::Corrupt(
                "snapshot rooms have other thermal parameters than the config's".into(),
            ));
        }
        p.rooms = rooms;
        let mut r = file.section("platform")?;
        p.restore_state(&mut r, now)?;
        r.expect_end()?;
        p.check_restored(&sched)?;
        let arrivals = restore_arrivals(&file, now, horizon)?;
        let model = PlatformModel {
            p,
            jobs: Arc::new(arrivals),
            next: 0,
        };
        let engine = armed(Engine::restored(model, sched, meta.events));
        Ok(PausedRun { engine })
    }

    /// Checkpoint every run-mutated field of the platform. Statics —
    /// weather, links, tag interning, the room/worker skeletons — are
    /// pure functions of the config and are rebuilt by
    /// [`Platform::new`] before [`Platform::restore_state`] overlays
    /// this.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        self.stats.encode(w);
        w.put_usize(self.clusters.len());
        for c in &self.clusters {
            c.snapshot_state(w);
        }
        w.put_bool(self.datacenter.is_some());
        if let Some(dc) = &self.datacenter {
            dc.snapshot_state(w);
        }
        self.running_events.slots.encode(w);
        self.down_since.encode(w);
        self.fail_events.encode(w);
        self.repair_events.encode(w);
        w.put_u64(self.retries_pending);
        // A retired energy-sample time, zero in every snapshot: the end
        // of the run, which set it, comes after the last pause.
        SimTime::ZERO.encode(w);
        // An empty plan never writes to its books, so they are left out.
        let has_faults = !self.config.faults.is_empty();
        w.put_bool(has_faults);
        if has_faults {
            self.faults.encode(w);
        }
    }

    /// Overlay a checkpointed dynamic state, taken at `now`, onto a
    /// freshly built platform, validating every fleet-shape invariant
    /// and every job it carries (see [`check_job`]) on the way.
    fn restore_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        now: SimTime,
    ) -> Result<(), SnapshotError> {
        self.stats = PlatformStats::decode(r)?;
        let n = r.take_usize()?;
        if n != self.clusters.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n} clusters, config builds {}",
                self.clusters.len()
            )));
        }
        for c in &mut self.clusters {
            c.restore_state(r, now)?;
        }
        let has_dc = r.take_bool()?;
        if has_dc != self.datacenter.is_some() {
            return Err(SnapshotError::Corrupt(
                "snapshot and config disagree on datacenter presence".into(),
            ));
        }
        if let Some(dc) = self.datacenter.as_mut() {
            dc.restore_state(r, now)?;
        }
        let queued = self
            .clusters
            .iter()
            .flat_map(|c| c.edge_queue.iter().chain(c.dcc_queue.iter()));
        let running = self.clusters.iter().flat_map(|c| {
            (0..c.n_workers()).flat_map(move |w| c.worker(w).running().iter().map(|s| &s.job))
        });
        let dc = self.datacenter.iter().flat_map(Datacenter::jobs);
        queued.chain(running).chain(dc).try_for_each(check_job)?;
        let slots = Vec::decode(r)?;
        let down_since: Vec<Option<SimTime>> = Vec::decode(r)?;
        let fail_events = Vec::decode(r)?;
        let repair_events = Vec::decode(r)?;
        if down_since
            .iter()
            .flatten()
            .any(|t| !(SimTime::ZERO..=now).contains(t))
        {
            return Err(SnapshotError::Corrupt(format!(
                "a worker went down outside [0, {now}]"
            )));
        }
        let n_slots = self.running_events.slots.len();
        if slots.len() != n_slots
            || down_since.len() != n_slots
            || fail_events.len() != n_slots
            || repair_events.len() != n_slots
        {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot worker-slot vectors disagree with the {n_slots}-slot fleet"
            )));
        }
        self.running_events.slots = slots;
        self.down_since = down_since;
        self.fail_events = fail_events;
        self.repair_events = repair_events;
        self.retries_pending = r.take_u64()?;
        if SimTime::decode(r)? != SimTime::ZERO {
            return Err(SnapshotError::Corrupt(
                "the retired energy-sample time is not zero".into(),
            ));
        }
        // Without the flag, as after a fault-free warm-up a branch plan
        // extends, the fresh books (empty, nothing dark) are the state
        // the warm-up left.
        if r.take_bool()? {
            if self.config.faults.is_empty() {
                return Err(SnapshotError::Corrupt(
                    "snapshot carries fault state but the fault plan is empty".into(),
                ));
            }
            self.faults.restore_state(r, now, &self.config.faults)?;
        }
        Ok(())
    }

    /// Cross-check a restored platform against itself and its restored
    /// event queue. The work-conservation ledgers balance, and no tick
    /// sample lies after the snapshot point. Each pending event is one
    /// this state scheduled: a local finish tracked for its worker, with
    /// the job and finish time of a running slice; a datacenter finish
    /// of a running job; a failure or repair its slot holds the handle
    /// of; an outage of the plan; a retry the platform counts. Each
    /// event the state tracks is pending, and there is exactly one
    /// control tick.
    fn check_restored(&self, sched: &Scheduler<Ev>) -> Result<(), SnapshotError> {
        if self
            .ledgers()
            .0
            .iter()
            .any(|(arrived, accounted)| arrived != accounted)
        {
            return Err(SnapshotError::Corrupt(
                "the work-conservation ledgers do not balance".into(),
            ));
        }
        let s = &self.stats;
        let last = [&s.room_temp_c, &s.usable_cores, &s.heat_demand].map(|ts| ts.last_time());
        if last.iter().flatten().any(|&t| t > sched.now()) {
            return Err(SnapshotError::Corrupt(
                "a tick sample lies after the snapshot point".into(),
            ));
        }
        let (n, wpc) = (self.config.n_clusters, self.config.workers_per_cluster);
        let outages = self.config.faults.cluster_outages.len();
        let (mut ticks, mut retries, mut fails, mut repairs) = (0, 0, 0, 0);
        let (mut local, mut dc) = (Vec::new(), Vec::new());
        let slot = |c: usize, w: usize| (c < n && w < wpc).then(|| self.wslot(c, w));
        for (id, at, ev) in sched.pending_events() {
            let tracked = match *ev {
                Ev::ControlTick => {
                    ticks += 1;
                    true
                }
                // The engine takes arrivals from the model's stream.
                Ev::Arrival(_) => false,
                Ev::Retry { job } => {
                    retries += 1;
                    check_job(&job).is_ok()
                }
                Ev::FinishLocal {
                    cluster,
                    worker,
                    job,
                    venue,
                } => {
                    local.push(job.id);
                    let from = match venue {
                        Venue::Local { cluster: c } if c == cluster => Some(c),
                        Venue::Horizontal { from, to } if to == cluster && from != to => Some(from),
                        _ => None,
                    };
                    let running = |s: usize| {
                        let slices = self.clusters[cluster].worker(worker).running();
                        self.running_events.slots[s].contains(&(job.id, id))
                            && slices.iter().any(|r| r.job == job && r.finish == at)
                    };
                    from.is_some_and(|f| f < n) && slot(cluster, worker).is_some_and(running)
                }
                Ev::FinishDc { job } => {
                    dc.push(job.id);
                    self.datacenter.as_ref().is_some_and(|d| d.runs(&job, at))
                }
                Ev::WorkerFail { cluster, worker } => {
                    fails += 1;
                    slot(cluster, worker).is_some_and(|s| self.fail_events[s] == Some(id))
                }
                Ev::WorkerRepair { cluster, worker } => {
                    repairs += 1;
                    slot(cluster, worker).is_some_and(|s| self.repair_events[s] == Some(id))
                }
                Ev::ClusterDown { outage } | Ev::ClusterUp { outage } => outage < outages,
            };
            if !tracked {
                return Err(SnapshotError::Corrupt(format!(
                    "pending event at {at} does not match the platform: {ev:?}"
                )));
            }
        }
        let distinct = |ids: &mut Vec<JobId>| {
            let len = ids.len();
            ids.sort_unstable();
            ids.dedup();
            ids.len() == len
        };
        let slices: usize = self
            .clusters
            .iter()
            .flat_map(|c| (0..c.n_workers()).map(|w| c.worker(w).running().len()))
            .sum();
        let handles: usize = self.running_events.slots.iter().map(Vec::len).sum();
        let consistent = ticks == 1
            && retries == self.retries_pending
            && local.len() == slices
            && local.len() == handles
            && distinct(&mut local)
            && dc.len() == self.datacenter.as_ref().map_or(0, |d| d.n_running())
            && distinct(&mut dc)
            && fails == self.fail_events.iter().flatten().count()
            && repairs == self.repair_events.iter().flatten().count();
        if !consistent {
            return Err(SnapshotError::Corrupt(
                "pending events and platform state disagree on what is in flight".into(),
            ));
        }
        Ok(())
    }
}

/// The `meta` fingerprints a snapshot pins: one of everything in
/// `config` except its fault plan, and one of `plan` (kept apart so
/// branches can swap it). Versions 4 and 5 hash the same encodings.
fn fingerprints(config: &PlatformConfig, plan: &FaultPlan) -> (u64, u64) {
    // Exhaustive, so a new config field does not compile until it is
    // placed in the encoding (or left out of it) on purpose.
    let PlatformConfig {
        n_clusters,
        workers_per_cluster,
        arch,
        peak_policy,
        control_period,
        datacenter_cores,
        calendar,
        setpoint_c,
        horizon,
        seed,
        roc_fallback_direct,
        faults: _,
        telemetry,
    } = config;
    let mut w = SnapshotWriter::new();
    n_clusters.encode(&mut w);
    workers_per_cluster.encode(&mut w);
    arch.encode(&mut w);
    peak_policy.encode(&mut w);
    control_period.encode(&mut w);
    datacenter_cores.encode(&mut w);
    calendar.encode(&mut w);
    setpoint_c.encode(&mut w);
    horizon.encode(&mut w);
    seed.encode(&mut w);
    roc_fallback_direct.encode(&mut w);
    telemetry.encode(&mut w);
    let config_fp = fingerprint(&w.into_bytes());
    let mut w = SnapshotWriter::new();
    plan.encode(&mut w);
    (config_fp, fingerprint(&w.into_bytes()))
}

/// A snapshot's `meta` section: what it must be restored under, and
/// where the run stood.
struct Meta {
    config_fp: u64,
    plan_fp: u64,
    now: SimTime,
    events: u64,
}

simcore::impl_snapshot! { Meta { config_fp, plan_fp, now, events } }

/// Decode section `name` of `file` as one `T`, with nothing left over.
fn get<T: Snapshot>(file: &SnapshotFile, name: &str) -> Result<T, SnapshotError> {
    let mut r = file.section(name)?;
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// Add section `name`, written by `encode`, to `file`.
fn put(file: &mut SnapshotFile, name: &str, encode: impl FnOnce(&mut SnapshotWriter)) {
    let mut w = SnapshotWriter::new();
    encode(&mut w);
    file.add(name, w);
}

/// Decode the arrivals a snapshot still owes the run: columns from
/// version 5, a `Vec<Job>` before. Each job must be restorable (see
/// [`check_job`]) and lie in `[now, horizon)`, and the jobs must be
/// sorted by `(arrival, id)`, as the engine's input merge requires.
/// Version 5 checks each job as it decodes it.
fn restore_arrivals(
    file: &SnapshotFile,
    now: SimTime,
    horizon: SimTime,
) -> Result<Vec<Job>, SnapshotError> {
    let mut last = (now, JobId(0));
    let mut check = |job: &Job| {
        check_job(job)?;
        let key = (job.arrival, job.id);
        if key < last || job.arrival >= horizon {
            return Err(SnapshotError::Corrupt(
                "arrivals are out of order or outside [now, horizon)".into(),
            ));
        }
        last = key;
        Ok(())
    };
    let mut r = file.section("arrivals")?;
    let arrivals = if file.version() < 5 {
        let jobs = Vec::<Job>::decode(&mut r)?;
        jobs.iter().try_for_each(&mut check)?;
        jobs
    } else {
        arrivals::decode(&mut r, check)?
    };
    r.expect_end()?;
    Ok(arrivals)
}

/// The largest job a snapshot may carry: far beyond anything the
/// generators emit, and small enough that no finish time, deadline or
/// transfer time computed from it leaves `SimTime`'s range.
const MAX_RESTORED_WORK_GOPS: f64 = 1e9;
const MAX_RESTORED_CORES: usize = 1 << 20;
const MAX_RESTORED_PAYLOAD_BYTES: usize = 1 << 40;
const MAX_RESTORED_DEADLINE: SimDuration = SimDuration::YEAR;

/// A job read from a snapshot must pass [`Job::validate`], as every
/// generated job does, have a deadline if and only if it is an edge
/// request, and stay within the `MAX_RESTORED_*` bounds.
fn check_job(job: &Job) -> Result<(), SnapshotError> {
    job.validate()
        .map_err(|e| SnapshotError::Corrupt(format!("job: {e}")))?;
    let bounded = job.is_edge() == job.deadline.is_some()
        && job.work_gops <= MAX_RESTORED_WORK_GOPS
        && job.cores <= MAX_RESTORED_CORES
        && job.input_bytes.max(job.output_bytes) <= MAX_RESTORED_PAYLOAD_BYTES
        && job.deadline.is_none_or(|d| d <= MAX_RESTORED_DEADLINE);
    if !bounded {
        return Err(SnapshotError::Corrupt(format!(
            "job {:?} is not one a run can hold",
            job.id
        )));
    }
    Ok(())
}

/// A platform run paused between events — the unit the checkpoint
/// subsystem works on. Serialise it with
/// [`PausedRun::snapshot_bytes`], continue it with
/// [`PausedRun::resume`], or rebuild one in a fresh process with
/// [`Platform::restore`] / [`Platform::restore_branch`].
pub struct PausedRun {
    pub(super) engine: Engine<PlatformModel>,
}

impl PausedRun {
    /// Simulation time of the last dispatched event.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.engine.events()
    }

    /// Serialise the complete run state into the versioned, checksummed
    /// snapshot container.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let model = self.engine.model();
        let p = &model.p;
        let mut file = SnapshotFile::new();
        let (config_fp, plan_fp) = fingerprints(&p.config, &p.config.faults);
        let meta = Meta {
            config_fp,
            plan_fp,
            now: self.engine.now(),
            events: self.engine.events(),
        };
        put(&mut file, "meta", |w| meta.encode(w));
        let sched = self.engine.scheduler();
        put(&mut file, "engine", |w| sched.encode_state(w));
        put(&mut file, "rng", |w| p.streams.encode(w));
        put(&mut file, "telemetry", |w| p.telemetry.recorder.encode(w));
        put(&mut file, "thermal", |w| p.rooms.encode(w));
        put(&mut file, "platform", |w| p.snapshot_state(w));
        let owed = model.remaining_arrivals();
        put(&mut file, "arrivals", |w| arrivals::encode(owed, w));
        file.to_bytes()
    }

    /// Run to the horizon and close out the outcome.
    pub fn resume(self) -> PlatformOutcome {
        let (model, summary) = self.engine.run();
        finish_outcome(model, summary)
    }
}

simcore::impl_snapshot! {
    enum Venue { 0 => Local { cluster }, 1 => Horizontal { from, to }, 2 => Datacenter }
}

simcore::impl_snapshot! {
    enum Ev {
        0 => Arrival(job),
        1 => FinishLocal { cluster, worker, job, venue },
        2 => FinishDc { job },
        3 => ControlTick,
        4 => WorkerFail { cluster, worker },
        5 => WorkerRepair { cluster, worker },
        6 => ClusterDown { outage },
        7 => ClusterUp { outage },
        8 => Retry { job },
    }
}

impl PlatformModel {
    /// The arrivals still owed before the horizon, as a snapshot
    /// carries them.
    fn remaining_arrivals(&self) -> &[Job] {
        let horizon = SimTime::ZERO + self.p.config.horizon;
        let rest = &self.jobs[self.next..];
        &rest[..rest.partition_point(|j| j.arrival < horizon)]
    }
}
