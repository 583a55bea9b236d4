//! The fault runtime: the books a run's faults fill in, worker churn,
//! crashes and repairs, cluster outages and sensor faults.

use super::*;

/// Live per-run fault state: the books the plan's injectors and
/// recovery fill in. Every run builds one; an empty plan leaves its
/// books empty. The plan itself stays on the config.
#[derive(Debug)]
pub(super) struct FaultRuntime {
    /// Retry attempt counts for edge jobs in an open retry chain. The
    /// platform adds an attempt each time it re-submits a rejected edge
    /// request and drops the entry at any terminal outcome.
    pub retry_book: BTreeMap<JobId, u32>,
    /// Each worker slot's failure times within the last
    /// [`QUARANTINE_WINDOW`], for quarantine decisions.
    pub failures: Vec<Vec<SimTime>>,
    /// Whether each cluster is inside a power outage right now.
    pub cluster_dark: Vec<bool>,
    /// Whether each planned cluster outage has had its down/up
    /// transitions scheduled yet (outages are scheduled lazily, one
    /// control tick ahead, so a restored run can pick up outages added
    /// by a branch plan).
    pub outage_scheduled: Vec<bool>,
}

// The books' snapshot codec (the plan itself is config, rebuilt on
// restore).
simcore::impl_snapshot! {
    FaultRuntime { retry_book, failures, cluster_dark, outage_scheduled }
}

impl FaultRuntime {
    pub fn new(plan: &FaultPlan, n_clusters: usize, n_worker_slots: usize) -> Self {
        FaultRuntime {
            retry_book: BTreeMap::new(),
            failures: vec![Vec::new(); n_worker_slots],
            cluster_dark: vec![false; n_clusters],
            outage_scheduled: vec![false; plan.cluster_outages.len()],
        }
    }

    /// Replace the books with ones checkpointed at `now` under `plan`.
    /// A branch plan may have *more* outages than the snapshot knew
    /// about; the scheduled-flags vector grows with `false` for the
    /// additions.
    pub fn restore_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        now: SimTime,
        plan: &FaultPlan,
    ) -> Result<(), SnapshotError> {
        let mut books = FaultRuntime::decode(r)?;
        let recorded = |t: &SimTime| (SimTime::ZERO..=now).contains(t);
        if !books.failures.iter().flatten().all(recorded) {
            return Err(SnapshotError::Corrupt(format!(
                "a recorded worker failure lies outside [0, {now}]"
            )));
        }
        let (n, want) = (books.cluster_dark.len(), self.cluster_dark.len());
        if n != want {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot tracks {n} clusters, config built {want}"
            )));
        }
        let (n, want) = (books.outage_scheduled.len(), plan.cluster_outages.len());
        if n > want {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot tracks {n} cluster outages, plan has {want}"
            )));
        }
        books.outage_scheduled.resize(want, false);
        *self = books;
        Ok(())
    }

    /// Record a failure of worker `slot` at `now`; returns `true` when
    /// it (counted in) makes [`QUARANTINE_THRESHOLD`] failures within
    /// [`QUARANTINE_WINDOW`].
    pub fn record_failure(&mut self, slot: usize, now: SimTime) -> bool {
        let h = &mut self.failures[slot];
        h.retain(|&t| now.saturating_since(t) <= QUARANTINE_WINDOW);
        h.push(now);
        h.len() >= QUARANTINE_THRESHOLD
    }
}

impl Platform {
    /// Draw the next failure time for a worker after `after` from its
    /// exponential failure process (None when churn is disabled).
    fn next_failure(&self, cluster: usize, worker: usize, after: SimTime) -> Option<SimTime> {
        let mtbf = self.config.faults.worker_churn?.mtbf;
        let idx = self.wslot(cluster, worker) as u64;
        // One independent stream per (worker, epoch): advance the stream
        // by hashing the current time in so repeated draws differ.
        let mut rng = self.streams.stream_indexed(
            "worker-failures",
            idx ^ (after.as_micros() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let gap = simcore::dist::exponential(&mut rng, 1.0 / mtbf.as_secs_f64());
        Some(after + SimDuration::from_secs_f64(gap))
    }

    /// Schedule (and track) the next churn failure of a worker.
    pub(super) fn schedule_next_failure(
        &mut self,
        cluster: usize,
        worker: usize,
        after: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let next = self.next_failure(cluster, worker, after);
        if let Some(at) = next.filter(|&at| at < sched.horizon()) {
            let ev = sched.at(at, Ev::WorkerFail { cluster, worker });
            let slot = self.wslot(cluster, worker);
            self.fail_events[slot] = Some(ev);
        }
    }

    /// Record a fault-timeline entry in both the stats and the flight
    /// recorder (cluster group's track; lane = worker when known).
    pub(super) fn record_fault_event(
        &mut self,
        t: SimTime,
        kind: FaultEventKind,
        cluster: usize,
        worker: Option<usize>,
    ) {
        self.stats.push_fault_event(t, kind, cluster, worker);
        if self.telemetry.is_enabled() {
            let mut fields = FieldSet::from([(self.tags.k_cluster, Value::U64(cluster as u64))]);
            if let Some(w) = worker {
                fields.push(self.tags.k_worker, Value::U64(w as u64));
            }
            self.telemetry.recorder.instant(
                t,
                self.tags.fault[kind as usize],
                Track::new(cluster as u32 + 1, worker.map_or(0, |w| w as u32)),
                fields,
            );
        }
    }

    /// Break one worker: account the lost progress, cancel the orphans'
    /// finish events, and re-dispatch each orphan through the normal
    /// offload decision (a failed building's work spills to siblings or
    /// the datacenter instead of queueing behind a dark board). A crash
    /// loses in-flight progress: orphans restart from their full work,
    /// at the width their slice held, except an edge orphan already past
    /// its deadline, which expires instead of wasting a slot.
    pub(super) fn fail_worker(
        &mut self,
        now: SimTime,
        cluster: usize,
        worker: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        self.stats.worker_failures.inc();
        self.record_fault_event(now, FaultEventKind::WorkerFail, cluster, Some(worker));
        let slot = self.wslot(cluster, worker);
        if self.down_since[slot].is_none() {
            self.down_since[slot] = Some(now);
        }
        for s in self.clusters[cluster].fail_worker(worker) {
            self.stats.wasted_core_s +=
                now.saturating_since(s.started).as_secs_f64() * s.cores as f64;
            let job = Job {
                cores: s.cores,
                ..s.job
            };
            if let Some(ev) = self.running_events.remove(slot, job.id) {
                sched.cancel(ev);
            }
            self.stats.jobs_requeued.inc();
            if job.absolute_deadline().is_some_and(|d| now >= d) {
                self.expire(now, &job);
            } else {
                self.dispatch_home(now, cluster, job, sched);
            }
        }
    }

    /// Return a worker to service, closing its MTTR interval, and
    /// schedule its next churn failure.
    pub(super) fn repair_worker(
        &mut self,
        now: SimTime,
        cluster: usize,
        worker: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        let slot = self.wslot(cluster, worker);
        if let Some(start) = self.down_since[slot].take() {
            let dt = now.saturating_since(start).as_secs_f64();
            self.stats.mttr_s.observe(dt);
            self.stats.repair_s.observe(dt);
        }
        self.record_fault_event(now, FaultEventKind::WorkerRepair, cluster, Some(worker));
        self.clusters[cluster].repair_worker(worker);
        self.schedule_next_failure(cluster, worker, now, sched);
    }

    /// Schedule the down/up transitions of every planned cluster outage
    /// that becomes due within the next control period. Running this at
    /// the *start* of each control tick keeps the event order identical
    /// to scheduling everything at init (a transition landing on a tick
    /// timestamp gets a lower sequence number than that tick's own
    /// event, which was scheduled at the end of the previous handler),
    /// while letting a branch-restored run schedule outages its warm-up
    /// never knew about.
    pub(super) fn schedule_due_outages(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let scheduled = &mut self.faults.outage_scheduled;
        for (i, o) in self.config.faults.cluster_outages.iter().enumerate() {
            if scheduled[i] {
                continue;
            }
            let start = SimTime::ZERO + o.window.start;
            if start > now + self.config.control_period {
                continue;
            }
            scheduled[i] = true;
            if start < sched.horizon() {
                sched.at(start.max(now), Ev::ClusterDown { outage: i });
                let end = SimTime::ZERO + o.window.end;
                if end < sched.horizon() {
                    sched.at(end.max(now), Ev::ClusterUp { outage: i });
                }
            }
        }
    }

    /// Refresh every targeted room sensor from the plan's windows (run
    /// at each control tick; cheap because it only walks the plan's
    /// fault list, not the fleet).
    pub(super) fn apply_sensor_states(&mut self, now: SimTime) {
        let faults = &self.config.faults.sensor_faults;
        if faults.is_empty() {
            return;
        }
        let wpc = self.config.workers_per_cluster;
        let clusters = &mut self.clusters;
        let mut set = |f: &SensorFault, state: SensorState| {
            let workers = match f.worker {
                Some(w) => w..w + 1,
                None => 0..wpc,
            };
            for w in workers {
                clusters[f.cluster].set_sensor(w, state);
            }
        };
        // Reset every targeted sensor, then overlay the active windows
        // (a later fault in the plan wins on overlap).
        for f in faults {
            set(f, SensorState::Healthy);
        }
        let mut any_active = false;
        for f in faults.iter().filter(|f| f.window.contains(now)) {
            any_active = true;
            let state = match f.kind {
                SensorFaultKind::Dropout => SensorState::Dropout,
                SensorFaultKind::StuckAt(v) => SensorState::StuckAt(v),
            };
            set(f, state);
        }
        if any_active {
            self.stats.sensor_faulted_ticks.inc();
        }
    }
}
