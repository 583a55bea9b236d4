//! The event handlers, one per [`Ev`] variant, and the placement,
//! rejection and accounting they share.

use super::*;

/// One handler per [`Ev`] variant, then what they share. Each handler
/// times its own profiler phases; an event that returns early (a stale
/// or moot fault event) is not timed.
impl Platform {
    pub(super) fn on_arrival(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        if job.is_edge() {
            self.stats.edge_arrived.inc();
        } else {
            self.stats.dcc_arrived.inc();
        }
        self.place(now, job, sched);
    }

    pub(super) fn on_retry(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        self.retries_pending -= 1;
        self.place(now, job, sched);
    }

    pub(super) fn on_finish_local(
        &mut self,
        now: SimTime,
        cluster: usize,
        worker: usize,
        job: Job,
        venue: Venue,
        sched: &mut Scheduler<Ev>,
    ) {
        let slot = self.wslot(cluster, worker);
        self.running_events
            .remove(slot, job.id)
            .expect("finished job had a tracked event");
        self.clusters[cluster].finish(worker, job.id);
        self.record_completion(now, &job, venue);
        self.record_span(now, &job, Track::new(cluster as u32 + 1, worker as u32));
        self.drain_cluster(now, cluster, sched);
    }

    pub(super) fn on_finish_dc(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        let started = self
            .datacenter
            .as_mut()
            .expect("DC event without a DC")
            .complete(now, job.id);
        self.record_completion(now, &job, Venue::Datacenter);
        // The datacenter renders as the group after the last cluster.
        self.record_span(now, &job, Track::new(self.config.n_clusters as u32 + 1, 0));
        for (j, finish) in started {
            sched.at(finish, Ev::FinishDc { job: j });
        }
    }

    pub(super) fn on_worker_fail(
        &mut self,
        now: SimTime,
        cluster: usize,
        worker: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        let slot = self.wslot(cluster, worker);
        self.fail_events[slot] = None;
        if self.clusters[cluster].worker(worker).is_failed() {
            return; // already dark (overlapping outage owns it)
        }
        let Some(churn) = self.config.faults.worker_churn else {
            return; // only a churn plan draws failures
        };
        let t_fault = sched.profiler.start();
        self.fail_worker(now, cluster, worker, sched);
        let mut delay = churn.repair_time;
        if self.config.faults.active_recovery() && self.faults.record_failure(slot, now) {
            self.stats.quarantines.inc();
            self.record_fault_event(now, FaultEventKind::Quarantine, cluster, Some(worker));
            delay += QUARANTINE_EXTRA_DOWNTIME;
        }
        let ev = sched.after(delay, Ev::WorkerRepair { cluster, worker });
        self.repair_events[slot] = Some(ev);
        // Orphaned work may fit elsewhere right away.
        self.drain_cluster(now, cluster, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    pub(super) fn on_worker_repair(
        &mut self,
        now: SimTime,
        cluster: usize,
        worker: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        let slot = self.wslot(cluster, worker);
        self.repair_events[slot] = None;
        if self.faults.cluster_dark[cluster] {
            return; // the outage owns this board; ClusterUp restores it
        }
        if !self.clusters[cluster].worker(worker).is_failed() {
            return; // stale: an intervening restoration already repaired it
        }
        let t_fault = sched.profiler.start();
        self.repair_worker(now, cluster, worker, sched);
        self.drain_cluster(now, cluster, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    pub(super) fn on_cluster_down(
        &mut self,
        now: SimTime,
        outage: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        let t_fault = sched.profiler.start();
        let c = self.config.faults.cluster_outages[outage].cluster;
        self.faults.cluster_dark[c] = true;
        self.stats.cluster_outages.inc();
        self.record_fault_event(now, FaultEventKind::ClusterDown, c, None);
        for w in 0..self.config.workers_per_cluster {
            let slot = self.wslot(c, w);
            if let Some(ev) = self.fail_events[slot].take() {
                sched.cancel(ev); // churn is moot while the building is dark
            }
            if !self.clusters[c].worker(w).is_failed() {
                self.fail_worker(now, c, w, sched);
            }
        }
        self.drain_cluster(now, c, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    pub(super) fn on_cluster_up(&mut self, now: SimTime, outage: usize, sched: &mut Scheduler<Ev>) {
        let outages = &self.config.faults.cluster_outages;
        let c = outages[outage].cluster;
        let still_dark = outages
            .iter()
            .enumerate()
            .any(|(i, o)| i != outage && o.cluster == c && o.window.contains(now));
        if still_dark {
            return; // an overlapping outage keeps the building down
        }
        let t_fault = sched.profiler.start();
        self.faults.cluster_dark[c] = false;
        self.record_fault_event(now, FaultEventKind::ClusterUp, c, None);
        for w in 0..self.config.workers_per_cluster {
            if self.clusters[c].worker(w).is_failed() {
                let slot = self.wslot(c, w);
                if let Some(ev) = self.repair_events[slot].take() {
                    sched.cancel(ev); // power restoration resets the board
                }
                self.repair_worker(now, c, w, sched);
            }
        }
        self.drain_cluster(now, c, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    pub(super) fn on_control_tick(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let t_tick = sched.profiler.start();
        let t_fault = sched.profiler.start();
        self.schedule_due_outages(now, sched);
        self.apply_sensor_states(now);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
        let (temp, usable, demand) = self.close_period(now, Some(sched));
        self.record_tick(now, temp, usable, demand);
        sched.after(self.config.control_period, Ev::ControlTick);
        sched.profiler.stop(Phase::ControlTick, t_tick);
    }

    /// Network penalty at `now`: the links with any active plan
    /// degradations folded in.
    fn net_penalty(&self, now: SimTime, job: &Job, venue: Venue) -> SimDuration {
        let plan = &self.config.faults;
        let links = Links {
            device: plan.effective_link(LinkClass::Device, now, self.links.device),
            lan: plan.effective_link(LinkClass::Lan, now, self.links.lan),
            fiber: plan.effective_link(LinkClass::Fiber, now, self.links.fiber),
            wan: plan.effective_link(LinkClass::Wan, now, self.links.wan),
        };
        links.penalty(self.config.arch, job, venue)
    }

    /// Record a terminal/retry job instant (reject, retry, abandon,
    /// expire) on the platform track.
    fn record_job_instant(&mut self, t: SimTime, tag: TagId, job: &Job, attempts: Option<u32>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let mut fields = FieldSet::from([(self.tags.k_job, Value::U64(job.id.0))]);
        if let Some(a) = attempts {
            fields.push(self.tags.k_attempts, Value::U64(u64::from(a)));
        }
        self.telemetry
            .recorder
            .instant(t, tag, Track::PLATFORM, fields);
    }

    /// Close `job`'s retry chain, if it has one.
    fn forget_retry(&mut self, id: JobId) {
        self.faults.retry_book.remove(&id);
    }

    /// An edge request whose deadline passed before it could start.
    pub(super) fn expire(&mut self, now: SimTime, job: &Job) {
        self.stats.edge_expired.inc();
        self.record_job_instant(now, self.tags.job_expire, job, None);
        self.forget_retry(job.id);
    }

    /// Record a finished job's span on `track`, when telemetry is on.
    fn record_span(&mut self, now: SimTime, job: &Job, track: Track) {
        if self.telemetry.is_enabled() {
            self.telemetry.recorder.span(
                job.arrival,
                now,
                self.tags.job_span[flow_ix(job.flow)],
                track,
                [
                    (self.tags.k_job, Value::U64(job.id.0)),
                    (self.tags.k_gops, Value::F64(job.work_gops)),
                ],
            );
        }
    }

    /// Record a completion.
    fn record_completion(&mut self, now: SimTime, job: &Job, venue: Venue) {
        self.forget_retry(job.id);
        let response = now.saturating_since(job.arrival) + self.net_penalty(now, job, venue);
        let finish_with_net = job.arrival + response;
        if job.is_edge() {
            let met = job.meets_deadline(finish_with_net);
            self.stats
                .record_edge(response.as_millis_f64(), met, job.work_gops, job.org);
        } else {
            // Ideal: full-speed local run with no waiting, on pristine
            // links (degradation must show up as slowdown, not shrink
            // the baseline).
            let pristine = self
                .links
                .penalty(self.config.arch, job, Venue::Local { cluster: 0 });
            let ideal = job.service_time(3.0) + pristine;
            self.stats.record_dcc(
                response.as_secs_f64(),
                ideal.as_secs_f64(),
                job.work_gops,
                job.org,
                venue == Venue::Datacenter,
            );
        }
    }

    /// Home cluster of a job: edge requests originate in a specific
    /// building; DCC requests are load-balanced to the emptiest cluster.
    fn route_cluster(&self, job: &Job) -> usize {
        if job.is_edge() {
            (job.id.0 as usize).wrapping_mul(0x9E37_79B9).rotate_left(7) % self.clusters.len()
        } else {
            (0..self.clusters.len())
                .max_by_key(|&i| (self.clusters[i].load().free_cores(), usize::MAX - i))
                .expect("at least one cluster")
        }
    }

    fn submit_to_dc(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) -> bool {
        if self.config.faults.partitioned(LinkClass::Wan, now) {
            return false; // the WAN is severed; no vertical offloading
        }
        let Some(dc) = self.datacenter.as_mut() else {
            return false;
        };
        // A job queued in the DC gets its finish event when it starts.
        if let Some(finish) = dc.submit(now, job) {
            sched.at(finish, Ev::FinishDc { job });
        }
        true
    }

    /// Track a job started on `(cluster, worker)`. A job started
    /// outside its `home` cluster is a horizontal offload.
    pub(super) fn start_local(
        &mut self,
        home: usize,
        cluster: usize,
        worker: usize,
        job: Job,
        finish: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let venue = if cluster == home {
            Venue::Local { cluster }
        } else {
            Venue::Horizontal {
                from: home,
                to: cluster,
            }
        };
        let ev = sched.at(
            finish,
            Ev::FinishLocal {
                cluster,
                worker,
                job,
                venue,
            },
        );
        let slot = self.wslot(cluster, worker);
        self.running_events.insert(slot, job.id, ev);
    }

    /// Turn away a job the platform cannot place. A DCC job is counted
    /// rejected. An edge request is retried or given up: with recovery
    /// active, re-submission is scheduled with exponential backoff while
    /// [`RETRY_ATTEMPTS`] and the deadline both allow; the request is
    /// abandoned (counted, never silent) once a started chain runs dry.
    /// Without active recovery (see [`FaultPlan::active_recovery`]), or
    /// before a chain has started, it is the plain legacy rejection.
    fn reject(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        if !job.is_edge() {
            self.stats.dcc_rejected.inc();
            return;
        }
        if self.config.faults.active_recovery() {
            let attempts = self.faults.retry_book.get(&job.id).copied().unwrap_or(0);
            let due = now + retry_backoff(attempts + 1);
            if attempts < RETRY_ATTEMPTS && job.absolute_deadline().is_none_or(|d| due < d) {
                *self.faults.retry_book.entry(job.id).or_insert(0) += 1;
                self.stats.jobs_retried.inc();
                self.record_job_instant(now, self.tags.job_retry, &job, Some(attempts + 1));
                self.retries_pending += 1;
                sched.at(due, Ev::Retry { job });
                return;
            }
            if attempts > 0 {
                self.forget_retry(job.id);
                self.stats.jobs_abandoned.inc();
                self.record_job_instant(now, self.tags.job_abandon, &job, Some(attempts));
                return;
            }
        }
        self.stats.edge_rejected.inc();
        self.record_job_instant(now, self.tags.job_reject, &job, None);
    }

    /// Placement shared by fresh arrivals and retries.
    fn place(&mut self, now: SimTime, mut job: Job, sched: &mut Scheduler<Ev>) {
        // Master outage (§IV): indirect edge requests need the master;
        // they fail — or degrade to direct under the resource-oriented
        // fallback.
        if job.flow == Flow::EdgeIndirect && self.config.faults.master_down(now) {
            if self.config.roc_fallback_direct {
                job.flow = Flow::EdgeDirect;
            } else {
                self.reject(now, job, sched);
                return;
            }
        }
        let home = self.route_cluster(&job);
        self.dispatch_home(now, home, job, sched);
    }

    /// Start `job` on its home cluster, or consult the peak policy when
    /// the cluster is full.
    pub(super) fn dispatch_home(
        &mut self,
        now: SimTime,
        home: usize,
        job: Job,
        sched: &mut Scheduler<Ev>,
    ) {
        let outdoor = self.weather.outdoor_c(now);
        match self.clusters[home].try_dispatch(now, outdoor, job, &mut self.rooms) {
            Dispatch::Started { worker, finish } => {
                self.start_local(home, home, worker, job, finish, sched)
            }
            Dispatch::Full => self.handle_full(now, home, job, sched),
        }
    }

    /// Handle a job that found its home cluster full: consult the peak
    /// policy and carry out the action.
    fn handle_full(&mut self, now: SimTime, home: usize, job: Job, sched: &mut Scheduler<Ev>) {
        let t_offload = sched.profiler.start();
        let outdoor = self.weather.outdoor_c(now);
        let local = self.clusters[home].load();
        let policy = self.config.peak_policy;
        // The policy reads sibling loads through a lazy view: each O(1)
        // load is computed only if the policy walks the siblings. A
        // severed inter-cluster fiber hides every sibling: horizontal
        // offloading is impossible during the partition.
        let action = if self.config.faults.partitioned(LinkClass::Fiber, now) {
            policy.decide(&job, &local, std::iter::empty::<sched::ClusterLoad>())
        } else {
            let siblings = self.clusters.iter().filter(|c| c.id != home);
            policy.decide(&job, &local, siblings.map(ClusterSim::load))
        };
        if self.telemetry.is_enabled() {
            // Rejects get their instant from `reject` below; the other
            // four decisions are recorded here on the home cluster's track.
            let t = &self.tags;
            let at_home = Value::U64(home as u64);
            let decided = match action {
                PeakAction::Preempt => {
                    Some((t.peak_preempt, FieldSet::from([(t.k_cluster, at_home)])))
                }
                PeakAction::OffloadVertical => Some((
                    t.peak_offload_vertical,
                    FieldSet::from([(t.k_from, at_home)]),
                )),
                PeakAction::OffloadHorizontal { target } => Some((
                    t.peak_offload_horizontal,
                    FieldSet::from([(t.k_from, at_home), (t.k_to, Value::U64(target as u64))]),
                )),
                PeakAction::Delay => Some((t.peak_delay, FieldSet::from([(t.k_cluster, at_home)]))),
                PeakAction::Reject => None,
            };
            if let Some((tag, mut fields)) = decided {
                fields.push(t.k_job, Value::U64(job.id.0));
                let track = Track::new(home as u32 + 1, 0);
                self.telemetry.recorder.instant(now, tag, track, fields);
            }
        }
        match action {
            PeakAction::Preempt => {
                if let Some((worker, victims)) = self.clusters[home].preempt_for(now, &job) {
                    let slot = self.wslot(home, worker);
                    for v in victims {
                        let ev = self
                            .running_events
                            .remove(slot, v.id)
                            .expect("victim had a finish event");
                        sched.cancel(ev);
                        self.stats.preemptions.inc();
                        self.clusters[home].dcc_queue.push(v);
                    }
                    let finish = self.clusters[home]
                        .dispatch_on(worker, now, job)
                        .expect("preemption freed the cores");
                    self.start_local(home, home, worker, job, finish, sched);
                } else {
                    self.enqueue(home, job);
                }
            }
            PeakAction::OffloadVertical => {
                if self.submit_to_dc(now, job, sched) {
                    self.stats.offload_vertical.inc();
                } else {
                    self.enqueue(home, job);
                }
            }
            PeakAction::OffloadHorizontal { target } => {
                match self.clusters[target].try_dispatch(now, outdoor, job, &mut self.rooms) {
                    Dispatch::Started { worker, finish } => {
                        self.stats.offload_horizontal.inc();
                        self.start_local(home, target, worker, job, finish, sched);
                    }
                    Dispatch::Full => self.enqueue(target, job),
                }
            }
            PeakAction::Delay => {
                self.stats.delays.inc();
                self.enqueue(home, job);
            }
            PeakAction::Reject => self.reject(now, job, sched),
        }
        sched.profiler.stop(Phase::Offload, t_offload);
    }

    fn enqueue(&mut self, cluster: usize, job: Job) {
        if job.is_edge() {
            self.clusters[cluster].edge_queue.push(job);
        } else {
            self.clusters[cluster].dcc_queue.push(job);
        }
    }
}
