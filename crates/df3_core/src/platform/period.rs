//! The control period: closing it on every cluster, the tick sample
//! and its watchdogs, and the end-of-run energy and ledgers.

use super::*;

/// Invariant-watchdog thresholds. Watchdogs run only with telemetry on
/// and only *observe*: a tripped invariant becomes a `watchdog.*`
/// flight-recorder event (surfaced by the run report), never a panic.
/// A mean room temperature outside this band trips
/// `watchdog.temp_band`; the band brackets the 17 °C night setback and
/// the 20 °C day setpoint with margin for cold snaps.
const WATCHDOG_TEMP_LO_C: f64 = 10.0;
const WATCHDOG_TEMP_HI_C: f64 = 26.0;
/// More jobs queued across all clusters than this trips
/// `watchdog.queue_depth`.
const WATCHDOG_MAX_QUEUED: usize = 50_000;

impl Platform {
    /// Start everything a cluster's drain released.
    pub(super) fn drain_cluster(
        &mut self,
        now: SimTime,
        cluster: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        let outdoor = self.weather.outdoor_c(now);
        for job in self.clusters[cluster].take_expired(now) {
            self.expire(now, &job);
        }
        let started = self.clusters[cluster].drain(now, outdoor, &mut self.rooms);
        for (worker, job, finish) in started {
            self.start_local(cluster, cluster, worker, job, finish, sched);
        }
    }

    /// Close the control period ending at `now` on every cluster: stage
    /// each worker's pending interval, restage the rooms of failed
    /// workers with boiler heat when the recovery policy backfills, step
    /// the whole fleet's thermals in ONE sweep over the SoA batch, then
    /// complete every worker's control loop. The control tick passes its
    /// scheduler: the period is profiled, and each cluster's queues
    /// drain right after its workers' step, while its state is hot. The
    /// end of the run passes none: nothing is timed or started. Returns
    /// the fleet's mean room temperature, usable cores and mean heat
    /// demand.
    pub(super) fn close_period(
        &mut self,
        now: SimTime,
        mut sched: Option<&mut Scheduler<Ev>>,
    ) -> (f64, usize, f64) {
        let mut unprofiled = PhaseProfiler::disabled();
        let prof = match sched.as_deref_mut() {
            Some(s) => &mut s.profiler,
            None => &mut unprofiled,
        };
        // The weather wraps past its span, so no clamp is needed even
        // when the engine overruns the generated trace.
        let outdoor = self.weather.outdoor_c(now);
        let t_stage = prof.start();
        for c in &self.clusters {
            c.stage_thermal(now, &mut self.rooms);
        }
        prof.stop(Phase::StageThermal, t_stage);
        // Boiler backfill (§II-B): failed workers' rooms were staged at
        // 0 W; restage them with boiler heat so the §IV comfort
        // guarantee holds while boards are dark.
        if self.config.faults.active_recovery() {
            let mut kwh = 0.0;
            for c in &self.clusters {
                kwh += c.stage_backfill(now, &mut self.rooms, BACKFILL_POWER_W);
            }
            self.stats.boiler_backfill_kwh += kwh;
        }
        let t_step = prof.start();
        self.rooms.step_staged(outdoor);
        prof.stop(Phase::StepStaged, t_step);
        let mut temp = 0.0;
        let mut usable = 0usize;
        let mut demand = 0.0;
        for i in 0..self.clusters.len() {
            let (t, u, d) = self.clusters[i].finish_control_tick(now, &self.rooms);
            temp += t;
            usable += u;
            demand += d;
            if let Some(s) = sched.as_deref_mut() {
                self.drain_cluster(now, i, s);
            }
        }
        let n = self.clusters.len() as f64;
        (temp / n, usable, demand / n)
    }

    pub(super) fn finalise_energy(&mut self, end: SimTime) {
        // Close each worker's energy integral with the last, usually
        // partial, control period.
        self.close_period(end, None);
        self.stats.df_total_kwh = self.clusters.iter().map(|c| c.energy_kwh()).sum();
        self.stats.df_compute_kwh = self.clusters.iter().map(|c| c.compute_energy_kwh()).sum();
        if let Some(dc) = self.datacenter.as_mut() {
            self.stats.dc_it_kwh = dc.it_kwh(end);
            self.stats.dc_facility_kwh = dc.facility_kwh(end);
        }
    }

    /// The work-conservation ledgers, `(arrived, accounted)` for edge
    /// and DCC. Everything still queued, running, in the datacenter, or
    /// awaiting a retry is in flight, `(edge, dcc)` as returned; edge
    /// accounts completed + rejected + expired + abandoned + in flight,
    /// DCC completed + rejected + in flight. They balance between any
    /// two events.
    pub(super) fn ledgers(&self) -> ([(u64, u64); 2], (u64, u64)) {
        let mut edge = self.retries_pending;
        let mut dcc = 0u64;
        for c in &self.clusters {
            let (e, d) = c.in_flight_by_flow();
            edge += e;
            dcc += d;
        }
        if let Some(dc) = &self.datacenter {
            let (e, d) = dc.in_flight_by_flow();
            edge += e;
            dcc += d;
        }
        let s = &self.stats;
        let ledgers = [
            (s.edge_arrived.get(), s.edge_terminal() + edge),
            (
                s.dcc_arrived.get(),
                s.dcc_completed.get() + s.dcc_rejected.get() + dcc,
            ),
        ];
        (ledgers, (edge, dcc))
    }

    /// Close the work-conservation ledgers. Drift is recorded as a
    /// `watchdog.ledger_drift` event (the debug asserts below still
    /// hold in debug builds; release runs land with their evidence
    /// instead of dying).
    pub(super) fn finalise_accounting(&mut self, end: SimTime) {
        let (ledgers, (edge, dcc)) = self.ledgers();
        self.stats.edge_in_flight_end = edge;
        self.stats.dcc_in_flight_end = dcc;
        for (arrived, accounted) in ledgers {
            if arrived != accounted && self.telemetry.is_enabled() {
                self.telemetry.recorder.instant(
                    end,
                    self.tags.wd_ledger_drift,
                    Track::PLATFORM,
                    [
                        (self.tags.k_arrived, Value::U64(arrived)),
                        (self.tags.k_accounted, Value::U64(accounted)),
                    ],
                );
            }
        }
        debug_assert!(
            ledgers
                .iter()
                .all(|(arrived, accounted)| arrived == accounted),
            "work conservation, (arrived, accounted) for edge and DCC: {ledgers:?}"
        );
    }

    /// The tick's fleet sample, in the stats and (with telemetry on) the
    /// flight recorder, plus the invariant watchdogs: observe, record,
    /// never panic.
    pub(super) fn record_tick(
        &mut self,
        now: SimTime,
        mean_temp: f64,
        usable: usize,
        mean_demand: f64,
    ) {
        self.stats
            .sample_tick(now, mean_temp, usable as f64, mean_demand);
        if !self.telemetry.is_enabled() {
            return;
        }
        let tags = &self.tags;
        let recorder = &mut self.telemetry.recorder;
        recorder.instant(
            now,
            tags.tick_sample,
            Track::PLATFORM,
            [
                (tags.k_temp_c, Value::F64(mean_temp)),
                (tags.k_usable_cores, Value::U64(usable as u64)),
                (tags.k_heat_demand, Value::F64(mean_demand)),
            ],
        );
        if !(WATCHDOG_TEMP_LO_C..=WATCHDOG_TEMP_HI_C).contains(&mean_temp) {
            recorder.instant(
                now,
                tags.wd_temp_band,
                Track::PLATFORM,
                [
                    (tags.k_temp_c, Value::F64(mean_temp)),
                    (tags.k_lo_c, Value::F64(WATCHDOG_TEMP_LO_C)),
                    (tags.k_hi_c, Value::F64(WATCHDOG_TEMP_HI_C)),
                ],
            );
        }
        let queued: usize = self
            .clusters
            .iter()
            .map(|c| c.edge_queue.len() + c.dcc_queue.len())
            .sum();
        if queued > WATCHDOG_MAX_QUEUED {
            recorder.instant(
                now,
                tags.wd_queue_depth,
                Track::PLATFORM,
                [
                    (tags.k_queued, Value::U64(queued as u64)),
                    (tags.k_limit, Value::U64(WATCHDOG_MAX_QUEUED as u64)),
                ],
            );
        }
    }
}
