//! Everything the experiments measure.

use crate::faults::{FaultEvent, FaultEventKind};
use simcore::metrics::{Counter, Histogram, Summary, TimeSeries};
use simcore::time::SimTime;
use std::collections::BTreeMap;

/// Cap on stored fault-timeline entries (a week of heavy churn stays
/// well under this; a runaway plan cannot balloon the run report).
const FAULT_TIMELINE_CAP: usize = 20_000;

/// Platform-wide measurement state.
#[derive(Debug, Clone)]
pub struct PlatformStats {
    /// Edge response times, ms.
    pub edge_response_ms: Histogram,
    /// Edge requests meeting their deadline / total completed.
    pub edge_deadline_met: Counter,
    pub edge_completed: Counter,
    /// Edge requests rejected (refused by the peak policy, or indirect
    /// during a master outage).
    pub edge_rejected: Counter,
    /// Edge requests dropped because their deadline expired in queue.
    pub edge_expired: Counter,
    /// DCC completions and response statistics.
    pub dcc_completed: Counter,
    pub dcc_response_s: Summary,
    /// DCC bounded slowdown (response / ideal service), dimensionless.
    pub dcc_slowdown: Summary,
    pub dcc_rejected: Counter,
    /// Work completed, Gop, by flow.
    pub edge_work_gops: f64,
    pub dcc_work_gops: f64,
    /// DCC work completed in the datacenter (vertical overflow share).
    pub dc_work_gops: f64,
    /// Edge requests terminally dropped after spending retry budget
    /// (counts against attainment, like a rejection).
    pub jobs_abandoned: Counter,
    /// Worker hardware failures injected (§III-C availability).
    pub worker_failures: Counter,
    /// Orphaned jobs re-dispatched after their worker failed.
    pub jobs_requeued: Counter,
    /// Edge re-submissions scheduled by the retry layer.
    pub jobs_retried: Counter,
    /// Workers quarantined for flapping.
    pub quarantines: Counter,
    /// Building-level power outages started.
    pub cluster_outages: Counter,
    /// Control ticks during which ≥ 1 room sensor was faulted.
    pub sensor_faulted_ticks: Counter,
    /// Core-seconds of partially-completed work lost to failures.
    pub wasted_core_s: f64,
    /// Boiler heat staged into failed workers' rooms, kWh (kept out of
    /// `df_total_kwh`, which stays electrical).
    pub boiler_backfill_kwh: f64,
    /// Mean time to repair: downtime per repaired worker, s.
    pub mttr_s: Summary,
    /// Repair-duration histogram, s (0 – 7 days).
    pub repair_s: Histogram,
    /// Chronological fault/recovery record (capped; see
    /// `fault_timeline_dropped`).
    pub fault_timeline: Vec<FaultEvent>,
    /// Timeline entries dropped past the cap.
    pub fault_timeline_dropped: Counter,
    /// Arrivals by flow (first submissions only — retries re-enter the
    /// pipeline but are not new arrivals).
    pub edge_arrived: Counter,
    pub dcc_arrived: Counter,
    /// Jobs still in flight when the horizon ended (queued, running,
    /// in the datacenter, or awaiting a scheduled retry) — closes the
    /// conservation ledger: arrived = terminal outcomes + in-flight.
    pub edge_in_flight_end: u64,
    pub dcc_in_flight_end: u64,
    /// Peak-management actions taken.
    pub preemptions: Counter,
    pub offload_vertical: Counter,
    pub offload_horizontal: Counter,
    pub delays: Counter,
    /// Mean room temperature samples (one per control tick, averaged
    /// over workers) — the Figure 4 series.
    pub room_temp_c: TimeSeries,
    /// Usable DF cores at each control tick (heat-driven capacity).
    pub usable_cores: TimeSeries,
    /// Aggregate heat demand at each tick (mean demand in \[0,1\]).
    pub heat_demand: TimeSeries,
    /// Per-organisation served work, Gop.
    pub org_served_gops: BTreeMap<u32, f64>,
    /// DF energy: total (incl. resistive) and compute-only, kWh.
    pub df_total_kwh: f64,
    pub df_compute_kwh: f64,
    /// Datacenter energy, kWh.
    pub dc_it_kwh: f64,
    pub dc_facility_kwh: f64,
}

impl PlatformStats {
    pub fn new() -> Self {
        PlatformStats {
            edge_response_ms: Histogram::new(0.0, 60_000.0, 2_000),
            edge_deadline_met: Counter::new(),
            edge_completed: Counter::new(),
            edge_rejected: Counter::new(),
            edge_expired: Counter::new(),
            dcc_completed: Counter::new(),
            dcc_response_s: Summary::new(),
            dcc_slowdown: Summary::new(),
            dcc_rejected: Counter::new(),
            edge_work_gops: 0.0,
            dcc_work_gops: 0.0,
            dc_work_gops: 0.0,
            jobs_abandoned: Counter::new(),
            worker_failures: Counter::new(),
            jobs_requeued: Counter::new(),
            jobs_retried: Counter::new(),
            quarantines: Counter::new(),
            cluster_outages: Counter::new(),
            sensor_faulted_ticks: Counter::new(),
            wasted_core_s: 0.0,
            boiler_backfill_kwh: 0.0,
            mttr_s: Summary::new(),
            repair_s: Histogram::new(0.0, 7.0 * 86_400.0, 1_024),
            fault_timeline: Vec::new(),
            fault_timeline_dropped: Counter::new(),
            edge_arrived: Counter::new(),
            dcc_arrived: Counter::new(),
            edge_in_flight_end: 0,
            dcc_in_flight_end: 0,
            preemptions: Counter::new(),
            offload_vertical: Counter::new(),
            offload_horizontal: Counter::new(),
            delays: Counter::new(),
            room_temp_c: TimeSeries::new(),
            usable_cores: TimeSeries::new(),
            heat_demand: TimeSeries::new(),
            org_served_gops: BTreeMap::new(),
            df_total_kwh: 0.0,
            df_compute_kwh: 0.0,
            dc_it_kwh: 0.0,
            dc_facility_kwh: 0.0,
        }
    }

    /// Record an edge completion.
    pub fn record_edge(&mut self, response_ms: f64, met_deadline: bool, work_gops: f64, org: u32) {
        self.edge_response_ms.observe(response_ms);
        self.edge_completed.inc();
        if met_deadline {
            self.edge_deadline_met.inc();
        }
        self.edge_work_gops += work_gops;
        *self.org_served_gops.entry(org).or_insert(0.0) += work_gops;
    }

    /// Record a DCC completion. `ideal_s` is the no-wait service time.
    pub fn record_dcc(
        &mut self,
        response_s: f64,
        ideal_s: f64,
        work_gops: f64,
        org: u32,
        in_dc: bool,
    ) {
        self.dcc_completed.inc();
        self.dcc_response_s.observe(response_s);
        self.dcc_slowdown.observe(response_s / ideal_s.max(1e-9));
        self.dcc_work_gops += work_gops;
        if in_dc {
            self.dc_work_gops += work_gops;
        }
        *self.org_served_gops.entry(org).or_insert(0.0) += work_gops;
    }

    /// Edge deadline attainment in [0, 1] over *arrived* edge requests
    /// (completed + rejected + expired + abandoned) — rejecting or
    /// abandoning everything cannot fake a perfect score.
    pub fn edge_attainment(&self) -> f64 {
        let denom = self.edge_completed.get()
            + self.edge_rejected.get()
            + self.edge_expired.get()
            + self.jobs_abandoned.get();
        if denom == 0 {
            return 1.0;
        }
        self.edge_deadline_met.get() as f64 / denom as f64
    }

    /// Append a fault-timeline record (bounded; overflow is counted).
    pub fn push_fault_event(
        &mut self,
        t: SimTime,
        kind: FaultEventKind,
        cluster: usize,
        worker: Option<usize>,
    ) {
        if self.fault_timeline.len() < FAULT_TIMELINE_CAP {
            self.fault_timeline.push(FaultEvent {
                t,
                kind,
                cluster,
                worker,
            });
        } else {
            self.fault_timeline_dropped.inc();
        }
    }

    /// Terminal edge outcomes recorded so far.
    pub fn edge_terminal(&self) -> u64 {
        self.edge_completed.get()
            + self.edge_rejected.get()
            + self.edge_expired.get()
            + self.jobs_abandoned.get()
    }

    /// Every monotonic counter as stable `(name, value)` rows, in a
    /// fixed order — the exporters (Prometheus text, JSONL run report)
    /// iterate this so their output is byte-reproducible.
    pub fn counter_rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("edge_arrived", self.edge_arrived.get()),
            ("edge_completed", self.edge_completed.get()),
            ("edge_deadline_met", self.edge_deadline_met.get()),
            ("edge_rejected", self.edge_rejected.get()),
            ("edge_expired", self.edge_expired.get()),
            ("dcc_arrived", self.dcc_arrived.get()),
            ("dcc_completed", self.dcc_completed.get()),
            ("dcc_rejected", self.dcc_rejected.get()),
            ("jobs_abandoned", self.jobs_abandoned.get()),
            ("jobs_requeued", self.jobs_requeued.get()),
            ("jobs_retried", self.jobs_retried.get()),
            ("worker_failures", self.worker_failures.get()),
            ("quarantines", self.quarantines.get()),
            ("cluster_outages", self.cluster_outages.get()),
            ("sensor_faulted_ticks", self.sensor_faulted_ticks.get()),
            ("preemptions", self.preemptions.get()),
            ("offload_vertical", self.offload_vertical.get()),
            ("offload_horizontal", self.offload_horizontal.get()),
            ("delays", self.delays.get()),
            ("fault_timeline_dropped", self.fault_timeline_dropped.get()),
            ("edge_in_flight_end", self.edge_in_flight_end),
            ("dcc_in_flight_end", self.dcc_in_flight_end),
        ]
    }

    /// Derived/continuous metrics as stable `(name, value)` rows, in a
    /// fixed order (companion of [`PlatformStats::counter_rows`]).
    pub fn gauge_rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("edge_attainment", self.edge_attainment()),
            ("edge_response_ms_p50", self.edge_response_ms.p50()),
            ("edge_response_ms_p99", self.edge_response_ms.p99()),
            ("dcc_slowdown_mean", self.dcc_slowdown.mean()),
            ("edge_work_gops", self.edge_work_gops),
            ("dcc_work_gops", self.dcc_work_gops),
            ("dc_work_gops", self.dc_work_gops),
            ("dc_share", self.dc_share()),
            ("wasted_core_s", self.wasted_core_s),
            ("boiler_backfill_kwh", self.boiler_backfill_kwh),
            ("df_total_kwh", self.df_total_kwh),
            ("df_compute_kwh", self.df_compute_kwh),
            ("dc_it_kwh", self.dc_it_kwh),
            ("dc_facility_kwh", self.dc_facility_kwh),
            ("pue", self.pue()),
        ]
    }

    /// Combined platform PUE: (all energy) / (useful IT energy). DF
    /// resistive heat is *useful* to the host but not IT, so it counts
    /// as overhead here — the conservative reading.
    pub fn pue(&self) -> f64 {
        let it = self.df_compute_kwh + self.dc_it_kwh;
        if it <= 0.0 {
            return 1.0;
        }
        (self.df_total_kwh + self.dc_facility_kwh) / it
    }

    /// Fraction of DCC work that ran in the datacenter.
    pub fn dc_share(&self) -> f64 {
        if self.dcc_work_gops <= 0.0 {
            return 0.0;
        }
        self.dc_work_gops / self.dcc_work_gops
    }

    /// Sample the fleet state at a control tick.
    pub fn sample_tick(&mut self, t: SimTime, mean_temp: f64, usable: f64, demand: f64) {
        self.room_temp_c.push(t, mean_temp);
        self.usable_cores.push(t, usable);
        self.heat_demand.push(t, demand);
    }
}

impl Default for PlatformStats {
    fn default() -> Self {
        Self::new()
    }
}

simcore::impl_snapshot! {
    /// Field-by-field in declaration order — every measurement a restored
    /// run keeps accumulating must survive the round trip bit-exactly.
    PlatformStats {
        edge_response_ms, edge_deadline_met, edge_completed, edge_rejected, edge_expired,
        dcc_completed, dcc_response_s, dcc_slowdown, dcc_rejected, edge_work_gops, dcc_work_gops,
        dc_work_gops, jobs_abandoned, worker_failures, jobs_requeued, jobs_retried, quarantines,
        cluster_outages, sensor_faulted_ticks, wasted_core_s, boiler_backfill_kwh, mttr_s, repair_s,
        fault_timeline, fault_timeline_dropped, edge_arrived, dcc_arrived, edge_in_flight_end,
        dcc_in_flight_end, preemptions, offload_vertical, offload_horizontal, delays, room_temp_c,
        usable_cores, heat_demand, org_served_gops, df_total_kwh, df_compute_kwh, dc_it_kwh,
        dc_facility_kwh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_attainment_counts_rejections() {
        let mut s = PlatformStats::new();
        s.record_edge(10.0, true, 1.0, 0);
        s.record_edge(900.0, false, 1.0, 0);
        s.edge_rejected.inc();
        s.edge_expired.inc();
        // 1 met out of 4 arrived.
        assert!((s.edge_attainment() - 0.25).abs() < 1e-12);
        // Abandoned requests dilute attainment too: 1 met out of 5.
        s.jobs_abandoned.inc();
        assert!((s.edge_attainment() - 0.2).abs() < 1e-12);
        assert_eq!(s.edge_terminal(), 5);
    }

    #[test]
    fn fault_timeline_is_bounded() {
        let mut s = PlatformStats::new();
        for i in 0..25_000 {
            s.push_fault_event(
                SimTime::from_secs(i),
                FaultEventKind::WorkerFail,
                0,
                Some(0),
            );
        }
        assert_eq!(s.fault_timeline.len(), 20_000);
        assert_eq!(s.fault_timeline_dropped.get(), 5_000);
    }

    #[test]
    fn empty_stats_attainment_is_one() {
        assert_eq!(PlatformStats::new().edge_attainment(), 1.0);
        assert_eq!(PlatformStats::new().pue(), 1.0);
    }

    #[test]
    fn pue_counts_resistive_as_overhead() {
        let mut s = PlatformStats::new();
        s.df_total_kwh = 120.0;
        s.df_compute_kwh = 100.0;
        assert!((s.pue() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn dc_share_tracks_offloaded_work() {
        let mut s = PlatformStats::new();
        s.record_dcc(10.0, 10.0, 70.0, 0, false);
        s.record_dcc(10.0, 10.0, 30.0, 0, true);
        assert!((s.dc_share() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn org_accounting_accumulates() {
        let mut s = PlatformStats::new();
        s.record_edge(1.0, true, 5.0, 7);
        s.record_dcc(1.0, 1.0, 10.0, 7, false);
        assert!((s.org_served_gops[&7] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_bounded_below_by_one_for_ideal_runs() {
        let mut s = PlatformStats::new();
        s.record_dcc(10.0, 10.0, 1.0, 0, false);
        assert!((s.dcc_slowdown.mean() - 1.0).abs() < 1e-9);
    }
}
