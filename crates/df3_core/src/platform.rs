//! The DF3 platform: the discrete-event model of Figure 3 / Figure 5.
//!
//! Wires together weather, per-room thermals, the DVFS regulators, the
//! cluster gateways and queues, the peak-management policies, and the
//! remote datacenter, then runs a [`workloads::job::JobStream`] through
//! the three flows and reports [`PlatformStats`].
//!
//! ## Network accounting
//!
//! Message delays are analytic (the links are never congested in these
//! experiments): each job's response time includes its flow's ingress
//! and egress path costs — device↔worker for direct edge, the extra
//! master hop for indirect edge (§II-C), the VPN overhead under
//! architecture B, an inter-cluster fiber hop for horizontal offloads,
//! and the WAN for anything that lands in the datacenter.
//!
//! ## Faults and recovery
//!
//! A [`crate::faults::FaultPlan`] on the config declares the faults:
//! worker churn, correlated cluster power outages, master-outage
//! windows, link degradation/partition, and sensor faults. The recovery
//! layer re-dispatches orphans through the normal offload decision,
//! retries rejected edge requests while their deadline allows,
//! quarantines flapping workers, and stages boiler heat into dark
//! rooms. Every run keeps the fault books; an empty plan never writes
//! to them and never recovers, so fault-free runs are bit-identical to
//! a build without the fault layer.

use crate::arrivals;
use crate::cluster::{ClusterSim, Dispatch};
use crate::config::{ArchClass, PlatformConfig};
use crate::datacenter::{Datacenter, DatacenterConfig};
use crate::faults::{FaultEventKind, FaultPlan, FaultRuntime, SensorFault, SensorFaultKind};
use crate::stats::PlatformStats;
use crate::worker::SensorState;
use dfnet::link::{Link, LinkClass};
use dfnet::protocol::Protocol;
use sched::PeakAction;
use simcore::engine::{Engine, EngineRun, Model, RunSummary, Scheduler};
use simcore::event::EventId;
use simcore::snapshot::{
    fingerprint, Snapshot, SnapshotError, SnapshotFile, SnapshotReader, SnapshotWriter,
};
use simcore::telemetry::{
    FieldSet, FlightRecorder, Phase, PhaseProfiler, TagId, Telemetry, Track, Value,
};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use std::sync::Arc;
use thermal::batch::ThermalBatch;
use thermal::weather::{Weather, WeatherConfig, WeatherTable};
use workloads::job::JobStream;
use workloads::{Flow, Job, JobId};

/// Where a job's service happened (for network accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Venue {
    Local { cluster: usize },
    Horizontal { from: usize, to: usize },
    Datacenter,
}

/// The analytic (uncongested) links a job's request and response cross.
#[derive(Debug, Clone, Copy)]
struct Links {
    device: Link,
    lan: Link,
    fiber: Link,
    wan: Link,
}

impl Links {
    fn standard() -> Self {
        Links {
            device: Link::new(Protocol::Wifi),
            lan: Link::new(Protocol::EthernetLan),
            fiber: Link::new(Protocol::Fiber),
            wan: Link::new(Protocol::WanInternet).with_extra_latency(0.022),
        }
    }

    /// Network time added to a job's response by its flow and venue
    /// under `arch`.
    fn penalty(&self, arch: ArchClass, job: &Job, venue: Venue) -> SimDuration {
        let ingress_local = match job.flow {
            Flow::EdgeDirect => self.device.transfer_time(job.input_bytes),
            Flow::EdgeIndirect => {
                // Device → gateway → master → worker (§II-C's extra hop).
                self.device.transfer_time(job.input_bytes)
                    + self.lan.transfer_time(job.input_bytes)
                    + self.lan.transfer_time(job.input_bytes)
            }
            Flow::Dcc => self.fiber.transfer_time(job.input_bytes),
        };
        let egress_local = match job.flow {
            Flow::EdgeDirect | Flow::EdgeIndirect => self.device.transfer_time(job.output_bytes),
            Flow::Dcc => self.fiber.transfer_time(job.output_bytes),
        };
        let vpn = match (arch, job.is_edge()) {
            (ArchClass::DedicatedEdge { vpn_overhead, .. }, true) => vpn_overhead * 2,
            _ => SimDuration::ZERO,
        };
        let venue_extra = match venue {
            Venue::Local { .. } => SimDuration::ZERO,
            Venue::Horizontal { .. } => {
                self.fiber.transfer_time(job.input_bytes)
                    + self.fiber.transfer_time(job.output_bytes)
            }
            Venue::Datacenter => {
                self.wan.transfer_time(job.input_bytes) + self.wan.transfer_time(job.output_bytes)
            }
        };
        ingress_local + egress_local + vpn + venue_extra
    }
}

/// Events of the platform model.
#[derive(Debug, Clone)]
enum Ev {
    /// A job from the run's stream. The engine takes arrivals from the
    /// model's cursor and never queues them.
    Arrival(Job),
    FinishLocal {
        cluster: usize,
        worker: usize,
        job: Job,
        venue: Venue,
    },
    FinishDc {
        job: Job,
    },
    ControlTick,
    WorkerFail {
        cluster: usize,
        worker: usize,
    },
    WorkerRepair {
        cluster: usize,
        worker: usize,
    },
    /// A building-level power outage begins (`outage` indexes the
    /// plan's `cluster_outages`).
    ClusterDown {
        outage: usize,
    },
    /// The outage's window ends; power is restored.
    ClusterUp {
        outage: usize,
    },
    /// A scheduled re-submission of a rejected edge request.
    Retry {
        job: Job,
    },
}

/// Finish-event handles of running local jobs, indexed by global worker
/// slot (`cluster * workers_per_cluster + worker`). Every lookup site
/// knows the worker, and a worker runs only a handful of concurrent
/// slices, so a linear scan of a small per-slot vector replaces hashing
/// `JobId`s on every dispatch, finish, preemption, and failure.
struct RunningEvents {
    slots: Vec<Vec<(JobId, EventId)>>,
}

impl RunningEvents {
    fn new(n_slots: usize) -> Self {
        RunningEvents {
            slots: vec![Vec::new(); n_slots],
        }
    }

    fn insert(&mut self, slot: usize, job: JobId, ev: EventId) {
        self.slots[slot].push((job, ev));
    }

    fn remove(&mut self, slot: usize, job: JobId) -> Option<EventId> {
        let v = &mut self.slots[slot];
        let ix = v.iter().position(|&(j, _)| j == job)?;
        Some(v.swap_remove(ix).1)
    }
}

/// Dense flow index for per-flow telemetry tag arrays.
#[inline]
fn flow_ix(f: Flow) -> usize {
    match f {
        Flow::Dcc => 0,
        Flow::EdgeDirect => 1,
        Flow::EdgeIndirect => 2,
    }
}

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

/// Events a run may dispatch before the engine stops it: the guard
/// against a self-scheduling runaway. A snapshot at or past it is
/// refused.
const EVENT_BUDGET: u64 = 500_000_000;

/// Telemetry tags pre-interned at construction. Interning works on a
/// disabled recorder too (stable ids without storage), so enabled and
/// disabled runs share one code path and identically-driven runs get
/// identical ids — exports stay byte-reproducible.
struct Tags {
    /// Per-flow job-span tags, indexed by [`flow_ix`].
    job_span: [TagId; 3],
    job_reject: TagId,
    job_retry: TagId,
    job_abandon: TagId,
    job_expire: TagId,
    peak_preempt: TagId,
    peak_offload_vertical: TagId,
    peak_offload_horizontal: TagId,
    peak_delay: TagId,
    /// Fault-timeline tags, indexed by `FaultEventKind as usize`.
    fault: [TagId; 5],
    tick_sample: TagId,
    wd_temp_band: TagId,
    wd_queue_depth: TagId,
    wd_ledger_drift: TagId,
    k_job: TagId,
    k_gops: TagId,
    k_cluster: TagId,
    k_worker: TagId,
    k_from: TagId,
    k_to: TagId,
    k_attempts: TagId,
    k_temp_c: TagId,
    k_lo_c: TagId,
    k_hi_c: TagId,
    k_queued: TagId,
    k_limit: TagId,
    k_usable_cores: TagId,
    k_heat_demand: TagId,
    k_arrived: TagId,
    k_accounted: TagId,
}

impl Tags {
    fn intern(r: &mut FlightRecorder) -> Self {
        Tags {
            job_span: [
                r.tag("job.dcc"),
                r.tag("job.edge_direct"),
                r.tag("job.edge_indirect"),
            ],
            job_reject: r.tag("job.reject"),
            job_retry: r.tag("job.retry"),
            job_abandon: r.tag("job.abandon"),
            job_expire: r.tag("job.expire"),
            peak_preempt: r.tag("peak.preempt"),
            peak_offload_vertical: r.tag("peak.offload_vertical"),
            peak_offload_horizontal: r.tag("peak.offload_horizontal"),
            peak_delay: r.tag("peak.delay"),
            fault: FaultEventKind::ALL.map(|k| r.tag(&format!("fault.{}", k.label()))),
            tick_sample: r.tag("tick.sample"),
            wd_temp_band: r.tag("watchdog.temp_band"),
            wd_queue_depth: r.tag("watchdog.queue_depth"),
            wd_ledger_drift: r.tag("watchdog.ledger_drift"),
            k_job: r.tag("job"),
            k_gops: r.tag("gops"),
            k_cluster: r.tag("cluster"),
            k_worker: r.tag("worker"),
            k_from: r.tag("from"),
            k_to: r.tag("to"),
            k_attempts: r.tag("attempts"),
            k_temp_c: r.tag("temp_c"),
            k_lo_c: r.tag("lo_c"),
            k_hi_c: r.tag("hi_c"),
            k_queued: r.tag("queued"),
            k_limit: r.tag("limit"),
            k_usable_cores: r.tag("usable_cores"),
            k_heat_demand: r.tag("heat_demand"),
            k_arrived: r.tag("arrived"),
            k_accounted: r.tag("accounted"),
        }
    }
}

/// The assembled platform (a `simcore::Model`).
pub struct Platform {
    config: PlatformConfig,
    /// Tabulated weather trace: `outdoor_c` is two loads and a lerp.
    weather: WeatherTable,
    /// Every room in the fleet, in one SoA batch (cluster `c`, worker
    /// `w` lives at slot `wslot(c, w)`), stepped in one sweep per
    /// control tick.
    rooms: ThermalBatch,
    clusters: Vec<ClusterSim>,
    datacenter: Option<Datacenter>,
    /// Finish-event handles of running local jobs, for preemption.
    running_events: RunningEvents,
    pub stats: PlatformStats,
    /// Flight recorder (plus the phase profiler reclaimed from the
    /// engine after the run). Only ever observes: a disabled recorder
    /// leaves the run bit-identical to a build without telemetry.
    pub telemetry: Telemetry,
    /// Pre-interned telemetry tag ids.
    tags: Tags,
    /// The links before any plan degradation.
    links: Links,
    /// Seed-derived streams (worker-failure processes).
    streams: RngStreams,
    /// The fault books; the plan they serve is `config.faults`.
    faults: FaultRuntime,
    /// When each worker slot went dark (for MTTR accounting).
    down_since: Vec<Option<SimTime>>,
    /// Pending churn-failure event per worker slot (cancelled when a
    /// cluster outage takes the whole building down first).
    fail_events: Vec<Option<EventId>>,
    /// Pending repair event per worker slot (cancelled when a cluster
    /// outage's restoration repairs the board early).
    repair_events: Vec<Option<EventId>>,
    /// Retry events scheduled but not yet fired (in-flight for the
    /// conservation ledger).
    retries_pending: u64,
}

/// Outcome of a platform run.
#[derive(Debug)]
pub struct PlatformOutcome {
    pub stats: PlatformStats,
    pub events: u64,
    pub end: SimTime,
    /// High-water mark of concurrently queued events in the engine.
    /// Arrivals stream in from the job stream and are not counted, so
    /// this is the peak of the work in flight, not the trace length.
    pub peak_queue: usize,
    /// Flight recorder and phase profiler of the run (both empty and
    /// disabled unless the config turned telemetry on).
    pub telemetry: Telemetry,
}

impl Platform {
    /// Build a platform from a config (weather is derived from the seed).
    pub fn new(config: PlatformConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("bad config: {e}"));
        let streams = RngStreams::new(config.seed);
        let weather = WeatherTable::tabulate(&Weather::generate(
            WeatherConfig::paris(config.calendar),
            config.horizon + SimDuration::DAY,
            &streams,
        ));
        let n_worker_slots = config.n_clusters * config.workers_per_cluster;
        let mut rooms = ThermalBatch::with_capacity(n_worker_slots);
        let mut clusters: Vec<ClusterSim> = (0..config.n_clusters)
            .map(|i| {
                ClusterSim::new(
                    i,
                    config.workers_per_cluster,
                    config.arch,
                    config.setpoint_c,
                    &mut rooms,
                )
            })
            .collect();
        let datacenter = (config.datacenter_cores > 0)
            .then(|| Datacenter::new(DatacenterConfig::standard(config.datacenter_cores)));
        let faults = FaultRuntime::new(&config.faults, config.n_clusters, n_worker_slots);
        if !config.faults.sensor_faults.is_empty() {
            for c in &mut clusters {
                c.set_sensor_bias(config.faults.recovery.sensor_bias_c);
            }
        }
        let mut telemetry = Telemetry::from_config(config.telemetry);
        let tags = Tags::intern(&mut telemetry.recorder);
        Platform {
            config,
            weather,
            rooms,
            clusters,
            datacenter,
            running_events: RunningEvents::new(n_worker_slots),
            stats: PlatformStats::new(),
            telemetry,
            tags,
            links: Links::standard(),
            streams,
            faults,
            down_since: vec![None; n_worker_slots],
            fail_events: vec![None; n_worker_slots],
            repair_events: vec![None; n_worker_slots],
            retries_pending: 0,
        }
    }

    /// Run `jobs` through the platform. Consumes self.
    pub fn run(self, jobs: &JobStream) -> PlatformOutcome {
        match self.run_to(jobs, SimTime::MAX) {
            RunTo::Finished(out) => out,
            RunTo::Paused(_) => unreachable!("the horizon always precedes SimTime::MAX"),
        }
    }

    /// Run `jobs`, pausing before the first event at or after
    /// `pause_at` (the horizon still wins: a run whose next event is
    /// past the horizon finishes normally). A paused run can be
    /// snapshotted, resumed, or both.
    pub fn run_to(self, jobs: &JobStream, pause_at: SimTime) -> RunTo {
        let horizon = SimTime::ZERO + self.config.horizon;
        let mut engine = Engine::new(
            PlatformModel {
                p: self,
                jobs: jobs.shared(),
                next: 0,
            },
            horizon,
        );
        engine.event_budget = EVENT_BUDGET;
        match engine.run_until(pause_at) {
            EngineRun::Paused(engine) => RunTo::Paused(PausedRun { engine: *engine }),
            EngineRun::Finished(model, summary) => RunTo::Finished(finish_outcome(model, summary)),
        }
    }

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
        let telemetry_on = p.config.telemetry.enabled;
        let mut engine = Engine::restored(
            PlatformModel {
                p,
                jobs: Arc::new(arrivals),
                next: 0,
            },
            sched,
            meta.events,
        );
        engine.event_budget = EVENT_BUDGET;
        if telemetry_on {
            // The profiler measures wall-clock phases of *this* process;
            // it is deliberately not part of the snapshot.
            engine.scheduler_mut().profiler = PhaseProfiler::enabled();
        }
        Ok(PausedRun { engine })
    }

    /// Global worker-slot index for the running-events map.
    #[inline]
    fn wslot(&self, cluster: usize, worker: usize) -> usize {
        cluster * self.config.workers_per_cluster + worker
    }

    /// Draw the next failure time for a worker after `after` from its
    /// exponential failure process (None when churn is disabled).
    fn next_failure(&self, cluster: usize, worker: usize, after: SimTime) -> Option<SimTime> {
        let mtbf = self.config.faults.worker_churn?.mtbf;
        let idx = (cluster * self.config.workers_per_cluster + worker) as u64;
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
    fn schedule_next_failure(
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

    /// Record a fault-timeline entry in both the stats and the flight
    /// recorder (cluster group's track; lane = worker when known).
    fn record_fault_event(
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
    fn expire(&mut self, now: SimTime, job: &Job) {
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
    fn start_local(
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

    /// Turn away a job the platform cannot place: an edge request goes
    /// through [`Platform::reject_edge`], a DCC job is counted rejected.
    fn reject(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        if job.is_edge() {
            self.reject_edge(now, job, sched);
        } else {
            self.stats.dcc_rejected.inc();
        }
    }

    /// Terminal-or-retry for an edge request the platform cannot place:
    /// with an enabled retry policy, re-submission is scheduled with
    /// exponential backoff while the budget and the deadline both
    /// allow; the request is abandoned (counted, never silent) once a
    /// started chain runs dry. Without an active retry layer (see
    /// [`FaultPlan::active_recovery`]), or before a chain has started,
    /// this is the plain legacy rejection.
    fn reject_edge(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        let retry = self.config.faults.active_recovery().map(|r| r.retry);
        if let Some(policy) = retry.filter(|p| p.enabled()) {
            let attempts = self.faults.retry_book.get(&job.id).copied().unwrap_or(0);
            let due = now + policy.backoff(attempts + 1);
            if attempts < policy.max_attempts && job.absolute_deadline().is_none_or(|d| due < d) {
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
                self.reject_edge(now, job, sched);
                return;
            }
        }
        let home = self.route_cluster(&job);
        self.dispatch_home(now, home, job, sched);
    }

    /// Start `job` on its home cluster, or consult the peak policy when
    /// the cluster is full.
    fn dispatch_home(&mut self, now: SimTime, home: usize, job: Job, sched: &mut Scheduler<Ev>) {
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

    /// Break one worker: account the lost progress, cancel the orphans'
    /// finish events, and re-dispatch each orphan through the normal
    /// offload decision (a failed building's work spills to siblings or
    /// the datacenter instead of queueing behind a dark board). A crash
    /// loses in-flight progress: orphans restart from their full work,
    /// except an edge orphan already past its deadline, which expires
    /// instead of wasting a slot.
    fn fail_worker(
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
        // Orphans restart at the width their slice held.
        let slices: Vec<(Job, usize, SimTime)> = self.clusters[cluster]
            .worker(worker)
            .running()
            .iter()
            .map(|s| {
                (
                    Job {
                        cores: s.cores,
                        ..s.job
                    },
                    s.cores,
                    s.started,
                )
            })
            .collect();
        for &(_, cores, started) in &slices {
            self.stats.wasted_core_s += now.saturating_since(started).as_secs_f64() * cores as f64;
        }
        // `fail` checkpoints remaining work; a crash keeps nothing, so
        // the checkpointed jobs are discarded in favour of full restarts.
        let _ = self.clusters[cluster].fail_worker(worker, now);
        for (job, _, _) in slices {
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

    /// Return a worker to service, closing its MTTR interval.
    fn repair_worker(&mut self, now: SimTime, cluster: usize, worker: usize) {
        let slot = self.wslot(cluster, worker);
        if let Some(start) = self.down_since[slot].take() {
            let dt = now.saturating_since(start).as_secs_f64();
            self.stats.mttr_s.observe(dt);
            self.stats.repair_s.observe(dt);
        }
        self.record_fault_event(now, FaultEventKind::WorkerRepair, cluster, Some(worker));
        self.clusters[cluster].repair_worker(worker);
    }

    /// Schedule the down/up transitions of every planned cluster outage
    /// that becomes due within the next control period. Running this at
    /// the *start* of each control tick keeps the event order identical
    /// to scheduling everything at init (a transition landing on a tick
    /// timestamp gets a lower sequence number than that tick's own
    /// event, which was scheduled at the end of the previous handler),
    /// while letting a branch-restored run schedule outages its warm-up
    /// never knew about.
    fn schedule_due_outages(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
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
    fn apply_sensor_states(&mut self, now: SimTime) {
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

    /// Start everything a cluster's drain released.
    fn drain_cluster(&mut self, now: SimTime, cluster: usize, sched: &mut Scheduler<Ev>) {
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
    fn close_period(
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
        let backfill = self
            .config
            .faults
            .active_recovery()
            .filter(|r| r.boiler_backfill);
        if let Some(r) = backfill {
            let mut kwh = 0.0;
            for c in &self.clusters {
                kwh += c.stage_backfill(now, &mut self.rooms, r.backfill_power_w);
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

    fn finalise_energy(&mut self, end: SimTime) {
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
    fn ledgers(&self) -> ([(u64, u64); 2], (u64, u64)) {
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
    fn finalise_accounting(&mut self, end: SimTime) {
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
}

impl Platform {
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

/// Add `v` to `file` as section `name`.
fn put<T: Snapshot>(file: &mut SnapshotFile, name: &str, v: &T) {
    let mut w = SnapshotWriter::new();
    v.encode(&mut w);
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

/// Close out a finished engine run into a [`PlatformOutcome`].
fn finish_outcome(model: PlatformModel, summary: RunSummary) -> PlatformOutcome {
    let mut p = model.p;
    p.finalise_energy(summary.end_time);
    p.finalise_accounting(summary.end_time);
    PlatformOutcome {
        stats: p.stats,
        events: summary.events,
        end: summary.end_time,
        peak_queue: summary.peak_queue,
        telemetry: p.telemetry,
    }
}

/// Result of [`Platform::run_to`].
#[allow(clippy::large_enum_variant)]
pub enum RunTo {
    /// The run paused at the requested point; snapshot or resume it.
    Paused(PausedRun),
    /// The horizon arrived first; the run finished normally.
    Finished(PlatformOutcome),
}

/// A platform run paused between events — the unit the checkpoint
/// subsystem works on. Serialise it with
/// [`PausedRun::snapshot_bytes`], continue it with
/// [`PausedRun::resume`], or rebuild one in a fresh process with
/// [`Platform::restore`] / [`Platform::restore_branch`].
pub struct PausedRun {
    engine: Engine<PlatformModel>,
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
        let p = &self.engine.model().p;
        let mut file = SnapshotFile::new();
        let (config_fp, plan_fp) = fingerprints(&p.config, &p.config.faults);
        let meta = Meta {
            config_fp,
            plan_fp,
            now: self.engine.now(),
            events: self.engine.events(),
        };
        put(&mut file, "meta", &meta);
        let mut w = SnapshotWriter::new();
        self.engine.scheduler().encode_state(&mut w);
        file.add("engine", w);
        put(&mut file, "rng", &p.streams);
        put(&mut file, "telemetry", &p.telemetry.recorder);
        put(&mut file, "thermal", &p.rooms);
        let mut w = SnapshotWriter::new();
        p.snapshot_state(&mut w);
        file.add("platform", w);
        let mut w = SnapshotWriter::new();
        arrivals::encode(self.engine.model().remaining_arrivals(), &mut w);
        file.add("arrivals", w);
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

struct PlatformModel {
    p: Platform,
    /// The run's jobs, sorted by `(arrival, id)` and shared with the
    /// caller's stream, and the index of the next one to arrive. The
    /// engine merges them in ahead of its queue (see
    /// [`Model::next_input`]), so arrivals are never queued.
    jobs: Arc<Vec<Job>>,
    next: usize,
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

impl Model for PlatformModel {
    type Event = Ev;

    fn next_input(&self) -> Option<SimTime> {
        self.jobs.get(self.next).map(|j| j.arrival)
    }

    fn take_input(&mut self) -> Ev {
        let job = self.jobs[self.next];
        self.next += 1;
        Ev::Arrival(job)
    }

    fn init(&mut self, sched: &mut Scheduler<Ev>) {
        if self.p.config.telemetry.enabled {
            sched.profiler = PhaseProfiler::enabled();
        }
        sched.immediately(Ev::ControlTick);
        if self.p.config.faults.worker_churn.is_some() {
            for c in 0..self.p.config.n_clusters {
                for w in 0..self.p.config.workers_per_cluster {
                    self.p.schedule_next_failure(c, w, SimTime::ZERO, sched);
                }
            }
        }
        // Cluster outages are scheduled lazily, one control tick ahead
        // (see `Platform::schedule_due_outages`), so a run restored from
        // a snapshot picks up outages a branch plan appended.
    }

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let p = &mut self.p;
        match ev {
            Ev::Arrival(job) => p.on_arrival(now, job, sched),
            Ev::Retry { job } => p.on_retry(now, job, sched),
            Ev::FinishLocal {
                cluster,
                worker,
                job,
                venue,
            } => p.on_finish_local(now, cluster, worker, job, venue, sched),
            Ev::FinishDc { job } => p.on_finish_dc(now, job, sched),
            Ev::WorkerFail { cluster, worker } => p.on_worker_fail(now, cluster, worker, sched),
            Ev::WorkerRepair { cluster, worker } => p.on_worker_repair(now, cluster, worker, sched),
            Ev::ClusterDown { outage } => p.on_cluster_down(now, outage, sched),
            Ev::ClusterUp { outage } => p.on_cluster_up(now, outage, sched),
            Ev::ControlTick => p.on_control_tick(now, sched),
        }
    }

    fn finish(&mut self, sched: &mut Scheduler<Ev>) {
        // Reclaim the engine's phase accumulators so the run report can
        // render them after the engine is consumed.
        let prof = std::mem::take(&mut sched.profiler);
        self.p.telemetry.profiler.merge(&prof);
    }
}

/// One handler per [`Ev`] variant. Each times its own profiler phases;
/// an event that returns early (a stale or moot fault event) is not
/// timed.
impl Platform {
    fn on_arrival(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        if job.is_edge() {
            self.stats.edge_arrived.inc();
        } else {
            self.stats.dcc_arrived.inc();
        }
        self.place(now, job, sched);
    }

    fn on_retry(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        self.retries_pending -= 1;
        self.place(now, job, sched);
    }

    fn on_finish_local(
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

    fn on_finish_dc(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
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

    fn on_worker_fail(
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
        let quarantine = self
            .config
            .faults
            .active_recovery()
            .and_then(|r| r.quarantine);
        if let Some(q) = quarantine {
            if self.faults.flap.record(slot, now, &q) {
                self.stats.quarantines.inc();
                self.record_fault_event(now, FaultEventKind::Quarantine, cluster, Some(worker));
                delay += q.extra_downtime;
            }
        }
        let ev = sched.after(delay, Ev::WorkerRepair { cluster, worker });
        self.repair_events[slot] = Some(ev);
        // Orphaned work may fit elsewhere right away.
        self.drain_cluster(now, cluster, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    fn on_worker_repair(
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
        self.repair_worker(now, cluster, worker);
        self.schedule_next_failure(cluster, worker, now, sched);
        self.drain_cluster(now, cluster, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    fn on_cluster_down(&mut self, now: SimTime, outage: usize, sched: &mut Scheduler<Ev>) {
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

    fn on_cluster_up(&mut self, now: SimTime, outage: usize, sched: &mut Scheduler<Ev>) {
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
                self.repair_worker(now, c, w);
                self.schedule_next_failure(c, w, now, sched);
            }
        }
        self.drain_cluster(now, c, sched);
        sched.profiler.stop(Phase::FaultRuntime, t_fault);
    }

    fn on_control_tick(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
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

    /// The tick's fleet sample, in the stats and (with telemetry on) the
    /// flight recorder, plus the invariant watchdogs: observe, record,
    /// never panic.
    fn record_tick(&mut self, now: SimTime, mean_temp: f64, usable: usize, mean_demand: f64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, RecoveryPolicy, Window};
    use workloads::edge::{location_service_jobs, LocationServiceConfig};

    fn tiny_config() -> PlatformConfig {
        PlatformConfig {
            n_clusters: 2,
            workers_per_cluster: 4,
            horizon: SimDuration::from_hours(6),
            datacenter_cores: 64,
            ..PlatformConfig::small_winter()
        }
    }

    fn edge_stream(hours: i64) -> JobStream {
        location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_hours(hours),
            &RngStreams::new(77),
            0,
        )
    }

    #[test]
    fn edge_requests_complete_fast_in_winter() {
        let p = Platform::new(tiny_config());
        let jobs = edge_stream(6);
        let n_jobs = jobs.len() as u64;
        let out = p.run(&jobs);
        let s = &out.stats;
        assert!(
            s.edge_completed.get() > n_jobs * 9 / 10,
            "{}/{} completed",
            s.edge_completed.get(),
            n_jobs
        );
        assert!(
            s.edge_attainment() > 0.95,
            "attainment {}",
            s.edge_attainment()
        );
        assert!(
            s.edge_response_ms.p50() < 100.0,
            "p50 {} ms should be edge-scale (compute + LAN)",
            s.edge_response_ms.p50()
        );
    }

    #[test]
    fn dcc_overflow_reaches_datacenter() {
        use workloads::dcc::{finance_jobs, FinanceConfig};
        let mut cfg = tiny_config();
        cfg.peak_policy = sched::PeakPolicy::VerticalFirst;
        // 2×4 Q.rads = 128 cores; a heavy finance stream overflows them.
        let mut fin = FinanceConfig::bank();
        fin.batches_per_day = 600.0;
        let jobs = finance_jobs(fin, SimDuration::from_hours(6), &RngStreams::new(3), 0);
        let out = Platform::new(cfg).run(&jobs);
        assert!(out.stats.offload_vertical.get() > 0, "peaks must offload");
        assert!(out.stats.dc_share() > 0.0);
        assert!(out.stats.dcc_completed.get() > 0);
    }

    #[test]
    fn rooms_are_heated_to_comfort() {
        // Cover a full day so the daytime setpoint (20 °C) is exercised —
        // the first 6 h are night setback (17 °C) where no warming is due.
        let mut cfg = tiny_config();
        cfg.horizon = SimDuration::from_hours(24);
        let p = Platform::new(cfg);
        let jobs = edge_stream(24);
        let out = p.run(&jobs);
        let temps = out.stats.room_temp_c.summary();
        // Starting ~17 °C, rooms must climb toward the 20 °C day setpoint.
        assert!(
            temps.max() > 18.5,
            "rooms should warm up, max mean {}",
            temps.max()
        );
        // And never run away past the setpoint band (no waste heat).
        assert!(temps.max() < 22.0, "no overshoot, got {}", temps.max());
    }

    #[test]
    fn energy_is_accounted() {
        let p = Platform::new(tiny_config());
        let out = p.run(&edge_stream(6));
        assert!(
            out.stats.df_total_kwh > 0.5,
            "kwh {}",
            out.stats.df_total_kwh
        );
        assert!(out.stats.df_compute_kwh <= out.stats.df_total_kwh);
        assert!(out.stats.pue() >= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let jobs = edge_stream(3);
        let a = Platform::new(tiny_config()).run(&jobs);
        let b = Platform::new(tiny_config()).run(&jobs);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.stats.edge_response_ms.p99(),
            b.stats.edge_response_ms.p99()
        );
        assert_eq!(a.stats.df_total_kwh, b.stats.df_total_kwh);
    }

    #[test]
    fn preempt_policy_fires_under_pressure() {
        use workloads::dcc::{boinc_jobs, BoincConfig};
        use workloads::job::JobStream;
        let mut cfg = tiny_config();
        cfg.peak_policy = sched::PeakPolicy::Hybrid;
        cfg.datacenter_cores = 64;
        // A 2 s container swap would blow every 300 ms edge deadline on
        // preemption (that effect is measured by experiment E4); here use
        // a light swap so the preemption path itself is what's tested.
        cfg.arch = ArchClass::SharedWorkers {
            switch_cost: SimDuration::from_millis(100),
        };
        // Saturate with BOINC work, then add edge traffic.
        let mut boinc = BoincConfig::standard();
        boinc.tasks_per_hour = 4_000.0;
        boinc.mean_work_gops = 40_000.0;
        let bg = boinc_jobs(boinc, SimDuration::from_hours(6), &RngStreams::new(5), 0);
        let edge = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_hours(6),
            &RngStreams::new(5),
            10_000_000,
        );
        let jobs = bg.merge(edge);
        let out = Platform::new(cfg).run(&jobs);
        assert!(
            out.stats.preemptions.get() > 0,
            "saturated cluster must preempt for edge"
        );
        assert!(out.stats.edge_attainment() > 0.8);
        let _ = JobStream::new(vec![]);
    }

    /// Run `jobs` under `cfg` with no plan and under `plan`; the two
    /// runs must agree bit for bit. Returns the plan-free run.
    fn assert_unperturbed(
        cfg: PlatformConfig,
        plan: FaultPlan,
        jobs: &JobStream,
    ) -> PlatformOutcome {
        let base = Platform::new(cfg.clone()).run(jobs);
        let planned = Platform::new(PlatformConfig {
            faults: plan,
            ..cfg
        })
        .run(jobs);
        assert_eq!(base.events, planned.events);
        assert_eq!(stats_bytes(&base.stats), stats_bytes(&planned.stats));
        base
    }

    /// A plan with no injector acting inside the horizon must not
    /// perturb a single bit: every fault draw lives on its own RNG
    /// stream, every fault code path is gated on active state, and
    /// recovery acts only while the plan has an injector.
    #[test]
    fn inert_plan_never_perturbs_the_simulation() {
        // Every window beyond the horizon, recovery off.
        let inert = FaultPlan::none()
            .with_master_outage(Window::from_hours(1_000, 1_001))
            .with_cluster_outage(0, Window::from_hours(1_000, 1_001))
            .with_link_fault(
                LinkClass::Fiber,
                Window::from_hours(1_000, 1_001),
                dfnet::link::Degradation::brownout(),
                true,
            )
            .with_recovery(RecoveryPolicy::disabled());
        assert_unperturbed(tiny_config(), inert, &edge_stream(6));
        // Recovery alone, on a building too small for its edge load: it
        // rejects requests without any fault, and must not retry them.
        let cfg = PlatformConfig {
            n_clusters: 1,
            workers_per_cluster: 3,
            horizon: SimDuration::from_hours(24),
            seed: 7,
            ..PlatformConfig::small_winter()
        };
        let recovery_only = FaultPlan::none().with_recovery(RecoveryPolicy::standard());
        let base = assert_unperturbed(cfg, recovery_only, &edge_stream(24));
        assert!(base.stats.edge_rejected.get() > 0, "the run rejects");
    }

    #[test]
    fn churn_with_recovery_conserves_every_job() {
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let out = Platform::new(cfg).run(&jobs);
        let s = &out.stats;
        assert!(s.worker_failures.get() > 0, "churn must fire in 6 h");
        assert!(s.mttr_s.count() > 0, "repairs must be recorded");
        assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end,
            "no edge job lost or duplicated"
        );
        assert!(!s.fault_timeline.is_empty());
    }

    #[test]
    fn cluster_outage_spills_orphans_and_backfills_heat() {
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_cluster_outage(0, Window::from_hours(1, 3))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let out = Platform::new(cfg).run(&jobs);
        let s = &out.stats;
        assert_eq!(s.cluster_outages.get(), 1);
        assert!(s.worker_failures.get() >= 4, "the whole building goes dark");
        assert!(
            s.boiler_backfill_kwh > 0.0,
            "boiler must carry the dark rooms"
        );
        assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end
        );
        // Restoration happens inside the horizon → MTTR ≈ 2 h.
        assert!(s.mttr_s.count() >= 4);
        assert!(
            (s.mttr_s.mean() - 7_200.0).abs() < 600.0,
            "MTTR {}",
            s.mttr_s.mean()
        );
    }

    /// Backfill covers every control period a room is dark, the last,
    /// partial one included: the end of the run closes its period
    /// through the same path as a tick. A 60 °C setpoint keeps the
    /// thermostat demand of a backfilled room at exactly 1, so the
    /// boiler energy is rooms × power × dark time, to rounding.
    #[test]
    fn boiler_backfill_covers_the_last_partial_period() {
        let mut cfg = tiny_config();
        cfg.setpoint_c = 60.0;
        // Six hours and seven minutes: the last period is 7 min long.
        cfg.horizon = SimDuration::from_secs(6 * 3_600 + 420);
        let recovery = RecoveryPolicy::standard();
        // Dark from 1 h 05 min to past the horizon. Backfill starts with
        // the period the outage falls in, the one opened at 1 h.
        cfg.faults = FaultPlan::none()
            .with_cluster_outage(
                0,
                Window::new(SimDuration::from_secs(3_900), SimDuration::from_hours(100)),
            )
            .with_recovery(recovery);
        // No jobs: a job would wake its worker between ticks and move
        // the start of that worker's period off the tick grid.
        let out = Platform::new(cfg.clone()).run(&JobStream::new(Vec::new()));
        let dark_s = (cfg.horizon - SimDuration::from_hours(1)).as_secs_f64();
        let want_kwh = cfg.workers_per_cluster as f64 * recovery.backfill_power_w * dark_s / 3.6e6;
        let got = out.stats.boiler_backfill_kwh;
        assert!(
            (got - want_kwh).abs() < 1e-9 * want_kwh,
            "backfill {got} kWh, want {want_kwh} kWh"
        );
    }

    /// Snapshot-encode a stats block for bit-exact comparison.
    fn stats_bytes(s: &PlatformStats) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        s.encode(&mut w);
        w.into_bytes()
    }

    fn pause_at(cfg: PlatformConfig, jobs: &JobStream, at_hours: i64) -> PausedRun {
        match Platform::new(cfg).run_to(jobs, SimTime::from_secs(at_hours * 3_600)) {
            RunTo::Paused(p) => p,
            RunTo::Finished(_) => panic!("pause point inside the horizon"),
        }
    }

    #[test]
    fn pause_and_resume_is_bit_identical_to_a_straight_run() {
        let jobs = edge_stream(6);
        let cold = Platform::new(tiny_config()).run(&jobs);
        let paused = pause_at(tiny_config(), &jobs, 3);
        let warm = paused.resume();
        assert_eq!(cold.events, warm.events);
        assert_eq!(cold.end, warm.end);
        assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
    }

    #[test]
    fn snapshot_restore_in_a_fresh_platform_is_bit_identical() {
        // The golden guarantee, under an ACTIVE fault plan: churn firing
        // throughout, a master outage straddling the snapshot point, and
        // the retry layer holding open chains across it.
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_master_outage(Window::from_hours(2, 3))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let cold = Platform::new(cfg.clone()).run(&jobs);
        let paused = pause_at(cfg.clone(), &jobs, 2);
        let bytes = paused.snapshot_bytes();
        // The restored run never sees the job stream: the arrivals not
        // yet dispatched travel in the snapshot's `arrivals` section.
        let warm = Platform::restore(cfg, &bytes).expect("round trip").resume();
        assert_eq!(cold.events, warm.events);
        assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
        assert!(warm.stats.worker_failures.get() > 0, "plan stayed active");
    }

    #[test]
    fn restore_rejects_mismatched_config_or_plan() {
        let jobs = edge_stream(6);
        let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
        let mut other = tiny_config();
        other.setpoint_c += 1.0;
        assert!(Platform::restore(other, &bytes).is_err(), "config drift");
        let mut other = tiny_config();
        other.faults = FaultPlan::none().with_master_outage(Window::from_hours(4, 5));
        assert!(
            Platform::restore(other, &bytes).is_err(),
            "plan drift without restore_branch"
        );
    }

    #[test]
    fn truncated_or_corrupted_snapshots_error_never_panic() {
        let jobs = edge_stream(6);
        let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
        for cut in [0, 1, 7, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Platform::restore(tiny_config(), &bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        for flip in [8, 64, bytes.len() / 3, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(
                Platform::restore(tiny_config(), &bad).is_err(),
                "bit flip at {flip} must error"
            );
        }
    }

    #[test]
    fn branch_restore_extends_the_fault_plan_bit_identically() {
        // Warm up under churn; branch an extra cluster outage onto the
        // snapshot. The branch must equal a cold run under the extended
        // plan, bit for bit — the basis of branch-from-snapshot sweeps.
        let base = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let mut cfg = tiny_config();
        cfg.faults = base.clone();
        let jobs = edge_stream(6);
        let bytes = pause_at(cfg.clone(), &jobs, 2).snapshot_bytes();

        let mut branch_cfg = cfg.clone();
        branch_cfg.faults = base
            .clone()
            .with_cluster_outage(0, Window::from_hours(3, 4));
        let cold = Platform::new(branch_cfg.clone()).run(&jobs);
        let warm = Platform::restore_branch(&base, branch_cfg, &bytes)
            .expect("valid branch")
            .resume();
        assert_eq!(cold.events, warm.events);
        assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
        assert_eq!(warm.stats.cluster_outages.get(), 1, "branch outage fired");
    }

    #[test]
    fn branch_restore_rejects_windows_before_the_branch_point() {
        let base = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let mut cfg = tiny_config();
        cfg.faults = base.clone();
        let jobs = edge_stream(6);
        let bytes = pause_at(cfg.clone(), &jobs, 2).snapshot_bytes();
        // Starts before the snapshot: would rewrite warmed-up history.
        let mut bad = cfg.clone();
        bad.faults = base
            .clone()
            .with_cluster_outage(0, Window::from_hours(1, 3));
        assert!(Platform::restore_branch(&base, bad, &bytes).is_err());
        // Outage inside the one-tick scheduling slack is rejected too.
        let mut slack = cfg.clone();
        slack.faults = base.clone().with_cluster_outage(
            0,
            Window::new(
                SimDuration::from_secs(2 * 3_600 + 60),
                SimDuration::from_hours(3),
            ),
        );
        assert!(Platform::restore_branch(&base, slack, &bytes).is_err());
        // Dropping a base injector is not an extension.
        let mut dropped = cfg;
        dropped.faults = FaultPlan::none().with_recovery(RecoveryPolicy::standard());
        assert!(Platform::restore_branch(&base, dropped, &bytes).is_err());
    }

    #[test]
    fn retry_layer_reclaims_master_outage_rejections() {
        // Indirect edge requests during a master outage are rejected;
        // with retries enabled, requests arriving just before the
        // window's end get re-submitted after it and complete.
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_master_outage(Window::from_hours(1, 2))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let with_retry = Platform::new(cfg.clone()).run(&jobs);
        cfg.faults = cfg.faults.with_recovery(RecoveryPolicy::disabled());
        let without = Platform::new(cfg).run(&jobs);
        assert!(with_retry.stats.jobs_retried.get() > 0);
        assert!(
            with_retry.stats.jobs_abandoned.get() > 0,
            "sub-second deadlines abandon most chains mid-outage"
        );
        assert!(without.stats.jobs_retried.get() == 0);
        let s = &with_retry.stats;
        assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end
        );
    }
}
