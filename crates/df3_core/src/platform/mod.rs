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
use crate::datacenter::Datacenter;
use crate::faults::{
    retry_backoff, FaultEventKind, FaultPlan, SensorFault, SensorFaultKind, BACKFILL_POWER_W,
    QUARANTINE_EXTRA_DOWNTIME, QUARANTINE_THRESHOLD, QUARANTINE_WINDOW, RETRY_ATTEMPTS,
};
use crate::regulator::RegulatorTable;
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
use std::collections::BTreeMap;
use std::sync::Arc;
use thermal::batch::ThermalBatch;
use thermal::weather::{Weather, WeatherConfig, WeatherTable};
use workloads::job::JobStream;
use workloads::{Flow, Job, JobId};

mod faults;
mod handlers;
mod period;
mod snapshot;

use faults::FaultRuntime;
pub use snapshot::PausedRun;

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
        // One Q.rad regulator table for the whole fleet.
        let table = Arc::new(RegulatorTable::qrad());
        let clusters: Vec<ClusterSim> = (0..config.n_clusters)
            .map(|i| {
                ClusterSim::with_table(
                    i,
                    config.workers_per_cluster,
                    config.arch,
                    config.setpoint_c,
                    &mut rooms,
                    &table,
                )
            })
            .collect();
        let datacenter =
            (config.datacenter_cores > 0).then(|| Datacenter::new(config.datacenter_cores));
        let faults = FaultRuntime::new(&config.faults, config.n_clusters, n_worker_slots);
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
        let model = PlatformModel {
            p: self,
            jobs: jobs.shared(),
            next: 0,
        };
        match armed(Engine::new(model, horizon)).run_until(pause_at) {
            EngineRun::Paused(engine) => RunTo::Paused(PausedRun { engine: *engine }),
            EngineRun::Finished(model, summary) => RunTo::Finished(finish_outcome(model, summary)),
        }
    }

    /// Global worker-slot index for the running-events map.
    #[inline]
    fn wslot(&self, cluster: usize, worker: usize) -> usize {
        cluster * self.config.workers_per_cluster + worker
    }
}

/// Set a fresh or restored run's event budget and, with telemetry on,
/// enable its phase profiler. The profiler times this process, so no
/// snapshot holds it.
fn armed(mut engine: Engine<PlatformModel>) -> Engine<PlatformModel> {
    engine.event_budget = EVENT_BUDGET;
    if engine.model().p.config.telemetry.enabled {
        engine.scheduler_mut().profiler = PhaseProfiler::enabled();
    }
    engine
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

struct PlatformModel {
    p: Platform,
    /// The run's jobs, sorted by `(arrival, id)` and shared with the
    /// caller's stream, and the index of the next one to arrive. The
    /// engine merges them in ahead of its queue (see
    /// [`Model::next_input`]), so arrivals are never queued.
    jobs: Arc<Vec<Job>>,
    next: usize,
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

#[cfg(test)]
mod tests;
