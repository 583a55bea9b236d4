//! Deterministic fault injection and recovery (§IV).
//!
//! The paper claims a resource-oriented DF fleet "can easily guarantee
//! that the basic services delivered by the resources (heat for
//! instance) will continue to be delivered even if there are problems
//! in the central point". A single master-outage window plus
//! independent worker MTBF (all the seed simulator could inject)
//! exercises a sliver of that claim; this module makes fault shape a
//! declarative simulation input, the way LEAF-style fog simulators
//! treat failure models.
//!
//! A [`FaultPlan`] composes five injectors:
//!
//! - **Worker churn** — the per-worker exponential crash/repair process
//!   (§III-C availability and maintenance).
//! - **Cluster outages** — correlated building-level power cuts that
//!   take every worker of one cluster dark for a window.
//! - **Master outages** — windows during which indirect edge requests
//!   cannot be scheduled (§II-C routes them through the master).
//! - **Link faults** — degradation (latency stretch, bandwidth derate)
//!   or full partition of one [`LinkClass`] for a window.
//! - **Sensor faults** — dropout or stuck-at on the room-temperature
//!   sensors feeding the regulators; the control loop degrades to
//!   last-known-good minus a conservative bias and never panics.
//!
//! plus a [`RecoveryPolicy`]: retry budgets with exponential backoff
//! for rejected edge requests, quarantine for flapping workers, and
//! boiler backfill that keeps rooms warm when compute capacity
//! collapses.
//!
//! Everything is deterministic: the only randomness (churn gap draws)
//! comes from the platform's dedicated `"worker-failures"` RNG stream,
//! so enabling a plan never perturbs weather, workload, or any other
//! draw — and an empty plan leaves the platform bit-identical to a
//! build without the fault layer.

use dfnet::link::{Degradation, Link, LinkClass};
use sched::retry::{QuarantinePolicy, RetryPolicy};
use simcore::time::{SimDuration, SimTime};

/// A half-open activity window `[start, end)`, as offsets from t = 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub start: SimDuration,
    pub end: SimDuration,
}

impl Window {
    pub fn new(start: SimDuration, end: SimDuration) -> Self {
        Window { start, end }
    }

    pub fn from_hours(start_h: i64, end_h: i64) -> Self {
        Window::new(
            SimDuration::from_hours(start_h),
            SimDuration::from_hours(end_h),
        )
    }

    pub fn contains(&self, now: SimTime) -> bool {
        now >= SimTime::ZERO + self.start && now < SimTime::ZERO + self.end
    }

    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.start.is_negative() || self.end <= self.start {
            return Err(format!("bad window {}..{}", self.start, self.end));
        }
        Ok(())
    }
}

/// The per-worker crash/repair process (exponential MTBF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerChurn {
    /// Mean time between failures of one DF server.
    pub mtbf: SimDuration,
    /// Repair turnaround once a server fails (a technician visits the
    /// building — distributed maintenance is slower than a DC swap).
    pub repair_time: SimDuration,
}

/// A correlated building-level power outage: every worker of `cluster`
/// goes dark for the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOutage {
    pub cluster: usize,
    pub window: Window,
}

/// A network fault on one link class: degradation while the window is
/// active, or (with `partition`) no connectivity at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    pub link: LinkClass,
    pub window: Window,
    pub degradation: Degradation,
    /// The link is severed outright: horizontal offloads (fiber) or
    /// vertical offloads (WAN) become impossible during the window.
    pub partition: bool,
}

/// How a faulty room sensor misreads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFaultKind {
    /// No reading at all: the regulator holds the last-known-good
    /// temperature minus a conservative bias.
    Dropout,
    /// The sensor reports a constant value regardless of the room.
    StuckAt(f64),
}

/// A sensor fault on one worker's room sensor (or a whole cluster's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFault {
    pub cluster: usize,
    /// `None` hits every worker of the cluster.
    pub worker: Option<usize>,
    pub window: Window,
    pub kind: SensorFaultKind,
}

/// The recovery half of the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget for rejected edge requests.
    pub retry: RetryPolicy,
    /// Quarantine for flapping workers (`None` disables).
    pub quarantine: Option<QuarantinePolicy>,
    /// Stage gas-boiler heat into the rooms of failed workers so
    /// comfort holds while compute capacity is down (§II-B's
    /// conventional-boiler complement, wired into the control loop).
    pub boiler_backfill: bool,
    /// Boiler output per backfilled room at full thermostat demand, W.
    pub backfill_power_w: f64,
    /// Conservative bias subtracted from last-known-good readings when
    /// a sensor drops out (reads the room as colder than remembered, so
    /// the regulator errs toward heating), °C.
    pub sensor_bias_c: f64,
}

impl RecoveryPolicy {
    /// Retries + quarantine + boiler backfill, all on.
    pub fn standard() -> Self {
        RecoveryPolicy {
            retry: RetryPolicy::standard(),
            quarantine: Some(QuarantinePolicy::standard()),
            boiler_backfill: true,
            backfill_power_w: 500.0,
            sensor_bias_c: 0.5,
        }
    }

    /// Every recovery mechanism off — faults land unmitigated.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            retry: RetryPolicy::disabled(),
            quarantine: None,
            boiler_backfill: false,
            backfill_power_w: 0.0,
            sensor_bias_c: 0.5,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        self.retry.validate()?;
        if let Some(q) = &self.quarantine {
            q.validate()?;
        }
        let backfill_ok = self.backfill_power_w.is_finite() && self.backfill_power_w > 0.0;
        if self.boiler_backfill && !backfill_ok {
            return Err("boiler backfill needs positive power".into());
        }
        if !self.sensor_bias_c.is_finite() || self.sensor_bias_c < 0.0 {
            return Err(format!("bad sensor bias {}", self.sensor_bias_c));
        }
        Ok(())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// A declarative, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-worker crash/repair churn (`None` disables failures).
    pub worker_churn: Option<WorkerChurn>,
    /// Correlated building-level power outages.
    pub cluster_outages: Vec<ClusterOutage>,
    /// Master-node outage windows. While a master is down, *indirect*
    /// edge requests cannot be scheduled (§II-C routes them through the
    /// master) unless `PlatformConfig::roc_fallback_direct` degrades
    /// them to direct ones; heating and direct requests are unaffected
    /// — the §IV decentralisation property.
    pub master_outages: Vec<Window>,
    /// Link degradations and partitions.
    pub link_faults: Vec<LinkFault>,
    /// Room-sensor faults feeding the regulators.
    pub sensor_faults: Vec<SensorFault>,
    /// The recovery layer (only consulted while the plan is active).
    pub recovery: RecoveryPolicy,
}

// The plan's explicit encoding: a snapshot's `meta` section pins the
// plan it was taken under by a fingerprint of these bytes.
simcore::impl_snapshot!(Window { start, end });
simcore::impl_snapshot!(WorkerChurn { mtbf, repair_time });
simcore::impl_snapshot!(ClusterOutage { cluster, window });
simcore::impl_snapshot! {
    LinkFault { link, window, degradation, partition }
}
simcore::impl_snapshot! {
    SensorFault { cluster, worker, window, kind }
}
simcore::impl_snapshot! {
    enum SensorFaultKind { 0 => Dropout, 1 => StuckAt(value) }
}
simcore::impl_snapshot! {
    RecoveryPolicy { retry, quarantine, boiler_backfill, backfill_power_w, sensor_bias_c }
}
simcore::impl_snapshot! {
    FaultPlan {
        worker_churn,
        cluster_outages,
        master_outages,
        link_faults,
        sensor_faults,
        recovery,
    }
}

impl FaultPlan {
    /// The empty plan: no injectors, recovery moot. A platform built
    /// with this is bit-identical to one without the fault layer.
    pub fn none() -> Self {
        FaultPlan {
            worker_churn: None,
            cluster_outages: Vec::new(),
            master_outages: Vec::new(),
            link_faults: Vec::new(),
            sensor_faults: Vec::new(),
            recovery: RecoveryPolicy::disabled(),
        }
    }

    /// No injectors at all → the platform skips the fault runtime.
    pub fn is_empty(&self) -> bool {
        self.worker_churn.is_none()
            && self.cluster_outages.is_empty()
            && self.master_outages.is_empty()
            && self.link_faults.is_empty()
            && self.sensor_faults.is_empty()
    }

    pub fn with_churn(mut self, mtbf: SimDuration, repair_time: SimDuration) -> Self {
        self.worker_churn = Some(WorkerChurn { mtbf, repair_time });
        self
    }

    pub fn with_cluster_outage(mut self, cluster: usize, window: Window) -> Self {
        self.cluster_outages.push(ClusterOutage { cluster, window });
        self
    }

    pub fn with_master_outage(mut self, window: Window) -> Self {
        self.master_outages.push(window);
        self
    }

    pub fn with_link_fault(
        mut self,
        link: LinkClass,
        window: Window,
        degradation: Degradation,
        partition: bool,
    ) -> Self {
        self.link_faults.push(LinkFault {
            link,
            window,
            degradation,
            partition,
        });
        self
    }

    pub fn with_sensor_fault(
        mut self,
        cluster: usize,
        worker: Option<usize>,
        window: Window,
        kind: SensorFaultKind,
    ) -> Self {
        self.sensor_faults.push(SensorFault {
            cluster,
            worker,
            window,
            kind,
        });
        self
    }

    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Whether `self` is a valid *branch plan* over `base`: everything
    /// that could have fired before the snapshot offset `at` must be
    /// identical, and everything added must act strictly after it — so
    /// restoring a warm-up taken under `base` and continuing under
    /// `self` is bit-identical to a cold run under `self` up to `at`.
    ///
    /// Rules:
    /// - worker churn identical (its RNG draws start at t = 0);
    /// - recovery identical when `base` has injectors; when `base` is
    ///   empty the warm-up ran with no fault runtime at all, so the
    ///   branch recovery must keep retries off (a retry layer changes
    ///   rejection handling from the first event);
    /// - each injector list extends `base`'s as an exact prefix, and
    ///   every added window starts at or after `at` — cluster outages
    ///   need an extra `control_period` of slack because outage
    ///   transitions are scheduled one control tick ahead.
    pub fn is_extension_of(
        &self,
        base: &FaultPlan,
        at: SimDuration,
        control_period: SimDuration,
    ) -> Result<(), String> {
        if self.worker_churn != base.worker_churn {
            return Err("branch plan must keep the base worker churn".into());
        }
        if base.is_empty() {
            if self.recovery.retry.enabled() {
                return Err(
                    "branching from a fault-free warm-up cannot enable retries (they act from t = 0)"
                        .into(),
                );
            }
        } else if self.recovery != base.recovery {
            return Err("branch plan must keep the base recovery policy".into());
        }
        fn prefix<T: PartialEq + Copy>(
            ours: &[T],
            theirs: &[T],
            what: &str,
            earliest: SimDuration,
            window: impl Fn(&T) -> Window,
        ) -> Result<(), String> {
            if ours.len() < theirs.len() || ours[..theirs.len()] != *theirs {
                return Err(format!(
                    "branch {what} must extend the base list as a prefix"
                ));
            }
            for f in &ours[theirs.len()..] {
                if window(f).start < earliest {
                    return Err(format!(
                        "added {what} window starts {} before the branch point {}",
                        window(f).start,
                        earliest
                    ));
                }
            }
            Ok(())
        }
        prefix(
            &self.cluster_outages,
            &base.cluster_outages,
            "cluster outage",
            at + control_period,
            |o| o.window,
        )?;
        prefix(
            &self.master_outages,
            &base.master_outages,
            "master outage",
            at,
            |w| *w,
        )?;
        prefix(
            &self.link_faults,
            &base.link_faults,
            "link fault",
            at,
            |f| f.window,
        )?;
        prefix(
            &self.sensor_faults,
            &base.sensor_faults,
            "sensor fault",
            at,
            |s| s.window,
        )?;
        Ok(())
    }

    /// Validate against a fleet shape.
    pub fn validate(&self, n_clusters: usize, workers_per_cluster: usize) -> Result<(), String> {
        if let Some(c) = &self.worker_churn {
            if c.mtbf <= SimDuration::ZERO {
                return Err("churn MTBF must be positive".into());
            }
            if c.repair_time.is_negative() {
                return Err("churn repair time cannot be negative".into());
            }
        }
        for o in &self.cluster_outages {
            o.window.validate()?;
            if o.cluster >= n_clusters {
                return Err(format!(
                    "outage cluster {} out of range (fleet has {n_clusters})",
                    o.cluster
                ));
            }
        }
        for w in &self.master_outages {
            w.validate()?;
        }
        for f in &self.link_faults {
            f.window.validate()?;
            f.degradation.validate()?;
        }
        for s in &self.sensor_faults {
            s.window.validate()?;
            if s.cluster >= n_clusters {
                return Err(format!("sensor fault cluster {} out of range", s.cluster));
            }
            if let Some(w) = s.worker {
                if w >= workers_per_cluster {
                    return Err(format!("sensor fault worker {w} out of range"));
                }
            }
            if let SensorFaultKind::StuckAt(v) = s.kind {
                if !v.is_finite() {
                    return Err(format!("stuck-at value {v} must be finite"));
                }
            }
        }
        self.recovery.validate()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// A timeline entry of the run report: what broke or healed, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    WorkerFail,
    WorkerRepair,
    Quarantine,
    ClusterDown,
    ClusterUp,
}

impl FaultEventKind {
    /// Every kind, in declaration order (pre-interning telemetry tags).
    pub const ALL: [FaultEventKind; 5] = [
        FaultEventKind::WorkerFail,
        FaultEventKind::WorkerRepair,
        FaultEventKind::Quarantine,
        FaultEventKind::ClusterDown,
        FaultEventKind::ClusterUp,
    ];

    /// Stable snake_case name for telemetry and run reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultEventKind::WorkerFail => "worker_fail",
            FaultEventKind::WorkerRepair => "worker_repair",
            FaultEventKind::Quarantine => "quarantine",
            FaultEventKind::ClusterDown => "cluster_down",
            FaultEventKind::ClusterUp => "cluster_up",
        }
    }
}

/// One fault-timeline record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub t: SimTime,
    pub kind: FaultEventKind,
    pub cluster: usize,
    /// `None` for cluster-scope events.
    pub worker: Option<usize>,
}

simcore::impl_snapshot! {
    enum FaultEventKind {
        0 => WorkerFail,
        1 => WorkerRepair,
        2 => Quarantine,
        3 => ClusterDown,
        4 => ClusterUp,
    }
}

simcore::impl_snapshot! {
    FaultEvent { t, kind, cluster, worker }
}

/// Live per-run fault state, built by the platform only when the plan
/// has at least one injector (so fault-free runs pay nothing).
#[derive(Debug, Clone)]
pub struct FaultRuntime {
    plan: FaultPlan,
    /// Retry attempt counts for edge jobs in an open retry chain.
    pub retry_book: workloads::RetryBook,
    /// Failure history for quarantine decisions.
    pub flap: sched::retry::FlapTracker,
    /// Whether each cluster is inside a power outage right now.
    pub cluster_dark: Vec<bool>,
    /// Whether each planned cluster outage has had its down/up
    /// transitions scheduled yet (outages are scheduled lazily, one
    /// control tick ahead, so a restored run can pick up outages added
    /// by a branch plan).
    pub outage_scheduled: Vec<bool>,
    has_link_faults: bool,
    has_sensor_faults: bool,
}

impl FaultRuntime {
    pub fn new(plan: FaultPlan, n_clusters: usize, n_worker_slots: usize) -> Self {
        let has_link_faults = !plan.link_faults.is_empty();
        let has_sensor_faults = !plan.sensor_faults.is_empty();
        let outage_scheduled = vec![false; plan.cluster_outages.len()];
        FaultRuntime {
            plan,
            retry_book: workloads::RetryBook::new(),
            flap: sched::retry::FlapTracker::new(n_worker_slots),
            cluster_dark: vec![false; n_clusters],
            outage_scheduled,
            has_link_faults,
            has_sensor_faults,
        }
    }

    /// Checkpoint the runtime's mutable state (the plan itself is
    /// config, rebuilt on restore).
    pub fn snapshot_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        use simcore::snapshot::Snapshot;
        self.retry_book.encode(w);
        self.flap.encode(w);
        self.cluster_dark.encode(w);
        self.outage_scheduled.encode(w);
    }

    /// Overlay checkpointed state, taken at `now`, onto a fresh
    /// runtime. A branch plan may have *more* outages than the snapshot
    /// knew about; the scheduled-flags vector grows with `false` for
    /// the additions.
    pub fn restore_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
        now: SimTime,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::{Snapshot, SnapshotError};
        self.retry_book = workloads::RetryBook::decode(r)?;
        self.flap = sched::retry::FlapTracker::decode(r)?;
        if !self.flap.recorded_by(now) {
            return Err(SnapshotError::Corrupt(format!(
                "a recorded worker failure lies outside [0, {now}]"
            )));
        }
        let dark = Vec::<bool>::decode(r)?;
        if dark.len() != self.cluster_dark.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot tracks {} clusters, config built {}",
                dark.len(),
                self.cluster_dark.len()
            )));
        }
        self.cluster_dark = dark;
        let mut scheduled = Vec::<bool>::decode(r)?;
        if scheduled.len() > self.plan.cluster_outages.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot tracks {} cluster outages, plan has {}",
                scheduled.len(),
                self.plan.cluster_outages.len()
            )));
        }
        scheduled.resize(self.plan.cluster_outages.len(), false);
        self.outage_scheduled = scheduled;
        Ok(())
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn has_sensor_faults(&self) -> bool {
        self.has_sensor_faults
    }

    /// Whether any plan master-outage window covers `now`.
    pub fn master_down(&self, now: SimTime) -> bool {
        self.plan.master_outages.iter().any(|w| w.contains(now))
    }

    /// Whether `class` is fully partitioned at `now`.
    pub fn partitioned(&self, class: LinkClass, now: SimTime) -> bool {
        self.has_link_faults
            && self
                .plan
                .link_faults
                .iter()
                .any(|f| f.partition && f.link == class && f.window.contains(now))
    }

    /// `base` with every active degradation of `class` folded in
    /// (a partitioned link is the caller's concern — transfer times on
    /// a severed link are meaningless).
    pub fn effective_link(&self, class: LinkClass, now: SimTime, base: Link) -> Link {
        if !self.has_link_faults {
            return base;
        }
        let mut link = base;
        for f in &self.plan.link_faults {
            if f.link == class && f.window.contains(now) {
                link = link.degraded(f.degradation);
            }
        }
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfnet::protocol::Protocol;

    #[test]
    fn empty_plan_is_empty_and_validates() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.validate(4, 16).is_ok());
        assert_eq!(FaultPlan::default(), p);
    }

    #[test]
    fn builders_compose_and_validate() {
        let p = FaultPlan::none()
            .with_churn(SimDuration::from_hours(12), SimDuration::from_hours(1))
            .with_cluster_outage(1, Window::from_hours(2, 4))
            .with_master_outage(Window::from_hours(1, 2))
            .with_master_outage(Window::from_hours(4, 5))
            .with_link_fault(
                LinkClass::Fiber,
                Window::from_hours(2, 3),
                Degradation::brownout(),
                false,
            )
            .with_sensor_fault(
                0,
                Some(3),
                Window::from_hours(1, 3),
                SensorFaultKind::StuckAt(25.0),
            )
            .with_recovery(RecoveryPolicy::standard());
        assert!(!p.is_empty());
        assert!(p.validate(4, 16).is_ok());
        // Out-of-range cluster index.
        assert!(p.validate(1, 16).is_err());
    }

    #[test]
    fn bad_plans_are_rejected() {
        let p = FaultPlan::none().with_cluster_outage(0, Window::from_hours(4, 2));
        assert!(p.validate(4, 16).is_err());
        let p = FaultPlan::none().with_sensor_fault(
            0,
            None,
            Window::from_hours(0, 1),
            SensorFaultKind::StuckAt(f64::NAN),
        );
        assert!(p.validate(4, 16).is_err());
        let p = FaultPlan::none().with_churn(SimDuration::ZERO, SimDuration::ZERO);
        assert!(p.validate(4, 16).is_err());
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::from_hours(2, 4);
        assert!(!w.contains(SimTime::ZERO + SimDuration::from_hours(1)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_hours(2)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(4 * 3600 - 1)));
        assert!(!w.contains(SimTime::ZERO + SimDuration::from_hours(4)));
        assert_eq!(w.duration(), SimDuration::from_hours(2));
    }

    #[test]
    fn runtime_reports_masters_partitions_and_degradations() {
        let plan = FaultPlan::none()
            .with_master_outage(Window::from_hours(1, 2))
            .with_link_fault(
                LinkClass::Wan,
                Window::from_hours(1, 3),
                Degradation::none(),
                true,
            )
            .with_link_fault(
                LinkClass::Fiber,
                Window::from_hours(0, 2),
                Degradation::brownout(),
                false,
            );
        let rt = FaultRuntime::new(plan, 2, 8);
        let t0 = SimTime::ZERO;
        let t90 = SimTime::ZERO + SimDuration::from_secs(90 * 60);
        assert!(!rt.master_down(t0));
        assert!(rt.master_down(t90));
        assert!(!rt.partitioned(LinkClass::Wan, t0));
        assert!(rt.partitioned(LinkClass::Wan, t90));
        assert!(!rt.partitioned(LinkClass::Fiber, t90), "degraded ≠ severed");
        let base = Link::new(Protocol::Fiber);
        let eff = rt.effective_link(LinkClass::Fiber, t90, base);
        assert!(eff.transfer_time(1_000_000) > base.transfer_time(1_000_000));
        // Outside the window the link is pristine.
        let late = SimTime::ZERO + SimDuration::from_hours(5);
        let eff = rt.effective_link(LinkClass::Fiber, late, base);
        assert_eq!(
            eff.transfer_time(1_000_000).as_micros(),
            base.transfer_time(1_000_000).as_micros()
        );
    }
}
