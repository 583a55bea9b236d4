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
//! plus one recovery switch, [`FaultPlan::recovery`]: retries with
//! exponential backoff for rejected edge requests, quarantine for
//! flapping workers, and boiler backfill that keeps rooms warm when
//! compute capacity collapses. Their settings are the constants below.
//!
//! Everything is deterministic: the only randomness (churn gap draws)
//! comes from the platform's dedicated `"worker-failures"` RNG stream,
//! so enabling a plan never perturbs weather, workload, or any other
//! draw — and an empty plan leaves the platform bit-identical to a
//! build without the fault layer.

use crate::worker::SENSOR_BIAS_C;
use dfnet::link::{Degradation, Link, LinkClass};
use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::time::{SimDuration, SimTime};

/// Re-submissions of one rejected edge request while recovery is on.
pub const RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first retry; it doubles with each attempt. Sized
/// for sub-second edge deadlines: a retry that cannot fire before the
/// deadline is never scheduled.
pub const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(50);
/// Cap on the retry backoff.
pub const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_secs(2);
/// Failures of one worker within [`QUARANTINE_WINDOW`] that quarantine
/// it: a flapping board is pulled for bench diagnosis rather than
/// hot-swapped in place.
pub const QUARANTINE_THRESHOLD: usize = 3;
/// The sliding window over which failures count toward quarantine.
pub const QUARANTINE_WINDOW: SimDuration = SimDuration::DAY;
/// Added to a quarantined worker's repair time.
pub const QUARANTINE_EXTRA_DOWNTIME: SimDuration = SimDuration::from_hours(12);
/// Gas-boiler output per backfilled room at full thermostat demand, W
/// (§II-B's conventional-boiler complement, staged into the rooms of
/// failed workers so comfort holds while compute capacity is down).
pub const BACKFILL_POWER_W: f64 = 500.0;

/// Deterministic backoff before retry number `attempt` (1-based):
/// [`RETRY_BACKOFF_BASE`] `× 2^(attempt-1)`, capped at
/// [`RETRY_BACKOFF_MAX`].
pub fn retry_backoff(attempt: u32) -> SimDuration {
    assert!(attempt >= 1, "attempts are 1-based");
    let factor = 2f64.powi((attempt - 1).min(30) as i32);
    RETRY_BACKOFF_BASE.mul_f64(factor).min(RETRY_BACKOFF_MAX)
}

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
    /// Whether retries, quarantine and boiler backfill are on (they act
    /// only while the plan has an injector; see
    /// [`FaultPlan::active_recovery`]).
    pub recovery: bool,
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

/// The recovery switch in the wire layout of the settable policy it
/// replaced, so plan fingerprints, and with them older snapshots, stay
/// valid: the retry budget `(attempts, backoff base, backoff cap)`, the
/// quarantine `(threshold, window, extra downtime)` if any, and
/// `(backfill on, backfill power, sensor bias)`.
type RecoveryWire = (
    (u32, SimDuration, SimDuration),
    Option<(u32, SimDuration, SimDuration)>,
    (bool, f64, f64),
);

fn recovery_wire(recovery: bool) -> RecoveryWire {
    if recovery {
        (
            (RETRY_ATTEMPTS, RETRY_BACKOFF_BASE, RETRY_BACKOFF_MAX),
            Some((
                QUARANTINE_THRESHOLD as u32,
                QUARANTINE_WINDOW,
                QUARANTINE_EXTRA_DOWNTIME,
            )),
            (true, BACKFILL_POWER_W, SENSOR_BIAS_C),
        )
    } else {
        (
            (0, SimDuration::ZERO, SimDuration::ZERO),
            None,
            (false, 0.0, SENSOR_BIAS_C),
        )
    }
}

impl Snapshot for FaultPlan {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.worker_churn.encode(w);
        self.cluster_outages.encode(w);
        self.master_outages.encode(w);
        self.link_faults.encode(w);
        self.sensor_faults.encode(w);
        recovery_wire(self.recovery).encode(w);
    }

    /// Accepts exactly the two recovery layouts `recovery_wire`
    /// writes.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FaultPlan {
            worker_churn: Snapshot::decode(r)?,
            cluster_outages: Snapshot::decode(r)?,
            master_outages: Snapshot::decode(r)?,
            link_faults: Snapshot::decode(r)?,
            sensor_faults: Snapshot::decode(r)?,
            recovery: match RecoveryWire::decode(r)? {
                wire if wire == recovery_wire(true) => true,
                wire if wire == recovery_wire(false) => false,
                _ => {
                    return Err(SnapshotError::Corrupt(
                        "fault plan recovery is neither on nor off".into(),
                    ))
                }
            },
        })
    }
}

impl FaultPlan {
    /// The empty plan: no injectors, recovery off. A platform built
    /// with this is bit-identical to one without the fault layer.
    pub fn none() -> Self {
        FaultPlan {
            worker_churn: None,
            cluster_outages: Vec::new(),
            master_outages: Vec::new(),
            link_faults: Vec::new(),
            sensor_faults: Vec::new(),
            recovery: false,
        }
    }

    /// No injectors at all: nothing breaks, and recovery is moot.
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

    /// Turn recovery on: retries, quarantine and boiler backfill.
    pub fn with_recovery(mut self) -> Self {
        self.recovery = true;
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
    ///   empty its recovery never acted during the warm-up (see
    ///   [`FaultPlan::active_recovery`]), so the branch must keep
    ///   recovery off (its retries change rejection handling from the
    ///   first event);
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
            if self.recovery {
                return Err(
                    "branching from a fault-free warm-up cannot turn recovery on (its retries act from t = 0)"
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

    /// Whether recovery acts: it is on and the plan has an injector to
    /// recover from. An empty plan neither retries nor backfills.
    pub fn active_recovery(&self) -> bool {
        self.recovery && !self.is_empty()
    }

    /// Whether any master-outage window covers `now`.
    pub fn master_down(&self, now: SimTime) -> bool {
        self.master_outages.iter().any(|w| w.contains(now))
    }

    /// Whether `class` is fully partitioned at `now`.
    pub fn partitioned(&self, class: LinkClass, now: SimTime) -> bool {
        self.link_faults
            .iter()
            .any(|f| f.partition && f.link == class && f.window.contains(now))
    }

    /// `base` with every active degradation of `class` folded in
    /// (a partitioned link is the caller's concern — transfer times on
    /// a severed link are meaningless).
    pub fn effective_link(&self, class: LinkClass, now: SimTime, base: Link) -> Link {
        let mut link = base;
        for f in &self.link_faults {
            if f.link == class && f.window.contains(now) {
                link = link.degraded(f.degradation);
            }
        }
        link
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
        Ok(())
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
            .with_recovery();
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
    fn backoff_doubles_and_caps() {
        assert_eq!(retry_backoff(1), SimDuration::from_millis(50));
        assert_eq!(retry_backoff(2), SimDuration::from_millis(100));
        assert_eq!(retry_backoff(3), SimDuration::from_millis(200));
        // Far past the cap: 50 ms × 2^20 ≫ 2 s.
        assert_eq!(retry_backoff(21), SimDuration::from_secs(2));
    }

    #[test]
    fn plan_codec_reads_back_exactly_the_two_recovery_layouts() {
        let bytes = |p: &FaultPlan| {
            let mut w = SnapshotWriter::new();
            p.encode(&mut w);
            w.into_bytes()
        };
        let decode = |b: &[u8]| FaultPlan::decode(&mut SnapshotReader::new(b));
        let off = FaultPlan::none().with_master_outage(Window::from_hours(1, 2));
        let on = off.clone().with_recovery();
        for plan in [&off, &on] {
            assert_eq!(decode(&bytes(plan)).unwrap(), *plan);
        }
        // Recovery is the tail, led by its retry attempts: one more
        // attempt is neither layout.
        let mut b = bytes(&on);
        let mut w = SnapshotWriter::new();
        recovery_wire(true).encode(&mut w);
        let attempts = b.len() - w.into_bytes().len();
        b[attempts] += 1;
        assert!(decode(&b).is_err());
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::from_hours(2, 4);
        assert!(!w.contains(SimTime::ZERO + SimDuration::from_hours(1)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_hours(2)));
        assert!(w.contains(SimTime::ZERO + SimDuration::from_secs(4 * 3600 - 1)));
        assert!(!w.contains(SimTime::ZERO + SimDuration::from_hours(4)));
        assert_eq!(w.end - w.start, SimDuration::from_hours(2));
    }

    #[test]
    fn plan_reports_masters_partitions_and_degradations() {
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
        let t0 = SimTime::ZERO;
        let t90 = SimTime::ZERO + SimDuration::from_secs(90 * 60);
        assert!(!plan.master_down(t0));
        assert!(plan.master_down(t90));
        assert!(!plan.partitioned(LinkClass::Wan, t0));
        assert!(plan.partitioned(LinkClass::Wan, t90));
        assert!(
            !plan.partitioned(LinkClass::Fiber, t90),
            "degraded ≠ severed"
        );
        let base = Link::new(Protocol::Fiber);
        let eff = plan.effective_link(LinkClass::Fiber, t90, base);
        assert!(eff.transfer_time(1_000_000) > base.transfer_time(1_000_000));
        // Outside the window the link is pristine.
        let late = SimTime::ZERO + SimDuration::from_hours(5);
        let eff = plan.effective_link(LinkClass::Fiber, late, base);
        assert_eq!(
            eff.transfer_time(1_000_000).as_micros(),
            base.transfer_time(1_000_000).as_micros()
        );
    }
}
