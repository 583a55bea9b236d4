//! Exact work counters of the two golden snapshot configs (the ones
//! `snapshot_roundtrip.rs` pins section by section): the engine's peak
//! queue depth and event count over a full 6 h run, the byte length of
//! the snapshot taken at 3 h, and the heap allocations of the set-up
//! and of the run.
//!
//! Wall time on a shared host is too noisy to gate; these counters are
//! exact. The peak queue depth is the one that matters most: arrivals
//! stream into the engine from the job stream, so the queue holds only
//! the work in flight. Scheduling the stream into the queue again would
//! lift it to the number of jobs (and the snapshot with it), and fail
//! here. The allocation pin guards the hot path (events, placement,
//! control ticks): one allocation per event or per tick would add
//! thousands to the run's count; the set-up pin guards what building
//! the fleet costs per cluster. The phase-count pin guards where the
//! profiler's phases open and close: perfbench's placement decisions
//! and control-tick counts are read from these counts.

use df3_core::{FaultPlan, Platform, PlatformConfig, RunTo, SensorFaultKind, Window};
use simcore::telemetry::Phase;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// The system allocator, counting each thread's allocations so one test
/// can measure its own calls while the others run on their threads.
struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested on this thread so far.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Count one allocation or reallocation of `bytes`. `try_with` because
/// the allocator also runs while a thread's locals are torn down.
fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A 6 h `small_winter` config under `plan`.
fn config(plan: FaultPlan, telemetry: bool) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(6);
    cfg.telemetry.enabled = telemetry;
    cfg.faults = plan;
    cfg
}

/// Edge, BOINC and finance load at the preset rates, from the seed.
fn jobs(cfg: &PlatformConfig) -> JobStream {
    let streams = RngStreams::new(cfg.seed);
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    )
    .merge(boinc_jobs(
        BoincConfig::standard(),
        cfg.horizon,
        &streams,
        1 << 32,
    ))
    .merge(finance_jobs(
        FinanceConfig::bank(),
        cfg.horizon,
        &streams,
        2 << 32,
    ))
}

/// `(jobs, peak_queue, events, snapshot bytes at 3 h)` for `cfg`.
fn counters(cfg: PlatformConfig) -> (usize, usize, u64, usize) {
    let js = jobs(&cfg);
    let out = Platform::new(cfg.clone()).run(&js);
    let snapshot = match Platform::new(cfg).run_to(&js, SimTime::ZERO + SimDuration::from_hours(3))
    {
        RunTo::Paused(p) => p.snapshot_bytes(),
        RunTo::Finished(_) => panic!("3 h precedes the 6 h horizon"),
    };
    (js.len(), out.peak_queue, out.events, snapshot.len())
}

/// `(allocations, bytes)` requested by `Platform::run` alone: the
/// platform and the job stream are built before counting starts.
fn run_allocations(cfg: PlatformConfig) -> (u64, u64) {
    let js = jobs(&cfg);
    let platform = Platform::new(cfg);
    let before = ALLOCATED.with(Cell::get);
    let out = platform.run(&js);
    let after = ALLOCATED.with(Cell::get);
    drop(out);
    (after.0 - before.0, after.1 - before.1)
}

/// `(allocations, bytes)` requested by `Platform::new` alone: the
/// fleet, its rooms, regulators and queues, before any event runs.
fn setup_allocations(cfg: PlatformConfig) -> (u64, u64) {
    let before = ALLOCATED.with(Cell::get);
    let platform = Platform::new(cfg);
    let after = ALLOCATED.with(Cell::get);
    drop(platform);
    (after.0 - before.0, after.1 - before.1)
}

fn quiet() -> PlatformConfig {
    config(FaultPlan::none(), false)
}

fn faulted() -> PlatformConfig {
    config(
        FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_cluster_outage(1, Window::from_hours(1, 2))
            .with_master_outage(Window::from_hours(2, 4))
            .with_sensor_fault(2, None, Window::from_hours(1, 4), SensorFaultKind::Dropout)
            .with_recovery(),
        true,
    )
}

#[test]
fn work_counters_are_pinned() {
    assert_eq!(counters(quiet()), (5920, 146, 11770, 133_188));
    assert_eq!(counters(faulted()), (5920, 188, 13631, 381_683));
}

#[test]
fn run_allocations_are_pinned() {
    assert_eq!(run_allocations(quiet()), (142, 126_336));
    assert_eq!(run_allocations(faulted()), (330, 221_168));
}

#[test]
fn setup_allocations_are_pinned() {
    assert_eq!(setup_allocations(quiet()), (127, 89_530));
    assert_eq!(setup_allocations(faulted()), (129, 1_662_395));
}

/// How many intervals each profiler phase recorded over a full run of
/// `cfg`, in `Phase::ALL` order. Only the wall-clock totals vary from
/// run to run; the counts are exact.
fn phase_counts(cfg: PlatformConfig) -> Vec<u64> {
    let js = jobs(&cfg);
    let out = Platform::new(cfg).run(&js);
    Phase::ALL
        .iter()
        .map(|&p| out.telemetry.profiler.acc(p).count)
        .collect()
}

#[test]
fn phase_counts_are_pinned() {
    assert_eq!(
        phase_counts(config(FaultPlan::none(), true)),
        [184, 184, 36, 36, 36, 36, 0]
    );
    assert_eq!(phase_counts(faulted()), [213, 213, 36, 36, 36, 183, 10]);
}
