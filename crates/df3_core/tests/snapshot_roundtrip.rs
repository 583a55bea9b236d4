//! Property tests for the checkpoint/restore golden guarantee.
//!
//! For random (platform shape, fault plan, snapshot time) triples:
//! running to the horizon must be **bit-identical** — on the full
//! snapshot-encoded stats block and on all three deterministic exports
//! — to pausing at the snapshot point, serialising, restoring into a
//! freshly built platform, and continuing. Separately, no truncation or
//! single-bit corruption of a snapshot may ever panic the decoder: it
//! must surface a typed [`SnapshotError`]. Finally, the per-section
//! fingerprints of two fixed snapshots are pinned, so a refactor of any
//! codec or platform layer must keep every byte it writes.

use df3_core::report::{ExportOptions, RunReport};
use df3_core::{
    FaultPlan, Platform, PlatformConfig, PlatformOutcome, RecoveryPolicy, RunTo, SensorFaultKind,
    Window,
};
use proptest::prelude::*;
use simcore::snapshot::{fingerprint, Snapshot, SnapshotFile, SnapshotWriter};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use std::sync::OnceLock;
use workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

const HORIZON_H: i64 = 5;

fn config(seed: u64, n_clusters: usize, plan: FaultPlan) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_winter();
    cfg.seed = seed;
    cfg.n_clusters = n_clusters;
    cfg.workers_per_cluster = 4;
    cfg.horizon = SimDuration::from_hours(HORIZON_H);
    cfg.telemetry.enabled = true;
    cfg.faults = plan;
    cfg
}

fn jobs(cfg: &PlatformConfig) -> JobStream {
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    )
}

/// The run's entire observable surface, byte for byte: the
/// snapshot-encoded stats block plus all three deterministic exports.
fn observable(cfg: &PlatformConfig, out: &PlatformOutcome) -> (Vec<u8>, String, String, String) {
    let mut w = SnapshotWriter::new();
    out.stats.encode(&mut w);
    let report = RunReport::new("prop", cfg, out);
    (
        w.into_bytes(),
        report.jsonl(&ExportOptions::deterministic()),
        report.chrome_trace_json(),
        report.prometheus(),
    )
}

fn snapshot_at(cfg: &PlatformConfig, js: &JobStream, at: SimDuration) -> Vec<u8> {
    match Platform::new(cfg.clone()).run_to(js, SimTime::ZERO + at) {
        RunTo::Paused(p) => p.snapshot_bytes(),
        RunTo::Finished(_) => panic!("snapshot point must precede the horizon"),
    }
}

proptest! {
    /// The golden guarantee under a random non-empty fault plan.
    #[test]
    fn restored_continuation_is_bit_identical(
        seed in 0u64..1_000_000,
        n_clusters in 1usize..4,
        snap_frac in 0.2f64..0.8,
        mtbf_h in 2i64..9,
        outage_start_h in 1i64..3,
        outage_len_h in 1i64..3,
    ) {
        let plan = FaultPlan::none()
            .with_churn(SimDuration::from_hours(mtbf_h), SimDuration::from_secs(1_800))
            .with_cluster_outage(
                0,
                Window::new(
                    SimDuration::from_hours(outage_start_h),
                    SimDuration::from_hours(outage_start_h + outage_len_h),
                ),
            )
            .with_recovery(RecoveryPolicy::standard());
        prop_assert!(!plan.is_empty(), "the guarantee must hold under active faults");
        let cfg = config(seed, n_clusters, plan);
        let js = jobs(&cfg);
        let at = SimDuration::from_secs_f64(snap_frac * cfg.horizon.as_secs_f64());

        let cold = Platform::new(cfg.clone()).run(&js);
        let bytes = snapshot_at(&cfg, &js, at);
        // The restored side never sees the job stream: arrivals live in
        // the snapshotted event queue.
        let warm = Platform::restore(cfg.clone(), &bytes)
            .expect("own snapshot must restore")
            .resume();

        prop_assert_eq!(cold.events, warm.events);
        let (cs, cj, ct, cp) = observable(&cfg, &cold);
        let (ws, wj, wt, wp) = observable(&cfg, &warm);
        prop_assert!(cs == ws, "stats block diverged");
        prop_assert!(cj == wj, "JSONL report diverged");
        prop_assert!(ct == wt, "Chrome trace diverged");
        prop_assert!(cp == wp, "Prometheus snapshot diverged");
    }
}

/// One snapshot, built once and shared by the corruption properties.
fn shared_snapshot() -> &'static (PlatformConfig, Vec<u8>) {
    static SNAP: OnceLock<(PlatformConfig, Vec<u8>)> = OnceLock::new();
    SNAP.get_or_init(|| {
        let plan = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let cfg = config(0xDF3, 2, plan);
        let js = jobs(&cfg);
        let bytes = snapshot_at(&cfg, &js, SimDuration::from_hours(2));
        (cfg, bytes)
    })
}

proptest! {
    /// Any prefix of a snapshot is a decode error, never a panic.
    #[test]
    fn truncated_snapshots_error_never_panic(cut_frac in 0.0f64..1.0) {
        let (cfg, bytes) = shared_snapshot();
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(
            Platform::restore(cfg.clone(), &bytes[..cut]).is_err(),
            "truncation at {} of {} bytes must error", cut, bytes.len()
        );
    }

    /// Any single bit flip is caught by the per-section checksums (or
    /// the structural validation behind them) — error, never panic.
    #[test]
    fn corrupted_snapshots_error_never_panic(
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let (cfg, bytes) = shared_snapshot();
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut bad = bytes.clone();
        bad[pos] ^= 1u8 << bit;
        prop_assert!(
            Platform::restore(cfg.clone(), &bad).is_err(),
            "bit {} flipped at byte {} must error", bit, pos
        );
    }
}

/// FNV-1a fingerprint of every section payload except `meta`, in
/// container order. `meta` holds the config fingerprint, which changes
/// whenever a config field does, so it is left out on purpose.
fn section_fingerprints(bytes: &[u8]) -> Vec<(String, u64)> {
    let file = SnapshotFile::from_bytes(bytes).expect("own snapshot parses");
    file.names()
        .filter(|&name| name != "meta")
        .map(|name| {
            let mut r = file.section(name).unwrap();
            let payload = r.take_bytes(r.remaining()).unwrap();
            (name.to_string(), fingerprint(payload))
        })
        .collect()
}

/// Golden corpus: the exact bytes of two `small_winter` snapshots (6 h
/// horizon, paused at 3 h, edge plus finance and BOINC load), one
/// fault-free with telemetry off and one with telemetry on under a plan
/// that exercises every fault path the snapshot carries. The pinned
/// values must never be edited to make a refactor pass.
#[test]
fn golden_section_fingerprints_are_pinned() {
    let sections = |plan: FaultPlan, telemetry: bool| {
        let mut cfg = PlatformConfig::small_winter();
        cfg.horizon = SimDuration::from_hours(6);
        cfg.telemetry.enabled = telemetry;
        cfg.faults = plan;
        let streams = RngStreams::new(cfg.seed);
        let js = jobs(&cfg)
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
            ));
        section_fingerprints(&snapshot_at(&cfg, &js, SimDuration::from_hours(3)))
    };
    let pinned = |expected: [(&str, u64); 6]| {
        expected
            .iter()
            .map(|&(n, f)| (n.to_string(), f))
            .collect::<Vec<_>>()
    };

    let quiet = sections(FaultPlan::none(), false);
    let faulted = sections(
        FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_cluster_outage(1, Window::from_hours(1, 2))
            .with_master_outage(Window::from_hours(2, 4))
            .with_sensor_fault(2, None, Window::from_hours(1, 4), SensorFaultKind::Dropout)
            .with_recovery(RecoveryPolicy::standard()),
        true,
    );
    assert_eq!(
        quiet,
        pinned([
            ("engine", 0xb8d9_69d7_6c2b_dc54),
            ("rng", 0x77b2_3878_df4e_2fb5),
            ("registry", 0x22c6_4032_281a_39c5),
            ("telemetry", 0x3971_0fdd_7ec0_790c),
            ("thermal", 0x28d7_13e3_6a60_5539),
            ("platform", 0x20a9_d3c3_1a93_fc45),
        ])
    );
    assert_eq!(
        faulted,
        pinned([
            ("engine", 0xbba4_3045_18c8_9b5b),
            ("rng", 0x77b2_3878_df4e_2fb5),
            ("registry", 0x22c6_4032_281a_39c5),
            ("telemetry", 0xf505_3b2b_8db7_4074),
            ("thermal", 0x41b1_13b4_f987_d8e4),
            ("platform", 0x3740_d29a_d563_0ed6),
        ])
    );
}
