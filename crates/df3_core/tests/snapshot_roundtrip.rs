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
use simcore::snapshot::{
    fingerprint, Snapshot, SnapshotError, SnapshotFile, SnapshotWriter, VERSION,
};
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
        // The restored side never sees the job stream: the arrivals not
        // yet dispatched travel in the snapshot's `arrivals` section.
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
/// values must never be edited to make a refactor pass. A deliberate
/// format change regenerates only the sections it changes and says why:
/// version 3 moved arrivals out of the engine queue into their own
/// `arrivals` section, which changed `engine` and `platform` (the
/// platform holds event ids, which are queue slot numbers). Dropping the
/// always-empty `registry` section removed its entry and changed no
/// other.
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
            ("engine", 0x808b_50aa_5e1d_6ece),
            ("rng", 0x77b2_3878_df4e_2fb5),
            ("telemetry", 0x3971_0fdd_7ec0_790c),
            ("thermal", 0x28d7_13e3_6a60_5539),
            ("platform", 0x924e_5320_46ee_dff9),
            ("arrivals", 0x65be_ac6b_a73a_6c11),
        ])
    );
    assert_eq!(
        faulted,
        pinned([
            ("engine", 0x2668_d15e_ea2a_702f),
            ("rng", 0x77b2_3878_df4e_2fb5),
            ("telemetry", 0xf505_3b2b_8db7_4074),
            ("thermal", 0x41b1_13b4_f987_d8e4),
            ("platform", 0xb272_96e3_e271_1349),
            ("arrivals", 0x65be_ac6b_a73a_6c11),
        ])
    );
}

/// The config the checked-in v2 fixture was written under: the
/// `small_winter` preset, a 3 h horizon and telemetry on, as
/// `df3-experiments snapshot --preset small_winter --hours 3 --at 1h`
/// builds it.
fn fixture_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(3);
    cfg.telemetry.enabled = true;
    cfg
}

/// The checked-in version-2 snapshot.
const V2_FIXTURE: &[u8] = include_bytes!("fixtures/small_winter_v2.df3snap");

/// A v2 snapshot, written by the version that first pinned it, must
/// keep restoring and continue to the exact result it gave then. Its
/// arrivals are still in the decoded event queue, so it restores with
/// an empty arrival cursor. The pinned values must never be edited to
/// make a change pass.
#[test]
fn v2_fixture_restores_to_its_pinned_outcome() {
    let bytes = V2_FIXTURE;
    assert_eq!(SnapshotFile::from_bytes(bytes).unwrap().version(), 2);
    let cfg = fixture_config();
    let warm = Platform::restore(cfg.clone(), bytes)
        .expect("the v2 fixture restores")
        .resume();
    let (stats, jsonl, trace, prom) = observable(&cfg, &warm);
    assert_eq!(
        (fingerprint(&stats), warm.events),
        (0x80bf_9b0a_b564_e221, 5190)
    );

    // It also matches a cold run of the same config. The JSONL meta
    // line is left out: it carries the engine's peak queue depth,
    // which depends on how the run was started.
    let cold = Platform::new(cfg.clone()).run(&jobs(&cfg));
    let (cs, cj, ct, cp) = observable(&cfg, &cold);
    let body = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(warm.events, cold.events);
    assert!(stats == cs, "stats block diverged from a cold run");
    assert!(
        body(&jsonl) == body(&cj),
        "JSONL body diverged from a cold run"
    );
    assert!(trace == ct, "Chrome trace diverged from a cold run");
    assert!(prom == cp, "Prometheus snapshot diverged from a cold run");
}

/// The checked-in version-3 snapshot, written by the same command as
/// the v2 fixture. It still carries the `registry` section that later
/// writers dropped.
const V3_FIXTURE: &[u8] = include_bytes!("fixtures/small_winter_v3.df3snap");

/// A v3 snapshot, written by the version that first pinned it, must
/// keep restoring and continue to the exact result it gave then. Its
/// arrivals travel in its `arrivals` section, so unlike the v2 fixture
/// it matches a cold run on all three exports, JSONL meta line
/// included. The pinned values must never be edited to make a change
/// pass.
#[test]
fn v3_fixture_restores_to_its_pinned_outcome() {
    let bytes = V3_FIXTURE;
    let file = SnapshotFile::from_bytes(bytes).unwrap();
    assert_eq!(file.version(), 3);
    assert!(file.names().any(|name| name == "registry"));
    let cfg = fixture_config();
    let warm = Platform::restore(cfg.clone(), bytes)
        .expect("the v3 fixture restores")
        .resume();
    let (stats, jsonl, trace, prom) = observable(&cfg, &warm);
    assert_eq!(
        (fingerprint(&stats), warm.events),
        (0x80bf_9b0a_b564_e221, 5190)
    );

    let cold = Platform::new(cfg.clone()).run(&jobs(&cfg));
    let (cs, cj, ct, cp) = observable(&cfg, &cold);
    assert_eq!(warm.events, cold.events);
    assert!(stats == cs, "stats block diverged from a cold run");
    assert!(jsonl == cj, "JSONL report diverged from a cold run");
    assert!(trace == ct, "Chrome trace diverged from a cold run");
    assert!(prom == cp, "Prometheus snapshot diverged from a cold run");
}

/// `bytes` with its container version word replaced. The version has no
/// checksum of its own, and 3 → 2 is a single bit flip.
fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

/// A version word that disagrees with the sections is caught: a v2
/// header over a file with an `arrivals` section is corrupt, and a v3
/// header over a file without one misses it.
#[test]
fn version_word_must_match_the_arrivals_section() {
    let (cfg, v3) = shared_snapshot();
    assert_eq!(SnapshotFile::from_bytes(v3).unwrap().version(), VERSION);
    assert!(matches!(
        Platform::restore(cfg.clone(), &with_version(v3, VERSION - 1)),
        Err(SnapshotError::Corrupt(_))
    ));
    assert!(matches!(
        Platform::restore(fixture_config(), &with_version(V2_FIXTURE, VERSION)),
        Err(SnapshotError::MissingSection(name)) if name == "arrivals"
    ));
}
