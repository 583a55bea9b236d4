//! Property tests for the checkpoint/restore golden guarantee.
//!
//! For random (platform shape, fault plan, snapshot time) triples:
//! running to the horizon must be **bit-identical** — on the full
//! snapshot-encoded stats block and on all three deterministic exports
//! — to pausing at the snapshot point, serialising, restoring into a
//! freshly built platform, and continuing. Separately, no truncation or
//! single-bit corruption of a snapshot may ever panic the decoder: it
//! must surface a typed [`SnapshotError`], and a bit flipped behind a
//! recomputed CRC must be refused or run to the horizon with both job
//! ledgers closed. Finally, the per-section fingerprints of two fixed
//! snapshots are pinned, so a refactor of any codec or platform layer
//! must keep every byte it writes.

use df3_core::report::{ExportOptions, RunReport};
use df3_core::{
    FaultPlan, Platform, PlatformConfig, PlatformOutcome, RunTo, SensorFaultKind, Window,
};
use proptest::prelude::*;
use sched::PeakPolicy;
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
            .with_recovery();
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
            .with_recovery();
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

/// The snapshot the resealed-CRC fuzz flips bits in: two two-worker
/// buildings and a datacenter under edge and finance load, 65 min long,
/// with worker churn, a building outage and a master outage in
/// progress at the pause. It pauses 10 ms after an edge request the
/// master outage turned away, so the queue holds every kind of pending
/// event: local and datacenter finishes, a failure, a retry, the
/// building's restoration and the control tick. Small, so that
/// thousands of restores stay quick in a debug build.
fn fuzz_snapshot() -> &'static (PlatformConfig, Vec<u8>) {
    static SNAP: OnceLock<(PlatformConfig, Vec<u8>)> = OnceLock::new();
    SNAP.get_or_init(|| {
        let minutes = |m: i64| SimDuration::from_secs(60 * m);
        let plan = FaultPlan::none()
            .with_churn(minutes(25), minutes(5))
            .with_cluster_outage(0, Window::new(minutes(40), minutes(63)))
            .with_master_outage(Window::new(minutes(50), minutes(64)))
            .with_recovery();
        let mut cfg = config(0xF022, 2, plan);
        cfg.workers_per_cluster = 2;
        cfg.datacenter_cores = 64;
        cfg.setpoint_c = 24.0;
        cfg.peak_policy = PeakPolicy::VerticalFirst;
        cfg.horizon = minutes(65);
        let streams = RngStreams::new(cfg.seed);
        let mut edge = LocationServiceConfig::traffic_estimation(Flow::EdgeIndirect);
        edge.peak_rate_per_s = 1.0;
        let mut finance = FinanceConfig::bank();
        finance.batches_per_day = 400.0;
        finance.mean_work_gops = 20_000.0;
        finance.cores = 32;
        let js = location_service_jobs(edge, cfg.horizon, &streams, 0).merge(finance_jobs(
            finance,
            cfg.horizon,
            &streams,
            1 << 32,
        ));
        let rejected = js
            .iter()
            .find(|j| j.is_edge() && j.arrival >= SimTime::ZERO + minutes(60))
            .expect("an edge request during the master outage");
        let at = rejected.arrival.saturating_since(SimTime::ZERO) + SimDuration::from_millis(10);
        let bytes = snapshot_at(&cfg, &js, at);
        (cfg, bytes)
    })
}

/// `bytes` with bit `bit` of section `name`'s payload flipped and that
/// section's CRC-32 recomputed, so the flip gets past the container and
/// reaches the section's decoder.
fn resealed(bytes: &[u8], name: &str, bit: usize) -> Vec<u8> {
    let file = SnapshotFile::from_bytes(bytes).expect("own snapshot parses");
    let mut out = SnapshotFile::new();
    for n in file.names() {
        let mut r = file.section(n).unwrap();
        let mut payload = r.take_bytes(r.remaining()).unwrap().to_vec();
        if n == name {
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        let mut w = SnapshotWriter::new();
        w.put_bytes(&payload);
        out.add(n, w);
    }
    out.to_bytes()
}

/// Restore `bytes` and resume the run. Either restore refuses them, or
/// the run reaches the config's horizon with both job ledgers closed.
/// Returns what went wrong otherwise, a panic included.
fn restore_or_finish(cfg: &PlatformConfig, bytes: &[u8]) -> Option<String> {
    let run =
        std::panic::catch_unwind(|| Platform::restore(cfg.clone(), bytes).map(|p| p.resume()));
    let out = match run {
        Err(_) => return Some("panicked".into()),
        Ok(Err(_)) => return None,
        Ok(Ok(out)) => out,
    };
    let s = &out.stats;
    if out.end != SimTime::ZERO + cfg.horizon {
        return Some(format!("ended at {} before the horizon", out.end));
    }
    let edge = s.edge_arrived.get() == s.edge_terminal() + s.edge_in_flight_end;
    let dcc =
        s.dcc_arrived.get() == s.dcc_completed.get() + s.dcc_rejected.get() + s.dcc_in_flight_end;
    (!(edge && dcc)).then(|| "a job ledger is open".into())
}

/// The payload length of section `name` in `bytes`.
fn section_len(bytes: &[u8], name: &str) -> usize {
    SnapshotFile::from_bytes(bytes)
        .unwrap()
        .section(name)
        .unwrap()
        .remaining()
}

/// A bit flip that gets past the CRC, because the CRC was recomputed,
/// must still be refused by the decoders or the checks behind them, or
/// else resume to the horizon with both ledgers closed. Never a panic
/// or a runaway. Every bit of the small sections (`meta`, `engine`,
/// `rng`) is flipped, and 256 seeded bits each of the others.
#[test]
fn resealed_bit_flips_are_refused_or_run_to_the_horizon() {
    let (cfg, bytes) = fuzz_snapshot();
    assert!(
        Platform::restore(cfg.clone(), bytes).is_ok() && restore_or_finish(cfg, bytes).is_none(),
        "the unflipped snapshot restores and runs"
    );
    let mut rng = proptest::TestRng::deterministic("resealed bit flips");
    let mut failures = Vec::new();
    let mut flips = 0;
    for name in [
        "meta",
        "engine",
        "rng",
        "thermal",
        "arrivals",
        "platform",
        "telemetry",
    ] {
        let bits = 8 * section_len(bytes, name);
        let picks: Vec<usize> = if matches!(name, "meta" | "engine" | "rng") {
            (0..bits).collect()
        } else {
            (0..256)
                .map(|_| (rng.next_u64() % bits as u64) as usize)
                .collect()
        };
        for bit in picks {
            flips += 1;
            if let Some(why) = restore_or_finish(cfg, &resealed(bytes, name, bit)) {
                failures.push(format!("{name} bit {bit}: {why}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {flips} resealed flips failed: {:#?}",
        failures.len(),
        &failures[..failures.len().min(20)]
    );
}

/// Restore `bytes` with bit `bit` of the fuzz snapshot's `platform`
/// section flipped behind a recomputed CRC, and require a refusal. The
/// section length is pinned, so a change to the fuzz snapshot, which
/// moves every field, fails here first instead of flipping some other
/// field.
fn assert_platform_flip_is_refused(bit: usize) {
    let (cfg, bytes) = fuzz_snapshot();
    assert_eq!(
        section_len(bytes, "platform"),
        26_467,
        "the fuzz snapshot changed: find this site's bit again"
    );
    let restored = Platform::restore(cfg.clone(), &resealed(bytes, "platform", bit));
    assert!(
        matches!(restored, Err(SnapshotError::Corrupt(_))),
        "platform bit {bit} must be refused as corrupt"
    );
}

/// An unpowered worker given usable cores: dispatch picked it and then
/// hit `expect("free_cores checked")` in `ClusterSim::try_dispatch`.
/// The flip sets bit 0 of the worker's `usable_cores`.
#[test]
fn an_unpowered_worker_with_usable_cores_is_refused() {
    assert_platform_flip_is_refused(204_344);
}

/// A decision level past the 7-level DVFS ladder (6 → 7): the next
/// dispatch indexed the ladder out of bounds in `DvfsLadder`.
#[test]
fn a_decision_level_past_the_dvfs_ladder_is_refused() {
    assert_platform_flip_is_refused(206_120);
}

/// A time far before the run starts: the sign bit of a worker's last
/// tick, of a failed worker's down-since time and of a flap-history
/// failure time. Debug builds overflowed in `SimTime::saturating_since`
/// when the run next measured an interval from it.
#[test]
fn times_before_the_run_are_refused() {
    for bit in [204_791, 209_983, 211_391] {
        assert_platform_flip_is_refused(bit);
    }
}

/// The retired energy-sample word, zero in every snapshot, set to 1 µs
/// (bit 0 of byte 26,323).
#[test]
fn a_nonzero_retired_energy_word_is_refused() {
    assert_platform_flip_is_refused(210_584);
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

/// The golden corpus's run: `small_winter` for 6 h with map-serving
/// edge, BOINC and finance load.
fn golden_run(plan: FaultPlan, telemetry: bool) -> (PlatformConfig, JobStream) {
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
    (cfg, js)
}

/// The golden corpus's fault plan, which exercises every fault path
/// the snapshot carries.
fn golden_faults() -> FaultPlan {
    FaultPlan::none()
        .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
        .with_cluster_outage(1, Window::from_hours(1, 2))
        .with_master_outage(Window::from_hours(2, 4))
        .with_sensor_fault(2, None, Window::from_hours(1, 4), SensorFaultKind::Dropout)
        .with_recovery()
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
/// other. Version 5 wrote `arrivals` as columns and dropped the horizon
/// and the stop flag from `engine`, which changed those two. A running
/// slice now keeps its job as submitted, with the molded width in the
/// slice alone, which changed `platform`: both snapshots hold finance
/// batches molded from 32 cores to a 16-core board.
#[test]
fn golden_section_fingerprints_are_pinned() {
    let sections = |plan: FaultPlan, telemetry: bool| {
        let (cfg, js) = golden_run(plan, telemetry);
        section_fingerprints(&snapshot_at(&cfg, &js, SimDuration::from_hours(3)))
    };
    let pinned = |expected: [(&str, u64); 6]| {
        expected
            .iter()
            .map(|&(n, f)| (n.to_string(), f))
            .collect::<Vec<_>>()
    };

    let quiet = sections(FaultPlan::none(), false);
    let faulted = sections(golden_faults(), true);
    assert_eq!(
        quiet,
        pinned([
            ("engine", 0x2c9f_c6e4_80fe_adfb),
            ("rng", 0x77b2_3878_df4e_2fb5),
            ("telemetry", 0x3971_0fdd_7ec0_790c),
            ("thermal", 0x28d7_13e3_6a60_5539),
            ("platform", 0x6dbc_43d4_e5ac_6aae),
            ("arrivals", 0xe607_a9be_e027_ee04),
        ])
    );
    assert_eq!(
        faulted,
        pinned([
            ("engine", 0x030d_0e44_b346_eb9e),
            ("rng", 0x77b2_3878_df4e_2fb5),
            ("telemetry", 0xf505_3b2b_8db7_4074),
            ("thermal", 0x41b1_13b4_f987_d8e4),
            ("platform", 0x96cc_ca0b_9bd4_76a1),
            ("arrivals", 0xe607_a9be_e027_ee04),
        ])
    );
}

/// The `meta` sections of the two golden snapshots, which
/// [`section_fingerprints`] leaves out. `meta` fingerprints the config,
/// fault plan included, so this pins the plan's encoding with recovery
/// both off (quiet) and on (faulted); the v4 and v5 fixtures cover only
/// the first.
#[test]
fn golden_meta_fingerprints_are_pinned() {
    let meta = |plan: FaultPlan, telemetry: bool| {
        let (cfg, js) = golden_run(plan, telemetry);
        let bytes = snapshot_at(&cfg, &js, SimDuration::from_hours(3));
        let file = SnapshotFile::from_bytes(&bytes).expect("own snapshot parses");
        let mut r = file.section("meta").unwrap();
        fingerprint(r.take_bytes(r.remaining()).unwrap())
    };
    assert_eq!(meta(FaultPlan::none(), false), 0x2297_1c71_27f8_906b);
    assert_eq!(meta(golden_faults(), true), 0xb976_11d7_a735_62ad);
}

/// Both golden snapshots restore and resume to their cold runs' stats
/// and exports. Each holds a finance batch molded to fewer cores than
/// it asked for, whose finish event carries the job as submitted.
#[test]
fn golden_snapshots_resume_to_their_cold_runs() {
    for (plan, telemetry) in [(FaultPlan::none(), false), (golden_faults(), true)] {
        let (cfg, js) = golden_run(plan, telemetry);
        let cold = Platform::new(cfg.clone()).run(&js);
        let bytes = snapshot_at(&cfg, &js, SimDuration::from_hours(3));
        let warm = Platform::restore(cfg.clone(), &bytes)
            .expect("golden snapshot restores")
            .resume();
        assert_eq!(cold.events, warm.events);
        assert!(
            observable(&cfg, &cold) == observable(&cfg, &warm),
            "resumed run diverged (telemetry {telemetry})"
        );
    }
}

/// Pausing at every whole hour of a run with molded DCC slices gives a
/// snapshot restore accepts. The mix is `perfbench`'s `mixed_flows`:
/// map-serving edge plus BOINC and finance at ten times their rates,
/// and every finance batch asks for more cores than a board has.
#[test]
fn a_dcc_pause_sweep_restores_every_pause() {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(12);
    let streams = RngStreams::new(cfg.seed);
    let mut boinc = BoincConfig::standard();
    boinc.tasks_per_hour *= 10.0;
    let mut finance = FinanceConfig::bank();
    finance.batches_per_day *= 10.0;
    assert!(finance.cores > 16, "finance batches must be molded");
    let js = jobs(&cfg)
        .merge(boinc_jobs(boinc, cfg.horizon, &streams, 1 << 32))
        .merge(finance_jobs(finance, cfg.horizon, &streams, 2 << 32));
    let refused: Vec<String> = (1..12)
        .filter_map(|h| {
            let bytes = snapshot_at(&cfg, &js, SimDuration::from_hours(h));
            Platform::restore(cfg.clone(), &bytes)
                .err()
                .map(|e| format!("{h} h: {e}"))
        })
        .collect();
    assert!(refused.is_empty(), "refused pauses: {refused:#?}");
}

/// A snapshot of map-serving edge at 8× and BOINC at 10× under
/// `PreemptFirst`, paused at 2 h while DCC slices run.
fn speed_snapshot() -> (PlatformConfig, Vec<u8>) {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(6);
    cfg.peak_policy = PeakPolicy::PreemptFirst;
    let streams = RngStreams::new(cfg.seed);
    let mut edge = LocationServiceConfig::map_serving(Flow::EdgeIndirect);
    edge.peak_rate_per_s *= 8.0;
    let mut boinc = BoincConfig::standard();
    boinc.tasks_per_hour *= 10.0;
    let js = location_service_jobs(edge, cfg.horizon, &streams, 0).merge(boinc_jobs(
        boinc,
        cfg.horizon,
        &streams,
        1 << 32,
    ));
    let bytes = snapshot_at(&cfg, &js, SimDuration::from_hours(2));
    (cfg, bytes)
}

/// A running slice whose speed is not its DVFS level's: dispatch only
/// ever writes `ladder.throughput(level)` there. The flip sets the sign
/// bit of the first slice's speed (byte 25,511 of `platform` starts
/// it); a NaN speed there used to restore and panic the next
/// preemption.
#[test]
fn a_slice_speed_off_its_dvfs_level_is_refused() {
    let (cfg, bytes) = speed_snapshot();
    assert_eq!(
        section_len(&bytes, "platform"),
        176_722,
        "the speed snapshot changed: find the slice's speed again"
    );
    assert!(Platform::restore(cfg.clone(), &bytes).is_ok());
    let restored = Platform::restore(cfg, &resealed(&bytes, "platform", 204_151));
    assert!(
        matches!(restored, Err(SnapshotError::Corrupt(_))),
        "a negative slice speed must be refused as corrupt"
    );
}

/// The config the checked-in fixtures were written under: the
/// `small_winter` preset, a 3 h horizon and telemetry on, as
/// `df3-experiments snapshot --preset small_winter --hours 3 --at 1h`
/// builds it.
fn fixture_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = SimDuration::from_hours(3);
    cfg.telemetry.enabled = true;
    cfg
}

/// The checked-in version-4 snapshot. Its `meta` fingerprints hash
/// explicit encodings of the config and plan, so any drift in those
/// encodings fails this fixture's restore. Its `arrivals` section is a
/// `Vec<Job>` and its `engine` section carries a copy of the horizon.
const V4_FIXTURE: &[u8] = include_bytes!("fixtures/small_winter_v4.df3snap");

/// A v4 snapshot continues to the outcome first pinned for the v3
/// fixture and matches a cold run on all three exports. The pinned
/// values must never be edited to make a change pass.
#[test]
fn v4_fixture_restores_to_its_pinned_outcome() {
    let bytes = V4_FIXTURE;
    assert_eq!(SnapshotFile::from_bytes(bytes).unwrap().version(), 4);
    let cfg = fixture_config();
    let warm = Platform::restore(cfg.clone(), bytes)
        .expect("the v4 fixture restores")
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

/// The checked-in version-5 snapshot, written by the same command as
/// the v4 fixture: columnar `arrivals`, and no horizon in `engine`.
const V5_FIXTURE: &[u8] = include_bytes!("fixtures/small_winter_v5.df3snap");

/// A v5 snapshot continues to the same pinned outcome as the v4
/// fixture and matches a cold run on all three exports. The pinned
/// values must never be edited to make a change pass.
#[test]
fn v5_fixture_restores_to_its_pinned_outcome() {
    let bytes = V5_FIXTURE;
    assert_eq!(SnapshotFile::from_bytes(bytes).unwrap().version(), 5);
    let cfg = fixture_config();
    let warm = Platform::restore(cfg.clone(), bytes)
        .expect("the v5 fixture restores")
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

/// The fixtures refuse a config that differs in one field, and one
/// whose horizon differs: the horizon of a run comes from its config
/// alone, and a v4 `engine` section's copy of it must agree.
#[test]
fn fixtures_refuse_a_different_config() {
    for fixture in [V4_FIXTURE, V5_FIXTURE] {
        let mut cfg = fixture_config();
        cfg.setpoint_c += 1.0;
        assert!(matches!(
            Platform::restore(cfg, fixture),
            Err(SnapshotError::Corrupt(why)) if why.contains("platform config")
        ));
    }
}

/// `bytes` with its container version word replaced. The version has no
/// checksum of its own.
fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

/// A version word that disagrees with the file is caught: versions 4
/// and 5 lay out `engine` and `arrivals` differently, so a v4 word over
/// a v5 file and a v5 word over the v4 fixture both fail to decode.
#[test]
fn version_word_must_match_the_sections() {
    let (cfg, v5) = shared_snapshot();
    assert_eq!(SnapshotFile::from_bytes(v5).unwrap().version(), VERSION);
    assert!(matches!(
        Platform::restore(cfg.clone(), &with_version(v5, VERSION - 1)),
        Err(SnapshotError::Corrupt(_) | SnapshotError::Truncated)
    ));
    assert!(matches!(
        Platform::restore(fixture_config(), &with_version(V4_FIXTURE, VERSION)),
        Err(SnapshotError::Corrupt(_) | SnapshotError::Truncated)
    ));
}
