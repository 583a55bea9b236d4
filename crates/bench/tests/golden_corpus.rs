//! Golden corpus: outputs a behaviour-preserving change must leave
//! byte-identical.
//!
//! Two parts. `df3-experiments --fast` must print exactly
//! `golden/fast.txt` (E1–E20 at CI scale, including every E20 chaos
//! mix), apart from its wall-clock `done in` line. And for each preset,
//! a 6 h run with telemetry on, driven by the same map-serving stream
//! as `df3-experiments report`, must give the pinned fingerprints of
//! its encoded stats and of its three deterministic exports.
//!
//! The values were generated once and must never be edited to make a
//! change pass. A change that alters them on purpose regenerates them
//! and says why.

use bench::run_report::preset_config;
use df3_core::report::{ExportOptions, RunReport};
use df3_core::Platform;
use simcore::snapshot::{fingerprint, Snapshot, SnapshotWriter};
use simcore::time::SimDuration;
use simcore::RngStreams;
use std::process::Command;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::Flow;

/// `--fast` stdout must match the checked-in transcript line for line.
#[test]
fn fast_experiments_match_the_golden_transcript() {
    let out = Command::new(env!("CARGO_BIN_EXE_df3-experiments"))
        .arg("--fast")
        .output()
        .expect("df3-experiments runs");
    assert!(out.status.success(), "df3-experiments --fast failed");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let got: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with("done in"))
        .collect();
    let golden = include_str!("golden/fast.txt");
    let want: Vec<&str> = golden.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "--fast output diverges at line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "--fast output line count changed");
}

/// Fingerprints of a preset's 6 h telemetry run: (stats, JSONL, Chrome
/// trace, Prometheus).
fn preset_fingerprints(preset: &str) -> [u64; 4] {
    let mut cfg = preset_config(preset).expect("known preset");
    cfg.horizon = SimDuration::from_hours(6);
    cfg.telemetry.enabled = true;
    let jobs = location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    );
    let out = Platform::new(cfg.clone()).run(&jobs);
    let mut w = SnapshotWriter::new();
    out.stats.encode(&mut w);
    let report = RunReport::new(preset, &cfg, &out);
    [
        fingerprint(&w.into_bytes()),
        fingerprint(report.jsonl(&ExportOptions::deterministic()).as_bytes()),
        fingerprint(report.chrome_trace_json().as_bytes()),
        fingerprint(report.prometheus().as_bytes()),
    ]
}

#[test]
fn preset_runs_match_their_pinned_fingerprints() {
    let pinned: [(&str, [u64; 4]); 3] = [
        (
            "small_winter",
            [
                0x0538_2817_18db_866c,
                0x16ef_ee52_ac00_3450,
                0x218d_055e_f6d2_ef2a,
                0x5c2e_f3f7_e5c5_e452,
            ],
        ),
        (
            "district_winter",
            [
                0xbb25_0db6_d80d_9208,
                0x5e3d_b74a_6e69_8a52,
                0xdda0_0a03_0055_817d,
                0x1290_8c46_45e4_147d,
            ],
        ),
        (
            "small_winter_arch_b",
            [
                0xc383_3e30_4926_3758,
                0x0b99_f842_8efc_fdb1,
                0x218d_055e_f6d2_ef2a,
                0x1db3_640c_82c2_c294,
            ],
        ),
    ];
    for (preset, want) in pinned {
        assert_eq!(
            preset_fingerprints(preset),
            want,
            "{preset}: [stats, JSONL, Chrome trace, Prometheus] fingerprints changed"
        );
    }
}
