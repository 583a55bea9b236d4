//! `df3-experiments report` — run a preset once with telemetry on and
//! emit all three export formats.
//!
//! ```text
//! df3-experiments report --preset district_winter --hours 24 --out runs/
//! df3-experiments report --preset small_winter --check
//! ```
//!
//! Writes `<out>/<preset>.report.jsonl`, `<out>/<preset>.trace.json`
//! (load it in Perfetto or `chrome://tracing`), and
//! `<out>/<preset>.prom`. `--check` additionally runs the format
//! validators and fails loudly if any document is malformed — the CI
//! telemetry leg runs in this mode.

use crate::cli::SubcommandArgs;
use df3_core::report::{ExportOptions, RunReport};
use df3_core::{Platform, PlatformConfig};
use simcore::report::Table;
use simcore::telemetry::export::json;
use simcore::time::SimDuration;
use simcore::RngStreams;
use std::time::Instant;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// Resolve a preset name to its config (telemetry not yet enabled).
pub fn preset_config(name: &str) -> Result<PlatformConfig, String> {
    match name {
        "small_winter" => Ok(PlatformConfig::small_winter()),
        "district_winter" => Ok(PlatformConfig::district_winter()),
        "small_winter_arch_b" => Ok(PlatformConfig::small_winter_arch_b(2)),
        other => Err(format!(
            "unknown preset {other} (want small_winter, district_winter, or small_winter_arch_b)"
        )),
    }
}

/// The preset's config over `hours` with telemetry on (so the flight
/// recorder has content to export and rides through snapshots). The
/// subcommand parser calls it to reject a bad preset or horizon.
pub(crate) fn warm_config(preset: &str, hours: i64) -> Result<PlatformConfig, String> {
    if hours <= 0 {
        return Err("--hours must be positive".into());
    }
    let mut cfg = preset_config(preset)?;
    cfg.horizon = SimDuration::from_hours(hours);
    cfg.telemetry.enabled = true;
    Ok(cfg)
}

/// The canonical job stream every subcommand runs: the map-serving
/// edge workload, derived from the preset seed. `resume` and `branch`
/// need it only to replay cold for `--check`: a snapshot carries the
/// arrivals not yet dispatched in its `arrivals` section.
pub(crate) fn canonical_jobs(cfg: &PlatformConfig) -> JobStream {
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    )
}

/// Run the preset with telemetry enabled and write the three documents.
/// Returns the rendered summary table.
pub fn run(args: &SubcommandArgs) -> Result<Table, String> {
    let cfg = warm_config(&args.preset, args.hours)?;
    let jobs = canonical_jobs(&cfg);
    let t0 = Instant::now();
    let out = Platform::new(cfg.clone()).run(&jobs);
    let run_wall_s = t0.elapsed().as_secs_f64();

    let report = RunReport::new(&args.preset, &cfg, &out);
    let jsonl = report.jsonl(&ExportOptions::full());
    let trace = report.chrome_trace_json();
    let prom = report.prometheus();

    if args.check {
        let n = json::validate_lines(&jsonl).map_err(|e| format!("JSONL report invalid: {e}"))?;
        if n == 0 {
            return Err("JSONL report is empty".into());
        }
        json::validate(&trace).map_err(|e| format!("Chrome trace invalid: {e}"))?;
        let b = trace.matches("\"ph\":\"B\"").count();
        let e = trace.matches("\"ph\":\"E\"").count();
        if b != e {
            return Err(format!("Chrome trace unbalanced: {b} B vs {e} E events"));
        }
        for line in prom
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let ok = line
                .rsplit_once(' ')
                .is_some_and(|(_, v)| v.parse::<f64>().is_ok());
            if !ok {
                return Err(format!("Prometheus sample unparseable: {line}"));
            }
        }
    }

    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out))?;
    let write = |suffix: &str, body: &str| -> Result<String, String> {
        let path = format!("{}/{}.{suffix}", args.out, args.preset);
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
        Ok(path)
    };
    let jsonl_path = write("report.jsonl", &jsonl)?;
    let trace_path = write("trace.json", &trace)?;
    let prom_path = write("prom", &prom)?;

    let mut table =
        Table::new(&format!("run report — {}", args.preset)).headers(&["artefact", "size", "note"]);
    table.row(&[
        jsonl_path,
        format!("{} B", jsonl.len()),
        format!("{} records", jsonl.lines().count()),
    ]);
    table.row(&[
        trace_path,
        format!("{} B", trace.len()),
        format!(
            "{} spans — open in Perfetto / chrome://tracing",
            trace.matches("\"ph\":\"B\"").count()
        ),
    ]);
    table.row(&[
        prom_path,
        format!("{} B", prom.len()),
        format!(
            "{} samples",
            prom.lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .count()
        ),
    ]);
    table.row(&[
        "run".into(),
        format!("{run_wall_s:.1} s"),
        format!(
            "{} events, recorder {} / dropped {}, warnings {}",
            out.events,
            out.telemetry.recorder.len(),
            out.telemetry.recorder.dropped(),
            report.warnings().len()
        ),
    ]);
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_subcommand_args;

    #[test]
    fn parses_full_flag_set() {
        let rest: Vec<String> = [
            "--preset",
            "small_winter",
            "--hours",
            "6",
            "--out",
            "/tmp/x",
            "--check",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_subcommand_args("report", &rest).unwrap();
        assert_eq!(a.preset, "small_winter");
        assert_eq!(a.hours, 6);
        assert_eq!(a.out, "/tmp/x");
        assert!(a.check);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_hours() {
        let parse = |xs: &[&str]| {
            let rest: Vec<String> = xs.iter().map(|s| s.to_string()).collect();
            parse_subcommand_args("report", &rest)
        };
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown report flag: --bogus"
        );
        assert!(parse(&["--hours", "0"]).is_err());
        assert!(parse(&["--preset"]).is_err());
        assert!(parse(&["--preset", "mars_colony"]).is_err());
        assert!(parse(&["-o", "/tmp/x"]).is_err(), "-o is snapshot's flag");
    }

    #[test]
    fn unknown_preset_is_an_error() {
        assert!(preset_config("mars_colony").is_err());
        assert!(preset_config("small_winter").is_ok());
    }

    #[test]
    fn small_preset_report_round_trips_with_check() {
        let dir = std::env::temp_dir().join("df3_report_test");
        let args = SubcommandArgs {
            preset: "small_winter".into(),
            hours: 2,
            out: dir.to_string_lossy().into_owned(),
            check: true,
            ..SubcommandArgs::default()
        };
        let table = run(&args).expect("report run failed");
        let rendered = table.render();
        assert!(rendered.contains("report.jsonl"));
        for suffix in ["report.jsonl", "trace.json", "prom"] {
            let path = dir.join(format!("small_winter.{suffix}"));
            let body = std::fs::read_to_string(&path).expect("artefact written");
            assert!(!body.is_empty(), "{path:?} empty");
        }
    }
}
