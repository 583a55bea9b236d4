//! Run reporting: one platform run → three export formats.
//!
//! A [`RunReport`] borrows a finished [`PlatformOutcome`] (stats,
//! flight recorder, phase profiler) together with its config and
//! renders:
//!
//! - **JSONL** ([`RunReport::jsonl`]): one self-describing JSON object
//!   per line (`record` field tells the kind — meta, counter, gauge,
//!   watchdog, phase, fault, warning, telemetry) with stable key
//!   order, so identical runs yield byte-identical documents.
//! - **Chrome trace JSON** ([`RunReport::chrome_trace_json`]): the
//!   flight recorder as a Perfetto/`chrome://tracing` timeline —
//!   clusters render as processes, workers as threads, jobs as spans.
//! - **Prometheus text** ([`RunReport::prometheus`]): a
//!   text-exposition snapshot of [`PlatformStats`] counters, gauges,
//!   and histograms.
//!
//! Chrome and Prometheus documents carry sim-time data only; the JSONL
//! report adds wall-clock phase rows unless
//! [`ExportOptions::deterministic`] is used — the byte-identity
//! property tests run on the deterministic set.

use crate::config::{ArchClass, PlatformConfig};
use crate::platform::PlatformOutcome;
use crate::stats::PlatformStats;
use simcore::telemetry::export::{chrome_trace, jnum, jstr, PromText};
use simcore::telemetry::RING_CAPACITY;

/// What goes into the JSONL run report.
#[derive(Debug, Clone, Copy)]
pub struct ExportOptions {
    /// Include wall-clock phase-profiler rows. Wall clock differs
    /// between identical runs, so the byte-identity tests exclude it.
    pub include_wall_clock: bool,
}

impl ExportOptions {
    /// Everything, including wall-clock phase rows.
    pub fn full() -> Self {
        ExportOptions {
            include_wall_clock: true,
        }
    }

    /// Sim-time content only: identical seeds → byte-identical output.
    pub fn deterministic() -> Self {
        ExportOptions {
            include_wall_clock: false,
        }
    }
}

/// The invariant watchdogs and their flight-recorder tag names.
pub const WATCHDOGS: [(&str, &str); 3] = [
    ("temp_band", "watchdog.temp_band"),
    ("queue_depth", "watchdog.queue_depth"),
    ("ledger_drift", "watchdog.ledger_drift"),
];

/// A finished run plus its config, ready to export.
pub struct RunReport<'a> {
    pub label: &'a str,
    pub config: &'a PlatformConfig,
    pub outcome: &'a PlatformOutcome,
}

impl<'a> RunReport<'a> {
    pub fn new(label: &'a str, config: &'a PlatformConfig, outcome: &'a PlatformOutcome) -> Self {
        RunReport {
            label,
            config,
            outcome,
        }
    }

    /// Watchdog trip counts still held in the recorder, in the fixed
    /// [`WATCHDOGS`] order.
    pub fn watchdog_trips(&self) -> Vec<(&'static str, usize)> {
        let rec = &self.outcome.telemetry.recorder;
        WATCHDOGS
            .iter()
            .map(|&(short, tag)| (short, rec.find_tag(tag).map_or(0, |t| rec.count_tag(t))))
            .collect()
    }

    /// Human-readable anomalies of the run: truncated fault timeline,
    /// wrapped flight recorder, tripped watchdogs. Empty on a clean run.
    pub fn warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        let s = &self.outcome.stats;
        if s.fault_timeline_dropped.get() > 0 {
            w.push(format!(
                "fault timeline truncated: {} events dropped past the cap",
                s.fault_timeline_dropped.get()
            ));
        }
        let rec = &self.outcome.telemetry.recorder;
        if rec.dropped() > 0 {
            w.push(format!(
                "flight recorder wrapped: {} oldest events overwritten (capacity {})",
                rec.dropped(),
                RING_CAPACITY
            ));
        }
        for (name, trips) in self.watchdog_trips() {
            if trips > 0 {
                w.push(format!("watchdog {name} tripped {trips} time(s)"));
            }
        }
        w
    }

    /// The JSONL run report (one JSON object per line, stable key
    /// order). Validated line by line by the exporter tests. The meta
    /// line's `peak_queue` is [`PlatformOutcome::peak_queue`]: queued
    /// events only, not the arrivals still in the job stream.
    pub fn jsonl(&self, opts: &ExportOptions) -> String {
        let mut out = String::new();
        let c = self.config;
        let o = self.outcome;
        let arch = match c.arch {
            ArchClass::SharedWorkers { .. } => "shared_workers",
            ArchClass::DedicatedEdge { .. } => "dedicated_edge",
        };
        let link_faults: Vec<String> = c
            .faults
            .link_faults
            .iter()
            .map(|f| jstr(f.link.label()))
            .collect();
        out.push_str(&format!(
            "{{\"record\":\"meta\",\"label\":{},\"n_clusters\":{},\"workers_per_cluster\":{},\
             \"arch\":{},\"peak_policy\":{},\"horizon_s\":{},\"seed\":{},\"events\":{},\
             \"end_s\":{},\"peak_queue\":{},\"telemetry_enabled\":{},\"link_faults\":[{}]}}\n",
            jstr(self.label),
            c.n_clusters,
            c.workers_per_cluster,
            jstr(arch),
            jstr(c.peak_policy.label()),
            jnum(c.horizon.as_secs_f64()),
            c.seed,
            o.events,
            jnum(o.end.as_secs_f64()),
            o.peak_queue,
            o.telemetry.is_enabled(),
            link_faults.join(",")
        ));
        for (name, value) in o.stats.counter_rows() {
            out.push_str(&format!(
                "{{\"record\":\"counter\",\"name\":{},\"value\":{value}}}\n",
                jstr(name)
            ));
        }
        for (name, value) in o.stats.gauge_rows() {
            out.push_str(&format!(
                "{{\"record\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                jstr(name),
                jnum(value)
            ));
        }
        for (name, trips) in self.watchdog_trips() {
            out.push_str(&format!(
                "{{\"record\":\"watchdog\",\"name\":{},\"trips\":{trips}}}\n",
                jstr(name)
            ));
        }
        if opts.include_wall_clock {
            for (phase, acc) in o.telemetry.profiler.rows() {
                out.push_str(&format!(
                    "{{\"record\":\"phase\",\"name\":{},\"count\":{},\"total_ns\":{},\
                     \"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}\n",
                    jstr(phase.name()),
                    acc.count,
                    acc.total_ns,
                    acc.min_ns,
                    acc.max_ns,
                    jnum(acc.mean_ns())
                ));
            }
        }
        for f in &o.stats.fault_timeline {
            let worker = match f.worker {
                Some(w) => w.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"record\":\"fault\",\"t_s\":{},\"kind\":{},\"cluster\":{},\"worker\":{worker}}}\n",
                jnum(f.t.as_secs_f64()),
                jstr(f.kind.label()),
                f.cluster
            ));
        }
        for w in self.warnings() {
            out.push_str(&format!(
                "{{\"record\":\"warning\",\"text\":{}}}\n",
                jstr(&w)
            ));
        }
        let rec = &o.telemetry.recorder;
        out.push_str(&format!(
            "{{\"record\":\"telemetry\",\"events\":{},\"dropped\":{}}}\n",
            rec.len(),
            rec.dropped()
        ));
        out
    }

    /// The flight recorder as Chrome trace-event JSON (sim time only).
    pub fn chrome_trace_json(&self) -> String {
        let n = self.config.n_clusters as u32;
        chrome_trace(&self.outcome.telemetry.recorder, |g| {
            if g == 0 {
                "platform".to_string()
            } else if g <= n {
                format!("cluster {}", g - 1)
            } else {
                "datacenter".to_string()
            }
        })
    }

    /// A Prometheus text-exposition snapshot of the run's
    /// [`PlatformStats`] (sim time only).
    pub fn prometheus(&self) -> String {
        let s: &PlatformStats = &self.outcome.stats;
        let mut p = PromText::new();
        for (name, value) in s.counter_rows() {
            p.counter(
                &format!("df3_{name}_total"),
                &format!("platform counter {name}"),
                value,
            );
        }
        for (name, value) in s.gauge_rows() {
            p.gauge(
                &format!("df3_{name}"),
                &format!("platform gauge {name}"),
                value,
            );
        }
        for (name, trips) in self.watchdog_trips() {
            p.counter(
                &format!("df3_watchdog_{name}_trips_total"),
                "invariant watchdog trips",
                trips as u64,
            );
        }
        p.counter(
            "df3_telemetry_dropped_total",
            "flight-recorder events overwritten past capacity",
            self.outcome.telemetry.recorder.dropped(),
        );
        let h = &s.edge_response_ms;
        p.histogram(
            "df3_edge_response_ms",
            "edge response time, milliseconds",
            &h.cumulative_buckets(20),
            h.mean() * h.count() as f64,
            h.count(),
        );
        let r = &s.repair_s;
        p.histogram(
            "df3_repair_s",
            "worker repair duration, seconds",
            &r.cumulative_buckets(16),
            r.mean() * r.count() as f64,
            r.count(),
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use simcore::telemetry::export::json;
    use simcore::time::SimDuration;
    use simcore::RngStreams;
    use workloads::edge::{location_service_jobs, LocationServiceConfig};
    use workloads::job::JobStream;
    use workloads::Flow;

    fn run_with_telemetry(enabled: bool) -> (PlatformConfig, PlatformOutcome, JobStream) {
        let mut cfg = PlatformConfig::small_winter();
        cfg.n_clusters = 2;
        cfg.workers_per_cluster = 4;
        cfg.horizon = SimDuration::from_hours(3);
        cfg.telemetry.enabled = enabled;
        let jobs = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            cfg.horizon,
            &RngStreams::new(42),
            0,
        );
        let out = Platform::new(cfg.clone()).run(&jobs);
        (cfg, out, jobs)
    }

    #[test]
    fn jsonl_lines_all_validate_and_cover_every_record_kind() {
        let (cfg, out, _) = run_with_telemetry(true);
        let report = RunReport::new("test", &cfg, &out);
        let doc = report.jsonl(&ExportOptions::full());
        let n = json::validate_lines(&doc).expect("every line is JSON");
        assert!(n > 30, "expected meta+counters+gauges+..., got {n} lines");
        for kind in ["meta", "counter", "gauge", "watchdog", "phase", "telemetry"] {
            assert!(
                doc.contains(&format!("{{\"record\":\"{kind}\"")),
                "missing record kind {kind}"
            );
        }
        assert!(doc.contains("\"name\":\"edge_completed\""));
        assert!(doc.contains("\"peak_policy\":\"hybrid\""));
    }

    #[test]
    fn chrome_trace_validates_with_cluster_processes() {
        let (cfg, out, _) = run_with_telemetry(true);
        let report = RunReport::new("test", &cfg, &out);
        let trace = report.chrome_trace_json();
        json::validate(&trace).expect("chrome trace is JSON");
        assert!(trace.contains("\"platform\""));
        assert!(trace.contains("\"cluster 0\""));
        assert_eq!(
            trace.matches("\"ph\":\"B\"").count(),
            trace.matches("\"ph\":\"E\"").count(),
            "unbalanced span events"
        );
        assert!(trace.matches("\"ph\":\"B\"").count() > 0, "no job spans");
    }

    #[test]
    fn prometheus_snapshot_parses() {
        let (cfg, out, _) = run_with_telemetry(true);
        let report = RunReport::new("test", &cfg, &out);
        let text = report.prometheus();
        assert!(text.contains("# TYPE df3_edge_completed_total counter"));
        assert!(text.contains("df3_edge_response_ms_bucket{le=\"+Inf\"}"));
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (_, val) = line.rsplit_once(' ').expect("name value");
            assert!(
                val.parse::<f64>().is_ok() || val == "null",
                "unparseable sample: {line}"
            );
        }
    }

    #[test]
    fn disabled_telemetry_still_reports_stats() {
        let (cfg, out, _) = run_with_telemetry(false);
        assert!(!out.telemetry.is_enabled());
        assert!(out.telemetry.recorder.is_empty());
        let report = RunReport::new("off", &cfg, &out);
        let doc = report.jsonl(&ExportOptions::deterministic());
        json::validate_lines(&doc).unwrap();
        assert!(doc.contains("\"telemetry_enabled\":false"));
        assert!(!doc.contains("\"record\":\"phase\""));
        assert!(report.warnings().is_empty(), "{:?}", report.warnings());
        // The trace degenerates to metadata-only but stays valid JSON.
        json::validate(&report.chrome_trace_json()).unwrap();
    }

    #[test]
    fn deterministic_exports_are_byte_identical_across_runs() {
        let (cfg_a, out_a, _) = run_with_telemetry(true);
        let (cfg_b, out_b, _) = run_with_telemetry(true);
        let a = RunReport::new("x", &cfg_a, &out_a);
        let b = RunReport::new("x", &cfg_b, &out_b);
        let opts = ExportOptions::deterministic();
        assert_eq!(a.jsonl(&opts), b.jsonl(&opts));
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.prometheus(), b.prometheus());
    }
}
