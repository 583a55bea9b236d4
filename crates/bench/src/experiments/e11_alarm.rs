//! **E11 — in-situ audio alarm detection** (§III-B, ref \[11\]).
//!
//! "Near real-time applications for audio alarm detection (alarm
//! sound, fall detection, etc.) could be operated on digital heaters."
//! We run the per-window classification pipeline of one building's
//! microphones on the local Q.rads and against the cloud, and check
//! the low-power-uplink feasibility argument.

use baselines::CloudBaseline;
use df3_core::{Platform, PlatformConfig};
use dfnet::link::Link;
use dfnet::lowpower::DutyCycleBudget;
use dfnet::protocol::Protocol;
use simcore::report::{f2, pct, Table};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use workloads::alarm::{alarm_jobs, AlarmPipeline};
use workloads::job::JobStream;
use workloads::Flow;

/// Headline results of E11.
#[derive(Debug, Clone)]
pub struct AlarmResult {
    pub local_p50_ms: f64,
    pub local_p99_ms: f64,
    pub local_attainment: f64,
    pub cloud_p50_ms: f64,
    pub cloud_attainment: f64,
    /// Ratio of the raw audio stream rate to the LoRa sustained budget.
    pub lora_overload_factor: f64,
}

/// Run E11 with `n_mics` microphones over `hours`.
pub fn run(n_mics: usize, hours: i64, seed: u64) -> (AlarmResult, Table) {
    let pipeline = AlarmPipeline::standard();
    let span = SimDuration::from_hours(hours);
    let mut merged = JobStream::new(vec![]);
    for mic in 0..n_mics {
        let (s, _) = alarm_jobs(
            pipeline,
            span,
            &RngStreams::new(seed),
            mic as u64,
            (mic as u64) * 10_000_000,
            Flow::EdgeDirect,
        );
        merged = merged.merge(s);
    }

    let mut cfg = PlatformConfig::small_winter();
    cfg.horizon = span;
    cfg.seed = seed;
    let out = Platform::new(cfg).run(&merged);

    let cloud =
        CloudBaseline::standard(1024).run(&merged, SimTime::ZERO + span + SimDuration::HOUR);

    let budget = DutyCycleBudget::eu868();
    let lora = Link::new(Protocol::Lora);
    let lora_overload = pipeline.raw_stream_bps() / budget.max_sustained_bps(&lora);

    let result = AlarmResult {
        local_p50_ms: out.stats.edge_response_ms.p50(),
        local_p99_ms: out.stats.edge_response_ms.p99(),
        local_attainment: out.stats.edge_attainment(),
        cloud_p50_ms: cloud.edge_response_ms.p50(),
        cloud_attainment: cloud.edge_attainment(),
        lora_overload_factor: lora_overload,
    };
    let mut table = Table::new(&format!(
        "E11 — audio alarm detection, {n_mics} microphones ({} windows)",
        merged.len()
    ))
    .headers(&[
        "deployment",
        "p50 (ms)",
        "attainment (500 ms budget)",
        "note",
    ]);
    table.row(&[
        "local Q.rads (in-situ, [11])".into(),
        f2(result.local_p50_ms),
        pct(result.local_attainment),
        format!("p99 {:.1} ms", result.local_p99_ms),
    ]);
    table.row(&[
        "cloud (raw audio over WAN)".into(),
        f2(result.cloud_p50_ms),
        pct(result.cloud_attainment),
        "needs a broadband uplink".into(),
    ]);
    table.row(&[
        "cloud over LoRa".into(),
        "∞".into(),
        "0.0%".into(),
        format!(
            "raw stream exceeds the duty-cycle budget {:.0}×",
            result.lora_overload_factor
        ),
    ]);
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_situ_detection_meets_the_budget() {
        let (r, _) = run(4, 1, 0xE11);
        assert!(
            r.local_attainment > 0.97,
            "local attainment {}",
            r.local_attainment
        );
        assert!(r.local_p50_ms < 250.0, "local p50 {}", r.local_p50_ms);
        // Cloud pays the WAN on a 32 kB window each way: strictly slower.
        assert!(r.cloud_p50_ms > r.local_p50_ms);
        // The low-power argument: streaming raw audio over LoRa is
        // thousands of times over budget.
        assert!(
            r.lora_overload_factor > 1_000.0,
            "LoRa overload ×{}",
            r.lora_overload_factor
        );
    }
}
