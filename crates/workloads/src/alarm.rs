//! The in-situ audio alarm-detection pipeline (Durand et al. \[11\]).
//!
//! §III-B: "in \[11\], it is shown that near real-time applications for
//! audio alarm detection (alarm sound, fall detection, etc.) could be
//! operated on digital heaters." The pipeline is:
//!
//! 1. a microphone produces 16 kHz 16-bit audio;
//! 2. frames of `window` seconds are cut with `hop` spacing;
//! 3. a feature extractor (MFCC-class) runs per frame;
//! 4. a classifier (GMM/small-CNN class) runs per frame;
//! 5. positives raise an alert (tiny payload, may traverse LoRa).
//!
//! Experiment E11 compares running stages 3–4 on the local Q.rad
//! against shipping frames to the cloud.

use crate::job::{Flow, Job, JobId, JobStream};
use simcore::dist::bernoulli;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;

/// Parameters of the detection pipeline.
#[derive(Debug, Clone, Copy)]
pub struct AlarmPipeline {
    /// Sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Bytes per sample (16-bit mono = 2).
    pub bytes_per_sample: usize,
    /// Analysis window length.
    pub window: SimDuration,
    /// Hop between consecutive windows.
    pub hop: SimDuration,
    /// Feature-extraction cost per window, Gop.
    pub feature_gops: f64,
    /// Classification cost per window, Gop.
    pub classify_gops: f64,
    /// End-to-end alert budget (detection must complete within this).
    pub deadline: SimDuration,
    /// Probability a window contains an alarm event.
    pub event_prob: f64,
}

impl AlarmPipeline {
    /// The configuration used throughout the experiments: 1 s windows,
    /// 0.5 s hop, 500 ms alert budget.
    pub fn standard() -> Self {
        AlarmPipeline {
            sample_rate_hz: 16_000.0,
            bytes_per_sample: 2,
            window: SimDuration::SECOND,
            hop: SimDuration::from_millis(500),
            feature_gops: 0.08,
            classify_gops: 0.25,
            deadline: SimDuration::from_millis(500),
            event_prob: 1e-4,
        }
    }

    /// Raw audio bytes in one analysis window.
    pub fn window_bytes(&self) -> usize {
        (self.sample_rate_hz * self.window.as_secs_f64()) as usize * self.bytes_per_sample
    }

    /// Total compute per window, Gop.
    pub fn window_gops(&self) -> f64 {
        self.feature_gops + self.classify_gops
    }

    /// Sustained raw-audio bandwidth the *cloud* variant must ship,
    /// bit/s (the quantity that breaks low-power uplinks, see
    /// `dfnet::lowpower`).
    pub fn raw_stream_bps(&self) -> f64 {
        self.sample_rate_hz
            * self.bytes_per_sample as f64
            * 8.0
            * (self.window.as_secs_f64() / self.hop.as_secs_f64())
    }
}

/// Generate the per-window classification jobs of one microphone over
/// `[0, span)`. `flow` selects local (direct) or cloud-bound handling;
/// in both cases `input_bytes` is the window payload that must move.
pub fn alarm_jobs(
    pipeline: AlarmPipeline,
    span: SimDuration,
    streams: &RngStreams,
    mic: u64,
    id_base: u64,
    flow: Flow,
) -> (JobStream, u64) {
    let mut rng = streams.stream_indexed("alarm-mic", mic);
    let mut jobs = Vec::new();
    let mut events = 0u64;
    let mut t = SimTime::ZERO;
    let mut i = 0u64;
    while t < SimTime::ZERO + span {
        if bernoulli(&mut rng, pipeline.event_prob) {
            events += 1;
        }
        jobs.push(Job {
            id: JobId(id_base + i),
            flow,
            arrival: t + pipeline.window, // a window is ready once filled
            work_gops: pipeline.window_gops(),
            cores: 1,
            deadline: Some(pipeline.deadline),
            input_bytes: pipeline.window_bytes(),
            output_bytes: 16, // the verdict
            org: 400 + mic as u32,
        });
        t += pipeline.hop;
        i += 1;
    }
    (JobStream::new(jobs), events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_payload_is_32kb() {
        let p = AlarmPipeline::standard();
        assert_eq!(p.window_bytes(), 32_000);
    }

    #[test]
    fn raw_stream_is_half_a_megabit() {
        let p = AlarmPipeline::standard();
        // 256 kbit/s × 2 (50 % overlap) = 512 kbit/s.
        assert!((p.raw_stream_bps() - 512_000.0).abs() < 1.0);
    }

    #[test]
    fn one_hour_produces_7200_windows() {
        let (s, _) = alarm_jobs(
            AlarmPipeline::standard(),
            SimDuration::HOUR,
            &RngStreams::new(4),
            0,
            0,
            Flow::EdgeDirect,
        );
        assert_eq!(s.len(), 7_200);
        assert!(s
            .iter()
            .all(|j| j.deadline == Some(SimDuration::from_millis(500))));
    }

    #[test]
    fn classification_fits_one_qrad_core() {
        // A mid-ladder core (2.4 Gops) must classify a window well within
        // the 500 ms budget — the claim of ref [11].
        let p = AlarmPipeline::standard();
        let job_time = p.window_gops() / 2.4;
        assert!(
            job_time < 0.2,
            "per-window compute {job_time:.3} s must be ≪ 500 ms"
        );
    }

    #[test]
    fn events_are_rare() {
        let (s, events) = alarm_jobs(
            AlarmPipeline::standard(),
            SimDuration::from_days(1),
            &RngStreams::new(4),
            0,
            0,
            Flow::EdgeDirect,
        );
        let expected = s.len() as f64 * 1e-4;
        assert!(
            (events as f64) < expected * 3.0 + 10.0,
            "events {events} should be ≈ {expected:.0}"
        );
    }

    #[test]
    fn mic_streams_are_independent() {
        let p = AlarmPipeline::standard();
        let (_, e0) = alarm_jobs(
            p,
            SimDuration::from_days(7),
            &RngStreams::new(4),
            0,
            0,
            Flow::EdgeDirect,
        );
        let (_, e1) = alarm_jobs(
            p,
            SimDuration::from_days(7),
            &RngStreams::new(4),
            1,
            0,
            Flow::EdgeDirect,
        );
        // Not a strict inequality requirement — just evidence of
        // different draws (equality of both week-long counts is unlikely
        // but possible; check the generator doesn't reuse the stream).
        let (_, e0b) = alarm_jobs(
            p,
            SimDuration::from_days(7),
            &RngStreams::new(4),
            0,
            0,
            Flow::EdgeDirect,
        );
        assert_eq!(e0, e0b, "same mic, same seed → same events");
        let _ = e1;
    }
}
