//! The Qarnot rendering workload, calibrated to the paper's numbers.
//!
//! §III: "In 2016, the Qarnot rendering platform (based on digital
//! heaters) had **1100 users** that rendered **600,000 images** for
//! **11,000,000 hours of computations**." That gives a mean of
//! ~18.3 CPU-hours per image, a year-round mean occupancy of
//! ~1 255 busy cores, and a user population whose activity is heavily
//! skewed (studios submit batches of frames; researchers submit a few).
//!
//! [`RenderYear`] generates one simulated year of this workload:
//! Pareto-skewed per-user activity, lognormal per-frame cost, batch
//! submissions during business hours.

use crate::arrival::{business_factor, nonhomogeneous_arrivals};
use crate::job::{Flow, Job, JobId, JobStream};
use simcore::dist::{discrete, lognormal_mean_cv, pareto};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;

/// Calibration of a rendering year.
#[derive(Debug, Clone, Copy)]
pub struct RenderCalibration {
    /// Number of distinct users.
    pub n_users: usize,
    /// Total images over the year.
    pub total_images: u64,
    /// Total compute across the year, CPU-hours.
    pub total_cpu_hours: f64,
    /// Reference core speed for the CPU-hour definition, Gops/s.
    pub reference_gops: f64,
    /// Mean frames per submitted batch.
    pub mean_batch_frames: f64,
}

impl RenderCalibration {
    /// The published 2016 Qarnot figures.
    pub fn qarnot_2016() -> Self {
        RenderCalibration {
            n_users: 1_100,
            total_images: 600_000,
            total_cpu_hours: 11_000_000.0,
            reference_gops: 2.4, // a mid-ladder desktop i7 core
            mean_batch_frames: 48.0,
        }
    }

    /// Mean CPU-hours per image.
    pub fn cpu_hours_per_image(&self) -> f64 {
        self.total_cpu_hours / self.total_images as f64
    }

    /// Mean work per image, Gop.
    pub fn gops_per_image(&self) -> f64 {
        self.cpu_hours_per_image() * 3_600.0 * self.reference_gops
    }

    /// Year-round mean busy cores implied by the calibration.
    pub fn mean_busy_cores(&self) -> f64 {
        self.total_cpu_hours / (365.0 * 24.0)
    }
}

/// A generated year of rendering jobs. Each [`Job`] is one *batch* of
/// frames (a studio submission); `work_gops` covers all its frames.
#[derive(Debug, Clone)]
pub struct RenderYear {
    pub stream: JobStream,
    pub calibration: RenderCalibration,
    /// Frames carried by each job (parallel to `stream.jobs()`).
    pub frames: Vec<u32>,
}

impl RenderYear {
    /// Generate a scaled year (`scale` < 1 shrinks the workload while
    /// preserving its shape — useful for fast tests).
    pub fn generate_with(cal: RenderCalibration, streams: &RngStreams, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        let mut rng = streams.stream("render-year");
        let total_images = (cal.total_images as f64 * scale) as u64;
        let n_batches = ((total_images as f64 / cal.mean_batch_frames).ceil() as usize).max(1);

        // Pareto-skewed user weights: a few studios dominate.
        let user_weights: Vec<f64> = (0..cal.n_users)
            .map(|_| pareto(&mut rng, 1.0, 1.3))
            .collect();

        // Batch submissions arrive through the year, business-hours shaped.
        let year_end = SimTime::ZERO + SimDuration::YEAR;
        let mean_rate = n_batches as f64 / SimDuration::YEAR.as_secs_f64();
        let peak = mean_rate / 0.45; // business_factor averages ≈ 0.45
        let arrivals = nonhomogeneous_arrivals(
            &mut rng,
            |t| peak * business_factor(t),
            peak,
            SimTime::ZERO,
            year_end,
        );

        let mut jobs = Vec::with_capacity(arrivals.len());
        let mut frames = Vec::with_capacity(arrivals.len());
        let mut emitted_images = 0u64;
        for (i, &t) in arrivals.iter().enumerate() {
            if emitted_images >= total_images {
                break;
            }
            // Batch size: geometric-ish via lognormal, ≥ 1 frame.
            let batch =
                (lognormal_mean_cv(&mut rng, cal.mean_batch_frames, 1.0).round() as u64).max(1);
            let batch = batch.min(total_images - emitted_images);
            emitted_images += batch;
            let per_image = lognormal_mean_cv(&mut rng, cal.gops_per_image(), 0.8);
            let user = discrete(&mut rng, &user_weights) as u32;
            // Frames are embarrassingly parallel: the batch asks for as
            // many cores as frames, capped at one Q.rad's core count so
            // a batch can always be placed on a single DF server (the
            // Qarnot middleware splits submissions into heater-sized
            // work units).
            let cores = (batch as usize).clamp(1, 16);
            jobs.push(Job {
                id: JobId(i as u64),
                flow: Flow::Dcc,
                arrival: t,
                work_gops: per_image * batch as f64,
                cores,
                deadline: None,
                input_bytes: 50_000_000,                  // scene assets
                output_bytes: 8_000_000 * batch as usize, // rendered frames
                org: user,
            });
            frames.push(batch as u32);
        }
        RenderYear {
            stream: JobStream::new(jobs),
            calibration: cal,
            frames,
        }
    }

    /// Total frames across all jobs.
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().map(|&f| f as u64).sum()
    }

    /// Total CPU-hours implied by the generated work.
    pub fn total_cpu_hours(&self) -> f64 {
        self.stream.total_work_gops() / self.calibration.reference_gops / 3_600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_derives_paper_ratios() {
        let c = RenderCalibration::qarnot_2016();
        assert!((c.cpu_hours_per_image() - 18.33).abs() < 0.01);
        assert!((c.mean_busy_cores() - 1_255.7).abs() < 1.0);
    }

    #[test]
    fn scaled_year_preserves_cpu_hours_per_image() {
        let y = RenderYear::generate_with(
            RenderCalibration::qarnot_2016(),
            &RngStreams::new(42),
            0.02, // 12 000 images — fast to generate
        );
        let frames = y.total_frames();
        assert!(
            (11_000..=12_000).contains(&frames),
            "frames = {frames} should be ≈ 12 000"
        );
        let hours_per_image = y.total_cpu_hours() / frames as f64;
        assert!(
            (hours_per_image - 18.33).abs() / 18.33 < 0.25,
            "CPU-h/image = {hours_per_image}"
        );
    }

    #[test]
    fn activity_is_user_skewed() {
        let y =
            RenderYear::generate_with(RenderCalibration::qarnot_2016(), &RngStreams::new(42), 0.02);
        let mut per_user = std::collections::HashMap::new();
        for j in y.stream.iter() {
            *per_user.entry(j.org).or_insert(0u32) += 1;
        }
        let mut counts: Vec<u32> = per_user.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts.iter().take(counts.len() / 10).sum();
        let total: u32 = counts.iter().sum();
        // Under uniform activity the top decile of active users would hold
        // ≈ 10 % of batches (plus ties); Pareto weights must at least
        // double that, and some studio must submit repeatedly.
        assert!(
            top10 as f64 / total as f64 > 0.2,
            "top-decile users should dominate ({top10}/{total})"
        );
        assert!(
            counts[0] >= 3,
            "the biggest studio should submit repeatedly"
        );
    }

    #[test]
    fn submissions_follow_business_hours() {
        let y =
            RenderYear::generate_with(RenderCalibration::qarnot_2016(), &RngStreams::new(42), 0.02);
        let day: usize = y
            .stream
            .iter()
            .filter(|j| (9.0..18.0).contains(&j.arrival.hour_of_day()))
            .count();
        let total = y.stream.len();
        assert!(
            day as f64 / total as f64 > 0.5,
            "business hours should dominate: {day}/{total}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a =
            RenderYear::generate_with(RenderCalibration::qarnot_2016(), &RngStreams::new(9), 0.01);
        let b =
            RenderYear::generate_with(RenderCalibration::qarnot_2016(), &RngStreams::new(9), 0.01);
        assert_eq!(a.stream.len(), b.stream.len());
        assert_eq!(a.total_frames(), b.total_frames());
    }
}
