//! Duty-cycle budgeting for unlicensed-band low-power protocols.
//!
//! EU 868 MHz regulation caps a LoRa/Sigfox device at 1 % air time
//! (and Sigfox additionally at ~140 uplinks/day). This is the physical
//! reason edge processing exists for audio workloads: a 16 kHz stream
//! cannot leave the building over LoRa, so the classifier must run on
//! the DF server (experiment E11).

use crate::link::Link;

/// Duty-cycle budget for one radio: the fraction of air time it may use.
#[derive(Debug, Clone)]
pub struct DutyCycleBudget {
    /// Fraction of air time allowed (e.g. 0.01).
    pub limit: f64,
}

impl DutyCycleBudget {
    /// The EU 868 MHz budget: 1 % of air time.
    pub fn eu868() -> Self {
        DutyCycleBudget { limit: 0.01 }
    }

    /// Maximum sustained application throughput under this budget, bit/s,
    /// for a given link.
    pub fn max_sustained_bps(&self, link: &Link) -> f64 {
        link.protocol.data_rate_bps() * link.efficiency * self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;

    #[test]
    fn raw_audio_streaming_is_impossible_over_lora() {
        // 16 kHz × 16-bit mono = 256 kbit/s; LoRa under 1 % duty cycle
        // sustains ~55 bit/s. The gap is ~4 orders of magnitude — the
        // paper's implicit case for in-situ processing [11].
        let b = DutyCycleBudget::eu868();
        let link = Link::new(Protocol::Lora);
        let audio_bps = 16_000.0 * 16.0;
        let sustained = b.max_sustained_bps(&link);
        assert!(
            audio_bps / sustained > 1_000.0,
            "audio {audio_bps} vs sustained {sustained}"
        );
    }

    #[test]
    fn classifier_verdicts_fit_easily() {
        // One 12-byte verdict per minute, framing included, fits the
        // LoRa budget.
        let b = DutyCycleBudget::eu868();
        let link = Link::new(Protocol::Lora);
        let verdict_bps = (12 + Protocol::Lora.frame_overhead_bytes()) as f64 * 8.0 / 60.0;
        let sustained = b.max_sustained_bps(&link);
        assert!(verdict_bps < sustained, "{verdict_bps} vs {sustained}");
    }
}
