//! Duty-cycle budgeting for unlicensed-band low-power protocols.
//!
//! EU 868 MHz regulation caps a LoRa/Sigfox device at 1 % air time
//! (and Sigfox additionally at ~140 uplinks/day). This is the physical
//! reason edge processing exists for audio workloads: a 16 kHz stream
//! cannot leave the building over LoRa, so the classifier must run on
//! the DF server (experiment E11).

use crate::link::Link;
use simcore::time::{SimDuration, SimTime};

/// Sliding-window duty-cycle budget for one radio.
#[derive(Debug, Clone)]
pub struct DutyCycleBudget {
    /// Fraction of air time allowed (e.g. 0.01).
    pub limit: f64,
    /// Accounting window (regulations use 1 h).
    pub window: SimDuration,
    /// (end_time, air_time) of recent transmissions.
    history: Vec<(SimTime, SimDuration)>,
}

impl DutyCycleBudget {
    pub fn new(limit: f64, window: SimDuration) -> Self {
        assert!(limit > 0.0 && limit <= 1.0);
        assert!(window > SimDuration::ZERO);
        DutyCycleBudget {
            limit,
            window,
            history: Vec::new(),
        }
    }

    /// The EU 868 MHz budget: 1 % per rolling hour.
    pub fn eu868() -> Self {
        DutyCycleBudget::new(0.01, SimDuration::HOUR)
    }

    fn gc(&mut self, now: SimTime) {
        let cutoff = now - self.window;
        self.history.retain(|&(end, _)| end > cutoff);
    }

    /// Air time already spent inside the window ending at `now`.
    pub fn spent(&mut self, now: SimTime) -> SimDuration {
        self.gc(now);
        self.history
            .iter()
            .fold(SimDuration::ZERO, |acc, &(_, d)| acc + d)
    }

    /// Whether a transmission with `air_time` may start at `now`.
    pub fn may_transmit(&mut self, now: SimTime, air_time: SimDuration) -> bool {
        let budget = self.window.mul_f64(self.limit);
        self.spent(now) + air_time <= budget
    }

    /// Record a transmission that started at `now`.
    pub fn transmit(&mut self, now: SimTime, air_time: SimDuration) {
        assert!(
            self.may_transmit(now, air_time),
            "duty cycle violation at {now}"
        );
        self.history.push((now + air_time, air_time));
    }

    /// Try to send `payload_bytes` over `link` at `now`: records the air
    /// time and returns the delivery duration, or `None` if the duty
    /// cycle forbids it.
    pub fn try_send(
        &mut self,
        now: SimTime,
        link: &Link,
        payload_bytes: usize,
    ) -> Option<SimDuration> {
        let air = link.air_time(payload_bytes);
        if !self.may_transmit(now, air) {
            return None;
        }
        self.transmit(now, air);
        Some(link.transfer_time(payload_bytes))
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

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn budget_allows_then_blocks() {
        let mut b = DutyCycleBudget::eu868();
        let link = Link::new(Protocol::Lora);
        // 1 % of an hour = 36 s of air time. A 222 B frame ≈ 0.34 s air.
        let mut sent = 0;
        let mut now = t(0);
        while b.try_send(now, &link, 222).is_some() {
            sent += 1;
            now += SimDuration::from_millis(1); // immediate retry attempts
            if sent > 10_000 {
                panic!("budget never exhausted");
            }
        }
        // ≈ 36 s / 0.34 s ≈ 105 frames.
        assert!(
            (80..130).contains(&sent),
            "sent {sent} frames before exhaustion"
        );
    }

    #[test]
    fn budget_recovers_after_window() {
        let mut b = DutyCycleBudget::eu868();
        let link = Link::new(Protocol::Lora);
        while b.try_send(t(0), &link, 222).is_some() {}
        assert!(b.try_send(t(1), &link, 222).is_none());
        // One hour later the window has slid past all history.
        assert!(b.try_send(t(3_700), &link, 222).is_some());
    }

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
        // One 12-byte verdict per minute fits the Sigfox/LoRa budget.
        let mut b = DutyCycleBudget::eu868();
        let link = Link::new(Protocol::Lora);
        for minute in 0..120 {
            let now = t(minute * 60);
            assert!(
                b.try_send(now, &link, 12).is_some(),
                "verdict at minute {minute} blocked"
            );
        }
    }

    #[test]
    fn spent_decays_as_window_slides() {
        let mut b = DutyCycleBudget::eu868();
        let link = Link::new(Protocol::Lora);
        b.try_send(t(0), &link, 222).unwrap();
        let early = b.spent(t(10));
        assert!(early > SimDuration::ZERO);
        assert_eq!(b.spent(t(3_700)), SimDuration::ZERO);
    }
}
