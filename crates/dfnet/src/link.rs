//! Point-to-point link timing.

use crate::protocol::Protocol;
use simcore::time::SimDuration;

/// The four link roles of the platform's network model, addressable by
/// fault injectors (degradation and partition target a class, not a
/// concrete [`Link`] instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Device ↔ worker access link (Wi-Fi).
    Device,
    /// Intra-building LAN (gateway/master hops).
    Lan,
    /// Inter-cluster fiber (horizontal offloads, DCC ingress).
    Fiber,
    /// WAN to the remote datacenter (vertical offloads).
    Wan,
}

simcore::impl_snapshot! {
    enum LinkClass { 0 => Device, 1 => Lan, 2 => Fiber, 3 => Wan }
}

impl LinkClass {
    /// Stable lowercase name for telemetry and run reports.
    pub fn label(&self) -> &'static str {
        match self {
            LinkClass::Device => "device",
            LinkClass::Lan => "lan",
            LinkClass::Fiber => "fiber",
            LinkClass::Wan => "wan",
        }
    }
}

/// A multiplicative service degradation applied to a [`Link`] while a
/// fault window is active: latency is stretched, bandwidth is derated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Factor ≥ 1 applied to the link's total fixed latency.
    pub latency_factor: f64,
    /// Factor in `(0, 1]` applied to the link's effective data rate.
    pub bandwidth_factor: f64,
}

simcore::impl_snapshot! {
    Degradation { latency_factor, bandwidth_factor }
}

impl Degradation {
    /// The identity degradation (no effect).
    pub fn none() -> Self {
        Degradation {
            latency_factor: 1.0,
            bandwidth_factor: 1.0,
        }
    }

    /// A brown-out typical of a congested metro segment: 3× latency,
    /// 40 % of nominal bandwidth.
    pub fn brownout() -> Self {
        Degradation {
            latency_factor: 3.0,
            bandwidth_factor: 0.4,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if !(self.latency_factor >= 1.0 && self.latency_factor.is_finite()) {
            return Err(format!(
                "latency factor {} must be ≥ 1",
                self.latency_factor
            ));
        }
        if !(self.bandwidth_factor > 0.0 && self.bandwidth_factor <= 1.0) {
            return Err(format!(
                "bandwidth factor {} out of (0,1]",
                self.bandwidth_factor
            ));
        }
        Ok(())
    }
}

/// A unidirectional link using a [`Protocol`], with an optional extra
/// distance-dependent latency (metro/WAN spans) and a load factor.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    pub protocol: Protocol,
    /// Additional one-way latency on top of the protocol base, s.
    pub extra_latency_s: f64,
    /// Fraction of the nominal data rate actually available (congestion,
    /// MAC efficiency), in `(0, 1]`.
    pub efficiency: f64,
}

impl Link {
    pub fn new(protocol: Protocol) -> Self {
        Link {
            protocol,
            extra_latency_s: 0.0,
            efficiency: 1.0,
        }
    }

    /// Add extra one-way latency (e.g. metro distance).
    pub fn with_extra_latency(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0);
        self.extra_latency_s = seconds;
        self
    }

    /// Apply a [`Degradation`]: the total fixed latency (protocol
    /// base plus extra) is multiplied by `latency_factor` — the
    /// protocol base itself is immutable, so the stretch lands on
    /// `extra_latency_s` — and the effective data rate is derated by
    /// `bandwidth_factor`.
    pub fn degraded(mut self, d: Degradation) -> Self {
        d.validate()
            .unwrap_or_else(|e| panic!("bad degradation: {e}"));
        let base = self.protocol.base_latency_s();
        self.extra_latency_s =
            self.extra_latency_s * d.latency_factor + base * (d.latency_factor - 1.0);
        self.efficiency *= d.bandwidth_factor;
        self
    }

    /// Number of frames needed for `payload_bytes`.
    pub fn frames_for(&self, payload_bytes: usize) -> usize {
        match self.protocol.max_payload_bytes() {
            Some(max) => payload_bytes.div_ceil(max).max(1),
            None => 1,
        }
    }

    /// One-way delivery time of a message of `payload_bytes`:
    /// base latency + serialisation of payload + framing overhead,
    /// fragmenting if the protocol's payload limit requires it.
    pub fn transfer_time(&self, payload_bytes: usize) -> SimDuration {
        let frames = self.frames_for(payload_bytes);
        let total_bytes = payload_bytes + frames * self.protocol.frame_overhead_bytes();
        let rate = self.protocol.data_rate_bps() * self.efficiency;
        let serialisation = total_bytes as f64 * 8.0 / rate;
        SimDuration::from_secs_f64(
            self.protocol.base_latency_s() + self.extra_latency_s + serialisation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_transfer_is_sub_millisecond() {
        let l = Link::new(Protocol::EthernetLan);
        let t = l.transfer_time(1_000);
        assert!(t < SimDuration::MILLISECOND, "LAN 1 kB took {t}");
    }

    #[test]
    fn lora_sensor_reading_is_tenths_of_seconds() {
        let l = Link::new(Protocol::Lora);
        let t = l.transfer_time(20); // a compact sensor frame
        let ms = t.as_millis_f64();
        assert!(
            (80.0..300.0).contains(&ms),
            "LoRa 20 B took {ms} ms — should be ~0.1 s"
        );
    }

    #[test]
    fn sigfox_is_seconds_per_message() {
        let l = Link::new(Protocol::Sigfox);
        let t = l.transfer_time(12);
        assert!(t.as_secs_f64() > 2.0);
    }

    #[test]
    fn fragmentation_multiplies_overhead() {
        let l = Link::new(Protocol::Zigbee);
        assert_eq!(l.frames_for(50), 1);
        assert_eq!(l.frames_for(100), 1);
        assert_eq!(l.frames_for(101), 2);
        assert_eq!(l.frames_for(1000), 10);
        // 10 frames of overhead must make the big transfer disproportionately slower.
        let t1 = l.transfer_time(100).as_secs_f64();
        let t10 = l.transfer_time(1000).as_secs_f64();
        assert!(t10 > 8.0 * (t1 - Protocol::Zigbee.base_latency_s()));
    }

    #[test]
    fn zero_byte_message_still_costs_a_frame() {
        let l = Link::new(Protocol::Lora);
        assert_eq!(l.frames_for(0), 1);
        assert!(l.transfer_time(0) > SimDuration::from_millis(80));
    }

    #[test]
    fn efficiency_derates_throughput_not_latency() {
        let fast = Link::new(Protocol::Wifi);
        let slow = Link {
            efficiency: 0.5,
            ..fast
        };
        let big = 1_000_000;
        let t_fast = fast.transfer_time(big).as_secs_f64();
        let t_slow = slow.transfer_time(big).as_secs_f64();
        let base = Protocol::Wifi.base_latency_s();
        assert!(((t_slow - base) / (t_fast - base) - 2.0).abs() < 0.01);
    }

    #[test]
    fn extra_latency_adds_linearly() {
        let near = Link::new(Protocol::WanInternet);
        let far = Link::new(Protocol::WanInternet).with_extra_latency(0.080);
        let d = far.transfer_time(100) - near.transfer_time(100);
        assert!((d.as_secs_f64() - 0.080).abs() < 1e-9);
    }

    #[test]
    fn degradation_stretches_total_latency_and_derates_rate() {
        let l = Link::new(Protocol::Fiber).with_extra_latency(0.001);
        let d = l.degraded(Degradation {
            latency_factor: 2.0,
            bandwidth_factor: 0.5,
        });
        let fixed = Protocol::Fiber.base_latency_s() + 0.001;
        assert!(
            ((Protocol::Fiber.base_latency_s() + d.extra_latency_s) - 2.0 * fixed).abs() < 1e-12
        );
        assert!((d.efficiency - 0.5).abs() < 1e-12);
        assert!(d.transfer_time(1_000_000) > l.transfer_time(1_000_000));
    }

    #[test]
    fn identity_degradation_is_a_noop() {
        let l = Link::new(Protocol::WanInternet).with_extra_latency(0.022);
        let d = l.degraded(Degradation::none());
        assert_eq!(
            l.transfer_time(4_096).as_micros(),
            d.transfer_time(4_096).as_micros()
        );
    }

    #[test]
    #[should_panic]
    fn bandwidth_factor_above_one_is_rejected() {
        let _ = Link::new(Protocol::Fiber).degraded(Degradation {
            latency_factor: 1.0,
            bandwidth_factor: 1.5,
        });
    }

    #[test]
    fn edge_vs_cloud_order_of_magnitude() {
        // The paper's core latency claim: a local LAN round-trip beats a
        // WAN round-trip by an order of magnitude.
        let rtt = |p| 2.0 * Link::new(p).transfer_time(1_000).as_secs_f64();
        assert!(rtt(Protocol::WanInternet) > 10.0 * rtt(Protocol::EthernetLan));
    }
}
