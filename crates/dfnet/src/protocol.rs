//! The protocol catalogue.
//!
//! Rates and latencies are representative figures for each technology,
//! chosen at the orders of magnitude that drive the paper's arguments:
//! a LoRa uplink is ~5 orders of magnitude slower than the fiber that
//! connects a Q.rad to the Qarnot middleware.

/// A communication technology with first-order performance parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Metro optic fiber (DF server ↔ middleware, per the paper).
    Fiber,
    /// In-building Gigabit Ethernet LAN.
    EthernetLan,
    /// 10 GbE (Asperitas boiler interconnect).
    Ethernet10G,
    /// Residential broadband (ADSL/cable class).
    HomeBroadband,
    /// In-building WiFi.
    Wifi,
    /// IEEE 802.15.4 / Zigbee.
    Zigbee,
    /// LoRaWAN (SF7-class uplink).
    Lora,
    /// Sigfox ultra-narrow-band.
    Sigfox,
    /// EnOcean energy-harvesting radio.
    Enocean,
    /// Wide-area Internet path to a remote cloud datacenter.
    WanInternet,
}

impl Protocol {
    /// Usable data rate, bits per second.
    pub fn data_rate_bps(&self) -> f64 {
        match self {
            Protocol::Fiber => 1e9,
            Protocol::EthernetLan => 1e9,
            Protocol::Ethernet10G => 10e9,
            Protocol::HomeBroadband => 20e6,
            Protocol::Wifi => 100e6,
            Protocol::Zigbee => 250e3,
            Protocol::Lora => 5.5e3,
            Protocol::Sigfox => 100.0,
            Protocol::Enocean => 125e3,
            Protocol::WanInternet => 100e6,
        }
    }

    /// One-way base latency (propagation + access + stack), seconds.
    pub fn base_latency_s(&self) -> f64 {
        match self {
            Protocol::Fiber => 1.5e-3,
            Protocol::EthernetLan => 0.2e-3,
            Protocol::Ethernet10G => 0.05e-3,
            Protocol::HomeBroadband => 12e-3,
            Protocol::Wifi => 3e-3,
            Protocol::Zigbee => 8e-3,
            Protocol::Lora => 80e-3,
            Protocol::Sigfox => 2.0,
            Protocol::Enocean => 5e-3,
            Protocol::WanInternet => 20e-3,
        }
    }

    /// Maximum application payload per frame, bytes (`None` = unlimited
    /// for our purposes; large transfers are fragmented transparently).
    pub fn max_payload_bytes(&self) -> Option<usize> {
        match self {
            Protocol::Zigbee => Some(100),
            Protocol::Lora => Some(222),
            Protocol::Sigfox => Some(12),
            Protocol::Enocean => Some(14),
            _ => None,
        }
    }

    /// Per-frame protocol overhead, bytes.
    pub fn frame_overhead_bytes(&self) -> usize {
        match self {
            Protocol::Zigbee => 27,
            Protocol::Lora => 13,
            Protocol::Sigfox => 14,
            Protocol::Enocean => 7,
            Protocol::WanInternet | Protocol::HomeBroadband => 40,
            _ => 18,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_span_the_expected_orders_of_magnitude() {
        assert!(Protocol::Fiber.data_rate_bps() / Protocol::Lora.data_rate_bps() > 1e5);
        assert!(Protocol::Sigfox.data_rate_bps() < 1e3);
        assert!(
            Protocol::Ethernet10G.data_rate_bps() == 10.0 * Protocol::EthernetLan.data_rate_bps()
        );
    }

    #[test]
    fn constrained_payloads() {
        assert_eq!(Protocol::Sigfox.max_payload_bytes(), Some(12));
        assert_eq!(Protocol::Lora.max_payload_bytes(), Some(222));
        assert_eq!(Protocol::Fiber.max_payload_bytes(), None);
    }

    #[test]
    fn wan_slower_than_lan() {
        assert!(
            Protocol::WanInternet.base_latency_s() > Protocol::EthernetLan.base_latency_s() * 10.0
        );
    }
}
