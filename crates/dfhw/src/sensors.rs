//! The Q.rad sensor board.
//!
//! §II-B: "Q.rads also include several sensors, interfaces and actuators
//! for humidity, temperature, noises, wireless charge, light etc." These
//! sensors are what make a digital heater an *edge device* and not just
//! a heater: the in-situ ML workload of Durand et al. [11] (alarm-sound
//! detection, experiment E11) reads them. Readings carry calibrated
//! Gaussian measurement noise and quantisation.

use rand::Rng;
use simcore::dist::normal;

/// Kinds of sensor on the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Air temperature, °C.
    Temperature,
    /// Relative humidity, %.
    Humidity,
    /// Sound pressure level, dB(A).
    Noise,
    /// Illuminance, lux.
    Light,
    /// Passive-infrared presence (0 or 1).
    Presence,
    /// CO₂ concentration, ppm.
    Co2,
}

impl SensorKind {
    /// Measurement noise standard deviation in the sensor's unit.
    pub fn noise_std(&self) -> f64 {
        match self {
            SensorKind::Temperature => 0.2,
            SensorKind::Humidity => 1.5,
            SensorKind::Noise => 0.8,
            SensorKind::Light => 8.0,
            SensorKind::Presence => 0.0,
            SensorKind::Co2 => 25.0,
        }
    }

    /// Quantisation step of the ADC/driver in the sensor's unit.
    pub fn quantum(&self) -> f64 {
        match self {
            SensorKind::Temperature => 0.1,
            SensorKind::Humidity => 0.5,
            SensorKind::Noise => 0.5,
            SensorKind::Light => 1.0,
            SensorKind::Presence => 1.0,
            SensorKind::Co2 => 1.0,
        }
    }

    /// Physical range the sensor clamps to.
    pub fn range(&self) -> (f64, f64) {
        match self {
            SensorKind::Temperature => (-20.0, 60.0),
            SensorKind::Humidity => (0.0, 100.0),
            SensorKind::Noise => (20.0, 120.0),
            SensorKind::Light => (0.0, 20_000.0),
            SensorKind::Presence => (0.0, 1.0),
            SensorKind::Co2 => (300.0, 5_000.0),
        }
    }
}

/// A single sensor instance.
#[derive(Debug, Clone, Copy)]
pub struct Sensor {
    pub kind: SensorKind,
}

impl Sensor {
    pub fn new(kind: SensorKind) -> Self {
        Sensor { kind }
    }

    /// Produce a reading of the true value: noise, quantisation, clamping.
    pub fn read<R: Rng + ?Sized>(&self, rng: &mut R, true_value: f64) -> f64 {
        let (lo, hi) = self.kind.range();
        let noisy = normal(rng, true_value, self.kind.noise_std());
        let q = self.kind.quantum();
        let quantised = (noisy / q).round() * q;
        quantised.clamp(lo, hi)
    }
}

/// The standard Q.rad board: one of each sensor kind.
#[derive(Debug, Clone)]
pub struct SensorBoard {
    sensors: Vec<Sensor>,
}

impl SensorBoard {
    pub fn qrad_board() -> Self {
        SensorBoard {
            sensors: vec![
                Sensor::new(SensorKind::Temperature),
                Sensor::new(SensorKind::Humidity),
                Sensor::new(SensorKind::Noise),
                Sensor::new(SensorKind::Light),
                Sensor::new(SensorKind::Presence),
                Sensor::new(SensorKind::Co2),
            ],
        }
    }

    pub fn sensor(&self, kind: SensorKind) -> Option<&Sensor> {
        self.sensors.iter().find(|s| s.kind == kind)
    }

    pub fn kinds(&self) -> impl Iterator<Item = SensorKind> + '_ {
        self.sensors.iter().map(|s| s.kind)
    }

    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RngStreams;

    fn rng() -> rand_chacha::ChaCha8Rng {
        RngStreams::new(11).stream("sensors")
    }

    #[test]
    fn temperature_reading_is_near_truth() {
        let s = Sensor::new(SensorKind::Temperature);
        let mut r = rng();
        let mut sum = 0.0;
        for _ in 0..1000 {
            sum += s.read(&mut r, 20.3);
        }
        let mean = sum / 1000.0;
        assert!((mean - 20.3).abs() < 0.05, "mean reading {mean}");
    }

    #[test]
    fn readings_are_quantised() {
        let s = Sensor::new(SensorKind::Temperature);
        let mut r = rng();
        for _ in 0..100 {
            let v = s.read(&mut r, 21.234);
            let steps = v / 0.1;
            assert!((steps - steps.round()).abs() < 1e-9, "{v} not on 0.1 grid");
        }
    }

    #[test]
    fn readings_clamp_to_range() {
        let s = Sensor::new(SensorKind::Humidity);
        let mut r = rng();
        for _ in 0..100 {
            let v = s.read(&mut r, 150.0);
            assert!(v <= 100.0);
        }
    }

    #[test]
    fn presence_is_binary_and_noiseless() {
        let s = Sensor::new(SensorKind::Presence);
        let mut r = rng();
        assert_eq!(s.read(&mut r, 1.0), 1.0);
        assert_eq!(s.read(&mut r, 0.0), 0.0);
    }

    #[test]
    fn qrad_board_has_paper_sensors() {
        let b = SensorBoard::qrad_board();
        assert!(b.sensor(SensorKind::Temperature).is_some());
        assert!(b.sensor(SensorKind::Humidity).is_some());
        assert!(b.sensor(SensorKind::Noise).is_some());
        assert!(b.sensor(SensorKind::Light).is_some());
        assert_eq!(b.len(), 6);
    }
}
