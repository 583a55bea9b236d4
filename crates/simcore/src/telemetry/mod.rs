//! Flight-recorder telemetry and wall-clock phase profiling.
//!
//! The observability layer of the framework, in three pieces:
//!
//! - [`recorder`]: a capped ring-buffer **flight recorder** of typed,
//!   tag-interned simulation events and sim-time spans. Week-long
//!   district runs keep the last N events without ballooning; disabled
//!   recorders cost one branch per call site.
//! - [`profiler`]: a **phase profiler** accumulating wall-clock
//!   histograms for the engine's hot-loop phases (event pop, dispatch,
//!   thermal staging, …) through RAII guards or start/stop tokens.
//! - [`export`]: format back-ends shared by the run exporters — JSON
//!   escaping, Chrome trace-event JSON (Perfetto-loadable), Prometheus
//!   text exposition, and a dependency-free JSON validator used by the
//!   exporter tests and the CI telemetry leg.
//!
//! ## Inertness contract
//!
//! Telemetry must never perturb a simulation: nothing here draws from
//! any RNG, touches simulation state, or feeds back into scheduling.
//! A disabled [`FlightRecorder`]/[`PhaseProfiler`] reduces every call
//! to a single branch, and an enabled one only *observes* — platform
//! results are bit-identical either way (property-tested downstream).

pub mod export;
pub mod profiler;
pub mod recorder;

pub use profiler::{Phase, PhaseAcc, PhaseGuard, PhaseProfiler, PhaseTimer, HOT_PHASE_STRIDE};
pub use recorder::{FieldSet, FlightRecorder, TagId, TelemetryEvent, Track, Value, MAX_FIELDS};

/// Ring-buffer capacity of an enabled flight recorder: the last N
/// events are kept, older ones are overwritten and counted as dropped.
/// It keeps the ring's working set a few MB, so steady-state recording
/// stays cache-resident.
pub const RING_CAPACITY: usize = 1 << 14;

/// The run-time telemetry switch (embedded in downstream platform
/// configs; the default is disabled, the bit-identical mode).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetryConfig {
    /// Master switch: flight recorder (with per-job spans) + phase
    /// profiler.
    pub enabled: bool,
}

crate::impl_snapshot!(TelemetryConfig { enabled });

/// The bundle a model carries through a run: one flight recorder plus
/// the phase profiler collected from the engine afterwards.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    pub recorder: FlightRecorder,
    pub profiler: PhaseProfiler,
}

impl Telemetry {
    pub fn from_config(cfg: TelemetryConfig) -> Self {
        Telemetry {
            recorder: if cfg.enabled {
                FlightRecorder::enabled(RING_CAPACITY)
            } else {
                FlightRecorder::disabled()
            },
            profiler: PhaseProfiler::disabled(),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let c = TelemetryConfig::default();
        assert!(!c.enabled);
        assert!(!Telemetry::from_config(c).is_enabled());
    }
}
