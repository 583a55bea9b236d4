//! Structure-of-arrays batched room kernel — the district-scale fast path.
//!
//! [`super::room::Room`] integrates one 1R1C node exactly, but every
//! `step` call pays an `exp(-Δ/(R·C))` even though the platform ticks
//! thousands of rooms with the *same* Δ at every control period. A
//! [`ThermalBatch`] keeps the whole fleet's thermal state in dense
//! parallel `Vec<f64>` columns and caches the decay factor per room,
//! keyed by the Δ it was computed for: on a fixed control tick the
//! steady-state loop is a pure multiply–add sweep — no transcendentals,
//! no per-room structs, no allocation.
//!
//! The arithmetic is *identical* to [`super::room::Room::step`] —
//! `T ← T∞ + (T − T∞)·exp(−Δ/τ)` with `τ = R·C` and
//! `T∞ = T_out + R·(P_h + P_g)` — and `exp` is deterministic, so cached
//! and uncached steps agree **bit-for-bit**. The unit and property
//! tests below hold every entry point to that against per-room
//! `Room::step` calls.

use crate::room::RoomParams;
use simcore::time::SimDuration;

/// Dense batched thermal state for a fleet of 1R1C rooms.
#[derive(Debug, Clone, Default)]
pub struct ThermalBatch {
    /// Current temperature, °C.
    temp_c: Vec<f64>,
    /// Thermal resistance to outdoors, K/W.
    resistance: Vec<f64>,
    /// Constant internal free gains, W.
    gains_w: Vec<f64>,
    /// Time constant R·C, seconds (recomputed only when params change).
    tau_s: Vec<f64>,
    /// Cached decay factor `exp(-decay_dt_s / tau_s)`.
    decay: Vec<f64>,
    /// The Δ (seconds) the cached decay was computed for; NaN = dirty.
    decay_dt_s: Vec<f64>,
    /// Staged per-room step interval, seconds (0 = no step pending).
    dt_s: Vec<f64>,
    /// Staged per-room heater power, W.
    heater_w: Vec<f64>,
}

impl ThermalBatch {
    pub fn with_capacity(n: usize) -> Self {
        ThermalBatch {
            temp_c: Vec::with_capacity(n),
            resistance: Vec::with_capacity(n),
            gains_w: Vec::with_capacity(n),
            tau_s: Vec::with_capacity(n),
            decay: Vec::with_capacity(n),
            decay_dt_s: Vec::with_capacity(n),
            dt_s: Vec::with_capacity(n),
            heater_w: Vec::with_capacity(n),
        }
    }

    /// Add a room; returns its dense index.
    pub fn push(&mut self, params: RoomParams, initial_c: f64) -> usize {
        assert!(params.resistance_k_per_w > 0.0);
        assert!(params.capacitance_j_per_k > 0.0);
        let i = self.temp_c.len();
        self.temp_c.push(initial_c);
        self.resistance.push(params.resistance_k_per_w);
        self.gains_w.push(params.internal_gains_w);
        self.tau_s
            .push(params.resistance_k_per_w * params.capacitance_j_per_k);
        self.decay.push(1.0);
        self.decay_dt_s.push(f64::NAN);
        self.dt_s.push(0.0);
        self.heater_w.push(0.0);
        i
    }

    pub fn len(&self) -> usize {
        self.temp_c.len()
    }

    pub fn is_empty(&self) -> bool {
        self.temp_c.is_empty()
    }

    pub fn temperature_c(&self, i: usize) -> f64 {
        self.temp_c[i]
    }

    pub fn temperatures(&self) -> &[f64] {
        &self.temp_c
    }

    /// Overwrite a room's temperature (tests, scenario setup).
    pub fn set_temperature_c(&mut self, i: usize, c: f64) {
        self.temp_c[i] = c;
    }

    /// Whether `self` and `other` hold the same rooms with the same
    /// thermal parameters, bit for bit (temperatures and caches aside).
    pub fn same_rooms(&self, other: &ThermalBatch) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&self.resistance, &other.resistance)
            && same(&self.gains_w, &other.gains_w)
            && same(&self.tau_s, &other.tau_s)
    }

    /// Stage a pending step for room `i`: advance it by `dt` with
    /// heater power `heater_w` at the next [`ThermalBatch::step_staged`].
    #[inline]
    pub fn stage(&mut self, i: usize, dt: SimDuration, heater_w: f64) {
        debug_assert!(!dt.is_negative());
        assert!(heater_w >= 0.0, "heater power cannot be negative");
        self.dt_s[i] = dt.as_secs_f64();
        self.heater_w[i] = heater_w;
    }

    /// Step every staged room against a common outdoor temperature, in
    /// one sweep over the dense columns. Rooms with no staged Δ are
    /// untouched. Clears the staging buffers.
    pub fn step_staged(&mut self, outdoor_c: f64) {
        for i in 0..self.len() {
            let dt_s = self.dt_s[i];
            if dt_s <= 0.0 {
                continue;
            }
            self.dt_s[i] = 0.0;
            self.advance(i, dt_s, outdoor_c, self.heater_w[i]);
        }
    }

    /// Step a single room immediately (the off-cycle wake path). The
    /// per-room decay cache still applies, so a worker woken twice with
    /// the same Δ pays `exp` once. Returns the new temperature.
    pub fn step_one(&mut self, i: usize, dt: SimDuration, outdoor_c: f64, heater_w: f64) -> f64 {
        assert!(heater_w >= 0.0, "heater power cannot be negative");
        assert!(!dt.is_negative());
        let dt_s = dt.as_secs_f64();
        if dt_s > 0.0 {
            self.advance(i, dt_s, outdoor_c, heater_w);
        }
        self.temp_c[i]
    }

    /// The kernel every entry point shares: advance room `i` by
    /// `dt_s > 0` seconds at `heater_w`, mul-add only while Δ matches the
    /// cached decay.
    #[inline]
    fn advance(&mut self, i: usize, dt_s: f64, outdoor_c: f64, heater_w: f64) {
        if dt_s != self.decay_dt_s[i] {
            self.decay[i] = (-dt_s / self.tau_s[i]).exp();
            self.decay_dt_s[i] = dt_s;
        }
        let t_inf = outdoor_c + self.resistance[i] * (heater_w + self.gains_w[i]);
        self.temp_c[i] = t_inf + (self.temp_c[i] - t_inf) * self.decay[i];
    }
}

/// All eight columns checkpoint **verbatim** — including the decay
/// cache and its NaN "dirty" sentinels (`f64` travels as raw bits, so
/// NaN survives). Restoring mid-run must
/// not silently invalidate the cache: a recomputed `exp` is bit-equal
/// to the cached value, but keeping the bytes identical makes snapshot
/// equality checks exact rather than argued.
impl simcore::snapshot::Snapshot for ThermalBatch {
    fn encode(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        self.temp_c.encode(w);
        self.resistance.encode(w);
        self.gains_w.encode(w);
        self.tau_s.encode(w);
        self.decay.encode(w);
        self.decay_dt_s.encode(w);
        self.dt_s.encode(w);
        self.heater_w.encode(w);
    }

    fn decode(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        let temp_c = Vec::<f64>::decode(r)?;
        let resistance = Vec::<f64>::decode(r)?;
        let gains_w = Vec::<f64>::decode(r)?;
        let tau_s = Vec::<f64>::decode(r)?;
        let decay = Vec::<f64>::decode(r)?;
        let decay_dt_s = Vec::<f64>::decode(r)?;
        let dt_s = Vec::<f64>::decode(r)?;
        let heater_w = Vec::<f64>::decode(r)?;
        let n = temp_c.len();
        if [
            resistance.len(),
            gains_w.len(),
            tau_s.len(),
            decay.len(),
            decay_dt_s.len(),
            dt_s.len(),
            heater_w.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(simcore::snapshot::SnapshotError::Corrupt(
                "thermal batch: column lengths disagree".into(),
            ));
        }
        // What `push`, `stage` and the sweep can produce, and nothing
        // else: finite temperatures, positive parameters, non-negative
        // staged steps, and a decay cache that is dirty (NaN) or exact.
        let corrupt = |what: &str| {
            Err(simcore::snapshot::SnapshotError::Corrupt(format!(
                "thermal batch: {what}"
            )))
        };
        let positive = |v: &f64| v.is_finite() && *v > 0.0;
        let staged = |v: &f64| v.is_finite() && *v >= 0.0;
        if !temp_c.iter().all(|t| t.is_finite()) {
            return corrupt("non-finite room temperature");
        }
        if !(resistance.iter().all(positive)
            && tau_s.iter().all(positive)
            && gains_w.iter().all(|g| g.is_finite()))
        {
            return corrupt("bad room parameters");
        }
        if !(dt_s.iter().all(staged) && heater_w.iter().all(staged)) {
            return corrupt("bad staged step");
        }
        let cache_ok = (0..n).all(|i| {
            decay_dt_s[i].is_nan()
                || decay[i].to_bits() == (-decay_dt_s[i] / tau_s[i]).exp().to_bits()
        });
        if !cache_ok {
            return corrupt("decay cache disagrees with its interval");
        }
        Ok(ThermalBatch {
            temp_c,
            resistance,
            gains_w,
            tau_s,
            decay,
            decay_dt_s,
            dt_s,
            heater_w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::room::Room;
    use proptest::prelude::*;

    fn params(r: f64, c: f64, gains: f64) -> RoomParams {
        RoomParams {
            resistance_k_per_w: r,
            capacitance_j_per_k: c,
            internal_gains_w: gains,
        }
    }

    #[test]
    fn snapshot_roundtrip_continues_bit_identically() {
        use simcore::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
        let mut b = ThermalBatch::default();
        for i in 0..5 {
            b.push(params(0.005, 4.0e6, 100.0 + i as f64), 18.0 + i as f64);
        }
        // Warm the decay cache on some rooms, leave others dirty (NaN).
        for i in 0..3 {
            b.stage(i, SimDuration::from_secs(600), 500.0);
        }
        b.step_staged(-5.0);
        let mut w = SnapshotWriter::new();
        b.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = ThermalBatch::decode(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(back.temperatures(), b.temperatures());
        // Continue both: cached-decay and restored paths must agree to
        // the bit, across cached and dirty rooms alike.
        for step in 0..10 {
            for i in 0..5 {
                let dt = SimDuration::from_secs(if step % 3 == 0 { 600 } else { 900 });
                b.stage(i, dt, 250.0 * i as f64);
                back.stage(i, dt, 250.0 * i as f64);
            }
            b.step_staged(-2.0);
            back.step_staged(-2.0);
            for i in 0..5 {
                assert_eq!(
                    b.temperature_c(i).to_bits(),
                    back.temperature_c(i).to_bits(),
                    "room {i} diverged after restore"
                );
            }
        }
        for cut in 0..bytes.len() {
            assert!(ThermalBatch::decode(&mut SnapshotReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn decode_refuses_states_the_batch_cannot_reach() {
        use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
        let decode = |b: &ThermalBatch| {
            let mut w = SnapshotWriter::new();
            b.encode(&mut w);
            ThermalBatch::decode(&mut SnapshotReader::new(&w.into_bytes())).map(|b| b.len())
        };
        let corrupt = |what: &str| Err(SnapshotError::Corrupt(format!("thermal batch: {what}")));
        let mut b = ThermalBatch::default();
        b.push(params(0.005, 4.0e6, 100.0), 18.0);
        b.stage(0, SimDuration::from_secs(600), 500.0);
        b.step_staged(-5.0);
        assert_eq!(decode(&b), Ok(1));
        let mut hot = ThermalBatch::default();
        hot.push(params(0.005, 4.0e6, 100.0), f64::INFINITY);
        assert_eq!(decode(&hot), corrupt("non-finite room temperature"));
        let mut stale = ThermalBatch::default();
        stale.push(params(0.005, 4.0e6, 100.0), 18.0);
        stale.decay_dt_s[0] = 600.0; // cache claims an interval it never saw
        assert_eq!(
            decode(&stale),
            corrupt("decay cache disagrees with its interval")
        );
        assert!(b.same_rooms(&stale), "same parameters, other state");
        let mut other = ThermalBatch::default();
        other.push(params(0.006, 4.0e6, 100.0), 18.0);
        assert!(!b.same_rooms(&other));
    }

    #[test]
    fn batch_step_matches_room_step_bitwise() {
        let p = RoomParams::typical_apartment_room();
        let mut batch = ThermalBatch::default();
        let i = batch.push(p, 17.0);
        let mut room = Room::new(p, 17.0);
        let dt = SimDuration::from_secs(600);
        for k in 0..500 {
            let power = (k % 7) as f64 * 70.0;
            let outdoor = 5.0 + (k % 11) as f64;
            room.step(dt, outdoor, power);
            batch.step_one(i, dt, outdoor, power);
            assert_eq!(
                batch.temperature_c(i).to_bits(),
                room.temperature_c().to_bits(),
                "diverged at step {k}"
            );
        }
    }

    #[test]
    fn staged_sweep_matches_per_room_steps() {
        let mut a = ThermalBatch::default();
        let mut b = ThermalBatch::default();
        for i in 0..64 {
            let p = params(0.01 + i as f64 * 0.001, 1e6 + i as f64 * 1e4, 60.0);
            a.push(p, 14.0 + i as f64 * 0.1);
            b.push(p, 14.0 + i as f64 * 0.1);
        }
        let dt = SimDuration::from_secs(600);
        for k in 0..50 {
            let outdoor = -3.0 + k as f64 * 0.2;
            for i in 0..64 {
                let power = (i * k % 500) as f64;
                a.stage(i, dt, power);
                b.step_one(i, dt, outdoor, power);
            }
            a.step_staged(outdoor);
        }
        for i in 0..64 {
            assert_eq!(a.temperature_c(i).to_bits(), b.temperature_c(i).to_bits());
        }
    }

    #[test]
    fn zero_dt_is_identity() {
        let mut batch = ThermalBatch::default();
        let i = batch.push(RoomParams::typical_apartment_room(), 17.3);
        batch.step_one(i, SimDuration::ZERO, -10.0, 1000.0);
        assert_eq!(batch.temperature_c(i), 17.3);
        batch.stage(i, SimDuration::ZERO, 1000.0);
        batch.step_staged(-10.0);
        assert_eq!(batch.temperature_c(i), 17.3);
    }

    #[test]
    #[should_panic]
    fn negative_heater_power_panics() {
        let mut batch = ThermalBatch::default();
        let i = batch.push(RoomParams::typical_apartment_room(), 17.0);
        batch.step_one(i, SimDuration::HOUR, 5.0, -1.0);
    }

    proptest! {
        /// Batched kernel ≡ scalar `Room::step` over randomized R, C,
        /// gains, outdoor, heater power, and step count — bit-identical.
        #[test]
        fn prop_batch_equals_scalar_room(
            r in 0.005f64..0.08,
            c in 5e5f64..5e6,
            gains in 0.0f64..200.0,
            start in -5.0f64..35.0,
            outdoor in -20.0f64..35.0,
            powers in proptest::collection::vec(0.0f64..1500.0, 1..40),
            dt_secs in 1.0f64..86_400.0,
        ) {
            let p = params(r, c, gains);
            let mut batch = ThermalBatch::default();
            let i = batch.push(p, start);
            let mut room = Room::new(p, start);
            let dt = SimDuration::from_secs_f64(dt_secs);
            for &power in &powers {
                room.step(dt, outdoor, power);
                batch.step_one(i, dt, outdoor, power);
                prop_assert_eq!(
                    batch.temperature_c(i).to_bits(),
                    room.temperature_c().to_bits()
                );
            }
        }

        /// The decay cache must invalidate when Δ changes mid-run: steps
        /// alternate between two intervals and must still match the
        /// `Room::step` exactly.
        #[test]
        fn prop_decay_cache_survives_dt_changes(
            r in 0.005f64..0.08,
            c in 5e5f64..5e6,
            start in 0.0f64..30.0,
            outdoor in -15.0f64..30.0,
            dt_a in 1.0f64..7_200.0,
            dt_b in 1.0f64..7_200.0,
            flips in proptest::collection::vec(0u32..2, 2..30),
        ) {
            let p = params(r, c, 60.0);
            let mut batch = ThermalBatch::default();
            let i = batch.push(p, start);
            let mut room = Room::new(p, start);
            for (k, &flip) in flips.iter().enumerate() {
                let dt = SimDuration::from_secs_f64(if flip == 0 { dt_a } else { dt_b });
                let power = (k % 4) as f64 * 125.0;
                room.step(dt, outdoor, power);
                batch.step_one(i, dt, outdoor, power);
                prop_assert_eq!(
                    batch.temperature_c(i).to_bits(),
                    room.temperature_c().to_bits()
                );
            }
        }

        /// Staged sweeps with heterogeneous per-room Δ match per-room
        /// scalar stepping (the mixed wake-path + control-tick case).
        #[test]
        fn prop_staged_sweep_with_mixed_dt(
            n in 1usize..50,
            outdoor in -15.0f64..30.0,
            dt_base in 60.0f64..3_600.0,
        ) {
            let mut batch = ThermalBatch::default();
            let mut rooms = Vec::new();
            for i in 0..n {
                let p = params(0.01 + (i % 9) as f64 * 0.005, 1e6 + (i % 5) as f64 * 3e5, 60.0);
                let t0 = 13.0 + i as f64 * 0.3;
                batch.push(p, t0);
                rooms.push(Room::new(p, t0));
            }
            for round in 0..4u64 {
                for (i, room) in rooms.iter_mut().enumerate() {
                    // Some rooms skip a round (dt accumulates), like
                    // workers woken off-cycle.
                    if (i as u64 + round).is_multiple_of(3) && round != 3 {
                        continue;
                    }
                    let mult = 1 + (i as u64 + round) % 3;
                    let dt = SimDuration::from_secs_f64(dt_base * mult as f64);
                    let power = ((i as u64 * 97 + round * 31) % 500) as f64;
                    batch.stage(i, dt, power);
                    room.step(dt, outdoor, power);
                }
                batch.step_staged(outdoor);
            }
            for (i, room) in rooms.iter().enumerate() {
                prop_assert_eq!(
                    batch.temperature_c(i).to_bits(),
                    room.temperature_c().to_bits()
                );
            }
        }
    }
}
