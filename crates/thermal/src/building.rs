//! Multi-room buildings and collaborative heating requests.
//!
//! §II-C distinguishes **individual** heating requests ("this server
//! should hold 20 °C") from **collaborative** ones ("the *mean*
//! temperature of the rooms of this apartment should be 20 °C"). A
//! [`Building`] groups rooms and implements the collaborative control
//! policy: given a mean-temperature target, it distributes heat demand
//! across rooms proportionally to each room's deficit, so the coldest
//! rooms claim heat first.

use crate::room::{Room, RoomParams};
use simcore::time::SimDuration;

/// A collaborative target over a group of rooms (§II-C).
#[derive(Debug, Clone, Copy)]
pub struct CollaborativeTarget {
    /// Desired mean temperature across the group, °C.
    pub mean_c: f64,
    /// Demand saturates when the mean deficit reaches this gap, K.
    pub full_demand_gap_k: f64,
}

impl CollaborativeTarget {
    pub fn new(mean_c: f64) -> Self {
        CollaborativeTarget {
            mean_c,
            full_demand_gap_k: 1.5,
        }
    }
}

/// A building: rooms with one DF heater slot each.
#[derive(Debug, Clone)]
pub struct Building {
    rooms: Vec<Room>,
    /// Maximum heater power available in each room, W.
    heater_max_w: Vec<f64>,
    /// Reusable power buffer for [`Building::control_step`] — control
    /// ticks must not allocate.
    scratch_powers: Vec<f64>,
}

impl Building {
    pub fn new() -> Self {
        Building {
            rooms: Vec::new(),
            heater_max_w: Vec::new(),
            scratch_powers: Vec::new(),
        }
    }

    /// A building of `n` identical rooms, each with a `heater_w`-watt
    /// heater (500 W = one Q.rad).
    pub fn uniform(n: usize, params: RoomParams, initial_c: f64, heater_w: f64) -> Self {
        let mut b = Building::new();
        for _ in 0..n {
            b.add_room(Room::new(params, initial_c), heater_w);
        }
        b
    }

    pub fn add_room(&mut self, room: Room, heater_max_w: f64) {
        assert!(heater_max_w >= 0.0);
        self.rooms.push(room);
        self.heater_max_w.push(heater_max_w);
    }

    pub fn n_rooms(&self) -> usize {
        self.rooms.len()
    }

    pub fn room(&self, i: usize) -> &Room {
        &self.rooms[i]
    }

    pub fn heater_max_w(&self, i: usize) -> f64 {
        self.heater_max_w[i]
    }

    /// Mean temperature across rooms.
    pub fn mean_temperature_c(&self) -> f64 {
        assert!(!self.rooms.is_empty(), "building has no rooms");
        self.rooms.iter().map(|r| r.temperature_c()).sum::<f64>() / self.rooms.len() as f64
    }

    /// Coldest room temperature.
    pub fn min_temperature_c(&self) -> f64 {
        self.rooms
            .iter()
            .map(|r| r.temperature_c())
            .fold(f64::INFINITY, f64::min)
    }

    /// Compute per-room heater power (W) for a collaborative target:
    /// total demand is proportional to the mean deficit, distributed
    /// over rooms by their individual deficits (coldest-first weighting),
    /// each clamped to its heater capacity.
    pub fn collaborative_powers(&self, target: CollaborativeTarget) -> Vec<f64> {
        let mut powers = Vec::new();
        self.collaborative_powers_into(target, &mut powers);
        powers
    }

    /// Allocation-free core of [`Building::collaborative_powers`]:
    /// writes into a caller-supplied buffer (cleared and resized in
    /// place — no allocation once the buffer has reached room count).
    /// Per-room deficits and headroom are recomputed inline rather than
    /// materialised, so the only storage is the output itself.
    pub fn collaborative_powers_into(&self, target: CollaborativeTarget, powers: &mut Vec<f64>) {
        assert!(!self.rooms.is_empty());
        let n = self.rooms.len();
        powers.clear();
        powers.resize(n, 0.0);
        let mean = self.mean_temperature_c();
        let overall = ((target.mean_c - mean) / target.full_demand_gap_k).clamp(0.0, 1.0);
        if overall == 0.0 {
            return;
        }
        // Per-room weight: the room's own deficit (zero-floored so
        // already-warm rooms claim nothing).
        let deficit = |r: &Room| (target.mean_c - r.temperature_c()).max(0.0);
        let total_deficit: f64 = self.rooms.iter().map(deficit).sum();
        let total_capacity: f64 = self.heater_max_w.iter().sum();
        let total_power = overall * total_capacity;
        if total_deficit <= f64::EPSILON {
            // Mean is below target but no individual room is: spread evenly.
            for (p, &cap) in powers.iter_mut().zip(&self.heater_max_w) {
                *p = (total_power / n as f64).min(cap);
            }
            return;
        }
        // First pass: proportional share; clamp and redistribute once
        // (single redistribution is enough for the accuracy we need —
        // leftover capacity goes to still-unclamped rooms pro rata).
        for ((p, room), &cap) in powers.iter_mut().zip(&self.rooms).zip(&self.heater_max_w) {
            *p = (total_power * deficit(room) / total_deficit).min(cap);
        }
        let assigned: f64 = powers.iter().sum();
        let leftover = total_power - assigned;
        if leftover > 1.0 {
            // Redistribute only to rooms that are themselves below the
            // target — never push heat into an already-warm room.
            let headroom = |p: f64, room: &Room, cap: f64| {
                if deficit(room) > 0.0 {
                    cap - p
                } else {
                    0.0
                }
            };
            let total_headroom: f64 = powers
                .iter()
                .zip(self.rooms.iter().zip(&self.heater_max_w))
                .map(|(&p, (room, &cap))| headroom(p, room, cap))
                .sum();
            if total_headroom > 0.0 {
                for (p, (room, &cap)) in powers
                    .iter_mut()
                    .zip(self.rooms.iter().zip(&self.heater_max_w))
                {
                    *p += leftover.min(total_headroom) * headroom(*p, room, cap) / total_headroom;
                }
            }
        }
    }

    /// One full collaborative control tick — compute the power split and
    /// advance every room — reusing the building's own scratch buffer,
    /// so steady-state ticks perform **zero** heap allocations. Returns
    /// the total heat delivered, W.
    pub fn control_step(
        &mut self,
        dt: SimDuration,
        outdoor_c: f64,
        target: CollaborativeTarget,
    ) -> f64 {
        let mut powers = std::mem::take(&mut self.scratch_powers);
        self.collaborative_powers_into(target, &mut powers);
        self.step(dt, outdoor_c, &powers);
        let total = Self::total_power_w(&powers);
        self.scratch_powers = powers;
        total
    }

    /// Advance every room by `dt` with the given per-room heater powers.
    pub fn step(&mut self, dt: SimDuration, outdoor_c: f64, powers: &[f64]) {
        assert_eq!(powers.len(), self.rooms.len(), "power vector size mismatch");
        for (room, (&p, &cap)) in self
            .rooms
            .iter_mut()
            .zip(powers.iter().zip(&self.heater_max_w))
        {
            assert!(p <= cap + 1e-9, "heater power {p} exceeds capacity {cap}");
            room.step(dt, outdoor_c, p);
        }
    }

    /// Total heat delivered for a power vector, W.
    pub fn total_power_w(powers: &[f64]) -> f64 {
        powers.iter().sum()
    }
}

impl Default for Building {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn building() -> Building {
        Building::uniform(4, RoomParams::typical_apartment_room(), 16.0, 500.0)
    }

    #[test]
    fn mean_and_min_temperature() {
        let mut b = Building::new();
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 18.0), 500.0);
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 22.0), 500.0);
        assert!((b.mean_temperature_c() - 20.0).abs() < 1e-12);
        assert_eq!(b.min_temperature_c(), 18.0);
    }

    #[test]
    fn collaborative_control_reaches_mean_target() {
        let mut b = building();
        let target = CollaborativeTarget::new(20.0);
        let dt = SimDuration::MINUTE * 10;
        for _ in 0..(6 * 24 * 10) {
            let powers = b.collaborative_powers(target);
            b.step(dt, 5.0, &powers);
        }
        // A proportional controller carries a steady-state droop bounded
        // by the full-demand gap (1.5 K); the mean must sit within it.
        let mean = b.mean_temperature_c();
        assert!(
            (18.4..20.5).contains(&mean),
            "collaborative mean {mean} should approach 20 within the droop band"
        );
    }

    #[test]
    fn coldest_room_gets_more_heat() {
        // Keep overall demand below saturation so the proportional split
        // is visible (mean 19.5 → overall demand 1/3).
        let mut b = Building::new();
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 19.0), 500.0);
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 19.8), 500.0);
        let powers = b.collaborative_powers(CollaborativeTarget::new(20.0));
        assert!(
            powers[0] > powers[1],
            "colder room must receive more power: {powers:?}"
        );
    }

    #[test]
    fn no_demand_when_warm() {
        let mut b = Building::new();
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 23.0), 500.0);
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 22.0), 500.0);
        let powers = b.collaborative_powers(CollaborativeTarget::new(20.0));
        assert!(powers.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn powers_respect_capacity() {
        let mut b = Building::new();
        b.add_room(Room::new(RoomParams::leaky_room(), 5.0), 500.0);
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 19.9), 500.0);
        let powers = b.collaborative_powers(CollaborativeTarget::new(21.0));
        for (i, &p) in powers.iter().enumerate() {
            assert!(
                p <= 500.0 + 1e-9,
                "room {i} power {p} exceeds Q.rad capacity"
            );
            assert!(p >= 0.0);
        }
    }

    #[test]
    fn mixed_deficit_rooms_share_without_overshoot() {
        // One room above target, one far below; only the cold one should heat.
        let mut b = Building::new();
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 24.0), 500.0);
        b.add_room(Room::new(RoomParams::typical_apartment_room(), 14.0), 500.0);
        let powers = b.collaborative_powers(CollaborativeTarget::new(20.0));
        assert_eq!(powers[0], 0.0, "warm room must not heat");
        assert!(powers[1] > 0.0);
    }

    #[test]
    fn control_step_matches_manual_loop() {
        // The zero-alloc control_step must be bit-identical to the
        // allocating collaborative_powers + step sequence.
        let mut fast = building();
        let mut slow = building();
        let target = CollaborativeTarget::new(20.0);
        let dt = SimDuration::MINUTE * 10;
        for k in 0..500 {
            let outdoor = -2.0 + (k % 13) as f64;
            let delivered = fast.control_step(dt, outdoor, target);
            let powers = slow.collaborative_powers(target);
            slow.step(dt, outdoor, &powers);
            assert_eq!(
                delivered.to_bits(),
                Building::total_power_w(&powers).to_bits()
            );
            for i in 0..slow.n_rooms() {
                assert_eq!(
                    fast.room(i).temperature_c().to_bits(),
                    slow.room(i).temperature_c().to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn step_rejects_wrong_power_vector() {
        let mut b = building();
        b.step(SimDuration::MINUTE, 5.0, &[0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn step_rejects_power_above_capacity() {
        let mut b = building();
        b.step(SimDuration::MINUTE, 5.0, &[600.0, 0.0, 0.0, 0.0]);
    }
}
