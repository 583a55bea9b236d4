//! The future-event list: a priority queue ordered by time with a
//! **stable FIFO tie-break** — two events scheduled for the same instant
//! fire in the order they were scheduled. This is what makes simulations
//! deterministic regardless of heap internals.
//!
//! ## The slab + generation-tag scheme
//!
//! The queue is split into two structures:
//!
//! - a **slab** of payload slots, recycled through a free list, and
//! - a 4-ary min-heap of small `Copy` entries `(time, seq, slot, gen)`
//!   (wider nodes halve sift depth and keep sibling comparisons inside
//!   one or two cache lines).
//!
//! Every slot carries a **generation counter**. An [`EventId`] packs
//! `(slot, generation)`; the id is *live* only while its generation
//! matches the slot's. Cancellation bumps the slot's generation — O(1),
//! no hashing, no heap surgery — which simultaneously invalidates the
//! buried heap entry and returns the slot to the free list. [`pop`] and
//! [`peek_time`] skip stale entries lazily by comparing generations, so
//! a cancelled event costs one heap pop when its time comes, nothing
//! more. Compared with the previous `BinaryHeap` + two `HashSet<u64>`
//! side tables, every schedule/pop/cancel saves two hash lookups and the
//! heap sifts move 24-byte entries instead of full payloads.
//!
//! Generation counters are 32-bit: an id could only alias after a single
//! slot is cancelled-and-reused 2³² times while one stale heap entry for
//! it stays buried, which cannot happen inside one simulation run (the
//! heap would hold 2³² entries).
//!
//! ## Determinism guarantee
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotone
//! schedule-order counter. Slot assignment, free-list order, and
//! generation values never influence pop order, so the event sequence is
//! a pure function of the schedule/cancel call sequence — bit-identical
//! across runs, platforms, and queue implementations. The previous
//! implementation survives only in the tests, as the oracle the
//! order-equivalence test compares the slab queue against.
//!
//! [`pop`]: EventQueue::pop
//! [`peek_time`]: EventQueue::peek_time

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs `(slot, generation)`; stale handles (fired or cancelled events)
/// are recognised and rejected in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(slot: u32, gen: u32) -> EventId {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

crate::impl_snapshot! {
    /// Ids checkpoint as their packed `(slot, generation)` word, so
    /// handles a model holds across a snapshot stay live after restore.
    EventId(0)
}

/// A heap entry: 24 bytes, `Copy`, payload left behind in the slab.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl HeapEntry {
    /// Strict min-order on `(time, seq)` — unique by construction, so
    /// the heap's pop order is a total order independent of layout.
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// A 4-ary min-heap of [`HeapEntry`]s. A wider node shrinks sift depth
/// (log₄ vs log₂) and keeps all four children in one or two cache lines
/// of the 24-byte entries — measurably faster than `std::BinaryHeap` at
/// the few-thousand-entry depths a platform run sustains.
struct MinHeap4 {
    v: Vec<HeapEntry>,
}

impl MinHeap4 {
    const ARITY: usize = 4;

    fn with_capacity(n: usize) -> Self {
        MinHeap4 {
            v: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn peek(&self) -> Option<&HeapEntry> {
        self.v.first()
    }

    fn push(&mut self, e: HeapEntry) {
        // Hole-based sift-up: keep `e` in a register, shift losing
        // parents down, write the entry once at its final position.
        let mut i = self.v.len();
        self.v.push(e);
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if e.before(&self.v[parent]) {
                self.v[i] = self.v[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.v[i] = e;
    }

    fn pop(&mut self) -> Option<HeapEntry> {
        let last = self.v.pop()?;
        if self.v.is_empty() {
            return Some(last);
        }
        let top = self.v[0];
        // Hole-based sift-down of the displaced last element: promote
        // the smallest child into the hole until `last` wins.
        let n = self.v.len();
        let mut i = 0;
        loop {
            let first_child = i * Self::ARITY + 1;
            if first_child >= n {
                break;
            }
            let end = (first_child + Self::ARITY).min(n);
            let mut min = first_child;
            let mut min_e = self.v[first_child];
            for c in first_child + 1..end {
                let e = self.v[c];
                if e.before(&min_e) {
                    min = c;
                    min_e = e;
                }
            }
            if min_e.before(&last) {
                self.v[i] = min_e;
                i = min;
            } else {
                break;
            }
        }
        self.v[i] = last;
        Some(top)
    }
}

/// A payload slot in the slab.
struct Slot<E> {
    /// Current generation; an [`EventId`] is live iff its generation
    /// matches.
    gen: u32,
    payload: Option<E>,
}

/// The engine's deterministic future-event list (slab-backed; see
/// module docs).
pub struct EventQueue<E> {
    heap: MinHeap4,
    slots: Vec<Slot<E>>,
    /// Indices of vacant slots, reused LIFO for cache warmth.
    free: Vec<u32>,
    next_seq: u64,
    /// Live (scheduled, not cancelled, not fired) events.
    live: usize,
    /// High-water mark of `live` over the queue's lifetime.
    peak_live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: MinHeap4::with_capacity(0),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            peak_live: 0,
        }
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of concurrently pending events.
    pub fn peak_depth(&self) -> usize {
        self.peak_live
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Panics if `time` is `SimTime::MAX` (reserved as "never").
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(time < SimTime::MAX, "cannot schedule at SimTime::MAX");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                debug_assert!(entry.payload.is_none());
                entry.payload = Some(payload);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapEntry {
            time,
            seq,
            slot,
            gen,
        });
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        EventId::pack(slot, gen)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. this call actually removed it). O(1): the
    /// slot's generation is bumped, orphaning the buried heap entry.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot() as usize;
        if slot >= self.slots.len() {
            return false;
        }
        let entry = &mut self.slots[slot];
        if entry.gen != id.generation() || entry.payload.is_none() {
            return false;
        }
        entry.payload = None;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
        true
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_stale();
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let e = self.heap.pop()?;
            let slot = &mut self.slots[e.slot as usize];
            if slot.gen != e.gen {
                continue; // stale: cancelled (or recycled) since scheduling
            }
            let payload = slot.payload.take().expect("live slot had no payload");
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(e.slot);
            self.live -= 1;
            return Some((e.time, payload));
        }
    }

    /// Every live event as `(id, time, payload)`, in heap-array order.
    pub fn live(&self) -> impl Iterator<Item = (EventId, SimTime, &E)> {
        self.heap.v.iter().filter_map(|e| {
            let slot = &self.slots[e.slot as usize];
            let payload = slot.payload.as_ref().filter(|_| slot.gen == e.gen)?;
            Some((EventId::pack(e.slot, e.gen), e.time, payload))
        })
    }

    /// Drop stale heap entries at the top so `peek` sees a live event.
    fn skip_stale(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.slots[top.slot as usize].gen == top.gen {
                break;
            }
            self.heap.pop();
        }
    }
}

/// Checkpoints the queue **verbatim** — heap array layout, slab slots,
/// generation counters, free-list order, sequence counter. Heap layout
/// is itself a deterministic function of the schedule/cancel/pop call
/// sequence, so the byte image is reproducible, and a verbatim restore
/// keeps every outstanding [`EventId`] live with its exact generation
/// while future slot assignments (hence future ids) match the
/// uninterrupted run.
impl<E: Snapshot> Snapshot for EventQueue<E> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.heap.v.len() as u64);
        for e in &self.heap.v {
            e.time.encode(w);
            w.put_u64(e.seq);
            w.put_u32(e.slot);
            w.put_u32(e.gen);
        }
        w.put_u64(self.slots.len() as u64);
        for s in &self.slots {
            w.put_u32(s.gen);
            s.payload.encode(w);
        }
        self.free.encode(w);
        w.put_u64(self.next_seq);
        w.put_usize(self.live);
        w.put_usize(self.peak_live);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let hn = r.take_len()?;
        let mut heap = MinHeap4::with_capacity(hn.min(1 << 20));
        for _ in 0..hn {
            let time = SimTime::decode(r)?;
            let seq = r.take_u64()?;
            let slot = r.take_u32()?;
            let gen = r.take_u32()?;
            heap.v.push(HeapEntry {
                time,
                seq,
                slot,
                gen,
            });
        }
        let sn = r.take_len()?;
        let mut slots = Vec::with_capacity(sn.min(1 << 20));
        for _ in 0..sn {
            let gen = r.take_u32()?;
            let payload = Option::<E>::decode(r)?;
            slots.push(Slot { gen, payload });
        }
        let free = Vec::<u32>::decode(r)?;
        let next_seq = r.take_u64()?;
        let live = r.take_usize()?;
        let peak_live = r.take_usize()?;
        let occupied = slots.iter().filter(|s| s.payload.is_some()).count();
        if occupied != live {
            return Err(SnapshotError::Corrupt(format!(
                "event queue: {occupied} occupied slots but live count {live}"
            )));
        }
        if heap.v.iter().any(|e| e.slot as usize >= slots.len())
            || free.iter().any(|&f| f as usize >= slots.len())
        {
            return Err(SnapshotError::Corrupt(
                "event queue: slot index out of range".into(),
            ));
        }
        let corrupt = |what: &str| Err(SnapshotError::Corrupt(format!("event queue: {what}")));
        let v = &heap.v;
        if (1..v.len()).any(|i| v[i].before(&v[(i - 1) / MinHeap4::ARITY])) {
            return corrupt("heap order broken");
        }
        if v.iter().any(|e| e.seq >= next_seq) {
            return corrupt("sequence counter behind a queued event");
        }
        // Each occupied slot is the target of exactly one heap entry of
        // its generation, and every other slot is on the free list once.
        let mut seen = vec![false; slots.len()];
        for e in v {
            let slot = &slots[e.slot as usize];
            if slot.gen != e.gen {
                continue; // stale: cancelled or fired since it was queued
            }
            if slot.payload.is_none() || std::mem::replace(&mut seen[e.slot as usize], true) {
                return corrupt("heap entry does not match its slot");
            }
        }
        if seen.iter().filter(|&&s| s).count() != occupied {
            return corrupt("an occupied slot has no heap entry");
        }
        for &f in &free {
            if std::mem::replace(&mut seen[f as usize], true) {
                return corrupt("free list names a slot in use or twice");
            }
        }
        if seen.contains(&false) {
            return corrupt("a vacant slot is missing from the free list");
        }
        Ok(EventQueue {
            heap,
            slots,
            free,
            next_seq,
            live,
            peak_live,
        })
    }
}

#[cfg(test)]
mod legacy {
    //! The pre-slab future-event list: `BinaryHeap` of full entries plus
    //! `cancelled`/`pending` `HashSet<u64>` side tables. Test-only: the
    //! shared queue suite and the order-equivalence test use it as the
    //! oracle for [`EventQueue`](super::EventQueue).

    use super::EventId;
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The previous queue implementation (hash-set side tables).
    pub struct LegacyEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        cancelled: std::collections::HashSet<u64>,
        pending: std::collections::HashSet<u64>,
        next_seq: u64,
        peak: usize,
    }

    impl<E> Default for LegacyEventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> LegacyEventQueue<E> {
        pub fn new() -> Self {
            LegacyEventQueue {
                heap: BinaryHeap::new(),
                cancelled: std::collections::HashSet::new(),
                pending: std::collections::HashSet::new(),
                next_seq: 0,
                peak: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.pending.len()
        }

        pub fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }

        pub fn peak_depth(&self) -> usize {
            self.peak
        }

        pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
            assert!(time < SimTime::MAX, "cannot schedule at SimTime::MAX");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, payload });
            self.pending.insert(seq);
            if self.pending.len() > self.peak {
                self.peak = self.pending.len();
            }
            // A legacy id is its sequence number (generation 0).
            EventId(seq)
        }

        pub fn cancel(&mut self, id: EventId) -> bool {
            if self.pending.remove(&id.0) {
                self.cancelled.insert(id.0);
                true
            } else {
                false
            }
        }

        pub fn peek_time(&mut self) -> Option<SimTime> {
            self.skip_cancelled();
            self.heap.peek().map(|e| e.time)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.skip_cancelled();
            let e = self.heap.pop()?;
            self.pending.remove(&e.seq);
            Some((e.time, e.payload))
        }

        fn skip_cancelled(&mut self) {
            while let Some(top) = self.heap.peek() {
                if self.cancelled.remove(&top.seq) {
                    self.heap.pop();
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyEventQueue;
    use super::*;
    use crate::time::SimDuration;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Run the shared behavioural suite against a queue type.
    macro_rules! queue_suite {
        ($modname:ident, $Q:ident) => {
            mod $modname {
                use super::*;

                #[test]
                fn pops_in_time_order() {
                    let mut q = $Q::new();
                    q.schedule(t(5), "b");
                    q.schedule(t(1), "a");
                    q.schedule(t(9), "c");
                    assert_eq!(q.pop(), Some((t(1), "a")));
                    assert_eq!(q.pop(), Some((t(5), "b")));
                    assert_eq!(q.pop(), Some((t(9), "c")));
                    assert_eq!(q.pop(), None);
                }

                #[test]
                fn simultaneous_events_are_fifo() {
                    let mut q = $Q::new();
                    for i in 0..100 {
                        q.schedule(t(7), i);
                    }
                    for i in 0..100 {
                        assert_eq!(q.pop().unwrap().1, i);
                    }
                }

                #[test]
                fn cancellation_removes_event() {
                    let mut q = $Q::new();
                    let a = q.schedule(t(1), "a");
                    q.schedule(t(2), "b");
                    assert!(q.cancel(a));
                    assert!(!q.cancel(a), "double cancel is a no-op");
                    assert_eq!(q.pop(), Some((t(2), "b")));
                    assert!(q.is_empty());
                }

                #[test]
                fn peek_time_skips_cancelled() {
                    let mut q = $Q::new();
                    let a = q.schedule(t(1), 1);
                    q.schedule(t(3), 3);
                    q.cancel(a);
                    assert_eq!(q.peek_time(), Some(t(3)));
                }

                #[test]
                fn len_tracks_live_events() {
                    let mut q = $Q::new();
                    let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
                    assert_eq!(q.len(), 10);
                    q.cancel(ids[4]);
                    assert_eq!(q.len(), 9);
                    q.pop();
                    assert_eq!(q.len(), 8);
                    while q.pop().is_some() {}
                    assert!(q.is_empty());
                }

                #[test]
                fn interleaved_schedule_and_pop() {
                    let mut q = $Q::new();
                    q.schedule(t(10), 10);
                    q.schedule(t(20), 20);
                    assert_eq!(q.pop().unwrap().1, 10);
                    q.schedule(t(15), 15);
                    q.schedule(t(5), 5); // in the past relative to last pop; queue permits it
                    assert_eq!(q.pop().unwrap().1, 5);
                    assert_eq!(q.pop().unwrap().1, 15);
                    assert_eq!(q.pop().unwrap().1, 20);
                }

                #[test]
                #[should_panic]
                fn scheduling_at_max_panics() {
                    let mut q = $Q::new();
                    q.schedule(SimTime::MAX, ());
                }

                #[test]
                fn large_volume_ordering() {
                    // Pseudo-random-ish times via a simple LCG to avoid RNG deps here.
                    let mut q = $Q::new();
                    let mut x: u64 = 0x9E3779B97F4A7C15;
                    for _ in 0..10_000 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        q.schedule(
                            SimTime::ZERO + SimDuration::from_micros((x >> 20) as i64),
                            x,
                        );
                    }
                    let mut last = SimTime::ZERO;
                    while let Some((time, _)) = q.pop() {
                        assert!(time >= last);
                        last = time;
                    }
                }

                #[test]
                fn peak_depth_is_high_water_mark() {
                    let mut q = $Q::new();
                    for i in 0..50 {
                        q.schedule(t(i), i);
                    }
                    for _ in 0..50 {
                        q.pop();
                    }
                    q.schedule(t(99), 99);
                    assert_eq!(q.peak_depth(), 50);
                }
            }
        };
    }

    queue_suite!(slab, EventQueue);
    queue_suite!(legacy_impl, LegacyEventQueue);

    #[test]
    fn cancel_then_reschedule_never_resurrects_stale_id() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(5), "doomed");
        assert!(q.cancel(a));
        // The freed slot is reused immediately (LIFO free list) — the
        // stale id must not cancel, and must not resurrect, the new event.
        let b = q.schedule(t(6), "kept");
        assert!(!q.cancel(a), "stale id must stay dead after slot reuse");
        assert_eq!(q.pop(), Some((t(6), "kept")));
        assert_eq!(q.pop(), None);
        // And the fired id is stale too.
        assert!(!q.cancel(b));
    }

    #[test]
    fn fired_event_id_cannot_cancel_successor_in_same_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        let _b = q.schedule(t(2), 2); // reuses slot 0
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
    }

    /// Snapshot/restore mid-trace must preserve pop order, live handles,
    /// and future id assignment.
    macro_rules! queue_snapshot_suite {
        ($name:ident, $Q:ident) => {
            #[test]
            fn $name() {
                use crate::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
                let mut q = $Q::new();
                let keep = q.schedule(t(50), 1u64);
                let doomed = q.schedule(t(60), 2);
                q.schedule(t(40), 3);
                q.cancel(doomed);
                q.pop(); // fires 3
                q.schedule(t(45), 4);

                let mut w = SnapshotWriter::new();
                q.encode(&mut w);
                let bytes = w.into_bytes();
                let mut r = SnapshotReader::new(&bytes);
                let mut back = $Q::<u64>::decode(&mut r).unwrap();
                r.expect_end().unwrap();

                assert_eq!(back.len(), q.len());
                assert_eq!(back.peak_depth(), q.peak_depth());
                // The held handle survives and cancels the same event.
                assert!(back.cancel(keep));
                assert!(q.cancel(keep));
                // Remaining pops agree, and so do ids issued afterwards.
                assert_eq!(back.schedule(t(70), 5), q.schedule(t(70), 5));
                loop {
                    let a = q.pop();
                    assert_eq!(a, back.pop());
                    if a.is_none() {
                        break;
                    }
                }
                // Truncated input errors, never panics.
                for cut in 0..bytes.len() {
                    assert!($Q::<u64>::decode(&mut SnapshotReader::new(&bytes[..cut])).is_err());
                }
            }
        };
    }

    queue_snapshot_suite!(slab_snapshot_roundtrip, EventQueue);

    /// `live` lists exactly the pending events, with their handles.
    #[test]
    fn live_lists_pending_events_with_their_ids() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(5), 'a');
        let b = q.schedule(t(3), 'b');
        let c = q.schedule(t(9), 'c');
        q.cancel(b);
        let mut live: Vec<_> = q.live().map(|(id, at, &e)| (id, at, e)).collect();
        live.sort_by_key(|&(_, at, _)| at);
        assert_eq!(live, vec![(a, t(5), 'a'), (c, t(9), 'c')]);
    }

    /// A decoded queue must be one the queue's own operations could have
    /// built: heap order, one heap entry per occupied slot, every
    /// vacant slot on the free list once, and a sequence counter past
    /// every queued event.
    #[test]
    fn decode_refuses_an_inconsistent_queue() {
        use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
        let build = || {
            let mut q = EventQueue::new();
            for (i, at) in [40, 10, 30, 20, 50].into_iter().enumerate() {
                q.schedule(t(at), i as u64);
            }
            let doomed = q.schedule(t(60), 9);
            q.cancel(doomed);
            q
        };
        let decode = |q: &EventQueue<u64>| {
            let mut w = SnapshotWriter::new();
            q.encode(&mut w);
            EventQueue::<u64>::decode(&mut SnapshotReader::new(&w.into_bytes())).map(|q| q.len())
        };
        let corrupt = |what: &str| Err(SnapshotError::Corrupt(format!("event queue: {what}")));
        assert_eq!(decode(&build()), Ok(5));
        let mut q = build();
        q.heap.v.swap(0, 1);
        assert_eq!(decode(&q), corrupt("heap order broken"));
        let mut q = build();
        q.next_seq = 3;
        assert_eq!(
            decode(&q),
            corrupt("sequence counter behind a queued event")
        );
        let mut q = build();
        q.slots[0].gen += 1;
        assert_eq!(decode(&q), corrupt("an occupied slot has no heap entry"));
        let mut q = build();
        q.free.push(q.free[0]);
        assert_eq!(
            decode(&q),
            corrupt("free list names a slot in use or twice")
        );
        let mut q = build();
        q.free.clear();
        assert_eq!(
            decode(&q),
            corrupt("a vacant slot is missing from the free list")
        );
    }

    /// Drive both implementations through an identical randomized
    /// schedule/cancel/pop trace and require identical observable
    /// behaviour — the determinism guarantee behind the queue swap.
    #[test]
    fn slab_and_legacy_produce_identical_event_order() {
        let mut slab = EventQueue::new();
        let mut leg = LegacyEventQueue::new();
        let mut slab_ids = Vec::new();
        let mut leg_ids = Vec::new();
        let mut x: u64 = 0xDF3_2018;
        let mut popped = Vec::new();
        for step in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 10 {
                // 60 % schedule
                0..=5 => {
                    let time = SimTime::from_micros(((x >> 16) % 1_000_000) as i64);
                    slab_ids.push(slab.schedule(time, step));
                    leg_ids.push(leg.schedule(time, step));
                }
                // 20 % cancel a random previously issued id
                6..=7 if !slab_ids.is_empty() => {
                    let k = ((x >> 32) as usize) % slab_ids.len();
                    assert_eq!(slab.cancel(slab_ids[k]), leg.cancel(leg_ids[k]));
                }
                // 20 % pop
                _ => {
                    let a = slab.pop();
                    let b = leg.pop();
                    assert_eq!(a, b, "divergence at step {step}");
                    if let Some(e) = a {
                        popped.push(e);
                    }
                }
            }
            assert_eq!(slab.len(), leg.len(), "len divergence at step {step}");
        }
        // Drain the remainder: from here on no new events arrive, so the
        // tail must be time-ordered with FIFO tie-break (seq = step).
        let drain_from = popped.len();
        loop {
            let a = slab.pop();
            let b = leg.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            popped.push(a.unwrap());
        }
        assert!(popped.len() > 10_000, "trace degenerated: too few pops");
        for w in popped[drain_from..].windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }
}
