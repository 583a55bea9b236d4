//! The capped ring-buffer flight recorder.
//!
//! Replaces string-allocating tracing on the hot path: tags and string
//! field values are interned once into dense [`TagId`]s, field values
//! are typed ([`Value`]), and storage is a fixed-capacity ring that
//! keeps the *last* N events of a run (like an aircraft flight
//! recorder, the recent past is what post-mortems need). Overwritten
//! events are counted, never silently lost.

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::SimTime;
use std::collections::HashMap;

/// Dense handle for an interned tag or string value. Ids are local to
/// one recorder and assigned in interning order, so identically-driven
/// runs produce identical ids (exports stay byte-reproducible).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(u32);

impl TagId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed field value: no `String` allocation per record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    /// An interned string (intern once at setup, reference per event).
    Str(TagId),
}

/// Which timeline lane an event belongs to. Downstream models map
/// their topology onto (group, lane) — e.g. group 0 = platform,
/// group `1 + c` = cluster `c` with one lane per worker — and the
/// Chrome exporter renders groups as processes and lanes as threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Track {
    pub group: u32,
    pub lane: u32,
}

impl Track {
    /// The platform-wide lane (control ticks, watchdogs, …).
    pub const PLATFORM: Track = Track { group: 0, lane: 0 };

    pub fn new(group: u32, lane: u32) -> Self {
        Track { group, lane }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Bool(false)
    }
}

impl Value {
    /// Split into a discriminant byte and a 64-bit payload for the
    /// packed [`FieldSet`] arrays.
    #[inline]
    fn pack(self) -> (u8, u64) {
        match self {
            Value::U64(v) => (0, v),
            Value::I64(v) => (1, v as u64),
            Value::F64(v) => (2, v.to_bits()),
            Value::Bool(v) => (3, v as u64),
            Value::Str(t) => (4, t.0 as u64),
        }
    }

    #[inline]
    fn unpack(kind: u8, bits: u64) -> Value {
        match kind {
            0 => Value::U64(bits),
            1 => Value::I64(bits as i64),
            2 => Value::F64(f64::from_bits(bits)),
            3 => Value::Bool(bits != 0),
            _ => Value::Str(TagId(bits as u32)),
        }
    }
}

/// Most fields an event can carry.
pub const MAX_FIELDS: usize = 4;

/// Inline field storage: recording an event never heap-allocates (the
/// hot loop emits tens of thousands of events per simulated day, and a
/// `Vec` per event dominated the recorder's cost). Values are packed
/// into discriminant/payload arrays so the whole set is 56 bytes —
/// the ring cycles through its buffer on long runs, and every byte of
/// event width is steady-state memory traffic. Excess pushes past
/// [`MAX_FIELDS`] are dropped in release builds and assert in debug.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FieldSet {
    len: u8,
    kinds: [u8; MAX_FIELDS],
    keys: [TagId; MAX_FIELDS],
    bits: [u64; MAX_FIELDS],
}

impl FieldSet {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn push(&mut self, key: TagId, value: Value) {
        debug_assert!((self.len as usize) < MAX_FIELDS, "too many event fields");
        if (self.len as usize) < MAX_FIELDS {
            let i = self.len as usize;
            let (kind, bits) = value.pack();
            self.kinds[i] = kind;
            self.keys[i] = key;
            self.bits[i] = bits;
            self.len += 1;
        }
    }

    /// Key/value pairs in push order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, Value)> + '_ {
        (0..self.len as usize).map(|i| (self.keys[i], Value::unpack(self.kinds[i], self.bits[i])))
    }
}

impl From<&[(TagId, Value)]> for FieldSet {
    fn from(s: &[(TagId, Value)]) -> Self {
        let mut f = FieldSet::new();
        for &(k, v) in s {
            f.push(k, v);
        }
        f
    }
}

impl<const N: usize> From<[(TagId, Value); N]> for FieldSet {
    fn from(s: [(TagId, Value); N]) -> Self {
        FieldSet::from(&s[..])
    }
}

impl<const N: usize> From<&[(TagId, Value); N]> for FieldSet {
    fn from(s: &[(TagId, Value); N]) -> Self {
        FieldSet::from(&s[..])
    }
}

impl From<&FieldSet> for FieldSet {
    fn from(s: &FieldSet) -> Self {
        *s
    }
}

/// One recorded event: an instant (`end == None`) or a sim-time span.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    pub t: SimTime,
    /// `Some(end)` makes this a span `[t, end]`.
    pub end: Option<SimTime>,
    pub tag: TagId,
    pub track: Track,
    pub fields: FieldSet,
}

/// Capped ring-buffer event recorder with a local tag interner.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    ring: Vec<TelemetryEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        FlightRecorder {
            enabled: true,
            capacity,
            // One upfront reservation: the ring never reallocates, so
            // steady-state recording is a bare slot write.
            ring: Vec::with_capacity(capacity),
            ..Default::default()
        }
    }

    /// A disabled recorder: every record call is a single branch.
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a tag (or string value), returning its stable id.
    /// Idempotent; usable on disabled recorders too so models can
    /// pre-intern their tag sets unconditionally at setup.
    pub fn tag(&mut self, name: &str) -> TagId {
        if let Some(&ix) = self.by_name.get(name) {
            return TagId(ix);
        }
        let ix = u32::try_from(self.names.len()).expect("tag registry overflow");
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), ix);
        TagId(ix)
    }

    /// The interned name of a tag.
    pub fn tag_name(&self, tag: TagId) -> &str {
        &self.names[tag.index()]
    }

    /// Look up an already-interned tag without interning.
    pub fn find_tag(&self, name: &str) -> Option<TagId> {
        self.by_name.get(name).map(|&ix| TagId(ix))
    }

    /// Record an instant event (no-op when disabled).
    #[inline]
    pub fn instant(&mut self, t: SimTime, tag: TagId, track: Track, fields: impl Into<FieldSet>) {
        if !self.enabled {
            return;
        }
        self.push(TelemetryEvent {
            t,
            end: None,
            tag,
            track,
            fields: fields.into(),
        });
    }

    /// Record a sim-time span `[t0, t1]` (no-op when disabled).
    #[inline]
    pub fn span(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        tag: TagId,
        track: Track,
        fields: impl Into<FieldSet>,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(t1 >= t0, "span ends before it starts");
        self.push(TelemetryEvent {
            t: t0,
            end: Some(t1),
            tag,
            track,
            fields: fields.into(),
        });
    }

    #[inline]
    fn push(&mut self, ev: TelemetryEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate events oldest → newest (record order survives the wrap).
    pub fn iter(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.ring[self.head..]
            .iter()
            .chain(self.ring[..self.head].iter())
    }

    /// Count of held events with a given tag.
    pub fn count_tag(&self, tag: TagId) -> usize {
        self.iter().filter(|e| e.tag == tag).count()
    }
}

crate::impl_snapshot!(TagId(0));
crate::impl_snapshot!(Track { group, lane });

/// Only the `len` active slots are encoded; unused slots are always in
/// their default state (pushes fill left to right, events are replaced
/// wholesale), so zero-filling on decode reproduces the struct exactly.
impl Snapshot for FieldSet {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.len);
        for i in 0..self.len as usize {
            w.put_u8(self.kinds[i]);
            self.keys[i].encode(w);
            w.put_u64(self.bits[i]);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_u8()?;
        if len as usize > MAX_FIELDS {
            return Err(SnapshotError::Corrupt(format!("field set of {len}")));
        }
        let mut f = FieldSet {
            len,
            ..Default::default()
        };
        for i in 0..len as usize {
            f.kinds[i] = r.take_u8()?;
            if f.kinds[i] > 4 {
                return Err(SnapshotError::Corrupt(format!("field kind {}", f.kinds[i])));
            }
            f.keys[i] = TagId::decode(r)?;
            f.bits[i] = r.take_u64()?;
        }
        Ok(f)
    }
}

crate::impl_snapshot! {
    TelemetryEvent { t, end, tag, track, fields }
}

/// The ring checkpoints verbatim — contents, head cursor, drop counter,
/// and the interner's name list in id order (`by_name` is rebuilt). Tag
/// references are validated against the name list so a decoded recorder
/// can never panic in `tag_name`.
impl Snapshot for FlightRecorder {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.enabled);
        w.put_usize(self.capacity);
        self.ring.encode(w);
        w.put_usize(self.head);
        w.put_u64(self.dropped);
        self.names.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let enabled = r.take_bool()?;
        let capacity = r.take_usize()?;
        let ring = Vec::<TelemetryEvent>::decode(r)?;
        let head = r.take_usize()?;
        let dropped = r.take_u64()?;
        let names = Vec::<String>::decode(r)?;
        if enabled && capacity == 0 {
            return Err(SnapshotError::Corrupt(
                "enabled recorder, capacity 0".into(),
            ));
        }
        if ring.len() > capacity || (head != 0 && head >= ring.len()) {
            return Err(SnapshotError::Corrupt(format!(
                "recorder ring {} / capacity {capacity}, head {head}",
                ring.len()
            )));
        }
        let check_tag = |t: TagId| -> Result<(), SnapshotError> {
            if t.index() >= names.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "tag id {} beyond {} names",
                    t.index(),
                    names.len()
                )));
            }
            Ok(())
        };
        for ev in &ring {
            check_tag(ev.tag)?;
            for (k, v) in ev.fields.iter() {
                check_tag(k)?;
                if let Value::Str(s) = v {
                    check_tag(s)?;
                }
            }
        }
        let by_name = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Ok(FlightRecorder {
            enabled,
            capacity,
            ring,
            head,
            dropped,
            names,
            by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_times(r: &FlightRecorder) -> Vec<i64> {
        r.iter().map(|e| e.t.as_micros()).collect()
    }

    #[test]
    fn event_stays_within_its_cache_budget() {
        // The ring cycles through capacity × this many bytes on long
        // runs; widening the event is a real recorder slowdown.
        assert!(std::mem::size_of::<TelemetryEvent>() <= 96);
        assert!(std::mem::size_of::<FieldSet>() <= 56);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::disabled();
        let tag = r.tag("x");
        r.instant(SimTime::from_secs(1), tag, Track::PLATFORM, []);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn interning_is_idempotent_and_ordered() {
        let mut r = FlightRecorder::enabled(4);
        let a = r.tag("alpha");
        let b = r.tag("beta");
        assert_eq!(r.tag("alpha"), a);
        assert!(a < b, "ids follow interning order");
        assert_eq!(r.tag_name(b), "beta");
        assert_eq!(r.find_tag("beta"), Some(b));
        assert_eq!(r.find_tag("gamma"), None);
    }

    #[test]
    fn ring_keeps_the_last_n_events() {
        let mut r = FlightRecorder::enabled(3);
        let tag = r.tag("t");
        for i in 0..7 {
            r.instant(SimTime::from_secs(i), tag, Track::PLATFORM, []);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        // Oldest → newest, post-wrap.
        assert_eq!(ev_times(&r), vec![4_000_000, 5_000_000, 6_000_000]);
    }

    #[test]
    fn snapshot_roundtrips_a_wrapped_ring_verbatim() {
        let mut r = FlightRecorder::enabled(3);
        let tag = r.tag("t");
        let key = r.tag("k");
        let sval = r.tag("v");
        for i in 0..7 {
            r.instant(
                SimTime::from_secs(i),
                tag,
                Track::new(1, i as u32),
                [(key, Value::Str(sval)), (key, Value::F64(i as f64))],
            );
        }
        let mut w = SnapshotWriter::new();
        r.encode(&mut w);
        let bytes = w.into_bytes();
        let mut rd = SnapshotReader::new(&bytes);
        let mut back = FlightRecorder::decode(&mut rd).unwrap();
        rd.expect_end().unwrap();
        assert_eq!(ev_times(&back), ev_times(&r));
        assert_eq!(back.dropped(), r.dropped());
        assert_eq!(back.tag("t"), tag, "interner state survives");
        // Continued recording matches a never-snapshotted recorder.
        back.instant(SimTime::from_secs(9), tag, Track::PLATFORM, []);
        r.instant(SimTime::from_secs(9), tag, Track::PLATFORM, []);
        assert_eq!(ev_times(&back), ev_times(&r));
        // Truncations error, never panic.
        for cut in 0..bytes.len() {
            assert!(FlightRecorder::decode(&mut SnapshotReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn spans_and_typed_fields_round_trip() {
        let mut r = FlightRecorder::enabled(8);
        let tag = r.tag("job.edge");
        let k = r.tag("gops");
        let v = r.tag("direct");
        r.span(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            tag,
            Track::new(1, 3),
            [(k, Value::F64(1.5)), (k, Value::Str(v))],
        );
        let e = r.iter().next().unwrap();
        assert_eq!(e.end, Some(SimTime::from_secs(2)));
        assert_eq!(e.track, Track::new(1, 3));
        let round: Vec<(TagId, Value)> = e.fields.iter().collect();
        assert_eq!(round, vec![(k, Value::F64(1.5)), (k, Value::Str(v))]);
        assert_eq!(r.count_tag(tag), 1);
    }
}
