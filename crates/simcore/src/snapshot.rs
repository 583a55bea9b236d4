//! Deterministic checkpoint/restore: a versioned, checksummed binary
//! codec for simulation state.
//!
//! Long seasonal runs (the paper's argument needs weeks of simulated
//! winter before the interesting regime starts) and branch-from-snapshot
//! sweeps both need one primitive: capture *every* bit of live state at
//! a sim-time S so a fresh process can continue to T with results
//! **bit-identical** to a run that never stopped. The codec here is
//! hand-rolled — like the export back-ends, no serde — because the
//! guarantee is byte-level and the format must not drift with a
//! dependency.
//!
//! Layout: a snapshot file is
//!
//! ```text
//! magic "DF3SNAP\0" (8 B) · version u32 · section count u32 ·
//!   { name: str · payload len u64 · payload crc32 u32 · payload }*
//! ```
//!
//! all little-endian. Each section payload is an independent
//! [`SnapshotWriter`] byte stream; integers are fixed-width LE unless a
//! section writes them as LEB128 varints
//! ([`SnapshotWriter::put_uvarint`]), `f64`s are raw IEEE bits (NaN
//! payloads survive — the thermal decay cache uses NaN as a sentinel),
//! strings and vectors are length-prefixed. Decoding **never panics**:
//! every read is bounds-checked and returns [`SnapshotError`] on
//! truncated, corrupt, or version-skewed input, and every section's
//! CRC-32 (slicing-by-8, eight bytes per step) is verified before its
//! payload is parsed.
//!
//! What a type must do to participate: implement [`Snapshot`]. Encoding
//! is infallible (it only appends to a buffer); decoding is validated.
//! A type whose state is a plain field list — every field itself
//! `Snapshot`, nothing to check on the way back in — gets its impl from
//! [`impl_snapshot!`](crate::impl_snapshot), which writes the layout
//! once and generates both directions from it. A type whose decode
//! must validate (lengths, cursors, cross-field invariants) writes the
//! pair by hand and returns [`SnapshotError::Corrupt`] on bad input.
//! Either way the impl lives next to the type it captures, so private
//! fields stay private.

use crate::rng::RngStreams;
use crate::time::{Calendar, SimDuration, SimTime};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// File magic: identifies a DF3 snapshot container.
pub const MAGIC: [u8; 8] = *b"DF3SNAP\0";

/// Container format version. Bump on any layout change. Decoders accept
/// this version and the one before it ([`SnapshotFile::version`] says
/// which was read) and reject every other instead of misparsing.
/// Version 5 writes the `arrivals` section as columns and drops the
/// horizon from the `engine` section.
pub const VERSION: u32 = 5;

/// Upper bound on declared collection lengths, as a corruption guard:
/// a flipped length byte must produce [`SnapshotError::Corrupt`], not an
/// attempted multi-terabyte allocation.
const MAX_LEN: u64 = 1 << 40;

/// Why a snapshot failed to decode. Decoding never panics; every
/// malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended before the declared content did.
    Truncated,
    /// The first 8 bytes are not the DF3 snapshot magic.
    BadMagic,
    /// A container version this build cannot read (neither
    /// [`VERSION`] nor `VERSION - 1`).
    BadVersion(u32),
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch { section: String },
    /// A required section is absent from the container.
    MissingSection(String),
    /// Structurally invalid content (bad tag byte, absurd length,
    /// inconsistent cross-field state). The string says what and where.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a DF3 snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {} and {VERSION})",
                    VERSION - 1
                )
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "section `{section}` failed its CRC-32 check")
            }
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot has no `{name}` section")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8.

/// Eight 256-entry tables. `T[0]` is the classic bytewise table;
/// `T[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes, so one step can fold eight input bytes with eight lookups
/// instead of eight dependent shift-and-lookup rounds.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`: eight bytes per step, then the tail
/// bytewise. Equal, for every input, to the one-byte-at-a-time form
/// (the test oracle below).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 one table lookup per byte: the oracle [`crc32`] is tested
/// against.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Writer / reader.

/// Append-only byte-stream encoder. Infallible by construction.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// `f64` as raw IEEE-754 bits: the round trip is exact for every
    /// value, including NaN payloads and signed zeros.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// `v` as an unsigned LEB128 varint: seven bits per byte, low group
    /// first, the high bit set on every byte but the last. One byte
    /// below 128, at most ten.
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// `v` zigzag-mapped (0, −1, 1, −2, … → 0, 1, 2, 3, …) then as a
    /// [`put_uvarint`](Self::put_uvarint): small magnitudes of either
    /// sign stay short.
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
    }
}

/// Bounds-checked byte-stream decoder over a borrowed slice.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }

    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// A declared collection length, sanity-capped so corrupt lengths
    /// fail instead of attempting absurd allocations.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.take_u64()?;
        if n > MAX_LEN {
            return Err(SnapshotError::Corrupt(format!("length {n} exceeds cap")));
        }
        // Even a capped length must not exceed what the input could hold
        // (each element is at least one byte... except zero-sized
        // composites, so only reject lengths beyond the raw byte count).
        if n as usize > self.buf.len().saturating_mul(8) {
            return Err(SnapshotError::Corrupt(format!(
                "length {n} exceeds input size"
            )));
        }
        Ok(n as usize)
    }

    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let n = self.take_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// An unsigned LEB128 varint, as [`SnapshotWriter::put_uvarint`]
    /// writes it. Only the canonical form decodes: a trailing zero
    /// group (overlong) or bits past 64 (overflow) are
    /// [`SnapshotError::Corrupt`], so every value has exactly one
    /// encoding. Input ending mid-varint is [`SnapshotError::Truncated`].
    #[inline]
    pub fn take_uvarint(&mut self) -> Result<u64, SnapshotError> {
        let rest = &self.buf[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(10).enumerate() {
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                if b == 0 && i > 0 {
                    return Err(SnapshotError::Corrupt("overlong varint".into()));
                }
                if i == 9 && b > 1 {
                    break;
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        // Every byte read carried the continuation bit, or the tenth
        // carried more than bit 63.
        if rest.len() < 10 {
            return Err(SnapshotError::Truncated);
        }
        Err(SnapshotError::Corrupt("varint overflows u64".into()))
    }

    /// A zigzag varint, as [`SnapshotWriter::put_ivarint`] writes it.
    pub fn take_ivarint(&mut self) -> Result<i64, SnapshotError> {
        let z = self.take_uvarint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Assert the stream is fully consumed — a section with trailing
    /// bytes means encoder and decoder disagree about the layout.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The trait.

/// A type that can checkpoint itself into the snapshot byte stream and
/// rebuild from it. Encoding is infallible; decoding validates.
pub trait Snapshot: Sized {
    fn encode(&self, w: &mut SnapshotWriter);
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Implement [`Snapshot`] from a field list, written once: `encode`
/// writes the listed fields in order and `decode` reads them back in
/// the same order, each through its own `Snapshot` impl.
///
/// Three forms, each optionally preceded by doc comments or other
/// attributes for the generated `impl`:
///
/// ```
/// # use simcore::impl_snapshot;
/// # use simcore::time::SimTime;
/// // Named-field struct: the listed fields, in wire order.
/// struct Span { start: SimTime, end: Option<SimTime>, lane: u32 }
/// impl_snapshot!(Span { start, end, lane });
///
/// // Tuple struct: the listed positions.
/// struct Id(u64);
/// impl_snapshot!(Id(0));
///
/// // Enum: one explicit tag byte per variant, then the variant's
/// // fields. Unit, struct-like and tuple-like variants mix freely.
/// enum Ev { Start(Id), Move { from: usize, to: usize }, Tick }
/// impl_snapshot! {
///     enum Ev { 0 => Start(id), 1 => Move { from, to }, 2 => Tick }
/// }
/// ```
///
/// Brace-delimited calls, as in the last form, keep long lists compact:
/// rustfmt leaves them as written. An enum tag outside the list
/// decodes to `SnapshotError::Corrupt("<Type> tag <byte>")`. Types
/// whose decode must validate what it reads implement [`Snapshot`] by
/// hand.
#[macro_export]
macro_rules! impl_snapshot {
    ($(#[$m:meta])* enum $ty:ident {
        $($tag:literal => $var:ident
            $({ $($sf:ident),* $(,)? })?
            $(( $($tf:ident),* $(,)? ))?),+ $(,)?
    }) => {
        $(#[$m])*
        impl $crate::snapshot::Snapshot for $ty {
            fn encode(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                match self {
                    $($crate::impl_snapshot!(@pat $ty $var $({$($sf),*})? $(($($tf),*))?) => {
                        w.put_u8($tag);
                        $crate::impl_snapshot!(@encode w $($($sf)*)? $($($tf)*)?);
                    })+
                }
            }
            fn decode(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match r.take_u8()? {
                    $($tag => $crate::impl_snapshot!(
                        @build r $ty $var $({$($sf),*})? $(($($tf),*))?
                    ),)+
                    b => {
                        return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                            "{} tag {b}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
    ($(#[$m:meta])* $ty:ident { $($f:ident),+ $(,)? }) => {
        $crate::impl_snapshot!(@struct $(#[$m])* $ty $($f)+);
    };
    ($(#[$m:meta])* $ty:ident ( $($f:tt),+ $(,)? )) => {
        $crate::impl_snapshot!(@struct $(#[$m])* $ty $($f)+);
    };
    // A struct literal names tuple fields by position (`Id { 0: .. }`),
    // so both struct forms share one body; its fields evaluate in
    // source order, which keeps decode in wire order.
    (@struct $(#[$m:meta])* $ty:ident $($f:tt)+) => {
        $(#[$m])*
        impl $crate::snapshot::Snapshot for $ty {
            fn encode(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $($crate::snapshot::Snapshot::encode(&self.$f, w);)+
            }
            fn decode(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $($f: $crate::snapshot::Snapshot::decode(r)?),+ })
            }
        }
    };
    (@pat $ty:ident $var:ident) => { $ty::$var };
    (@pat $ty:ident $var:ident { $($f:ident),* }) => { $ty::$var { $($f),* } };
    (@pat $ty:ident $var:ident ( $($f:ident),* )) => { $ty::$var($($f),*) };
    (@encode $w:ident $($f:ident)*) => {
        $($crate::snapshot::Snapshot::encode($f, $w);)*
    };
    (@build $r:ident $ty:ident $var:ident) => { $ty::$var };
    (@build $r:ident $ty:ident $var:ident { $($f:ident),* }) => {
        $ty::$var { $($f: $crate::snapshot::Snapshot::decode($r)?),* }
    };
    (@build $r:ident $ty:ident $var:ident ( $($f:ident),* )) => {
        $ty::$var($($crate::impl_snapshot!(@field $r $f)),*)
    };
    (@field $r:ident $f:ident) => { $crate::snapshot::Snapshot::decode($r)? };
}

impl Snapshot for () {
    fn encode(&self, _w: &mut SnapshotWriter) {}
    fn decode(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

/// The fixed-width scalars and `String`: one writer call out, the
/// matching reader call back.
macro_rules! primitive_snapshot {
    ($($t:ty: |$v:ident| $put:ident($arg:expr), $take:ident;)*) => {$(
        impl Snapshot for $t {
            fn encode(&self, w: &mut SnapshotWriter) {
                let $v = self;
                w.$put($arg);
            }
            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    )*};
}

primitive_snapshot! {
    u8: |v| put_u8(*v), take_u8;
    u32: |v| put_u32(*v), take_u32;
    u64: |v| put_u64(*v), take_u64;
    i64: |v| put_i64(*v), take_i64;
    usize: |v| put_usize(*v), take_usize;
    f64: |v| put_f64(*v), take_f64;
    bool: |v| put_bool(*v), take_bool;
    String: |v| put_str(v), take_str;
}

impl Snapshot for SimTime {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(self.as_micros());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_micros(r.take_i64()?))
    }
}

crate::impl_snapshot!(Calendar { epoch_month });

impl Snapshot for SimDuration {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(self.as_micros());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_micros(r.take_i64()?))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(SnapshotError::Corrupt(format!("Option tag {b}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// The stream factory is one master seed; named streams re-derive from
/// it, so this *is* the complete RNG-subsystem state.
impl Snapshot for RngStreams {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.master());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RngStreams::new(r.take_u64()?))
    }
}

/// A live generator mid-keystream: input block, buffered block, cursor.
/// Restoring continues the exact draw sequence, mid-block included.
impl Snapshot for ChaCha8Rng {
    fn encode(&self, w: &mut SnapshotWriter) {
        let (input, buf, idx) = self.state();
        for word in input.iter().chain(buf.iter()) {
            w.put_u32(*word);
        }
        w.put_usize(idx);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut input = [0u32; 16];
        let mut buf = [0u32; 16];
        for word in input.iter_mut() {
            *word = r.take_u32()?;
        }
        for word in buf.iter_mut() {
            *word = r.take_u32()?;
        }
        let idx = r.take_usize()?;
        if idx > 16 {
            return Err(SnapshotError::Corrupt(format!("ChaCha cursor {idx}")));
        }
        Ok(ChaCha8Rng::from_state(input, buf, idx))
    }
}

// ---------------------------------------------------------------------------
// The section container.

/// A named-section container: what actually goes on disk.
#[derive(Debug, PartialEq, Eq)]
pub struct SnapshotFile {
    version: u32,
    sections: Vec<(String, Vec<u8>)>,
}

impl Default for SnapshotFile {
    fn default() -> Self {
        SnapshotFile {
            version: VERSION,
            sections: Vec::new(),
        }
    }
}

impl SnapshotFile {
    /// An empty container of the current [`VERSION`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The container version: [`VERSION`] for a new file, or whichever
    /// readable version [`SnapshotFile::from_bytes`] found. Callers
    /// whose section layout differs between versions branch on it.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Append a section. Names should be unique; [`SnapshotFile::section`]
    /// finds the first match.
    pub fn add(&mut self, name: &str, w: SnapshotWriter) {
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// A reader over a section's payload (already CRC-verified at
    /// [`SnapshotFile::from_bytes`] time).
    pub fn section(&self, name: &str) -> Result<SnapshotReader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, payload)| SnapshotReader::new(payload))
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }

    /// Serialise: magic, version, section count, then each section as
    /// name · length · CRC-32 · payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(self.version);
        w.put_u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            w.put_str(name);
            w.put_u64(payload.len() as u64);
            w.put_u32(crc32(payload));
            w.put_bytes(payload);
        }
        w.into_bytes()
    }

    /// Parse and verify a container. Magic, version (`VERSION` or
    /// `VERSION - 1`), and every section CRC are checked here;
    /// malformed input errors, never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let magic = r.take_bytes(MAGIC.len()).map_err(|_| {
            // Too short to even hold the magic: call it truncated only
            // if it *starts* like a snapshot, else it's foreign data.
            if bytes.is_empty() || !MAGIC.starts_with(&bytes[..bytes.len().min(MAGIC.len())]) {
                SnapshotError::BadMagic
            } else {
                SnapshotError::Truncated
            }
        })?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != VERSION && version != VERSION - 1 {
            return Err(SnapshotError::BadVersion(version));
        }
        let count = r.take_u32()?;
        if count as u64 > 1 << 16 {
            return Err(SnapshotError::Corrupt(format!("{count} sections")));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name = r.take_str()?;
            let len = r.take_len()?;
            let crc = r.take_u32()?;
            let payload = r.take_bytes(len)?;
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { section: name });
            }
            sections.push((name, payload.to_vec()));
        }
        r.expect_end()?;
        Ok(SnapshotFile { version, sections })
    }
}

/// FNV-1a 64-bit over an arbitrary byte string — used to fingerprint
/// configurations so a snapshot refuses to restore under a config that
/// is not the one it was taken under.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn primitives_roundtrip_bitwise() {
        let mut w = SnapshotWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(i64::MIN);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_i64().unwrap(), i64::MIN);
        assert_eq!(r.take_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapshotWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.expect_end().expect("fully consumed");
        assert_eq!(&back, v);
    }

    /// Macro-built test types: a named struct, a newtype, and an enum
    /// with unit, struct-like and tuple-like variants.
    #[derive(Debug, PartialEq)]
    struct Probe {
        at: SimTime,
        id: Tag,
        weights: Vec<f64>,
        kind: ProbeKind,
    }
    crate::impl_snapshot! {
        Probe { at, id, weights, kind }
    }

    #[derive(Debug, PartialEq)]
    struct Tag(u32);
    crate::impl_snapshot!(Tag(0));

    #[derive(Debug, PartialEq)]
    enum ProbeKind {
        Idle,
        Moved { from: usize, to: usize },
        Pair(Tag, bool),
    }
    crate::impl_snapshot! {
        enum ProbeKind { 0 => Idle, 1 => Moved { from, to }, 4 => Pair(tag, flag) }
    }

    #[test]
    fn composite_impls_roundtrip() {
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&VecDeque::from([SimTime::from_secs(5), SimTime::ZERO]));
        roundtrip(&BTreeMap::from([(1u32, 2.5f64), (9, f64::INFINITY)]));
        roundtrip(&(SimTime::from_secs(1), SimDuration::HOUR, true));
        roundtrip(&"section name".to_string());
        roundtrip(&RngStreams::new(0xDF3));
        for kind in [
            ProbeKind::Idle,
            ProbeKind::Moved { from: 3, to: 7 },
            ProbeKind::Pair(Tag(9), true),
        ] {
            roundtrip(&Probe {
                at: SimTime::from_secs(42),
                id: Tag(u32::MAX),
                weights: vec![0.5, f64::NEG_INFINITY],
                kind,
            });
        }
        // The field list is the wire layout: fields in order, the
        // variant's tag byte, then its fields.
        let mut w = SnapshotWriter::new();
        ProbeKind::Pair(Tag(9), true).encode(&mut w);
        assert_eq!(w.into_bytes(), [4, 9, 0, 0, 0, 1]);
    }

    #[test]
    fn chacha_roundtrip_continues_mid_block() {
        let mut rng = RngStreams::new(77).stream("snapshot-test");
        for _ in 0..21 {
            rng.next_u64(); // land mid-block
        }
        let mut w = SnapshotWriter::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ChaCha8Rng::decode(&mut SnapshotReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    fn sample_file() -> SnapshotFile {
        let mut f = SnapshotFile::new();
        let mut a = SnapshotWriter::new();
        a.put_u64(123);
        a.put_str("payload");
        f.add("alpha", a);
        let mut b = SnapshotWriter::new();
        vec![1.5f64, f64::NAN].encode(&mut b);
        f.add("beta", b);
        f
    }

    #[test]
    fn container_roundtrips_and_finds_sections() {
        let bytes = sample_file().to_bytes();
        let f = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(f.names().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        let mut r = f.section("alpha").unwrap();
        assert_eq!(r.take_u64().unwrap(), 123);
        assert_eq!(r.take_str().unwrap(), "payload");
        r.expect_end().unwrap();
        assert!(matches!(
            f.section("gamma"),
            Err(SnapshotError::MissingSection(_))
        ));
    }

    #[test]
    fn every_truncation_errors_and_never_panics() {
        let bytes = sample_file().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotFile::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample_file().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            // Must error or, if the flip landed in a section *name*,
            // still parse but with a CRC-consistent rename. It must
            // never panic; most flips are caught outright.
            let _ = SnapshotFile::from_bytes(&bad);
        }
        // Flips inside a payload specifically must be caught by the CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1; // last payload byte of section "beta"
        bad[last] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn foreign_data_is_bad_magic_and_versions_are_checked() {
        assert_eq!(
            SnapshotFile::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(SnapshotFile::from_bytes(b""), Err(SnapshotError::BadMagic));
        for version in [VERSION - 1, VERSION] {
            let mut bytes = sample_file().to_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let f = SnapshotFile::from_bytes(&bytes).expect("readable version");
            assert_eq!(f.version(), version);
            // Writing it back keeps the version it was read with.
            assert_eq!(f.to_bytes(), bytes);
        }
        for version in [1, VERSION as u8 - 2, VERSION as u8 + 1, 99] {
            let mut bytes = sample_file().to_bytes();
            bytes[8] = version; // version field
            assert_eq!(
                SnapshotFile::from_bytes(&bytes),
                Err(SnapshotError::BadVersion(version as u32))
            );
        }
    }

    #[test]
    fn corrupt_tags_and_lengths_error() {
        // Option tag 7.
        let mut r = SnapshotReader::new(&[7u8]);
        assert!(matches!(
            Option::<u64>::decode(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
        // Vec length far past the input size.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert!(Vec::<u64>::decode(&mut SnapshotReader::new(&bytes)).is_err());
        // Macro-built enum: a tag between or past the listed ones.
        for tag in [2u8, 5, 255] {
            assert_eq!(
                ProbeKind::decode(&mut SnapshotReader::new(&[tag])),
                Err(SnapshotError::Corrupt(format!("ProbeKind tag {tag}")))
            );
        }
        // Bad bool.
        assert!(matches!(
            bool::decode(&mut SnapshotReader::new(&[3u8])),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bytewise CRC on every length from 0
        /// to 4096, starting at any offset into the buffer (so the
        /// eight-byte steps meet every alignment and tail length).
        #[test]
        fn crc32_equals_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u32..256, 4_104..4_105),
            offset in 0usize..8,
            len in 0usize..4_097,
        ) {
            let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let s = &bytes[offset..offset + len];
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let mut values = vec![0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1];
        values.extend((0..64).map(|k| 1u64 << k));
        values.extend((1..64).map(|k| (1u64 << k) - 1));
        let signed = [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        let mut w = SnapshotWriter::new();
        for &v in &values {
            w.put_uvarint(v);
        }
        for &v in &signed {
            w.put_ivarint(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.take_uvarint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.take_ivarint().unwrap(), v);
        }
        r.expect_end().unwrap();
        // Widths: one byte below 2^7, ten at 2^63; zigzag keeps −1 short.
        let width = |v: u64| {
            let mut w = SnapshotWriter::new();
            w.put_uvarint(v);
            w.into_bytes().len()
        };
        assert_eq!((width(127), width(128), width(u64::MAX)), (1, 2, 10));
        let mut w = SnapshotWriter::new();
        w.put_ivarint(-1);
        assert_eq!(w.into_bytes(), [1]);
    }

    #[test]
    fn bad_varints_are_corrupt_or_truncated() {
        let take = |bytes: &[u8]| SnapshotReader::new(bytes).take_uvarint();
        let corrupt = |what: &str| Err(SnapshotError::Corrupt(what.into()));
        // Input ending while the continuation bit says more follows.
        assert_eq!(take(&[]), Err(SnapshotError::Truncated));
        assert_eq!(take(&[0x80]), Err(SnapshotError::Truncated));
        assert_eq!(take(&[0xFF; 9]), Err(SnapshotError::Truncated));
        // A trailing zero group: 0 and 1 written in two bytes.
        assert_eq!(take(&[0x80, 0x00]), corrupt("overlong varint"));
        assert_eq!(take(&[0x81, 0x80, 0x00]), corrupt("overlong varint"));
        // Bits past 64: the tenth byte may only carry bit 63.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(take(&max), Ok(u64::MAX));
        max[9] = 0x02;
        assert_eq!(take(&max), corrupt("varint overflows u64"));
        max[9] = 0x81;
        assert_eq!(take(&max), corrupt("varint overflows u64"));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }
}
