//! Virtual simulation time.
//!
//! Time is a count of whole **microseconds** since the simulation epoch,
//! stored in an `i64`. Integer time makes the event queue ordering exact
//! (no float ties), supports ~292 000 simulated years, and microsecond
//! resolution is far below every latency the DF3 model cares about
//! (the finest being sub-millisecond LAN hops).
//!
//! The simulation epoch is, by convention of the experiment suite,
//! **November 1st, 00:00** of the heating season under study — matching
//! Figure 4 of the paper which plots November through May. Calendar
//! helpers ([`Calendar::month_index`], [`SimTime::day_of_year`]) assume a
//! 365-day non-leap year starting at that epoch; experiments that need a
//! January epoch use [`Calendar`] with an explicit start month.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds in one second.
const MICROS_PER_SEC: i64 = 1_000_000;

/// `x.round() as i64` (half away from zero; saturating, NaN to 0)
/// without the libm call `f64::round` compiles to on baseline x86-64:
/// truncate with a cast and compare the exact fractional part.
#[inline]
fn round_i64(x: f64) -> i64 {
    // From 2^52 up every f64 is an integer, and the cast alone maps the
    // non-finite values as `round` then the cast do.
    if x.is_nan() || x.abs() >= 4_503_599_627_370_496.0 {
        return x as i64;
    }
    let t = x as i64;
    // Exact: `t` is `x` truncated, so the difference is `x`'s fraction.
    let frac = x - t as f64;
    if frac >= 0.5 {
        t + 1
    } else if frac <= -0.5 {
        t - 1
    } else {
        t
    }
}

/// A point in virtual time (microseconds since the simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(i64);

/// A span of virtual time (microseconds; may be negative as an
/// intermediate value, but scheduling negative delays is an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(i64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event may be scheduled at or after this time.
    pub const MAX: SimTime = SimTime(i64::MAX);

    /// Construct from whole seconds since the epoch.
    pub fn from_secs(secs: i64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds since the epoch (rounded to µs).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(round_i64(secs * MICROS_PER_SEC as f64))
    }

    /// Construct from raw microseconds.
    pub const fn from_micros(us: i64) -> Self {
        SimTime(us)
    }

    /// Whole microseconds since the epoch.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Days since the epoch, as a float.
    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / 86_400.0
    }

    /// Whole days since the epoch (floor).
    pub fn day_index(self) -> i64 {
        self.0.div_euclid(SimDuration::DAY.0)
    }

    /// Day of the (365-day) simulation year, in `0..365`.
    pub fn day_of_year(self) -> u32 {
        (self.day_index().rem_euclid(365)) as u32
    }

    /// Seconds into the current day, in `0..86400`.
    pub fn second_of_day(self) -> u32 {
        (self.0.rem_euclid(SimDuration::DAY.0) / MICROS_PER_SEC) as u32
    }

    /// Hour of the current day as a fraction, in `0..24`.
    pub fn hour_of_day(self) -> f64 {
        self.second_of_day() as f64 / 3600.0
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            self >= earlier,
            "SimTime::since: {self:?} is before {earlier:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);
    pub const MICROSECOND: SimDuration = SimDuration(1);
    pub const MILLISECOND: SimDuration = SimDuration(1_000);
    pub const SECOND: SimDuration = SimDuration(MICROS_PER_SEC);
    pub const MINUTE: SimDuration = SimDuration(60 * MICROS_PER_SEC);
    pub const HOUR: SimDuration = SimDuration(3_600 * MICROS_PER_SEC);
    pub const DAY: SimDuration = SimDuration(86_400 * MICROS_PER_SEC);
    /// A 365-day simulation year.
    pub const YEAR: SimDuration = SimDuration(365 * 86_400 * MICROS_PER_SEC);

    pub const fn from_secs(secs: i64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_i64(secs * MICROS_PER_SEC as f64))
    }

    pub const fn from_millis(ms: i64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub const fn from_micros(us: i64) -> Self {
        SimDuration(us)
    }

    pub const fn from_hours(h: i64) -> Self {
        SimDuration(h * Self::HOUR.0)
    }

    pub fn from_days(d: i64) -> Self {
        SimDuration(d * Self::DAY.0)
    }

    pub const fn as_micros(self) -> i64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    pub fn max(self, other: Self) -> Self {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: Self) -> Self {
        SimDuration(self.0.min(other.0))
    }

    /// Multiply by a float factor (rounded to µs). Panics on NaN.
    pub fn mul_f64(self, k: f64) -> Self {
        assert!(!k.is_nan(), "SimDuration::mul_f64 by NaN");
        SimDuration(round_i64(self.0 as f64 * k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 - d.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, d: SimDuration) {
        self.0 -= d.0;
    }
}

impl Mul<i64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: i64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, d: SimDuration) -> f64 {
        self.0 as f64 / d.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day_index();
        let s = self.second_of_day();
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            d,
            s / 3600,
            (s % 3600) / 60,
            s % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.unsigned_abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        if abs >= SimDuration::DAY.0 as u64 {
            write!(f, "{sign}{:.2}d", abs as f64 / SimDuration::DAY.0 as f64)
        } else if abs >= SimDuration::HOUR.0 as u64 {
            write!(f, "{sign}{:.2}h", abs as f64 / SimDuration::HOUR.0 as f64)
        } else if abs >= SimDuration::SECOND.0 as u64 {
            write!(f, "{sign}{:.3}s", abs as f64 / SimDuration::SECOND.0 as f64)
        } else {
            write!(f, "{sign}{:.3}ms", abs as f64 / 1_000.0)
        }
    }
}

/// Standard month lengths for a 365-day year, January-first.
pub const MONTH_DAYS: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Abbreviated month names, January-first.
pub const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// A month resolved against a calendar: both the index relative to the
/// epoch (`rel`, 0-based) and the calendar month (`calendar`, 0 = January).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedMonth {
    /// Months elapsed since the epoch month, modulo 12.
    pub rel: u32,
    /// Calendar month, 0 = January … 11 = December.
    pub calendar: u32,
}

impl ResolvedMonth {
    /// Abbreviated calendar month name.
    pub fn name(&self) -> &'static str {
        MONTH_NAMES[self.calendar as usize]
    }
}

/// Maps [`SimTime`] onto calendar months given the epoch's starting month.
///
/// The DF3 experiment suite follows the paper's Figure 4 and starts the
/// simulated year on **November 1st** ([`Calendar::NOVEMBER_EPOCH`]);
/// full-year experiments (seasonality, economics) use
/// [`Calendar::JANUARY_EPOCH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calendar {
    /// Calendar month at t = 0 (0 = January).
    pub epoch_month: u32,
}

impl Calendar {
    /// Epoch at November 1st (Figure 4 convention).
    pub const NOVEMBER_EPOCH: Calendar = Calendar { epoch_month: 10 };
    /// Epoch at January 1st.
    pub const JANUARY_EPOCH: Calendar = Calendar { epoch_month: 0 };

    /// Resolve the month containing `t`.
    pub fn month_index(&self, t: SimTime) -> ResolvedMonth {
        let mut day = t.day_index().rem_euclid(365) as u32;
        let mut cal = self.epoch_month;
        let mut rel = 0;
        loop {
            let len = MONTH_DAYS[cal as usize];
            if day < len {
                return ResolvedMonth { rel, calendar: cal };
            }
            day -= len;
            cal = (cal + 1) % 12;
            rel += 1;
        }
    }

    /// Start time of the `rel`-th month after the epoch (may exceed a year).
    pub fn month_start(&self, rel: u32) -> SimTime {
        let mut days: i64 = 365 * (rel / 12) as i64;
        let mut cal = self.epoch_month;
        for _ in 0..(rel % 12) {
            days += MONTH_DAYS[cal as usize] as i64;
            cal = (cal + 1) % 12;
        }
        SimTime::ZERO + SimDuration::from_days(days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_seconds() {
        let t = SimTime::from_secs(12_345);
        assert_eq!(t.as_secs_f64(), 12_345.0);
        assert_eq!(t.as_micros(), 12_345 * 1_000_000);
    }

    #[test]
    fn fractional_seconds_round_to_microseconds() {
        let t = SimTime::from_secs_f64(1.234_567_89);
        assert_eq!(t.as_micros(), 1_234_568);
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::ZERO + SimDuration::HOUR * 3 + SimDuration::MINUTE;
        assert_eq!(t.as_secs_f64(), 3.0 * 3600.0 + 60.0);
        assert_eq!((t - SimTime::ZERO).as_hours_f64(), 3.0 + 1.0 / 60.0);
    }

    #[test]
    fn day_and_second_of_day() {
        let t = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_secs(3_661);
        assert_eq!(t.day_index(), 2);
        assert_eq!(t.second_of_day(), 3_661);
        assert!((t.hour_of_day() - 3_661.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn november_epoch_months() {
        let cal = Calendar::NOVEMBER_EPOCH;
        // Day 0 is November 1st.
        let m0 = cal.month_index(SimTime::ZERO);
        assert_eq!(m0.rel, 0);
        assert_eq!(m0.name(), "Nov");
        assert_eq!(m0.calendar, 10);
        // Day 30 is December 1st (November has 30 days).
        let dec = cal.month_index(SimTime::ZERO + SimDuration::from_days(30));
        assert_eq!(dec.name(), "Dec");
        // Day 61 is January 1st.
        let jan = cal.month_index(SimTime::ZERO + SimDuration::from_days(61));
        assert_eq!(jan.name(), "Jan");
        assert_eq!(jan.rel, 2);
        // The Figure 4 range Nov..May covers rel months 0..=6.
        let may = cal.month_index(SimTime::ZERO + SimDuration::from_days(61 + 31 + 28 + 31 + 30));
        assert_eq!(may.name(), "May");
        assert_eq!(may.rel, 6);
    }

    #[test]
    fn month_start_matches_month_index() {
        for cal in [Calendar::NOVEMBER_EPOCH, Calendar::JANUARY_EPOCH] {
            for rel in 0..12 {
                let start = cal.month_start(rel);
                let resolved = cal.month_index(start);
                assert_eq!(resolved.rel, rel, "cal={cal:?} rel={rel}");
                // One microsecond before the start belongs to the previous month.
                if rel > 0 {
                    let before = cal.month_index(start - SimDuration::MICROSECOND);
                    assert_eq!(before.rel, rel - 1);
                }
            }
        }
    }

    #[test]
    fn year_wraps_around() {
        let cal = Calendar::JANUARY_EPOCH;
        let t = SimTime::ZERO + SimDuration::YEAR + SimDuration::from_days(40);
        assert_eq!(cal.month_index(t).name(), "Feb");
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(90)), "90.000s");
        assert_eq!(format!("{}", SimDuration::from_hours(5)), "5.00h");
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3.00d");
    }

    #[test]
    fn since_and_saturating() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(25);
        assert_eq!(b.since(a).as_secs_f64(), 15.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn since_panics_on_negative() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::SECOND.mul_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::SECOND.mul_f64(1e-7), SimDuration::ZERO);
    }

    /// `round_i64` against the libm form it replaces, bit for bit.
    fn check_round(x: f64) -> Result<(), String> {
        for x in [x, -x] {
            if round_i64(x) != x.round() as i64 {
                return Err(format!("{x:e}: {} vs {}", round_i64(x), x.round() as i64));
            }
        }
        Ok(())
    }

    #[test]
    fn round_i64_matches_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0f64;
        let two63 = 9_223_372_036_854_775_808.0f64;
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.5f64.next_down(),
            0.5f64.next_up(),
            1.5,
            2.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52.next_down(),
            two63,
            two63.next_down(),
            two63.next_up(),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in edges {
            check_round(x).unwrap();
        }
    }

    proptest::proptest! {
        /// Any bit pattern: every class of f64, most of them huge or tiny.
        #[test]
        fn round_i64_matches_round_on_any_bits(bits in 0u64..u64::MAX) {
            check_round(f64::from_bits(bits))?;
        }

        /// Each half-integer, 2 ulps either side and its integer, at
        /// magnitudes from 1 to 2^53.
        #[test]
        fn round_i64_matches_round_near_halves(n in 0i64..(1i64 << 53), shift in 0u32..53) {
            let n = (n >> shift) as f64;
            let half = n + 0.5;
            let (below, above) = (half.next_down(), half.next_up());
            for x in [n, below.next_down(), below, half, above, above.next_up()] {
                check_round(x)?;
            }
        }
    }
}
