//! Time-series recording with calendar aggregation.
//!
//! Figure 4 of the paper — mean room temperature per month from November
//! to May — is exactly a [`TimeSeries`] reduced by [`TimeSeries::monthly`].

use super::Summary;
use crate::time::{Calendar, SimTime};

/// A recorded sequence of (time, value) samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

/// Aggregate of one calendar month of samples.
#[derive(Debug, Clone)]
pub struct MonthlyAggregate {
    /// Month index relative to the calendar epoch (0-based).
    pub rel_month: u32,
    /// Abbreviated month name.
    pub month_name: &'static str,
    /// Statistics of the samples that fell in this month.
    pub stats: Summary,
}

impl TimeSeries {
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Record a sample. Samples must be pushed in non-decreasing time
    /// order (the engine guarantees this naturally).
    pub fn push(&mut self, t: SimTime, v: f64) {
        assert!(!v.is_nan(), "TimeSeries::push(NaN)");
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "TimeSeries: out-of-order sample");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Time of the latest sample.
    pub fn last_time(&self) -> Option<SimTime> {
        self.times.last().copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Summary over the whole series.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::new();
        for &v in &self.values {
            s.observe(v);
        }
        s
    }

    /// Group samples by calendar month (months that received no samples
    /// are omitted). Months are keyed by *relative* month index so a
    /// multi-year series yields more than 12 groups.
    pub fn monthly(&self, cal: Calendar) -> Vec<MonthlyAggregate> {
        let mut out: Vec<MonthlyAggregate> = Vec::new();
        for (t, v) in self.iter() {
            // Relative month including year wraps: derive from day index.
            let years = t.day_index().div_euclid(365) as u32;
            let m = cal.month_index(t);
            let rel = years * 12 + m.rel;
            match out.last_mut() {
                Some(last) if last.rel_month == rel => last.stats.observe(v),
                _ => {
                    let mut stats = Summary::new();
                    stats.observe(v);
                    out.push(MonthlyAggregate {
                        rel_month: rel,
                        month_name: m.name(),
                        stats,
                    });
                }
            }
        }
        out
    }
}

impl crate::snapshot::Snapshot for TimeSeries {
    fn encode(&self, w: &mut crate::snapshot::SnapshotWriter) {
        self.times.encode(w);
        self.values.encode(w);
    }
    fn decode(
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let times = Vec::<SimTime>::decode(r)?;
        let values = Vec::<f64>::decode(r)?;
        if times.len() != values.len() {
            return Err(SnapshotError::Corrupt(format!(
                "time series: {} times vs {} values",
                times.len(),
                values.len()
            )));
        }
        // What `push` would have refused can never have been recorded.
        if times.windows(2).any(|w| w[1] < w[0]) {
            return Err(SnapshotError::Corrupt(
                "time series: out-of-order samples".into(),
            ));
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(SnapshotError::Corrupt("time series: NaN sample".into()));
        }
        Ok(TimeSeries { times, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn decode_refuses_what_push_refuses() {
        use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
        let decode = |times: Vec<SimTime>, values: Vec<f64>| {
            let mut w = SnapshotWriter::new();
            times.encode(&mut w);
            values.encode(&mut w);
            TimeSeries::decode(&mut SnapshotReader::new(&w.into_bytes())).map(|s| s.iter().count())
        };
        let (t1, t2) = (SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(decode(vec![t1, t2], vec![1.0, 2.0]), Ok(2));
        assert_eq!(
            decode(vec![t2, t1], vec![1.0, 2.0]),
            Err(SnapshotError::Corrupt(
                "time series: out-of-order samples".into()
            ))
        );
        assert_eq!(
            decode(vec![t1, t2], vec![1.0, f64::NAN]),
            Err(SnapshotError::Corrupt("time series: NaN sample".into()))
        );
    }

    #[test]
    fn monthly_grouping_november_epoch() {
        let mut ts = TimeSeries::new();
        // One sample per day for 120 days from Nov 1.
        for d in 0..120 {
            ts.push(
                SimTime::ZERO + SimDuration::from_days(d) + SimDuration::HOUR,
                d as f64,
            );
        }
        let months = ts.monthly(Calendar::NOVEMBER_EPOCH);
        assert_eq!(months[0].month_name, "Nov");
        assert_eq!(months[0].stats.count(), 30);
        assert_eq!(months[1].month_name, "Dec");
        assert_eq!(months[1].stats.count(), 31);
        assert_eq!(months[2].month_name, "Jan");
        assert_eq!(months[2].stats.count(), 31);
        assert_eq!(months[3].month_name, "Feb");
        assert_eq!(months[3].stats.count(), 28);
        // Mean of Nov samples is mean of 0..30 = 14.5.
        assert!((months[0].stats.mean() - 14.5).abs() < 1e-12);
    }

    #[test]
    fn monthly_handles_multi_year() {
        let mut ts = TimeSeries::new();
        for d in 0..(365 + 40) {
            ts.push(SimTime::ZERO + SimDuration::from_days(d), 1.0);
        }
        let months = ts.monthly(Calendar::JANUARY_EPOCH);
        assert_eq!(months.len(), 14); // 12 + Jan + Feb of year 2
        assert_eq!(months[12].month_name, "Jan");
        assert_eq!(months[12].rel_month, 12);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(5), 1.0);
    }
}
