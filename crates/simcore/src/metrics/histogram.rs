//! Fixed-bin histogram with percentile interpolation.

use super::Summary;

/// A histogram over `[lo, hi)` with equal-width bins plus under/overflow
/// buckets; also keeps a [`Summary`] so exact mean/min/max survive binning.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `nbins` equal bins.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            summary: Summary::new(),
        }
    }

    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "Histogram::observe(NaN)");
        self.summary.observe(x);
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    pub fn min(&self) -> f64 {
        self.summary.min()
    }

    pub fn max(&self) -> f64 {
        self.summary.max()
    }

    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Fraction of observations that fell outside `[lo, hi)`.
    pub fn outlier_fraction(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        (self.underflow + self.overflow) as f64 / self.count() as f64
    }

    /// Approximate quantile `q ∈ [0, 1]` with linear interpolation within
    /// the containing bin. Underflow counts as `lo`, overflow as `hi`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = q * n as f64;
        let mut acc = self.underflow as f64;
        if target <= acc {
            return self.summary.min().max(self.lo.min(self.summary.min()));
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = acc + c as f64;
            if target <= next && c > 0 {
                let frac = (target - acc) / c as f64;
                return self.lo + w * (i as f64 + frac);
            }
            acc = next;
        }
        self.summary.max().min(self.hi)
    }

    /// Convenience percentiles.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merge another histogram with identical binning.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.summary.merge(&other.summary);
    }

    /// Bin edges and counts, for export.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + w * i as f64, self.lo + w * (i + 1) as f64, c))
    }

    /// Coalesce the fine bins into at most `max_buckets` *cumulative*
    /// `(le, count)` pairs — the shape Prometheus histograms expose.
    /// Underflow counts toward every bucket (observations ≤ `lo` are ≤
    /// any upper bound); overflow only reaches the implicit `+Inf`
    /// bucket the exporter adds from `count()`.
    pub fn cumulative_buckets(&self, max_buckets: usize) -> Vec<(f64, u64)> {
        assert!(max_buckets > 0);
        let group = self.bins.len().div_ceil(max_buckets);
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut out = Vec::with_capacity(max_buckets);
        let mut cum = self.underflow;
        for (i, chunk) in self.bins.chunks(group).enumerate() {
            cum += chunk.iter().sum::<u64>();
            let upper_bin = (i * group + chunk.len()) as f64;
            out.push((self.lo + w * upper_bin, cum));
        }
        out
    }
}

impl crate::snapshot::Snapshot for Histogram {
    fn encode(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_f64(self.lo);
        w.put_f64(self.hi);
        self.bins.encode(w);
        w.put_u64(self.underflow);
        w.put_u64(self.overflow);
        self.summary.encode(w);
    }
    fn decode(
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let lo = r.take_f64()?;
        let hi = r.take_f64()?;
        let bins = Vec::<u64>::decode(r)?;
        // Re-check the constructor invariants so a decoded histogram can
        // never panic later in `observe`/`quantile`.
        if hi <= lo || hi.is_nan() || lo.is_nan() || bins.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "histogram range [{lo}, {hi}) with {} bins",
                bins.len()
            )));
        }
        Ok(Histogram {
            lo,
            hi,
            bins,
            underflow: r.take_u64()?,
            overflow: r.take_u64()?,
            summary: Summary::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_data_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..10_000 {
            h.observe((i % 100) as f64 + 0.5);
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.p50() - 50.0).abs() < 1.5, "p50={}", h.p50());
        assert!((h.p95() - 95.0).abs() < 1.5, "p95={}", h.p95());
        assert!((h.quantile(0.0) - 0.0).abs() < 1.0);
        assert!((h.quantile(1.0) - 100.0).abs() < 1.0);
    }

    #[test]
    fn mean_is_exact_despite_binning() {
        let mut h = Histogram::new(0.0, 10.0, 2); // deliberately coarse
        for x in [1.0, 2.0, 3.0, 9.0] {
            h.observe(x);
        }
        assert!((h.mean() - 3.75).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn overflow_and_underflow_tracked() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.observe(-5.0);
        h.observe(15.0);
        h.observe(5.0);
        assert!((h.outlier_fraction() - 2.0 / 3.0).abs() < 1e-12);
        // p99 of data dominated by overflow clamps to hi.
        let q = h.quantile(0.99);
        assert!((5.0..=15.0).contains(&q));
    }

    #[test]
    fn merge_matches_combined() {
        let mut a = Histogram::new(0.0, 100.0, 50);
        let mut b = Histogram::new(0.0, 100.0, 50);
        let mut whole = Histogram::new(0.0, 100.0, 50);
        for i in 0..1000 {
            let x = (i * 37 % 100) as f64;
            whole.observe(x);
            if i % 2 == 0 {
                a.observe(x);
            } else {
                b.observe(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.p50() - whole.p50()).abs() < 1e-9);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn cumulative_buckets_coalesce_and_accumulate() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        h.observe(-1.0); // underflow: ≤ every bound
        h.observe(5.0);
        h.observe(55.0);
        h.observe(200.0); // overflow: only in the implicit +Inf
        let b = h.cumulative_buckets(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b[0], (10.0, 2), "underflow + the 5.0 sample");
        assert_eq!(b[5], (60.0, 3));
        assert_eq!(b[9].1, 3, "overflow is not in any finite bucket");
        assert!(b.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        // Coarser than the bin count still covers the range.
        let one = h.cumulative_buckets(1);
        assert_eq!(one, vec![(100.0, 3)]);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new(0.0, 1_000.0, 1_000);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.outlier_fraction(), 0.0);
    }

    #[test]
    fn bins_iterator_covers_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.observe(3.0);
        let bins: Vec<_> = h.bins().collect();
        assert_eq!(bins.len(), 5);
        assert_eq!(bins[0].0, 0.0);
        assert_eq!(bins[4].1, 10.0);
        assert_eq!(bins[1].2, 1); // 3.0 falls in [2,4)
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }
}
