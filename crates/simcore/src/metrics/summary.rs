//! Streaming summary statistics (Welford's online algorithm).

/// Streaming mean/variance/min/max over observed values.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Summary {
    pub fn new() -> Self {
        Summary::default()
    }

    /// Record one observation. NaN observations are rejected loudly —
    /// silently absorbing NaN would corrupt every downstream statistic.
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "Summary::observe(NaN)");
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 when fewer than 2 observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (n-1 denominator); 0 when fewer than 2 observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

crate::impl_snapshot! {
    Summary { n, mean, m2, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 3.0)
            .collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.observe(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 400 {
                a.observe(x);
            } else {
                b.observe(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::new();
        s.observe(1.0);
        s.observe(3.0);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn nan_is_rejected() {
        Summary::new().observe(f64::NAN);
    }
}
