//! Monotone counters.

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    pub fn get(&self) -> u64 {
        self.value
    }

    /// Fraction of this counter relative to `total` (0 if total is 0).
    pub fn rate_of(&self, total: &Counter) -> f64 {
        if total.value == 0 {
            0.0
        } else {
            self.value as f64 / total.value as f64
        }
    }
}

crate::impl_snapshot!(Counter { value });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let mut c = Counter::new();
        c.inc();
        c.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn rate_of_total() {
        let mut miss = Counter::new();
        let mut total = Counter::new();
        for i in 0..10 {
            total.inc();
            if i % 4 == 0 {
                miss.inc();
            }
        }
        assert!((miss.rate_of(&total) - 0.3).abs() < 1e-12);
        assert_eq!(Counter::new().rate_of(&Counter::new()), 0.0);
    }
}
