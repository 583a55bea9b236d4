//! Per-job retry metadata.
//!
//! [`Job`](crate::Job) is a `Copy` value constructed literally all over
//! the workload generators, so retry attempt counts live in a side
//! table keyed by [`JobId`] instead of a new field. The platform
//! records an attempt each time it re-submits a rejected edge request
//! and forgets the entry at any terminal outcome (completion, expiry,
//! abandonment), so the book only holds jobs with an open retry chain.

use crate::JobId;
use std::collections::BTreeMap;

/// Attempt counts for jobs currently in a retry chain.
#[derive(Debug, Clone, Default)]
pub struct RetryBook {
    attempts: BTreeMap<JobId, u32>,
}

impl RetryBook {
    pub fn new() -> Self {
        Self::default()
    }

    /// Retries already spent on `id` (0 for first-time rejections).
    pub fn attempts(&self, id: JobId) -> u32 {
        self.attempts.get(&id).copied().unwrap_or(0)
    }

    /// Record one more attempt; returns the new (1-based) attempt count.
    pub fn record_attempt(&mut self, id: JobId) -> u32 {
        let n = self.attempts.entry(id).or_insert(0);
        *n += 1;
        *n
    }

    /// Drop the entry at a terminal outcome.
    pub fn forget(&mut self, id: JobId) {
        self.attempts.remove(&id);
    }

    /// Jobs with an open retry chain.
    pub fn open_chains(&self) -> usize {
        self.attempts.len()
    }
}

simcore::impl_snapshot!(RetryBook { attempts });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_accumulate_until_forgotten() {
        let mut b = RetryBook::new();
        assert_eq!(b.attempts(JobId(7)), 0);
        assert_eq!(b.record_attempt(JobId(7)), 1);
        assert_eq!(b.record_attempt(JobId(7)), 2);
        assert_eq!(b.attempts(JobId(7)), 2);
        assert_eq!(b.attempts(JobId(8)), 0);
        assert_eq!(b.open_chains(), 1);
        b.forget(JobId(7));
        assert_eq!(b.attempts(JobId(7)), 0);
        assert_eq!(b.open_chains(), 0);
    }
}
