//! Preemption victim selection.
//!
//! §III-B: when the cluster is full and an edge request arrives, "the
//! first \[solution\] is to use preemption \[14\] to reschedule some DCC
//! requests." Edge jobs never get preempted (they hold the real-time
//! guarantee); DCC jobs are chosen as victims least progress first, so
//! a preemption that restarts its slice wastes the least work.

use workloads::JobId;

/// A running DCC task eligible for preemption.
#[derive(Debug, Clone, Copy)]
pub struct RunningTask {
    pub id: JobId,
    /// Cores it currently holds.
    pub cores: usize,
    /// Work already completed, Gop.
    pub progress_gops: f64,
    /// Total work, Gop.
    pub total_gops: f64,
}

impl RunningTask {
    /// Fraction of the job already done.
    pub fn progress(&self) -> f64 {
        if self.total_gops <= 0.0 {
            return 1.0;
        }
        (self.progress_gops / self.total_gops).clamp(0.0, 1.0)
    }
}

/// Choose a minimal set of victims freeing at least `needed_cores`,
/// taking the task with the least completed fraction first (ties by
/// id). Returns `None` if even preempting everything would not suffice.
pub fn select_victims(running: &[RunningTask], needed_cores: usize) -> Option<Vec<JobId>> {
    if needed_cores == 0 {
        return Some(Vec::new());
    }
    let total: usize = running.iter().map(|t| t.cores).sum();
    if total < needed_cores {
        return None;
    }
    let mut candidates: Vec<&RunningTask> = running.iter().collect();
    candidates.sort_by(|a, b| {
        a.progress()
            .partial_cmp(&b.progress())
            .expect("NaN progress")
            .then(a.id.cmp(&b.id))
    });
    let mut victims = Vec::new();
    let mut freed = 0;
    for t in candidates {
        if freed >= needed_cores {
            break;
        }
        victims.push(t.id);
        freed += t.cores;
    }
    debug_assert!(freed >= needed_cores);
    Some(victims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, cores: usize, progress: f64) -> RunningTask {
        RunningTask {
            id: JobId(id),
            cores,
            progress_gops: progress * 100.0,
            total_gops: 100.0,
        }
    }

    #[test]
    fn least_progress_first_minimises_waste() {
        let running = [task(0, 2, 0.9), task(1, 2, 0.4), task(2, 2, 0.05)];
        let v = select_victims(&running, 2).unwrap();
        assert_eq!(v, vec![JobId(2)]);
    }

    #[test]
    fn multiple_victims_when_needed() {
        let running = [task(0, 2, 0.1), task(1, 2, 0.2), task(2, 2, 0.3)];
        let v = select_victims(&running, 5).unwrap();
        assert_eq!(v.len(), 3, "need 5 cores → all three 2-core tasks");
    }

    #[test]
    fn infeasible_returns_none() {
        let running = [task(0, 2, 0.1)];
        assert!(select_victims(&running, 3).is_none());
        assert!(select_victims(&[], 1).is_none());
    }

    #[test]
    fn zero_need_is_empty() {
        let running = [task(0, 2, 0.1)];
        assert_eq!(select_victims(&running, 0).unwrap(), Vec::<JobId>::new());
    }

    #[test]
    fn progress_is_clamped() {
        let t = RunningTask {
            id: JobId(0),
            cores: 1,
            progress_gops: 150.0,
            total_gops: 100.0,
        };
        assert_eq!(t.progress(), 1.0);
    }
}
