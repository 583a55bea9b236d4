//! Ready-queue disciplines.

use simcore::time::SimTime;
use std::collections::VecDeque;
use workloads::Job;

/// Queueing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First-come first-served.
    Fifo,
    /// Earliest (absolute) deadline first; deadline-free jobs go last,
    /// FIFO among themselves.
    Edf,
    /// Shortest job first (by remaining work).
    Sjf,
}

/// A ready queue of jobs under a discipline.
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    discipline: Discipline,
    jobs: VecDeque<Job>,
}

impl ReadyQueue {
    pub fn new(discipline: Discipline) -> Self {
        ReadyQueue {
            discipline,
            jobs: VecDeque::new(),
        }
    }

    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Enqueue a job at its discipline-defined position.
    pub fn push(&mut self, job: Job) {
        let pos = match self.discipline {
            Discipline::Fifo => self.jobs.len(),
            Discipline::Edf => {
                let key = job.absolute_deadline().unwrap_or(SimTime::MAX);
                self.jobs
                    .iter()
                    .position(|j| j.absolute_deadline().unwrap_or(SimTime::MAX) > key)
                    .unwrap_or(self.jobs.len())
            }
            Discipline::Sjf => self
                .jobs
                .iter()
                .position(|j| j.work_gops > job.work_gops)
                .unwrap_or(self.jobs.len()),
        };
        self.jobs.insert(pos, job);
    }

    /// Peek the head without removing it.
    pub fn peek(&self) -> Option<&Job> {
        self.jobs.front()
    }

    /// Return a just-popped job to the head of the queue (used when a
    /// dispatch attempt fails and the job must keep its position).
    pub fn push_front(&mut self, job: Job) {
        self.jobs.push_front(job);
    }

    /// Pop the head job.
    pub fn pop(&mut self) -> Option<Job> {
        self.jobs.pop_front()
    }

    /// Pop the first job that fits `free_cores` (head-of-line blocking
    /// avoidance for rigid parallel jobs — backfilling in its simplest
    /// form).
    pub fn pop_fitting(&mut self, free_cores: usize) -> Option<Job> {
        let idx = self.jobs.iter().position(|j| j.cores <= free_cores)?;
        self.jobs.remove(idx)
    }

    /// Drop and return jobs whose deadline has already passed at `now`
    /// (they can no longer be served usefully).
    pub fn drop_expired(&mut self, now: SimTime) -> Vec<Job> {
        let mut expired = Vec::new();
        self.jobs.retain(|j| {
            if let Some(d) = j.absolute_deadline() {
                if d <= now {
                    expired.push(*j);
                    return false;
                }
            }
            true
        });
        expired
    }

    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }
}

simcore::impl_snapshot! {
    enum Discipline { 0 => Fifo, 1 => Edf, 2 => Sjf }
}

simcore::impl_snapshot! {
    /// The deque order *is* the discipline-defined service order, so it
    /// checkpoints verbatim.
    ReadyQueue { discipline, jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;
    use workloads::{Flow, JobId};

    fn job(id: u64, work: f64, deadline_s: Option<i64>) -> Job {
        Job {
            id: JobId(id),
            flow: Flow::EdgeIndirect,
            arrival: SimTime::ZERO,
            work_gops: work,
            cores: 1,
            deadline: deadline_s.map(SimDuration::from_secs),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    #[test]
    fn fifo_preserves_order() {
        let mut q = ReadyQueue::new(Discipline::Fifo);
        for i in 0..5 {
            q.push(job(i, 100.0 - i as f64, None));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn edf_orders_by_deadline_with_deadline_free_last() {
        let mut q = ReadyQueue::new(Discipline::Edf);
        q.push(job(0, 1.0, None));
        q.push(job(1, 1.0, Some(50)));
        q.push(job(2, 1.0, Some(10)));
        q.push(job(3, 1.0, Some(30)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id.0).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn edf_ties_are_fifo() {
        let mut q = ReadyQueue::new(Discipline::Edf);
        q.push(job(0, 1.0, Some(10)));
        q.push(job(1, 1.0, Some(10)));
        assert_eq!(q.pop().unwrap().id.0, 0);
        assert_eq!(q.pop().unwrap().id.0, 1);
    }

    #[test]
    fn sjf_orders_by_work() {
        let mut q = ReadyQueue::new(Discipline::Sjf);
        q.push(job(0, 30.0, None));
        q.push(job(1, 10.0, None));
        q.push(job(2, 20.0, None));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn pop_fitting_skips_wide_jobs() {
        let mut q = ReadyQueue::new(Discipline::Fifo);
        let mut wide = job(0, 1.0, None);
        wide.cores = 8;
        let narrow = job(1, 1.0, None);
        q.push(wide);
        q.push(narrow);
        let got = q.pop_fitting(4).unwrap();
        assert_eq!(got.id.0, 1);
        assert_eq!(q.len(), 1);
        assert!(q.pop_fitting(4).is_none());
        assert!(q.pop_fitting(8).is_some());
    }

    #[test]
    fn push_front_restores_head_position() {
        let mut q = ReadyQueue::new(Discipline::Fifo);
        q.push(job(0, 1.0, None));
        q.push(job(1, 1.0, None));
        let head = q.pop().unwrap();
        q.push_front(head);
        assert_eq!(q.pop().unwrap().id.0, 0, "head keeps its position");
        assert_eq!(q.pop().unwrap().id.0, 1);
    }

    #[test]
    fn drop_expired_removes_past_deadlines() {
        let mut q = ReadyQueue::new(Discipline::Edf);
        q.push(job(0, 1.0, Some(10)));
        q.push(job(1, 1.0, Some(100)));
        let dropped = q.drop_expired(SimTime::from_secs(50));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id.0, 0);
        assert_eq!(q.len(), 1);
    }
}
