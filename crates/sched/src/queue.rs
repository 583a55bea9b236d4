//! Ready-queue disciplines.

use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
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
}

/// A ready queue of jobs under a discipline.
///
/// The queue keeps a running sum of its jobs' cores, so
/// [`ReadyQueue::queued_cores`] is O(1); every method that adds or
/// removes a job updates it. Under [`Discipline::Edf`] the deque stays
/// sorted by absolute deadline (no method reorders it), which lets
/// `push` binary-search its slot and `drop_expired` pop an expired
/// prefix.
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    discipline: Discipline,
    jobs: VecDeque<Job>,
    /// Sum of `cores` over `jobs` (derived; not checkpointed).
    cores: usize,
}

/// EDF sort key: the absolute deadline, with deadline-free jobs last.
fn edf_key(job: &Job) -> SimTime {
    job.absolute_deadline().unwrap_or(SimTime::MAX)
}

impl ReadyQueue {
    pub fn new(discipline: Discipline) -> Self {
        Self::from_jobs(discipline, VecDeque::new())
    }

    fn from_jobs(discipline: Discipline, jobs: VecDeque<Job>) -> Self {
        let cores = jobs.iter().map(|j| j.cores).sum();
        ReadyQueue {
            discipline,
            jobs,
            cores,
        }
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Cores requested by all queued jobs, O(1).
    pub fn queued_cores(&self) -> usize {
        self.cores
    }

    /// Whether an EDF queue is sorted by deadline (always true for
    /// FIFO). Checked in debug builds after each change.
    fn edf_sorted(&self) -> bool {
        self.discipline != Discipline::Edf
            || self
                .jobs
                .iter()
                .zip(self.jobs.iter().skip(1))
                .all(|(a, b)| edf_key(a) <= edf_key(b))
    }

    /// Enqueue a job at its discipline-defined position. EDF inserts
    /// after every job with an equal or earlier deadline, so ties stay
    /// FIFO.
    pub fn push(&mut self, job: Job) {
        let pos = match self.discipline {
            Discipline::Fifo => self.jobs.len(),
            Discipline::Edf => {
                let key = edf_key(&job);
                self.jobs.partition_point(|j| edf_key(j) <= key)
            }
        };
        self.jobs.insert(pos, job);
        self.cores += job.cores;
        debug_assert!(self.edf_sorted(), "EDF queue out of deadline order");
    }

    /// Peek the head without removing it.
    pub fn peek(&self) -> Option<&Job> {
        self.jobs.front()
    }

    /// Return a just-popped job to the head of the queue (used when a
    /// dispatch attempt fails and the job must keep its position).
    pub fn push_front(&mut self, job: Job) {
        self.jobs.push_front(job);
        self.cores += job.cores;
        debug_assert!(self.edf_sorted(), "EDF queue out of deadline order");
    }

    /// Pop the head job.
    pub fn pop(&mut self) -> Option<Job> {
        let job = self.jobs.pop_front()?;
        self.cores -= job.cores;
        Some(job)
    }

    /// Drop and return jobs whose deadline has already passed at `now`
    /// (they can no longer be served usefully), in queue order. Under
    /// EDF the expired jobs are a prefix of the queue and are popped
    /// off the front; FIFO scans the whole queue.
    pub fn drop_expired(&mut self, now: SimTime) -> Vec<Job> {
        let due = |j: &Job| j.absolute_deadline().is_some_and(|d| d <= now);
        let mut expired = Vec::new();
        if self.discipline == Discipline::Edf {
            while let Some(&j) = self.jobs.front().filter(|j| due(j)) {
                expired.push(j);
                self.jobs.pop_front();
            }
        } else {
            self.jobs.retain(|j| {
                let drop = due(j);
                if drop {
                    expired.push(*j);
                }
                !drop
            });
        }
        self.cores -= expired.iter().map(|j| j.cores).sum::<usize>();
        expired
    }

    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }
}

simcore::impl_snapshot! {
    enum Discipline { 0 => Fifo, 1 => Edf }
}

/// The deque order *is* the discipline-defined service order, so it
/// checkpoints verbatim. The core sum is derived: it is not written,
/// and decode recomputes it.
impl Snapshot for ReadyQueue {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.discipline.encode(w);
        self.jobs.encode(w);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let discipline = Discipline::decode(r)?;
        Ok(Self::from_jobs(discipline, VecDeque::decode(r)?))
    }
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
    fn push_front_restores_head_position() {
        let mut q = ReadyQueue::new(Discipline::Fifo);
        q.push(job(0, 1.0, None));
        q.push(job(1, 1.0, None));
        let head = q.pop().unwrap();
        q.push_front(head);
        assert_eq!(q.pop().unwrap().id.0, 0, "head keeps its position");
        assert_eq!(q.pop().unwrap().id.0, 1);
    }

    /// The linear EDF insert and full-scan expiry the binary-search
    /// insert and prefix expiry replace, kept as an oracle.
    fn reference_push(jobs: &mut Vec<Job>, job: Job) {
        let key = edf_key(&job);
        let pos = jobs
            .iter()
            .position(|j| edf_key(j) > key)
            .unwrap_or(jobs.len());
        jobs.insert(pos, job);
    }

    fn reference_drop_expired(jobs: &mut Vec<Job>, now: SimTime) -> Vec<Job> {
        let mut expired = Vec::new();
        jobs.retain(|j| match j.absolute_deadline() {
            Some(d) if d <= now => {
                expired.push(*j);
                false
            }
            _ => true,
        });
        expired
    }

    #[test]
    fn edf_matches_linear_reference_and_tracks_cores() {
        use rand::Rng;
        let mut rng: rand_chacha::ChaCha8Rng = simcore::RngStreams::new(7).stream("edf");
        let mut q = ReadyQueue::new(Discipline::Edf);
        let mut reference = Vec::new();
        let mut now = SimTime::ZERO;
        for id in 0..4_000u64 {
            match rng.gen_range(0u32..10) {
                0..=5 => {
                    // Few distinct deadlines, so ties are common.
                    let deadline = (rng.gen_range(0u32..4) > 0).then(|| rng.gen_range(1i64..40));
                    let mut j = job(id, 1.0, deadline);
                    j.arrival = now;
                    j.cores = rng.gen_range(1usize..9);
                    q.push(j);
                    reference_push(&mut reference, j);
                }
                6 | 7 => {
                    let popped = q.pop().map(|j| j.id);
                    let expected = (!reference.is_empty()).then(|| reference.remove(0).id);
                    assert_eq!(popped, expected);
                }
                _ => {
                    now += SimDuration::from_secs(rng.gen_range(0i64..15));
                    let ids = |js: Vec<Job>| js.into_iter().map(|j| j.id).collect::<Vec<_>>();
                    assert_eq!(
                        ids(q.drop_expired(now)),
                        ids(reference_drop_expired(&mut reference, now))
                    );
                }
            }
            assert!(
                q.iter().map(|j| j.id).eq(reference.iter().map(|j| j.id)),
                "order diverged at step {id}"
            );
            let cores: usize = reference.iter().map(|j| j.cores).sum();
            assert_eq!(q.queued_cores(), cores);
        }
    }

    #[test]
    fn queued_cores_survive_every_mutator_and_a_snapshot() {
        let mut q = ReadyQueue::new(Discipline::Fifo);
        for (i, cores) in [3, 1, 4, 1, 5].into_iter().enumerate() {
            let mut j = job(i as u64, 10.0 - i as f64, Some(10 * i as i64));
            j.cores = cores;
            q.push(j);
        }
        assert_eq!(q.queued_cores(), 14);
        let head = q.pop().unwrap();
        assert_eq!(q.queued_cores(), 14 - head.cores);
        q.push_front(head);
        assert_eq!(q.queued_cores(), 14);
        let expired = q.drop_expired(SimTime::from_secs(25));
        let left: usize = expired.iter().map(|j| j.cores).sum();
        assert_eq!(q.queued_cores(), 14 - left);
        let mut w = SnapshotWriter::new();
        q.encode(&mut w);
        let bytes = w.into_bytes();
        let back = ReadyQueue::decode(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(back.queued_cores(), q.queued_cores());
        assert!(back.iter().map(|j| j.id).eq(q.iter().map(|j| j.id)));
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
