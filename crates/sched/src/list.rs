//! Offline list scheduling of sequential tasks (LPT).
//!
//! Ref [14] (Dutot, Mounié, Trystram — scheduling parallel tasks) is
//! the paper's pointer for preemption/rescheduling theory; here we
//! implement the classic Longest-Processing-Time list rule on identical
//! machines, which the fairness module uses as its makespan engine.
//! LPT is a 4/3-approximation of the optimal makespan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A sequential task with a processing time (seconds at unit speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    pub work: f64,
}

impl Task {
    pub fn new(work: f64) -> Self {
        assert!(work > 0.0 && work.is_finite(), "bad task work {work}");
        Task { work }
    }
}

/// Result of a list schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Completion time of each input task (same order as the input).
    pub completion: Vec<f64>,
    /// Overall makespan.
    pub makespan: f64,
    /// Machine each task ran on.
    pub machine: Vec<usize>,
}

/// Schedule `tasks` on `m` identical machines with the LPT rule.
pub fn lpt_makespan(tasks: &[Task], m: usize) -> Schedule {
    assert!(m > 0, "need at least one machine");
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .work
            .partial_cmp(&tasks[a].work)
            .expect("NaN work")
            .then(a.cmp(&b))
    });
    // Min-heap of (machine finish time, machine id), deterministic ties.
    #[derive(PartialEq)]
    struct M(f64, usize);
    impl Eq for M {}
    impl Ord for M {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&o.0)
                .expect("NaN finish")
                .then(self.1.cmp(&o.1))
        }
    }
    impl PartialOrd for M {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    let mut heap: BinaryHeap<Reverse<M>> = (0..m).map(|i| Reverse(M(0.0, i))).collect();
    let mut completion = vec![0.0; tasks.len()];
    let mut machine = vec![0usize; tasks.len()];
    for &i in &order {
        let Reverse(M(finish, mid)) = heap.pop().expect("m > 0");
        let done = finish + tasks[i].work;
        completion[i] = done;
        machine[i] = mid;
        heap.push(Reverse(M(done, mid)));
    }
    let makespan = completion.iter().copied().fold(0.0, f64::max);
    Schedule {
        completion,
        makespan,
        machine,
    }
}

/// Lower bound on any schedule's makespan: max(total/m, longest task).
pub fn makespan_lower_bound(tasks: &[Task], m: usize) -> f64 {
    assert!(m > 0);
    let total: f64 = tasks.iter().map(|t| t.work).sum();
    let longest = tasks.iter().map(|t| t.work).fold(0.0, f64::max);
    (total / m as f64).max(longest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_machine_is_sum() {
        let tasks = vec![Task::new(3.0), Task::new(5.0), Task::new(2.0)];
        let s = lpt_makespan(&tasks, 1);
        assert!((s.makespan - 10.0).abs() < 1e-12);
    }

    #[test]
    fn classic_lpt_example() {
        // Works {5,5,4,4,3,3} on 2 machines: LPT gives 12 (optimal 12).
        let tasks: Vec<Task> = [5.0, 5.0, 4.0, 4.0, 3.0, 3.0]
            .iter()
            .map(|&w| Task::new(w))
            .collect();
        let s = lpt_makespan(&tasks, 2);
        assert!((s.makespan - 12.0).abs() < 1e-12);
    }

    #[test]
    fn completion_order_matches_input_indexing() {
        let tasks = vec![Task::new(1.0), Task::new(10.0)];
        let s = lpt_makespan(&tasks, 2);
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
        assert!((s.completion[1] - 10.0).abs() < 1e-12);
        assert_ne!(s.machine[0], s.machine[1]);
    }

    #[test]
    fn more_machines_never_hurt() {
        let tasks: Vec<Task> = (1..20).map(|i| Task::new(i as f64)).collect();
        let m2 = lpt_makespan(&tasks, 2).makespan;
        let m4 = lpt_makespan(&tasks, 4).makespan;
        let m8 = lpt_makespan(&tasks, 8).makespan;
        assert!(m4 <= m2 && m8 <= m4);
    }

    #[test]
    fn empty_task_set_has_zero_makespan() {
        let s = lpt_makespan(&[], 4);
        assert_eq!(s.makespan, 0.0);
        assert!(s.completion.is_empty());
    }

    proptest! {
        /// Any list schedule satisfies LB ≤ C ≤ total/m + (1−1/m)·pmax
        /// (Graham's bound), which is strictly below 2·LB.
        #[test]
        fn lpt_within_graham_bound(
            works in proptest::collection::vec(0.1f64..100.0, 1..40),
            m in 1usize..8
        ) {
            let tasks: Vec<Task> = works.iter().map(|&w| Task::new(w)).collect();
            let s = lpt_makespan(&tasks, m);
            let lb = makespan_lower_bound(&tasks, m);
            let total: f64 = works.iter().sum();
            let pmax = works.iter().copied().fold(0.0, f64::max);
            let graham = total / m as f64 + (1.0 - 1.0 / m as f64) * pmax;
            prop_assert!(s.makespan >= lb - 1e-9, "below lower bound");
            prop_assert!(
                s.makespan <= graham + 1e-9,
                "LPT {} exceeds Graham bound {}", s.makespan, graham
            );
            prop_assert!(s.makespan <= 2.0 * lb + 1e-9);
        }

        /// Work conservation: sum of per-machine loads equals total work.
        #[test]
        fn work_is_conserved(
            works in proptest::collection::vec(0.1f64..50.0, 1..30),
            m in 1usize..6
        ) {
            let tasks: Vec<Task> = works.iter().map(|&w| Task::new(w)).collect();
            let s = lpt_makespan(&tasks, m);
            let mut loads = vec![0.0; m];
            for (i, t) in tasks.iter().enumerate() {
                loads[s.machine[i]] += t.work;
            }
            let total: f64 = works.iter().sum();
            prop_assert!((loads.iter().sum::<f64>() - total).abs() < 1e-6);
            // And every completion is at most the makespan.
            prop_assert!(s.completion.iter().all(|&c| c <= s.makespan + 1e-9));
        }
    }

    #[test]
    #[should_panic]
    fn zero_machines_panics() {
        lpt_makespan(&[Task::new(1.0)], 0);
    }

    #[test]
    #[should_panic]
    fn zero_work_task_rejected() {
        Task::new(0.0);
    }
}
