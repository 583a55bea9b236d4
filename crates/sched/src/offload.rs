//! Peak management: preempt, offload (vertically or horizontally), or
//! delay.
//!
//! §III-B enumerates the options when a cluster is full: preemption
//! (bounded by cluster size), **vertical offloading** "towards
//! datacenter nodes", **horizontal offloading** "towards another
//! cluster of DF servers" (which "raises questions about the fairness
//! of cooperation between clusters \[16\]"), or "not to scale but to
//! delay the processing". [`PeakPolicy`] encodes a strategy; the
//! platform consults it whenever placement fails.

use std::borrow::Borrow;
use workloads::Job;

/// Load snapshot of one cluster, as seen by the decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterLoad {
    pub cluster: usize,
    pub total_cores: usize,
    pub busy_cores: usize,
    /// Cores held by preemptible (DCC) tasks.
    pub preemptible_cores: usize,
    pub queued_edge: usize,
    pub queued_dcc: usize,
}

impl ClusterLoad {
    pub fn free_cores(&self) -> usize {
        self.total_cores - self.busy_cores
    }

    pub fn utilisation(&self) -> f64 {
        if self.total_cores == 0 {
            return 1.0;
        }
        self.busy_cores as f64 / self.total_cores as f64
    }
}

/// What to do with a job that cannot be placed locally right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakAction {
    /// Preempt DCC tasks locally to make room.
    Preempt,
    /// Send to the datacenter.
    OffloadVertical,
    /// Send to sibling cluster `target`.
    OffloadHorizontal { target: usize },
    /// Keep it queued locally.
    Delay,
    /// Refuse it outright (admission failure).
    Reject,
}

impl PeakAction {
    /// Stable snake_case name for telemetry and run reports.
    pub fn label(&self) -> &'static str {
        match self {
            PeakAction::Preempt => "preempt",
            PeakAction::OffloadVertical => "offload_vertical",
            PeakAction::OffloadHorizontal { .. } => "offload_horizontal",
            PeakAction::Delay => "delay",
            PeakAction::Reject => "reject",
        }
    }
}

/// A peak-management strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeakPolicy {
    /// Always delay (the "not to scale" option).
    AlwaysDelay,
    /// Preempt for edge jobs when enough preemptible cores exist,
    /// otherwise delay. DCC jobs are always delayed.
    PreemptFirst,
    /// Offload to the datacenter whenever local placement fails.
    VerticalFirst,
    /// Offload to the least-loaded sibling if it has room; fall back to
    /// vertical offload. `max_sibling_util` guards against dumping work
    /// on an equally-stressed neighbour (the ref \[16\] fairness concern).
    HorizontalFirst { max_sibling_util: f64 },
    /// Preempt for edge, vertical for DCC — the hybrid §III-A sketches.
    Hybrid,
}

impl PeakPolicy {
    /// Stable snake_case name for telemetry and run reports.
    pub fn label(&self) -> &'static str {
        match self {
            PeakPolicy::AlwaysDelay => "always_delay",
            PeakPolicy::PreemptFirst => "preempt_first",
            PeakPolicy::VerticalFirst => "vertical_first",
            PeakPolicy::HorizontalFirst { .. } => "horizontal_first",
            PeakPolicy::Hybrid => "hybrid",
        }
    }
}

impl PeakPolicy {
    /// Decide the action for `job` on `local`, given sibling cluster
    /// loads (`siblings` excludes the local cluster). `siblings` is any
    /// iterable of loads or references to loads: a slice, or a lazy
    /// view over the fleet that computes each load on demand. It is
    /// walked at most once, and not at all by the policies that never
    /// offload horizontally.
    pub fn decide<I>(&self, job: &Job, local: &ClusterLoad, siblings: I) -> PeakAction
    where
        I: IntoIterator,
        I::Item: Borrow<ClusterLoad>,
    {
        match self {
            PeakPolicy::AlwaysDelay => PeakAction::Delay,
            PeakPolicy::PreemptFirst => {
                if job.is_edge() && local.preemptible_cores >= job.cores {
                    PeakAction::Preempt
                } else {
                    PeakAction::Delay
                }
            }
            PeakPolicy::VerticalFirst => PeakAction::OffloadVertical,
            PeakPolicy::HorizontalFirst { max_sibling_util } => {
                match best_sibling(job, siblings, *max_sibling_util) {
                    Some(target) => PeakAction::OffloadHorizontal { target },
                    None => PeakAction::OffloadVertical,
                }
            }
            PeakPolicy::Hybrid => {
                if job.is_edge() {
                    if local.preemptible_cores >= job.cores {
                        PeakAction::Preempt
                    } else {
                        match best_sibling(job, siblings, 0.9) {
                            Some(target) => PeakAction::OffloadHorizontal { target },
                            None => PeakAction::Reject, // an edge job in the DC misses its deadline anyway
                        }
                    }
                } else {
                    PeakAction::OffloadVertical
                }
            }
        }
    }
}

/// The least-utilised sibling that has room for the job and is below the
/// utilisation cap; equal utilisations go to the lowest cluster index.
fn best_sibling<I>(job: &Job, siblings: I, max_util: f64) -> Option<usize>
where
    I: IntoIterator,
    I::Item: Borrow<ClusterLoad>,
{
    siblings
        .into_iter()
        .filter_map(|s| {
            let s = s.borrow();
            let util = s.utilisation();
            (s.free_cores() >= job.cores && util <= max_util).then_some((util, s.cluster))
        })
        .min_by(|a, b| a.partial_cmp(b).expect("NaN utilisation"))
        .map(|(_, cluster)| cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use workloads::{Flow, JobId};

    fn edge_job(cores: usize) -> Job {
        Job {
            id: JobId(1),
            flow: Flow::EdgeIndirect,
            arrival: SimTime::ZERO,
            work_gops: 10.0,
            cores,
            deadline: Some(SimDuration::SECOND),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    fn dcc_job(cores: usize) -> Job {
        Job {
            flow: Flow::Dcc,
            deadline: None,
            ..edge_job(cores)
        }
    }

    fn load(cluster: usize, total: usize, busy: usize, preemptible: usize) -> ClusterLoad {
        ClusterLoad {
            cluster,
            total_cores: total,
            busy_cores: busy,
            preemptible_cores: preemptible,
            queued_edge: 0,
            queued_dcc: 0,
        }
    }

    #[test]
    fn preempt_first_only_preempts_for_edge() {
        let p = PeakPolicy::PreemptFirst;
        let local = load(0, 16, 16, 8);
        let none: &[ClusterLoad] = &[];
        assert_eq!(p.decide(&edge_job(2), &local, none), PeakAction::Preempt);
        assert_eq!(p.decide(&dcc_job(2), &local, none), PeakAction::Delay);
        // Not enough preemptible cores → delay.
        assert_eq!(p.decide(&edge_job(12), &local, none), PeakAction::Delay);
    }

    #[test]
    fn horizontal_picks_least_loaded_sibling() {
        let p = PeakPolicy::HorizontalFirst {
            max_sibling_util: 0.8,
        };
        let local = load(0, 16, 16, 0);
        let siblings = [load(1, 16, 12, 0), load(2, 16, 4, 0), load(3, 16, 8, 0)];
        assert_eq!(
            p.decide(&edge_job(2), &local, &siblings[..]),
            PeakAction::OffloadHorizontal { target: 2 }
        );
    }

    #[test]
    fn horizontal_respects_utilisation_cap_and_falls_back() {
        let p = PeakPolicy::HorizontalFirst {
            max_sibling_util: 0.5,
        };
        let local = load(0, 16, 16, 0);
        let siblings = [load(1, 16, 12, 0), load(2, 16, 10, 0)];
        // All siblings above 50 % → vertical fallback.
        assert_eq!(
            p.decide(&dcc_job(2), &local, &siblings[..]),
            PeakAction::OffloadVertical
        );
    }

    #[test]
    fn horizontal_requires_room() {
        let p = PeakPolicy::HorizontalFirst {
            max_sibling_util: 0.99,
        };
        let local = load(0, 16, 16, 0);
        let siblings = [load(1, 16, 15, 0)]; // only 1 free core
        assert_eq!(
            p.decide(&edge_job(4), &local, &siblings[..]),
            PeakAction::OffloadVertical
        );
    }

    #[test]
    fn hybrid_splits_by_flow() {
        let p = PeakPolicy::Hybrid;
        let local = load(0, 16, 16, 4);
        let siblings = [load(1, 16, 2, 0)];
        assert_eq!(
            p.decide(&edge_job(2), &local, &siblings[..]),
            PeakAction::Preempt
        );
        assert_eq!(
            p.decide(&dcc_job(2), &local, &siblings[..]),
            PeakAction::OffloadVertical
        );
        // Edge too wide to preempt → horizontal.
        assert_eq!(
            p.decide(&edge_job(8), &local, &siblings[..]),
            PeakAction::OffloadHorizontal { target: 1 }
        );
        // No sibling has room → reject rather than ship edge to the DC.
        let full_siblings = [load(1, 16, 16, 0)];
        assert_eq!(
            p.decide(&edge_job(8), &local, &full_siblings[..]),
            PeakAction::Reject
        );
    }

    #[test]
    fn slice_and_iterator_views_decide_alike() {
        // Ties at 25 % (clusters 2 and 4, listed out of order) and a
        // dark sibling with no cores, which must never be chosen.
        let siblings = [
            load(3, 16, 12, 0),
            load(4, 16, 4, 0),
            load(5, 0, 0, 0),
            load(2, 16, 4, 0),
            load(1, 32, 8, 8),
        ];
        let local = load(0, 16, 16, 2);
        let policies = [
            PeakPolicy::AlwaysDelay,
            PeakPolicy::PreemptFirst,
            PeakPolicy::VerticalFirst,
            PeakPolicy::HorizontalFirst {
                max_sibling_util: 0.8,
            },
            PeakPolicy::HorizontalFirst {
                max_sibling_util: 0.1,
            },
            PeakPolicy::Hybrid,
        ];
        for p in policies {
            for job in [edge_job(1), edge_job(4), edge_job(13), dcc_job(2)] {
                let by_slice = p.decide(&job, &local, &siblings[..]);
                let by_iter = p.decide(&job, &local, siblings.iter().copied());
                let by_ref_iter = p.decide(&job, &local, siblings.iter());
                assert_eq!(by_slice, by_iter, "{p:?} {job:?}");
                assert_eq!(by_slice, by_ref_iter, "{p:?} {job:?}");
                // An empty view (a partitioned fiber) never offloads
                // horizontally.
                let alone = p.decide(&job, &local, std::iter::empty::<ClusterLoad>());
                assert!(!matches!(alone, PeakAction::OffloadHorizontal { .. }));
            }
        }
        let p = PeakPolicy::HorizontalFirst {
            max_sibling_util: 0.8,
        };
        assert_eq!(
            p.decide(&edge_job(4), &local, siblings.iter().copied()),
            PeakAction::OffloadHorizontal { target: 1 },
            "cluster 1 also sits at 25 %; the lowest index wins the tie"
        );
        assert_eq!(
            p.decide(&edge_job(13), &local, siblings.iter().copied()),
            PeakAction::OffloadHorizontal { target: 1 },
            "only cluster 1 has 13 free cores"
        );
        let dark_only = [load(5, 0, 0, 0)];
        assert_eq!(
            p.decide(&edge_job(1), &local, dark_only.iter().copied()),
            PeakAction::OffloadVertical,
            "a dark sibling has no room"
        );
    }

    #[test]
    fn utilisation_of_empty_cluster_is_full() {
        assert_eq!(load(0, 0, 0, 0).utilisation(), 1.0);
    }
}
