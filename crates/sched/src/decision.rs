//! The local-vs-remote decision system.
//!
//! §III-A: "we do believe that the main challenge still remains in the
//! calibration of a decision system that states what to do locally and
//! remotely (on a remote DF server or in datacenter)." We model it as a
//! completion-time estimator: for each candidate placement, estimate
//! `network + queueing + service`, weight by an energy preference, and
//! pick the minimum. §IV's resource-oriented view — "the quality of the
//! delivered services depends on the resources" — is exactly what the
//! estimate encodes.

use simcore::time::SimDuration;
use workloads::Job;

/// A candidate placement for a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Run on the local cluster.
    Local,
    /// Run on sibling cluster `cluster`.
    Sibling { cluster: usize },
    /// Run in the remote datacenter.
    Datacenter,
}

/// Performance estimate of one candidate.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    pub placement: Placement,
    /// One-way input transfer + return-path time.
    pub network: SimDuration,
    /// Expected wait before cores are available.
    pub queueing: SimDuration,
    /// Service time on this resource (speed-adjusted).
    pub service: SimDuration,
    /// Marginal energy, J (a DF server's heat is useful in winter, so
    /// its effective energy cost can be ~0; a DC burns chilled power).
    pub energy_j: f64,
}

impl Candidate {
    /// Estimated completion latency.
    pub fn completion(&self) -> SimDuration {
        self.network + self.queueing + self.service
    }
}

/// The scoring policy.
#[derive(Debug, Clone, Copy)]
pub struct PlacementScorer {
    /// Seconds of latency a kilojoule of energy is worth. 0 = latency-
    /// only decisions; larger = greener placements win more often.
    pub s_per_kj: f64,
}

impl PlacementScorer {
    /// Latency-only scoring.
    pub fn latency_only() -> Self {
        PlacementScorer { s_per_kj: 0.0 }
    }

    /// Energy-aware scoring (used by experiment E6's hybrid platform).
    pub fn energy_aware(s_per_kj: f64) -> Self {
        assert!(s_per_kj >= 0.0);
        PlacementScorer { s_per_kj }
    }

    /// Score: lower is better.
    pub fn score(&self, c: &Candidate) -> f64 {
        c.completion().as_secs_f64() + self.s_per_kj * c.energy_j / 1_000.0
    }

    /// Pick the best feasible candidate for `job`: deadline-infeasible
    /// candidates are discarded first; among the rest the lowest score
    /// wins; `None` if no candidate can meet a deadline the job carries.
    pub fn choose(&self, job: &Job, candidates: &[Candidate]) -> Option<Placement> {
        assert!(!candidates.is_empty(), "no candidates supplied");
        let feasible: Vec<&Candidate> = match job.deadline {
            Some(d) => candidates.iter().filter(|c| c.completion() <= d).collect(),
            None => candidates.iter().collect(),
        };
        feasible
            .into_iter()
            .min_by(|a, b| {
                self.score(a)
                    .partial_cmp(&self.score(b))
                    .expect("NaN score")
            })
            .map(|c| c.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use workloads::{Flow, JobId};

    fn job(deadline_ms: Option<i64>) -> Job {
        Job {
            id: JobId(0),
            flow: Flow::EdgeIndirect,
            arrival: SimTime::ZERO,
            work_gops: 1.0,
            cores: 1,
            deadline: deadline_ms.map(SimDuration::from_millis),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    fn cand(p: Placement, net_ms: i64, queue_ms: i64, svc_ms: i64, energy_j: f64) -> Candidate {
        Candidate {
            placement: p,
            network: SimDuration::from_millis(net_ms),
            queueing: SimDuration::from_millis(queue_ms),
            service: SimDuration::from_millis(svc_ms),
            energy_j,
        }
    }

    #[test]
    fn idle_local_beats_cloud_for_interactive_jobs() {
        let scorer = PlacementScorer::latency_only();
        let local = cand(Placement::Local, 1, 0, 50, 0.0);
        let dc = cand(Placement::Datacenter, 45, 0, 20, 100.0);
        assert_eq!(
            scorer.choose(&job(None), &[local, dc]),
            Some(Placement::Local)
        );
    }

    #[test]
    fn congested_local_loses_to_cloud() {
        // The §III-B case for vertical offloading: a full cluster makes
        // the fast WAN + idle DC the better estimate.
        let scorer = PlacementScorer::latency_only();
        let local = cand(Placement::Local, 1, 5_000, 50, 0.0);
        let dc = cand(Placement::Datacenter, 45, 0, 20, 100.0);
        assert_eq!(
            scorer.choose(&job(None), &[local, dc]),
            Some(Placement::Datacenter)
        );
    }

    #[test]
    fn deadline_filters_infeasible_candidates() {
        let scorer = PlacementScorer::latency_only();
        let local = cand(Placement::Local, 1, 100, 50, 0.0); // 151 ms
        let dc = cand(Placement::Datacenter, 45, 0, 20, 0.0); // 65 ms
                                                              // 100 ms budget: only the DC is feasible even though local would
                                                              // win without the deadline? No — local is 151 ms and DC 65 ms, so
                                                              // DC wins either way; tighten to force the filter to matter:
        let fast_local = cand(Placement::Local, 1, 0, 50, 0.0); // 51 ms
        assert_eq!(
            scorer.choose(&job(Some(100)), &[local, dc]),
            Some(Placement::Datacenter)
        );
        assert_eq!(
            scorer.choose(&job(Some(60)), &[fast_local, dc]),
            Some(Placement::Local)
        );
        // Nothing feasible.
        assert_eq!(scorer.choose(&job(Some(10)), &[local, dc]), None);
    }

    #[test]
    fn energy_awareness_flips_close_calls() {
        // DC is 10 ms faster but burns 200 kJ more; at 0.1 s/kJ the DF
        // placement wins.
        let latency = PlacementScorer::latency_only();
        let green = PlacementScorer::energy_aware(0.1);
        let local = cand(Placement::Local, 1, 0, 100, 0.0);
        let dc = cand(Placement::Datacenter, 41, 0, 50, 200_000.0);
        assert_eq!(
            latency.choose(&job(None), &[local, dc]),
            Some(Placement::Datacenter)
        );
        assert_eq!(
            green.choose(&job(None), &[local, dc]),
            Some(Placement::Local)
        );
    }

    #[test]
    fn sibling_placement_can_win() {
        let scorer = PlacementScorer::latency_only();
        let local = cand(Placement::Local, 0, 900, 100, 0.0);
        let sib = cand(Placement::Sibling { cluster: 3 }, 10, 0, 100, 0.0);
        let dc = cand(Placement::Datacenter, 45, 0, 80, 0.0);
        assert_eq!(
            scorer.choose(&job(None), &[local, sib, dc]),
            Some(Placement::Sibling { cluster: 3 })
        );
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panic() {
        PlacementScorer::latency_only().choose(&job(None), &[]);
    }
}
