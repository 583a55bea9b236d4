//! Admission control protecting edge guarantees.
//!
//! §III-B's architecture class B reserves dedicated workers so "we can
//! guarantee a minimal quality of service". The complementary mechanism
//! for class A is admission control on the DCC side: stop admitting
//! batch work when utilisation would push edge latency past its budget.

use workloads::Job;

use crate::offload::ClusterLoad;

/// Utilisation-threshold admission controller.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionControl {
    /// DCC jobs are admitted only below this utilisation.
    pub dcc_util_threshold: f64,
    /// Edge jobs are admitted only below this utilisation (usually 1.0:
    /// edge is what we protect).
    pub edge_util_threshold: f64,
    /// Hard cap on the queued-DCC backlog.
    pub max_dcc_queue: usize,
}

impl AdmissionControl {
    /// The configuration used by experiment E4: DCC throttled at 85 %,
    /// edge admitted until saturation, backlog capped at 200.
    pub fn protective() -> Self {
        AdmissionControl {
            dcc_util_threshold: 0.85,
            edge_util_threshold: 1.0,
            max_dcc_queue: 200,
        }
    }

    /// An open controller that admits everything (the ablation baseline).
    pub fn open() -> Self {
        AdmissionControl {
            dcc_util_threshold: f64::INFINITY,
            edge_util_threshold: f64::INFINITY,
            max_dcc_queue: usize::MAX,
        }
    }

    /// Whether `job` may be admitted to a cluster with load `load`.
    pub fn admit(&self, job: &Job, load: &ClusterLoad) -> bool {
        if job.is_edge() {
            load.utilisation() < self.edge_util_threshold || load.free_cores() >= job.cores
        } else {
            load.utilisation() < self.dcc_util_threshold && load.queued_dcc < self.max_dcc_queue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use workloads::{Flow, JobId};

    fn mk_job(flow: Flow) -> Job {
        Job {
            id: JobId(0),
            flow,
            arrival: SimTime::ZERO,
            work_gops: 1.0,
            cores: 1,
            deadline: matches!(flow, Flow::EdgeDirect | Flow::EdgeIndirect)
                .then(|| SimDuration::SECOND),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    fn load(total: usize, busy: usize, queued_dcc: usize) -> ClusterLoad {
        ClusterLoad {
            cluster: 0,
            total_cores: total,
            busy_cores: busy,
            preemptible_cores: 0,
            queued_edge: 0,
            queued_dcc,
        }
    }

    #[test]
    fn dcc_throttled_above_threshold() {
        let ac = AdmissionControl::protective();
        assert!(ac.admit(&mk_job(Flow::Dcc), &load(100, 80, 0)));
        assert!(!ac.admit(&mk_job(Flow::Dcc), &load(100, 90, 0)));
    }

    #[test]
    fn edge_admitted_past_dcc_threshold() {
        let ac = AdmissionControl::protective();
        // At 90 % the DCC job is refused but the edge job is admitted.
        assert!(ac.admit(&mk_job(Flow::EdgeIndirect), &load(100, 90, 0)));
    }

    #[test]
    fn backlog_cap_applies_to_dcc() {
        let ac = AdmissionControl::protective();
        assert!(!ac.admit(&mk_job(Flow::Dcc), &load(100, 10, 200)));
        assert!(ac.admit(&mk_job(Flow::Dcc), &load(100, 10, 199)));
    }

    #[test]
    fn open_controller_admits_everything() {
        let ac = AdmissionControl::open();
        assert!(ac.admit(&mk_job(Flow::Dcc), &load(100, 99, 10_000)));
        assert!(ac.admit(&mk_job(Flow::EdgeDirect), &load(100, 100, 0)));
    }
}
