//! Multi-organisation cooperation and fairness (ref [16]).
//!
//! §III-B: horizontal offloading "raises questions about the fairness
//! of cooperation between clusters [Pascual, Rzadca, Trystram]." The
//! MOSP (multi-organization scheduling) model: each organisation owns a
//! cluster and a job set; cooperation shares all clusters. Cooperation
//! is *acceptable* when no organisation's makespan is worse than what
//! it could achieve alone on its own cluster. We implement:
//!
//! - per-organisation accounting ([`OrgAccount`]),
//! - Jain's fairness index over received service,
//! - the cooperation check ([`cooperation_is_fair`]) comparing
//!   cooperative makespans to selfish (local-only) ones via LPT list
//!   scheduling ([`crate::list`]).

use crate::list::{lpt_makespan, Task};

/// Service received by one organisation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrgAccount {
    pub org: u32,
    /// Work it submitted, Gop.
    pub submitted_gops: f64,
    /// Work completed for it, Gop.
    pub served_gops: f64,
    /// Work it executed for *other* organisations (its contribution).
    pub hosted_foreign_gops: f64,
}

impl OrgAccount {
    /// Service ratio: served / submitted (1.0 when it submitted nothing).
    pub fn service_ratio(&self) -> f64 {
        if self.submitted_gops <= 0.0 {
            return 1.0;
        }
        self.served_gops / self.submitted_gops
    }
}

/// Jain's fairness index over a set of allocations: 1.0 = perfectly
/// fair, 1/n = maximally unfair. Empty or all-zero input yields 1.0.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    assert!(xs.iter().all(|&x| x >= 0.0), "allocations must be ≥ 0");
    let sum: f64 = xs.iter().sum();
    if sum <= 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// One organisation's scheduling instance.
#[derive(Debug, Clone)]
pub struct OrgInstance {
    /// Cores its own cluster provides.
    pub own_cores: usize,
    /// Its jobs' sequential works (Gop) at unit speed (1 Gop = 1 s).
    pub tasks: Vec<Task>,
}

/// Outcome of a cooperative schedule for one organisation.
#[derive(Debug, Clone, Copy)]
pub struct CooperationOutcome {
    pub org: usize,
    /// Makespan if it schedules alone on its own cluster.
    pub selfish_makespan: f64,
    /// Its makespan under the cooperative schedule.
    pub cooperative_makespan: f64,
}

impl CooperationOutcome {
    /// The MOSP acceptability criterion: cooperation must not hurt.
    pub fn is_acceptable(&self) -> bool {
        self.cooperative_makespan <= self.selfish_makespan * (1.0 + 1e-9)
    }
}

/// Evaluate a simple cooperative scheme: pool all cores, schedule the
/// union by LPT, and attribute to each organisation the completion time
/// of its *own* last task. Returns one outcome per organisation.
///
/// This is the baseline scheme whose possible unfairness ref [16]
/// analyses; experiment E5 reports how often it violates acceptability
/// and what the global makespan gain is.
pub fn evaluate_cooperation(orgs: &[OrgInstance]) -> Vec<CooperationOutcome> {
    assert!(!orgs.is_empty());
    let total_cores: usize = orgs.iter().map(|o| o.own_cores).sum();
    assert!(total_cores > 0, "no cores in the federation");
    // Selfish baselines.
    let selfish: Vec<f64> = orgs
        .iter()
        .map(|o| lpt_makespan(&o.tasks, o.own_cores).makespan)
        .collect();
    // Cooperative: pool everything, tag tasks by owner.
    let mut pooled: Vec<(usize, Task)> = Vec::new();
    for (i, o) in orgs.iter().enumerate() {
        for &t in &o.tasks {
            pooled.push((i, t));
        }
    }
    let tasks: Vec<Task> = pooled.iter().map(|&(_, t)| t).collect();
    let schedule = lpt_makespan(&tasks, total_cores);
    // Per-org cooperative makespan: completion of its last-finishing task.
    let mut coop = vec![0.0f64; orgs.len()];
    for (idx, &(org, _)) in pooled.iter().enumerate() {
        coop[org] = coop[org].max(schedule.completion[idx]);
    }
    orgs.iter()
        .enumerate()
        .map(|(i, _)| CooperationOutcome {
            org: i,
            selfish_makespan: selfish[i],
            cooperative_makespan: coop[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let unfair = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((unfair - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn service_ratio() {
        let a = OrgAccount {
            org: 1,
            submitted_gops: 100.0,
            served_gops: 80.0,
            hosted_foreign_gops: 0.0,
        };
        assert!((a.service_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(OrgAccount::default().service_ratio(), 1.0);
    }

    #[test]
    fn cooperation_helps_the_loaded_org() {
        // Org 0: overloaded small cluster. Org 1: idle big cluster.
        let orgs = vec![
            OrgInstance {
                own_cores: 2,
                tasks: vec![Task::new(10.0); 8],
            },
            OrgInstance {
                own_cores: 8,
                tasks: vec![Task::new(1.0)],
            },
        ];
        let outcomes = evaluate_cooperation(&orgs);
        assert!(
            outcomes[0].cooperative_makespan < outcomes[0].selfish_makespan,
            "loaded org must gain: {outcomes:?}"
        );
    }

    #[test]
    fn cooperation_can_hurt_the_idle_org() {
        // The unfairness ref [16] worries about: the idle org's own task
        // may now compete with foreign load. With naive pooled LPT, the
        // idle org's small task is scheduled after longer foreign tasks.
        let orgs = vec![
            OrgInstance {
                own_cores: 1,
                tasks: vec![Task::new(10.0); 4],
            },
            OrgInstance {
                own_cores: 1,
                tasks: vec![Task::new(1.0)],
            },
        ];
        let outcomes = evaluate_cooperation(&orgs);
        assert!(
            !outcomes[1].is_acceptable(),
            "naive pooling should violate org 1's acceptability here: {outcomes:?}"
        );
    }

    #[test]
    fn global_makespan_never_worse_than_worst_selfish() {
        let orgs = vec![
            OrgInstance {
                own_cores: 3,
                tasks: (0..10).map(|i| Task::new(1.0 + i as f64)).collect(),
            },
            OrgInstance {
                own_cores: 2,
                tasks: (0..6).map(|i| Task::new(2.0 + i as f64)).collect(),
            },
        ];
        let outcomes = evaluate_cooperation(&orgs);
        let coop_global = outcomes
            .iter()
            .map(|o| o.cooperative_makespan)
            .fold(0.0, f64::max);
        let selfish_global = outcomes
            .iter()
            .map(|o| o.selfish_makespan)
            .fold(0.0, f64::max);
        assert!(coop_global <= selfish_global + 1e-9);
    }

    #[test]
    #[should_panic]
    fn negative_allocations_rejected() {
        jain_index(&[1.0, -1.0]);
    }
}
