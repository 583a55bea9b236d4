//! Workspace-level property tests on cross-crate invariants.

use df3::df3_core::regulator::RegulatorTable;
use df3::sched::fairness::jain_index;
use df3::simcore::metrics::{Histogram, Summary};
use df3::simcore::time::{SimDuration, SimTime};
use df3::thermal::room::{Room, RoomParams};
use proptest::prelude::*;

proptest! {
    /// The regulator never produces more heat than requested (overshoot
    /// is discomfort) and never budgets more cores than exist.
    #[test]
    fn regulator_never_overshoots(
        demand in 0.0f64..=1.0,
        backlog in 0usize..64,
    ) {
        let d = RegulatorTable::qrad().decide(demand, backlog);
        prop_assert!(d.usable_cores <= 16);
        prop_assert!(d.total_heat_w() <= demand * 500.0 + 1e-9);
        prop_assert!(d.heat_budget_w <= 500.0 + 1e-9);
        if !d.powered {
            prop_assert_eq!(d.usable_cores, 0);
        }
    }

    /// A room's temperature always moves monotonically toward its
    /// equilibrium, never past it, for any step size.
    #[test]
    fn room_never_overshoots_equilibrium(
        start in -5.0f64..35.0,
        outdoor in -15.0f64..30.0,
        heater in 0.0f64..1500.0,
        hours in 1i64..200,
    ) {
        let mut room = Room::new(RoomParams::typical_apartment_room(), start);
        let eq = room.equilibrium_c(outdoor, heater);
        let before = room.temperature_c();
        room.step(SimDuration::from_hours(hours), outdoor, heater);
        let after = room.temperature_c();
        if before <= eq {
            prop_assert!(after >= before - 1e-9 && after <= eq + 1e-9);
        } else {
            prop_assert!(after <= before + 1e-9 && after >= eq - 1e-9);
        }
    }

    /// Histogram quantiles are monotone and bracketed by min/max.
    #[test]
    fn histogram_quantiles_are_monotone(
        values in proptest::collection::vec(0.0f64..1000.0, 10..300),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let mut h = Histogram::new(0.0, 1000.0, 200);
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = qs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantiles: Vec<f64> = sorted.iter().map(|&q| h.quantile(q)).collect();
        for w in quantiles.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9);
        }
        prop_assert!(h.quantile(1.0) <= h.max() + 5.0 + 1e-9); // ≤ one bin width past max
        prop_assert!(h.quantile(0.0) >= 0.0);
    }

    /// Summary::merge is associative-equivalent to sequential observation.
    #[test]
    fn summary_merge_associativity(
        a in proptest::collection::vec(-100.0f64..100.0, 1..50),
        b in proptest::collection::vec(-100.0f64..100.0, 1..50),
        c in proptest::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let fold = |xs: &[f64]| {
            let mut s = Summary::new();
            for &x in xs {
                s.observe(x);
            }
            s
        };
        let mut left = fold(&a);
        left.merge(&fold(&b));
        left.merge(&fold(&c));
        let mut all = Vec::new();
        all.extend(&a);
        all.extend(&b);
        all.extend(&c);
        let whole = fold(&all);
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
        prop_assert_eq!(left.count(), whole.count());
    }

    /// Jain's index is scale-invariant and bounded in [1/n, 1].
    #[test]
    fn jain_index_bounds_and_scale_invariance(
        xs in proptest::collection::vec(0.01f64..100.0, 1..20),
        k in 0.1f64..10.0,
    ) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-9 && j <= 1.0 + 1e-9);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        prop_assert!((jain_index(&scaled) - j).abs() < 1e-9);
    }

    /// Deadline checks are consistent: a response at exactly the
    /// deadline is met; one microsecond later is missed.
    #[test]
    fn deadline_boundary(arrival_s in 0i64..10_000, deadline_ms in 1i64..100_000) {
        use df3::workloads::{Flow, Job, JobId};
        let job = Job {
            id: JobId(1),
            flow: Flow::EdgeDirect,
            arrival: SimTime::from_secs(arrival_s),
            work_gops: 1.0,
            cores: 1,
            deadline: Some(SimDuration::from_millis(deadline_ms)),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        };
        let d = job.absolute_deadline().unwrap();
        prop_assert!(job.meets_deadline(d));
        prop_assert!(!job.meets_deadline(d + SimDuration::MICROSECOND));
    }
}
