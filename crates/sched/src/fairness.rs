//! Fairness of shared service (ref \[16\]).
//!
//! §III-B: horizontal offloading "raises questions about the fairness
//! of cooperation between clusters [Pascual, Rzadca, Trystram]." Jain's
//! index scores how evenly a set of allocations is shared.

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
    #[should_panic]
    fn negative_allocations_rejected() {
        jain_index(&[1.0, -1.0]);
    }
}
