//! Baselines and summary metrics for design experiments.

use crate::{CoreError, CostModel, DesignProblem};
use dbvirt_vmm::{AllocationMatrix, ResourceVector, Share};

/// Predicted per-workload costs under the paper's default allocation
/// (every resource divided equally).
pub fn equal_split_costs(
    problem: &DesignProblem<'_>,
    model: &dyn CostModel,
) -> Result<Vec<f64>, CoreError> {
    let n = problem.num_workloads();
    let share = Share::new(1.0 / n as f64)?;
    (0..n)
        .map(|w| model.cost(problem, w, ResourceVector::uniform(share)))
        .collect()
}

/// Predicted per-workload costs under an arbitrary allocation.
pub fn allocation_costs(
    problem: &DesignProblem<'_>,
    model: &dyn CostModel,
    allocation: &AllocationMatrix,
) -> Result<Vec<f64>, CoreError> {
    (0..problem.num_workloads())
        .map(|w| model.cost(problem, w, allocation.row(w)))
        .collect()
}

/// `baseline / candidate` — how many times faster the candidate is
/// (> 1 means the candidate wins).
///
/// Costs are execution times, so only non-negative finite inputs are
/// meaningful: a zero candidate against a positive baseline is an infinite
/// speedup, `0 / 0` is undefined (NaN), and a negative or non-finite input
/// on either side yields NaN rather than masquerading as a huge win.
pub fn speedup(baseline: f64, candidate: f64) -> f64 {
    if !(baseline.is_finite() && candidate.is_finite()) || baseline < 0.0 || candidate < 0.0 {
        return f64::NAN;
    }
    if candidate == 0.0 {
        return if baseline > 0.0 {
            f64::INFINITY
        } else {
            f64::NAN
        };
    }
    baseline / candidate
}

/// Normalizes a series to one of its entries (the paper's Figures 4 and 5
/// normalize to the default 50% allocation).
///
/// Errors if `reference_idx` is out of range; a non-positive reference
/// value makes every entry NaN (there is no meaningful scale).
pub fn normalize_to(series: &[f64], reference_idx: usize) -> Result<Vec<f64>, CoreError> {
    let reference = *series
        .get(reference_idx)
        .ok_or_else(|| CoreError::BadProblem {
            reason: format!(
                "normalize_to reference index {reference_idx} out of range for a series of \
                 length {}",
                series.len()
            ),
        })?;
    Ok(series
        .iter()
        .map(|&v| {
            if reference > 0.0 {
                v / reference
            } else {
                f64::NAN
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::{dummy_db, dummy_problem, SyntheticModel};

    #[test]
    fn equal_split_uses_uniform_shares() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0), (2.0, 2.0)],
        };
        let costs = equal_split_costs(&problem, &model).unwrap();
        // cost = w/(0.5) + w/(0.5) = 4w.
        assert!((costs[0] - 4.0).abs() < 1e-12);
        assert!((costs[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_normalize() {
        assert!((speedup(2.0, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(speedup(1.0, 0.0), f64::INFINITY);
        let norm = normalize_to(&[2.0, 4.0, 1.0], 0).unwrap();
        assert_eq!(norm, vec![1.0, 2.0, 0.5]);
    }

    #[test]
    fn speedup_edge_cases() {
        // Regression: a negative candidate used to report an *infinite*
        // speedup; negative "times" are invalid on either side.
        assert!(speedup(1.0, -2.0).is_nan());
        assert!(speedup(-1.0, 2.0).is_nan());
        // 0 / 0 has no meaningful value.
        assert!(speedup(0.0, 0.0).is_nan());
        // Non-finite inputs never produce a number.
        assert!(speedup(f64::NAN, 1.0).is_nan());
        assert!(speedup(f64::INFINITY, 1.0).is_nan());
        assert!(speedup(1.0, f64::INFINITY).is_nan());
        // Zero baseline against a real candidate is simply 0x.
        assert_eq!(speedup(0.0, 2.0), 0.0);
    }

    #[test]
    fn normalize_rejects_out_of_range_reference() {
        // Regression: this used to panic instead of returning an error.
        let err = normalize_to(&[1.0, 2.0], 2).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        assert!(normalize_to(&[], 0).is_err());
        // A non-positive reference yields NaNs, not a panic or +-inf.
        let norm = normalize_to(&[0.0, 2.0], 0).unwrap();
        assert!(norm.iter().all(|v| v.is_nan()));
    }
}
