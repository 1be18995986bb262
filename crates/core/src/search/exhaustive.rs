//! Exhaustive enumeration of every feasible unit assignment.
//!
//! Ground truth for the other algorithms (and the candidate-count
//! baseline for the EXT-SEARCH experiment): every composition of the CPU
//! units crossed with every composition of the memory units.

use super::{total, SearchConfig, UnitAssignment};
use crate::CoreError;

/// Generates all compositions of `total` units into `n` parts, each at
/// least `min`.
fn compositions(total: u32, n: usize, min: u32) -> Vec<Vec<u32>> {
    fn rec(remaining: u32, slots: usize, min: u32, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if slots == 1 {
            if remaining >= min {
                prefix.push(remaining);
                out.push(prefix.clone());
                prefix.pop();
            }
            return;
        }
        let reserve = min * (slots as u32 - 1);
        let mut take = min;
        while take + reserve <= remaining {
            prefix.push(take);
            rec(remaining - take, slots - 1, min, prefix, out);
            prefix.pop();
            take += 1;
        }
    }
    let mut out = Vec::new();
    rec(total, n, min, &mut Vec::new(), &mut out);
    out
}

/// Searches every candidate for `n` workloads under `cfg`, pricing cells
/// through `cost` (the weighted cost of a cell); returns the cheapest.
pub(super) fn search(
    n: usize,
    cfg: &SearchConfig,
    cost: &impl Fn(usize, u32, u32) -> Result<f64, CoreError>,
) -> Result<UnitAssignment, CoreError> {
    let cpu_splits = compositions(cfg.cpu_budget, n, cfg.min_units);
    let mem_splits = compositions(cfg.mem_budget, n, cfg.min_units);

    let mut best: Option<(f64, UnitAssignment)> = None;
    for cpu in &cpu_splits {
        for mem in &mem_splits {
            let assignment: UnitAssignment = cpu.iter().copied().zip(mem.iter().copied()).collect();
            let candidate_cost = total(&assignment, cost)?;
            if best.as_ref().is_none_or(|(b, _)| candidate_cost < *b) {
                best = Some((candidate_cost, assignment));
            }
        }
    }
    Ok(best.expect("at least one feasible composition exists").1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositions_cover_all_and_respect_minimum() {
        let all = compositions(5, 2, 1);
        assert_eq!(all.len(), 4); // (1,4) (2,3) (3,2) (4,1)
        assert!(all.iter().all(|c| c.iter().sum::<u32>() == 5));
        assert!(all.iter().all(|c| c.iter().all(|&x| x >= 1)));

        let constrained = compositions(6, 3, 2);
        assert_eq!(constrained.len(), 1);
        assert_eq!(constrained[0], vec![2, 2, 2]);
    }

    #[test]
    fn infeasible_compositions_are_empty() {
        assert!(compositions(2, 3, 1).is_empty());
    }

    #[test]
    fn single_workload_gets_everything() {
        assert_eq!(compositions(8, 1, 1), vec![vec![8]]);
    }
}
