//! Greedy unit-transfer search.
//!
//! Start from the paper's default allocation (the equal split) and
//! repeatedly apply the best single-unit transfer of CPU or memory from
//! one workload to another, stopping when no transfer improves the total
//! cost. This is exactly the manual reasoning in the paper's Section 6
//! ("take CPU away from Q4 and give it to Q13"), automated.

use super::{equal_units, total, CellKey, SearchConfig, UnitAssignment};
use crate::CoreError;

/// The cells a one-unit transfer from `donor` to `recipient` changes — the
/// CPU transfer, then the memory transfer; a resource the donor holds only
/// the minimum of yields none.
fn moved_cells(
    current: &UnitAssignment,
    donor: usize,
    recipient: usize,
    min_units: u32,
) -> impl Iterator<Item = [CellKey; 2]> {
    let (dc, dm) = current[donor];
    let (rc, rm) = current[recipient];
    let cpu = (dc > min_units).then_some([(donor, dc - 1, dm), (recipient, rc + 1, rm)]);
    let mem = (dm > min_units).then_some([(donor, dc, dm - 1), (recipient, rc, rm + 1)]);
    cpu.into_iter().chain(mem)
}

/// Hill-climbs `n` workloads under `cfg` from the equal split, pricing
/// cells through `cost` (the weighted cost of a cell).
pub(super) fn search(
    n: usize,
    cfg: &SearchConfig,
    cost: &impl Fn(usize, u32, u32) -> Result<f64, CoreError>,
) -> Result<UnitAssignment, CoreError> {
    let mut current: UnitAssignment = equal_units(n, cfg.cpu_budget)
        .into_iter()
        .zip(equal_units(n, cfg.mem_budget))
        .collect();
    let mut current_cost = total(&current, cost)?;

    // Each accepted transfer strictly improves a bounded-below objective
    // over a finite state space, so this terminates; the explicit cap is
    // a defensive bound only.
    let max_moves = (cfg.units as usize * n * 4).max(64);
    for _ in 0..max_moves {
        // This iteration's feasible transfers, in tie-break order: lowest
        // donor, then recipient, then CPU before memory.
        let mut moves: Vec<[CellKey; 2]> = Vec::new();
        for donor in 0..n {
            for recipient in (0..n).filter(|&r| r != donor) {
                moves.extend(moved_cells(&current, donor, recipient, cfg.min_units));
            }
        }
        let mut best_move: Option<(f64, [CellKey; 2])> = None;
        for cells in moves {
            let mut candidate = current.clone();
            for (w, c, m) in cells {
                candidate[w] = (c, m);
            }
            // The candidate's exact objective, re-summed from the cache in
            // workload order. Summing per-move deltas instead lets the
            // tracked total drift away from the true objective after many
            // moves.
            let candidate_cost = total(&candidate, cost)?;
            // Strict `<` keeps the first improving move on exact ties.
            if candidate_cost < current_cost - 1e-12
                && best_move.is_none_or(|(b, _)| candidate_cost < b)
            {
                best_move = Some((candidate_cost, cells));
            }
        }
        let Some((best_cost, cells)) = best_move else {
            break; // local optimum
        };
        for (w, c, m) in cells {
            current[w] = (c, m);
        }
        current_cost = best_cost;
    }
    Ok(current)
}
