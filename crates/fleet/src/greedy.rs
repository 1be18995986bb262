//! Tier 1: deterministic greedy bin-packing seed.
//!
//! VMs are placed in descending order of *demand* (their weighted solo
//! cost at the most generous warm cell), each onto the machine where the
//! marginal modeled cost — the machine's re-solved objective minus its
//! current objective, plus the amortized migration charge when a deployed
//! placement exists — is smallest. First-fit-decreasing with exact
//! marginal pricing: every candidate host is re-solved through the warm
//! cache, so adding a VM re-balances its co-residents' shares.

use crate::config::MIGRATION_HORIZON_RUNS;
use crate::migrate::vm_migration_seconds;
use crate::solver::FleetSolver;
use crate::{CurrentPlacement, FleetError};

/// Overwrites `out` with sorted `base` minus `remove` plus `insert`, in
/// one pass — candidate subsets are built thousands of times per request
/// into the same buffers.
pub(crate) fn edit_sorted(
    out: &mut Vec<usize>,
    base: &[usize],
    remove: Option<usize>,
    insert: Option<usize>,
) {
    out.clear();
    let mut pending = insert;
    for &x in base {
        if Some(x) == remove {
            continue;
        }
        if pending.is_some_and(|i| i < x) {
            out.extend(pending.take());
        }
        out.push(x);
    }
    out.extend(pending);
}

/// Produces the greedy seed assignment (`machine_of`).
pub(crate) fn seed(
    solver: &FleetSolver<'_, '_>,
    rect_hi: u32,
    reference: Option<&CurrentPlacement>,
) -> Result<Vec<usize>, FleetError> {
    let n = solver.problem.num_vms();
    let m_count = solver.problem.num_machines();
    let cap = solver.cfg.max_vms_per_machine;

    // Demand: weighted solo cost at the top warm cell, summed over the
    // machine classes so heterogeneous fleets rank by fleet-wide appetite.
    let mut demand = vec![0.0f64; n];
    for (i, d) in demand.iter_mut().enumerate() {
        for class in 0..solver.classes.num_classes() {
            *d += solver.weight(i) * solver.cell_cost(class, i, rect_hi, rect_hi)?;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| demand[b].total_cmp(&demand[a]).then(a.cmp(&b)));

    let mut residents: Vec<Vec<usize>> = vec![Vec::new(); m_count];
    let mut objective = vec![0.0f64; m_count];
    let mut machine_of = vec![usize::MAX; n];
    let mut cand = Vec::new();
    for &i in &order {
        let mut best: Option<(f64, usize, f64)> = None;
        for m in 0..m_count {
            if residents[m].len() >= cap {
                continue;
            }
            edit_sorted(&mut cand, &residents[m], None, Some(i));
            let solve = solver.solve(m, &cand)?;
            let mut delta = solve.objective - objective[m];
            if let Some(reference) = reference {
                let w = cand.partition_point(|&x| x < i);
                delta += vm_migration_seconds(
                    &solver.problem.machines,
                    solver.cfg,
                    reference,
                    i,
                    m,
                    solve.assignment[w],
                )? / MIGRATION_HORIZON_RUNS;
            }
            // Strict `<` keeps the first (lowest-index) machine on ties.
            if best.as_ref().is_none_or(|b| delta < b.0) {
                best = Some((delta, m, solve.objective));
            }
        }
        let (_, m, obj) = best.ok_or_else(|| FleetError::Infeasible {
            reason: format!(
                "no machine below the {cap}-VM cap left for VM {i} ({} VMs, {m_count} machines)",
                n
            ),
        })?;
        let at = residents[m].partition_point(|&x| x < i);
        residents[m].insert(at, i);
        objective[m] = obj;
        machine_of[i] = m;
    }
    Ok(machine_of)
}

#[cfg(test)]
mod tests {
    use super::edit_sorted;

    #[test]
    fn edits_keep_the_subset_sorted() {
        let mut out = vec![99];
        let mut edit = |base: &[usize], remove, insert| {
            edit_sorted(&mut out, base, remove, insert);
            out.clone()
        };
        assert_eq!(edit(&[], None, Some(4)), [4]);
        assert_eq!(edit(&[2, 5, 9], None, Some(1)), [1, 2, 5, 9]);
        assert_eq!(edit(&[2, 5, 9], None, Some(7)), [2, 5, 7, 9]);
        assert_eq!(edit(&[2, 5, 9], None, Some(11)), [2, 5, 9, 11]);
        assert_eq!(edit(&[2, 5, 9], Some(5), None), [2, 9]);
        assert_eq!(edit(&[2, 5, 9], Some(2), Some(6)), [5, 6, 9]);
        assert_eq!(edit(&[2, 5, 9], Some(9), Some(3)), [2, 3, 5]);
        assert_eq!(edit(&[4], Some(4), None), []);
    }
}
