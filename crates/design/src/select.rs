//! Greedy index selection under a storage budget.
//!
//! Classic benefit-greedy: starting from the empty set, repeatedly add
//! the candidate with the largest strict reduction in the config-priced
//! workload cost ([`crate::pricing::DesignPricer::workload_cost`]) that
//! still fits the page budget. Ties break to the lowest candidate index,
//! so the decision sequence — recorded as a [`SelectionTrace`] — is a
//! pure function of the priced table and feeds the advisor's
//! decision-trace fingerprint.

use crate::pricing::{DesignPricer, VmPricer};
use crate::DesignError;

/// One greedy round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The candidate considered best this round.
    pub candidate: usize,
    /// Cost reduction it offered (positive = improvement).
    pub gain: f64,
    /// Pages used after accepting it.
    pub pages_after: u64,
    /// Whether it was accepted (always true for recorded decisions; the
    /// loop stops at the first non-improving or non-fitting round).
    pub accepted: bool,
}

/// The full greedy run: decisions in order, the chosen set, and its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionTrace {
    /// Accepted candidates as a bitmask.
    pub mask: u64,
    /// Pages consumed by the chosen set.
    pub pages_used: u64,
    /// Config-priced workload cost of the chosen set.
    pub objective: f64,
    /// The decision sequence.
    pub decisions: Vec<Decision>,
}

/// Runs greedy selection for one VM at a fixed allocation cell.
pub fn select_greedy(
    pricer: &DesignPricer<'_>,
    vm: &VmPricer<'_>,
    budget_pages: u64,
    cpu: u32,
    mem: u32,
) -> Result<SelectionTrace, DesignError> {
    let n = vm.cands.len();
    let mut mask = 0u64;
    let mut pages_used = 0u64;
    let mut objective = pricer.workload_cost(vm, mask, cpu, mem)?;
    let mut decisions = Vec::new();

    loop {
        let mut best: Option<(usize, f64, u64)> = None;
        for c in 0..n {
            if mask & (1 << c) != 0 {
                continue;
            }
            let pages = vm.cands.candidates[c].pages;
            if pages_used + pages > budget_pages {
                continue;
            }
            let cost = pricer.workload_cost(vm, mask | (1 << c), cpu, mem)?;
            let gain = objective - cost;
            // Strict improvement only; ties break to the lowest index
            // (the `>` keeps the first maximizer).
            if gain > 0.0 && best.is_none_or(|(_, g, _)| gain > g) {
                best = Some((c, gain, pages));
            }
        }
        let Some((c, gain, pages)) = best else { break };
        mask |= 1 << c;
        pages_used += pages;
        objective -= gain;
        decisions.push(Decision {
            candidate: c,
            gain,
            pages_after: pages_used,
            accepted: true,
        });
    }

    // Re-price the final mask from the cache rather than trusting the
    // accumulated deltas: bit-exact no matter how many rounds ran.
    let objective = pricer.workload_cost(vm, mask, cpu, mem)?;
    Ok(SelectionTrace {
        mask,
        pages_used,
        objective,
        decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::testutil::small_grid;
    use dbvirt_calibrate::CalibrationGrid;
    use dbvirt_core::WorkloadSpec;
    use dbvirt_engine::{Database, Expr};
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    fn fixture() -> (Database, Vec<LogicalPlan>) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
        );
        db.insert_rows(
            t,
            (0..20_000).map(|i| Tuple::new(vec![Datum::Int(i), Datum::Int(i % 100)])),
        )
        .unwrap();
        db.analyze_all().unwrap();
        // Two selective equality queries on different columns: two useful
        // single-column candidates (plus composites).
        let qa = LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(0), Expr::int(7)));
        let qb = LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(1), Expr::int(3)));
        (db, vec![qa, qb])
    }

    fn grid() -> CalibrationGrid {
        small_grid()
    }

    #[test]
    fn greedy_takes_improving_candidates_within_budget() {
        let (db, queries) = fixture();
        let grid = grid();
        let cands = enumerate_candidates(&db, &queries, 16);
        let per_index_pages = cands.candidates[0].pages;
        let pricer = DesignPricer::new(&grid, 4, 0.5);
        let spec = WorkloadSpec::new("w", &db, queries.clone());
        let vm = VmPricer::new(&pricer, &spec, cands).unwrap();

        let trace = select_greedy(&pricer, &vm, per_index_pages * 8, 2, 1).unwrap();
        assert!(!trace.decisions.is_empty(), "some index must help");
        assert!(trace.pages_used <= per_index_pages * 8);
        let empty = pricer.workload_cost(&vm, 0, 2, 1).unwrap();
        assert!(trace.objective < empty);
        // Decisions carry strictly positive gains.
        assert!(trace.decisions.iter().all(|d| d.gain > 0.0));

        // Zero budget: nothing fits, empty selection, empty-set objective.
        let none = select_greedy(&pricer, &vm, 0, 2, 1).unwrap();
        assert_eq!(none.mask, 0);
        assert_eq!(none.objective, empty);
        assert!(none.decisions.is_empty());

        // One-index budget: exactly one accepted, and it is the better of
        // the two single candidates.
        let one = select_greedy(&pricer, &vm, per_index_pages, 2, 1).unwrap();
        assert_eq!(one.decisions.len(), 1);
        assert!(one.pages_used <= per_index_pages);
        assert!(one.objective <= trace.objective + (empty - trace.objective));
    }

    #[test]
    fn greedy_is_deterministic() {
        let (db, queries) = fixture();
        let grid = grid();
        let cands = enumerate_candidates(&db, &queries, 16);
        let budget = cands.candidates[0].pages * 4;
        let run = || {
            let pricer = DesignPricer::new(&grid, 4, 0.5);
            let spec = WorkloadSpec::new("w", &db, queries.clone());
            let vm = VmPricer::new(&pricer, &spec, cands.clone()).unwrap();
            select_greedy(&pricer, &vm, budget, 2, 1).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }
}
