//! Exact dynamic programming over separable workload costs.
//!
//! The total objective `Σᵢ Cost(Wᵢ, Rᵢ)` is separable: workload `i`'s cost
//! depends only on its own `(cpu, mem)` units. So the optimum over a
//! discretized simplex is a textbook resource-allocation DP — the
//! "standard techniques such as dynamic programming" the paper expects to
//! apply (Section 7):
//!
//! ```text
//! f(i, c, m) = min over (cᵢ, mᵢ) of  cost_i(cᵢ, mᵢ) + f(i+1, c-cᵢ, m-mᵢ)
//! ```
//!
//! with every workload receiving at least `min_units` of each resource
//! and the last workload absorbing the remainder (allocations that waste
//! units are dominated, since cost is non-increasing in resources).
//!
//! [`solve`] is the only DP in the workspace: it prices the weighted cost
//! of every cell the recursion can touch once into dense tables —
//! [`super::run_search`] through its memoizing closure, the fleet tier
//! from its warm per-VM tables — and relaxes over those, so a
//! single-machine fleet and the core search agree by construction.

use super::{CellKey, SearchConfig};
use crate::CoreError;

/// The optimum of one DP solve (the default is the solution of nothing:
/// no workloads, objective 0).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DpSolution {
    /// `(cpu units, mem units)` per workload.
    pub assignment: Vec<(u32, u32)>,
    /// The weighted objective at `assignment`, summed in workload order.
    pub objective: f64,
}

/// Inclusive `[cpu, mem]` unit bounds of the per-workload cells an exact
/// search over `n` workloads touches under a *validated* config:
/// `[min_units, budget − (n−1)·min_units]` for `n ≥ 2` (anything the
/// others' floors leave), the single whole-budget cell for `n = 1`.
fn cell_rect(cfg: &SearchConfig, n: usize) -> [(u32, u32); 2] {
    let reserve = cfg.min_units * (n as u32 - 1);
    [cfg.cpu_budget, cfg.mem_budget].map(|budget| match n {
        1 => (budget, budget),
        _ => (cfg.min_units, budget - reserve),
    })
}

/// Every cell of every workload's [`cell_rect`], in `(w, cpu, mem)` order:
/// the exact set, and order, [`solve`] prices.
fn table_cells(cfg: &SearchConfig, n: usize) -> impl Iterator<Item = CellKey> {
    let [cpu, mem] = cell_rect(cfg, n);
    (0..n).flat_map(move |w| {
        (cpu.0..=cpu.1).flat_map(move |c| (mem.0..=mem.1).map(move |m| (w, c, m)))
    })
}

/// Solves an `n`-workload allocation under `cfg`'s budgets and floors.
/// `cost(w, cpu units, mem units)` — the *weighted* cost of a cell — is
/// called exactly once per cell of [`table_cells`], into dense tables;
/// the recursion then runs bottom-up over a dense `(i, cpu left, mem
/// left)` memo. Candidates are enumerated in ascending `(cpu, mem)` order
/// and replace the incumbent only on strict `<`, so ties resolve to the
/// smallest share for the earliest workload. A config whose floors exceed
/// its budgets is a typed [`CoreError::BadProblem`], never an index out of
/// bounds.
pub fn solve<E: From<CoreError>>(
    n: usize,
    cfg: &SearchConfig,
    mut cost: impl FnMut(usize, u32, u32) -> Result<f64, E>,
) -> Result<DpSolution, E> {
    cfg.validate(n)?;
    let min = cfg.min_units;
    let [(cpu_lo, cpu_hi), (mem_lo, mem_hi)] = cell_rect(cfg, n);
    let mem_side = (mem_hi - mem_lo + 1) as usize;
    let cells = (cpu_hi - cpu_lo + 1) as usize * mem_side;
    let mut costs = Vec::with_capacity(n * cells);
    for (w, c, m) in table_cells(cfg, n) {
        costs.push(cost(w, c, m)?);
    }
    let table = |w: usize| &costs[w * cells..][..cells];
    let at = |c: u32, m: u32| (c - cpu_lo) as usize * mem_side + (m - mem_lo) as usize;

    // memo[(i · cpu_w + cpu left) · mem_w + mem left] = (best cost of
    // workloads i.., chosen (cᵢ, mᵢ)); only reachable states are set.
    let (cpu_w, mem_w) = (cfg.cpu_budget as usize + 1, cfg.mem_budget as usize + 1);
    let state = |i: usize, c: u32, m: u32| (i * cpu_w + c as usize) * mem_w + m as usize;
    let mut memo = vec![(0.0f64, (0u32, 0u32)); n * cpu_w * mem_w];
    // Workload i sees between its own and its successors' floors and
    // what its predecessors' floors leave of the budget.
    let left = |i: usize, budget: u32| match i {
        0 => budget..=budget,
        _ => (n - i) as u32 * min..=budget - i as u32 * min,
    };
    for c in left(n - 1, cfg.cpu_budget) {
        for m in left(n - 1, cfg.mem_budget) {
            // Last workload takes everything that remains.
            memo[state(n - 1, c, m)] = (table(n - 1)[at(c, m)], (c, m));
        }
    }
    for i in (0..n - 1).rev() {
        let here = table(i);
        let reserve = min * (n - 1 - i) as u32;
        for cpu_left in left(i, cfg.cpu_budget) {
            for mem_left in left(i, cfg.mem_budget) {
                let mut best: Option<(f64, (u32, u32))> = None;
                for ci in min..=cpu_left - reserve {
                    for mi in min..=mem_left - reserve {
                        let rest = memo[state(i + 1, cpu_left - ci, mem_left - mi)].0;
                        let total = here[at(ci, mi)] + rest;
                        if best.is_none_or(|(b, _)| total < b) {
                            best = Some((total, (ci, mi)));
                        }
                    }
                }
                memo[state(i, cpu_left, mem_left)] =
                    best.expect("validated floors leave every state a candidate");
            }
        }
    }

    // Reconstruct the assignment by replaying the memoized choices.
    let mut assignment = Vec::with_capacity(n);
    let (mut cpu_left, mut mem_left) = (cfg.cpu_budget, cfg.mem_budget);
    for i in 0..n {
        let (_, (ci, mi)) = memo[state(i, cpu_left, mem_left)];
        assignment.push((ci, mi));
        cpu_left -= ci;
        mem_left -= mi;
    }
    let objective = (assignment.iter().enumerate())
        .map(|(w, &(c, m))| table(w)[at(c, m)])
        .sum();
    Ok(DpSolution {
        assignment,
        objective,
    })
}
