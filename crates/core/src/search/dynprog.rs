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
//! [`value_table`] runs the same relaxation one layer short: the table of
//! a set about to grow by one workload, which [`ValueTable::grow`] turns
//! into the grown set's optimum with a single min-plus step.

use super::SearchConfig;
use crate::CoreError;
use std::ops::RangeInclusive;

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

/// The units of one resource workload `i` of `n` can be left with: the
/// whole budget for the first, otherwise between its own and its
/// successors' floors and what its predecessors' floors leave.
fn left(n: usize, i: usize, min: u32, budget: u32) -> RangeInclusive<u32> {
    match i {
        0 => budget..=budget,
        _ => (n - i) as u32 * min..=budget - i as u32 * min,
    }
}

/// The relaxed layers `first..n` of an `n`-workload solve: the dense
/// weighted cell tables of those workloads and the bottom-up memo over
/// them.
struct Relaxed {
    first: usize,
    /// `[cpu, mem]` [`cell_rect`].
    rect: [(u32, u32); 2],
    /// `costs[(w − first) · cells + at(c, m)]`.
    costs: Vec<f64>,
    /// `memo[(i · cpu_w + cpu left) · mem_w + mem left]` = (best cost of
    /// workloads i.., chosen (cᵢ, mᵢ)); only reachable states are set.
    memo: Vec<(f64, (u32, u32))>,
    /// `(cpu budget + 1, mem budget + 1)`.
    widths: (usize, usize),
}

impl Relaxed {
    /// Prices every cell of every workload `first..n` of [`cell_rect`] in
    /// `(w, cpu, mem)` order — `cost` is called exactly once per cell —
    /// and relaxes layers `n − 1` down to `first` of a *validated* config.
    /// Candidates are enumerated in ascending `(cpu, mem)` order and
    /// replace the incumbent only on strict `<`, so ties resolve to the
    /// smallest share for the earliest workload.
    fn run<E>(
        n: usize,
        first: usize,
        cfg: &SearchConfig,
        mut cost: impl FnMut(usize, u32, u32) -> Result<f64, E>,
    ) -> Result<Relaxed, E> {
        let min = cfg.min_units;
        let rect = cell_rect(cfg, n);
        let [(cpu_lo, cpu_hi), (mem_lo, mem_hi)] = rect;
        let mem_side = (mem_hi - mem_lo + 1) as usize;
        let cells = Relaxed::cells(rect);
        let mut costs = Vec::with_capacity((n - first) * cells);
        for w in first..n {
            for c in cpu_lo..=cpu_hi {
                for m in mem_lo..=mem_hi {
                    costs.push(cost(w, c, m)?);
                }
            }
        }
        let table = |w: usize| &costs[(w - first) * cells..][..cells];
        let at = |c: u32, m: u32| (c - cpu_lo) as usize * mem_side + (m - mem_lo) as usize;

        let widths = (cfg.cpu_budget as usize + 1, cfg.mem_budget as usize + 1);
        let state = |i: usize, c: u32, m: u32| (i * widths.0 + c as usize) * widths.1 + m as usize;
        let mut memo = vec![(0.0f64, (0u32, 0u32)); n * widths.0 * widths.1];
        for c in left(n, n - 1, min, cfg.cpu_budget) {
            for m in left(n, n - 1, min, cfg.mem_budget) {
                // Last workload takes everything that remains.
                memo[state(n - 1, c, m)] = (table(n - 1)[at(c, m)], (c, m));
            }
        }
        for i in (first..n - 1).rev() {
            let here = table(i);
            let reserve = min * (n - 1 - i) as u32;
            for cpu_left in left(n, i, min, cfg.cpu_budget) {
                for mem_left in left(n, i, min, cfg.mem_budget) {
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
        Ok(Relaxed {
            first,
            rect,
            costs,
            memo,
            widths,
        })
    }

    /// Cells per workload table.
    fn cells([(cpu_lo, cpu_hi), (mem_lo, mem_hi)]: [(u32, u32); 2]) -> usize {
        (cpu_hi - cpu_lo + 1) as usize * (mem_hi - mem_lo + 1) as usize
    }

    /// Workload `w`'s weighted cost at `(c, m)`.
    fn cost(&self, w: usize, c: u32, m: u32) -> f64 {
        let [(cpu_lo, _), (mem_lo, mem_hi)] = self.rect;
        let at = (c - cpu_lo) as usize * (mem_hi - mem_lo + 1) as usize + (m - mem_lo) as usize;
        self.costs[(w - self.first) * Relaxed::cells(self.rect) + at]
    }

    fn state(&self, i: usize, c: u32, m: u32) -> usize {
        (i * self.widths.0 + c as usize) * self.widths.1 + m as usize
    }

    /// `f(i, c, m)` and workload `i`'s choice there.
    fn best(&self, i: usize, c: u32, m: u32) -> (f64, (u32, u32)) {
        self.memo[self.state(i, c, m)]
    }
}

/// Solves an `n`-workload allocation under `cfg`'s budgets and floors.
/// `cost(w, cpu units, mem units)` — the *weighted* cost of a cell — is
/// called exactly once per cell of every workload's [`cell_rect`], in
/// `(w, cpu, mem)` order, into dense tables; the recursion then runs
/// bottom-up over a dense `(i, cpu left, mem left)` memo. Candidates are
/// enumerated in ascending `(cpu, mem)` order and replace the incumbent
/// only on strict `<`, so ties resolve to the smallest share for the
/// earliest workload. A config whose floors exceed its budgets is a typed
/// [`CoreError::BadProblem`], never an index out of bounds.
pub fn solve<E: From<CoreError>>(
    n: usize,
    cfg: &SearchConfig,
    cost: impl FnMut(usize, u32, u32) -> Result<f64, E>,
) -> Result<DpSolution, E> {
    cfg.validate(n)?;
    let dp = Relaxed::run(n, 0, cfg, cost)?;
    // Reconstruct the assignment by replaying the memoized choices.
    let mut assignment = Vec::with_capacity(n);
    let (mut cpu_left, mut mem_left) = (cfg.cpu_budget, cfg.mem_budget);
    for i in 0..n {
        let (_, (ci, mi)) = dp.best(i, cpu_left, mem_left);
        assignment.push((ci, mi));
        cpu_left -= ci;
        mem_left -= mi;
    }
    let objective = (assignment.iter().enumerate())
        .map(|(w, &(c, m))| dp.cost(w, c, m))
        .sum();
    Ok(DpSolution {
        assignment,
        objective,
    })
}

/// `V_S(c, m)`: the least weighted cost of a workload set `S` about to
/// grow by one workload, using exactly `(c, m)` units, every member inside
/// the *grown* set's [`cell_rect`] and budgets. It is layer 1 of the
/// grown set's [`solve`] with the newcomer as workload 0, so
/// [`ValueTable::grow`] — layer 0 — is that solve's optimum up to the
/// order of float additions. Built by [`value_table`].
#[derive(Debug, Clone)]
pub struct ValueTable {
    /// The grown set's `(cpu, mem)` budgets.
    budgets: (u32, u32),
    /// Inclusive `[cpu, mem]` unit ranges `S` can use in all.
    rect: [(u32, u32); 2],
    /// `V_S` over `rect`, cpu-major; `None` when some cell of `S` was not
    /// a finite non-negative cost, or some value overflowed — then the
    /// table bounds nothing.
    values: Option<Vec<f64>>,
}

/// A cell cost [`ValueTable::grow`] can bound a sum of: finite and
/// non-negative.
fn bounded(cost: f64) -> bool {
    cost.is_finite() && cost >= 0.0
}

/// The [`ValueTable`] of `members` workloads that are about to be joined
/// by one more, under `cfg` — the *grown* set's config, validated for
/// `members + 1` workloads. `cost(w, cpu units, mem units)` prices member
/// `w` exactly as [`solve`] would price it in the grown set, once per cell.
/// The table of no members is `V_∅(0, 0) = 0`.
pub fn value_table<E: From<CoreError>>(
    members: usize,
    cfg: &SearchConfig,
    mut cost: impl FnMut(usize, u32, u32) -> Result<f64, E>,
) -> Result<ValueTable, E> {
    let n = members + 1;
    cfg.validate(n)?;
    let budgets = (cfg.cpu_budget, cfg.mem_budget);
    if members == 0 {
        let rect = [(0, 0), (0, 0)];
        let values = Some(vec![0.0]);
        return Ok(ValueTable {
            budgets,
            rect,
            values,
        });
    }
    let mut finite = true;
    let dp = Relaxed::run(n, 1, cfg, |w, c, m| {
        let v = cost(w - 1, c, m)?;
        finite &= bounded(v);
        Ok::<_, E>(v)
    })?;
    let [cpu, mem] = [cfg.cpu_budget, cfg.mem_budget].map(|budget| {
        let range = left(n, 1, cfg.min_units, budget);
        (*range.start(), *range.end())
    });
    let values: Vec<f64> = (cpu.0..=cpu.1)
        .flat_map(|c| (mem.0..=mem.1).map(move |m| (c, m)))
        .map(|(c, m)| dp.best(1, c, m).0)
        .collect();
    let values = (finite && values.iter().all(|v| v.is_finite())).then_some(values);
    Ok(ValueTable {
        budgets,
        rect: [cpu, mem],
        values,
    })
}

impl ValueTable {
    /// The grown set's optimum: the least `cost(B_c − c, B_m − m) +
    /// V_S(c, m)` over the table's `(c, m)`, where `cost(cpu units, mem
    /// units)` is the newcomer's weighted cell cost and `B` the budgets;
    /// for `S = ∅` that is the single whole-budget cell. Each candidate is
    /// a float sum of at most `|S| + 1` non-negative terms, as is the grown
    /// set's [`solve`] objective, so each lies within `(|S| + 1)·2⁻⁵³`
    /// relative of the same real optimum. `None` — no bound — when the
    /// table bounds nothing, a cell of the newcomer is not finite and
    /// non-negative, or the minimum overflows.
    pub fn grow<E>(
        &self,
        mut cost: impl FnMut(u32, u32) -> Result<f64, E>,
    ) -> Result<Option<f64>, E> {
        let Some(values) = &self.values else {
            return Ok(None);
        };
        let [(cpu_lo, cpu_hi), (mem_lo, mem_hi)] = self.rect;
        let cells = (cpu_lo..=cpu_hi).flat_map(|c| (mem_lo..=mem_hi).map(move |m| (c, m)));
        let mut best = f64::INFINITY;
        for ((c, m), rest) in cells.zip(values) {
            let own = cost(self.budgets.0 - c, self.budgets.1 - m)?;
            if !bounded(own) {
                return Ok(None);
            }
            best = best.min(own + rest);
        }
        Ok(best.is_finite().then_some(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_vmm::kernel::SplitMix64;

    /// Weighted cells of `n` random workloads: a share-hungry curve with a
    /// per-cell ripple, so optima sit off the diagonal and vary by workload.
    fn cells(seed: u64, n: usize) -> impl Fn(usize, u32, u32) -> f64 {
        let coef: Vec<(f64, f64)> = (0..n)
            .map(|w| {
                let mut rng = SplitMix64(seed ^ (w as u64) << 32);
                let mut unit = || (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                (0.2 + 5.0 * unit(), 0.2 + 5.0 * unit())
            })
            .collect();
        move |w, c, m| {
            let ripple = SplitMix64::mix(seed ^ ((w as u64) << 20) ^ ((c as u64) << 10) ^ m as u64);
            let (a, b) = coef[w];
            a / c as f64 + b / m as f64 + (ripple >> 40) as f64 * 1e-8
        }
    }

    #[test]
    fn growing_a_value_table_is_the_grown_solve() {
        let mut checked = 0;
        for (units, min) in [(8u32, 1u32), (12, 1), (12, 2)] {
            for cut in [0u32, 2] {
                for members in 0..=5usize {
                    let n = members + 1;
                    let budget = units - cut;
                    let cfg = SearchConfig::for_workloads(units, n).with_budgets(budget, budget);
                    let cfg = SearchConfig {
                        min_units: min,
                        ..cfg
                    };
                    if cfg.validate(n).is_err() {
                        continue;
                    }
                    for newcomer in 0..n {
                        let seed = (units as u64) << 24
                            ^ (cut as u64) << 16
                            ^ (members * 8 + newcomer) as u64;
                        let cost = cells(seed, n);
                        // The grown set in workload order; the table's members skip the newcomer.
                        let member = |w: usize| w + usize::from(w >= newcomer);
                        let table = value_table(members, &cfg, |w, c, m| {
                            Ok::<_, CoreError>(cost(member(w), c, m))
                        })
                        .unwrap();
                        let grown = table
                            .grow(|c, m| Ok::<_, CoreError>(cost(newcomer, c, m)))
                            .unwrap()
                            .expect("finite non-negative cells bound");
                        let exact = solve(n, &cfg, |w, c, m| Ok::<_, CoreError>(cost(w, c, m)))
                            .unwrap()
                            .objective;
                        assert!(
                            (grown - exact).abs() <= 1e-12 * exact.abs(),
                            "units {units} min {min} budget {budget} |S| {members}: {grown} vs {exact}"
                        );
                        if members == 0 {
                            assert_eq!(grown.to_bits(), exact.to_bits());
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 80, "{checked}");
    }

    #[test]
    fn a_cell_outside_zero_to_infinity_bounds_nothing() {
        let cfg = SearchConfig::for_workloads(8, 3);
        let cost = cells(7, 3);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            // ...in a member's cells: the table bounds nothing.
            let table = value_table(2, &cfg, |w, c, m| {
                Ok::<_, CoreError>(if (w, c, m) == (1, 2, 3) {
                    bad
                } else {
                    cost(w, c, m)
                })
            })
            .unwrap();
            assert_eq!(
                table
                    .grow(|c, m| Ok::<_, CoreError>(cost(2, c, m)))
                    .unwrap(),
                None
            );
            // ...in the newcomer's cells: that growth bounds nothing.
            let table = value_table(2, &cfg, |w, c, m| Ok::<_, CoreError>(cost(w, c, m))).unwrap();
            let grown = table.grow(|c, m| {
                Ok::<_, CoreError>(if (c, m) == (3, 1) { bad } else { cost(2, c, m) })
            });
            assert_eq!(grown.unwrap(), None);
        }
    }

    #[test]
    fn floors_past_the_grown_budget_are_typed_errors() {
        let cfg = SearchConfig::for_workloads(4, 4);
        let table = value_table(4, &cfg, |_, _, _| Ok::<_, CoreError>(1.0));
        assert!(matches!(table, Err(CoreError::BadProblem { .. })));
    }
}
