//! Tier 3: LP lower bound via Lagrangian relaxation, solved in-tree.
//!
//! The placement LP (CoPhy-style): fractional variables `x[i][m][cell]`
//! pick a machine and share cell per VM, subject to per-machine CPU and
//! memory capacity rows. Dualizing the capacity rows with multipliers
//! `λ[m][cpu|mem] ≥ 0` makes the Lagrangian separable per VM:
//!
//! ```text
//! L(λ) = Σᵢ min over (m, cell) of [ wᵢ·cost(class(m), i, cell)
//!                                   + λ[m][cpu]·cell.cpu + λ[m][mem]·cell.mem ]
//!        − Σₘ (λ[m][cpu] + λ[m][mem]) · units
//! ```
//!
//! Every `L(λ)` is a valid lower bound on the LP — and hence on every
//! feasible integer placement — so the best value over a projected
//! subgradient ascent (Polyak steps against the incumbent as upper bound)
//! is reported as the optimality gap. No external LP solver, no
//! randomness, no wall-clock dependence: pure `f64` arithmetic in a fixed
//! iteration order, bit-identical on every run.
//!
//! The cell grid is the same warm rectangle the exact solves read
//! (`min_units ..= rect_hi`): every feasible integer placement keeps each
//! VM inside it (a machine hosting `k` VMs can give one at most
//! `units − (k−1)·min_units`, and forced minimum occupancy bounds `k`
//! from below), so restricting the LP to the rectangle keeps it a
//! relaxation.

use crate::solver::FleetSolver;
use crate::FleetError;

/// The LP lower bound and how the subgradient ascent behaved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpBound {
    /// Best Lagrangian value found: a certified lower bound on the
    /// steady-state objective of *every* feasible placement.
    pub bound: f64,
    /// Subgradient iterations run.
    pub iterations: usize,
    /// `true` when ascent stopped on a zero subgradient (the bound is the
    /// exact Lagrangian-dual optimum, not just the best iterate).
    pub converged: bool,
}

/// Computes the Lagrangian lower bound. `incumbent_steady` (the best known
/// feasible steady-state objective) drives the Polyak step size.
pub(crate) fn lower_bound(
    solver: &FleetSolver<'_, '_>,
    rect_hi: u32,
    incumbent_steady: f64,
) -> Result<LpBound, FleetError> {
    let n = solver.problem.num_vms();
    let m_count = solver.problem.num_machines();
    let classes = &solver.classes.class_of;
    let units = solver.cfg.units as f64;
    let lo = solver.cfg.min_units;
    let side = (rect_hi - lo + 1) as usize;

    // Dense weighted cost tables: table[class][i * cells + (c-lo)*side + (m-lo)].
    let cells = side * side;
    let num_classes = solver.classes.num_classes();
    let mut table = vec![Vec::new(); num_classes];
    for (class, t) in table.iter_mut().enumerate() {
        for i in 0..n {
            let w = solver.weight(i);
            for c in lo..=rect_hi {
                for mu in lo..=rect_hi {
                    t.push(w * solver.cell_cost(class, i, c, mu)?);
                }
            }
        }
    }

    let mut lambda = vec![[0.0f64; 2]; m_count];
    // This iteration's price rows, `λ[m]·c` and `λ[m]·mu` per unit count.
    let mut price = vec![[0.0f64; 2]; m_count * side];
    let mut load = vec![[0.0f64; 2]; m_count];
    let mut best = f64::NEG_INFINITY;
    let mut theta = 1.0f64;
    let mut since_improved = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;

    for _ in 0..solver.cfg.lp_iterations {
        iterations += 1;
        for (m, lam) in lambda.iter().enumerate() {
            for (k, p) in price[m * side..][..side].iter_mut().enumerate() {
                let u = (lo + k as u32) as f64;
                *p = [lam[0] * u, lam[1] * u];
            }
        }
        // Separable inner minimization: each VM picks its cheapest
        // (machine, cell) under the current prices. Strict `<` keeps the
        // first minimizer in (machine, cpu, mem) order — deterministic.
        let mut value = 0.0f64;
        load.fill([0.0; 2]);
        for i in 0..n {
            let mut min_val = f64::INFINITY;
            let mut min_at = (0usize, 0usize, 0usize);
            for m in 0..m_count {
                let t = &table[classes[m]][i * cells..][..cells];
                let prices = &price[m * side..][..side];
                for (c, row) in t.chunks_exact(side).enumerate() {
                    let cpu_price = prices[c][0];
                    for (mu, (&cost, p)) in row.iter().zip(prices).enumerate() {
                        let v = cost + cpu_price + p[1];
                        if v < min_val {
                            min_val = v;
                            min_at = (m, c, mu);
                        }
                    }
                }
            }
            value += min_val;
            load[min_at.0][0] += (lo + min_at.1 as u32) as f64;
            load[min_at.0][1] += (lo + min_at.2 as u32) as f64;
        }
        for lam in &lambda {
            value -= (lam[0] + lam[1]) * units;
        }
        if value > best {
            best = value;
            since_improved = 0;
        } else {
            since_improved += 1;
            if since_improved >= 20 {
                theta *= 0.5;
                since_improved = 0;
            }
        }
        if theta < 1e-6 {
            break;
        }

        // Subgradient of L at λ: capacity violation per (machine, resource).
        let mut norm_sq = 0.0f64;
        for ld in &load {
            let g_cpu = ld[0] - units;
            let g_mem = ld[1] - units;
            norm_sq += g_cpu * g_cpu + g_mem * g_mem;
        }
        if norm_sq == 0.0 {
            // λ is dual-optimal for this inner solution: done.
            converged = true;
            break;
        }
        let gap = incumbent_steady - value;
        if gap <= 0.0 {
            // The bound met the incumbent (to fp precision); can't improve.
            break;
        }
        let step = theta * gap / norm_sq;
        for (m, lam) in lambda.iter_mut().enumerate() {
            lam[0] = (lam[0] + step * (load[m][0] - units)).max(0.0);
            lam[1] = (lam[1] + step * (load[m][1] - units)).max(0.0);
        }
    }

    Ok(LpBound {
        bound: best,
        iterations,
        converged,
    })
}
