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
use dbvirt_core::lagrange::{ascend, Relaxation};

pub use dbvirt_core::lagrange::LpBound;

/// The placement LP with its capacity rows dualized by `lambda[m]`.
struct CapacityDual<'a> {
    /// Dense weighted costs: `table[class][i * side² + (c-lo)*side + (m-lo)]`.
    table: Vec<Vec<f64>>,
    classes: &'a [usize],
    n: usize,
    units: f64,
    lo: u32,
    side: usize,
    lambda: Vec<[f64; 2]>,
    /// This iteration's price rows, `λ[m]·c` and `λ[m]·mu` per unit count.
    price: Vec<[f64; 2]>,
    load: Vec<[f64; 2]>,
}

impl Relaxation for CapacityDual<'_> {
    fn evaluate(&mut self) -> f64 {
        let (lo, side, cells) = (self.lo, self.side, self.side * self.side);
        for (m, lam) in self.lambda.iter().enumerate() {
            for (k, p) in self.price[m * side..][..side].iter_mut().enumerate() {
                let u = (lo + k as u32) as f64;
                *p = [lam[0] * u, lam[1] * u];
            }
        }
        // Separable inner minimization: each VM picks its cheapest
        // (machine, cell) under the current prices. Strict `<` keeps the
        // first minimizer in (machine, cpu, mem) order — deterministic.
        let mut value = 0.0f64;
        self.load.fill([0.0; 2]);
        for i in 0..self.n {
            let mut min_val = f64::INFINITY;
            let mut min_at = (0usize, 0usize, 0usize);
            for (m, &class) in self.classes.iter().enumerate() {
                let t = &self.table[class][i * cells..][..cells];
                let prices = &self.price[m * side..][..side];
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
            self.load[min_at.0][0] += (lo + min_at.1 as u32) as f64;
            self.load[min_at.0][1] += (lo + min_at.2 as u32) as f64;
        }
        for lam in &self.lambda {
            value -= (lam[0] + lam[1]) * self.units;
        }
        value
    }

    /// Capacity violation per (machine, resource).
    fn subgradient_norm_sq(&self) -> f64 {
        let mut norm_sq = 0.0f64;
        for ld in &self.load {
            let g_cpu = ld[0] - self.units;
            let g_mem = ld[1] - self.units;
            norm_sq += g_cpu * g_cpu + g_mem * g_mem;
        }
        norm_sq
    }

    fn step(&mut self, step: f64) {
        for (lam, ld) in self.lambda.iter_mut().zip(&self.load) {
            lam[0] = (lam[0] + step * (ld[0] - self.units)).max(0.0);
            lam[1] = (lam[1] + step * (ld[1] - self.units)).max(0.0);
        }
    }
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
    let lo = solver.cfg.min_units;
    let side = (rect_hi - lo + 1) as usize;

    let mut table = vec![Vec::new(); solver.classes.num_classes()];
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
    let mut dual = CapacityDual {
        table,
        classes: &solver.classes.class_of,
        n,
        units: solver.cfg.units as f64,
        lo,
        side,
        lambda: vec![[0.0; 2]; m_count],
        price: vec![[0.0; 2]; m_count * side],
        load: vec![[0.0; 2]; m_count],
    };
    Ok(ascend(&mut dual, incumbent_steady, solver.cfg.lp_iterations))
}
