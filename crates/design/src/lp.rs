//! LP lower bound for the index-selection ILP, via Lagrangian relaxation
//! of the config→index coupling rows (the `fleet::lp` recipe applied to
//! the CoPhy formulation).
//!
//! The ILP (one VM, allocation cell fixed):
//!
//! ```text
//! min  Σ_q Σ_k c[q][k] · x[q][k]
//! s.t. Σ_k x[q][k] = 1                 for every query q
//!      x[q][k] ≤ y[c]                  for every index c ∈ config k
//!      Σ_c size[c] · y[c] ≤ budget
//!      x ∈ {0,1},  y ∈ {0,1}
//! ```
//!
//! Dualizing the coupling rows with multipliers `μ[q][k][c] ≥ 0` makes
//! the Lagrangian separable:
//!
//! ```text
//! L(μ) = Σ_q min_k ( c[q][k] + Σ_{c∈k} μ[q][k][c] )
//!        − max_{0≤y≤1, Σ size·y ≤ budget} Σ_c gain[c] · y[c]
//! ```
//!
//! where `gain[c] = Σ_{q,k∋c} μ[q][k][c]`. The inner `y` problem is a
//! fractional knapsack, solved exactly by density order. Every `L(μ)` is
//! a valid lower bound on the LP relaxation — and hence on every feasible
//! integer selection priced by the same config menus (in particular the
//! greedy incumbent). Projected subgradient ascent with Polyak steps
//! against the incumbent, fixed iteration order, pure `f64` arithmetic:
//! bit-identical on every run.

use dbvirt_core::lagrange::{ascend, Relaxation};

pub use dbvirt_core::lagrange::LpBound;

/// One VM's selection ILP with its coupling rows dualized by
/// `mu[q][k][pos]`.
struct CouplingDual<'a> {
    costs: &'a [Vec<f64>],
    members: &'a [Vec<Vec<usize>>],
    sizes: &'a [u64],
    budget: u64,
    mu: Vec<Vec<Vec<f64>>>,
    /// The inner solution at the current multipliers.
    chosen: Vec<usize>,
    y: Vec<f64>,
    gain: Vec<f64>,
    density_order: Vec<usize>,
}

impl Relaxation for CouplingDual<'_> {
    fn evaluate(&mut self) -> f64 {
        // Per-query inner minimization: cheapest config under current
        // prices; strict `<` keeps the first minimizer — deterministic.
        let mut value = 0.0f64;
        for (q, qcosts) in self.costs.iter().enumerate() {
            let mut min_val = f64::INFINITY;
            let mut min_k = 0usize;
            for (k, &c) in qcosts.iter().enumerate() {
                let priced = c + self.mu[q][k].iter().sum::<f64>();
                if priced < min_val {
                    min_val = priced;
                    min_k = k;
                }
            }
            value += min_val;
            self.chosen[q] = min_k;
        }

        // Inner y problem: fractional knapsack over positive gains.
        self.gain.fill(0.0);
        for (q, qk) in self.members.iter().enumerate() {
            for (k, kmembers) in qk.iter().enumerate() {
                for (pos, &c) in kmembers.iter().enumerate() {
                    self.gain[c] += self.mu[q][k][pos];
                }
            }
        }
        // Density order: gain/size descending, ties to the lower index.
        let (gain, sizes) = (&self.gain, self.sizes);
        self.density_order.sort_by(|&a, &b| {
            let da = gain[a] * sizes[b].max(1) as f64;
            let db = gain[b] * sizes[a].max(1) as f64;
            db.partial_cmp(&da)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut remaining = self.budget as f64;
        self.y.fill(0.0);
        for &c in &self.density_order {
            if gain[c] <= 0.0 || remaining <= 0.0 {
                break;
            }
            let size = sizes[c].max(1) as f64;
            let frac = (remaining / size).min(1.0);
            self.y[c] = frac;
            remaining -= frac * size;
            value -= frac * gain[c];
        }
        value
    }

    /// Subgradient `g[q][k][c] = x[q][k] − y[c]`.
    fn subgradient_norm_sq(&self) -> f64 {
        let mut norm_sq = 0.0f64;
        for (q, qk) in self.members.iter().enumerate() {
            for (k, kmembers) in qk.iter().enumerate() {
                let x = f64::from(self.chosen[q] == k);
                for &c in kmembers.iter() {
                    let g = x - self.y[c];
                    norm_sq += g * g;
                }
            }
        }
        norm_sq
    }

    fn step(&mut self, step: f64) {
        for (q, (qk, qmu)) in self.members.iter().zip(&mut self.mu).enumerate() {
            for (k, (kmembers, kmu)) in qk.iter().zip(qmu).enumerate() {
                let x = f64::from(self.chosen[q] == k);
                for (mu, &c) in kmu.iter_mut().zip(kmembers) {
                    *mu = (*mu + step * (x - self.y[c])).max(0.0);
                }
            }
        }
    }
}

/// Computes the Lagrangian lower bound for one VM's selection problem.
///
/// * `costs[q][k]` — config `k`'s what-if price for query `q`;
/// * `members[q][k]` — the candidate indices config `k` couples to;
/// * `sizes[c]` — candidate `c`'s pages;
/// * `budget` — the page budget;
/// * `incumbent` — best known feasible objective (drives Polyak steps).
pub fn lower_bound(
    costs: &[Vec<f64>],
    members: &[Vec<Vec<usize>>],
    sizes: &[u64],
    budget: u64,
    incumbent: f64,
    max_iterations: usize,
) -> LpBound {
    let mut dual = CouplingDual {
        costs,
        members,
        sizes,
        budget,
        mu: members
            .iter()
            .map(|qs| qs.iter().map(|k| vec![0.0; k.len()]).collect())
            .collect(),
        chosen: vec![0; costs.len()],
        y: vec![0.0; sizes.len()],
        gain: vec![0.0; sizes.len()],
        density_order: (0..sizes.len()).collect(),
    };
    ascend(&mut dual, incumbent, max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force ILP optimum over all index subsets (config pricing).
    fn ilp_opt(costs: &[Vec<f64>], members: &[Vec<Vec<usize>>], sizes: &[u64], budget: u64) -> f64 {
        let n = sizes.len();
        let mut best = f64::INFINITY;
        for mask in 0u64..(1 << n) {
            let pages: u64 = (0..n)
                .filter(|&c| mask & (1 << c) != 0)
                .map(|c| sizes[c])
                .sum();
            if pages > budget {
                continue;
            }
            let mut total = 0.0;
            for (q, qcosts) in costs.iter().enumerate() {
                let mut m = f64::INFINITY;
                for (k, &c) in qcosts.iter().enumerate() {
                    if members[q][k].iter().all(|&i| mask & (1 << i) != 0) && c < m {
                        m = c;
                    }
                }
                total += m;
            }
            best = best.min(total);
        }
        best
    }

    #[test]
    fn bound_is_below_ilp_and_tight_when_budget_is_loose() {
        // Two queries, two candidates. q0 wants c0 (10 -> 2), q1 wants c1
        // (8 -> 3), the pair helps q0 a bit more (10 -> 1.5).
        let costs = vec![vec![10.0, 2.0, 9.5, 1.5], vec![8.0, 7.9, 3.0, 2.9]];
        let members = vec![
            vec![vec![], vec![0], vec![1], vec![0, 1]],
            vec![vec![], vec![0], vec![1], vec![0, 1]],
        ];
        let sizes = vec![5, 5];

        // Loose budget: both indexes fit; opt = 1.5 + 2.9.
        let opt = ilp_opt(&costs, &members, &sizes, 10);
        assert!((opt - 4.4).abs() < 1e-12);
        let lb = lower_bound(&costs, &members, &sizes, 10, opt, 400);
        assert!(lb.bound <= opt + 1e-9, "{} > {opt}", lb.bound);
        assert!(lb.bound >= opt - 0.5, "loose-budget bound should be tight");

        // Tight budget: only one index fits; opt = min(2 + 3, 10 + ... ).
        let opt_tight = ilp_opt(&costs, &members, &sizes, 5);
        let lb_tight = lower_bound(&costs, &members, &sizes, 5, opt_tight, 400);
        assert!(lb_tight.bound <= opt_tight + 1e-9);
        // And the budget genuinely binds: tight opt > loose opt.
        assert!(opt_tight > opt);
    }

    #[test]
    fn zero_budget_bound_equals_empty_config_cost() {
        let costs = vec![vec![10.0, 2.0], vec![8.0, 3.0]];
        let members = vec![vec![vec![], vec![0]], vec![vec![], vec![0]]];
        let sizes = vec![4];
        let opt = ilp_opt(&costs, &members, &sizes, 0);
        assert_eq!(opt, 18.0);
        let lb = lower_bound(&costs, &members, &sizes, 0, opt, 400);
        assert!(lb.bound <= opt + 1e-9);
        // With no capacity the dual should close the gap completely.
        assert!(opt - lb.bound < 1e-6, "gap {}", opt - lb.bound);
    }

    #[test]
    fn no_candidates_is_exact() {
        let costs = vec![vec![7.0], vec![5.0]];
        let members = vec![vec![vec![]], vec![vec![]]];
        let lb = lower_bound(&costs, &members, &[], 100, 12.0, 50);
        assert_eq!(lb.bound, 12.0);
    }

    #[test]
    fn bound_is_deterministic() {
        let costs = vec![
            vec![10.0, 2.0, 9.5, 1.5],
            vec![8.0, 7.9, 3.0, 2.9],
            vec![6.0, 5.0, 4.0, 3.5],
        ];
        let members = vec![
            vec![vec![], vec![0], vec![1], vec![0, 1]],
            vec![vec![], vec![0], vec![1], vec![0, 1]],
            vec![vec![], vec![0], vec![1], vec![0, 1]],
        ];
        let sizes = vec![5, 7];
        let a = lower_bound(&costs, &members, &sizes, 7, 10.0, 300);
        let b = lower_bound(&costs, &members, &sizes, 7, 10.0, 300);
        assert_eq!(a.bound.to_bits(), b.bound.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }
}
