//! Tier 3: LP lower bound via Lagrangian relaxation, solved in-tree.
//!
//! The placement LP (CoPhy-style): fractional variables `x[i][m][cell]`
//! pick a machine and share cell per VM, subject to per-machine CPU and
//! memory capacity rows. Machines of one class have the same capacity and
//! the same cost rows, so the capacity rows are dualized with one
//! multiplier pair per machine *class*, `λ[k][cpu|mem] ≥ 0`, weighted by
//! the class's machine count `nₖ`. The Lagrangian is separable per VM:
//!
//! ```text
//! L(λ) = Σᵢ min over (k, cell) of [ wᵢ·cost(k, i, cell)
//!                                   + λ[k][cpu]·cell.cpu + λ[k][mem]·cell.mem ]
//!        − Σₖ nₖ·(λ[k][cpu] + λ[k][mem]) · units
//! ```
//!
//! and its subgradient is `load[k] − nₖ·units` per resource. A per-class
//! `λ` is the per-machine `λ` whose entries are equal within each class,
//! so this is the per-machine Lagrangian restricted to such points: every
//! value the ascent reports is still a lower bound. Nothing is lost at the
//! optimum either — the per-machine dual is concave and symmetric under
//! swapping two machines of one class, so averaging an optimal per-machine
//! `λ` over each class is optimal too. The inner scan and the dual's
//! dimension shrink by machines ÷ classes.
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
//!
//! The inner minimisation scans, per `(class, VM)`, a candidate list built
//! once before the ascent: the rectangle's cells that no other cell
//! *dominates* (no more CPU, no more memory, a cost no higher), in
//! `(cpu, mem)` order. Dropping the rest changes no bit of any iterate:
//!
//! 1. the projected step keeps every `λ ≥ 0`, and IEEE multiplication and
//!    addition round monotonically, so a dominated cell never prices
//!    strictly below the cell that dominates it;
//! 2. the dominating cell comes earlier in `(cpu, mem)` order, so the
//!    strict-`<` first minimiser of the full scan is always on the list;
//! 3. a NaN or `+∞` cost never satisfies `v < min`, so those cells go too.

use crate::solver::FleetSolver;
use crate::FleetError;
use dbvirt_core::lagrange::{ascend, Relaxation};

pub use dbvirt_core::lagrange::LpBound;

/// How much of the dense cell grid one bound's scan kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpScan {
    /// `(class, VM, cell)` entries of the warm rectangle.
    pub cells: usize,
    /// Entries on the candidate lists: the cells no other cell dominates.
    pub candidates: usize,
}

/// A cell that can be a VM's first minimiser: its weighted cost and its
/// unit offsets `(cpu − lo, mem − lo)`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cost: f64,
    c: u32,
    mu: u32,
}

/// The cells of one `side × side` block (CPU-major) that no other cell
/// dominates, in scan order. At cell `(c, mu)`, `seen[mu]` holds the
/// minimum cost over `cpu < c, mem ≤ mu` and `left` over `cpu ≤ c,
/// mem < mu`: a cell is kept when it is strictly below both — the one
/// pass of a 2-D prefix minimum. `f64::min` skips NaN, and a NaN or `+∞`
/// cost is never strictly below anything.
fn undominated(block: &[f64], side: usize) -> Vec<Candidate> {
    let mut seen = vec![f64::INFINITY; side];
    let mut kept = Vec::new();
    for (c, row) in block.chunks_exact(side).enumerate() {
        let mut left = f64::INFINITY;
        for (mu, (&cost, above)) in row.iter().zip(&mut seen).enumerate() {
            let earlier = left.min(*above);
            if cost < earlier {
                kept.push(Candidate {
                    cost,
                    c: c as u32,
                    mu: mu as u32,
                });
            }
            left = earlier.min(cost);
            *above = left;
        }
    }
    kept
}

/// The placement LP with its capacity rows dualized by one multiplier pair
/// per machine class.
struct CapacityDual {
    /// `lists[class * n + i]`: VM `i`'s candidates on machine class `class`.
    lists: Vec<Vec<Candidate>>,
    n: usize,
    /// `capacity[class]`: the class's units of either resource, `nₖ·units`.
    capacity: Vec<f64>,
    lo: u32,
    side: usize,
    lambda: Vec<[f64; 2]>,
    /// This iteration's price rows, `λ[k]·c` and `λ[k]·mu` per unit count.
    price: Vec<[f64; 2]>,
    load: Vec<[f64; 2]>,
}

impl CapacityDual {
    fn new(
        lists: Vec<Vec<Candidate>>,
        capacity: Vec<f64>,
        n: usize,
        lo: u32,
        side: usize,
    ) -> CapacityDual {
        let num_classes = capacity.len();
        CapacityDual {
            lists,
            n,
            capacity,
            lo,
            side,
            lambda: vec![[0.0; 2]; num_classes],
            price: vec![[0.0; 2]; num_classes * side],
            load: vec![[0.0; 2]; num_classes],
        }
    }
}

impl Relaxation for CapacityDual {
    fn evaluate(&mut self) -> f64 {
        let (lo, side) = (self.lo, self.side);
        for (k, lam) in self.lambda.iter().enumerate() {
            for (j, p) in self.price[k * side..][..side].iter_mut().enumerate() {
                let u = (lo + j as u32) as f64;
                *p = [lam[0] * u, lam[1] * u];
            }
        }
        // Separable inner minimization: each VM picks its cheapest
        // (class, cell) under the current prices. Strict `<` keeps the
        // first minimizer in (class, cpu, mem) order — deterministic.
        let mut value = 0.0f64;
        self.load.fill([0.0; 2]);
        for i in 0..self.n {
            let mut min_val = f64::INFINITY;
            let mut min_at = (0usize, 0u32, 0u32);
            for class in 0..self.capacity.len() {
                let prices = &self.price[class * side..][..side];
                for cand in &self.lists[class * self.n + i] {
                    let v = cand.cost + prices[cand.c as usize][0] + prices[cand.mu as usize][1];
                    if v < min_val {
                        min_val = v;
                        min_at = (class, cand.c, cand.mu);
                    }
                }
            }
            value += min_val;
            self.load[min_at.0][0] += (lo + min_at.1) as f64;
            self.load[min_at.0][1] += (lo + min_at.2) as f64;
        }
        for (lam, cap) in self.lambda.iter().zip(&self.capacity) {
            value -= (lam[0] + lam[1]) * cap;
        }
        value
    }

    /// Capacity violation per (class, resource).
    fn subgradient_norm_sq(&self) -> f64 {
        let mut norm_sq = 0.0f64;
        for (ld, cap) in self.load.iter().zip(&self.capacity) {
            let g_cpu = ld[0] - cap;
            let g_mem = ld[1] - cap;
            norm_sq += g_cpu * g_cpu + g_mem * g_mem;
        }
        norm_sq
    }

    fn step(&mut self, step: f64) {
        for ((lam, ld), cap) in self.lambda.iter_mut().zip(&self.load).zip(&self.capacity) {
            lam[0] = (lam[0] + step * (ld[0] - cap)).max(0.0);
            lam[1] = (lam[1] + step * (ld[1] - cap)).max(0.0);
        }
    }
}

/// Computes the Lagrangian lower bound. `incumbent_steady` (the best known
/// feasible steady-state objective) drives the Polyak step size.
pub(crate) fn lower_bound(
    solver: &FleetSolver<'_, '_>,
    rect_hi: u32,
    incumbent_steady: f64,
) -> Result<(LpBound, LpScan), FleetError> {
    let n = solver.problem.num_vms();
    let lo = solver.cfg.min_units;
    let side = (rect_hi - lo + 1) as usize;

    let num_classes = solver.classes.num_classes();
    let mut lists = Vec::with_capacity(num_classes * n);
    let mut block = Vec::with_capacity(side * side);
    for class in 0..num_classes {
        for i in 0..n {
            let w = solver.weight(i);
            block.clear();
            for c in lo..=rect_hi {
                for mu in lo..=rect_hi {
                    block.push(w * solver.cell_cost(class, i, c, mu)?);
                }
            }
            lists.push(undominated(&block, side));
        }
    }
    let scan = LpScan {
        cells: num_classes * n * side * side,
        candidates: lists.iter().map(Vec::len).sum(),
    };
    let mut capacity = vec![0.0; num_classes];
    for &class in &solver.classes.class_of {
        capacity[class] += solver.cfg.units as f64;
    }
    let mut dual = CapacityDual::new(lists, capacity, n, lo, side);
    let bound = ascend(&mut dual, incumbent_steady, solver.cfg.lp_iterations);
    Ok((bound, scan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// The filter's definition, cell against cell: keep a cell whose cost
    /// is below `+∞` (so not NaN) unless another cell with no more CPU and
    /// no more memory costs no more.
    fn undominated_brute(block: &[f64], side: usize) -> Vec<Candidate> {
        let at = |c: usize, mu: usize| block[c * side + mu];
        let mut kept = Vec::new();
        for c in 0..side {
            for mu in 0..side {
                let cost = at(c, mu);
                let dominated = (0..=c)
                    .any(|c2| (0..=mu).any(|mu2| (c2, mu2) != (c, mu) && at(c2, mu2) <= cost));
                if cost < f64::INFINITY && !dominated {
                    kept.push(Candidate {
                        cost,
                        c: c as u32,
                        mu: mu as u32,
                    });
                }
            }
        }
        kept
    }

    /// A weighted cost block shaped like a real class model's — cheaper
    /// with more CPU, flat in memory past a working set — with exact ties
    /// and NaN, `±∞`, `±0` cells salted in.
    fn random_block(rng: &mut TestRng, side: usize, specials: bool) -> Vec<f64> {
        let scale = 1.0 + (rng.next_u64() % 8) as f64 * 0.25;
        let working_set = (rng.next_u64() % (side as u64 + 1)) as usize;
        let mut block = Vec::with_capacity(side * side);
        for c in 0..side {
            for mu in 0..side {
                let spill = working_set.saturating_sub(mu) as f64;
                let mut cost = scale * (6.0 / (c + 1) as f64 + spill);
                match rng.next_u64() % 16 {
                    // A small integer: ties across the whole block.
                    0 | 1 => cost = (rng.next_u64() % 4) as f64,
                    2 if specials => cost = f64::NAN,
                    3 if specials => cost = f64::INFINITY,
                    4 if specials && rng.next_u64().is_multiple_of(4) => cost = f64::NEG_INFINITY,
                    5 if specials => cost = -0.0,
                    6 if specials => cost = 0.0,
                    _ => {}
                }
                block.push(cost);
            }
        }
        block
    }

    #[test]
    fn undominated_matches_the_pairwise_definition() {
        for case in 0..400u64 {
            let mut rng = TestRng::deterministic(0x6c70, case);
            let side = 1 + (case % 7) as usize;
            let block = random_block(&mut rng, side, case % 3 != 0);
            let fast = undominated(&block, side);
            let brute = undominated_brute(&block, side);
            let bits = |l: &[Candidate]| {
                l.iter()
                    .map(|k| (k.cost.to_bits(), k.c, k.mu))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&fast), bits(&brute), "case {case}: block {block:?}");
        }
    }

    #[test]
    fn memory_plateaus_and_nan_cells_are_dropped() {
        // 2×3: row c=0 is flat in memory with a NaN at its end; row c=1 is
        // cheaper, (1, 1) ties (1, 0) exactly and (1, 2) costs more.
        let block = [5.0, 5.0, f64::NAN, 3.0, 3.0, 5.0];
        let kept = undominated(&block, 3);
        let cells: Vec<(u32, u32)> = kept.iter().map(|k| (k.c, k.mu)).collect();
        assert_eq!(cells, [(0, 0), (1, 0)]);
        assert!(undominated(&[f64::NAN, f64::INFINITY, f64::NAN, f64::NAN], 2).is_empty());
    }

    /// The full-scan inner minimisation the candidate lists replace, over
    /// the dense `table[class][i * side² + (c-lo)*side + (m-lo)]`; the
    /// multipliers, the subgradient and the step are the dual's own.
    struct DenseDual {
        table: Vec<Vec<f64>>,
        dual: CapacityDual,
    }

    impl Relaxation for DenseDual {
        fn evaluate(&mut self) -> f64 {
            let d = &mut self.dual;
            let (lo, side, cells) = (d.lo, d.side, d.side * d.side);
            for (k, lam) in d.lambda.iter().enumerate() {
                for (j, p) in d.price[k * side..][..side].iter_mut().enumerate() {
                    let u = (lo + j as u32) as f64;
                    *p = [lam[0] * u, lam[1] * u];
                }
            }
            let mut value = 0.0f64;
            d.load.fill([0.0; 2]);
            for i in 0..d.n {
                let mut min_val = f64::INFINITY;
                let mut min_at = (0usize, 0usize, 0usize);
                for (class, table) in self.table.iter().enumerate() {
                    let t = &table[i * cells..][..cells];
                    let prices = &d.price[class * side..][..side];
                    for (c, row) in t.chunks_exact(side).enumerate() {
                        let cpu_price = prices[c][0];
                        for (mu, (&cost, p)) in row.iter().zip(prices).enumerate() {
                            let v = cost + cpu_price + p[1];
                            if v < min_val {
                                min_val = v;
                                min_at = (class, c, mu);
                            }
                        }
                    }
                }
                value += min_val;
                d.load[min_at.0][0] += (lo + min_at.1 as u32) as f64;
                d.load[min_at.0][1] += (lo + min_at.2 as u32) as f64;
            }
            for (lam, cap) in d.lambda.iter().zip(&d.capacity) {
                value -= (lam[0] + lam[1]) * cap;
            }
            value
        }

        fn subgradient_norm_sq(&self) -> f64 {
            self.dual.subgradient_norm_sq()
        }

        fn step(&mut self, step: f64) {
            self.dual.step(step)
        }
    }

    /// `n` VMs' weighted cost blocks per class, VM `dead_vm` (if any) all
    /// NaN: `table[class][i * side² + …]`.
    fn random_table(
        rng: &mut TestRng,
        (n_classes, n, side): (usize, usize, usize),
        specials: bool,
        dead_vm: usize,
    ) -> Vec<Vec<f64>> {
        (0..n_classes)
            .map(|_| {
                (0..n)
                    .flat_map(|i| {
                        let block = random_block(rng, side, specials);
                        if i == dead_vm {
                            vec![f64::NAN; block.len()]
                        } else {
                            block
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The candidate lists of every `(class, VM)` of `table`, class-major.
    fn lists_of(table: &[Vec<f64>], n: usize, side: usize) -> Vec<Vec<Candidate>> {
        let cells = side * side;
        table
            .iter()
            .flat_map(|t| (0..n).map(move |i| undominated(&t[i * cells..][..cells], side)))
            .collect()
    }

    /// `nₖ·units` per class of `class_of`.
    fn capacity_of(class_of: &[usize], n_classes: usize, units: f64) -> Vec<f64> {
        let mut capacity = vec![0.0; n_classes];
        for &class in class_of {
            capacity[class] += units;
        }
        capacity
    }

    /// Every iterate a relaxation produced: `L(λ)` and the load vector,
    /// as bits.
    type Trace = Vec<(u64, Vec<[u64; 2]>)>;

    struct Recorded<R> {
        inner: R,
        load: fn(&R) -> &[[f64; 2]],
        trace: Trace,
    }

    impl<R: Relaxation> Relaxation for Recorded<R> {
        fn evaluate(&mut self) -> f64 {
            let value = self.inner.evaluate();
            let load = (self.load)(&self.inner).iter();
            let load = load.map(|l| [l[0].to_bits(), l[1].to_bits()]).collect();
            self.trace.push((value.to_bits(), load));
            value
        }

        fn subgradient_norm_sq(&self) -> f64 {
            self.inner.subgradient_norm_sq()
        }

        fn step(&mut self, step: f64) {
            self.inner.step(step)
        }
    }

    fn ascend_recorded<R: Relaxation>(
        inner: R,
        load: fn(&R) -> &[[f64; 2]],
        incumbent: f64,
        iterations: usize,
    ) -> (LpBound, Trace) {
        let mut rec = Recorded {
            inner,
            load,
            trace: Vec::new(),
        };
        let lp = ascend(&mut rec, incumbent, iterations);
        (lp, rec.trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pruned scan ascends exactly as the dense one: same bound
        /// bits, iteration count, convergence flag and every iterate's
        /// value and load, over random class maps, both the full share
        /// range and a forced-occupancy rectangle, and VMs with no finite
        /// cell at all.
        #[test]
        fn pruned_ascent_equals_the_dense_scan(
            (n, m_count, n_classes) in (1usize..7, 1usize..6, 1usize..4),
            (units, forced) in (2u32..9, prop::bool::ANY),
            (specials, dead_vm) in (prop::bool::ANY, 0usize..10),
            seed in 0u64..1_000_000,
            slack in 0.0f64..0.5,
        ) {
            let mut rng = TestRng::deterministic(seed, 0);
            let classes: Vec<usize> =
                (0..m_count).map(|_| (rng.next_u64() % n_classes as u64) as usize).collect();
            let lo = 1u32;
            let rect_hi = if forced { 1 + (rng.next_u64() % units as u64) as u32 } else { units };
            let side = (rect_hi - lo + 1) as usize;
            let table = random_table(&mut rng, (n_classes, n, side), specials, dead_vm);
            let lists = lists_of(&table, n, side);
            // An incumbent a little above a feasible-looking value.
            let incumbent = (n as f64) * 3.0 * (1.0 + slack);
            let capacity = capacity_of(&classes, n_classes, units as f64);

            let pruned = CapacityDual::new(lists, capacity.clone(), n, lo, side);
            let dense = DenseDual {
                table,
                dual: CapacityDual::new(Vec::new(), capacity, n, lo, side),
            };
            let (got, got_trace) = ascend_recorded(pruned, |d| &d.load, incumbent, 300);
            let (want, want_trace) = ascend_recorded(dense, |d| &d.dual.load, incumbent, 300);
            prop_assert_eq!(got.bound.to_bits(), want.bound.to_bits());
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.converged, want.converged);
            prop_assert_eq!(got_trace, want_trace);
        }

        /// The class dual is the machine dual at multipliers equal within
        /// each class: at random per-class `λ ≥ 0` broadcast to every
        /// machine of its class, the pruned per-class `L(λ)` equals the
        /// dense per-machine one up to the rounding of the capacity term,
        /// and each class's load is the sum of its machines' loads. So
        /// every value the ascent reports is a per-machine Lagrangian
        /// value: a valid lower bound. Class indices are numbered in first-
        /// appearance order, as `MachineClasses::of` numbers them, so both
        /// scans break ties toward the same class.
        #[test]
        fn the_class_dual_is_the_machine_dual_at_equal_multipliers(
            (n, m_count, labels) in (1usize..7, 1usize..7, 1u64..5),
            (units, forced) in (2u32..9, prop::bool::ANY),
            (specials, dead_vm) in (prop::bool::ANY, 0usize..10),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = TestRng::deterministic(seed, 1);
            let mut seen: Vec<u64> = Vec::new();
            let classes: Vec<usize> = (0..m_count)
                .map(|_| {
                    let label = rng.next_u64() % labels;
                    seen.iter().position(|&l| l == label).unwrap_or_else(|| {
                        seen.push(label);
                        seen.len() - 1
                    })
                })
                .collect();
            let n_classes = seen.len();
            let lo = 1u32;
            let rect_hi = if forced { 1 + (rng.next_u64() % units as u64) as u32 } else { units };
            let side = (rect_hi - lo + 1) as usize;
            let table = random_table(&mut rng, (n_classes, n, side), specials, dead_vm);
            let units = units as f64;
            // Multipliers on a 1/64 grid up to 4, a quarter of them 0.
            let mut multiplier = || match rng.next_u64() % 4 {
                0 => 0.0,
                _ => (rng.next_u64() % 256) as f64 / 64.0,
            };
            let lambda: Vec<[f64; 2]> =
                (0..n_classes).map(|_| [multiplier(), multiplier()]).collect();

            let mut dual = CapacityDual::new(
                lists_of(&table, n, side),
                capacity_of(&classes, n_classes, units),
                n,
                lo,
                side,
            );
            dual.lambda = lambda.clone();
            let got = dual.evaluate();
            // The per-machine dual is the dense one with every machine a
            // class of its own, at one machine's capacity.
            let mut machines = DenseDual {
                table: classes.iter().map(|&k| table[k].clone()).collect(),
                dual: CapacityDual::new(Vec::new(), vec![units; m_count], n, lo, side),
            };
            machines.dual.lambda = classes.iter().map(|&k| lambda[k]).collect();
            let want = machines.evaluate();
            let terms: f64 = machines.dual.lambda.iter().map(|l| (l[0] + l[1]) * units).sum();
            if want.is_nan() {
                prop_assert!(got.is_nan(), "got {got}, want NaN");
            } else {
                prop_assert!(
                    got == want || (got - want).abs() <= 1e-12 * (want.abs() + terms),
                    "got {got}, want {want}"
                );
            }
            let mut class_load = vec![[0.0; 2]; n_classes];
            for (ld, &k) in machines.dual.load.iter().zip(&classes) {
                class_load[k][0] += ld[0];
                class_load[k][1] += ld[1];
            }
            prop_assert_eq!(&dual.load, &class_load);
        }
    }
}
