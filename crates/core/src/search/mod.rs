//! Combinatorial search over candidate allocations (paper, Section 3:
//! "a search algorithm for enumerating candidate solutions" plus "a method
//! for evaluating the cost of a candidate solution").
//!
//! Shares are discretized into `units` equal steps per resource; a
//! candidate gives each workload an integer number of units of CPU and of
//! memory (disk is a fixed per-VM policy, matching the paper's testbed,
//! where Xen could not throttle disk independently). Three algorithms are
//! provided:
//!
//! * [`SearchAlgorithm::Exhaustive`] — enumerate every composition
//!   (ground truth, exponential in `N`);
//! * [`SearchAlgorithm::Greedy`] — start from the equal split and
//!   repeatedly move one unit between workloads while that improves total
//!   cost;
//! * [`SearchAlgorithm::DynamicProgramming`] — the paper's suggested
//!   "standard technique": costs are separable across workloads, so an
//!   exact DP over (workload, remaining cpu units, remaining memory
//!   units) finds the optimum in polynomial time.
//!
//! Cost evaluations are cached per `(workload, cpu units, mem units)` —
//! the what-if optimizer is cheap but not free, and the same cell recurs
//! across candidates. The cache ([`CostCache`]) is a dense write-once
//! table; a search resolves its workloads' rows once and prices every cell
//! on the caller's thread through one memoizing closure.

mod cache;
mod dynprog;
mod exhaustive;
mod greedy;

pub(crate) use cache::CellKey;
pub use cache::{CostCache, CostRow};
pub use dynprog::{solve as solve_dp, value_table, DpSolution, ValueTable};

use crate::{CoreError, CostModel, DesignProblem};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::{AllocationMatrix, ResourceVector};
use std::sync::Arc;

/// What-if evaluations answered from the [`CostCache`].
static TM_CACHE_HITS: telemetry::Counter = telemetry::Counter::new("search.cache.hits");
/// What-if evaluations that had to call the cost model.
static TM_CACHE_MISSES: telemetry::Counter = telemetry::Counter::new("search.cache.misses");
/// Wall-clock latency of individual cost-model calls (cache misses only).
static TM_EVAL_US: telemetry::Histogram = telemetry::Histogram::new("search.eval_us");

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Number of discrete units each resource is divided into.
    pub units: u32,
    /// Fixed disk share given to every VM (typically `1 / N`).
    pub disk_share: f64,
    /// Minimum units of each resource per workload (≥ 1 so every VM can
    /// make progress).
    pub min_units: u32,
    /// CPU units the search may distribute among this problem's workloads
    /// (`units` for a whole-machine solve; less when a caller pins some
    /// workloads' shares and re-solves only the remainder). Shares are
    /// always expressed as fractions of the *whole* machine — budgets
    /// restrict the search space, not the denominator.
    pub cpu_budget: u32,
    /// Memory units the search may distribute (see `cpu_budget`).
    pub mem_budget: u32,
}

impl SearchConfig {
    /// A config with `units` steps, equal-split disk for `n` workloads,
    /// a 1-unit floor, and the full machine as budget.
    pub fn for_workloads(units: u32, n: usize) -> SearchConfig {
        SearchConfig {
            units,
            disk_share: 1.0 / n as f64,
            min_units: 1,
            cpu_budget: units,
            mem_budget: units,
        }
    }

    /// The equal split of the whole machine among `n` workloads: `1/n` of
    /// the CPU and of the memory each, at this config's disk share (the
    /// controller's first allocation and `run_dynamic`'s static baseline).
    pub fn equal_split(&self, n: usize) -> Result<AllocationMatrix, CoreError> {
        let rows = (0..n)
            .map(|_| {
                ResourceVector::from_fractions(1.0 / n as f64, 1.0 / n as f64, self.disk_share)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AllocationMatrix::new(rows)?)
    }

    /// Returns the config restricted to a sub-budget of `cpu`/`mem` units
    /// (a localized re-solve over a workload subset, with the rest of the
    /// machine pinned elsewhere).
    pub fn with_budgets(mut self, cpu: u32, mem: u32) -> SearchConfig {
        self.cpu_budget = cpu;
        self.mem_budget = mem;
        self
    }

    fn validate(&self, n: usize) -> Result<(), CoreError> {
        if self.units == 0 || self.min_units == 0 || n == 0 {
            return Err(CoreError::BadProblem {
                reason: "units, min_units and the workload count must be positive".to_string(),
            });
        }
        if self.cpu_budget > self.units || self.mem_budget > self.units {
            return Err(CoreError::BadProblem {
                reason: format!(
                    "budget ({}, {}) exceeds {} total units",
                    self.cpu_budget, self.mem_budget, self.units
                ),
            });
        }
        let floor = (self.min_units as usize) * n;
        if floor > self.cpu_budget as usize || floor > self.mem_budget as usize {
            return Err(CoreError::BadProblem {
                reason: format!(
                    "{} workloads x {} min units exceed budget ({}, {})",
                    n, self.min_units, self.cpu_budget, self.mem_budget
                ),
            });
        }
        if !(self.disk_share > 0.0 && self.disk_share <= 1.0) {
            return Err(CoreError::BadProblem {
                reason: format!("disk share {} out of range", self.disk_share),
            });
        }
        Ok(())
    }
}

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgorithm {
    /// Full enumeration of all candidates.
    Exhaustive,
    /// Unit-transfer hill climbing from the equal split.
    Greedy,
    /// Exact dynamic programming over separable costs.
    DynamicProgramming,
}

impl SearchAlgorithm {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SearchAlgorithm::Exhaustive => "exhaustive",
            SearchAlgorithm::Greedy => "greedy",
            SearchAlgorithm::DynamicProgramming => "dynamic-programming",
        }
    }
}

/// The search's output: the recommended allocation and its predicted
/// costs.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The recommended allocation matrix.
    pub allocation: AllocationMatrix,
    /// Predicted cost (seconds) per workload under the recommendation.
    pub per_workload_costs: Vec<f64>,
    /// Sum of the per-workload costs.
    pub total_cost: f64,
    /// The optimized objective: the service-level-weighted cost sum
    /// (equals `total_cost` when every weight is 1).
    pub objective: f64,
    /// Distinct what-if cost evaluations performed by this search (cells
    /// already present in a shared warm cache are not counted).
    pub evaluations: usize,
    /// The algorithm that produced this recommendation.
    pub algorithm: &'static str,
}

/// Per-workload integer allocation: `(cpu units, mem units)`.
pub(crate) type UnitAssignment = Vec<(u32, u32)>;

/// The resource shares a `(cpu units, mem units)` cell of a `units`-step
/// lattice denotes: `cpu_units / units` of the CPU, `mem_units / units` of
/// the memory and `disk_share` of the disk. Every tier that turns a cell
/// into a [`ResourceVector`] — the search, the controller, the fleet and
/// the design advisor — converts here. A cell past `units`, or a
/// non-finite or out-of-range disk share, is a [`CoreError`].
#[inline]
pub fn cell_shares(
    units: u32,
    disk_share: f64,
    cpu_units: u32,
    mem_units: u32,
) -> Result<ResourceVector, CoreError> {
    let u = units as f64;
    Ok(ResourceVector::from_fractions(
        cpu_units as f64 / u,
        mem_units as f64 / u,
        disk_share,
    )?)
}

/// Total weighted cost of a full unit assignment, summed in workload order.
fn total(
    assignment: &UnitAssignment,
    cost: &impl Fn(usize, u32, u32) -> Result<f64, CoreError>,
) -> Result<f64, CoreError> {
    assignment
        .iter()
        .enumerate()
        .map(|(w, &(c, m))| cost(w, c, m))
        .sum()
}

/// An equal split of `units` into `n` parts (remainder units go to the
/// first workloads): greedy's and the design advisor's start. `n` must be
/// positive; both callers validate it first.
pub fn equal_units(n: usize, units: u32) -> Vec<u32> {
    let base = units / n as u32;
    let extra = units as usize % n;
    (0..n).map(|i| base + u32::from(i < extra)).collect()
}

/// Runs the requested search with a fresh evaluation cache.
pub fn run_search(
    algorithm: SearchAlgorithm,
    problem: &DesignProblem<'_>,
    model: &dyn CostModel,
    config: SearchConfig,
) -> Result<Recommendation, CoreError> {
    run_search_cached(
        algorithm,
        problem,
        model,
        config,
        &Arc::new(CostCache::new()),
    )
}

/// Runs the requested search against a caller-owned [`CostCache`], so
/// repeated solves over the same databases and queries reuse each other's
/// what-if evaluations. The cache stores unweighted costs, so sharing is sound
/// across problems that differ only in workload weights; the caller must
/// not share a cache across different databases, queries or machines. A
/// cache already asked under another share discretization (`units`,
/// `disk_share`) is refused with [`CoreError::BadProblem`].
pub fn run_search_cached(
    algorithm: SearchAlgorithm,
    problem: &DesignProblem<'_>,
    model: &dyn CostModel,
    config: SearchConfig,
    cache: &Arc<CostCache>,
) -> Result<Recommendation, CoreError> {
    let n = problem.num_workloads();
    config.validate(n)?;
    let mut run_span = telemetry::span("search.run");
    run_span.set_attr("algorithm", algorithm.name());
    run_span.set_attr("workloads", n);
    run_span.set_attr("units", config.units);
    let rows = cache.rows(config.units, config.disk_share, 0..n)?;
    let evals_at_start = cache.evaluations();

    // `weightᵢ · Cost(Wᵢ, Rᵢ)` at a cell, memoized unweighted in the
    // workload's row: the quantity every algorithm minimizes.
    let cost = |w: usize, cpu_units: u32, mem_units: u32| -> Result<f64, CoreError> {
        let weight = problem.workloads[w].weight;
        let row = &rows[w];
        if let Some(c) = row.get(cpu_units, mem_units) {
            TM_CACHE_HITS.add(1);
            return Ok(c * weight);
        }
        TM_CACHE_MISSES.add(1);
        let shares = cell_shares(config.units, config.disk_share, cpu_units, mem_units)?;
        // Observation only: the clock is read solely when telemetry is on,
        // and nothing downstream depends on the measured duration.
        let t0 = telemetry::is_enabled().then(std::time::Instant::now);
        let c = model.cost(problem, w, shares)?;
        if let Some(t0) = t0 {
            TM_EVAL_US.record_duration(t0.elapsed());
        }
        row.insert(cpu_units, mem_units, c);
        Ok(c * weight)
    };
    let assignment = match algorithm {
        SearchAlgorithm::Exhaustive => exhaustive::search(n, &config, &cost)?,
        SearchAlgorithm::Greedy => greedy::search(n, &config, &cost)?,
        SearchAlgorithm::DynamicProgramming => solve_dp(n, &config, &cost)?.assignment,
    };

    let shares: Vec<ResourceVector> = assignment
        .iter()
        .map(|&(c, m)| cell_shares(config.units, config.disk_share, c, m))
        .collect::<Result<_, _>>()?;
    let allocation = AllocationMatrix::new(shares)?;
    let weighted: Vec<f64> = assignment
        .iter()
        .enumerate()
        .map(|(w, &(c, m))| cost(w, c, m))
        .collect::<Result<_, _>>()?;
    let per_workload_costs: Vec<f64> = weighted
        .iter()
        .enumerate()
        .map(|(w, &c)| c / problem.workloads[w].weight)
        .collect();
    let rec = Recommendation {
        allocation,
        objective: weighted.iter().sum(),
        total_cost: per_workload_costs.iter().sum(),
        per_workload_costs,
        evaluations: cache.evaluations() - evals_at_start,
        algorithm: algorithm.name(),
    };
    run_span.set_attr("evaluations", rec.evaluations);
    Ok(rec)
}

/// The equal split as a unit assignment (remainder units go to the first
/// workloads).
#[cfg(test)]
pub(crate) fn equal_assignment(n: usize, units: u32) -> UnitAssignment {
    equal_units(n, units)
        .into_iter()
        .zip(equal_units(n, units))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! A synthetic, analytically-minimizable cost model for search tests.

    use super::*;
    use dbvirt_engine::Database;
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
    use dbvirt_vmm::MachineSpec;

    /// `cost_i(R) = cpu_weight_i / cpu + mem_weight_i / mem` — convex and
    /// separable, so the optimum is unique and the greedy landscape is
    /// well-behaved.
    pub struct SyntheticModel {
        pub weights: Vec<(f64, f64)>,
    }

    impl CostModel for SyntheticModel {
        fn cost(
            &self,
            _problem: &DesignProblem<'_>,
            w_idx: usize,
            shares: ResourceVector,
        ) -> Result<f64, CoreError> {
            let (wc, wm) = self.weights[w_idx];
            Ok(wc / shares.cpu().fraction() + wm / shares.memory().fraction())
        }
    }

    /// Builds a minimal valid problem with `n` trivial workloads (the
    /// synthetic model never looks at the queries).
    pub fn dummy_problem(db: &Database, n: usize) -> DesignProblem<'_> {
        let t = db.table_id("t").unwrap();
        let workloads = (0..n)
            .map(|i| crate::WorkloadSpec::new(format!("w{i}"), db, vec![LogicalPlan::scan(t)]))
            .collect();
        DesignProblem::new(MachineSpec::paper_testbed(), workloads).unwrap()
    }

    pub fn dummy_db() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
            .unwrap();
        db.analyze_all().unwrap();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::*;
    use super::*;
    use proptest::prelude::*;

    /// `weightᵢ · Cost(Wᵢ, Rᵢ)` priced straight from `model`: what a
    /// search's memoizing closure answers, bit for bit, without the cache.
    fn uncached<'a>(
        problem: &'a DesignProblem<'a>,
        model: &'a dyn CostModel,
        config: SearchConfig,
    ) -> impl Fn(usize, u32, u32) -> Result<f64, CoreError> + 'a {
        move |w, c, m| {
            Ok(model.cost(
                problem,
                w,
                cell_shares(config.units, config.disk_share, c, m)?,
            )? * problem.workloads[w].weight)
        }
    }

    #[test]
    fn a_cell_off_the_lattice_is_an_error_not_a_share_above_one() {
        let edge = cell_shares(8, 0.5, 8, 2).unwrap();
        assert_eq!(edge.cpu().fraction(), 1.0);
        assert_eq!(edge.memory().fraction(), 0.25);
        assert_eq!(edge.disk().fraction(), 0.5);
        for (cpu, mem, disk) in [
            (9, 4, 0.5),
            (4, 9, 0.5),
            (4, 4, f64::NAN),
            (4, 4, f64::INFINITY),
            (4, 4, 1.5),
            (4, 4, -0.25),
        ] {
            let got = cell_shares(8, disk, cpu, mem);
            assert!(
                matches!(got, Err(CoreError::Vmm(_))),
                "cell ({cpu}, {mem}) of 8 units at disk {disk}: {got:?}"
            );
        }
    }

    #[test]
    fn equal_assignment_distributes_remainder() {
        assert_eq!(equal_assignment(2, 8), vec![(4, 4), (4, 4)]);
        assert_eq!(equal_assignment(3, 8), vec![(3, 3), (3, 3), (2, 2)]);
    }

    #[test]
    fn config_validation() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 3);
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0); 3],
        };
        let bad = SearchConfig::for_workloads(2, 3);
        assert!(run_search(SearchAlgorithm::Greedy, &problem, &model, bad).is_err());
        let mut bad = SearchConfig::for_workloads(8, 3);
        bad.disk_share = 0.0;
        assert!(run_search(SearchAlgorithm::Greedy, &problem, &model, bad).is_err());
        // Budgets must cover the per-workload floor and fit the machine.
        let bad = SearchConfig::for_workloads(8, 3).with_budgets(2, 8);
        assert!(run_search(SearchAlgorithm::Greedy, &problem, &model, bad).is_err());
        let bad = SearchConfig::for_workloads(8, 3).with_budgets(8, 9);
        assert!(run_search(SearchAlgorithm::Greedy, &problem, &model, bad).is_err());
    }

    #[test]
    fn all_algorithms_agree_on_symmetric_workloads() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0), (1.0, 1.0)],
        };
        let config = SearchConfig::for_workloads(8, 2);
        for alg in [
            SearchAlgorithm::Exhaustive,
            SearchAlgorithm::Greedy,
            SearchAlgorithm::DynamicProgramming,
        ] {
            let rec = run_search(alg, &problem, &model, config).unwrap();
            // Symmetric convex costs: equal split is optimal.
            let row = rec.allocation.row(0);
            assert!(
                (row.cpu().fraction() - 0.5).abs() < 1e-9,
                "{alg:?} cpu {row}"
            );
            assert!((row.memory().fraction() - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn skewed_workloads_get_skewed_allocations() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        // Workload 0 is CPU-hungry, workload 1 memory-hungry.
        let model = SyntheticModel {
            weights: vec![(10.0, 0.1), (0.1, 10.0)],
        };
        let config = SearchConfig::for_workloads(8, 2);
        let rec = run_search(
            SearchAlgorithm::DynamicProgramming,
            &problem,
            &model,
            config,
        )
        .unwrap();
        assert!(rec.allocation.row(0).cpu().fraction() > 0.6);
        assert!(rec.allocation.row(1).memory().fraction() > 0.6);
        // It beats the equal split.
        let eq_cost: f64 = (0..2)
            .map(|w| {
                model
                    .cost(
                        &problem,
                        w,
                        ResourceVector::from_fractions(0.5, 0.5, 0.5).unwrap(),
                    )
                    .unwrap()
            })
            .sum();
        assert!(rec.total_cost < eq_cost);
    }

    #[test]
    fn slo_weights_skew_the_allocation() {
        let db = dummy_db();
        let mut problem = dummy_problem(&db, 2);
        // Two identical workloads, but workload 1 carries a 5x SLO weight.
        problem.workloads[1].weight = 5.0;
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0), (1.0, 1.0)],
        };
        let config = SearchConfig::for_workloads(8, 2);
        let rec = run_search(
            SearchAlgorithm::DynamicProgramming,
            &problem,
            &model,
            config,
        )
        .unwrap();
        assert!(
            rec.allocation.row(1).cpu() > rec.allocation.row(0).cpu(),
            "the weighted workload should get more CPU: {}",
            rec.allocation
        );
        assert!(rec.allocation.row(1).memory() > rec.allocation.row(0).memory());
        // The objective is the weighted sum, the total the raw sum.
        let raw: f64 = rec.per_workload_costs.iter().sum();
        assert!((rec.total_cost - raw).abs() < 1e-12);
        let weighted = rec.per_workload_costs[0] + 5.0 * rec.per_workload_costs[1];
        assert!((rec.objective - weighted).abs() < 1e-9);
    }

    #[test]
    fn budgeted_solves_stay_inside_the_budget_and_agree() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let model = SyntheticModel {
            weights: vec![(6.0, 0.5), (0.5, 6.0)],
        };
        // Localized sub-solve: only 5 CPU units and 6 memory units are on
        // the table; shares stay fractions of the full 8-unit machine.
        let config = SearchConfig::for_workloads(8, 2).with_budgets(5, 6);
        let mut recs = Vec::new();
        for alg in [
            SearchAlgorithm::Exhaustive,
            SearchAlgorithm::Greedy,
            SearchAlgorithm::DynamicProgramming,
        ] {
            let rec = run_search(alg, &problem, &model, config).unwrap();
            let units = config.units as f64;
            let cpu_units: f64 = (0..2)
                .map(|w| rec.allocation.row(w).cpu().fraction() * units)
                .sum();
            let mem_units: f64 = (0..2)
                .map(|w| rec.allocation.row(w).memory().fraction() * units)
                .sum();
            assert!(
                (cpu_units - 5.0).abs() < 1e-9,
                "{alg:?} spent {cpu_units} cpu units"
            );
            assert!(
                (mem_units - 6.0).abs() < 1e-9,
                "{alg:?} spent {mem_units} mem units"
            );
            recs.push(rec);
        }
        // DP is exact on the restricted space too.
        assert!((recs[0].total_cost - recs[2].total_cost).abs() < 1e-9);
        // The skewed model pulls CPU to workload 0 even inside the budget.
        assert!(recs[2].allocation.row(0).cpu() > recs[2].allocation.row(1).cpu());
        // A full-budget config prices at least as well (superset space).
        let full = run_search(
            SearchAlgorithm::DynamicProgramming,
            &problem,
            &model,
            SearchConfig::for_workloads(8, 2),
        )
        .unwrap();
        assert!(full.total_cost <= recs[2].total_cost + 1e-9);
    }

    #[test]
    fn dp_matches_exhaustive_exactly() {
        let db = dummy_db();
        for n in [2usize, 3] {
            let problem = dummy_problem(&db, n);
            let weights: Vec<(f64, f64)> = (0..n)
                .map(|i| (1.0 + i as f64 * 2.5, 4.0 / (1.0 + i as f64)))
                .collect();
            let model = SyntheticModel { weights };
            let config = SearchConfig::for_workloads(6, n);
            let ex = run_search(SearchAlgorithm::Exhaustive, &problem, &model, config).unwrap();
            let dp = run_search(
                SearchAlgorithm::DynamicProgramming,
                &problem,
                &model,
                config,
            )
            .unwrap();
            assert!(
                (ex.total_cost - dp.total_cost).abs() < 1e-9,
                "n={n}: {} vs {}",
                ex.total_cost,
                dp.total_cost
            );
        }
    }

    #[test]
    fn greedy_never_loses_to_equal_split_and_uses_fewer_evals() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 3);
        let model = SyntheticModel {
            weights: vec![(8.0, 0.5), (0.5, 8.0), (2.0, 2.0)],
        };
        let config = SearchConfig::for_workloads(9, 3);
        let greedy = run_search(SearchAlgorithm::Greedy, &problem, &model, config).unwrap();
        let exhaustive = run_search(SearchAlgorithm::Exhaustive, &problem, &model, config).unwrap();
        let eq = total(&equal_assignment(3, 9), &uncached(&problem, &model, config)).unwrap();
        assert!(greedy.total_cost <= eq + 1e-9);
        assert!(greedy.total_cost >= exhaustive.total_cost - 1e-9);
        assert!(
            greedy.evaluations < exhaustive.evaluations,
            "greedy {} vs exhaustive {}",
            greedy.evaluations,
            exhaustive.evaluations
        );
    }

    #[test]
    fn greedy_reports_the_exact_objective_and_breaks_ties_low() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 3);
        // Workload 0 barely needs anything; 1 and 2 are identical and
        // hungry, so donations from 0 tie between recipients 1 and 2 and
        // the tracked total crosses many magnitudes of delta.
        let model = SyntheticModel {
            weights: vec![(0.1, 0.1), (4.0, 4.0), (4.0, 4.0)],
        };
        let config = SearchConfig::for_workloads(10, 3);
        let rec = run_search(SearchAlgorithm::Greedy, &problem, &model, config).unwrap();
        // Regression (float drift): the reported objective must equal the
        // objective recomputed from scratch, bit for bit — the search
        // tracks totals by re-summing cached cells, never by accumulating
        // per-move deltas.
        let units = config.units as f64;
        let assignment: UnitAssignment = (0..3)
            .map(|w| {
                let row = rec.allocation.row(w);
                (
                    (row.cpu().fraction() * units).round() as u32,
                    (row.memory().fraction() * units).round() as u32,
                )
            })
            .collect();
        let exact = total(&assignment, &uncached(&problem, &model, config)).unwrap();
        assert_eq!(rec.objective.to_bits(), exact.to_bits());
        // Deterministic tie-break: equal-cost moves resolve to the lowest
        // donor, then the lowest recipient, so workload 1 never ends up
        // behind its identical twin 2 — and a re-run reproduces the same
        // result exactly.
        assert!(rec.allocation.row(1).cpu() >= rec.allocation.row(2).cpu());
        assert!(rec.allocation.row(1).memory() >= rec.allocation.row(2).memory());
        let again = run_search(SearchAlgorithm::Greedy, &problem, &model, config).unwrap();
        assert_eq!(rec.objective.to_bits(), again.objective.to_bits());
        assert_eq!(rec.allocation.to_string(), again.allocation.to_string());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The DP kernel against ground truth: on random separable models
        /// under random SLO weights, floors and sub-budgets it finds the
        /// exhaustive optimum to the bit, through `run_search` and when
        /// called directly; a floor that does not fit the budget is a typed
        /// error, not an index out of bounds.
        #[test]
        fn dp_kernel_matches_exhaustive_on_random_separable_models(
            weights in prop::collection::vec((0.05f64..16.0, 0.05f64..16.0), 1..6),
            slo in prop::collection::vec(0.25f64..4.0, 5..6),
            units in 4u32..13,
            min_units in 1u32..3,
            (cpu_cut, mem_cut) in (0u32..3, 0u32..3),
        ) {
            let db = dummy_db();
            let n = weights.len();
            let mut problem = dummy_problem(&db, n);
            for (w, &weight) in problem.workloads.iter_mut().zip(&slo) {
                w.weight = weight;
            }
            let model = SyntheticModel { weights };
            let mut cfg = SearchConfig::for_workloads(units, n)
                .with_budgets(units - cpu_cut, units - mem_cut);
            cfg.min_units = min_units;
            let dp = run_search(SearchAlgorithm::DynamicProgramming, &problem, &model, cfg);
            let by_hand = solve_dp(n, &cfg, uncached(&problem, &model, cfg));

            let floor = min_units * n as u32;
            if floor > cfg.cpu_budget || floor > cfg.mem_budget {
                for result in [dp.map(|_| ()), by_hand.map(|_| ())] {
                    prop_assert!(matches!(result, Err(CoreError::BadProblem { .. })));
                }
                continue;
            }
            let context = format!("n={n} units={units} min={min_units} cfg={cfg:?}");
            let exhaustive = run_search(SearchAlgorithm::Exhaustive, &problem, &model, cfg).unwrap();
            let dp = dp.unwrap();
            assert_eq!(dp.objective.to_bits(), exhaustive.objective.to_bits(), "{context}");
            assert_eq!(dp.evaluations, exhaustive.evaluations, "{context}");
            let solution = by_hand.unwrap();
            assert_eq!(solution.objective.to_bits(), dp.objective.to_bits(), "{context}");
            for (w, &(c, m)) in solution.assignment.iter().enumerate() {
                let row = dp.allocation.row(w);
                let shares = cell_shares(cfg.units, cfg.disk_share, c, m).unwrap();
                assert_eq!(shares.cpu(), row.cpu(), "{context}");
                assert_eq!(shares.memory(), row.memory(), "{context}");
            }
        }
    }

    #[test]
    fn shared_cache_warms_across_searches() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let model = SyntheticModel {
            weights: vec![(3.0, 1.0), (1.0, 3.0)],
        };
        let config = SearchConfig::for_workloads(8, 2);
        let cache = Arc::new(CostCache::new());
        let first = run_search_cached(
            SearchAlgorithm::DynamicProgramming,
            &problem,
            &model,
            config,
            &cache,
        )
        .unwrap();
        assert!(first.evaluations > 0);
        // Re-solving against the warm cache costs zero new evaluations and
        // returns the identical recommendation.
        let second = run_search_cached(
            SearchAlgorithm::DynamicProgramming,
            &problem,
            &model,
            config,
            &cache,
        )
        .unwrap();
        assert_eq!(second.evaluations, 0);
        assert_eq!(first.total_cost.to_bits(), second.total_cost.to_bits());
        // Weights live outside the cache: a differently-weighted problem
        // over the same cells also needs no new evaluations.
        let mut reweighted = dummy_problem(&db, 2);
        reweighted.workloads[0].weight = 7.5;
        let third = run_search_cached(
            SearchAlgorithm::DynamicProgramming,
            &reweighted,
            &model,
            config,
            &cache,
        )
        .unwrap();
        assert_eq!(third.evaluations, 0);
        assert!(
            (third.objective - 7.5 * third.per_workload_costs[0] - third.per_workload_costs[1])
                .abs()
                < 1e-9
        );
    }

    /// Cell `(w, 2, 2)` is a 25 % share at 8 units and 50 % at 4, and every
    /// cell's shares carry the disk share: a cache re-asked under another
    /// discretization must be refused, not serve the other lattice's costs.
    #[test]
    fn a_cache_is_refused_under_another_discretization() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let model = SyntheticModel {
            weights: vec![(3.0, 1.0), (1.0, 3.0)],
        };
        let dp = SearchAlgorithm::DynamicProgramming;
        let at_8 = SearchConfig::for_workloads(8, 2);
        let cache = Arc::new(CostCache::new());
        let first = run_search_cached(dp, &problem, &model, at_8, &cache).unwrap();
        let mut other_disk = at_8;
        other_disk.disk_share = 0.25;
        for cfg in [SearchConfig::for_workloads(4, 2), other_disk] {
            let refused = run_search_cached(dp, &problem, &model, cfg, &cache);
            assert!(
                matches!(refused, Err(CoreError::BadProblem { .. })),
                "{cfg:?}"
            );
            // Asked on a cache of its own, the same config is fine.
            run_search(dp, &problem, &model, cfg).unwrap();
        }
        // The refusals wrote nothing: a sub-budget of the original lattice
        // still answers from the warm cells.
        assert_eq!(cache.evaluations(), first.evaluations);
        let sub = run_search_cached(dp, &problem, &model, at_8.with_budgets(6, 7), &cache);
        assert_eq!(sub.unwrap().evaluations, 0);
    }

    /// Two threads sharing one warm cache across *different problems*
    /// (different weights, different budgets) must produce recommendations
    /// bit-identical to sequential runs over the same shared cache. The
    /// fleet tier leans on exactly this: many concurrent what-if requests
    /// draining one warm `CostCache`. Evaluation *attribution* is the one
    /// quantity that may legitimately shift between interleavings (both
    /// threads can race to fill the same cell), so the pinned contract is:
    /// identical recommendations, and an identical *total* distinct-cell
    /// count in the shared cache.
    #[test]
    fn concurrent_searches_share_one_cache_across_problems_deterministically() {
        let db = dummy_db();
        let model = SyntheticModel {
            weights: vec![(5.0, 0.8), (0.7, 6.0), (2.0, 2.0)],
        };
        // Problem A: plain 3-workload solve. Problem B: same workloads
        // reweighted, solved under a restricted budget (a localized
        // re-solve) — weights live outside the cache, budgets only shrink
        // the cell set, so sharing is sound.
        let problem_a = dummy_problem(&db, 3);
        let mut problem_b = dummy_problem(&db, 3);
        problem_b.workloads[0].weight = 4.0;
        problem_b.workloads[2].weight = 0.25;
        let cfg_a = SearchConfig::for_workloads(9, 3);
        let cfg_b = SearchConfig::for_workloads(9, 3).with_budgets(7, 8);

        // Sequential reference: both problems against one fresh shared cache.
        let seq_cache = Arc::new(CostCache::new());
        let seq_a = run_search_cached(
            SearchAlgorithm::DynamicProgramming,
            &problem_a,
            &model,
            cfg_a,
            &seq_cache,
        )
        .unwrap();
        let seq_b = run_search_cached(
            SearchAlgorithm::DynamicProgramming,
            &problem_b,
            &model,
            cfg_b,
            &seq_cache,
        )
        .unwrap();

        for round in 0..8 {
            let shared = Arc::new(CostCache::new());
            let (par_a, par_b) = std::thread::scope(|scope| {
                let cache_a = Arc::clone(&shared);
                let cache_b = Arc::clone(&shared);
                let (problem_a, problem_b) = (&problem_a, &problem_b);
                let model = &model;
                let ha = scope.spawn(move || {
                    run_search_cached(
                        SearchAlgorithm::DynamicProgramming,
                        problem_a,
                        model,
                        cfg_a,
                        &cache_a,
                    )
                    .unwrap()
                });
                let hb = scope.spawn(move || {
                    run_search_cached(
                        SearchAlgorithm::DynamicProgramming,
                        problem_b,
                        model,
                        cfg_b,
                        &cache_b,
                    )
                    .unwrap()
                });
                (ha.join().unwrap(), hb.join().unwrap())
            });
            for (seq, par, label) in [(&seq_a, &par_a, "A"), (&seq_b, &par_b, "B")] {
                assert_eq!(
                    seq.objective.to_bits(),
                    par.objective.to_bits(),
                    "round {round} {label}"
                );
                assert_eq!(
                    seq.total_cost.to_bits(),
                    par.total_cost.to_bits(),
                    "round {round} {label}"
                );
                assert_eq!(
                    seq.allocation.to_string(),
                    par.allocation.to_string(),
                    "round {round} {label}"
                );
                for (x, y) in seq.per_workload_costs.iter().zip(&par.per_workload_costs) {
                    assert_eq!(x.to_bits(), y.to_bits(), "round {round} {label}");
                }
            }
            // The distinct-cell population of the shared cache is exact
            // under any interleaving.
            assert_eq!(
                shared.evaluations(),
                seq_cache.evaluations(),
                "round {round}"
            );
            // ...and so is every cell, compared over the whole extent.
            let (units, disk_share) = (cfg_a.units, cfg_a.disk_share);
            let rows = |cache: &CostCache| cache.rows(units, disk_share, 0..3).unwrap();
            for (w, (got, want)) in rows(&shared).iter().zip(rows(&seq_cache)).enumerate() {
                for (c, m) in (0..=units).flat_map(|c| (0..=units).map(move |m| (c, m))) {
                    let bits = |row: &CostRow| row.get(c, m).map(f64::to_bits);
                    assert_eq!(bits(got), bits(&want), "round {round} ({w}, {c}, {m})");
                }
            }
        }
    }

    /// A model that fails above half the CPU surfaces its own typed error
    /// — not a panic, not a swallowed error — for the first failing cell
    /// in each algorithm's pricing order, through `run_search` and through
    /// the advisor, whose calibrated model fails off its grid.
    #[test]
    fn a_failing_cell_surfaces_the_models_own_error_from_every_path() {
        struct FailsAboveHalfCpu;
        impl CostModel for FailsAboveHalfCpu {
            fn cost(
                &self,
                _problem: &DesignProblem<'_>,
                w: usize,
                shares: ResourceVector,
            ) -> Result<f64, CoreError> {
                let (cpu, mem) = (shares.cpu().fraction(), shares.memory().fraction());
                if cpu > 0.5 {
                    return Err(CoreError::BadProblem {
                        reason: format!("w{w} at cpu {cpu} mem {mem}"),
                    });
                }
                Ok(1.0 / cpu + 1.0 / mem)
            }
        }
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let config = SearchConfig::for_workloads(4, 2);
        let machine = dbvirt_vmm::MachineSpec::paper_testbed();
        let grid = dbvirt_calibrate::CalibrationGrid::calibrate(
            machine,
            vec![0.25, 0.5],
            vec![0.25, 0.5, 0.75],
            config.disk_share,
        )
        .unwrap();
        let advisor = crate::VirtualizationAdvisor {
            machine,
            grid,
            config,
        };
        let calibrated = crate::CalibratedCostModel::new(advisor.grid());
        for (algorithm, (w, c, m)) in [
            // The DP prices its tables in (workload, cpu, mem) order.
            (SearchAlgorithm::DynamicProgramming, (0, 3, 1)),
            // Exhaustive's first candidate is (1, 1), (3, 3).
            (SearchAlgorithm::Exhaustive, (1, 3, 3)),
            // Greedy's equal split prices; its first move gives w1 a CPU unit.
            (SearchAlgorithm::Greedy, (1, 3, 2)),
        ] {
            let shares = cell_shares(config.units, config.disk_share, c, m).unwrap();
            let own = FailsAboveHalfCpu.cost(&problem, w, shares).unwrap_err();
            let got = run_search(algorithm, &problem, &FailsAboveHalfCpu, config).unwrap_err();
            assert_eq!(got, own, "{algorithm:?}");
            let off_grid = calibrated.cost(&problem, w, shares).unwrap_err();
            assert!(matches!(off_grid, CoreError::Calibration(_)), "{off_grid}");
            let refused = advisor.recommend(&problem, algorithm).unwrap_err();
            assert_eq!(refused, off_grid, "{algorithm:?}");
        }
    }
}
