//! The fleet advisor: a shared-warm-table placement service.
//!
//! One [`FleetAdvisor`] is bound to a machine fleet (and one cost model
//! per machine class) and serves placement requests over it. Each request
//! runs the solver ladder:
//!
//! 1. **Pre-warm** — every `(class, VM, cell)` what-if cost the exact
//!    solves can touch is evaluated into the advisor's cost tables — one
//!    [`CostCache`] per machine class, row = the VM's global index —
//!    across [`FleetConfig::parallelism`] worker threads. This is the
//!    *only* parallel stage; everything after it reads those write-once
//!    cells through row handles the request resolved up front, which is
//!    why placements are bit-identical at every parallelism setting.
//! 2. **Greedy seed** ([`crate::greedy`]) — demand-sorted best-fit
//!    bin-packing by marginal modeled cost.
//! 3. **Local search** ([`crate::local_search`]) — move/swap descent,
//!    re-solving touched machines exactly.
//! 4. **LP bound** ([`crate::lp`]) — Lagrangian lower bound, reported as
//!    an optimality gap on the answer.
//!
//! The tables persist across requests: a second placement over the same
//! VM universe (different weights, drift, a deployed placement to price
//! against) answers almost entirely from warm cells. Concurrent requests
//! may share the advisor — cells are write-once, their values pure, and
//! each request reads only cells it pre-warmed itself, so concurrent
//! requests return exactly what they would have returned alone.
//! Sharing is sound only while VM *indices* keep meaning the same
//! `(database, queries)` across requests (weights may vary), mirroring the
//! single-machine cache contract.

use crate::config::MIGRATION_HORIZON_RUNS;
use crate::placement::build;
use crate::solver::{cell_problem, evaluate_cell, FleetSolver};
use crate::{
    greedy, local_search, lp, CurrentPlacement, FleetConfig, FleetError, FleetProblem,
    LocalSearchStats, LpBound, LpScan, MachineClasses, Placement, RebalanceDelta,
};
use dbvirt_core::search::{CostCache, CostRow};
use dbvirt_core::CostModel;
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::kernel::{claim_and_reduce, workers_for, Fnv1a, PoolError};
use dbvirt_vmm::MachineSpec;
use std::sync::Arc;

/// Placement requests served.
static TM_REQUESTS: telemetry::Counter = telemetry::Counter::new("fleet.requests");
/// What-if cells evaluated by pre-warm sweeps.
static TM_PREWARM_CELLS: telemetry::Counter = telemetry::Counter::new("fleet.prewarm_cells");
/// Distinct per-machine DP solves run.
static TM_SOLVES: telemetry::Counter = telemetry::Counter::new("fleet.solves");
/// Per-machine solves answered from the subset memo.
static TM_MEMO_HITS: telemetry::Counter = telemetry::Counter::new("fleet.solve_memo_hits");
/// Local-search moves applied.
static TM_MOVES: telemetry::Counter = telemetry::Counter::new("fleet.moves_applied");
/// Local-search swaps applied.
static TM_SWAPS: telemetry::Counter = telemetry::Counter::new("fleet.swaps_applied");
/// Optimality gap of the most recent placement.
static TM_GAP: telemetry::Gauge = telemetry::Gauge::new("fleet.optimality_gap");

/// Everything one placement request produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The recommended placement (after local search).
    pub placement: Placement,
    /// The greedy seed it improved on.
    pub greedy_placement: Placement,
    /// What local search did.
    pub local_search: LocalSearchStats,
    /// The LP lower bound.
    pub lp: LpBound,
    /// How much of the dense cell grid the bound's scan kept.
    pub lp_scan: LpScan,
    /// `(steady − bound) / steady`: how far the answer can be from the
    /// true optimum, certified by the LP bound.
    pub optimality_gap: f64,
    /// Priced against the deployed placement, when the request carried
    /// one.
    pub rebalance: Option<RebalanceDelta>,
    /// Cells this request's pre-warm sweep had to evaluate (0 when the
    /// cache was already warm).
    pub prewarm_cells: usize,
    /// Distinct per-machine DP solves this request ran, value-table builds
    /// for the local search's screen included.
    pub solves: usize,
    /// Solves answered from the subset memo.
    pub memo_hits: usize,
}

impl FleetReport {
    /// FNV-1a fingerprint over the full report: final and greedy
    /// placements (assignments, units, bit-exact objectives), the LP
    /// bound, and the gap. Cache warmth and solve counts are deliberately
    /// excluded — they vary with request order, the answer must not.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.placement.fingerprint());
        h.u64(self.greedy_placement.fingerprint());
        h.f64(self.lp.bound);
        h.f64(self.optimality_gap);
        h.finish()
    }
}

/// A placement service over one fixed machine fleet. See the module docs
/// for the request pipeline and the cache-sharing contract.
pub struct FleetAdvisor<'m> {
    machines: Vec<MachineSpec>,
    classes: MachineClasses,
    models: Vec<&'m dyn CostModel>,
    /// One warm cost table per machine class, shared by every request;
    /// the row is the VM's **global index**. A cell's cost depends only on
    /// the VM's workload, the machine class and the shares — never on its
    /// co-residents or on which machine of the class hosts it (the disk
    /// share is a fixed per-VM policy, see [`FleetConfig::disk_share`]) —
    /// so one row serves every machine subset the VM is ever priced in.
    /// Rows hold unweighted costs: the SLO weight is the request's, not
    /// the VM's, and is applied at read.
    caches: Vec<CostCache>,
    config: FleetConfig,
}

impl<'m> FleetAdvisor<'m> {
    /// Binds an advisor to `machines`, with one cost model per machine
    /// *class* (machines grouped by exact spec equality, in
    /// first-appearance order — see [`MachineClasses::of`]).
    pub fn new(
        machines: Vec<MachineSpec>,
        class_models: Vec<&'m dyn CostModel>,
        config: FleetConfig,
    ) -> Result<FleetAdvisor<'m>, FleetError> {
        if machines.is_empty() {
            return Err(FleetError::BadFleet {
                reason: "an advisor needs at least one machine".to_string(),
            });
        }
        for (m, spec) in machines.iter().enumerate() {
            spec.validate().map_err(|e| FleetError::BadFleet {
                reason: format!("machine {m}: {e}"),
            })?;
        }
        config.validate()?;
        let classes = MachineClasses::of(&machines);
        if class_models.len() != classes.num_classes() {
            return Err(FleetError::BadFleet {
                reason: format!(
                    "{} cost models for {} machine classes",
                    class_models.len(),
                    classes.num_classes()
                ),
            });
        }
        let caches = class_models.iter().map(|_| CostCache::new()).collect();
        Ok(FleetAdvisor {
            machines,
            classes,
            models: class_models,
            caches,
            config,
        })
    }

    /// The machine classes this advisor grouped its fleet into.
    pub fn classes(&self) -> &MachineClasses {
        &self.classes
    }

    /// The advisor's configuration.
    pub fn config(&self) -> FleetConfig {
        self.config
    }

    /// Distinct what-if cells in the shared tables.
    pub fn cache_evaluations(&self) -> usize {
        self.caches.iter().map(CostCache::evaluations).sum()
    }

    /// The warm-rectangle ceiling for a request of `n` VMs: with forced
    /// minimum occupancy `k` on every machine, no VM can ever hold more
    /// than `units − (k−1)·min_units` of either resource.
    fn rect_hi(&self, n: usize) -> u32 {
        let m = self.machines.len();
        let cap = self.config.max_vms_per_machine;
        let min_occ = (n as i64 - (m as i64 - 1) * cap as i64).max(1) as u32;
        self.config.units - (min_occ - 1) * self.config.min_units
    }

    /// Serves one placement request. See the module docs for the
    /// pipeline; see [`FleetReport`] for what comes back.
    pub fn place(&self, problem: &FleetProblem<'_>) -> Result<FleetReport, FleetError> {
        let mut span = telemetry::span("fleet.place");
        TM_REQUESTS.add(1);
        if problem.machines != self.machines {
            return Err(FleetError::BadFleet {
                reason: "request's machine fleet differs from the advisor's".to_string(),
            });
        }
        let n = problem.num_vms();
        let m_count = problem.num_machines();
        let cap = self.config.max_vms_per_machine;
        if n > m_count * cap {
            return Err(FleetError::Infeasible {
                reason: format!("{n} VMs exceed {m_count} machines x {cap} VM cap"),
            });
        }
        if let Some(current) = &problem.current {
            for (i, &(c, mu)) in current.units_of.iter().enumerate() {
                let ok = |u: u32| u >= self.config.min_units && u <= self.config.units;
                if !ok(c) || !ok(mu) {
                    return Err(FleetError::BadFleet {
                        reason: format!(
                            "current units ({c}, {mu}) of VM {i} outside [{}, {}]",
                            self.config.min_units, self.config.units
                        ),
                    });
                }
            }
        }
        span.set_attr("vms", n);
        span.set_attr("machines", m_count);

        let rect_hi = self.rect_hi(n);
        // The request's handles on its VMs' rows, resolved once: every
        // cell read or written below takes no lock.
        let rows = (self.caches.iter())
            .map(|cache| cache.rows(self.config.units, self.config.disk_share, 0..n))
            .collect::<Result<Vec<_>, _>>()?;
        let prewarm_cells = self.prewarm(problem, rect_hi, &rows)?;
        TM_PREWARM_CELLS.add(prewarm_cells as u64);

        let solver = FleetSolver::new(
            problem,
            &self.classes,
            &self.models,
            self.config,
            rect_hi,
            &rows,
        );

        // Churn is priced against the deployed placement when the request
        // carries one. A fresh placement migrates nothing — nothing is
        // deployed yet — so no reference means migration is free, and the
        // ladder optimizes pure steady-state cost.
        let reference = problem.current.as_ref();
        let greedy_placement = {
            let mut greedy_span = telemetry::span_with_parent("fleet.greedy", span.id());
            let seed = greedy::seed(&solver, rect_hi, reference)?;
            let greedy_placement = build(&solver, reference, &seed)?;
            greedy_span.set_attr("objective", greedy_placement.total_objective);
            greedy_placement
        };

        let (placement, stats) = {
            let mut ls_span = telemetry::span_with_parent("fleet.local_search", span.id());
            let (placement, stats) =
                local_search::improve(&solver, reference, greedy_placement.clone())?;
            ls_span.set_attr("rounds", stats.rounds);
            ls_span.set_attr("candidates", stats.candidates_evaluated);
            ls_span.set_attr("priced", stats.candidates_priced);
            (placement, stats)
        };
        TM_MOVES.add(stats.moves_applied as u64);
        TM_SWAPS.add(stats.swaps_applied as u64);

        // A bound certifies only a finite answer: a NaN objective would
        // ascend against a NaN incumbent and report a 0 gap.
        let objectives = &placement.per_machine_objective;
        if let Some(machine) = objectives.iter().position(|o| !o.is_finite()) {
            let objective = objectives[machine];
            return Err(FleetError::NonFiniteSolve { machine, objective });
        }
        let (lp, lp_scan) = {
            let mut lp_span = telemetry::span_with_parent("fleet.lp", span.id());
            let (lp, scan) = lp::lower_bound(&solver, rect_hi, placement.steady_objective)?;
            lp_span.set_attr("bound", lp.bound);
            lp_span.set_attr("iterations", lp.iterations);
            lp_span.set_attr("cells", scan.cells);
            lp_span.set_attr("candidates", scan.candidates);
            (lp, scan)
        };
        let optimality_gap = if placement.steady_objective > 0.0 {
            ((placement.steady_objective - lp.bound) / placement.steady_objective).max(0.0)
        } else {
            0.0
        };
        TM_GAP.set(optimality_gap);

        let rebalance = match &problem.current {
            Some(current) => Some(self.price_rebalance(&solver, current, &placement)?),
            None => None,
        };

        TM_SOLVES.add(solver.solves() as u64);
        TM_MEMO_HITS.add(solver.memo_hits() as u64);
        span.set_attr("objective", placement.total_objective);
        span.set_attr("gap", optimality_gap);
        Ok(FleetReport {
            placement,
            greedy_placement,
            local_search: stats,
            lp,
            lp_scan,
            optimality_gap,
            rebalance,
            prewarm_cells,
            solves: solver.solves(),
            memo_hits: solver.memo_hits(),
        })
    }

    /// Evaluates every cell of the warm rectangle
    /// (`min_units ..= rect_hi` squared, per class and VM) that the tables
    /// do not hold yet, across the configured worker threads. Values are
    /// pure in `(class, vm, cell)`, so write order — and hence worker
    /// count — cannot change any later read.
    fn prewarm(
        &self,
        problem: &FleetProblem<'_>,
        rect_hi: u32,
        rows: &[Vec<Arc<CostRow>>],
    ) -> Result<usize, FleetError> {
        let mut span = telemetry::span("fleet.prewarm");
        let before = self.cache_evaluations();
        let lo = self.config.min_units;
        // One task per (class, VM), class-major.
        let (n_vms, n_tasks) = (
            problem.num_vms(),
            self.classes.num_classes() * problem.num_vms(),
        );
        let workers = workers_for(self.config.parallelism, n_tasks);
        span.set_attr("workers", workers);

        let warm_task = |_: &mut (), at: usize| -> Result<(), FleetError> {
            let (class, vm) = (at / n_vms, at % n_vms);
            let row = &rows[class][vm];
            // One problem per task, built when its first cold cell turns up.
            let mut dp = None;
            for c in lo..=rect_hi {
                for mu in lo..=rect_hi {
                    if row.get(c, mu).is_none() {
                        let dp = match &dp {
                            Some(dp) => dp,
                            None => dp.insert(cell_problem(&self.classes, problem, class, vm)?),
                        };
                        let cost = evaluate_cell(self.models[class], dp, self.config, c, mu)?;
                        row.insert(c, mu, cost);
                    }
                }
            }
            Ok(())
        };
        claim_and_reduce(n_tasks, workers, "fleet.prewarm_worker", || (), warm_task)
            .map_err(PoolError::into_task)?;
        let cells = self.cache_evaluations() - before;
        span.set_attr("cells", cells);
        Ok(cells)
    }

    /// Prices the recommendation against the deployed placement.
    fn price_rebalance(
        &self,
        solver: &FleetSolver<'_, '_>,
        current: &CurrentPlacement,
        placement: &Placement,
    ) -> Result<RebalanceDelta, FleetError> {
        let mut steady_before = 0.0;
        for (i, &m) in current.machine_of.iter().enumerate() {
            let class = self.classes.class_of[m];
            let (c, mu) = current.units_of[i];
            steady_before += solver.weight(i) * solver.cell_cost(class, i, c, mu)?;
        }
        Ok(RebalanceDelta {
            steady_before,
            steady_after: placement.steady_objective,
            migration_seconds: placement.migration_seconds,
            horizon_runs: MIGRATION_HORIZON_RUNS,
        })
    }
}
