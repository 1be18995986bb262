//! The joint physical-design advisor: alternating index selection and
//! resource allocation.
//!
//! The joint problem: choose per-VM secondary-index sets `S_i` (under a
//! per-VM storage budget) *and* per-VM resource shares `R_i` (under the
//! machine's capacity) minimizing `Σ_i w_i · Cost(W_i, R_i, S_i)`, where
//! `Cost` is the config-priced what-if estimate of [`crate::pricing`].
//! An index trades I/O for memory, so the two decisions genuinely
//! interact: building an index shifts which allocation is optimal, and a
//! different allocation changes which indexes pay for themselves.
//!
//! The co-optimizer alternates exact coordinate steps:
//!
//! 1. **shares | indexes** — with `S` fixed, the allocation DP kernel
//!    ([`solve_dp`], the one the core search and the fleet tier call)
//!    finds the exact best cell assignment, reading weighted workload
//!    costs straight off the pricer's table;
//! 2. **indexes | shares** — with `R` fixed, greedy selection re-picks
//!    each VM's index set, accepted only if it beats keeping the previous
//!    set at the new cell.
//!
//! **Monotonicity (proved):** step 1 minimizes the objective over
//! allocations with `S` fixed and the previous allocation in its search
//! space, so it cannot increase the objective; step 2 takes
//! `min(greedy result, previous set)` per VM at the fixed cell, so it
//! cannot either. The objective is therefore non-increasing across
//! alternations, and since `(cells, masks)` live in a finite set the loop
//! reaches a fixpoint (detected by state equality) or the iteration cap.
//!
//! **Determinism:** every decision is a pure function of the memoized
//! `(query, config, cell)` price table. The whole decision sequence is
//! folded into an FNV-1a fingerprint; separate processes must produce
//! identical fingerprints.

use crate::candidates::{enumerate_candidates, CandidateSet, IndexCandidate};
use crate::lp::{lower_bound, LpBound};
use crate::pricing::{DesignPricer, VmPricer};
use crate::select::{select_greedy, SelectionTrace};
use crate::DesignError;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::search::{cell_shares, equal_units, solve_dp, SearchConfig};
use dbvirt_core::DesignProblem;
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::kernel::Fnv1a;
use dbvirt_vmm::{AllocationMatrix, ResourceVector};

/// Candidates enumerated across all VMs of the latest advise call.
static TM_CANDIDATES: telemetry::Counter = telemetry::Counter::new("design.candidates");
/// Candidates dropped by the enumeration cap.
static TM_PRUNED: telemetry::Counter = telemetry::Counter::new("design.pruned");
/// Alternation iterations run.
static TM_ALTERNATIONS: telemetry::Counter = telemetry::Counter::new("design.alternations");

/// Minimum units of each resource per VM.
const MIN_UNITS: u32 = 1;
/// Cap on enumerated candidates per VM (≤ 64: index sets are bitmasks).
const MAX_CANDIDATES: usize = 24;
const _: () = assert!(MAX_CANDIDATES <= 64);
/// Cap on alternation iterations.
const MAX_ALTERNATIONS: usize = 6;
/// Subgradient iterations for the LP bound.
const LP_ITERATIONS: usize = 300;

/// Configuration for the design advisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConfig {
    /// Share discretization (same meaning as the allocation search).
    pub units: u32,
    /// Fixed per-VM disk share.
    pub disk_share: f64,
    /// Per-VM index storage budget, in pages.
    pub budget_pages: u64,
}

impl DesignConfig {
    /// Defaults for `n` VMs sharing a machine at `units` share steps.
    pub fn new(units: u32, n: usize) -> DesignConfig {
        DesignConfig {
            units,
            disk_share: 1.0 / n as f64,
            budget_pages: 512,
        }
    }

    /// Sets the per-VM page budget.
    pub fn with_budget(mut self, pages: u64) -> DesignConfig {
        self.budget_pages = pages;
        self
    }

    fn validate(&self, n: usize) -> Result<(), DesignError> {
        if self.units == 0 {
            return Err(DesignError::BadConfig {
                reason: "units must be positive".to_string(),
            });
        }
        if MIN_UNITS as usize * n > self.units as usize {
            return Err(DesignError::BadConfig {
                reason: format!(
                    "{n} VMs x {MIN_UNITS} min units exceed {} units",
                    self.units
                ),
            });
        }
        Ok(())
    }
}

/// What the co-optimizer optimizes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Alternate both coordinates to a fixpoint.
    Joint,
    /// Indexes only, allocation pinned at the equal split.
    IndexOnly,
    /// Allocation only, no indexes.
    AllocationOnly,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Joint => "joint",
            Mode::IndexOnly => "index-only",
            Mode::AllocationOnly => "allocation-only",
        }
    }
}

/// One VM's recommended physical design.
#[derive(Debug, Clone)]
pub struct VmDesign {
    /// Workload name.
    pub name: String,
    /// The indexes to build, in candidate order.
    pub chosen: Vec<IndexCandidate>,
    /// The chosen set as a candidate bitmask.
    pub mask: u64,
    /// Pages the chosen set consumes.
    pub pages_used: u64,
    /// Candidates enumerated for this VM.
    pub num_candidates: usize,
    /// Candidates dropped by the enumeration cap.
    pub pruned: usize,
    /// Unweighted config-priced workload cost at the final design.
    pub cost: f64,
    /// LP lower bound on this VM's selection problem at its final cell.
    pub lp: LpBound,
}

/// The joint recommendation.
#[derive(Debug, Clone)]
pub struct JointRecommendation {
    /// Recommended resource shares.
    pub allocation: AllocationMatrix,
    /// The same allocation as integer `(cpu, mem)` unit cells.
    pub cells: Vec<(u32, u32)>,
    /// Per-VM index designs.
    pub per_vm: Vec<VmDesign>,
    /// The weighted objective `Σ_i w_i · cost_i`.
    pub objective: f64,
    /// Objective after each alternation (index 0 = the starting state);
    /// non-increasing by construction.
    pub alternation_objectives: Vec<f64>,
    /// Alternations executed.
    pub alternations: usize,
    /// Weighted sum of the per-VM LP bounds: a lower bound on the
    /// config-priced objective of every feasible index selection at the
    /// recommended allocation.
    pub lp_bound: f64,
    /// `(objective − lp_bound) / objective` (0 when the objective is 0).
    pub optimality_gap: f64,
    /// Distinct what-if prices computed.
    pub evaluations: usize,
    /// FNV-1a fingerprint of the full decision trace. Separate processes
    /// must agree bit-for-bit.
    pub fingerprint: u64,
    /// Which optimizer produced this (`joint`, `index-only`,
    /// `allocation-only`).
    pub mode: &'static str,
}

/// The physical-design advisor: joint index + allocation recommendation
/// over a calibrated machine.
pub struct DesignAdvisor<'g> {
    grid: &'g CalibrationGrid,
    config: DesignConfig,
}

impl<'g> DesignAdvisor<'g> {
    /// An advisor over a calibration grid for the problem's machine.
    pub fn new(grid: &'g CalibrationGrid, config: DesignConfig) -> DesignAdvisor<'g> {
        DesignAdvisor { grid, config }
    }

    /// Joint co-optimization: alternate allocation and index steps to a
    /// fixpoint.
    pub fn advise(&self, problem: &DesignProblem<'_>) -> Result<JointRecommendation, DesignError> {
        self.run(problem, Mode::Joint)
    }

    /// Index selection only, with the allocation pinned at the equal
    /// split — the classical index-advisor baseline.
    pub fn advise_index_only(
        &self,
        problem: &DesignProblem<'_>,
    ) -> Result<JointRecommendation, DesignError> {
        self.run(problem, Mode::IndexOnly)
    }

    /// Resource allocation only, with no indexes — the paper's original
    /// design problem.
    pub fn advise_allocation_only(
        &self,
        problem: &DesignProblem<'_>,
    ) -> Result<JointRecommendation, DesignError> {
        self.run(problem, Mode::AllocationOnly)
    }

    fn run(
        &self,
        problem: &DesignProblem<'_>,
        mode: Mode,
    ) -> Result<JointRecommendation, DesignError> {
        let n = problem.num_workloads();
        let cfg = self.config;
        cfg.validate(n)?;
        let mut root = telemetry::span("design.advise");
        root.set_attr("mode", mode.name());
        root.set_attr("vms", n);
        let mut fp = Fnv1a::new();
        fp.u64(cfg.units as u64);
        fp.u64(cfg.budget_pages);
        fp.u64(n as u64);

        let pricer = DesignPricer::new(self.grid, cfg.units, cfg.disk_share);

        // 1. Enumerate candidates per VM (empty in allocation-only mode:
        //    the budget is zero, nothing could ever be chosen).
        let mut cand_sets = Vec::with_capacity(n);
        {
            let mut span = telemetry::span("design.enumerate");
            for w in &problem.workloads {
                let cap = match mode {
                    Mode::AllocationOnly => 1, // keep menus trivial
                    _ => MAX_CANDIDATES,
                };
                let mut cands = enumerate_candidates(w.db, &w.queries, cap);
                if mode == Mode::AllocationOnly {
                    cands.candidates.clear();
                    for rel in &mut cands.relevant {
                        rel.clear();
                    }
                }
                TM_CANDIDATES.add(cands.len() as u64);
                TM_PRUNED.add(cands.pruned as u64);
                for c in &cands.candidates {
                    fp.u64(c.table.0 as u64);
                    for &col in &c.columns {
                        fp.u64(col as u64);
                    }
                    fp.u64(c.pages);
                }
                cand_sets.push(cands);
            }
            span.set_attr(
                "candidates",
                cand_sets.iter().map(CandidateSet::len).sum::<usize>(),
            );
        }

        // 2. Offer each workload's one analysis (the problem's, shared by
        //    every advise run over it) every config once; each price is
        //    computed from its analysis on its first read.
        let vms = {
            let _span = telemetry::span("design.whatif");
            (problem.workloads.iter().zip(cand_sets))
                .map(|(w, cands)| VmPricer::new(&pricer, w, cands))
                .collect::<Result<Vec<_>, _>>()?
        };
        let budget = match mode {
            Mode::AllocationOnly => 0,
            _ => cfg.budget_pages,
        };

        // 3. Alternate coordinate steps from the equal split, no indexes.
        let mut cells: Vec<(u32, u32)> = equal_units(n, cfg.units)
            .into_iter()
            .map(|u| (u, u))
            .collect();
        let mut masks = vec![0u64; n];
        let mut traces: Vec<Option<SelectionTrace>> = vec![None; n];
        let mut objective = self.objective(problem, &pricer, &vms, &masks, &cells)?;
        let mut history = vec![objective];
        let mut alternations = 0usize;

        for iter in 0..MAX_ALTERNATIONS {
            let mut span = telemetry::span("design.alternate");
            span.set_attr("iteration", iter);
            TM_ALTERNATIONS.add(1);
            let prev_state = (cells.clone(), masks.clone());

            // Shares given indexes: exact DP over the price table.
            if mode != Mode::IndexOnly {
                let scfg = SearchConfig {
                    units: cfg.units,
                    disk_share: cfg.disk_share,
                    min_units: MIN_UNITS,
                    cpu_budget: cfg.units,
                    mem_budget: cfg.units,
                };
                let weighted = |w: usize, c, m| -> Result<f64, DesignError> {
                    let cost = pricer.workload_cost(&vms[w], masks[w], c, m)?;
                    Ok(cost * problem.workloads[w].weight)
                };
                cells = solve_dp(n, &scfg, weighted)?.assignment;
            }

            // Indexes given shares: greedy per VM, accepted only if it
            // beats keeping the previous set at the new cell.
            if mode != Mode::AllocationOnly {
                for (i, vm) in vms.iter().enumerate() {
                    let (c, m) = cells[i];
                    let trace = select_greedy(&pricer, vm, budget, c, m)?;
                    let keep = pricer.workload_cost(vm, masks[i], c, m)?;
                    if trace.objective < keep {
                        for d in &trace.decisions {
                            fp.u64(i as u64);
                            fp.u64(d.candidate as u64);
                            fp.f64(d.gain);
                            fp.u64(d.pages_after);
                        }
                        masks[i] = trace.mask;
                        traces[i] = Some(trace);
                    }
                }
            }

            let new_objective = self.objective(problem, &pricer, &vms, &masks, &cells)?;
            debug_assert!(
                new_objective <= objective + objective.abs() * 1e-12,
                "alternation {iter} worsened the objective: {objective} -> {new_objective}"
            );
            objective = new_objective;
            history.push(objective);
            alternations = iter + 1;
            for (i, &(c, m)) in cells.iter().enumerate() {
                fp.u64(c as u64);
                fp.u64(m as u64);
                fp.u64(masks[i]);
            }
            fp.f64(objective);

            let fixpoint = (cells.clone(), masks.clone()) == prev_state;
            if fixpoint || mode != Mode::Joint {
                break;
            }
        }

        // 4. LP bound per VM at the final cells; weighted aggregate gap.
        let mut per_vm = Vec::with_capacity(n);
        let mut lp_total = 0.0f64;
        for (i, vm) in vms.iter().enumerate() {
            let (c, m) = cells[i];
            let nq = vm.workload.queries.len();
            let mut costs = Vec::with_capacity(nq);
            for q in 0..nq {
                let mut qcosts = Vec::with_capacity(vm.menus[q].configs.len());
                for k in 0..vm.menus[q].configs.len() {
                    qcosts.push(pricer.price(vm, q, k, c, m)?);
                }
                costs.push(qcosts);
            }
            let members: Vec<Vec<Vec<usize>>> =
                vm.menus.iter().map(|menu| menu.configs.clone()).collect();
            let sizes: Vec<u64> = vm.cands.candidates.iter().map(|cand| cand.pages).collect();
            let cost = pricer.workload_cost(vm, masks[i], c, m)?;
            let lp = lower_bound(&costs, &members, &sizes, budget, cost, LP_ITERATIONS);
            lp_total += problem.workloads[i].weight * lp.bound;
            fp.f64(lp.bound);
            let chosen: Vec<IndexCandidate> = vm
                .cands
                .candidates
                .iter()
                .enumerate()
                .filter(|(idx, _)| masks[i] & (1 << idx) != 0)
                .map(|(_, cand)| cand.clone())
                .collect();
            let pages_used = chosen.iter().map(|cand| cand.pages).sum();
            per_vm.push(VmDesign {
                name: problem.workloads[i].name.clone(),
                chosen,
                mask: masks[i],
                pages_used,
                num_candidates: vm.cands.len(),
                pruned: vm.cands.pruned,
                cost,
                lp,
            });
        }
        let optimality_gap = if objective > 0.0 {
            (objective - lp_total) / objective
        } else {
            0.0
        };
        fp.f64(objective);
        fp.f64(optimality_gap);

        let rows: Vec<ResourceVector> = cells
            .iter()
            .map(|&(c, m)| cell_shares(cfg.units, cfg.disk_share, c, m))
            .collect::<Result<_, _>>()?;
        let allocation = AllocationMatrix::new(rows).map_err(|e| DesignError::BadConfig {
            reason: format!("allocation rows: {e}"),
        })?;
        root.set_attr("objective_ms", (objective * 1e3) as usize);
        root.set_attr("evaluations", pricer.evaluations());
        Ok(JointRecommendation {
            allocation,
            cells,
            per_vm,
            objective,
            alternation_objectives: history,
            alternations,
            lp_bound: lp_total,
            optimality_gap,
            evaluations: pricer.evaluations(),
            fingerprint: fp.finish(),
            mode: mode.name(),
        })
    }

    /// The weighted objective at a `(masks, cells)` state, summed in VM
    /// order (bit-exact across runs).
    fn objective(
        &self,
        problem: &DesignProblem<'_>,
        pricer: &DesignPricer<'_>,
        vms: &[VmPricer<'_>],
        masks: &[u64],
        cells: &[(u32, u32)],
    ) -> Result<f64, DesignError> {
        let mut total = 0.0;
        for (i, vm) in vms.iter().enumerate() {
            let (c, m) = cells[i];
            total += problem.workloads[i].weight * pricer.workload_cost(vm, masks[i], c, m)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{small_grid, small_machine};
    use dbvirt_core::WorkloadSpec;
    use dbvirt_engine::{Database, Expr};
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    fn table(db: &mut Database) -> dbvirt_engine::TableId {
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
        t
    }

    #[test]
    fn joint_advice_end_to_end() {
        // VM 1: selective point queries — index-friendly. VM 2: scans of
        // nearly the whole table — indexes are useless, CPU is what it
        // needs.
        let mut db1 = Database::new();
        let t1 = table(&mut db1);
        let point = |k: i64| LogicalPlan::scan_filtered(t1, Expr::eq(Expr::col(0), Expr::int(k)));
        let q1 = vec![point(7), point(4242), point(19_000)];
        let mut db2 = Database::new();
        let t2 = table(&mut db2);
        let q2 = vec![
            LogicalPlan::scan_filtered(t2, Expr::lt(Expr::col(0), Expr::int(19_900))),
            LogicalPlan::scan_filtered(t2, Expr::gt(Expr::col(0), Expr::int(100))),
        ];
        let problem = dbvirt_core::DesignProblem::new(
            small_machine(),
            vec![
                WorkloadSpec::new("points".to_string(), &db1, q1),
                WorkloadSpec::new("scans".to_string(), &db2, q2),
            ],
        )
        .unwrap();
        let grid = small_grid();
        let cfg = DesignConfig::new(4, 2).with_budget(1024);
        let advisor = DesignAdvisor::new(&grid, cfg);

        let joint = advisor.advise(&problem).unwrap();
        let index_only = advisor.advise_index_only(&problem).unwrap();
        let alloc_only = advisor.advise_allocation_only(&problem).unwrap();

        // Joint can never lose to either marginal: each marginal's final
        // state is reachable by the joint loop.
        assert!(
            joint.objective <= index_only.objective + 1e-12,
            "joint {} vs index-only {}",
            joint.objective,
            index_only.objective
        );
        assert!(
            joint.objective <= alloc_only.objective + 1e-12,
            "joint {} vs allocation-only {}",
            joint.objective,
            alloc_only.objective
        );

        // The alternation history is monotone non-increasing.
        for w in joint.alternation_objectives.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "objective rose: {} -> {}", w[0], w[1]);
        }

        // Budgets hold, the LP bound is below the incumbent, the gap is
        // a sane fraction.
        for d in &joint.per_vm {
            assert!(d.pages_used <= cfg.budget_pages);
            assert!(d.lp.bound <= d.cost + 1e-9, "{} > {}", d.lp.bound, d.cost);
        }
        assert!(joint.lp_bound <= joint.objective + 1e-9);
        assert!(joint.optimality_gap >= -1e-9);
        assert!(joint.allocation.num_workloads() == 2);
        assert_eq!(joint.mode, "joint");
        assert_eq!(alloc_only.per_vm.iter().map(|d| d.mask).sum::<u64>(), 0);
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let grid_err = |cfg: DesignConfig, n: usize| cfg.validate(n).is_err();
        assert!(!grid_err(DesignConfig::new(4, 2), 2));
        assert!(
            grid_err(DesignConfig::new(4, 5), 5),
            "5 VMs x 1 min unit > 4 units"
        );
        assert!(grid_err(DesignConfig::new(0, 2), 2));
    }
}
