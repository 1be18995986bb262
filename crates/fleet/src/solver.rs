//! Per-machine what-if solves over the request's rows of the cost tables.
//!
//! Every placement candidate is priced by *re-solving* the machines it
//! touches: the residents' rows of their machine class's cost table
//! (resolved once per request, so a cell is an array read — no lock, no
//! hash), times their SLO weights, go straight into `dbvirt-core`'s DP
//! kernel ([`solve_dp`]), which chooses the residents' shares — the same
//! code, candidate order and tie-breaks as a single-machine
//! `run_search(DynamicProgramming)`, without building a problem, a cache
//! or a span per candidate. Solves are memoized by
//! `(machine class, VM subset)` — two machines of the same class hosting
//! the same VMs have identical optimal share splits — and handed out
//! shared, not cloned. So are the subsets' [`ValueTable`]s, which price a
//! subset grown by any one VM with a single min-plus step (the local
//! search's screen).

use crate::{FleetConfig, FleetError, FleetProblem, MachineClasses};
use dbvirt_core::search::{
    cell_shares, solve_dp, value_table, CostRow, DpSolution, SearchConfig, ValueTable,
};
use dbvirt_core::{CostModel, DesignProblem, WorkloadSpec};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// Prices machines and cells for one placement request. Single-threaded
/// by design: all parallelism lives in the pre-warm sweep, so every path
/// through here is a deterministic table read plus pure arithmetic.
pub(crate) struct FleetSolver<'s, 'a> {
    pub problem: &'s FleetProblem<'a>,
    pub classes: &'s MachineClasses,
    models: &'s [&'s dyn CostModel],
    pub cfg: FleetConfig,
    rect_hi: u32,
    /// `rows[class][vm]`: the request's handles on each VM's row of each
    /// machine class's table.
    rows: &'s [Vec<Arc<CostRow>>],
    /// The single-VM problem of each `(class, vm)` a cell lookup missed
    /// for, built on the pair's first miss.
    cell_problems: RefCell<HashMap<(usize, usize), DesignProblem<'a>>>,
    /// `memo[class][subset]`.
    memo: RefCell<Vec<HashMap<Vec<usize>, Rc<DpSolution>>>>,
    /// `tables[class][subset]`: the subset's value table at one more
    /// resident.
    tables: RefCell<Vec<HashMap<Vec<usize>, Rc<ValueTable>>>>,
    solves: Cell<usize>,
    memo_hits: Cell<usize>,
}

impl<'s, 'a> FleetSolver<'s, 'a> {
    /// Builds a solver over the request's rows of the shared tables.
    /// `rect_hi` is the request's warm-rectangle ceiling: no solve may hand
    /// any VM more units of either resource.
    pub fn new(
        problem: &'s FleetProblem<'a>,
        classes: &'s MachineClasses,
        models: &'s [&'s dyn CostModel],
        cfg: FleetConfig,
        rect_hi: u32,
        rows: &'s [Vec<Arc<CostRow>>],
    ) -> FleetSolver<'s, 'a> {
        FleetSolver {
            problem,
            classes,
            models,
            cfg,
            rect_hi,
            rows,
            cell_problems: RefCell::new(HashMap::new()),
            memo: RefCell::new(vec![HashMap::new(); classes.num_classes()]),
            tables: RefCell::new(vec![HashMap::new(); classes.num_classes()]),
            solves: Cell::new(0),
            memo_hits: Cell::new(0),
        }
    }

    /// The SLO weight of VM `vm`.
    pub fn weight(&self, vm: usize) -> f64 {
        self.problem.vms[vm].weight
    }

    /// The unweighted cost of VM `vm` at `(cpu, mem)` units on machine
    /// class `class`: one table read, or — for a cell outside the
    /// pre-warmed rectangle — one cost-model call, written back so the
    /// miss is paid once. The returned value is identical on either path —
    /// cell costs are pure in `(class, vm, cell)`.
    pub(crate) fn cell_cost(
        &self,
        class: usize,
        vm: usize,
        cpu: u32,
        mem: u32,
    ) -> Result<f64, FleetError> {
        let row = &self.rows[class][vm];
        if let Some(cost) = row.get(cpu, mem) {
            return Ok(cost);
        }
        let mut problems = self.cell_problems.borrow_mut();
        let dp = match problems.entry((class, vm)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(cell_problem(self.classes, self.problem, class, vm)?),
        };
        let cost = evaluate_cell(self.models[class], dp, self.cfg, cpu, mem)?;
        row.insert(cpu, mem, cost);
        Ok(cost)
    }

    /// [`FleetSolver::cell_cost`] times the VM's SLO weight: a DP term.
    fn weighted_cost(
        &self,
        class: usize,
        vm: usize,
        cpu: u32,
        mem: u32,
    ) -> Result<f64, FleetError> {
        Ok(self.cell_cost(class, vm, cpu, mem)? * self.weight(vm))
    }

    /// The optimal share split for `vms` (ascending global indices) on
    /// machine `machine` — the residents' units parallel to `vms`, and the
    /// machine's weighted steady-state objective — memoized by
    /// `(class, subset)`.
    pub fn solve(&self, machine: usize, vms: &[usize]) -> Result<Rc<DpSolution>, FleetError> {
        if vms.is_empty() {
            return Ok(Rc::default());
        }
        debug_assert!(vms.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        let class = self.classes.class_of[machine];
        if let Some(hit) = self.memo.borrow()[class].get(vms) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Ok(Rc::clone(hit));
        }

        let scfg = self.search_config(vms.len());
        let solve = Rc::new(solve_dp(vms.len(), &scfg, |w, c, m| {
            self.weighted_cost(class, vms[w], c, m)
        })?);
        self.solves.set(self.solves.get() + 1);
        self.memo.borrow_mut()[class].insert(vms.to_vec(), Rc::clone(&solve));
        Ok(solve)
    }

    /// The value table of `vms` (ascending global indices) on machine
    /// `machine` about to host one more VM: the DP at occupancy
    /// `vms.len() + 1`, one layer short — memoized by `(class, subset)`. A
    /// build is a DP memo miss and counts in [`FleetSolver::solves`].
    pub fn value_table(&self, machine: usize, vms: &[usize]) -> Result<Rc<ValueTable>, FleetError> {
        debug_assert!(vms.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        let class = self.classes.class_of[machine];
        if let Some(hit) = self.tables.borrow()[class].get(vms) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Ok(Rc::clone(hit));
        }
        let scfg = self.search_config(vms.len() + 1);
        let table = Rc::new(value_table(vms.len(), &scfg, |w, c, m| {
            self.weighted_cost(class, vms[w], c, m)
        })?);
        self.solves.set(self.solves.get() + 1);
        self.tables.borrow_mut()[class].insert(vms.to_vec(), Rc::clone(&table));
        Ok(table)
    }

    /// The screen of `table`'s subset grown by VM `vm` on machine
    /// `machine`: its solve's objective up to float rounding, or `None`
    /// when no bound (see [`ValueTable::grow`]).
    pub fn grow(
        &self,
        machine: usize,
        table: &ValueTable,
        vm: usize,
    ) -> Result<Option<f64>, FleetError> {
        let class = self.classes.class_of[machine];
        table.grow(|c, m| self.weighted_cost(class, vm, c, m))
    }

    /// The DP config of a machine hosting `occupancy` VMs.
    ///
    /// Budget cap: a machine below the forced minimum occupancy (a
    /// transient greedy state — more VMs are still coming) may not hand
    /// any resident more than `rect_hi` units, or its solve would read
    /// cells outside the warm rectangle (and, for narrow calibration
    /// grids, outside the grid). At or above the forced occupancy the
    /// cap resolves to the full machine, so final placements — whose
    /// occupied machines always satisfy it — are solved unchanged.
    fn search_config(&self, occupancy: usize) -> SearchConfig {
        let occ = occupancy as u32;
        let budget = self
            .cfg
            .units
            .min(self.rect_hi + (occ - 1) * self.cfg.min_units);
        SearchConfig {
            units: self.cfg.units,
            disk_share: self.cfg.disk_share,
            min_units: self.cfg.min_units,
            cpu_budget: budget,
            mem_budget: budget,
        }
    }

    /// Distinct DP solves performed (memo misses).
    pub fn solves(&self) -> usize {
        self.solves.get()
    }

    /// Solves answered from the memo.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.get()
    }
}

/// The single-workload [`DesignProblem`] that prices VM `vm` alone on a
/// machine of class `class`. Build it once per `(class, vm)` and evaluate
/// every cell against it: the workload's analysis is cached inside.
pub(crate) fn cell_problem<'a>(
    classes: &MachineClasses,
    problem: &FleetProblem<'a>,
    class: usize,
    vm: usize,
) -> Result<DesignProblem<'a>, FleetError> {
    let spec = &problem.vms[vm];
    Ok(DesignProblem::new(
        classes.specs[class],
        vec![WorkloadSpec::new(
            spec.name.clone(),
            spec.db,
            spec.queries.clone(),
        )],
    )?)
}

/// Evaluates one `(class, vm, cell)` what-if cost directly against the
/// class's cost model, via the pair's [`cell_problem`]. Used by the
/// pre-warm sweep and by [`FleetSolver::cell_cost`] misses; both paths
/// produce bitwise-identical values because the model is a pure function
/// of `(machine spec, workload, shares)`.
pub(crate) fn evaluate_cell(
    model: &dyn CostModel,
    cell_problem: &DesignProblem<'_>,
    cfg: FleetConfig,
    cpu: u32,
    mem: u32,
) -> Result<f64, FleetError> {
    let shares = cell_shares(cfg.units, cfg.disk_share, cpu, mem)?;
    Ok(model.cost(cell_problem, 0, shares)?)
}
