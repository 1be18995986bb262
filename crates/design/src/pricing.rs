//! CoPhy-style what-if pricing of `(index configuration, allocation)`
//! pairs.
//!
//! The selection objective is defined over enumerated **configurations**:
//! per query, the empty set, every relevant single candidate, and every
//! relevant candidate pair. A config's cost is the what-if optimizer's
//! estimate with exactly that config offered as hypothetical indexes,
//! under the calibrated parameters `P(R)` of the allocation cell being
//! priced. The cost of an index *set* for a query is then the cheapest
//! config contained in the set — monotone non-increasing in the set, and
//! an upper bound on the true planner cost with the whole set available
//! (a larger menu can only help). Restricting to configurations of size
//! ≤ 2 is what makes the companion LP relaxation ([`crate::lp`]) an exact
//! relaxation of this objective, so the reported optimality gap is sound.
//!
//! The work splits the way INUM splits it inside CoPhy. Each query is
//! analysed once with no hypothetical index, by the workload's
//! [`WorkloadSpec::analysed`] — once per problem, however many advise runs
//! read it. A [`VmPricer`] borrows that analysis and derives each config's
//! from it by re-deriving only the access paths of the scans the config's
//! indexes cover ([`PreparedQuery::offering`]) — every `(query, config)` up
//! front, since the advisor's final LP bound prices every config anyway. A
//! `(query, config, cell)` price is then one pricing pass of that analysis
//! under the cell's checked `P(R)`, which the [`DesignPricer`] looks up
//! once per cell.
//!
//! A price is computed on its first read and memoized in the same dense
//! write-once [`CostCache`] the allocation search uses: each
//! `(VM, query, config)` owns one row of the pricer's table, handed to its
//! [`VmPricer`] at construction, and the cell is the row's `(cpu, mem)`
//! cell — a price read takes no lock and hashes nothing. Prices are pure
//! functions of the key, so every decision the advisor takes reads the same
//! bits in every process, whichever cells it happens to read first.

use crate::candidates::CandidateSet;
use crate::DesignError;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::search::{cell_shares, CostCache, CostRow};
use dbvirt_core::WorkloadSpec;
use dbvirt_optimizer::{CheckedParams, HypoIndex, OptError, PreparedQuery};
use dbvirt_telemetry as telemetry;
use std::cell::{Cell, OnceCell};
use std::sync::Arc;

/// What-if prices answered from the shared cache.
static TM_CACHE_HITS: telemetry::Counter = telemetry::Counter::new("design.cache_hits");
/// What-if prices computed: one pricing pass each.
static TM_WHATIF_CALLS: telemetry::Counter = telemetry::Counter::new("design.whatif_calls");

/// One query's priced configuration menu: `configs[k]` is the candidate
/// indices of config `k` (empty first, then singletons, then pairs, in
/// candidate order), `masks[k]` the same as a bitmask.
#[derive(Debug, Clone)]
pub struct ConfigMenu {
    /// Candidate indices per config.
    pub configs: Vec<Vec<usize>>,
    /// Bitmask per config (bit `i` = candidate `i`).
    pub masks: Vec<u64>,
}

/// Builds the per-query config menus from a candidate set: `∅`, relevant
/// singletons, relevant pairs.
pub(crate) fn config_menus(cands: &CandidateSet) -> Vec<ConfigMenu> {
    cands
        .relevant
        .iter()
        .map(|rel| {
            let mut configs = vec![Vec::new()];
            for &c in rel {
                configs.push(vec![c]);
            }
            for (i, &a) in rel.iter().enumerate() {
                for &b in &rel[i + 1..] {
                    configs.push(vec![a, b]);
                }
            }
            let masks = configs
                .iter()
                .map(|cfg| cfg.iter().fold(0u64, |m, &c| m | (1 << c)))
                .collect();
            ConfigMenu { configs, masks }
        })
        .collect()
}

/// The pricing context for one workload (one VM): the workload, its
/// candidates, config menus, its analyses, and its rows of one
/// [`DesignPricer`]'s price table.
pub struct VmPricer<'a> {
    /// The workload priced: its database (catalog + statistics only) and
    /// queries.
    pub(crate) workload: &'a WorkloadSpec<'a>,
    /// Enumerated candidates.
    pub cands: CandidateSet,
    /// Per-query config menus.
    pub menus: Vec<ConfigMenu>,
    /// `analysed[q]`: query `q` analysed with no hypothetical index, lent by
    /// the workload.
    analysed: &'a [PreparedQuery],
    /// `offered[q][k]`: that analysis offered config `k` as hypothetical
    /// indexes, `None` for the empty config — every cell only prices it.
    offered: Vec<Vec<Option<PreparedQuery>>>,
    /// `prices[q][k]`: the pair's row of the pricer's table.
    prices: Vec<Vec<Arc<CostRow>>>,
}

impl<'a> VmPricer<'a> {
    /// Builds a pricer for `workload` from an already-enumerated candidate
    /// set, priced into the next unused rows of `pricer`'s table: borrows
    /// the workload's analysis of every query, and offers it each of the
    /// query's configs.
    pub fn new(
        pricer: &DesignPricer<'_>,
        workload: &'a WorkloadSpec<'a>,
        cands: CandidateSet,
    ) -> Result<VmPricer<'a>, DesignError> {
        let analysed = workload.analysed()?;
        let menus = config_menus(&cands);
        let offered = (workload.queries.iter().zip(analysed).zip(&menus))
            .map(|((query, bare), menu)| {
                (menu.configs.iter())
                    .map(|config| match config[..] {
                        [] => Ok(None),
                        _ => bare
                            .offering(workload.db, query, &hypo_indexes(&cands, config))
                            .map(Some),
                    })
                    .collect::<Result<Vec<_>, OptError>>()
            })
            .collect::<Result<_, _>>()?;
        let prices = (menus.iter())
            .map(|menu| pricer.fresh_rows(menu.configs.len()))
            .collect::<Result<_, _>>()?;
        Ok(VmPricer {
            workload,
            cands,
            menus,
            analysed,
            offered,
            prices,
        })
    }

    /// The analysis config `k` of query `q` is priced from.
    fn analysis(&self, q: usize, k: usize) -> &PreparedQuery {
        self.offered[q][k].as_ref().unwrap_or(&self.analysed[q])
    }
}

/// The hypothetical indexes a config offers: its candidates, in order.
fn hypo_indexes(cands: &CandidateSet, config: &[usize]) -> Vec<HypoIndex> {
    (config.iter())
        .map(|&c| HypoIndex {
            table: cands.candidates[c].table,
            columns: cands.candidates[c].columns.clone(),
        })
        .collect()
}

/// Shared pricing state: the calibration grid mapping cells to `P(R)`,
/// the share discretization, and the cost cache.
pub struct DesignPricer<'g> {
    grid: &'g CalibrationGrid,
    units: u32,
    disk_share: f64,
    /// The checked `P(R)` of cell `(cpu, mem)` at `cpu * (units + 1) +
    /// mem`, looked up on the cell's first price.
    params: Vec<OnceCell<CheckedParams>>,
    cache: CostCache,
    /// Rows of `cache` handed to [`VmPricer`]s so far.
    rows_used: Cell<usize>,
}

impl<'g> DesignPricer<'g> {
    /// A pricer over a fresh cache.
    pub fn new(grid: &'g CalibrationGrid, units: u32, disk_share: f64) -> DesignPricer<'g> {
        let side = units as usize + 1;
        DesignPricer {
            grid,
            units,
            disk_share,
            params: vec![OnceCell::new(); side * side],
            cache: CostCache::new(),
            rows_used: Cell::new(0),
        }
    }

    /// The next `n` unused rows of the price table.
    fn fresh_rows(&self, n: usize) -> Result<Vec<Arc<CostRow>>, DesignError> {
        let base = self.rows_used.replace(self.rows_used.get() + n);
        Ok(self
            .cache
            .rows(self.units, self.disk_share, base..base + n)?)
    }

    /// Distinct what-if evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        self.cache.evaluations()
    }

    /// The checked `P(R)` of cell `(cpu, mem)`, memoized per cell of the
    /// lattice.
    fn params(&self, cpu: u32, mem: u32) -> Result<&CheckedParams, DesignError> {
        let side = self.units as usize + 1;
        let slot = (cpu.max(mem) <= self.units)
            .then(|| &self.params[cpu as usize * side + mem as usize])
            .ok_or_else(|| DesignError::BadConfig {
                reason: format!(
                    "cell ({cpu}, {mem}) lies off the {}-unit lattice",
                    self.units
                ),
            })?;
        if let Some(params) = slot.get() {
            return Ok(params);
        }
        let params = self
            .grid
            .params_for(cell_shares(self.units, self.disk_share, cpu, mem)?)?;
        Ok(slot.get_or_init(|| params))
    }

    /// Price of `(query, config, cell)`: the what-if estimate with exactly
    /// the config's candidates offered as hypothetical indexes under the
    /// calibrated `P(R)` of the cell. Memoized; pure in the key.
    pub fn price(
        &self,
        vm: &VmPricer<'_>,
        q: usize,
        config: usize,
        cpu: u32,
        mem: u32,
    ) -> Result<f64, DesignError> {
        let row = &vm.prices[q][config];
        if let Some(c) = row.get(cpu, mem) {
            TM_CACHE_HITS.add(1);
            return Ok(c);
        }
        TM_WHATIF_CALLS.add(1);
        let cost = vm.analysis(q, config).est_seconds(self.params(cpu, mem)?);
        row.insert(cpu, mem, cost);
        Ok(cost)
    }

    /// Unweighted workload cost of an index set (as a candidate bitmask)
    /// at a cell: per query, the cheapest config contained in the mask.
    /// Summed in query order — deterministic.
    pub(crate) fn workload_cost(
        &self,
        vm: &VmPricer<'_>,
        mask: u64,
        cpu: u32,
        mem: u32,
    ) -> Result<f64, DesignError> {
        let mut total = 0.0;
        for q in 0..vm.workload.queries.len() {
            let menu = &vm.menus[q];
            let mut best = f64::INFINITY;
            for (k, &kmask) in menu.masks.iter().enumerate() {
                if kmask & !mask != 0 {
                    continue;
                }
                let c = self.price(vm, q, k, cpu, mem)?;
                if c < best {
                    best = c;
                }
            }
            total += best;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::testutil::small_grid;
    use dbvirt_engine::{Database, Expr};
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    fn fixture() -> (Database, Vec<LogicalPlan>) {
        let mut db = Database::new();
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
        let q = LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(0), Expr::int(7)));
        (db, vec![q])
    }

    fn grid() -> CalibrationGrid {
        small_grid()
    }

    #[test]
    fn config_menus_enumerate_empty_singletons_pairs() {
        let (db, queries) = fixture();
        let cands = enumerate_candidates(&db, &queries, 16);
        assert_eq!(cands.len(), 1);
        let menus = config_menus(&cands);
        assert_eq!(menus[0].configs, vec![vec![], vec![0]]);
        assert_eq!(menus[0].masks, vec![0, 1]);
    }

    #[test]
    fn an_index_config_prices_below_empty_and_is_cached() {
        let (db, queries) = fixture();
        let grid = grid();
        let cands = enumerate_candidates(&db, &queries, 16);
        let pricer = DesignPricer::new(&grid, 4, 0.5);
        let spec = WorkloadSpec::new("w", &db, queries.clone());
        let vm = VmPricer::new(&pricer, &spec, cands).unwrap();
        // A CPU- and memory-scarce cell: random index I/O is cheaper than
        // grinding 20k tuples through a slow CPU share.
        let empty = pricer.price(&vm, 0, 0, 2, 1).unwrap();
        let indexed = pricer.price(&vm, 0, 1, 2, 1).unwrap();
        assert!(
            indexed < empty,
            "a 1-in-20000 equality must prefer the hypothetical index \
             ({indexed} vs {empty})"
        );
        let evals = pricer.evaluations();
        // Re-pricing answers from the cache.
        assert_eq!(pricer.price(&vm, 0, 1, 2, 1).unwrap(), indexed);
        assert_eq!(pricer.evaluations(), evals);
        // The set cost picks the cheaper config; the empty mask can only
        // use the empty config.
        assert_eq!(pricer.workload_cost(&vm, 1, 2, 1).unwrap(), indexed);
        assert_eq!(pricer.workload_cost(&vm, 0, 2, 1).unwrap(), empty);
    }

    /// Every `(config, cell)` the pricer answers from a config analysed
    /// once equals planning the query afresh with that config's indexes
    /// under that cell's `P(R)`.
    #[test]
    fn prices_equal_fresh_what_if_planning_bit_for_bit() {
        use dbvirt_optimizer::{plan_query_with_indexes, HypoIndex};
        let (db, mut queries) = fixture();
        let t = db.table_id("t").unwrap();
        queries.push(LogicalPlan::scan_filtered(
            t,
            Expr::and(
                Expr::eq(Expr::col(1), Expr::int(7)),
                Expr::lt(Expr::col(0), Expr::int(4_000)),
            ),
        ));
        let grid = grid();
        let cands = enumerate_candidates(&db, &queries, 16);
        let pricer = DesignPricer::new(&grid, 4, 0.5);
        let spec = WorkloadSpec::new("w", &db, queries.clone());
        let vm = VmPricer::new(&pricer, &spec, cands).unwrap();
        let mut priced = 0;
        for (q, query) in queries.iter().enumerate() {
            assert!(vm.menus[q].configs.len() > 1, "query {q} has no candidate");
            for (k, config) in vm.menus[q].configs.iter().enumerate() {
                let hypo: Vec<HypoIndex> = config
                    .iter()
                    .map(|&c| HypoIndex {
                        table: vm.cands.candidates[c].table,
                        columns: vm.cands.candidates[c].columns.clone(),
                    })
                    .collect();
                for (cpu, mem) in [(1, 1), (2, 1), (1, 3), (3, 3)] {
                    let params = grid
                        .params_for(cell_shares(4, 0.5, cpu, mem).unwrap())
                        .unwrap();
                    let fresh = plan_query_with_indexes(&db, query, &params, &hypo)
                        .unwrap()
                        .est_seconds();
                    let got = pricer.price(&vm, q, k, cpu, mem).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        fresh.to_bits(),
                        "q{q} config {k} cell ({cpu},{mem})"
                    );
                    priced += 1;
                }
            }
        }
        assert_eq!(pricer.evaluations(), priced);
    }
}
