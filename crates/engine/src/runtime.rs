//! The execution runtime: context, errors, and the `run_plan` entry point.

use crate::{exec, CpuCosts, Database, PhysicalPlan};
use dbvirt_storage::{BufferPool, Schema, StorageError, Tuple, PAGE_SIZE};
use dbvirt_vmm::ResourceDemand;
use std::error::Error;
use std::fmt;

/// Errors surfaced by plan execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A storage operation failed.
    Storage(StorageError),
    /// The plan was malformed (e.g. referenced a missing index, or a column
    /// past its input's schema), or the context cannot run it (no
    /// `work_mem`): what [`PhysicalPlan::validate`] reports.
    Plan(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Plan(msg) => write!(f, "bad plan: {msg}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Plan(_) => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> EngineError {
        EngineError::Storage(e)
    }
}

/// What a sort or a hash join had to hold at once. Whether — and how much —
/// that spills is a pure function of `work_mem` ([`SpillEvent::pages`]), so
/// an execution that records its events can be priced under any `work_mem`
/// afterwards; the live charge goes through the same function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpillEvent {
    /// A hash join's two kept inputs.
    HashJoin {
        /// Encoded bytes of the build side.
        build_bytes: usize,
        /// Encoded bytes of the probe side.
        probe_bytes: usize,
    },
    /// A sort's kept input.
    Sort {
        /// Encoded bytes of the rows sorted.
        bytes: usize,
    },
}

impl SpillEvent {
    /// Batches a grace hash join splits a `build_bytes` build side into
    /// under `work_mem_bytes` (1 when it fits).
    pub(crate) fn hash_batches(build_bytes: usize, work_mem_bytes: usize) -> usize {
        if build_bytes <= work_mem_bytes {
            1
        } else {
            build_bytes.div_ceil(work_mem_bytes).max(2)
        }
    }

    /// Pages the event writes to spill files — and reads back, once each —
    /// under a positive `work_mem_bytes`; 0 when what it holds fits.
    ///
    /// A hash join with `b > 1` batches writes and re-reads both inputs for
    /// all but the in-memory batch (PostgreSQL's multi-batch hash join). A
    /// sort that does not fit pays one external-merge pass: every page out
    /// and back (PostgreSQL's `tapes` model with a single merge pass, which
    /// holds for the workload sizes here).
    pub fn pages(&self, work_mem_bytes: usize) -> u64 {
        match *self {
            SpillEvent::HashJoin {
                build_bytes,
                probe_bytes,
            } => {
                let batches = SpillEvent::hash_batches(build_bytes, work_mem_bytes);
                if batches == 1 {
                    return 0;
                }
                let spilled_frac = (batches - 1) as f64 / batches as f64;
                let pages =
                    |bytes: usize| ((bytes as f64 * spilled_frac) / PAGE_SIZE as f64).ceil() as u64;
                pages(build_bytes) + pages(probe_bytes)
            }
            SpillEvent::Sort { bytes } if bytes > work_mem_bytes => {
                bytes.div_ceil(PAGE_SIZE) as u64
            }
            SpillEvent::Sort { .. } => 0,
        }
    }
}

/// Everything an operator needs while executing: the database, the buffer
/// pool (sized from the VM's memory share), the `work_mem` budget, the CPU
/// cost constants, and the demand accumulated so far.
pub(crate) struct ExecContext<'a> {
    /// The database being queried.
    pub db: &'a Database,
    /// Page cache; all heap/index I/O is charged through it.
    pub pool: &'a mut BufferPool,
    /// Memory budget for sorts and hash tables, in bytes.
    pub work_mem_bytes: usize,
    /// CPU cost constants (the engine's ground truth).
    pub costs: CpuCosts,
    /// CPU cycles and spill I/O charged directly by operators (buffer-pool
    /// I/O accumulates separately inside `pool`).
    pub demand: ResourceDemand,
    /// Every sort and hash join met so far, spilling under this `work_mem`
    /// or not.
    pub spills: Vec<SpillEvent>,
}

impl<'a> ExecContext<'a> {
    /// Charges CPU cycles.
    pub(crate) fn charge_cpu(&mut self, cycles: f64) {
        self.demand.add_cpu(cycles);
    }

    /// Records what a sort or hash join held, charging the spill it means
    /// under this context's `work_mem`: each page written once, read once.
    pub(crate) fn record_spill(&mut self, event: SpillEvent) {
        let pages = event.pages(self.work_mem_bytes);
        self.demand.add_writes(pages);
        self.demand.add_seq_reads(pages);
        self.spills.push(event);
    }
}

/// Result of running one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column layout.
    pub schema: Schema,
    /// Materialized result rows.
    pub rows: Vec<Tuple>,
    /// Total physical work: executor CPU + spill I/O + buffer-pool I/O.
    pub demand: ResourceDemand,
}

/// Executes `plan` against `db` using `pool`, returning rows plus the total
/// [`ResourceDemand`] the execution generated. The pool's pre-existing
/// demand is preserved (only the delta is attributed to this query), so a
/// long-lived pool can serve many queries while each gets its own bill.
///
/// A plan that fails [`PhysicalPlan::validate`] against `db`, or a zero
/// `work_mem_bytes`, is an [`EngineError::Plan`], not a panic.
pub fn run_plan(
    db: &Database,
    pool: &mut BufferPool,
    plan: &PhysicalPlan,
    work_mem_bytes: usize,
    costs: CpuCosts,
) -> Result<QueryOutput, EngineError> {
    run_metered(db, pool, plan, work_mem_bytes, costs).map(|(out, _)| out)
}

/// [`run_plan`], also returning the spill events the execution recorded.
pub(crate) fn run_metered(
    db: &Database,
    pool: &mut BufferPool,
    plan: &PhysicalPlan,
    work_mem_bytes: usize,
    costs: CpuCosts,
) -> Result<(QueryOutput, Vec<SpillEvent>), EngineError> {
    let mut plan_span = dbvirt_telemetry::span("engine.run_plan");
    let metrics_before = pool.metrics();
    let io_before = *pool.demand();
    let mut ctx = ExecContext {
        db,
        pool,
        work_mem_bytes,
        costs,
        demand: ResourceDemand::ZERO,
        spills: Vec::new(),
    };
    let rows = exec::execute(&mut ctx, plan)?;
    let (direct, spills) = (ctx.demand, ctx.spills);
    let schema = plan.output_schema(db);
    let io_delta = pool.demand().delta_since(&io_before);
    if dbvirt_telemetry::is_enabled() {
        let m = pool.metrics();
        let (hits, misses) = (
            m.hits - metrics_before.hits,
            m.misses - metrics_before.misses,
        );
        plan_span.set_attr("rows", rows.len());
        plan_span.set_attr("pool_hits", hits);
        plan_span.set_attr("pool_misses", misses);
        if hits + misses > 0 {
            BUFPOOL_HIT_RATIO.set(hits as f64 / (hits + misses) as f64);
        }
    }
    let out = QueryOutput {
        schema,
        rows,
        demand: direct + io_delta,
    };
    Ok((out, spills))
}

/// Buffer-pool hit ratio of the most recent telemetry-enabled `run_plan`.
static BUFPOOL_HIT_RATIO: dbvirt_telemetry::Gauge =
    dbvirt_telemetry::Gauge::new("bufpool.hit_ratio");

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for executor unit tests.

    use super::*;
    use dbvirt_storage::{DataType, Datum, Field};

    /// A database with one table `t(a INT, b STR)` holding `n` rows
    /// (`a = 0..n`), and a modest buffer pool.
    pub fn small_db(n: i64) -> (Database, BufferPool) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Str),
            ]),
        );
        db.insert_rows(
            t,
            (0..n).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(format!("row-{i}"))])),
        )
        .unwrap();
        (db, BufferPool::new(64))
    }

    /// Loads `rows` into a fresh table of `db` and returns the plan that
    /// scans it: how a unit test hands a borrowing operator its input.
    pub fn scan_of(db: &mut Database, rows: Vec<Tuple>) -> PhysicalPlan {
        let fields = rows.first().map_or(Vec::new(), |row| {
            let kind = |d: &Datum| d.data_type().unwrap_or(DataType::Int);
            let field = |(i, d)| Field::new(format!("c{i}"), kind(d));
            row.values().iter().enumerate().map(field).collect()
        });
        let table = db.create_table(format!("input{}", db.num_tables()), Schema::new(fields));
        db.insert_rows(table, rows).unwrap();
        PhysicalPlan::SeqScan {
            table,
            filter: None,
        }
    }

    /// Executes the plan `build` makes over scans of `inputs` — each loaded
    /// into a scratch table — under `work_mem_bytes`, returning its rows and
    /// what its operators charged directly: how a unit test runs an operator
    /// that takes plans, not rows, as input.
    pub fn run_over<const N: usize>(
        work_mem_bytes: usize,
        inputs: [Vec<Tuple>; N],
        build: impl FnOnce([Box<PhysicalPlan>; N]) -> PhysicalPlan,
    ) -> (Vec<Tuple>, ResourceDemand) {
        let (mut db, mut pool) = small_db(1);
        let plan = build(inputs.map(|rows| Box::new(scan_of(&mut db, rows))));
        let mut ctx = context(&db, &mut pool);
        ctx.work_mem_bytes = work_mem_bytes;
        let out = exec::execute(&mut ctx, &plan).unwrap();
        (out, ctx.demand)
    }

    /// A context over the fixtures with 1 MiB of `work_mem`.
    pub fn context<'a>(db: &'a Database, pool: &'a mut BufferPool) -> ExecContext<'a> {
        ExecContext {
            db,
            pool,
            work_mem_bytes: 1 << 20,
            costs: CpuCosts::default(),
            demand: ResourceDemand::ZERO,
            spills: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::small_db;
    use super::*;
    use crate::{AggExpr, Expr, SortKey, TableId};

    #[test]
    fn run_plan_end_to_end() {
        let (db, mut pool) = small_db(500);
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::HashAgg {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: TableId(0),
                    filter: Some(Expr::lt(Expr::col(0), Expr::int(100))),
                }),
                group_by: vec![],
                aggs: vec![AggExpr::count_star("n")],
            }),
            keys: vec![SortKey::asc(0)],
        };
        let out = run_plan(&db, &mut pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0).as_int(), Some(100));
        assert!(out.demand.cpu_cycles > 0.0);
        assert!(out.demand.seq_page_reads > 0);
        assert_eq!(out.schema.field(0).name, "n");
    }

    #[test]
    fn demand_is_per_query_delta() {
        let (db, mut pool) = small_db(500);
        let plan = PhysicalPlan::SeqScan {
            table: TableId(0),
            filter: None,
        };
        let first = run_plan(&db, &mut pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        let second = run_plan(&db, &mut pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        assert!(first.demand.seq_page_reads > 0);
        // The table fits in the 64-page pool, so the second run is all hits.
        assert_eq!(
            second.demand.seq_page_reads, 0,
            "warm rescan charges no reads"
        );
        assert!(second.demand.cpu_cycles > 0.0);
    }

    #[test]
    fn warm_vs_cold_depends_on_pool_size() {
        let (db, _) = small_db(20_000);
        let n_pages = db.table(TableId(0)).heap.num_pages(db.disk());
        assert!(n_pages > 64);
        let plan = PhysicalPlan::SeqScan {
            table: TableId(0),
            filter: None,
        };
        // Tiny pool: every scan is cold.
        let mut small_pool = BufferPool::new(8);
        run_plan(&db, &mut small_pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        let rescan = run_plan(&db, &mut small_pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        assert_eq!(rescan.demand.seq_page_reads as u32, n_pages);
        // Big pool: rescan is warm.
        let mut big_pool = BufferPool::new(n_pages as usize + 8);
        run_plan(&db, &mut big_pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        let rescan = run_plan(&db, &mut big_pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
        assert_eq!(rescan.demand.seq_page_reads, 0);
    }

    #[test]
    fn error_display_chains() {
        let e = EngineError::Storage(StorageError::FileNotFound { file: 3 });
        assert!(e.to_string().contains("file 3"));
        assert!(e.source().is_some());
        let e = EngineError::Plan("no such index".into());
        assert!(e.to_string().contains("no such index"));
    }
}
