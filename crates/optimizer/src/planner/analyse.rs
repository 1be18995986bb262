//! **Analyse**: `(catalog + statistics, logical plan, hypothetical indexes)`
//! → a [`PreparedQuery`], everything about the query that does not depend on
//! the parameter vector `P`.
//!
//! The paper's what-if mode rests on one observation: when the resource
//! allocation changes, only `P` changes — "access paths and statistics stay
//! fixed". Everything computed here is therefore computed once per query
//! and reused for every `P(R)` the search prices:
//!
//! | fixed by `(db, query, hypo)` — kept here | decided per `P` — [`super::price`] |
//! |---|---|
//! | filter and index-range selectivities, base rows, scan output rows | which access path wins |
//! | page counts, tuple widths, the query's cache working set | whether a seq scan pays page I/O (cache cutoff) |
//! | index menus, B+tree geometry, key bounds, residual operator counts | the join order — and through it every intermediate row count and width sum |
//! | join relations, edges, per-column NDVs | whether the restoring projection is needed |
//! | which splits connect, each connected subset's step, DP vs greedy | which connected split wins each subset |
//! | operator counts of filters, projections, aggregates | hash vs sort aggregation; sort and hash-join spills |
//!
//! The join DP's subset enumeration is hoisted here ([`SplitTable`]): which
//! relation subsets are connected, and which of their splits join two
//! connected halves across at least one edge, depend on the join graph
//! alone. What stays per `P` is the choice among those splits.
//!
//! Of all this, the hypothetical indexes reach one thing only: the access
//! paths of the scans on the tables they index. So an index-configuration
//! search, as INUM does inside CoPhy, analyses each query once with none
//! and derives every configuration from that analysis by re-deriving those
//! scans' paths ([`PreparedQuery::offering`]).

use super::access::{self, PathKind, Residual};
use super::HypoIndex;
use crate::cost::ArmStats;
use crate::{card, LogicalPlan, OptError};
use dbvirt_engine::{Database, Expr, JoinType, TableId};
use dbvirt_storage::{TableStats, PAGE_SIZE};

/// A query analysed once, ready to be priced under any number of parameter
/// vectors: per scan the sequential-scan operands and every index
/// candidate's geometry, selectivity and residual-operator count; per
/// inner-join tree the relations, edges, per-column NDVs and the splits its
/// join DP can take; per aggregate/filter/project/sort their operator
/// counts and fixed widths.
/// Owned and `P`-free — a pure function of `(db, query, hypothetical
/// indexes)`, so it can be cached wherever the query lives and shared
/// across threads.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(super) root: Node,
}

/// NDV of a column feeding a join or grouping: the base column's
/// `n_distinct` (floored at 1) when provenance and statistics reach it,
/// `None` when they do not — pricing then assumes the column distinct and
/// substitutes its input's row estimate, which only it knows.
pub(super) type Ndv = Option<f64>;

/// One logical operator with its `P`-free costing operands.
#[derive(Debug, Clone)]
pub(super) enum Node {
    Scan(Scan),
    /// A maximal tree of inner equi-joins, flattened for join ordering.
    InnerJoins(JoinTree),
    /// A left/semi/anti join: an ordering barrier, always a hash join, with
    /// the `(left, right)` NDVs of each condition.
    OuterJoin(Box<Node>, Box<Node>, Vec<(Ndv, Ndv)>, JoinType),
    /// A single-input operator over its input.
    Unary(Box<Node>, Op),
}

#[derive(Debug, Clone)]
pub(super) enum Op {
    /// Grouping-column NDVs, aggregate count, operators in their arguments.
    Aggregate {
        group_by: Vec<Ndv>,
        n_aggs: f64,
        arg_ops: f64,
    },
    Filter {
        selectivity: f64,
        ops: f64,
    },
    /// Operators in the expressions, and how many expressions.
    Project {
        ops: f64,
        arity: usize,
    },
    Sort,
    Limit(f64),
}

/// A base-table scan: the sequential scan's operands plus one entry per
/// index access path, in comparison order.
#[derive(Debug, Clone)]
pub(super) struct Scan {
    pub table: TableId,
    pub pages: f64,
    pub rows: f64,
    pub width: f64,
    pub out_rows: f64,
    pub filter_ops: f64,
    /// Summed heap pages of every distinct base table the whole query
    /// touches.
    pub working_set_pages: f64,
    pub paths: Vec<PathCost>,
}

/// The costing operands of one [`access::AccessPath`].
#[derive(Debug, Clone)]
pub(super) struct PathCost {
    pub kind: PathKind,
    /// Geometry and selectivity of each index range the path probes.
    pub arms: Vec<ArmStats>,
    pub combined: f64,
    pub residual_ops: f64,
}

/// A flattened inner-join tree: leaf relations in logical (left-to-right)
/// order, the equi-join edges between them, and how pricing orders them.
#[derive(Debug, Clone)]
pub(super) struct JoinTree {
    pub relations: Vec<Node>,
    /// `offsets[i]..offsets[i + 1]` are relation `i`'s columns in the
    /// tree's logical output.
    pub offsets: Vec<usize>,
    pub edges: Vec<JoinEdge>,
    pub order: JoinOrder,
}

/// Past this many relations the exact DP gives way to the greedy order
/// (never hit by the TPC-H subset, whose widest query joins 6 relations).
pub(super) const MAX_DP_RELATIONS: usize = 12;

/// How pricing orders a tree's joins, fixed by its join graph.
#[derive(Debug, Clone)]
pub(super) enum JoinOrder {
    /// The Selinger DP over these splits.
    Dp(SplitTable),
    /// Greedy with cross joins: more than [`MAX_DP_RELATIONS`] relations,
    /// more edges than a [`SplitTable`] indexes, or a disconnected graph.
    Greedy,
}

/// The splits the join DP can take: for every connected subset of two or
/// more relations, in ascending bit-mask order, each way of cutting it into
/// two connected halves with at least one edge between them, in the order
/// `sub = (sub - 1) & subset` visits them. Both orientations of a cut are
/// kept — when the halves' row estimates tie, probe and build differ; when
/// they do not, pricing skips the second one.
///
/// Every connected subset gets exactly one join step, in the same order,
/// so the `k`-th one is step `n + k` (steps `0..n` are the relations) and
/// the tables hold step indices, not masks to look up.
#[derive(Debug, Clone, Default)]
pub(super) struct SplitTable {
    /// The end in `splits` of each connected subset's run.
    pub subsets: Vec<u32>,
    pub splits: Vec<Split>,
    /// Indices into [`JoinTree::edges`] of the edges running between each
    /// split's halves, in edge order; a split's run ends at its
    /// [`Split::edges_end`] and starts where the previous split's ended.
    pub edges: Vec<u16>,
}

/// One cut of a connected subset into two connected halves.
#[derive(Debug, Clone, Copy)]
pub(super) struct Split {
    /// The relations of the first half, as a bit mask.
    pub first: u16,
    /// The join steps of the first half and of the rest.
    pub steps: [u16; 2],
    pub edges_end: u32,
    /// The same cut with its halves swapped (its mirror) came earlier in
    /// the subset's run.
    pub mirrored: bool,
}

/// The join-order search analysis fixed for a query, summed over its
/// inner-join trees that take the DP ([`PreparedQuery::join_splits`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinSplits {
    /// Splits a subset enumeration visits per pricing pass: every ordered
    /// cut of every subset of two or more relations.
    pub enumerated: usize,
    /// Ordered cuts into two connected halves joined by an edge — what
    /// pricing walks.
    pub connected: usize,
    /// Connected subsets of two or more relations: one join step each.
    pub subsets: usize,
    /// Heap bytes the split tables hold.
    pub bytes: usize,
}

impl JoinOrder {
    /// The order for `n` relations joined by `edges`: the DP's split table
    /// when the DP applies and the graph is connected, else greedy.
    pub(super) fn of(n: usize, edges: &[JoinEdge]) -> JoinOrder {
        if n > MAX_DP_RELATIONS || edges.len() > usize::from(u16::MAX) {
            return JoinOrder::Greedy;
        }
        SplitTable::enumerate(n, edges).map_or(JoinOrder::Greedy, JoinOrder::Dp)
    }
}

impl SplitTable {
    /// Enumerates the splits of every connected subset of `n ≤
    /// MAX_DP_RELATIONS` relations, or `None` when the graph is
    /// disconnected. A subset is connected exactly when some cut of it
    /// qualifies, so the enumeration decides connectivity as it goes.
    fn enumerate(n: usize, edges: &[JoinEdge]) -> Option<SplitTable> {
        const ABSENT: u16 = u16::MAX;
        let full: usize = (1 << n) - 1;
        // The step of each connected subset; ABSENT for the rest.
        let mut step = vec![ABSENT; full + 1];
        for i in 0..n {
            step[1 << i] = i as u16;
        }
        let mut table = SplitTable::default();
        let mut next = n as u16;
        for subset in 1..=full {
            if subset.is_power_of_two() {
                continue;
            }
            let start = table.splits.len();
            let mut sub = (subset - 1) & subset;
            while sub > 0 {
                let other = subset & !sub;
                let steps = [step[sub], step[other]];
                let run_start = table.edges.len();
                if !steps.contains(&ABSENT) {
                    let crosses = |a: usize, b: usize| sub >> a & other >> b & 1 == 1;
                    table.edges.extend(
                        edges
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| {
                                crosses(e.left_rel, e.right_rel) || crosses(e.right_rel, e.left_rel)
                            })
                            .map(|(i, _)| i as u16),
                    );
                }
                if table.edges.len() > run_start {
                    table.splits.push(Split {
                        first: sub as u16,
                        steps,
                        edges_end: table.edges.len() as u32,
                        mirrored: sub < other,
                    });
                }
                sub = (sub - 1) & subset;
            }
            if table.splits.len() > start {
                step[subset] = next;
                next += 1;
                table.subsets.push(table.splits.len() as u32);
            }
        }
        table.subsets.shrink_to_fit();
        table.splits.shrink_to_fit();
        table.edges.shrink_to_fit();
        (step[full] != ABSENT).then_some(table)
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.subsets[..])
            + size_of_val(&self.splits[..])
            + size_of_val(&self.edges[..])
    }
}

/// One equi-join condition between two relations of a [`JoinTree`].
#[derive(Debug, Clone, Copy)]
pub(super) struct JoinEdge {
    pub left_rel: usize,
    pub right_rel: usize,
    pub left_ndv: Ndv,
    pub right_ndv: Ndv,
    /// The joined columns, as positions in the tree's logical output.
    pub left_col: usize,
    pub right_col: usize,
}

/// Provenance of each output column of a node: `(table, column)` for base
/// columns, `None` for derived values. Needed only while analysing.
type Origins = Vec<Option<(TableId, usize)>>;

/// Statistics with no columns: every estimator falls back to its PostgreSQL
/// default constant. Used for predicates over derived schemas.
fn empty_stats() -> TableStats {
    TableStats {
        n_rows: 0,
        n_pages: 0,
        columns: Vec::new(),
    }
}

pub(super) fn table_stats(db: &Database, table: TableId) -> Result<&TableStats, OptError> {
    db.table(table)
        .stats
        .as_ref()
        .ok_or_else(|| OptError::MissingStats {
            table: db.table(table).name.clone(),
        })
}

/// Summed heap pages of every distinct base table a plan touches — the
/// query's steady-state cache working set. (Whole page counts: the sum is
/// exact in any order.)
fn working_set_pages(db: &Database, plan: &LogicalPlan) -> f64 {
    let mut scans = Vec::new();
    plan_scans(plan, &mut scans);
    let mut seen = Vec::new();
    let mut pages = 0.0;
    for (table, _) in scans {
        if !seen.contains(&table) {
            seen.push(table);
            pages += (db.table(table).stats.as_ref()).map_or(0.0, |s| s.n_pages as f64);
        }
    }
    pages
}

/// The leaf relations of an inner-join tree, in logical order.
pub(super) fn join_leaves<'p>(plan: &'p LogicalPlan, out: &mut Vec<&'p LogicalPlan>) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            ..
        } => {
            join_leaves(left, out);
            join_leaves(right, out);
        }
        leaf => out.push(leaf),
    }
}

/// The costing operands of every index access path `filter` can drive on
/// `table` with `hypo` offered beside the real indexes, in comparison order
/// ([`Scan::paths`]). `filter_ops` is the whole filter's operator count.
fn scan_paths(
    db: &Database,
    hypo: &[HypoIndex],
    table: TableId,
    stats: &TableStats,
    filter: &Option<Expr>,
    filter_ops: f64,
) -> Vec<PathCost> {
    let Some(filter) = filter else {
        return Vec::new();
    };
    access::access_paths(db, hypo, table, stats, filter)
        .into_iter()
        .map(|path| PathCost {
            kind: path.kind,
            arms: path.probes.iter().map(|probe| probe.stats).collect(),
            combined: path.combined,
            residual_ops: match path.residual {
                Residual::Terms(terms) => terms.iter().map(|e| e.num_operators() as f64).sum(),
                Residual::WholeFilter => filter_ops,
            },
        })
        .collect()
}

/// The base-table scans of `plan`, in the order analysis meets them: depth
/// first, left before right.
fn plan_scans<'p>(plan: &'p LogicalPlan, out: &mut Vec<(TableId, &'p Option<Expr>)>) {
    match plan {
        LogicalPlan::Scan { table, filter } => out.push((*table, filter)),
        LogicalPlan::Join { left, right, .. } => {
            plan_scans(left, out);
            plan_scans(right, out);
        }
        LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => plan_scans(input, out),
    }
}

struct Analyser<'a> {
    db: &'a Database,
    hypo: &'a [HypoIndex],
    working_set_pages: f64,
}

impl Analyser<'_> {
    /// NDV of output column `col` of a node with provenance `origins`.
    fn ndv(&self, origins: &Origins, col: usize) -> Ndv {
        let (table, base_col) = origins.get(col).copied().flatten()?;
        let stats = self.db.table(table).stats.as_ref()?;
        Some((stats.columns.get(base_col)?.n_distinct as f64).max(1.0))
    }

    fn scan(&self, table: TableId, filter: &Option<Expr>) -> Result<(Node, Origins), OptError> {
        let stats = table_stats(self.db, table)?;
        let pages = stats.n_pages as f64;
        let rows = stats.n_rows as f64;
        let width = if rows > 0.0 {
            (pages * PAGE_SIZE as f64 / rows).clamp(8.0, 512.0)
        } else {
            64.0
        };
        let sel = filter
            .as_ref()
            .map_or(1.0, |f| card::filter_selectivity(f, stats));
        let filter_ops = filter.as_ref().map_or(0.0, |f| f.num_operators() as f64);
        let paths = scan_paths(self.db, self.hypo, table, stats, filter, filter_ops);
        let arity = self.db.table(table).schema.len();
        Ok((
            Node::Scan(Scan {
                table,
                pages,
                rows,
                width,
                out_rows: (rows * sel).max(0.0),
                filter_ops,
                working_set_pages: self.working_set_pages,
                paths,
            }),
            (0..arity).map(|c| Some((table, c))).collect(),
        ))
    }

    /// Flattens a tree of inner equi-joins into leaf relations plus edges
    /// (as column pairs in the tree's logical output). Non-inner joins and
    /// non-join nodes become opaque leaves. Returns the subtree's arity.
    fn flatten(
        &self,
        plan: &LogicalPlan,
        tree: &mut JoinTree,
        origins: &mut Origins,
        edges: &mut Vec<(usize, usize)>,
    ) -> Result<usize, OptError> {
        let offset = origins.len();
        match plan {
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type: JoinType::Inner,
            } => {
                let left_width = self.flatten(left, tree, origins, edges)?;
                let right_width = self.flatten(right, tree, origins, edges)?;
                for c in on {
                    edges.push((offset + c.left_col, offset + left_width + c.right_col));
                }
                Ok(left_width + right_width)
            }
            leaf => {
                let (node, leaf_origins) = self.node(leaf)?;
                tree.relations.push(node);
                origins.extend(leaf_origins);
                tree.offsets.push(origins.len());
                Ok(origins.len() - offset)
            }
        }
    }

    fn inner_joins(&self, plan: &LogicalPlan) -> Result<(Node, Origins), OptError> {
        let mut tree = JoinTree {
            relations: Vec::new(),
            offsets: vec![0],
            edges: Vec::new(),
            order: JoinOrder::Greedy,
        };
        let mut origins = Origins::new();
        let mut edges = Vec::new();
        self.flatten(plan, &mut tree, &mut origins, &mut edges)?;
        let relation_of = |col: usize| tree.offsets.partition_point(|&o| o <= col) - 1;
        tree.edges = edges
            .into_iter()
            // A condition on a column no relation has can never connect two.
            .filter(|&(left_col, right_col)| left_col.max(right_col) < origins.len())
            .map(|(left_col, right_col)| JoinEdge {
                left_rel: relation_of(left_col),
                right_rel: relation_of(right_col),
                left_ndv: self.ndv(&origins, left_col),
                right_ndv: self.ndv(&origins, right_col),
                left_col,
                right_col,
            })
            .collect();
        tree.order = JoinOrder::of(tree.relations.len(), &tree.edges);
        Ok((Node::InnerJoins(tree), origins))
    }

    fn node(&self, plan: &LogicalPlan) -> Result<(Node, Origins), OptError> {
        match plan {
            LogicalPlan::Scan { table, filter } => self.scan(*table, filter),
            LogicalPlan::Join {
                join_type: JoinType::Inner,
                ..
            } => self.inner_joins(plan),
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => {
                if on.is_empty() {
                    return Err(OptError::BadPlan {
                        reason: "join without conditions".to_string(),
                    });
                }
                let (left, mut origins) = self.node(left)?;
                let (right, right_origins) = self.node(right)?;
                let on = on
                    .iter()
                    .map(|c| {
                        (
                            self.ndv(&origins, c.left_col),
                            self.ndv(&right_origins, c.right_col),
                        )
                    })
                    .collect();
                if join_type.emits_right() {
                    origins.extend(right_origins);
                }
                let node = Node::OuterJoin(Box::new(left), Box::new(right), on, *join_type);
                Ok((node, origins))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (input, child_origins) = self.node(input)?;
                let mut origins: Origins = group_by
                    .iter()
                    .map(|&c| child_origins.get(c).copied().flatten())
                    .collect();
                origins.extend(std::iter::repeat_n(None, aggs.len()));
                let op = Op::Aggregate {
                    group_by: group_by
                        .iter()
                        .map(|&c| self.ndv(&child_origins, c))
                        .collect(),
                    n_aggs: aggs.len() as f64,
                    arg_ops: aggs
                        .iter()
                        .map(|a| a.arg.as_ref().map_or(0.0, |e| e.num_operators() as f64))
                        .sum(),
                };
                Ok((Node::Unary(Box::new(input), op), origins))
            }
            LogicalPlan::Project { input, exprs } => {
                let (input, child_origins) = self.node(input)?;
                let origins = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(c) => child_origins.get(*c).copied().flatten(),
                        _ => None,
                    })
                    .collect();
                let op = Op::Project {
                    ops: exprs.iter().map(|(e, _)| e.num_operators() as f64).sum(),
                    arity: exprs.len(),
                };
                Ok((Node::Unary(Box::new(input), op), origins))
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => {
                let (input, origins) = self.node(input)?;
                let op = match plan {
                    LogicalPlan::Filter { predicate, .. } => Op::Filter {
                        selectivity: card::filter_selectivity(predicate, &empty_stats()),
                        ops: predicate.num_operators() as f64,
                    },
                    LogicalPlan::Limit { limit, .. } => Op::Limit(*limit as f64),
                    _ => Op::Sort,
                };
                Ok((Node::Unary(Box::new(input), op), origins))
            }
        }
    }
}

impl PreparedQuery {
    /// Analyses `plan` against `db`'s catalog and statistics, offering
    /// `hypo` as hypothetical indexes beside the real ones (ids numbered
    /// past the catalog, in declaration order). Touches no data and no
    /// parameter vector.
    pub fn analyse(
        db: &Database,
        plan: &LogicalPlan,
        hypo: &[HypoIndex],
    ) -> Result<PreparedQuery, OptError> {
        let analyser = Analyser {
            db,
            hypo,
            working_set_pages: working_set_pages(db, plan),
        };
        Ok(PreparedQuery {
            root: analyser.node(plan)?.0,
        })
    }

    /// This analysis — of `plan` against `db` with no hypothetical index —
    /// with `hypo` offered instead: bit for bit what
    /// [`PreparedQuery::analyse`]`(db, plan, hypo)` returns. Only the scans
    /// on tables some index of `hypo` covers have their access paths
    /// re-derived; the rest of the analysis is copied.
    ///
    /// Fails with [`OptError::BadPlan`] when `plan`'s scans are not the
    /// ones analysed.
    pub fn offering(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        hypo: &[HypoIndex],
    ) -> Result<PreparedQuery, OptError> {
        let mut planned = Vec::new();
        plan_scans(plan, &mut planned);
        let mut offered = self.clone();
        let mut analysed = Vec::new();
        offered.root.scans_mut(&mut analysed);
        let same_scans = analysed.len() == planned.len()
            && (analysed.iter().zip(&planned)).all(|(scan, &(table, _))| scan.table == table);
        if !same_scans {
            return Err(OptError::BadPlan {
                reason: "offered indexes to an analysis of another plan".to_string(),
            });
        }
        for (scan, (table, filter)) in analysed.into_iter().zip(planned) {
            if hypo.iter().any(|h| h.table == table) {
                let stats = table_stats(db, table)?;
                scan.paths = scan_paths(db, hypo, table, stats, filter, scan.filter_ops);
            }
        }
        Ok(offered)
    }

    /// The join-order search analysis fixed for this query: how many splits
    /// a subset enumeration would visit per pricing pass against how many
    /// pricing walks, and what the split tables hold.
    pub fn join_splits(&self) -> JoinSplits {
        let mut total = JoinSplits::default();
        self.root.add_join_splits(&mut total);
        total
    }
}

impl Node {
    /// Every scan, in the order analysis built them.
    fn scans_mut<'n>(&'n mut self, out: &mut Vec<&'n mut Scan>) {
        match self {
            Node::Scan(scan) => out.push(scan),
            Node::InnerJoins(tree) => {
                for relation in &mut tree.relations {
                    relation.scans_mut(out);
                }
            }
            Node::OuterJoin(left, right, ..) => {
                left.scans_mut(out);
                right.scans_mut(out);
            }
            Node::Unary(input, _) => input.scans_mut(out),
        }
    }

    fn add_join_splits(&self, total: &mut JoinSplits) {
        match self {
            Node::Scan(_) => {}
            Node::InnerJoins(tree) => {
                if let JoinOrder::Dp(table) = &tree.order {
                    let n = tree.relations.len() as u32;
                    // Σ over subsets S of (2^|S| − 2) ordered cuts.
                    total.enumerated += (3usize.pow(n) + 1) - (2 << n);
                    total.connected += table.splits.len();
                    total.subsets += table.subsets.len();
                    total.bytes += table.bytes();
                }
                for relation in &tree.relations {
                    relation.add_join_splits(total);
                }
            }
            Node::OuterJoin(left, right, ..) => {
                left.add_join_splits(total);
                right.add_join_splits(total);
            }
            Node::Unary(input, _) => input.add_join_splits(total),
        }
    }
}
