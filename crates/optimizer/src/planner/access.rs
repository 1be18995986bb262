//! Access-path candidates of one filtered base-table scan: which indexes
//! the filter can drive, over which key ranges, at what selectivity. A pure
//! function of the catalog, the statistics and the filter — no `P` in sight
//! — shared by analysis (which keeps each candidate's costing operands) and
//! materialisation (which keeps the winner's key bounds and residual filter).

use super::HypoIndex;
use crate::card;
use crate::cost::ArmStats;
use dbvirt_engine::{CmpOp, Database, Expr, IndexId, TableId};
use dbvirt_storage::{keyenc, BPlusTree, DataType, Datum, Schema, TableStats};
use std::borrow::Cow;
use std::ops::Bound;

/// Max per-arm selectivity for an index to participate in a multi-index
/// AND/OR (the fanout gate: wide arms make intersection/union pointless).
const MULTI_INDEX_ARM_MAX_SEL: f64 = 0.25;
/// Max arms of a multi-index AND (each arm pays a full index probe).
const MULTI_INDEX_MAX_ARMS: usize = 4;

/// One index probed over one key range, with its costing operands.
#[derive(Debug, Clone)]
pub(super) struct Probe {
    pub index: IndexId,
    pub lo: Bound<Datum>,
    pub hi: Bound<Datum>,
    /// Index geometry plus the fraction of entries the range selects.
    pub stats: ArmStats,
}

/// What an index access still has to check on each fetched tuple.
#[derive(Debug)]
pub(super) enum Residual<'e> {
    /// The conjuncts the key range does not already decide.
    Terms(Vec<&'e Expr>),
    /// The whole original filter (the key ranges over-cover).
    WholeFilter,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum PathKind {
    /// A single- or composite-index range scan: one probe.
    Index,
    /// Intersection of selective single-column range scans.
    And,
    /// Union of one probe per disjunct.
    Or,
}

/// One way to answer the scan other than reading the whole heap.
#[derive(Debug)]
pub(super) struct AccessPath<'e> {
    pub kind: PathKind,
    pub probes: Vec<Probe>,
    /// Fraction of the table's rows fetched from the heap.
    pub combined: f64,
    pub residual: Residual<'e>,
}

/// One menu entry: a real catalog index or a hypothetical one (id numbered
/// past the catalog), with its (actual or computed) B+tree geometry.
struct IndexInfo<'a> {
    id: IndexId,
    columns: &'a [usize],
    height: f64,
    pages: f64,
    entries: f64,
}

impl IndexInfo<'_> {
    fn probe(&self, lo: Bound<Datum>, hi: Bound<Datum>, selectivity: f64) -> Probe {
        Probe {
            index: self.id,
            lo,
            hi,
            stats: ArmStats {
                height: self.height,
                pages: self.pages,
                entries: self.entries,
                selectivity,
            },
        }
    }
}

/// Real indexes on `table` (catalog order) followed by hypothetical ones
/// (declaration order, ids continuing past the catalog).
fn index_menu<'a>(
    db: &'a Database,
    hypo: &'a [HypoIndex],
    table: TableId,
    stats: &TableStats,
) -> Vec<IndexInfo<'a>> {
    let mut menu: Vec<IndexInfo<'a>> = db
        .table(table)
        .indexes
        .iter()
        .map(|&id| {
            let t = db.index_tree(id);
            IndexInfo {
                id,
                columns: &db.index(id).columns,
                height: t.height() as f64,
                pages: t.num_pages() as f64,
                entries: t.len() as f64,
            }
        })
        .collect();
    let base = db.num_indexes();
    for (i, h) in hypo.iter().enumerate() {
        if h.table != table {
            continue;
        }
        let (height, pages) = BPlusTree::bulk_geometry(stats.n_rows as usize);
        menu.push(IndexInfo {
            id: IndexId(base + i),
            columns: &h.columns,
            height: height as f64,
            pages: pages as f64,
            entries: stats.n_rows as f64,
        });
    }
    menu
}

/// Splits a disjunction into its top-level disjuncts.
fn split_disjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Or(l, r) => {
            split_disjuncts(l, out);
            split_disjuncts(r, out);
        }
        other => out.push(other),
    }
}

/// Coerces a literal to a column's type for index-key comparison; `None`
/// when no order-preserving coercion exists (the predicate then stays a
/// residual filter).
fn coerce_literal(lit: &Datum, ty: DataType) -> Option<Datum> {
    match (lit, ty) {
        (Datum::Int(i), DataType::Float) => Some(Datum::Float(*i as f64)),
        _ if lit.data_type() == Some(ty) => Some(lit.clone()),
        _ => None,
    }
}

/// Key bounds and bookkeeping extracted for one single-column index from
/// a conjunct list.
struct ColBounds<'e> {
    lo: Bound<Datum>,
    hi: Bound<Datum>,
    /// Remaining conjuncts (applied as the residual filter).
    residual: Vec<&'e Expr>,
    /// Estimated fraction of the index's entries the bounds select.
    selectivity: f64,
}

/// Extracts single-column key bounds on `column` from `conjuncts`:
/// comparison sargs plus `LIKE 'prefix%'` ranges on string columns.
fn single_col_bounds<'e>(
    conjuncts: &[&'e Expr],
    column: usize,
    col_type: DataType,
    stats: &TableStats,
) -> Option<ColBounds<'e>> {
    let mut lo: Bound<Datum> = Bound::Unbounded;
    let mut hi: Bound<Datum> = Bound::Unbounded;
    let mut residual: Vec<&Expr> = Vec::new();
    let mut bound_terms: Vec<Cow<'e, Expr>> = Vec::new();
    for &c in conjuncts {
        if let Some((_, op, literal)) = card::as_col_cmp(c).filter(|s| s.0 == column) {
            match op {
                CmpOp::Eq => {
                    lo = Bound::Included(literal.clone());
                    hi = Bound::Included(literal.clone());
                }
                CmpOp::Lt => hi = Bound::Excluded(literal.clone()),
                CmpOp::Le => hi = Bound::Included(literal.clone()),
                CmpOp::Gt => lo = Bound::Excluded(literal.clone()),
                CmpOp::Ge => lo = Bound::Included(literal.clone()),
                CmpOp::Ne => {
                    residual.push(c);
                    continue;
                }
            }
            bound_terms.push(Cow::Borrowed(c));
            continue;
        }
        // LIKE 'prefix%' on a string column: the prefix is a key range.
        if let Expr::Like {
            expr,
            pattern,
            negated: false,
        } = c
        {
            if matches!(expr.as_ref(), Expr::Column(lc) if *lc == column)
                && col_type == DataType::Str
            {
                if let Some((prefix, exact)) = card::like_prefix(pattern) {
                    lo = Bound::Included(Datum::str(prefix.clone()));
                    hi = match card::string_prefix_successor(&prefix) {
                        Some(succ) => {
                            bound_terms.push(Cow::Owned(Expr::lt(
                                Expr::col(column),
                                Expr::str(succ.clone()),
                            )));
                            Bound::Excluded(Datum::str(succ))
                        }
                        None => Bound::Unbounded,
                    };
                    bound_terms.push(Cow::Owned(Expr::ge(Expr::col(column), Expr::str(prefix))));
                    if !exact {
                        // The range over-covers; re-check the pattern.
                        residual.push(c);
                    }
                    continue;
                }
            }
        }
        residual.push(c);
    }
    if bound_terms.is_empty() {
        return None;
    }
    let terms: Vec<&Expr> = bound_terms.iter().map(Cow::as_ref).collect();
    Some(ColBounds {
        lo,
        hi,
        residual,
        selectivity: card::conjuncts_selectivity(&terms, stats),
    })
}

/// Encoded key bounds for a composite index given an equality prefix and
/// an optional range on the following key column (see `storage::keyenc`
/// for why the sentinel arithmetic is sound).
fn composite_bounds(
    prefix: &[Datum],
    range: Option<&(Bound<Datum>, Bound<Datum>)>,
) -> (Bound<Datum>, Bound<Datum>) {
    let ext = |v: &Datum| {
        let mut p = prefix.to_vec();
        p.push(v.clone());
        p
    };
    match range {
        None => (
            Bound::Included(keyenc::encode_key(prefix)),
            Bound::Excluded(keyenc::encode_prefix_upper(prefix)),
        ),
        Some((lo, hi)) => {
            let lo_enc = match lo {
                Bound::Included(v) => Bound::Included(keyenc::encode_key(&ext(v))),
                Bound::Excluded(v) => Bound::Included(keyenc::encode_prefix_upper(&ext(v))),
                Bound::Unbounded if prefix.is_empty() => Bound::Unbounded,
                Bound::Unbounded => Bound::Included(keyenc::encode_key(prefix)),
            };
            let hi_enc = match hi {
                Bound::Included(v) => Bound::Excluded(keyenc::encode_prefix_upper(&ext(v))),
                Bound::Excluded(v) => Bound::Excluded(keyenc::encode_key(&ext(v))),
                Bound::Unbounded if prefix.is_empty() => Bound::Unbounded,
                Bound::Unbounded => Bound::Excluded(keyenc::encode_prefix_upper(prefix)),
            };
            (lo_enc, hi_enc)
        }
    }
}

/// Encoded key bounds + selectivity for a composite index: an equality
/// prefix over the leading key columns, optionally extended by a range on
/// the next one. `None` when the filter doesn't constrain the leading
/// column.
fn composite_col_bounds(
    conjuncts: &[&Expr],
    columns: &[usize],
    schema: &Schema,
    stats: &TableStats,
) -> Option<(Bound<Datum>, Bound<Datum>, f64)> {
    let mut prefix: Vec<Datum> = Vec::new();
    let mut matched: Vec<&Expr> = Vec::new();
    let mut range: Option<(Bound<Datum>, Bound<Datum>)> = None;
    for &col in columns {
        let ty = schema.field(col).data_type;
        // An equality pins the column and extends the prefix.
        let eq = conjuncts.iter().find_map(|&c| {
            card::as_col_cmp(c)
                .filter(|s| s.0 == col && s.1 == CmpOp::Eq)
                .and_then(|s| coerce_literal(s.2, ty).map(|lit| (lit, c)))
        });
        if let Some((lit, term)) = eq {
            prefix.push(lit);
            matched.push(term);
            continue;
        }
        // Otherwise a range on this column ends the prefix.
        let mut lo: Bound<Datum> = Bound::Unbounded;
        let mut hi: Bound<Datum> = Bound::Unbounded;
        for &c in conjuncts {
            let Some((_, op, literal)) = card::as_col_cmp(c).filter(|s| s.0 == col) else {
                continue;
            };
            let Some(lit) = coerce_literal(literal, ty) else {
                continue;
            };
            match op {
                CmpOp::Lt => hi = Bound::Excluded(lit),
                CmpOp::Le => hi = Bound::Included(lit),
                CmpOp::Gt => lo = Bound::Excluded(lit),
                CmpOp::Ge => lo = Bound::Included(lit),
                CmpOp::Eq | CmpOp::Ne => continue,
            }
            matched.push(c);
        }
        if !matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
            range = Some((lo, hi));
        }
        break;
    }
    if matched.is_empty() {
        return None;
    }
    let selectivity = card::conjuncts_selectivity(&matched, stats);
    let (lo, hi) = composite_bounds(&prefix, range.as_ref());
    Some((lo, hi, selectivity))
}

/// Every index access path `filter` can drive on `table`, in the order the
/// planner compares them (ties go to the earlier candidate): one range scan
/// per usable index in menu order — single-column and composite-prefix —
/// then a fanout-gated multi-index intersection, then a multi-index union.
pub(super) fn access_paths<'e>(
    db: &Database,
    hypo: &[HypoIndex],
    table: TableId,
    stats: &TableStats,
    filter: &'e Expr,
) -> Vec<AccessPath<'e>> {
    let schema = &db.table(table).schema;
    let mut conjuncts = Vec::new();
    card::split_and(filter, &mut conjuncts);
    let menu = index_menu(db, hypo, table, stats);

    let mut paths: Vec<AccessPath<'e>> = Vec::new();
    // Single-column range scans as (menu position, path position): the pool
    // multi-index intersections draw arms from.
    let mut arm_pool: Vec<(usize, usize)> = Vec::new();
    for (pos, info) in menu.iter().enumerate() {
        let (probe, residual) = if let [col] = *info.columns {
            let col_type = schema.field(col).data_type;
            let Some(cb) = single_col_bounds(&conjuncts, col, col_type, stats) else {
                continue;
            };
            arm_pool.push((pos, paths.len()));
            (
                info.probe(cb.lo, cb.hi, cb.selectivity),
                Residual::Terms(cb.residual),
            )
        } else {
            // Composite index: encoded prefix (+ range) bounds. The full
            // original filter stays as the residual — the encoded range is
            // a superset of the qualifying rows, never a subset.
            let Some((lo, hi, selectivity)) =
                composite_col_bounds(&conjuncts, info.columns, schema, stats)
            else {
                continue;
            };
            (info.probe(lo, hi, selectivity), Residual::WholeFilter)
        };
        paths.push(AccessPath {
            kind: PathKind::Index,
            combined: probe.stats.selectivity,
            probes: vec![probe],
            residual,
        });
    }

    // Multi-index intersection over selective single-column arms
    // (fanout-gated; every arm pays its own index probe, so the cost
    // comparison rejects useless extra arms via the seq/single baselines).
    let mut and_arms: Vec<(usize, &Probe)> = arm_pool
        .iter()
        .map(|&(pos, path)| (pos, &paths[path].probes[0]))
        .filter(|(_, probe)| probe.stats.selectivity <= MULTI_INDEX_ARM_MAX_SEL)
        .collect();
    and_arms.sort_by(|a, b| {
        let by_selectivity = a.1.stats.selectivity.total_cmp(&b.1.stats.selectivity);
        by_selectivity.then(a.0.cmp(&b.0))
    });
    and_arms.truncate(MULTI_INDEX_MAX_ARMS);
    // Distinct columns only: two arms on one column add probes, not power.
    let mut seen_cols: Vec<usize> = Vec::new();
    and_arms.retain(|&(pos, _)| {
        let col = menu[pos].columns[0];
        let fresh = !seen_cols.contains(&col);
        seen_cols.push(col);
        fresh
    });
    if and_arms.len() >= 2 {
        let probes: Vec<Probe> = and_arms.iter().map(|&(_, probe)| probe.clone()).collect();
        let combined: f64 = probes.iter().map(|p| p.stats.selectivity).product();
        paths.push(AccessPath {
            kind: PathKind::And,
            probes,
            combined: combined.clamp(0.0, 1.0),
            residual: Residual::WholeFilter,
        });
    }

    // Multi-index union when the whole filter is a disjunction and every
    // disjunct is sargable on some single-column index.
    if let [only @ Expr::Or(..)] = conjuncts[..] {
        let mut disjuncts = Vec::new();
        split_disjuncts(only, &mut disjuncts);
        let mut or_arms: Vec<Probe> = Vec::new();
        for d in disjuncts {
            let mut d_terms = Vec::new();
            card::split_and(d, &mut d_terms);
            // Cheapest sargable arm for this disjunct, menu order on ties.
            let mut arm: Option<Probe> = None;
            for info in &menu {
                let [col] = *info.columns else {
                    continue;
                };
                let col_type = schema.field(col).data_type;
                let Some(cb) = single_col_bounds(&d_terms, col, col_type, stats) else {
                    continue;
                };
                if cb.selectivity > MULTI_INDEX_ARM_MAX_SEL {
                    continue;
                }
                if arm
                    .as_ref()
                    .is_none_or(|best| cb.selectivity < best.stats.selectivity)
                {
                    arm = Some(info.probe(cb.lo, cb.hi, cb.selectivity));
                }
            }
            match arm {
                Some(arm) => or_arms.push(arm),
                // An uncovered disjunct needs the heap scan anyway.
                None => return paths,
            }
        }
        if or_arms.len() >= 2 {
            let combined: f64 = or_arms.iter().map(|p| p.stats.selectivity).sum();
            paths.push(AccessPath {
                kind: PathKind::Or,
                probes: or_arms,
                combined: combined.clamp(0.0, 1.0),
                residual: Residual::WholeFilter,
            });
        }
    }
    paths
}
