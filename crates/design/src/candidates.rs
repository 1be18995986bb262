//! Candidate-index enumeration from bound predicates.
//!
//! Walks a workload's logical plans, collects every sargable
//! `(table, column)` — columns compared to literals, `LIKE` prefix
//! patterns, `IN` lists — and turns them into candidate secondary
//! indexes: one single-column candidate per sargable column, plus bounded
//! two-column composites for columns that co-occur in one scan's
//! conjunction with an equality on the leading column (the classic
//! merge-eligible shape). Candidates whose exact column list already
//! exists as a real index are dropped, the remainder is deterministically
//! ordered, and the set is truncated to [`enumerate_candidates`]'s cap
//! (the overflow is counted as pruned).

use dbvirt_engine::{Database, Expr, TableId};
use dbvirt_optimizer::card::like_prefix;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_storage::BPlusTree;
use std::collections::{BTreeMap, BTreeSet};

/// A candidate secondary index: a table, an ordered column list, and the
/// estimated B+tree footprint a real build would have (the same
/// `bulk_geometry` arithmetic the what-if planner prices with).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexCandidate {
    /// The indexed table.
    pub table: TableId,
    /// Key columns, major first.
    pub columns: Vec<usize>,
    /// Estimated index size in pages (the storage-budget currency).
    pub pages: u64,
}

/// One query's sargable surface: the `(table, column)` pairs usable as
/// index keys, split by whether an equality conjunct exists on them.
#[derive(Debug, Clone, Default)]
struct QuerySargs {
    /// Columns with an equality-shaped conjunct (`=`, `IN`).
    eq: BTreeSet<(TableId, usize)>,
    /// All sargable columns (equality, range, `LIKE` prefix).
    any: BTreeSet<(TableId, usize)>,
}

/// The enumerated candidate set for one workload.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidates, deterministically ordered by `(table, columns)`.
    pub candidates: Vec<IndexCandidate>,
    /// `relevant[q]` lists the candidate indices usable by query `q`
    /// (their leading column is sargable in `q`).
    pub relevant: Vec<Vec<usize>>,
    /// Candidates dropped by the enumeration cap.
    pub pruned: usize,
}

impl CandidateSet {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when enumeration produced nothing.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

fn split_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::And(a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// The sargable column of one conjunct, with its equality-ness, if any.
fn sargable_column(conjunct: &Expr) -> Option<(usize, bool)> {
    match conjunct {
        Expr::Cmp { op, lhs, rhs } => {
            use dbvirt_engine::CmpOp;
            if matches!(op, CmpOp::Ne) {
                return None;
            }
            match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column(c), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(c)) => {
                    Some((*c, matches!(op, CmpOp::Eq)))
                }
                _ => None,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated: false,
        } => match expr.as_ref() {
            Expr::Column(c) if like_prefix(pattern).is_some() => Some((*c, false)),
            _ => None,
        },
        Expr::InList { expr, .. } => match expr.as_ref() {
            Expr::Column(c) => Some((*c, true)),
            _ => None,
        },
        _ => None,
    }
}

/// Collects every `Scan` node's sargable surface into `sargs`, and
/// records composite opportunities (eq column, other sargable column on
/// the same scan) into `pairs`.
fn walk(plan: &LogicalPlan, sargs: &mut QuerySargs, pairs: &mut BTreeSet<(TableId, usize, usize)>) {
    match plan {
        LogicalPlan::Scan { table, filter } => {
            let Some(filter) = filter else { return };
            let mut conjuncts = Vec::new();
            split_conjuncts(filter, &mut conjuncts);
            let mut eq_cols = BTreeSet::new();
            let mut any_cols = BTreeSet::new();
            for c in conjuncts {
                if let Some((col, is_eq)) = sargable_column(c) {
                    any_cols.insert(col);
                    if is_eq {
                        eq_cols.insert(col);
                    }
                }
            }
            for &c in &any_cols {
                sargs.any.insert((*table, c));
            }
            for &c in &eq_cols {
                sargs.eq.insert((*table, c));
                for &other in &any_cols {
                    if other != c {
                        pairs.insert((*table, c, other));
                    }
                }
            }
        }
        LogicalPlan::Join { left, right, .. } => {
            walk(left, sargs, pairs);
            walk(right, sargs, pairs);
        }
        LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => walk(input, sargs, pairs),
    }
}

fn candidate_pages(db: &Database, table: TableId) -> u64 {
    let n_rows = db
        .table(table)
        .stats
        .as_ref()
        .map(|s| s.n_rows)
        .unwrap_or(0);
    let (_, pages) = BPlusTree::bulk_geometry(n_rows as usize);
    pages as u64
}

/// Enumerates candidate indexes for a workload against `db`, capped at
/// `max_candidates` (overflow counts as pruned). Real indexes with the
/// identical column list are excluded — they already exist.
pub fn enumerate_candidates(
    db: &Database,
    queries: &[LogicalPlan],
    max_candidates: usize,
) -> CandidateSet {
    let mut per_query: Vec<QuerySargs> = Vec::with_capacity(queries.len());
    let mut keys: BTreeSet<(TableId, Vec<usize>)> = BTreeSet::new();
    for q in queries {
        let mut sargs = QuerySargs::default();
        let mut pairs = BTreeSet::new();
        walk(q, &mut sargs, &mut pairs);
        for &(t, c) in &sargs.any {
            keys.insert((t, vec![c]));
        }
        for &(t, a, b) in &pairs {
            keys.insert((t, vec![a, b]));
        }
        per_query.push(sargs);
    }

    // Drop candidates that already exist as real indexes.
    let existing: BTreeSet<(TableId, Vec<usize>)> = db
        .indexes()
        .map(|(_, meta)| (meta.table, meta.columns.clone()))
        .collect();
    keys.retain(|k| !existing.contains(k));

    // Deterministic order (BTreeSet iteration), then the cap.
    let mut sizes: BTreeMap<TableId, u64> = BTreeMap::new();
    let all: Vec<IndexCandidate> = keys
        .into_iter()
        .map(|(table, columns)| {
            let pages = *sizes
                .entry(table)
                .or_insert_with(|| candidate_pages(db, table));
            IndexCandidate {
                table,
                columns,
                pages,
            }
        })
        .collect();
    let pruned = all.len().saturating_sub(max_candidates);
    let candidates: Vec<IndexCandidate> = all.into_iter().take(max_candidates).collect();

    let relevant = per_query
        .iter()
        .map(|sargs| {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, cand)| {
                    let lead = (cand.table, cand.columns[0]);
                    match cand.columns.len() {
                        1 => sargs.any.contains(&lead),
                        _ => {
                            sargs.eq.contains(&lead)
                                && sargs.any.contains(&(cand.table, cand.columns[1]))
                        }
                    }
                })
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    CandidateSet {
        candidates,
        relevant,
        pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    fn db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("s", DataType::Str),
            ]),
        );
        db.insert_rows(
            t,
            (0..500).map(|i| {
                Tuple::new(vec![
                    Datum::Int(i),
                    Datum::Int(i % 7),
                    Datum::str(format!("v{i:03}")),
                ])
            }),
        )
        .unwrap();
        db.analyze_all().unwrap();
        (db, t)
    }

    #[test]
    fn single_and_composite_candidates_from_predicates() {
        let (db, t) = db();
        // a = 3 AND b < 5: singles on a and b, composite (a, b) with the
        // equality leading.
        let q = LogicalPlan::scan_filtered(
            t,
            Expr::and(
                Expr::eq(Expr::col(0), Expr::int(3)),
                Expr::lt(Expr::col(1), Expr::int(5)),
            ),
        );
        let set = enumerate_candidates(&db, &[q], 16);
        let cols: Vec<Vec<usize>> = set.candidates.iter().map(|c| c.columns.clone()).collect();
        assert_eq!(cols, vec![vec![0], vec![0, 1], vec![1]]);
        assert_eq!(set.relevant[0], vec![0, 1, 2]);
        assert_eq!(set.pruned, 0);
        assert!(set.candidates.iter().all(|c| c.pages > 0));
    }

    #[test]
    fn like_prefix_and_in_list_are_sargable() {
        let (db, t) = db();
        let q = LogicalPlan::scan_filtered(
            t,
            Expr::and(
                Expr::like(Expr::col(2), "v0%"),
                Expr::in_list(Expr::col(1), vec![Datum::Int(1), Datum::Int(2)]),
            ),
        );
        let set = enumerate_candidates(&db, &[q], 16);
        let cols: Vec<Vec<usize>> = set.candidates.iter().map(|c| c.columns.clone()).collect();
        // IN is equality-shaped, so (b, s) is a composite; the non-prefix
        // wildcard column still yields its single candidate.
        assert_eq!(cols, vec![vec![1], vec![1, 2], vec![2]]);
    }

    #[test]
    fn existing_indexes_are_excluded_and_cap_counts_pruned() {
        let (mut db, t) = db();
        db.create_index("t_a", t, 0).unwrap();
        let q = LogicalPlan::scan_filtered(
            t,
            Expr::and(
                Expr::eq(Expr::col(0), Expr::int(3)),
                Expr::lt(Expr::col(1), Expr::int(5)),
            ),
        );
        let set = enumerate_candidates(&db, std::slice::from_ref(&q), 16);
        let cols: Vec<Vec<usize>> = set.candidates.iter().map(|c| c.columns.clone()).collect();
        assert_eq!(cols, vec![vec![0, 1], vec![1]], "single [0] exists already");

        let capped = enumerate_candidates(&db, &[q], 1);
        assert_eq!(capped.len(), 1);
        assert_eq!(capped.pruned, 1);
    }

    #[test]
    fn non_sargable_shapes_yield_nothing() {
        let (db, t) = db();
        // col-col comparison, NOT LIKE, arithmetic on the column: none are
        // index-usable.
        let q = LogicalPlan::scan_filtered(
            t,
            Expr::and(
                Expr::lt(Expr::col(0), Expr::col(1)),
                Expr::and(
                    Expr::not_like(Expr::col(2), "v%"),
                    Expr::eq(Expr::add(Expr::col(0), Expr::int(1)), Expr::int(2)),
                ),
            ),
        );
        let set = enumerate_candidates(&db, &[q], 16);
        assert!(set.is_empty());
    }

    #[test]
    fn relevance_is_per_query() {
        let (db, t) = db();
        let qa = LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(0), Expr::int(1)));
        let qb = LogicalPlan::scan_filtered(t, Expr::lt(Expr::col(1), Expr::int(3)));
        let set = enumerate_candidates(&db, &[qa, qb], 16);
        let cols: Vec<Vec<usize>> = set.candidates.iter().map(|c| c.columns.clone()).collect();
        assert_eq!(cols, vec![vec![0], vec![1]]);
        assert_eq!(set.relevant[0], vec![0]);
        assert_eq!(set.relevant[1], vec![1]);
    }
}
