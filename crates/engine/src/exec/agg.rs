//! Aggregation operators: hash aggregation and sorted-input aggregation.
//!
//! Neither keeps its input: both are pushed rows by `for_each_row` and read
//! only the columns their grouping keys and aggregate arguments name, so a
//! scan or a join feeding an aggregate never decodes a row. What they push
//! on is a view of a group's key values and aggregate states.

use super::{for_each_row, hash_words, RowSink};
use crate::runtime::{EngineError, ExecContext};
use crate::{AggExpr, AggFunc, PhysicalPlan};
use dbvirt_storage::{Datum, DatumRef, Row};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Running state of one aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    /// `(integer sum, float sum, saw_float, saw_any)` — SUM of integers
    /// stays integral, mixed input widens to float.
    Sum(i64, f64, bool, bool),
    Avg(f64, i64),
    Min(Option<Datum>),
    Max(Option<Datum>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count | AggFunc::CountStar => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0, 0.0, false, false),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, func: AggFunc, value: Option<DatumRef<'_>>) {
        match (self, func) {
            (AggState::Count(n), AggFunc::CountStar) => *n += 1,
            (AggState::Count(n), AggFunc::Count) => {
                if value.is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            (AggState::Sum(si, sf, saw_float, seen), _) => match value {
                Some(DatumRef::Int(v)) => {
                    // Wraps like `Expr::Arith` on the same values does.
                    *si = si.wrapping_add(v);
                    *seen = true;
                }
                Some(DatumRef::Float(v)) => {
                    *sf += v;
                    *saw_float = true;
                    *seen = true;
                }
                _ => {}
            },
            (AggState::Avg(sum, n), _) => {
                if let Some(v) = value.and_then(DatumRef::as_float) {
                    *sum += v;
                    *n += 1;
                }
            }
            (AggState::Min(cur), _) => Self::keep_extreme(cur, value, std::cmp::Ordering::Less),
            (AggState::Max(cur), _) => Self::keep_extreme(cur, value, std::cmp::Ordering::Greater),
            (AggState::Count(_), _) => unreachable!("count state with non-count func"),
        }
    }

    /// Replaces `cur` with `value` if it is non-NULL and compares `wanted`
    /// against it; only a value that wins is copied out of its row.
    fn keep_extreme(
        cur: &mut Option<Datum>,
        value: Option<DatumRef<'_>>,
        wanted: std::cmp::Ordering,
    ) {
        if let Some(v) = value.filter(|v| !v.is_null()) {
            let replace = cur
                .as_ref()
                .is_none_or(|c| v.total_cmp(DatumRef::of(c)) == wanted);
            if replace {
                *cur = Some(v.to_datum());
            }
        }
    }

    /// The aggregate's value over the rows seen so far.
    fn value(&self) -> DatumRef<'_> {
        match *self {
            AggState::Count(n) => DatumRef::Int(n),
            AggState::Sum(_, _, _, false) => DatumRef::Null,
            AggState::Sum(si, sf, true, _) => DatumRef::Float(sf + si as f64),
            AggState::Sum(si, ..) => DatumRef::Int(si),
            AggState::Avg(_, 0) => DatumRef::Null,
            AggState::Avg(sum, n) => DatumRef::Float(sum / n as f64),
            AggState::Min(ref v) | AggState::Max(ref v) => {
                v.as_ref().map_or(DatumRef::Null, DatumRef::of)
            }
        }
    }
}

/// One group: its key values and the running state of each aggregate.
type Group = (Vec<Datum>, Vec<AggState>);

/// A group as an output row: its key values, then each aggregate's value.
struct GroupRow<'a>(&'a Group);

impl Row for GroupRow<'_> {
    fn arity(&self) -> usize {
        let (key, states) = self.0;
        key.len() + states.len()
    }

    fn col(&self, idx: usize) -> DatumRef<'_> {
        let (key, states) = self.0;
        match idx.checked_sub(key.len()) {
            None => DatumRef::of(&key[idx]),
            Some(agg) => states[agg].value(),
        }
    }
}

fn make_states(aggs: &[AggExpr]) -> Vec<AggState> {
    aggs.iter().map(|a| AggState::new(a.func)).collect()
}

fn new_group(group_by: &[usize], aggs: &[AggExpr], row: &dyn Row) -> Group {
    (
        group_by.iter().map(|&c| row.col(c).to_datum()).collect(),
        make_states(aggs),
    )
}

fn update_states(states: &mut [AggState], aggs: &[AggExpr], row: &dyn Row) {
    for (state, agg) in states.iter_mut().zip(aggs) {
        let value = agg.arg.as_ref().map(|e| e.eval_ref(row));
        state.update(agg.func, value);
    }
}

fn charge(ctx: &mut ExecContext<'_>, rows: usize, aggs: &[AggExpr], hashed: bool) {
    let costs = ctx.costs;
    let ops: f64 = aggs
        .iter()
        .map(|a| a.arg.as_ref().map_or(0.0, |e| e.num_operators() as f64))
        .sum();
    let per_row = aggs.len() as f64 * costs.per_agg
        + ops * costs.per_operator
        + if hashed { costs.per_hash } else { 0.0 };
    ctx.charge_cpu(per_row * rows as f64);
}

/// A global aggregate: exactly one output row, even for empty input.
fn global_agg(
    ctx: &mut ExecContext<'_>,
    input: &PhysicalPlan,
    aggs: &[AggExpr],
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let mut rows_in = 0;
    let mut group = (Vec::new(), make_states(aggs));
    for_each_row(ctx, input, &mut |row| {
        rows_in += 1;
        update_states(&mut group.1, aggs, row);
    })?;
    charge(ctx, rows_in, aggs, false);
    sink(&GroupRow(&group));
    Ok(1)
}

/// Hashes a grouping key with [`hash_words`].
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = hash_words(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash aggregation: one group per distinct key, any input order.
pub(crate) fn hash_agg(
    ctx: &mut ExecContext<'_>,
    input: &PhysicalPlan,
    group_by: &[usize],
    aggs: &[AggExpr],
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    if group_by.is_empty() {
        return global_agg(ctx, input, aggs, sink);
    }

    // Groups in first-seen order (the deterministic output order), found
    // through the field encoding of their key columns. The key is built in
    // one buffer reused for every row and copied only when it opens a group.
    let mut rows_in = 0;
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize, BuildHasherDefault<KeyHasher>> = HashMap::default();
    let mut key = Vec::new();
    for_each_row(ctx, input, &mut |row| {
        rows_in += 1;
        key.clear();
        for &c in group_by {
            row.col(c).encode_into(&mut key);
        }
        let group = match index.get(key.as_slice()) {
            Some(&group) => group,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(new_group(group_by, aggs, row));
                groups.len() - 1
            }
        };
        update_states(&mut groups[group].1, aggs, row);
    })?;
    charge(ctx, rows_in, aggs, true);
    for group in &groups {
        sink(&GroupRow(group));
    }
    Ok(groups.len())
}

/// Aggregation over input sorted by the grouping columns: constant memory,
/// no hashing. A group is pushed on as soon as the next one opens.
pub(crate) fn sort_agg(
    ctx: &mut ExecContext<'_>,
    input: &PhysicalPlan,
    group_by: &[usize],
    aggs: &[AggExpr],
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    if group_by.is_empty() {
        return global_agg(ctx, input, aggs, sink);
    }

    let (mut rows_in, mut rows_out) = (0, 0);
    let mut current: Option<Group> = None;
    for_each_row(ctx, input, &mut |row| {
        rows_in += 1;
        let same = current.as_ref().is_some_and(|(key, _)| {
            key.iter()
                .zip(group_by)
                .all(|(k, &c)| DatumRef::of(k).total_cmp(row.col(c)) == std::cmp::Ordering::Equal)
        });
        if !same {
            if let Some(group) = current.take() {
                rows_out += 1;
                sink(&GroupRow(&group));
            }
        }
        // On a group change `current` was just drained, so this opens the
        // new group; otherwise it reuses the live one.
        let (_, states) = current.get_or_insert_with(|| new_group(group_by, aggs, row));
        update_states(states, aggs, row);
    })?;
    if let Some(group) = &current {
        rows_out += 1;
        sink(&GroupRow(group));
    }
    charge(ctx, rows_in, aggs, false);
    Ok(rows_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests_support::{context, scan_of, small_db};
    use crate::Expr;
    use dbvirt_storage::Tuple;

    fn rows(data: &[(&str, i64)]) -> Vec<Tuple> {
        data.iter()
            .map(|(g, v)| Tuple::new(vec![Datum::str(*g), Datum::Int(*v)]))
            .collect()
    }

    fn aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Sum, Expr::col(1), "total"),
            AggExpr::new(AggFunc::Avg, Expr::col(1), "mean"),
            AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
            AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
        ]
    }

    /// The shared signature of [`hash_agg`] and [`sort_agg`].
    type AggOp = fn(
        &mut ExecContext<'_>,
        &PhysicalPlan,
        &[usize],
        &[AggExpr],
        &mut RowSink<'_>,
    ) -> Result<usize, EngineError>;

    /// Runs `op` over `input` loaded into a scratch table.
    fn run(op: AggOp, input: Vec<Tuple>, group_by: &[usize], aggs: &[AggExpr]) -> Vec<Tuple> {
        let (mut db, mut pool) = small_db(1);
        let input = scan_of(&mut db, input);
        let mut ctx = context(&db, &mut pool);
        let mut out = Vec::new();
        let pushed = op(&mut ctx, &input, group_by, aggs, &mut |row| {
            out.push(row.to_tuple())
        });
        assert_eq!(pushed.unwrap(), out.len());
        out
    }

    #[test]
    fn hash_agg_groups_correctly() {
        let input = rows(&[("a", 1), ("b", 10), ("a", 3), ("b", 20), ("a", 5)]);
        let mut out = run(hash_agg, input, &[0], &aggs());
        out.sort_by(|x, y| x.get(0).total_cmp(y.get(0)));
        assert_eq!(out.len(), 2);
        let a = &out[0];
        assert_eq!(a.get(0).as_str(), Some("a"));
        assert_eq!(a.get(1), &Datum::Int(3)); // count
        assert_eq!(a.get(2), &Datum::Int(9)); // sum
        assert_eq!(a.get(3), &Datum::Float(3.0)); // avg
        assert_eq!(a.get(4), &Datum::Int(1)); // min
        assert_eq!(a.get(5), &Datum::Int(5)); // max
    }

    #[test]
    fn hash_agg_emits_groups_in_first_seen_order() {
        let input = rows(&[("b", 1), ("c", 1), ("a", 1), ("c", 1), ("b", 1)]);
        let out = run(hash_agg, input, &[0], &[AggExpr::count_star("n")]);
        let keys: Vec<&str> = out.iter().map(|t| t.get(0).as_str().unwrap()).collect();
        assert_eq!(keys, ["b", "c", "a"]);
    }

    #[test]
    fn sort_agg_matches_hash_agg_on_sorted_input() {
        let mut input = rows(&[("a", 1), ("b", 10), ("a", 3), ("c", 7), ("b", 20)]);
        input.sort_by(|x, y| x.get(0).total_cmp(y.get(0)));
        let via_sort = run(sort_agg, input.clone(), &[0], &aggs());
        let mut via_hash = run(hash_agg, input, &[0], &aggs());
        via_hash.sort_by(|x, y| x.get(0).total_cmp(y.get(0)));
        assert_eq!(via_sort, via_hash);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let out = run(hash_agg, vec![], &[], &aggs());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Datum::Int(0)); // count(*) = 0
        assert_eq!(out[0].get(1), &Datum::Null); // sum of nothing
        assert_eq!(out[0].get(2), &Datum::Null); // avg of nothing
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        assert!(run(hash_agg, vec![], &[0], &aggs()).is_empty());
        assert!(run(sort_agg, vec![], &[0], &aggs()).is_empty());
    }

    #[test]
    fn count_ignores_nulls_but_count_star_does_not() {
        let input = vec![
            Tuple::new(vec![Datum::str("a"), Datum::Int(1)]),
            Tuple::new(vec![Datum::str("a"), Datum::Null]),
        ];
        let aggs = vec![
            AggExpr::count_star("all"),
            AggExpr::new(AggFunc::Count, Expr::col(1), "nonnull"),
            AggExpr::new(AggFunc::Sum, Expr::col(1), "sum"),
        ];
        let out = run(hash_agg, input, &[0], &aggs);
        assert_eq!(out[0].get(1), &Datum::Int(2));
        assert_eq!(out[0].get(2), &Datum::Int(1));
        assert_eq!(out[0].get(3), &Datum::Int(1), "sum skips NULLs");
    }

    #[test]
    fn sum_widens_to_float_on_mixed_input() {
        let input = vec![
            Tuple::new(vec![Datum::str("a"), Datum::Int(1)]),
            Tuple::new(vec![Datum::str("a"), Datum::Float(0.5)]),
        ];
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
        let out = run(hash_agg, input, &[0], &aggs);
        assert_eq!(out[0].get(1), &Datum::Float(1.5));
    }

    /// Runs under both `cargo test` (overflow checks on) and
    /// `cargo test --release` (off): neither may panic, both must wrap.
    #[test]
    fn integer_sum_wraps_past_i64_max_like_arith_does() {
        let input = rows(&[("a", i64::MAX), ("a", 2)]);
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
        let wrapped = Datum::Int(i64::MIN + 1);
        for op in [hash_agg as AggOp, sort_agg] {
            assert_eq!(run(op, input.clone(), &[0], &aggs)[0].get(1), &wrapped);
            assert_eq!(run(op, input.clone(), &[], &aggs)[0].get(0), &wrapped);
        }
        let row = Tuple::new(vec![Datum::Int(i64::MAX), Datum::Int(2)]);
        assert_eq!(Expr::add(Expr::col(0), Expr::col(1)).eval(&row), wrapped);
    }

    #[test]
    fn agg_over_expression_argument() {
        let input = rows(&[("a", 2), ("a", 3)]);
        // sum(v * 10)
        let aggs = vec![AggExpr::new(
            AggFunc::Sum,
            Expr::mul(Expr::col(1), Expr::int(10)),
            "s",
        )];
        let out = run(hash_agg, input, &[0], &aggs);
        assert_eq!(out[0].get(1), &Datum::Int(50));
    }
}
