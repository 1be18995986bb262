//! Join operators: hash, merge, and nested-loop.
//!
//! All three keep both inputs — the left one is run to its end before the
//! right one starts — as encoded records in a [`RowBuf`] each, and push
//! each output pair to their consumer as a [`Joined`] view of two kept
//! rows: no joined tuple is built unless the consumer builds one.

use super::{collect, hash_words, RowSink};
use crate::runtime::{EngineError, ExecContext, SpillEvent};
use crate::{Expr, JoinType, PhysicalPlan};
use dbvirt_storage::{Datum, Joined, Row, RowBuf, Tuple, TupleView};
use dbvirt_telemetry::SpanGuard;
use std::cmp::Ordering;

/// The row a left join pairs an unmatched left row with.
fn null_pad(ctx: &ExecContext<'_>, right: &PhysicalPlan) -> Tuple {
    Tuple::new(vec![Datum::Null; right.output_schema(ctx.db).len()])
}

/// Hash of a row's join key — the field bytes of its key columns — or
/// `None` when a key column is NULL (NULL never matches in an equi-join).
fn key_hash(row: &TupleView<'_>, keys: &[usize]) -> Option<u64> {
    let mut hash = 0u64;
    for &key in keys {
        if row.is_null(key) {
            return None;
        }
        hash = hash_words(hash, row.field_bytes(key));
    }
    Some(hash)
}

/// End of a [`HashTable`] chain. Never a row index: every kept record takes
/// at least two of a `RowBuf`'s at most 2^32 bytes.
const END: u32 = u32::MAX;

/// The build side of a hash join: its rows chained by key hash, each chain
/// in build order.
struct HashTable<'b> {
    rows: &'b RowBuf,
    keys: &'b [usize],
    /// `hash >> shift` is a row's bucket.
    shift: u32,
    /// First row of each bucket's chain.
    heads: Vec<u32>,
    /// The row after each row in its chain.
    next: Vec<u32>,
}

impl<'b> HashTable<'b> {
    fn build(rows: &'b RowBuf, keys: &'b [usize]) -> HashTable<'b> {
        let buckets = rows.len().next_power_of_two().max(2);
        let shift = u64::BITS - buckets.trailing_zeros();
        let mut heads = vec![END; buckets];
        let mut next = vec![END; rows.len()];
        // Last row first, each pushed on the front: chains run in build order.
        for row in (0..rows.len()).rev() {
            if let Some(hash) = key_hash(&rows.get(row), keys) {
                let head = &mut heads[(hash >> shift) as usize];
                next[row] = *head;
                *head = row as u32;
            }
        }
        HashTable {
            rows,
            keys,
            shift,
            heads,
            next,
        }
    }

    /// The build rows whose key equals `probe`'s — same kind and same bits
    /// in every key column — in build order.
    fn matches<'p>(
        &'p self,
        probe: &'p TupleView<'_>,
        probe_keys: &'p [usize],
    ) -> impl Iterator<Item = TupleView<'b>> + 'p {
        let mut at = key_hash(probe, probe_keys)
            .map_or(END, |hash| self.heads[(hash >> self.shift) as usize]);
        std::iter::from_fn(move || {
            while at != END {
                let row = self.rows.get(at as usize);
                at = self.next[at as usize];
                let mut pairs = probe_keys.iter().zip(self.keys);
                if pairs.all(|(&p, &b)| probe.field_bytes(p) == row.field_bytes(b)) {
                    return Some(row);
                }
            }
            None
        })
    }
}

/// Hash join: build on the right input, probe with the left.
pub(crate) fn hash_join(
    ctx: &mut ExecContext<'_>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    (left_keys, right_keys): (&[usize], &[usize]),
    join_type: JoinType,
    span: &mut SpanGuard<'_>,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let probe = collect(ctx, left)?;
    let build = collect(ctx, right)?;
    let costs = ctx.costs;

    let build_bytes = build.encoded_bytes();
    ctx.record_spill(SpillEvent::HashJoin {
        build_bytes,
        probe_bytes: probe.encoded_bytes(),
    });
    let batches = SpillEvent::hash_batches(build_bytes, ctx.work_mem_bytes);
    span.set_attr("build_rows", build.len());
    span.set_attr("probe_rows", probe.len());
    span.set_attr("spill_batches", batches);

    let table = HashTable::build(&build, right_keys);
    ctx.charge_cpu(costs.per_hash * (build.len() + probe.len()) as f64);

    let pad = null_pad(ctx, right);
    let mut out = 0usize;
    let mut emit = |row: &dyn Row| {
        out += 1;
        sink(row);
    };
    for l in probe.iter() {
        let mut matches = table.matches(&l, left_keys).peekable();
        match join_type {
            JoinType::Left if matches.peek().is_none() => emit(&Joined {
                left: &l,
                right: &pad,
            }),
            JoinType::Inner | JoinType::Left => {
                for m in matches {
                    emit(&Joined {
                        left: &l,
                        right: &m,
                    });
                }
            }
            JoinType::Semi if matches.peek().is_some() => emit(&l),
            JoinType::Anti if matches.peek().is_none() => emit(&l),
            JoinType::Semi | JoinType::Anti => {}
        }
    }
    ctx.charge_cpu(costs.per_tuple * out as f64);
    Ok(out)
}

/// Merge join of inputs sorted on their join keys (inner join only).
/// Duplicate key groups produce the full cross product, as required.
pub(crate) fn merge_join(
    ctx: &mut ExecContext<'_>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    (left_key, right_key): (usize, usize),
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let left = collect(ctx, left)?;
    let right = collect(ctx, right)?;
    let costs = ctx.costs;
    ctx.charge_cpu(costs.per_tuple * (left.len() + right.len()) as f64);

    let mut out = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lk = left.get(i).get(left_key);
        let rk = right.get(j).get(right_key);
        match lk.sql_cmp(rk) {
            None => {
                // Incomparable keys never match. This covers NULL on either
                // side *and* NaN floats (`sql_cmp` is a partial order); the
                // incomparable side must be the one skipped, otherwise a
                // NaN/NULL left key would wrongly advance the right cursor
                // past rows that later left keys still match.
                let l_bad = lk.is_null() || lk.as_float().is_some_and(f64::is_nan);
                if l_bad {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            Some(Ordering::Less) => i += 1,
            Some(Ordering::Greater) => j += 1,
            Some(Ordering::Equal) => {
                // Find both duplicate groups. The scans start one past the
                // current row (`Equal` already proved row i / row j belong
                // to the group).
                let mut i_end = i + 1;
                while i_end < left.len()
                    && left.get(i_end).get(left_key).sql_cmp(lk) == Some(Ordering::Equal)
                {
                    i_end += 1;
                }
                let mut j_end = j + 1;
                while j_end < right.len()
                    && right.get(j_end).get(right_key).sql_cmp(rk) == Some(Ordering::Equal)
                {
                    j_end += 1;
                }
                for l in (i..i_end).map(|l| left.get(l)) {
                    for r in (j..j_end).map(|r| right.get(r)) {
                        out += 1;
                        sink(&Joined {
                            left: &l,
                            right: &r,
                        });
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    ctx.charge_cpu(costs.per_tuple * out as f64);
    Ok(out)
}

/// Nested-loop join with an arbitrary predicate over the concatenated row.
pub(crate) fn nested_loop_join(
    ctx: &mut ExecContext<'_>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    predicate: Option<&Expr>,
    join_type: JoinType,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let pad = null_pad(ctx, right);
    let left = collect(ctx, left)?;
    let right = collect(ctx, right)?;
    let costs = ctx.costs;
    let ops = predicate.map_or(0.0, |p| p.num_operators() as f64);
    let pairs = left.len() as f64 * right.len() as f64;
    ctx.charge_cpu(pairs * (costs.per_tuple + ops * costs.per_operator));

    let mut out = 0usize;
    let mut emit = |row: &dyn Row| {
        out += 1;
        sink(row);
    };
    for l in left.iter() {
        let mut matched = false;
        for r in right.iter() {
            let joined = Joined {
                left: &l,
                right: &r,
            };
            if predicate.is_some_and(|p| p.eval_bool(&joined) != Some(true)) {
                continue;
            }
            matched = true;
            match join_type {
                JoinType::Inner | JoinType::Left => emit(&joined),
                JoinType::Semi | JoinType::Anti => break,
            }
        }
        match join_type {
            JoinType::Left if !matched => emit(&Joined {
                left: &l,
                right: &pad,
            }),
            JoinType::Semi if matched => emit(&l),
            JoinType::Anti if !matched => emit(&l),
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests_support::run_over;

    fn rows(pairs: &[(i64, &str)]) -> Vec<Tuple> {
        pairs
            .iter()
            .map(|(k, v)| Tuple::new(vec![Datum::Int(*k), Datum::str(*v)]))
            .collect()
    }

    fn ints(t: &Tuple, idx: usize) -> i64 {
        t.get(idx).as_int().unwrap()
    }

    fn hash_join(left: Vec<Tuple>, right: Vec<Tuple>, join_type: JoinType) -> Vec<Tuple> {
        let plan = |[left, right]: [_; 2]| PhysicalPlan::HashJoin {
            left,
            right,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type,
        };
        run_over(1 << 20, [left, right], plan).0
    }

    fn merge_join(left: Vec<Tuple>, right: Vec<Tuple>) -> Vec<Tuple> {
        let plan = |[left, right]: [_; 2]| PhysicalPlan::MergeJoin {
            left,
            right,
            left_key: 0,
            right_key: 0,
        };
        run_over(1 << 20, [left, right], plan).0
    }

    #[test]
    fn inner_hash_join_produces_matches_in_probe_then_build_order() {
        let left = rows(&[(3, "c"), (1, "a"), (2, "b")]);
        let right = rows(&[(3, "z"), (2, "x"), (3, "y"), (4, "w")]);
        let out = hash_join(left, right, JoinType::Inner);
        let pairs: Vec<(&str, &str)> = out
            .iter()
            .map(|t| (t.get(1).as_str().unwrap(), t.get(3).as_str().unwrap()))
            .collect();
        assert_eq!(pairs, [("c", "z"), ("c", "y"), ("b", "x")]);
    }

    #[test]
    fn left_join_pads_nulls() {
        let left = rows(&[(1, "a"), (2, "b")]);
        let right = rows(&[(2, "x")]);
        let out = hash_join(left, right, JoinType::Left);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].arity(), 4);
        assert!(out[0].get(2).is_null() && out[0].get(3).is_null());
        assert_eq!(out[1].get(3).as_str(), Some("x"));
    }

    #[test]
    fn semi_and_anti_joins() {
        let left = rows(&[(1, "a"), (2, "b"), (3, "c")]);
        let right = rows(&[(2, "x"), (2, "y")]);
        let semi = hash_join(left.clone(), right.clone(), JoinType::Semi);
        assert_eq!(semi.len(), 1, "semi join emits each matching left row once");
        assert_eq!(ints(&semi[0], 0), 2);
        let anti = hash_join(left, right, JoinType::Anti);
        let keys: Vec<i64> = anti.iter().map(|t| ints(t, 0)).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn null_keys_never_match() {
        let left = vec![Tuple::new(vec![Datum::Null, Datum::str("l")])];
        let right = vec![Tuple::new(vec![Datum::Null, Datum::str("r")])];
        let inner = hash_join(left.clone(), right.clone(), JoinType::Inner);
        assert!(inner.is_empty());
        let anti = hash_join(left, right, JoinType::Anti);
        assert_eq!(anti.len(), 1, "NULL key has no match, so anti emits it");
    }

    /// The hash join's equality is the record encoding's: same kind, same
    /// bits. A merge join compares numerically.
    #[test]
    fn hash_keys_of_different_kinds_do_not_match() {
        let ints = vec![Tuple::new(vec![Datum::Int(1), Datum::str("int")])];
        let floats = vec![Tuple::new(vec![Datum::Float(1.0), Datum::str("float")])];
        assert!(hash_join(ints.clone(), floats.clone(), JoinType::Inner).is_empty());
        assert_eq!(
            hash_join(ints.clone(), ints.clone(), JoinType::Inner).len(),
            1
        );
        assert_eq!(merge_join(ints, floats).len(), 1);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let left = rows(&[(1, "a"), (2, "b"), (2, "c"), (5, "d")]);
        let right = rows(&[(2, "x"), (2, "y"), (5, "z"), (6, "w")]);
        let merged = merge_join(left.clone(), right.clone());
        let hashed = hash_join(left, right, JoinType::Inner);
        assert_eq!(merged, hashed);
        assert_eq!(merged.len(), 5); // 2x2 cross for key 2 + one for key 5.
    }

    #[test]
    fn merge_join_nan_keys_never_match_and_never_skip_real_matches() {
        // Regression: `sql_cmp` is a partial order, so a NaN float key
        // compares as `None` against everything. The old skip logic only
        // recognized NULL on the left and advanced the *right* cursor for
        // any other incomparable pair — a leading NaN left key would
        // consume right-side rows that later left keys still match,
        // silently dropping the (2.0, 2.0) pair below.
        let left = vec![
            Tuple::new(vec![Datum::Float(f64::NAN), Datum::str("bad")]),
            Tuple::new(vec![Datum::Float(2.0), Datum::str("good")]),
        ];
        let right = vec![Tuple::new(vec![Datum::Float(2.0), Datum::str("r")])];
        let out = merge_join(left.clone(), right.clone());
        assert_eq!(out.len(), 1, "the real 2.0 = 2.0 match must survive");
        assert_eq!(out[0].get(1).as_str(), Some("good"));
        // NaN on the right is skipped the same way (mirror case).
        let out = merge_join(right, left);
        assert_eq!(out.len(), 1);
        // NaN never joins with NaN.
        let nan_row = vec![Tuple::new(vec![Datum::Float(f64::NAN), Datum::str("x")])];
        let out = merge_join(nan_row.clone(), nan_row);
        assert!(out.is_empty(), "NaN keys must never match each other");
    }

    #[test]
    fn nested_loop_supports_inequality() {
        let left = rows(&[(1, "a"), (5, "b")]);
        let right = rows(&[(3, "x"), (7, "y")]);
        // left.key < right.key (columns 0 and 2 of the concatenated row).
        let plan = |[left, right]: [_; 2]| PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate: Some(Expr::lt(Expr::col(0), Expr::col(2))),
            join_type: JoinType::Inner,
        };
        assert_eq!(run_over(1 << 20, [left, right], plan).0.len(), 3);
    }

    /// Buckets are the hash's top bits, so those must depend on every key
    /// byte: an integer's low bytes sit in different words of its field.
    #[test]
    fn sequential_and_strided_keys_spread_over_the_buckets() {
        let int_rows = |stride: i64| (0..50_000).map(move |i| vec![Datum::Int(i * stride)]);
        let str_rows = (0..50_000).map(|i| vec![Datum::str(format!("Customer#{i:09}"))]);
        let key_sets: [Box<dyn Iterator<Item = Vec<Datum>>>; 4] = [
            Box::new(int_rows(1)),
            Box::new(int_rows(256)),
            Box::new(int_rows(1 << 32)),
            Box::new(str_rows),
        ];
        for keys in key_sets {
            let mut rows = RowBuf::new();
            for key in keys {
                rows.push(&Tuple::new(key));
            }
            let table = HashTable::build(&rows, &[0]);
            let used = table.heads.iter().filter(|&&head| head != END).count();
            // 50 000 keys thrown at 65 536 buckets at random fill ~35 000.
            assert!(used > 25_000, "{used} buckets hold 50 000 distinct keys");
        }
    }

    #[test]
    fn spill_charged_when_build_exceeds_work_mem() {
        let big: Vec<Tuple> = (0..200)
            .map(|i| Tuple::new(vec![Datum::Int(i), Datum::str("payload payload")]))
            .collect();
        let plan = |[left, right]: [_; 2]| PhysicalPlan::HashJoin {
            left,
            right,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        };
        // 256 bytes of `work_mem` force spilling.
        let (out, demand) = run_over(256, [big.clone(), big], plan);
        assert_eq!(out.len(), 200);
        assert!(demand.page_writes > 0, "spill writes charged");
    }
}
