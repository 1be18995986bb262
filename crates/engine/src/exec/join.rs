//! Join operators: hash, merge, and nested-loop.

use crate::runtime::ExecContext;
use crate::{Expr, JoinType};
use dbvirt_storage::{Datum, DatumRef, Row, Tuple};
use std::collections::HashMap;

/// Two rows seen as their concatenation, so a join predicate can be
/// evaluated before — and for a pair it rejects, instead of — building the
/// joined tuple.
struct Joined<'a> {
    left: &'a Tuple,
    right: &'a Tuple,
}

impl Row for Joined<'_> {
    fn col(&self, idx: usize) -> DatumRef<'_> {
        match idx.checked_sub(self.left.arity()) {
            None => self.left.col(idx),
            Some(right_idx) => self.right.col(right_idx),
        }
    }

    fn to_tuple(&self) -> Tuple {
        self.left.concat(self.right)
    }
}

/// Hash key for a set of join columns; `None` when any key column is NULL
/// (NULL never matches in an equi-join).
fn join_key(tuple: &Tuple, keys: &[usize]) -> Option<bytes::Bytes> {
    if keys.iter().any(|&k| tuple.get(k).is_null()) {
        return None;
    }
    Some(tuple.project(keys).encode())
}

/// Charges the grace-hash spill I/O when the build side exceeds `work_mem`:
/// with `b > 1` batches, both inputs are written once and re-read once for
/// all but the in-memory batch (PostgreSQL's multi-batch hash join).
fn charge_hash_spill(ctx: &mut ExecContext<'_>, build_bytes: usize, probe_bytes: usize) {
    if build_bytes <= ctx.work_mem_bytes {
        return;
    }
    let batches = build_bytes.div_ceil(ctx.work_mem_bytes).max(2);
    let spilled_frac = (batches - 1) as f64 / batches as f64;
    let pages = |bytes: usize| {
        ((bytes as f64 * spilled_frac) / dbvirt_storage::PAGE_SIZE as f64).ceil() as u64
    };
    let spill_pages = pages(build_bytes) + pages(probe_bytes);
    ctx.charge_io_writes(spill_pages);
    ctx.charge_io_seq_reads(spill_pages);
}

/// Hash join: build on the right input, probe with the left.
pub fn hash_join(
    ctx: &mut ExecContext<'_>,
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    right_arity: usize,
) -> Vec<Tuple> {
    assert_eq!(
        left_keys.len(),
        right_keys.len(),
        "mismatched join key arity"
    );
    let costs = ctx.costs;

    let build_bytes: usize = right.iter().map(Tuple::encoded_len).sum();
    let probe_bytes: usize = left.iter().map(Tuple::encoded_len).sum();
    charge_hash_spill(ctx, build_bytes, probe_bytes);

    // Build.
    let mut table: HashMap<bytes::Bytes, Vec<&Tuple>> = HashMap::new();
    for t in &right {
        if let Some(k) = join_key(t, right_keys) {
            table.entry(k).or_default().push(t);
        }
    }
    ctx.charge_cpu(costs.per_hash * (right.len() + left.len()) as f64);

    // Probe.
    let null_pad = Tuple::new(vec![Datum::Null; right_arity]);
    let mut out = Vec::new();
    for l in &left {
        let matches = join_key(l, left_keys).and_then(|k| table.get(&k));
        match join_type {
            JoinType::Inner => {
                if let Some(ms) = matches {
                    for m in ms {
                        out.push(l.concat(m));
                    }
                }
            }
            JoinType::Left => match matches {
                Some(ms) => {
                    for m in ms {
                        out.push(l.concat(m));
                    }
                }
                None => out.push(l.concat(&null_pad)),
            },
            JoinType::Semi => {
                if matches.is_some() {
                    out.push(l.clone());
                }
            }
            JoinType::Anti => {
                if matches.is_none() {
                    out.push(l.clone());
                }
            }
        }
    }
    ctx.charge_cpu(costs.per_tuple * out.len() as f64);
    out
}

/// Merge join of inputs sorted on their join keys (inner join only).
/// Duplicate key groups produce the full cross product, as required.
pub fn merge_join(
    ctx: &mut ExecContext<'_>,
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    left_key: usize,
    right_key: usize,
) -> Vec<Tuple> {
    let costs = ctx.costs;
    ctx.charge_cpu(costs.per_tuple * (left.len() + right.len()) as f64);

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lk = left[i].get(left_key);
        let rk = right[j].get(right_key);
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
            Some(std::cmp::Ordering::Less) => i += 1,
            Some(std::cmp::Ordering::Greater) => j += 1,
            Some(std::cmp::Ordering::Equal) => {
                // Find both duplicate groups. The scans start one past the
                // current row (`Equal` already proved row i / row j belong
                // to the group), so no `.last().unwrap()` on a
                // maybe-empty iterator is needed.
                let mut i_end = i + 1;
                while i_end < left.len()
                    && left[i_end].get(left_key).sql_cmp(lk) == Some(std::cmp::Ordering::Equal)
                {
                    i_end += 1;
                }
                let mut j_end = j + 1;
                while j_end < right.len()
                    && right[j_end].get(right_key).sql_cmp(rk) == Some(std::cmp::Ordering::Equal)
                {
                    j_end += 1;
                }
                for l in &left[i..i_end] {
                    for r in &right[j..j_end] {
                        out.push(l.concat(r));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    ctx.charge_cpu(costs.per_tuple * out.len() as f64);
    out
}

/// Nested-loop join with an arbitrary predicate over the concatenated row.
pub fn nested_loop_join(
    ctx: &mut ExecContext<'_>,
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    predicate: Option<&Expr>,
    join_type: JoinType,
    right_arity: usize,
) -> Vec<Tuple> {
    let costs = ctx.costs;
    let ops = predicate.map_or(0.0, |p| p.num_operators() as f64);
    let pairs = left.len() as f64 * right.len() as f64;
    ctx.charge_cpu(pairs * (costs.per_tuple + ops * costs.per_operator));

    let null_pad = Tuple::new(vec![Datum::Null; right_arity]);
    let mut out = Vec::new();
    for l in &left {
        let mut matched = false;
        for r in &right {
            let joined = Joined { left: l, right: r };
            let pass = predicate.is_none_or(|p| p.eval_bool(&joined) == Some(true));
            if !pass {
                continue;
            }
            matched = true;
            match join_type {
                JoinType::Inner | JoinType::Left => out.push(joined.to_tuple()),
                JoinType::Semi => {
                    out.push(l.clone());
                    break;
                }
                JoinType::Anti => break,
            }
        }
        if !matched {
            match join_type {
                JoinType::Left => out.push(l.concat(&null_pad)),
                JoinType::Anti => out.push(l.clone()),
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests_support::{context, small_db};

    fn rows(pairs: &[(i64, &str)]) -> Vec<Tuple> {
        pairs
            .iter()
            .map(|(k, v)| Tuple::new(vec![Datum::Int(*k), Datum::str(*v)]))
            .collect()
    }

    fn ints(t: &Tuple, idx: usize) -> i64 {
        t.get(idx).as_int().unwrap()
    }

    #[test]
    fn inner_hash_join_produces_matches() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        let left = rows(&[(1, "a"), (2, "b"), (3, "c")]);
        let right = rows(&[(2, "x"), (3, "y"), (3, "z"), (4, "w")]);
        let mut out = hash_join(&mut ctx, left, right, &[0], &[0], JoinType::Inner, 2);
        out.sort_by_key(|t| (ints(t, 0), t.get(3).as_str().unwrap().to_string()));
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get(1).as_str(), Some("b"));
        assert_eq!(out[0].get(3).as_str(), Some("x"));
        assert_eq!(out[2].get(3).as_str(), Some("z"));
    }

    #[test]
    fn left_join_pads_nulls() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        let left = rows(&[(1, "a"), (2, "b")]);
        let right = rows(&[(2, "x")]);
        let mut out = hash_join(&mut ctx, left, right, &[0], &[0], JoinType::Left, 2);
        out.sort_by_key(|t| ints(t, 0));
        assert_eq!(out.len(), 2);
        assert!(out[0].get(2).is_null() && out[0].get(3).is_null());
        assert_eq!(out[1].get(3).as_str(), Some("x"));
    }

    #[test]
    fn semi_and_anti_joins() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        let left = rows(&[(1, "a"), (2, "b"), (3, "c")]);
        let right = rows(&[(2, "x"), (2, "y")]);
        let semi = hash_join(
            &mut ctx,
            left.clone(),
            right.clone(),
            &[0],
            &[0],
            JoinType::Semi,
            2,
        );
        assert_eq!(semi.len(), 1, "semi join emits each matching left row once");
        assert_eq!(ints(&semi[0], 0), 2);
        let anti = hash_join(&mut ctx, left, right, &[0], &[0], JoinType::Anti, 2);
        let keys: Vec<i64> = anti.iter().map(|t| ints(t, 0)).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn null_keys_never_match() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        let left = vec![Tuple::new(vec![Datum::Null, Datum::str("l")])];
        let right = vec![Tuple::new(vec![Datum::Null, Datum::str("r")])];
        let inner = hash_join(
            &mut ctx,
            left.clone(),
            right.clone(),
            &[0],
            &[0],
            JoinType::Inner,
            2,
        );
        assert!(inner.is_empty());
        let anti = hash_join(&mut ctx, left, right, &[0], &[0], JoinType::Anti, 2);
        assert_eq!(anti.len(), 1, "NULL key has no match, so anti emits it");
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        let mut left = rows(&[(1, "a"), (2, "b"), (2, "c"), (5, "d")]);
        let mut right = rows(&[(2, "x"), (2, "y"), (5, "z"), (6, "w")]);
        left.sort_by_key(|t| ints(t, 0));
        right.sort_by_key(|t| ints(t, 0));
        let mut merged = merge_join(&mut ctx, left.clone(), right.clone(), 0, 0);
        let mut hashed = hash_join(&mut ctx, left, right, &[0], &[0], JoinType::Inner, 2);
        let key = |t: &Tuple| {
            (
                ints(t, 0),
                t.get(1).as_str().unwrap().to_string(),
                t.get(3).as_str().unwrap().to_string(),
            )
        };
        merged.sort_by_key(key);
        hashed.sort_by_key(key);
        assert_eq!(merged, hashed);
        assert_eq!(merged.len(), 5); // 2x2 cross for key 2 + one for key 5.
    }

    #[test]
    fn merge_join_nan_keys_never_match_and_never_skip_real_matches() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
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
        let out = merge_join(&mut ctx, left.clone(), right.clone(), 0, 0);
        assert_eq!(out.len(), 1, "the real 2.0 = 2.0 match must survive");
        assert_eq!(out[0].get(1).as_str(), Some("good"));
        // NaN on the right is skipped the same way (mirror case).
        let out = merge_join(&mut ctx, right, left, 0, 0);
        assert_eq!(out.len(), 1);
        // NaN never joins with NaN.
        let nan_row = vec![Tuple::new(vec![Datum::Float(f64::NAN), Datum::str("x")])];
        let out = merge_join(&mut ctx, nan_row.clone(), nan_row, 0, 0);
        assert!(out.is_empty(), "NaN keys must never match each other");
    }

    #[test]
    fn nested_loop_supports_inequality() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        let left = rows(&[(1, "a"), (5, "b")]);
        let right = rows(&[(3, "x"), (7, "y")]);
        // left.key < right.key (columns 0 and 2 of the concatenated row).
        let pred = Expr::lt(Expr::col(0), Expr::col(2));
        let out = nested_loop_join(&mut ctx, left, right, Some(&pred), JoinType::Inner, 2);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn spill_charged_when_build_exceeds_work_mem() {
        let (mut db, mut pool) = small_db(1);
        let mut ctx = context(&mut db, &mut pool);
        ctx.work_mem_bytes = 256; // force spilling
        let big: Vec<Tuple> = (0..200)
            .map(|i| Tuple::new(vec![Datum::Int(i), Datum::str("payload payload")]))
            .collect();
        let before = ctx.io_demand().page_writes;
        let out = hash_join(&mut ctx, big.clone(), big, &[0], &[0], JoinType::Inner, 2);
        assert_eq!(out.len(), 200);
        assert!(ctx.io_demand().page_writes > before, "spill writes charged");
    }
}
