//! Selectivity and cardinality estimation.
//!
//! The estimators follow PostgreSQL's structure: histogram-based range
//! selectivity, NDV-based equality selectivity, independence for
//! conjunctions, and fixed default selectivities where statistics cannot
//! help (`DEFAULT_EQ_SEL`, `DEFAULT_RANGE_SEL`, `DEFAULT_MATCH_SEL` — the
//! same constants `selfuncs.c` uses).

use dbvirt_engine::{CmpOp, Expr, JoinType};
use dbvirt_storage::{Datum, TableStats};

/// Default selectivity for an equality whose operand statistics are
/// unavailable (PostgreSQL's `DEFAULT_EQ_SEL`).
pub(crate) const DEFAULT_EQ_SEL: f64 = 0.005;
/// Default selectivity for an inequality without statistics
/// (PostgreSQL's `DEFAULT_INEQ_SEL`).
pub(crate) const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity for a `LIKE` pattern match
/// (PostgreSQL's `DEFAULT_MATCH_SEL`).
pub(crate) const DEFAULT_MATCH_SEL: f64 = 0.005;

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// The literal prefix of a `LIKE` pattern, if any: the characters before
/// the first wildcard (`%` or `_`). Returns `(prefix, exact)` where
/// `exact` means the pattern is precisely `prefix%` — i.e. the prefix
/// match alone decides the predicate, with no residual matching beyond it.
pub fn like_prefix(pattern: &str) -> Option<(String, bool)> {
    let mut prefix = String::new();
    let mut rest = pattern.chars();
    for c in rest.by_ref() {
        if c == '%' || c == '_' {
            let exact = c == '%' && rest.clone().next().is_none();
            if prefix.is_empty() {
                return None;
            }
            return Some((prefix, exact));
        }
        prefix.push(c);
    }
    // No wildcard at all: LIKE degenerates to equality on the prefix.
    Some((prefix, false))
}

/// The smallest string strictly greater than every string starting with
/// `prefix` (increment the last character, dropping characters with no
/// valid successor). `None` when no such string exists.
pub(crate) fn string_prefix_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(c) = chars.pop() {
        if let Some(next) = char::from_u32(c as u32 + 1) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

/// Histogram-backed selectivity of a string column falling in
/// `[prefix, successor(prefix))` — the key range a `LIKE 'prefix%'`
/// predicate selects.
pub(crate) fn prefix_range_selectivity(
    stats: &TableStats,
    col: usize,
    prefix: &str,
) -> Option<f64> {
    let cs = stats.columns.get(col)?;
    let h = cs.histogram.as_ref()?;
    let below_lo = h.fraction_below(&Datum::str(prefix));
    let below_hi = match string_prefix_successor(prefix) {
        Some(succ) => h.fraction_below(&Datum::str(succ)),
        None => 1.0,
    };
    Some(clamp01((below_hi - below_lo) * (1.0 - cs.null_frac)))
}

/// Extracts `(column, op, literal)` from a comparison, normalizing
/// `literal op column` to `column op' literal`.
pub(crate) fn as_col_cmp(expr: &Expr) -> Option<(usize, CmpOp, &Datum)> {
    let Expr::Cmp { op, lhs, rhs } = expr else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Column(c), Expr::Literal(d)) => Some((*c, *op, d)),
        (Expr::Literal(d), Expr::Column(c)) => {
            let flipped = match op {
                CmpOp::Eq => CmpOp::Eq,
                CmpOp::Ne => CmpOp::Ne,
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
            };
            Some((*c, flipped, d))
        }
        _ => None,
    }
}

/// Selectivity of a single normalized column-vs-literal comparison.
fn col_cmp_selectivity(stats: &TableStats, col: usize, op: CmpOp, lit: &Datum) -> f64 {
    let Some(cs) = stats.columns.get(col) else {
        return default_for_op(op);
    };
    let nonnull = 1.0 - cs.null_frac;
    match op {
        CmpOp::Eq => cs.eq_selectivity(),
        CmpOp::Ne => clamp01(nonnull - cs.eq_selectivity()),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let Some(h) = &cs.histogram else {
                return default_for_op(op);
            };
            let below = h.fraction_below(lit);
            let eq = cs.eq_selectivity();
            let sel = match op {
                CmpOp::Lt => below,
                CmpOp::Le => below + eq,
                CmpOp::Gt => 1.0 - below - eq,
                CmpOp::Ge => 1.0 - below,
                _ => unreachable!(),
            };
            clamp01(sel * nonnull)
        }
    }
}

fn default_for_op(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => DEFAULT_EQ_SEL,
        CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
        _ => DEFAULT_RANGE_SEL,
    }
}

/// Splits a conjunction into its top-level conjuncts.
pub(crate) fn split_and<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::And(l, r) => {
            split_and(l, out);
            split_and(r, out);
        }
        other => out.push(other),
    }
}

/// Selectivity of a conjunction, pairing lower and upper range bounds on
/// the same column through the histogram before falling back to
/// independence — PostgreSQL's `clauselist_selectivity` /
/// `addRangeClause` behaviour, without which `lo <= x AND x < hi` badly
/// overestimates narrow windows (e.g. TPC-H date ranges).
fn conjunction_selectivity(conjuncts: &[&Expr], stats: &TableStats) -> f64 {
    use std::collections::BTreeMap;
    // Per column: tightest lower bound, tightest upper bound (as
    // fraction_below positions). Ordered by column: the factors below are
    // multiplied in map order, and a float product depends on its order.
    struct Range {
        lo: Option<f64>,
        hi: Option<f64>,
    }
    let mut ranges: BTreeMap<usize, Range> = BTreeMap::new();
    let mut sel = 1.0;
    for c in conjuncts {
        if let Some((col, op, lit)) = as_col_cmp(c) {
            if let Some(h) = stats.columns.get(col).and_then(|cs| cs.histogram.as_ref()) {
                let below = h.fraction_below(lit);
                let entry = ranges.entry(col).or_insert(Range { lo: None, hi: None });
                match op {
                    CmpOp::Gt | CmpOp::Ge => {
                        entry.lo = Some(entry.lo.map_or(below, |x: f64| x.max(below)));
                        continue;
                    }
                    CmpOp::Lt | CmpOp::Le => {
                        entry.hi = Some(entry.hi.map_or(below, |x: f64| x.min(below)));
                        continue;
                    }
                    _ => {}
                }
            }
        }
        sel *= filter_selectivity(c, stats);
    }
    for (col, r) in ranges {
        let nonnull = stats.columns.get(col).map_or(1.0, |cs| 1.0 - cs.null_frac);
        let combined = match (r.lo, r.hi) {
            (Some(lo), Some(hi)) => clamp01(hi - lo),
            (Some(lo), None) => clamp01(1.0 - lo),
            (None, Some(hi)) => hi,
            (None, None) => 1.0,
        };
        sel *= clamp01(combined * nonnull);
    }
    clamp01(sel)
}

/// [`filter_selectivity`] of the conjunction of `terms`, none of which is
/// itself an `AND` — what `Expr::and_all(terms)` would estimate to, without
/// building it.
pub(crate) fn conjuncts_selectivity(terms: &[&Expr], stats: &TableStats) -> f64 {
    match terms {
        [] => 1.0,
        [term] => filter_selectivity(term, stats),
        _ => conjunction_selectivity(terms, stats),
    }
}

/// Estimated selectivity of `expr` as a filter over a base table with
/// statistics `stats`, in `[0, 1]`.
pub(crate) fn filter_selectivity(expr: &Expr, stats: &TableStats) -> f64 {
    match expr {
        Expr::Literal(Datum::Bool(true)) => 1.0,
        Expr::Literal(Datum::Bool(false)) => 0.0,
        Expr::And(..) => {
            let mut conjuncts = Vec::new();
            split_and(expr, &mut conjuncts);
            conjunction_selectivity(&conjuncts, stats)
        }
        Expr::Or(l, r) => {
            let (a, b) = (filter_selectivity(l, stats), filter_selectivity(r, stats));
            clamp01(a + b - a * b)
        }
        Expr::Not(e) => clamp01(1.0 - filter_selectivity(e, stats)),
        Expr::Cmp { .. } => match as_col_cmp(expr) {
            Some((col, op, lit)) => col_cmp_selectivity(stats, col, op, lit),
            None => DEFAULT_RANGE_SEL,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let sel = match (expr.as_ref(), like_prefix(pattern)) {
                (Expr::Column(c), Some((prefix, exact))) => {
                    match prefix_range_selectivity(stats, *c, &prefix) {
                        // A residual beyond the prefix (more wildcards or
                        // a missing `%`) filters further; halve, like
                        // PostgreSQL's heuristic rest-selectivity.
                        Some(range) => {
                            if exact {
                                range
                            } else {
                                clamp01(range * 0.5)
                            }
                        }
                        None => DEFAULT_MATCH_SEL,
                    }
                }
                _ => DEFAULT_MATCH_SEL,
            };
            if *negated {
                clamp01(1.0 - sel)
            } else {
                sel
            }
        }
        Expr::InList { expr, list } => {
            if let Expr::Column(c) = expr.as_ref() {
                if let Some(cs) = stats.columns.get(*c) {
                    return clamp01(cs.eq_selectivity() * list.len() as f64);
                }
            }
            clamp01(DEFAULT_EQ_SEL * list.len() as f64)
        }
        Expr::IsNull { expr, negated } => {
            if let Expr::Column(c) = expr.as_ref() {
                if let Some(cs) = stats.columns.get(*c) {
                    let f = cs.null_frac;
                    return if *negated { 1.0 - f } else { f };
                }
            }
            if *negated {
                0.99
            } else {
                0.01
            }
        }
        Expr::Case { .. } | Expr::Arith { .. } | Expr::Column(_) | Expr::Literal(_) => {
            // Non-boolean or opaque: PostgreSQL would use 0.5 for an
            // unknown boolean expression.
            0.5
        }
    }
}

/// Estimated output rows of an equi-join.
///
/// Inner-join selectivity is `1 / max(ndv_left, ndv_right)` per condition
/// (PostgreSQL's `eqjoinsel`); semi/anti use the containment assumption
/// (the fraction of left rows with a match is `min(ndvs)/ndv_left`).
pub(crate) fn join_output_rows(
    left_rows: f64,
    right_rows: f64,
    left_ndv: f64,
    right_ndv: f64,
    join_type: JoinType,
) -> f64 {
    let left_ndv = left_ndv.max(1.0);
    let right_ndv = right_ndv.max(1.0);
    match join_type {
        JoinType::Inner => left_rows * right_rows / left_ndv.max(right_ndv),
        JoinType::Left => {
            let inner = left_rows * right_rows / left_ndv.max(right_ndv);
            inner.max(left_rows)
        }
        JoinType::Semi => {
            let match_frac = (left_ndv.min(right_ndv) / left_ndv).clamp(0.0, 1.0);
            left_rows * match_frac
        }
        JoinType::Anti => {
            let match_frac = (left_ndv.min(right_ndv) / left_ndv).clamp(0.0, 1.0);
            left_rows * (1.0 - match_frac)
        }
    }
}

/// Estimated number of groups for a `GROUP BY`: the product of per-column
/// NDVs, clamped to the input row count (PostgreSQL's
/// `estimate_num_groups` without correlation knowledge).
pub(crate) fn num_groups_of(input_rows: f64, ndvs: impl ExactSizeIterator<Item = f64>) -> f64 {
    if ndvs.len() == 0 {
        return 1.0;
    }
    let product: f64 = ndvs.map(|n| n.max(1.0)).product();
    product.min(input_rows.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_storage::{stats, Tuple};

    fn uniform_stats(n: i64) -> TableStats {
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(format!("s{}", i % 10))]))
            .collect();
        stats::analyze(tuples.iter(), 2, (n / 50).max(1) as u32)
    }

    #[test]
    fn equality_uses_ndv() {
        let s = uniform_stats(1000);
        let sel = filter_selectivity(&Expr::eq(Expr::col(1), Expr::str("s3")), &s);
        assert!(
            (sel - 0.1).abs() < 0.02,
            "10 distinct strings -> ~0.1, got {sel}"
        );
    }

    #[test]
    fn range_uses_histogram() {
        let s = uniform_stats(1000);
        let sel = filter_selectivity(&Expr::lt(Expr::col(0), Expr::int(250)), &s);
        assert!((sel - 0.25).abs() < 0.05, "got {sel}");
        let sel = filter_selectivity(&Expr::ge(Expr::col(0), Expr::int(900)), &s);
        assert!((sel - 0.1).abs() < 0.05, "got {sel}");
    }

    #[test]
    fn reversed_comparison_normalizes() {
        let s = uniform_stats(1000);
        let a = filter_selectivity(&Expr::lt(Expr::col(0), Expr::int(250)), &s);
        let b = filter_selectivity(&Expr::gt(Expr::int(250), Expr::col(0)), &s);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn conjunction_multiplies() {
        let s = uniform_stats(1000);
        let e = Expr::and(
            Expr::lt(Expr::col(0), Expr::int(500)),
            Expr::eq(Expr::col(1), Expr::str("s3")),
        );
        let sel = filter_selectivity(&e, &s);
        assert!((sel - 0.05).abs() < 0.02, "got {sel}");
    }

    /// Four ranged columns: the per-column factors multiply in ascending
    /// column order, every time — not in a hash map's per-instance order,
    /// which used to move the product's last bits between calls.
    #[test]
    fn conjunction_multiplies_ranged_columns_in_column_order() {
        let moduli = [997, 1009, 499, 251];
        let tuples: Vec<Tuple> = (0..4000i64)
            .map(|i| Tuple::new(moduli.iter().map(|m| Datum::Int(i * 7 % m)).collect()))
            .collect();
        let s = stats::analyze(tuples.iter(), 4, 40);
        // Written in descending column order, so no map order is the
        // textual one by accident.
        let bounds = [(3, 17, 201), (2, 33, 411), (1, 101, 876), (0, 58, 930)];
        let e = Expr::and_all(
            bounds
                .iter()
                .flat_map(|&(c, lo, hi)| {
                    [
                        Expr::ge(Expr::col(c), Expr::int(lo)),
                        Expr::lt(Expr::col(c), Expr::int(hi)),
                    ]
                })
                .collect(),
        );
        let mut expected = 1.0;
        for &(c, lo, hi) in bounds.iter().rev() {
            let h = s.columns[c].histogram.as_ref().unwrap();
            let width = h.fraction_below(&Datum::Int(hi)) - h.fraction_below(&Datum::Int(lo));
            expected *= clamp01(clamp01(width) * (1.0 - s.columns[c].null_frac));
        }
        let expected = clamp01(expected);
        assert!(expected > 0.0 && expected < 1.0);
        for _ in 0..1000 {
            assert_eq!(filter_selectivity(&e, &s).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn disjunction_is_inclusion_exclusion() {
        let s = uniform_stats(1000);
        let half = Expr::lt(Expr::col(0), Expr::int(500));
        let sel = filter_selectivity(&Expr::or(half.clone(), half), &s);
        assert!((sel - 0.75).abs() < 0.05, "got {sel}");
    }

    #[test]
    fn like_defaults() {
        let s = uniform_stats(100);
        let pos = filter_selectivity(&Expr::like(Expr::col(1), "%x%"), &s);
        let neg = filter_selectivity(&Expr::not_like(Expr::col(1), "%x%"), &s);
        assert_eq!(pos, DEFAULT_MATCH_SEL);
        assert!((pos + neg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn like_prefix_extraction() {
        assert_eq!(like_prefix("abc%"), Some(("abc".into(), true)));
        assert_eq!(like_prefix("abc%def"), Some(("abc".into(), false)));
        assert_eq!(like_prefix("abc_"), Some(("abc".into(), false)));
        assert_eq!(like_prefix("abc"), Some(("abc".into(), false)));
        assert_eq!(like_prefix("%abc"), None);
        assert_eq!(like_prefix("_bc"), None);
        assert_eq!(string_prefix_successor("abc"), Some("abd".into()));
        assert_eq!(string_prefix_successor(""), None);
    }

    #[test]
    fn like_prefix_uses_histogram() {
        // Column 1 holds s0..s9 uniformly; "s3%" selects ~10%.
        let s = uniform_stats(1000);
        let sel = filter_selectivity(&Expr::like(Expr::col(1), "s3%"), &s);
        assert!((sel - 0.1).abs() < 0.05, "prefix range estimate, got {sel}");
        // Prefix covering everything.
        let all = filter_selectivity(&Expr::like(Expr::col(1), "s%"), &s);
        assert!(all > 0.8, "got {all}");
    }

    #[test]
    fn selectivities_stay_in_unit_interval() {
        let s = uniform_stats(100);
        let exprs = [
            Expr::eq(Expr::col(0), Expr::int(5)),
            Expr::not(Expr::lt(Expr::col(0), Expr::int(5))),
            Expr::in_list(Expr::col(0), (0..50).map(Datum::Int).collect()),
            Expr::between(Expr::col(0), Datum::Int(10), Datum::Int(20)),
            Expr::or(
                Expr::lt(Expr::col(0), Expr::int(90)),
                Expr::gt(Expr::col(0), Expr::int(10)),
            ),
        ];
        for e in exprs {
            let sel = filter_selectivity(&e, &s);
            assert!((0.0..=1.0).contains(&sel), "{e:?} -> {sel}");
        }
    }

    #[test]
    fn join_rows_inner_and_semi() {
        // 1000 x 10000 on a key with 1000/1000 NDVs: FK-ish join.
        let inner = join_output_rows(1000.0, 10_000.0, 1000.0, 1000.0, JoinType::Inner);
        assert!((inner - 10_000.0).abs() < 1.0);
        // Semi: every left value appears on the right -> all left rows pass.
        let semi = join_output_rows(1000.0, 10_000.0, 1000.0, 1000.0, JoinType::Semi);
        assert!((semi - 1000.0).abs() < 1.0);
        // Anti is the complement.
        let anti = join_output_rows(1000.0, 10_000.0, 1000.0, 1000.0, JoinType::Anti);
        assert!(anti.abs() < 1.0);
        // Left join never shrinks below the left input.
        let left = join_output_rows(1000.0, 10.0, 1000.0, 10.0, JoinType::Left);
        assert!(left >= 1000.0);
    }

    #[test]
    fn group_estimates_clamp() {
        assert_eq!(num_groups_of(100.0, [].into_iter()), 1.0);
        assert!((num_groups_of(1000.0, [10.0, 5.0].into_iter()) - 50.0).abs() < 1e-9);
        assert_eq!(num_groups_of(20.0, [10.0, 5.0].into_iter()), 20.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dbvirt_storage::{stats, Tuple};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Histogram-backed range selectivity tracks the true fraction
        /// within a loose tolerance on uniform-ish data. Narrow spans are
        /// excluded: the two range bounds are combined under PostgreSQL's
        /// independence assumption, which legitimately over-estimates
        /// near-equality ranges.
        #[test]
        fn prop_range_selectivity_tracks_truth(
            n in 200i64..2000,
            lo in 0i64..800,
            span in 50i64..400,
        ) {
            let tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(vec![Datum::Int(i % 1000)])).collect();
            let s = stats::analyze(tuples.iter(), 1, 10);
            let hi = lo + span;
            let e = Expr::and(
                Expr::ge(Expr::col(0), Expr::int(lo)),
                Expr::lt(Expr::col(0), Expr::int(hi)),
            );
            let est = filter_selectivity(&e, &s);
            let truth = (0..n).filter(|i| (lo..hi).contains(&(i % 1000))).count() as f64 / n as f64;
            prop_assert!((0.0..=1.0).contains(&est));
            prop_assert!(
                (est - truth).abs() < 0.12,
                "estimate {est} vs truth {truth} for [{lo}, {hi})"
            );
        }

        /// Join cardinalities are non-negative and inner joins never exceed
        /// the cross product.
        #[test]
        fn prop_join_rows_bounded(
            l in 1.0f64..1e6,
            r in 1.0f64..1e6,
            lndv in 1.0f64..1e5,
            rndv in 1.0f64..1e5,
        ) {
            for jt in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
                let rows = join_output_rows(l, r, lndv, rndv, jt);
                prop_assert!(rows >= 0.0, "{jt:?} produced {rows}");
                if jt == JoinType::Inner {
                    prop_assert!(rows <= l * r + 1e-6);
                }
                if jt == JoinType::Semi || jt == JoinType::Anti {
                    prop_assert!(rows <= l + 1e-6, "{jt:?} exceeded left input");
                }
            }
            // Semi + anti partition the left side.
            let semi = join_output_rows(l, r, lndv, rndv, JoinType::Semi);
            let anti = join_output_rows(l, r, lndv, rndv, JoinType::Anti);
            prop_assert!((semi + anti - l).abs() < 1e-6 * l.max(1.0));
        }
    }
}
