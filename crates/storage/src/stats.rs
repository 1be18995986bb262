//! `ANALYZE`-style table and column statistics.
//!
//! The optimizer's cardinality model (in `dbvirt-optimizer`) is driven by
//! these statistics, mirroring PostgreSQL's `pg_statistic`: row and page
//! counts, per-column null fraction, distinct-value counts, min/max, and an
//! equi-depth histogram. The paper's what-if mode leaves statistics
//! untouched while varying the environment parameters `P`; keeping them in
//! the storage layer (where the data lives) makes that separation explicit.

use crate::{Datum, Tuple};
use std::collections::HashSet;

/// Number of equi-depth histogram buckets collected by [`analyze`].
pub(crate) const HISTOGRAM_BUCKETS: usize = 50;

/// An equi-depth histogram: `bounds` has `buckets + 1` entries; each bucket
/// holds the same number of sampled values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<Datum>,
}

/// Maps an orderable datum onto the real line for within-bucket
/// interpolation. Strings interpolate by their first bytes, base-256.
fn datum_position(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(v) => Some(*v as f64),
        Datum::Float(v) => Some(*v),
        Datum::Date(v) => Some(*v as f64),
        Datum::Bool(b) => Some(*b as u8 as f64),
        Datum::Str(s) => {
            let mut x = 0.0;
            for (i, b) in s.bytes().take(8).enumerate() {
                x += b as f64 / 256f64.powi(i as i32 + 1);
            }
            Some(x)
        }
        Datum::Null => None,
    }
}

impl Histogram {
    /// Builds an equi-depth histogram from non-null values (sorted
    /// internally). Returns `None` when there are no values.
    pub fn build(mut values: Vec<Datum>, buckets: usize) -> Option<Histogram> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(|a, b| a.total_cmp(b));
        let n = values.len();
        let buckets = buckets.min(n.max(1));
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            let idx = (b * (n - 1)) / buckets;
            bounds.push(values[idx].clone());
        }
        Some(Histogram { bounds })
    }

    /// The bucket boundary values (length = buckets + 1).
    pub fn bounds(&self) -> &[Datum] {
        &self.bounds
    }

    /// Number of buckets.
    pub(crate) fn num_buckets(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Estimated fraction of values strictly below `v`, in `[0, 1]`,
    /// with linear interpolation inside the containing bucket.
    pub fn fraction_below(&self, v: &Datum) -> f64 {
        let nb = self.num_buckets();
        if nb == 0 {
            return 0.5;
        }
        if v.total_cmp(&self.bounds[0]).is_le() {
            return 0.0;
        }
        if v.total_cmp(&self.bounds[nb]).is_gt() {
            return 1.0;
        }
        // Find the bucket whose [lo, hi) range contains v.
        let mut frac = 0.0;
        for b in 0..nb {
            let lo = &self.bounds[b];
            let hi = &self.bounds[b + 1];
            if v.total_cmp(hi).is_gt() {
                frac += 1.0;
                continue;
            }
            // v is in (lo, hi]: interpolate. Degenerate buckets (equal
            // bounds, NULLs, NaN floats) fall back to the bucket middle so
            // the estimate stays finite.
            let within = match (datum_position(lo), datum_position(hi), datum_position(v)) {
                (Some(l), Some(h), Some(x)) if h > l => {
                    let t = (x - l) / (h - l);
                    if t.is_finite() {
                        t.clamp(0.0, 1.0)
                    } else {
                        0.5
                    }
                }
                _ => 0.5,
            };
            frac += within;
            break;
        }
        (frac / nb as f64).clamp(0.0, 1.0)
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Fraction of rows where the column is NULL.
    pub null_frac: f64,
    /// Number of distinct non-null values.
    pub n_distinct: u64,
    /// Minimum non-null value, if any.
    pub min: Option<Datum>,
    /// Maximum non-null value, if any.
    pub max: Option<Datum>,
    /// Equi-depth histogram over non-null values, if any.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Estimated selectivity of `col = v` using NDV (uniformity assumption,
    /// as PostgreSQL does without MCVs).
    pub fn eq_selectivity(&self) -> f64 {
        if self.n_distinct == 0 {
            0.0
        } else {
            ((1.0 - self.null_frac) / self.n_distinct as f64).clamp(0.0, 1.0)
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of rows.
    pub n_rows: u64,
    /// Number of heap pages.
    pub n_pages: u32,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Average rows per page (1 minimum to avoid division blowups).
    pub fn rows_per_page(&self) -> f64 {
        if self.n_pages == 0 {
            1.0
        } else {
            (self.n_rows as f64 / self.n_pages as f64).max(1.0)
        }
    }
}

/// Hashable projection of a datum for distinct counting.
fn distinct_key(d: &Datum) -> Option<String> {
    match d {
        Datum::Null => None,
        Datum::Int(v) => Some(format!("i{v}")),
        Datum::Float(v) => Some(format!("f{}", v.to_bits())),
        Datum::Str(s) => Some(format!("s{s}")),
        Datum::Date(v) => Some(format!("d{v}")),
        Datum::Bool(b) => Some(format!("b{b}")),
    }
}

/// Computes full statistics over a table's tuples (an `ANALYZE` pass).
///
/// `arity` is the number of columns; `n_pages` the heap's page count.
pub fn analyze<'a>(
    tuples: impl Iterator<Item = &'a Tuple>,
    arity: usize,
    n_pages: u32,
) -> TableStats {
    let mut n_rows = 0u64;
    let mut nulls = vec![0u64; arity];
    let mut distinct: Vec<HashSet<String>> = vec![HashSet::new(); arity];
    let mut mins: Vec<Option<Datum>> = vec![None; arity];
    let mut maxs: Vec<Option<Datum>> = vec![None; arity];
    let mut values: Vec<Vec<Datum>> = vec![Vec::new(); arity];

    for t in tuples {
        n_rows += 1;
        for (c, v) in t.values().iter().enumerate().take(arity) {
            if v.is_null() {
                nulls[c] += 1;
                continue;
            }
            if let Some(k) = distinct_key(v) {
                distinct[c].insert(k);
            }
            let lower = mins[c].as_ref().is_none_or(|m| v.total_cmp(m).is_lt());
            if lower {
                mins[c] = Some(v.clone());
            }
            let higher = maxs[c].as_ref().is_none_or(|m| v.total_cmp(m).is_gt());
            if higher {
                maxs[c] = Some(v.clone());
            }
            values[c].push(v.clone());
        }
    }

    let columns = (0..arity)
        .map(|c| ColumnStats {
            null_frac: if n_rows == 0 {
                0.0
            } else {
                nulls[c] as f64 / n_rows as f64
            },
            n_distinct: distinct[c].len() as u64,
            min: mins[c].clone(),
            max: maxs[c].clone(),
            histogram: Histogram::build(std::mem::take(&mut values[c]), HISTOGRAM_BUCKETS),
        })
        .collect();

    TableStats {
        n_rows,
        n_pages,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_tuples(values: &[i64]) -> Vec<Tuple> {
        values
            .iter()
            .map(|&v| Tuple::new(vec![Datum::Int(v)]))
            .collect()
    }

    #[test]
    fn analyze_counts_rows_nulls_distinct_minmax() {
        let mut tuples = int_tuples(&[1, 2, 2, 3, 3, 3]);
        tuples.push(Tuple::new(vec![Datum::Null]));
        let stats = analyze(tuples.iter(), 1, 4);
        assert_eq!(stats.n_rows, 7);
        assert_eq!(stats.n_pages, 4);
        let c = &stats.columns[0];
        assert!((c.null_frac - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(c.n_distinct, 3);
        assert_eq!(c.min, Some(Datum::Int(1)));
        assert_eq!(c.max, Some(Datum::Int(3)));
        assert!((c.eq_selectivity() - (6.0 / 7.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn analyze_empty_table() {
        let stats = analyze(std::iter::empty(), 2, 0);
        assert_eq!(stats.n_rows, 0);
        assert_eq!(stats.columns.len(), 2);
        assert_eq!(stats.columns[0].n_distinct, 0);
        assert!(stats.columns[0].histogram.is_none());
        assert_eq!(stats.columns[0].eq_selectivity(), 0.0);
        assert_eq!(stats.rows_per_page(), 1.0);
    }

    #[test]
    fn histogram_uniform_data_interpolates_linearly() {
        let values: Vec<Datum> = (0..1000).map(Datum::Int).collect();
        let h = Histogram::build(values, 20).unwrap();
        assert_eq!(h.num_buckets(), 20);
        // fraction below the median should be ~0.5.
        let f = h.fraction_below(&Datum::Int(500));
        assert!((f - 0.5).abs() < 0.05, "got {f}");
        let f = h.fraction_below(&Datum::Int(250));
        assert!((f - 0.25).abs() < 0.05, "got {f}");
        assert_eq!(h.fraction_below(&Datum::Int(-5)), 0.0);
        assert_eq!(h.fraction_below(&Datum::Int(5000)), 1.0);
    }

    #[test]
    fn histogram_range_selectivity() {
        let values: Vec<Datum> = (0..1000).map(Datum::Int).collect();
        let h = Histogram::build(values, 20).unwrap();
        // A range's selectivity is the difference of its bounds' fractions.
        let s = h.fraction_below(&Datum::Int(300)) - h.fraction_below(&Datum::Int(100));
        assert!((s - 0.2).abs() < 0.05, "got {s}");
    }

    #[test]
    fn histogram_skewed_data_reflects_skew() {
        // 90% of values are 0, the rest spread 1..=100.
        let mut values: Vec<Datum> = vec![Datum::Int(0); 900];
        values.extend((1..=100).map(Datum::Int));
        let h = Histogram::build(values, 10).unwrap();
        let below_one = h.fraction_below(&Datum::Int(1));
        assert!(below_one > 0.8, "skew not captured: {below_one}");
    }

    #[test]
    fn histogram_string_ordering() {
        let values = vec![
            Datum::str("apple"),
            Datum::str("banana"),
            Datum::str("cherry"),
            Datum::str("date"),
        ];
        let h = Histogram::build(values, 4).unwrap();
        assert!(h.fraction_below(&Datum::str("az")) < h.fraction_below(&Datum::str("cz")));
    }

    #[test]
    fn histogram_single_value() {
        let h = Histogram::build(vec![Datum::Int(7); 100], 10).unwrap();
        assert_eq!(h.fraction_below(&Datum::Int(7)), 0.0);
        assert_eq!(h.fraction_below(&Datum::Int(8)), 1.0);
    }

    /// Every estimate a column's stats can produce, checked finite and in
    /// `[0, 1]` against a probe set bracketing the data.
    fn assert_bounded(stats: &TableStats, probes: &[Datum]) {
        for c in &stats.columns {
            let eq = c.eq_selectivity();
            assert!(eq.is_finite() && (0.0..=1.0).contains(&eq), "eq {eq}");
            assert!(
                c.null_frac.is_finite() && (0.0..=1.0).contains(&c.null_frac),
                "null_frac {}",
                c.null_frac
            );
            let Some(h) = &c.histogram else { continue };
            for p in probes {
                let f = h.fraction_below(p);
                assert!(f.is_finite() && (0.0..=1.0).contains(&f), "below {f}");
            }
        }
    }

    #[test]
    fn all_equal_column_estimates_stay_bounded() {
        // Every bucket bound is the same value: within-bucket interpolation
        // has zero width everywhere.
        let stats = analyze(int_tuples(&[42; 500]).iter(), 1, 3);
        assert_eq!(stats.columns[0].n_distinct, 1);
        assert_eq!(stats.columns[0].eq_selectivity(), 1.0);
        let probes = [Datum::Int(41), Datum::Int(42), Datum::Int(43)];
        assert_bounded(&stats, &probes);
    }

    #[test]
    fn single_row_table_estimates_stay_bounded() {
        let stats = analyze(int_tuples(&[7]).iter(), 1, 1);
        assert_eq!(stats.n_rows, 1);
        assert_eq!(stats.columns[0].n_distinct, 1);
        let h = stats.columns[0].histogram.as_ref().unwrap();
        assert_eq!(h.num_buckets(), 1);
        let probes = [Datum::Int(6), Datum::Int(7), Datum::Int(8)];
        assert_bounded(&stats, &probes);
        assert_eq!(stats.rows_per_page(), 1.0);
    }

    #[test]
    fn null_heavy_column_estimates_stay_bounded() {
        // 90% NULL: the non-null tail still gets a histogram, and the
        // equality estimate is scaled by the null fraction.
        let mut tuples: Vec<Tuple> = (0..900).map(|_| Tuple::new(vec![Datum::Null])).collect();
        tuples.extend((0..100).map(|i| Tuple::new(vec![Datum::Int(i)])));
        let stats = analyze(tuples.iter(), 1, 5);
        let c = &stats.columns[0];
        assert!((c.null_frac - 0.9).abs() < 1e-12);
        assert!((c.eq_selectivity() - 0.1 / 100.0).abs() < 1e-12);
        let probes = [Datum::Int(-1), Datum::Int(50), Datum::Int(200), Datum::Null];
        assert_bounded(&stats, &probes);

        // All-NULL column: no histogram, nothing ever matches an equality.
        let all_null: Vec<Tuple> = (0..10).map(|_| Tuple::new(vec![Datum::Null])).collect();
        let stats = analyze(all_null.iter(), 1, 1);
        assert_eq!(stats.columns[0].n_distinct, 0);
        assert_eq!(stats.columns[0].eq_selectivity(), 0.0);
        assert!(stats.columns[0].histogram.is_none());
        assert_eq!(stats.columns[0].null_frac, 1.0);
    }

    #[test]
    fn nan_floats_do_not_poison_fraction_below() {
        let mut values: Vec<Datum> = (0..100).map(|i| Datum::Float(i as f64)).collect();
        values.push(Datum::Float(f64::NAN));
        let h = Histogram::build(values, 10).unwrap();
        // NaN probes and NaN bucket bounds must still produce a finite,
        // bounded estimate (total_cmp sorts NaN above every number).
        for p in [
            Datum::Float(f64::NAN),
            Datum::Float(50.0),
            Datum::Float(f64::INFINITY),
            Datum::Float(f64::NEG_INFINITY),
        ] {
            let f = h.fraction_below(&p);
            assert!(
                f.is_finite() && (0.0..=1.0).contains(&f),
                "got {f} for {p:?}"
            );
        }
    }

    #[test]
    fn float_distinct_counting_uses_bits() {
        let tuples = [
            Tuple::new(vec![Datum::Float(1.0)]),
            Tuple::new(vec![Datum::Float(1.0)]),
            Tuple::new(vec![Datum::Float(2.0)]),
        ];
        let stats = analyze(tuples.iter(), 1, 1);
        assert_eq!(stats.columns[0].n_distinct, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `fraction_below` is monotone in its argument and bounded.
        #[test]
        fn prop_fraction_below_monotone(
            values in prop::collection::vec(-1000i64..1000, 1..300),
            probes in prop::collection::vec(-1200i64..1200, 2..10),
        ) {
            let data: Vec<Datum> = values.iter().copied().map(Datum::Int).collect();
            let h = Histogram::build(data, 16).unwrap();
            let mut probes = probes;
            probes.sort_unstable();
            let fracs: Vec<f64> = probes
                .iter()
                .map(|&p| h.fraction_below(&Datum::Int(p)))
                .collect();
            for f in &fracs {
                prop_assert!((0.0..=1.0).contains(f));
            }
            for w in fracs.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12, "not monotone: {fracs:?}");
            }
        }

        /// Analyze's min/max/ndv agree with a direct computation.
        #[test]
        fn prop_analyze_matches_direct(values in prop::collection::vec(-50i64..50, 1..200)) {
            let tuples: Vec<Tuple> = values
                .iter()
                .map(|&v| Tuple::new(vec![Datum::Int(v)]))
                .collect();
            let stats = analyze(tuples.iter(), 1, 1);
            let col = &stats.columns[0];
            let mut sorted = values.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(col.n_distinct, sorted.len() as u64);
            prop_assert_eq!(col.min.clone(), Some(Datum::Int(*values.iter().min().unwrap())));
            prop_assert_eq!(col.max.clone(), Some(Datum::Int(*values.iter().max().unwrap())));
            prop_assert_eq!(stats.n_rows, values.len() as u64);
        }
    }
}
