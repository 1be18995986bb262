//! Sort operator with `work_mem`-aware external-sort accounting.

use super::{collect, RowSink};
use crate::runtime::{EngineError, ExecContext, SpillEvent};
use crate::{PhysicalPlan, SortKey};
use dbvirt_storage::DatumRef;
use std::cmp::Ordering;

/// Sorts `input`'s rows by `keys` (major key first; rows that tie keep
/// their input order) and pushes them to `sink`. The rows are kept encoded;
/// what is sorted is a permutation of their indexes, compared on the key
/// columns, each read out of its record once. When the input exceeds the
/// context's `work_mem`, the spill of one external-merge pass is charged
/// ([`SpillEvent::pages`]).
pub(crate) fn sort(
    ctx: &mut ExecContext<'_>,
    input: &PhysicalPlan,
    keys: &[SortKey],
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let rows = collect(ctx, input)?;
    let n = rows.len() as f64;
    if n > 1.0 {
        let comparisons = n * n.log2();
        ctx.charge_cpu(comparisons * ctx.costs.per_sort_cmp * keys.len().max(1) as f64);
    }

    ctx.record_spill(SpillEvent::Sort {
        bytes: rows.encoded_bytes(),
    });

    // Row `i`'s key values are `key_values[i * keys.len()..][..keys.len()]`.
    let mut key_values: Vec<DatumRef<'_>> = Vec::with_capacity(rows.len() * keys.len());
    for row in rows.iter() {
        key_values.extend(keys.iter().map(|key| row.get(key.column)));
    }
    let key_of = |row: usize| &key_values[row * keys.len()..][..keys.len()];
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| {
        for ((key, a), b) in keys.iter().zip(key_of(a)).zip(key_of(b)) {
            let ord = a.total_cmp(*b);
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    for &row in &order {
        sink(&rows.get(row));
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests_support::run_over;
    use dbvirt_storage::{Datum, Tuple};
    use dbvirt_vmm::ResourceDemand;

    fn rows(data: &[(i64, &str)]) -> Vec<Tuple> {
        data.iter()
            .map(|(a, b)| Tuple::new(vec![Datum::Int(*a), Datum::str(*b)]))
            .collect()
    }

    /// Sorts `input`, returning the rows and what the sort charged directly.
    pub(super) fn sort(
        work_mem_bytes: usize,
        input: Vec<Tuple>,
        keys: &[SortKey],
    ) -> (Vec<Tuple>, ResourceDemand) {
        run_over(work_mem_bytes, [input], |[input]| PhysicalPlan::Sort {
            input,
            keys: keys.to_vec(),
        })
    }

    #[test]
    fn single_key_ascending_and_descending() {
        let input = rows(&[(3, "c"), (1, "a"), (2, "b")]);
        let (asc, _) = sort(1 << 20, input.clone(), &[SortKey::asc(0)]);
        let got: Vec<i64> = asc.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
        let (desc, _) = sort(1 << 20, input, &[SortKey::desc(0)]);
        let got: Vec<i64> = desc.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(got, vec![3, 2, 1]);
    }

    #[test]
    fn multi_key_sort() {
        let input = rows(&[(1, "b"), (2, "a"), (1, "a"), (2, "b")]);
        let (out, _) = sort(1 << 20, input, &[SortKey::asc(0), SortKey::desc(1)]);
        assert_eq!(out, rows(&[(1, "b"), (1, "a"), (2, "b"), (2, "a")]));
    }

    #[test]
    fn ties_keep_their_input_order() {
        let input = rows(&[(2, "first"), (1, "x"), (2, "second"), (2, "third")]);
        let (out, _) = sort(1 << 20, input, &[SortKey::desc(0)]);
        let expect = rows(&[(2, "first"), (2, "second"), (2, "third"), (1, "x")]);
        assert_eq!(out, expect);
    }

    #[test]
    fn nulls_sort_first() {
        let input = vec![
            Tuple::new(vec![Datum::Int(1)]),
            Tuple::new(vec![Datum::Null]),
        ];
        let (out, _) = sort(1 << 20, input, &[SortKey::asc(0)]);
        assert!(out[0].get(0).is_null());
    }

    #[test]
    fn small_sort_stays_in_memory_large_sort_spills() {
        let small = rows(&[(2, "b"), (1, "a")]);
        let (_, demand) = sort(1 << 20, small, &[SortKey::asc(0)]);
        assert_eq!(demand.page_writes, 0);

        let big: Vec<Tuple> = (0..500)
            .map(|i| Tuple::new(vec![Datum::Int(500 - i), Datum::str("pad pad pad")]))
            .collect();
        let (out, demand) = sort(512, big, &[SortKey::asc(0)]);
        assert!(demand.page_writes > 0, "external sort must spill");
        assert_eq!(demand.page_writes, demand.seq_page_reads);
        assert!(out
            .windows(2)
            .all(|w| w[0].get(0).total_cmp(w[1].get(0)).is_le()));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::sort;
    use crate::SortKey;
    use dbvirt_storage::{Datum, Tuple};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sort output is a correctly-ordered permutation of its input.
        #[test]
        fn prop_sort_is_ordered_permutation(
            values in prop::collection::vec((-100i64..100, -100i64..100), 0..200),
            desc in prop::bool::ANY,
        ) {
            let input: Vec<Tuple> = values
                .iter()
                .map(|(a, b)| Tuple::new(vec![Datum::Int(*a), Datum::Int(*b)]))
                .collect();
            let key = SortKey { column: 0, descending: desc };
            let (out, _) = sort(1 << 20, input.clone(), &[key, SortKey::asc(1)]);
            // Permutation: same multiset.
            let project = |ts: &[Tuple]| {
                let mut v: Vec<(i64, i64)> = ts
                    .iter()
                    .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(project(&input), project(&out));
            // Ordered by (key0 dir, key1 asc).
            for w in out.windows(2) {
                let a = (w[0].get(0).as_int().unwrap(), w[0].get(1).as_int().unwrap());
                let b = (w[1].get(0).as_int().unwrap(), w[1].get(1).as_int().unwrap());
                if desc {
                    prop_assert!(a.0 > b.0 || (a.0 == b.0 && a.1 <= b.1));
                } else {
                    prop_assert!(a.0 < b.0 || (a.0 == b.0 && a.1 <= b.1));
                }
            }
        }
    }
}
