//! The workspace's one what-if cost store: a dense, write-once table.
//!
//! The search algorithms, the fleet ladder and the design advisor all
//! price the same `(row, cpu units, mem units)` cell many times; the table
//! makes each cell a single model call. A *row* is whatever a tier prices
//! along the share lattice — a workload here, a VM per machine class in
//! `dbvirt-fleet`, a `(VM, query, index configuration)` in `dbvirt-design`.
//!
//! The contract:
//!
//! * **Extent = `units`.** The first [`CostCache::rows`] call fixes the
//!   share discretization — `(units, disk share)`, which every cell's
//!   `ResourceVector` carries — and every later call must repeat it: cell
//!   `(w, 2, 2)` is a 25 % share at 8 units and 50 % at 4, so a table
//!   asked under another lattice is a typed error, never a stale cost. A
//!   row is one dense `(units + 1)²` block; a cell outside it is `None` /
//!   `false`, never an index out of bounds.
//! * **Rows on demand.** Rows are created under `&self` when first
//!   resolved and handed out as [`Arc<CostRow>`] handles. A solve, a
//!   placement request or a pricer resolves its handles once; the per-cell
//!   path then takes no lock and hashes nothing.
//! * **Write-once cells.** A cell is a `OnceLock<f64>`: the first insert
//!   wins, a read is one atomic load, and a stored NaN is a value like any
//!   other — nothing doubles as "cold".
//! * **Exact `evaluations()`.** Only a successful first write counts, so
//!   the count equals the number of distinct cells under any interleaving
//!   of any number of threads, identical to a serial run touching the same
//!   cell set.
//!
//! The table stores **unweighted** model costs (no SLO weight folded in).
//! That makes cells reusable across design problems that differ only in
//! workload weights: a re-weighted re-solve reads the cells the first
//! solve paid for.

use crate::CoreError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A cell's address: `(row, cpu units, mem units)`.
pub(crate) type CellKey = (usize, u32, u32);

const POISONED: &str = "a thread panicked while holding the row directory";

/// One row of a [`CostCache`]: the dense `(cpu units, mem units)` block of
/// one workload's unweighted costs. Lock-free to read and to fill.
pub struct CostRow {
    /// `units + 1`: both axes run `0..=units`.
    side: usize,
    /// `cells[cpu · side + mem]`.
    cells: Box<[OnceLock<f64>]>,
    /// The owning table's count of first writes.
    evals: Arc<AtomicUsize>,
}

impl CostRow {
    fn cell(&self, cpu: u32, mem: u32) -> Option<&OnceLock<f64>> {
        let (c, m) = (cpu as usize, mem as usize);
        (c < self.side && m < self.side).then(|| &self.cells[c * self.side + m])
    }

    /// The cell's cost, if one was written.
    pub fn get(&self, cpu: u32, mem: u32) -> Option<f64> {
        self.cell(cpu, mem)?.get().copied()
    }

    /// Writes a freshly computed cost. Returns `true` (and counts one
    /// evaluation) only for the first write of a cell inside the extent.
    pub fn insert(&self, cpu: u32, mem: u32, cost: f64) -> bool {
        let first = self.cell(cpu, mem).is_some_and(|c| c.set(cost).is_ok());
        if first {
            self.evals.fetch_add(1, Ordering::Relaxed);
        }
        first
    }
}

/// The dense what-if cost table. See the module docs for its contract.
#[derive(Default)]
pub struct CostCache {
    /// `(units, disk share)`, fixed by the first [`CostCache::rows`].
    shape: OnceLock<(u32, f64)>,
    rows: RwLock<BTreeMap<usize, Arc<CostRow>>>,
    evals: Arc<AtomicUsize>,
}

impl CostCache {
    /// An empty table whose first use fixes its share discretization.
    pub fn new() -> CostCache {
        CostCache::default()
    }

    /// Handles on the rows `rows`, created on demand, of a table asked at
    /// `units` share steps and a fixed `disk_share` — the table's for good
    /// once asked; a later call under another lattice is a
    /// [`CoreError::BadProblem`].
    pub fn rows(
        &self,
        units: u32,
        disk_share: f64,
        rows: impl IntoIterator<Item = usize>,
    ) -> Result<Vec<Arc<CostRow>>, CoreError> {
        let fixed = *self.shape.get_or_init(|| (units, disk_share));
        if fixed != (units, disk_share) {
            let reason = format!("cost table fixed at {fixed:?} asked at ({units}, {disk_share})");
            return Err(CoreError::BadProblem { reason });
        }
        let side = units as usize + 1;
        let fresh = || CostRow {
            side,
            cells: (0..side * side).map(|_| OnceLock::new()).collect(),
            evals: Arc::clone(&self.evals),
        };
        let mut directory = self.rows.write().expect(POISONED);
        let handle = |w| Arc::clone(directory.entry(w).or_insert_with(|| Arc::new(fresh())));
        Ok(rows.into_iter().map(handle).collect())
    }

    /// Number of distinct cells evaluated into this table so far.
    pub fn evaluations(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Handles on rows `0..rows` of a fresh table asked at `units` share
    /// steps.
    fn table(units: u32, rows: usize) -> (CostCache, Vec<Arc<CostRow>>) {
        let cache = CostCache::new();
        let handles = cache.rows(units, 1.0, 0..rows).unwrap();
        (cache, handles)
    }

    #[test]
    fn insert_counts_distinct_cells_only() {
        let (cache, rows) = table(2, 2);
        assert!(rows[0].insert(1, 2, 1.5));
        assert!(!rows[0].insert(1, 2, 1.5));
        assert!(rows[1].insert(1, 2, 2.5));
        assert_eq!(cache.evaluations(), 2);
        assert_eq!(rows[0].get(1, 2), Some(1.5));
        assert_eq!(rows[1].get(1, 2), Some(2.5));
        assert_eq!(rows[0].get(2, 1), None);
        // A row resolved later starts cold.
        assert_eq!(cache.rows(2, 1.0, [2]).unwrap()[0].get(1, 2), None);
    }

    #[test]
    fn the_first_use_fixes_the_lattice() {
        let cache = CostCache::new();
        let rows = cache.rows(8, 0.5, 0..2).unwrap();
        assert!(rows[1].insert(2, 2, 4.0));
        // The same lattice again resolves the same rows.
        assert_eq!(cache.rows(8, 0.5, [1]).unwrap()[0].get(2, 2), Some(4.0));
        for (units, disk_share) in [(4, 0.5), (8, 0.25)] {
            let refused = cache.rows(units, disk_share, 0..2);
            assert!(matches!(refused, Err(CoreError::BadProblem { .. })));
        }
        assert_eq!(cache.evaluations(), 1);
    }

    /// What the fleet's per-class stores used to check of their dense
    /// copies: one table per machine class, so another class never leaks;
    /// a never-written cell is cold; a cell outside the extent, or of a row
    /// resolved late, is a miss — never a wrong neighbour, an index out of
    /// bounds or an allocation the size of the key.
    #[test]
    fn cold_outside_and_other_table_cells_all_miss() {
        let ((small, s), (big, b)) = (table(3, 3), table(3, 3));
        assert!(s[1].insert(1, 2, 10.0));
        assert!(s[1].insert(0, 3, 8.0));
        assert!(b[1].insert(1, 2, 99.0));
        assert_eq!(s[1].get(1, 2), Some(10.0));
        assert_eq!(s[1].get(0, 3), Some(8.0));
        assert_eq!(b[1].get(1, 2), Some(99.0));
        assert_eq!(b[1].get(0, 3), None); // cold on this class
        assert_eq!(s[1].get(2, 1), None); // never written
        assert_eq!(s[2].get(1, 2), None); // nothing in this row
        let outside = [
            (4, 1),
            (1, 4),
            (u32::MAX, 1),
            (1, u32::MAX),
            (u32::MAX, u32::MAX),
        ];
        for (cpu, mem) in outside {
            assert_eq!(s[1].get(cpu, mem), None);
            assert!(!s[1].insert(cpu, mem, 7.0));
        }
        // A row far past the last is one more row, not a directory that
        // long, and it starts cold.
        for row in [3, 1 << 40, usize::MAX] {
            assert_eq!(small.rows(3, 1.0, [row]).unwrap()[0].get(1, 1), None);
        }
        let far = &small.rows(3, 1.0, [usize::MAX]).unwrap()[0];
        assert!(far.insert(1, 1, 3.0));
        let again = &small.rows(3, 1.0, [usize::MAX]).unwrap()[0];
        assert_eq!(again.get(1, 1), Some(3.0));
        assert_eq!((small.evaluations(), big.evaluations()), (3, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The table against a `HashMap` under random interleavings of
        /// reads and writes — cells inside and outside the extent, rows
        /// resolved up front (near and far) and rows resolved on first use:
        /// first write wins, a NaN is stored once and read back as NaN, the
        /// count is the number of distinct keys, and every cell of every
        /// row touched reads what the map holds.
        #[test]
        fn the_table_answers_as_a_hash_map_does(
            units in 1u32..6,
            ops in prop::collection::vec(
                (prop::bool::ANY, 0usize..5, 0u32..8, 0u32..8, 0u32..5),
                1..200,
            ),
        ) {
            let (cache, _) = table(units, 3);
            cache.rows(units, 1.0, [usize::MAX]).unwrap();
            let mut reference: HashMap<CellKey, f64> = HashMap::new();
            let mut touched = Vec::new();
            for (write, w, cpu, mem, v) in ops {
                let row = match w {
                    3 => usize::MAX,
                    4 => usize::MAX - 1 - cpu as usize,
                    _ => w,
                };
                touched.push(row);
                let handle = &cache.rows(units, 1.0, [row]).unwrap()[0];
                let cpu = if v == 4 { u32::MAX - cpu } else { cpu };
                let key = (row, cpu, mem);
                if write {
                    let cost = if v == 0 { f64::NAN } else { v as f64 + mem as f64 };
                    let inside = cpu <= units && mem <= units;
                    let first = inside && !reference.contains_key(&key);
                    prop_assert_eq!(handle.insert(cpu, mem, cost), first, "{:?}", key);
                    if first {
                        reference.insert(key, cost);
                    }
                } else {
                    let expected = reference.get(&key).map(|c| c.to_bits());
                    prop_assert_eq!(handle.get(cpu, mem).map(f64::to_bits), expected, "{:?}", key);
                }
            }
            prop_assert_eq!(cache.evaluations(), reference.len());
            for (row, handle) in touched.iter().zip(cache.rows(units, 1.0, touched.clone()).unwrap()) {
                for (cpu, mem) in (0..=units).flat_map(|c| (0..=units).map(move |m| (c, m))) {
                    let expected = reference.get(&(*row, cpu, mem)).map(|c| c.to_bits());
                    prop_assert_eq!(handle.get(cpu, mem).map(f64::to_bits), expected);
                }
            }
        }
    }

    #[test]
    fn concurrent_hammering_keeps_exact_counts() {
        // Many threads racing over an overlapping key set: every key must
        // end up present exactly once, with the evaluation count equal to
        // the number of distinct keys regardless of interleaving.
        let units = 499;
        let (cache, _) = table(units, 9);
        let n_threads = 8;
        let keys_per_thread = 500usize;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let rows = cache.rows(units, 1.0, 0..9).unwrap();
                scope.spawn(move || {
                    for i in 0..keys_per_thread {
                        // Overlap: every thread also writes the shared
                        // stripe (workload 0), plus its own stripe.
                        rows[0].insert((i % 50) as u32, (i / 50) as u32, (i % 50) as f64);
                        rows[t + 1].insert(i as u32, (t * 31) as u32, i as f64);
                    }
                });
            }
        });
        let distinct_shared = 50 * (keys_per_thread / 50);
        let distinct_own = n_threads * keys_per_thread;
        assert_eq!(cache.evaluations(), distinct_shared + distinct_own);
        // Cell by cell over the extent: exactly the keys written are
        // present, and each holds the deterministic function of its key,
        // not of the winning thread.
        let rows = cache.rows(units, 1.0, 0..9).unwrap();
        let mut present = 0;
        for (w, row) in rows.iter().enumerate() {
            for (cpu, mem) in (0..=units).flat_map(|c| (0..=units).map(move |m| (c, m))) {
                let expected = match w {
                    0 => (cpu < 50 && mem < 10).then_some(cpu as f64),
                    _ => (mem == ((w - 1) * 31) as u32).then_some(cpu as f64),
                };
                assert_eq!(row.get(cpu, mem), expected, "({w}, {cpu}, {mem})");
                present += usize::from(expected.is_some());
            }
        }
        assert_eq!(present, distinct_shared + distinct_own);
    }
}
