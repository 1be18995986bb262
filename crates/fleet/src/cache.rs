//! The fleet-level warm cost cache.
//!
//! One store per machine *class*, each **sharded by VM index** across
//! [`VM_SHARDS`] independent [`CostCache`]s, with cells keyed by the
//! VM's **global index** (`(vm, cpu units, mem units)`), since a cell's
//! cost depends only on the VM's workload, the machine class, and the
//! shares — never on which co-residents it has or which concrete machine
//! of the class hosts it (the disk share is a fixed per-VM policy, see
//! [`crate::FleetConfig::disk_share`]).
//!
//! The VM sharding is what lets the pre-warm sweep scale past a handful
//! of worker threads: pre-warm tasks are `(class, vm)` pairs, so two
//! workers touch the same shard only when their VMs collide modulo
//! [`VM_SHARDS`] — multiplied by the [`CostCache`]'s own internal hash
//! shards, thousand-VM fleets warm with effectively no lock contention.
//! Sharding is invisible to correctness: cached values are pure in
//! `(class, vm, cell)` and each `(vm, cell)` key lives in exactly one
//! shard, so lookups are bitwise identical at any worker count.
//!
//! The sharded store is what persists across requests and threads; what a
//! request *reads* is a [`WarmTables`] copy of its warm rectangle, taken
//! once after its pre-warm sweep: one dense table per `(class, vm)`,
//! because that pair is all a cell's cost depends on, so the same table
//! serves every machine subset the VM is ever priced in. The tables hold
//! unweighted costs, like the store — the SLO weight is the request's,
//! not the VM's, and is applied at read.

use dbvirt_core::search::CostCache;

/// VM shards per class store. Each shard is a full [`CostCache`] (which
/// is itself internally hash-sharded), so the effective lock partition is
/// `VM_SHARDS ×` the cache's internal shard count.
const VM_SHARDS: usize = 16;

/// Shared warm cost store for one fleet advisor: a VM-sharded store per
/// machine class. Thread-safe; concurrent placement requests drain and
/// fill it together.
pub struct FleetCostCache {
    /// `per_class[class][vm % VM_SHARDS]` holds VM `vm`'s cells.
    per_class: Vec<Vec<CostCache>>,
}

impl FleetCostCache {
    /// An empty cache covering `n_classes` machine classes.
    pub fn new(n_classes: usize) -> FleetCostCache {
        FleetCostCache {
            per_class: (0..n_classes)
                .map(|_| (0..VM_SHARDS).map(|_| CostCache::new()).collect())
                .collect(),
        }
    }

    /// Number of machine classes this cache partitions over.
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// The shard holding VM `vm`'s cells for `class`.
    fn shard(&self, class: usize, vm: usize) -> &CostCache {
        &self.per_class[class][vm % VM_SHARDS]
    }

    /// The cached unweighted cost of `(class, vm, cpu, mem)`, if present.
    pub fn get(&self, class: usize, vm: usize, cpu: u32, mem: u32) -> Option<f64> {
        self.shard(class, vm).get(&(vm, cpu, mem))
    }

    /// Inserts a freshly evaluated cell. Returns `true` if it was new.
    pub fn insert(&self, class: usize, vm: usize, cpu: u32, mem: u32, cost: f64) -> bool {
        self.shard(class, vm).insert((vm, cpu, mem), cost)
    }

    /// Total distinct cells evaluated into this cache so far.
    pub fn evaluations(&self) -> usize {
        self.per_class
            .iter()
            .flatten()
            .map(|c| c.evaluations())
            .sum()
    }

    /// Copies the warm rectangle (`lo ..= hi` units of each resource) of
    /// VMs `0..num_vms` on every class into dense tables. Cells the store
    /// does not hold stay cold in the copy.
    pub fn warm_tables(&self, num_vms: usize, lo: u32, hi: u32) -> WarmTables {
        let side = (hi + 1 - lo) as usize;
        let mut cells = Vec::with_capacity(self.per_class.len() * num_vms * side * side);
        for class in 0..self.per_class.len() {
            for vm in 0..num_vms {
                let shard = self.shard(class, vm);
                for c in lo..=hi {
                    for m in lo..=hi {
                        cells.push(shard.get(&(vm, c, m)).unwrap_or(COLD));
                    }
                }
            }
        }
        WarmTables {
            lo,
            side,
            num_vms,
            cells,
        }
    }
}

/// Marks a cell the store did not hold when the tables were copied. A
/// model that really prices a cell at NaN only loses the O(1) path: the
/// fallback lookup returns that same NaN.
const COLD: f64 = f64::NAN;

/// One request's warm rectangle, dense by `(class, vm, cpu, mem)`: an
/// O(1) array read per cell, no hashing and no locks.
pub struct WarmTables {
    lo: u32,
    side: usize,
    num_vms: usize,
    /// `cells[((class · num_vms + vm) · side + cpu − lo) · side + mem − lo]`.
    cells: Vec<f64>,
}

impl WarmTables {
    /// The unweighted cost of `(class, vm, cpu, mem)`; `None` for a cell
    /// outside the rectangle or cold when the tables were copied.
    pub fn get(&self, class: usize, vm: usize, cpu: u32, mem: u32) -> Option<f64> {
        let (c, m) = (
            cpu.checked_sub(self.lo)? as usize,
            mem.checked_sub(self.lo)? as usize,
        );
        if vm >= self.num_vms || c >= self.side || m >= self.side {
            return None;
        }
        let at = ((class * self.num_vms + vm) * self.side + c) * self.side + m;
        self.cells.get(at).copied().filter(|cost| !cost.is_nan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_tables_copy_the_rectangle_per_class_and_vm() {
        let cache = FleetCostCache::new(2);
        assert!(cache.insert(0, 1, 1, 2, 10.0));
        assert!(cache.insert(0, 1, 2, 2, 8.0));
        assert!(cache.insert(0, 2, 1, 2, 3.0));
        assert!(cache.insert(1, 1, 1, 2, 99.0)); // other class: must not leak
        assert!(cache.insert(0, 1, 3, 1, 7.0)); // outside the rectangle
        assert!(!cache.insert(0, 1, 1, 2, 10.0)); // dedup
        assert_eq!(cache.evaluations(), 5);

        let tables = cache.warm_tables(3, 1, 2);
        assert_eq!(tables.get(0, 1, 1, 2), Some(10.0));
        assert_eq!(tables.get(0, 1, 2, 2), Some(8.0));
        assert_eq!(tables.get(0, 2, 1, 2), Some(3.0));
        assert_eq!(tables.get(1, 1, 1, 2), Some(99.0));
        assert_eq!(tables.get(1, 2, 1, 2), None); // cold on this class
        assert_eq!(tables.get(0, 0, 1, 1), None); // never warmed
                                                  // Outside the rectangle or the VM range: a miss, never a wrong
                                                  // neighbour and never an index out of bounds.
        assert_eq!(tables.get(0, 1, 3, 1), None);
        assert_eq!(tables.get(0, 1, 0, 2), None);
        assert_eq!(tables.get(0, 1, 1, 3), None);
        assert_eq!(tables.get(0, 3, 1, 2), None);
        assert_eq!(tables.get(2, 0, 1, 1), None);
    }

    #[test]
    fn vm_sharding_is_invisible_to_lookups_and_tables() {
        // VMs that collide modulo VM_SHARDS and VMs that don't: every key
        // resolves to its own value, in the store and in the copy.
        let cache = FleetCostCache::new(1);
        let vms = [0, 1, 15, 16, 17, 31, 32, 100];
        for (i, &vm) in vms.iter().enumerate() {
            assert!(cache.insert(0, vm, 2, 1, i as f64));
            assert!(cache.insert(0, vm, 1, 1, 100.0 + i as f64));
        }
        assert_eq!(cache.evaluations(), 2 * vms.len());
        let tables = cache.warm_tables(101, 1, 2);
        for (i, &vm) in vms.iter().enumerate() {
            assert_eq!(cache.get(0, vm, 2, 1), Some(i as f64));
            assert_eq!(cache.get(0, vm, 1, 1), Some(100.0 + i as f64));
            assert_eq!(tables.get(0, vm, 2, 1), Some(i as f64));
            assert_eq!(tables.get(0, vm, 1, 1), Some(100.0 + i as f64));
            assert_eq!(tables.get(0, vm, 2, 2), None);
        }
        assert_eq!(tables.get(0, 99, 1, 1), None); // never warmed, dense hole
    }
}
