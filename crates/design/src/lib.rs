//! dbvirt-design: physical-design advisor co-optimizing secondary
//! indexes and virtual-machine resource shares.
//!
//! The paper's virtualization design advisor chooses each database VM's
//! resource shares assuming the physical design is fixed. This crate
//! closes the other half of the loop: *what to build* and *what to
//! allocate* are decided jointly, because the two interact — an index
//! converts I/O into a little CPU and memory, which changes the shares a
//! VM should receive, which changes which indexes pay for themselves.
//!
//! The pipeline:
//!
//! 1. [`candidates`] — enumerate candidate secondary indexes from the
//!    workload's bound predicates (sargable columns, bounded two-column
//!    composites), priced by the B+tree footprint a real build would
//!    have;
//! 2. [`pricing`] — CoPhy-style what-if pricing: per query, a menu of
//!    configurations (`∅`, singletons, pairs) priced through the what-if
//!    optimizer under the calibrated parameters of each allocation cell,
//!    memoized in the allocation search's dense cost table, a row per
//!    `(VM, query, config)`;
//! 3. [`select`] — greedy selection under a per-VM storage budget,
//!    emitting a replayable decision trace;
//! 4. [`lp`] — a Lagrangian-relaxation lower bound on the selection ILP,
//!    certifying how far greedy can be from optimal;
//! 5. [`advisor`] — the alternating co-optimizer: exact allocation DP
//!    given the indexes, greedy indexes given the allocation, objective
//!    provably non-increasing, to a fixpoint. Its full decision trace is
//!    folded into an FNV-1a fingerprint that must be bit-identical across
//!    processes.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod advisor;
pub mod candidates;
mod error;
pub mod lp;
pub mod pricing;
pub mod select;

pub use advisor::{DesignAdvisor, DesignConfig, JointRecommendation, VmDesign};
pub use candidates::{enumerate_candidates, CandidateSet, IndexCandidate};
pub use error::DesignError;
pub use lp::{lower_bound, LpBound};
pub use pricing::{ConfigMenu, DesignPricer, VmPricer};
pub use select::{select_greedy, Decision, SelectionTrace};

/// Shared test fixtures: a memory-constrained machine whose calibrated
/// cost regime lets secondary indexes genuinely beat cached sequential
/// scans at CPU- or memory-scarce allocation cells.
#[cfg(test)]
pub(crate) mod testutil {
    use dbvirt_calibrate::CalibrationGrid;
    use dbvirt_vmm::MachineSpec;

    /// 1 core, 8 MiB RAM, slow disk: small enough that the effective
    /// cache and CPU budget both bind on a 20k-row table.
    pub fn small_machine() -> MachineSpec {
        MachineSpec {
            cores: 1,
            cycles_per_sec: 1.0e9,
            memory_bytes: 8 * 1024 * 1024,
            disk_seq_bytes_per_sec: 20.0 * 1024.0 * 1024.0,
            disk_random_iops: 100.0,
            page_size: 8192,
        }
    }

    /// A 4x4 calibration grid over [`small_machine`].
    pub fn small_grid() -> CalibrationGrid {
        CalibrationGrid::calibrate(
            small_machine(),
            vec![0.25, 0.5, 0.75, 1.0],
            vec![0.25, 0.5, 0.75, 1.0],
            0.5,
        )
        .unwrap()
    }
}
