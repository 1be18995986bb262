//! Resource shares and the paper's allocation matrix `R`.
//!
//! The virtualization design problem allocates, for each of `m` physical
//! resources, a fraction `r_ij` of resource `j` to workload `i`, subject to
//! `r_ij >= 0` and `sum_i r_ij = 1` for every resource `j`. This module
//! provides validated building blocks for those fractions:
//! [`Share`] (one fraction), [`ResourceVector`] (the paper's `R_i`, one row)
//! and [`AllocationMatrix`] (the paper's `R`, all rows).

use crate::VmmError;
use std::fmt;

/// The controllable physical resources (the paper's `m = 3` case:
/// CPU, memory, and I/O bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU time share (Xen credit-scheduler cap in the paper).
    Cpu,
    /// Physical memory share (Xen memory allocation in the paper).
    Memory,
    /// Disk bandwidth share.
    DiskBandwidth,
}

/// All resource kinds, in the canonical column order used by
/// [`ResourceVector`] and [`AllocationMatrix`].
pub(crate) const RESOURCE_KINDS: [ResourceKind; 3] = [
    ResourceKind::Cpu,
    ResourceKind::Memory,
    ResourceKind::DiskBandwidth,
];

impl ResourceKind {
    /// Canonical column index of this resource.
    pub fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::DiskBandwidth => 2,
        }
    }

    /// Short lowercase name, used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::DiskBandwidth => "disk-bw",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated resource fraction in `[0, 1]`.
///
/// `Share` is a newtype over `f64` whose constructor enforces the paper's
/// `r_ij >= 0` constraint (and the physical upper bound of the whole
/// machine). Comparisons are exact on the underlying float, which is safe
/// because shares are only produced by deterministic constructors.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Share(f64);

impl Share {
    /// The full machine (share = 1).
    pub const FULL: Share = Share(1.0);
    /// No allocation (share = 0).
    pub const ZERO: Share = Share(0.0);
    /// Half the machine; the "default allocation" in the paper's experiments.
    pub const HALF: Share = Share(0.5);

    /// Creates a share, validating that it is finite and within `[0, 1]`.
    pub fn new(value: f64) -> Result<Share, VmmError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Share(value))
        } else {
            Err(VmmError::InvalidShare { value })
        }
    }

    /// The share as a fraction in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The share as a percentage.
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// True if the share is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl TryFrom<f64> for Share {
    type Error = VmmError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Share::new(value)
    }
}

impl From<Share> for f64 {
    fn from(s: Share) -> f64 {
        s.0
    }
}

impl fmt::Display for Share {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent())
    }
}

/// The paper's `R_i = [r_i1, ..., r_im]`: the share of each resource given
/// to one workload's virtual machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceVector {
    cpu: Share,
    memory: Share,
    disk: Share,
}

impl ResourceVector {
    /// Builds a resource vector from explicit shares.
    pub fn new(cpu: Share, memory: Share, disk: Share) -> ResourceVector {
        ResourceVector { cpu, memory, disk }
    }

    /// Builds a resource vector from raw fractions, validating each.
    pub fn from_fractions(cpu: f64, memory: f64, disk: f64) -> Result<ResourceVector, VmmError> {
        Ok(ResourceVector {
            cpu: Share::new(cpu)?,
            memory: Share::new(memory)?,
            disk: Share::new(disk)?,
        })
    }

    /// The same share of every resource — e.g. `uniform(Share::HALF)` is one
    /// row of the paper's "default allocation".
    pub fn uniform(share: Share) -> ResourceVector {
        ResourceVector {
            cpu: share,
            memory: share,
            disk: share,
        }
    }

    /// The whole machine; what a single VM should get (paper, Section 3).
    pub fn full_machine() -> ResourceVector {
        ResourceVector::uniform(Share::FULL)
    }

    /// The CPU share.
    pub fn cpu(&self) -> Share {
        self.cpu
    }

    /// The memory share.
    pub fn memory(&self) -> Share {
        self.memory
    }

    /// The disk-bandwidth share.
    pub fn disk(&self) -> Share {
        self.disk
    }

    /// The share of resource `kind`.
    pub fn get(&self, kind: ResourceKind) -> Share {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::Memory => self.memory,
            ResourceKind::DiskBandwidth => self.disk,
        }
    }

    /// Returns a copy with the share of `kind` replaced.
    pub fn with(&self, kind: ResourceKind, share: Share) -> ResourceVector {
        let mut out = *self;
        match kind {
            ResourceKind::Cpu => out.cpu = share,
            ResourceKind::Memory => out.memory = share,
            ResourceKind::DiskBandwidth => out.disk = share,
        }
        out
    }

    /// Shares in canonical [`RESOURCE_KINDS`] order.
    pub fn as_array(&self) -> [Share; 3] {
        [self.cpu, self.memory, self.disk]
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu {}, mem {}, disk {}]",
            self.cpu, self.memory, self.disk
        )
    }
}

/// The paper's `m x N` allocation matrix `R`: one [`ResourceVector`] row per
/// workload, with the feasibility constraint that each resource column sums
/// to at most the whole machine.
///
/// The paper states `sum_i r_ij = 1`; we validate `<= 1 + eps` so that
/// partial allocations (holding capacity back) are representable, and expose
/// [`AllocationMatrix::is_fully_utilized`] to check the equality case.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationMatrix {
    rows: Vec<ResourceVector>,
}

/// Tolerance used when checking column sums against 1.
const COLUMN_SUM_EPS: f64 = 1e-9;

impl AllocationMatrix {
    /// Builds a validated allocation matrix from per-workload rows.
    pub fn new(rows: Vec<ResourceVector>) -> Result<AllocationMatrix, VmmError> {
        if rows.is_empty() {
            return Err(VmmError::EmptyAllocation);
        }
        for kind in RESOURCE_KINDS {
            let total: f64 = rows.iter().map(|r| r.get(kind).fraction()).sum();
            if total > 1.0 + COLUMN_SUM_EPS {
                return Err(VmmError::Oversubscribed {
                    resource: kind.name(),
                    total,
                });
            }
        }
        Ok(AllocationMatrix { rows })
    }

    /// The paper's default allocation: every resource divided equally among
    /// `n` workloads.
    pub fn equal_split(n: usize) -> Result<AllocationMatrix, VmmError> {
        if n == 0 {
            return Err(VmmError::EmptyAllocation);
        }
        let share = Share::new(1.0 / n as f64).expect("1/n is in (0,1]");
        AllocationMatrix::new(vec![ResourceVector::uniform(share); n])
    }

    /// Number of workloads (rows).
    pub fn num_workloads(&self) -> usize {
        self.rows.len()
    }

    /// The row for workload `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> ResourceVector {
        self.rows[i]
    }

    /// Iterates over the per-workload rows.
    pub fn rows(&self) -> impl Iterator<Item = &ResourceVector> {
        self.rows.iter()
    }

    /// The column sum for one resource.
    pub fn column_sum(&self, kind: ResourceKind) -> f64 {
        self.rows.iter().map(|r| r.get(kind).fraction()).sum()
    }

    /// True if every resource column sums to 1 (within tolerance) — the
    /// paper's strict `sum_i r_ij = 1` constraint.
    pub fn is_fully_utilized(&self) -> bool {
        RESOURCE_KINDS
            .into_iter()
            .all(|k| (self.column_sum(k) - 1.0).abs() <= 1e-6)
    }
}

impl fmt::Display for AllocationMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, row) in self.rows.iter().enumerate() {
            writeln!(f, "W{i}: {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_bounds_are_enforced() {
        assert!(Share::new(0.0).is_ok());
        assert!(Share::new(1.0).is_ok());
        assert!(Share::new(-0.01).is_err());
        assert!(Share::new(1.01).is_err());
        assert!(Share::new(f64::NAN).is_err());
        assert!(Share::new(f64::INFINITY).is_err());
    }

    #[test]
    fn share_percent_conversions() {
        let s = Share::new(0.25).unwrap();
        assert!((s.fraction() - 0.25).abs() < 1e-12);
        assert!((s.percent() - 25.0).abs() < 1e-12);
        assert_eq!(s.to_string(), "25.0%");
    }

    #[test]
    fn resource_vector_accessors() {
        let r = ResourceVector::from_fractions(0.25, 0.5, 0.75).unwrap();
        assert_eq!(r.get(ResourceKind::Cpu).fraction(), 0.25);
        assert_eq!(r.get(ResourceKind::Memory).fraction(), 0.5);
        assert_eq!(r.get(ResourceKind::DiskBandwidth).fraction(), 0.75);
        let r2 = r.with(ResourceKind::Cpu, Share::new(0.9).unwrap());
        assert_eq!(r2.cpu().fraction(), 0.9);
        assert_eq!(r2.memory().fraction(), 0.5);
    }

    #[test]
    fn equal_split_is_feasible_and_fully_utilized() {
        for n in 1..=8 {
            let m = AllocationMatrix::equal_split(n).unwrap();
            assert_eq!(m.num_workloads(), n);
            assert!(
                m.is_fully_utilized(),
                "equal split of {n} not fully utilized"
            );
        }
    }

    #[test]
    fn oversubscription_is_rejected() {
        let row = ResourceVector::uniform(Share::new(0.6).unwrap());
        let err = AllocationMatrix::new(vec![row, row]).unwrap_err();
        match err {
            VmmError::Oversubscribed { resource, total } => {
                assert_eq!(resource, "cpu");
                assert!((total - 1.2).abs() < 1e-9);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_matrix_is_rejected() {
        assert_eq!(
            AllocationMatrix::new(vec![]).unwrap_err(),
            VmmError::EmptyAllocation
        );
        assert_eq!(
            AllocationMatrix::equal_split(0).unwrap_err(),
            VmmError::EmptyAllocation
        );
    }
}
