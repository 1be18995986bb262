//! The virtual machine model: shares × machine → effective resources.

use crate::{MachineSpec, ResourceDemand, ResourceVector, VmmError};

/// Fraction of a VM's memory available to the database as page cache
/// (standing in for `shared_buffers` plus the OS file cache that PostgreSQL
/// relies on).
pub(crate) const BUFFER_FRACTION: f64 = 0.6;

/// Minimum buffer pool size, in pages, regardless of how little memory the
/// VM was given (PostgreSQL likewise refuses to run with a degenerate
/// buffer pool).
pub(crate) const MIN_BUFFER_PAGES: usize = 64;

/// A virtual machine: a [`MachineSpec`] plus the [`ResourceVector`] of shares
/// granted to it by the virtualization layer.
///
/// The conversion laws are the ones the paper's calibration must recover:
///
/// * **CPU**: the VM's compute rate is `total_cycles_per_sec * cpu_share`
///   (a Xen credit-scheduler cap dilates CPU-bound work as `1 / share`);
/// * **Disk**: sequential bandwidth and random IOPS are throttled by the
///   disk share;
/// * **Memory**: the memory share bounds the VM's page cache, which in turn
///   determines how many logical reads become physical reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualMachine {
    spec: MachineSpec,
    shares: ResourceVector,
}

impl VirtualMachine {
    /// Creates a VM, validating the machine and requiring strictly positive
    /// CPU, memory and disk shares (a VM with a zero share of any resource
    /// can make no progress).
    pub fn new(spec: MachineSpec, shares: ResourceVector) -> Result<VirtualMachine, VmmError> {
        spec.validate()?;
        for share in shares.as_array() {
            if share.is_zero() {
                return Err(VmmError::InvalidShare {
                    value: share.fraction(),
                });
            }
        }
        Ok(VirtualMachine { spec, shares })
    }

    /// The underlying physical machine.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The shares granted to this VM.
    pub fn shares(&self) -> ResourceVector {
        self.shares
    }

    /// Memory visible to the VM, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.spec.memory_bytes as f64 * self.shares.memory().fraction()) as u64
    }

    /// Buffer-pool capacity in pages implied by the VM's memory share.
    pub fn buffer_pool_pages(&self) -> usize {
        let bytes = self.memory_bytes() as f64 * BUFFER_FRACTION;
        let pages = (bytes / self.spec.page_size as f64) as usize;
        pages.max(MIN_BUFFER_PAGES)
    }

    /// CPU cycles per second the VM can consume.
    pub(crate) fn cpu_rate(&self) -> f64 {
        self.spec.total_cycles_per_sec() * self.shares.cpu().fraction()
    }

    /// Sequential page reads per second the VM can perform.
    pub(crate) fn seq_page_rate(&self) -> f64 {
        self.shares.disk().fraction() * self.spec.disk_seq_bytes_per_sec
            / self.spec.page_size as f64
    }

    /// Random page reads per second the VM can perform.
    pub(crate) fn random_page_rate(&self) -> f64 {
        self.shares.disk().fraction() * self.spec.disk_random_iops
    }

    /// Simulated seconds to satisfy `demand` on this VM, as a breakdown of
    /// `(cpu, sequential I/O, random I/O, writes)`.
    ///
    /// Phases are serial (a single query thread alternates between computing
    /// and waiting on the disk), matching the additive structure of the
    /// PostgreSQL cost model the optimizer side uses.
    pub fn demand_seconds_breakdown(&self, demand: &ResourceDemand) -> (f64, f64, f64, f64) {
        let cpu = demand.cpu_cycles / self.cpu_rate();
        let seq = demand.seq_page_reads as f64 / self.seq_page_rate();
        let rand = demand.random_page_reads as f64 / self.random_page_rate();
        let writes = demand.page_writes as f64 / self.seq_page_rate();
        (cpu, seq, rand, writes)
    }

    /// Total simulated seconds to satisfy `demand` on this VM.
    pub fn demand_seconds(&self, demand: &ResourceDemand) -> f64 {
        let (cpu, seq, rand, writes) = self.demand_seconds_breakdown(demand);
        cpu + seq + rand + writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Share;

    fn vm(cpu: f64, mem: f64, disk: f64) -> VirtualMachine {
        VirtualMachine::new(
            MachineSpec::paper_testbed(),
            ResourceVector::from_fractions(cpu, mem, disk).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn zero_share_is_rejected() {
        let r = ResourceVector::new(Share::ZERO, Share::HALF, Share::HALF);
        assert!(VirtualMachine::new(MachineSpec::paper_testbed(), r).is_err());
    }

    #[test]
    fn cpu_time_dilates_inversely_with_share() {
        let demand = ResourceDemand::cpu(5.6e9); // one second at full machine
        let full = vm(1.0, 0.5, 0.5);
        let half = vm(0.5, 0.5, 0.5);
        let quarter = vm(0.25, 0.5, 0.5);
        let t_full = full.demand_seconds(&demand);
        assert!((t_full - 1.0).abs() < 1e-9);
        assert!((half.demand_seconds(&demand) - 2.0 * t_full).abs() < 1e-9);
        assert!((quarter.demand_seconds(&demand) - 4.0 * t_full).abs() < 1e-9);
    }

    #[test]
    fn io_time_dilates_inversely_with_disk_share() {
        let demand = ResourceDemand {
            seq_page_reads: 1000,
            random_page_reads: 100,
            ..ResourceDemand::ZERO
        };
        let full = vm(0.5, 0.5, 1.0);
        let half = vm(0.5, 0.5, 0.5);
        assert!((half.demand_seconds(&demand) - 2.0 * full.demand_seconds(&demand)).abs() < 1e-9);
    }

    #[test]
    fn memory_share_scales_buffer_pool() {
        let quarter = vm(0.5, 0.25, 0.5);
        let half = vm(0.5, 0.5, 0.5);
        let three_quarters = vm(0.5, 0.75, 0.5);
        assert!(quarter.buffer_pool_pages() < half.buffer_pool_pages());
        assert!(half.buffer_pool_pages() < three_quarters.buffer_pool_pages());
        // 4 GiB * 0.5 share * 0.6 fraction / 8 KiB pages.
        let expect = (4.0 * 1024.0 * 1024.0 * 1024.0 * 0.5 * 0.6 / 8192.0) as usize;
        assert_eq!(half.buffer_pool_pages(), expect);
    }

    #[test]
    fn buffer_pool_has_floor() {
        let v = VirtualMachine::new(
            MachineSpec::tiny(),
            ResourceVector::from_fractions(0.5, 0.01, 0.5).unwrap(),
        )
        .unwrap();
        assert_eq!(v.buffer_pool_pages(), super::MIN_BUFFER_PAGES);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let demand = ResourceDemand {
            cpu_cycles: 1e9,
            seq_page_reads: 500,
            random_page_reads: 50,
            page_writes: 20,
        };
        let v = vm(0.3, 0.6, 0.7);
        let (c, s, r, w) = v.demand_seconds_breakdown(&demand);
        assert!((c + s + r + w - v.demand_seconds(&demand)).abs() < 1e-12);
        assert!(c > 0.0 && s > 0.0 && r > 0.0 && w > 0.0);
    }

    #[test]
    fn random_io_is_costlier_than_sequential() {
        let v = vm(0.5, 0.5, 0.5);
        let seq = ResourceDemand {
            seq_page_reads: 100,
            ..ResourceDemand::ZERO
        };
        let rand = ResourceDemand {
            random_page_reads: 100,
            ..ResourceDemand::ZERO
        };
        assert!(v.demand_seconds(&rand) > 10.0 * v.demand_seconds(&seq));
    }
}
