//! Physical machine description.

use crate::VmmError;

/// Specification of the physical machine that hosts the virtual machines.
///
/// The defaults mirror the paper's testbed: two 2.8 GHz Xeon CPUs, 4 GB of
/// memory, and a 2007-era SCSI disk (modeled as ~80 MB/s sequential
/// bandwidth and ~130 random IOPS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Number of physical cores.
    pub cores: u32,
    /// Cycles per second delivered by one core at full allocation.
    pub cycles_per_sec: f64,
    /// Physical memory in bytes.
    pub memory_bytes: u64,
    /// Sequential disk read/write bandwidth in bytes per second.
    pub disk_seq_bytes_per_sec: f64,
    /// Random I/O operations per second (one page each).
    pub disk_random_iops: f64,
    /// Database page size in bytes.
    pub page_size: u32,
}

impl MachineSpec {
    /// The paper's testbed: 2 x 2.8 GHz Xeon, 4 GB RAM, 2007-era disk.
    pub fn paper_testbed() -> MachineSpec {
        MachineSpec {
            cores: 2,
            cycles_per_sec: 2.8e9,
            memory_bytes: 4 * 1024 * 1024 * 1024,
            disk_seq_bytes_per_sec: 80.0 * 1024.0 * 1024.0,
            disk_random_iops: 130.0,
            page_size: 8192,
        }
    }

    /// A small machine for fast unit tests: 1 core, 64 MiB RAM, slow disk.
    pub fn tiny() -> MachineSpec {
        MachineSpec {
            cores: 1,
            cycles_per_sec: 1.0e9,
            memory_bytes: 64 * 1024 * 1024,
            disk_seq_bytes_per_sec: 20.0 * 1024.0 * 1024.0,
            disk_random_iops: 100.0,
            page_size: 8192,
        }
    }

    /// Validates that every parameter is physically meaningful.
    pub fn validate(&self) -> Result<(), VmmError> {
        let bad = |reason: &str| {
            Err(VmmError::InvalidMachine {
                reason: reason.to_string(),
            })
        };
        if self.cores == 0 {
            return bad("cores must be >= 1");
        }
        if !(self.cycles_per_sec.is_finite() && self.cycles_per_sec > 0.0) {
            return bad("cycles_per_sec must be positive and finite");
        }
        if self.memory_bytes == 0 {
            return bad("memory_bytes must be positive");
        }
        if !(self.disk_seq_bytes_per_sec.is_finite() && self.disk_seq_bytes_per_sec > 0.0) {
            return bad("disk_seq_bytes_per_sec must be positive and finite");
        }
        if !(self.disk_random_iops.is_finite() && self.disk_random_iops > 0.0) {
            return bad("disk_random_iops must be positive and finite");
        }
        if self.page_size == 0 {
            return bad("page_size must be positive");
        }
        // Unit-mismatch guard: a machine whose physical memory cannot hold
        // even the minimum buffer pool (64 pages) was almost certainly
        // specified in the wrong unit (megabytes instead of bytes, or a
        // page size in kilobytes). Catch it here with a typed error rather
        // than letting a degenerate pool confuse every layer above.
        let floor = crate::vm::MIN_BUFFER_PAGES as u64 * self.page_size as u64;
        if self.memory_bytes < floor {
            return bad(&format!(
                "memory_bytes ({}) is smaller than the minimum buffer pool \
                 ({} pages x {} bytes = {} bytes) — bytes/megabytes unit mismatch?",
                self.memory_bytes,
                crate::vm::MIN_BUFFER_PAGES,
                self.page_size,
                floor
            ));
        }
        // Aggregate rates must stay representable: absurd per-core rates
        // multiplied by the core count must not overflow to infinity.
        if !self.total_cycles_per_sec().is_finite() {
            return bad("cores x cycles_per_sec overflows to a non-finite rate");
        }
        Ok(())
    }

    /// Total CPU cycles per second across all cores.
    pub fn total_cycles_per_sec(&self) -> f64 {
        self.cycles_per_sec * self.cores as f64
    }

    /// Seconds to sequentially read one page at full disk allocation.
    pub fn seq_page_seconds(&self) -> f64 {
        self.page_size as f64 / self.disk_seq_bytes_per_sec
    }

    /// Seconds for one random page I/O at full disk allocation.
    pub fn random_page_seconds(&self) -> f64 {
        1.0 / self.disk_random_iops
    }
}

impl Default for MachineSpec {
    fn default() -> MachineSpec {
        MachineSpec::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_valid() {
        MachineSpec::paper_testbed().validate().unwrap();
        MachineSpec::tiny().validate().unwrap();
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut m = MachineSpec::tiny();
        m.cores = 0;
        assert!(m.validate().is_err());

        let mut m = MachineSpec::tiny();
        m.cycles_per_sec = 0.0;
        assert!(m.validate().is_err());

        let mut m = MachineSpec::tiny();
        m.disk_random_iops = f64::NAN;
        assert!(m.validate().is_err());

        let mut m = MachineSpec::tiny();
        m.page_size = 0;
        assert!(m.validate().is_err());
    }

    /// Hostile-input audit: zero / negative / NaN / infinite capacities and
    /// unit-mismatched fields must all surface as typed `VmmError`s from
    /// `validate()`, never as panics (or nonsense) further downstream.
    #[test]
    fn hostile_specs_return_typed_errors() {
        let hostile: Vec<MachineSpec> = vec![
            // Negative and non-finite float capacities.
            MachineSpec {
                cycles_per_sec: -2.8e9,
                ..MachineSpec::tiny()
            },
            MachineSpec {
                cycles_per_sec: f64::INFINITY,
                ..MachineSpec::tiny()
            },
            MachineSpec {
                disk_seq_bytes_per_sec: f64::NAN,
                ..MachineSpec::tiny()
            },
            MachineSpec {
                disk_seq_bytes_per_sec: -1.0,
                ..MachineSpec::tiny()
            },
            MachineSpec {
                disk_random_iops: 0.0,
                ..MachineSpec::tiny()
            },
            // Unit mismatch: "64 megabytes" written as 64 bytes cannot hold
            // the minimum buffer pool.
            MachineSpec {
                memory_bytes: 64,
                ..MachineSpec::tiny()
            },
            // Memory smaller than a single page.
            MachineSpec {
                memory_bytes: 4096,
                page_size: 8192,
                ..MachineSpec::tiny()
            },
            // Per-core rate near f64::MAX overflows the aggregate rate.
            MachineSpec {
                cores: u32::MAX,
                cycles_per_sec: f64::MAX / 2.0,
                ..MachineSpec::tiny()
            },
        ];
        for (i, m) in hostile.iter().enumerate() {
            let err = m
                .validate()
                .expect_err(&format!("spec {i} must be rejected"));
            assert!(
                matches!(err, VmmError::InvalidMachine { .. }),
                "spec {i}: wrong error {err:?}"
            );
            // And the layers above propagate the same typed error instead
            // of panicking.
            let vm = crate::VirtualMachine::new(*m, crate::ResourceVector::full_machine());
            assert!(
                matches!(vm, Err(VmmError::InvalidMachine { .. })),
                "spec {i}"
            );
        }
    }

    #[test]
    fn smallest_honest_memory_is_accepted() {
        // Exactly the minimum pool is fine; one byte less is not.
        let mut m = MachineSpec::tiny();
        m.memory_bytes = 64 * 8192;
        m.validate().unwrap();
        m.memory_bytes -= 1;
        assert!(m.validate().is_err());
    }

    #[test]
    fn derived_rates_make_sense() {
        let m = MachineSpec::paper_testbed();
        assert!((m.total_cycles_per_sec() - 5.6e9).abs() < 1.0);
        // 8 KiB at 80 MiB/s is ~97.7 microseconds.
        assert!((m.seq_page_seconds() - 8192.0 / (80.0 * 1024.0 * 1024.0)).abs() < 1e-12);
        // Random I/O is much slower than sequential for a spinning disk.
        assert!(m.random_page_seconds() > 50.0 * m.seq_page_seconds());
    }
}
