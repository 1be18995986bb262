//! Workload profiles: the controller's compact belief about each VM.
//!
//! The static advisor prices a workload by re-planning its queries under
//! every candidate allocation. An online controller cannot afford that per
//! decision, and — more fundamentally — it does not *know* the workload; it
//! only sees completed queries. A [`WorkloadProfile`] is the distilled
//! belief the streaming statistics maintain: per-query base resource
//! consumption split into cold (compulsory) and re-read (cache-dependent)
//! page accesses, plus a working-set size and an arrival rate. Pricing a
//! profile under a candidate allocation is then closed-form via the linear
//! working-set cache model: a buffer pool of `p` pages serving a working
//! set of `w` pages hits with probability `min(p / w, 1)`.

use crate::{ControllerError, Scenario};
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_vmm::{MachineSpec, ResourceDemand, ResourceVector, VirtualMachine};

/// Per-query resource profile of one VM's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// CPU cycles per query.
    pub cpu_cycles: f64,
    /// Compulsory sequential page reads per query (miss regardless of
    /// buffer pool size).
    pub cold_seq_reads: f64,
    /// Compulsory random page reads per query.
    pub cold_random_reads: f64,
    /// Pages written back per query.
    pub page_writes: f64,
    /// Logical sequential re-accesses per query; each misses with
    /// probability `1 - hit_fraction(pool)`.
    pub reread_seq: f64,
    /// Logical random re-accesses per query.
    pub reread_random: f64,
    /// Working-set size in pages (what the re-accesses touch).
    pub working_set_pages: f64,
    /// Queries completed per control epoch.
    pub queries_per_epoch: f64,
}

impl WorkloadProfile {
    /// Validates that every field is finite and non-negative (and the
    /// arrival rate positive).
    pub fn validate(&self) -> Result<(), ControllerError> {
        let fields = [
            ("cpu_cycles", self.cpu_cycles),
            ("cold_seq_reads", self.cold_seq_reads),
            ("cold_random_reads", self.cold_random_reads),
            ("page_writes", self.page_writes),
            ("reread_seq", self.reread_seq),
            ("reread_random", self.reread_random),
            ("working_set_pages", self.working_set_pages),
            ("queries_per_epoch", self.queries_per_epoch),
        ];
        for (name, v) in fields {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ControllerError::BadScenario {
                    reason: format!("profile {name} must be finite and >= 0, got {v}"),
                });
            }
        }
        if self.queries_per_epoch <= 0.0 {
            return Err(ControllerError::BadScenario {
                reason: "profile queries_per_epoch must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// Buffer-pool hit fraction for the re-access stream under a pool of
    /// `pool_pages` pages (linear working-set model).
    pub(crate) fn hit_fraction(&self, pool_pages: usize) -> f64 {
        if self.working_set_pages <= 0.0 {
            return 1.0;
        }
        (pool_pages as f64 / self.working_set_pages).min(1.0)
    }

    /// The *physical* demand of one query under a buffer pool of
    /// `pool_pages` pages, with all components scaled by `scale`
    /// (per-query size variability).
    pub(crate) fn demand_at(&self, pool_pages: usize, scale: f64) -> ResourceDemand {
        let hit = self.hit_fraction(pool_pages);
        let miss = 1.0 - hit;
        ResourceDemand {
            cpu_cycles: self.cpu_cycles * scale,
            seq_page_reads: ((self.cold_seq_reads + self.reread_seq * miss) * scale).round() as u64,
            random_page_reads: ((self.cold_random_reads + self.reread_random * miss) * scale)
                .round() as u64,
            page_writes: (self.page_writes * scale).round() as u64,
        }
    }

    /// Predicted seconds per query on `vm`.
    pub(crate) fn seconds_per_query(&self, vm: &VirtualMachine) -> f64 {
        vm.demand_seconds(&self.demand_at(vm.buffer_pool_pages(), 1.0))
    }

    /// Predicted seconds per control epoch on `vm` (the controller's
    /// per-VM cost unit).
    pub(crate) fn epoch_seconds(&self, vm: &VirtualMachine) -> f64 {
        self.seconds_per_query(vm) * self.queries_per_epoch
    }

    /// This profile with every per-query demand component (and the working
    /// set) scaled by `factor`, arrival rate unchanged — a query mix that
    /// got heavier, not more frequent.
    pub fn scaled(&self, factor: f64) -> WorkloadProfile {
        WorkloadProfile {
            cpu_cycles: self.cpu_cycles * factor,
            cold_seq_reads: self.cold_seq_reads * factor,
            cold_random_reads: self.cold_random_reads * factor,
            page_writes: self.page_writes * factor,
            reread_seq: self.reread_seq * factor,
            reread_random: self.reread_random * factor,
            working_set_pages: self.working_set_pages * factor,
            queries_per_epoch: self.queries_per_epoch,
        }
    }

    /// This profile with the arrival rate scaled by `factor` — the same
    /// queries, arriving more (or less) often.
    pub(crate) fn rate_scaled(&self, factor: f64) -> WorkloadProfile {
        WorkloadProfile {
            queries_per_epoch: self.queries_per_epoch * factor,
            ..*self
        }
    }

    /// Componentwise linear interpolation toward `other`: `t = 0` is this
    /// profile, `t = 1` is `other`.
    pub fn lerp(&self, other: &WorkloadProfile, t: f64) -> WorkloadProfile {
        let mix = |a: f64, b: f64| a + t * (b - a);
        WorkloadProfile {
            cpu_cycles: mix(self.cpu_cycles, other.cpu_cycles),
            cold_seq_reads: mix(self.cold_seq_reads, other.cold_seq_reads),
            cold_random_reads: mix(self.cold_random_reads, other.cold_random_reads),
            page_writes: mix(self.page_writes, other.page_writes),
            reread_seq: mix(self.reread_seq, other.reread_seq),
            reread_random: mix(self.reread_random, other.reread_random),
            working_set_pages: mix(self.working_set_pages, other.working_set_pages),
            queries_per_epoch: mix(self.queries_per_epoch, other.queries_per_epoch),
        }
    }

    /// Quantizes the profile into logarithmic buckets of relative width
    /// `rel` (e.g. `0.2` = 20%). Two profiles with the same key are "the
    /// same workload" to the switch governor: an epoch's key vector names
    /// its regime, so a recurring phase is recognized as one. A key never
    /// stands in for a profile in pricing — every solve prices the
    /// profiles themselves.
    pub(crate) fn quantize(&self, rel: f64) -> ProfileKey {
        let width = (1.0 + rel).ln();
        let bucket = |v: f64| -> i64 {
            if !(v.is_finite() && v > 0.0) {
                return i64::MIN;
            }
            (v.ln() / width).floor() as i64
        };
        ProfileKey([
            bucket(self.cpu_cycles),
            bucket(self.cold_seq_reads),
            bucket(self.cold_random_reads),
            bucket(self.page_writes),
            bucket(self.reread_seq),
            bucket(self.reread_random),
            bucket(self.working_set_pages),
            bucket(self.queries_per_epoch),
        ])
    }
}

/// Log-bucketed profile fingerprint (see [`WorkloadProfile::quantize`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ProfileKey(pub [i64; 8]);

/// Identity of one persistent VM: a name plus the catalog/plan skeleton a
/// static design problem would carry. The controller prices profiles in
/// closed form and never reads the skeleton.
#[derive(Debug)]
pub struct VmTemplate<'a> {
    /// VM display name.
    pub name: String,
    /// The database the VM serves.
    pub db: &'a Database,
    /// A representative query plan.
    pub base_query: LogicalPlan,
}

/// The set of persistent VMs sharing one machine.
#[derive(Debug)]
pub struct ProblemTemplate<'a> {
    /// The physical machine.
    pub machine: MachineSpec,
    /// One template per VM.
    pub vms: Vec<VmTemplate<'a>>,
}

impl ProblemTemplate<'_> {
    /// Refuses a template that does not describe `scenario`'s machine and
    /// VM count — every price is taken on the scenario's machine, so a
    /// template for another one would describe a run that never happens.
    pub(crate) fn check(&self, scenario: &Scenario) -> Result<(), ControllerError> {
        if self.machine != scenario.machine || self.vms.len() != scenario.num_vms() {
            return Err(ControllerError::BadScenario {
                reason: format!(
                    "template has {} VMs on {:?}, scenario has {} on {:?}",
                    self.vms.len(),
                    self.machine,
                    scenario.num_vms(),
                    scenario.machine
                ),
            });
        }
        Ok(())
    }
}

/// Derives a [`WorkloadProfile`] from real query plans by measuring their
/// demands on the whole machine (stock-optimizer what-if planning, shared
/// warm buffer pool). The measured page counts become the cold component;
/// `reread_factor` sets the logical re-access stream as a multiple of the
/// cold reads, and the working set is the mean pages a query touches.
pub fn profile_from_queries(
    db: &Database,
    queries: &[LogicalPlan],
    machine: MachineSpec,
    queries_per_epoch: f64,
    reread_factor: f64,
) -> Result<WorkloadProfile, ControllerError> {
    if queries.is_empty() {
        return Err(ControllerError::BadScenario {
            reason: "profile_from_queries needs at least one query".to_string(),
        });
    }
    let demands = dbvirt_core::measure::workload_demands(
        db,
        queries,
        machine,
        ResourceVector::full_machine(),
    )?;
    let n = demands.len() as f64;
    let mean = |f: fn(&ResourceDemand) -> f64| demands.iter().map(f).sum::<f64>() / n;
    let cold_seq = mean(|d| d.seq_page_reads as f64);
    let cold_random = mean(|d| d.random_page_reads as f64);
    let profile = WorkloadProfile {
        cpu_cycles: mean(|d| d.cpu_cycles),
        cold_seq_reads: cold_seq,
        cold_random_reads: cold_random,
        page_writes: mean(|d| d.page_writes as f64),
        reread_seq: cold_seq * reread_factor,
        reread_random: cold_random * reread_factor,
        working_set_pages: cold_seq + cold_random,
        queries_per_epoch,
    };
    profile.validate()?;
    Ok(profile)
}

/// A CPU-dominated profile used by tests across the crate.
#[cfg(test)]
pub(crate) fn cpu_heavy() -> WorkloadProfile {
    WorkloadProfile {
        cpu_cycles: 2e8,
        cold_seq_reads: 20.0,
        cold_random_reads: 5.0,
        page_writes: 0.0,
        reread_seq: 40.0,
        reread_random: 10.0,
        working_set_pages: 800.0,
        queries_per_epoch: 4.0,
    }
}

/// An I/O- and cache-dominated profile used by tests across the crate.
#[cfg(test)]
pub(crate) fn io_heavy() -> WorkloadProfile {
    WorkloadProfile {
        cpu_cycles: 2e7,
        cold_seq_reads: 400.0,
        cold_random_reads: 60.0,
        page_writes: 20.0,
        reread_seq: 2000.0,
        reread_random: 300.0,
        working_set_pages: 6000.0,
        queries_per_epoch: 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_vmm::Share;

    #[test]
    fn bigger_pools_reduce_physical_reads() {
        let p = io_heavy();
        let small = p.demand_at(500, 1.0);
        let large = p.demand_at(6000, 1.0);
        assert!(small.seq_page_reads > large.seq_page_reads);
        // A pool covering the whole working set leaves only the cold reads.
        assert_eq!(large.seq_page_reads, 400);
        assert_eq!(large.random_page_reads, 60);
    }

    #[test]
    fn epoch_seconds_decrease_with_memory() {
        let spec = MachineSpec::tiny();
        let p = io_heavy();
        let starved = VirtualMachine::new(
            spec,
            ResourceVector::from_fractions(0.5, 0.05, 0.5).unwrap(),
        )
        .unwrap();
        let comfortable = VirtualMachine::new(spec, ResourceVector::uniform(Share::HALF)).unwrap();
        assert!(p.epoch_seconds(&starved) > p.epoch_seconds(&comfortable));
    }

    #[test]
    fn quantization_is_tolerant_within_a_bucket_and_sensitive_across() {
        let a = cpu_heavy();
        let mut near = a;
        near.cpu_cycles *= 1.05;
        let mut far = a;
        far.cpu_cycles *= 4.0;
        assert_eq!(a.quantize(0.25), near.quantize(0.25));
        assert_ne!(a.quantize(0.25), far.quantize(0.25));
        // Zero components land in the sentinel bucket, not a panic.
        let mut zeroed = a;
        zeroed.page_writes = 0.0;
        assert_eq!(zeroed.quantize(0.25).0[3], i64::MIN);
    }

    #[test]
    fn validation_rejects_non_finite_profiles() {
        let mut p = cpu_heavy();
        p.cpu_cycles = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = cpu_heavy();
        p.working_set_pages = -1.0;
        assert!(p.validate().is_err());
        let mut p = cpu_heavy();
        p.queries_per_epoch = 0.0;
        assert!(p.validate().is_err());
        assert!(cpu_heavy().validate().is_ok());
    }
}
