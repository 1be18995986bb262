//! # dbvirt-vmm — virtual machine monitor simulator
//!
//! This crate is the machine-virtualization substrate for the `dbvirt`
//! workspace. The paper being reproduced (Soror, Aboulnaga, Salem:
//! *Database Virtualization: A New Frontier for Database Tuning and Physical
//! Design*, ICDE 2007) runs PostgreSQL inside Xen virtual machines and varies
//! the CPU and memory shares given to each VM. We do not have Xen or 2007
//! hardware, so this crate provides a deterministic simulator with the same
//! observable behaviour the paper relies on:
//!
//! * a [`MachineSpec`] describing the physical machine (cores, CPU speed,
//!   memory, disk sequential bandwidth and random IOPS);
//! * [`Share`]s, [`ResourceVector`]s and [`AllocationMatrix`]es encoding the
//!   paper's `r_ij` resource-fraction formulation, with its feasibility
//!   constraints (`r_ij >= 0`, `sum_i r_ij <= 1` per resource);
//! * a [`ResourceDemand`] accumulator that the database engine fills in while
//!   *actually executing* a query (CPU cycles, sequential/random page reads,
//!   page writes);
//! * a [`VirtualMachine`] that converts demand into simulated wall-clock time
//!   under a given share vector — CPU time dilates as `1/cpu_share`, disk
//!   time as `1/io_share`, and the memory share bounds the buffer pool; and
//! * a seeded [`FaultInjector`]/[`NoiseModel`] ([`fault`]) that perturbs
//!   measurements with per-resource jitter, heavy-tailed outlier spikes,
//!   transient failures and timeouts, so the calibration layer can be
//!   exercised under realistic VM measurement conditions; and
//! * a fluid-approximation credit scheduler ([`sched`]) that co-schedules
//!   several VMs on one machine, in capped or work-conserving mode, for the
//!   experiments where two workloads run concurrently (the paper's Figure 5).
//!   [`sched::co_schedule`] has one path per mode — a per-VM closed-form
//!   walk when shares are caps, a whole-machine rescan loop when idle
//!   capacity is redistributed — and the rescan loop doubles as the oracle
//!   ([`sched::co_schedule_reference`]) the walk is kept bit-identical
//!   to; and
//! * the deterministic [`kernel`] every tier above shares — the one worker
//!   pool ([`kernel::claim_and_reduce`]), the fingerprint hash and the
//!   seeded stream.
//!
//! Everything is deterministic: "measuring" an execution twice yields the
//! same [`SimDuration`], which is what makes optimizer calibration exactly
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod demand;
mod error;
pub mod fault;
pub mod kernel;
mod machine;
pub mod sched;
mod share;
mod vm;

pub use clock::{SimDuration, SimTime};
pub use demand::ResourceDemand;
pub use error::VmmError;
pub use fault::{FaultInjector, NoiseModel, ProbeFault};
pub use machine::MachineSpec;
pub use share::{AllocationMatrix, ResourceKind, ResourceVector, Share};
pub use vm::VirtualMachine;
