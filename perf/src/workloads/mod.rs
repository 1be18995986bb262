//! The five workloads and the ground-truth helpers they share.
//!
//! Each workload module has the same three parts: `Inputs::generate(seed)`
//! (everything the program under test will see), `Env::build` (the untimed
//! set-up the workload treats as given), and `run`, which drives the
//! [`Harness`] through set-up → timed rounds → verification.

pub mod cold_advise;
pub mod control_loop;
pub mod fleet_place;
pub mod joint_design;
pub mod whatif_sweep;

use crate::harness::{Args, Report};
use dbvirt_bench::experiment_machine;
use dbvirt_core::measure::workload_demands;
use dbvirt_core::{DesignProblem, WorkloadSpec};
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchConfig, TpchDb};
use dbvirt_vmm::sched::{co_schedule, co_schedule_reference, SchedMode, VmJob, VmOutcome};
use dbvirt_vmm::{AllocationMatrix, MachineSpec, ResourceKind, ResourceVector};
use std::time::Instant;

/// Workload names, in report order.
pub const NAMES: [&str; 5] = [
    "cold_advise",
    "whatif_sweep",
    "fleet_place",
    "control_loop",
    "joint_design",
];

/// Runs one workload; `None` for an unknown name.
pub fn run(args: &Args) -> Option<Report> {
    Some(match args.workload.as_str() {
        "cold_advise" => cold_advise::run(args),
        "whatif_sweep" => whatif_sweep::run(args),
        "fleet_place" => fleet_place::run(args),
        "control_loop" => control_loop::run(args),
        "joint_design" => joint_design::run(args),
        _ => return None,
    })
}

/// The experiment machine with its memory scaled to a TPC-H scale factor,
/// so the regime the experiments are built around survives a smaller
/// database: the data exceeds any VM's buffer pool (`experiment_machine` is
/// sized for SF 0.02).
pub fn machine_for_scale(scale: f64) -> MachineSpec {
    let mut m = experiment_machine();
    m.memory_bytes = (m.memory_bytes as f64 * scale / 0.02) as u64;
    m
}

/// Generates TPC-H from the run's seed, returning the database and how long
/// generation took (`tpch.generate_s`).
pub fn generate_tpch(scale: f64, seed: u64, with_indexes: bool) -> (TpchDb, f64) {
    let t0 = Instant::now();
    let t = TpchDb::generate(TpchConfig {
        scale,
        seed,
        with_indexes,
    })
    .expect("TPC-H generation");
    (t, t0.elapsed().as_secs_f64())
}

/// The consolidation problem over `db`: one tenant per plan list, weighted.
pub fn design_problem<'a>(
    db: &'a Database,
    machine: MachineSpec,
    plans: &[Vec<LogicalPlan>],
    weights: impl IntoIterator<Item = f64>,
) -> Result<DesignProblem<'a>, String> {
    let tenants = plans
        .iter()
        .zip(weights)
        .enumerate()
        .map(|(i, (p, w))| WorkloadSpec::new(format!("tenant{i}"), db, p.clone()).with_weight(w))
        .collect();
    DesignProblem::new(machine, tenants).map_err(|e| e.to_string())
}

/// The do-nothing default on one machine: CPU and memory split equally among
/// `n` tenants, disk at the advisor's fixed per-VM policy.
pub fn equal_split(n: usize, disk_share: f64) -> Result<AllocationMatrix, String> {
    let share = 1.0 / n as f64;
    let row =
        ResourceVector::from_fractions(share, share, disk_share).map_err(|e| e.to_string())?;
    AllocationMatrix::new(vec![row; n]).map_err(|e| e.to_string())
}

/// A measured co-run: every tenant's queries executed by the engine under
/// its own shares, then the resulting demand streams co-scheduled.
pub struct CoRun {
    pub jobs: Vec<VmJob>,
    pub outcomes: Vec<VmOutcome>,
    /// `Σ_i` completion seconds of tenant `i` — the paper's `Σ Cost(Wᵢ, Rᵢ)`
    /// on the ground truth.
    pub cost_s: f64,
}

/// Executes `tenants` on `db` under `allocation` and co-schedules them
/// (what `dbvirt_core::measure::measure_concurrent_seconds` does, taken
/// apart so the demands stay visible and one database can serve every
/// tenant).
pub fn co_run(
    db: &mut Database,
    tenants: &[Vec<LogicalPlan>],
    machine: MachineSpec,
    allocation: &AllocationMatrix,
) -> Result<CoRun, String> {
    let jobs = {
        let _span = telemetry::span("engine.demands");
        tenants
            .iter()
            .enumerate()
            .map(|(i, queries)| {
                workload_demands(db, queries, machine, allocation.row(i))
                    .map(VmJob::new)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    let _span = telemetry::span("vmm.co_schedule");
    let outcomes =
        co_schedule(machine, allocation, &jobs, SchedMode::Capped).map_err(|e| e.to_string())?;
    let cost_s = outcomes.iter().map(|o| o.makespan().as_secs_f64()).sum();
    Ok(CoRun {
        jobs,
        outcomes,
        cost_s,
    })
}

/// True if the legacy whole-fleet scheduler reproduces `outcomes` bit for
/// bit on the same inputs.
pub fn matches_reference(
    machine: MachineSpec,
    allocation: &AllocationMatrix,
    jobs: &[VmJob],
    mode: SchedMode,
    outcomes: &[VmOutcome],
) -> bool {
    co_schedule_reference(machine, allocation, jobs, mode).is_ok_and(|r| r == outcomes)
}

/// True if CPU and memory are handed out completely and disk is not
/// oversubscribed.
pub fn shares_sum_to_one(allocation: &AllocationMatrix) -> bool {
    let full = |kind| (allocation.column_sum(kind) - 1.0).abs() < 1e-9;
    full(ResourceKind::Cpu)
        && full(ResourceKind::Memory)
        && allocation.column_sum(ResourceKind::DiskBandwidth) <= 1.0 + 1e-9
}

/// `(cpu cycles, sequential page reads, random page reads)` over `jobs`.
pub fn demand_totals<'a>(jobs: impl IntoIterator<Item = &'a VmJob>) -> (f64, f64, f64) {
    jobs.into_iter()
        .flat_map(|j| &j.queries)
        .fold((0.0, 0.0, 0.0), |(c, s, r), d| {
            (
                c + d.cpu_cycles,
                s + d.seq_page_reads as f64,
                r + d.random_page_reads as f64,
            )
        })
}

/// Hash input for an allocation: the bits of every share.
pub fn allocation_bits(allocation: &AllocationMatrix) -> Vec<u64> {
    allocation
        .rows()
        .flat_map(|r| r.as_array())
        .map(|s| s.fraction().to_bits())
        .collect()
}

/// Hash input for scheduler outcomes: every completion instant.
pub fn outcome_micros(outcomes: &[VmOutcome]) -> Vec<u64> {
    outcomes
        .iter()
        .flat_map(|o| {
            o.query_completions
                .iter()
                .chain(std::iter::once(&o.completion))
        })
        .map(|t| t.as_micros())
        .collect()
}

/// `100·|predicted − measured| / measured`.
pub fn error_pct(predicted: f64, measured: f64) -> f64 {
    100.0 * (predicted - measured).abs() / measured
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::input_hash;

    #[test]
    fn a_seed_fixes_every_workloads_inputs() {
        type Generator = fn(u64) -> u64;
        let generators: [(&str, Generator); 5] = [
            ("cold_advise", |s| {
                input_hash(&cold_advise::Inputs::generate(s))
            }),
            ("whatif_sweep", |s| {
                input_hash(&whatif_sweep::Inputs::generate(s))
            }),
            ("fleet_place", |s| {
                input_hash(&fleet_place::Inputs::generate(s))
            }),
            ("control_loop", |s| {
                input_hash(&control_loop::Inputs::generate(s))
            }),
            ("joint_design", |s| {
                input_hash(&joint_design::Inputs::generate(s))
            }),
        ];
        assert_eq!(generators.map(|(name, _)| name), NAMES);
        for (name, generate) in generators {
            assert_eq!(
                generate(11),
                generate(11),
                "{name}: seed 11 generated two different inputs"
            );
            assert_ne!(
                generate(11),
                generate(12),
                "{name}: seeds 11 and 12 generated the same inputs"
            );
        }
    }

    #[test]
    fn inputs_are_stratified_not_resized_by_the_seed() {
        // The seed moves content, never the amount of work asked for.
        for seed in [11, 12, 13] {
            let w = whatif_sweep::Inputs::generate(seed);
            assert_eq!(w.questions.len(), whatif_sweep::DECISIONS);
            let tenants: Vec<usize> = w.questions.iter().map(Vec::len).collect();
            assert_eq!(tenants, [4, 4, 5, 5, 6, 6, 7, 7, 8, 8]);
            let f = fleet_place::Inputs::generate(seed);
            assert_eq!(f.fleets.len(), fleet_place::DECISIONS);
            let j = joint_design::Inputs::generate(seed);
            assert_eq!(j.scenarios.len(), joint_design::DECISIONS);
            assert_eq!(
                cold_advise::Inputs::generate(seed).questions.len(),
                cold_advise::DECISIONS
            );
            assert_eq!(
                control_loop::Inputs::generate(seed).scenario_seeds.len(),
                control_loop::DECISIONS
            );
        }
    }

    #[test]
    fn scaled_machine_keeps_the_database_larger_than_memory() {
        let m = machine_for_scale(0.005);
        assert_eq!(m.memory_bytes, experiment_machine().memory_bytes / 4);
        m.validate().unwrap();
    }
}
