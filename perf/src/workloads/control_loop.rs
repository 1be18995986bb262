//! `control_loop` — online re-allocation.
//!
//! Decision: one scenario of the controller's zoo (nine kinds: stationary,
//! drifting, bursty, adversarial, diurnal, flash crowd, noisy neighbour,
//! correlated drift, slow ramp; each once with clean and once with
//! `NoiseModel::sensor_degraded` sensors) scaled to eight VMs and twelve share
//! units, run through `run_controller` and accounted with `account_regret`.
//!
//! Why: the controller and its warm-cache re-solves do the work, with the
//! scheduler used the other way round from `fleet_place` — thousands of
//! tiny `co_schedule` calls. No optimizer and no engine in the loop, so it
//! bypasses every mechanism workloads 1–3 exercise.

use super::{generate_tpch, machine_for_scale, matches_reference, shares_sum_to_one};
use crate::gen::{self, hash_of};
use crate::harness::{Args, Checks, Harness, Outcome, Quality, Report, Workload};
use crate::trace::parse_statements;
use dbvirt_controller::{
    account_regret, profile_from_queries, run_controller, ControllerConfig, ControllerOutcome,
    ProblemTemplate, RegretReport, Scenario, VmTemplate, WorkloadProfile,
};
use dbvirt_core::SearchConfig;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchDb, TpchQuery};
use dbvirt_vmm::fault::{FaultInjector, NoiseModel};
use dbvirt_vmm::sched::{co_schedule, SchedMode};
use dbvirt_vmm::{MachineSpec, VirtualMachine};
use rand::Rng;

/// Scenario kinds in the zoo.
const KINDS: usize = 9;
/// Decisions per round: every kind twice, once seen through clean sensors
/// and once through degraded ones.
pub const DECISIONS: usize = 2 * KINDS;
const SCALE: f64 = 0.005;
const VMS: usize = 8;
const UNITS: u32 = 12;
/// Stream length multiplier over the epoch counts `ext_controller` pins.
const STRETCH: usize = 8;
/// Work per query of VM `i` relative to its profile: the tenants differ in
/// size, identically for every seed (which tenant is large decides how often
/// the controller re-solves, i.e. how much work a round is).
const SIZE: [f64; VMS] = [1.0, 0.8, 1.3, 1.1, 0.7, 1.2, 0.9, 1.0];

#[derive(Debug, Clone)]
pub struct Inputs {
    pub data_seed: u64,
    pub crowd_vm: usize,
    /// Stream seed per scenario (query-size variability and sensor faults).
    pub scenario_seeds: [u64; DECISIONS],
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut r = gen::rng(seed, 4);
        Inputs {
            data_seed: seed,
            crowd_vm: r.gen_range(0..VMS),
            scenario_seeds: std::array::from_fn(|_| r.gen_range(0..u64::MAX)),
        }
    }
}

pub struct Env {
    t: TpchDb,
    machine: MachineSpec,
    cpu_query: LogicalPlan,
    io_query: LogicalPlan,
    scenarios: Vec<Scenario>,
    generate_s: f64,
}

impl Env {
    fn build(inputs: &Inputs) -> Env {
        let (mut t, generate_s) = generate_tpch(SCALE, inputs.data_seed, true);
        let machine = machine_for_scale(SCALE);
        // Two contrasting mixes, profiled on the whole machine the way
        // `ext_controller` frames them: CPU-bound interactive, I/O-bound
        // batch.
        let plans = |queries: &[TpchQuery]| {
            let sql: Vec<String> = queries.iter().map(|q| q.sql().to_string()).collect();
            parse_statements(&t.db, &sql).expect("mix SQL")
        };
        let cpu_mix = plans(&[TpchQuery::Q13, TpchQuery::Q13]);
        let io_mix = plans(&[TpchQuery::Q4, TpchQuery::Q6]);
        let cpu = profile_from_queries(&mut t.db, &cpu_mix, machine, 4.0, 2.0)
            .expect("cpu-bound profile");
        let io =
            profile_from_queries(&mut t.db, &io_mix, machine, 2.0, 3.0).expect("io-bound profile");
        let scenarios = scenarios(inputs, machine, cpu, io);
        Env {
            t,
            machine,
            cpu_query: cpu_mix[0].clone(),
            io_query: io_mix[0].clone(),
            scenarios,
            generate_s,
        }
    }

    fn template(&self) -> ProblemTemplate<'_> {
        ProblemTemplate {
            machine: self.machine,
            vms: (0..VMS)
                .map(|i| VmTemplate {
                    name: format!("vm{i}"),
                    db: &self.t.db,
                    base_query: if i % 2 == 0 {
                        &self.cpu_query
                    } else {
                        &self.io_query
                    }
                    .clone(),
                })
                .collect(),
        }
    }
}

fn config() -> ControllerConfig {
    ControllerConfig::new(SearchConfig::for_workloads(UNITS, VMS))
}

/// The round's scenarios. `fwd` alternates CPU- and I/O-bound VMs, `rev` is
/// the same VMs with the personalities swapped.
fn scenarios(
    inputs: &Inputs,
    machine: MachineSpec,
    cpu: WorkloadProfile,
    io: WorkloadProfile,
) -> Vec<Scenario> {
    let sized = |even: WorkloadProfile, odd: WorkloadProfile| -> Vec<WorkloadProfile> {
        (0..VMS)
            .map(|i| if i % 2 == 0 { even } else { odd }.scaled(SIZE[i]))
            .collect()
    };
    let fwd = sized(cpu, io);
    let rev = sized(io, cpu);
    let e = STRETCH;
    let kind = |k: usize, seed: u64| -> Scenario {
        let (fwd, rev) = (fwd.clone(), rev.clone());
        match k {
            0 => Scenario::stationary("stationary", machine, fwd, 16 * e, seed),
            1 => Scenario::drifting("drifting", machine, fwd, 12 * e, rev, 12 * e, seed),
            2 => Scenario::bursty("bursty", machine, fwd, rev, 8 * e, 3 * e, 2, seed),
            3 => Scenario::adversarial("adversarial", machine, fwd, rev, 2, 4 * e, seed),
            4 => Scenario::diurnal("diurnal", machine, fwd, rev, 6 * e, 2, seed),
            5 => Scenario::flash_crowd(
                "flash-crowd",
                machine,
                fwd,
                inputs.crowd_vm,
                2.5,
                6 * e,
                4 * e,
                2,
                2 * e,
                seed,
            ),
            6 => Scenario::noisy_neighbor(
                "noisy-neighbor",
                machine,
                fwd[1],
                fwd[0],
                fwd[2..].to_vec(),
                8 * e,
                2,
                seed,
            ),
            7 => Scenario::correlated_drift("correlated-drift", machine, fwd, rev, 8 * e, seed),
            _ => Scenario::slow_ramp("slow-ramp", machine, fwd, rev, 4, 4 * e, seed),
        }
    };
    // Odd decisions are observed through degraded sensors (5 % dropouts,
    // 5 % stale reads up to 2 epochs old, 2 % corrupt probes) and carry mild
    // per-query size variability; `KINDS` is odd, so each kind meets both.
    inputs
        .scenario_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let sc = kind(i % KINDS, seed);
            if i % 2 == 1 {
                sc.with_variability(0.05).with_noise(FaultInjector::new(
                    NoiseModel::sensor_degraded(0.05, 0.05, 2, 0.02),
                    seed,
                ))
            } else {
                sc
            }
        })
        .collect()
}

pub struct Run {
    outcome: ControllerOutcome,
    regret: RegretReport,
}

impl Outcome for Run {
    fn fingerprint(&self) -> u64 {
        hash_of(&(
            self.outcome.trace_fingerprint(),
            self.regret.controller_cost.to_bits(),
            self.regret.oracle_cost.to_bits(),
            self.regret.never_cost.to_bits(),
        ))
    }
}

impl Workload for Inputs {
    type Env = Env;
    type Answer = Run;
    const DECISIONS: usize = DECISIONS;
    const SETUPS: usize = 6;
    const ROUND_MS: f64 = 155.0;

    fn build(&self) -> Env {
        Env::build(self)
    }

    fn decide(&self, env: &mut Env, i: usize) -> Result<Run, String> {
        decide(env, &env.scenarios[i])
    }
}

fn decide(env: &Env, scenario: &Scenario) -> Result<Run, String> {
    let template = env.template();
    let config = config();
    let outcome = {
        let _span = telemetry::span("controller.loop");
        run_controller(scenario, &template, &config).map_err(|e| e.to_string())?
    };
    let regret = {
        let _span = telemetry::span("controller.regret");
        account_regret(scenario, &template, &config, &outcome).map_err(|e| e.to_string())?
    };
    Ok(Run { outcome, regret })
}

/// Replays the controller's allocation trajectory epoch by epoch from the
/// scenario's public pieces: every allocation must hand out the machine
/// exactly, every epoch's co-run must match the legacy scheduler bit for
/// bit, and the replayed epochs plus the switch charges of the controller's
/// ledger must be the cost the regret report carries.
fn verify_one(scenario: &Scenario, run: &Run, checks: &mut Checks) {
    let machine = scenario.machine;
    let mut total: f64 = run.outcome.switches.iter().map(|s| s.cost_seconds).sum();
    let mut feasible = true;
    let mut identical = true;
    for (epoch, allocation) in run.outcome.allocations.iter().enumerate() {
        feasible &= shares_sum_to_one(allocation);
        let pools: Vec<usize> = (0..VMS)
            .map(|i| {
                VirtualMachine::new(machine, allocation.row(i))
                    .map_or(0, |vm| vm.buffer_pool_pages())
            })
            .collect();
        let Ok(jobs) = scenario.epoch_jobs(epoch, &pools) else {
            identical = false;
            continue;
        };
        match co_schedule(machine, allocation, &jobs, SchedMode::Capped) {
            Ok(outcomes) => {
                identical &=
                    matches_reference(machine, allocation, &jobs, SchedMode::Capped, &outcomes);
                total += outcomes
                    .iter()
                    .map(|o| o.makespan().as_secs_f64())
                    .sum::<f64>();
            }
            Err(_) => identical = false,
        }
    }
    let name = &scenario.name;
    checks.check(feasible, || {
        format!("{name}: an epoch's allocation does not sum to 1")
    });
    checks.check(identical, || {
        format!("{name}: co_schedule differs from co_schedule_reference")
    });
    checks.check(
        (total - run.regret.controller_cost).abs() <= 1e-9 * total,
        || {
            format!(
                "{name}: replayed cost {total} vs reported {}",
                run.regret.controller_cost
            )
        },
    );
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::generate(args.seed);
    let mut h = Harness::new(args, &inputs);
    let (env, runs) = h.measure(&inputs);
    h.set("tpch.generate_s", env.generate_s);

    h.verify(|checks| {
        let mut quality = Quality::default();
        for (scenario, run) in env.scenarios.iter().zip(&runs) {
            let Some(run) = run else { continue };
            verify_one(scenario, run, checks);
            quality.advised_cost_s += run.regret.controller_cost;
            quality.default_cost_s += run.regret.never_cost;
        }
        quality
    });

    let runs: Vec<&Run> = runs.iter().flatten().collect();
    let controller: f64 = runs.iter().map(|r| r.regret.controller_cost).sum();
    let oracle: f64 = runs.iter().map(|r| r.regret.oracle_cost).sum();
    h.set(
        "controller.regret_pct",
        100.0 * (controller - oracle) / oracle,
    );
    h.finish("core")
}
