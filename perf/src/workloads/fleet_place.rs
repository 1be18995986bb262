//! `fleet_place` — datacenter placement.
//!
//! Set-up calibrates one grid per machine class and measures the demand
//! stream of every (class, mix) pair through the engine. Decision: a seeded
//! fleet (VM mixes and weights, two machine classes) → a fresh
//! `FleetAdvisor` and `place` (cold cache) → `place` again with a tenth of
//! the VMs re-weighted and the first placement deployed (warm cache,
//! rebalance pricing) → `simulate_placement` of the result in `Capped` and
//! `WorkConserving` mode with every stream repeated [`STREAM_REPEATS`] times.
//!
//! Why: the fleet solver ladder (greedy, local search, LP bound, sharded
//! cache) dominates; the scheduler is used the thousand-VM way (few large
//! runs, heap and calendar cores); the engine is absent from the timed
//! region.

use super::{error_pct, generate_tpch, matches_reference};
use crate::gen::{self, hash_of};
use crate::harness::{Args, Checks, Harness, Outcome, Quality, Report, Workload};
use crate::trace::{parse_statements, TimedCostModel};
use dbvirt_bench::experiment_machine;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::measure::workload_demands;
use dbvirt_core::{CalibratedCostModel, CostModel};
use dbvirt_fleet::{
    simulate_placement, FleetAdvisor, FleetConfig, FleetProblem, FleetReport, FleetSimReport,
    FleetVm, Placement,
};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchDb, TpchQuery};
use dbvirt_vmm::sched::{SchedMode, VmJob};
use dbvirt_vmm::{AllocationMatrix, MachineSpec, ResourceVector};
use rand::Rng;

/// Fleet sizes of one round, as `(VMs, small machines, big machines)`.
/// Most fleets share one size, so the median decision sits inside a
/// homogeneous class instead of between two.
const FLEETS: [(usize, usize, usize); 10] = [
    (16, 2, 2),
    (16, 2, 2),
    (24, 3, 3),
    (24, 3, 3),
    (24, 3, 3),
    (24, 3, 3),
    (24, 3, 3),
    (24, 3, 3),
    (32, 4, 4),
    (32, 4, 4),
];
pub const DECISIONS: usize = FLEETS.len();
const SCALE: f64 = 0.001;
const UNITS: u32 = 6;
const STREAM_REPEATS: usize = 32;
/// The VM mixes, as counts of TPC-H queries.
const MIXES: [&[(TpchQuery, usize)]; 6] = [
    &[(TpchQuery::Q6, 1)],
    &[(TpchQuery::Q1, 1)],
    &[(TpchQuery::Q14, 1)],
    &[(TpchQuery::Q4, 1)],
    &[(TpchQuery::Q6, 2)],
    &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 1)],
];

#[derive(Debug, Clone)]
pub struct FleetVmSpec {
    pub mix: usize,
    pub weight: f64,
    /// The weight in the second (warm) request; differs for a tenth of
    /// the VMs.
    pub reweight: f64,
}

#[derive(Debug, Clone)]
pub struct Fleet {
    pub small: usize,
    pub big: usize,
    pub vms: Vec<FleetVmSpec>,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub data_seed: u64,
    pub fleets: Vec<Fleet>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut r = gen::rng(seed, 3);
        let weight = |r: &mut rand::rngs::StdRng| 0.5 + r.gen_range(0..5) as f64 * 0.45;
        let fleets = FLEETS
            .iter()
            .map(|&(n, small, big)| {
                // Mixes are dealt round-robin in a seeded order and the
                // re-weighted tenth is a seeded subset: every seed places
                // the same population, arranged differently.
                let order = gen::permutation(&mut r, n);
                let mut vms = vec![None; n];
                for (k, &i) in order.iter().enumerate() {
                    let w = weight(&mut r);
                    let reweight = if k < n / 10 { weight(&mut r) + 0.2 } else { w };
                    vms[i] = Some(FleetVmSpec {
                        mix: k % MIXES.len(),
                        weight: w,
                        reweight,
                    });
                }
                Fleet {
                    small,
                    big,
                    vms: vms
                        .into_iter()
                        .map(|v| v.expect("every VM dealt"))
                        .collect(),
                }
            })
            .collect();
        Inputs {
            data_seed: seed,
            fleets,
        }
    }
}

/// The compute-optimized second class of `ext_fleet`: 35 % faster cores, a
/// quarter of the memory, 6x the sequential disk bandwidth.
fn big_machine() -> MachineSpec {
    let mut m = experiment_machine();
    m.cycles_per_sec *= 1.35;
    m.memory_bytes /= 4;
    m.disk_seq_bytes_per_sec *= 6.0;
    m
}

fn fleet_config() -> FleetConfig {
    FleetConfig::new(UNITS).with_parallelism(1)
}

pub struct Env {
    t: TpchDb,
    classes: [MachineSpec; 2],
    grids: [CalibrationGrid; 2],
    mixes: Vec<Vec<LogicalPlan>>,
    /// `streams[class][mix]`: the measured demand stream, repeated.
    streams: Vec<Vec<VmJob>>,
    generate_s: f64,
}

impl Env {
    fn build(data_seed: u64) -> Env {
        let (mut t, generate_s) = generate_tpch(SCALE, data_seed, true);
        let cfg = fleet_config();
        let classes = [experiment_machine(), big_machine()];
        let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
        let grids = classes.map(|class| {
            CalibrationGrid::calibrate(class, points.clone(), points.clone(), cfg.disk_share)
                .expect("class calibration")
        });
        let mixes: Vec<Vec<LogicalPlan>> = MIXES
            .iter()
            .map(|mix| {
                let sql: Vec<String> = mix
                    .iter()
                    .flat_map(|&(q, count)| gen::repeat_query(q, count))
                    .collect();
                parse_statements(&t.db, &sql).expect("mix SQL")
            })
            .collect();
        // One engine run per (class, mix) under the 1-unit floor share.
        let floor =
            ResourceVector::from_fractions(1.0 / UNITS as f64, 1.0 / UNITS as f64, cfg.disk_share)
                .expect("floor share");
        let streams = classes
            .iter()
            .map(|&class| {
                mixes
                    .iter()
                    .map(|mix| {
                        let one = workload_demands(&mut t.db, mix, class, floor)
                            .expect("measured demands");
                        VmJob::new(
                            one.iter()
                                .copied()
                                .cycle()
                                .take(one.len() * STREAM_REPEATS)
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        Env {
            t,
            classes,
            grids,
            mixes,
            streams,
            generate_s,
        }
    }

    fn machines(&self, fleet: &Fleet) -> Vec<MachineSpec> {
        let [small, big] = self.classes;
        std::iter::repeat_n(small, fleet.small)
            .chain(std::iter::repeat_n(big, fleet.big))
            .collect()
    }

    fn problem(&self, fleet: &Fleet, reweighted: bool) -> Result<FleetProblem<'_>, String> {
        let vms = fleet
            .vms
            .iter()
            .enumerate()
            .map(|(i, vm)| {
                FleetVm::new(format!("vm{i:03}"), &self.t.db, self.mixes[vm.mix].clone())
                    .with_weight(if reweighted { vm.reweight } else { vm.weight })
            })
            .collect();
        FleetProblem::new(self.machines(fleet), vms).map_err(|e| e.to_string())
    }

    /// Each VM runs the measured stream of its mix on the class it landed on.
    fn jobs(&self, fleet: &Fleet, placement: &Placement) -> Vec<VmJob> {
        fleet
            .vms
            .iter()
            .zip(&placement.machine_of)
            .map(|(vm, &m)| self.streams[usize::from(m >= fleet.small)][vm.mix].clone())
            .collect()
    }
}

pub struct Placed {
    cold: FleetReport,
    warm: FleetReport,
    capped: FleetSimReport,
    work_conserving: FleetSimReport,
}

impl Outcome for Placed {
    fn fingerprint(&self) -> u64 {
        hash_of(&(
            self.cold.fingerprint(),
            self.warm.fingerprint(),
            self.capped.fingerprint(),
            self.work_conserving.fingerprint(),
        ))
    }
}

impl Workload for Inputs {
    type Env = Env;
    type Answer = Placed;
    const DECISIONS: usize = DECISIONS;
    const SETUPS: usize = 4;
    const ROUND_MS: f64 = 1100.0;

    fn build(&self) -> Env {
        Env::build(self.data_seed)
    }

    fn decide(&self, env: &mut Env, i: usize) -> Result<Placed, String> {
        decide(env, &self.fleets[i])
    }
}

fn decide(env: &Env, fleet: &Fleet) -> Result<Placed, String> {
    let cfg = fleet_config();
    let models = env.grids.each_ref().map(CalibratedCostModel::new);
    let timed = models.each_ref().map(|m| TimedCostModel::new(m));
    let class_models: Vec<&dyn CostModel> = timed.iter().map(|t| t as &dyn CostModel).collect();
    let first = env.problem(fleet, false)?;
    let (advisor, cold) = {
        let _span = telemetry::span("fleet.place_cold");
        let advisor =
            FleetAdvisor::new(env.machines(fleet), class_models, cfg).map_err(|e| e.to_string())?;
        let cold = advisor.place(&first).map_err(|e| e.to_string())?;
        (advisor, cold)
    };
    let second = env
        .problem(fleet, true)?
        .with_current(cold.placement.as_current())
        .map_err(|e| e.to_string())?;
    let warm = {
        let _span = telemetry::span("fleet.place_warm");
        advisor.place(&second).map_err(|e| e.to_string())?
    };
    let _span = telemetry::span("fleet.sim");
    let jobs = env.jobs(fleet, &warm.placement);
    let simulate = |mode| {
        simulate_placement(&second, &warm.placement, &jobs, &cfg, mode, 1)
            .map_err(|e| e.to_string())
    };
    let capped = simulate(SchedMode::Capped)?;
    let work_conserving = simulate(SchedMode::WorkConserving)?;
    Ok(Placed {
        cold,
        warm,
        capped,
        work_conserving,
    })
}

/// The do-nothing default: first-fit in VM order, every machine filled to
/// its VM cap, resources split equally among a machine's residents.
fn first_fit(n: usize, machines: usize, cfg: &FleetConfig) -> Placement {
    let cap = cfg.max_vms_per_machine;
    let machine_of: Vec<usize> = (0..n).map(|i| i / cap).collect();
    let units_of = machine_of
        .iter()
        .map(|&m| {
            let residents = (n - m * cap).min(cap) as u32;
            let units = (cfg.units / residents).max(cfg.min_units);
            (units, units)
        })
        .collect();
    Placement {
        machine_of,
        units_of,
        per_machine_objective: vec![0.0; machines],
        steady_objective: 0.0,
        migration_seconds: 0.0,
        total_objective: 0.0,
    }
}

/// Every VM placed exactly once, within machine capacity.
fn placement_is_feasible(p: &Placement, n: usize, machines: usize, cfg: &FleetConfig) -> bool {
    if p.machine_of.len() != n
        || p.units_of.len() != n
        || p.machine_of.iter().any(|&m| m >= machines)
    {
        return false;
    }
    (0..machines).all(|m| {
        let residents = p.residents(m);
        let sum =
            |f: fn(&(u32, u32)) -> u32| residents.iter().map(|&i| f(&p.units_of[i])).sum::<u32>();
        residents.len() <= cfg.max_vms_per_machine
            && sum(|u| u.0) <= cfg.units
            && sum(|u| u.1) <= cfg.units
            && residents
                .iter()
                .all(|&i| p.units_of[i].0 >= cfg.min_units && p.units_of[i].1 >= cfg.min_units)
    })
}

/// Re-runs every machine of a simulated placement through the legacy
/// whole-fleet scheduler and compares completions bit for bit.
fn simulation_matches_reference(
    problem: &FleetProblem<'_>,
    placement: &Placement,
    jobs: &[VmJob],
    cfg: &FleetConfig,
    mode: SchedMode,
    report: &FleetSimReport,
) -> bool {
    (0..problem.num_machines()).all(|m| {
        let residents = placement.residents(m);
        if residents.is_empty() {
            return true;
        }
        let rows = residents
            .iter()
            .map(|&i| {
                let (c, mu) = placement.units_of[i];
                ResourceVector::from_fractions(
                    c as f64 / cfg.units as f64,
                    mu as f64 / cfg.units as f64,
                    cfg.disk_share,
                )
            })
            .collect::<Result<Vec<_>, _>>();
        let Ok(Ok(allocation)) = rows.map(AllocationMatrix::new) else {
            return false;
        };
        let machine_jobs: Vec<VmJob> = residents.iter().map(|&i| jobs[i].clone()).collect();
        let outcomes: Vec<_> = residents
            .iter()
            .map(|&i| report.outcomes[i].clone())
            .collect();
        matches_reference(
            problem.machines[m],
            &allocation,
            &machine_jobs,
            mode,
            &outcomes,
        )
    })
}

fn verify_one(env: &Env, fleet: &Fleet, placed: &Placed, checks: &mut Checks) -> Quality {
    let cfg = fleet_config();
    let n = fleet.vms.len();
    let machines = fleet.small + fleet.big;
    for (name, report) in [("cold", &placed.cold), ("warm", &placed.warm)] {
        checks.check(
            placement_is_feasible(&report.placement, n, machines, &cfg),
            || format!("{name} placement of {n} VMs is infeasible"),
        );
        checks.check(
            report.lp.bound <= report.placement.steady_objective * (1.0 + 1e-9),
            || {
                format!(
                    "{name}: LP bound {} above objective {}",
                    report.lp.bound, report.placement.steady_objective
                )
            },
        );
    }
    checks.check(placed.warm.prewarm_cells == 0, || {
        format!(
            "warm request evaluated {} new cells",
            placed.warm.prewarm_cells
        )
    });
    checks.check(
        placed.work_conserving.simulated_total <= placed.capped.simulated_total * (1.0 + 1e-6),
        || "work conservation made the fleet slower".to_string(),
    );
    let problem = env
        .problem(fleet, true)
        .expect("problem built once already");
    let jobs = env.jobs(fleet, &placed.warm.placement);
    for (mode, report) in [
        (SchedMode::Capped, &placed.capped),
        (SchedMode::WorkConserving, &placed.work_conserving),
    ] {
        checks.check(
            simulation_matches_reference(
                &problem,
                &placed.warm.placement,
                &jobs,
                &cfg,
                mode,
                report,
            ),
            || format!("{mode:?} simulation differs from co_schedule_reference"),
        );
    }
    let default = first_fit(n, machines, &cfg);
    let default_jobs = env.jobs(fleet, &default);
    let default_cost_s = match simulate_placement(
        &problem,
        &default,
        &default_jobs,
        &cfg,
        SchedMode::Capped,
        1,
    ) {
        Ok(sim) => sim.simulated_total,
        Err(e) => {
            checks.check(false, || format!("default simulation failed: {e}"));
            f64::NAN
        }
    };
    Quality {
        advised_cost_s: placed.capped.simulated_total,
        default_cost_s,
    }
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::generate(args.seed);
    let mut h = Harness::new(args, &inputs);
    let (env, placed) = h.measure(&inputs);
    h.set("tpch.generate_s", env.generate_s);

    h.verify(|checks| {
        let mut quality = Quality::default();
        for (fleet, p) in inputs.fleets.iter().zip(&placed) {
            let Some(p) = p else { continue };
            let q = verify_one(&env, fleet, p, checks);
            quality.advised_cost_s += q.advised_cost_s;
            quality.default_cost_s += q.default_cost_s;
        }
        quality
    });

    let placed: Vec<&Placed> = placed.iter().flatten().collect();
    let mean = |f: fn(&Placed) -> f64| {
        placed.iter().map(|p| f(p)).sum::<f64>() / placed.len().max(1) as f64
    };
    h.set(
        "fleet.optimality_gap_pct",
        100.0 * mean(|p| p.warm.optimality_gap),
    );
    // The placement objective prices one execution of every VM's workload;
    // the simulation ran the streams `STREAM_REPEATS` times.
    let predicted: f64 = placed.iter().map(|p| p.capped.predicted_total).sum();
    let per_run: f64 =
        placed.iter().map(|p| p.capped.simulated_total).sum::<f64>() / STREAM_REPEATS as f64;
    h.set("fleet.model_error_pct", error_pct(predicted, per_run));
    h.finish("fleet")
}
