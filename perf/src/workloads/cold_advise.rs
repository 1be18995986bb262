//! `cold_advise` — first contact with a new machine type: the paper's whole
//! pipeline in one decision.
//!
//! Decision: a machine variant (cycles / memory / disk each scaled within
//! ±20 % of the experiment machine, met in a seeded order) → `CalibrationGrid::calibrate`
//! over the cells a four-tenant search can reach → four tenants given as
//! SQL text through `parse_query` → exact DP search → the tenants executed
//! by the engine under the advice and co-scheduled.
//!
//! Why: calibration probes, the executor and the buffer pool do nearly all
//! the work (scans larger than any VM's pool beside index lookups that
//! fit), `core` and `optimizer` almost none.

use super::{
    allocation_bits, co_run, demand_totals, design_problem, error_pct, generate_tpch,
    machine_for_scale, matches_reference, outcome_micros, shares_sum_to_one, CoRun,
};
use crate::gen::{self, hash_of, KeySpace};
use crate::harness::{Args, Harness, Outcome, Quality, Report, Workload};
use crate::trace::{parse_statements, TimedCostModel};
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::search::run_search;
use dbvirt_core::{
    metrics, CalibratedCostModel, DesignProblem, Recommendation, SearchAlgorithm, SearchConfig,
};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchDb, TpchQuery};
use dbvirt_vmm::sched::SchedMode;
use dbvirt_vmm::{AllocationMatrix, MachineSpec};

/// Decisions per round. Few and long (half a second each): the fewer a
/// round holds, the more rounds — repeated measurements of each — fit a run.
pub const DECISIONS: usize = 2;
const SCALE: f64 = 0.005;
const TENANTS: usize = 4;
const UNITS: u32 = 8;
const LOOKUPS: usize = 40;

/// One decision's inputs.
#[derive(Debug, Clone)]
pub struct Question {
    pub machine: MachineSpec,
    /// SQL text per tenant: reports, CPU-bound, I/O-bound, lookups.
    pub tenants: Vec<Vec<String>>,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub data_seed: u64,
    pub questions: Vec<Question>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut r = gen::rng(seed, 1);
        let keys = KeySpace::at_scale(SCALE);
        // The round always meets the same machine variants — a Latin square
        // over the ±20 % levels of cycles, memory and disk — in a seeded
        // order: seeds differ in which variant answers which lookups, not in
        // how much the variants cost to calibrate and run.
        let level = |j: usize| 0.8 + 0.4 * (j % DECISIONS) as f64 / (DECISIONS - 1) as f64;
        let order = gen::permutation(&mut r, DECISIONS);
        let questions = order
            .into_iter()
            .map(|v| {
                let mut machine = machine_for_scale(SCALE);
                machine.cycles_per_sec *= level(v);
                machine.memory_bytes = (machine.memory_bytes as f64 * level(v + 1)) as u64;
                machine.disk_seq_bytes_per_sec *= level(v + 2);
                machine.disk_random_iops *= level(v + 2);
                let mut reports = gen::repeat_query(TpchQuery::Q1, 1);
                reports.extend(gen::repeat_query(TpchQuery::Q6, 2));
                Question {
                    machine,
                    tenants: vec![
                        reports,
                        gen::repeat_query(TpchQuery::Q13, 3),
                        gen::repeat_query(TpchQuery::Q4, 2),
                        gen::lookups(&mut r, keys, LOOKUPS, gen::INDEXED_SHAPES),
                    ],
                }
            })
            .collect();
        Inputs {
            data_seed: seed,
            questions,
        }
    }
}

pub struct Env {
    t: TpchDb,
    generate_s: f64,
}

pub struct Advice {
    grid: CalibrationGrid,
    plans: Vec<Vec<LogicalPlan>>,
    rec: Recommendation,
    run: CoRun,
}

impl Outcome for Advice {
    fn fingerprint(&self) -> u64 {
        hash_of(&(
            allocation_bits(&self.rec.allocation),
            self.rec.objective.to_bits(),
            outcome_micros(&self.run.outcomes),
        ))
    }
}

fn search_config() -> SearchConfig {
    SearchConfig::for_workloads(UNITS, TENANTS)
}

/// The four-tenant problem, every tenant weighted 1.
fn problem<'a>(
    t: &'a TpchDb,
    machine: MachineSpec,
    plans: &[Vec<LogicalPlan>],
) -> Result<DesignProblem<'a>, String> {
    design_problem(&t.db, machine, plans, [1.0; TENANTS])
}

impl Workload for Inputs {
    type Env = Env;
    type Answer = Advice;
    const DECISIONS: usize = DECISIONS;
    const SETUPS: usize = 6;
    const ROUND_MS: f64 = 1050.0;

    fn build(&self) -> Env {
        let (t, generate_s) = generate_tpch(SCALE, self.data_seed, true);
        Env { t, generate_s }
    }

    fn decide(&self, env: &mut Env, i: usize) -> Result<Advice, String> {
        decide(env, &self.questions[i])
    }
}

fn decide(env: &mut Env, q: &Question) -> Result<Advice, String> {
    let cfg = search_config();
    let grid = {
        let _span = telemetry::span("calibrate.grid");
        // Exactly the shares a four-tenant search can hand out.
        let hi = UNITS - cfg.min_units * (TENANTS as u32 - 1);
        let points: Vec<f64> = (cfg.min_units..=hi)
            .map(|u| u as f64 / UNITS as f64)
            .collect();
        CalibrationGrid::calibrate(q.machine, points.clone(), points, cfg.disk_share)
            .map_err(|e| e.to_string())?
    };
    let plans = q
        .tenants
        .iter()
        .map(|sqls| parse_statements(&env.t.db, sqls))
        .collect::<Result<Vec<_>, _>>()?;
    let rec = {
        let _span = telemetry::span("core.search");
        let model = CalibratedCostModel::new(&grid);
        let timed = TimedCostModel::new(&model);
        let problem = problem(&env.t, q.machine, &plans)?;
        run_search(SearchAlgorithm::DynamicProgramming, &problem, &timed, cfg)
            .map_err(|e| e.to_string())?
    };
    let run = co_run(&mut env.t.db, &plans, q.machine, &rec.allocation)?;
    Ok(Advice {
        grid,
        plans,
        rec,
        run,
    })
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::generate(args.seed);
    let mut h = Harness::new(args, &inputs);
    let (mut env, advice) = h.measure(&inputs);
    h.set("tpch.generate_s", env.generate_s);

    let mut evaluations = 0.0;
    let mut degraded = 0.0;
    let mut predicted = 0.0;
    let mut predicted_default = 0.0;
    h.verify(|checks| {
        let mut quality = Quality::default();
        let equal = AllocationMatrix::equal_split(TENANTS).expect("equal split");
        for (q, a) in inputs.questions.iter().zip(&advice) {
            let Some(a) = a else { continue };
            checks.check(shares_sum_to_one(&a.rec.allocation), || {
                format!("allocation does not sum to 1: {}", a.rec.allocation)
            });
            checks.check(
                matches_reference(
                    q.machine,
                    &a.rec.allocation,
                    &a.run.jobs,
                    SchedMode::Capped,
                    &a.run.outcomes,
                ),
                || "co_schedule differs from co_schedule_reference".to_string(),
            );
            let model = CalibratedCostModel::new(&a.grid);
            let problem = problem(&env.t, q.machine, &a.plans).expect("problem built once already");
            let exhaustive = run_search(
                SearchAlgorithm::Exhaustive,
                &problem,
                &model,
                search_config(),
            );
            checks.check(
                exhaustive
                    .as_ref()
                    .is_ok_and(|e| (e.objective - a.rec.objective).abs() <= 1e-9 * e.objective),
                || {
                    format!(
                        "DP objective {} vs exhaustive {:?}",
                        a.rec.objective,
                        exhaustive.map(|e| e.objective)
                    )
                },
            );
            let equal_costs = metrics::equal_split_costs(&problem, &model);
            checks.check(equal_costs.is_ok(), || {
                format!("equal-split prediction: {equal_costs:?}")
            });
            predicted_default += equal_costs.iter().flatten().sum::<f64>();
            drop(problem);
            match co_run(&mut env.t.db, &a.plans, q.machine, &equal) {
                Ok(default) => quality.default_cost_s += default.cost_s,
                Err(e) => checks.check(false, || format!("default co-run failed: {e}")),
            }
            quality.advised_cost_s += a.run.cost_s;
            predicted += a.rec.total_cost;
            evaluations += a.rec.evaluations as f64;
            degraded += a.grid.health().degraded_cells as f64;
        }
        quality
    });

    let (cycles, seq, random) = demand_totals(advice.iter().flatten().flat_map(|a| &a.run.jobs));
    h.set("engine.cycles_charged", cycles);
    h.set("storage.pages_read_seq", seq);
    h.set("storage.pages_read_random", random);
    h.set("core.evaluations", evaluations);
    h.set("core.default_cost_s", predicted_default);
    h.set("calibrate.degraded_cells", degraded);
    let measured: f64 = advice.iter().flatten().map(|a| a.run.cost_s).sum();
    h.set("core.model_error_pct", error_pct(predicted, measured));
    h.finish("core")
}
