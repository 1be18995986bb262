//! `whatif_sweep` — the paper's "calibrate once, off-line, reuse": the grid
//! is calibrated in set-up and round-tripped through its JSON cache format;
//! the timed region only asks consolidation questions of it.
//!
//! Decision: a seeded question (4–8 tenants, each a handful of SQL
//! statements with a service-level weight) → parse/bind → exact DP on a
//! cold what-if cache → greedy on its own cold cache → the same question
//! re-weighted and re-asked through `run_search_cached` on the now-warm
//! cache.
//!
//! Why: optimizer what-if replanning, the allocation search and the SQL
//! front-end do the work; the engine and calibration do none in the timed
//! region, so an executor speed-up must show no change here. Cold and warm
//! cache paths are both priced.

use super::{
    allocation_bits, co_run, design_problem, equal_split, error_pct, generate_tpch,
    machine_for_scale, matches_reference, shares_sum_to_one,
};
use crate::gen::{self, hash_of, KeySpace};
use crate::harness::{Args, Harness, Outcome, Quality, Report, Workload};
use crate::trace::{parse_statements, TimedCostModel};
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::search::{run_search, run_search_cached};
use dbvirt_core::{
    metrics, CalibratedCostModel, CostCache, DesignProblem, Recommendation, SearchAlgorithm,
    SearchConfig,
};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchDb, TpchQuery};
use dbvirt_vmm::sched::SchedMode;
use dbvirt_vmm::{AllocationMatrix, MachineSpec};
use std::sync::Arc;

/// Decisions per round: every tenant count of [`TENANT_COUNTS`] twice.
pub const DECISIONS: usize = 10;
const TENANT_COUNTS: [usize; 5] = [4, 5, 6, 7, 8];
/// Statements per tenant, walked from a per-question offset.
const STATEMENT_COUNTS: [usize; 8] = [3, 4, 5, 6, 7, 8, 4, 6];
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const SCALE: f64 = 0.005;
const UNITS: u32 = 12;
/// Fixed per-VM disk share: one grid serves every tenant count.
const DISK_SHARE: f64 = 0.1;
/// Questions executed through the engine in verification: one each with
/// four, five and six tenants (the larger ones cost seconds to execute).
const VERIFIED: [usize; 3] = [0, 2, 4];

#[derive(Debug, Clone)]
pub struct Tenant {
    pub sql: Vec<String>,
    pub weight: f64,
    /// The weight of the re-asked question.
    pub reweight: f64,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub data_seed: u64,
    pub questions: Vec<Vec<Tenant>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut r = gen::rng(seed, 2);
        let keys = KeySpace::at_scale(SCALE);
        let queries = TpchQuery::all();
        let questions = (0..DECISIONS)
            .map(|d| {
                let n = TENANT_COUNTS[d * TENANT_COUNTS.len() / DECISIONS];
                // A question's tenants are fixed bundles — which TPC-H
                // queries alternate with which lookup shapes, at which
                // weights — met in a seeded order with seeded lookup
                // literals over seeded data: what a question costs to plan
                // and to run barely depends on the seed, what the answer
                // looks like does.
                let mut next = d;
                let tenants: Vec<Tenant> = (0..n)
                    .map(|t| {
                        let sql = (0..STATEMENT_COUNTS[(t + d) % 8])
                            .map(|_| {
                                next += 1;
                                if next % 2 == 0 {
                                    queries[next / 2 % queries.len()].sql().to_string()
                                } else {
                                    gen::lookup_sql(next / 2 % gen::INDEXED_SHAPES, &mut r, keys)
                                }
                            })
                            .collect();
                        Tenant {
                            sql,
                            weight: WEIGHTS[(t + d) % WEIGHTS.len()],
                            reweight: WEIGHTS[(t + d / 2 + 1) % WEIGHTS.len()],
                        }
                    })
                    .collect();
                let order = gen::permutation(&mut r, n);
                order
                    .into_iter()
                    .map(|t| tenants[t].clone())
                    .collect::<Vec<_>>()
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
    machine: MachineSpec,
    grid: CalibrationGrid,
    generate_s: f64,
}

impl Env {
    fn build(data_seed: u64) -> Env {
        let (t, generate_s) = generate_tpch(SCALE, data_seed, true);
        let machine = machine_for_scale(SCALE);
        // Every share a search over >= 4 tenants can hand out.
        let hi = UNITS - (TENANT_COUNTS[0] as u32 - 1);
        let points: Vec<f64> = (1..=hi).map(|u| u as f64 / UNITS as f64).collect();
        let calibrated = CalibrationGrid::calibrate(machine, points.clone(), points, DISK_SHARE)
            .expect("grid calibration");
        // The off-line reuse path: what the searches read is the grid as
        // loaded back from its cache format.
        let grid = CalibrationGrid::from_json(&calibrated.to_json().expect("grid to JSON"))
            .expect("grid from JSON");
        assert_eq!(grid, calibrated, "grid changed in the JSON round trip");
        Env {
            t,
            machine,
            grid,
            generate_s,
        }
    }
}

pub struct Answer {
    plans: Vec<Vec<LogicalPlan>>,
    dp: Recommendation,
    greedy: Recommendation,
    reask: Recommendation,
}

impl Outcome for Answer {
    fn fingerprint(&self) -> u64 {
        let rec = |r: &Recommendation| (allocation_bits(&r.allocation), r.objective.to_bits());
        hash_of(&(rec(&self.dp), rec(&self.greedy), rec(&self.reask)))
    }
}

fn search_config(n: usize) -> SearchConfig {
    SearchConfig {
        disk_share: DISK_SHARE,
        ..SearchConfig::for_workloads(UNITS, n)
    }
}

fn problem<'a>(
    env: &'a Env,
    plans: &[Vec<LogicalPlan>],
    weights: impl Iterator<Item = f64>,
) -> Result<DesignProblem<'a>, String> {
    design_problem(&env.t.db, env.machine, plans, weights)
}

impl Workload for Inputs {
    type Env = Env;
    type Answer = Answer;
    const DECISIONS: usize = DECISIONS;
    const SETUPS: usize = 4;
    const ROUND_MS: f64 = 310.0;

    fn build(&self) -> Env {
        Env::build(self.data_seed)
    }

    fn decide(&self, env: &mut Env, i: usize) -> Result<Answer, String> {
        decide(env, &self.questions[i])
    }
}

fn decide(env: &Env, question: &[Tenant]) -> Result<Answer, String> {
    let plans = question
        .iter()
        .map(|t| parse_statements(&env.t.db, &t.sql))
        .collect::<Result<Vec<_>, _>>()?;
    let _span = telemetry::span("core.search");
    let model = CalibratedCostModel::new(&env.grid);
    let timed = TimedCostModel::new(&model);
    let cfg = search_config(question.len());
    let asked = problem(env, &plans, question.iter().map(|t| t.weight))?;
    let cache = Arc::new(CostCache::new());
    let dp = run_search_cached(
        SearchAlgorithm::DynamicProgramming,
        &asked,
        &timed,
        cfg,
        &cache,
    )
    .map_err(|e| e.to_string())?;
    let greedy =
        run_search(SearchAlgorithm::Greedy, &asked, &timed, cfg).map_err(|e| e.to_string())?;
    let reasked = problem(env, &plans, question.iter().map(|t| t.reweight))?;
    let reask = run_search_cached(
        SearchAlgorithm::DynamicProgramming,
        &reasked,
        &timed,
        cfg,
        &cache,
    )
    .map_err(|e| e.to_string())?;
    drop((asked, reasked));
    Ok(Answer {
        plans,
        dp,
        greedy,
        reask,
    })
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::generate(args.seed);
    let mut h = Harness::new(args, &inputs);
    let (mut env, answers) = h.measure(&inputs);
    h.set("tpch.generate_s", env.generate_s);

    let mut evaluations = 0.0;
    let mut predicted = 0.0;
    let mut predicted_default = 0.0;
    h.verify(|checks| {
        let mut quality = Quality::default();
        for (i, (question, a)) in inputs.questions.iter().zip(&answers).enumerate() {
            let Some(a) = a else { continue };
            let n = question.len();
            evaluations += (a.dp.evaluations + a.greedy.evaluations + a.reask.evaluations) as f64;
            for rec in [&a.dp, &a.greedy, &a.reask] {
                checks.check(shares_sum_to_one(&rec.allocation), || {
                    format!(
                        "question {i}: {} allocation does not sum to 1",
                        rec.algorithm
                    )
                });
            }
            checks.check(a.reask.evaluations == 0, || {
                format!(
                    "question {i}: warm re-ask evaluated {} new cells",
                    a.reask.evaluations
                )
            });
            checks.check(a.dp.objective <= a.greedy.objective * (1.0 + 1e-9), || {
                format!(
                    "question {i}: exact DP {} lost to greedy {}",
                    a.dp.objective, a.greedy.objective
                )
            });
            let model = CalibratedCostModel::new(&env.grid);
            if n <= 4 {
                let asked = problem(&env, &a.plans, question.iter().map(|t| t.weight))
                    .expect("problem built once already");
                let exhaustive = run_search(
                    SearchAlgorithm::Exhaustive,
                    &asked,
                    &model,
                    search_config(n),
                );
                checks.check(
                    exhaustive
                        .as_ref()
                        .is_ok_and(|e| (e.objective - a.dp.objective).abs() <= 1e-9 * e.objective),
                    || {
                        format!(
                            "question {i}: DP {} vs exhaustive {:?}",
                            a.dp.objective,
                            exhaustive.map(|e| e.objective)
                        )
                    },
                );
            }
            if !VERIFIED.contains(&i) {
                continue;
            }
            // Ground truth: the tenants executed under the advice and under
            // the equal split (same disk policy), weighted as asked.
            let equal = equal_split(n, DISK_SHARE).expect("equal split of 4-8 tenants");
            let asked = problem(&env, &a.plans, question.iter().map(|t| t.weight))
                .expect("problem built once already");
            let equal_costs = metrics::allocation_costs(&asked, &model, &equal);
            checks.check(equal_costs.is_ok(), || {
                format!("question {i}: {equal_costs:?}")
            });
            predicted_default += equal_costs
                .iter()
                .flatten()
                .zip(question)
                .map(|(c, t)| c * t.weight)
                .sum::<f64>();
            drop(asked);
            predicted += a.dp.objective;
            let machine = env.machine;
            let mut weighted = |allocation: &AllocationMatrix, advised: bool| {
                let run = match co_run(&mut env.t.db, &a.plans, machine, allocation) {
                    Ok(run) => run,
                    Err(e) => {
                        checks.check(false, || format!("question {i}: co-run failed: {e}"));
                        return f64::NAN;
                    }
                };
                if advised {
                    checks.check(
                        matches_reference(
                            machine,
                            allocation,
                            &run.jobs,
                            SchedMode::Capped,
                            &run.outcomes,
                        ),
                        || format!("question {i}: co_schedule differs from co_schedule_reference"),
                    );
                }
                run.outcomes
                    .iter()
                    .zip(question)
                    .map(|(o, t)| o.makespan().as_secs_f64() * t.weight)
                    .sum::<f64>()
            };
            quality.advised_cost_s += weighted(&a.dp.allocation, true);
            quality.default_cost_s += weighted(&equal, false);
        }
        quality
    });

    h.set("core.evaluations", evaluations);
    h.set("core.default_cost_s", predicted_default);
    h.set(
        "core.model_error_pct",
        error_pct(predicted, h.quality().advised_cost_s),
    );
    h.finish("core")
}
