//! `joint_design` — physical design: secondary indexes chosen jointly with
//! resource shares over one scan-only database.
//!
//! Decision: a seeded 2–4-VM scenario (lookup tenants as SQL text with
//! seeded keys and columns, report tenants from Q1/Q6/Q14, a per-VM storage
//! budget from [`BUDGETS`]) → `advise` + `advise_index_only` +
//! `advise_allocation_only`, each with a fresh what-if pricer.
//!
//! Why: the optimizer used differently from `whatif_sweep` —
//! hypothetical-index configurations at a fixed `P(R)` instead of fixed
//! plans under a varying `P(R)` — so a planner change that helps one and
//! costs the other shows.

use super::{
    design_problem, equal_split, error_pct, generate_tpch, machine_for_scale, matches_reference,
    shares_sum_to_one,
};
use crate::gen::{self, hash_of, KeySpace};
use crate::harness::{Args, Checks, Harness, Outcome, Quality, Report, Workload};
use crate::trace::parse_statements;
use dbvirt_calibrate::{CalibrationGrid, DbVmConfig};
use dbvirt_core::DesignProblem;
use dbvirt_design::{DesignAdvisor, DesignConfig, IndexCandidate, JointRecommendation};
use dbvirt_engine::{run_plan, CpuCosts, Database};
use dbvirt_optimizer::{plan_query, LogicalPlan, OptimizerParams};
use dbvirt_storage::{BufferPool, Tuple};
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchDb, TpchQuery};
use dbvirt_vmm::sched::{co_schedule, SchedMode, VmJob};
use dbvirt_vmm::{AllocationMatrix, MachineSpec, ResourceVector, VirtualMachine};
use std::collections::BTreeMap;

/// Decisions per round: every (VM count, budget) pair four times.
pub const DECISIONS: usize = 48;
const SCALE: f64 = 0.01;
const UNITS: u32 = 6;
/// Fixed per-VM disk share: one grid serves every VM count.
const DISK_SHARE: f64 = 0.25;
/// Per-VM index storage budgets, in pages (0 = no index may be built).
const BUDGETS: [u64; 4] = [0, 650, 1300, 2600];
/// A lookup tenant's statements, as `gen::lookup_sql` shapes: point lookups
/// on `l_orderkey`, `l_suppkey` and `(l_partkey, l_quantity)` — none indexed
/// in the scan-only database, so each is an index candidate.
const LOOKUP_TENANT_SHAPES: [usize; 3] = [0, 6, 7];
/// Decisions whose advice is materialised and executed in verification:
/// the two-VM scenarios with the two largest budgets and the three-VM
/// scenario with the largest.
const VERIFIED: [usize; 3] = [6, 9, 10];

#[derive(Debug, Clone)]
pub struct Scenario {
    pub budget_pages: u64,
    /// `(is a lookup tenant, SQL text)` per VM.
    pub tenants: Vec<(bool, Vec<String>)>,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub data_seed: u64,
    pub scenarios: Vec<Scenario>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut r = gen::rng(seed, 5);
        let keys = KeySpace::at_scale(SCALE);
        let reports = [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q14];
        let scenarios = (0..DECISIONS)
            .map(|d| {
                let n = 2 + d % 3;
                // VM personalities are fixed (which lookup shapes, which
                // reports: the candidate indexes and the planning work);
                // the seed supplies the lookup literals.
                let tenants = (0..n)
                    .map(|vm| match vm {
                        0 | 3 => {
                            let sql = LOOKUP_TENANT_SHAPES
                                .iter()
                                .map(|&shape| gen::lookup_sql(shape, &mut r, keys))
                                .collect();
                            (true, sql)
                        }
                        1 => {
                            let skip = d / 12 % reports.len();
                            let sql = (0..reports.len())
                                .filter(|&k| k != skip)
                                .map(|k| reports[k].sql().to_string())
                                .collect();
                            (false, sql)
                        }
                        _ => (
                            false,
                            vec![
                                TpchQuery::Q6.sql().to_string(),
                                gen::lookup_sql(1, &mut r, keys),
                            ],
                        ),
                    })
                    .collect();
                Scenario {
                    budget_pages: BUDGETS[(d / 3) % BUDGETS.len()],
                    tenants,
                }
            })
            .collect();
        Inputs {
            data_seed: seed,
            scenarios,
        }
    }
}

/// [`machine_for_scale`] with an SSD-class random-read rate, as
/// `ext_design` argues: at the paper-era 100 iops no selectivity amortizes
/// a heap fetch and the design problem is vacuous.
fn design_machine() -> MachineSpec {
    let mut m = machine_for_scale(SCALE);
    m.disk_random_iops = 2000.0;
    m
}

pub struct Env {
    t: TpchDb,
    machine: MachineSpec,
    grid: CalibrationGrid,
    generate_s: f64,
}

impl Env {
    fn build(data_seed: u64) -> Env {
        let (t, generate_s) = generate_tpch(SCALE, data_seed, false);
        let machine = design_machine();
        let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
        let grid = CalibrationGrid::calibrate(machine, points.clone(), points, DISK_SHARE)
            .expect("grid calibration");
        Env {
            t,
            machine,
            grid,
            generate_s,
        }
    }

    fn problem(&self, plans: &[Vec<LogicalPlan>]) -> Result<DesignProblem<'_>, String> {
        design_problem(&self.t.db, self.machine, plans, plans.iter().map(|_| 1.0))
    }
}

pub struct Designs {
    plans: Vec<Vec<LogicalPlan>>,
    joint: JointRecommendation,
    index_only: JointRecommendation,
    alloc_only: JointRecommendation,
}

impl Outcome for Designs {
    fn fingerprint(&self) -> u64 {
        hash_of(&[
            self.joint.fingerprint,
            self.index_only.fingerprint,
            self.alloc_only.fingerprint,
        ])
    }
}

impl Workload for Inputs {
    type Env = Env;
    type Answer = Designs;
    const DECISIONS: usize = DECISIONS;
    const SETUPS: usize = 4;
    const ROUND_MS: f64 = 170.0;

    fn build(&self) -> Env {
        Env::build(self.data_seed)
    }

    fn decide(&self, env: &mut Env, i: usize) -> Result<Designs, String> {
        decide(env, &self.scenarios[i])
    }
}

fn decide(env: &Env, scenario: &Scenario) -> Result<Designs, String> {
    let plans = scenario
        .tenants
        .iter()
        .map(|(_, sql)| parse_statements(&env.t.db, sql))
        .collect::<Result<Vec<_>, _>>()?;
    let problem = env.problem(&plans)?;
    let mut cfg = DesignConfig::new(UNITS, plans.len()).with_budget(scenario.budget_pages);
    cfg.disk_share = DISK_SHARE;
    let advisor = DesignAdvisor::new(&env.grid, cfg);
    let joint = {
        let _span = telemetry::span("design.joint");
        advisor.advise(&problem).map_err(|e| e.to_string())?
    };
    let index_only = {
        let _span = telemetry::span("design.index_only");
        advisor
            .advise_index_only(&problem)
            .map_err(|e| e.to_string())?
    };
    let alloc_only = {
        let _span = telemetry::span("design.alloc_only");
        advisor
            .advise_allocation_only(&problem)
            .map_err(|e| e.to_string())?
    };
    drop(problem);
    Ok(Designs {
        plans,
        joint,
        index_only,
        alloc_only,
    })
}

/// The invariants every answer must satisfy, from the recommendations alone.
fn check_designs(i: usize, scenario: &Scenario, d: &Designs, checks: &mut Checks) {
    for rec in [&d.joint, &d.index_only, &d.alloc_only] {
        let mode = rec.mode;
        checks.check(shares_sum_to_one(&rec.allocation), || {
            format!("scenario {i}/{mode}: allocation does not sum to 1")
        });
        checks.check(rec.lp_bound <= rec.objective * (1.0 + 1e-9), || {
            format!(
                "scenario {i}/{mode}: LP bound {} above objective {}",
                rec.lp_bound, rec.objective
            )
        });
        checks.check(
            rec.per_vm
                .iter()
                .all(|vm| vm.pages_used <= scenario.budget_pages),
            || {
                format!(
                    "scenario {i}/{mode}: a VM exceeds its {}-page budget",
                    scenario.budget_pages
                )
            },
        );
    }
    checks.check(
        d.joint.objective <= d.index_only.objective.min(d.alloc_only.objective) * (1.0 + 1e-9),
        || {
            format!(
                "scenario {i}: joint {} lost to a marginal",
                d.joint.objective
            )
        },
    );
    if scenario.budget_pages == 0 {
        checks.check(
            d.joint.objective.to_bits() == d.alloc_only.objective.to_bits(),
            || format!("scenario {i}: zero-budget joint differs from allocation-only"),
        );
    }
}

/// A VM's queries planned the way the deployed database would (stock
/// optimizer settings sized from the VM) and executed through one buffer
/// pool: per-query demands and result rows.
fn execute(
    db: &mut Database,
    queries: &[LogicalPlan],
    machine: MachineSpec,
    shares: ResourceVector,
) -> Result<(VmJob, Vec<Vec<Tuple>>), String> {
    let vm = VirtualMachine::new(machine, shares).map_err(|e| e.to_string())?;
    let cfg = DbVmConfig::for_vm(&vm);
    let params = OptimizerParams {
        work_mem_bytes: cfg.work_mem_bytes as f64,
        effective_cache_size_pages: cfg.effective_cache_pages as f64,
        ..OptimizerParams::postgres_defaults()
    };
    let mut pool = BufferPool::new(cfg.buffer_pool_pages);
    let mut demands = Vec::new();
    let mut rows = Vec::new();
    for q in queries {
        let planned = plan_query(db, q, &params).map_err(|e| e.to_string())?;
        let out = run_plan(
            db,
            &mut pool,
            &planned.physical,
            cfg.work_mem_bytes,
            CpuCosts::default(),
        )
        .map_err(|e| e.to_string())?;
        demands.push(out.demand);
        rows.push(out.rows);
    }
    Ok((VmJob::new(demands), rows))
}

/// Result rows as an order-free multiset.
fn row_set(rows: &[Tuple]) -> Vec<String> {
    let mut set: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    set.sort_unstable();
    set
}

type IndexSet = Vec<(usize, Vec<usize>)>;

/// Twin databases with a chosen index set materialised, keyed by the set.
struct Twins {
    data_seed: u64,
    built: BTreeMap<IndexSet, TpchDb>,
}

impl Twins {
    fn with(&mut self, chosen: &[IndexCandidate]) -> Result<&mut Database, String> {
        let mut key: IndexSet = chosen
            .iter()
            .map(|c| (c.table.0, c.columns.clone()))
            .collect();
        key.sort();
        if !self.built.contains_key(&key) {
            let (mut twin, _) = generate_tpch(SCALE, self.data_seed, false);
            for (k, c) in chosen.iter().enumerate() {
                twin.db
                    .create_index_multi(format!("advised_{k}"), c.table, &c.columns)
                    .map_err(|e| e.to_string())?;
            }
            twin.db.analyze_all().map_err(|e| e.to_string())?;
            self.built.insert(key.clone(), twin);
        }
        Ok(&mut self.built.get_mut(&key).expect("just built").db)
    }
}

/// Ground truth for one scenario: every VM executed on a twin database
/// carrying exactly its advised indexes under its advised shares, against
/// the same VMs on the scan-only database at the equal split.
fn execute_advice(
    i: usize,
    env: &Env,
    scenario: &Scenario,
    d: &Designs,
    twins: &mut Twins,
    checks: &mut Checks,
) -> Result<Quality, String> {
    let n = d.plans.len();
    let equal = equal_split(n, DISK_SHARE)?;
    let mut advised_jobs = Vec::new();
    let mut default_jobs = Vec::new();
    for (vm, plans) in d.plans.iter().enumerate() {
        let twin = twins.with(&d.joint.per_vm[vm].chosen)?;
        let (job, advised_rows) = execute(twin, plans, env.machine, d.joint.allocation.row(vm))?;
        advised_jobs.push(job);
        // The default runs on its own scan-only twin (the empty index set).
        let (job, default_rows) = execute(twins.with(&[])?, plans, env.machine, equal.row(vm))?;
        default_jobs.push(job);
        let is_lookup = scenario.tenants[vm].0;
        for (q, (a, b)) in advised_rows.iter().zip(&default_rows).enumerate() {
            // Aggregates may differ in the last float bits with the scan
            // order; plain lookups must return the very same rows.
            let same = if is_lookup {
                row_set(a) == row_set(b)
            } else {
                a.len() == b.len()
            };
            checks.check(same, || {
                format!("scenario {i} vm {vm} query {q}: indexed and scan-only results differ")
            });
        }
    }
    let mut cost = |allocation: &AllocationMatrix, jobs: &[VmJob]| -> Result<f64, String> {
        let outcomes = co_schedule(env.machine, allocation, jobs, SchedMode::Capped)
            .map_err(|e| e.to_string())?;
        checks.check(
            matches_reference(env.machine, allocation, jobs, SchedMode::Capped, &outcomes),
            || format!("scenario {i}: co_schedule differs from co_schedule_reference"),
        );
        Ok(outcomes.iter().map(|o| o.makespan().as_secs_f64()).sum())
    };
    Ok(Quality {
        advised_cost_s: cost(&d.joint.allocation, &advised_jobs)?,
        default_cost_s: cost(&equal, &default_jobs)?,
    })
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::generate(args.seed);
    let mut h = Harness::new(args, &inputs);
    let (env, designs) = h.measure(&inputs);
    h.set("tpch.generate_s", env.generate_s);

    let mut predicted = 0.0;
    h.verify(|checks| {
        let mut quality = Quality::default();
        let mut twins = Twins {
            data_seed: inputs.data_seed,
            built: BTreeMap::new(),
        };
        for (i, (scenario, d)) in inputs.scenarios.iter().zip(&designs).enumerate() {
            let Some(d) = d else { continue };
            check_designs(i, scenario, d, checks);
            if !VERIFIED.contains(&i) {
                continue;
            }
            match execute_advice(i, &env, scenario, d, &mut twins, checks) {
                Ok(q) => {
                    quality.advised_cost_s += q.advised_cost_s;
                    quality.default_cost_s += q.default_cost_s;
                    predicted += d.joint.objective;
                }
                Err(e) => checks.check(false, || {
                    format!("scenario {i}: executing the advice failed: {e}")
                }),
            }
        }
        quality
    });

    let joint: Vec<&JointRecommendation> = designs.iter().flatten().map(|d| &d.joint).collect();
    let gap = joint.iter().map(|j| j.optimality_gap).sum::<f64>() / joint.len().max(1) as f64;
    h.set("design.optimality_gap_pct", 100.0 * gap);
    h.set(
        "design.model_error_pct",
        error_pct(predicted, h.quality().advised_cost_s),
    );
    h.finish("design")
}
