//! Fleet placement invariants: solver-ladder ordering, LP bound
//! soundness, capacity feasibility, determinism, and cache sharing —
//! over randomized fleets and pinned edge cases.

use dbvirt_core::search::{run_search, SearchAlgorithm, SearchConfig};
use dbvirt_core::{CoreError, CostModel, DesignProblem};
use dbvirt_engine::Database;
use dbvirt_fleet::{
    CurrentPlacement, FleetAdvisor, FleetConfig, FleetError, FleetProblem, FleetVm, MachineClasses,
};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_vmm::kernel::Fnv1a;
use dbvirt_vmm::{MachineSpec, ResourceVector};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cheap, strictly share-hungry synthetic model. Prices workloads by
/// *name* (names are the VM identity that per-machine solves pass
/// through), so the same VM costs the same no matter which machine subset
/// it appears in — the contract the shared cache relies on.
struct SyntheticModel {
    speed: f64,
}

fn fnv(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(s.as_bytes());
    h.finish()
}

impl CostModel for SyntheticModel {
    fn cost(
        &self,
        problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError> {
        let scale = 1.0 + (fnv(&problem.workloads[w_idx].name) % 13) as f64 * 0.35;
        let cpu = shares.cpu().fraction();
        let mem = shares.memory().fraction();
        Ok(self.speed * scale * (1.0 / cpu + 0.6 / mem))
    }
}

fn tiny_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .unwrap();
    db.analyze_all().unwrap();
    db
}

fn vms<'a>(db: &'a Database, n: usize, weights: &[f64]) -> Vec<FleetVm<'a>> {
    let t = db.table_id("t").unwrap();
    (0..n)
        .map(|i| {
            FleetVm::new(format!("vm-{i}"), db, vec![LogicalPlan::scan(t)])
                .with_weight(weights.get(i).copied().unwrap_or(1.0))
        })
        .collect()
}

/// Machines, class-indexed models (owned), and the advisor's config for a
/// generated fleet shape.
fn fleet_setup(m: usize, hetero: bool) -> (Vec<MachineSpec>, Vec<SyntheticModel>) {
    let machines: Vec<MachineSpec> = (0..m)
        .map(|i| {
            if hetero && i % 2 == 1 {
                MachineSpec::paper_testbed()
            } else {
                MachineSpec::tiny()
            }
        })
        .collect();
    let classes = MachineClasses::of(&machines);
    let models = (0..classes.num_classes())
        .map(|k| SyntheticModel {
            speed: 1.0 + k as f64 * 0.7,
        })
        .collect();
    (machines, models)
}

fn check_invariants(
    cfg: FleetConfig,
    machines: &[MachineSpec],
    models: &[SyntheticModel],
    problem: &FleetProblem<'_>,
) {
    let model_refs: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
    let advisor = FleetAdvisor::new(machines.to_vec(), model_refs, cfg).unwrap();
    let report = advisor.place(problem).unwrap();

    // (a) Local search never worsens the greedy incumbent.
    assert!(
        report.placement.total_objective <= report.greedy_placement.total_objective,
        "local search worsened greedy: {} > {}",
        report.placement.total_objective,
        report.greedy_placement.total_objective
    );

    // (b) The LP bound never exceeds any feasible incumbent's steady cost.
    for (label, steady) in [
        ("greedy", report.greedy_placement.steady_objective),
        ("final", report.placement.steady_objective),
    ] {
        assert!(
            report.lp.bound <= steady + 1e-9 * steady.abs().max(1.0),
            "LP bound {} exceeds {label} incumbent {}",
            report.lp.bound,
            steady
        );
    }
    assert!(report.optimality_gap >= 0.0);

    // (c) Every placement respects machine capacities and share floors.
    for p in [&report.greedy_placement, &report.placement] {
        let mut used = vec![(0u64, 0u64); machines.len()];
        for i in 0..problem.num_vms() {
            let m = p.machine_of[i];
            assert!(m < machines.len());
            let (c, mu) = p.units_of[i];
            assert!(
                c >= cfg.min_units && mu >= cfg.min_units,
                "VM {i} got ({c}, {mu}), below the {}-unit floor",
                cfg.min_units
            );
            used[m].0 += c as u64;
            used[m].1 += mu as u64;
        }
        for (m, &(c, mu)) in used.iter().enumerate() {
            assert!(
                c <= cfg.units as u64 && mu <= cfg.units as u64,
                "machine {m} oversubscribed: ({c}, {mu}) of {} units",
                cfg.units
            );
        }
        for (m, residents) in (0..machines.len()).map(|m| (m, p.residents(m))) {
            assert!(
                residents.len() <= cfg.max_vms_per_machine,
                "machine {m} hosts {} VMs over the {} cap",
                residents.len(),
                cfg.max_vms_per_machine
            );
        }
    }

    // Same request again: the answer must be bit-identical, and the cache
    // must already be warm.
    let again = advisor.place(problem).unwrap();
    assert_eq!(report.fingerprint(), again.fingerprint());
    assert_eq!(again.prewarm_cells, 0, "second request re-warmed cells");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three required fleet invariants over random fleet shapes,
    /// weights, and (sometimes) a deployed placement to price against.
    #[test]
    fn prop_fleet_invariants(
        n in 1usize..7,
        m in 1usize..4,
        hetero in prop::bool::ANY,
        with_current in prop::bool::ANY,
        w_seed in 0u64..1000,
    ) {
        let units = 6u32;
        let cfg = FleetConfig::new(units)
            .with_parallelism(1)
            .with_lp_iterations(120);
        // Skip infeasible shapes (cap = units VMs per machine).
        prop_assume!(n <= m * cfg.max_vms_per_machine);
        let weights: Vec<f64> = (0..n)
            .map(|i| 0.5 + ((w_seed + i as u64) % 7) as f64 * 0.4)
            .collect();
        let (machines, models) = fleet_setup(m, hetero);
        let db = tiny_db();
        let mut problem = FleetProblem::new(machines.clone(), vms(&db, n, &weights)).unwrap();
        if with_current {
            let current = CurrentPlacement {
                machine_of: (0..n).map(|i| i % m).collect(),
                units_of: (0..n).map(|i| (1 + (i as u32 % 3), 2)).collect(),
            };
            problem = problem.with_current(current).unwrap();
        }
        check_invariants(cfg, &machines, &models, &problem);
    }
}

/// With one machine the fleet problem *is* the paper's single-machine
/// problem: the advisor must return exactly what the core DP returns.
#[test]
fn single_machine_placement_matches_core_dp() {
    let db = tiny_db();
    let n = 4;
    let units = 8u32;
    let weights = [1.0, 2.0, 0.5, 1.5];
    let machines = vec![MachineSpec::tiny()];
    let model = SyntheticModel { speed: 1.0 };
    let cfg = FleetConfig::new(units)
        .with_disk_share(0.25)
        .with_parallelism(1);
    let advisor = FleetAdvisor::new(machines.clone(), vec![&model], cfg).unwrap();
    let problem = FleetProblem::new(machines, vms(&db, n, &weights)).unwrap();
    let report = advisor.place(&problem).unwrap();

    // A fleet VM is a workload spec: the fleet's VMs are the problem's
    // workloads as they stand.
    let workloads = problem.vms.clone();
    let dp = DesignProblem::new(MachineSpec::tiny(), workloads).unwrap();
    let scfg = SearchConfig {
        units,
        disk_share: 0.25,
        min_units: 1,
        cpu_budget: units,
        mem_budget: units,
    };
    let rec = run_search(SearchAlgorithm::DynamicProgramming, &dp, &model, scfg).unwrap();

    assert!(report.placement.machine_of.iter().all(|&m| m == 0));
    assert_eq!(report.placement.steady_objective, rec.objective);
    for (i, row) in rec.allocation.rows().enumerate() {
        let c = (row.cpu().fraction() * units as f64).round() as u32;
        let mu = (row.memory().fraction() * units as f64).round() as u32;
        assert_eq!(report.placement.units_of[i], (c, mu), "VM {i} units differ");
    }
    // Migration against the greedy seed is zero for a fresh placement only
    // if local search kept the seed; either way the LP gap is certified.
    assert!(report.optimality_gap < 1.0);
}

/// One advisor, two *different* requests (same VM universe, different
/// weights), served concurrently from two threads sharing the warm cache:
/// both answers must be bit-identical to serving them sequentially from a
/// fresh advisor.
#[test]
fn concurrent_requests_share_the_cache_deterministically() {
    let db = tiny_db();
    let n = 5;
    let machines_proto = fleet_setup(2, true);
    let cfg = FleetConfig::new(6)
        .with_parallelism(1)
        .with_lp_iterations(80);
    let weights_a: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.3).collect();
    let weights_b: Vec<f64> = (0..n).map(|i| 2.5 - i as f64 * 0.2).collect();

    let serve_sequential = || {
        let (machines, models) = &machines_proto;
        let model_refs: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
        let advisor = FleetAdvisor::new(machines.clone(), model_refs, cfg).unwrap();
        let pa = FleetProblem::new(machines.clone(), vms(&db, n, &weights_a)).unwrap();
        let pb = FleetProblem::new(machines.clone(), vms(&db, n, &weights_b)).unwrap();
        let ra = advisor.place(&pa).unwrap();
        let rb = advisor.place(&pb).unwrap();
        (
            ra.fingerprint(),
            rb.fingerprint(),
            advisor.cache_evaluations(),
        )
    };
    let (fp_a, fp_b, evals) = serve_sequential();
    // Sanity: the two requests genuinely differ.
    assert_ne!(fp_a, fp_b);

    for _ in 0..4 {
        let (machines, models) = &machines_proto;
        let model_refs: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
        let advisor = FleetAdvisor::new(machines.clone(), model_refs, cfg).unwrap();
        let pa = FleetProblem::new(machines.clone(), vms(&db, n, &weights_a)).unwrap();
        let pb = FleetProblem::new(machines.clone(), vms(&db, n, &weights_b)).unwrap();
        let (got_a, got_b) = std::thread::scope(|scope| {
            let ta = scope.spawn(|| advisor.place(&pa).unwrap().fingerprint());
            let tb = scope.spawn(|| advisor.place(&pb).unwrap().fingerprint());
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(got_a, fp_a, "request A diverged under concurrency");
        assert_eq!(got_b, fp_b, "request B diverged under concurrency");
        // Both requests pre-warm the same rectangle: the shared cache ends
        // with exactly the cells a sequential advisor evaluates.
        assert_eq!(advisor.cache_evaluations(), evals);
    }
}

/// A cost of NaN is a value, not a marker for "never priced": a class
/// model that prices one cell of one VM at NaN is asked for that cell once
/// per advisor, however many requests and solves read it afterwards.
#[test]
fn a_nan_cell_is_priced_once_per_advisor() {
    struct NanAt {
        inner: SyntheticModel,
        calls: AtomicUsize,
    }
    impl CostModel for NanAt {
        fn cost(
            &self,
            problem: &DesignProblem<'_>,
            w_idx: usize,
            shares: ResourceVector,
        ) -> Result<f64, CoreError> {
            // vm-0 at two units of each resource out of six.
            let third = |f: f64| (f * 6.0).round() == 2.0;
            if problem.workloads[w_idx].name == "vm-0"
                && third(shares.cpu().fraction())
                && third(shares.memory().fraction())
            {
                self.calls.fetch_add(1, Ordering::Relaxed);
                return Ok(f64::NAN);
            }
            self.inner.cost(problem, w_idx, shares)
        }
    }
    let db = tiny_db();
    let n = 4;
    let machines = vec![MachineSpec::tiny(); 2];
    let model = NanAt {
        inner: SyntheticModel { speed: 1.0 },
        calls: AtomicUsize::new(0),
    };
    let cfg = FleetConfig::new(6)
        .with_parallelism(2)
        .with_lp_iterations(40);
    let advisor = FleetAdvisor::new(machines.clone(), vec![&model as &dyn CostModel], cfg).unwrap();
    let first = FleetProblem::new(machines.clone(), vms(&db, n, &[1.0, 2.0])).unwrap();
    let cold = advisor.place(&first).unwrap();
    assert!(cold.prewarm_cells > 0 && cold.solves > 0);
    assert_eq!(model.calls.load(Ordering::Relaxed), 1);
    let second = FleetProblem::new(machines, vms(&db, n, &[3.0, 0.5, 1.5])).unwrap();
    let warm = advisor.place(&second).unwrap();
    assert_eq!(warm.prewarm_cells, 0);
    assert!(warm.solves > 0);
    assert_eq!(model.calls.load(Ordering::Relaxed), 1);
    assert_eq!(advisor.cache_evaluations(), cold.prewarm_cells);
}

/// A class model that prices every cell of one VM at NaN leaves that VM's
/// machine without a finite solve. The request is refused with the
/// machine named, instead of certifying a NaN objective with a 0 gap.
#[test]
fn a_vm_with_no_finite_cell_is_refused_not_certified() {
    struct NanVm {
        inner: SyntheticModel,
        victim: &'static str,
    }
    impl CostModel for NanVm {
        fn cost(
            &self,
            problem: &DesignProblem<'_>,
            w_idx: usize,
            shares: ResourceVector,
        ) -> Result<f64, CoreError> {
            if problem.workloads[w_idx].name == self.victim {
                return Ok(f64::NAN);
            }
            self.inner.cost(problem, w_idx, shares)
        }
    }
    let db = tiny_db();
    let machines = vec![MachineSpec::tiny(); 3];
    for victim in ["vm-0", "vm-3"] {
        let model = NanVm {
            inner: SyntheticModel { speed: 1.0 },
            victim,
        };
        let cfg = FleetConfig::new(6)
            .with_parallelism(1)
            .with_lp_iterations(40);
        let advisor =
            FleetAdvisor::new(machines.clone(), vec![&model as &dyn CostModel], cfg).unwrap();
        let problem = FleetProblem::new(machines.clone(), vms(&db, 5, &[1.0])).unwrap();
        let err = match advisor.place(&problem) {
            Ok(r) => panic!(
                "{victim}: certified steady {} with bound {} and gap {}",
                r.placement.steady_objective, r.lp.bound, r.optimality_gap
            ),
            Err(err) => err,
        };
        let FleetError::NonFiniteSolve { machine, objective } = err else {
            panic!("{victim}: wrong error {err}");
        };
        assert!(objective.is_nan(), "{victim}: {err}");
        assert!(machine < machines.len());
        assert!(
            err.to_string().contains(&format!("machine {machine}")),
            "{err}"
        );
    }
}

/// Pre-warm parallelism must not change a single bit of the answer.
#[test]
fn prewarm_parallelism_is_invisible() {
    let db = tiny_db();
    let n = 6;
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
    let (machines, models) = fleet_setup(3, true);
    let mut fingerprints = Vec::new();
    for parallelism in [1usize, 4, 0] {
        let cfg = FleetConfig::new(6)
            .with_parallelism(parallelism)
            .with_lp_iterations(80);
        let model_refs: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
        let advisor = FleetAdvisor::new(machines.clone(), model_refs, cfg).unwrap();
        let problem = FleetProblem::new(machines.clone(), vms(&db, n, &weights)).unwrap();
        fingerprints.push(advisor.place(&problem).unwrap().fingerprint());
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[0], fingerprints[2]);
}

/// A fleet that forces every machine to host several VMs warms only the
/// rectangle those VMs can ever be handed. Greedy's transient states —
/// machines still below that occupancy — must be solved under the capped
/// budget: no cell above the rectangle is ever priced, and nothing is
/// priced after the pre-warm sweep.
#[test]
fn solves_below_forced_occupancy_stay_inside_the_warm_rectangle() {
    /// Fails any cell above `ceiling` units and counts the rest.
    struct Fenced {
        inner: SyntheticModel,
        units: f64,
        ceiling: f64,
        calls: std::sync::atomic::AtomicUsize,
    }
    impl CostModel for Fenced {
        fn cost(
            &self,
            problem: &DesignProblem<'_>,
            w_idx: usize,
            shares: ResourceVector,
        ) -> Result<f64, CoreError> {
            let cpu = (shares.cpu().fraction() * self.units).round();
            let mem = (shares.memory().fraction() * self.units).round();
            if cpu > self.ceiling || mem > self.ceiling {
                return Err(CoreError::BadProblem {
                    reason: format!("cell ({cpu}, {mem}) is outside the warm rectangle"),
                });
            }
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.cost(problem, w_idx, shares)
        }
    }

    // 10 VMs on two 6-VM machines: each hosts at least 4, so no VM can
    // hold more than 6 − 3 = 3 units.
    let db = tiny_db();
    let (n, units, ceiling) = (10, 6u32, 3u32);
    let machines = vec![MachineSpec::tiny(); 2];
    let model = Fenced {
        inner: SyntheticModel { speed: 1.0 },
        units: units as f64,
        ceiling: ceiling as f64,
        calls: Default::default(),
    };
    let cfg = FleetConfig::new(units)
        .with_parallelism(1)
        .with_lp_iterations(80);
    let advisor = FleetAdvisor::new(machines.clone(), vec![&model], cfg).unwrap();
    let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i % 4) as f64 * 0.5).collect();
    let problem = FleetProblem::new(machines, vms(&db, n, &weights)).unwrap();
    let report = advisor.place(&problem).unwrap();

    assert_eq!(report.prewarm_cells, n * (ceiling * ceiling) as usize);
    assert_eq!(model.calls.into_inner(), report.prewarm_cells);
    assert!(report
        .placement
        .units_of
        .iter()
        .all(|&(c, m)| c <= ceiling && m <= ceiling));
}

/// Re-placing a deployed fleet prices its churn and reports the delta.
#[test]
fn rebalance_is_priced_against_the_deployed_placement() {
    let db = tiny_db();
    let n = 4;
    let weights = [1.0, 1.0, 3.0, 1.0];
    let (machines, models) = fleet_setup(2, false);
    let model_refs: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
    let cfg = FleetConfig::new(8)
        .with_parallelism(1)
        .with_lp_iterations(80);
    let advisor = FleetAdvisor::new(machines.clone(), model_refs, cfg).unwrap();

    // Everything crammed onto machine 0 with minimal shares.
    let current = CurrentPlacement {
        machine_of: vec![0; n],
        units_of: vec![(2, 2); n],
    };
    let problem = FleetProblem::new(machines.clone(), vms(&db, n, &weights))
        .unwrap()
        .with_current(current.clone())
        .unwrap();
    let report = advisor.place(&problem).unwrap();
    let delta = report.rebalance.expect("current placement must be priced");
    assert!(delta.steady_before > 0.0);
    assert_eq!(delta.steady_after, report.placement.steady_objective);
    assert_eq!(delta.migration_seconds, report.placement.migration_seconds);
    // The cramped deployment is strictly worse than the recommendation.
    assert!(delta.steady_gain() > 0.0, "gain {}", delta.steady_gain());

    // If the recommendation differs from the deployment, it paid churn.
    let moved = report.placement.machine_of != current.machine_of
        || report
            .placement
            .units_of
            .iter()
            .zip(&current.units_of)
            .any(|(a, b)| a.1 != b.1);
    assert_eq!(moved, report.placement.migration_seconds > 0.0);
}

/// Hostile and mismatched requests fail with typed errors, never panics.
#[test]
fn hostile_requests_return_typed_errors() {
    let db = tiny_db();
    let (machines, models) = fleet_setup(2, false);
    let model_refs: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
    let cfg = FleetConfig::new(4).with_parallelism(1);

    // Wrong model count for the class structure.
    let Err(err) = FleetAdvisor::new(machines.clone(), vec![], cfg) else {
        panic!("model/class count mismatch must be rejected");
    };
    assert!(matches!(err, FleetError::BadFleet { .. }), "{err}");

    let advisor = FleetAdvisor::new(machines.clone(), model_refs, cfg).unwrap();

    // Request over a different fleet than the advisor is bound to.
    let other = vec![MachineSpec::paper_testbed(), MachineSpec::paper_testbed()];
    let weights = [1.0];
    let problem = FleetProblem::new(other, vms(&db, 1, &weights)).unwrap();
    let err = advisor.place(&problem).unwrap_err();
    assert!(matches!(err, FleetError::BadFleet { .. }), "{err}");

    // More VMs than the fleet can host (cap = 4 per machine at 4 units).
    let many: Vec<f64> = vec![1.0; 9];
    let problem = FleetProblem::new(machines.clone(), vms(&db, 9, &many)).unwrap();
    let err = advisor.place(&problem).unwrap_err();
    assert!(matches!(err, FleetError::Infeasible { .. }), "{err}");

    // Deployed units outside the advisor's discretization.
    let problem = FleetProblem::new(machines.clone(), vms(&db, 2, &[1.0, 1.0]))
        .unwrap()
        .with_current(CurrentPlacement {
            machine_of: vec![0, 1],
            units_of: vec![(99, 2), (2, 2)],
        })
        .unwrap();
    let err = advisor.place(&problem).unwrap_err();
    assert!(matches!(err, FleetError::BadFleet { .. }), "{err}");
}
