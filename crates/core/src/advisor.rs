//! The end-to-end virtualization advisor.
//!
//! Ties the paper's framework together: calibrate `P(R)` over a grid
//! matched to the search discretization (once per machine — the grid is
//! reusable across problems and databases), then search the allocation
//! space with what-if cost evaluations.

use crate::search::{run_search, SearchAlgorithm, SearchConfig};
use crate::{CalibratedCostModel, CoreError, DesignProblem, Recommendation};
use dbvirt_calibrate::{CalibrationConfig, CalibrationGrid};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::MachineSpec;

/// A configured advisor: a machine plus its calibration grid.
#[derive(Debug)]
pub struct VirtualizationAdvisor {
    pub(crate) machine: MachineSpec,
    pub(crate) grid: CalibrationGrid,
    pub(crate) config: SearchConfig,
}

impl VirtualizationAdvisor {
    /// Calibrates an advisor for `machine`, consolidating `n_workloads`
    /// VMs, with shares discretized into `units` steps.
    ///
    /// Grid points are placed exactly at the share values the search can
    /// produce (`min_units/units ..= (units - (n-1)·min_units)/units`), so
    /// search-time lookups are exact and interpolation is only needed for
    /// off-grid queries.
    pub fn calibrate(
        machine: MachineSpec,
        n_workloads: usize,
        units: u32,
    ) -> Result<VirtualizationAdvisor, CoreError> {
        VirtualizationAdvisor::calibrate_with_config(
            machine,
            n_workloads,
            units,
            &CalibrationConfig::default(),
        )
    }

    /// Like [`VirtualizationAdvisor::calibrate`], but with explicit
    /// measurement-robustness knobs (multi-trial probes, retries, outlier
    /// rejection, fault injection). Cells that cannot be calibrated are
    /// interpolated from neighbors rather than failing the advisor; check
    /// the [`VirtualizationAdvisor::grid`]'s health before trusting
    /// recommendations from a noisy calibration.
    pub fn calibrate_with_config(
        machine: MachineSpec,
        n_workloads: usize,
        units: u32,
        rcfg: &CalibrationConfig,
    ) -> Result<VirtualizationAdvisor, CoreError> {
        let config = SearchConfig::for_workloads(units, n_workloads);
        let lo = config.min_units;
        let hi = units - config.min_units * (n_workloads as u32 - 1);
        let points: Vec<f64> = (lo..=hi).map(|u| u as f64 / units as f64).collect();
        let grid = CalibrationGrid::calibrate_with_config(
            machine,
            points.clone(),
            points,
            config.disk_share,
            rcfg,
        )?;
        Ok(VirtualizationAdvisor {
            machine,
            grid,
            config,
        })
    }

    /// The machine this advisor serves.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The calibration grid (serializable for reuse).
    pub fn grid(&self) -> &CalibrationGrid {
        &self.grid
    }

    /// The search configuration.
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// Recommends an allocation for `problem` using `algorithm`.
    pub fn recommend(
        &self,
        problem: &DesignProblem<'_>,
        algorithm: SearchAlgorithm,
    ) -> Result<Recommendation, CoreError> {
        let mut root_span = telemetry::span("advisor.recommend");
        root_span.set_attr("algorithm", algorithm.name());
        root_span.set_attr("workloads", problem.num_workloads());
        root_span.set_attr("units", self.config.units);
        if problem.num_workloads() as u32 * self.config.min_units > self.config.units {
            return Err(CoreError::BadProblem {
                reason: format!(
                    "advisor calibrated for up to {} workloads, got {}",
                    self.config.units / self.config.min_units,
                    problem.num_workloads()
                ),
            });
        }
        let model = CalibratedCostModel::new(&self.grid);
        let rec = run_search(algorithm, problem, &model, self.config)?;
        root_span.set_attr("evaluations", rec.evaluations);
        root_span.set_attr("objective", rec.objective);
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use dbvirt_engine::{Database, Expr};
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    /// A database with a big table; one CPU-bound workload (heavy
    /// predicate, all rows) and one I/O-bound workload (bare scan).
    fn fixture() -> Database {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("pad", DataType::Str),
            ]),
        );
        db.insert_rows(
            t,
            (0..30_000)
                .map(|i| Tuple::new(vec![Datum::Int(i), Datum::str("xxxxxxxxxxxxxxxxxxxxxxxx")])),
        )
        .unwrap();
        db.analyze_all().unwrap();
        db
    }

    #[test]
    fn advisor_shifts_cpu_to_the_cpu_bound_workload() {
        let db = fixture();
        let t = db.table_id("t").unwrap();
        let heavy_pred = Expr::and_all(
            (0..12)
                .map(|i| Expr::ge(Expr::add(Expr::col(0), Expr::int(i)), Expr::int(-1)))
                .collect(),
        );
        let cpu_bound = vec![LogicalPlan::scan_filtered(t, heavy_pred); 3];
        let io_bound = vec![LogicalPlan::scan(t)];
        let problem = DesignProblem::new(
            MachineSpec::paper_testbed(),
            vec![
                WorkloadSpec::new("io", &db, io_bound),
                WorkloadSpec::new("cpu", &db, cpu_bound),
            ],
        )
        .unwrap();

        let advisor = VirtualizationAdvisor::calibrate(MachineSpec::paper_testbed(), 2, 4).unwrap();
        let rec = advisor
            .recommend(&problem, SearchAlgorithm::DynamicProgramming)
            .unwrap();
        let io_cpu = rec.allocation.row(0).cpu().fraction();
        let cpu_cpu = rec.allocation.row(1).cpu().fraction();
        assert!(
            cpu_cpu > io_cpu,
            "CPU-bound workload should receive more CPU: {cpu_cpu} vs {io_cpu}"
        );
        // And the recommendation beats the equal split under the model.
        let model = CalibratedCostModel::new(advisor.grid());
        let eq: f64 = crate::metrics::equal_split_costs(&problem, &model)
            .unwrap()
            .iter()
            .sum();
        assert!(rec.total_cost <= eq + 1e-9);
    }

    #[test]
    fn noisy_calibration_still_recommends_and_reports_health() {
        use dbvirt_calibrate::CalibrationConfig;
        use dbvirt_vmm::{FaultInjector, NoiseModel};

        let db = fixture();
        let t = db.table_id("t").unwrap();
        let problem = DesignProblem::new(
            MachineSpec::paper_testbed(),
            vec![
                WorkloadSpec::new("a", &db, vec![LogicalPlan::scan(t)]),
                WorkloadSpec::new("b", &db, vec![LogicalPlan::scan(t); 2]),
            ],
        )
        .unwrap();

        let clean = VirtualizationAdvisor::calibrate(MachineSpec::paper_testbed(), 2, 4).unwrap();
        assert!(clean.grid().health().is_clean());

        // Transient failures only: measurements that survive retry are
        // exact, so the noisy advisor must reach the identical
        // recommendation while its health records the recovery work.
        let injector = FaultInjector::new(NoiseModel::none().with_failures(0.3), 23);
        let rcfg = CalibrationConfig::robust().with_injector(injector);
        let noisy =
            VirtualizationAdvisor::calibrate_with_config(MachineSpec::paper_testbed(), 2, 4, &rcfg)
                .unwrap();
        let health = noisy.grid().health();
        assert!(health.total_retries > 0, "{health}");
        assert_eq!(health.degraded_cells, 0, "{health}");

        let want = clean
            .recommend(&problem, SearchAlgorithm::DynamicProgramming)
            .unwrap();
        let got = noisy
            .recommend(&problem, SearchAlgorithm::DynamicProgramming)
            .unwrap();
        assert_eq!(want.allocation, got.allocation);
    }

    #[test]
    fn too_many_workloads_is_an_error() {
        let db = fixture();
        let t = db.table_id("t").unwrap();
        let advisor = VirtualizationAdvisor::calibrate(MachineSpec::paper_testbed(), 2, 4).unwrap();
        let workloads = (0..5)
            .map(|i| WorkloadSpec::new(format!("w{i}"), &db, vec![LogicalPlan::scan(t)]))
            .collect();
        let problem = DesignProblem::new(MachineSpec::paper_testbed(), workloads).unwrap();
        assert!(advisor
            .recommend(&problem, SearchAlgorithm::Greedy)
            .is_err());
    }
}
