//! `Cost(Wᵢ, Rᵢ)`: the calibrated what-if cost model.

use crate::{CoreError, DesignProblem};
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_vmm::ResourceVector;

/// Anything that can price a workload under a candidate allocation.
///
/// The production implementation is [`CalibratedCostModel`]; tests swap in
/// synthetic models to exercise the search algorithms in isolation.
///
/// Implementations must be `Sync`: the fleet pre-warm prices allocation
/// cells from several threads against one shared model. They must also be
/// pure functions of `(workload databases and queries, machine, shares)` —
/// in particular independent of workload *weights*, which the search
/// applies on top — so cached cell costs can be reused across searches.
pub trait CostModel: Sync {
    /// Estimated cost (seconds) of workload `w_idx` under `shares`.
    fn cost(
        &self,
        problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError>;
}

/// The paper's cost model: look up (or interpolate) the calibrated `P(R)`
/// and re-optimize the workload under it, summing estimated execution
/// times. Nothing is executed. The model holds no per-workload state: what
/// can be reused across cells — the workload's `P`-free analysis — lives
/// with the [`crate::WorkloadSpec`] it is a function of.
#[derive(Debug)]
pub struct CalibratedCostModel<'g> {
    grid: &'g CalibrationGrid,
}

impl<'g> CalibratedCostModel<'g> {
    /// Wraps a calibrated grid.
    pub fn new(grid: &'g CalibrationGrid) -> CalibratedCostModel<'g> {
        CalibratedCostModel { grid }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &CalibrationGrid {
        self.grid
    }
}

impl CostModel for CalibratedCostModel<'_> {
    fn cost(
        &self,
        problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError> {
        let params = self.grid.params_for(shares)?;
        Ok(problem.workloads[w_idx].estimate_seconds(&params)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use dbvirt_engine::{Database, Expr};
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
    use dbvirt_vmm::MachineSpec;

    fn test_db() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        db.insert_rows(t, (0..5_000).map(|i| Tuple::new(vec![Datum::Int(i)])))
            .unwrap();
        db.analyze_all().unwrap();
        db
    }

    #[test]
    fn calibrated_model_prices_workloads() {
        let grid = CalibrationGrid::calibrate(
            MachineSpec::paper_testbed(),
            vec![0.25, 0.75],
            vec![0.5],
            0.5,
        )
        .unwrap();
        let db = test_db();
        let t = db.table_id("t").unwrap();
        // A CPU-leaning query (filter over every row).
        let q = LogicalPlan::scan_filtered(t, Expr::ge(Expr::col(0), Expr::int(0)));
        let problem = DesignProblem::new(
            MachineSpec::paper_testbed(),
            vec![WorkloadSpec::new("w", &db, vec![q])],
        )
        .unwrap();
        let model = CalibratedCostModel::new(&grid);
        let starved = model
            .cost(
                &problem,
                0,
                ResourceVector::from_fractions(0.25, 0.5, 0.5).unwrap(),
            )
            .unwrap();
        let rich = model
            .cost(
                &problem,
                0,
                ResourceVector::from_fractions(0.75, 0.5, 0.5).unwrap(),
            )
            .unwrap();
        assert!(
            starved > rich,
            "less CPU must cost more: {starved} vs {rich}"
        );
    }
}
