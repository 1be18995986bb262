//! The fleet placement problem: `N` VMs over `M` heterogeneous machines.

use crate::FleetError;
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_vmm::MachineSpec;

/// One virtual machine to place: a named workload (the single-machine
/// problem's `WorkloadSpec`, lifted to fleet scope). The name is the VM's
/// *identity* — per-machine solves pass it through to the generated
/// `WorkloadSpec`s, so cost models (and the shared cost cache) can price a
/// VM consistently no matter which machine subset it appears in.
#[derive(Debug)]
pub struct FleetVm<'a> {
    /// Display name and cache identity.
    pub name: String,
    /// The database the VM's workload queries.
    pub db: &'a Database,
    /// The workload's queries.
    pub queries: Vec<LogicalPlan>,
    /// Service-level weight in the placement objective.
    pub weight: f64,
}

impl<'a> FleetVm<'a> {
    /// Creates a VM spec with the default weight of 1.
    pub fn new(
        name: impl Into<String>,
        db: &'a Database,
        queries: Vec<LogicalPlan>,
    ) -> FleetVm<'a> {
        FleetVm {
            name: name.into(),
            db,
            queries,
            weight: 1.0,
        }
    }

    /// Sets the service-level weight (validated by [`FleetProblem::new`]).
    pub fn with_weight(mut self, weight: f64) -> FleetVm<'a> {
        self.weight = weight;
        self
    }
}

/// A deployed placement: which machine each VM currently runs on and the
/// integer share units it currently holds. When a [`FleetProblem`] carries
/// one, migration away from it is priced into the objective (amortized
/// over 50 runs, `MIGRATION_HORIZON_RUNS`), so re-placements
/// must pay for their churn.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentPlacement {
    /// `machine_of[i]` is the machine index VM `i` runs on.
    pub machine_of: Vec<usize>,
    /// `units_of[i]` is VM `i`'s current `(cpu units, mem units)`.
    pub units_of: Vec<(u32, u32)>,
}

/// The fleet design problem: place every VM on exactly one machine and
/// choose its per-machine resource shares.
#[derive(Debug)]
pub struct FleetProblem<'a> {
    /// The physical machines (heterogeneous specs allowed).
    pub machines: Vec<MachineSpec>,
    /// The VMs to place.
    pub vms: Vec<FleetVm<'a>>,
    /// The currently deployed placement, if any (see [`CurrentPlacement`]).
    pub current: Option<CurrentPlacement>,
}

impl<'a> FleetProblem<'a> {
    /// Creates and validates a fleet problem.
    pub fn new(
        machines: Vec<MachineSpec>,
        vms: Vec<FleetVm<'a>>,
    ) -> Result<FleetProblem<'a>, FleetError> {
        if machines.is_empty() {
            return Err(FleetError::BadFleet {
                reason: "a fleet needs at least one machine".to_string(),
            });
        }
        for (m, spec) in machines.iter().enumerate() {
            spec.validate().map_err(|e| FleetError::BadFleet {
                reason: format!("machine {m}: {e}"),
            })?;
        }
        if vms.is_empty() {
            return Err(FleetError::BadFleet {
                reason: "a fleet needs at least one VM".to_string(),
            });
        }
        for (i, vm) in vms.iter().enumerate() {
            if vm.queries.is_empty() {
                return Err(FleetError::BadFleet {
                    reason: format!("VM {} ({}) has no queries", i, vm.name),
                });
            }
            if !(vm.weight.is_finite() && vm.weight > 0.0) {
                return Err(FleetError::BadFleet {
                    reason: format!(
                        "VM {} ({}) weight {} must be positive and finite",
                        i, vm.name, vm.weight
                    ),
                });
            }
        }
        Ok(FleetProblem {
            machines,
            vms,
            current: None,
        })
    }

    /// Attaches the currently deployed placement (validated against this
    /// problem's shape; unit bounds are checked by the advisor against its
    /// own discretization).
    pub fn with_current(
        mut self,
        current: CurrentPlacement,
    ) -> Result<FleetProblem<'a>, FleetError> {
        if current.machine_of.len() != self.vms.len() || current.units_of.len() != self.vms.len() {
            return Err(FleetError::BadFleet {
                reason: format!(
                    "current placement covers {} machines / {} unit rows, fleet has {} VMs",
                    current.machine_of.len(),
                    current.units_of.len(),
                    self.vms.len()
                ),
            });
        }
        if let Some(&bad) = current
            .machine_of
            .iter()
            .find(|&&m| m >= self.machines.len())
        {
            return Err(FleetError::BadFleet {
                reason: format!(
                    "current placement references machine {bad}, fleet has {}",
                    self.machines.len()
                ),
            });
        }
        self.current = Some(current);
        Ok(self)
    }

    /// Number of VMs (`N`).
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// Number of machines (`M`).
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }
}

/// Machine *classes*: machines with bitwise-equal specs share a cost model
/// and a warm-cache partition (cell costs depend only on the spec, never on
/// the machine's index).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineClasses {
    /// `class_of[m]` is the class index of machine `m`.
    pub class_of: Vec<usize>,
    /// One representative spec per class, in first-appearance order.
    pub specs: Vec<MachineSpec>,
}

impl MachineClasses {
    /// Groups `machines` into classes by exact spec equality.
    pub fn of(machines: &[MachineSpec]) -> MachineClasses {
        let mut class_of = Vec::with_capacity(machines.len());
        let mut specs: Vec<MachineSpec> = Vec::new();
        for m in machines {
            let class = match specs.iter().position(|s| s == m) {
                Some(c) => c,
                None => {
                    specs.push(*m);
                    specs.len() - 1
                }
            };
            class_of.push(class);
        }
        MachineClasses { class_of, specs }
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.specs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    pub(crate) fn tiny_db() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
            .unwrap();
        db.analyze_all().unwrap();
        db
    }

    #[test]
    fn rejects_malformed_fleets() {
        let db = tiny_db();
        let t = db.table_id("t").unwrap();
        let vm = |name: &str| FleetVm::new(name, &db, vec![LogicalPlan::scan(t)]);

        assert!(FleetProblem::new(vec![], vec![vm("a")]).is_err());
        assert!(FleetProblem::new(vec![MachineSpec::tiny()], vec![]).is_err());
        // Empty workload.
        assert!(FleetProblem::new(
            vec![MachineSpec::tiny()],
            vec![FleetVm::new("a", &db, vec![])]
        )
        .is_err());
        // Hostile weight.
        assert!(FleetProblem::new(
            vec![MachineSpec::tiny()],
            vec![vm("a").with_weight(f64::NAN)]
        )
        .is_err());
        // Hostile machine spec surfaces as a typed error, never a panic.
        let mut bad = MachineSpec::tiny();
        bad.cycles_per_sec = f64::INFINITY;
        let err = FleetProblem::new(vec![MachineSpec::tiny(), bad], vec![vm("a")]).unwrap_err();
        assert!(matches!(err, FleetError::BadFleet { .. }), "{err}");
        assert!(err.to_string().contains("machine 1"));
    }

    #[test]
    fn current_placement_is_shape_checked() {
        let db = tiny_db();
        let t = db.table_id("t").unwrap();
        let vms = vec![
            FleetVm::new("a", &db, vec![LogicalPlan::scan(t)]),
            FleetVm::new("b", &db, vec![LogicalPlan::scan(t)]),
        ];
        let machines = vec![MachineSpec::tiny(), MachineSpec::tiny()];
        let problem = FleetProblem::new(machines, vms).unwrap();
        let err = problem
            .with_current(CurrentPlacement {
                machine_of: vec![0, 7],
                units_of: vec![(4, 4), (4, 4)],
            })
            .unwrap_err();
        assert!(err.to_string().contains("machine 7"));
    }

    #[test]
    fn classes_group_equal_specs() {
        let a = MachineSpec::tiny();
        let b = MachineSpec::paper_testbed();
        let classes = MachineClasses::of(&[a, b, a, b, b]);
        assert_eq!(classes.class_of, vec![0, 1, 0, 1, 1]);
        assert_eq!(classes.num_classes(), 2);
        assert_eq!(classes.specs, vec![a, b]);
    }
}
