//! The virtualization design problem statement.

use crate::CoreError;
use dbvirt_engine::Database;
use dbvirt_optimizer::{CheckedParams, LogicalPlan, OptError, PreparedQuery};
use dbvirt_vmm::MachineSpec;
use std::sync::OnceLock;

/// One workload: a name, the database it runs against, and its query
/// sequence (the paper's `Wᵢ`, "a sequence of SQL statements against a
/// separate database"). The fleet tier places the same thing and calls it
/// a `FleetVm`; there the name is the VM's identity.
#[derive(Debug, Clone)]
pub struct WorkloadSpec<'a> {
    /// Display name.
    pub name: String,
    /// The database the workload queries (what-if planning needs its
    /// catalog and statistics only).
    pub db: &'a Database,
    /// The workload's queries. Fixed once the spec has been analysed: the
    /// analysis [`WorkloadSpec::analysed`] caches is of the queries as they
    /// were then. To price other queries, build another spec.
    pub queries: Vec<LogicalPlan>,
    /// Service-level weight in the design objective (the paper's Section 7
    /// "different service-level objectives" extension): the search
    /// minimizes `Σᵢ weightᵢ · Cost(Wᵢ, Rᵢ)`. Default 1.0.
    pub weight: f64,
    /// The queries analysed against `db`, in order, filled by the first
    /// [`WorkloadSpec::analysed`]. A pure function of `(db, queries)`, so
    /// whichever thread fills it stores the same thing.
    prepared: OnceLock<Result<Vec<PreparedQuery>, OptError>>,
}

impl<'a> WorkloadSpec<'a> {
    /// Creates a workload spec with the default weight of 1.
    pub fn new(
        name: impl Into<String>,
        db: &'a Database,
        queries: Vec<LogicalPlan>,
    ) -> WorkloadSpec<'a> {
        WorkloadSpec {
            name: name.into(),
            db,
            queries,
            weight: 1.0,
            prepared: OnceLock::new(),
        }
    }

    /// Sets the service-level weight; [`DesignProblem::new`] rejects one
    /// that is not positive and finite.
    pub fn with_weight(mut self, weight: f64) -> WorkloadSpec<'a> {
        self.weight = weight;
        self
    }

    /// Every query analysed against `db` with no hypothetical index, in
    /// order: analysed on the first call, lent on every later one. The
    /// search prices these under many `P(R)`, and the design advisor offers
    /// them its index configurations — one analysis per query per problem.
    pub fn analysed(&self) -> Result<&[PreparedQuery], OptError> {
        let prepared = self.prepared.get_or_init(|| {
            (self.queries.iter())
                .map(|q| PreparedQuery::analyse(self.db, q, &[]))
                .collect()
        });
        prepared.as_deref().map_err(Clone::clone)
    }

    /// The what-if estimate of this workload under `params`: the per-query
    /// estimates of [`WorkloadSpec::analysed`], summed in query order — bit
    /// for bit the sum of `plan_query(db, q, params)?.est_seconds()`.
    pub fn estimate_seconds(&self, params: &CheckedParams) -> Result<f64, OptError> {
        Ok(self.analysed()?.iter().map(|q| q.est_seconds(params)).sum())
    }
}

/// The design problem: `N` workloads to consolidate onto one machine.
#[derive(Debug)]
pub struct DesignProblem<'a> {
    /// The physical machine.
    pub machine: MachineSpec,
    /// The workloads, one virtual machine each.
    pub workloads: Vec<WorkloadSpec<'a>>,
}

impl<'a> DesignProblem<'a> {
    /// Creates and validates a problem.
    pub fn new(
        machine: MachineSpec,
        workloads: Vec<WorkloadSpec<'a>>,
    ) -> Result<DesignProblem<'a>, CoreError> {
        machine.validate()?;
        if workloads.is_empty() {
            return Err(CoreError::BadProblem {
                reason: "a design problem needs at least one workload".to_string(),
            });
        }
        if workloads.iter().any(|w| w.queries.is_empty()) {
            return Err(CoreError::BadProblem {
                reason: "every workload needs at least one query".to_string(),
            });
        }
        if let Some(w) = workloads
            .iter()
            .find(|w| !(w.weight.is_finite() && w.weight > 0.0))
        {
            return Err(CoreError::BadProblem {
                reason: format!(
                    "workload {:?} has weight {}; weights must be positive and finite",
                    w.name, w.weight
                ),
            });
        }
        Ok(DesignProblem { machine, workloads })
    }

    /// Number of workloads (`N`).
    pub fn num_workloads(&self) -> usize {
        self.workloads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_optimizer::OptimizerParams;

    #[test]
    fn rejects_empty_problems() {
        let err = DesignProblem::new(MachineSpec::tiny(), vec![]).unwrap_err();
        assert!(matches!(err, CoreError::BadProblem { .. }));

        let db = Database::new();
        let err = DesignProblem::new(
            MachineSpec::tiny(),
            vec![WorkloadSpec::new("w", &db, vec![])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadProblem { .. }));
    }

    /// A table with an index, and a workload that exercises access-path
    /// choice, a conjunction and an aggregate.
    fn priced_fixture() -> (Database, Vec<LogicalPlan>) {
        use dbvirt_engine::{AggExpr, Expr};
        use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
        );
        db.insert_rows(
            t,
            (0..8_000).map(|i| Tuple::new(vec![Datum::Int(i), Datum::Int(i % 40)])),
        )
        .unwrap();
        db.create_index("t_a", t, 0).unwrap();
        db.analyze_all().unwrap();
        let range = Expr::and(
            Expr::ge(Expr::col(0), Expr::int(100)),
            Expr::lt(Expr::col(0), Expr::int(160)),
        );
        let queries = vec![
            LogicalPlan::scan_filtered(t, range.clone()),
            LogicalPlan::scan_filtered(t, Expr::and(range, Expr::eq(Expr::col(1), Expr::int(3)))),
            LogicalPlan::scan(t).aggregate(vec![1], vec![AggExpr::count_star("n")]),
        ];
        (db, queries)
    }

    /// Parameter vectors on both sides of the index/seq-scan flip.
    fn param_vectors() -> Vec<CheckedParams> {
        let d = OptimizerParams::default();
        (0..12)
            .map(|i| {
                CheckedParams::new(OptimizerParams {
                    effective_cache_size_pages: 10f64.powi(i % 4 * 2),
                    random_page_cost: [1.0, 4.0, 40.0][i as usize % 3],
                    cpu_tuple_cost: d.cpu_tuple_cost * (1.0 + i as f64 / 7.0),
                    ..d
                })
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn a_spec_priced_from_eight_threads_gives_the_serial_bits() {
        use dbvirt_optimizer::plan_query;
        use std::sync::Barrier;
        let (db, queries) = priced_fixture();
        let vectors = param_vectors();
        // Each query planned afresh under each vector, summed in order.
        let reference: Vec<u64> = vectors
            .iter()
            .map(|p| {
                (queries.iter())
                    .map(|q| plan_query(&db, q, p).unwrap().est_seconds())
                    .sum::<f64>()
                    .to_bits()
            })
            .collect();
        let price_all = |spec: &WorkloadSpec<'_>| -> Vec<u64> {
            vectors
                .iter()
                .map(|p| spec.estimate_seconds(p).unwrap().to_bits())
                .collect()
        };

        // Serial, on a fresh spec and again on the now-analysed one.
        let serial = WorkloadSpec::new("w", &db, queries.clone());
        assert_eq!(price_all(&serial), reference);
        assert_eq!(price_all(&serial), reference);

        // Eight threads released together onto one never-priced spec: they
        // race to analyse it, and each walks the vectors from its own start.
        let shared = WorkloadSpec::new("w", &db, queries.clone());
        let gate = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (shared, gate, vectors, reference) = (&shared, &gate, &vectors, &reference);
                scope.spawn(move || {
                    gate.wait();
                    for k in 0..vectors.len() {
                        let at = (k + t) % vectors.len();
                        let got = shared.estimate_seconds(&vectors[at]).unwrap().to_bits();
                        assert_eq!(got, reference[at], "thread {t}, vector {at}");
                    }
                });
            }
        });

        // A clone taken before the first pricing and one taken after.
        let cold = WorkloadSpec::new("w", &db, queries);
        let cloned_cold = cold.clone();
        assert_eq!(price_all(&cloned_cold), reference);
        assert_eq!(price_all(&cold), reference);
        assert_eq!(price_all(&cold.clone()), reference);
    }

    #[test]
    fn pricing_errors_are_typed_and_repeat() {
        use dbvirt_storage::{DataType, Field, Schema};
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        let spec = WorkloadSpec::new("w", &db, vec![LogicalPlan::scan(t)]);
        let p = CheckedParams::new(OptimizerParams::default()).unwrap();
        for _ in 0..2 {
            let err = spec.estimate_seconds(&p).unwrap_err();
            assert!(matches!(err, OptError::MissingStats { .. }), "{err:?}");
            let err = spec.analysed().unwrap_err();
            assert!(matches!(err, OptError::MissingStats { .. }), "{err:?}");
        }
    }

    #[test]
    fn rejects_bad_weights_without_panicking() {
        let db = Database::new();
        let q = LogicalPlan::scan(dbvirt_engine::TableId(0));
        for weight in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let w = WorkloadSpec::new("w", &db, vec![q.clone()]).with_weight(weight);
            let err = DesignProblem::new(MachineSpec::tiny(), vec![w]).unwrap_err();
            assert!(
                matches!(&err, CoreError::BadProblem { reason } if reason.contains("weight")),
                "weight {weight}: {err:?}"
            );
        }
        let ok = WorkloadSpec::new("w", &db, vec![q]).with_weight(2.5);
        assert!(DesignProblem::new(MachineSpec::tiny(), vec![ok]).is_ok());
    }
}
