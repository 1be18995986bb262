//! The three join operators against each other.
//!
//! On random inputs whose key columns hold one kind of value each — with
//! NULLs and heavy duplication — a hash join must return exactly the rows,
//! in exactly the order, of a nested-loop join on the equality predicate,
//! for all four join types; and, over inputs sorted on a single key, of a
//! merge join. (Across kinds they differ by contract: see
//! `PhysicalPlan::HashJoin`.)

use dbvirt_engine::{run_plan, CpuCosts, Database, Expr, JoinType, PhysicalPlan, SortKey, TableId};
use dbvirt_storage::{BufferPool, DataType, Datum, Field, Schema, Tuple};
use proptest::prelude::*;
use proptest::TestRng;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A key value of kind `kind` from a pool of four (so keys repeat), or NULL
/// one time in six. Floats stay clear of NaN and -0.0, the two values whose
/// bits and whose `=` disagree.
fn arb_key(rng: &mut TestRng, kind: u64) -> Datum {
    let pick = below(rng, 6);
    if pick == 5 {
        return Datum::Null;
    }
    match kind {
        0 => Datum::Int([i64::MIN, -1, 0, 7][pick as usize % 4]),
        1 => Datum::Float([0.0, 1.5, -2.25, f64::INFINITY][pick as usize % 4]),
        2 => Datum::str(["", "a", "ab", "日本"][pick as usize % 4]),
        3 => Datum::Date([i32::MIN, 0, 19_000, 19_001][pick as usize % 4]),
        _ => Datum::Bool(pick.is_multiple_of(2)),
    }
}

/// Two inputs of `(k1, k2, id)` rows whose key columns share a kind each.
struct ArbInputs;

impl Strategy for ArbInputs {
    type Value = (Vec<Tuple>, Vec<Tuple>);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let kinds = [below(rng, 5), below(rng, 5)];
        let side = |rng: &mut TestRng| {
            (0..below(rng, 24))
                .map(|id| {
                    Tuple::new(vec![
                        arb_key(rng, kinds[0]),
                        arb_key(rng, kinds[1]),
                        Datum::Int(id as i64),
                    ])
                })
                .collect()
        };
        (side(rng), side(rng))
    }
}

fn load(db: &mut Database, name: &str, rows: &[Tuple]) -> TableId {
    // Column types are not enforced on insert; the keys' kinds vary by case.
    let fields = ["k1", "k2", "id"].map(|c| Field::new(format!("{name}_{c}"), DataType::Int));
    let table = db.create_table(name, Schema::new(fields.to_vec()));
    db.insert_rows(table, rows.iter().cloned()).unwrap();
    table
}

/// Output rows as encoded bytes: equal means equal kinds and bits, in order.
fn run(db: &Database, plan: &PhysicalPlan) -> Vec<Vec<u8>> {
    let mut pool = BufferPool::new(16);
    let out = run_plan(db, &mut pool, plan, 1 << 20, CpuCosts::default()).unwrap();
    out.rows.iter().map(|row| row.encode().to_vec()).collect()
}

const JOIN_TYPES: [JoinType; 4] = [
    JoinType::Inner,
    JoinType::Left,
    JoinType::Semi,
    JoinType::Anti,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_join_is_nested_loop_on_equality_and_merge_on_sorted_input(
        (left, right) in ArbInputs,
    ) {
        let mut db = Database::new();
        let (l, r) = (load(&mut db, "l", &left), load(&mut db, "r", &right));
        let scan = |table| Box::new(PhysicalPlan::SeqScan { table, filter: None });
        // The right side's columns follow the left side's three.
        let equal = |c: usize| Expr::eq(Expr::col(c), Expr::col(3 + c));

        for join_type in JOIN_TYPES {
            for keys in [vec![0], vec![1, 0]] {
                let hashed = PhysicalPlan::HashJoin {
                    left: scan(l),
                    right: scan(r),
                    left_keys: keys.clone(),
                    right_keys: keys.clone(),
                    join_type,
                };
                let looped = PhysicalPlan::NestedLoopJoin {
                    left: scan(l),
                    right: scan(r),
                    predicate: Some(Expr::and_all(keys.iter().map(|&c| equal(c)).collect())),
                    join_type,
                };
                prop_assert_eq!(
                    run(&db, &hashed),
                    run(&db, &looped),
                    "{:?} on {:?}", join_type, keys
                );
            }
        }

        let sorted = |table| Box::new(PhysicalPlan::Sort {
            input: scan(table),
            keys: vec![SortKey::asc(0)],
        });
        let merged = PhysicalPlan::MergeJoin {
            left: sorted(l),
            right: sorted(r),
            left_key: 0,
            right_key: 0,
        };
        let hashed = PhysicalPlan::HashJoin {
            left: sorted(l),
            right: sorted(r),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        };
        prop_assert_eq!(run(&db, &merged), run(&db, &hashed));
    }
}
