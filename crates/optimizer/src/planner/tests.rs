//! Planner behaviour tests: access-path choice, join ordering, execution of
//! the plans it materialises.

use super::analyse::{JoinEdge, JoinOrder, JoinTree, Node, Scan, MAX_DP_RELATIONS};
use super::price::{Choice, JoinStep, Priced, StepKind};
use super::*;
use crate::{cost, JoinCondition};
use dbvirt_engine::{AggExpr, AggFunc, Expr, JoinType};
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Two tables: fact(k, v, grp) with 20k rows and an index on k;
/// dim(k, label) with 100 rows.
fn fixture() -> (Database, TableId, TableId) {
    let mut db = Database::new();
    let fact = db.create_table(
        "fact",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("grp", DataType::Str),
        ]),
    );
    db.insert_rows(
        fact,
        (0..20_000).map(|i| {
            Tuple::new(vec![
                Datum::Int(i % 100),
                Datum::Int(i),
                Datum::str(format!("g{}", i % 5)),
            ])
        }),
    )
    .unwrap();
    let dim = db.create_table(
        "dim",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("label", DataType::Str),
        ]),
    );
    db.insert_rows(
        dim,
        (0..100).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(format!("l{i}"))])),
    )
    .unwrap();
    db.create_index("fact_v", fact, 1).unwrap();
    db.analyze_all().unwrap();
    (db, fact, dim)
}

#[test]
fn missing_stats_is_an_error() {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    let err = plan_query(&db, &LogicalPlan::scan(t), &OptimizerParams::default()).unwrap_err();
    assert!(matches!(err, OptError::MissingStats { .. }));
}

#[test]
fn selective_predicate_chooses_index_scan() {
    let (db, fact, _) = fixture();
    let p = OptimizerParams::default();
    // v = 7: one row in 20k — index, please.
    let selective = LogicalPlan::scan_filtered(fact, Expr::eq(Expr::col(1), Expr::int(7)));
    let planned = plan_query(&db, &selective, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexScan");
    assert!(planned.est_rows < 10.0);
    // v >= 0: everything — sequential scan.
    let unselective = LogicalPlan::scan_filtered(fact, Expr::ge(Expr::col(1), Expr::int(0)));
    let planned = plan_query(&db, &unselective, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "SeqScan");
}

#[test]
fn what_if_parameters_can_flip_the_access_path() {
    let (db, fact, _) = fixture();
    // A mid-selectivity range where the cache discount decides.
    let q = LogicalPlan::scan_filtered(
        fact,
        Expr::and(
            Expr::ge(Expr::col(1), Expr::int(0)),
            Expr::lt(Expr::col(1), Expr::int(50)),
        ),
    );
    let rich_cache = OptimizerParams {
        effective_cache_size_pages: 1e6,
        ..OptimizerParams::default()
    };
    let poor_cache = OptimizerParams {
        effective_cache_size_pages: 1.0,
        random_page_cost: 40.0,
        ..OptimizerParams::default()
    };
    let rich = plan_query(&db, &q, &rich_cache).unwrap();
    let poor = plan_query(&db, &q, &poor_cache).unwrap();
    assert_eq!(rich.physical.node_name(), "IndexScan");
    assert_eq!(poor.physical.node_name(), "SeqScan");
}

#[test]
fn hypothetical_index_prices_like_a_real_one() {
    let (db, fact, _) = fixture();
    // Cheap random I/O + big cache: the 1%-selective point lookup
    // should prefer an index when one is available.
    let p = OptimizerParams {
        effective_cache_size_pages: 1e6,
        random_page_cost: 1.0,
        ..OptimizerParams::default()
    };
    // k = 7 (200 rows in 20k): no real index on k, so a scan...
    let q = LogicalPlan::scan_filtered(fact, Expr::eq(Expr::col(0), Expr::int(7)));
    let without = plan_query(&db, &q, &p).unwrap();
    assert_eq!(without.physical.node_name(), "SeqScan");
    assert!(!without.uses_hypothetical);
    // ...but a hypothetical index on k flips the access path.
    let hypo = vec![HypoIndex {
        table: fact,
        columns: vec![0],
    }];
    let with = plan_query_with_indexes(&db, &q, &p, &hypo).unwrap();
    assert_eq!(with.physical.node_name(), "IndexScan");
    assert!(with.uses_hypothetical);
    assert!(with.est_cost_units < without.est_cost_units);
    // Its priced geometry must match what a real build produces.
    let mut db2 = db;
    let real = db2.create_index("fact_k", fact, 0).unwrap();
    let with_real = plan_query(&db2, &q, &p).unwrap();
    assert_eq!(with_real.physical.node_name(), "IndexScan");
    assert!(!with_real.uses_hypothetical);
    let tree = db2.index_tree(real);
    let (h, pg) = dbvirt_storage::BPlusTree::bulk_geometry(tree.len());
    assert_eq!((h, pg), (tree.height(), tree.num_pages()));
    assert!(
        (with.est_cost_units - with_real.est_cost_units).abs() < 1e-9,
        "hypothetical pricing {} != real pricing {}",
        with.est_cost_units,
        with_real.est_cost_units
    );
}

#[test]
fn composite_hypothetical_beats_single_on_two_column_predicate() {
    let (db, fact, _) = fixture();
    let p = OptimizerParams::default();
    // k = 7 AND v < 1000: composite (k, v) prefix range is far more
    // selective at the index than k alone.
    let q = LogicalPlan::scan_filtered(
        fact,
        Expr::and(
            Expr::eq(Expr::col(0), Expr::int(7)),
            Expr::lt(Expr::col(1), Expr::int(1000)),
        ),
    );
    let single = plan_query_with_indexes(
        &db,
        &q,
        &p,
        &[HypoIndex {
            table: fact,
            columns: vec![0],
        }],
    )
    .unwrap();
    let composite = plan_query_with_indexes(
        &db,
        &q,
        &p,
        &[HypoIndex {
            table: fact,
            columns: vec![0, 1],
        }],
    )
    .unwrap();
    assert_eq!(composite.physical.node_name(), "IndexScan");
    assert!(composite.uses_hypothetical);
    assert!(
        composite.est_cost_units < single.est_cost_units,
        "composite {} vs single {}",
        composite.est_cost_units,
        single.est_cost_units
    );
}

#[test]
fn composite_index_scan_executes_and_matches_seq_scan() {
    let (mut db, fact, _) = fixture();
    let idx = db.create_index_multi("fact_k_v", fact, &[0, 1]).unwrap();
    db.analyze_all().unwrap();
    let p = OptimizerParams::default();
    let filter = Expr::and(
        Expr::eq(Expr::col(0), Expr::int(7)),
        Expr::lt(Expr::col(1), Expr::int(1000)),
    );
    let q = LogicalPlan::scan_filtered(fact, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    match &planned.physical {
        PhysicalPlan::IndexScan { index, .. } => assert_eq!(*index, idx),
        other => panic!("expected composite IndexScan, got {}", other.node_name()),
    }
    let run = |db: &Database, plan: &PhysicalPlan| {
        let mut pool = dbvirt_storage::BufferPool::new(256);
        dbvirt_engine::run_plan(
            db,
            &mut pool,
            plan,
            1 << 20,
            dbvirt_engine::CpuCosts::default(),
        )
        .unwrap()
        .rows
    };
    let via_index = run(&db, &planned.physical);
    let via_scan = run(
        &db,
        &PhysicalPlan::SeqScan {
            table: fact,
            filter: Some(filter),
        },
    );
    // k=7, v<1000 -> v in {7, 107, ..., 907}: 10 rows.
    assert_eq!(via_index.len(), 10);
    let sorted = |mut rows: Vec<Tuple>| {
        rows.sort_by_key(|t| t.get(1).as_int());
        rows
    };
    assert_eq!(sorted(via_index), sorted(via_scan));
}

#[test]
fn like_prefix_is_sargable_on_string_index() {
    let mut db = Database::new();
    let t = db.create_table("s", Schema::new(vec![Field::new("name", DataType::Str)]));
    db.insert_rows(
        t,
        (0..10_000).map(|i| Tuple::new(vec![Datum::str(format!("n{:04}", i % 1000))])),
    )
    .unwrap();
    db.create_index("s_name", t, 0).unwrap();
    db.analyze_all().unwrap();
    let p = OptimizerParams {
        effective_cache_size_pages: 1e6,
        random_page_cost: 1.0,
        ..OptimizerParams::default()
    };
    // "n000%" matches n0000..n0009: 1% of rows.
    let filter = Expr::like(Expr::col(0), "n000%");
    let q = LogicalPlan::scan_filtered(t, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexScan");
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 100, "10 names x 10 repeats");
    assert!(out.rows.iter().all(|t| match t.get(0) {
        Datum::Str(s) => s.starts_with("n000"),
        _ => false,
    }));
}

#[test]
fn index_and_path_chosen_for_two_selective_arms() {
    let (mut db, fact, _) = fixture();
    db.create_index("fact_k", fact, 0).unwrap();
    db.analyze_all().unwrap();
    // Pay dearly for page I/O of any kind: each single-index arm still
    // fetches ~200 heap tuples, while the intersection fetches 2 —
    // narrowing before the heap wins.
    let p = OptimizerParams {
        effective_cache_size_pages: 1.0,
        random_page_cost: 400.0,
        seq_page_cost: 400.0,
        ..OptimizerParams::default()
    };
    let filter = Expr::and(
        Expr::eq(Expr::col(0), Expr::int(7)),
        Expr::lt(Expr::col(1), Expr::int(200)),
    );
    let q = LogicalPlan::scan_filtered(fact, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexAnd");
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    // k=7 and v<200 -> v in {7, 107}: 2 rows.
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn index_or_path_covers_disjunction() {
    let (mut db, fact, _) = fixture();
    db.analyze_all().unwrap();
    // Expensive pages: two point probes beat one full scan.
    let p = OptimizerParams {
        effective_cache_size_pages: 1.0,
        random_page_cost: 400.0,
        seq_page_cost: 400.0,
        ..OptimizerParams::default()
    };
    let filter = Expr::or(
        Expr::eq(Expr::col(1), Expr::int(7)),
        Expr::eq(Expr::col(1), Expr::int(9901)),
    );
    let q = LogicalPlan::scan_filtered(fact, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexOr");
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    // v=7 plus v=9901: 2 distinct rows.
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn join_plans_build_on_smaller_side() {
    let (db, fact, dim) = fixture();
    let q = LogicalPlan::scan(fact).join(
        LogicalPlan::scan(dim),
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }],
    );
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    // The join output order must match the logical order, and the build
    // (right) side should be the small dimension table.
    match &planned.physical {
        PhysicalPlan::HashJoin { right, .. } => {
            assert_eq!(right.node_name(), "SeqScan");
            match right.as_ref() {
                PhysicalPlan::SeqScan { table, .. } => assert_eq!(*table, dim),
                _ => unreachable!(),
            }
        }
        PhysicalPlan::Project { input, .. } => {
            assert_eq!(input.node_name(), "HashJoin");
        }
        other => panic!("expected a hash join, got {}", other.node_name()),
    }
    // FK join cardinality ~ fact size.
    assert!((planned.est_rows - 20_000.0).abs() / 20_000.0 < 0.2);
}

#[test]
fn three_way_join_dp_produces_executable_plan() {
    let (db, fact, dim) = fixture();
    // fact JOIN dim ON k JOIN dim2 ON k (reuse dim as a third relation
    // via a second scan).
    let q = LogicalPlan::scan(fact)
        .join(
            LogicalPlan::scan(dim),
            vec![JoinCondition {
                left_col: 0,
                right_col: 0,
            }],
        )
        .join(
            LogicalPlan::scan(dim),
            vec![JoinCondition {
                left_col: 3, // dim.k from the first join's output
                right_col: 0,
            }],
        );
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    assert!(planned.est_cost_units > 0.0);
    // Execute it and verify output arity = 3 + 2 + 2.
    let db = db;
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    assert_eq!(out.schema.len(), 7);
    assert_eq!(out.rows.len(), 20_000);
    // Column order restored: column 0 is fact.k, column 3 is dim.k.
    for row in out.rows.iter().take(50) {
        assert_eq!(row.get(0), row.get(3));
        assert_eq!(row.get(0), row.get(5));
    }
}

#[test]
fn aggregate_estimates_groups() {
    let (db, fact, _) = fixture();
    let q = LogicalPlan::scan(fact)
        .aggregate(vec![2], vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")]);
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    assert!((planned.est_rows - 5.0).abs() < 1.0, "5 groups expected");
}

#[test]
fn semi_join_keeps_left_schema() {
    let (db, fact, dim) = fixture();
    let q = LogicalPlan::scan(fact).join_as(
        LogicalPlan::scan(dim),
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }],
        JoinType::Semi,
    );
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    let db = db;
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    assert_eq!(out.schema.len(), 3);
    assert_eq!(out.rows.len(), 20_000, "all fact keys appear in dim");
}

#[test]
fn estimated_seconds_scale_with_unit() {
    let (db, fact, _) = fixture();
    let q = LogicalPlan::scan(fact);
    let mut p1 = OptimizerParams::default();
    let planned = plan_query(&db, &q, &p1).unwrap();
    let s1 = planned.est_seconds(&p1);
    p1.unit_seconds *= 2.0;
    assert!((planned.est_seconds(&p1) - 2.0 * s1).abs() < 1e-12);
}

/// The paper's what-if mode in miniature: growing the CPU cost terms of `P`
/// raises a CPU-bound query's estimate more than an I/O-bound one's.
#[test]
fn cpu_heavier_params_raise_cpu_bound_estimates_more() {
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
        (0..10_000).map(|i| Tuple::new(vec![Datum::Int(i), Datum::Int(i * 2)])),
    )
    .unwrap();
    db.analyze_all().unwrap();
    // CPU-bound: heavy predicate over every row.
    let heavy_pred = Expr::and_all(
        (0..8)
            .map(|i| Expr::ge(Expr::add(Expr::col(0), Expr::int(i)), Expr::int(0)))
            .collect(),
    );
    let cpu_q = LogicalPlan::scan_filtered(t, heavy_pred);
    // I/O-bound: bare scan.
    let io_q = LogicalPlan::scan(t);
    // A small cache so the bare scan really pays page I/O.
    let base = OptimizerParams {
        effective_cache_size_pages: 1.0,
        ..OptimizerParams::default()
    };
    let mut slow_cpu = base;
    slow_cpu.cpu_tuple_cost *= 3.0;
    slow_cpu.cpu_operator_cost *= 3.0;
    let est = |q: &LogicalPlan, p: &OptimizerParams| plan_query(&db, q, p).unwrap().est_seconds(p);

    let cpu_ratio = est(&cpu_q, &slow_cpu) / est(&cpu_q, &base);
    let io_ratio = est(&io_q, &slow_cpu) / est(&io_q, &base);
    assert!(
        cpu_ratio > io_ratio,
        "CPU-bound queries must be more sensitive to CPU-cost growth \
         ({cpu_ratio:.3} vs {io_ratio:.3})"
    );
}

// The join DP walks the splits analysis enumerated; these tests hold it to
// the DP that enumerated every split of every subset on each call.

/// The enumerating Selinger DP: a dense table of relation subsets, every
/// proper split of each tried per call. `None` when the join graph is
/// disconnected (the steps it pushed are then orphans).
fn reference_dynamic_program(
    tree: &JoinTree,
    p: &OptimizerParams,
    steps: &mut Vec<JoinStep>,
) -> Option<usize> {
    const ABSENT: usize = usize::MAX;
    let n = tree.relations.len();
    let full: usize = (1 << n) - 1;
    let mut table = vec![ABSENT; full + 1];
    for i in 0..n {
        table[1 << i] = i;
    }
    for subset in 1..=full {
        if subset.count_ones() < 2 {
            continue;
        }
        let mut best: Option<JoinStep> = None;
        let mut sub = (subset - 1) & subset;
        while sub > 0 {
            let other = subset & !sub;
            let (a, b) = (table[sub], table[other]);
            if a != ABSENT && b != ABSENT {
                let (probe, build, probe_set, build_set) =
                    if steps[a].priced.rows >= steps[b].priced.rows {
                        (a, b, sub, other)
                    } else {
                        (b, a, other, sub)
                    };
                let candidate = tree.hash_step(
                    p,
                    steps,
                    (probe, build),
                    |rel| probe_set >> rel & 1 == 1,
                    |rel| build_set >> rel & 1 == 1,
                );
                if let Some(candidate) = candidate {
                    if best.is_none_or(|cur| candidate.priced.cost < cur.priced.cost) {
                        best = Some(candidate);
                    }
                }
            }
            sub = (sub - 1) & subset;
        }
        if let Some(step) = best {
            table[subset] = steps.len();
            steps.push(step);
        }
    }
    (table[full] != ABSENT).then_some(table[full])
}

/// What pricing an inner-join tree must come to: the enumerating DP, and
/// greedy from the bare relations when the graph is disconnected or too
/// wide. Returns the tree's estimate, its steps and its root.
fn reference_price(tree: &JoinTree, p: &OptimizerParams) -> (Priced, Vec<JoinStep>, usize) {
    let n = tree.relations.len();
    let mut steps: Vec<JoinStep> = (tree.relations.iter().enumerate())
        .map(|(i, relation)| JoinStep {
            priced: relation.price(p, None),
            kind: StepKind::Relation(i),
        })
        .collect();
    let dp = (n <= MAX_DP_RELATIONS)
        .then(|| reference_dynamic_program(tree, p, &mut steps))
        .flatten();
    let root = dp.unwrap_or_else(|| {
        steps.truncate(n);
        tree.greedy(p, &mut steps)
    });
    let joined = steps[root].priced;
    let priced = if tree.keeps_logical_order(&steps, root) {
        joined
    } else {
        Priced {
            cost: joined.cost + cost::project_cost(p, joined.rows, 0.0),
            ..joined
        }
    };
    (priced, steps, root)
}

/// An inner-join node priced by the planner: its estimate, and the steps
/// and root it recorded.
fn planner_price(node: &Node, p: &OptimizerParams) -> (Priced, Vec<JoinStep>, usize) {
    let mut choices = Vec::new();
    let priced = node.price(p, Some(&mut choices));
    match choices.pop() {
        Some(Choice::JoinOrder { steps, root, .. }) => (priced, steps, root),
        other => panic!("an inner-join tree records its join order last, not {other:?}"),
    }
}

fn bits(p: Priced) -> [u64; 3] {
    [p.rows.to_bits(), p.cost.to_bits(), p.width.to_bits()]
}

fn assert_prices_like_reference(
    node: &Node,
    p: &OptimizerParams,
) -> (Priced, Vec<JoinStep>, usize) {
    let Node::InnerJoins(tree) = node else {
        panic!("not an inner-join tree");
    };
    let (want, want_steps, want_root) = reference_price(tree, p);
    let (got, got_steps, got_root) = planner_price(node, p);
    assert_eq!(bits(got), bits(want), "tree estimate under {p:?}");
    assert_eq!(got_root, want_root);
    assert_eq!(got_steps.len(), want_steps.len());
    for (i, (g, w)) in got_steps.iter().zip(&want_steps).enumerate() {
        assert_eq!(g.kind, w.kind, "step {i}");
        assert_eq!(bits(g.priced), bits(w.priced), "step {i}");
    }
    (got, got_steps, got_root)
}

/// The steps reachable from `root`.
fn reachable(steps: &[JoinStep], root: usize) -> usize {
    match steps[root].kind {
        StepKind::Relation(_) => 1,
        StepKind::Hash { left, right } | StepKind::Cross { left, right } => {
            1 + reachable(steps, left) + reachable(steps, right)
        }
    }
}

#[test]
fn a_disconnected_join_graph_goes_straight_to_greedy() {
    let (db, fact, dim) = fixture();
    let on_k = || {
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }]
    };
    // (fact ⋈ dim) × (dim ⋈ dim): two components, no edge between them.
    let plan = LogicalPlan::scan(fact)
        .join(LogicalPlan::scan(dim), on_k())
        .join(
            LogicalPlan::scan(dim).join(LogicalPlan::scan(dim), on_k()),
            vec![],
        );
    let p = OptimizerParams::default();
    let planned = plan_query(&db, &plan, &p).unwrap();
    let debug_hash = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", planned.physical).hash(&mut h);
        h.finish()
    };
    // Captured from the planner that ran the subset DP first.
    assert_eq!(planned.est_cost_units.to_bits(), 0x40e3_d6d0_0000_0000);
    assert_eq!(planned.est_rows.to_bits(), 0x413e_8480_0000_0000);
    assert_eq!(debug_hash, 0xd0ce_a23a_5727_1f0e);

    let prepared = PreparedQuery::analyse(&db, &plan, &[]).unwrap();
    assert!(matches!(&prepared.root, Node::InnerJoins(t) if matches!(t.order, JoinOrder::Greedy)));
    assert_eq!(prepared.join_splits(), JoinSplits::default());
    // Four relations and three joins: no step the plan does not use.
    let (_, steps, root) = assert_prices_like_reference(&prepared.root, &p);
    assert_eq!((steps.len(), root), (7, 6));
    assert_eq!(reachable(&steps, root), steps.len());
}

/// Coverage of the random cases: disconnected graphs, a DP candidate whose
/// halves tie on rows, a join whose build side spills.
static COVERAGE: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

const ROWS: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];
const WIDTHS: [f64; 3] = [8.0, 64.0, 512.0];
const NDVS: [Option<f64>; 5] = [None, Some(1.0), Some(10.0), Some(100.0), Some(1000.0)];

/// A join tree over `n` scans, its relations drawn from `relations`
/// (`(rows, width, columns)` classes) and its edges from `edges`
/// (`(left, right, left NDV, right NDV)` classes, relations mod `n`), plus
/// a chain `0 - 1 - … - n-1` first when `chain`.
fn random_tree(
    n: usize,
    relations: &[(usize, usize, usize)],
    edges: &[(usize, usize, usize, usize)],
    chain: bool,
) -> JoinTree {
    let mut offsets = vec![0];
    let relations: Vec<Node> = relations[..n]
        .iter()
        .map(|&(rows, width, columns)| {
            offsets.push(offsets[offsets.len() - 1] + columns);
            let (rows, width) = (ROWS[rows], WIDTHS[width]);
            Node::Scan(Scan {
                table: TableId(0),
                pages: (rows * width / 8192.0).ceil(),
                rows,
                width,
                out_rows: rows,
                filter_ops: 0.0,
                working_set_pages: 100.0,
                paths: Vec::new(),
            })
        })
        .collect();
    let backbone = (1..n).filter(|_| chain).map(|i| (i - 1, i, 0, 0));
    let edges: Vec<JoinEdge> = backbone
        .chain(edges.iter().copied())
        .map(|(l, r, lndv, rndv)| JoinEdge {
            left_rel: l % n,
            right_rel: r % n,
            left_ndv: NDVS[lndv],
            right_ndv: NDVS[rndv],
            left_col: offsets[l % n],
            right_col: offsets[r % n],
        })
        .collect();
    JoinTree {
        order: JoinOrder::of(n, &edges),
        relations,
        offsets,
        edges,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    fn random_trees_price_like_the_enumerating_dp(
        n in 2usize..10,
        relations in prop::collection::vec((0usize..4, 0usize..3, 0usize..3), 9..10),
        edges in prop::collection::vec((0usize..9, 0usize..9, 0usize..5, 0usize..5), 0..16),
        chain in prop::bool::ANY,
        (work_mem_log2, tuple, operator, page, cache) in
            (6.0f64..20.0, 0.001f64..0.1, 0.0005f64..0.01, 0.5f64..2.0, 1.0f64..1e5),
    ) {
        let tree = random_tree(n, &relations, &edges, chain);
        let work_mem = work_mem_log2.exp2();
        let p = OptimizerParams {
            work_mem_bytes: work_mem,
            cpu_tuple_cost: tuple,
            cpu_operator_cost: operator,
            seq_page_cost: page,
            effective_cache_size_pages: cache,
            ..OptimizerParams::default()
        };
        let p = CheckedParams::new(p).unwrap();
        // One step per relation and per connected subset, or per greedy merge.
        let (disconnected, want_steps) = match &tree.order {
            JoinOrder::Dp(table) => (false, n + table.subsets.len()),
            JoinOrder::Greedy => (true, 2 * n - 1),
        };
        let node = Node::InnerJoins(tree);
        let (_, steps, _) = assert_prices_like_reference(&node, &p);
        prop_assert_eq!(steps.len(), want_steps);
        let joins = steps.iter().filter_map(|s| match s.kind {
            StepKind::Hash { left, right } => Some((steps[left].priced, steps[right].priced)),
            _ => None,
        });
        let (mut tied, mut spilled) = (false, false);
        for (l, r) in joins {
            tied |= l.rows == r.rows;
            spilled |= r.rows * r.width > work_mem;
        }
        for (counter, hit) in COVERAGE.iter().zip([disconnected, tied, spilled]) {
            counter.fetch_add(usize::from(hit), Ordering::Relaxed);
        }
    }
}

#[test]
fn the_join_dp_over_analysed_splits_matches_the_enumerating_dp() {
    random_trees_price_like_the_enumerating_dp();
    let [disconnected, tied, spilled] = COVERAGE.each_ref().map(|c| c.load(Ordering::Relaxed));
    println!("64 cases: {disconnected} disconnected, {tied} with a tie, {spilled} spilling");
    assert!(
        disconnected >= 8 && 64 - disconnected >= 8 && tied >= 8 && spilled >= 8,
        "64 cases: {disconnected} disconnected, {tied} with a tie, {spilled} spilling"
    );
}

/// `count` scans of `dim` (columns `k`, `label`), relation `i` joined on `k`
/// to each relation `neighbours(i)` names.
fn self_joins(dim: TableId, count: usize, neighbours: impl Fn(usize) -> Vec<usize>) -> LogicalPlan {
    (1..count).fold(LogicalPlan::scan(dim), |plan, i| {
        let on = neighbours(i)
            .into_iter()
            .map(|j| JoinCondition {
                left_col: 2 * j,
                right_col: 0,
            })
            .collect();
        plan.join(LogicalPlan::scan(dim), on)
    })
}

#[test]
fn a_twelve_relation_clique_stays_bounded_and_prices_like_the_enumerating_dp() {
    let (db, _, dim) = fixture();
    let plan = self_joins(dim, MAX_DP_RELATIONS, |i| (0..i).collect());
    let prepared = PreparedQuery::analyse(&db, &plan, &[]).unwrap();
    let splits = prepared.join_splits();
    println!(
        "{MAX_DP_RELATIONS}-relation clique: {splits:?} = {:.1} MiB of split tables",
        splits.bytes as f64 / f64::from(1 << 20)
    );
    // In a clique every subset is connected and every cut crosses an edge.
    assert_eq!(splits.enumerated, 3usize.pow(12) + 1 - (2 << 12));
    assert_eq!(splits.connected, splits.enumerated);
    assert_eq!(splits.subsets, (1 << 12) - 12 - 1);
    assert!(splits.bytes < 32 << 20, "{} bytes", splits.bytes);
    for work_mem_bytes in [(1 << 20) as f64, 4096.0] {
        let p = OptimizerParams {
            work_mem_bytes,
            ..OptimizerParams::default()
        };
        assert_prices_like_reference(&prepared.root, &p);
    }
}

#[test]
fn a_thirteen_relation_chain_takes_greedy_and_enumerates_nothing() {
    let (db, _, dim) = fixture();
    let plan = self_joins(dim, MAX_DP_RELATIONS + 1, |i| vec![i - 1]);
    let prepared = PreparedQuery::analyse(&db, &plan, &[]).unwrap();
    assert!(matches!(&prepared.root, Node::InnerJoins(t) if matches!(t.order, JoinOrder::Greedy)));
    assert_eq!(prepared.join_splits(), JoinSplits::default());
    assert_prices_like_reference(&prepared.root, &OptimizerParams::default());
}
