//! **Materialise**: the winning [`Choice`]s of one pricing pass → the
//! `PhysicalPlan` that makes them. Runs once per planned query, after the
//! costs are settled, and only for callers that want a plan to execute —
//! the what-if path never gets here.
//!
//! The logical plan is walked in the order pricing recorded its choices in,
//! so only the winners' expressions, key bounds and join keys are built. A
//! plan whose walk does not meet the choices recorded — another plan than
//! the one analysed — materialises to `None`.

use super::access::{self, PathKind, Probe, Residual};
use super::analyse::{join_leaves, table_stats, JoinTree};
use super::price::{Choice, JoinStep, StepKind};
use super::HypoIndex;
use crate::LogicalPlan;
use dbvirt_engine::{Database, Expr, IndexArm, JoinType, PhysicalPlan, SortKey, TableId};

pub(super) struct Materialiser<'a, 'q> {
    pub db: &'a Database,
    pub hypo: &'a [HypoIndex],
    pub choices: std::vec::IntoIter<Choice<'q>>,
}

fn arm(probe: &Probe) -> IndexArm {
    IndexArm {
        index: probe.index,
        lo: probe.lo.clone(),
        hi: probe.hi.clone(),
    }
}

impl Materialiser<'_, '_> {
    fn boxed(&mut self, plan: &LogicalPlan) -> Option<Box<PhysicalPlan>> {
        self.plan(plan).map(Box::new)
    }

    /// The plan for `plan`, consuming the choices its pricing recorded.
    pub(super) fn plan(&mut self, plan: &LogicalPlan) -> Option<PhysicalPlan> {
        Some(match plan {
            LogicalPlan::Scan { table, filter } => self.scan(*table, filter)?,
            LogicalPlan::Join {
                join_type: JoinType::Inner,
                ..
            } => self.inner_joins(plan)?,
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => PhysicalPlan::HashJoin {
                left: self.boxed(left)?,
                right: self.boxed(right)?,
                left_keys: on.iter().map(|c| c.left_col).collect(),
                right_keys: on.iter().map(|c| c.right_col).collect(),
                join_type: *join_type,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let input = self.boxed(input)?;
                let (group_by, aggs) = (group_by.clone(), aggs.clone());
                match self.choices.next()? {
                    Choice::HashAgg(true) => PhysicalPlan::HashAgg {
                        input,
                        group_by,
                        aggs,
                    },
                    Choice::HashAgg(false) => PhysicalPlan::SortAgg {
                        input: Box::new(PhysicalPlan::Sort {
                            input,
                            keys: group_by.iter().map(|&c| SortKey::asc(c)).collect(),
                        }),
                        group_by,
                        aggs,
                    },
                    _ => return None,
                }
            }
            LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
                input: self.boxed(input)?,
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs } => PhysicalPlan::Project {
                input: self.boxed(input)?,
                exprs: exprs.clone(),
            },
            LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
                input: self.boxed(input)?,
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, limit } => PhysicalPlan::Limit {
                input: self.boxed(input)?,
                limit: *limit,
            },
        })
    }

    fn scan(&mut self, table: TableId, filter: &Option<Expr>) -> Option<PhysicalPlan> {
        let Choice::Access(choice) = self.choices.next()? else {
            return None;
        };
        let Some((filter, winner)) = filter.as_ref().zip(choice.checked_sub(1)) else {
            return Some(PhysicalPlan::SeqScan {
                table,
                filter: filter.clone(),
            });
        };
        let stats = table_stats(self.db, table).ok()?;
        let mut paths = access::access_paths(self.db, self.hypo, table, stats, filter);
        let path = (winner < paths.len()).then(|| paths.swap_remove(winner))?;
        let residual = match path.residual {
            Residual::Terms(terms) if terms.is_empty() => None,
            Residual::Terms(terms) => Some(Expr::and_all(terms.into_iter().cloned().collect())),
            Residual::WholeFilter => Some(filter.clone()),
        };
        let mut arms: Vec<IndexArm> = path.probes.iter().map(arm).collect();
        Some(match path.kind {
            PathKind::Index => {
                let IndexArm { index, lo, hi } = arms.swap_remove(0);
                PhysicalPlan::IndexScan {
                    table,
                    index,
                    lo,
                    hi,
                    filter: residual,
                }
            }
            PathKind::And => PhysicalPlan::IndexAnd {
                table,
                arms,
                filter: residual,
            },
            PathKind::Or => PhysicalPlan::IndexOr {
                table,
                arms,
                filter: residual,
            },
        })
    }

    /// Plans the tree's relations in logical order (as pricing did), then
    /// assembles them along the recorded join order and restores the
    /// logical column order with a projection if the order permuted it.
    fn inner_joins(&mut self, plan: &LogicalPlan) -> Option<PhysicalPlan> {
        let mut leaves = Vec::new();
        join_leaves(plan, &mut leaves);
        let mut relations: Vec<Option<PhysicalPlan>> = leaves
            .into_iter()
            .map(|leaf| self.plan(leaf).map(Some))
            .collect::<Option<_>>()?;
        let Choice::JoinOrder { tree, steps, root } = self.choices.next()? else {
            return None;
        };
        if tree.relations.len() != relations.len() {
            return None;
        }
        let (joined, layout) = assemble(tree, &steps, root, &mut relations)?;
        if layout.iter().copied().eq(0..layout.len()) {
            return Some(joined);
        }
        let exprs = (0..layout.len())
            .map(|g| {
                let pos = layout.iter().position(|&x| x == g)?;
                Some((Expr::col(pos), format!("c{g}")))
            })
            .collect::<Option<_>>()?;
        Some(PhysicalPlan::Project {
            input: Box::new(joined),
            exprs,
        })
    }
}

/// The plan of join step `step` and its output layout: the logical column
/// each output position holds.
fn assemble(
    tree: &JoinTree,
    steps: &[JoinStep],
    step: usize,
    relations: &mut [Option<PhysicalPlan>],
) -> Option<(PhysicalPlan, Vec<usize>)> {
    let (left, right) = match steps[step].kind {
        StepKind::Relation(rel) => {
            let plan = relations[rel].take()?;
            return Some((plan, (tree.offsets[rel]..tree.offsets[rel + 1]).collect()));
        }
        StepKind::Hash { left, right } | StepKind::Cross { left, right } => (left, right),
    };
    let (left_plan, mut layout) = assemble(tree, steps, left, relations)?;
    let (right_plan, right_layout) = assemble(tree, steps, right, relations)?;
    let (left, right) = (Box::new(left_plan), Box::new(right_plan));
    let join_type = JoinType::Inner;
    let plan = if let StepKind::Cross { .. } = steps[step].kind {
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate: None,
            join_type,
        }
    } else {
        // One key pair per edge running between the two sides.
        let pos_in = |side: &[usize], col: usize| side.iter().position(|&x| x == col);
        let key_pair = |l, r| pos_in(&layout, l).zip(pos_in(&right_layout, r));
        let (left_keys, right_keys) = tree
            .edges
            .iter()
            .filter_map(|e| {
                key_pair(e.left_col, e.right_col).or_else(|| key_pair(e.right_col, e.left_col))
            })
            .unzip();
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        }
    };
    layout.extend(right_layout);
    Some((plan, layout))
}
