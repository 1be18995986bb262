//! **Price**: a [`PreparedQuery`] × a parameter vector `P` → cost units.
//!
//! This is the whole of what the what-if mode runs per allocation cell: the
//! [`crate::cost`] formulas over the prepared operands, a strict-`<` scan
//! over each base table's access paths, and the Selinger dynamic program
//! over each inner-join tree. The DP's enumeration is hoisted into
//! analysis — which subsets are connected and which of their splits join
//! two connected halves across an edge is fixed by the join graph, so
//! pricing walks one [`SplitTable`] list and never a relation subset. The
//! choice is not hoisted: the winning split of a subset decides that
//! subset's row estimate (the `max(1)` clamps and float products differ per
//! split), its width sum, and whether the logical column order survives.
//! What pricing never does is build a plan — candidates are three numbers
//! and two indices. Callers that go on to execute pass a `Vec` to record
//! the winning [`Choice`]s in, for [`super::materialise`] to turn into a
//! `PhysicalPlan` once.

use super::access::PathKind;
use super::analyse::{JoinOrder, JoinTree, Ndv, Node, Op, PreparedQuery, Scan, SplitTable};
use crate::{card, cost, CheckedParams, OptimizerParams};
use dbvirt_engine::JoinType;

/// The estimates of one (sub)plan under one `P`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Priced {
    pub rows: f64,
    pub cost: f64,
    /// Average output tuple width in bytes (drives spill estimates).
    pub width: f64,
}

/// One `P`-dependent decision, recorded in pricing order (children before
/// parents, join relations in logical order before their join order).
#[derive(Debug)]
pub(super) enum Choice<'q> {
    /// A scan's winner: 0 is the sequential scan, `i + 1` access path `i`.
    Access(usize),
    /// An inner-join tree's winner: the join steps the search kept (steps
    /// `0..n` are the tree's `n` relations) and the winning tree's root.
    JoinOrder {
        tree: &'q JoinTree,
        steps: Vec<JoinStep>,
        root: usize,
    },
    /// An aggregate's winner: hashed, or sorted input + sorted aggregation.
    HashAgg(bool),
}

#[derive(Debug, Clone, Copy)]
pub(super) struct JoinStep {
    pub priced: Priced,
    pub kind: StepKind,
}

/// How a step's rows are produced; join operands index the step list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StepKind {
    Relation(usize),
    /// `left` probes a hash table built on `right`.
    Hash {
        left: usize,
        right: usize,
    },
    Cross {
        left: usize,
        right: usize,
    },
}

/// Where winning choices are recorded, for callers that materialise.
type Record<'r, 'q> = Option<&'r mut Vec<Choice<'q>>>;

impl PreparedQuery {
    /// Prices the query under `params`, recording the winning choices into
    /// `choices` when given.
    pub(super) fn price<'q>(&'q self, params: &CheckedParams, choices: Record<'_, 'q>) -> Priced {
        self.root.price(params, choices)
    }
}

/// Cost of hash-joining probe side `l` with build side `r` into `out_rows`.
fn hash_join_cost(p: &OptimizerParams, l: Priced, r: Priced, out_rows: f64) -> f64 {
    let (l_bytes, r_bytes) = (l.rows * l.width, r.rows * r.width);
    cost::hash_join_cost(p, l.rows, r.rows, out_rows, l_bytes, r_bytes)
}

/// The step hash-joining step `probe` with step `build` at selectivity
/// `sel`.
fn hash_join(
    p: &OptimizerParams,
    steps: &[JoinStep],
    (probe, build): (usize, usize),
    sel: f64,
) -> JoinStep {
    let (l, r) = (steps[probe].priced, steps[build].priced);
    let out_rows = (l.rows * r.rows * sel).max(1.0);
    let join_cost = hash_join_cost(p, l, r, out_rows);
    JoinStep {
        priced: Priced {
            rows: out_rows,
            cost: l.cost + r.cost + join_cost,
            width: l.width + r.width,
        },
        kind: StepKind::Hash {
            left: probe,
            right: build,
        },
    }
}

/// `ndv` where analysis found one, else "assume distinct" over `rows`.
fn ndv_or_rows(ndv: Ndv, rows: f64) -> f64 {
    ndv.unwrap_or_else(|| rows.max(1.0))
}

impl Scan {
    /// Sequential scan vs. every index access path; the earliest cheapest
    /// candidate wins. Returns its cost and its [`Choice::Access`] number.
    fn price(&self, p: &OptimizerParams) -> (f64, usize) {
        let seq = cost::seq_scan_cost(
            p,
            self.pages,
            self.rows,
            self.filter_ops,
            self.working_set_pages,
        );
        let mut best = (seq, 0);
        for (i, path) in self.paths.iter().enumerate() {
            let arms = &path.arms[..];
            let (pages, rows, ops) = (self.pages, self.rows, path.residual_ops);
            let candidate = match path.kind {
                PathKind::Index => {
                    let a = arms[0];
                    cost::index_scan_cost(
                        p,
                        a.height,
                        a.pages,
                        a.entries,
                        a.selectivity,
                        pages,
                        rows,
                        ops,
                    )
                }
                PathKind::And => cost::index_and_cost(p, arms, path.combined, pages, rows, ops),
                PathKind::Or => cost::index_or_cost(p, arms, path.combined, pages, rows, ops),
            };
            if candidate < best.0 {
                best = (candidate, i + 1);
            }
        }
        best
    }
}

impl Node {
    pub(super) fn price<'q>(&'q self, p: &OptimizerParams, mut choices: Record<'_, 'q>) -> Priced {
        match self {
            Node::Scan(scan) => {
                let (cost, choice) = scan.price(p);
                if let Some(choices) = choices {
                    choices.push(Choice::Access(choice));
                }
                Priced {
                    rows: scan.out_rows,
                    cost,
                    width: scan.width,
                }
            }
            Node::InnerJoins(tree) => tree.price(p, choices),
            Node::OuterJoin(left, right, on, join_type) => {
                let l = left.price(p, choices.as_deref_mut());
                let r = right.price(p, choices);
                // The first condition's NDVs drive the match-fraction
                // model; extra conditions multiply in as inner-style
                // selectivities.
                let ndvs = |&(lndv, rndv): &(Ndv, Ndv)| {
                    (ndv_or_rows(lndv, l.rows), ndv_or_rows(rndv, r.rows))
                };
                let (lndv, rndv) = ndvs(&on[0]);
                let mut out_rows = card::join_output_rows(l.rows, r.rows, lndv, rndv, *join_type);
                for (a, b) in on[1..].iter().map(ndvs) {
                    out_rows /= a.max(b).max(1.0);
                }
                let floor = if *join_type == JoinType::Left {
                    l.rows
                } else {
                    0.0
                };
                let out_rows = out_rows.max(floor);
                let join_cost = hash_join_cost(p, l, r, out_rows);
                let width = if join_type.emits_right() {
                    l.width + r.width
                } else {
                    l.width
                };
                Priced {
                    rows: out_rows.max(0.0),
                    cost: l.cost + r.cost + join_cost,
                    width,
                }
            }
            Node::Unary(input, op) => {
                let child = input.price(p, choices.as_deref_mut());
                let (rows, op_cost, width) = match op {
                    Op::Aggregate {
                        group_by,
                        n_aggs,
                        arg_ops,
                    } => {
                        let ndvs = group_by.iter().map(|&ndv| ndv_or_rows(ndv, child.rows));
                        let groups = card::num_groups_of(child.rows, ndvs);
                        let agg = |hashed| {
                            cost::agg_cost(p, child.rows, groups, *n_aggs, *arg_ops, hashed)
                        };
                        let hash_cost = agg(true);
                        let sort_cost = cost::sort_cost(p, child.rows, child.width) + agg(false);
                        let hashed = hash_cost <= sort_cost || group_by.is_empty();
                        if let Some(choices) = choices {
                            choices.push(Choice::HashAgg(hashed));
                        }
                        let width = 16.0 * (group_by.len() as f64 + n_aggs);
                        (groups, if hashed { hash_cost } else { sort_cost }, width)
                    }
                    Op::Filter { selectivity, ops } => (
                        (child.rows * selectivity).max(0.0),
                        cost::filter_cost(p, child.rows, *ops),
                        child.width,
                    ),
                    Op::Project { ops, arity } => (
                        child.rows,
                        cost::project_cost(p, child.rows, *ops),
                        16.0 * *arity as f64,
                    ),
                    Op::Sort => (
                        child.rows,
                        cost::sort_cost(p, child.rows, child.width),
                        child.width,
                    ),
                    Op::Limit(limit) => {
                        return Priced {
                            rows: child.rows.min(*limit),
                            ..child
                        }
                    }
                };
                Priced {
                    rows,
                    cost: child.cost + op_cost,
                    width,
                }
            }
        }
    }
}

impl JoinTree {
    /// Prices the relations, orders the joins the way analysis chose
    /// ([`JoinOrder`]: the Selinger DP over the connected splits, or greedy
    /// with cross joins) and charges the projection that restores the
    /// logical column order if the winner permuted it.
    fn price<'q>(&'q self, p: &OptimizerParams, mut choices: Record<'_, 'q>) -> Priced {
        let n = self.relations.len();
        let mut steps: Vec<JoinStep> = Vec::with_capacity(2 * n);
        for (i, relation) in self.relations.iter().enumerate() {
            steps.push(JoinStep {
                priced: relation.price(p, choices.as_deref_mut()),
                kind: StepKind::Relation(i),
            });
        }
        let root = match &self.order {
            JoinOrder::Dp(table) => self.dynamic_program(p, table, &mut steps),
            JoinOrder::Greedy => self.greedy(p, &mut steps),
        };
        let joined = steps[root].priced;
        let priced = if self.keeps_logical_order(&steps, root) {
            joined
        } else {
            Priced {
                cost: joined.cost + cost::project_cost(p, joined.rows, 0.0),
                ..joined
            }
        };
        if let Some(choices) = choices {
            choices.push(Choice::JoinOrder {
                tree: self,
                steps,
                root,
            });
        }
        priced
    }

    /// The hash join of steps `probe` and `build` on every edge running
    /// between them (`in_probe`/`in_build` tell which relations each side
    /// holds); `None` when no edge does.
    pub(super) fn hash_step(
        &self,
        p: &OptimizerParams,
        steps: &[JoinStep],
        (probe, build): (usize, usize),
        in_probe: impl Fn(usize) -> bool,
        in_build: impl Fn(usize) -> bool,
    ) -> Option<JoinStep> {
        let (l, r) = (steps[probe].priced, steps[build].priced);
        let mut sel = 1.0;
        let mut connected = false;
        for e in &self.edges {
            let (lndv, rndv) = if in_probe(e.left_rel) && in_build(e.right_rel) {
                (e.left_ndv, e.right_ndv)
            } else if in_probe(e.right_rel) && in_build(e.left_rel) {
                (e.right_ndv, e.left_ndv)
            } else {
                continue;
            };
            sel /= ndv_or_rows(lndv, l.rows).max(ndv_or_rows(rndv, r.rows));
            connected = true;
        }
        connected.then(|| hash_join(p, steps, (probe, build), sel))
    }

    /// Selinger DP over the splits analysis kept: each connected subset,
    /// in ascending order, gets the step of its cheapest split (the first
    /// of equals). Returns the full set's step, the last one pushed.
    fn dynamic_program(
        &self,
        p: &OptimizerParams,
        table: &SplitTable,
        steps: &mut Vec<JoinStep>,
    ) -> usize {
        let (mut split, mut edge) = (0, 0);
        for &subset_end in &table.subsets {
            let mut best: Option<JoinStep> = None;
            for cut in &table.splits[split..subset_end as usize] {
                let [a, b] = cut.steps.map(usize::from);
                let crossing = &table.edges[edge..cut.edges_end as usize];
                edge = cut.edges_end as usize;
                let (a_rows, b_rows) = (steps[a].priced.rows, steps[b].priced.rows);
                // Unless the halves' rows tie (or one is NaN), a mirrored
                // cut builds on the same side as its mirror did: the same
                // candidate bit for bit, which strict `<` never lets win.
                // Not `a_rows != b_rows`: that holds for a NaN half too,
                // and a NaN half must not skip its mirrored cut.
                #[allow(clippy::double_comparisons)]
                let ordered = a_rows < b_rows || a_rows > b_rows;
                if cut.mirrored && ordered {
                    continue;
                }
                // Build on the smaller side.
                let first_probes = a_rows >= b_rows;
                let (probe, build) = if first_probes { (a, b) } else { (b, a) };
                let (l, r) = (steps[probe].priced, steps[build].priced);
                let mut sel = 1.0;
                for &e in crossing {
                    let e = &self.edges[usize::from(e)];
                    let (lndv, rndv) = if (cut.first >> e.left_rel & 1 == 1) == first_probes {
                        (e.left_ndv, e.right_ndv)
                    } else {
                        (e.right_ndv, e.left_ndv)
                    };
                    sel /= ndv_or_rows(lndv, l.rows).max(ndv_or_rows(rndv, r.rows));
                }
                let candidate = hash_join(p, steps, (probe, build), sel);
                if best.is_none_or(|cur| candidate.priced.cost < cur.priced.cost) {
                    best = Some(candidate);
                }
            }
            split = subset_end as usize;
            steps.extend(best);
        }
        steps.len() - 1
    }

    /// Greedy fallback: repeatedly join the pair with the cheapest result,
    /// using a cross nested-loop join when no equi-edge connects a pair.
    pub(super) fn greedy(&self, p: &OptimizerParams, steps: &mut Vec<JoinStep>) -> usize {
        let n = self.relations.len();
        let mut entries: Vec<usize> = (0..n).collect();
        // The entry (as a step) currently holding each relation.
        let mut holder: Vec<usize> = (0..n).collect();
        while entries.len() > 1 {
            let mut best: Option<(usize, usize, JoinStep)> = None;
            for i in 0..entries.len() {
                for j in 0..entries.len() {
                    if i == j {
                        continue;
                    }
                    let (a, b) = (entries[i], entries[j]);
                    let candidate = self
                        .hash_step(
                            p,
                            steps,
                            (a, b),
                            |rel| holder[rel] == a,
                            |rel| holder[rel] == b,
                        )
                        .unwrap_or_else(|| {
                            let (l, r) = (steps[a].priced, steps[b].priced);
                            let out_rows = (l.rows * r.rows).max(1.0);
                            JoinStep {
                                priced: Priced {
                                    rows: out_rows,
                                    cost: l.cost
                                        + r.cost
                                        + cost::nl_join_cost(p, l.rows, r.rows, 0.0, out_rows),
                                    width: l.width + r.width,
                                },
                                kind: StepKind::Cross { left: a, right: b },
                            }
                        });
                    if best
                        .as_ref()
                        .is_none_or(|(_, _, cur)| candidate.priced.cost < cur.priced.cost)
                    {
                        best = Some((i, j, candidate));
                    }
                }
            }
            // Two or more entries, so the scan above saw a pair.
            let Some((i, j, merged)) = best else { break };
            let (a, b) = (entries[i], entries[j]);
            entries.swap_remove(i.max(j));
            entries.swap_remove(i.min(j));
            entries.push(steps.len());
            for h in &mut holder {
                if *h == a || *h == b {
                    *h = steps.len();
                }
            }
            steps.push(merged);
        }
        entries[0]
    }

    /// Relation indices of the tree under `step`, left to right.
    fn relation_order(steps: &[JoinStep], step: usize, out: &mut impl FnMut(usize)) {
        match steps[step].kind {
            StepKind::Relation(rel) => out(rel),
            StepKind::Hash { left, right } | StepKind::Cross { left, right } => {
                JoinTree::relation_order(steps, left, out);
                JoinTree::relation_order(steps, right, out);
            }
        }
    }

    /// True when the join tree under `root` emits the relations' columns in
    /// logical order, i.e. every relation that has columns follows the ones
    /// before it.
    pub(super) fn keeps_logical_order(&self, steps: &[JoinStep], root: usize) -> bool {
        let mut next = 0;
        let mut ordered = true;
        JoinTree::relation_order(steps, root, &mut |rel| {
            if self.offsets[rel] < self.offsets[rel + 1] {
                ordered &= rel >= next;
                next = rel;
            }
        });
        ordered
    }
}
