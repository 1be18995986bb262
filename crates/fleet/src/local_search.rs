//! Tier 2: best-improvement local search over moves and swaps.
//!
//! Each round scans every single-VM relocation (and, within the
//! `SWAP_CANDIDATE_BUDGET` (4 096), every cross-machine VM
//! swap), re-solving the touched machines through the memoized solver, and
//! applies the candidate with the lowest priced total. Share *rebalancing*
//! needs no explicit neighborhood: every candidate re-solves its touched
//! machines with the exact per-machine dynamic program, so shares are
//! always jointly optimal for the assignment being scored.
//!
//! Above the budget the swap neighborhood is **sampled**, not skipped: a
//! seeded splitmix64 stream draws up to `SWAP_CANDIDATE_BUDGET` swap
//! pairs per round, in a fixed deterministic order. This matters at
//! capacity-forced shapes (every machine full) where moves are
//! structurally impossible — without sampled swaps, large fleets would do
//! no local search at all.
//!
//! Determinism: candidates are enumerated (or sampled — the seed depends
//! only on the fleet shape and the round index) in a fixed order and
//! accepted only on strict improvement, so ties resolve to the earliest
//! candidate; accepted placements are rebuilt from scratch through
//! [`crate::placement::build`], so candidate-delta float drift never
//! accumulates into the incumbent.
//!
//! **Screen.** Nearly every candidate loses, so each is first priced by a
//! [`Screen`] — array arithmetic over value tables built once per round —
//! and re-solved exactly only when that lower bound could beat the best
//! total so far. A skipped candidate could not have won, so the choice,
//! and every placement, is the exhaustive scan's to the bit.

use crate::config::{MIGRATION_BASE_SECONDS, MIGRATION_HORIZON_RUNS, SWAP_CANDIDATE_BUDGET};
use crate::greedy::edit_sorted;
use crate::migrate::vm_migration_seconds;
use crate::placement::{build, residents_of, Placement};
use crate::solver::FleetSolver;
use crate::{CurrentPlacement, FleetError};
use dbvirt_core::search::ValueTable;
use dbvirt_vmm::kernel::SplitMix64;
use std::rc::Rc;

/// What the local search did, including any neighborhood it *didn't*
/// scan — large fleets gate swap enumeration, and that must be visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearchStats {
    /// Improvement rounds run (each applies at most one candidate).
    pub rounds: usize,
    /// Single-VM relocations applied.
    pub moves_applied: usize,
    /// Cross-machine swaps applied.
    pub swaps_applied: usize,
    /// Candidate placements scanned across all rounds.
    pub candidates_evaluated: usize,
    /// Candidates whose screen could beat the best total so far, and so
    /// were re-solved exactly (at most `candidates_evaluated`).
    pub candidates_priced: usize,
    /// Whether the swap neighborhood was enumerated *exhaustively*.
    /// `false` means `N x M` exceeded
    /// the swap budget (4 096) and swaps were
    /// sampled instead (see `swap_candidates_sampled`).
    pub swaps_enumerated: bool,
    /// Swap candidates drawn by the seeded sampler, summed over rounds
    /// (0 when the neighborhood was enumerated exhaustively).
    pub swap_candidates_sampled: usize,
}

/// One candidate step.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Relocate VM `vm` to machine `to`.
    Move { vm: usize, to: usize },
    /// Exchange machines between VMs `a` and `b`.
    Swap { a: usize, b: usize },
}

/// The one-time migration cost a machine's residents would pay under a
/// fresh solve of that machine.
fn machine_migration(
    solver: &FleetSolver<'_, '_>,
    reference: Option<&CurrentPlacement>,
    machine: usize,
    vms: &[usize],
    units_of: &[(u32, u32)],
) -> Result<f64, FleetError> {
    let Some(reference) = reference else {
        return Ok(0.0);
    };
    let mut total = 0.0;
    for (w, &vm) in vms.iter().enumerate() {
        total += vm_migration_seconds(
            &solver.problem.machines,
            solver.cfg,
            reference,
            vm,
            machine,
            units_of[w],
        )?;
    }
    Ok(total)
}

/// Relative slack of a screened side; see [`Screen`].
const SCREEN_SLACK: f64 = 1e-9;

/// One round's screen: lower bounds on the two re-solved sides of any
/// candidate, from tables built once per round.
///
/// * A machine that *loses* a VM without gaining one (the source of a
///   move) is priced exactly: its solve and migration are precomputed per
///   VM.
/// * A machine that *gains* a VM (a move's target, either side of a swap)
///   is priced by growing the value table of its other residents by the
///   newcomer — one min-plus step instead of a DP — less a slack of
///   `1e-9·(|screen| + 1)`. Its migration is bounded below by
///   `MIGRATION_BASE_SECONDS` per resident off its reference machine,
///   since a pool refill is never negative.
///
/// Soundness. Let `μ` be the grown set's real optimum and `u = 2⁻⁵³`. Both
/// the screen and the exact DP objective are float sums of at most `cap`
/// non-negative terms. The screen is no more than the optimal
/// allocation's float sum (each DP layer takes a minimum, and rounding is
/// monotone), so at most `(1 + cap·u)·μ`; the exact objective is the
/// float sum of a feasible allocation, so at least `(1 − cap·u)·μ`. They
/// differ by at most `2·cap·u` of the screen — 1.8e-15 at the default
/// 8-unit cap, 5·10⁵ times below the slack, and below it for any cap
/// under 10⁶ — so every side's bound is at most its exact value. The
/// candidate's total is one formula, monotone in each side, evaluated on
/// the bounds; rounding is monotone, so the bounded total is at most the
/// exact total, and a candidate whose bounded total is at least the
/// threshold cannot win the strict `<`, ties included. A screen that is
/// not finite, or that read a cell that is not finite and non-negative,
/// bounds nothing: that candidate is priced exactly.
struct Screen {
    /// `V(residents[m])`, for machines below the cap (a move's target).
    into: Vec<Option<Rc<ValueTable>>>,
    /// Residents of each machine off their reference machine (0 on cold
    /// requests).
    off: Vec<usize>,
    /// Per VM, its machine without it: exact `(steady objective, migration
    /// seconds)`, when the VM has a move.
    out: Vec<Option<(f64, f64)>>,
    /// Per VM, `V(its machine's residents without it)` (a swap's sides).
    without: Vec<Rc<ValueTable>>,
}

impl Screen {
    fn new(
        solver: &FleetSolver<'_, '_>,
        reference: Option<&CurrentPlacement>,
        machine_of: &[usize],
        residents: &[Vec<usize>],
    ) -> Result<Screen, FleetError> {
        let open = |m: usize| residents[m].len() < solver.cfg.max_vms_per_machine;
        let open_machines = (0..residents.len()).filter(|&m| open(m)).count();
        let into = (0..residents.len())
            .map(|m| {
                open(m)
                    .then(|| solver.value_table(m, &residents[m]))
                    .transpose()
            })
            .collect::<Result<_, _>>()?;
        let off = (residents.iter().enumerate())
            .map(|(m, vms)| {
                vms.iter()
                    .filter(|&&vm| off_reference(reference, vm, m))
                    .count()
            })
            .collect();
        let (mut out, mut without) = (Vec::new(), Vec::new());
        let mut rest = Vec::new();
        for (vm, &m) in machine_of.iter().enumerate() {
            edit_sorted(&mut rest, &residents[m], Some(vm), None);
            without.push(solver.value_table(m, &rest)?);
            let has_move = open_machines > usize::from(open(m));
            out.push(match has_move {
                true => {
                    let solve = solver.solve(m, &rest)?;
                    let migration =
                        machine_migration(solver, reference, m, &rest, &solve.assignment)?;
                    Some((solve.objective, migration))
                }
                false => None,
            });
        }
        Ok(Screen {
            into,
            off,
            out,
            without,
        })
    }

    /// Lower bounds on `step`'s re-solved sides, `(steady objective,
    /// migration seconds)` for the source machine and then the target, or
    /// `None` when a side has no bound.
    fn sides(
        &self,
        solver: &FleetSolver<'_, '_>,
        reference: Option<&CurrentPlacement>,
        machine_of: &[usize],
        step: Step,
    ) -> Result<Option<[(f64, f64); 2]>, FleetError> {
        let off = |vm: usize, m: usize| usize::from(off_reference(reference, vm, m));
        // `table`'s machine `m` grown by `vm`, with `off` residents off
        // their reference machine.
        let grown = |m: usize, table: &ValueTable, vm: usize, off: usize| {
            let steady = solver.grow(m, table, vm)?;
            let floor = steady.map(|s| {
                (
                    s - SCREEN_SLACK * (s.abs() + 1.0),
                    off as f64 * MIGRATION_BASE_SECONDS,
                )
            });
            Ok::<_, FleetError>(floor)
        };
        Ok(match step {
            Step::Move { vm, to } => {
                let (Some(source), Some(table)) = (self.out[vm], &self.into[to]) else {
                    return Ok(None);
                };
                let target = grown(to, table, vm, self.off[to] + off(vm, to))?;
                target.map(|target| [source, target])
            }
            Step::Swap { a, b } => {
                let (ma, mb) = (machine_of[a], machine_of[b]);
                let side_a = grown(
                    ma,
                    &self.without[a],
                    b,
                    self.off[ma] - off(a, ma) + off(b, ma),
                )?;
                let Some(side_a) = side_a else {
                    return Ok(None);
                };
                let side_b = grown(
                    mb,
                    &self.without[b],
                    a,
                    self.off[mb] - off(b, mb) + off(a, mb),
                )?;
                side_b.map(|side_b| [side_a, side_b])
            }
        })
    }
}

/// Whether VM `vm` on machine `m` is off its reference machine (never, on
/// a cold request).
fn off_reference(reference: Option<&CurrentPlacement>, vm: usize, m: usize) -> bool {
    reference.is_some_and(|r| r.machine_of[vm] != m)
}

/// Improves `start` until no candidate strictly lowers the priced total
/// (or the round cap is hit). Never returns a worse placement than
/// `start`. Candidates are screened (see [`Screen`]); the result is the
/// exhaustive scan's bit for bit.
pub(crate) fn improve(
    solver: &FleetSolver<'_, '_>,
    reference: Option<&CurrentPlacement>,
    start: Placement,
) -> Result<(Placement, LocalSearchStats), FleetError> {
    descend(solver, reference, start, true)
}

/// The descent behind [`improve`]; `screened` says whether candidates are
/// screened before their exact re-solve (the exhaustive scan, unscreened,
/// is the tests' oracle).
fn descend(
    solver: &FleetSolver<'_, '_>,
    reference: Option<&CurrentPlacement>,
    start: Placement,
    screened: bool,
) -> Result<(Placement, LocalSearchStats), FleetError> {
    let n = solver.problem.num_vms();
    let m_count = solver.problem.num_machines();
    let cap = solver.cfg.max_vms_per_machine;
    let swaps_enumerated = n * m_count <= SWAP_CANDIDATE_BUDGET;
    let mut stats = LocalSearchStats {
        rounds: 0,
        moves_applied: 0,
        swaps_applied: 0,
        candidates_evaluated: 0,
        candidates_priced: 0,
        swaps_enumerated,
        swap_candidates_sampled: 0,
    };
    let mut incumbent = start;
    // The two touched machines' candidate subsets, rebuilt per candidate.
    let (mut vms_a, mut vms_b) = (Vec::new(), Vec::new());

    while stats.rounds < solver.cfg.max_rounds {
        let residents = residents_of(&incumbent.machine_of, m_count);
        // Per-machine migration contributions of the incumbent, so a
        // candidate touching machines (a, b) can be priced from deltas.
        let mut migration = vec![0.0f64; m_count];
        let mut total_migration = 0.0;
        for m in 0..m_count {
            let solve = solver.solve(m, &residents[m])?;
            migration[m] =
                machine_migration(solver, reference, m, &residents[m], &solve.assignment)?;
            total_migration += migration[m];
        }
        let screen = match screened {
            true => Some(Screen::new(
                solver,
                reference,
                &incumbent.machine_of,
                &residents,
            )?),
            false => None,
        };
        // A candidate's total from its two re-solved sides, `(steady
        // objective, migration seconds)` each: one formula for exact sides
        // and for their screened bounds.
        let price =
            |ma: usize, mb: usize, [(steady_a, mig_a), (steady_b, mig_b)]: [(f64, f64); 2]| {
                let steady = incumbent.steady_objective
                    - incumbent.per_machine_objective[ma]
                    - incumbent.per_machine_objective[mb]
                    + steady_a
                    + steady_b;
                let mig = total_migration - migration[ma] - migration[mb] + mig_a + mig_b;
                steady + mig / MIGRATION_HORIZON_RUNS
            };

        let mut best: Option<(f64, Step)> = None;
        let mut consider = |step: Step,
                            stats: &mut LocalSearchStats,
                            best: &mut Option<(f64, Step)>|
         -> Result<(), FleetError> {
            // VM `x` leaves machine `ma` for `mb`; a swap sends `y` back.
            let (x, mb, y) = match step {
                Step::Move { vm, to } => (vm, to, None),
                Step::Swap { a, b } => (a, incumbent.machine_of[b], Some(b)),
            };
            let ma = incumbent.machine_of[x];
            stats.candidates_evaluated += 1;
            let threshold = best.map_or(incumbent.total_objective, |b| b.0);
            if let Some(screen) = &screen {
                if let Some(sides) = screen.sides(solver, reference, &incumbent.machine_of, step)? {
                    if price(ma, mb, sides) >= threshold {
                        return Ok(());
                    }
                }
            }
            stats.candidates_priced += 1;
            edit_sorted(&mut vms_a, &residents[ma], Some(x), y);
            edit_sorted(&mut vms_b, &residents[mb], y, Some(x));
            let solve_a = solver.solve(ma, &vms_a)?;
            let solve_b = solver.solve(mb, &vms_b)?;
            let mig_a = machine_migration(solver, reference, ma, &vms_a, &solve_a.assignment)?;
            let mig_b = machine_migration(solver, reference, mb, &vms_b, &solve_b.assignment)?;
            let total = price(
                ma,
                mb,
                [(solve_a.objective, mig_a), (solve_b.objective, mig_b)],
            );
            if total < threshold {
                *best = Some((total, step));
            }
            Ok(())
        };
        for vm in 0..n {
            for (to, members) in residents.iter().enumerate() {
                if to == incumbent.machine_of[vm] || members.len() >= cap {
                    continue;
                }
                consider(Step::Move { vm, to }, &mut stats, &mut best)?;
            }
        }
        if swaps_enumerated {
            for a in 0..n {
                for b in (a + 1)..n {
                    if incumbent.machine_of[a] == incumbent.machine_of[b] {
                        continue;
                    }
                    consider(Step::Swap { a, b }, &mut stats, &mut best)?;
                }
            }
        } else if n >= 2 {
            // Budgeted seeded sampling of the swap neighborhood. At
            // capacity-forced shapes every machine is full, so moves are
            // all skipped above and swaps are the *only* candidates —
            // skipping them entirely (the old behavior) meant the xl
            // shape did no local search at all. The seed depends only on
            // `(n, m_count, round)`, never on wall clock or thread
            // scheduling, so sampled rounds are bit-reproducible.
            let mut rng = SplitMix64(
                0x5157_4c45_4554_00d5
                    ^ ((n as u64) << 40)
                    ^ ((m_count as u64) << 20)
                    ^ stats.rounds as u64,
            );
            let mut sampled = 0;
            let mut attempts = 0;
            // Attempt cap: degenerate fleets (everything on one machine)
            // must not spin forever looking for a cross-machine pair.
            while sampled < SWAP_CANDIDATE_BUDGET && attempts < 4 * SWAP_CANDIDATE_BUDGET {
                attempts += 1;
                let a = (rng.next() % n as u64) as usize;
                let b = (rng.next() % n as u64) as usize;
                let (a, b) = (a.min(b), a.max(b));
                if a == b || incumbent.machine_of[a] == incumbent.machine_of[b] {
                    continue;
                }
                sampled += 1;
                consider(Step::Swap { a, b }, &mut stats, &mut best)?;
            }
            stats.swap_candidates_sampled += sampled;
        }

        let Some((_, step)) = best else { break };
        let mut machine_of = incumbent.machine_of.clone();
        match step {
            Step::Move { vm, to } => machine_of[vm] = to,
            Step::Swap { a, b } => machine_of.swap(a, b),
        }
        let rebuilt = build(solver, reference, &machine_of)?;
        // The candidate won by delta arithmetic; the rebuild is the exact
        // price. Accept only a genuine strict improvement.
        if rebuilt.total_objective >= incumbent.total_objective {
            break;
        }
        match step {
            Step::Move { .. } => stats.moves_applied += 1,
            Step::Swap { .. } => stats.swaps_applied += 1,
        }
        incumbent = rebuilt;
        stats.rounds += 1;
    }
    Ok((incumbent, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy, FleetConfig, FleetProblem, FleetVm, MachineClasses};
    use dbvirt_core::search::CostCache;
    use dbvirt_core::{CoreError, CostModel, DesignProblem};
    use dbvirt_engine::Database;
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Field, Schema};
    use dbvirt_vmm::{MachineSpec, ResourceVector};
    use proptest::prelude::*;

    /// The exhaustive scan: every candidate re-solved exactly. The oracle
    /// [`improve`] is tested against.
    fn improve_reference(
        solver: &FleetSolver<'_, '_>,
        reference: Option<&CurrentPlacement>,
        start: Placement,
    ) -> Result<(Placement, LocalSearchStats), FleetError> {
        descend(solver, reference, start, false)
    }

    /// Every cell is pre-written, so a model call is a test bug.
    struct NoModel;

    impl CostModel for NoModel {
        fn cost(
            &self,
            _: &DesignProblem<'_>,
            _: usize,
            _: ResourceVector,
        ) -> Result<f64, CoreError> {
            Err(CoreError::BadProblem {
                reason: "cell outside the written table".to_string(),
            })
        }
    }

    /// A placement to the bit: assignment, units and every objective.
    fn bits(p: &Placement) -> (&[usize], &[(u32, u32)], Vec<u64>) {
        let totals = [p.steady_objective, p.migration_seconds, p.total_objective];
        let objectives = p.per_machine_objective.iter().chain(&totals);
        let objectives = objectives.map(|o| o.to_bits()).collect();
        (&p.machine_of, &p.units_of, objectives)
    }

    /// Runs [`improve`] and [`improve_reference`] from the greedy seed of a
    /// random fleet, each on a solver of its own over the same cells, and
    /// asserts they agree; returns `(candidates priced, evaluated)`.
    ///
    /// `forced` is a capacity-forced shape (every machine full, so no move
    /// exists and more than `SWAP_CANDIDATE_BUDGET` pairs: swaps are
    /// sampled) below the full-machine rectangle; otherwise the shape is
    /// small and random. `bad` in 1000 cells are NaN or infinite.
    fn screened_matches_exhaustive(
        seed: u64,
        forced: bool,
        warm: bool,
        bad: u64,
    ) -> (usize, usize) {
        let mut rng = SplitMix64(seed);
        let mut pick = |n: usize| (rng.next() % n as u64) as usize;
        let (units, m_count, cap, n) = if forced {
            (8, 33, 4, 132)
        } else {
            let units = [4u32, 6, 8][pick(3)];
            let (m_count, cap) = (2 + pick(4), 2 + pick(units as usize - 1));
            (units, m_count, cap, 1 + pick(m_count * cap))
        };
        let specs = [
            MachineSpec::tiny(),
            MachineSpec::paper_testbed(),
            MachineSpec {
                cores: 3,
                ..MachineSpec::tiny()
            },
        ];
        let kinds = 1 + pick(3);
        let machines: Vec<MachineSpec> = (0..m_count).map(|_| specs[pick(kinds)]).collect();
        let classes = MachineClasses::of(&machines);

        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        let vms = (0..n)
            .map(|i| {
                FleetVm::new(format!("vm-{i}"), &db, vec![LogicalPlan::scan(t)])
                    .with_weight(0.5 + pick(8) as f64 * 0.375)
            })
            .collect();
        let mut problem = FleetProblem::new(machines, vms).unwrap();
        if warm {
            let current = CurrentPlacement {
                machine_of: (0..n).map(|_| pick(m_count)).collect(),
                units_of: (0..n)
                    .map(|_| {
                        (
                            1 + pick(units as usize) as u32,
                            1 + pick(units as usize) as u32,
                        )
                    })
                    .collect(),
            };
            problem = problem.with_current(current).unwrap();
        }
        let mut cfg = FleetConfig::new(units);
        cfg.max_vms_per_machine = cap;
        if forced {
            cfg.max_rounds = 2;
        }
        let min_occ = n.saturating_sub((m_count - 1) * cap).max(1) as u32;
        let rect_hi = units - (min_occ - 1) * cfg.min_units;

        // Share-hungry cells with a random slope per (class, VM), a ripple
        // that puts optima off the diagonal, and the odd NaN or infinity.
        let caches: Vec<CostCache> = classes.specs.iter().map(|_| CostCache::new()).collect();
        let rows: Vec<_> = caches
            .iter()
            .map(|c| c.rows(units, cfg.disk_share, 0..n).unwrap())
            .collect();
        for row in rows.iter().flatten() {
            let (a, b) = (0.5 + pick(16) as f64 * 0.25, 0.5 + pick(16) as f64 * 0.25);
            for c in 1..=units {
                for m in 1..=units {
                    let roll = pick(1000) as u64;
                    let cost = match roll < bad {
                        true => [f64::NAN, f64::INFINITY][pick(2)],
                        false => a / c as f64 + b / m as f64 + pick(1000) as f64 * 1e-4,
                    };
                    row.insert(c, m, cost);
                }
            }
        }
        let models: Vec<&dyn CostModel> = classes
            .specs
            .iter()
            .map(|_| &NoModel as &dyn CostModel)
            .collect();
        let reference = problem.current.as_ref();
        let run = |screened: bool| {
            let solver = FleetSolver::new(&problem, &classes, &models, cfg, rect_hi, &rows);
            let seed = greedy::seed(&solver, rect_hi, reference).unwrap();
            let start = build(&solver, reference, &seed).unwrap();
            match screened {
                true => improve(&solver, reference, start).unwrap(),
                false => improve_reference(&solver, reference, start).unwrap(),
            }
        };
        let ((fast, fast_stats), (slow, slow_stats)) = (run(true), run(false));
        assert_eq!(bits(&fast), bits(&slow), "seed {seed:#x}");
        let unpriced = |s: LocalSearchStats| LocalSearchStats {
            candidates_priced: 0,
            ..s
        };
        assert_eq!(unpriced(fast_stats), unpriced(slow_stats), "seed {seed:#x}");
        assert_eq!(
            slow_stats.candidates_priced,
            slow_stats.candidates_evaluated
        );
        assert!(fast_stats.candidates_priced <= fast_stats.candidates_evaluated);
        if forced {
            assert!(!fast_stats.swaps_enumerated && fast_stats.swap_candidates_sampled > 0);
        }
        (
            fast_stats.candidates_priced,
            fast_stats.candidates_evaluated,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_the_screen_never_changes_the_descent(
            seed in 0u64..u64::MAX,
            warm in proptest::bool::ANY,
            bad in 0u64..3,
        ) {
            screened_matches_exhaustive(seed, false, warm, bad * 4);
        }
    }

    #[test]
    fn the_screen_prunes_and_matches_on_a_capacity_forced_sampled_fleet() {
        let mut totals = (0, 0);
        for (seed, warm, bad) in [(1, false, 0), (2, true, 0), (3, true, 2)] {
            let (priced, evaluated) = screened_matches_exhaustive(seed, true, warm, bad);
            totals = (totals.0 + priced, totals.1 + evaluated);
        }
        assert!(
            totals.0 * 4 < totals.1,
            "the screen priced {} of {}",
            totals.0,
            totals.1
        );
    }
}
