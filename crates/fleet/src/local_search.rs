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

use crate::config::{MIGRATION_HORIZON_RUNS, SWAP_CANDIDATE_BUDGET};
use crate::greedy::edit_sorted;
use crate::migrate::vm_migration_seconds;
use crate::placement::{build, residents_of, Placement};
use crate::solver::FleetSolver;
use crate::{CurrentPlacement, FleetError};
use dbvirt_vmm::kernel::SplitMix64;

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
    /// Candidate placements priced across all rounds.
    pub candidates_evaluated: usize,
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

/// Improves `start` until no candidate strictly lowers the priced total
/// (or the round cap is hit). Never returns a worse placement than
/// `start`.
pub(crate) fn improve(
    solver: &FleetSolver<'_, '_>,
    reference: Option<&CurrentPlacement>,
    start: Placement,
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
            migration[m] = machine_migration(solver, reference, m, &residents[m], &solve.assignment)?;
            total_migration += migration[m];
        }

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
            edit_sorted(&mut vms_a, &residents[ma], Some(x), y);
            edit_sorted(&mut vms_b, &residents[mb], y, Some(x));
            let solve_a = solver.solve(ma, &vms_a)?;
            let solve_b = solver.solve(mb, &vms_b)?;
            let steady = incumbent.steady_objective
                - incumbent.per_machine_objective[ma]
                - incumbent.per_machine_objective[mb]
                + solve_a.objective
                + solve_b.objective;
            let mig = total_migration - migration[ma] - migration[mb]
                + machine_migration(solver, reference, ma, &vms_a, &solve_a.assignment)?
                + machine_migration(solver, reference, mb, &vms_b, &solve_b.assignment)?;
            let total = steady + mig / MIGRATION_HORIZON_RUNS;
            stats.candidates_evaluated += 1;
            if best.as_ref().map_or(incumbent.total_objective > total, |b| total < b.0) {
                *best = Some((total, step));
            }
            Ok(())
        };

        for vm in 0..n {
            for to in 0..m_count {
                if to == incumbent.machine_of[vm] || residents[to].len() >= cap {
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
                0x5157_4c45_4554_00d5 ^ ((n as u64) << 40) ^ ((m_count as u64) << 20)
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
