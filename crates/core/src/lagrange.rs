//! Projected subgradient ascent on a Lagrangian dual: the one driver under
//! the fleet placement bound and the index-selection bound.
//!
//! A [`Relaxation`] owns its multipliers and its separable inner
//! minimisation; [`ascend`] owns everything the two share — best-value
//! tracking, the halving step scale, the stopping rules and the Polyak
//! step against the incumbent. Pure `f64` arithmetic in a fixed order:
//! bit-identical on every run.

/// A Lagrangian lower bound and how the ascent behaved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpBound {
    /// Best Lagrangian value found: a certified lower bound on every
    /// feasible solution's objective.
    pub bound: f64,
    /// Subgradient iterations run.
    pub iterations: usize,
    /// `true` when ascent stopped on a zero subgradient (the bound is the
    /// exact Lagrangian-dual optimum, not just the best iterate).
    pub converged: bool,
}

/// A problem with its coupling constraints dualized.
pub trait Relaxation {
    /// Solves the inner minimisation at the current multipliers and
    /// returns `L(multipliers)`, a valid lower bound.
    fn evaluate(&mut self) -> f64;
    /// `‖g‖²` of the subgradient at the last [`Relaxation::evaluate`].
    fn subgradient_norm_sq(&self) -> f64;
    /// Moves the multipliers `step` along that subgradient, projected
    /// onto the non-negative orthant.
    fn step(&mut self, step: f64);
}

/// Ascends for at most `max_iterations`, with Polyak steps
/// `θ·(incumbent − L)/‖g‖²`; `θ` halves after 20 iterations without a
/// better bound and the ascent stops once it falls under `1e-6`, on a
/// zero subgradient, or when the bound meets the incumbent.
pub fn ascend(relaxation: &mut impl Relaxation, incumbent: f64, max_iterations: usize) -> LpBound {
    let mut lp = LpBound {
        bound: f64::NEG_INFINITY,
        iterations: 0,
        converged: false,
    };
    let mut theta = 1.0f64;
    let mut since_improved = 0usize;
    for _ in 0..max_iterations {
        lp.iterations += 1;
        let value = relaxation.evaluate();
        if value > lp.bound {
            lp.bound = value;
            since_improved = 0;
        } else {
            since_improved += 1;
            if since_improved >= 20 {
                theta *= 0.5;
                since_improved = 0;
            }
        }
        if theta < 1e-6 {
            break;
        }
        let norm_sq = relaxation.subgradient_norm_sq();
        if norm_sq == 0.0 {
            // The multipliers are dual-optimal for this inner solution.
            lp.converged = true;
            break;
        }
        let gap = incumbent - value;
        if gap <= 0.0 {
            // The bound met the incumbent (to fp precision).
            break;
        }
        relaxation.step(theta * gap / norm_sq);
    }
    lp
}
