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

#[cfg(test)]
mod tests {
    use super::*;

    /// `L` is `value` at every multiplier, with a fixed `‖g‖²`; records
    /// every step it is asked to take.
    struct Flat {
        value: f64,
        norm_sq: f64,
        steps: Vec<f64>,
    }

    impl Flat {
        fn new(value: f64, norm_sq: f64) -> Flat {
            Flat {
                value,
                norm_sq,
                steps: Vec::new(),
            }
        }
    }

    impl Relaxation for Flat {
        fn evaluate(&mut self) -> f64 {
            self.value
        }
        fn subgradient_norm_sq(&self) -> f64 {
            self.norm_sq
        }
        fn step(&mut self, step: f64) {
            self.steps.push(step);
        }
    }

    /// `min x s.t. x ≥ 1, x ∈ {0, 1, 2}` with the row dualized:
    /// `L(λ) = min_x [x + λ·(1 − x)]`, maximised at `λ = 1` where it meets
    /// the optimum 1. Strict `<` keeps the first minimiser.
    struct Cover {
        lambda: f64,
        x: f64,
    }

    impl Relaxation for Cover {
        fn evaluate(&mut self) -> f64 {
            let mut best = f64::INFINITY;
            for x in [0.0, 1.0, 2.0] {
                let v = x + self.lambda * (1.0 - x);
                if v < best {
                    best = v;
                    self.x = x;
                }
            }
            best
        }
        fn subgradient_norm_sq(&self) -> f64 {
            (1.0 - self.x) * (1.0 - self.x)
        }
        fn step(&mut self, step: f64) {
            self.lambda = (self.lambda + step * (1.0 - self.x)).max(0.0);
        }
    }

    #[test]
    fn a_zero_subgradient_converges() {
        let mut flat = Flat::new(3.0, 0.0);
        let lp = ascend(&mut flat, 10.0, 50);
        assert_eq!(
            lp,
            LpBound {
                bound: 3.0,
                iterations: 1,
                converged: true
            }
        );
        assert!(flat.steps.is_empty());
    }

    #[test]
    fn a_bound_that_meets_the_incumbent_stops_the_ascent() {
        // Already there: the first value equals the incumbent.
        let mut flat = Flat::new(4.0, 1.0);
        let lp = ascend(&mut flat, 4.0, 50);
        assert_eq!((lp.bound, lp.iterations, lp.converged), (4.0, 1, false));
        assert!(flat.steps.is_empty());

        // One full Polyak step (θ = 1, gap 1, ‖g‖² 1) lands on λ = 1,
        // where the bound is the optimum.
        let mut cover = Cover {
            lambda: 0.0,
            x: 0.0,
        };
        let lp = ascend(&mut cover, 1.0, 50);
        assert_eq!((lp.bound, lp.iterations, lp.converged), (1.0, 2, false));
        assert_eq!(cover.lambda, 1.0);
    }

    #[test]
    fn theta_halves_every_twenty_stalled_iterations_until_it_ends_the_ascent() {
        // The first iteration improves on −∞; every later one stalls, so
        // θ halves at iterations 21, 41, …, and its 20th halving
        // (2⁻²⁰ < 1e-6) at iteration 1 + 20·20 = 401 ends the ascent
        // before that iteration steps.
        let mut flat = Flat::new(0.0, 1.0);
        let lp = ascend(&mut flat, 1.0, 10_000);
        assert_eq!((lp.bound, lp.iterations, lp.converged), (0.0, 401, false));
        assert_eq!(flat.steps.len(), 400);
        for (k, &step) in flat.steps.iter().enumerate() {
            assert_eq!(step, 0.5f64.powi((k / 20) as i32), "step {k}");
        }

        // A cap below 401 runs exactly the cap.
        let lp = ascend(&mut Flat::new(0.0, 1.0), 1.0, 400);
        assert_eq!(lp.iterations, 400);
    }

    #[test]
    fn a_nan_incumbent_neither_panics_nor_lifts_the_bound() {
        // Every step is NaN; a projected relaxation stays at λ = 0, so the
        // bound stays the finite L(0) and the stall rule ends the ascent.
        let mut cover = Cover {
            lambda: 0.0,
            x: 0.0,
        };
        let lp = ascend(&mut cover, f64::NAN, 1_000);
        assert_eq!((lp.bound, lp.iterations, lp.converged), (0.0, 401, false));
        assert_eq!(cover.lambda, 0.0);

        let mut flat = Flat::new(2.5, 1.0);
        let lp = ascend(&mut flat, f64::NAN, 1_000);
        assert_eq!(lp.bound, 2.5);
        assert!(flat.steps.iter().all(|s| s.is_nan()));
    }
}
