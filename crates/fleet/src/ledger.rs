//! Rebalance accounting: was the re-placement worth its churn?
//!
//! When a request carries a deployed [`crate::CurrentPlacement`], the
//! advisor reports the steady-state gain of its recommendation next to the
//! one-time migration bill.

/// The priced outcome of one proposed re-placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceDelta {
    /// Weighted steady-state objective of the deployed placement.
    pub steady_before: f64,
    /// Weighted steady-state objective of the recommendation.
    pub steady_after: f64,
    /// One-time migration bill (seconds) to get there.
    pub migration_seconds: f64,
    /// Executions the bill is amortized over
    /// (50, `MIGRATION_HORIZON_RUNS`).
    pub horizon_runs: f64,
}

impl RebalanceDelta {
    /// Per-execution steady-state gain (positive = recommendation is
    /// cheaper to run).
    pub fn steady_gain(&self) -> f64 {
        self.steady_before - self.steady_after
    }
}
