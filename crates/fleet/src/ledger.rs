//! Rebalance accounting: was the re-placement worth its churn?
//!
//! Mirrors the controller's regret ledger at fleet scope. When a request
//! carries a deployed [`crate::CurrentPlacement`], the advisor reports the
//! steady-state gain of its recommendation next to the one-time migration
//! bill, and a [`RebalanceLedger`] accumulates the decision history across
//! requests (e.g. successive re-placements as workloads drift).

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

    /// Gain net of the amortized migration bill.
    pub fn amortized_gain(&self) -> f64 {
        self.steady_gain() - self.migration_seconds / self.horizon_runs
    }

    /// Whether applying the recommendation pays for its churn within the
    /// horizon.
    pub fn worth_applying(&self) -> bool {
        self.amortized_gain() > 0.0
    }
}

/// Running account of rebalance decisions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RebalanceLedger {
    /// Recommendations applied (amortized gain positive).
    pub applied: usize,
    /// Recommendations skipped (churn would not pay for itself).
    pub skipped: usize,
    /// Cumulative per-execution steady gain of applied recommendations.
    pub steady_gain: f64,
    /// Cumulative migration seconds actually paid.
    pub migration_paid: f64,
    /// Cumulative amortized net gain of applied recommendations.
    pub net_gain: f64,
}

impl RebalanceLedger {
    /// A fresh ledger.
    pub fn new() -> RebalanceLedger {
        RebalanceLedger::default()
    }

    /// Records a decision: applies the delta when it is worth its churn,
    /// otherwise skips it. Returns whether it was applied.
    pub fn record(&mut self, delta: &RebalanceDelta) -> bool {
        if delta.worth_applying() {
            self.applied += 1;
            self.steady_gain += delta.steady_gain();
            self.migration_paid += delta.migration_seconds;
            self.net_gain += delta.amortized_gain();
            true
        } else {
            self.skipped += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_must_pay_for_itself() {
        let good = RebalanceDelta {
            steady_before: 10.0,
            steady_after: 8.0,
            migration_seconds: 50.0,
            horizon_runs: 50.0,
        };
        assert_eq!(good.steady_gain(), 2.0);
        assert_eq!(good.amortized_gain(), 1.0);
        assert!(good.worth_applying());

        let churny = RebalanceDelta {
            steady_before: 10.0,
            steady_after: 9.9,
            migration_seconds: 500.0,
            horizon_runs: 50.0,
        };
        assert!(!churny.worth_applying());

        let mut ledger = RebalanceLedger::new();
        assert!(ledger.record(&good));
        assert!(!ledger.record(&churny));
        assert_eq!(ledger.applied, 1);
        assert_eq!(ledger.skipped, 1);
        assert_eq!(ledger.net_gain, 1.0);
        assert_eq!(ledger.migration_paid, 50.0);
    }
}
