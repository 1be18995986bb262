//! Structured calibration health reporting.
//!
//! A calibration under noise is no longer a single number: probes are
//! retried, trials aggregated, outlier equations rejected, the system may
//! need ridge regularization, and individual parameters can come back
//! unidentifiable. [`CalibrationReport`] records all of it so the grid
//! sweep, the JSON cache, and the advisor can tell a pristine fit from a
//! degraded one instead of silently trusting every number.

use std::fmt;

/// Per-probe measurement accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStat {
    /// The probe's diagnostic name.
    pub name: String,
    /// Successful trial measurements aggregated into the probe's value.
    pub trials: usize,
    /// Extra attempts spent recovering from transient faults/timeouts.
    pub retries: usize,
    /// How many of those faults were timeouts.
    pub timeouts: usize,
    /// True if the probe contributed no equation (every trial failed, or
    /// its aggregated measurement was non-positive).
    pub dropped: bool,
    /// The aggregated measurement in seconds (`NaN` when dropped).
    pub seconds: f64,
}

/// Health diagnostics for one calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Per-probe trial/retry accounting, in probe order.
    pub probes: Vec<ProbeStat>,
    /// Probes that contributed no equation to the fit.
    pub dropped_probes: usize,
    /// Probe names whose equations were rejected as outliers by the
    /// robust refit.
    pub rejected_outliers: Vec<String>,
    /// 1-norm condition number of the (weighted) normal matrix.
    pub condition_number: f64,
    /// Whether the Tikhonov-ridge fallback was needed.
    pub used_ridge: bool,
    /// Parameters clamped at the numerical floor — recovered as
    /// non-positive, i.e. unidentifiable from the surviving probes.
    pub clamped_params: Vec<String>,
    /// Parameters whose values were interpolated from calibrated grid
    /// neighbors instead of fitted (set by the grid's degradation path).
    pub degraded_params: Vec<String>,
    /// True if the entire cell failed to calibrate and every parameter
    /// was interpolated from grid neighbors.
    pub degraded: bool,
    /// The error that forced a degraded cell onto the interpolation path
    /// (`None` for cells that fit on their own).
    pub failure: Option<String>,
}

impl CalibrationReport {
    /// An all-healthy report for `probes` probe measurements (the shape
    /// the single-shot, no-noise path produces).
    pub(crate) fn pristine(probes: Vec<ProbeStat>) -> CalibrationReport {
        CalibrationReport {
            probes,
            dropped_probes: 0,
            rejected_outliers: Vec::new(),
            condition_number: f64::NAN,
            used_ridge: false,
            clamped_params: Vec::new(),
            degraded_params: Vec::new(),
            degraded: false,
            failure: None,
        }
    }

    /// Total retries across all probes.
    pub fn total_retries(&self) -> usize {
        self.probes.iter().map(|p| p.retries).sum()
    }

    /// Total timeout faults across all probes.
    pub(crate) fn total_timeouts(&self) -> usize {
        self.probes.iter().map(|p| p.timeouts).sum()
    }

    /// True if nothing about this calibration needed a fallback: no
    /// drops, no rejected outliers, no ridge, no clamped or degraded
    /// parameters. Retries alone do not make a calibration unclean —
    /// recovered-by-retry is the expected steady state under faults.
    pub fn is_clean(&self) -> bool {
        self.dropped_probes == 0
            && self.rejected_outliers.is_empty()
            && !self.used_ridge
            && self.clamped_params.is_empty()
            && self.degraded_params.is_empty()
            && !self.degraded
    }
}

impl fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calibration: {} probes ({} dropped), {} retries ({} timeouts), \
             {} outliers rejected, cond {:.3e}{}{}{}",
            self.probes.len(),
            self.dropped_probes,
            self.total_retries(),
            self.total_timeouts(),
            self.rejected_outliers.len(),
            self.condition_number,
            if self.used_ridge { ", ridge" } else { "" },
            if self.clamped_params.is_empty() {
                String::new()
            } else {
                format!(", clamped: {}", self.clamped_params.join("+"))
            },
            if self.degraded {
                format!(
                    ", DEGRADED (all params from neighbors{})",
                    self.failure
                        .as_deref()
                        .map(|e| format!("; {e}"))
                        .unwrap_or_default()
                )
            } else if !self.degraded_params.is_empty() {
                format!(", degraded params: {}", self.degraded_params.join("+"))
            } else {
                String::new()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(retries: usize, timeouts: usize, dropped: bool) -> ProbeStat {
        ProbeStat {
            name: "p".to_string(),
            trials: 3,
            retries,
            timeouts,
            dropped,
            seconds: if dropped { f64::NAN } else { 1.0 },
        }
    }

    #[test]
    fn totals_and_cleanliness() {
        let mut r = CalibrationReport::pristine(vec![stat(2, 1, false), stat(1, 0, false)]);
        assert_eq!(r.total_retries(), 3);
        assert_eq!(r.total_timeouts(), 1);
        assert!(r.is_clean(), "retries alone are clean");
        r.used_ridge = true;
        assert!(!r.is_clean());
        r.used_ridge = false;
        r.clamped_params.push("cpu_index_tuple_cost".to_string());
        assert!(!r.is_clean());
    }

    #[test]
    fn display_mentions_the_interesting_bits() {
        let mut r = CalibrationReport::pristine(vec![stat(1, 0, false)]);
        r.rejected_outliers.push("wide_scan".to_string());
        r.used_ridge = true;
        r.degraded_params.push("random_page_cost".to_string());
        let s = r.to_string();
        assert!(s.contains("1 outliers rejected"), "{s}");
        assert!(s.contains("ridge"), "{s}");
        assert!(s.contains("random_page_cost"), "{s}");
    }
}
