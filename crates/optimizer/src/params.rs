//! The optimizer's environment-parameter vector `P`.
//!
//! These are the knobs the paper's calibration process solves for. The
//! names and defaults follow PostgreSQL 8.1 (`random_page_cost = 4`,
//! `cpu_tuple_cost = 0.01`, `cpu_index_tuple_cost = 0.005`,
//! `cpu_operator_cost = 0.0025`), all expressed — as the paper says — "as a
//! fraction of the cost of a sequential page fetch". The extra
//! `unit_seconds` field anchors that unit in (simulated) wall-clock time,
//! so workload cost estimates come out in seconds, which is what the
//! virtualization design problem minimizes.

use crate::OptError;
use std::fmt;
use std::ops::Deref;

/// The parameter vector `P`: everything the cost model knows about the
/// physical environment. One `P` per calibrated resource allocation `R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerParams {
    /// Seconds per sequential page fetch — the size of one cost unit.
    pub unit_seconds: f64,
    /// Cost of a sequential page fetch (1.0 by definition of the unit).
    pub seq_page_cost: f64,
    /// Cost of a random page fetch, relative to a sequential one.
    pub random_page_cost: f64,
    /// CPU cost of processing one tuple.
    pub cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple_cost: f64,
    /// CPU cost of evaluating one operator (one WHERE-clause item).
    pub cpu_operator_cost: f64,
    /// Pages of data expected to be cached (buffer pool + OS cache); drives
    /// the Mackert–Lohman discount on repeated index-scan heap fetches.
    pub effective_cache_size_pages: f64,
    /// Memory budget for sorts and hash tables, in bytes.
    pub work_mem_bytes: f64,
}

impl OptimizerParams {
    /// PostgreSQL 8.1 defaults, anchored to the paper-testbed disk
    /// (one 8 KiB sequential page fetch ≈ 98 µs at 80 MiB/s) with the
    /// whole machine allocated.
    pub fn postgres_defaults() -> OptimizerParams {
        OptimizerParams {
            unit_seconds: 8192.0 / (80.0 * 1024.0 * 1024.0),
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
            effective_cache_size_pages: 1000.0,
            work_mem_bytes: (1 << 20) as f64,
        }
    }

    /// The one check of `P`: every parameter finite and positive. Private,
    /// so that [`CheckedParams::new`] is the only way it runs.
    fn validate(&self) -> Result<(), OptError> {
        let fields = [
            ("unit_seconds", self.unit_seconds),
            ("seq_page_cost", self.seq_page_cost),
            ("random_page_cost", self.random_page_cost),
            ("cpu_tuple_cost", self.cpu_tuple_cost),
            ("cpu_index_tuple_cost", self.cpu_index_tuple_cost),
            ("cpu_operator_cost", self.cpu_operator_cost),
            (
                "effective_cache_size_pages",
                self.effective_cache_size_pages,
            ),
            ("work_mem_bytes", self.work_mem_bytes),
        ];
        for (name, value) in fields {
            if !(value.is_finite() && value > 0.0) {
                return Err(OptError::InvalidParams { name, value });
            }
        }
        Ok(())
    }

    /// Converts a cost in units into estimated seconds.
    pub(crate) fn units_to_seconds(&self, units: f64) -> f64 {
        units * self.unit_seconds
    }
}

impl Default for OptimizerParams {
    fn default() -> OptimizerParams {
        OptimizerParams::postgres_defaults()
    }
}

impl fmt::Display for OptimizerParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P{{unit={:.2}us, rand={:.2}, tup={:.5}, idx={:.5}, op={:.5}, ecs={:.0}pg, wm={:.0}KiB}}",
            self.unit_seconds * 1e6,
            self.random_page_cost,
            self.cpu_tuple_cost,
            self.cpu_index_tuple_cost,
            self.cpu_operator_cost,
            self.effective_cache_size_pages,
            self.work_mem_bytes / 1024.0,
        )
    }
}

/// A parameter vector that passed the check — every field finite and
/// positive — when it was made. Pricing takes this type, so it never checks
/// `P` again and cannot fail on it: a `P(R)` is checked once, where it is
/// calibrated, interpolated or loaded, and carried from there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckedParams(OptimizerParams);

impl CheckedParams {
    /// Checks `params`; [`OptError::InvalidParams`] names the first field
    /// that is not finite and positive.
    pub fn new(params: OptimizerParams) -> Result<CheckedParams, OptError> {
        params.validate()?;
        Ok(CheckedParams(params))
    }
}

impl Deref for CheckedParams {
    type Target = OptimizerParams;

    fn deref(&self) -> &OptimizerParams {
        &self.0
    }
}

impl fmt::Display for CheckedParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let p = OptimizerParams::postgres_defaults();
        assert_eq!(*CheckedParams::new(p).unwrap(), p);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = OptimizerParams::postgres_defaults();
        p.cpu_tuple_cost = 0.0;
        assert!(matches!(
            CheckedParams::new(p),
            Err(OptError::InvalidParams {
                name: "cpu_tuple_cost",
                ..
            })
        ));
        let mut p = OptimizerParams::postgres_defaults();
        p.unit_seconds = f64::NAN;
        assert!(CheckedParams::new(p).is_err());
    }

    #[test]
    fn unit_conversion() {
        let p = OptimizerParams::postgres_defaults();
        let s = p.units_to_seconds(1000.0);
        assert!((s - 1000.0 * p.unit_seconds).abs() < 1e-15);
    }

    #[test]
    fn pg_default_ratios_hold() {
        let p = OptimizerParams::postgres_defaults();
        assert_eq!(p.seq_page_cost, 1.0);
        assert_eq!(p.random_page_cost, 4.0);
        assert!((p.cpu_tuple_cost / p.cpu_operator_cost - 4.0).abs() < 1e-12);
    }
}
