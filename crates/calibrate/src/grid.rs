//! The calibration grid: `P(R)` precomputed over allocation space.
//!
//! The paper notes that `P` depends only on the machine and `R`, so it can
//! be calibrated off-line over a grid of allocations and reused for every
//! database and workload. This module implements that grid, its bilinear
//! interpolation for off-grid allocations (the paper's "reduce the number
//! of calibration experiments" next step), and a JSON cache so a machine
//! is calibrated once.
//!
//! Axes are CPU share × memory share, matching the knobs the paper's
//! experiments vary; the disk share is a fixed policy per grid (the 2007
//! Xen testbed could not throttle disk independently).
//!
//! ## One execution per process
//!
//! A probe's [`dbvirt_vmm::ResourceDemand`] depends on an allocation only
//! through the buffer-pool size and `work_mem`, both derived from the
//! memory share ([`DbVmConfig`]) — and those never change what the
//! execution does, only which of its page references miss and what its
//! sorts and joins spill. And the probes run over the process-wide
//! [`crate::ProbeDb::template`], which no machine, axis or robustness
//! setting reaches. So the suite is **profiled** once per process — 10
//! engine runs, on the caller's thread over the shared template — and a
//! sweep only **replays** those profiles under each distinct memory
//! configuration, then **prices** and fits all `C × M` cells from the
//! demands. A sweep is arithmetic: every axis of the grid is as free as a
//! cell, and so is the next grid. Fault injection is untouched: noise is
//! drawn per cell from the priced seconds, never from the execution.
//!
//! ## Graceful degradation
//!
//! Under fault injection (or on a real, flaky VM) individual grid cells
//! can fail to calibrate: too many probes dropped, a singular system, or
//! a non-physical fit. [`CalibrationGrid::calibrate_with_config`] does not
//! fail the whole sweep for one bad cell. Instead it applies the last rung
//! of the degradation ladder:
//!
//! * a cell whose own fit *succeeded* but left parameters clamped at the
//!   numerical floor gets those parameters re-filled by averaging the
//!   nearest cells that identified them, and the parameter names move to
//!   [`CalibrationReport::degraded_params`];
//! * a cell whose fit *failed* outright gets every measured parameter
//!   averaged from the nearest healthy cells, its memory-derived settings
//!   recomputed from the deployment policy (those never need measurement),
//!   and its report marked [`CalibrationReport::degraded`] with the
//!   original error preserved in [`CalibrationReport::failure`].
//!
//! Only if *every* cell fails does the sweep return an error. Per-cell
//! health is kept alongside the parameters, serialized in the JSON cache,
//! and summarized by [`CalibrationGrid::health`].

use crate::json::Json;
use crate::report::CalibrationReport;
use crate::runner::{calibrate_cell, vm_and_config, CalibrationConfig, ProbeSuite};
use crate::vmdb::DbVmConfig;
use crate::CalError;
use dbvirt_optimizer::{CheckedParams, OptimizerParams};
use dbvirt_vmm::{MachineSpec, ResourceVector};
use std::fmt;

/// The parameters the probe system actually measures (everything else in
/// [`OptimizerParams`] is policy-derived from the memory share).
const MEASURED_PARAMS: [&str; 5] = [
    "unit_seconds",
    "random_page_cost",
    "cpu_tuple_cost",
    "cpu_index_tuple_cost",
    "cpu_operator_cost",
];

fn get_param(p: &OptimizerParams, name: &str) -> f64 {
    match name {
        "unit_seconds" => p.unit_seconds,
        "random_page_cost" => p.random_page_cost,
        "cpu_tuple_cost" => p.cpu_tuple_cost,
        "cpu_index_tuple_cost" => p.cpu_index_tuple_cost,
        "cpu_operator_cost" => p.cpu_operator_cost,
        other => unreachable!("unknown measured parameter {other}"),
    }
}

fn set_param(p: &mut OptimizerParams, name: &str, v: f64) {
    match name {
        "unit_seconds" => p.unit_seconds = v,
        "random_page_cost" => p.random_page_cost = v,
        "cpu_tuple_cost" => p.cpu_tuple_cost = v,
        "cpu_index_tuple_cost" => p.cpu_index_tuple_cost = v,
        "cpu_operator_cost" => p.cpu_operator_cost = v,
        other => unreachable!("unknown measured parameter {other}"),
    }
}

/// Errors a single cell may recover from by neighbor interpolation;
/// anything else (engine failures, bad axes) aborts the sweep.
fn degradable(e: &CalError) -> bool {
    matches!(
        e,
        CalError::InsufficientProbes { .. }
            | CalError::SingularSystem
            | CalError::BadParameter { .. }
    )
}

/// Aggregate health of a calibrated grid, for callers who want one line
/// instead of a per-cell report matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct GridHealth {
    /// Total grid cells.
    pub cells: usize,
    /// Cells whose calibration needed no fallback at all.
    pub clean_cells: usize,
    /// Cells that failed outright and were fully interpolated from
    /// neighbors.
    pub degraded_cells: usize,
    /// Cells with at least one neighbor-interpolated parameter (includes
    /// the fully degraded ones).
    pub cells_with_degraded_params: usize,
    /// Cells whose fit needed the Tikhonov-ridge fallback.
    pub ridge_cells: usize,
    /// Retries spent recovering transient probe faults, summed over cells.
    pub total_retries: usize,
    /// Probe timeouts observed, summed over cells.
    pub total_timeouts: usize,
    /// Outlier equations rejected by the robust refit, summed over cells.
    pub total_rejected_outliers: usize,
    /// Probes that contributed no equation, summed over cells.
    pub total_dropped_probes: usize,
}

impl GridHealth {
    /// True if every cell calibrated without any fallback.
    pub fn is_clean(&self) -> bool {
        self.clean_cells == self.cells
    }
}

impl fmt::Display for GridHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid health: {}/{} cells clean, {} degraded, {} with interpolated params, \
             {} ridge; {} retries, {} timeouts, {} outliers rejected, {} probes dropped",
            self.clean_cells,
            self.cells,
            self.degraded_cells,
            self.cells_with_degraded_params,
            self.ridge_cells,
            self.total_retries,
            self.total_timeouts,
            self.total_rejected_outliers,
            self.total_dropped_probes,
        )
    }
}

/// A calibrated `P(R)` surface over CPU × memory shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationGrid {
    machine: MachineSpec,
    cpu_points: Vec<f64>,
    mem_points: Vec<f64>,
    disk_share: f64,
    /// `entries[ci][mi]` is the calibration at `(cpu_points[ci],
    /// mem_points[mi])`.
    entries: Vec<Vec<CheckedParams>>,
    /// `reports[ci][mi]` is the health report for the same cell.
    reports: Vec<Vec<CalibrationReport>>,
}

/// What is wrong with a grid's axes or disk share, if anything. Shared by
/// the sweep (→ [`CalError::InvalidGrid`]) and the cache loader (→
/// [`CalError::CacheIo`]).
fn validate_grid_args(
    cpu_points: &[f64],
    mem_points: &[f64],
    disk_share: f64,
) -> Result<(), String> {
    for (points, axis) in [(cpu_points, "cpu"), (mem_points, "memory")] {
        if points.is_empty() {
            return Err(format!("{axis} axis is empty"));
        }
        let sorted = points.windows(2).all(|w| w[0] < w[1]);
        let in_range = points.iter().all(|&p| p > 0.0 && p <= 1.0);
        if !sorted || !in_range {
            return Err(format!(
                "{axis} axis must be strictly increasing within (0, 1]"
            ));
        }
    }
    if !(disk_share > 0.0 && disk_share <= 1.0) {
        return Err(format!("disk share {disk_share} out of range"));
    }
    Ok(())
}

/// Locates `v` on an axis: returns `(lower index, interpolation weight)`.
fn bracket(points: &[f64], v: f64, axis: &'static str) -> Result<(usize, f64), CalError> {
    let eps = 1e-9;
    if v < points[0] - eps || v > points[points.len() - 1] + eps {
        return Err(CalError::OutOfGrid { value: v, axis });
    }
    if points.len() == 1 {
        return Ok((0, 0.0));
    }
    let hi = points
        .partition_point(|&p| p < v)
        .min(points.len() - 1)
        .max(1);
    let lo = hi - 1;
    let t = ((v - points[lo]) / (points[hi] - points[lo])).clamp(0.0, 1.0);
    Ok((lo, t))
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

fn lerp_params(a: &OptimizerParams, b: &OptimizerParams, t: f64) -> OptimizerParams {
    OptimizerParams {
        unit_seconds: lerp(a.unit_seconds, b.unit_seconds, t),
        // `seq_page_cost` is pinned to 1 by the calibration solver, but the
        // grid must not assume that: a cache file or hand-built grid can
        // carry rescaled endpoints, and resetting the interpolant to 1.0
        // would silently break `cost * unit_seconds` consistency.
        seq_page_cost: lerp(a.seq_page_cost, b.seq_page_cost, t),
        random_page_cost: lerp(a.random_page_cost, b.random_page_cost, t),
        cpu_tuple_cost: lerp(a.cpu_tuple_cost, b.cpu_tuple_cost, t),
        cpu_index_tuple_cost: lerp(a.cpu_index_tuple_cost, b.cpu_index_tuple_cost, t),
        cpu_operator_cost: lerp(a.cpu_operator_cost, b.cpu_operator_cost, t),
        effective_cache_size_pages: lerp(
            a.effective_cache_size_pages,
            b.effective_cache_size_pages,
            t,
        ),
        work_mem_bytes: lerp(a.work_mem_bytes, b.work_mem_bytes, t),
    }
}

/// The donors nearest to `(c, m)` in index space (Manhattan distance; all
/// donors at the minimum distance, so corners and edges average
/// symmetrically). Empty if `donors` is empty.
fn nearest_donors(donors: &[(usize, usize)], c: usize, m: usize) -> Vec<(usize, usize)> {
    let dist = |&(x, y): &(usize, usize)| x.abs_diff(c) + y.abs_diff(m);
    let Some(min) = donors.iter().map(dist).min() else {
        return Vec::new();
    };
    donors.iter().filter(|d| dist(d) == min).copied().collect()
}

impl CalibrationGrid {
    /// Calibrates a grid with clean single-shot measurements.
    pub fn calibrate(
        machine: MachineSpec,
        cpu_points: Vec<f64>,
        mem_points: Vec<f64>,
        disk_share: f64,
    ) -> Result<CalibrationGrid, CalError> {
        CalibrationGrid::calibrate_with_config(
            machine,
            cpu_points,
            mem_points,
            disk_share,
            &CalibrationConfig::default(),
        )
    }

    /// Calibrates a grid under an explicit robustness/fault configuration,
    /// with per-cell graceful degradation (see the module docs). Every cell
    /// is priced from a replay of the process-wide probe suite's one
    /// execution.
    pub fn calibrate_with_config(
        machine: MachineSpec,
        cpu_points: Vec<f64>,
        mem_points: Vec<f64>,
        disk_share: f64,
        rcfg: &CalibrationConfig,
    ) -> Result<CalibrationGrid, CalError> {
        validate_grid_args(&cpu_points, &mem_points, disk_share)
            .map_err(|reason| CalError::InvalidGrid { reason })?;

        let mut sweep_span = dbvirt_telemetry::span("calibrate.grid_sweep");
        sweep_span.set_attr("cells", cpu_points.len() * mem_points.len());

        // Every cell's allocation, row-major, and the distinct memory
        // configurations among them (one per memory point: CPU and disk
        // shares do not reach `DbVmConfig`).
        let mut cells: Vec<(usize, usize, ResourceVector)> = Vec::new();
        let mut configs: Vec<DbVmConfig> = Vec::new();
        for (c, &cpu) in cpu_points.iter().enumerate() {
            for (m, &mem) in mem_points.iter().enumerate() {
                let shares = ResourceVector::from_fractions(cpu, mem, disk_share)
                    .map_err(|e| CalError::probe_failed("<shares>", e))?;
                let (_, cfg) = vm_and_config(machine, shares)?;
                if !configs.contains(&cfg) {
                    configs.push(cfg);
                }
                cells.push((c, m, shares));
            }
        }

        // The suite's executions are the process's, not this sweep's; one
        // replay of them per configuration.
        let suite = ProbeSuite::template()?;
        let probes = &suite.probes;
        let memo = suite.replay(configs)?;

        // Price and fit: pure arithmetic per cell, in row-major order.
        let default = CalError::checked(OptimizerParams::postgres_defaults())?;
        let mut entries = vec![vec![default; mem_points.len()]; cpu_points.len()];
        let mut reports =
            vec![vec![CalibrationReport::pristine(Vec::new()); mem_points.len()]; cpu_points.len()];
        let mut healthy: Vec<(usize, usize)> = Vec::new();
        let mut failed: Vec<(usize, usize, ResourceVector, CalError)> = Vec::new();
        for (c, m, shares) in cells {
            match calibrate_cell(machine, shares, probes, &memo, rcfg) {
                Ok(cal) => {
                    entries[c][m] = cal.params;
                    reports[c][m] = cal.report;
                    healthy.push((c, m));
                }
                // Degradable failures are per-cell data, not sweep-enders;
                // anything else aborts.
                Err(e) if degradable(&e) => failed.push((c, m, shares, e)),
                Err(e) => return Err(e),
            }
        }
        if healthy.is_empty() {
            // No rung of the ladder left: every cell failed, so report the
            // first failure (row-major order) as the sweep's error.
            let (_, _, _, e) = failed
                .into_iter()
                .next()
                .expect("a non-empty grid has at least one cell");
            return Err(e);
        }

        // Rung 4a: parameters a healthy cell could not identify (clamped at
        // the floor) are re-filled from the nearest cells that did identify
        // them.
        for &(c, m) in &healthy {
            let clamped = reports[c][m].clamped_params.clone();
            for name in clamped {
                let donors: Vec<(usize, usize)> = healthy
                    .iter()
                    .filter(|&&(dc, dm)| {
                        (dc, dm) != (c, m) && !reports[dc][dm].clamped_params.contains(&name)
                    })
                    .copied()
                    .collect();
                let nearest = nearest_donors(&donors, c, m);
                if nearest.is_empty() {
                    continue; // nobody identified it; the floor stands
                }
                let mean = nearest
                    .iter()
                    .map(|&(dc, dm)| get_param(&entries[dc][dm], &name))
                    .sum::<f64>()
                    / nearest.len() as f64;
                let mut p = *entries[c][m];
                set_param(&mut p, &name, mean);
                entries[c][m] = CalError::checked(p)?;
                reports[c][m].degraded_params.push(name);
            }
        }

        // Rung 4b: cells that failed outright get every measured parameter
        // from their nearest healthy neighbors; memory-derived settings are
        // recomputed from the deployment policy, which needs no
        // measurement.
        for (c, m, shares, err) in failed {
            let nearest = nearest_donors(&healthy, c, m);
            let mut p = OptimizerParams::postgres_defaults();
            for name in MEASURED_PARAMS {
                let mean = nearest
                    .iter()
                    .map(|&(dc, dm)| get_param(&entries[dc][dm], name))
                    .sum::<f64>()
                    / nearest.len() as f64;
                set_param(&mut p, name, mean);
            }
            p.seq_page_cost = 1.0;
            let (_, cfg) = vm_and_config(machine, shares)?;
            p.effective_cache_size_pages = cfg.effective_cache_pages as f64;
            p.work_mem_bytes = cfg.work_mem_bytes as f64;
            entries[c][m] = CalError::checked(p)?;
            reports[c][m] = CalibrationReport {
                probes: Vec::new(),
                dropped_probes: 0,
                rejected_outliers: Vec::new(),
                condition_number: f64::INFINITY,
                used_ridge: false,
                clamped_params: Vec::new(),
                degraded_params: MEASURED_PARAMS.iter().map(|s| s.to_string()).collect(),
                degraded: true,
                failure: Some(err.to_string()),
            };
        }

        Ok(CalibrationGrid {
            machine,
            cpu_points,
            mem_points,
            disk_share,
            entries,
            reports,
        })
    }

    /// The machine this grid was calibrated on.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The fixed disk share used for calibration.
    pub fn disk_share(&self) -> f64 {
        self.disk_share
    }

    /// Grid axes.
    pub fn axes(&self) -> (&[f64], &[f64]) {
        (&self.cpu_points, &self.mem_points)
    }

    /// Number of calibrated grid points.
    pub(crate) fn num_points(&self) -> usize {
        self.cpu_points.len() * self.mem_points.len()
    }

    /// The calibrated `P` for allocation `shares`, with bilinear
    /// interpolation between grid points. The disk share of `shares` is
    /// accepted if it matches the grid's policy (within 1e-6); otherwise
    /// an [`CalError::OutOfGrid`] is returned. The interpolant is checked:
    /// a blend of two valid points can round a field to 0, which is a
    /// [`CalError::BadParameter`].
    pub fn params_for(&self, shares: ResourceVector) -> Result<CheckedParams, CalError> {
        if (shares.disk().fraction() - self.disk_share).abs() > 1e-6 {
            return Err(CalError::OutOfGrid {
                value: shares.disk().fraction(),
                axis: "disk",
            });
        }
        let (ci, ct) = bracket(&self.cpu_points, shares.cpu().fraction(), "cpu")?;
        let (mi, mt) = bracket(&self.mem_points, shares.memory().fraction(), "memory")?;
        let ci2 = (ci + 1).min(self.cpu_points.len() - 1);
        let mi2 = (mi + 1).min(self.mem_points.len() - 1);
        let low = lerp_params(&self.entries[ci][mi], &self.entries[ci][mi2], mt);
        let high = lerp_params(&self.entries[ci2][mi], &self.entries[ci2][mi2], mt);
        CalError::checked(lerp_params(&low, &high, ct))
    }

    /// The exact calibrated parameters at a grid point (no interpolation).
    pub fn at_point(&self, cpu_idx: usize, mem_idx: usize) -> &CheckedParams {
        &self.entries[cpu_idx][mem_idx]
    }

    /// The health report at a grid point.
    pub fn report_at(&self, cpu_idx: usize, mem_idx: usize) -> &CalibrationReport {
        &self.reports[cpu_idx][mem_idx]
    }

    /// Aggregate health over every cell.
    pub fn health(&self) -> GridHealth {
        let all = self.reports.iter().flatten();
        let mut h = GridHealth {
            cells: self.num_points(),
            clean_cells: 0,
            degraded_cells: 0,
            cells_with_degraded_params: 0,
            ridge_cells: 0,
            total_retries: 0,
            total_timeouts: 0,
            total_rejected_outliers: 0,
            total_dropped_probes: 0,
        };
        for r in all {
            h.clean_cells += usize::from(r.is_clean());
            h.degraded_cells += usize::from(r.degraded);
            h.cells_with_degraded_params += usize::from(!r.degraded_params.is_empty());
            h.ridge_cells += usize::from(r.used_ridge);
            h.total_retries += r.total_retries();
            h.total_timeouts += r.total_timeouts();
            h.total_rejected_outliers += r.rejected_outliers.len();
            h.total_dropped_probes += r.dropped_probes;
        }
        h
    }

    /// Serializes the grid (parameters and per-cell health) to JSON.
    pub fn to_json(&self) -> Result<String, CalError> {
        let doc = Json::obj([
            ("machine", machine_to_json(&self.machine)),
            ("cpu_points", f64s_to_json(&self.cpu_points)),
            ("mem_points", f64s_to_json(&self.mem_points)),
            ("disk_share", Json::Num(self.disk_share)),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(params_to_json).collect()))
                        .collect(),
                ),
            ),
            (
                "reports",
                Json::Arr(
                    self.reports
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(report_to_json).collect()))
                        .collect(),
                ),
            ),
        ]);
        Ok(doc.pretty())
    }

    /// Deserializes a grid from JSON, as [`CalibrationGrid::to_json`] wrote
    /// it: a document missing a field, `"reports"` included, is a
    /// [`CalError::CacheIo`].
    pub fn from_json(json: &str) -> Result<CalibrationGrid, CalError> {
        let bad = |reason: String| CalError::CacheIo { reason };
        let doc = Json::parse(json).map_err(bad)?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing entries".to_string()))?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or_else(|| bad("entries row is not an array".to_string()))?
                    .iter()
                    .map(params_from_json)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<Vec<_>>, _>>()?;
        let reports = doc
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing reports".to_string()))?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or_else(|| bad("reports row is not an array".to_string()))?
                    .iter()
                    .map(report_from_json)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<Vec<_>>, _>>()?;
        let shape_ok = reports.len() == entries.len()
            && reports
                .iter()
                .zip(&entries)
                .all(|(r, e)| r.len() == e.len());
        if !shape_ok {
            return Err(bad("reports shape does not match entries".to_string()));
        }
        // A cache is only as trustworthy as its file: hold it to the same
        // axis rules as a sweep, and the matrices to the axes, so lookups
        // can index without checking.
        let cpu_points = f64s_from_json(&doc, "cpu_points")?;
        let mem_points = f64s_from_json(&doc, "mem_points")?;
        let disk_share = get_num(&doc, "disk_share")?;
        validate_grid_args(&cpu_points, &mem_points, disk_share).map_err(bad)?;
        if entries.len() != cpu_points.len() || entries.iter().any(|r| r.len() != mem_points.len())
        {
            return Err(bad(format!(
                "entries are not {} x {} like the axes",
                cpu_points.len(),
                mem_points.len()
            )));
        }
        Ok(CalibrationGrid {
            machine: machine_from_json(
                doc.get("machine")
                    .ok_or_else(|| bad("missing machine".to_string()))?,
            )?,
            cpu_points,
            mem_points,
            disk_share,
            entries,
            reports,
        })
    }
}

fn get_num(obj: &Json, key: &str) -> Result<f64, CalError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| CalError::CacheIo {
            reason: format!("missing or non-numeric field {key:?}"),
        })
}

fn f64s_to_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn f64s_from_json(obj: &Json, key: &str) -> Result<Vec<f64>, CalError> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CalError::CacheIo {
            reason: format!("missing array field {key:?}"),
        })?
        .iter()
        .map(|v| {
            v.as_f64().ok_or_else(|| CalError::CacheIo {
                reason: format!("non-numeric element in {key:?}"),
            })
        })
        .collect()
}

/// Serializes an `f64` that may legitimately be non-finite (condition
/// numbers, dropped-probe seconds). JSON has no NaN/Inf, so those are
/// tagged strings; plain numbers stay numbers.
fn special_num_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("nan".to_string())
    } else if v > 0.0 {
        Json::Str("inf".to_string())
    } else {
        Json::Str("-inf".to_string())
    }
}

fn special_num_from_json(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "nan" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

fn strings_to_json(values: &[String]) -> Json {
    Json::Arr(values.iter().map(|s| Json::Str(s.clone())).collect())
}

fn strings_from_json(obj: &Json, key: &str) -> Result<Vec<String>, CalError> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CalError::CacheIo {
            reason: format!("missing array field {key:?}"),
        })?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| CalError::CacheIo {
                    reason: format!("non-string element in {key:?}"),
                })
        })
        .collect()
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, CalError> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| CalError::CacheIo {
            reason: format!("missing or non-boolean field {key:?}"),
        })
}

fn report_to_json(r: &CalibrationReport) -> Json {
    Json::obj([
        (
            "probes",
            Json::Arr(
                r.probes
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::Str(p.name.clone())),
                            ("trials", Json::Num(p.trials as f64)),
                            ("retries", Json::Num(p.retries as f64)),
                            ("timeouts", Json::Num(p.timeouts as f64)),
                            ("dropped", Json::Bool(p.dropped)),
                            ("seconds", special_num_to_json(p.seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("dropped_probes", Json::Num(r.dropped_probes as f64)),
        ("rejected_outliers", strings_to_json(&r.rejected_outliers)),
        ("condition_number", special_num_to_json(r.condition_number)),
        ("used_ridge", Json::Bool(r.used_ridge)),
        ("clamped_params", strings_to_json(&r.clamped_params)),
        ("degraded_params", strings_to_json(&r.degraded_params)),
        ("degraded", Json::Bool(r.degraded)),
        (
            "failure",
            match &r.failure {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
    ])
}

fn report_from_json(doc: &Json) -> Result<CalibrationReport, CalError> {
    let bad = |reason: String| CalError::CacheIo { reason };
    let probes = doc
        .get("probes")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("report missing probes".to_string()))?
        .iter()
        .map(|p| {
            Ok(crate::report::ProbeStat {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("probe stat missing name".to_string()))?
                    .to_string(),
                trials: get_num(p, "trials")? as usize,
                retries: get_num(p, "retries")? as usize,
                timeouts: get_num(p, "timeouts")? as usize,
                dropped: get_bool(p, "dropped")?,
                seconds: p
                    .get("seconds")
                    .and_then(special_num_from_json)
                    .ok_or_else(|| bad("probe stat missing seconds".to_string()))?,
            })
        })
        .collect::<Result<Vec<_>, CalError>>()?;
    Ok(CalibrationReport {
        probes,
        dropped_probes: get_num(doc, "dropped_probes")? as usize,
        rejected_outliers: strings_from_json(doc, "rejected_outliers")?,
        condition_number: doc
            .get("condition_number")
            .and_then(special_num_from_json)
            .ok_or_else(|| bad("report missing condition_number".to_string()))?,
        used_ridge: get_bool(doc, "used_ridge")?,
        clamped_params: strings_from_json(doc, "clamped_params")?,
        degraded_params: strings_from_json(doc, "degraded_params")?,
        degraded: get_bool(doc, "degraded")?,
        failure: match doc.get("failure") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| bad("failure is not a string".to_string()))?
                    .to_string(),
            ),
        },
    })
}

fn machine_to_json(m: &MachineSpec) -> Json {
    Json::obj([
        ("cores", Json::Num(m.cores as f64)),
        ("cycles_per_sec", Json::Num(m.cycles_per_sec)),
        ("memory_bytes", Json::Num(m.memory_bytes as f64)),
        (
            "disk_seq_bytes_per_sec",
            Json::Num(m.disk_seq_bytes_per_sec),
        ),
        ("disk_random_iops", Json::Num(m.disk_random_iops)),
        ("page_size", Json::Num(m.page_size as f64)),
    ])
}

fn machine_from_json(doc: &Json) -> Result<MachineSpec, CalError> {
    Ok(MachineSpec {
        cores: get_num(doc, "cores")? as u32,
        cycles_per_sec: get_num(doc, "cycles_per_sec")?,
        memory_bytes: get_num(doc, "memory_bytes")? as u64,
        disk_seq_bytes_per_sec: get_num(doc, "disk_seq_bytes_per_sec")?,
        disk_random_iops: get_num(doc, "disk_random_iops")?,
        page_size: get_num(doc, "page_size")? as u32,
    })
}

fn params_to_json(p: &CheckedParams) -> Json {
    Json::obj([
        ("unit_seconds", Json::Num(p.unit_seconds)),
        ("seq_page_cost", Json::Num(p.seq_page_cost)),
        ("random_page_cost", Json::Num(p.random_page_cost)),
        ("cpu_tuple_cost", Json::Num(p.cpu_tuple_cost)),
        ("cpu_index_tuple_cost", Json::Num(p.cpu_index_tuple_cost)),
        ("cpu_operator_cost", Json::Num(p.cpu_operator_cost)),
        (
            "effective_cache_size_pages",
            Json::Num(p.effective_cache_size_pages),
        ),
        ("work_mem_bytes", Json::Num(p.work_mem_bytes)),
    ])
}

/// One cache entry, held to the check a calibrated `P` passes: a field that
/// is not finite and positive is a [`CalError::CacheIo`] here, not an
/// [`dbvirt_optimizer::OptError::InvalidParams`] at some later price.
fn params_from_json(doc: &Json) -> Result<CheckedParams, CalError> {
    let params = OptimizerParams {
        unit_seconds: get_num(doc, "unit_seconds")?,
        seq_page_cost: get_num(doc, "seq_page_cost")?,
        random_page_cost: get_num(doc, "random_page_cost")?,
        cpu_tuple_cost: get_num(doc, "cpu_tuple_cost")?,
        cpu_index_tuple_cost: get_num(doc, "cpu_index_tuple_cost")?,
        cpu_operator_cost: get_num(doc, "cpu_operator_cost")?,
        effective_cache_size_pages: get_num(doc, "effective_cache_size_pages")?,
        work_mem_bytes: get_num(doc, "work_mem_bytes")?,
    };
    CheckedParams::new(params).map_err(|e| CalError::CacheIo {
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeDb;
    use dbvirt_vmm::{FaultInjector, NoiseModel};

    fn small_grid() -> CalibrationGrid {
        CalibrationGrid::calibrate(
            MachineSpec::paper_testbed(),
            vec![0.25, 0.5, 0.75],
            vec![0.25, 0.75],
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn grid_points_and_interpolation() {
        let grid = small_grid();
        assert_eq!(grid.num_points(), 6);
        // Exact at a grid point.
        let at = grid
            .params_for(ResourceVector::from_fractions(0.5, 0.25, 0.5).unwrap())
            .unwrap();
        assert!((at.cpu_tuple_cost - grid.at_point(1, 0).cpu_tuple_cost).abs() < 1e-12);
        // Between points: bounded by the corners, monotone in CPU.
        let mid = grid
            .params_for(ResourceVector::from_fractions(0.375, 0.25, 0.5).unwrap())
            .unwrap();
        let lo = grid.at_point(0, 0).cpu_tuple_cost;
        let hi = grid.at_point(1, 0).cpu_tuple_cost;
        assert!(mid.cpu_tuple_cost <= lo.max(hi) && mid.cpu_tuple_cost >= lo.min(hi));
    }

    #[test]
    fn cpu_tuple_cost_decreases_with_cpu_share() {
        let grid = small_grid();
        let c25 = grid.at_point(0, 0).cpu_tuple_cost;
        let c50 = grid.at_point(1, 0).cpu_tuple_cost;
        let c75 = grid.at_point(2, 0).cpu_tuple_cost;
        assert!(c25 > c50 && c50 > c75, "{c25} > {c50} > {c75} expected");
    }

    #[test]
    fn clean_sweep_reports_clean_health() {
        let grid = small_grid();
        let h = grid.health();
        assert!(h.is_clean(), "{h}");
        assert_eq!(h.cells, 6);
        assert_eq!(h.degraded_cells, 0);
        assert_eq!(h.total_retries, 0);
        for c in 0..3 {
            for m in 0..2 {
                assert!(grid.report_at(c, m).is_clean());
            }
        }
    }

    #[test]
    fn out_of_grid_is_an_error() {
        let grid = small_grid();
        let err = grid
            .params_for(ResourceVector::from_fractions(0.9, 0.5, 0.5).unwrap())
            .unwrap_err();
        assert!(matches!(err, CalError::OutOfGrid { axis: "cpu", .. }));
        let err = grid
            .params_for(ResourceVector::from_fractions(0.5, 0.5, 0.9).unwrap())
            .unwrap_err();
        assert!(matches!(err, CalError::OutOfGrid { axis: "disk", .. }));
    }

    #[test]
    fn lerp_interpolates_every_parameter() {
        // Regression: `lerp_params` used to hard-reset `seq_page_cost` to
        // 1.0, silently discarding rescaled endpoints.
        let mut a = OptimizerParams::postgres_defaults();
        let mut b = OptimizerParams::postgres_defaults();
        a.seq_page_cost = 0.8;
        b.seq_page_cost = 1.6;
        a.random_page_cost = 2.0;
        b.random_page_cost = 6.0;
        let mid = lerp_params(&a, &b, 0.25);
        assert!((mid.seq_page_cost - 1.0).abs() < 1e-12);
        assert!((mid.random_page_cost - 3.0).abs() < 1e-12);
        // t = 0 and t = 1 reproduce the endpoints exactly.
        assert_eq!(lerp_params(&a, &b, 0.0), a);
        assert_eq!(lerp_params(&a, &b, 1.0), b);
        // A midpoint of 0.25 would have been the *wrong* answer under the
        // old behavior only by luck; check an asymmetric case too.
        let q = lerp_params(&a, &b, 0.75);
        assert!((q.seq_page_cost - 1.4).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let grid = small_grid();
        let json = grid.to_json().unwrap();
        let back = CalibrationGrid::from_json(&json).unwrap();
        assert_eq!(grid, back);
    }

    #[test]
    fn invalid_axes_are_rejected() {
        let m = MachineSpec::tiny();
        for (cpu, mem, disk) in [
            (vec![], vec![0.5], 0.5),
            (vec![0.5, 0.25], vec![0.5], 0.5),
            (vec![0.5], vec![0.5, 1.5], 0.5),
            (vec![0.5], vec![0.5], 0.0),
        ] {
            let err = CalibrationGrid::calibrate(m, cpu, mem, disk).unwrap_err();
            // A bad request is not a cache problem.
            assert!(matches!(err, CalError::InvalidGrid { .. }), "{err}");
        }
    }

    #[test]
    fn malformed_caches_are_typed_errors_not_panics() {
        let doc = Json::parse(&small_grid().to_json().unwrap()).unwrap();
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let nums = |v: &[f64]| f64s_to_json(v);
        // The valid cache with one top-level field replaced.
        let tampered = |field: &str, value: Json| {
            let mut doc = doc.clone();
            if let Json::Obj(m) = &mut doc {
                m.insert(field.to_string(), value);
            }
            doc.pretty()
        };

        // Short `entries` (a truncated file) and a ragged row.
        let mut short = rows("entries");
        short.pop();
        let mut ragged = rows("entries");
        if let Json::Arr(row) = &mut ragged[1] {
            row.pop();
        }
        // `reports` must follow the axes too, not just `entries`.
        let mut short_reports = rows("reports");
        short_reports.pop();
        // One entry's parameter set to `v`: a cache holding a `P` that
        // pricing would refuse is refused at load.
        let entry_with = |key: &str, v: f64| {
            let mut entries = rows("entries");
            if let Json::Arr(row) = &mut entries[1] {
                if let Json::Obj(m) = &mut row[0] {
                    m.insert(key.to_string(), Json::Num(v));
                }
            }
            Json::Arr(entries)
        };
        for (field, value) in [
            ("entries", entry_with("cpu_tuple_cost", 0.0)),
            ("entries", entry_with("unit_seconds", -1e-4)),
            ("entries", entry_with("work_mem_bytes", f64::NAN)),
            // A placeholder the text below turns into an infinite literal.
            ("entries", entry_with("random_page_cost", 12345.5)),
            ("entries", Json::Arr(short)),
            ("entries", Json::Arr(ragged)),
            ("reports", Json::Arr(short_reports)),
            ("reports", Json::Null),
            // Unsorted, longer than `entries`, empty, out of range.
            ("cpu_points", nums(&[0.5, 0.25, 0.75])),
            ("mem_points", nums(&[0.25, 0.5, 0.75])),
            ("mem_points", nums(&[])),
            ("cpu_points", nums(&[0.25, 0.5, 1.5])),
            ("disk_share", Json::Num(0.0)),
        ] {
            let shown = value.pretty();
            let text = tampered(field, value).replace("12345.5", "1e999");
            let err = CalibrationGrid::from_json(&text).unwrap_err();
            assert!(
                matches!(err, CalError::CacheIo { .. }),
                "{field} = {shown}: {err}"
            );
        }
        // A field the writer always writes, removed — `reports` too, which
        // no writer has left out since per-cell health reporting exists.
        for field in ["reports", "entries", "cpu_points", "machine"] {
            let mut doc = doc.clone();
            if let Json::Obj(m) = &mut doc {
                m.remove(field);
            }
            let err = CalibrationGrid::from_json(&doc.pretty()).unwrap_err();
            assert!(matches!(err, CalError::CacheIo { .. }), "no {field}: {err}");
        }
    }

    /// A 4×4 sweep's axes.
    fn axis4() -> Vec<f64> {
        vec![0.2, 0.4, 0.6, 0.8]
    }

    #[test]
    fn memoized_sweep_equals_per_cell_calibration() {
        // The sweep prices 16 cells from the process-wide suite's one
        // execution; calibrating each cell on its own, on a freshly built
        // database, executes everything again. Same bits either way,
        // clean and under fault injection (noise is drawn per cell from the
        // priced seconds).
        let machine = MachineSpec::paper_testbed();
        let injector = FaultInjector::new(NoiseModel::uniform_jitter(0.10).with_failures(0.2), 17);
        for rcfg in [
            CalibrationConfig::default(),
            CalibrationConfig::robust().with_injector(injector),
        ] {
            let grid =
                CalibrationGrid::calibrate_with_config(machine, axis4(), axis4(), 0.5, &rcfg)
                    .unwrap();
            let pdb = ProbeDb::build().unwrap();
            for (c, &cpu) in axis4().iter().enumerate() {
                for (m, &mem) in axis4().iter().enumerate() {
                    let report = grid.report_at(c, m);
                    assert!(
                        report.degraded_params.is_empty(),
                        "cell ({c}, {m}) was neighbor-filled, so it cannot be compared: {report}"
                    );
                    let shares = ResourceVector::from_fractions(cpu, mem, 0.5).unwrap();
                    let cell =
                        crate::runner::calibrate_with_config(&pdb, machine, shares, &rcfg).unwrap();
                    assert_eq!(*grid.at_point(c, m), cell.params, "cell ({c}, {m})");
                    assert_eq!(
                        report_to_json(report).pretty(),
                        report_to_json(&cell.report).pretty(),
                        "cell ({c}, {m})"
                    );
                }
            }
            if rcfg.injector.is_some() {
                let retries = grid.health().total_retries;
                assert!(retries > 0, "the injector must have bitten");
            }
        }
    }

    #[test]
    fn probe_database_is_built_once_per_process() {
        use std::sync::atomic::Ordering;
        small_grid();
        small_grid();
        crate::calibrate(
            MachineSpec::paper_testbed(),
            ResourceVector::from_fractions(0.5, 0.5, 0.5).unwrap(),
        )
        .unwrap();
        assert_eq!(crate::probedb::TEMPLATE_BUILDS.load(Ordering::Relaxed), 1);
        // And what the sweeps cloned is the database a fresh build gives.
        let template = ProbeDb::template().unwrap();
        let fresh = ProbeDb::build().unwrap();
        assert_eq!(template.db.total_pages(), fresh.db.total_pages());
        assert_eq!(
            template.db.table(template.narrow).stats,
            fresh.db.table(fresh.narrow).stats
        );
    }

    #[test]
    fn nearest_donor_selection_is_symmetric() {
        let donors = vec![(0, 0), (0, 2), (2, 0), (2, 2)];
        // Center of a square: all four corners tie.
        assert_eq!(nearest_donors(&donors, 1, 1).len(), 4);
        // On top of a donor: just that donor.
        assert_eq!(nearest_donors(&donors, 0, 0), vec![(0, 0)]);
        assert!(nearest_donors(&[], 1, 1).is_empty());
    }

    #[test]
    fn clamped_parameter_is_refilled_from_neighbors() {
        // Single-trial measurements under ±30% jitter with the outlier
        // refit disabled: at seed 14 exactly one cell recovers a
        // non-positive parameter (clamped at the floor), which the grid
        // must re-fill from the nearest cells that identified it.
        let injector = FaultInjector::new(NoiseModel::uniform_jitter(0.3), 14);
        let rcfg = CalibrationConfig {
            trials: 1,
            max_outlier_drops: 0,
            ..CalibrationConfig::robust()
        }
        .with_injector(injector);
        let grid = CalibrationGrid::calibrate_with_config(
            MachineSpec::paper_testbed(),
            vec![0.25, 0.5, 0.75],
            vec![0.25, 0.75],
            0.5,
            &rcfg,
        )
        .unwrap();
        let h = grid.health();
        assert_eq!(h.degraded_cells, 0, "{h}");
        assert_eq!(h.cells_with_degraded_params, 1, "{h}");

        let (c, m) = (0..3)
            .flat_map(|c| (0..2).map(move |m| (c, m)))
            .find(|&(c, m)| !grid.report_at(c, m).clamped_params.is_empty())
            .expect("one cell with a clamped parameter");
        let report = grid.report_at(c, m);
        // The clamp is recorded AND the parameter was interpolated.
        assert_eq!(report.clamped_params, report.degraded_params);
        assert!(!report.degraded, "a partial fill is not a degraded cell");
        let name = report.clamped_params[0].clone();
        let v = get_param(grid.at_point(c, m), &name);
        assert!(
            v > crate::runner::RATIO_FLOOR * 10.0,
            "{name} should be neighbor-filled, not stuck at the floor: {v}"
        );
    }

    #[test]
    fn failed_cell_degrades_to_neighbor_interpolation() {
        // Seed 0 at p(fail) = 0.5, one trial, no retries: exactly one of
        // the six cells loses too many probes to fit and must be filled
        // from its neighbors (verified fixed by the injector's
        // determinism contract).
        let injector = FaultInjector::new(NoiseModel::none().with_failures(0.5), 0);
        let rcfg = CalibrationConfig {
            trials: 1,
            max_retries: 0,
            ..CalibrationConfig::robust()
        }
        .with_injector(injector);
        let grid = CalibrationGrid::calibrate_with_config(
            MachineSpec::paper_testbed(),
            vec![0.25, 0.5, 0.75],
            vec![0.25, 0.75],
            0.5,
            &rcfg,
        )
        .unwrap();
        let h = grid.health();
        assert_eq!(h.degraded_cells, 1, "{h}");
        assert!(!h.is_clean());

        let (c, m) = (0..3)
            .flat_map(|c| (0..2).map(move |m| (c, m)))
            .find(|&(c, m)| grid.report_at(c, m).degraded)
            .expect("one degraded cell");
        let report = grid.report_at(c, m);
        assert!(report.failure.is_some(), "{report}");
        assert_eq!(report.degraded_params.len(), MEASURED_PARAMS.len());
        // The interpolated cell carries physical parameters, checked when
        // the fill made them, and they lie within the envelope of the
        // healthy cells they were averaged from.
        let p = grid.at_point(c, m);
        let healthy: Vec<&CheckedParams> = (0..3)
            .flat_map(|hc| (0..2).map(move |hm| (hc, hm)))
            .filter(|&(hc, hm)| !grid.report_at(hc, hm).degraded)
            .map(|(hc, hm)| grid.at_point(hc, hm))
            .collect();
        for name in MEASURED_PARAMS {
            let v = get_param(p, name);
            let lo = healthy
                .iter()
                .map(|q| get_param(q, name))
                .fold(f64::MAX, f64::min);
            let hi = healthy
                .iter()
                .map(|q| get_param(q, name))
                .fold(f64::MIN, f64::max);
            assert!(v >= lo && v <= hi, "{name}: {v} outside [{lo}, {hi}]");
        }
        // Every allocation still resolves — the sweep degraded instead of
        // failing.
        grid.params_for(ResourceVector::from_fractions(0.4, 0.6, 0.5).unwrap())
            .unwrap();

        // A degraded grid's health survives the JSON cache. (Compared via
        // re-serialization: dropped probes carry NaN seconds, which are
        // unequal to themselves under PartialEq.)
        let json = grid.to_json().unwrap();
        let back = CalibrationGrid::from_json(&json).unwrap();
        assert_eq!(json, back.to_json().unwrap());
        assert_eq!(back.health(), h);
        assert!(back.report_at(c, m).degraded);
    }

    #[test]
    fn all_cells_failing_is_an_error_not_a_panic() {
        // Every measurement fails with no retries: every cell drops all
        // probes, no donor exists, and the sweep must surface
        // InsufficientProbes.
        let injector = FaultInjector::new(NoiseModel::none().with_failures(1.0), 7);
        let rcfg = CalibrationConfig {
            trials: 1,
            max_retries: 0,
            ..CalibrationConfig::robust()
        }
        .with_injector(injector);
        let err = CalibrationGrid::calibrate_with_config(
            MachineSpec::paper_testbed(),
            vec![0.25, 0.75],
            vec![0.5],
            0.5,
            &rcfg,
        )
        .unwrap_err();
        assert!(matches!(err, CalError::InsufficientProbes { .. }), "{err}");
    }

    #[test]
    fn special_numbers_roundtrip_through_json() {
        for v in [1.5, 0.0, f64::INFINITY, f64::NEG_INFINITY] {
            let back = special_num_from_json(&special_num_to_json(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        assert!(special_num_from_json(&special_num_to_json(f64::NAN))
            .unwrap()
            .is_nan());
    }
}
