//! Running a calibration: probes → measurements → least squares → `P(R)`.
//!
//! `calibrate` is the paper's "experimental calibration process, performed
//! once for each `R`", in three steps. **Profile**: execute each probe once
//! and keep what the execution did — its page references in order, its CPU
//! cycles, what its sorts and joins held ([`dbvirt_engine::Profile`]) — the
//! only step that touches the engine, and one that sees nothing of `R`, nor
//! of the machine: the suite over the process-wide [`ProbeDb::template`] is
//! a constant, profiled once per process (`ProbeSuite::template`).
//! **Replay**: turn the profiles into the [`dbvirt_vmm::ResourceDemand`]
//! each probe would have generated on a cold buffer pool under `R`'s memory
//! configuration: the pool's one clock sweep run over the recorded
//! references, and the spill formulas at `R`'s `work_mem`. A memory
//! configuration never changes what an execution does, only which of its
//! references miss and what spills, so the replay is exact — bit for bit
//! what executing under that configuration charges — and costs arithmetic.
//! **Price**: convert those demands into the seconds a VM with `R`'s shares
//! would have measured (optionally through a [`FaultInjector`]) and solve
//! the overdetermined linear system for the five time-domain parameters. A
//! grid sweep replays once per memory point and prices every cell from that
//! memo — no engine run at all after the process's first; a single
//! calibration is the same code with a one-entry memo, over the caller's
//! own database when it brings one. Memory-derived settings (`effective_cache_size`,
//! `work_mem`) come from the deployment policy in [`crate::vmdb`] — they are
//! configured, not measured, just as a DBA sets them from the machine's
//! known RAM.
//!
//! Real probe timings are noisy, so the runner also supports a robust
//! mode ([`CalibrationConfig::robust`]) designed to survive the faults a
//! [`FaultInjector`] (or a real VM) produces:
//!
//! 1. **multi-trial probes** — each probe is measured several times and
//!    the trials aggregated by their median;
//! 2. **bounded retries** — transient failures and timeouts are retried
//!    up to `max_retries` times per trial before the trial is lost;
//! 3. **condition diagnostics + ridge** — the weighted normal matrix's
//!    1-norm condition number is checked, and a Tikhonov-ridge fallback
//!    solves near-singular systems;
//! 4. **outlier rejection** — equations whose relative residual exceeds a
//!    MAD-based threshold are dropped (worst first, bounded) and the
//!    system refit.
//!
//! Every fallback taken is recorded in the returned
//! [`CalibrationReport`]. With no injector and the default single-shot
//! config, the pipeline is bit-identical to the historical noise-free
//! implementation.

use crate::probes::{build_probes, CacheState, Probe, NUM_UNKNOWNS};
use crate::report::{CalibrationReport, ProbeStat};
use crate::{solver, CalError, DbVmConfig, ProbeDb};
use dbvirt_engine::{CpuCosts, Profile, CARRIER_PAGES};
use dbvirt_optimizer::{CheckedParams, OptimizerParams};
use dbvirt_storage::BufferPool;
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::{
    FaultInjector, MachineSpec, ProbeFault, ResourceDemand, ResourceVector, VirtualMachine,
};
use std::sync::OnceLock;

// Calibration telemetry (no-ops until `dbvirt_telemetry::enable()`).
static TM_PROBE_RUNS: telemetry::Counter = telemetry::Counter::new("calibrate.probe_runs");
static TM_RETRIES: telemetry::Counter = telemetry::Counter::new("calibrate.retries");
static TM_TIMEOUTS: telemetry::Counter = telemetry::Counter::new("calibrate.timeouts");
static TM_OUTLIER_DROPS: telemetry::Counter = telemetry::Counter::new("calibrate.outliers_dropped");
static TM_PROBE_VIRT_US: telemetry::Histogram =
    telemetry::Histogram::new("calibrate.probe_virtual_us");

/// Floor applied to recovered cost ratios so noise can never produce a
/// non-positive parameter. A parameter stuck at this floor is
/// unidentifiable and is reported in
/// [`CalibrationReport::clamped_params`].
pub(crate) const RATIO_FLOOR: f64 = 1e-6;

/// An equation is an outlier if its relative residual exceeds
/// `OUTLIER_SIGMAS × 1.4826 × MAD` of all residuals…
const OUTLIER_SIGMAS: f64 = 4.0;
/// …and also this absolute floor (so tight clean fits never reject).
const MIN_OUTLIER_RESIDUAL: f64 = 0.25;
/// Relative Tikhonov ridge strength of the fallback solve (`λ =
/// RIDGE_LAMBDA × mean(diag(aᵀa))`).
const RIDGE_LAMBDA: f64 = 1e-8;

/// Knobs for the robust calibration loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Fault injection on the measurement path (`None` = clean
    /// measurements).
    pub injector: Option<FaultInjector>,
    /// Trial measurements per probe, aggregated by their median.
    pub trials: usize,
    /// Retries per trial on a transient fault or timeout.
    pub max_retries: usize,
    /// Maximum outlier equations the robust refit may reject.
    pub max_outlier_drops: usize,
    /// Condition-number limit above which the ridge fallback is used.
    pub condition_limit: f64,
}

impl CalibrationConfig {
    /// The historical single-shot path: one clean measurement per probe,
    /// no retries, no outlier rejection, ridge only if the plain normal
    /// equations are numerically singular. This is the default.
    pub fn fast() -> CalibrationConfig {
        CalibrationConfig {
            injector: None,
            trials: 1,
            max_retries: 0,
            max_outlier_drops: 0,
            condition_limit: f64::INFINITY,
        }
    }

    /// The noise-hardened loop: five trials with median aggregation,
    /// three retries per trial, up to three outlier rejections, and a
    /// ridge fallback past a condition number of `1e12`.
    pub fn robust() -> CalibrationConfig {
        CalibrationConfig {
            trials: 5,
            max_retries: 3,
            max_outlier_drops: 3,
            condition_limit: 1e12,
            ..CalibrationConfig::fast()
        }
    }

    /// Returns the config with the fault injector installed.
    pub fn with_injector(mut self, injector: FaultInjector) -> CalibrationConfig {
        self.injector = Some(injector);
        self
    }
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig::fast()
    }
}

/// Calibration result with diagnostics.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The recovered parameter vector, checked.
    pub params: CheckedParams,
    /// Root-mean-square residual of the fit, in seconds.
    pub rms_residual_seconds: f64,
    /// Per-probe measured (aggregated) seconds for probes that
    /// contributed an equation (diagnostic).
    pub measured_seconds: Vec<f64>,
    /// Health diagnostics: trials, retries, rejected outliers, condition
    /// number, clamped/degraded parameters.
    pub report: CalibrationReport,
}

/// Mixes a share vector into a fault-injection context key, so each
/// allocation's measurement campaign draws an independent noise stream.
fn share_context(shares: &ResourceVector) -> u64 {
    let mut h = shares.cpu().fraction().to_bits();
    h ^= shares.memory().fraction().to_bits().rotate_left(21);
    h ^= shares.disk().fraction().to_bits().rotate_left(42);
    h
}

/// Median of a non-empty slice (even counts average the middle two): the
/// aggregate of a probe's trials and the MAD outlier scale.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The database configuration a VM with `shares` of `spec` runs under, and
/// the VM itself.
pub(crate) fn vm_and_config(
    spec: MachineSpec,
    shares: ResourceVector,
) -> Result<(VirtualMachine, DbVmConfig), CalError> {
    let vm = VirtualMachine::new(spec, shares).map_err(|e| CalError::probe_failed("<setup>", e))?;
    let cfg = DbVmConfig::for_vm(&vm);
    Ok((vm, cfg))
}

/// **Profile**: executes one probe's plan — twice for a warm probe, whose
/// first run only populates the cache — and returns what the execution did,
/// free of any memory configuration. This is the only step of calibration
/// that touches the engine, and it sees nothing of an allocation at all:
/// memory decides which of the recorded page references miss and what the
/// recorded sorts and joins spill, CPU and disk shares what that costs.
/// `carrier_pages` sizes the pool that hands the executor its pages and
/// changes nothing about the profile.
pub(crate) fn profile_probe(
    pdb: &ProbeDb,
    probe: &Probe,
    carrier_pages: usize,
) -> Result<Profile, CalError> {
    // Cold cache per probe, as in the paper's controlled measurements.
    let mut carrier = BufferPool::new(carrier_pages);
    let mut profile = Profile::new();
    let warm_up = (probe.cache == CacheState::Warm).then_some("warm-up failed: ");
    for what in warm_up.into_iter().chain([""]) {
        profile
            .run(&pdb.db, &mut carrier, &probe.plan, CpuCosts::default())
            .map_err(|e| CalError::probe_failed(probe.name, format!("{what}{e}")))?;
    }
    Ok(profile)
}

/// Profiles every probe once, in order, on the caller's thread; the first
/// probe that fails is the error.
pub(crate) fn profile_tasks(
    pdb: &ProbeDb,
    probes: &[Probe],
    carrier_pages: usize,
) -> Result<Vec<Profile>, CalError> {
    probes
        .iter()
        .map(|probe| profile_probe(pdb, probe, carrier_pages))
        .collect()
}

/// A probe database's suite with what executing it did: all that is left of
/// the engine in a calibration.
#[derive(Debug)]
pub(crate) struct ProbeSuite {
    pub(crate) probes: Vec<Probe>,
    /// `profiles[i]` is what `probes[i]`'s execution did.
    profiles: Vec<Profile>,
}

impl ProbeSuite {
    /// **Profile**: executes each of `pdb`'s probes once.
    pub(crate) fn profile(pdb: &ProbeDb) -> Result<ProbeSuite, CalError> {
        let probes = build_probes(pdb)?;
        let profiles = profile_tasks(pdb, &probes, CARRIER_PAGES)?;
        Ok(ProbeSuite { probes, profiles })
    }

    /// The suite over [`ProbeDb::template`]: a constant of the process, so
    /// it is profiled on first use and never again — every later sweep, on
    /// whatever machine, axes, robustness or fault configuration, runs no
    /// engine at all. A failure is remembered like the template's.
    pub(crate) fn template() -> Result<&'static ProbeSuite, CalError> {
        static SUITE: OnceLock<Result<ProbeSuite, CalError>> = OnceLock::new();
        SUITE
            .get_or_init(|| ProbeSuite::profile(ProbeDb::template()?))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// **Replay**: each probe's measured demand (its last run's) under each
    /// of `configs`, exactly what executing the suite on a cold pool of that
    /// configuration would have charged. Arithmetic over the profiles, once
    /// per configuration however many cells share it. A configuration no
    /// execution could run under — no frames, no `work_mem` — is the first
    /// probe's typed failure.
    pub(crate) fn replay(&self, configs: Vec<DbVmConfig>) -> Result<DemandMemo, CalError> {
        let _span = telemetry::span("calibrate.replay");
        let suite = |cfg: DbVmConfig| {
            let measured = self
                .probes
                .iter()
                .zip(&self.profiles)
                .map(|(probe, profile)| {
                    let runs = profile
                        .demand_under(cfg.buffer_pool_pages, cfg.work_mem_bytes)
                        .map_err(|e| CalError::probe_failed(probe.name, e))?;
                    (runs.last().copied())
                        .ok_or_else(|| CalError::probe_failed(probe.name, "no measured run"))
                });
            Ok((cfg, measured.collect::<Result<_, CalError>>()?))
        };
        let entries = configs
            .into_iter()
            .map(suite)
            .collect::<Result<_, CalError>>()?;
        Ok(DemandMemo { entries })
    }
}

/// The probe suite's demands under each memory configuration asked for. A
/// single-cell calibration holds one entry; a grid sweep holds one per
/// distinct configuration on its memory axis and prices every cell from it.
#[derive(Debug)]
pub(crate) struct DemandMemo {
    /// Each configuration with the suite's demands under it, in probe
    /// order.
    pub(crate) entries: Vec<(DbVmConfig, Vec<ResourceDemand>)>,
}

impl DemandMemo {
    fn get(&self, cfg: &DbVmConfig) -> Result<&[ResourceDemand], CalError> {
        let found = self.entries.iter().find(|(c, _)| c == cfg);
        found.map(|(_, d)| d.as_slice()).ok_or_else(|| {
            CalError::probe_failed("<setup>", format!("no demands replayed under {cfg:?}"))
        })
    }
}

/// **Price**: turns one probe's demand into the seconds a VM would have
/// measured — pure arithmetic on the VM's shares, plus `trials` noisy
/// draws from the injector with transient faults retried. Returns the
/// aggregated seconds, or `None` if every trial was lost.
fn price_probe(
    vm: &VirtualMachine,
    demand: &ResourceDemand,
    probe: &Probe,
    probe_idx: usize,
    context: u64,
    rcfg: &CalibrationConfig,
    stat: &mut ProbeStat,
) -> Option<f64> {
    let mut probe_span = telemetry::span("calibrate.probe");
    probe_span.set_attr("probe", probe.name);
    TM_PROBE_RUNS.add(1);
    let (cpu, seq, rand, writes) = vm.demand_seconds_breakdown(demand);

    let Some(injector) = &rcfg.injector else {
        // Clean path: the component sum matches
        // `VirtualMachine::demand_seconds` bit for bit, and aggregation
        // over identical trials is the identity.
        stat.trials = 1;
        let seconds = cpu + seq + rand + writes;
        telemetry::advance_virtual_secs(seconds);
        TM_PROBE_VIRT_US.record_micros((seconds * 1e6) as u64);
        return Some(seconds);
    };

    let mut samples = Vec::with_capacity(rcfg.trials);
    for trial in 0..rcfg.trials.max(1) {
        for attempt in 0..=rcfg.max_retries {
            match injector.measure(context, probe_idx, trial, attempt, (cpu, seq, rand, writes)) {
                Ok(seconds) => {
                    samples.push(seconds);
                    break;
                }
                Err(fault) => {
                    if matches!(fault, ProbeFault::Timeout { .. }) {
                        stat.timeouts += 1;
                    }
                    if attempt < rcfg.max_retries {
                        stat.retries += 1;
                    }
                }
            }
        }
    }
    stat.trials = samples.len();
    TM_RETRIES.add(stat.retries as u64);
    TM_TIMEOUTS.add(stat.timeouts as u64);
    probe_span.set_attr("retries", stat.retries);
    if samples.is_empty() {
        probe_span.set_attr("dropped", true);
        return None;
    }
    let seconds = median(&samples);
    telemetry::advance_virtual_secs(seconds);
    TM_PROBE_VIRT_US.record_micros(if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e6) as u64
    } else {
        0
    });
    Some(seconds)
}

/// The robust fit: solve with condition diagnostics and ridge fallback,
/// then iteratively reject the worst outlier equation (bounded) and
/// refit.
fn robust_fit(
    mut rows: Vec<Vec<f64>>,
    mut names: Vec<String>,
    rcfg: &CalibrationConfig,
    report: &mut CalibrationReport,
) -> Result<Vec<f64>, CalError> {
    let targets = |n: usize| vec![1.0; n];
    let mut fit = solver::least_squares_diagnosed(
        &rows,
        &targets(rows.len()),
        rcfg.condition_limit,
        RIDGE_LAMBDA,
    )?;
    for _ in 0..rcfg.max_outlier_drops {
        if rows.len() <= NUM_UNKNOWNS {
            break;
        }
        // Relative residuals: rows are normalized to a target of 1, so a
        // residual of 0.3 means the equation misses by 30%.
        let resid: Vec<f64> = rows
            .iter()
            .map(|row| row.iter().zip(&fit.x).map(|(a, x)| a * x).sum::<f64>() - 1.0)
            .collect();
        let abs: Vec<f64> = resid.iter().map(|r| r.abs()).collect();
        let scale = 1.4826 * median(&abs);
        let threshold = (OUTLIER_SIGMAS * scale).max(MIN_OUTLIER_RESIDUAL);
        // More rows than unknowns, so there is a worst residual.
        let Some(worst) = (abs.iter().enumerate())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
        else {
            break;
        };
        if abs[worst] <= threshold {
            break;
        }
        TM_OUTLIER_DROPS.add(1);
        report.rejected_outliers.push(names.remove(worst));
        rows.remove(worst);
        fit = solver::least_squares_diagnosed(
            &rows,
            &targets(rows.len()),
            rcfg.condition_limit,
            RIDGE_LAMBDA,
        )?;
    }
    report.condition_number = fit.condition;
    report.used_ridge = fit.used_ridge;
    Ok(fit.x)
}

/// Calibrates `P` for one allocation with explicit robustness knobs, on the
/// caller's own probe database: profiles its suite, replays it under the
/// allocation's memory configuration, then prices and fits the cell from
/// that one-entry memo — the same three steps a grid sweep takes.
pub fn calibrate_with_config(
    pdb: &ProbeDb,
    spec: MachineSpec,
    shares: ResourceVector,
    rcfg: &CalibrationConfig,
) -> Result<Calibration, CalError> {
    calibrate_from(&ProbeSuite::profile(pdb)?, spec, shares, rcfg)
}

/// One cell from a profiled suite: replay under its configuration, price,
/// fit.
fn calibrate_from(
    suite: &ProbeSuite,
    spec: MachineSpec,
    shares: ResourceVector,
    rcfg: &CalibrationConfig,
) -> Result<Calibration, CalError> {
    let (_, cfg) = vm_and_config(spec, shares)?;
    calibrate_cell(spec, shares, &suite.probes, &suite.replay(vec![cfg])?, rcfg)
}

/// Prices the memoized demands for one allocation and fits `P` to them.
/// Never touches the engine; `memo` must hold the allocation's memory
/// configuration.
pub(crate) fn calibrate_cell(
    spec: MachineSpec,
    shares: ResourceVector,
    probes: &[Probe],
    memo: &DemandMemo,
    rcfg: &CalibrationConfig,
) -> Result<Calibration, CalError> {
    let mut cell_span = telemetry::span("calibrate.cell");
    cell_span.set_attr("cpu_share", shares.cpu().fraction());
    cell_span.set_attr("mem_share", shares.memory().fraction());
    cell_span.set_attr("disk_share", shares.disk().fraction());
    let (vm, cfg) = vm_and_config(spec, shares)?;
    let demands = memo.get(&cfg)?;
    let context = share_context(&shares);

    let mut design: Vec<Vec<f64>> = Vec::with_capacity(probes.len());
    let mut measured: Vec<f64> = Vec::with_capacity(probes.len());
    let mut stats: Vec<ProbeStat> = Vec::with_capacity(probes.len());
    for (pi, (probe, demand)) in probes.iter().zip(demands).enumerate() {
        let mut stat = ProbeStat {
            name: probe.name.to_string(),
            trials: 0,
            retries: 0,
            timeouts: 0,
            dropped: false,
            seconds: f64::NAN,
        };
        match price_probe(&vm, demand, probe, pi, context, rcfg, &mut stat) {
            Some(seconds) => {
                stat.seconds = seconds;
                design.push(probe.coeffs.to_vec());
                measured.push(seconds);
            }
            None => stat.dropped = true,
        }
        stats.push(stat);
    }
    let mut report = CalibrationReport::pristine(stats);

    // Weight each equation by 1/measured so the fit minimizes *relative*
    // error: probes span four orders of magnitude (a warm 300-tuple index
    // probe vs. a cold full scan), and unweighted least squares would let
    // the big cold probes' model error swamp the parameters that only the
    // small warm probes can identify. Non-positive measurements carry no
    // usable signal and are dropped (and accounted for).
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(design.len());
    let mut row_names: Vec<String> = Vec::with_capacity(design.len());
    for ((row, &b), stat) in design
        .iter()
        .zip(&measured)
        .zip(report.probes.iter_mut().filter(|s| !s.dropped))
    {
        if b > 0.0 {
            rows.push(row.iter().map(|a| a / b).collect());
            row_names.push(stat.name.clone());
        } else {
            stat.dropped = true;
        }
    }
    report.dropped_probes = report.probes.iter().filter(|s| s.dropped).count();
    if rows.len() < NUM_UNKNOWNS {
        return Err(CalError::InsufficientProbes {
            kept: rows.len(),
            needed: NUM_UNKNOWNS,
        });
    }

    let x = {
        let _fit_span = telemetry::span("calibrate.fit");
        robust_fit(rows, row_names, rcfg, &mut report)?
    };
    debug_assert_eq!(x.len(), NUM_UNKNOWNS);
    let rms = solver::rms_residual(&design, &measured, &x);

    let seq_page_s = x[0];
    if !(seq_page_s.is_finite() && seq_page_s > 0.0) {
        return Err(CalError::BadParameter {
            name: "unit_seconds",
            value: seq_page_s,
        });
    }
    let mut clamped: Vec<String> = Vec::new();
    let mut ratio = |name: &'static str, v: f64| {
        let r = v / seq_page_s;
        if r < RATIO_FLOOR {
            clamped.push(name.to_string());
            RATIO_FLOOR
        } else {
            r
        }
    };
    let params = OptimizerParams {
        unit_seconds: seq_page_s,
        seq_page_cost: 1.0,
        random_page_cost: ratio("random_page_cost", x[1]),
        cpu_tuple_cost: ratio("cpu_tuple_cost", x[2]),
        cpu_index_tuple_cost: ratio("cpu_index_tuple_cost", x[3]),
        cpu_operator_cost: ratio("cpu_operator_cost", x[4]),
        effective_cache_size_pages: cfg.effective_cache_pages as f64,
        work_mem_bytes: cfg.work_mem_bytes as f64,
    };
    report.clamped_params = clamped;
    Ok(Calibration {
        params: CalError::checked(params)?,
        rms_residual_seconds: rms,
        measured_seconds: measured,
        report,
    })
}

/// Calibrates `P` for one allocation, reusing an existing probe database
/// (the cheap path when sweeping a grid). Single-shot clean measurements —
/// see [`calibrate_with_config`] for the noise-robust loop.
pub fn calibrate_with(
    pdb: &ProbeDb,
    spec: MachineSpec,
    shares: ResourceVector,
) -> Result<Calibration, CalError> {
    calibrate_with_config(pdb, spec, shares, &CalibrationConfig::default())
}

/// Calibrates `P` for one allocation from the process-wide probe suite.
pub fn calibrate(spec: MachineSpec, shares: ResourceVector) -> Result<CheckedParams, CalError> {
    let rcfg = CalibrationConfig::default();
    Ok(calibrate_from(ProbeSuite::template()?, spec, shares, &rcfg)?.params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_engine::run_plan;
    use dbvirt_vmm::{NoiseModel, Share};

    fn shares(cpu: f64, mem: f64, disk: f64) -> ResourceVector {
        ResourceVector::from_fractions(cpu, mem, disk).unwrap()
    }

    /// The oracle the replay answers to: runs one probe's plan on a cold
    /// pool of the configuration's own size, under its own `work_mem` —
    /// after an unmeasured warm-up for a warm probe — and returns what the
    /// measured run charged. Calibration did exactly this, once per probe
    /// and memory configuration, before it kept profiles.
    fn execute_probe(pdb: &ProbeDb, probe: &Probe, cfg: &DbVmConfig) -> ResourceDemand {
        let mut pool = BufferPool::new(cfg.buffer_pool_pages);
        let (plan, work_mem, costs) = (&probe.plan, cfg.work_mem_bytes, CpuCosts::default());
        let mut run = || run_plan(&pdb.db, &mut pool, plan, work_mem, costs).unwrap();
        if probe.cache == CacheState::Warm {
            run();
        }
        run().demand
    }

    #[test]
    fn replayed_demands_are_what_executing_under_each_configuration_charges() {
        let pdb = ProbeDb::build().unwrap();
        let probes = build_probes(&pdb).unwrap();
        let total_pages = pdb.db.total_pages();
        // From a pool one scan thrashes to one that holds the database, and
        // past it; `work_mem` from nothing to plenty.
        let configs: Vec<DbVmConfig> = [1, 7, 64, 300, total_pages, 4 * total_pages]
            .into_iter()
            .zip([1, 512, 16 << 10, 1 << 20, 4 << 20, 64 << 20])
            .map(|(buffer_pool_pages, work_mem_bytes)| DbVmConfig {
                buffer_pool_pages,
                work_mem_bytes,
                effective_cache_pages: buffer_pool_pages,
            })
            .collect();
        // The carrier's size is irrelevant: smaller than some, larger than
        // other configurations replayed from it.
        let suite = ProbeSuite {
            profiles: profile_tasks(&pdb, &probes, 64).unwrap(),
            probes: probes.clone(),
        };
        let memo = suite.replay(configs.clone()).unwrap();
        let mut distinct = std::collections::HashSet::new();
        let first = memo.get(&configs[0]).unwrap();
        for cfg in &configs {
            let replayed = memo.get(cfg).unwrap();
            for ((probe, demand), under_first) in probes.iter().zip(replayed).zip(first) {
                assert_eq!(
                    *demand,
                    execute_probe(&pdb, probe, cfg),
                    "{} under {cfg:?}",
                    probe.name
                );
                // Memory moves no CPU cycle.
                assert_eq!(
                    demand.cpu_cycles.to_bits(),
                    under_first.cpu_cycles.to_bits()
                );
                distinct.insert((probe.name, demand.total_pages()));
            }
        }
        // A cold probe reads each page it needs once whatever the pool; the
        // warm probes are what memory moves.
        assert!(
            distinct.len() > probes.len(),
            "the configurations must move what some probes read: {distinct:?}"
        );
    }

    #[test]
    fn a_configuration_nothing_can_run_under_is_a_typed_error() {
        let suite = ProbeSuite::template().unwrap();
        let runnable = DbVmConfig {
            buffer_pool_pages: 64,
            work_mem_bytes: 1 << 20,
            effective_cache_pages: 64,
        };
        for bad in [
            DbVmConfig {
                buffer_pool_pages: 0,
                ..runnable
            },
            DbVmConfig {
                work_mem_bytes: 0,
                ..runnable
            },
        ] {
            let refused = suite.replay(vec![runnable, bad]).unwrap_err();
            let first = suite.probes[0].name;
            assert!(
                matches!(&refused, CalError::ProbeFailed { probe, .. } if probe == first),
                "{refused}"
            );
        }
        // Nothing replayed, nothing to price a cell from.
        let empty = suite.replay(vec![]).unwrap();
        assert!(empty.get(&runnable).is_err());
    }

    #[test]
    fn calibration_fits_the_measurements_tightly() {
        let pdb = ProbeDb::build().unwrap();
        let cal = calibrate_with(
            &pdb,
            MachineSpec::paper_testbed(),
            ResourceVector::uniform(Share::HALF),
        )
        .unwrap();
        // The engine's cost structure is genuinely linear in the probe
        // coefficients, so the fit should be essentially exact relative to
        // the measured magnitudes.
        let scale = cal.measured_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            cal.rms_residual_seconds < 0.05 * scale,
            "rms {} vs scale {scale}",
            cal.rms_residual_seconds
        );
        // And the clean path reports a clean bill of health.
        assert!(cal.report.is_clean(), "{}", cal.report);
        assert_eq!(cal.report.total_retries(), 0);
    }

    #[test]
    fn recovered_parameters_reflect_the_machine() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let cal = calibrate_with(&pdb, spec, ResourceVector::uniform(Share::FULL)).unwrap();
        let p = cal.params;
        // Sequential page time ≈ page_size / seq bandwidth (plus a little
        // per-page CPU) at full allocation.
        let pure_io = spec.seq_page_seconds();
        assert!(
            p.unit_seconds > pure_io * 0.9 && p.unit_seconds < pure_io * 2.0,
            "unit_seconds {} vs pure I/O {pure_io}",
            p.unit_seconds
        );
        // A random page is much costlier than a sequential one.
        assert!(p.random_page_cost > 10.0, "random {}", p.random_page_cost);
        // CPU per tuple is far below a page fetch.
        assert!(p.cpu_tuple_cost < 0.2, "tuple {}", p.cpu_tuple_cost);
        assert!(p.cpu_operator_cost < p.cpu_tuple_cost);
        // The warm index probes make the index-entry CPU cost identifiable:
        // it must come out well above the numerical floor and below the
        // per-tuple cost.
        assert!(
            p.cpu_index_tuple_cost > 10.0 * RATIO_FLOOR,
            "index tuple cost stuck at floor: {}",
            p.cpu_index_tuple_cost
        );
        assert!(p.cpu_index_tuple_cost < p.cpu_tuple_cost);
    }

    #[test]
    fn cpu_share_moves_cpu_parameters_not_io() {
        // The heart of Figure 3: cpu_tuple_cost (a ratio to the seq-page
        // fetch) falls as the CPU share grows, while unit_seconds (pure
        // I/O-dominated) stays put when only CPU changes.
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let lo = calibrate_with(&pdb, spec, shares(0.25, 0.5, 0.5))
            .unwrap()
            .params;
        let hi = calibrate_with(&pdb, spec, shares(0.75, 0.5, 0.5))
            .unwrap()
            .params;
        assert!(
            lo.cpu_tuple_cost > 2.0 * hi.cpu_tuple_cost,
            "cpu_tuple_cost must fall ~3x from 25% to 75% CPU: {} vs {}",
            lo.cpu_tuple_cost,
            hi.cpu_tuple_cost
        );
        assert!(
            lo.cpu_operator_cost > 2.0 * hi.cpu_operator_cost,
            "cpu_operator_cost must fall too"
        );
        let drift = (lo.unit_seconds - hi.unit_seconds).abs() / hi.unit_seconds;
        assert!(drift < 0.25, "unit_seconds drift {drift}");
    }

    #[test]
    fn disk_share_moves_unit_seconds() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let lo = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.25))
            .unwrap()
            .params;
        let hi = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.75))
            .unwrap()
            .params;
        assert!(
            lo.unit_seconds > 2.0 * hi.unit_seconds,
            "seq page time must fall ~3x with disk share: {} vs {}",
            lo.unit_seconds,
            hi.unit_seconds
        );
    }

    #[test]
    fn memory_share_moves_cache_settings() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let lo = calibrate_with(&pdb, spec, shares(0.5, 0.25, 0.5))
            .unwrap()
            .params;
        let hi = calibrate_with(&pdb, spec, shares(0.5, 0.75, 0.5))
            .unwrap()
            .params;
        assert!(hi.effective_cache_size_pages > 2.0 * lo.effective_cache_size_pages);
        assert!(hi.work_mem_bytes > lo.work_mem_bytes);
    }

    #[test]
    fn convenience_entry_point_works() {
        let p = calibrate(
            MachineSpec::paper_testbed(),
            ResourceVector::uniform(Share::HALF),
        )
        .unwrap();
        assert!(p.unit_seconds > 0.0 && p.cpu_tuple_cost > 0.0, "{p}");
    }

    #[test]
    fn robust_config_without_injector_is_bit_identical_to_fast() {
        // The acceptance bar for the whole robustness layer: with the
        // fault injector disabled, every robust-mode mechanism (trials,
        // aggregation, outlier screening, condition diagnostics) must
        // reduce to the historical single-shot answer, to the bit.
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        for s in [shares(0.5, 0.5, 0.5), shares(0.25, 0.75, 0.5)] {
            let fast = calibrate_with(&pdb, spec, s).unwrap();
            let robust =
                calibrate_with_config(&pdb, spec, s, &CalibrationConfig::robust()).unwrap();
            let f = fast.params;
            let r = robust.params;
            for (name, a, b) in [
                ("unit_seconds", f.unit_seconds, r.unit_seconds),
                ("random_page_cost", f.random_page_cost, r.random_page_cost),
                ("cpu_tuple_cost", f.cpu_tuple_cost, r.cpu_tuple_cost),
                (
                    "cpu_index_tuple_cost",
                    f.cpu_index_tuple_cost,
                    r.cpu_index_tuple_cost,
                ),
                (
                    "cpu_operator_cost",
                    f.cpu_operator_cost,
                    r.cpu_operator_cost,
                ),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} vs {b}");
            }
            assert!(robust.report.is_clean(), "{}", robust.report);
            assert!(robust.report.rejected_outliers.is_empty());
        }
    }

    #[test]
    fn trials_aggregate_by_their_median() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn jittered_measurements_still_recover_parameters() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
        let injector = FaultInjector::new(NoiseModel::uniform_jitter(0.10), 17);
        let cfg = CalibrationConfig::robust().with_injector(injector);
        let noisy = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap();
        let within = |a: f64, b: f64, tol: f64| a / b < 1.0 + tol && b / a < 1.0 + tol;
        assert!(
            within(noisy.params.unit_seconds, clean.params.unit_seconds, 0.15),
            "unit_seconds {} vs {}",
            noisy.params.unit_seconds,
            clean.params.unit_seconds
        );
        assert!(
            within(
                noisy.params.random_page_cost,
                clean.params.random_page_cost,
                0.30
            ),
            "random_page_cost {} vs {}",
            noisy.params.random_page_cost,
            clean.params.random_page_cost
        );
        assert!(
            within(
                noisy.params.cpu_tuple_cost,
                clean.params.cpu_tuple_cost,
                0.50
            ),
            "cpu_tuple_cost {} vs {}",
            noisy.params.cpu_tuple_cost,
            clean.params.cpu_tuple_cost
        );
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let injector = FaultInjector::new(NoiseModel::none().with_failures(0.3), 23);
        let cfg = CalibrationConfig::robust().with_injector(injector);
        let cal = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap();
        // p(fail) = 0.3 over 8 probes × 5 trials: retries are essentially
        // certain, and with 3 retries per trial every trial recovers with
        // overwhelming probability for this seed.
        assert!(cal.report.total_retries() > 0, "{}", cal.report);
        assert_eq!(cal.report.dropped_probes, 0, "{}", cal.report);
        // The measurements themselves are clean (failures only), so the
        // parameters match the noise-free fit bit for bit.
        let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
        assert_eq!(
            cal.params.unit_seconds.to_bits(),
            clean.params.unit_seconds.to_bits()
        );
    }

    #[test]
    fn forced_ridge_path_stays_close_and_is_reported() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
        // A condition limit of 0 forces the Tikhonov path on a perfectly
        // solvable system: it must not panic, must flag used_ridge, and
        // with a tiny λ must land near the plain solution.
        let cfg = CalibrationConfig {
            condition_limit: 0.0,
            ..CalibrationConfig::robust()
        };
        let ridged = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap();
        assert!(ridged.report.used_ridge);
        assert!(ridged.report.condition_number.is_finite());
        let rel = (ridged.params.unit_seconds - clean.params.unit_seconds).abs()
            / clean.params.unit_seconds;
        assert!(rel < 1e-3, "ridge drifted {rel}");
    }

    #[test]
    fn total_loss_of_probes_is_a_typed_error() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        // Every measurement fails and there are no retries: all probes
        // drop, and the runner must return InsufficientProbes, not die on
        // an underdetermined-system assert.
        let injector = FaultInjector::new(NoiseModel::none().with_failures(1.0), 1);
        let cfg = CalibrationConfig {
            max_retries: 0,
            trials: 1,
            ..CalibrationConfig::robust()
        }
        .with_injector(injector);
        let err = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap_err();
        assert_eq!(
            err,
            CalError::InsufficientProbes {
                kept: 0,
                needed: NUM_UNKNOWNS
            }
        );
    }

    #[test]
    fn outlier_spikes_are_rejected_and_reported() {
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
        // Single-trial measurements with occasional ≥10x spikes and no
        // timeout protection: the only defense is the robust refit. Seed
        // 1 spikes two of the eight probes.
        let injector = FaultInjector::new(NoiseModel::none().with_outliers(0.25, 10.0), 1);
        let cfg = CalibrationConfig {
            trials: 1,
            ..CalibrationConfig::robust()
        }
        .with_injector(injector);
        let cal = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap();
        assert_eq!(
            cal.report.rejected_outliers.len(),
            2,
            "seed 1 spikes 2 of 8 probes; report: {}",
            cal.report
        );
        // With the spiked equations rejected, the fit is the clean one.
        let rel =
            (cal.params.unit_seconds - clean.params.unit_seconds).abs() / clean.params.unit_seconds;
        assert!(rel < 1e-6, "unit_seconds drifted {rel} despite rejection");
    }

    #[test]
    fn median_trials_suppress_spikes_the_refit_alone_cannot() {
        // Seed 2 at a single trial spikes five of eight probes — more
        // than `max_outlier_drops` can reject, and a barely
        // overdetermined system cannot identify them all from residuals.
        // The first rung of the degradation ladder (multi-trial median)
        // handles it: a probe's median only spikes if ≥3 of 5 trials
        // spike (p ≈ 0.1 at p_spike = 0.25).
        let spec = MachineSpec::paper_testbed();
        let pdb = ProbeDb::build().unwrap();
        let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
        let injector = FaultInjector::new(NoiseModel::none().with_outliers(0.25, 10.0), 2);
        let cfg = CalibrationConfig::robust().with_injector(injector);
        let cal = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap();
        let rel =
            (cal.params.unit_seconds - clean.params.unit_seconds).abs() / clean.params.unit_seconds;
        assert!(rel < 0.05, "median trials should defuse the spikes: {rel}");
    }
}
