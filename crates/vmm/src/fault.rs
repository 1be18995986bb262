//! Deterministic fault injection for the measurement path.
//!
//! The calibration pipeline assumes it can time a probe query and get the
//! true demand-derived duration back. Real virtualized measurements are
//! nothing like that: timings jitter with co-tenant interference, the
//! occasional measurement is wildly off (a heavy-tailed spike from a
//! scheduler stall or cache eviction storm), probes sometimes fail
//! transiently, and long measurements are cut off by timeouts. This module
//! injects exactly those faults — deterministically, from a seed — so the
//! robust calibration loop can be tested against realistic VM conditions
//! and a chaos sweep can replay any failure by seed.
//!
//! Determinism contract: every draw is keyed by
//! `(seed, context, probe, trial, attempt)`, so re-running a measurement
//! (same attempt) reproduces the same fault, while a *retry* (next attempt)
//! sees fresh noise. Nothing here keeps mutable state, so the injector can
//! be shared freely across the grid sweep's worker threads.

use crate::kernel::SplitMix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fault raised instead of a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeFault {
    /// The probe failed transiently (connection drop, scheduler hiccup);
    /// retrying may succeed.
    Transient,
    /// The (noisy) measurement exceeded the timeout budget and was
    /// abandoned.
    Timeout {
        /// The duration the measurement would have taken, in seconds.
        seconds: f64,
        /// The budget it exceeded, in seconds.
        limit_seconds: f64,
    },
}

/// The fate of one whole sensor reading, drawn by
/// [`FaultInjector::sensor_fault`] independently of the per-component
/// measurement noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFault {
    /// The reading arrives intact and on time.
    Clean,
    /// The reading is silently lost.
    Dropout,
    /// The reading arrives, but describes the state `age` epochs ago.
    Stale {
        /// How many epochs late the reading is (≥ 1).
        age: usize,
    },
    /// One component of the reading is corrupted to a non-finite value.
    Corrupt {
        /// Index of the corrupted component in the consumer's layout.
        component: usize,
    },
}

impl std::fmt::Display for ProbeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeFault::Transient => write!(f, "transient probe failure"),
            ProbeFault::Timeout {
                seconds,
                limit_seconds,
            } => write!(
                f,
                "probe timed out ({seconds:.3}s > {limit_seconds:.3}s budget)"
            ),
        }
    }
}

/// What noise to inject, configurable per resource component.
///
/// Jitter is multiplicative and uniform: a component measured as `t`
/// becomes `t * u` with `u ~ U[1 - j, 1 + j]`. Outlier spikes multiply the
/// whole measurement by a Pareto(α = 2) tail starting at `outlier_scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relative jitter half-width on the CPU component.
    pub cpu_jitter: f64,
    /// Relative jitter half-width on the sequential-read component.
    pub seq_io_jitter: f64,
    /// Relative jitter half-width on the random-read component.
    pub random_io_jitter: f64,
    /// Relative jitter half-width on the write component.
    pub write_jitter: f64,
    /// Probability that a measurement is a heavy-tailed outlier spike.
    pub outlier_prob: f64,
    /// Minimum multiplier of an outlier spike (the Pareto scale).
    pub outlier_scale: f64,
    /// Probability that a measurement fails transiently.
    pub failure_prob: f64,
    /// A measurement exceeding `timeout_factor ×` its clean duration is
    /// reported as a timeout instead of a value (`INFINITY` disables).
    pub timeout_factor: f64,
    /// Probability that a whole sensor reading silently drops out (the
    /// monitoring agent never delivers it). Drawn by
    /// [`FaultInjector::sensor_fault`], independently of the per-component
    /// measurement stream.
    pub dropout_prob: f64,
    /// Probability that a sensor reading arrives stale: the delivered
    /// value describes the workload `age` epochs ago, not now.
    pub stale_prob: f64,
    /// Maximum staleness age in epochs (ages are drawn uniformly from
    /// `1..=stale_max_age`). Must be ≥ 1 whenever `stale_prob > 0`.
    pub stale_max_age: usize,
    /// Probability that one component of a reading is corrupted to a
    /// non-finite value (a garbage counter the consumer must reject).
    pub corrupt_prob: f64,
}

/// Cap on the Pareto outlier multiplier, so a spike is "wildly off" but
/// still finite.
const OUTLIER_CAP: f64 = 1000.0;

impl NoiseModel {
    /// The identity model: no jitter, no outliers, no failures, no
    /// timeouts. Measurements pass through bit-identically.
    pub fn none() -> NoiseModel {
        NoiseModel {
            cpu_jitter: 0.0,
            seq_io_jitter: 0.0,
            random_io_jitter: 0.0,
            write_jitter: 0.0,
            outlier_prob: 0.0,
            outlier_scale: 1.0,
            failure_prob: 0.0,
            timeout_factor: f64::INFINITY,
            dropout_prob: 0.0,
            stale_prob: 0.0,
            stale_max_age: 0,
            corrupt_prob: 0.0,
        }
    }

    /// Uniform relative jitter of half-width `j` on every resource
    /// component (e.g. `0.1` for ±10%).
    pub fn uniform_jitter(j: f64) -> NoiseModel {
        NoiseModel {
            cpu_jitter: j,
            seq_io_jitter: j,
            random_io_jitter: j,
            write_jitter: j,
            ..NoiseModel::none()
        }
    }

    /// A realistic composite: uniform jitter `j`, 5% heavy-tailed spikes
    /// of at least 8×, 5% transient failures, and a 20× timeout budget.
    pub fn realistic(j: f64) -> NoiseModel {
        NoiseModel {
            outlier_prob: 0.05,
            outlier_scale: 8.0,
            failure_prob: 0.05,
            timeout_factor: 20.0,
            ..NoiseModel::uniform_jitter(j)
        }
    }

    /// Returns the model with transient-failure probability `p`.
    pub fn with_failures(mut self, p: f64) -> NoiseModel {
        self.failure_prob = p;
        self
    }

    /// Returns the model with outlier probability `p` and minimum spike
    /// multiplier `scale`.
    pub fn with_outliers(mut self, p: f64, scale: f64) -> NoiseModel {
        self.outlier_prob = p;
        self.outlier_scale = scale;
        self
    }

    /// A sensor-degradation model on top of an otherwise clean pipeline:
    /// whole readings drop out with probability `dropout`, arrive up to
    /// `stale_max_age` epochs stale with probability `stale`, and have one
    /// component corrupted to a non-finite value with probability
    /// `corrupt`. Measurement values themselves pass through unjittered.
    pub fn sensor_degraded(
        dropout: f64,
        stale: f64,
        stale_max_age: usize,
        corrupt: f64,
    ) -> NoiseModel {
        NoiseModel {
            dropout_prob: dropout,
            stale_prob: stale,
            stale_max_age,
            corrupt_prob: corrupt,
            ..NoiseModel::none()
        }
    }

    /// True if this model can never alter a per-component measurement
    /// value (whole-reading sensor faults — dropout, staleness,
    /// corruption — are drawn separately and do not affect this).
    pub(crate) fn is_measurement_identity(&self) -> bool {
        self.cpu_jitter == 0.0
            && self.seq_io_jitter == 0.0
            && self.random_io_jitter == 0.0
            && self.write_jitter == 0.0
            && self.outlier_prob == 0.0
            && self.failure_prob == 0.0
            && self.timeout_factor.is_infinite()
    }

    /// Validates that probabilities are in `[0, 1]` and jitters in
    /// `[0, 1)` (a jitter of 1 could zero out a measurement).
    pub fn validate(&self) -> Result<(), crate::VmmError> {
        let probs_ok = [
            self.outlier_prob,
            self.failure_prob,
            self.dropout_prob,
            self.stale_prob,
            self.corrupt_prob,
        ]
        .iter()
        .all(|p| (0.0..=1.0).contains(p));
        let jitters_ok = [
            self.cpu_jitter,
            self.seq_io_jitter,
            self.random_io_jitter,
            self.write_jitter,
        ]
        .iter()
        .all(|j| (0.0..1.0).contains(j));
        // The three sensor outcomes are drawn from one partition of [0, 1).
        let sensor_ok = self.dropout_prob + self.stale_prob + self.corrupt_prob <= 1.0
            && (self.stale_prob == 0.0 || self.stale_max_age >= 1);
        if probs_ok
            && jitters_ok
            && sensor_ok
            && self.outlier_scale >= 1.0
            && self.timeout_factor > 1.0
        {
            Ok(())
        } else {
            Err(crate::VmmError::InvalidShare { value: f64::NAN })
        }
    }
}

/// Mixes a measurement's identity into one RNG seed.
fn mix(seed: u64, context: u64, probe: usize, trial: usize, attempt: usize) -> u64 {
    let mut h = SplitMix64::mix(seed);
    h = SplitMix64::mix(h ^ context);
    h = SplitMix64::mix(h ^ (probe as u64).wrapping_mul(0x8573_9A2B));
    h = SplitMix64::mix(h ^ (trial as u64).wrapping_mul(0xC2B2_AE35));
    SplitMix64::mix(h ^ (attempt as u64).wrapping_mul(0x2545_F491))
}

/// A seeded, stateless fault injector for probe measurements.
///
/// `measure` perturbs a clean `(cpu, seq, random, write)` seconds
/// breakdown according to the [`NoiseModel`], or raises a [`ProbeFault`].
/// With [`NoiseModel::none`] the clean sum is returned bit-identically and
/// no random numbers are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    model: NoiseModel,
    seed: u64,
}

// Process-wide fault-injection telemetry (no-ops until
// `dbvirt_telemetry::enable()`): how many probe attempts the injector
// perturbed, failed, timed out, or spiked — the denominators behind the
// calibration retry counters in `CalibrationReport`.
static TM_MEASURES: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.measurements");
static TM_FAILURES: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.transient_failures");
static TM_TIMEOUTS: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.timeouts");
static TM_OUTLIERS: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.outlier_spikes");
static TM_DROPOUTS: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.sensor_dropouts");
static TM_STALE: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.sensor_stale");
static TM_CORRUPT: dbvirt_telemetry::Counter =
    dbvirt_telemetry::Counter::new("vmm.fault.sensor_corrupt");

impl FaultInjector {
    /// Creates an injector from a noise model and a seed.
    pub fn new(model: NoiseModel, seed: u64) -> FaultInjector {
        FaultInjector { model, seed }
    }

    /// The injector's noise model.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// The injector's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Produces the (possibly noisy) measurement for one probe attempt.
    ///
    /// `context` distinguishes measurement campaigns (e.g. grid cells) so
    /// each gets an independent noise stream; `probe`, `trial` and
    /// `attempt` key the draw within a campaign. The clean measurement is
    /// the component sum `cpu + seq + random + write`, matching
    /// [`crate::VirtualMachine::demand_seconds`].
    pub fn measure(
        &self,
        context: u64,
        probe: usize,
        trial: usize,
        attempt: usize,
        breakdown: (f64, f64, f64, f64),
    ) -> Result<f64, ProbeFault> {
        let (cpu, seq, random, write) = breakdown;
        let clean = cpu + seq + random + write;
        if self.model.is_measurement_identity() {
            return Ok(clean);
        }
        TM_MEASURES.add(1);
        let mut rng = StdRng::seed_from_u64(mix(self.seed, context, probe, trial, attempt));

        // Draw order is part of the determinism contract: failure, then
        // the four jitter factors, then the outlier pair.
        if self.model.failure_prob > 0.0 && rng.gen_bool(self.model.failure_prob) {
            TM_FAILURES.add(1);
            return Err(ProbeFault::Transient);
        }
        let mut factor = |j: f64| {
            if j > 0.0 {
                rng.gen_range(1.0 - j..=1.0 + j)
            } else {
                1.0
            }
        };
        let mut noisy = cpu * factor(self.model.cpu_jitter)
            + seq * factor(self.model.seq_io_jitter)
            + random * factor(self.model.random_io_jitter)
            + write * factor(self.model.write_jitter);
        if self.model.outlier_prob > 0.0 && rng.gen_bool(self.model.outlier_prob) {
            // Pareto(α = 2) tail: scale / sqrt(u), capped.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            noisy *= (self.model.outlier_scale / u.sqrt()).min(OUTLIER_CAP);
            TM_OUTLIERS.add(1);
        }
        if clean > 0.0 && noisy > clean * self.model.timeout_factor {
            TM_TIMEOUTS.add(1);
            return Err(ProbeFault::Timeout {
                seconds: noisy,
                limit_seconds: clean * self.model.timeout_factor,
            });
        }
        Ok(noisy)
    }

    /// Draws the fate of one whole sensor reading, keyed by
    /// `(seed, context, probe, trial)` on a stream independent of
    /// [`FaultInjector::measure`]'s (salted seed), so enabling sensor
    /// faults does not re-shuffle the measurement noise. `components` is
    /// the size of the consumer's reading layout; a corruption picks one
    /// index uniformly from it.
    pub fn sensor_fault(
        &self,
        context: u64,
        probe: usize,
        trial: usize,
        components: usize,
    ) -> SensorFault {
        let m = &self.model;
        if m.dropout_prob == 0.0 && m.stale_prob == 0.0 && m.corrupt_prob == 0.0 {
            return SensorFault::Clean;
        }
        const SENSOR_SALT: u64 = 0x5E2_50E5_EED5;
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ SENSOR_SALT, context, probe, trial, 0));
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < m.dropout_prob {
            TM_DROPOUTS.add(1);
            return SensorFault::Dropout;
        }
        if u < m.dropout_prob + m.stale_prob {
            TM_STALE.add(1);
            return SensorFault::Stale {
                age: rng.gen_range(1..=m.stale_max_age.max(1)),
            };
        }
        if u < m.dropout_prob + m.stale_prob + m.corrupt_prob {
            TM_CORRUPT.add(1);
            return SensorFault::Corrupt {
                component: rng.gen_range(0..components.max(1)),
            };
        }
        SensorFault::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BD: (f64, f64, f64, f64) = (0.1, 0.2, 0.3, 0.4);

    #[test]
    fn identity_model_is_bit_exact_passthrough() {
        let inj = FaultInjector::new(NoiseModel::none(), 42);
        let clean = BD.0 + BD.1 + BD.2 + BD.3;
        for probe in 0..8 {
            let got = inj.measure(7, probe, 0, 0, BD).unwrap();
            assert_eq!(got.to_bits(), clean.to_bits());
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let inj = FaultInjector::new(NoiseModel::uniform_jitter(0.1), 1);
        let clean = BD.0 + BD.1 + BD.2 + BD.3;
        for trial in 0..100 {
            let a = inj.measure(0, 3, trial, 0, BD).unwrap();
            let b = inj.measure(0, 3, trial, 0, BD).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "same key, same draw");
            assert!(a >= clean * 0.9 && a <= clean * 1.1, "trial {trial}: {a}");
        }
        // Different keys give different draws.
        let a = inj.measure(0, 3, 0, 0, BD).unwrap();
        let b = inj.measure(0, 3, 1, 0, BD).unwrap();
        let c = inj.measure(0, 3, 0, 1, BD).unwrap();
        let d = inj.measure(1, 3, 0, 0, BD).unwrap();
        assert!(a != b && a != c && a != d);
    }

    #[test]
    fn per_resource_jitter_only_touches_its_component() {
        // Jitter on CPU only: a pure-I/O measurement stays clean.
        let model = NoiseModel {
            cpu_jitter: 0.5,
            ..NoiseModel::none()
        };
        let inj = FaultInjector::new(model, 9);
        let io_only = (0.0, 0.2, 0.3, 0.1);
        let clean = 0.2 + 0.3 + 0.1;
        for trial in 0..20 {
            let got = inj.measure(0, 0, trial, 0, io_only).unwrap();
            assert!((got - clean).abs() < 1e-15, "trial {trial}: {got}");
        }
        // But a CPU-heavy measurement moves.
        let moved = (0..20).any(|t| {
            let got = inj.measure(0, 0, t, 0, BD).unwrap();
            (got - (BD.0 + BD.1 + BD.2 + BD.3)).abs() > 1e-6
        });
        assert!(moved);
    }

    #[test]
    fn failures_fire_at_roughly_the_configured_rate() {
        let inj = FaultInjector::new(NoiseModel::none().with_failures(0.25), 5);
        let fails = (0..4000)
            .filter(|&t| inj.measure(0, 0, t, 0, BD).is_err())
            .count();
        let frac = fails as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "observed {frac}");
    }

    #[test]
    fn retry_sees_fresh_noise_after_a_transient_failure() {
        let inj = FaultInjector::new(NoiseModel::none().with_failures(0.5), 3);
        // Find a failing (trial, attempt 0) and check some later attempt
        // succeeds: the attempt index re-keys the draw.
        let trial = (0..100)
            .find(|&t| inj.measure(0, 0, t, 0, BD).is_err())
            .expect("some failure at p = 0.5");
        let recovered = (1..20).any(|a| inj.measure(0, 0, trial, a, BD).is_ok());
        assert!(recovered);
    }

    #[test]
    fn outliers_are_heavy_tailed_spikes() {
        let inj = FaultInjector::new(NoiseModel::none().with_outliers(1.0, 8.0), 11);
        let clean = BD.0 + BD.1 + BD.2 + BD.3;
        let mut max = 0.0f64;
        for t in 0..1000 {
            let got = inj.measure(0, 0, t, 0, BD).unwrap();
            assert!(got >= clean * 8.0 * 0.999, "spike below scale: {got}");
            assert!(got <= clean * OUTLIER_CAP * 1.001, "spike above cap: {got}");
            max = max.max(got / clean);
        }
        assert!(max > 40.0, "tail never materialized: max {max}x");
    }

    #[test]
    fn timeouts_cut_off_extreme_measurements() {
        let model = NoiseModel {
            timeout_factor: 4.0,
            ..NoiseModel::none().with_outliers(1.0, 8.0)
        };
        let inj = FaultInjector::new(model, 13);
        // Every measurement spikes ≥8x against a 4x budget: all time out.
        for t in 0..50 {
            match inj.measure(0, 0, t, 0, BD) {
                Err(ProbeFault::Timeout {
                    seconds,
                    limit_seconds,
                }) => assert!(seconds > limit_seconds),
                other => panic!("expected timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_demand_passes_through() {
        let inj = FaultInjector::new(NoiseModel::realistic(0.1), 1);
        // A zero breakdown has nothing to jitter or time out.
        for t in 0..50 {
            match inj.measure(0, 0, t, 0, (0.0, 0.0, 0.0, 0.0)) {
                Ok(v) => assert_eq!(v, 0.0),
                Err(ProbeFault::Transient) => {} // failures can still fire
                Err(f) => panic!("unexpected {f:?}"),
            }
        }
    }

    #[test]
    fn model_validation() {
        assert!(NoiseModel::none().validate().is_ok());
        assert!(NoiseModel::realistic(0.1).validate().is_ok());
        assert!(NoiseModel::uniform_jitter(1.0).validate().is_err());
        assert!(NoiseModel::none().with_failures(1.5).validate().is_err());
        let mut m = NoiseModel::none();
        m.timeout_factor = 0.5;
        assert!(m.validate().is_err());
        // Sensor-fault probabilities partition [0, 1); stale needs an age.
        assert!(NoiseModel::sensor_degraded(0.1, 0.1, 3, 0.1)
            .validate()
            .is_ok());
        assert!(NoiseModel::sensor_degraded(0.6, 0.5, 3, 0.0)
            .validate()
            .is_err());
        assert!(NoiseModel::sensor_degraded(0.0, 0.2, 0, 0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn sensor_faults_are_deterministic_and_bounded() {
        let model = NoiseModel::sensor_degraded(0.2, 0.2, 3, 0.2);
        assert!(model.is_measurement_identity());
        let inj = FaultInjector::new(model, 21);
        let mut counts = [0usize; 4]; // clean, dropout, stale, corrupt
        for trial in 0..2000 {
            let a = inj.sensor_fault(5, 0, trial, 7);
            let b = inj.sensor_fault(5, 0, trial, 7);
            assert_eq!(a, b, "same key, same fate");
            match a {
                SensorFault::Clean => counts[0] += 1,
                SensorFault::Dropout => counts[1] += 1,
                SensorFault::Stale { age } => {
                    assert!((1..=3).contains(&age));
                    counts[2] += 1;
                }
                SensorFault::Corrupt { component } => {
                    assert!(component < 7);
                    counts[3] += 1;
                }
            }
        }
        // Each 20% mode should land near its rate.
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let frac = c as f64 / 2000.0;
            assert!((frac - 0.2).abs() < 0.05, "mode {i} observed {frac}");
        }
    }

    #[test]
    fn sensor_only_models_pass_measurements_through_bit_identically() {
        // Sensor faults must not perturb the per-component measurement
        // stream: a dropout-only injector measures exactly like a clean one.
        let clean = FaultInjector::new(NoiseModel::none(), 17);
        let sensor = FaultInjector::new(NoiseModel::sensor_degraded(0.5, 0.3, 2, 0.1), 17);
        for trial in 0..50 {
            let a = clean.measure(0, 0, trial, 0, BD).unwrap();
            let b = sensor.measure(0, 0, trial, 0, BD).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And a clean model draws no sensor faults at all.
        for trial in 0..50 {
            assert_eq!(clean.sensor_fault(0, 0, trial, 7), SensorFault::Clean);
        }
    }
}
