//! Two-sided Page–Hinkley change detection.
//!
//! The controller watches a single scalar summary per VM — the log of each
//! completed query's *reference* cost (priced on the whole machine, so the
//! controller's own reallocation decisions cannot masquerade as workload
//! drift). The Page–Hinkley test maintains cumulative deviations from the
//! running mean and fires when either the upward or downward excursion
//! exceeds a threshold `lambda`; `delta` is the magnitude of change the
//! test tolerates without firing, which suppresses per-query noise.

/// Page–Hinkley parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DriftConfig {
    /// Tolerated deviation magnitude (in the observed unit — the controller
    /// feeds log-seconds, so `0.05` tolerates ~5% per-query wobble).
    pub delta: f64,
    /// Detection threshold on the cumulative excursion.
    pub lambda: f64,
    /// Number of observations before the test may fire (lets the running
    /// mean settle).
    pub warmup: u64,
}

/// Streaming two-sided Page–Hinkley detector.
#[derive(Debug, Clone)]
pub(crate) struct PageHinkley {
    config: DriftConfig,
    count: u64,
    mean: f64,
    up: f64,
    up_min: f64,
    down: f64,
    down_max: f64,
}

impl PageHinkley {
    /// Creates a detector in its reset state.
    pub fn new(config: DriftConfig) -> PageHinkley {
        PageHinkley {
            config,
            count: 0,
            mean: 0.0,
            up: 0.0,
            up_min: 0.0,
            down: 0.0,
            down_max: 0.0,
        }
    }

    /// Feeds one observation; returns `true` when drift is detected.
    /// Non-finite observations are ignored (they are measurement faults,
    /// not workload changes).
    pub(crate) fn observe(&mut self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.up += x - self.mean - self.config.delta;
        self.up_min = self.up_min.min(self.up);
        self.down += x - self.mean + self.config.delta;
        self.down_max = self.down_max.max(self.down);
        self.count > self.config.warmup
            && (self.up - self.up_min > self.config.lambda
                || self.down_max - self.down > self.config.lambda)
    }

    /// Resets all state (after the controller has acted on a detection).
    pub fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.up = 0.0;
        self.up_min = 0.0;
        self.down = 0.0;
        self.down_max = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> PageHinkley {
        PageHinkley::new(DriftConfig {
            delta: 0.02,
            lambda: 0.3,
            warmup: 4,
        })
    }

    #[test]
    fn stationary_stream_never_fires() {
        let mut d = detector();
        for i in 0..500 {
            // Deterministic small wobble around 1.0.
            let x = 1.0 + 0.01 * ((i % 7) as f64 - 3.0);
            assert!(!d.observe(x), "false positive at observation {i}");
        }
    }

    #[test]
    fn upward_shift_is_detected() {
        let mut d = detector();
        for _ in 0..20 {
            assert!(!d.observe(1.0));
        }
        let mut fired = false;
        for _ in 0..20 {
            if d.observe(1.5) {
                fired = true;
                break;
            }
        }
        assert!(fired, "a +0.5 level shift must fire");
    }

    #[test]
    fn downward_shift_is_detected() {
        let mut d = detector();
        for _ in 0..20 {
            assert!(!d.observe(1.0));
        }
        let mut fired = false;
        for _ in 0..20 {
            if d.observe(0.5) {
                fired = true;
                break;
            }
        }
        assert!(fired, "a -0.5 level shift must fire");
    }

    #[test]
    fn warmup_suppresses_early_detection() {
        let mut d = PageHinkley::new(DriftConfig {
            delta: 0.0,
            lambda: 0.001,
            warmup: 10,
        });
        // A huge shift inside the warmup window must not fire.
        for i in 0..10 {
            let x = if i < 5 { 0.0 } else { 100.0 };
            assert!(!d.observe(x));
        }
    }

    #[test]
    fn reset_clears_accumulated_excursions() {
        let mut d = detector();
        for _ in 0..20 {
            d.observe(1.0);
        }
        for _ in 0..20 {
            d.observe(2.0);
        }
        d.reset();
        assert_eq!(d.count, 0);
        for i in 0..50 {
            assert!(!d.observe(2.0), "false positive after reset at {i}");
        }
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut d = detector();
        for _ in 0..10 {
            d.observe(1.0);
        }
        let n = d.count;
        assert!(!d.observe(f64::NAN));
        assert!(!d.observe(f64::INFINITY));
        assert_eq!(d.count, n);
    }

    #[test]
    fn constant_stream_never_fires() {
        // Exactly constant input: both excursions decay by delta per step,
        // so neither side can ever reach lambda.
        let mut d = detector();
        for i in 0..10_000 {
            assert!(!d.observe(3.25), "false positive on constant stream at {i}");
        }
    }

    #[test]
    fn single_observation_cannot_fire() {
        // After one observation the running mean equals the observation,
        // so both excursions are at their extrema and neither gap can
        // exceed lambda — a single sample can never fire, at any warmup.
        for x in [0.0, -1e9, 1e9] {
            let mut d = detector();
            assert!(!d.observe(x));
            assert_eq!(d.count, 1);
        }
    }

    #[test]
    fn alternating_signs_around_the_mean_never_fire() {
        // A zero-mean square wave is noise, not drift: the excursions keep
        // crossing back over the running mean and never accumulate.
        let mut d = PageHinkley::new(DriftConfig {
            delta: 0.05,
            lambda: 0.6,
            warmup: 8,
        });
        for i in 0..2_000 {
            let x = if i % 2 == 0 { 0.04 } else { -0.04 };
            assert!(!d.observe(x), "false positive on alternating stream at {i}");
        }
    }

    #[test]
    fn only_non_finite_input_never_advances_past_warmup() {
        // A sensor emitting pure garbage must never push the detector
        // through its warmup, let alone fire it.
        let mut d = detector();
        for _ in 0..100 {
            assert!(!d.observe(f64::NAN));
            assert!(!d.observe(f64::NEG_INFINITY));
        }
        assert_eq!(d.count, 0);
    }
}
