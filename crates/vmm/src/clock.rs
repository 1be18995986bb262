//! Simulated time.
//!
//! All "measurements" in the reproduction are simulated wall-clock readings.
//! Times are kept as integer microseconds so that simulation results are
//! exactly reproducible and hashable; conversions to floating-point seconds
//! are provided for reporting and for the calibration least-squares solver.

use crate::VmmError;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in integer microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds, returning a typed error instead of
    /// panicking when `secs` is negative, NaN, infinite, or larger than the
    /// microsecond counter can hold.
    pub fn try_from_secs_f64(secs: f64) -> Result<SimDuration, VmmError> {
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(VmmError::InvalidDuration { seconds: secs });
        }
        let us = secs * 1e6;
        if us > u64::MAX as f64 {
            return Err(VmmError::InvalidDuration { seconds: secs });
        }
        Ok(SimDuration(us.round() as u64))
    }

    /// The duration in integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An instant on the simulated clock, as microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds since the epoch.
    pub(crate) const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the simulation epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Checked advance: `None` when the microsecond counter would overflow.
    pub const fn checked_add(self, rhs: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(rhs.as_micros()) {
            Some(us) => Some(SimTime(us)),
            None => None,
        }
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub(crate) fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.as_micros())
                .expect("SimTime overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_roundtrip_micros() {
        let d = SimDuration(1_234_567);
        assert_eq!(d.as_micros(), 1_234_567);
        assert!((d.as_secs_f64() - 1.234_567).abs() < 1e-12);
    }

    #[test]
    fn duration_from_secs_rounds() {
        let d = SimDuration::try_from_secs_f64(0.000_001_4).unwrap();
        assert_eq!(d.as_micros(), 1);
        let d = SimDuration::try_from_secs_f64(0.000_001_6).unwrap();
        assert_eq!(d.as_micros(), 2);
    }

    #[test]
    fn try_from_secs_rejects_hostile_values_with_typed_errors() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e290] {
            match SimDuration::try_from_secs_f64(bad) {
                Err(VmmError::InvalidDuration { seconds }) => {
                    assert!(seconds.is_nan() == bad.is_nan() && (bad.is_nan() || seconds == bad))
                }
                other => panic!("expected InvalidDuration for {bad}, got {other:?}"),
            }
        }
        // The largest representable duration is accepted; one order of
        // magnitude more is not.
        assert!(SimDuration::try_from_secs_f64(u64::MAX as f64 / 1e6 * 0.99).is_ok());
        assert!(SimDuration::try_from_secs_f64(u64::MAX as f64 / 1e6 * 10.0).is_err());
    }

    #[test]
    fn checked_add_saturates_to_none_on_overflow() {
        let late = SimTime::from_micros(u64::MAX - 10);
        assert!(late.checked_add(SimDuration(10)).is_some());
        assert!(late.checked_add(SimDuration(11)).is_none());
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration(10);
        let b = SimDuration(3);
        assert_eq!((a + b).as_micros(), 13);
        assert_eq!((a - b).as_micros(), 7);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_micros(), 16);
    }

    #[test]
    fn time_advances_and_measures() {
        let mut t = SimTime::ZERO;
        t += SimDuration(500);
        let t2 = t + SimDuration(250);
        assert_eq!(t2.duration_since(t).as_micros(), 250);
        assert_eq!(t2.as_micros(), 750);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration(12).to_string(), "12us");
        assert_eq!(SimDuration(12_000).to_string(), "12.000ms");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.500s");
    }
}
