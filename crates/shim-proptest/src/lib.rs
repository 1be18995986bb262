//! In-tree shim for the `proptest` crate (offline build environment).
//!
//! Implements the subset dbvirt's tests use: the [`proptest!`] macro
//! (deterministic case loop, no shrinking), [`Strategy`] for ranges,
//! tuples, `collection::vec`, `bool::ANY`, simple `[charset]{lo,hi}`
//! string patterns, and `prop_map`. Cases are seeded deterministically
//! from the test name, so failures reproduce exactly.

use std::ops::{Range, RangeInclusive};

/// Per-test deterministic generator (xorshift-based).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// A generator for `case` of the test whose name hashes to `seed`.
    pub fn deterministic(seed: u64, case: u64) -> TestRng {
        // Never zero: xorshift has a zero fixed point.
        TestRng(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn uniform_u64(&mut self, span: u128) -> u128 {
        debug_assert!(span > 0);
        (self.next_u64() as u128) % span
    }
}

/// FNV-1a hash of a test name, used to seed its generator.
pub fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Run configuration; only the case count is honored.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 32 }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Element types samplable from a plain range; one generic `Strategy`
/// impl per range shape keeps unsuffixed literals inferable from use.
pub trait RangeValue: Sized {
    /// Uniform sample from `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_range(lo: Self, hi: Self, inclusive: bool, rng: &mut TestRng) -> Self;
}

macro_rules! impl_int_range_value {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn sample_range(lo: $t, hi: $t, inclusive: bool, rng: &mut TestRng) -> $t {
                let (lo, hi) = (lo as i128, hi as i128);
                let span = if inclusive {
                    assert!(lo <= hi, "empty strategy range");
                    (hi - lo) as u128 + 1
                } else {
                    assert!(lo < hi, "empty strategy range");
                    (hi - lo) as u128
                };
                (lo + rng.uniform_u64(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range_value!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl RangeValue for f64 {
    fn sample_range(lo: f64, hi: f64, inclusive: bool, rng: &mut TestRng) -> f64 {
        if inclusive {
            assert!(lo <= hi, "empty strategy range");
        } else {
            assert!(lo < hi, "empty strategy range");
        }
        lo + (hi - lo) * rng.unit_f64()
    }
}

impl<T: RangeValue + Copy> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_range(self.start, self.end, false, rng)
    }
}

impl<T: RangeValue + Copy> Strategy for RangeInclusive<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_range(*self.start(), *self.end(), true, rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Simple string patterns: `[charset]{lo,hi}` with `a-z` style ranges in
/// the charset (the only pattern shape used in this repo).
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (charset, lo, hi) = parse_pattern(self);
        let len = lo + rng.uniform_u64((hi - lo + 1) as u128) as usize;
        (0..len)
            .map(|_| charset[rng.uniform_u64(charset.len() as u128) as usize])
            .collect()
    }
}

fn parse_pattern(pat: &str) -> (Vec<char>, usize, usize) {
    let inner = pat
        .strip_prefix('[')
        .and_then(|r| r.split_once(']'))
        .unwrap_or_else(|| panic!("unsupported string pattern {pat:?} (want [set]{{lo,hi}})"));
    let (set, rest) = inner;
    let mut charset = Vec::new();
    let chars: Vec<char> = set.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            for c in chars[i]..=chars[i + 2] {
                charset.push(c);
            }
            i += 3;
        } else {
            charset.push(chars[i]);
            i += 1;
        }
    }
    let counts = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported repetition in pattern {pat:?}"));
    let (lo, hi) = counts
        .split_once(',')
        .map(|(a, b)| (a.trim().parse().unwrap(), b.trim().parse().unwrap()))
        .unwrap_or_else(|| {
            let n = counts.trim().parse().unwrap();
            (n, n)
        });
    assert!(!charset.is_empty() && lo <= hi, "bad pattern {pat:?}");
    (charset, lo, hi)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A vector of values from `element`, with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { element, len }
    }

    /// The [`vec`] strategy.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The any-boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Short-path names, mirroring `proptest::prelude::prop`.
pub mod prop {
    pub use crate::bool;
    pub use crate::collection;
}

/// The common imports.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
    };
}

/// Asserts a property holds (panics on failure, like a failed test case).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// Only valid directly inside a [`proptest!`] body (it continues the
/// enclosing case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// Asserts two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Defines property tests: each `fn` runs its body for a number of
/// deterministic pseudo-random cases, with the `name in strategy`
/// bindings freshly sampled per case.
#[macro_export]
macro_rules! proptest {
    (@impl $cases:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases: usize = $cases;
                for case in 0..cases {
                    let mut __proptest_rng = $crate::TestRng::deterministic(
                        $crate::fnv(stringify!($name)),
                        case as u64,
                    );
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __proptest_rng);)+
                    $body
                }
            }
        )+
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg).cases as usize; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl 32usize; $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pattern_parsing_generates_members() {
        let mut rng = crate::TestRng::deterministic(1, 0);
        for _ in 0..200 {
            let s = crate::Strategy::sample(&"[a-c0-1 ]{2,5}", &mut rng);
            assert!((2..=5).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| "abc01 ".contains(c)), "{s:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn macro_binds_and_loops(
            xs in prop::collection::vec(0i64..10, 1..5),
            flag in prop::bool::ANY,
            (a, b) in (0u32..4, 0.0f64..1.0),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 5);
            prop_assert!(xs.iter().all(|&x| (0..10).contains(&x)));
            // The bool binding reaches the body with the other bindings.
            let kept = xs.iter().filter(|_| flag).count();
            prop_assert_eq!(kept, if flag { xs.len() } else { 0 });
            prop_assert!(a < 4 && (0.0..1.0).contains(&b));
        }
    }
}
