//! In-tree shim for the `rand` crate (offline build environment).
//!
//! Provides a deterministic xoshiro256**-based [`rngs::StdRng`] plus the
//! [`Rng`]/[`SeedableRng`] trait subset dbvirt uses (`gen_range` over
//! integer and float ranges, `gen_bool`). Sequences are deterministic per
//! seed but are not the real StdRng streams; all in-repo consumers treat
//! the generator as an arbitrary fixed pseudo-random source.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling helpers over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Maps 64 random bits to a float in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    // 53 high bits -> [0, 1) with full double precision.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A type that can be drawn uniformly from a range.
pub trait SampleUniform: Sized {
    /// Uniform sample from `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_range<G: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut G) -> Self;
}

/// A range that can be sampled uniformly. The single generic impl per
/// range shape (rather than one impl per element type) lets type
/// inference unify an unsuffixed literal in `gen_range(0..n)` with the
/// type the result is used at, matching the real crate.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        T::sample_range(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        T::sample_range(*self.start(), *self.end(), true, rng)
    }
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<G: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut G,
            ) -> $t {
                let (lo, hi) = (lo as i128, hi as i128);
                let span = if inclusive {
                    assert!(lo <= hi, "empty gen_range");
                    (hi - lo) as u128 + 1
                } else {
                    assert!(lo < hi, "empty gen_range");
                    (hi - lo) as u128
                };
                let v = (rng.next_u64() as u128) % span;
                (lo + v as i128) as $t
            }
        }
    )*};
}

impl_int_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample_range<G: RngCore + ?Sized>(lo: f64, hi: f64, inclusive: bool, rng: &mut G) -> f64 {
        if inclusive {
            assert!(lo <= hi, "empty gen_range");
        } else {
            assert!(lo < hi, "empty gen_range");
        }
        lo + (hi - lo) * unit_f64(rng.next_u64())
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The shim's standard generator: xoshiro256** seeded via splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // splitmix64 to spread the seed over the full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0i64..1000), b.gen_range(0i64..1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-5i64..17);
            assert!((-5..17).contains(&v));
            let v = rng.gen_range(3u32..=9);
            assert!((3..=9).contains(&v));
            let f = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
    }
}
