//! Log-bucketed (HDR-style) histogram over `u64` values.
//!
//! Bucketing uses 8 sub-buckets per power of two, giving every bucket a
//! relative width of at most 12.5% — accurate enough for latency
//! percentiles while needing only [`NUM_BUCKETS`] fixed counters (no
//! allocation on the record path, one relaxed `fetch_add`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two.
const SUB: usize = 8;

/// Total bucket count: values `0..8` get exact unit buckets, then each of
/// the remaining 61 octaves (`2^3 ..= 2^63`) contributes [`SUB`] buckets.
pub(crate) const NUM_BUCKETS: usize = SUB + 61 * SUB;

/// Maps a value to its bucket index.
///
/// Values below 8 index directly (exact unit buckets). Above, the index
/// is `(exp - 2) * 8 + offset` where `exp = floor(log2 v)` and `offset`
/// is the top three bits below the leading bit.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // exp >= 3
    let offset = ((v >> (exp - 3)) as usize) - SUB;
    (exp - 2) * SUB + offset
}

/// The smallest value mapping to `index` (inverse of [`bucket_index`]).
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = index / SUB; // >= 1
    let sub = index % SUB;
    ((SUB + sub) as u64) << (octave - 1)
}

/// Lock-free histogram: fixed bucket array plus exact count/sum/min/max.
#[derive(Debug)]
pub(crate) struct Hist {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    pub(crate) fn new() -> Hist {
        Hist {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram: only non-empty buckets, as
/// `(bucket_index, count)` pairs, plus exact aggregate statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
    /// Total number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Exact mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket containing the `ceil(q * count)`-th value. Within a
    /// bucket's ≤ 12.5% width, this is exact at bucket boundaries.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact_below_eight() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_continuous_and_monotone() {
        // Every value maps to a bucket whose bounds contain it, and the
        // index function is monotone non-decreasing.
        let mut prev_idx = 0usize;
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            31,
            32,
            63,
            64,
            100,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 1,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev_idx, "index not monotone at v={v}");
            prev_idx = idx;
            let lo = bucket_lower_bound(idx);
            assert!(lo <= v, "v={v} below its bucket lower bound {lo}");
            if idx + 1 < NUM_BUCKETS {
                let next_lo = bucket_lower_bound(idx + 1);
                assert!(v < next_lo, "v={v} not below next bucket bound {next_lo}");
            }
        }
    }

    #[test]
    fn lower_bounds_invert_the_index_exactly() {
        for idx in 0..NUM_BUCKETS {
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx} maps back");
        }
    }

    #[test]
    fn relative_bucket_width_is_at_most_one_eighth() {
        for idx in 8..NUM_BUCKETS - 1 {
            let lo = bucket_lower_bound(idx) as f64;
            let hi = bucket_lower_bound(idx + 1) as f64;
            assert!(
                (hi - lo) / lo <= 0.125 + 1e-12,
                "bucket {idx}: [{lo}, {hi}) wider than 12.5%"
            );
        }
    }

    #[test]
    fn hist_records_and_snapshots() {
        let h = Hist::new();
        for v in [1u64, 1, 5, 100, 1000, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1 + 1 + 5 + 100 + 1000 + 1000 + 1_000_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(
            s.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            s.count,
            "bucket counts must sum to total"
        );
        // Quantiles bracket correctly: median falls in the 100-bucket.
        let q50 = s.quantile(0.5);
        assert!((5..=100).contains(&q50), "median {q50}");
        // The top quantile lands in the max value's bucket (reported as
        // that bucket's lower bound, within 12.5% of the true max).
        let q100 = s.quantile(1.0);
        assert_eq!(bucket_index(q100), bucket_index(s.max), "q100={q100}");
        assert!(q100 <= s.max);
        h.reset();
        let s2 = h.snapshot();
        assert_eq!(s2.count, 0);
        assert_eq!(s2.min, 0);
        assert!(s2.buckets.is_empty());
    }
}
