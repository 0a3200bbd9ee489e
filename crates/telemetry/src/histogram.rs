//! A fixed-size, log-linear (HDR-style) histogram of `u64` samples.
//!
//! Each value is bucketed by its most significant bit plus the next
//! [`SUB_BITS`] bits below it: values below `2^(SUB_BITS + 1)` get a bucket
//! of their own, and every larger power-of-two range `[2^m, 2^(m+1))` is
//! split into `2^SUB_BITS` equal sub-buckets. The whole `u64` range fits in
//! 1,920 atomic counters (15 KB), so a histogram never grows however many
//! samples it counts.
//!
//! ## Error bound
//!
//! A quantile reports the midpoint of the bucket holding the requested
//! sample, capped at the exact maximum. A bucket above `2^(SUB_BITS + 1)`
//! is `2^shift` wide and starts at or above `2^(shift + SUB_BITS)`, so the
//! reported value differs from the exact sample by at most
//! `2^-(SUB_BITS + 1)` = **1/64 of the sample** (and is exact below 64).
//! Count, sum and maximum are exact.
//!
//! ## Concurrency
//!
//! [`Histogram::record`] is three or four relaxed atomic operations with no
//! lock and no allocation, so any number of threads may record into one
//! histogram. [`Histogram::merge`] adds one histogram into another, so
//! per-thread or per-process histograms combine into exactly the histogram
//! of all their samples. A [`Histogram::snapshot`] taken while other threads
//! record reads each word once, so it may miss or half-count the samples in
//! flight; once the recorders stop, it is exact.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bits of resolution kept below each value's most significant bit.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Number of buckets covering the whole `u64` range.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// The bucket holding `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    let bits = 64 - v.leading_zeros();
    let shift = bits.saturating_sub(SUB_BITS + 1);
    (shift as usize) * SUB + (v >> shift) as usize
}

/// The lowest value of bucket `i` and the bucket's width.
fn span_of(i: usize) -> (u64, u64) {
    let shift = (i / SUB).saturating_sub(1);
    (((i - shift * SUB) as u64) << shift, 1 << shift)
}

/// The midpoint of bucket `i`, rounded down.
fn midpoint(i: usize) -> u64 {
    let (lowest, width) = span_of(i);
    lowest + (width - 1) / 2
}

/// A fixed-size log-linear histogram with atomic buckets; see the module
/// docs for the layout and the error bound.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// The sum of all samples as a 128-bit value split in two words, so a
    /// sum of `u64::MAX` samples stays exact.
    sum_lo: AtomicU64,
    sum_hi: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram; usable in a `static`.
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Counts one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        if self.sum_lo.fetch_add(v, Relaxed).checked_add(v).is_none() {
            self.sum_hi.fetch_add(1, Relaxed);
        }
        if v > self.max.load(Relaxed) {
            self.max.fetch_max(v, Relaxed);
        }
    }

    /// Adds every sample of `other` into `self`: the result is the
    /// histogram of both sample sets.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Relaxed);
            if n != 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        let lo = other.sum_lo.load(Relaxed);
        let carry = self.sum_lo.fetch_add(lo, Relaxed).checked_add(lo).is_none();
        self.sum_hi.fetch_add(other.sum_hi.load(Relaxed).wrapping_add(carry.into()), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }

    /// A point-in-time copy for reading count, sum, maximum and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Box<[u64]> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSnapshot {
            count: counts.iter().sum(),
            sum: u128::from(self.sum_hi.load(Relaxed)) << 64
                | u128::from(self.sum_lo.load(Relaxed)),
            max: self.max.load(Relaxed),
            counts,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A copy holding the same samples.
impl Clone for Histogram {
    fn clone(&self) -> Self {
        let copy = Self::new();
        copy.merge(self);
        copy
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish_non_exhaustive()
    }
}

/// A plain copy of a [`Histogram`] at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples counted.
    pub count: u64,
    /// Exact sum of the samples.
    pub sum: u128,
    /// Exact largest sample; 0 when empty.
    pub max: u64,
    counts: Box<[u64]>,
}

impl HistogramSnapshot {
    /// Mean sample; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `p` quantile (`p` in 0..=1, clamped): the sample of
    /// 0-based rank `round((count - 1) * p)` in sorted order, within the
    /// module's relative error bound (1/64) and never above [`Self::max`].
    /// The top rank reads the exact maximum; 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        if rank + 1 == self.count {
            return self.max;
        }
        let mut below = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            below += n;
            if below > rank {
                return midpoint(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_in_order() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(65), 64);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's lowest value maps back to it, and the next bucket
        // starts right after this one ends.
        for i in 0..BUCKETS {
            let (lowest, width) = span_of(i);
            assert_eq!(bucket_of(lowest), i);
            let highest = lowest + (width - 1);
            assert_eq!(bucket_of(highest), i);
            if i + 1 < BUCKETS {
                assert_eq!(bucket_of(highest + 1), i + 1);
            }
        }
    }
}
