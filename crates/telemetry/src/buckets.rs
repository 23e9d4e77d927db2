//! The bounded, lock-free histogram behind live latency metrics.
//!
//! A fixed array of atomic counters over log-linear buckets, in the
//! style of HdrHistogram: values below 128 ns get one bucket each, and
//! every power-of-two range above that is split into 64 equal
//! sub-buckets, so a bucket is never wider than 1/64 of its lower
//! bound. Recording is four relaxed atomic operations and never
//! allocates; memory is fixed at creation however many samples arrive.
//!
//! Quantiles report the upper bound of the bucket holding the
//! nearest-rank sample, clamped to the largest sample seen, so they
//! never understate and overstate by less than 1/64 (about 1.6%).
//! Count, sum (hence the mean) and maximum are kept exactly. Samples
//! above 2^44 ns (about 4.9 hours) share the top bucket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::metrics::HistSummary;

/// Sub-buckets per power of two, as a bit count (64).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values below this get one bucket each.
const LINEAR: u64 = 2 * SUB as u64;
/// The highest power of two with its own sub-buckets.
const MAX_EXP: u32 = 43;
/// Total bucket count: the linear range plus 64 per power of two.
const BUCKETS: usize = LINEAR as usize + (MAX_EXP - SUB_BITS) as usize * SUB;

/// The bucket index of a value in nanoseconds.
fn index(ns: u64) -> usize {
    if ns < LINEAR {
        return ns as usize;
    }
    let ns = ns.min((1u64 << (MAX_EXP + 1)) - 1);
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (ns >> shift) as usize - SUB;
    LINEAR as usize + (exp - SUB_BITS - 1) as usize * SUB + sub
}

/// The largest value bucket `i` holds.
fn upper_bound(i: usize) -> u64 {
    if i < LINEAR as usize {
        return i as u64;
    }
    let j = i - LINEAR as usize;
    let shift = (j / SUB) as u32 + 1;
    let mantissa = (j % SUB + SUB) as u64;
    ((mantissa + 1) << shift) - 1
}

/// A fixed-size concurrent latency histogram (see the module docs).
pub(crate) struct Buckets {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Buckets {
    /// Records one sample.
    pub(crate) fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // Most samples are below the maximum: a load spares them the
        // read-modify-write.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes of heap this histogram holds (fixed at creation).
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.counts)
    }

    /// Count, mean, nearest-rank quantiles and maximum, in one pass
    /// over the buckets.
    pub(crate) fn summary(&self) -> HistSummary {
        const QUANTILES: [f64; 4] = [0.50, 0.90, 0.95, 0.99];
        let count = self.count.load(Ordering::Relaxed);
        let max = self.max_ns.load(Ordering::Relaxed);
        if count == 0 {
            return HistSummary::of_parts(0, 0, [0; 4], 0);
        }
        // Ranks as `Histogram::quantile` computes them, so both agree
        // on which sample each quantile names.
        let ranks = QUANTILES.map(|q| ((q * count as f64).ceil() as u64).clamp(1, count));
        // A sample recorded mid-walk may leave a rank unreached; the
        // maximum stands in for it.
        let mut found = [max; 4];
        let mut next = 0;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            while next < ranks.len() && seen >= ranks[next] {
                found[next] = upper_bound(i).min(max);
                next += 1;
            }
            if next == ranks.len() {
                break;
            }
        }
        let mean = self.sum_ns.load(Ordering::Relaxed) / count;
        HistSummary::of_parts(count, mean, found, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_a_bucket_that_holds_it() {
        let mut probes: Vec<u64> = (0..4096).collect();
        for exp in 7..64 {
            let base = 1u64 << exp;
            probes.extend([base - 1, base, base + 1, base + base / 3]);
        }
        probes.push(u64::MAX);
        for v in probes {
            let i = index(v);
            assert!(i < BUCKETS, "{v} -> {i}");
            let hi = upper_bound(i);
            let lo = if i == 0 { 0 } else { upper_bound(i - 1) + 1 };
            if v < 1 << (MAX_EXP + 1) {
                assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
                assert!((hi - lo) * 64 <= lo.max(64), "bucket [{lo}, {hi}] too wide");
            } else {
                assert_eq!(i, BUCKETS - 1);
            }
        }
    }

    #[test]
    fn bucket_bounds_increase() {
        for i in 1..BUCKETS {
            assert!(upper_bound(i) > upper_bound(i - 1), "bucket {i}");
        }
    }
}
