//! Property tests for the live (bucketed) histogram against the exact
//! `Histogram`: quantiles within 2%, count, mean and maximum exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adapta_telemetry::{registry, Histogram};
use proptest::prelude::*;

/// Nanosecond samples spread over many orders of magnitude: a random
/// value below a random power of two up to 2^44 (about 4.9 hours).
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u32..45, any::<u64>()).prop_map(|(bits, raw)| raw % (1u64 << bits)),
        1..600,
    )
}

/// A fresh registry histogram name per case.
fn fresh_name() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("test.prop.hist.{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

proptest! {
    #[test]
    fn bucketed_quantiles_track_the_exact_histogram(values in samples()) {
        let live = registry().histogram(&fresh_name());
        let mut exact = Histogram::new();
        for &ns in &values {
            live.record(Duration::from_nanos(ns));
            exact.record(Duration::from_nanos(ns));
        }
        let got = live.summary();
        prop_assert_eq!(got.count, values.len() as u64);
        prop_assert_eq!(got.max, exact.max());
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(got.mean, Duration::from_nanos(sum / values.len() as u64));
        let float_mean = exact.mean().as_nanos() as i128;
        prop_assert!((got.mean.as_nanos() as i128 - float_mean).abs() <= 16);
        for (q, approx) in [(0.50, got.p50), (0.90, got.p90), (0.95, got.p95), (0.99, got.p99)] {
            let want = exact.quantile(q).as_nanos() as f64;
            let have = approx.as_nanos() as f64;
            prop_assert!(
                have >= want && have <= want * 1.02,
                "p{} = {have} ns, exact {want} ns", q * 100.0
            );
        }
    }
}
