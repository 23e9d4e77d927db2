//! Per-replica runtime statistics.
//!
//! Every replica carries a lock-free [`ReplicaStats`]: an EWMA of
//! observed call latency, the number of calls currently in flight, call
//! and error counts, and the last load value pushed by a monitor
//! (see `adapta-monitor`'s `notifyEvent(evid, value)` pushes). Routing
//! policies read these to score replicas; the caller feeds them from
//! call outcomes.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Smoothing factor for the latency EWMA. High enough that
/// a degrading replica is noticed within a handful of calls, low
/// enough that one outlier does not dominate.
const EWMA_ALPHA: f64 = 0.3;

/// Runtime statistics for one replica. All fields are atomics: updates
/// come from many caller threads, reads from the routing policy on
/// every pick.
#[derive(Debug, Default)]
pub struct ReplicaStats {
    /// Calls handed to this replica by a policy pick.
    picks: AtomicU64,
    /// Calls completed (success or error).
    completed: AtomicU64,
    /// Calls completed with an error.
    errors: AtomicU64,
    /// Calls currently in flight.
    inflight: AtomicI64,
    /// EWMA of successful-call latency, in microseconds (f64 bits).
    /// Zero means "no observation yet".
    ewma_latency_us: AtomicU64,
    /// Last monitor-pushed load value (f64 bits); NaN bits = unset.
    last_load: AtomicU64,
}

/// Fold `sample` into the f64-bits EWMA stored in `cell`; the first
/// sample (while the cell reads zero) seeds it.
fn ewma_update(cell: &AtomicU64, sample: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let prev = f64::from_bits(current);
        let next = if prev == 0.0 {
            sample
        } else {
            EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * prev
        };
        match cell.compare_exchange_weak(
            current,
            next.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl ReplicaStats {
    /// Creates zeroed stats. `last_load` starts unset (NaN).
    pub fn new() -> ReplicaStats {
        let stats = ReplicaStats::default();
        stats.last_load.store(f64::NAN.to_bits(), Ordering::Relaxed);
        stats
    }

    /// Records that the policy handed a call to this replica.
    pub fn on_pick(&self) {
        self.picks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a call entering flight.
    pub fn on_start(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a call completing. Latency feeds the EWMA only on
    /// success — fast failures (connection refused) would otherwise
    /// make a dead replica look attractively quick.
    pub fn on_complete(&self, latency: Duration, ok: bool) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if ok {
            ewma_update(&self.ewma_latency_us, latency.as_secs_f64() * 1e6);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a monitor-pushed load value.
    pub fn record_load(&self, load: f64) {
        self.last_load.store(load.to_bits(), Ordering::Relaxed);
    }

    /// Times this replica has been picked.
    pub fn picks(&self) -> u64 {
        self.picks.load(Ordering::Relaxed)
    }

    /// Calls completed (success or error).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Calls completed with an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Calls currently in flight (never negative in practice).
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// EWMA latency of successful calls, if any completed yet.
    pub fn ewma_latency(&self) -> Option<Duration> {
        let us = f64::from_bits(self.ewma_latency_us.load(Ordering::Relaxed));
        (us > 0.0).then(|| Duration::from_secs_f64(us / 1e6))
    }

    /// Last monitor-pushed load value, if one arrived.
    pub fn load(&self) -> Option<f64> {
        let v = f64::from_bits(self.last_load.load(Ordering::Relaxed));
        (!v.is_nan()).then_some(v)
    }

    /// Load score for latency-aware policies: EWMA latency (µs) scaled
    /// by queue depth, the classic "expected wait" estimate. A replica
    /// with no latency observation scores near zero so new arrivals
    /// get probed instead of starved.
    pub fn score(&self) -> f64 {
        let ewma_us = f64::from_bits(self.ewma_latency_us.load(Ordering::Relaxed)).max(1.0);
        let queue = (self.inflight.load(Ordering::Relaxed).max(0) + 1) as f64;
        if self.ewma_latency().is_none() {
            // Unprobed: score only by queue depth, below any replica
            // with real observations.
            return queue;
        }
        ewma_us * queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_tracks_latency_and_errors() {
        let s = ReplicaStats::new();
        assert!(s.ewma_latency().is_none());
        s.on_start();
        s.on_complete(Duration::from_millis(10), true);
        assert_eq!(s.ewma_latency().unwrap(), Duration::from_millis(10));
        // Converges toward a new steady state.
        for _ in 0..50 {
            s.on_start();
            s.on_complete(Duration::from_millis(2), true);
        }
        let settled = s.ewma_latency().unwrap();
        assert!(settled < Duration::from_millis(3), "{settled:?}");
        assert_eq!(s.errors(), 0);

        s.on_start();
        s.on_complete(Duration::from_millis(2), false);
        assert_eq!(s.errors(), 1);
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn failures_do_not_feed_the_latency_ewma() {
        let s = ReplicaStats::new();
        s.on_start();
        s.on_complete(Duration::from_micros(1), false);
        assert!(s.ewma_latency().is_none());
    }

    #[test]
    fn load_starts_unset() {
        let s = ReplicaStats::new();
        assert_eq!(s.load(), None);
        s.record_load(12.5);
        assert_eq!(s.load(), Some(12.5));
    }

    #[test]
    fn unprobed_replicas_score_below_probed_ones() {
        let probed = ReplicaStats::new();
        probed.on_start();
        probed.on_complete(Duration::from_millis(1), true);
        let fresh = ReplicaStats::new();
        assert!(fresh.score() < probed.score());
    }

    #[test]
    fn score_scales_with_queue_depth() {
        let s = ReplicaStats::new();
        s.on_start();
        s.on_complete(Duration::from_millis(5), true);
        let idle = s.score();
        s.on_start();
        s.on_start();
        assert!(s.score() > idle * 2.0);
        s.on_complete(Duration::from_millis(5), true);
        s.on_complete(Duration::from_millis(5), true);
    }
}
