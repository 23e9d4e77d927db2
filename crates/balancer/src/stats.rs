//! Per-replica runtime statistics.
//!
//! Every replica carries a lock-free [`ReplicaStats`]: an EWMA of
//! observed call latency, the number of calls currently in flight, and
//! call and error counts. Routing policies read these to score
//! replicas; the caller feeds them from call outcomes.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Smoothing factor for the latency EWMA. High enough that
/// a degrading replica is noticed within a handful of calls, low
/// enough that one outlier does not dominate.
const EWMA_ALPHA: f64 = 0.3;

/// A lone sample enters the EWMA at no more than this multiple of the
/// current average, so one outlier (a stalled thread on a busy host)
/// cannot outweigh a replica's history. The next sample, if it is
/// above the bound too, enters as measured: a replica that really
/// slowed down stays slow.
const OUTLIER_CLIP: f64 = 3.0;

/// Share of its latency term a replica gives up each time a policy
/// passes it over for another on score. Recovery from an inflated
/// average then scales with traffic, not wall-clock time: a replica
/// priced 1.5x too high by one bad sample is tried again within about
/// 30 comparisons, while one really 40x slower loses about 245
/// comparisons in a row between probes. A young replica, whose average
/// rests on few samples, gives up more: `EWMA_ALPHA / samples`.
const PASSED_OVER_DECAY: f64 = 0.015;

/// Time constant of the score's idle decay, in seconds: a latency
/// sample that has not been refreshed for this long counts for 1/e of
/// its value (Finagle's peak-EWMA decays the same way). A replica's
/// EWMA only moves when one of its calls completes, so without the
/// decay one slow sample could price a replica out of every pick, and
/// with no picks it would never complete a call again. With it, a
/// replica 25x slower than its peers on paper is retried within about
/// 3.2 s.
const IDLE_DECAY_SECS: f64 = 1.0;

/// The zero of the sample timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

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
    /// Latency samples folded into the EWMA.
    samples: AtomicU64,
    /// Comparisons lost on score since the last sample.
    passed_over: AtomicU64,
    /// Whether the last sample was above [`OUTLIER_CLIP`] times the
    /// average.
    last_was_outlier: AtomicBool,
    /// When the EWMA last took a sample, in nanoseconds since
    /// [`epoch`].
    sampled_at_ns: AtomicU64,
}

/// Fold the `n`th sample into the f64-bits EWMA stored in `cell`. The
/// first sample seeds it; until `1 / n` falls below [`EWMA_ALPHA`] the
/// average is the plain mean, so the first sample weighs 1/2 after the
/// second, not 0.7. With `clip`, a sample above [`OUTLIER_CLIP`] times
/// the average enters clipped to that bound.
fn ewma_update(cell: &AtomicU64, sample: f64, n: u64, clip: bool) {
    let alpha = (1.0 / n as f64).max(EWMA_ALPHA);
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let prev = f64::from_bits(current);
        let next = if prev == 0.0 {
            sample
        } else {
            let bound = if clip { prev * OUTLIER_CLIP } else { f64::MAX };
            alpha * sample.min(bound) + (1.0 - alpha) * prev
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
    /// Creates zeroed stats.
    pub fn new() -> ReplicaStats {
        ReplicaStats::default()
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
            let sample = latency.as_secs_f64() * 1e6;
            let prev = f64::from_bits(self.ewma_latency_us.load(Ordering::Relaxed));
            let outlier = prev > 0.0 && sample > prev * OUTLIER_CLIP;
            let confirmed = self.last_was_outlier.swap(outlier, Ordering::Relaxed);
            let n = self.samples.fetch_add(1, Ordering::Relaxed) + 1;
            ewma_update(&self.ewma_latency_us, sample, n, !confirmed);
            self.passed_over.store(0, Ordering::Relaxed);
            let now = epoch().elapsed().as_nanos() as u64;
            self.sampled_at_ns.store(now, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records that a policy compared this replica with another and
    /// picked the other on score; each such loss moves its latency term
    /// 1.5% toward the floor (more while it has few samples).
    pub fn on_passed_over(&self) {
        self.passed_over.fetch_add(1, Ordering::Relaxed);
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

    /// Load score for latency-aware policies: EWMA latency (µs) scaled
    /// by queue depth, the classic "expected wait" estimate. While the
    /// replica completes no call its latency decays toward the 1 µs
    /// floor, with every comparison it loses (1.5% each) and with idle
    /// time (to 1/e of its value per idle second), so a replica priced
    /// out by stale samples is tried again. A replica with no latency
    /// observation scores near zero so new arrivals get probed instead
    /// of starved.
    pub fn score(&self) -> f64 {
        self.score_at(epoch().elapsed())
    }

    /// [`score`](ReplicaStats::score) at `now` (time since [`epoch`]).
    fn score_at(&self, now: Duration) -> f64 {
        let ewma_us = f64::from_bits(self.ewma_latency_us.load(Ordering::Relaxed));
        let queue = (self.inflight.load(Ordering::Relaxed).max(0) + 1) as f64;
        if ewma_us <= 0.0 {
            // Unprobed: score only by queue depth, at or below any
            // replica with real observations.
            return queue;
        }
        let sampled_at = Duration::from_nanos(self.sampled_at_ns.load(Ordering::Relaxed));
        let idle = now.saturating_sub(sampled_at).as_secs_f64();
        let samples = self.samples.load(Ordering::Relaxed).max(1) as f64;
        let rate = (EWMA_ALPHA / samples).max(PASSED_OVER_DECAY);
        let passed_over = self.passed_over.load(Ordering::Relaxed);
        let kept = (1.0 - rate).powi(passed_over.min(i32::MAX as u64) as i32);
        let decayed_us = ewma_us * kept * (-idle / IDLE_DECAY_SECS).exp();
        decayed_us.max(1.0) * queue
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
    fn unprobed_replicas_score_below_probed_ones() {
        let probed = ReplicaStats::new();
        probed.on_start();
        probed.on_complete(Duration::from_millis(1), true);
        let fresh = ReplicaStats::new();
        assert!(fresh.score() < probed.score());
    }

    #[test]
    fn an_idle_replicas_latency_decays() {
        let s = ReplicaStats::new();
        s.on_start();
        s.on_complete(Duration::from_millis(50), true);
        let sampled = Duration::from_nanos(s.sampled_at_ns.load(Ordering::Relaxed));
        let fresh = s.score_at(sampled);
        assert!((fresh - 50_000.0).abs() < 1e-6, "{fresh}");
        let later = s.score_at(sampled + Duration::from_secs_f64(IDLE_DECAY_SECS));
        assert!(
            (later - 50_000.0 / std::f64::consts::E).abs() < 1.0,
            "{later}"
        );
        // Never below an unprobed replica's score.
        assert_eq!(s.score_at(sampled + Duration::from_secs(3600)), 1.0);
        // A new sample restarts the clock.
        s.on_start();
        s.on_complete(Duration::from_millis(50), true);
        assert!(s.score() > 40_000.0);
    }

    fn sample(s: &ReplicaStats, latency: Duration) {
        s.on_start();
        s.on_complete(latency, true);
    }

    #[test]
    fn a_lone_outlier_is_clipped_and_a_second_one_counts() {
        let s = ReplicaStats::new();
        for _ in 0..10 {
            sample(&s, Duration::from_millis(1));
        }
        sample(&s, Duration::from_millis(11));
        // Entered as 3 ms: 0.3 × 3 + 0.7 × 1.
        let once = s.ewma_latency().unwrap().as_secs_f64() * 1e6;
        assert!((once - 1_600.0).abs() < 1.0, "{once}");
        sample(&s, Duration::from_millis(11));
        // Entered as measured: 0.3 × 11 + 0.7 × 1.6.
        let twice = s.ewma_latency().unwrap().as_secs_f64() * 1e6;
        assert!((twice - 4_420.0).abs() < 1.0, "{twice}");
    }

    #[test]
    fn losing_comparisons_decays_the_latency_term_until_the_next_sample() {
        let s = ReplicaStats::new();
        for _ in 0..20 {
            sample(&s, Duration::from_millis(10));
        }
        let measured = s.score();
        for _ in 0..46 {
            s.on_passed_over();
        }
        let ratio = s.score() / measured;
        let expected = (1.0 - PASSED_OVER_DECAY).powi(46);
        assert!((ratio - expected).abs() < 0.01, "{ratio} vs {expected}");
        sample(&s, Duration::from_millis(10));
        assert!(s.score() > 9_900.0, "{}", s.score());
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
