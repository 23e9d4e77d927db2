//! Client-side recovery policy: bounded retries with decorrelated
//! jitter.
//!
//! It plugs into [`SmartProxy::invoke`](crate::SmartProxy::invoke)'s
//! one attempt loop, beside the per-target health records of the
//! proxy's replica set (`adapta_balancer::TargetHealth`: the dead-target
//! TTL and the circuit breaker), and both agree on one error taxonomy —
//! [`OrbError::is_retryable`]: only environmental failures (transport
//! faults, unreachable or draining nodes, expired deadlines, vanished
//! servants) are ever retried; application exceptions mean the
//! component is alive and are returned as-is.
//!
//! A [`RetryPolicy`] bounds the attempts of one logical invocation and
//! spaces them with *decorrelated jitter* — each sleep is drawn
//! uniformly from `[base, 3 × previous]`, capped — which spreads
//! synchronized retry storms apart instead of letting every client
//! hammer a recovering server on the same schedule.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(doc)]
use adapta_orb::OrbError;

/// Bounds and paces the attempts of one logical invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff sleep; zero disables sleeping.
    pub base: Duration,
    /// Upper bound of every backoff sleep.
    pub cap: Duration,
}

impl RetryPolicy {
    /// `max_attempts` attempts with a 10 ms base and a 1 s cap.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }

    /// The legacy smart-proxy behaviour: one immediate failover retry,
    /// no backoff. This is the default policy of every proxy.
    pub fn failover_only() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// Sets the backoff base (the minimum sleep between attempts).
    #[must_use]
    pub fn base(mut self, base: Duration) -> RetryPolicy {
        self.base = base;
        self
    }

    /// Sets the backoff cap (the maximum sleep between attempts).
    #[must_use]
    pub fn cap(mut self, cap: Duration) -> RetryPolicy {
        self.cap = cap;
        self
    }

    /// A fresh backoff sequence for one logical invocation.
    pub(crate) fn backoff(&self) -> Backoff {
        Backoff {
            base: self.base,
            cap: self.cap,
            prev: self.base,
            rng: None,
        }
    }
}

/// One invocation's decorrelated-jitter state: each delay is uniform in
/// `[base, 3 × previous]`, capped — successive delays grow but stay
/// de-synchronized across callers: each sequence seeds its own
/// generator at random, on its first non-zero delay.
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: Option<StdRng>,
}

impl Backoff {
    pub(crate) fn next_delay(&mut self) -> Duration {
        if self.base.is_zero() || self.cap.is_zero() {
            return Duration::ZERO;
        }
        let lo = self.base.as_secs_f64();
        let hi = (self.prev.as_secs_f64() * 3.0).max(lo * 1.000_001);
        let rng = self.rng.get_or_insert_with(StdRng::from_entropy);
        let delay = Duration::from_secs_f64(rng.gen_range(lo..hi)).min(self.cap);
        self.prev = delay;
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_only_policy_never_sleeps() {
        let policy = RetryPolicy::failover_only();
        let mut backoff = policy.backoff();
        assert_eq!(backoff.next_delay(), Duration::ZERO);
        assert_eq!(backoff.next_delay(), Duration::ZERO);
        assert!(
            backoff.rng.is_none(),
            "a call that never sleeps seeds nothing"
        );
    }

    #[test]
    fn two_backoffs_of_one_policy_draw_different_first_delays() {
        let policy = RetryPolicy::new(3);
        let (mut a, mut b) = (policy.backoff(), policy.backoff());
        assert_ne!(
            a.next_delay(),
            b.next_delay(),
            "callers retrying after one outage would back off in lockstep"
        );
    }

    #[test]
    fn backoff_grows_within_bounds() {
        let policy = RetryPolicy::new(10)
            .base(Duration::from_millis(10))
            .cap(Duration::from_millis(200));
        let mut backoff = policy.backoff();
        let mut prev = Duration::from_millis(10);
        for _ in 0..20 {
            let d = backoff.next_delay();
            assert!(d >= policy.base, "delay {d:?} under base");
            assert!(d <= policy.cap, "delay {d:?} over cap");
            // decorrelated: bounded by 3x the previous delay
            assert!(d <= (prev * 3).max(policy.base) + Duration::from_micros(1));
            prev = d;
        }
    }
}
