//! Client-side recovery policy: bounded retries with decorrelated
//! jitter, and a per-target health table with circuit breakers.
//!
//! Both plug into [`SmartProxy::invoke`](crate::SmartProxy::invoke)'s
//! one attempt loop and agree on one error taxonomy —
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
//!
//! A [`HealthTable`] keeps one record per concrete target the proxy has
//! talked to. The record's time of last failure makes the target *dead*
//! for the proxy's dead-target TTL, so re-selection skips its stale
//! offers. With a [`BreakerConfig`] the record is also a
//! closed/open/half-open breaker: it opens when the failure rate over a
//! sliding window of recent outcomes crosses a threshold; while open,
//! calls to that target are refused up front (the proxy fails over
//! instead of queueing on a corpse); after a cool-down one *probe* call
//! is admitted half-open — success closes the breaker, failure re-opens
//! it. Transitions are published under the
//! `smartproxy.<type>.breaker.*` metric family. A caller resolves a
//! target's record once and holds it, so a call polls the breaker and
//! the failure time with atomic loads and takes no table-wide lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta_orb::ObjRef;
use adapta_telemetry::{registry, Counter, Gauge};
use parking_lot::Mutex;
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
            rng: StdRng::seed_from_u64(0x6A69_7474_6572), // "jitter"
        }
    }
}

/// One invocation's decorrelated-jitter state: each delay is uniform in
/// `[base, 3 × previous]`, capped — successive delays grow but stay
/// de-synchronized across callers.
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: StdRng,
}

impl Backoff {
    pub(crate) fn next_delay(&mut self) -> Duration {
        if self.base.is_zero() || self.cap.is_zero() {
            return Duration::ZERO;
        }
        let lo = self.base.as_secs_f64();
        let hi = (self.prev.as_secs_f64() * 3.0).max(lo * 1.000_001);
        let delay = Duration::from_secs_f64(self.rng.gen_range(lo..hi)).min(self.cap);
        self.prev = delay;
        delay
    }
}

/// Circuit-breaker tuning. The defaults are deliberately small-window:
/// middleware targets see few calls between adaptations.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window length (outcomes per target).
    pub window: usize,
    /// Minimum outcomes in the window before the failure rate counts.
    pub min_calls: usize,
    /// Failure rate in `[0, 1]` at which the breaker opens.
    pub failure_threshold: f64,
    /// How long an open breaker refuses calls before probing half-open.
    pub open_for: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_calls: 4,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(1),
        }
    }
}

/// Breaker states, in the classic closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BreakerState {
    /// Calls flow; outcomes are recorded in the sliding window.
    Closed,
    /// Calls are refused up front until the cool-down elapses.
    Open,
    /// The cool-down elapsed; exactly one probe call is in flight.
    HalfOpen,
}

/// The verdict of a target's breaker on one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed breaker: proceed normally.
    Allow,
    /// Half-open breaker: proceed as *the* probe — the outcome decides
    /// whether the breaker closes or re-opens.
    Probe,
    /// Open breaker (or a probe is already in flight): do not call this
    /// target now; fail over or back off.
    Reject,
}

/// One target's health record, shared by the [`HealthTable`] and by
/// the replica of a proxy's set that resolved it, so a call reads and
/// updates it without looking it up.
///
/// What the pick path polls is kept in atomics: the breaker state and
/// the time of the last retryable failure are each one load. The
/// sliding window and the state transitions are guarded by the record's
/// own lock, which a success takes only while the window still holds a
/// failure or is not yet full.
///
/// The atomics are `Relaxed`: none publishes other data (the window is
/// read only under its lock), and a pick that reads a state or a
/// failure time a moment old acts as if it had run a moment earlier.
/// A success that skips the lock on a stale `clean` is likewise ordered
/// before the failure that cleared it, where it changes nothing.
#[derive(Debug)]
pub(crate) struct TargetHealth {
    /// The [`BreakerState`], changed only under `window`'s lock.
    state: AtomicU8,
    /// Reference point of `last_failure`.
    created: Instant,
    /// Nanoseconds from `created` to the last retryable failure, plus
    /// one; 0 when the target never failed.
    last_failure: AtomicU64,
    /// The window is full and holds no failure, and the breaker is
    /// closed: a success would change nothing.
    clean: AtomicBool,
    window: Mutex<Window>,
}

/// A record's breaker bookkeeping.
#[derive(Debug)]
struct Window {
    /// Sliding window of outcomes, `true` = failure.
    outcomes: VecDeque<bool>,
    opened_at: Instant,
    /// Whether the half-open probe slot is taken.
    probing: bool,
}

impl Window {
    fn record(&mut self, failure: bool, window: usize) {
        self.outcomes.push_back(failure);
        while self.outcomes.len() > window {
            self.outcomes.pop_front();
        }
    }

    fn failure_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|f| **f).count() as f64 / self.outcomes.len() as f64
    }
}

impl TargetHealth {
    fn new() -> TargetHealth {
        let now = Instant::now();
        TargetHealth {
            state: AtomicU8::new(BreakerState::Closed as u8),
            created: now,
            last_failure: AtomicU64::new(0),
            clean: AtomicBool::new(false),
            window: Mutex::new(Window {
                outcomes: VecDeque::new(),
                opened_at: now,
                probing: false,
            }),
        }
    }

    /// The breaker state (Closed when no breaker is configured).
    pub(crate) fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Relaxed) {
            s if s == BreakerState::Open as u8 => BreakerState::Open,
            s if s == BreakerState::HalfOpen as u8 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    fn set_state(&self, state: BreakerState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }

    fn nanos_since_created(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether the target failed within `ttl`. A target that never
    /// failed costs one load, no clock read.
    fn dead(&self, ttl: Duration) -> bool {
        let failed_at = self.last_failure.load(Ordering::Relaxed);
        if failed_at == 0 || ttl.is_zero() {
            return false;
        }
        let ttl = u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX);
        self.nanos_since_created().saturating_sub(failed_at - 1) < ttl
    }
}

/// A smart proxy's per-target health table: one record per concrete
/// target it has talked to, so the breaker window reflects that proxy's
/// own traffic. Without a [`BreakerConfig`] the breaker part is inert:
/// every call is admitted and only failures are recorded.
///
/// The map is used to resolve a record, to forget one, to count the
/// open breakers on a transition and to answer questions by target;
/// calls go through the records they hold.
#[derive(Debug)]
pub(crate) struct HealthTable {
    breaker: Option<Breaker>,
    dead_ttl: Duration,
    targets: Mutex<HashMap<ObjRef, Arc<TargetHealth>>>,
}

/// A configured breaker and its `smartproxy.<type>.breaker.*`
/// instruments, resolved once.
#[derive(Debug)]
struct Breaker {
    config: BreakerConfig,
    opened: Counter,
    half_open: Counter,
    closed: Counter,
    rejected: Counter,
    /// How many targets sit in a non-closed state.
    open_targets: Gauge,
    /// The same count for this table alone (the gauge is shared by
    /// every proxy of the service type).
    open: AtomicUsize,
}

impl Breaker {
    fn new(config: BreakerConfig, service_type: &str) -> Breaker {
        let name = |stat: &str| format!("smartproxy.{service_type}.breaker.{stat}");
        let r = registry();
        Breaker {
            config,
            opened: r.counter(&name("opened")),
            half_open: r.counter(&name("half_open")),
            closed: r.counter(&name("closed")),
            rejected: r.counter(&name("rejected")),
            open_targets: r.gauge(&name("open_targets")),
            open: AtomicUsize::new(0),
        }
    }

    fn publish_open_targets(&self, targets: &HashMap<ObjRef, Arc<TargetHealth>>) {
        let open = targets
            .values()
            .filter(|h| h.state() != BreakerState::Closed)
            .count();
        self.open_targets.set(open as i64);
        self.open.store(open, Ordering::Relaxed);
    }
}

impl HealthTable {
    /// The health table of the proxy for `service_type`: a target that
    /// failed counts as dead for `dead_ttl`.
    pub(crate) fn new(
        breaker: Option<BreakerConfig>,
        dead_ttl: Duration,
        service_type: &str,
    ) -> HealthTable {
        HealthTable {
            breaker: breaker.map(|config| Breaker::new(config, service_type)),
            dead_ttl,
            targets: Mutex::new(HashMap::new()),
        }
    }

    /// Whether a circuit breaker is configured.
    pub(crate) fn has_breaker(&self) -> bool {
        self.breaker.is_some()
    }

    /// Whether some target's breaker is not closed, as of the last
    /// transition: only then can a probe be due. One load.
    pub(crate) fn any_open(&self) -> bool {
        self.breaker
            .as_ref()
            .is_some_and(|b| b.open.load(Ordering::Relaxed) > 0)
    }

    /// The record of `target`, created on first use. The caller keeps
    /// it for as long as it calls that target.
    pub(crate) fn resolve(&self, target: &ObjRef) -> Arc<TargetHealth> {
        let mut targets = self.targets.lock();
        if self.breaker.is_none() {
            // Without a breaker a record is only its failure time: drop
            // the ones nobody holds whose TTL ran out.
            targets.retain(|_, h| Arc::strong_count(h) > 1 || h.dead(self.dead_ttl));
        }
        if let Some(health) = targets.get(target) {
            return health.clone();
        }
        let health = Arc::new(TargetHealth::new());
        targets.insert(target.clone(), health.clone());
        health
    }

    /// Asks whether a call to the target of `health` may proceed right
    /// now. A closed breaker answers with one load.
    pub(crate) fn admit_record(&self, health: &TargetHealth) -> Admission {
        let Some(breaker) = &self.breaker else {
            return Admission::Allow;
        };
        if health.state() == BreakerState::Closed {
            return Admission::Allow;
        }
        let mut window = health.window.lock();
        match health.state() {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                if window.opened_at.elapsed() >= breaker.config.open_for {
                    health.set_state(BreakerState::HalfOpen);
                    window.probing = true;
                    breaker.half_open.incr();
                    Admission::Probe
                } else {
                    breaker.rejected.incr();
                    Admission::Reject
                }
            }
            BreakerState::HalfOpen => {
                if window.probing {
                    breaker.rejected.incr();
                    Admission::Reject
                } else {
                    window.probing = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Records one call's outcome in `health`: `ok` unless it failed
    /// retryably (an application exception still proves the target
    /// alive). A success takes no lock without a breaker, nor with a
    /// closed one whose window holds only successes.
    pub(crate) fn record_outcome(&self, health: &TargetHealth, ok: bool) {
        if !ok {
            health
                .last_failure
                .store(health.nanos_since_created() + 1, Ordering::Relaxed);
        }
        let Some(breaker) = &self.breaker else { return };
        if ok && health.clean.load(Ordering::Relaxed) {
            return;
        }
        let config = &breaker.config;
        let transition = {
            let mut window = health.window.lock();
            let transition = match health.state() {
                // The probe's outcome closes the breaker or restarts the
                // cool-down.
                BreakerState::HalfOpen if ok => Some((BreakerState::Closed, &breaker.closed)),
                BreakerState::HalfOpen => Some((BreakerState::Open, &breaker.opened)),
                BreakerState::Open => None,
                BreakerState::Closed => {
                    window.record(!ok, config.window);
                    (!ok && window.outcomes.len() >= config.min_calls
                        && window.failure_rate() >= config.failure_threshold)
                        .then_some((BreakerState::Open, &breaker.opened))
                }
            };
            if let Some((state, _)) = transition {
                health.set_state(state);
                window.opened_at = Instant::now();
                window.probing = false;
                window.outcomes.clear();
            }
            let clean = health.state() == BreakerState::Closed
                && window.outcomes.len() >= config.window
                && !window.outcomes.contains(&true);
            health.clean.store(clean, Ordering::Relaxed);
            transition
        };
        if let Some((_, counter)) = transition {
            counter.incr();
            // Published under the map lock after the state changed, so
            // the last count published sees every transition before it.
            breaker.publish_open_targets(&self.targets.lock());
        }
    }

    /// Whether the target of `health` failed within the dead-target TTL.
    pub(crate) fn is_dead_record(&self, health: &TargetHealth) -> bool {
        health.dead(self.dead_ttl)
    }

    /// Asks whether a call to `target` may proceed right now (Allow
    /// when it has no record).
    #[cfg(test)]
    pub(crate) fn admit(&self, target: &ObjRef) -> Admission {
        let health = self.targets.lock().get(target).cloned();
        health.map_or(Admission::Allow, |h| self.admit_record(&h))
    }

    /// Records one call's outcome for `target`. Without a breaker a
    /// success creates no record.
    #[cfg(test)]
    pub(crate) fn record(&self, target: &ObjRef, ok: bool) {
        if ok && self.breaker.is_none() {
            return;
        }
        self.record_outcome(&self.resolve(target), ok);
    }

    /// The current breaker state for `target` (Closed when the target
    /// was never called or no breaker is configured).
    pub(crate) fn state(&self, target: &ObjRef) -> BreakerState {
        if self.breaker.is_none() {
            return BreakerState::Closed;
        }
        self.targets
            .lock()
            .get(target)
            .map_or(BreakerState::Closed, |h| h.state())
    }

    /// Whether the breaker of `target` refuses calls right now: open
    /// and cooling down, or half-open with its probe out. Unlike
    /// [`admit_record`](Self::admit_record) it moves no state and
    /// counts nothing.
    pub(crate) fn refuses(&self, target: &ObjRef) -> bool {
        let Some(breaker) = self.breaker.as_ref().filter(|_| self.any_open()) else {
            return false;
        };
        let Some(health) = self.targets.lock().get(target).cloned() else {
            return false;
        };
        match health.state() {
            BreakerState::Closed => false,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                health.window.lock().opened_at.elapsed() < breaker.config.open_for
            }
        }
    }

    /// Whether `target` failed within the dead-target TTL.
    pub(crate) fn is_dead(&self, target: &ObjRef) -> bool {
        !self.dead_ttl.is_zero()
            && self
                .targets
                .lock()
                .get(target)
                .is_some_and(|h| h.dead(self.dead_ttl))
    }

    /// Drops the record of a target that left the proxy's view (a
    /// replica evicted from its set), so churn cannot grow the table.
    /// A caller still holding the record keeps using it.
    pub(crate) fn forget(&self, target: &ObjRef) {
        let mut targets = self.targets.lock();
        if targets.remove(target).is_some() {
            if let Some(breaker) = &self.breaker {
                breaker.publish_open_targets(&targets);
            }
        }
    }

    /// How many targets have a record.
    #[cfg(test)]
    pub(crate) fn tracked_targets(&self) -> usize {
        self.targets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(n: u16) -> ObjRef {
        ObjRef::new(format!("tcp://127.0.0.1:{n}"), "svc", "T")
    }

    fn breakers(config: BreakerConfig) -> HealthTable {
        HealthTable::new(Some(config), Duration::from_secs(5), "T")
    }

    #[test]
    fn failover_only_policy_never_sleeps() {
        let policy = RetryPolicy::failover_only();
        let mut backoff = policy.backoff();
        assert_eq!(backoff.next_delay(), Duration::ZERO);
        assert_eq!(backoff.next_delay(), Duration::ZERO);
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

    #[test]
    fn breaker_opens_at_failure_threshold() {
        let set = breakers(BreakerConfig {
            window: 4,
            min_calls: 4,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(50),
        });
        let t = target(1);
        assert_eq!(set.admit(&t), Admission::Allow);
        set.record(&t, false);
        set.record(&t, true);
        set.record(&t, false);
        assert_eq!(set.state(&t), BreakerState::Closed); // 2/3 but < min_calls
        set.record(&t, false); // 3 failures / 4 outcomes
        assert_eq!(set.state(&t), BreakerState::Open);
        assert_eq!(set.admit(&t), Admission::Reject);
    }

    #[test]
    fn breaker_half_opens_then_closes_on_probe_success() {
        let set = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(10),
        });
        let t = target(2);
        set.admit(&t);
        set.record(&t, false);
        set.record(&t, false);
        assert_eq!(set.state(&t), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(set.admit(&t), Admission::Probe);
        assert_eq!(set.state(&t), BreakerState::HalfOpen);
        // A second caller during the probe is still rejected.
        assert_eq!(set.admit(&t), Admission::Reject);
        set.record(&t, true);
        assert_eq!(set.state(&t), BreakerState::Closed);
        assert_eq!(set.admit(&t), Admission::Allow);
    }

    #[test]
    fn breaker_reopens_on_probe_failure() {
        let set = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(10),
        });
        let t = target(3);
        set.admit(&t);
        set.record(&t, false);
        set.record(&t, false);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(set.admit(&t), Admission::Probe);
        set.record(&t, false);
        assert_eq!(set.state(&t), BreakerState::Open);
        assert_eq!(set.admit(&t), Admission::Reject);
    }

    #[test]
    fn breakers_are_per_target() {
        let set = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let (a, b) = (target(4), target(5));
        set.admit(&a);
        set.admit(&b);
        set.record(&a, false);
        set.record(&a, false);
        assert_eq!(set.state(&a), BreakerState::Open);
        assert_eq!(set.admit(&b), Admission::Allow);
    }

    #[test]
    fn failures_make_a_target_dead_for_the_ttl() {
        let table = HealthTable::new(None, Duration::from_millis(20), "T");
        let (a, b) = (target(6), target(7));
        table.record(&a, false);
        assert!(table.is_dead(&a));
        assert!(!table.is_dead(&b));
        std::thread::sleep(Duration::from_millis(25));
        assert!(!table.is_dead(&a));
        // The expired record is pruned by the next failure.
        table.record(&b, false);
        assert_eq!(table.tracked_targets(), 1);
    }

    #[test]
    fn without_a_breaker_successes_are_not_recorded() {
        let table = HealthTable::new(None, Duration::from_secs(5), "T");
        let t = target(8);
        for _ in 0..10 {
            table.record(&t, false);
        }
        assert_eq!(table.admit(&t), Admission::Allow);
        assert_eq!(table.state(&t), BreakerState::Closed);
        table.record(&target(9), true);
        assert_eq!(table.tracked_targets(), 1);
    }

    #[test]
    fn forgetting_a_target_drops_its_record() {
        let table = breakers(BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let t = target(10);
        table.record(&t, false);
        assert_eq!(table.state(&t), BreakerState::Open);
        table.forget(&t);
        assert_eq!(table.tracked_targets(), 0);
        assert_eq!(table.state(&t), BreakerState::Closed);
        assert!(!table.is_dead(&t));
    }

    #[test]
    fn a_held_record_and_the_target_api_see_the_same_failures() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let t = target(11);
        let held = table.resolve(&t);
        assert!(Arc::ptr_eq(&held, &table.resolve(&t)));
        table.record_outcome(&held, false);
        assert!(table.is_dead(&t));
        table.record(&t, false);
        assert!(table.is_dead_record(&held));
        assert_eq!(held.state(), BreakerState::Open);
        assert_eq!(table.state(&t), BreakerState::Open);
        assert_eq!(table.admit(&t), Admission::Reject);
        assert_eq!(table.admit_record(&held), Admission::Reject);

        table.forget(&t);
        assert_eq!(table.tracked_targets(), 0);
        assert_eq!(table.state(&t), BreakerState::Closed);
        assert!(!table.is_dead(&t));
        // The holder keeps its record; the table starts a fresh one.
        assert_eq!(held.state(), BreakerState::Open);
        assert!(!Arc::ptr_eq(&held, &table.resolve(&t)));
    }

    #[test]
    fn successes_over_a_clean_window_change_nothing() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let held = table.resolve(&target(12));
        for _ in 0..3 {
            table.record_outcome(&held, true);
        }
        assert!(held.clean.load(Ordering::Relaxed));
        // One failure in a window of two is the threshold: it opens.
        table.record_outcome(&held, false);
        assert!(!held.clean.load(Ordering::Relaxed));
        assert_eq!(held.state(), BreakerState::Open);
    }

    #[test]
    fn without_a_breaker_the_table_keeps_held_records() {
        let table = HealthTable::new(None, Duration::from_millis(10), "T");
        let held = table.resolve(&target(13));
        table.record(&target(14), false);
        std::thread::sleep(Duration::from_millis(15));
        // Resolving prunes the expired record nobody holds, not the
        // held one.
        table.resolve(&target(15));
        assert_eq!(table.tracked_targets(), 2);
        table.record_outcome(&held, false);
        assert!(table.is_dead(&target(13)));
    }
}
