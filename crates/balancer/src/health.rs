//! Per-target health: the dead-target TTL and the circuit breaker.
//!
//! A [`ReplicaSet`](crate::ReplicaSet) keeps one [`TargetHealth`]
//! record per concrete target in its [`HealthTable`], and every replica
//! holds its target's record, so two offers of one target share it and
//! a pick reads it without a lookup. The record's time of last failure
//! makes the target *dead* for the set's dead-target TTL, so
//! re-selection skips its stale offers. With a [`BreakerConfig`] the
//! record is also a closed/open/half-open breaker: it opens when the
//! failure rate over a sliding window of recent outcomes crosses a
//! threshold; while open, calls to that target are refused up front
//! (the caller fails over instead of queueing on a corpse); after a
//! cool-down one *probe* call is admitted half-open — success closes
//! the breaker, failure re-opens it. Transitions are published under
//! the `smartproxy.<type>.breaker.*` metric family.
//!
//! A record carries the rules of the set it came from, so every
//! question about a target is asked of its record. The table's map is
//! only used to hand a record to a new replica and to look one up for
//! an offer that is not a replica.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta_orb::ObjRef;
use adapta_telemetry::{registry, Counter, Gauge};
use adapta_trading::OfferMatch;
use parking_lot::Mutex;

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

/// The rules every record of one set follows: the dead-target TTL and,
/// when configured, the breaker. Without a breaker the breaker part of
/// a record is inert: every call is admitted and only failures are
/// recorded.
#[derive(Debug, Default)]
struct Rules {
    breaker: Option<Breaker>,
    dead_ttl: Duration,
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
    /// How many records sit in a non-closed state, over every set of
    /// the service type.
    open_targets: Gauge,
    /// The same count for this set's records alone.
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

    /// Counts one record more (`opened`) or one fewer in a non-closed
    /// state.
    fn count_open(&self, opened: bool) {
        if opened {
            self.open.fetch_add(1, Ordering::Relaxed);
            self.open_targets.add(1);
        } else {
            self.open.fetch_sub(1, Ordering::Relaxed);
            self.open_targets.sub(1);
        }
    }
}

/// One target's health record, held by every replica of that target
/// and by its set's [`HealthTable`].
///
/// What a pick polls is kept in atomics: the breaker state and the time
/// of the last retryable failure are each one load. The sliding window
/// and the state transitions are guarded by the record's own lock,
/// which a success takes only while the window still holds a failure
/// or is not yet full.
///
/// The atomics are `Relaxed`: none publishes other data (the window is
/// read only under its lock), and a pick that reads a state or a
/// failure time a moment old acts as if it had run a moment earlier.
/// A success that skips the lock on a stale `clean` is likewise ordered
/// before the failure that cleared it, where it changes nothing.
#[derive(Debug)]
pub struct TargetHealth {
    rules: Arc<Rules>,
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
    /// A record with no breaker that never counts a target dead, for a
    /// replica built outside a set.
    pub(crate) fn inert() -> TargetHealth {
        TargetHealth::new(Arc::default())
    }

    fn new(rules: Arc<Rules>) -> TargetHealth {
        let now = Instant::now();
        TargetHealth {
            rules,
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
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Relaxed) {
            s if s == BreakerState::Open as u8 => BreakerState::Open,
            s if s == BreakerState::HalfOpen as u8 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    fn nanos_since_created(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether the target failed within the dead-target TTL. A target
    /// that never failed costs one load, no clock read.
    pub fn is_dead(&self) -> bool {
        let failed_at = self.last_failure.load(Ordering::Relaxed);
        let ttl = self.rules.dead_ttl;
        if failed_at == 0 || ttl.is_zero() {
            return false;
        }
        let ttl = u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX);
        self.nanos_since_created().saturating_sub(failed_at - 1) < ttl
    }

    /// Asks whether a call to the target may proceed right now. A
    /// closed breaker answers with one load; an open one whose
    /// cool-down elapsed turns half-open and admits this call as its
    /// probe.
    pub fn admit(&self) -> Admission {
        let Some(breaker) = &self.rules.breaker else {
            return Admission::Allow;
        };
        if self.state() == BreakerState::Closed {
            return Admission::Allow;
        }
        let mut window = self.window.lock();
        match self.state() {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                if window.opened_at.elapsed() >= breaker.config.open_for {
                    self.state
                        .store(BreakerState::HalfOpen as u8, Ordering::Relaxed);
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

    /// Whether the breaker refuses calls right now: open and cooling
    /// down, or half-open with its probe out. Unlike
    /// [`admit`](Self::admit) it moves no state and counts nothing.
    pub fn refuses(&self) -> bool {
        let Some(breaker) = &self.rules.breaker else {
            return false;
        };
        match self.state() {
            BreakerState::Closed => false,
            BreakerState::HalfOpen => true,
            BreakerState::Open => self.window.lock().opened_at.elapsed() < breaker.config.open_for,
        }
    }

    /// Records one call's outcome: `ok` unless it failed retryably (an
    /// application exception still proves the target alive). A success
    /// takes no lock without a breaker, nor with a closed one whose
    /// window holds only successes.
    pub fn record(&self, ok: bool) {
        if !ok {
            self.last_failure
                .store(self.nanos_since_created() + 1, Ordering::Relaxed);
        }
        let Some(breaker) = &self.rules.breaker else {
            return;
        };
        if ok && self.clean.load(Ordering::Relaxed) {
            return;
        }
        let config = &breaker.config;
        let transition = {
            let mut window = self.window.lock();
            let was = self.state();
            let transition = match was {
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
                self.state.store(state as u8, Ordering::Relaxed);
                window.opened_at = Instant::now();
                window.probing = false;
                window.outcomes.clear();
                // Counted under the record's lock, so one record's
                // transitions reach the counts in order and they never
                // go below zero.
                if (was == BreakerState::Closed) != (state == BreakerState::Closed) {
                    breaker.count_open(was == BreakerState::Closed);
                }
            }
            let clean = self.state() == BreakerState::Closed
                && window.outcomes.len() >= config.window
                && !window.outcomes.contains(&true);
            self.clean.store(clean, Ordering::Relaxed);
            transition
        };
        if let Some((_, counter)) = transition {
            counter.incr();
        }
    }
}

impl Drop for TargetHealth {
    /// A record that leaves open no longer counts as an open target.
    fn drop(&mut self) {
        if let Some(breaker) = &self.rules.breaker {
            if self.state() != BreakerState::Closed {
                breaker.count_open(false);
            }
        }
    }
}

/// A replica set's per-target health records: one per target that a
/// replica holds or the last selection offered.
#[derive(Debug, Default)]
pub struct HealthTable {
    rules: Arc<Rules>,
    targets: Mutex<HashMap<ObjRef, Arc<TargetHealth>>>,
}

impl HealthTable {
    /// The table of a set of `service_type`: a target that failed
    /// counts as dead for `dead_ttl`.
    pub(crate) fn new(
        breaker: Option<BreakerConfig>,
        dead_ttl: Duration,
        service_type: &str,
    ) -> HealthTable {
        HealthTable {
            rules: Arc::new(Rules {
                breaker: breaker.map(|config| Breaker::new(config, service_type)),
                dead_ttl,
            }),
            targets: Mutex::default(),
        }
    }

    /// The record of `target`, if a replica holds it or the last
    /// selection offered it.
    pub fn get(&self, target: &ObjRef) -> Option<Arc<TargetHealth>> {
        self.targets.lock().get(target).cloned()
    }

    /// Whether a circuit breaker is configured.
    pub fn has_breaker(&self) -> bool {
        self.rules.breaker.is_some()
    }

    /// Whether some record's breaker is not closed, as of the last
    /// transition: only then can a probe be due. One load.
    pub fn any_open(&self) -> bool {
        self.rules
            .breaker
            .as_ref()
            .is_some_and(|b| b.open.load(Ordering::Relaxed) > 0)
    }

    /// The record of `target`, created on first use, for a replica of
    /// it.
    pub(crate) fn resolve(&self, target: &ObjRef) -> Arc<TargetHealth> {
        let mut targets = self.targets.lock();
        if let Some(health) = targets.get(target) {
            return health.clone();
        }
        let health = Arc::new(TargetHealth::new(self.rules.clone()));
        targets.insert(target.clone(), health.clone());
        health
    }

    /// Drops the records of targets that no match of a selection
    /// offers. A target that just failed keeps its record while its
    /// stale offer is still matched, so that offer stays dead for the
    /// TTL; a holder of a dropped record keeps using it.
    pub(crate) fn keep_offered(&self, matches: &[OfferMatch]) {
        self.targets
            .lock()
            .retain(|target, _| matches.iter().any(|m| &m.target == target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(n: u16) -> ObjRef {
        ObjRef::new(format!("tcp://127.0.0.1:{n}"), "svc", "T")
    }

    fn offer(target: ObjRef) -> OfferMatch {
        OfferMatch {
            id: adapta_trading::OfferId::from_string("offer-1"),
            service_type: "T".into(),
            target,
            properties: vec![],
            dynamic: vec![],
        }
    }

    fn breakers(config: BreakerConfig) -> HealthTable {
        HealthTable::new(Some(config), Duration::from_secs(5), "T")
    }

    #[test]
    fn breaker_opens_at_failure_threshold() {
        let table = breakers(BreakerConfig {
            window: 4,
            min_calls: 4,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(50),
        });
        let t = table.resolve(&target(1));
        assert_eq!(t.admit(), Admission::Allow);
        t.record(false);
        t.record(true);
        t.record(false);
        assert_eq!(t.state(), BreakerState::Closed); // 2/3 but < min_calls
        t.record(false); // 3 failures / 4 outcomes
        assert_eq!(t.state(), BreakerState::Open);
        assert_eq!(t.admit(), Admission::Reject);
        assert!(table.any_open());
    }

    #[test]
    fn breaker_half_opens_then_closes_on_probe_success() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(10),
        });
        let t = table.resolve(&target(2));
        t.admit();
        t.record(false);
        t.record(false);
        assert_eq!(t.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(t.admit(), Admission::Probe);
        assert_eq!(t.state(), BreakerState::HalfOpen);
        // A second caller during the probe is still rejected.
        assert_eq!(t.admit(), Admission::Reject);
        t.record(true);
        assert_eq!(t.state(), BreakerState::Closed);
        assert_eq!(t.admit(), Admission::Allow);
        assert!(!table.any_open());
    }

    #[test]
    fn breaker_reopens_on_probe_failure() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(10),
        });
        let t = table.resolve(&target(3));
        t.admit();
        t.record(false);
        t.record(false);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(t.admit(), Admission::Probe);
        t.record(false);
        assert_eq!(t.state(), BreakerState::Open);
        assert_eq!(t.admit(), Admission::Reject);
    }

    #[test]
    fn refusing_moves_no_state() {
        let table = breakers(BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(10),
        });
        let t = table.resolve(&target(16));
        assert!(!t.refuses());
        t.record(false);
        assert!(t.refuses());
        std::thread::sleep(Duration::from_millis(15));
        // Cooled down: no longer refused, but still open until admitted.
        assert!(!t.refuses());
        assert_eq!(t.state(), BreakerState::Open);
        assert_eq!(t.admit(), Admission::Probe);
        // Half-open with the probe out: refused.
        assert!(t.refuses());
    }

    #[test]
    fn breakers_are_per_target() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let (a, b) = (table.resolve(&target(4)), table.resolve(&target(5)));
        a.admit();
        b.admit();
        a.record(false);
        a.record(false);
        assert_eq!(a.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::Allow);
    }

    #[test]
    fn failures_make_a_target_dead_for_the_ttl() {
        let table = HealthTable::new(None, Duration::from_millis(20), "T");
        let (a, b) = (table.resolve(&target(6)), table.resolve(&target(7)));
        a.record(false);
        assert!(a.is_dead());
        assert!(!b.is_dead());
        std::thread::sleep(Duration::from_millis(25));
        assert!(!a.is_dead());
        // Without a TTL nothing is ever dead.
        let never = HealthTable::new(None, Duration::ZERO, "T").resolve(&target(6));
        never.record(false);
        assert!(!never.is_dead());
    }

    #[test]
    fn without_a_breaker_only_failures_count() {
        let table = HealthTable::new(None, Duration::from_secs(5), "T");
        let t = table.resolve(&target(8));
        for _ in 0..10 {
            t.record(false);
        }
        assert_eq!(t.admit(), Admission::Allow);
        assert_eq!(t.state(), BreakerState::Closed);
        assert!(!t.refuses());
        assert!(!table.any_open());
        // A success does not clear the failure: the TTL does.
        t.record(true);
        assert!(t.is_dead());
    }

    #[test]
    fn a_target_no_selection_offers_loses_its_record() {
        // A type of its own: the gauge is shared by every table of a
        // type, and the tests run side by side.
        let config = BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        };
        let table = HealthTable::new(Some(config), Duration::from_secs(5), "Forget");
        let (a, b) = (target(10), target(11));
        table.resolve(&a).record(false);
        table.resolve(&b);
        assert!(table.any_open());
        assert_eq!(table.get(&a).unwrap().state(), BreakerState::Open);

        // A selection that offers `b` only: `a`'s record goes, and with
        // it the open breaker it counted.
        table.keep_offered(&[offer(b.clone())]);
        assert!(table.get(&a).is_none());
        assert!(table.get(&b).is_some());
        assert!(!table.any_open());
        let snap = registry().snapshot();
        assert_eq!(
            snap.gauge("smartproxy.Forget.breaker.open_targets"),
            Some(0)
        );
    }

    #[test]
    fn a_held_record_outlives_its_table_entry() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let t = target(12);
        let held = table.resolve(&t);
        assert!(Arc::ptr_eq(&held, &table.resolve(&t)));
        assert!(Arc::ptr_eq(&held, &table.get(&t).unwrap()));
        held.record(false);
        held.record(false);
        assert!(held.is_dead());
        assert_eq!(held.state(), BreakerState::Open);

        table.keep_offered(&[]);
        assert!(table.get(&t).is_none());
        // The holder keeps its record, still open and counted; the table
        // starts a fresh one.
        assert_eq!(held.state(), BreakerState::Open);
        assert!(table.any_open());
        let fresh = table.resolve(&t);
        assert!(!Arc::ptr_eq(&held, &fresh));
        assert_eq!(fresh.state(), BreakerState::Closed);
        assert!(!fresh.is_dead());
        drop(held);
        assert!(!table.any_open());
    }

    #[test]
    fn successes_over_a_clean_window_change_nothing() {
        let table = breakers(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(10),
        });
        let held = table.resolve(&target(13));
        for _ in 0..3 {
            held.record(true);
        }
        assert!(held.clean.load(Ordering::Relaxed));
        // One failure in a window of two is the threshold: it opens.
        held.record(false);
        assert!(!held.clean.load(Ordering::Relaxed));
        assert_eq!(held.state(), BreakerState::Open);
    }
}
