//! Smart proxies: transparent, auto-adaptive service access.
//!
//! A [`SmartProxy`] stands for a *type of service*, not a specific
//! server (Figure 5). It selects the concrete component through the
//! trading service, registers itself as an event observer with the
//! monitors behind the offer's dynamic properties, queues notifications,
//! and applies adaptation strategies *immediately before the next
//! service invocation* — the paper's postponed event handling, which
//! "avoids conflicts with ongoing traffic when a reconfiguration is
//! done". Strategies live outside the application's functional code and
//! can be native Rust or Rua source installed (and replaced) at run
//! time.
//!
//! Selections fill one `adapta-balancer` [`ReplicaSet`], whose routing
//! policy picks the target of each call. The paper's classic proxy is a
//! set under the `bound` policy, which keeps one replica: the first
//! admissible match of the last selection.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use adapta_balancer::{Replica, ReplicaSet};
use adapta_bridge::{Isolate, Stored};
use adapta_idl::{InterfaceRepository, Value};
use adapta_orb::{InvokeOptions, ObjRef, Orb, OrbError, OrbResult, ServantFn};
use adapta_telemetry::{registry, Counter, Gauge, HistogramHandle};
use adapta_trading::{OfferMatch, Query, TradingService};
use parking_lot::Mutex;

use crate::error::CoreError;
use crate::resilience::RetryPolicy;
use crate::script_env;
use crate::Result;
use crate::{Admission, BreakerConfig, BreakerState};

/// A monitor subscription the proxy establishes for every replica that
/// enters its set, and cancels when the replica leaves.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// The offer's dynamic property whose evaluator is the monitor.
    pub property: String,
    /// Event id to register (e.g. `"LoadIncrease"`).
    pub event_id: String,
    /// Rua source of the event-diagnosing predicate, evaluated at the
    /// monitor (remote evaluation): `function(observer, value, monitor)`.
    pub predicate: String,
}

/// How long a target that failed at the transport level is remembered
/// (and its stale trader offers skipped during re-selection) before the
/// proxy is willing to try it again.
const DEFAULT_DEAD_TARGET_TTL: Duration = Duration::from_secs(5);

/// Bound on the deferred-event queue. Events only drive *when* the
/// proxy reconsiders its binding, so under a notification storm the
/// oldest entries are the most stale — they are dropped first (counted
/// under `smartproxy.<type>.events_dropped`).
const MAX_PENDING_EVENTS: usize = 256;

/// Event posted (when a strategy is registered for it) each time the
/// strict query came back empty and the proxy fell back to the relaxed
/// query — adaptation code can observe constraint relaxation instead
/// of it happening silently.
pub const RELAXED_QUERY_EVENT: &str = "RelaxedQuery";

impl Subscription {
    /// Creates a subscription.
    pub fn new(
        property: impl Into<String>,
        event_id: impl Into<String>,
        predicate: impl Into<String>,
    ) -> Self {
        Subscription {
            property: property.into(),
            event_id: event_id.into(),
            predicate: predicate.into(),
        }
    }
}

/// The closure type behind [`Strategy::Native`]: receives the proxy
/// and the event id.
pub type NativeStrategy = Arc<dyn Fn(&SmartProxy, &str) + Send + Sync>;

/// How a smart proxy reacts to an event.
#[derive(Clone)]
pub enum Strategy {
    /// Re-run the primary query; keep the current component when
    /// nothing better matches (the default).
    Reselect,
    /// A native strategy.
    Native(NativeStrategy),
    /// A script strategy `function(self, event)` stored in the proxy's
    /// isolate; `self` is the script facade (with `_select`, `_observer`,
    /// monitor proxies…).
    Script(Stored),
}

impl std::fmt::Debug for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Reselect => write!(f, "Reselect"),
            Strategy::Native(_) => write!(f, "Native"),
            Strategy::Script(_) => write!(f, "Script"),
        }
    }
}

/// Configuration of a balanced proxy (see
/// [`SmartProxyBuilder::balanced`]).
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Routing policy name (see `adapta_balancer::policy_named`).
    pub policy: String,
    /// Base interval of the background replica-set refresh (jittered
    /// ±50% by the set).
    pub refresh_interval: Duration,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            policy: "round_robin".into(),
            refresh_interval: Duration::from_millis(250),
        }
    }
}

/// The proxy's per-call and per-event instruments under
/// `smartproxy.<type>.`, resolved once at build.
struct SpMetrics {
    queue_depth: Gauge,
    events_received: Counter,
    events_dropped: Counter,
    drain_latency: HistogramHandle,
    rebinds: Counter,
    retries: Counter,
    failovers: Counter,
    repicks_avoided: Counter,
    relaxed_queries: Counter,
    reselect: StrategyCounters,
    native: StrategyCounters,
    script: StrategyCounters,
}

/// `strategy.<kind>.{runs,failures}` for one kind of strategy.
struct StrategyCounters {
    runs: Counter,
    failures: Counter,
}

impl SpMetrics {
    fn for_type(service_type: &str) -> SpMetrics {
        let name = |stat: &str| format!("smartproxy.{service_type}.{stat}");
        let r = registry();
        SpMetrics {
            queue_depth: r.gauge(&name("queue_depth")),
            events_received: r.counter(&name("events_received")),
            events_dropped: r.counter(&name("events_dropped")),
            drain_latency: r.histogram(&name("drain_latency")),
            rebinds: r.counter(&name("rebinds")),
            retries: r.counter(&name("retries")),
            failovers: r.counter(&name("failovers")),
            repicks_avoided: r.counter(&name("failover.repicks_avoided")),
            relaxed_queries: r.counter(&name("failover.relaxed_queries")),
            reselect: StrategyCounters::new(&name("strategy.reselect")),
            native: StrategyCounters::new(&name("strategy.native")),
            script: StrategyCounters::new(&name("strategy.script")),
        }
    }
}

impl StrategyCounters {
    fn new(prefix: &str) -> StrategyCounters {
        StrategyCounters {
            runs: registry().counter(&format!("{prefix}.runs")),
            failures: registry().counter(&format!("{prefix}.failures")),
        }
    }
}

struct SpInner {
    orb: Orb,
    repo: InterfaceRepository,
    trader: Arc<dyn TradingService>,
    service_type: String,
    immediate_handling: bool,
    call_deadline: Option<Duration>,
    retry: RetryPolicy,
    subscriptions: Vec<Subscription>,
    strategies: Mutex<HashMap<String, Strategy>>,
    /// The selected components; the routing policy picks among them.
    /// Its query holds the primary constraint and the preference, and
    /// its health records the breaker state and time of last failure of
    /// each target: re-selection skips the (possibly stale) offers of
    /// targets that failed within the dead-target TTL, so repeated
    /// failovers converge instead of ping-ponging back onto a dead
    /// server.
    set: ReplicaSet,
    events: Mutex<VecDeque<String>>,
    /// How many events `events` holds, read without its lock, so a call
    /// with nothing to drain takes no lock.
    pending: AtomicUsize,
    observer_ref: OnceLock<ObjRef>,
    isolate: Mutex<Option<Isolate>>,
    facade: OnceLock<Stored>,
    /// The facade's monitor proxy tables, newest last (see
    /// [`monitor_table`]).
    monitor_tables: Mutex<VecDeque<(ObjRef, Stored)>>,
    invocations: AtomicU64,
    rebinds: AtomicU64,
    events_received: AtomicU64,
    events_handled: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    repicks_avoided: AtomicU64,
    relaxed_queries: AtomicU64,
    metrics: SpMetrics,
}

impl SpInner {
    /// Enqueues an event for postponed handling (bounded queue, oldest
    /// dropped first). Used by the observer servant and by internally
    /// generated events like `RelaxedQuery`.
    fn push_event(&self, event: String) {
        let depth = {
            let mut events = self.events.lock();
            if events.len() >= MAX_PENDING_EVENTS {
                events.pop_front();
                self.metrics.events_dropped.incr();
            }
            events.push_back(event);
            self.pending.store(events.len(), Ordering::Release);
            events.len()
        };
        self.metrics.queue_depth.set(depth as i64);
    }

    /// The one routine that registers the proxy's observer with a monitor
    /// (`event`, predicate source `code`), recorded once on `replica`,
    /// whose monitor it watches: the last replica holding a registration
    /// cancels it when it leaves the set. `None` if the monitor refused,
    /// or if the replica has left the set.
    fn attach(&self, replica: &Replica, monitor: &ObjRef, event: &str, code: &str) -> Option<i64> {
        let args = vec![
            Value::ObjRef(self.observer_ref.get()?.clone()),
            Value::from(event),
            Value::from(code),
        ];
        let Ok(Value::Long(id)) = self.orb.invoke_ref(monitor, "attachEventObserver", args) else {
            return None;
        };
        {
            let mut held = replica.registrations.lock();
            if !held.iter().any(|(m, i)| *i == id && m == monitor) {
                held.push((monitor.clone(), id));
            }
        }
        // A selection may have evicted the replica, and cancelled what
        // it held, while this attach ran: cancel this one as well.
        let kept = |r: &[Arc<Replica>]| r.iter().any(|r| std::ptr::eq(&**r, replica));
        if !self.set.with_replicas(kept) {
            self.unsubscribe(replica);
            return None;
        }
        Some(id)
    }

    /// Attaches for the first replica of the set whose offer `monitor`
    /// backs (Figure 7's relaxed threshold, natively or through a facade
    /// monitor table). `None` without such a replica, so no attach
    /// outlives the set.
    fn attach_backed(&self, monitor: &ObjRef, event: &str, code: &str) -> Option<i64> {
        let backed = |r: &&Arc<Replica>| r.offer().dynamic.iter().any(|(_, m)| m == monitor);
        let replica = self.set.with_replicas(|r| r.iter().find(backed).cloned())?;
        self.attach(&replica, monitor, event, code)
    }

    /// Attaches the proxy's subscriptions for a replica that entered the
    /// set. A monitor that cannot be reached is skipped: the replica
    /// stays usable, just without that subscription.
    fn subscribe(&self, replica: &Replica) {
        for sub in &self.subscriptions {
            if let Some(monitor) = replica.dynamic_ref(&sub.property) {
                self.attach(replica, &monitor, &sub.event_id, &sub.predicate);
            }
        }
    }

    /// Cancels the registrations of a replica that left the set, but not
    /// one shared with a replica still in it (an identical attach).
    fn unsubscribe(&self, replica: &Replica) {
        for (monitor, id) in std::mem::take(&mut *replica.registrations.lock()) {
            let holds = |r: &Arc<Replica>| {
                let held = r.registrations.lock();
                held.iter().any(|(m, i)| *i == id && *m == monitor)
            };
            if self.set.with_replicas(|r| r.iter().any(holds)) {
                continue;
            }
            let _ = self
                .orb
                .invoke_ref(&monitor, "detachEventObserver", vec![Value::Long(id)]);
        }
    }
}

/// The client-side auto-adaptation mechanism. See the module docs
/// above and [`SmartProxyBuilder`].
#[derive(Clone)]
pub struct SmartProxy {
    inner: Arc<SpInner>,
}

impl std::fmt::Debug for SmartProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmartProxy")
            .field("service_type", &self.inner.service_type)
            .field("constraint", &self.inner.set.query().constraint)
            .field("bound_to", &self.current_target().map(|r| r.to_uri()))
            .field("pending_events", &self.pending_events())
            .finish_non_exhaustive()
    }
}

/// Builder for [`SmartProxy`]; obtained from
/// [`SmartProxy::builder`] or `Infrastructure::smart_proxy`.
pub struct SmartProxyBuilder {
    orb: Orb,
    repo: InterfaceRepository,
    trader: Arc<dyn TradingService>,
    service_type: String,
    constraint: String,
    preference: String,
    immediate_handling: bool,
    lazy: bool,
    call_deadline: Option<Duration>,
    dead_target_ttl: Duration,
    retry: RetryPolicy,
    breaker: Option<BreakerConfig>,
    balancer: Option<BalancerConfig>,
    subscriptions: Vec<Subscription>,
    native_strategies: Vec<(String, Strategy)>,
    script_strategies: Vec<(String, String)>,
}

impl SmartProxyBuilder {
    /// Sets the primary selection constraint.
    pub fn constraint(mut self, c: impl Into<String>) -> Self {
        self.constraint = c.into();
        self
    }

    /// Sets the offer-ordering preference.
    pub fn preference(mut self, p: impl Into<String>) -> Self {
        self.preference = p.into();
        self
    }

    /// Handle events at notification time instead of postponing to the
    /// next invocation (the ablation of experiment E6).
    pub fn immediate_handling(mut self) -> Self {
        self.immediate_handling = true;
        self
    }

    /// Skip the initial selection; the first invocation will select.
    pub fn lazy(mut self) -> Self {
        self.lazy = true;
        self
    }

    /// Bounds every two-way invocation through this proxy: a reply that
    /// misses the deadline fails (and triggers failover) instead of
    /// hanging on the transport's 30-second backstop.
    pub fn call_deadline(mut self, deadline: Duration) -> Self {
        self.call_deadline = Some(deadline);
        self
    }

    /// How long a failed target counts as dead in the proxy's health
    /// table (its stale trader offers are skipped during re-selection
    /// within the TTL). Defaults to 5 seconds.
    pub fn dead_target_ttl(mut self, ttl: Duration) -> Self {
        self.dead_target_ttl = ttl;
        self
    }

    /// Sets the retry policy for retryable failures (see
    /// [`RetryPolicy`]). Defaults to [`RetryPolicy::failover_only`]:
    /// one immediate failover retry, no backoff — the proxy's
    /// historical behaviour.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Enables a per-target circuit breaker (see [`BreakerConfig`]).
    /// Off by default. An open breaker makes the proxy fail over (or
    /// back off) instead of calling a target that keeps failing;
    /// transitions are published under `smartproxy.<type>.breaker.*`.
    pub fn circuit_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Spreads invocations over every match of the proxy's selection
    /// with the named routing policy (`round_robin`, `least_inflight`,
    /// `p2c_ewma`, `weighted_property[:<Prop>]`, `consistent_hash`)
    /// instead of the `bound` policy's single replica. The set
    /// re-selects in the background and feeds call outcomes back into
    /// per-replica stats; the policy can be swapped at run time with
    /// [`SmartProxy::set_balancer_policy`].
    pub fn balanced(mut self, policy: impl Into<String>) -> Self {
        self.balancer
            .get_or_insert_with(BalancerConfig::default)
            .policy = policy.into();
        self
    }

    /// Base interval of a balanced proxy's background re-selection
    /// (jittered ±50%). Defaults to 250 ms. Implies
    /// [`balanced`](Self::balanced) with the default policy.
    pub fn balancer_refresh(mut self, interval: Duration) -> Self {
        self.balancer
            .get_or_insert_with(BalancerConfig::default)
            .refresh_interval = interval;
        self
    }

    /// Adds a monitor subscription, established for every replica that
    /// enters the proxy's set (see [`Subscription`]).
    pub fn subscribe(mut self, subscription: Subscription) -> Self {
        self.subscriptions.push(subscription);
        self
    }

    /// Registers a native strategy for an event.
    pub fn strategy_native(
        mut self,
        event: impl Into<String>,
        f: impl Fn(&SmartProxy, &str) + Send + Sync + 'static,
    ) -> Self {
        self.native_strategies
            .push((event.into(), Strategy::Native(Arc::new(f))));
        self
    }

    /// Registers a script strategy (`function(self, event) … end`).
    pub fn strategy_script(mut self, event: impl Into<String>, code: impl Into<String>) -> Self {
        self.script_strategies.push((event.into(), code.into()));
        self
    }

    /// Builds the proxy; unless [`lazy`](Self::lazy), performs the
    /// initial component selection.
    ///
    /// # Errors
    ///
    /// Trading/broker errors, script compilation errors, or
    /// [`CoreError::NoSuitableOffer`] when nothing is available.
    pub fn build(self) -> Result<SmartProxy> {
        let query = Query::new(&self.service_type)
            .constraint(&self.constraint)
            .preference(&self.preference);
        let policy = self
            .balancer
            .as_ref()
            .map_or("bound", |c| c.policy.as_str());
        let set = ReplicaSet::new(self.trader.clone(), query)
            .with_policy_named(policy)
            .with_health(self.breaker, self.dead_target_ttl);
        let metrics = SpMetrics::for_type(&self.service_type);
        let inner = Arc::new(SpInner {
            orb: self.orb,
            repo: self.repo,
            trader: self.trader,
            service_type: self.service_type,
            immediate_handling: self.immediate_handling,
            call_deadline: self.call_deadline,
            retry: self.retry,
            subscriptions: self.subscriptions,
            strategies: Mutex::new(self.native_strategies.into_iter().collect()),
            set,
            events: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            observer_ref: OnceLock::new(),
            isolate: Mutex::new(None),
            facade: OnceLock::new(),
            monitor_tables: Mutex::new(VecDeque::new()),
            invocations: AtomicU64::new(0),
            rebinds: AtomicU64::new(0),
            events_received: AtomicU64::new(0),
            events_handled: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            repicks_avoided: AtomicU64::new(0),
            relaxed_queries: AtomicU64::new(0),
            metrics,
        });
        let proxy = SmartProxy { inner };

        // The proxy's EventObserver servant (Figure 2's callback
        // interface): notifications enqueue, or handle immediately.
        let weak = Arc::downgrade(&proxy.inner);
        let observer = ServantFn::new("EventObserver", move |op, args| {
            if op != "notifyEvent" {
                return Err(OrbError::unknown_operation("EventObserver", op));
            }
            let event = args
                .first()
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned();
            if let Some(inner) = weak.upgrade() {
                inner.events_received.fetch_add(1, Ordering::Relaxed);
                inner.metrics.events_received.incr();
                let proxy = SmartProxy { inner };
                if proxy.inner.immediate_handling {
                    proxy.handle_event(&event);
                } else {
                    // Bounded: a notification storm cannot grow the
                    // queue without limit — beyond the cap the oldest
                    // (stalest) event is dropped and counted.
                    proxy.inner.push_event(event);
                }
            }
            Ok(Value::Null)
        });
        let objref = proxy.inner.orb.activate_auto(observer);
        proxy
            .inner
            .observer_ref
            .set(objref)
            .expect("observer ref set once");

        for (event, code) in self.script_strategies {
            proxy.set_strategy_script(&event, &code)?;
        }

        let found = self.lazy || proxy.select_with(&self.constraint, true)?;
        if let Some(config) = &self.balancer {
            let weak = Arc::downgrade(&proxy.inner);
            proxy
                .inner
                .set
                .start_refresher(config.refresh_interval, move |_| {
                    if let Some(inner) = weak.upgrade() {
                        let _ = SmartProxy { inner }.reselect();
                    }
                });
        }
        if !found {
            return Err(CoreError::NoSuitableOffer {
                service_type: proxy.inner.service_type.clone(),
            });
        }
        Ok(proxy)
    }
}

impl SmartProxy {
    /// Starts building a smart proxy against an explicit orb, interface
    /// repository and trading service.
    pub fn builder(
        orb: &Orb,
        repo: &InterfaceRepository,
        trader: Arc<dyn TradingService>,
        service_type: impl Into<String>,
    ) -> SmartProxyBuilder {
        SmartProxyBuilder {
            orb: orb.clone(),
            repo: repo.clone(),
            trader,
            service_type: service_type.into(),
            constraint: String::new(),
            preference: String::new(),
            immediate_handling: false,
            lazy: false,
            call_deadline: None,
            dead_target_ttl: DEFAULT_DEAD_TARGET_TTL,
            retry: RetryPolicy::failover_only(),
            breaker: None,
            balancer: None,
            subscriptions: Vec::new(),
            native_strategies: Vec::new(),
            script_strategies: Vec::new(),
        }
    }

    /// The represented service type.
    pub fn service_type(&self) -> &str {
        &self.inner.service_type
    }

    /// The currently bound component: the first replica of the set,
    /// the only one under the `bound` policy.
    pub fn current_target(&self) -> Option<ObjRef> {
        self.inner
            .set
            .with_replicas(|replicas| Some(replicas.first()?.target().clone()))
    }

    /// The offer behind [`current_target`](Self::current_target).
    pub fn current_offer(&self) -> Option<OfferMatch> {
        self.inner
            .set
            .with_replicas(|replicas| Some(replicas.first()?.offer()))
    }

    /// The proxy's observer reference (scripts see it as `_observer`).
    pub fn observer_ref(&self) -> ObjRef {
        self.inner
            .observer_ref
            .get()
            .expect("observer activated at build")
            .clone()
    }

    /// Attaches `subscription` to the current replica's monitor, as the
    /// builder's subscriptions are, so it leaves with the replica (Figure
    /// 7's relaxed threshold). `false` if no monitor took it.
    pub fn observe(&self, subscription: &Subscription) -> bool {
        let property = &subscription.property;
        let first = |r: &[Arc<Replica>]| r.first()?.dynamic_ref(property);
        let Some(monitor) = self.inner.set.with_replicas(first) else {
            return false;
        };
        let (event, predicate) = (&subscription.event_id, &subscription.predicate);
        self.inner
            .attach_backed(&monitor, event, predicate)
            .is_some()
    }

    /// Number of events waiting for postponed handling.
    pub fn pending_events(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// Functional invocations made through this proxy.
    pub fn invocations(&self) -> u64 {
        self.inner.invocations.load(Ordering::Relaxed)
    }

    /// Times the proxy switched components.
    pub fn rebinds(&self) -> u64 {
        self.inner.rebinds.load(Ordering::Relaxed)
    }

    /// Notifications received from monitors.
    pub fn events_received(&self) -> u64 {
        self.inner.events_received.load(Ordering::Relaxed)
    }

    /// Events whose strategy ran.
    pub fn events_handled(&self) -> u64 {
        self.inner.events_handled.load(Ordering::Relaxed)
    }

    /// Invocation-time failovers after a component failure.
    ///
    /// Counts *failing invocations* (once per `invoke` that hit at
    /// least one retryable failure), not individual retry attempts —
    /// see [`retries`](Self::retries) for those.
    pub fn failovers(&self) -> u64 {
        self.inner.failovers.load(Ordering::Relaxed)
    }

    /// Extra attempts made after retryable failures (per attempt, where
    /// [`failovers`](Self::failovers) counts per invocation).
    pub fn retries(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// The circuit-breaker state for `target`, when a breaker is
    /// configured (see [`SmartProxyBuilder::circuit_breaker`]).
    pub fn breaker_state(&self, target: &ObjRef) -> Option<BreakerState> {
        let health = self.inner.set.health();
        health.has_breaker().then(|| {
            health
                .get(target)
                .map_or(BreakerState::Closed, |h| h.state())
        })
    }

    /// Stale offers of known-dead targets skipped during re-selection
    /// (within the dead-target TTL).
    pub fn repicks_avoided(&self) -> u64 {
        self.inner.repicks_avoided.load(Ordering::Relaxed)
    }

    /// Times the strict query came back empty and the proxy fell back
    /// to the relaxed query (also `smartproxy.<type>.failover.relaxed_queries`
    /// and, with a strategy registered, the [`RELAXED_QUERY_EVENT`]).
    pub fn relaxed_queries(&self) -> u64 {
        self.inner.relaxed_queries.load(Ordering::Relaxed)
    }

    // ---- routing -------------------------------------------------------

    /// The proxy's replica set. Every proxy has one, so this is always
    /// `Some`; a classic proxy's set is under the `bound` policy.
    pub fn balancer(&self) -> Option<&ReplicaSet> {
        Some(&self.inner.set)
    }

    /// Swaps the routing policy at run time: in-flight calls keep their
    /// already-picked replica, later calls use the new policy, and the
    /// next selection keeps one match (`bound`) or every match. Counted
    /// under `balancer.<type>.policy_switches`. Returns `false` when
    /// the name is unknown.
    pub fn set_balancer_policy(&self, name: &str) -> bool {
        self.inner.set.set_policy_named(name)
    }

    /// The current routing policy's name (`bound` on a classic proxy).
    pub fn balancer_policy(&self) -> Option<String> {
        Some(self.inner.set.policy_name())
    }

    // ---- strategies ------------------------------------------------------

    /// Registers (or replaces) a strategy for an event.
    pub fn set_strategy(&self, event: impl Into<String>, strategy: Strategy) {
        self.inner.strategies.lock().insert(event.into(), strategy);
    }

    /// Registers a native strategy.
    pub fn set_strategy_native(
        &self,
        event: impl Into<String>,
        f: impl Fn(&SmartProxy, &str) + Send + Sync + 'static,
    ) {
        self.set_strategy(event, Strategy::Native(Arc::new(f)));
    }

    /// Compiles and registers a script strategy
    /// (`function(self, event) … end`). Because strategies are
    /// interpreted, they can be replaced at any time without stopping
    /// the application.
    ///
    /// # Errors
    ///
    /// Script compilation errors.
    pub fn set_strategy_script(&self, event: &str, code: &str) -> Result<()> {
        let handle = self.actor().store_function(code)?;
        self.set_strategy(event, Strategy::Script(handle));
        Ok(())
    }

    /// Runs a configuration script that assigns the proxy's strategies
    /// table, Figure-7 style: the script sees the global `smartproxy`
    /// (the proxy facade) and typically ends with
    /// `smartproxy._strategies = { EventName = function(self) … end }`.
    ///
    /// # Errors
    ///
    /// Script errors.
    pub fn install_strategies_script(&self, source: &str) -> Result<()> {
        let isolate = self.actor();
        let facade = self.facade_handle(&isolate)?;
        let events: Vec<(String, Stored)> = isolate.with(
            |interp| -> std::result::Result<Vec<(String, Stored)>, adapta_bridge::ActorError> {
                let facade_table = facade.get();
                interp.set_global("smartproxy", facade_table.clone());
                interp.eval(source)?;
                // Read back the `_strategies` table.
                let strategies = facade_table
                    .as_table()
                    .map(|t| t.borrow().get_str("_strategies"))
                    .unwrap_or(adapta_script::Value::Nil);
                let mut out = Vec::new();
                if let Some(t) = strategies.as_table() {
                    let entries: Vec<_> = t.borrow().iter().collect();
                    for (k, v) in entries {
                        if let (Some(event), adapta_script::Value::Function(_)) =
                            (k.as_str().map(str::to_owned), &v)
                        {
                            out.push((event, Stored::new(v.clone())));
                        }
                    }
                }
                Ok(out)
            },
        )??;
        if events.is_empty() {
            return Err(CoreError::Script(
                "strategies script did not define smartproxy._strategies".into(),
            ));
        }
        let mut strategies = self.inner.strategies.lock();
        for (event, handle) in events {
            strategies.insert(event, Strategy::Script(handle));
        }
        Ok(())
    }

    /// The proxy's script isolate (created on first use).
    pub fn actor(&self) -> Isolate {
        let mut guard = self.inner.isolate.lock();
        if guard.is_none() {
            let name = format!("sp-{}", self.inner.service_type);
            *guard = Some(Isolate::new(&name, |_| {}));
        }
        guard.clone().expect("just set")
    }

    /// The persistent facade table handle (created on first use).
    fn facade_handle(&self, isolate: &Isolate) -> Result<Stored> {
        if let Some(h) = self.inner.facade.get() {
            return Ok(h.clone());
        }
        let handle = isolate.with(|_| build_facade(self))?;
        Ok(self.inner.facade.get_or_init(|| handle).clone())
    }

    // ---- selection -------------------------------------------------------

    /// Re-runs the primary query (no fallback). `true` when the set
    /// changed: under the `bound` policy, whenever something matched.
    ///
    /// # Errors
    ///
    /// Trading errors.
    pub fn reselect(&self) -> Result<bool> {
        self.select(&self.inner.set.query().constraint, false, &[])
    }

    /// Runs a query with an explicit constraint (see
    /// [`reselect`](Self::reselect)). With `fallback`, a query that
    /// leaves nothing admissible is followed by the paper's relaxed
    /// query (preference only, no filtering).
    ///
    /// # Errors
    ///
    /// Trading errors.
    pub fn select_with(&self, constraint: &str, fallback: bool) -> Result<bool> {
        self.select(constraint, fallback, &[])
    }

    /// The one selection routine. A match is admissible unless its
    /// target is in `exclude` (it failed earlier in this invocation,
    /// and its stale offer may still be registered), failed within the
    /// dead-target TTL, or is refused by its breaker. The set keeps the
    /// first admissible match under the `bound` policy and every match
    /// under any other. A selection that leaves nothing admissible
    /// leaves the set as it is: the proxy keeps its current component
    /// when nothing better matches.
    fn select(&self, constraint: &str, fallback: bool, exclude: &[ObjRef]) -> Result<bool> {
        let inner = &self.inner;
        let health = inner.set.health();
        let admissible = |m: &OfferMatch| {
            if exclude.contains(&m.target) {
                return false;
            }
            let Some(record) = health.get(&m.target) else {
                return true;
            };
            if record.is_dead() {
                inner.repicks_avoided.fetch_add(1, Ordering::Relaxed);
                inner.metrics.repicks_avoided.incr();
                return false;
            }
            !record.refuses()
        };
        let base = inner.set.query();
        let mut query = Query::new(&base.service_type)
            .constraint(constraint)
            .preference(&base.preference);
        let mut matches = inner.trader.query(&query)?;
        let mut first = matches.iter().position(admissible);
        if first.is_none() && fallback {
            // The paper's relaxed fallback (preference only, no
            // filtering) — no longer silent: it is counted, and posted
            // as a `RelaxedQuery` event when a strategy wants to react
            // (e.g. widen the constraint, raise an alarm). Without a
            // registered strategy nothing is enqueued: the default
            // Reselect plan would just churn queries.
            inner.relaxed_queries.fetch_add(1, Ordering::Relaxed);
            inner.metrics.relaxed_queries.incr();
            if inner.strategies.lock().contains_key(RELAXED_QUERY_EVENT) {
                inner.push_event(RELAXED_QUERY_EVENT.to_string());
            }
            query.constraint.clear();
            matches = inner.trader.query(&query)?;
            first = matches.iter().position(admissible);
        }
        let Some(first) = first else {
            return Ok(false);
        };
        let keeps_one = inner.set.keeps_one();
        if keeps_one {
            // The set keeps the first match: make it the first admissible
            // one. Every match still goes to the set, whose health records
            // follow what the selection offers.
            matches[..=first].rotate_right(1);
        }
        let first_replica = || inner.set.with_replicas(|r| r.first().cloned());
        let before = first_replica();
        let change = inner.set.apply(matches);
        // New registrations first, so a monitor never sees the proxy
        // without an observer.
        for replica in &change.added {
            inner.subscribe(replica);
        }
        for replica in &change.evicted {
            inner.unsubscribe(replica);
        }
        let after = first_replica();
        if after.as_ref().map(|r| r.target()) != before.as_ref().map(|r| r.target()) {
            inner.rebinds.fetch_add(1, Ordering::Relaxed);
            inner.metrics.rebinds.incr();
        }
        // A keep-one set that kept its replica for the same offer changed
        // nothing, but a selection that matched still reports `true`.
        Ok(keeps_one || !change.added.is_empty() || !change.evicted.is_empty())
    }

    // ---- events ----------------------------------------------------------

    /// Handles all queued events now (normally done automatically
    /// before each invocation; public for explicit activation).
    ///
    /// Duplicate event ids queued since the last invocation are
    /// coalesced: a burst of identical `LoadIncrease` notifications
    /// runs its strategy once, not once per notification.
    pub fn handle_pending_events(&self) {
        // `Acquire`, pairing with `push_event`'s store: an event pushed
        // after this load waits for the next drain, as one pushed just
        // after the lock below would.
        if self.inner.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        let drained: Vec<String> = {
            let mut events = self.inner.events.lock();
            self.inner.pending.store(0, Ordering::Relaxed);
            events.drain(..).collect()
        };
        self.inner.metrics.queue_depth.set(0);
        if drained.is_empty() {
            return;
        }
        self.inner.metrics.drain_latency.time(|| {
            let mut seen = std::collections::HashSet::new();
            for event in drained {
                if seen.insert(event.clone()) {
                    self.handle_event(&event);
                }
            }
        });
    }

    /// Applies the strategy for `event` immediately (on-demand
    /// adaptation, independent of notifications).
    pub fn adapt_now(&self, event: &str) {
        self.handle_event(event);
    }

    fn handle_event(&self, event: &str) {
        self.inner.events_handled.fetch_add(1, Ordering::Relaxed);
        let plan = self.inner.strategies.lock().get(event).cloned();
        let plan = plan.unwrap_or(Strategy::Reselect);
        let metrics = &self.inner.metrics;
        let counters = match &plan {
            Strategy::Reselect => &metrics.reselect,
            Strategy::Native(_) => &metrics.native,
            Strategy::Script(_) => &metrics.script,
        };
        counters.runs.incr();
        let failed = match plan {
            Strategy::Reselect => self.reselect().is_err(),
            Strategy::Native(f) => {
                f(self, event);
                false
            }
            Strategy::Script(handle) => {
                let isolate = self.actor();
                let Ok(facade) = self.facade_handle(&isolate) else {
                    counters.failures.incr();
                    return;
                };
                let ran = isolate.with(|interp| {
                    let table = facade.get();
                    refresh_facade(self, &table);
                    let args = vec![table, adapta_script::Value::str(event)];
                    Isolate::call_in(interp, &handle, args)
                });
                !matches!(ran, Ok(Ok(_)))
            }
        };
        if failed {
            counters.failures.incr();
        }
    }

    // ---- invocation ------------------------------------------------------

    /// Invokes an operation on the represented service.
    ///
    /// Queued events are handled first (postponed handling). Each
    /// attempt takes its target from one pick step — the routing
    /// policy's choice among the set's replicas — and records the
    /// outcome in that target's health. Retryable failures
    /// ([`OrbError::is_retryable`]) are retried after the
    /// [`RetryPolicy`]'s decorrelated-jitter backoff, up to
    /// `max_attempts`, and the next pick avoids every target that
    /// failed in this invocation (with no alternative, the proxy
    /// retries the *same* target — it may heal). A configured
    /// [circuit breaker](SmartProxyBuilder::circuit_breaker) is
    /// consulted by every pick, so a target that keeps failing is
    /// refused up front instead of being called into a black hole.
    /// The proxy's [`call_deadline`](SmartProxyBuilder::call_deadline)
    /// bounds the *whole* invocation — attempts and backoff sleeps
    /// together — not each attempt separately.
    ///
    /// Application-level errors are returned immediately: the component
    /// answered, so retrying would re-run a possibly non-idempotent
    /// operation for nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unbound`] when no component can be selected;
    /// otherwise broker/servant errors (the last attempt's, when
    /// retries are exhausted).
    pub fn invoke(&self, op: &str, args: Vec<Value>) -> Result<Value> {
        self.invoke_keyed(op, args, None)
    }

    /// Like [`invoke`](Self::invoke), with an affinity key for
    /// key-aware routing policies ([`ConsistentHash`](adapta_balancer::ConsistentHash):
    /// calls with the same key stick to the same replica). The key is
    /// ignored by key-oblivious policies such as `bound`.
    ///
    /// # Errors
    ///
    /// As [`invoke`](Self::invoke).
    pub fn invoke_keyed(&self, op: &str, args: Vec<Value>, affinity: Option<u64>) -> Result<Value> {
        self.inner.invocations.fetch_add(1, Ordering::Relaxed);
        self.handle_pending_events();
        let overall = self.inner.call_deadline.map(|d| (d, Instant::now() + d));
        let mut backoff = self.inner.retry.backoff();
        let max_attempts = self.inner.retry.max_attempts.max(1);
        let mut counted_failover = false;
        // Targets that failed in this invocation: `pick` avoids them.
        let mut failed: Vec<ObjRef> = Vec::new();
        let mut last_err: Option<CoreError> = None;
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                self.inner.retries.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.retries.incr();
            }
            if let Some((budget, end)) = overall {
                if Instant::now() >= end {
                    return Err(last_err
                        .unwrap_or_else(|| OrbError::DeadlineExpired { after: budget }.into()));
                }
            }
            let Some(replica) = self.pick(affinity, &mut failed)? else {
                // Nothing admissible right now: wait out the backoff —
                // an open breaker eventually admits a probe.
                last_err.get_or_insert_with(|| self.no_admissible_target());
                self.sleep_backoff(&mut backoff, overall);
                continue;
            };
            // Latency feeds the policy's choice, so a call is timed only
            // when there is a choice: a lone replica costs no clock read.
            let started = (self.inner.set.len() > 1).then(|| {
                replica.stats().on_start();
                Instant::now()
            });
            let result = self.invoke_transport(replica.target(), op, &args, overall);
            let retryable = matches!(&result, Err(e) if e.is_retryable());
            if let Some(started) = started {
                replica.stats().on_complete(started.elapsed(), !retryable);
            }
            replica.health.record(!retryable);
            if !retryable {
                // Success, or an application error: the component
                // answered, so retrying would re-run the operation.
                return Ok(result?);
            }
            if !counted_failover {
                // Counted once per invocation, not per attempt:
                // `failovers()` means "invocations that hit a failure",
                // matching its historical semantics.
                counted_failover = true;
                self.inner.failovers.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.failovers.incr();
            }
            failed.push(replica.target().clone());
            last_err = result.err().map(CoreError::from);
            if attempt < max_attempts {
                self.sleep_backoff(&mut backoff, overall);
            }
        }
        Err(last_err.unwrap_or_else(|| self.no_admissible_target()))
    }

    fn no_admissible_target(&self) -> CoreError {
        CoreError::Unbound(format!(
            "no admissible target for `{}`",
            self.inner.service_type
        ))
    }

    /// The one pick step of every invocation. `failed` lists the
    /// targets that failed earlier in this invocation. `None` means
    /// nothing is admissible right now.
    ///
    /// First the breaker-probe scan: a replica whose breaker cool-down
    /// elapsed gets one deliberate probe call (otherwise a drained
    /// replica could never rejoin — `state()` only moves Open→HalfOpen
    /// through `admit`). Then the policy picks among replicas that did
    /// not fail earlier in this invocation, are not dead, and whose
    /// breaker is closed — so breaker-open replicas receive zero policy
    /// picks. With nothing admissible the dead-target TTL is waived (a
    /// dead replica may have healed). With still nothing, the proxy
    /// re-selects once without the failed and refused targets (a
    /// classic proxy's failover) and tries again; as a last resort
    /// `failed` is cleared for a fresh round, so a lone failed target
    /// is retried.
    ///
    /// Every check reads the health record the replica holds, and the
    /// scan and the policy read the set in place: a warm pick looks
    /// nothing up and copies no replica list.
    fn pick(
        &self,
        affinity: Option<u64>,
        failed: &mut Vec<ObjRef>,
    ) -> Result<Option<Arc<Replica>>> {
        let set = &self.inner.set;
        let mut reselected = false;
        loop {
            if set.health().any_open() {
                let probe = set.with_replicas(|replicas| {
                    replicas
                        .iter()
                        .find(|r| {
                            !failed.contains(r.target())
                                && r.health.state() != BreakerState::Closed
                                && !r.health.is_dead()
                                && r.health.admit() == Admission::Probe
                        })
                        .cloned()
                });
                if let Some(r) = probe {
                    set.record_pick(&r);
                    return Ok(Some(r));
                }
            }
            let usable = |r: &Replica, honour_ttl: bool| {
                !failed.contains(r.target())
                    && r.health.state() == BreakerState::Closed
                    && !(honour_ttl && r.health.is_dead())
            };
            let picked = set
                .pick_where(affinity, |r| usable(r, true))
                .or_else(|| set.pick_where(affinity, |r| usable(r, false)));
            if picked.is_some() {
                return Ok(picked);
            }
            if !reselected {
                reselected = true;
                self.select(&set.query().constraint, true, failed)?;
                continue;
            }
            if failed.is_empty() {
                return Ok(None);
            }
            failed.clear();
        }
    }

    /// Sleeps the next backoff delay, clipped to the remaining overall
    /// deadline budget (so a retried call can never overshoot it).
    fn sleep_backoff(
        &self,
        backoff: &mut crate::resilience::Backoff,
        overall: Option<(Duration, Instant)>,
    ) {
        let mut delay = backoff.next_delay();
        if let Some((_, end)) = overall {
            delay = delay.min(end.saturating_duration_since(Instant::now()));
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// One two-way invocation with this proxy's per-call deadline (if
    /// configured): a hung server fails fast and triggers failover. The
    /// transport deadline is the *remaining* overall budget, so retries
    /// honor the invocation's `call_deadline` instead of resetting it
    /// per attempt.
    fn invoke_transport(
        &self,
        target: &ObjRef,
        op: &str,
        args: &[Value],
        overall: Option<(Duration, Instant)>,
    ) -> OrbResult<Value> {
        let opts = match overall {
            Some((budget, end)) => {
                let remaining = end.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(OrbError::DeadlineExpired { after: budget });
                }
                InvokeOptions::new().deadline(remaining)
            }
            None => InvokeOptions::default(),
        };
        self.inner.orb.invoke_ref_with(target, op, args, opts)
    }

    /// Invokes a oneway operation on the represented service, through
    /// the same pick step as [`invoke`](Self::invoke). A failed send is
    /// recorded in the target's health but never retried: the proxy
    /// cannot tell whether it was delivered.
    ///
    /// # Errors
    ///
    /// As [`invoke`](Self::invoke), without failover retry semantics
    /// beyond selection.
    pub fn invoke_oneway(&self, op: &str, args: Vec<Value>) -> Result<()> {
        self.inner.invocations.fetch_add(1, Ordering::Relaxed);
        self.handle_pending_events();
        let replica = self
            .pick(None, &mut Vec::new())?
            .ok_or_else(|| self.no_admissible_target())?;
        let result = self.inner.orb.invoke_oneway_ref(replica.target(), op, args);
        let retryable = matches!(&result, Err(e) if e.is_retryable());
        replica.health.record(!retryable);
        Ok(result?)
    }
}

// ---- script facade ---------------------------------------------------------

/// Builds the persistent script facade table for a proxy. The table is
/// stored in the proxy's own isolate, so its natives hold the proxy
/// weakly: a strong handle would keep the proxy and its isolate alive
/// forever.
fn build_facade(proxy: &SmartProxy) -> Stored {
    let weak = Arc::downgrade(&proxy.inner);
    let live = move || weak.upgrade().map(|inner| SmartProxy { inner });
    let table = adapta_script::Value::table();
    if let Some(t) = table.as_table() {
        // _select(self, query) -> bool and _reselect(self) -> bool (the
        // primary constraint). Rebinding changes the monitors, so both
        // refresh the facade the strategy is holding.
        type Rebind = fn(&SmartProxy, &[adapta_script::Value]) -> Result<bool>;
        let rebinds: [(&str, Rebind); 2] = [
            ("_select", |p, args| {
                let query = args.get(1).and_then(|v| v.as_str()).unwrap_or_default();
                p.select_with(query, false)
            }),
            ("_reselect", |p, _| p.reselect()),
        ];
        for (name, rebind) in rebinds {
            let live = live.clone();
            t.borrow_mut().set_str(
                name,
                adapta_script::Interpreter::native(name, move |_, args| {
                    let Some(p) = live() else {
                        return Ok(vec![adapta_script::Value::Bool(false)]);
                    };
                    let ok = rebind(&p, &args).unwrap_or(false);
                    if let (true, Some(self_table)) = (ok, args.first()) {
                        refresh_facade(&p, self_table);
                    }
                    Ok(vec![adapta_script::Value::Bool(ok)])
                }),
            );
        }
        // _set_policy(self, name) -> bool — runtime policy swap from Rua
        // strategies (Figure-7 style adaptation code can re-route
        // traffic, not just re-bind).
        let p = live.clone();
        t.borrow_mut().set_str(
            "_set_policy",
            adapta_script::Interpreter::native("_set_policy", move |_, args| {
                let name = args.get(1).and_then(|v| v.as_str()).unwrap_or_default();
                Ok(vec![adapta_script::Value::Bool(
                    p().is_some_and(|p| p.set_balancer_policy(name)),
                )])
            }),
        );
        // _policy(self) -> string — the current routing policy.
        t.borrow_mut().set_str(
            "_policy",
            adapta_script::Interpreter::native("_policy", move |_, _| {
                let name = live().map(|p| p.inner.set.policy_name());
                Ok(vec![name.map_or(
                    adapta_script::Value::Nil,
                    adapta_script::Value::str,
                )])
            }),
        );
        t.borrow_mut().set_str(
            "_observer",
            adapta_bridge::from_wire(&Value::ObjRef(proxy.observer_ref())),
        );
        t.borrow_mut().set_str(
            "_service_type",
            adapta_script::Value::str(proxy.service_type()),
        );
    }
    refresh_facade(proxy, &table);
    Stored::new(table)
}

/// Updates the binding-dependent facade fields: `_target`, `_monitors`
/// (property name → monitor proxy table) and `_loadavgmon` (the
/// `LoadAvg` monitor, so Figure 7 runs verbatim).
fn refresh_facade(proxy: &SmartProxy, facade: &adapta_script::Value) {
    let Some(t) = facade.as_table() else { return };
    let Some(offer) = proxy.current_offer() else {
        return;
    };
    t.borrow_mut()
        .set_str("_target", adapta_script::Value::str(offer.target.to_uri()));
    let monitors = adapta_script::Value::table();
    if let Some(mt) = monitors.as_table() {
        for (name, monitor_ref) in &offer.dynamic {
            let table = monitor_table(proxy, monitor_ref);
            mt.borrow_mut().set_str(name, table.clone());
            if name == "LoadAvg" {
                t.borrow_mut().set_str("_loadavgmon", table);
            }
        }
    }
    t.borrow_mut().set_str("_monitors", monitors);
}

/// Monitor proxy tables a strategy facade keeps at most.
const MONITOR_TABLES: usize = 16;

/// The proxy table of `monitor` for the strategy facade. The tables of
/// the [`MONITOR_TABLES`] monitors used last are kept in the proxy's
/// isolate, out of reach of scripts, so a refresh reuses them instead
/// of building them again (a strategy run refreshes twice: before it
/// runs, and after its `_select` rebinds). Runs in the isolate's job.
/// Its `attachEventObserver` takes the proxy's observer and source code
/// only, and attaches for the first replica backed by `monitor`; with no
/// such replica it returns `nil`, so no attach outlives the set.
fn monitor_table(proxy: &SmartProxy, monitor: &ObjRef) -> adapta_script::Value {
    let mut tables = proxy.inner.monitor_tables.lock();
    if let Some(at) = tables.iter().position(|(r, _)| r == monitor) {
        let entry = tables.remove(at).expect("a found position");
        let table = entry.1.get();
        tables.push_back(entry);
        return table;
    }
    let table = script_env::proxy_table(&proxy.inner.orb, &proxy.inner.repo, monitor);
    if let Some(t) = table.as_table() {
        let weak = Arc::downgrade(&proxy.inner);
        let monitor = monitor.clone();
        let attach = move |args: &[adapta_script::Value]| -> Option<i64> {
            let inner = weak.upgrade()?;
            if adapta_bridge::to_wire(args.get(1)?).as_objref() != inner.observer_ref.get() {
                return None;
            }
            let (event, predicate) = (args.get(2)?.as_str()?, args.get(3)?.as_str()?);
            inner.attach_backed(&monitor, event, predicate)
        };
        t.borrow_mut().set_str(
            "attachEventObserver",
            adapta_script::Interpreter::native("attachEventObserver", move |_, args| {
                let id = attach(&args).map(|id| adapta_script::Value::Num(id as f64));
                Ok(vec![id.unwrap_or(adapta_script::Value::Nil)])
            }),
        );
    }
    if tables.len() >= MONITOR_TABLES {
        tables.pop_front();
    }
    tables.push_back((monitor.clone(), Stored::new(table.clone())));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_idl::TypeCode;
    use adapta_trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

    #[test]
    fn evicted_replicas_leave_the_health_table() {
        let orb = Orb::new("sp-evict");
        let trader = Trader::new(&orb);
        trader.add_type(ServiceTypeDef::new("EvictSvc")).unwrap();
        let live = orb
            .activate(
                "svc",
                ServantFn::new("EvictSvc", |_, _| Ok(Value::from("pong"))),
            )
            .unwrap();
        trader
            .export(ExportRequest::new("EvictSvc", live.clone()))
            .unwrap();
        // A crashed server's stale offer: nothing listens on port 9.
        let dead = ObjRef::new("tcp://127.0.0.1:9", "svc", "EvictSvc");
        let dead_offer = trader
            .export(ExportRequest::new("EvictSvc", dead.clone()))
            .unwrap();
        let proxy = SmartProxy::builder(
            &orb,
            &InterfaceRepository::new(),
            Arc::new(trader.clone()),
            "EvictSvc",
        )
        .balanced("round_robin")
        .balancer_refresh(Duration::from_secs(3600))
        .circuit_breaker(BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(120),
        })
        .build()
        .unwrap();
        for _ in 0..4 {
            proxy.invoke("ping", vec![]).unwrap();
        }
        let health = proxy.inner.set.health();
        assert_eq!(proxy.breaker_state(&dead), Some(BreakerState::Open));
        assert!(health.get(&dead).is_some() && health.get(&live).is_some());

        trader.withdraw(&dead_offer).unwrap();
        assert!(proxy.reselect().unwrap());
        assert_eq!(proxy.balancer().unwrap().len(), 1);
        assert!(health.get(&dead).is_none() && health.get(&live).is_some());
        assert_eq!(proxy.breaker_state(&dead), Some(BreakerState::Closed));
        assert_eq!(proxy.breaker_state(&live), Some(BreakerState::Closed));
    }

    /// Under the `bound` policy a failover evicts the failed target's
    /// replica, but its stale offer is still matched: the target keeps
    /// its record, dead for the TTL and then refused by its open
    /// breaker. Once the offer is withdrawn, the record goes.
    #[test]
    fn a_bound_failover_keeps_the_failed_targets_record_while_it_is_offered() {
        let orb = Orb::new("sp-bound-failover");
        let trader = Trader::new(&orb);
        trader
            .add_type(
                ServiceTypeDef::new("BoundFailSvc").with_property(PropDef::new(
                    "LoadAvg",
                    TypeCode::Double,
                    PropMode::Mandatory,
                )),
            )
            .unwrap();
        let live = orb
            .activate(
                "svc",
                ServantFn::new("BoundFailSvc", |_, _| Ok(Value::from("pong"))),
            )
            .unwrap();
        // A crashed server's stale offer, preferred: nothing listens on
        // port 9.
        let dead = ObjRef::new("tcp://127.0.0.1:9", "svc", "BoundFailSvc");
        let export = |target: &ObjRef, load: f64| {
            trader
                .export(
                    ExportRequest::new("BoundFailSvc", target.clone())
                        .with_property("LoadAvg", Value::from(load)),
                )
                .unwrap()
        };
        let dead_offer = export(&dead, 0.0);
        export(&live, 1.0);
        let ttl = Duration::from_millis(300);
        let proxy = SmartProxy::builder(
            &orb,
            &InterfaceRepository::new(),
            Arc::new(trader.clone()),
            "BoundFailSvc",
        )
        .preference("min LoadAvg")
        .dead_target_ttl(ttl)
        .circuit_breaker(BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(120),
        })
        .build()
        .unwrap();
        assert_eq!(proxy.current_target(), Some(dead.clone()));

        proxy.invoke("ping", vec![]).unwrap();
        assert_eq!(proxy.current_target(), Some(live.clone()));
        assert_eq!(proxy.balancer().unwrap().len(), 1);
        let record = proxy.balancer().unwrap().health().get(&dead).unwrap();
        assert!(record.is_dead());
        assert!(record.refuses());

        // Within the TTL the stale offer is skipped as dead.
        assert!(proxy.reselect().unwrap());
        assert_eq!(proxy.current_target(), Some(live.clone()));
        assert_eq!(proxy.repicks_avoided(), 1);
        // Past the TTL its open breaker still refuses it.
        std::thread::sleep(ttl + Duration::from_millis(50));
        assert!(!record.is_dead());
        assert!(proxy.reselect().unwrap());
        assert_eq!(proxy.current_target(), Some(live.clone()));
        assert_eq!(proxy.breaker_state(&dead), Some(BreakerState::Open));

        trader.withdraw(&dead_offer).unwrap();
        assert!(proxy.reselect().unwrap());
        assert!(proxy.balancer().unwrap().health().get(&dead).is_none());
        assert_eq!(proxy.breaker_state(&dead), Some(BreakerState::Closed));
        assert_eq!(proxy.current_target(), Some(live));
    }

    /// An attach for a replica that a selection evicted while it ran is
    /// cancelled: the monitor keeps nothing for a replica the set no
    /// longer holds.
    #[test]
    fn an_attach_for_an_evicted_replica_is_cancelled() {
        let orb = Orb::new("sp-evicted-attach");
        let trader = Trader::new(&orb);
        trader
            .add_type(ServiceTypeDef::new("AttachSvc").with_property(PropDef::new(
                "LoadAvg",
                TypeCode::Double,
                PropMode::Normal,
            )))
            .unwrap();
        let isolate = adapta_bridge::Isolate::new("sp-evicted-attach", |_| {});
        let monitor = adapta_monitor::Monitor::builder("LoadAvg")
            .initial(Value::from(1.0))
            .build(&isolate, &orb)
            .unwrap();
        let servant = adapta_monitor::MonitorServant::new(monitor.clone());
        let monitor_ref = orb.activate("mon", servant).unwrap();
        let target = ObjRef::new(orb.endpoint(), "svc", "AttachSvc");
        let export = || {
            let request = ExportRequest::new("AttachSvc", target.clone())
                .with_dynamic_property("LoadAvg", monitor_ref.clone());
            trader.export(request).unwrap()
        };
        let first = export();
        let proxy = SmartProxy::builder(
            &orb,
            &InterfaceRepository::new(),
            Arc::new(trader.clone()),
            "AttachSvc",
        )
        .build()
        .unwrap();
        let evicted = proxy.inner.set.replicas()[0].clone();
        trader.withdraw(&first).unwrap();
        export();
        assert!(proxy.reselect().unwrap());

        let code = "function(o, v, m) return false end";
        assert_eq!(proxy.inner.attach(&evicted, &monitor_ref, "E", code), None);
        assert_eq!(monitor.observer_count(), 0);
        assert!(evicted.registrations.lock().is_empty());
        assert!(proxy.inner.attach_backed(&monitor_ref, "E", code).is_some());
        assert_eq!(monitor.observer_count(), 1);
    }

    /// A proxy that rebinds across 100 offers, each behind a monitor of
    /// its own, keeps at most `MONITOR_TABLES` monitor proxy tables,
    /// and its isolate's stored values stay bounded with them.
    #[test]
    fn rebinding_across_many_monitors_keeps_a_bounded_facade_cache() {
        let orb = Orb::new("sp-facade-cache");
        let trader = Trader::new(&orb);
        trader
            .add_type(ServiceTypeDef::new("FacadeSvc").with_property(PropDef::new(
                "LoadAvg",
                TypeCode::Double,
                PropMode::Normal,
            )))
            .unwrap();
        let target = ObjRef::new("inproc://sp-facade-cache-server", "svc", "FacadeSvc");
        let proxy = SmartProxy::builder(
            &orb,
            &InterfaceRepository::new(),
            Arc::new(trader.clone()),
            "FacadeSvc",
        )
        .lazy()
        .build()
        .unwrap();
        proxy
            .set_strategy_script("Probe", "function(self) return self._loadavgmon ~= nil end")
            .unwrap();
        let mut offer = None;
        let mut stored = Vec::new();
        for i in 0..100 {
            if let Some(id) = offer.take() {
                trader.withdraw(&id).unwrap();
            }
            // Nothing answers at the monitor: the property resolves to
            // nothing, but the match still names its monitor.
            let monitor = ObjRef::new(
                "inproc://sp-facade-cache-monitors",
                format!("mon-{i}"),
                "Monitor",
            );
            offer = Some(
                trader
                    .export(
                        ExportRequest::new("FacadeSvc", target.clone())
                            .with_dynamic_property("LoadAvg", monitor),
                    )
                    .unwrap(),
            );
            assert!(proxy.reselect().unwrap());
            proxy.adapt_now("Probe");
            stored.push(proxy.actor().stored_count().unwrap());
        }
        assert_eq!(proxy.inner.monitor_tables.lock().len(), MONITOR_TABLES);
        assert_eq!(
            stored[99],
            stored[MONITOR_TABLES + 10],
            "stored values grew: {stored:?}"
        );
    }
}
