//! The replica set: a trader selection materialized as live routing
//! state.
//!
//! A [`ReplicaSet`] takes the matches of each selection and diffs them
//! against its replicas: new matches become [`Replica`]s (keeping the
//! preference order the trader returned), retained matches get their
//! offer snapshot updated *without* losing accumulated stats, and
//! withdrawn/expired matches are evicted. Under a policy that
//! [keeps one](crate::RoutingPolicy::keeps_one) replica, such as
//! [`Bound`](crate::Bound), each selection keeps only its first match,
//! in the replica already held when that is the same offer.
//!
//! Every replica holds the [`TargetHealth`] record of its target, from
//! the set's [`HealthTable`]. A background refresher re-selects on a
//! jittered interval, seeded per set, so the set tracks the trader
//! without synchronized polling stampedes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use adapta_idl::Value;
use adapta_orb::ObjRef;
use adapta_sim::Periodic;
use adapta_telemetry::{registry, Counter, Gauge};
use adapta_trading::{OfferMatch, Query, TradingService};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::health::{BreakerConfig, HealthTable, TargetHealth};
use crate::policy::{policy_named, RoundRobin, RoutingPolicy};
use crate::stats::ReplicaStats;

/// One live replica: the offer snapshot, runtime stats and the health
/// of its target.
#[derive(Debug)]
pub struct Replica {
    /// Stable identity across refreshes: offer id + target URI (the
    /// same pair trading's federation dedups on). Computed when first
    /// read: a set that keeps one replica never diffs by it.
    key: OnceLock<String>,
    target: ObjRef,
    offer: Mutex<OfferMatch>,
    stats: ReplicaStats,
    /// The health record of the target, shared with every other replica
    /// of that target in the set.
    pub health: Arc<TargetHealth>,
    /// The `(monitor, observer id)` registrations the set's owner made
    /// for the replica, to cancel when it leaves the set.
    pub registrations: Mutex<Vec<(ObjRef, i64)>>,
}

impl Replica {
    /// Builds a replica from raw parts (tests, custom sets), with a
    /// health record of its own that has no breaker and no dead-target
    /// TTL.
    pub fn from_parts(
        offer_id: impl Into<String>,
        target: ObjRef,
        properties: Vec<(String, Value)>,
        dynamic: Vec<(String, ObjRef)>,
    ) -> Replica {
        let offer = OfferMatch {
            id: adapta_trading::OfferId::from_string(offer_id),
            service_type: target.type_id.clone(),
            target,
            properties,
            dynamic,
        };
        Replica::from_match(None, offer, Arc::new(TargetHealth::inert()))
    }

    fn from_match(key: Option<String>, m: OfferMatch, health: Arc<TargetHealth>) -> Replica {
        Replica {
            key: key.map_or_else(OnceLock::new, OnceLock::from),
            target: m.target.clone(),
            offer: Mutex::new(m),
            stats: ReplicaStats::new(),
            health,
            registrations: Mutex::default(),
        }
    }

    fn match_key(m: &OfferMatch) -> String {
        format!("{}@{}", m.id, m.target.to_uri())
    }

    /// Stable replica identity (offer id + target URI).
    pub fn key(&self) -> &str {
        self.key
            .get_or_init(|| Replica::match_key(&self.offer.lock()))
    }

    /// The replica's object reference (what you invoke).
    pub fn target(&self) -> &ObjRef {
        &self.target
    }

    /// Runtime stats (shared with the routing policy).
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// The offer as of the last selection that matched it: its
    /// properties and the monitors behind its dynamic properties.
    pub fn offer(&self) -> OfferMatch {
        self.offer.lock().clone()
    }

    /// The monitor behind one of the offer's dynamic properties.
    pub fn dynamic_ref(&self, property: &str) -> Option<ObjRef> {
        self.offer.lock().dynamic_ref(property).cloned()
    }

    /// A property of the last-selection snapshot, coerced to f64
    /// (Double or Long).
    pub fn property_f64(&self, name: &str) -> Option<f64> {
        let offer = self.offer.lock();
        let v = offer.prop(name)?;
        v.as_double().or_else(|| v.as_long().map(|l| l as f64))
    }
}

/// What a selection changed: the replicas it added and evicted. The
/// set's owner makes its registrations for the first and cancels those
/// of the second.
#[derive(Debug, Clone)]
pub struct RefreshSummary {
    /// Replicas added this round.
    pub added: Vec<Arc<Replica>>,
    /// Replicas evicted this round.
    pub evicted: Vec<Arc<Replica>>,
    /// Live replicas after the round.
    pub total: usize,
}

struct SetInner {
    service: Arc<dyn TradingService>,
    query: Query,
    /// The replicas and the policy that picks among them, under one
    /// lock, so a pick takes one lock.
    routing: RwLock<Routing>,
    /// The number of replicas, stored under the write lock and read
    /// without it.
    len: AtomicUsize,
    metrics: SetMetrics,
    /// The health record of every target a replica holds or the last
    /// selection offered.
    health: HealthTable,
    refresher: OnceLock<Periodic>,
}

struct Routing {
    replicas: Vec<Arc<Replica>>,
    policy: Box<dyn RoutingPolicy>,
}

/// The set's `balancer.<type>.*` instruments, resolved once when it is
/// built. Per-replica picks are counted in [`ReplicaStats`], not under
/// a name per endpoint: endpoints are chosen by whoever exports offers.
struct SetMetrics {
    picks: Counter,
    refreshes: Counter,
    added: Counter,
    evictions: Counter,
    policy_switches: Counter,
    replicas: Gauge,
}

impl SetMetrics {
    fn for_type(service_type: &str) -> SetMetrics {
        let name = |stat: &str| format!("balancer.{service_type}.{stat}");
        let r = registry();
        SetMetrics {
            picks: r.counter(&name("picks")),
            refreshes: r.counter(&name("refreshes")),
            added: r.counter(&name("added")),
            evictions: r.counter(&name("evictions")),
            policy_switches: r.counter(&name("policy_switches")),
            replicas: r.gauge(&name("replicas")),
        }
    }
}

/// Delays uniform in [0.5, 1.5) × `interval`, from a random seed.
fn jittered(interval: Duration) -> impl FnMut() -> Duration {
    let mut rng = StdRng::from_entropy();
    move || interval.mul_f64(0.5 + rng.gen::<f64>())
}

/// A live, policy-routed view of every offer matching a trader query.
///
/// Cheaply cloneable; all clones share the same replicas, stats, and
/// policy.
#[derive(Clone)]
pub struct ReplicaSet {
    inner: Arc<SetInner>,
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("replicas", &self.len())
            .field("policy", &self.policy_name())
            .finish()
    }
}

impl ReplicaSet {
    /// Creates a set over `query` against `service`, starting empty
    /// with the [`RoundRobin`] policy, no circuit breaker and no
    /// dead-target TTL. Call [`refresh`](Self::refresh) or
    /// [`apply`](Self::apply) to populate it.
    pub fn new(service: Arc<dyn TradingService>, query: Query) -> ReplicaSet {
        let metrics = SetMetrics::for_type(&query.service_type);
        ReplicaSet {
            inner: Arc::new(SetInner {
                service,
                query,
                routing: RwLock::new(Routing {
                    replicas: Vec::new(),
                    policy: Box::new(RoundRobin::new()),
                }),
                len: AtomicUsize::new(0),
                metrics,
                health: HealthTable::default(),
                refresher: OnceLock::new(),
            }),
        }
    }

    /// Construction-time policy selection (unlike
    /// [`set_policy`](Self::set_policy), not counted as a runtime
    /// policy switch). Unknown names keep the default.
    pub fn with_policy_named(self, name: &str) -> ReplicaSet {
        if let Some(p) = policy_named(name) {
            self.inner.routing.write().policy = p;
        }
        self
    }

    /// Construction-time health rules: a target that failed counts as
    /// dead for `dead_ttl`, and with a `breaker` every target's record
    /// is also a circuit breaker, published under
    /// `smartproxy.<type>.breaker.*`.
    ///
    /// # Panics
    ///
    /// When the set was cloned already: the rules are set while it is
    /// built.
    pub fn with_health(mut self, breaker: Option<BreakerConfig>, dead_ttl: Duration) -> ReplicaSet {
        let inner = Arc::get_mut(&mut self.inner).expect("health rules are set while building");
        inner.health = HealthTable::new(breaker, dead_ttl, &inner.query.service_type);
        self
    }

    // ---- lifecycle -------------------------------------------------------

    /// Runs the set's own query and [applies](Self::apply) its matches.
    ///
    /// # Errors
    ///
    /// Whatever the trader query returns; the set is unchanged on
    /// error.
    pub fn refresh(&self) -> adapta_trading::Result<RefreshSummary> {
        Ok(self.apply(self.inner.service.query(&self.inner.query)?))
    }

    /// Makes one selection's `matches` the set's replicas, diffing by
    /// [`Replica::key`]: retained offers get their snapshot refreshed
    /// (stats survive), replicas that no longer match are evicted, and
    /// new matches are appended in the order given. Under a policy that
    /// [keeps one](RoutingPolicy::keeps_one) replica, the set keeps only
    /// the first match: the replica it holds when that is the same
    /// offer, with its snapshot refreshed, else a new one in its place.
    ///
    /// A new replica gets its target's health record, shared with the
    /// set's other replicas of that target. The record of a target that
    /// no replica holds and no match offers is dropped; since every
    /// replica the set keeps is matched, that is every target no match
    /// offers.
    pub fn apply(&self, matches: Vec<OfferMatch>) -> RefreshSummary {
        self.inner.metrics.refreshes.incr();
        let mut added = Vec::new();
        let mut evicted = Vec::new();
        let total = {
            let mut routing = self.inner.routing.write();
            let health = &self.inner.health;
            health.keep_offered(&matches);
            let keeps_one = routing.policy.keeps_one();
            let replicas = &mut routing.replicas;
            let mut add = |replicas: &mut Vec<Arc<Replica>>, key, m: OfferMatch| {
                let record = health.resolve(&m.target);
                let replica = Arc::new(Replica::from_match(key, m, record));
                replicas.push(replica.clone());
                added.push(replica);
            };
            if keeps_one {
                // A keep-one set diffs nothing, so it computes no keys.
                match (replicas.as_slice(), matches.into_iter().next()) {
                    ([r], Some(m)) if r.target == m.target && r.offer.lock().id == m.id => {
                        *r.offer.lock() = m;
                    }
                    (_, first) => {
                        evicted = std::mem::take(replicas);
                        if let Some(m) = first {
                            add(replicas, None, m);
                        }
                    }
                }
            } else {
                let keys: Vec<String> = matches.iter().map(Replica::match_key).collect();
                replicas.retain(|r| {
                    let matched = keys.iter().any(|key| key == r.key());
                    if !matched {
                        evicted.push(r.clone());
                    }
                    matched
                });
                for (key, m) in keys.into_iter().zip(matches) {
                    match replicas.iter().find(|r| r.key() == key) {
                        Some(r) => *r.offer.lock() = m,
                        None => add(replicas, Some(key), m),
                    }
                }
            }
            self.inner.len.store(replicas.len(), Ordering::Relaxed);
            replicas.len()
        };
        let metrics = &self.inner.metrics;
        metrics.added.add(added.len() as u64);
        metrics.evictions.add(evicted.len() as u64);
        metrics.replicas.set(total as i64);
        RefreshSummary {
            added,
            evicted,
            total,
        }
    }

    /// Starts a background [`Periodic`] job that calls `refresh` with the
    /// set roughly every `interval`, jittered ±50% from a seed of its own
    /// so sets don't refresh in phase. Its thread ends as soon as the last
    /// `ReplicaSet` clone drops; starting twice is a no-op.
    pub fn start_refresher(
        &self,
        interval: Duration,
        refresh: impl Fn(&ReplicaSet) + Send + 'static,
    ) {
        self.inner.refresher.get_or_init(|| {
            let weak = Arc::downgrade(&self.inner);
            let mut delay = jittered(interval);
            let name = format!("balancer.{}-refresher", self.query().service_type);
            Periodic::start(name, delay(), move || {
                let inner = weak.upgrade()?;
                refresh(&ReplicaSet { inner });
                Some(delay())
            })
        });
    }

    // ---- routing ---------------------------------------------------------

    /// Picks a replica with the current policy. `key` is the optional
    /// affinity key (see [`ConsistentHash`](crate::ConsistentHash)).
    pub fn pick(&self, key: Option<u64>) -> Option<Arc<Replica>> {
        self.pick_where(key, |_| true)
    }

    /// Picks a replica among those passing `filter` — callers exclude
    /// breaker-open and known-dead targets here, so the policy only
    /// ever sees admissible candidates. The policy reads the set in
    /// place; a list is built only when `filter` rejects a replica.
    pub fn pick_where(
        &self,
        key: Option<u64>,
        filter: impl Fn(&Replica) -> bool,
    ) -> Option<Arc<Replica>> {
        let picked = {
            let routing = self.inner.routing.read();
            let (replicas, policy) = (&routing.replicas, &routing.policy);
            match replicas.iter().position(|r| !filter(r)) {
                None => replicas.get(policy.pick(replicas, key)?)?.clone(),
                Some(rejected) => {
                    let candidates: Vec<Arc<Replica>> = replicas[..rejected]
                        .iter()
                        .chain(replicas[rejected + 1..].iter().filter(|r| filter(r)))
                        .cloned()
                        .collect();
                    candidates.get(policy.pick(&candidates, key)?)?.clone()
                }
            }
        };
        self.record_pick(&picked);
        Some(picked)
    }

    /// Counts a pick of `replica` (its stats and `balancer.<type>.picks`).
    /// [`pick_where`](Self::pick_where) calls this itself;
    /// callers that route around the policy (e.g. a breaker probe to a
    /// cooling-down replica) use it to keep the books straight.
    pub fn record_pick(&self, replica: &Arc<Replica>) {
        replica.stats().on_pick();
        self.inner.metrics.picks.incr();
    }

    // ---- policy ----------------------------------------------------------

    /// Swaps the routing policy. In-flight calls are untouched: they
    /// already hold their replica, and stats/replicas are shared by
    /// every policy.
    pub fn set_policy(&self, policy: Box<dyn RoutingPolicy>) {
        self.inner.routing.write().policy = policy;
        self.inner.metrics.policy_switches.incr();
    }

    /// Swaps the policy by name (see
    /// [`policy_named`](crate::policy_named)); `false` if the name is
    /// unknown (the current policy stays).
    pub fn set_policy_named(&self, name: &str) -> bool {
        match policy_named(name) {
            Some(p) => {
                self.set_policy(p);
                true
            }
            None => false,
        }
    }

    /// The current policy's name.
    pub fn policy_name(&self) -> String {
        self.inner.routing.read().policy.name().to_string()
    }

    /// Whether the current policy [keeps one](RoutingPolicy::keeps_one)
    /// replica.
    pub fn keeps_one(&self) -> bool {
        self.inner.routing.read().policy.keeps_one()
    }

    // ---- introspection ---------------------------------------------------

    /// Snapshot of the live replicas.
    pub fn replicas(&self) -> Vec<Arc<Replica>> {
        self.inner.routing.read().replicas.clone()
    }

    /// Runs `f` over the live replicas in place, under the set's read
    /// lock: `f` must not call back into the set, and a refresh waits
    /// until it returns.
    pub fn with_replicas<R>(&self, f: impl FnOnce(&[Arc<Replica>]) -> R) -> R {
        f(&self.inner.routing.read().replicas)
    }

    /// Number of live replicas. One load: a selection that runs
    /// concurrently may not show yet.
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Relaxed)
    }

    /// True when no replica matched (yet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The query this set materializes.
    pub fn query(&self) -> &Query {
        &self.inner.query
    }

    /// The health records of the set's targets.
    pub fn health(&self) -> &HealthTable {
        &self.inner.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BreakerState;
    use adapta_idl::TypeCode;
    use adapta_orb::Orb;
    use adapta_trading::{
        ExportRequest, PropDef, PropMode, RemoteTrader, ServiceTypeDef, Trader, TraderServant,
    };

    fn setup() -> (Trader, ReplicaSet) {
        let orb = Orb::new("t-replicaset");
        let trader = Trader::new(&orb);
        trader
            .add_type(ServiceTypeDef::new("Hello").with_property(PropDef::new(
                "LoadAvg",
                TypeCode::Double,
                PropMode::Mandatory,
            )))
            .unwrap();
        let set = ReplicaSet::new(
            Arc::new(trader.clone()),
            Query::new("Hello").preference("min LoadAvg"),
        );
        (trader, set)
    }

    fn export(trader: &Trader, node: &str, load: f64) -> adapta_trading::OfferId {
        trader
            .export(
                ExportRequest::new(
                    "Hello",
                    ObjRef::new(format!("inproc://{node}"), "svc", "Hello"),
                )
                .with_property("LoadAvg", Value::from(load)),
            )
            .unwrap()
    }

    #[test]
    fn refresh_applies_deltas_and_keeps_stats() {
        let (trader, set) = setup();
        let a = export(&trader, "a", 1.0);
        export(&trader, "b", 2.0);
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (2, 0, 2));

        // Accumulate stats on a replica, then refresh: stats survive.
        let r = set.pick(None).unwrap();
        r.stats().on_start();
        r.stats().on_complete(Duration::from_millis(3), true);
        let key = r.key().to_string();
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (0, 0, 2));
        let replicas = set.replicas();
        let same = replicas.iter().find(|r| r.key() == key).unwrap();
        assert_eq!(same.stats().completed(), 1);

        trader.withdraw(&a).unwrap();
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (0, 1, 1));
    }

    #[test]
    fn failed_refresh_leaves_the_set_unchanged() {
        let orb = Orb::new("t-replicaset-remote");
        let (trader, _) = setup();
        let objref = orb
            .activate("trader", TraderServant::new(trader.clone()))
            .unwrap();
        let remote = RemoteTrader::new(orb.proxy(&objref));
        let set = ReplicaSet::new(Arc::new(remote), Query::new("Hello"));
        export(&trader, "a", 1.0);
        export(&trader, "b", 2.0);
        set.refresh().unwrap();
        let before = set.replicas();

        // With the trader gone, the query fails and nothing changes.
        assert!(orb.deactivate("trader"));
        assert!(set.refresh().is_err());
        let after = set.replicas();
        assert_eq!(after.len(), 2);
        assert!(before.iter().zip(&after).all(|(b, a)| Arc::ptr_eq(b, a)));

        // The next successful refresh diffs against the same replicas.
        orb.activate("trader", TraderServant::new(trader)).unwrap();
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (0, 0, 2));
    }

    #[test]
    fn a_keep_one_policy_keeps_its_replica_for_the_same_offer() {
        let (trader, set) = setup();
        let set = set.with_policy_named("bound");
        let a = export(&trader, "a", 1.0);
        let b = export(&trader, "b", 2.0);
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (1, 0, 1));
        let held = set.pick(None).unwrap();
        assert_eq!(held.target().endpoint, "inproc://a");

        // The same offer again: the replica stays, its snapshot
        // refreshed.
        trader
            .modify(&a, vec![("LoadAvg".into(), Value::from(0.5).into())])
            .unwrap();
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (0, 0, 1));
        assert!(Arc::ptr_eq(&set.pick(None).unwrap(), &held));
        assert_eq!(held.property_f64("LoadAvg"), Some(0.5));

        // Another first match: a new replica takes the old one's place.
        trader
            .modify(&b, vec![("LoadAvg".into(), Value::from(0.1).into())])
            .unwrap();
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (1, 1, 1));
        assert!(Arc::ptr_eq(&s.evicted[0], &held));
        assert_eq!(s.added[0].target().endpoint, "inproc://b");

        // Switched to a spreading policy, the next selection keeps every
        // match.
        assert!(set.set_policy_named("round_robin"));
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (1, 0, 2));
    }

    #[test]
    fn policy_swap_by_name() {
        let (_trader, set) = setup();
        assert_eq!(set.policy_name(), "round_robin");
        assert!(set.set_policy_named("p2c_ewma"));
        assert_eq!(set.policy_name(), "p2c_ewma");
        assert!(!set.set_policy_named("nope"));
        assert_eq!(set.policy_name(), "p2c_ewma");
    }

    #[test]
    fn background_refresher_tracks_the_trader() {
        let (trader, set) = setup();
        let refresh = |set: &ReplicaSet| drop(set.refresh());
        set.start_refresher(Duration::from_millis(20), refresh);
        set.start_refresher(Duration::from_millis(20), refresh); // no-op
        export(&trader, "a", 1.0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while set.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(set.len(), 1, "refresher never picked up the export");
    }

    #[test]
    fn two_refreshers_draw_different_first_delays() {
        let interval = Duration::from_millis(250);
        let (mut a, mut b) = (jittered(interval), jittered(interval));
        let (a, b) = (a(), b());
        assert_ne!(a, b, "two sets would refresh in phase");
        for d in [a, b] {
            assert!(d >= interval / 2 && d < interval * 3 / 2);
        }
    }

    #[test]
    fn pick_where_filters_candidates() {
        let (trader, set) = setup();
        export(&trader, "a", 1.0);
        export(&trader, "b", 2.0);
        set.refresh().unwrap();
        let b_only = set
            .pick_where(None, |r| r.target().endpoint.ends_with("b"))
            .unwrap();
        assert_eq!(b_only.target().endpoint, "inproc://b");
        assert!(set.pick_where(None, |_| false).is_none());
        // Every replica admissible: the policy picks over the set itself.
        let all: Vec<String> = (0..4)
            .map(|_| {
                set.pick_where(None, |_| true)
                    .unwrap()
                    .target()
                    .endpoint
                    .clone()
            })
            .collect();
        assert!(all.iter().any(|e| e == "inproc://a") && all.iter().any(|e| e == "inproc://b"));
    }

    #[test]
    fn two_offers_of_one_target_share_its_health_record() {
        let (trader, set) = setup();
        let set = set.with_health(
            Some(BreakerConfig {
                window: 2,
                min_calls: 2,
                failure_threshold: 0.5,
                open_for: Duration::from_secs(60),
            }),
            Duration::from_secs(5),
        );
        export(&trader, "a", 1.0);
        export(&trader, "a", 2.0);
        export(&trader, "b", 3.0);
        set.refresh().unwrap();
        let replicas = set.replicas();
        assert_eq!(replicas.len(), 3);
        let (first, second, other) = (&replicas[0], &replicas[1], &replicas[2]);
        assert_eq!(first.target(), second.target());
        assert_ne!(first.key(), second.key());
        assert!(Arc::ptr_eq(&first.health, &second.health));
        let record = set.health().get(first.target()).unwrap();
        assert!(Arc::ptr_eq(&first.health, &record));

        // One failure through each offer: the one breaker opens, for
        // both offers, and the other target's stays closed.
        first.health.record(false);
        second.health.record(false);
        assert_eq!(first.health.state(), BreakerState::Open);
        assert_eq!(second.health.state(), BreakerState::Open);
        assert!(first.health.is_dead());
        assert_eq!(other.health.state(), BreakerState::Closed);
        assert!(set.health().any_open());
    }

    /// Without a breaker, and with failures recorded on the way: the set
    /// holds a record only for a target that a replica holds or the last
    /// selection offered, under a keep-one and a spreading policy.
    #[test]
    fn records_follow_the_selection_through_churn() {
        let targets: Vec<ObjRef> = (0..12)
            .map(|n| ObjRef::new(format!("inproc://churn-{n}"), "svc", "Hello"))
            .collect();
        let mut rng = StdRng::seed_from_u64(29);
        for policy in ["bound", "round_robin"] {
            let (_trader, set) = setup();
            let set = set
                .with_policy_named(policy)
                .with_health(None, Duration::from_secs(60));
            for round in 0..200 {
                // Each target is offered with probability 1/3, some of
                // them by two offers.
                let mut matches = Vec::new();
                for (n, target) in targets.iter().enumerate() {
                    let offers = match rng.gen_bool(1.0 / 3.0) {
                        true => 1 + usize::from(rng.gen_bool(0.3)),
                        false => 0,
                    };
                    for offer in 0..offers {
                        matches.push(OfferMatch {
                            id: adapta_trading::OfferId::from_string(format!("offer-{n}-{offer}")),
                            service_type: "Hello".into(),
                            target: target.clone(),
                            properties: vec![],
                            dynamic: vec![],
                        });
                    }
                }
                let offered: Vec<ObjRef> = matches.iter().map(|m| m.target.clone()).collect();
                set.apply(matches);
                for replica in set.replicas() {
                    if rng.gen_bool(0.3) {
                        replica.health.record(false);
                    }
                    let record = set.health().get(replica.target()).unwrap();
                    assert!(
                        Arc::ptr_eq(&replica.health, &record),
                        "{policy} round {round}"
                    );
                }
                for target in &targets {
                    if set.health().get(target).is_some() {
                        assert!(
                            offered.contains(target),
                            "{policy} round {round}: {target:?}"
                        );
                    }
                }
            }
        }
    }
}
