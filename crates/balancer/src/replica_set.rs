//! The replica set: a trader selection materialized as live routing
//! state.
//!
//! A [`ReplicaSet`] takes the matches of each selection and diffs them
//! against its replicas: new matches become [`Replica`]s (keeping the
//! preference order the trader returned), retained matches get their
//! offer snapshot updated *without* losing accumulated stats, and
//! withdrawn/expired matches are evicted. Under a policy that
//! [keeps one](crate::RoutingPolicy::keeps_one) replica, such as
//! [`Bound`](crate::Bound), each selection replaces the replica with its
//! first match instead. A background refresher re-selects on a jittered
//! interval, seeded per set, so the set tracks the trader without
//! synchronized polling stampedes.

use std::any::Any;
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

use crate::policy::{policy_named, RoundRobin, RoutingPolicy};
use crate::stats::ReplicaStats;

/// One live replica: the offer snapshot plus runtime stats.
#[derive(Debug)]
pub struct Replica {
    /// Stable identity across refreshes: offer id + target URI (the
    /// same pair trading's federation dedups on). Computed when first
    /// read: a set that keeps one replica never diffs by it.
    key: OnceLock<String>,
    target: ObjRef,
    offer: Mutex<OfferMatch>,
    stats: ReplicaStats,
    attachment: Attachment,
}

/// What the set's owner attached to a replica (see [`Replica::attach`]).
#[derive(Default)]
struct Attachment(OnceLock<Arc<dyn Any + Send + Sync>>);

impl std::fmt::Debug for Attachment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "Attached"
        } else {
            "None"
        })
    }
}

impl Replica {
    /// Builds a replica from raw parts (tests, custom sets).
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
        Replica::from_match(None, offer)
    }

    fn from_match(key: Option<String>, m: OfferMatch) -> Replica {
        Replica {
            key: key.map_or_else(OnceLock::new, OnceLock::from),
            target: m.target.clone(),
            offer: Mutex::new(m),
            stats: ReplicaStats::new(),
            attachment: Attachment::default(),
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

    /// Attaches the owner's per-replica state, once: a smart proxy
    /// attaches the health record of the replica's target and its
    /// monitor registrations when the replica enters its set, so its
    /// picks read the record without a lookup. `false` when something
    /// is attached already.
    pub fn attach(&self, state: Arc<dyn Any + Send + Sync>) -> bool {
        self.attachment.0.set(state).is_ok()
    }

    /// The state attached with [`attach`](Self::attach), if it is a `T`.
    pub fn attached<T: Any>(&self) -> Option<&T> {
        self.attachment.0.get()?.downcast_ref()
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
/// set's owner attaches its per-replica state to the first and detaches
/// it from the second.
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
    /// with the [`RoundRobin`] policy. Call [`refresh`](Self::refresh)
    /// or [`apply`](Self::apply) to populate it.
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
    /// [keeps one](RoutingPolicy::keeps_one) replica, the set instead
    /// replaces its replica with the first match, so its owner
    /// re-attaches on every selection, even one of the same offer.
    pub fn apply(&self, mut matches: Vec<OfferMatch>) -> RefreshSummary {
        self.inner.metrics.refreshes.incr();
        let keeps_one = self.keeps_one();
        // A keep-one set diffs nothing, so it computes no keys.
        let keys: Vec<String> = match keeps_one {
            true => {
                matches.truncate(1);
                Vec::new()
            }
            false => matches.iter().map(Replica::match_key).collect(),
        };
        let mut added = Vec::new();
        let mut evicted = Vec::new();
        let total = {
            let mut routing = self.inner.routing.write();
            let replicas = &mut routing.replicas;
            if keeps_one {
                evicted = std::mem::take(replicas);
            }
            replicas.retain(|r| {
                let matched = keys.iter().any(|key| key == r.key());
                if !matched {
                    evicted.push(r.clone());
                }
                matched
            });
            let mut keys = keys.into_iter();
            for m in matches {
                let key = keys.next();
                match key
                    .as_deref()
                    .and_then(|key| replicas.iter().find(|r| r.key() == key))
                {
                    Some(r) => *r.offer.lock() = m,
                    None => {
                        let replica = Arc::new(Replica::from_match(key, m));
                        replicas.push(replica.clone());
                        added.push(replica);
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

    /// A live replica by key, if present.
    pub fn replica(&self, key: &str) -> Option<Arc<Replica>> {
        self.inner
            .routing
            .read()
            .replicas
            .iter()
            .find(|r| r.key() == key)
            .cloned()
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let same = set.replica(&key).unwrap();
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
    fn a_keep_one_policy_replaces_its_replica_on_every_selection() {
        let (trader, set) = setup();
        let set = set.with_policy_named("bound");
        export(&trader, "a", 1.0);
        export(&trader, "b", 2.0);
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (1, 0, 1));
        assert_eq!(set.pick(None).unwrap().target().endpoint, "inproc://a");

        // The same offer again: a new replica takes the old one's place.
        let s = set.refresh().unwrap();
        assert_eq!((s.added.len(), s.evicted.len(), s.total), (1, 1, 1));
        assert_eq!(s.added[0].key(), s.evicted[0].key());
        assert!(!Arc::ptr_eq(&s.added[0], &s.evicted[0]));

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
    fn attached_state_is_set_once_and_read_by_type() {
        let r = Replica::from_parts(
            "1",
            ObjRef::new("inproc://a", "svc", "Hello"),
            vec![],
            vec![],
        );
        assert!(r.attached::<u32>().is_none());
        assert!(r.attach(Arc::new(7u32)));
        assert!(!r.attach(Arc::new(8u32)));
        assert_eq!(r.attached::<u32>(), Some(&7));
        assert!(r.attached::<String>().is_none());
    }
}
