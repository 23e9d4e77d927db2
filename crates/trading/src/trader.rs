//! The trader: service-type repository, offer register, importer.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use adapta_idl::Value;
use adapta_orb::{InvokeOptions, ObjRef, Orb};
use adapta_sim::Periodic;
use adapta_telemetry::{registry, Counter, HistogramHandle, Span};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::constraint::{Constraint, PropLookup};
use crate::error::TradingError;
use crate::link::LinkSet;
use crate::offer::{ExportRequest, OfferId, OfferMatch, PropValue, ServiceOffer};
use crate::preference::Preference;
use crate::query::Query;
use crate::service_type::{PropDef, ServiceTypeDef};
use crate::Result;

/// A query times the constraint evaluation of its first candidate and
/// of one in every `EVAL_SAMPLE_EVERY` after it: two clock reads cost
/// about as much as the evaluation they would time.
const EVAL_SAMPLE_EVERY: usize = 64;

/// A liveness lease on an offer: the offer expires `ttl` after export
/// (or after the last renewal) unless the exporter renews it.
struct Lease {
    ttl: Duration,
    expires_at: Instant,
}

/// An offer as the trader tracks it: the public [`ServiceOffer`] plus
/// liveness bookkeeping (lease, quarantine flag).
struct OfferEntry {
    /// Shared so a query can snapshot an offer with dynamic properties
    /// and resolve it after releasing the offers lock.
    offer: Arc<ServiceOffer>,
    lease: Option<Lease>,
    quarantined: bool,
}

impl OfferEntry {
    fn expired(&self, now: Instant) -> bool {
        self.lease.as_ref().is_some_and(|l| now >= l.expires_at)
    }

    /// True if the offer may be returned to importers.
    fn visible(&self, now: Instant) -> bool {
        !self.quarantined && !self.expired(now)
    }
}

/// The query path's telemetry, resolved once per trader.
struct QueryMetrics {
    /// `trading.queries`.
    queries: Counter,
    /// `trading.offers_considered`.
    offers_considered: Counter,
    /// `trading.constraint_eval` (sampled, see [`EVAL_SAMPLE_EVERY`]).
    constraint_eval: HistogramHandle,
    /// `trading.dynamic_evals`.
    dynamic_evals: Counter,
    /// `trading.dynamic_eval_round_trip`.
    dynamic_eval_round_trip: HistogramHandle,
}

impl QueryMetrics {
    fn new() -> QueryMetrics {
        let r = registry();
        QueryMetrics {
            queries: r.counter("trading.queries"),
            offers_considered: r.counter("trading.offers_considered"),
            constraint_eval: r.histogram("trading.constraint_eval"),
            dynamic_evals: r.counter("trading.dynamic_evals"),
            dynamic_eval_round_trip: r.histogram("trading.dynamic_eval_round_trip"),
        }
    }
}

struct TraderInner {
    orb: Orb,
    types: RwLock<HashMap<String, ServiceTypeDef>>,
    offers: RwLock<BTreeMap<u64, OfferEntry>>,
    next_offer: AtomicU64,
    links: LinkSet,
    rng: Mutex<StdRng>,
    queries: AtomicU64,
    sweeper: OnceLock<Periodic>,
    metrics: QueryMetrics,
}

/// An offer's static properties, read where the trader stores them.
/// Dynamic properties are absent, as they are from a query that does
/// not evaluate them.
struct StaticProps<'a>(&'a [(String, PropValue)]);

impl PropLookup for StaticProps<'_> {
    fn prop(&self, name: &str) -> Option<&Value> {
        self.0.iter().find_map(|(k, v)| match v {
            PropValue::Static(v) if k == name => Some(v),
            _ => None,
        })
    }
}

/// A candidate that survived the scan under the offers lock.
enum Candidate {
    /// Judged in place and matched.
    Matched(OfferMatch),
    /// Has dynamic properties to evaluate first; the position is the
    /// candidate's place in the scan (for eval-timing samples).
    Unresolved(usize, Arc<ServiceOffer>),
}

/// True if `sub` equals `base` or transitively extends it.
fn extends(types: &HashMap<String, ServiceTypeDef>, sub: &str, base: &str) -> bool {
    let mut current = sub;
    loop {
        if current == base {
            return true;
        }
        match types.get(current).and_then(|def| def.base.as_deref()) {
            Some(b) => current = b,
            None => return false,
        }
    }
}

/// Builds the match for `offer`: its static properties in offer order,
/// each dynamic property's value from `eval` in its place, and every
/// dynamic property's eval ref. A dynamic property for which `eval`
/// yields `None` is absent from the match (the OMG rule for one that
/// fails to evaluate, and what a query without dynamic evaluation
/// sees).
fn materialize(
    offer: &ServiceOffer,
    mut eval: impl FnMut(&str, &ObjRef) -> Option<Value>,
) -> OfferMatch {
    let mut properties = Vec::with_capacity(offer.properties.len());
    let mut dynamic = Vec::new();
    for (name, value) in &offer.properties {
        match value {
            PropValue::Static(v) => properties.push((name.clone(), v.clone())),
            PropValue::Dynamic(eval_ref) => {
                dynamic.push((name.clone(), eval_ref.clone()));
                if let Some(v) = eval(name, eval_ref) {
                    properties.push((name.clone(), v));
                }
            }
        }
    }
    OfferMatch {
        id: offer.id.clone(),
        service_type: offer.service_type.clone(),
        target: offer.target.clone(),
        properties,
        dynamic,
    }
}

/// The trading service.
///
/// A `Trader` is a cheaply-cloneable handle; expose it to other
/// processes by activating a
/// [`TraderServant`](crate::TraderServant) on an orb.
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone)]
pub struct Trader {
    inner: Arc<TraderInner>,
}

impl std::fmt::Debug for Trader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trader")
            .field("types", &self.inner.types.read().len())
            .field("offers", &self.inner.offers.read().len())
            .finish()
    }
}

impl Trader {
    /// Creates a trader that evaluates dynamic properties and follows
    /// federation links through `orb`.
    pub fn new(orb: &Orb) -> Trader {
        Trader {
            inner: Arc::new(TraderInner {
                orb: orb.clone(),
                types: RwLock::new(HashMap::new()),
                offers: RwLock::new(BTreeMap::new()),
                next_offer: AtomicU64::new(1),
                links: LinkSet::default(),
                rng: Mutex::new(StdRng::seed_from_u64(0x7261_6465)),
                queries: AtomicU64::new(0),
                sweeper: OnceLock::new(),
                metrics: QueryMetrics::new(),
            }),
        }
    }

    /// Reseeds the RNG behind the `random` preference (tests).
    pub fn reseed(&self, seed: u64) {
        *self.inner.rng.lock() = StdRng::seed_from_u64(seed);
    }

    /// Number of import queries served so far (experiment counter).
    pub fn query_count(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    // ---- service types -------------------------------------------------

    /// Registers a service type.
    ///
    /// # Errors
    ///
    /// [`TradingError::DuplicateServiceType`] or an unknown base type.
    pub fn add_type(&self, def: ServiceTypeDef) -> Result<()> {
        let mut types = self.inner.types.write();
        if types.contains_key(&def.name) {
            return Err(TradingError::DuplicateServiceType(def.name));
        }
        if let Some(base) = &def.base {
            if !types.contains_key(base) {
                return Err(TradingError::UnknownServiceType(base.clone()));
            }
        }
        types.insert(def.name.clone(), def);
        Ok(())
    }

    /// The registered type names (sorted).
    pub fn type_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.inner.types.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Looks up a type definition.
    pub fn describe_type(&self, name: &str) -> Option<ServiceTypeDef> {
        self.inner.types.read().get(name).cloned()
    }

    /// True if `sub` equals `base` or transitively extends it.
    pub fn is_subtype(&self, sub: &str, base: &str) -> bool {
        sub == base || extends(&self.inner.types.read(), sub, base)
    }

    /// The service types `q` accepts: its own and, unless it asks for an
    /// exact type match, every registered type that extends it.
    fn accepted_types(&self, q: &Query) -> Result<Vec<String>> {
        let types = self.inner.types.read();
        if !types.contains_key(&q.service_type) {
            registry().counter("trading.query_errors").incr();
            return Err(TradingError::UnknownServiceType(q.service_type.clone()));
        }
        if q.policies.exact_type_match {
            return Ok(vec![q.service_type.clone()]);
        }
        Ok(types
            .keys()
            .filter(|name| extends(&types, name, &q.service_type))
            .cloned()
            .collect())
    }

    /// Finds a property definition on `service_type` or its bases.
    fn find_prop(&self, service_type: &str, prop: &str) -> Option<PropDef> {
        let types = self.inner.types.read();
        let mut current = service_type;
        loop {
            let def = types.get(current)?;
            if let Some(p) = def.property(prop) {
                return Some(p.clone());
            }
            current = def.base.as_deref()?;
        }
    }

    /// All property definitions visible on a type (own + inherited).
    fn all_props(&self, service_type: &str) -> Vec<PropDef> {
        let types = self.inner.types.read();
        let mut out = Vec::new();
        let mut current = Some(service_type.to_owned());
        while let Some(name) = current {
            let Some(def) = types.get(&name) else { break };
            out.extend(def.properties.iter().cloned());
            current = def.base.clone();
        }
        out
    }

    // ---- register (export side) -----------------------------------------

    /// Exports an offer.
    ///
    /// # Errors
    ///
    /// Unknown type, undeclared or ill-typed properties, or missing
    /// mandatory properties.
    pub fn export(&self, request: ExportRequest) -> Result<OfferId> {
        self.validate_props(&request.service_type, &request.properties, false)?;
        for def in self.all_props(&request.service_type) {
            if def.mode.is_mandatory() && !request.properties.iter().any(|(n, _)| *n == def.name) {
                return Err(TradingError::MissingMandatoryProperty {
                    service_type: request.service_type.clone(),
                    property: def.name.clone(),
                });
            }
        }
        let n = self.inner.next_offer.fetch_add(1, Ordering::Relaxed);
        let id = OfferId(format!("offer-{n}"));
        let offer = Arc::new(ServiceOffer {
            id: id.clone(),
            service_type: request.service_type,
            target: request.target,
            properties: request.properties,
        });
        let lease = request.lease.map(|ttl| {
            registry().counter("trading.lease.granted").incr();
            Lease {
                ttl,
                expires_at: Instant::now() + ttl,
            }
        });
        self.inner.offers.write().insert(
            n,
            OfferEntry {
                offer,
                lease,
                quarantined: false,
            },
        );
        Ok(id)
    }

    fn validate_props(
        &self,
        service_type: &str,
        props: &[(String, PropValue)],
        modifying: bool,
    ) -> Result<()> {
        if !self.inner.types.read().contains_key(service_type) {
            return Err(TradingError::UnknownServiceType(service_type.to_owned()));
        }
        for (name, value) in props {
            let def = self.find_prop(service_type, name).ok_or_else(|| {
                TradingError::UnknownProperty {
                    service_type: service_type.to_owned(),
                    property: name.clone(),
                }
            })?;
            if modifying && def.mode.is_readonly() {
                return Err(TradingError::ReadonlyProperty(name.clone()));
            }
            if let PropValue::Static(v) = value {
                if !def.type_code.accepts(v) {
                    return Err(TradingError::PropertyTypeMismatch {
                        property: name.clone(),
                        expected: def.type_code.to_string(),
                        found: v.kind().to_owned(),
                    });
                }
            }
        }
        Ok(())
    }

    fn offer_seq(id: &OfferId) -> Option<u64> {
        id.as_str().strip_prefix("offer-")?.parse().ok()
    }

    /// Withdraws an offer.
    ///
    /// # Errors
    ///
    /// [`TradingError::UnknownOffer`].
    pub fn withdraw(&self, id: &OfferId) -> Result<()> {
        let seq = Self::offer_seq(id).ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        self.inner
            .offers
            .write()
            .remove(&seq)
            .map(|_| ())
            .ok_or_else(|| TradingError::UnknownOffer(id.to_string()))
    }

    /// Modifies (adds or replaces) properties of an existing offer.
    ///
    /// # Errors
    ///
    /// Unknown offer, readonly or ill-typed properties.
    pub fn modify(&self, id: &OfferId, props: Vec<(String, PropValue)>) -> Result<()> {
        let seq = Self::offer_seq(id).ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        let mut offers = self.inner.offers.write();
        let entry = offers
            .get_mut(&seq)
            .ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        let service_type = entry.offer.service_type.clone();
        drop(offers);
        self.validate_props(&service_type, &props, true)?;
        let mut offers = self.inner.offers.write();
        let entry = offers
            .get_mut(&seq)
            .ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        let properties = &mut Arc::make_mut(&mut entry.offer).properties;
        for (name, value) in props {
            if let Some(slot) = properties.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = value;
            } else {
                properties.push((name, value));
            }
        }
        Ok(())
    }

    /// Renews an offer's liveness lease and lifts any liveness
    /// quarantine: with `Some(ttl)` the lease is replaced (or created)
    /// with the new TTL; with `None` the existing TTL is extended from
    /// now (a no-op for offers without a lease).
    ///
    /// # Errors
    ///
    /// [`TradingError::UnknownOffer`] — including offers whose expired
    /// lease has already been swept.
    pub fn renew(&self, id: &OfferId, ttl: Option<Duration>) -> Result<()> {
        let seq = Self::offer_seq(id).ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        let mut offers = self.inner.offers.write();
        let entry = offers
            .get_mut(&seq)
            .ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        let now = Instant::now();
        match (ttl, &mut entry.lease) {
            (Some(ttl), lease) => {
                *lease = Some(Lease {
                    ttl,
                    expires_at: now + ttl,
                });
            }
            (None, Some(lease)) => lease.expires_at = now + lease.ttl,
            (None, None) => {}
        }
        entry.quarantined = false;
        registry().counter("trading.lease.renewals").incr();
        Ok(())
    }

    /// Describes a registered offer.
    ///
    /// # Errors
    ///
    /// [`TradingError::UnknownOffer`].
    pub fn describe(&self, id: &OfferId) -> Result<ServiceOffer> {
        let seq = Self::offer_seq(id).ok_or_else(|| TradingError::UnknownOffer(id.to_string()))?;
        self.inner
            .offers
            .read()
            .get(&seq)
            .map(|e| ServiceOffer::clone(&e.offer))
            .ok_or_else(|| TradingError::UnknownOffer(id.to_string()))
    }

    /// All registered offers, in registration order — including leased
    /// and quarantined ones (an administrative view; importers only see
    /// live offers).
    pub fn list_offers(&self) -> Vec<ServiceOffer> {
        self.inner
            .offers
            .read()
            .values()
            .map(|e| ServiceOffer::clone(&e.offer))
            .collect()
    }

    /// Offers currently quarantined by the liveness sweeper.
    pub fn quarantined_offers(&self) -> Vec<OfferId> {
        self.inner
            .offers
            .read()
            .values()
            .filter(|e| e.quarantined)
            .map(|e| e.offer.id.clone())
            .collect()
    }

    // ---- liveness ----------------------------------------------------------

    /// Starts the background liveness sweeper: every `interval` it
    /// drops offers whose lease expired and pings each remaining
    /// exporter (`_non_existent` with `ping_deadline`), quarantining
    /// non-responders and reviving quarantined offers that answer
    /// again. Returns `false` if a sweeper is already running. The
    /// sweeper's thread ends as soon as the last `Trader` clone drops.
    pub fn start_liveness_sweeper(&self, interval: Duration, ping_deadline: Duration) -> bool {
        let mut started = false;
        self.inner.sweeper.get_or_init(|| {
            started = true;
            let weak = Arc::downgrade(&self.inner);
            Periodic::start("trader-liveness", interval, move || {
                let inner = weak.upgrade()?;
                Trader { inner }.sweep_liveness(ping_deadline);
                Some(interval)
            })
        });
        started
    }

    /// Runs one liveness pass synchronously (what the background
    /// sweeper does each interval); deterministic hook for tests and
    /// scripts. Returns the number of offers whose state changed
    /// (expired-and-dropped, quarantined, or revived).
    pub fn sweep_liveness(&self, ping_deadline: Duration) -> usize {
        // Phase 1: drop expired leases.
        let now = Instant::now();
        let mut changed = 0usize;
        {
            let mut offers = self.inner.offers.write();
            let before = offers.len();
            offers.retain(|_, entry| !entry.expired(now));
            let expired = before - offers.len();
            if expired > 0 {
                registry()
                    .counter("trading.lease.expired")
                    .add(expired as u64);
                changed += expired;
            }
        }
        // Phase 2: ping exporters — outside the lock, so slow or hung
        // targets never stall exports and queries.
        let targets: Vec<(u64, ObjRef, bool)> = self
            .inner
            .offers
            .read()
            .iter()
            .map(|(seq, entry)| (*seq, entry.offer.target.clone(), entry.quarantined))
            .collect();
        for (seq, target, was_quarantined) in targets {
            registry().counter("trading.liveness.pings").incr();
            let alive = match self.inner.orb.invoke_ref_with(
                &target,
                "_non_existent",
                vec![],
                InvokeOptions::new().deadline(ping_deadline),
            ) {
                // `_non_existent` answers true when the key is gone.
                Ok(v) => v.as_bool() != Some(true),
                // A connectivity-class failure means the exporter is
                // unreachable; any other error still proves something
                // answered at that endpoint.
                Err(e) => !e.is_retryable(),
            };
            let mut offers = self.inner.offers.write();
            if let Some(entry) = offers.get_mut(&seq) {
                if alive && was_quarantined && entry.quarantined {
                    entry.quarantined = false;
                    registry().counter("trading.liveness.revived").incr();
                    changed += 1;
                } else if !alive && !entry.quarantined {
                    entry.quarantined = true;
                    registry().counter("trading.liveness.quarantined").incr();
                    changed += 1;
                }
            }
        }
        changed
    }

    // ---- federation ------------------------------------------------------

    /// Links another trader; queries with remaining hops are forwarded.
    pub fn add_link(&self, name: impl Into<String>, target: ObjRef) {
        self.inner.links.add(name, target);
    }

    /// Unlinks a federated trader; `true` if the link existed.
    pub fn remove_link(&self, name: &str) -> bool {
        self.inner.links.remove(name)
    }

    /// Names of federation links.
    pub fn link_names(&self) -> Vec<String> {
        self.inner.links.names()
    }

    // ---- lookup (import side) ---------------------------------------------

    /// Runs an import query: filter by constraint, order by
    /// preference, merge federated results, apply cardinality policies.
    ///
    /// Offers are judged where they are stored, under the offers read
    /// lock, and only matches are copied out. An offer with dynamic
    /// properties (when the query evaluates them) is snapshotted instead
    /// and resolved after the lock is released: `evalDP` is an orb call,
    /// and no orb call is made under the offers lock.
    ///
    /// # Errors
    ///
    /// Unknown service type or illegal constraint/preference. Dynamic
    /// properties that fail to evaluate are dropped from the offer
    /// (possibly excluding it from the match, never failing the query).
    pub fn query(&self, q: &Query) -> Result<Vec<OfferMatch>> {
        let metrics = &self.inner.metrics;
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        metrics.queries.incr();
        let mut span = Span::start("trader:query");
        span.attr("service_type", &q.service_type);
        let accepted = self.accepted_types(q)?;
        let constraint = Constraint::parse(&q.constraint)?;
        let preference = Preference::parse(&q.preference)?;
        let use_dynamic = q.policies.use_dynamic_properties;
        let judge = |position: usize, props: &dyn PropLookup| {
            if !position.is_multiple_of(EVAL_SAMPLE_EVERY) {
                return constraint.matches(props);
            }
            let started = Instant::now();
            let matched = constraint.matches(props);
            metrics.constraint_eval.record(started.elapsed());
            matched
        };

        let mut candidates = Vec::new();
        let mut considered = 0;
        {
            let offers = self.inner.offers.read();
            let now = Instant::now();
            let visible = offers
                .values()
                .filter(|entry| entry.visible(now))
                .map(|entry| &entry.offer)
                .filter(|offer| accepted.iter().any(|t| *t == offer.service_type))
                .take(q.policies.search_card as usize);
            for offer in visible {
                let position = considered;
                considered += 1;
                let dynamic = use_dynamic
                    && offer
                        .properties
                        .iter()
                        .any(|(_, v)| matches!(v, PropValue::Dynamic(_)));
                if dynamic {
                    candidates.push(Candidate::Unresolved(position, Arc::clone(offer)));
                } else if judge(position, &StaticProps(&offer.properties)) {
                    candidates.push(Candidate::Matched(materialize(offer, |_, _| None)));
                }
            }
        }
        metrics.offers_considered.add(considered as u64);
        span.attr("offers_considered", considered);

        let mut matches: Vec<OfferMatch> = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            match candidate {
                Candidate::Matched(m) => matches.push(m),
                Candidate::Unresolved(position, offer) => {
                    let m = materialize(&offer, |name, eval_ref| self.eval_dynamic(name, eval_ref));
                    if judge(position, &m.properties) {
                        matches.push(m);
                    }
                }
            }
        }
        // Re-validate the local matches against the live offer set: the
        // offers lock was released before the dynamic properties were
        // resolved, a window in which a concurrent `withdraw` may have
        // been acknowledged — and an offer must never be returned after
        // its withdrawal acked. (Runs before federation results are
        // merged: federated ids use the same `offer-N` namespace and
        // must not be checked against the local table.)
        {
            let offers = self.inner.offers.read();
            let now = Instant::now();
            matches.retain(|m| {
                Self::offer_seq(&m.id)
                    .and_then(|seq| offers.get(&seq))
                    .is_some_and(|entry| entry.visible(now))
            });
        }
        span.attr("matches", matches.len());

        // Federation: spend one hop per link traversal (see `link.rs`
        // for the traversal, dedup, and degradation rules).
        self.inner.links.federate(&self.inner.orb, q, &mut matches);

        let mut shuffle = |order: &mut Vec<usize>| {
            order.shuffle(&mut *self.inner.rng.lock());
        };
        let order = preference.order_by(matches.len(), |i| &matches[i].properties, &mut shuffle);
        let mut slots: Vec<Option<OfferMatch>> = matches.into_iter().map(Some).collect();
        Ok(order
            .into_iter()
            .take(q.policies.return_card as usize)
            .filter_map(|i| slots[i].take())
            .collect())
    }

    /// Evaluates one dynamic property through the orb; `None` when the
    /// evaluator cannot be reached or fails.
    fn eval_dynamic(&self, name: &str, eval_ref: &ObjRef) -> Option<Value> {
        let metrics = &self.inner.metrics;
        metrics.dynamic_evals.incr();
        // The round trip to the evaluator rides the orb, so it emits a
        // `client:evalDP` span nested under the trader's query (or
        // dispatch) span automatically.
        let started = Instant::now();
        let outcome = self
            .inner
            .orb
            .invoke_ref(eval_ref, "evalDP", vec![Value::from(name)]);
        metrics.dynamic_eval_round_trip.record(started.elapsed());
        match outcome {
            Ok(v) => Some(v),
            Err(_) => {
                registry().counter("trading.dynamic_eval_failures").incr();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_idl::TypeCode;
    use adapta_orb::ServantFn;

    use crate::service_type::PropMode;

    fn target(n: u32) -> ObjRef {
        ObjRef::new("inproc://servers", format!("svc-{n}"), "Hello")
    }

    fn trader_with_type() -> (Orb, Trader) {
        let orb = Orb::new("t-trader");
        let trader = Trader::new(&orb);
        trader
            .add_type(
                ServiceTypeDef::new("Hello")
                    .with_property(PropDef::new(
                        "LoadAvg",
                        TypeCode::Double,
                        PropMode::Mandatory,
                    ))
                    .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly))
                    .with_property(PropDef::new("Cost", TypeCode::Double, PropMode::Normal)),
            )
            .unwrap();
        (orb, trader)
    }

    fn export(trader: &Trader, n: u32, load: f64) -> OfferId {
        trader
            .export(
                ExportRequest::new("Hello", target(n))
                    .with_property("LoadAvg", Value::from(load))
                    .with_property("Host", Value::from(format!("host{n}"))),
            )
            .unwrap()
    }

    #[test]
    fn export_query_min_preference() {
        let (_orb, trader) = trader_with_type();
        export(&trader, 1, 30.0);
        export(&trader, 2, 10.0);
        export(&trader, 3, 20.0);
        let matches = trader
            .query(
                &Query::new("Hello")
                    .constraint("LoadAvg < 25")
                    .preference("min LoadAvg"),
            )
            .unwrap();
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].target, target(2));
        assert_eq!(matches[1].target, target(3));
    }

    #[test]
    fn export_validates_schema() {
        let (_orb, trader) = trader_with_type();
        // Unknown type.
        assert!(matches!(
            trader.export(ExportRequest::new("Nope", target(1))),
            Err(TradingError::UnknownServiceType(_))
        ));
        // Missing mandatory LoadAvg.
        assert!(matches!(
            trader.export(ExportRequest::new("Hello", target(1))),
            Err(TradingError::MissingMandatoryProperty { .. })
        ));
        // Wrong property type.
        assert!(matches!(
            trader.export(
                ExportRequest::new("Hello", target(1))
                    .with_property("LoadAvg", Value::from("high"))
            ),
            Err(TradingError::PropertyTypeMismatch { .. })
        ));
        // Undeclared property.
        assert!(matches!(
            trader.export(
                ExportRequest::new("Hello", target(1))
                    .with_property("LoadAvg", Value::from(1.0))
                    .with_property("Bogus", Value::from(1.0))
            ),
            Err(TradingError::UnknownProperty { .. })
        ));
    }

    #[test]
    fn withdraw_removes_offer() {
        let (_orb, trader) = trader_with_type();
        let id = export(&trader, 1, 5.0);
        trader.withdraw(&id).unwrap();
        assert!(trader.query(&Query::new("Hello")).unwrap().is_empty());
        assert!(matches!(
            trader.withdraw(&id),
            Err(TradingError::UnknownOffer(_))
        ));
    }

    #[test]
    fn modify_respects_readonly() {
        let (_orb, trader) = trader_with_type();
        let id = export(&trader, 1, 5.0);
        trader
            .modify(&id, vec![("LoadAvg".into(), Value::from(9.0).into())])
            .unwrap();
        assert_eq!(
            trader.query(&Query::new("Hello")).unwrap()[0].prop("LoadAvg"),
            Some(&Value::from(9.0))
        );
        assert!(matches!(
            trader.modify(&id, vec![("Host".into(), Value::from("x").into())]),
            Err(TradingError::ReadonlyProperty(_))
        ));
        // Adding a declared-but-absent property is allowed.
        trader
            .modify(&id, vec![("Cost".into(), Value::from(1.0).into())])
            .unwrap();
    }

    #[test]
    fn subtype_offers_match_base_queries() {
        let (_orb, trader) = trader_with_type();
        trader
            .add_type(ServiceTypeDef::new("FancyHello").extends("Hello"))
            .unwrap();
        trader
            .export(
                ExportRequest::new("FancyHello", target(9))
                    .with_property("LoadAvg", Value::from(1.0)),
            )
            .unwrap();
        assert_eq!(trader.query(&Query::new("Hello")).unwrap().len(), 1);
        assert_eq!(
            trader
                .query(&Query::new("Hello").exact_type(true))
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn unknown_base_type_is_rejected() {
        let (_orb, trader) = trader_with_type();
        assert!(matches!(
            trader.add_type(ServiceTypeDef::new("X").extends("Nope")),
            Err(TradingError::UnknownServiceType(_))
        ));
        assert!(matches!(
            trader.add_type(ServiceTypeDef::new("Hello")),
            Err(TradingError::DuplicateServiceType(_))
        ));
    }

    #[test]
    fn return_card_truncates() {
        let (_orb, trader) = trader_with_type();
        for i in 0..10 {
            export(&trader, i, i as f64);
        }
        let matches = trader
            .query(&Query::new("Hello").preference("min LoadAvg").return_card(3))
            .unwrap();
        assert_eq!(matches.len(), 3);
        assert_eq!(matches[0].prop("LoadAvg"), Some(&Value::from(0.0)));
    }

    #[test]
    fn dynamic_properties_are_evaluated_at_query_time() {
        let orb = Orb::new("t-trader-dyn");
        let trader = Trader::new(&orb);
        trader
            .add_type(ServiceTypeDef::new("Svc").with_property(PropDef::new(
                "Load",
                TypeCode::Double,
                PropMode::Normal,
            )))
            .unwrap();
        let load = Arc::new(Mutex::new(10.0f64));
        let load_clone = load.clone();
        let eval_ref = orb
            .activate(
                "dp",
                ServantFn::new("DynamicPropEval", move |op, _args| match op {
                    "evalDP" => Ok(Value::Double(*load_clone.lock())),
                    other => Err(adapta_orb::OrbError::unknown_operation(
                        "DynamicPropEval",
                        other,
                    )),
                }),
            )
            .unwrap();
        trader
            .export(ExportRequest::new("Svc", target(1)).with_dynamic_property("Load", eval_ref))
            .unwrap();
        let q = Query::new("Svc").constraint("Load < 50");
        assert_eq!(trader.query(&q).unwrap().len(), 1);
        *load.lock() = 90.0;
        assert_eq!(trader.query(&q).unwrap().len(), 0);
        // With dynamic evaluation disabled the property is absent and the
        // constraint fails closed.
        assert_eq!(
            trader.query(&q.clone().use_dynamic(false)).unwrap().len(),
            0
        );
    }

    #[test]
    fn dead_dynamic_property_excludes_offer_not_query() {
        let orb = Orb::new("t-trader-deaddyn");
        let trader = Trader::new(&orb);
        trader
            .add_type(ServiceTypeDef::new("Svc").with_property(PropDef::new(
                "Load",
                TypeCode::Double,
                PropMode::Normal,
            )))
            .unwrap();
        let dead = ObjRef::new("inproc://vanished-node", "dp", "DynamicPropEval");
        trader
            .export(ExportRequest::new("Svc", target(1)).with_dynamic_property("Load", dead))
            .unwrap();
        trader
            .export(ExportRequest::new("Svc", target(2)).with_property("Load", Value::from(1.0)))
            .unwrap();
        let matches = trader
            .query(&Query::new("Svc").constraint("Load < 50"))
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].target, target(2));
    }

    /// An evaluator that writes to the trader it is evaluated for: the
    /// query hangs if `evalDP` is ever invoked under the offers lock.
    #[test]
    fn dynamic_properties_resolve_outside_the_offers_lock() {
        let orb = Orb::new("t-trader-reentrant");
        let trader = Trader::new(&orb);
        trader
            .add_type(ServiceTypeDef::new("Svc").with_property(PropDef::new(
                "Load",
                TypeCode::Double,
                PropMode::Normal,
            )))
            .unwrap();
        let writes = Arc::new(AtomicU64::new(0));
        let (reentrant, writes_seen) = (trader.clone(), writes.clone());
        let eval_ref = orb
            .activate(
                "dp",
                ServantFn::new("DynamicPropEval", move |op, _args| match op {
                    "evalDP" => {
                        let id = reentrant.export(
                            ExportRequest::new("Svc", target(7))
                                .with_property("Load", Value::from(99.0)),
                        );
                        if let Ok(id) = id {
                            if reentrant.withdraw(&id).is_ok() {
                                writes_seen.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(Value::Double(1.0))
                    }
                    other => Err(adapta_orb::OrbError::unknown_operation(
                        "DynamicPropEval",
                        other,
                    )),
                }),
            )
            .unwrap();
        trader
            .export(ExportRequest::new("Svc", target(1)).with_dynamic_property("Load", eval_ref))
            .unwrap();

        let (done, result) = std::sync::mpsc::channel();
        let querier = trader.clone();
        let handle = std::thread::spawn(move || {
            let _ = done.send(querier.query(&Query::new("Svc").constraint("Load < 50")));
        });
        let matches = result
            .recv_timeout(Duration::from_secs(5))
            .expect("query stalled: evalDP ran under the offers lock")
            .unwrap();
        handle.join().unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].target, target(1));
        assert_eq!(writes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn random_preference_is_seed_deterministic() {
        let (_orb, trader) = trader_with_type();
        for i in 0..5 {
            export(&trader, i, i as f64);
        }
        trader.reseed(42);
        let a: Vec<_> = trader
            .query(&Query::new("Hello").preference("random"))
            .unwrap()
            .iter()
            .map(|m| m.id.clone())
            .collect();
        trader.reseed(42);
        let b: Vec<_> = trader
            .query(&Query::new("Hello").preference("random"))
            .unwrap()
            .iter()
            .map(|m| m.id.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn leases_expire_and_renew() {
        let (_orb, trader) = trader_with_type();
        let id = trader
            .export(
                ExportRequest::new("Hello", target(1))
                    .with_property("LoadAvg", Value::from(1.0))
                    .with_lease(Duration::from_millis(30)),
            )
            .unwrap();
        assert_eq!(trader.query(&Query::new("Hello")).unwrap().len(), 1);
        std::thread::sleep(Duration::from_millis(45));
        // An expired lease hides the offer even before a sweep runs.
        assert!(trader.query(&Query::new("Hello")).unwrap().is_empty());
        // Renewing before the sweep revives it (same TTL, new window).
        trader.renew(&id, None).unwrap();
        assert_eq!(trader.query(&Query::new("Hello")).unwrap().len(), 1);
        // Once expired *and* swept, the offer is gone for good.
        std::thread::sleep(Duration::from_millis(45));
        assert!(trader.sweep_liveness(Duration::from_millis(20)) >= 1);
        assert!(trader.list_offers().is_empty());
        assert!(matches!(
            trader.renew(&id, None),
            Err(TradingError::UnknownOffer(_))
        ));
    }

    #[test]
    fn sweeper_quarantines_dead_exporters_and_revives_returning_ones() {
        let orb = Orb::new("t-trader-liveness");
        let trader = Trader::new(&orb);
        trader.add_type(ServiceTypeDef::new("Svc")).unwrap();
        let live_ref = orb
            .activate("svc", ServantFn::new("Svc", |_, _| Ok(Value::Null)))
            .unwrap();
        let dead_ref = ObjRef::new("inproc://t-liveness-lazarus", "svc", "Svc");
        let live = trader.export(ExportRequest::new("Svc", live_ref)).unwrap();
        let dead = trader.export(ExportRequest::new("Svc", dead_ref)).unwrap();
        assert_eq!(trader.query(&Query::new("Svc")).unwrap().len(), 2);

        // The dead exporter is quarantined; the live one keeps serving.
        assert!(trader.sweep_liveness(Duration::from_millis(50)) >= 1);
        assert_eq!(trader.quarantined_offers(), vec![dead.clone()]);
        let matches = trader.query(&Query::new("Svc")).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].id, live);

        // The exporter comes back up: the next sweep revives its offer.
        let lazarus = Orb::new("t-liveness-lazarus");
        lazarus
            .activate("svc", ServantFn::new("Svc", |_, _| Ok(Value::Null)))
            .unwrap();
        assert!(trader.sweep_liveness(Duration::from_millis(50)) >= 1);
        assert!(trader.quarantined_offers().is_empty());
        assert_eq!(trader.query(&Query::new("Svc")).unwrap().len(), 2);
    }

    #[test]
    fn background_sweeper_runs_and_is_single_instance() {
        let orb = Orb::new("t-trader-bg-sweep");
        let trader = Trader::new(&orb);
        trader.add_type(ServiceTypeDef::new("Svc")).unwrap();
        trader
            .export(ExportRequest::new(
                "Svc",
                ObjRef::new("inproc://t-bg-sweep-nowhere", "svc", "Svc"),
            ))
            .unwrap();
        assert!(trader.start_liveness_sweeper(Duration::from_millis(20), Duration::from_millis(50)));
        assert!(
            !trader.start_liveness_sweeper(Duration::from_millis(20), Duration::from_millis(50))
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while trader.quarantined_offers().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "sweeper never quarantined the dead exporter"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn renew_lifts_quarantine() {
        let (_orb, trader) = trader_with_type();
        let id = export(&trader, 1, 5.0);
        // target(1) points at a node that does not exist.
        trader.sweep_liveness(Duration::from_millis(20));
        assert_eq!(trader.quarantined_offers(), vec![id.clone()]);
        trader.renew(&id, None).unwrap();
        assert!(trader.quarantined_offers().is_empty());
        assert_eq!(trader.query(&Query::new("Hello")).unwrap().len(), 1);
    }

    #[test]
    fn describe_and_list() {
        let (_orb, trader) = trader_with_type();
        let id = export(&trader, 1, 5.0);
        let offer = trader.describe(&id).unwrap();
        assert_eq!(offer.service_type, "Hello");
        assert_eq!(trader.list_offers().len(), 1);
        assert!(trader.describe(&OfferId::from_string("offer-999")).is_err());
        assert!(trader.describe(&OfferId::from_string("bogus")).is_err());
    }
}
