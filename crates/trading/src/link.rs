//! Trader federation links.
//!
//! A trader may *link* other traders; an import query whose
//! `hop_count` policy is positive is forwarded over every link with
//! the hop budget decremented, and the remote matches are merged into
//! the local result before preference ordering. Because federated
//! traders share the `offer-N` id namespace, merged results are
//! de-duplicated by `(offer id, target)`.
//!
//! The first trader that forwards a query stamps it with a request id
//! (the OMG trader's `request_id` policy), and every trader remembers
//! the ids it has answered: one that sees an id again answers with
//! nothing. So a link cycle (A links B, B links A) visits each trader
//! once instead of once per path the hop budget allows.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime};

use adapta_orb::{ObjRef, Orb};
use adapta_telemetry::registry;
use parking_lot::{Mutex, RwLock};

use crate::offer::{OfferId, OfferMatch};
use crate::query::Query;
use crate::servant::RemoteTrader;
use crate::trader::{MAX_SEEN_REQUESTS, SEEN_REQUEST_TTL};

/// One federation link: a name plus the linked trader's servant.
#[derive(Debug, Clone)]
pub struct Link {
    /// The link name (unique per trader by convention, not enforced).
    pub name: String,
    /// The linked trader's `Trader` servant reference.
    pub target: ObjRef,
}

/// The links a trader holds, with the federation traversal logic.
#[derive(Debug, Default)]
pub(crate) struct LinkSet {
    links: RwLock<Vec<Link>>,
    seen: Mutex<SeenRequests>,
}

/// The request ids a trader has answered, oldest first, at most
/// [`MAX_SEEN_REQUESTS`] of them and none older than
/// [`SEEN_REQUEST_TTL`].
#[derive(Debug, Default)]
struct SeenRequests {
    order: VecDeque<(Instant, String)>,
    ids: HashSet<String>,
}

impl SeenRequests {
    /// Records `id`; `false` if it is already recorded.
    fn insert(&mut self, id: &str, now: Instant) -> bool {
        while let Some((at, _)) = self.order.front() {
            let full = self.order.len() >= MAX_SEEN_REQUESTS;
            if !full && now.duration_since(*at) < SEEN_REQUEST_TTL {
                break;
            }
            if let Some((_, old)) = self.order.pop_front() {
                self.ids.remove(&old);
            }
        }
        if !self.ids.insert(id.to_owned()) {
            return false;
        }
        self.order.push_back((now, id.to_owned()));
        true
    }
}

/// A request id no other query carries: this process's id, the time
/// it made its first id, and a count of the ids it has made.
fn new_request_id() -> String {
    static STARTED: OnceLock<u128> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let started = STARTED.get_or_init(|| {
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{:x}-{started:x}-{n:x}", std::process::id())
}

impl LinkSet {
    /// Adds a link.
    pub(crate) fn add(&self, name: impl Into<String>, target: ObjRef) {
        self.links.write().push(Link {
            name: name.into(),
            target,
        });
    }

    /// Removes a link by name; `true` if one was removed.
    pub(crate) fn remove(&self, name: &str) -> bool {
        let mut links = self.links.write();
        let before = links.len();
        links.retain(|l| l.name != name);
        links.len() != before
    }

    /// The link names, in insertion order.
    pub(crate) fn names(&self) -> Vec<String> {
        self.links.read().iter().map(|l| l.name.clone()).collect()
    }

    /// A snapshot of the links.
    pub(crate) fn snapshot(&self) -> Vec<Link> {
        self.links.read().clone()
    }

    /// `true` if `q` carries a request id this trader has already
    /// answered (counted in `trading.federation.repeated_requests`);
    /// records the id otherwise.
    pub(crate) fn is_repeat(&self, q: &Query) -> bool {
        let Some(id) = &q.policies.request_id else {
            return false;
        };
        let repeat = !self.seen.lock().insert(id, Instant::now());
        if repeat {
            registry()
                .counter("trading.federation.repeated_requests")
                .incr();
        }
        repeat
    }

    /// Forwards `q` over every link (each traversal spends one hop) and
    /// merges the remote matches into `matches`, de-duplicating by
    /// `(offer id, target)`. A query without a request id gets a new
    /// one, recorded here as answered. A link whose remote query fails
    /// is skipped: federation degrades to the reachable subset rather
    /// than failing the whole query.
    pub(crate) fn federate(&self, orb: &Orb, q: &Query, matches: &mut Vec<OfferMatch>) {
        if q.policies.hop_count == 0 {
            return;
        }
        let links = self.snapshot();
        if links.is_empty() {
            return;
        }
        let r = registry();
        let forwards = r.counter("trading.federation.forwards");
        let duplicates = r.counter("trading.federation.duplicates");
        let link_errors = r.counter("trading.federation.link_errors");
        let mut seen: HashSet<(OfferId, ObjRef)> = matches
            .iter()
            .map(|m| (m.id.clone(), m.target.clone()))
            .collect();
        let mut sub = q.clone();
        sub.policies.hop_count -= 1;
        if sub.policies.request_id.is_none() {
            let id = new_request_id();
            self.seen.lock().insert(&id, Instant::now());
            sub.policies.request_id = Some(id);
        }
        for link in links {
            forwards.incr();
            let remote = RemoteTrader::new(orb.proxy(&link.target));
            let Ok(remote_matches) = crate::servant::remote_query(&remote, &sub) else {
                link_errors.incr();
                continue;
            };
            for m in remote_matches {
                if seen.insert((m.id.clone(), m.target.clone())) {
                    matches.push(m);
                } else {
                    duplicates.incr();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::offer::ExportRequest;
    use crate::servant::TraderServant;
    use crate::service_type::{PropDef, PropMode, ServiceTypeDef};
    use crate::trader::Trader;
    use adapta_idl::{TypeCode, Value};

    fn hello_type() -> ServiceTypeDef {
        ServiceTypeDef::new("Hello").with_property(PropDef::new(
            "LoadAvg",
            TypeCode::Double,
            PropMode::Mandatory,
        ))
    }

    /// A trader on its own orb node, exposed as a servant.
    fn node(name: &str) -> (Orb, Trader, ObjRef) {
        let orb = Orb::new(name);
        let trader = Trader::new(&orb);
        trader.add_type(hello_type()).unwrap();
        let objref = orb
            .activate("trader", TraderServant::new(trader.clone()))
            .unwrap();
        (orb, trader, objref)
    }

    fn export(trader: &Trader, node: &str, load: f64) {
        trader
            .export(
                ExportRequest::new(
                    "Hello",
                    ObjRef::new(format!("inproc://{node}"), "svc", "Hello"),
                )
                .with_property("LoadAvg", Value::from(load)),
            )
            .unwrap();
    }

    #[test]
    fn hop_budget_exhausts_along_a_chain() {
        // A -> B -> C, one offer on each.
        let (_oa, a, _ra) = node("t-link-chain-a");
        let (_ob, b, rb) = node("t-link-chain-b");
        let (_oc, c, rc) = node("t-link-chain-c");
        export(&a, "a", 1.0);
        export(&b, "b", 2.0);
        export(&c, "c", 3.0);
        a.add_link("to-b", rb);
        b.add_link("to-c", rc);

        // hops=0: local only; hops=1: A+B; hops=2: all three.
        assert_eq!(a.query(&Query::new("Hello").hops(0)).unwrap().len(), 1);
        assert_eq!(a.query(&Query::new("Hello").hops(1)).unwrap().len(), 2);
        assert_eq!(a.query(&Query::new("Hello").hops(2)).unwrap().len(), 3);
    }

    #[test]
    fn link_cycle_terminates_and_does_not_duplicate() {
        // A and B link each other; the hop budget terminates the cycle
        // and (id, target) dedup keeps each offer exactly once even
        // though A's own offer comes back via B -> A.
        let (_oa, a, ra) = node("t-link-cycle-a");
        let (_ob, b, rb) = node("t-link-cycle-b");
        export(&a, "a", 1.0);
        export(&b, "b", 2.0);
        a.add_link("to-b", rb);
        b.add_link("to-a", ra);

        for hops in [1u32, 2, 3, 4] {
            let matches = a.query(&Query::new("Hello").hops(hops)).unwrap();
            assert_eq!(
                matches.len(),
                2,
                "hops={hops}: cycle must not duplicate offers"
            );
        }
    }

    #[test]
    fn federated_matches_are_merged_under_the_preference() {
        // The best offer lives on the remote trader: preference
        // ordering must apply across the merged set, not per trader.
        let (_oa, a, _ra) = node("t-link-pref-a");
        let (_ob, b, rb) = node("t-link-pref-b");
        export(&a, "a", 30.0);
        export(&b, "b", 5.0);
        a.add_link("to-b", rb);

        let matches = a
            .query(
                &Query::new("Hello")
                    .constraint("LoadAvg < 50")
                    .preference("min LoadAvg")
                    .hops(1),
            )
            .unwrap();
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].prop("LoadAvg"), Some(&Value::from(5.0)));
        assert_eq!(matches[1].prop("LoadAvg"), Some(&Value::from(30.0)));
    }

    /// An importer's `hop_count` of `u32::MAX` is clamped to the
    /// trader's maximum, so the cycle ends after a few nested calls
    /// instead of overflowing the stack, with both offers returned once.
    #[test]
    fn a_cycle_at_the_largest_hop_count_returns_both_offers() {
        let (_oa, a, ra) = node("t-link-maxhop-a");
        let (_ob, b, rb) = node("t-link-maxhop-b");
        export(&a, "a", 1.0);
        export(&b, "b", 2.0);
        a.add_link("to-b", rb);
        b.add_link("to-a", ra);
        let matches = a.query(&Query::new("Hello").hops(u32::MAX)).unwrap();
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn seen_requests_are_bounded_by_count_and_by_age() {
        let mut seen = SeenRequests::default();
        let start = Instant::now();
        assert!(seen.insert("first", start));
        assert!(!seen.insert("first", start));
        for n in 1..MAX_SEEN_REQUESTS {
            assert!(seen.insert(&n.to_string(), start));
        }
        // Full: the next id pushes out the oldest.
        assert!(seen.insert("next", start));
        assert_eq!(seen.order.len(), MAX_SEEN_REQUESTS);
        assert!(seen.insert("first", start));
        // Every id outlives its age bound at once.
        assert!(seen.insert("late", start + SEEN_REQUEST_TTL));
        assert_eq!(seen.order.len(), 1);
        assert_eq!(seen.ids.len(), 1);
    }

    #[test]
    fn request_ids_are_distinct() {
        assert_ne!(new_request_id(), new_request_id());
    }

    #[test]
    fn dead_link_degrades_instead_of_failing() {
        let (_oa, a, _ra) = node("t-link-dead-a");
        export(&a, "a", 1.0);
        a.add_link(
            "to-nowhere",
            ObjRef::new("inproc://t-link-vanished", "trader", "Trader"),
        );
        let matches = a.query(&Query::new("Hello").hops(1)).unwrap();
        assert_eq!(matches.len(), 1, "local offers survive a dead link");
    }

    #[test]
    fn remove_link_stops_federation() {
        let (_oa, a, _ra) = node("t-link-rm-a");
        let (_ob, b, rb) = node("t-link-rm-b");
        export(&b, "b", 1.0);
        a.add_link("to-b", rb);
        assert_eq!(a.query(&Query::new("Hello").hops(1)).unwrap().len(), 1);
        assert!(a.remove_link("to-b"));
        assert!(!a.remove_link("to-b"));
        assert!(a.query(&Query::new("Hello").hops(1)).unwrap().is_empty());
        assert!(a.link_names().is_empty());
    }

    #[test]
    fn constraints_filter_remotely_before_merging() {
        let (_oa, a, _ra) = node("t-link-filter-a");
        let (_ob, b, rb) = node("t-link-filter-b");
        export(&b, "b-ok", 10.0);
        export(&b, "b-hot", 90.0);
        a.add_link("to-b", rb);
        let matches = a
            .query(&Query::new("Hello").constraint("LoadAvg < 50").hops(1))
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].prop("LoadAvg"), Some(&Value::from(10.0)));
    }

    #[test]
    fn federation_respects_withdrawals_mid_sequence() {
        let (_oa, a, _ra) = node("t-link-wd-a");
        let (_ob, b, rb) = node("t-link-wd-b");
        let id = b
            .export(
                ExportRequest::new("Hello", ObjRef::new("inproc://wd-b", "svc", "Hello"))
                    .with_property("LoadAvg", Value::from(1.0))
                    .with_lease(Duration::from_secs(60)),
            )
            .unwrap();
        a.add_link("to-b", rb);
        assert_eq!(a.query(&Query::new("Hello").hops(1)).unwrap().len(), 1);
        b.withdraw(&id).unwrap();
        assert!(a.query(&Query::new("Hello").hops(1)).unwrap().is_empty());
    }
}
