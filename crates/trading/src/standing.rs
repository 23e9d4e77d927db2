//! Standing queries: the filter of a recent query, kept up to date as
//! offers change, so a repeated query walks the offers that can match
//! instead of scanning every offer of its types.
//!
//! A standing query is keyed by service type, the exact-type flag, the
//! dynamic flag and the constraint text; the preference and the
//! cardinalities are not part of the key. It holds the parsed
//! constraint and three ascending lists of offer seqs:
//!
//! - `accepted`: every offer of an accepted type;
//! - `candidates`: the accepted offers that may match, those whose
//!   static properties pass the constraint and those with dynamic
//!   properties to resolve first;
//! - `unsure`: the accepted offers whose visibility can change with no
//!   write to the trader: leased ones (a lease expires with time) and
//!   quarantined ones.
//!
//! The trader updates the lists under its offers write lock on every
//! export, withdrawal, modification, renewal and liveness change, and
//! drops every standing query when a service type is added (a new
//! subtype changes what a query accepts).
//!
//! A query whose key has no standing query walks every offer of its
//! types under the read lock, as a scan would, and notes the key among
//! the recent misses. Only a key that misses again while still noted
//! there is promoted: its standing query is built under the write lock,
//! evicting the oldest. So an importer that cycles through more
//! constraint texts than the trader keeps cannot make every query
//! rebuild one, and texts used once never evict a standing query.
//!
//! A query considers the first `search_card` visible offers of its
//! types, in export order. The cutoff is the seq of the
//! `search_card + 1`-th accepted offer. It is exact when there are no
//! more accepted offers than `search_card`, or when every unsure offer
//! below it is visible: the offers below it are then exactly the ones
//! the query considers, and only its candidates among them can match,
//! so the query [walks](StandingQuery::walk) just those, checking each
//! one's visibility. Otherwise the query walks every accepted offer,
//! as a scan would, and stops at `search_card` visible ones.

use std::sync::Arc;

use adapta_idl::Value;
use parking_lot::Mutex;

use crate::constraint::{Constraint, PropLookup};
use crate::offer::{PropValue, ServiceOffer};
use crate::query::Query;

/// Standing queries a trader keeps at most, and missed keys it
/// remembers. Past it the oldest goes, so the constraint texts of
/// remote importers cannot grow either list.
pub(crate) const MAX_STANDING_QUERIES: usize = 16;

/// What a standing query is kept for: a query's service type, its
/// exact-type and dynamic flags and its constraint text.
#[derive(Debug)]
struct QueryKey {
    service_type: String,
    exact_type: bool,
    dynamic: bool,
    constraint_text: String,
}

impl QueryKey {
    fn of(q: &Query) -> QueryKey {
        QueryKey {
            service_type: q.service_type.clone(),
            exact_type: q.policies.exact_type_match,
            dynamic: q.policies.use_dynamic_properties,
            constraint_text: q.constraint.clone(),
        }
    }

    fn is_for(&self, q: &Query) -> bool {
        self.exact_type == q.policies.exact_type_match
            && self.dynamic == q.policies.use_dynamic_properties
            && self.service_type == q.service_type
            && self.constraint_text == q.constraint
    }
}

/// An offer's static properties, read where the trader stores them.
/// Dynamic properties are absent, as they are from a query that does
/// not evaluate them.
pub(crate) struct StaticProps<'a>(pub(crate) &'a [(String, PropValue)]);

impl PropLookup for StaticProps<'_> {
    fn prop(&self, name: &str) -> Option<&Value> {
        self.0.iter().find_map(|(k, v)| match v {
            PropValue::Static(v) if k == name => Some(v),
            _ => None,
        })
    }
}

/// True if a query resolves `offer`'s dynamic properties before judging
/// it: it evaluates them (`dynamic`) and the offer has some.
pub(crate) fn resolves(offer: &ServiceOffer, dynamic: bool) -> bool {
    dynamic
        && offer
            .properties
            .iter()
            .any(|(_, v)| matches!(v, PropValue::Dynamic(_)))
}

/// Sets whether `seq` is in the ascending list `seqs`.
fn set(seqs: &mut Vec<u64>, seq: u64, present: bool) {
    match (seqs.binary_search(&seq), present) {
        (Err(at), true) => seqs.insert(at, seq),
        (Ok(at), false) => {
            seqs.remove(at);
        }
        _ => {}
    }
}

/// One standing query (see the [module docs](self)).
pub(crate) struct StandingQuery {
    key: QueryKey,
    /// Shared so a query can judge resolved offers after releasing the
    /// offers lock.
    pub(crate) constraint: Arc<Constraint>,
    /// The service types the query accepts.
    types: Vec<String>,
    accepted: Vec<u64>,
    candidates: Vec<u64>,
    unsure: Vec<u64>,
}

impl StandingQuery {
    /// A standing query for `q`, accepting `types`, over `offers` (seq
    /// → offer and whether it is unsure).
    pub(crate) fn new<'a>(
        q: &Query,
        types: Vec<String>,
        constraint: Constraint,
        offers: impl Iterator<Item = (u64, &'a ServiceOffer, bool)>,
    ) -> StandingQuery {
        let mut standing = StandingQuery {
            key: QueryKey::of(q),
            constraint: Arc::new(constraint),
            types,
            accepted: Vec::new(),
            candidates: Vec::new(),
            unsure: Vec::new(),
        };
        for (seq, offer, unsure) in offers {
            standing.track(seq, Some((offer, unsure)));
        }
        standing
    }

    /// Records that offer `seq` is now `offer` (with whether it is
    /// unsure), or gone.
    fn track(&mut self, seq: u64, offer: Option<(&ServiceOffer, bool)>) {
        let offer = offer.filter(|(o, _)| self.types.contains(&o.service_type));
        let candidate = offer.is_some_and(|(o, _)| {
            resolves(o, self.key.dynamic) || self.constraint.matches(&StaticProps(&o.properties))
        });
        set(&mut self.accepted, seq, offer.is_some());
        set(&mut self.candidates, seq, candidate);
        set(
            &mut self.unsure,
            seq,
            offer.is_some_and(|(_, unsure)| unsure),
        );
    }

    /// The seqs a query considering at most `search_card` visible
    /// offers walks, in export order, and how many visible ones it
    /// takes from them: its candidates among the first `search_card`
    /// accepted offers, all of them, when that cutoff is exact; else
    /// every accepted offer, up to `search_card` visible ones.
    /// `visible` tells whether an offer is visible now.
    pub(crate) fn walk(&self, search_card: u32, visible: impl Fn(u64) -> bool) -> (&[u64], usize) {
        let cutoff = self
            .accepted
            .get(search_card as usize)
            .copied()
            .unwrap_or(u64::MAX);
        // With no more than `search_card` accepted offers, the query
        // considers every visible one whatever the visibility of each.
        let exact = cutoff == u64::MAX
            || self
                .unsure
                .iter()
                .take_while(|&&seq| seq < cutoff)
                .all(|&seq| visible(seq));
        match exact {
            true => {
                let below = self.candidates.partition_point(|&seq| seq < cutoff);
                (&self.candidates[..below], usize::MAX)
            }
            false => (&self.accepted, search_card as usize),
        }
    }
}

/// The standing queries of one trader, oldest first, at most
/// [`MAX_STANDING_QUERIES`], and the keys of the latest queries that
/// found none, as many.
#[derive(Default)]
pub(crate) struct StandingQueries {
    standing: Vec<StandingQuery>,
    /// Noted under the trader's offers read lock, so behind a lock of
    /// its own.
    missed: Mutex<Vec<QueryKey>>,
}

impl StandingQueries {
    /// The position of `q`'s standing query, if it has one.
    pub(crate) fn position(&self, q: &Query) -> Option<usize> {
        self.standing.iter().position(|s| s.key.is_for(q))
    }

    pub(crate) fn get(&self, at: usize) -> &StandingQuery {
        &self.standing[at]
    }

    /// Notes that `q` found no standing query. True if it is due one:
    /// its key missed before and is still among the latest missed keys
    /// (it is then forgotten there). Otherwise its key is noted, the
    /// oldest noted key making room.
    pub(crate) fn note_miss(&self, q: &Query) -> bool {
        let mut missed = self.missed.lock();
        if let Some(at) = missed.iter().position(|key| key.is_for(q)) {
            missed.remove(at);
            return true;
        }
        if missed.len() >= MAX_STANDING_QUERIES {
            missed.remove(0);
        }
        missed.push(QueryKey::of(q));
        false
    }

    /// Adds a standing query, evicting the oldest past the cap; returns
    /// its position.
    pub(crate) fn add(&mut self, standing: StandingQuery) -> usize {
        if self.standing.len() >= MAX_STANDING_QUERIES {
            self.standing.remove(0);
        }
        self.standing.push(standing);
        self.standing.len() - 1
    }

    /// Records a change of offer `seq` in every standing query.
    pub(crate) fn track(&mut self, seq: u64, offer: Option<(&ServiceOffer, bool)>) {
        for standing in &mut self.standing {
            standing.track(seq, offer);
        }
    }

    /// Drops every standing query.
    pub(crate) fn clear(&mut self) {
        self.standing.clear();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.standing.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::OfferId;
    use adapta_orb::ObjRef;

    fn offer(seq: u64, load: f64) -> ServiceOffer {
        ServiceOffer {
            id: OfferId::from_string(format!("offer-{seq}")),
            service_type: "Svc".into(),
            target: ObjRef::new("inproc://standing", format!("svc-{seq}"), "Svc"),
            properties: vec![("Load".into(), PropValue::Static(Value::Double(load)))],
        }
    }

    /// Offers 1..=10, of which the even ones pass `Load < 50`; offer 3
    /// is leased.
    fn standing() -> StandingQuery {
        let offers: Vec<ServiceOffer> = (1..=10)
            .map(|seq| offer(seq, if seq % 2 == 0 { 10.0 } else { 90.0 }))
            .collect();
        let q = Query::new("Svc").constraint("Load < 50");
        StandingQuery::new(
            &q,
            vec!["Svc".into()],
            Constraint::parse(&q.constraint).unwrap(),
            offers.iter().zip(1..).map(|(o, seq)| (seq, o, seq == 3)),
        )
    }

    #[test]
    fn an_exact_cutoff_walks_only_the_candidates_below_it() {
        let s = standing();
        assert_eq!(s.walk(5, |_| true), (&[2, 4][..], usize::MAX));
        assert_eq!(s.walk(100, |_| true).0, &[2, 4, 6, 8, 10]);
        assert!(s.walk(0, |_| true).0.is_empty());
    }

    #[test]
    fn an_invisible_unsure_offer_below_the_cutoff_falls_back() {
        let s = standing();
        let (seqs, limit) = s.walk(5, |seq| seq != 3);
        assert_eq!((seqs.len(), limit), (10, 5));
        // Past the cutoff, the leased offer does not matter.
        assert_eq!(s.walk(2, |seq| seq != 3), (&[2][..], usize::MAX));
        // With every offer considered, visibility is checked per offer.
        assert_eq!(s.walk(10, |seq| seq != 3).1, usize::MAX);
    }

    #[test]
    fn tracking_moves_offers_in_and_out_of_the_lists() {
        let mut s = standing();
        let passing = offer(3, 5.0);
        s.track(3, Some((&passing, false)));
        assert_eq!(s.walk(100, |_| true).0, &[2, 3, 4, 6, 8, 10]);
        assert!(s.unsure.is_empty());
        s.track(4, None);
        assert_eq!(s.walk(100, |_| true).0, &[2, 3, 6, 8, 10]);
        assert_eq!(s.accepted.len(), 9);
        let mut other = offer(11, 5.0);
        other.service_type = "Other".into();
        s.track(11, Some((&other, false)));
        assert_eq!(s.accepted.len(), 9);
    }
}
