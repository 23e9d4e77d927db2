//! Equivalence of `Trader::query` with a reference query: the
//! straightforward algorithm that copies every visible candidate out of
//! the trader, resolves its properties, then filters and orders the
//! copies. Random offer sets mix static, dynamic and failing dynamic
//! properties over a subtype chain, with withdrawn and quarantined
//! offers; random queries vary every import policy that shapes the
//! result. The trader must return the same matches in the same order.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adapta_idl::{TypeCode, Value};
use adapta_orb::{ObjRef, Orb, OrbError, ServantFn};
use adapta_trading::{
    Constraint, ExportRequest, OfferMatch, Preference, PropDef, PropMode, PropValue, Query,
    ServiceOffer, ServiceTypeDef, Trader,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `Base` <- `Mid` <- `Leaf`, and an unrelated `Other`.
const TYPES: [&str; 4] = ["Base", "Mid", "Leaf", "Other"];
const TAGS: [&str; 4] = ["no", "yes", "alpha", "beta"];
const CONSTRAINTS: [&str; 7] = [
    "",
    "Load < 50",
    "Load < 50 and Tag == no",
    "exist Tag or Load > 20",
    "Tag ~ 'a'",
    "not exist Load",
    "(Load < 50 and Tag == no) or (Load * 2 + 1 < 80 and exist Tag and Tag ~ 'e')",
];
const PREFERENCES: [&str; 7] = [
    "first",
    "random",
    "min Load",
    "max Load",
    "with Load < 30",
    "max Tag",
    "min Load * -1 + 3",
];
/// Seed for the `random` preference, on both sides.
const SHUFFLE_SEED: u64 = 0x5eed;

/// How an offer carries one property.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Absent,
    Static,
    /// Evaluated through a servant that answers.
    Dynamic,
    /// Evaluated through a servant that fails.
    Failing,
    /// Evaluated through an object key nobody activated.
    Missing,
}

fn kind(n: u8) -> Kind {
    match n {
        0 => Kind::Absent,
        1 => Kind::Static,
        2 => Kind::Dynamic,
        3 => Kind::Failing,
        _ => Kind::Missing,
    }
}

/// One generated offer: service type, (Load kind, value), (Tag kind,
/// value), whether its exporter answers liveness pings, and whether it
/// is withdrawn before the query.
type OfferSpec = (usize, (u8, u32), (u8, usize), bool, bool);

fn offer_strategy() -> impl Strategy<Value = OfferSpec> {
    (
        0..TYPES.len(),
        // Loads on a coarse grid, so preference ties are common.
        (0u8..5, (0u32..10).prop_map(|n| n * 10)),
        (0u8..5, 0..TAGS.len()),
        (0u8..4).prop_map(|n| n != 0),
        (0u8..5).prop_map(|n| n == 0),
    )
}

/// One generated query (run once per preference): service type (of
/// the chain), exact type match, constraint, search_card, (return_card,
/// use_dynamic).
type QuerySpec = (usize, bool, usize, u32, (u32, bool));

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        0..3usize,
        (0u8..4).prop_map(|n| n == 0),
        0..CONSTRAINTS.len(),
        0u32..24,
        (0u32..24, any::<bool>()),
    )
}

fn trader_with(offers: &[OfferSpec]) -> (Orb, Trader) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let orb = Orb::new(&format!(
        "proptest-query-{}",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let trader = Trader::new(&orb);
    let props = |def: ServiceTypeDef| {
        def.with_property(PropDef::new("Load", TypeCode::Double, PropMode::Normal))
            .with_property(PropDef::new("Tag", TypeCode::Str, PropMode::Normal))
    };
    trader.add_type(props(ServiceTypeDef::new("Base"))).unwrap();
    trader
        .add_type(ServiceTypeDef::new("Mid").extends("Base"))
        .unwrap();
    trader
        .add_type(ServiceTypeDef::new("Leaf").extends("Mid"))
        .unwrap();
    trader
        .add_type(props(ServiceTypeDef::new("Other")))
        .unwrap();

    let live = orb
        .activate("svc", ServantFn::new("Svc", |_, _| Ok(Value::Null)))
        .unwrap();
    let dead = ObjRef::new("inproc://proptest-query-nowhere", "svc", "Svc");
    let failing = orb
        .activate(
            "dp-failing",
            ServantFn::new("DynamicPropEval", |_, _| {
                Err(OrbError::exception("evaluator down"))
            }),
        )
        .unwrap();
    let missing = ObjRef::new(orb.endpoint(), "dp-never-activated", "DynamicPropEval");

    let mut withdrawn = Vec::new();
    for (i, &(ty, (load_kind, load), (tag_kind, tag), answers, withdraw)) in
        offers.iter().enumerate()
    {
        let target = if answers { live.clone() } else { dead.clone() };
        let mut request = ExportRequest::new(TYPES[ty], target);
        for (name, kind, value) in [
            ("Load", kind(load_kind), Value::Double(f64::from(load))),
            ("Tag", kind(tag_kind), Value::from(TAGS[tag])),
        ] {
            let eval_ref = match kind {
                Kind::Absent => continue,
                Kind::Static => {
                    request = request.with_property(name, value);
                    continue;
                }
                Kind::Dynamic => orb
                    .activate(
                        format!("dp-{i}-{name}").as_str(),
                        ServantFn::new("DynamicPropEval", move |_, _| Ok(value.clone())),
                    )
                    .unwrap(),
                Kind::Failing => failing.clone(),
                Kind::Missing => missing.clone(),
            };
            request = request.with_dynamic_property(name, eval_ref);
        }
        let id = trader.export(request).unwrap();
        if withdraw {
            withdrawn.push(id);
        }
    }
    for id in withdrawn {
        trader.withdraw(&id).unwrap();
    }
    // Quarantines every offer whose exporter does not answer.
    trader.sweep_liveness(Duration::from_millis(50));
    (orb, trader)
}

/// Preference order as the reference computes it: each comparison
/// evaluates both offers' expressions, failures last, ties stable.
fn reference_order(
    preference: &Preference,
    props: &[Vec<(String, Value)>],
    rng: &mut StdRng,
) -> Vec<usize> {
    let rank = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(CmpOrdering::Equal),
        (Some(_), None) => CmpOrdering::Less,
        (None, Some(_)) => CmpOrdering::Greater,
        (None, None) => CmpOrdering::Equal,
    };
    let mut order: Vec<usize> = (0..props.len()).collect();
    match preference {
        Preference::First => {}
        Preference::Random => order.shuffle(rng),
        Preference::Max(e) => order.sort_by(|&a, &b| rank(e.score(&props[b]), e.score(&props[a]))),
        Preference::Min(e) => order.sort_by(|&a, &b| rank(e.score(&props[a]), e.score(&props[b]))),
        Preference::With(e) => order.sort_by_key(|&i| match e.holds(&props[i]) {
            Some(true) => 0,
            Some(false) => 1,
            None => 2,
        }),
    }
    order
}

/// The reference query: copy every visible candidate, resolve its
/// properties, filter, then order copies of the matches.
fn reference_query(orb: &Orb, trader: &Trader, q: &Query) -> Vec<OfferMatch> {
    let constraint = Constraint::parse(&q.constraint).unwrap();
    let preference = Preference::parse(&q.preference).unwrap();
    let quarantined = trader.quarantined_offers();
    let candidates: Vec<ServiceOffer> = trader
        .list_offers()
        .into_iter()
        .filter(|offer| !quarantined.contains(&offer.id))
        .filter(|offer| {
            if q.policies.exact_type_match {
                offer.service_type == q.service_type
            } else {
                trader.is_subtype(&offer.service_type, &q.service_type)
            }
        })
        .take(q.policies.search_card as usize)
        .collect();
    let mut matches = Vec::new();
    for offer in candidates {
        let mut resolved = Vec::new();
        let mut dynamic = Vec::new();
        for (name, value) in &offer.properties {
            match value {
                PropValue::Static(v) => resolved.push((name.clone(), v.clone())),
                PropValue::Dynamic(eval_ref) => {
                    dynamic.push((name.clone(), eval_ref.clone()));
                    if !q.policies.use_dynamic_properties {
                        continue;
                    }
                    if let Ok(v) =
                        orb.invoke_ref(eval_ref, "evalDP", vec![Value::from(name.as_str())])
                    {
                        resolved.push((name.clone(), v));
                    }
                }
            }
        }
        if constraint.matches(&resolved) {
            matches.push(OfferMatch {
                id: offer.id.clone(),
                service_type: offer.service_type.clone(),
                target: offer.target.clone(),
                properties: resolved,
                dynamic,
            });
        }
    }
    let props: Vec<Vec<(String, Value)>> = matches.iter().map(|m| m.properties.clone()).collect();
    let order = reference_order(
        &preference,
        &props,
        &mut StdRng::seed_from_u64(SHUFFLE_SEED),
    );
    let mut ordered: Vec<OfferMatch> = order.into_iter().map(|i| matches[i].clone()).collect();
    ordered.truncate(q.policies.return_card as usize);
    ordered
}

proptest! {
    #[test]
    fn query_agrees_with_the_clone_then_resolve_reference(
        offers in proptest::collection::vec(offer_strategy(), 0..20),
        (ty, exact, constraint, search_card, (return_card, use_dynamic)) in query_strategy(),
    ) {
        let (orb, trader) = trader_with(&offers);
        for preference in PREFERENCES {
            let q = Query::new(TYPES[ty])
                .exact_type(exact)
                .constraint(CONSTRAINTS[constraint])
                .preference(preference)
                .search_card(search_card)
                .return_card(return_card)
                .use_dynamic(use_dynamic)
                .hops(0);
            let expected = reference_query(&orb, &trader, &q);
            trader.reseed(SHUFFLE_SEED);
            let actual = trader.query(&q).unwrap();
            prop_assert_eq!(actual, expected, "offers {:?}, query {:?}", offers, q);
        }
    }
}
