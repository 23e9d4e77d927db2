//! Federation merge at scale, in a process of its own so the
//! process-wide `trading.federation.*` counters see only this query.

use adapta_idl::{TypeCode, Value};
use adapta_orb::{ObjRef, Orb};
use adapta_telemetry::registry;
use adapta_trading::{
    ExportRequest, PropDef, PropMode, Query, ServiceTypeDef, Trader, TraderServant,
};

fn node(name: &str) -> (Orb, Trader, ObjRef) {
    let orb = Orb::new(name);
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("Hello").with_property(PropDef::new(
            "LoadAvg",
            TypeCode::Double,
            PropMode::Mandatory,
        )))
        .unwrap();
    let objref = orb
        .activate("trader", TraderServant::new(trader.clone()))
        .unwrap();
    (orb, trader, objref)
}

fn export(trader: &Trader, endpoint: String, load: f64) {
    trader
        .export(
            ExportRequest::new("Hello", ObjRef::new(endpoint, "svc", "Hello"))
                .with_property("LoadAvg", Value::from(load)),
        )
        .unwrap();
}

/// B holds copies of A's 500 offers (the same ids and targets, as when
/// a server exports to two traders that number offers alike) and 3 of
/// its own: each offer is kept once, in local-then-remote order, and
/// each copy is counted as a duplicate. (A cycle returns no copies:
/// its request id stops the query at the trader it left.)
#[test]
fn hundreds_of_offers_a_link_returns_again_merge_once() {
    let (_oa, a, _ra) = node("t-fed-merge-a");
    let (_ob, b, rb) = node("t-fed-merge-b");
    for n in 0..500 {
        export(&a, format!("inproc://a{n}"), f64::from(n));
        export(&b, format!("inproc://a{n}"), f64::from(n));
    }
    for n in 0..3 {
        export(&b, format!("inproc://b{n}"), f64::from(n));
    }
    a.add_link("to-b", rb);
    let duplicates = registry().counter("trading.federation.duplicates");
    let before = duplicates.value();
    let matches = a
        .query(&Query::new("Hello").hops(1).return_card(1000))
        .unwrap();
    assert_eq!(duplicates.value() - before, 500);
    let endpoints: Vec<&str> = matches.iter().map(|m| m.target.endpoint.as_str()).collect();
    let expected: Vec<String> = (0..500)
        .map(|n| format!("inproc://a{n}"))
        .chain((0..3).map(|n| format!("inproc://b{n}")))
        .collect();
    assert_eq!(endpoints, expected);
}
