//! A federated query in a full mesh of traders, in a process of its
//! own so the process-wide `trading.federation.*` counters see only
//! this query.

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

/// Three traders that each link the other two, queried at a hop count
/// above the trader's cap: the query's request id lets each trader
/// answer it once, so no link carries it twice, and every offer comes
/// back once.
#[test]
fn a_full_mesh_forwards_a_query_at_most_once_per_link() {
    let nodes: Vec<_> = ["t-mesh-a", "t-mesh-b", "t-mesh-c"]
        .into_iter()
        .map(node)
        .collect();
    for (i, (_, trader, _)) in nodes.iter().enumerate() {
        trader
            .export(
                ExportRequest::new(
                    "Hello",
                    ObjRef::new(format!("inproc://m{i}"), "svc", "Hello"),
                )
                .with_property("LoadAvg", Value::from(i as f64)),
            )
            .unwrap();
        for (j, (_, _, other)) in nodes.iter().enumerate() {
            if i != j {
                trader.add_link(format!("to-{j}"), other.clone());
            }
        }
    }
    let forwards = registry().counter("trading.federation.forwards");
    let repeats = registry().counter("trading.federation.repeated_requests");
    let (forwards_before, repeats_before) = (forwards.value(), repeats.value());

    let matches = nodes[0].1.query(&Query::new("Hello").hops(14)).unwrap();

    let directed_links = 6;
    let sent = forwards.value() - forwards_before;
    assert!(
        sent <= directed_links,
        "{sent} forwards over {directed_links} links"
    );
    // Every forward reaches a trader that either answers it first or
    // has answered it already.
    assert_eq!(repeats.value() - repeats_before, sent - 2);
    let mut endpoints: Vec<&str> = matches.iter().map(|m| m.target.endpoint.as_str()).collect();
    endpoints.sort_unstable();
    assert_eq!(endpoints, ["inproc://m0", "inproc://m1", "inproc://m2"]);
}
