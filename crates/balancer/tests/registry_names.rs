//! Routing creates no metric names: endpoints are chosen by whoever
//! exports offers, so a name per endpoint would let them grow the
//! process-wide registry without bound.

use std::collections::HashSet;
use std::sync::Arc;

use adapta_balancer::ReplicaSet;
use adapta_orb::{ObjRef, Orb};
use adapta_telemetry::registry;
use adapta_trading::{ExportRequest, Query, ServiceTypeDef, Trader};

#[test]
fn picking_replicas_at_new_endpoints_adds_no_registry_names() {
    let orb = Orb::new("names");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new("Names")).unwrap();
    for i in 0..500 {
        let target = ObjRef::new(
            format!("tcp://10.0.{}.{}:7000", i / 256, i % 256),
            "svc",
            "Names",
        );
        trader.export(ExportRequest::new("Names", target)).unwrap();
    }
    let set = ReplicaSet::new(Arc::new(trader), Query::new("Names").return_card(500));
    set.refresh().unwrap();
    assert_eq!(set.len(), 500);

    let names = registry().name_count();
    let picked: HashSet<String> = (0..500)
        .map(|_| set.pick(None).unwrap().target().endpoint.clone())
        .collect();
    assert_eq!(picked.len(), 500, "every replica was picked");
    assert_eq!(registry().name_count(), names);
    let picks: u64 = set.replicas().iter().map(|r| r.stats().picks()).sum();
    assert_eq!(picks, 500, "the replicas' stats count the picks");
}
