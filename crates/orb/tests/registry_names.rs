//! A dropped orb takes its own instruments (`orb.<node>.*`) out of the
//! process-wide metrics registry, so building and dropping nodes does
//! not grow it.
//!
//! Its own test binary: it counts every name in the registry.

use std::time::Duration;

use adapta_idl::Value;
use adapta_orb::{FaultAction, FaultRule, ObjRef, Orb, ServantFn};
use adapta_telemetry::registry;

#[test]
fn dropped_orbs_leave_no_registry_names() {
    let server = Orb::new("names-server");
    server
        .activate(
            "echo",
            ServantFn::new("Echo", |_, args| Ok(args[0].clone())),
        )
        .unwrap();
    let target = ObjRef::new(server.listen_tcp("127.0.0.1:0").unwrap(), "echo", "Echo");
    // The server's per-operation metrics are shared by every caller.
    let warmup = Orb::new("names-warmup");
    warmup
        .invoke_ref(&target, "echo", vec![Value::Long(0)])
        .unwrap();
    drop(warmup);
    let names = registry().name_count();

    for i in 0..1000 {
        drop(Orb::new(&format!("names-{i}")));
    }
    assert_eq!(registry().name_count(), names);

    // A node that called over TCP and injected a fault takes its TCP
    // client's gauges and its fault counters along.
    for i in 0..20 {
        let client = Orb::new(&format!("names-tcp-{i}"));
        client
            .fault_plan()
            .add(FaultRule::new("*", "echo", FaultAction::Delay(Duration::ZERO)).budget(1));
        let out = client.invoke_ref(&target, "echo", vec![Value::Long(i)]);
        assert_eq!(out.unwrap(), Value::Long(i));
        assert_eq!(client.fault_plan().injected(), 1);
    }
    assert_eq!(registry().name_count(), names);
}
