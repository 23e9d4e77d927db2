//! End-to-end tests of the Figure 5/6 topology: client application →
//! smart proxy → trader + monitors + service agents → servers, over
//! both the in-process and the TCP transports.

use std::sync::Arc;
use std::time::Duration;

use adapta::core::{script_env, Infrastructure, ServerSpec, SmartProxy};
use adapta::idl::{InterfaceRepository, Value};
use adapta::monitor::{Isolate, Monitor, MonitorServant};
use adapta::orb::{Orb, ServantFn};
use adapta::sim::SimTime;
use adapta::trading::{
    ExportRequest, PropDef, PropMode, Query, RemoteTrader, ServiceTypeDef, Trader, TraderServant,
    TradingService,
};

#[test]
fn fig5_smart_proxy_activates_different_components_over_time() {
    // "The same smart proxy can activate different components over
    // time, trying to fulfill the application's requirements."
    let infra = Infrastructure::in_process().unwrap();
    for host in ["f5-a", "f5-b", "f5-c"] {
        infra.spawn_server(ServerSpec::echo("F5", host)).unwrap();
    }
    let proxy = infra
        .smart_proxy("F5")
        .constraint("LoadAvg < 2 and LoadAvgIncreasing == no")
        .preference("min LoadAvg")
        .subscribe(adapta::core::Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, value, m) return value[1] > 2 end",
        ))
        .build()
        .unwrap();

    let mut seen = std::collections::BTreeSet::new();
    for round in 0..3 {
        let who = proxy.invoke("whoami", vec![]).unwrap();
        let host = who.as_str().unwrap().to_owned();
        seen.insert(host.clone());
        // Overload whoever we're on; the proxy should move on.
        infra.set_background(&host, 5.0);
        infra.advance_in_steps(Duration::from_secs(180), Duration::from_secs(30));
        let _ = round;
    }
    assert!(
        seen.len() >= 2,
        "proxy should have used multiple components, used {seen:?}"
    );
}

#[test]
fn fig6_full_topology_over_tcp() {
    // Trader in its own "process" (own orb + TCP listener), servers and
    // client talking to it remotely — the paper's deployment shape.
    let trader_orb = Orb::new("f6-trader");
    let trader = Trader::new(&trader_orb);
    trader
        .add_type(
            ServiceTypeDef::new("F6Svc")
                .with_property(PropDef::new(
                    "LoadAvg",
                    adapta::idl::TypeCode::Double,
                    PropMode::Normal,
                ))
                .with_property(PropDef::new(
                    "Host",
                    adapta::idl::TypeCode::Str,
                    PropMode::Readonly,
                )),
        )
        .unwrap();
    let trader_tcp = trader_orb.listen_tcp("127.0.0.1:0").unwrap();
    trader_orb
        .activate("trader", TraderServant::new(trader))
        .unwrap();

    // Server "process": serves over TCP, announces through the remote
    // trader, exposes its monitor as a TCP-reachable dynamic property.
    let server_orb = Orb::new("f6-server");
    let server_tcp = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let actor = Isolate::new("f6-server", |_| {});
    let monitor = Monitor::builder("LoadAvg")
        .source_native(|_| Value::from(1.5))
        .build(&actor, &server_orb)
        .unwrap();
    monitor.tick(SimTime::ZERO);
    let monitor_key = "load-monitor";
    server_orb
        .activate(monitor_key, MonitorServant::new(monitor))
        .unwrap();
    let monitor_ref = adapta::orb::ObjRef::new(server_tcp.clone(), monitor_key, "EventMonitor");
    let service_ref = {
        server_orb
            .activate(
                "hello",
                ServantFn::new("F6Svc", |op, args| match op {
                    "hello" => Ok(Value::from(format!(
                        "hello, {}",
                        args.first().and_then(Value::as_str).unwrap_or("?")
                    ))),
                    other => Err(adapta::orb::OrbError::unknown_operation("F6Svc", other)),
                }),
            )
            .unwrap();
        adapta::orb::ObjRef::new(server_tcp, "hello", "F6Svc")
    };
    {
        let remote_trader = RemoteTrader::new(server_orb.proxy(&adapta::orb::ObjRef::new(
            trader_tcp.clone(),
            "trader",
            "Trader",
        )));
        remote_trader
            .export(
                ExportRequest::new("F6Svc", service_ref)
                    .with_dynamic_property("LoadAvg", monitor_ref)
                    .with_property("Host", Value::from("f6-server")),
            )
            .unwrap();
    }

    // Client "process": discovers through the remote trader and calls
    // the server — everything over TCP.
    let client_orb = Orb::new("f6-client");
    let remote_trader = RemoteTrader::new(
        client_orb.proxy(&adapta::orb::ObjRef::new(trader_tcp, "trader", "Trader")),
    );
    let repo = InterfaceRepository::new();
    script_env::register_monitor_interfaces(&repo);
    let proxy = SmartProxy::builder(&client_orb, &repo, Arc::new(remote_trader), "F6Svc")
        .constraint("LoadAvg < 50")
        .preference("min LoadAvg")
        .build()
        .unwrap();
    let out = proxy
        .invoke("hello", vec![Value::from("tcp world")])
        .unwrap();
    assert_eq!(out, Value::from("hello, tcp world"));
    // The dynamic property was evaluated across TCP by the trader.
    let offer = proxy.current_offer().unwrap();
    assert_eq!(offer.prop("LoadAvg"), Some(&Value::from(1.5)));
}

#[test]
fn remote_trader_equals_local_trader_results() {
    let orb = Orb::new("parity");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("P").with_property(PropDef::new(
            "LoadAvg",
            adapta::idl::TypeCode::Double,
            PropMode::Normal,
        )))
        .unwrap();
    for i in 0..5 {
        trader
            .export(
                ExportRequest::new(
                    "P",
                    adapta::orb::ObjRef::new("inproc://parity", format!("s{i}"), "P"),
                )
                .with_property("LoadAvg", Value::from(i as f64)),
            )
            .unwrap();
    }
    let objref = orb
        .activate("trader", TraderServant::new(trader.clone()))
        .unwrap();
    let remote = RemoteTrader::new(orb.proxy(&objref));
    let q = Query::new("P")
        .constraint("LoadAvg < 3")
        .preference("max LoadAvg");
    let local_matches = trader.query(&q).unwrap();
    let remote_matches = remote.query(&q).unwrap();
    assert_eq!(local_matches, remote_matches);
    assert_eq!(local_matches.len(), 3);
    assert_eq!(local_matches[0].prop("LoadAvg"), Some(&Value::from(2.0)));
}

#[test]
fn service_agents_configure_monitors_through_scripts() {
    // "These service agents — typically implemented as Lua scripts —
    // can create new monitors or configure existing ones."
    let infra = Infrastructure::in_process().unwrap();
    let server = infra
        .spawn_server(ServerSpec::echo("AgentSvc", "agent-host"))
        .unwrap();
    // The agent's configuration script adds a new aspect to the live
    // LoadAvg monitor.
    server
        .monitor_host()
        .eval(
            r#"
            __lmon:defineAspect("FifteenMin", [[function(self, currval, monitor)
                return currval[3]
            end]])
        "#,
        )
        .unwrap();
    infra.advance(Duration::from_secs(60));
    assert!(server
        .monitor()
        .defined_aspects()
        .contains(&"FifteenMin".to_owned()));
    assert!(server.monitor().aspect_value("FifteenMin").is_some());
}

#[test]
fn new_service_types_integrate_at_run_time() {
    // LuaCorba claim (1): "identification of new service types and the
    // integration of their instances into a dynamically assembled
    // application" — a type unknown at 'compile time' appears, and the
    // client starts using it without any rebuild.
    let infra = Infrastructure::in_process().unwrap();
    // Nothing exists yet.
    assert!(infra.trader().query(&Query::new("BrandNew")).is_err());

    infra
        .spawn_server(ServerSpec::script(
            "BrandNew",
            "brand-new-host",
            r#"return {
                transmogrify = function(self, x) return x * 2 + 1 end
            }"#,
        ))
        .unwrap();
    let proxy = infra.smart_proxy("BrandNew").build().unwrap();
    assert_eq!(
        proxy.invoke("transmogrify", vec![Value::Long(20)]).unwrap(),
        Value::Long(41)
    );
}

#[test]
fn stringified_references_bootstrap_clients() {
    // IOR-style bootstrap: a reference printed by one node is usable by
    // another with no shared state but the string.
    let server = Orb::new("ior-server");
    let objref = server
        .activate(
            "svc",
            ServantFn::new("Echo", |_, args| {
                Ok(args.into_iter().next().unwrap_or(Value::Null))
            }),
        )
        .unwrap();
    let uri = objref.to_uri();
    assert!(uri.starts_with("adapta-ref:"));

    let client = Orb::new("ior-client");
    let proxy = client.proxy_from_uri(&uri).unwrap();
    assert_eq!(
        proxy.invoke("echo", vec![Value::from("ping")]).unwrap(),
        Value::from("ping")
    );
}
