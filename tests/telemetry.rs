//! End-to-end observability tests: one distributed trace spanning two
//! TCP-connected "processes" (client → trader → monitor), and the
//! `_telemetry` object answering DII queries with the global metrics
//! snapshot.

use std::sync::Arc;

use adapta::idl::{InterfaceRepository, TypeCode, Value};
use adapta::monitor::{Isolate, Monitor, MonitorServant};
use adapta::orb::{ObjRef, Orb, ServantFn};
use adapta::sim::SimTime;
use adapta::telemetry::{collector, SpanRecord};
use adapta::trading::{
    ExportRequest, PropDef, PropMode, Query, RemoteTrader, ServiceTypeDef, Trader, TraderServant,
    TradingService,
};

fn span<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no `{name}` span in {spans:#?}"))
}

/// The ISSUE's acceptance scenario: a trader import that evaluates a
/// dynamic property yields ONE trace — the client's `query` call, the
/// trader's server-side dispatch, the trader's internal query span and
/// the dynamic-property round trip to the monitor all share a TraceId
/// carried in request service contexts across two TCP hops.
#[test]
fn tcp_query_with_dynamic_property_yields_one_trace() {
    // Node 1: the trader, reachable over TCP only.
    let trader_orb = Orb::new("tele-e2e-trader");
    let trader = Trader::new(&trader_orb);
    trader
        .add_type(ServiceTypeDef::new("TeleE2E").with_property(PropDef::new(
            "LoadAvg",
            TypeCode::Double,
            PropMode::Normal,
        )))
        .unwrap();
    let trader_tcp = trader_orb.listen_tcp("127.0.0.1:0").unwrap();
    trader_orb
        .activate("trader", TraderServant::new(trader))
        .unwrap();

    // Node 2: a server whose LoadAvg is a dynamic property behind a
    // TCP-reachable monitor, exported through the remote trader.
    let server_orb = Orb::new("tele-e2e-server");
    let server_tcp = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let actor = Isolate::new("tele-e2e-server", |_| {});
    let monitor = Monitor::builder("LoadAvg")
        .source_native(|_| Value::from(0.25))
        .build(&actor, &server_orb)
        .unwrap();
    monitor.tick(SimTime::ZERO);
    server_orb
        .activate("load-monitor", MonitorServant::new(monitor))
        .unwrap();
    server_orb
        .activate("svc", ServantFn::new("TeleE2E", |_, _| Ok(Value::Null)))
        .unwrap();
    let remote =
        RemoteTrader::new(server_orb.proxy(&ObjRef::new(trader_tcp.clone(), "trader", "Trader")));
    remote
        .export(
            ExportRequest::new("TeleE2E", ObjRef::new(server_tcp.clone(), "svc", "TeleE2E"))
                .with_dynamic_property(
                    "LoadAvg",
                    ObjRef::new(server_tcp, "load-monitor", "EventMonitor"),
                ),
        )
        .unwrap();

    // The client imports; the trader evaluates LoadAvg at the monitor.
    let client_orb = Orb::new("tele-e2e-client");
    let remote = RemoteTrader::new(client_orb.proxy(&ObjRef::new(trader_tcp, "trader", "Trader")));
    let matches = remote
        .query(&Query::new("TeleE2E").constraint("LoadAvg < 1"))
        .unwrap();
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].prop("LoadAvg"), Some(&Value::from(0.25)));

    // Find the client-side span of OUR query (other tests share the
    // global collector; the node attribute pins it down), then demand
    // every hop below it lives in the same trace.
    let finished = collector().finished();
    let client_query = finished
        .iter()
        .filter(|s| s.name == "client:query")
        .find(|s| {
            s.attrs
                .iter()
                .any(|(k, v)| k == "node" && v == "tele-e2e-client")
        })
        .expect("client query span recorded");
    let trace = client_query.trace;
    let spans = collector().for_trace(trace);

    let dispatch = span(&spans, "server:query");
    let trader_query = span(&spans, "trader:query");
    let eval_client = span(&spans, "client:evalDP");
    let eval_server = span(&spans, "server:evalDP");

    // Parent chain: client:query → server:query → trader:query →
    // client:evalDP → server:evalDP, across two service-context hops.
    assert_eq!(dispatch.parent, Some(client_query.span));
    assert_eq!(trader_query.parent, Some(dispatch.span));
    assert_eq!(eval_client.parent, Some(trader_query.span));
    assert_eq!(eval_server.parent, Some(eval_client.span));
    for s in [
        client_query,
        dispatch,
        trader_query,
        eval_client,
        eval_server,
    ] {
        assert_eq!(s.trace, trace, "span `{}` left the trace", s.name);
    }
}

/// The `_telemetry` object answers a plain DII invocation with a JSON
/// snapshot containing per-operation latency quantiles and the smart
/// proxy's queue metrics — the middleware exports its observability
/// data through itself.
#[test]
fn telemetry_object_reports_quantiles_and_smartproxy_metrics() {
    use adapta::core::SmartProxy;

    let orb = Orb::new("tele-dii");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new("TeleDii")).unwrap();
    let svc = orb
        .activate(
            "svc",
            ServantFn::new("TeleDii", |op, _| match op {
                "ping" => Ok(Value::from("pong")),
                other => Err(adapta::orb::OrbError::unknown_operation("TeleDii", other)),
            }),
        )
        .unwrap();
    trader.export(ExportRequest::new("TeleDii", svc)).unwrap();

    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), "TeleDii")
        .build()
        .unwrap();
    for _ in 0..4 {
        assert_eq!(proxy.invoke("ping", vec![]).unwrap(), Value::from("pong"));
    }

    // Plain DII against the well-known `_telemetry` key.
    let telemetry = orb.proxy(&ObjRef::new(orb.endpoint(), "_telemetry", "Telemetry"));
    let json = telemetry.invoke("snapshot", vec![]).unwrap();
    let json = json.as_str().unwrap();
    // Per-operation latency quantiles…
    assert!(
        json.contains("\"orb.server.op.ping.latency\""),
        "snapshot missing per-op histogram: {json}"
    );
    let hist_section = json
        .split("\"orb.server.op.ping.latency\":")
        .nth(1)
        .unwrap();
    for field in ["\"count\":", "\"p50_us\":", "\"p99_us\":", "\"max_us\":"] {
        assert!(hist_section.starts_with('{') && hist_section.contains(field));
    }
    // …and the smart proxy's queue metrics.
    assert!(
        json.contains("\"smartproxy.TeleDii.queue_depth\""),
        "snapshot missing smart-proxy gauge: {json}"
    );

    // Scalar lookups work too (what a Rua script calls).
    let depth = telemetry
        .invoke("gauge", vec![Value::from("smartproxy.TeleDii.queue_depth")])
        .unwrap();
    assert_eq!(depth, Value::Long(0));
    let served = telemetry
        .invoke("counter", vec![Value::from("orb.tele-dii.requests_served")])
        .unwrap();
    assert!(matches!(served, Value::Long(n) if n >= 4));
}

/// Operation names chosen by remote callers cannot grow the registry:
/// dispatches to a missing object or of an operation the servant does
/// not know are recorded under `orb.server.op._unknown`, in process and
/// over TCP alike.
#[test]
fn bogus_operation_names_fold_into_unknown() {
    const NAMES: usize = 100_000;
    const TCP_CALLERS: usize = 2;

    let server = Orb::new("tele-bogus-server");
    server
        .activate(
            "svc",
            ServantFn::new("TeleBogus", |op, _| match op {
                "ping" => Ok(Value::from("pong")),
                other => Err(adapta::orb::OrbError::unknown_operation("TeleBogus", other)),
            }),
        )
        .unwrap();
    let tcp = server.listen_tcp("127.0.0.1:0").unwrap();
    let inproc = format!("inproc://{}", server.node_name());
    let client = Orb::new("tele-bogus-client");
    for endpoint in [&inproc, &tcp] {
        let target = ObjRef::new(endpoint.clone(), "svc", "TeleBogus");
        assert_eq!(
            client.invoke_ref(&target, "ping", vec![]).unwrap(),
            Value::from("pong")
        );
    }
    let registry = adapta::telemetry::registry();
    let names_before = registry.name_count();
    let tracked_before = server.tracked_operations();
    let unknown = registry.counter("orb.server.op._unknown.errors");
    let unknown_before = unknown.value();

    // Half the names go to a servant that does not know them, half to
    // a key nothing is active under; even ones in process, odd ones
    // over TCP.
    let call = |client: &Orb, endpoint: &str, i: usize| {
        let key = if (i / 2).is_multiple_of(2) {
            "svc"
        } else {
            "ghost"
        };
        let target = ObjRef::new(endpoint, key, "TeleBogus");
        let op = format!("bogus-{i}");
        assert!(client.invoke_ref(&target, &op, vec![]).is_err(), "{op}");
    };
    for i in (0..NAMES).step_by(2) {
        call(&client, &inproc, i);
    }
    std::thread::scope(|scope| {
        for caller in 0..TCP_CALLERS {
            let (client, tcp, call) = (&client, &tcp, &call);
            scope.spawn(move || {
                for i in (1..NAMES).step_by(2).skip(caller).step_by(TCP_CALLERS) {
                    call(client, tcp, i);
                }
            });
        }
    });

    assert_eq!(server.tracked_operations(), tracked_before);
    // Other tests in this binary register names of their own meanwhile;
    // the bound is far below one name per bogus operation.
    let grown = registry.name_count().saturating_sub(names_before);
    assert!(grown < 500, "registry grew by {grown} names");
    assert!(unknown.value() - unknown_before >= NAMES as u64);
}
