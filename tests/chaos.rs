//! Chaos tests: the robustness tentpole end to end.
//!
//! Fault injection ([`FaultPlan`] rules on the client orb's outgoing
//! route), the recovery policy (retry with decorrelated-jitter backoff
//! plus per-target circuit breakers in [`SmartProxy`]), offer liveness
//! (leases and the quarantine sweeper) and graceful orb shutdown
//! (drain-then-stop, offer withdrawal, retryable wakeups) — exercised
//! together, the way a deployment would hit them.
//!
//! `ci.sh --chaos` runs this file plus the `exp_chaos` experiment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta::core::{BreakerConfig, RetryPolicy, SmartProxy};
use adapta::idl::{InterfaceRepository, TypeCode, Value};
use adapta::orb::{FaultAction, FaultRule, ObjRef, Orb, OrbError, ServantFn};
use adapta::telemetry::registry;
use adapta::trading::{ExportRequest, PropDef, PropMode, Query, ServiceTypeDef, Trader};

/// A TCP echo server for chaos runs: answers `ping` with `pong` and
/// sleeps `slow_for` on the `slow` operation.
fn tcp_server(name: &str, interface: &str, slow_for: Duration) -> (Orb, String) {
    let orb = Orb::new(name);
    orb.activate(
        "svc",
        ServantFn::new(interface, move |op, args| match op {
            "slow" => {
                std::thread::sleep(slow_for);
                Ok(Value::from("slow-pong"))
            }
            "echo" => Ok(Value::Seq(args)),
            _ => Ok(Value::from("pong")),
        }),
    )
    .unwrap();
    let endpoint = orb.listen_tcp("127.0.0.1:0").unwrap();
    (orb, endpoint)
}

/// Builds a client orb + trader + smart proxy over the given TCP
/// targets, ranked in the order given (first = most preferred).
fn chaos_proxy(
    client_name: &str,
    service: &str,
    targets: &[&str],
    configure: impl FnOnce(adapta::core::SmartProxyBuilder) -> adapta::core::SmartProxyBuilder,
) -> (Orb, SmartProxy) {
    let orb = Orb::new(client_name);
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new(service).with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    for (i, endpoint) in targets.iter().enumerate() {
        let target = ObjRef::new(*endpoint, "svc", service);
        trader
            .export(
                ExportRequest::new(service, target)
                    .with_property("Rank", Value::Long((targets.len() - i) as i64)),
            )
            .unwrap();
    }
    let repo = InterfaceRepository::new();
    let builder =
        SmartProxy::builder(&orb, &repo, Arc::new(trader), service).preference("max Rank");
    let proxy = configure(builder).build().unwrap();
    (orb, proxy)
}

/// Acceptance (ISSUE 3): with ≥20% of messages to the preferred
/// endpoint dropped and another slice delayed, a smart proxy armed
/// with a retry policy and a circuit breaker completes 100% of calls.
#[test]
fn retry_and_breaker_ride_out_a_fault_storm() {
    let (_flaky, flaky_ep) = tcp_server("chaos-flaky", "StormSvc", Duration::ZERO);
    let (_stable, stable_ep) = tcp_server("chaos-stable", "StormSvc", Duration::ZERO);

    let (orb, proxy) = chaos_proxy(
        "chaos-storm-client",
        "StormSvc",
        &[&flaky_ep, &stable_ep],
        |b| {
            b.retry_policy(
                RetryPolicy::new(6)
                    .base(Duration::from_millis(2))
                    .cap(Duration::from_millis(10)),
            )
            .circuit_breaker(BreakerConfig {
                window: 6,
                min_calls: 3,
                failure_threshold: 0.5,
                open_for: Duration::from_millis(40),
            })
            .dead_target_ttl(Duration::from_millis(5))
        },
    );

    // 35% of frames to the preferred endpoint vanish, 20% more crawl.
    let plan = orb.fault_plan();
    plan.add(FaultRule::new(flaky_ep.clone(), "*", FaultAction::Drop).probability(0.35));
    plan.add(
        FaultRule::new(
            flaky_ep.clone(),
            "*",
            FaultAction::Delay(Duration::from_millis(3)),
        )
        .probability(0.2),
    );

    const CALLS: usize = 150;
    let mut ok = 0;
    for _ in 0..CALLS {
        if proxy.invoke("ping", vec![]).is_ok() {
            ok += 1;
        }
    }
    assert_eq!(ok, CALLS, "the recovery policy must absorb every fault");
    assert!(plan.injected() > 0, "the storm never actually fired");
    assert!(
        proxy.retries() > 0,
        "surviving a 35% drop rate requires retries"
    );
}

/// The breaker's full state ride, observed through the metrics
/// registry: repeated failures open it, the cooldown elapses into a
/// half-open probe, and a successful probe closes it again.
#[test]
fn breaker_opens_and_recovers_through_half_open() {
    let (_server, endpoint) = tcp_server("chaos-brk", "BrkSvc", Duration::ZERO);
    let (orb, proxy) = chaos_proxy("chaos-brk-client", "BrkSvc", &[&endpoint], |b| {
        b.retry_policy(
            RetryPolicy::new(100)
                .base(Duration::from_millis(5))
                .cap(Duration::from_millis(10)),
        )
        .circuit_breaker(BreakerConfig {
            window: 4,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(25),
        })
        .dead_target_ttl(Duration::from_millis(1))
    });

    // The first five frames die, then the endpoint heals (a budgeted
    // rule is a schedule, not a coin flip).
    orb.fault_plan()
        .add(FaultRule::new(endpoint.clone(), "*", FaultAction::Drop).budget(5));

    let out = proxy.invoke("ping", vec![]).unwrap();
    assert_eq!(out, Value::from("pong"));

    let snap = registry().snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        c("smartproxy.BrkSvc.breaker.opened") >= 1,
        "breaker never opened"
    );
    assert!(
        c("smartproxy.BrkSvc.breaker.half_open") >= 1,
        "breaker never probed half-open"
    );
    assert!(
        c("smartproxy.BrkSvc.breaker.closed") >= 1,
        "breaker never closed after recovery"
    );
    assert_eq!(
        proxy.breaker_state(&proxy.current_target().unwrap()),
        Some(adapta::core::BreakerState::Closed)
    );
}

/// Acceptance (ISSUE 3): `Orb::shutdown` loses zero accepted in-flight
/// requests — every call already being dispatched completes with its
/// reply before the transports close.
#[test]
fn shutdown_drains_inflight_requests_losslessly() {
    let (server, endpoint) = tcp_server("chaos-drain", "DrainSvc", Duration::from_millis(80));
    let client = Orb::new("chaos-drain-client");
    let target = ObjRef::new(endpoint, "svc", "DrainSvc");
    // Warm the pooled connection so every thread is in-flight fast.
    client.invoke_ref(&target, "echo", vec![]).unwrap();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let client = client.clone();
            let target = target.clone();
            std::thread::spawn(move || client.invoke_ref(&target, "slow", vec![]))
        })
        .collect();
    // Let all six requests reach the servant, then pull the plug.
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        server.shutdown(Duration::from_secs(2)),
        "drain must finish within the deadline"
    );
    for h in handles {
        assert_eq!(
            h.join().unwrap().unwrap(),
            Value::from("slow-pong"),
            "an accepted in-flight request was lost by shutdown"
        );
    }
    // The stopped node refuses further work.
    assert!(client.invoke_ref(&target, "ping", vec![]).is_err());
}

/// Callers that arrive while the node is draining are woken promptly
/// with the retryable `ShuttingDown` error instead of hanging until
/// their deadline.
#[test]
fn late_callers_get_a_prompt_retryable_shutdown_error() {
    let (server, endpoint) = tcp_server("chaos-late", "LateSvc", Duration::from_millis(250));
    let client = Orb::new("chaos-late-client");
    let target = ObjRef::new(endpoint, "svc", "LateSvc");
    client.invoke_ref(&target, "echo", vec![]).unwrap();

    let inflight = {
        let client = client.clone();
        let target = target.clone();
        std::thread::spawn(move || client.invoke_ref(&target, "slow", vec![]))
    };
    std::thread::sleep(Duration::from_millis(40));
    let drainer = std::thread::spawn(move || server.shutdown(Duration::from_secs(2)));
    std::thread::sleep(Duration::from_millis(40));

    // This request lands on a draining node: rejected, not executed.
    let started = Instant::now();
    let err = client.invoke_ref(&target, "ping", vec![]).unwrap_err();
    assert!(
        matches!(err, OrbError::ShuttingDown),
        "expected ShuttingDown, got: {err}"
    );
    assert!(err.is_retryable(), "shutdown rejections must be retryable");
    assert!(
        started.elapsed() < Duration::from_millis(150),
        "draining node kept a doomed caller waiting {:?}",
        started.elapsed()
    );

    // The earlier in-flight call still completes, and the drain reports
    // success.
    assert_eq!(inflight.join().unwrap().unwrap(), Value::from("slow-pong"));
    assert!(drainer.join().unwrap());
}

/// A gracefully stopping node withdraws its offers from the trader in
/// the shutdown-hook window (the `ServiceAgent` wiring), so importers
/// stop selecting it before its transports close.
#[test]
fn graceful_shutdown_withdraws_the_nodes_offers() {
    let trader_orb = Orb::new("chaos-withdraw-trader");
    let trader = Trader::new(&trader_orb);
    trader.add_type(ServiceTypeDef::new("WdSvc")).unwrap();

    let exporter = Orb::new("chaos-withdraw-exporter");
    let svc = exporter
        .activate(
            "svc",
            ServantFn::new("WdSvc", |_, _| Ok(Value::from("pong"))),
        )
        .unwrap();
    let agent = adapta::core::ServiceAgent::new(&exporter, Arc::new(trader.clone()));
    agent.announce(ExportRequest::new("WdSvc", svc)).unwrap();
    assert_eq!(trader.query(&Query::new("WdSvc")).unwrap().len(), 1);

    assert!(exporter.shutdown(Duration::from_secs(1)));
    assert!(
        trader.query(&Query::new("WdSvc")).unwrap().is_empty(),
        "a drained node's offers must not outlive it"
    );

    // An exporter that crashed *without* the courtesy of a shutdown is
    // caught by the liveness sweeper instead.
    let ghost = ObjRef::new("inproc://chaos-withdraw-ghost", "svc", "WdSvc");
    let id = trader.export(ExportRequest::new("WdSvc", ghost)).unwrap();
    trader.sweep_liveness(Duration::from_millis(50));
    assert_eq!(trader.quarantined_offers(), vec![id]);
    assert!(trader.query(&Query::new("WdSvc")).unwrap().is_empty());
}

/// Satellite regression: a retried call honors the *overall*
/// `call_deadline` budget — the per-attempt deadline must not reset on
/// every retry, or a 150 ms budget turns into attempts × 150 ms.
#[test]
fn retries_honor_the_overall_call_deadline() {
    let (_server, endpoint) = tcp_server("chaos-budget", "BudgetSvc", Duration::ZERO);
    let (orb, proxy) = chaos_proxy("chaos-budget-client", "BudgetSvc", &[&endpoint], |b| {
        b.call_deadline(Duration::from_millis(150))
            .retry_policy(
                RetryPolicy::new(10_000)
                    .base(Duration::from_millis(2))
                    .cap(Duration::from_millis(4)),
            )
            .dead_target_ttl(Duration::from_millis(1))
    });
    // Every frame dies: only the deadline can end this call.
    orb.fault_plan()
        .add(FaultRule::new(endpoint, "*", FaultAction::Drop));

    let started = Instant::now();
    let err = proxy.invoke("ping", vec![]).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(100),
        "gave up suspiciously early ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_millis(800),
        "a 150ms budget ran for {elapsed:?}: the deadline reset per attempt"
    );
    assert!(
        err.to_string().contains("deadline") || err.to_string().contains("retries"),
        "unexpected terminal error: {err}"
    );
}

/// Satellite: `Trader::withdraw` must linearize against concurrent
/// queries — once a withdraw has acknowledged, no query started after
/// that point may return the offer, even though queries spend
/// milliseconds inside dynamic-property evaluation.
#[test]
fn withdraw_never_resurrects_offers_under_concurrent_queries() {
    let orb = Orb::new("chaos-withdraw-race");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("RaceSvc").with_property(PropDef::new(
            "Load",
            TypeCode::Double,
            PropMode::Normal,
        )))
        .unwrap();
    // A deliberately slow dynamic-property evaluator: each query holds
    // a wide window between its candidate snapshot and its reply.
    let eval_ref = orb
        .activate(
            "dp",
            ServantFn::new("DynamicPropEval", |_, _| {
                std::thread::sleep(Duration::from_micros(200));
                Ok(Value::Double(1.0))
            }),
        )
        .unwrap();

    const OFFERS: usize = 40;
    let mut ids = Vec::new();
    for i in 0..OFFERS {
        ids.push(
            trader
                .export(
                    ExportRequest::new(
                        "RaceSvc",
                        ObjRef::new(
                            "inproc://chaos-withdraw-race",
                            format!("svc-{i}"),
                            "RaceSvc",
                        ),
                    )
                    .with_dynamic_property("Load", eval_ref.clone()),
                )
                .unwrap(),
        );
    }

    let withdrawn = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
    let done = Arc::new(AtomicBool::new(false));
    let mut queriers = Vec::new();
    for _ in 0..3 {
        let trader = trader.clone();
        let withdrawn = withdrawn.clone();
        let done = done.clone();
        queriers.push(std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                // Snapshot BEFORE the query starts: everything in it was
                // acknowledged as withdrawn before this query began.
                let acked: std::collections::HashSet<String> = withdrawn.lock().unwrap().clone();
                let matches = trader
                    .query(&Query::new("RaceSvc").constraint("Load < 50"))
                    .unwrap();
                for m in &matches {
                    assert!(
                        !acked.contains(m.id.as_str()),
                        "query returned `{}` after its withdraw acked",
                        m.id
                    );
                }
            }
        }));
    }

    for id in &ids {
        trader.withdraw(id).unwrap();
        // Only after the ack does the offer enter the forbidden set.
        withdrawn.lock().unwrap().insert(id.as_str().to_owned());
        std::thread::sleep(Duration::from_millis(1));
    }
    done.store(true, Ordering::Relaxed);
    for q in queriers {
        q.join().unwrap();
    }
    assert!(trader.query(&Query::new("RaceSvc")).unwrap().is_empty());
}

/// The `_faults` servant: chaos toggled remotely at runtime, no
/// restart, no recompilation.
#[test]
fn fault_servant_scripts_chaos_remotely() {
    let orb = Orb::new("chaos-servant");
    orb.activate("svc", ServantFn::new("Tgt", |_, _| Ok(Value::from("pong"))))
        .unwrap();
    let target = ObjRef::new(orb.endpoint(), "svc", "Tgt");
    let faults = ObjRef::new(orb.endpoint(), "_faults", "FaultInjector");

    // Inject an error fault against `ping` only — the injector's own
    // operations stay clean.
    orb.invoke_ref(
        &faults,
        "inject",
        vec![
            Value::from("*"),
            Value::from("ping"),
            Value::from("error:chaos-monkey"),
        ],
    )
    .unwrap();
    let err = orb.invoke_ref(&target, "ping", vec![]).unwrap_err();
    assert!(
        err.to_string().contains("chaos-monkey"),
        "injected error missing: {err}"
    );
    assert_eq!(
        orb.invoke_ref(&target, "echo", vec![]).unwrap(),
        Value::from("pong"),
        "unmatched operations must pass through"
    );

    // And heal the node remotely.
    orb.invoke_ref(&faults, "clear", vec![]).unwrap();
    assert_eq!(
        orb.invoke_ref(&target, "ping", vec![]).unwrap(),
        Value::from("pong")
    );
}

/// Offer leases ride the wire: exported with a TTL through the trader
/// servant, expiring unless renewed.
#[test]
fn leased_offers_expire_over_the_wire_unless_renewed() {
    use adapta::trading::{RemoteTrader, TradingService};

    let trader_orb = Orb::new("chaos-lease-trader");
    let trader = Trader::new(&trader_orb);
    trader.add_type(ServiceTypeDef::new("LeaseSvc")).unwrap();
    let trader_ref = trader_orb
        .activate(
            "trader",
            adapta::trading::TraderServant::new(trader.clone()),
        )
        .unwrap();
    let client_orb = Orb::new("chaos-lease-client");
    let remote = RemoteTrader::new(client_orb.proxy(&trader_ref));

    let exporter_target = ObjRef::new("inproc://chaos-lease-client", "svc", "LeaseSvc");
    let id = remote
        .export(
            ExportRequest::new("LeaseSvc", exporter_target).with_lease(Duration::from_millis(40)),
        )
        .unwrap();
    assert_eq!(remote.query(&Query::new("LeaseSvc")).unwrap().len(), 1);

    // Two renewals keep it alive past several TTLs…
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(25));
        remote.renew(&id, None).unwrap();
    }
    assert_eq!(remote.query(&Query::new("LeaseSvc")).unwrap().len(), 1);

    // …then the exporter goes quiet and the lease runs out.
    std::thread::sleep(Duration::from_millis(55));
    assert!(remote.query(&Query::new("LeaseSvc")).unwrap().is_empty());
    trader.sweep_liveness(Duration::from_millis(20));
    assert!(trader.list_offers().is_empty(), "expired lease not swept");
    assert!(
        remote.renew(&id, None).is_err(),
        "swept offers cannot renew"
    );
}

/// A oneway whose send fails with a retryable error is recorded in the
/// target's health (here: one failure opens its breaker) and is not
/// retried — the proxy cannot know whether a oneway was delivered.
#[test]
fn failed_oneway_is_recorded_and_not_retried() {
    use std::sync::atomic::AtomicUsize;

    let orb = Orb::new("chaos-oneway");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new("OwFail")).unwrap();
    let received = Arc::new(AtomicUsize::new(0));
    let seen = received.clone();
    let target = orb
        .activate(
            "svc",
            ServantFn::new("OwFail", move |_, _| {
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        )
        .unwrap();
    trader
        .export(ExportRequest::new("OwFail", target.clone()))
        .unwrap();
    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), "OwFail")
        .retry_policy(RetryPolicy::new(5).base(Duration::ZERO))
        .circuit_breaker(BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(120),
        })
        .build()
        .unwrap();

    // Only the first frame is mangled: a retry would get through.
    orb.fault_plan()
        .add(FaultRule::new(target.endpoint.clone(), "*", FaultAction::Corrupt).budget(1));
    assert!(proxy.invoke_oneway("note", vec![]).is_err());
    assert_eq!(
        proxy.breaker_state(&target),
        Some(adapta::core::BreakerState::Open),
        "the failed send was not recorded"
    );
    assert_eq!(proxy.retries(), 0);
    // With the breaker open and nowhere else to go, the next oneway is
    // refused before it is sent.
    assert!(proxy.invoke_oneway("note", vec![]).is_err());
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(received.load(Ordering::SeqCst), 0, "a oneway was retried");
}
