//! Adaptation-behaviour tests: postponed vs. immediate event handling,
//! dynamic strategy replacement, failure injection, and the paper's
//! transparency claim (the same adaptation code across different
//! functional interfaces).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta::core::{
    policies::{load_sharing_proxy, BindingPolicy, LoadSharingConfig},
    Infrastructure, ServerSpec, Subscription,
};
use adapta::idl::Value;

fn two_server_infra(service: &str, a: &str, b: &str) -> Infrastructure {
    let infra = Infrastructure::in_process().unwrap();
    infra.spawn_server(ServerSpec::echo(service, a)).unwrap();
    infra.spawn_server(ServerSpec::echo(service, b)).unwrap();
    infra
}

#[test]
fn postponed_handling_defers_to_next_invocation() {
    let infra = two_server_infra("PostSvc", "post-a", "post-b");
    let hits = Arc::new(AtomicUsize::new(0));
    let hits_clone = hits.clone();
    let proxy = infra
        .smart_proxy("PostSvc")
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return v[1] > 1 end",
        ))
        .strategy_native("LoadIncrease", move |_proxy, _event| {
            hits_clone.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .unwrap();
    let bound = proxy.invoke("whoami", vec![]).unwrap();
    infra.set_background(bound.as_str().unwrap(), 4.0);
    infra.advance_in_steps(Duration::from_secs(120), Duration::from_secs(30));

    // Events arrived but the strategy has NOT run yet: postponed.
    assert!(proxy.pending_events() > 0);
    assert_eq!(hits.load(Ordering::Relaxed), 0);

    // The next invocation drains the queue first.
    proxy.invoke("hello", vec![Value::from("x")]).unwrap();
    assert_eq!(proxy.pending_events(), 0);
    assert!(hits.load(Ordering::Relaxed) > 0);
}

#[test]
fn immediate_handling_runs_at_notification_time() {
    let infra = two_server_infra("ImmSvc", "imm-a", "imm-b");
    let hits = Arc::new(AtomicUsize::new(0));
    let hits_clone = hits.clone();
    let proxy = infra
        .smart_proxy("ImmSvc")
        .preference("min LoadAvg")
        .immediate_handling()
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return v[1] > 1 end",
        ))
        .strategy_native("LoadIncrease", move |_proxy, _event| {
            hits_clone.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .unwrap();
    let bound = proxy.invoke("whoami", vec![]).unwrap();
    infra.set_background(bound.as_str().unwrap(), 4.0);
    infra.advance_in_steps(Duration::from_secs(120), Duration::from_secs(30));

    // No invocation needed: the strategy already ran.
    assert_eq!(proxy.pending_events(), 0);
    assert!(hits.load(Ordering::Relaxed) > 0);
}

#[test]
fn strategies_hot_swap_without_stopping_the_client() {
    let infra = two_server_infra("SwapSvc", "swap-a", "swap-b");
    let proxy = infra
        .smart_proxy("SwapSvc")
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return v[1] > 1 end",
        ))
        .build()
        .unwrap();

    // Version 1 of the strategy: count events in script state.
    proxy
        .set_strategy_script(
            "LoadIncrease",
            "function(self, event) v1_count = (v1_count or 0) + 1 end",
        )
        .unwrap();
    let bound = proxy.invoke("whoami", vec![]).unwrap();
    infra.set_background(bound.as_str().unwrap(), 4.0);
    infra.advance_in_steps(Duration::from_secs(90), Duration::from_secs(30));
    proxy.invoke("hello", vec![Value::from("x")]).unwrap();
    let v1 = proxy.actor().eval("return v1_count or 0").unwrap();
    assert!(matches!(v1[0], Value::Long(n) if n > 0));

    // Hot swap: version 2 replaces version 1 — no rebuild, no restart.
    proxy
        .set_strategy_script(
            "LoadIncrease",
            "function(self, event) v2_count = (v2_count or 0) + 1 end",
        )
        .unwrap();
    infra.advance_in_steps(Duration::from_secs(90), Duration::from_secs(30));
    proxy.invoke("hello", vec![Value::from("x")]).unwrap();
    let v1_after = proxy.actor().eval("return v1_count or 0").unwrap();
    let v2 = proxy.actor().eval("return v2_count or 0").unwrap();
    assert_eq!(v1, v1_after, "old strategy must not run after the swap");
    assert!(matches!(v2[0], Value::Long(n) if n > 0));
}

#[test]
fn adapt_now_applies_strategies_on_demand() {
    // "A smart proxy can also explicitly activate the adaptation
    // strategies that it implements, independently of received events."
    let infra = two_server_infra("NowSvc", "now-a", "now-b");
    let hits = Arc::new(AtomicUsize::new(0));
    let hits_clone = hits.clone();
    let proxy = infra
        .smart_proxy("NowSvc")
        .strategy_native("Tune", move |_p, event| {
            assert_eq!(event, "Tune");
            hits_clone.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .unwrap();
    proxy.adapt_now("Tune");
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

#[test]
fn withdrawn_offers_stop_being_selected() {
    let infra = two_server_infra("WdSvc", "wd-a", "wd-b");
    let a = infra.server("wd-a").unwrap();
    a.withdraw();
    let proxy = infra
        .smart_proxy("WdSvc")
        .preference("min LoadAvg")
        .build()
        .unwrap();
    assert_eq!(proxy.invoke("whoami", vec![]).unwrap(), Value::from("wd-b"));
}

#[test]
fn all_servers_dead_is_a_clean_error() {
    let infra = two_server_infra("DeadSvc", "dead-a", "dead-b");
    let proxy = infra.smart_proxy("DeadSvc").build().unwrap();
    infra.server("dead-a").unwrap().crash();
    infra.server("dead-b").unwrap().crash();
    let err = proxy.invoke("hello", vec![Value::from("x")]).unwrap_err();
    // Either unbound (no live replacement) or the second server's
    // failure surfaced — but never a panic or a hang.
    let msg = err.to_string();
    assert!(
        msg.contains("unbound") || msg.contains("no object"),
        "unexpected error: {msg}"
    );
}

#[test]
fn same_adaptation_code_reused_across_applications() {
    // Section V: "Because the reconfiguration facilities are transparent
    // to the applications' functional behavior, we could use the same
    // adaptation code we used in the HelloWorld application" for the
    // image viewer. Here: identical policy construction for both
    // service types; only the functional calls differ.
    let infra = Infrastructure::in_process().unwrap();
    for host in ["hello-1", "hello-2"] {
        infra
            .spawn_server(ServerSpec::echo("HelloWorld", host))
            .unwrap();
    }
    for host in ["img-1", "img-2"] {
        infra
            .spawn_server(ServerSpec::image("ImageService", host, 4, 128))
            .unwrap();
    }
    let config = LoadSharingConfig::with_threshold(3.0);
    let build = |service_type: &str| {
        load_sharing_proxy(
            infra.orb(),
            infra.repository(),
            Arc::new(infra.trader().clone()),
            service_type,
            BindingPolicy::AutoAdaptive,
            config,
        )
        .unwrap()
    };
    let hello = build("HelloWorld");
    let viewer = build("ImageService");

    assert_eq!(
        hello.invoke("hello", vec![Value::from("ana")]).unwrap(),
        Value::from("hello, ana")
    );
    let img = viewer.invoke("getImage", vec![Value::Long(0)]).unwrap();
    assert_eq!(img.as_bytes().unwrap().len(), 128);

    // Both adapt with the same strategy code when their host overloads.
    for proxy in [&hello, &viewer] {
        let bound = proxy.invoke("whoami", vec![]).unwrap();
        infra.set_background(bound.as_str().unwrap(), 6.0);
    }
    infra.advance_in_steps(Duration::from_secs(240), Duration::from_secs(30));
    let hello_after = hello.invoke("whoami", vec![]).unwrap();
    let viewer_after = viewer.invoke("whoami", vec![]).unwrap();
    assert_eq!(hello_after, Value::from("hello-2"));
    assert_eq!(viewer_after, Value::from("img-2"));
}

#[test]
fn events_are_counted_and_observable() {
    let infra = two_server_infra("CntSvc", "cnt-a", "cnt-b");
    let proxy = infra
        .smart_proxy("CntSvc")
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return v[1] > 1 end",
        ))
        .build()
        .unwrap();
    let bound = proxy.invoke("whoami", vec![]).unwrap();
    infra.set_background(bound.as_str().unwrap(), 4.0);
    infra.advance_in_steps(Duration::from_secs(150), Duration::from_secs(30));
    assert!(proxy.events_received() > 0);
    proxy.invoke("hello", vec![Value::from("x")]).unwrap();
    assert!(proxy.events_handled() > 0);
    assert!(proxy.invocations() >= 2);
}

/// Builds a standalone proxy over a local trader and one servant, so
/// tests can deliver `notifyEvent` by hand through the observer ref.
fn standalone_proxy(
    service: &str,
    configure: impl FnOnce(adapta::core::SmartProxyBuilder) -> adapta::core::SmartProxyBuilder,
) -> (adapta::orb::Orb, adapta::core::SmartProxy) {
    use adapta::orb::ServantFn;
    use adapta::trading::{ExportRequest, ServiceTypeDef, Trader};

    let orb = adapta::orb::Orb::new(&format!("sp-{service}"));
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(service)).unwrap();
    let svc = orb
        .activate(
            "svc",
            ServantFn::new(service, |_, _| Ok(Value::from("pong"))),
        )
        .unwrap();
    trader.export(ExportRequest::new(service, svc)).unwrap();
    let repo = adapta::idl::InterfaceRepository::new();
    let builder = adapta::core::SmartProxy::builder(&orb, &repo, Arc::new(trader), service);
    let proxy = configure(builder).build().unwrap();
    (orb, proxy)
}

#[test]
fn postponed_queue_drains_exactly_once_and_coalesces_duplicates() {
    let runs = Arc::new(AtomicUsize::new(0));
    let runs_in_strategy = runs.clone();
    let (orb, proxy) = standalone_proxy("SpDrain", |b| {
        b.strategy_native("Burst", move |_proxy, _event| {
            runs_in_strategy.fetch_add(1, Ordering::Relaxed);
        })
    });

    // A burst of identical notifications arrives between invocations.
    let observer = proxy.observer_ref();
    for _ in 0..3 {
        orb.invoke_ref(&observer, "notifyEvent", vec![Value::from("Burst")])
            .unwrap();
    }
    assert_eq!(proxy.pending_events(), 3);
    assert_eq!(runs.load(Ordering::Relaxed), 0, "handling is postponed");

    // The next invocation drains the queue first — the burst coalesces
    // into ONE strategy execution.
    proxy.invoke("ping", vec![]).unwrap();
    assert_eq!(proxy.pending_events(), 0);
    assert_eq!(runs.load(Ordering::Relaxed), 1);

    // Drained means drained: a further invocation must not re-run it.
    proxy.invoke("ping", vec![]).unwrap();
    assert_eq!(runs.load(Ordering::Relaxed), 1);
}

#[test]
fn failing_script_strategy_is_counted_and_does_not_lose_the_request() {
    let (orb, proxy) = standalone_proxy("SpFail", |b| {
        // Compiles fine, explodes at run time (calling a nil global).
        b.strategy_script("Kaboom", "function(self, event) no_such_function() end")
    });
    orb.invoke_ref(
        &proxy.observer_ref(),
        "notifyEvent",
        vec![Value::from("Kaboom")],
    )
    .unwrap();
    assert_eq!(proxy.pending_events(), 1);

    // The strategy fails, but the functional request sails through.
    let reply = proxy.invoke("ping", vec![]).unwrap();
    assert_eq!(reply, Value::from("pong"));
    assert_eq!(proxy.events_handled(), 1);
    let snap = adapta::telemetry::registry().snapshot();
    assert_eq!(
        snap.counter("smartproxy.SpFail.strategy.script.runs"),
        Some(1)
    );
    assert_eq!(
        snap.counter("smartproxy.SpFail.strategy.script.failures"),
        Some(1)
    );
}

/// Regression for failover convergence: after a transport-level
/// failover, the dead target goes on a short-TTL dead list, so a later
/// `reselect()` (or a second failover) cannot rebind the dead server's
/// stale trader offer while the TTL runs. Two consecutive failures
/// converge onto the one live component.
#[test]
fn failovers_converge_and_never_rebind_known_dead_targets_within_ttl() {
    use adapta::idl::TypeCode;
    use adapta::trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

    let orb = adapta::orb::Orb::new("sp-deadlist");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("DeadSvc").with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();

    // Two dead servers (closed TCP ports) outrank the one live servant;
    // their stale offers stay registered, as after a crash.
    let live = orb
        .activate(
            "svc",
            adapta::orb::ServantFn::new("DeadSvc", |_, _| Ok(Value::from("pong"))),
        )
        .unwrap();
    let dead1 = adapta::orb::ObjRef::new("tcp://127.0.0.1:9", "svc", "DeadSvc");
    let dead2 = adapta::orb::ObjRef::new("tcp://127.0.0.1:19", "svc", "DeadSvc");
    for (target, rank) in [(&dead1, 3i64), (&dead2, 2), (&live, 1)] {
        trader
            .export(
                ExportRequest::new("DeadSvc", target.clone())
                    .with_property("Rank", Value::Long(rank)),
            )
            .unwrap();
    }

    let repo = adapta::idl::InterfaceRepository::new();
    let proxy = adapta::core::SmartProxy::builder(&orb, &repo, Arc::new(trader), "DeadSvc")
        .preference("max Rank")
        .dead_target_ttl(Duration::from_secs(30))
        .build()
        .unwrap();
    assert_eq!(proxy.current_target(), Some(dead1.clone()));

    // First invocation: dead1 fails, failover picks dead2 (next rank),
    // whose retry fails too — the call errors, but both are now known
    // dead.
    assert!(proxy.invoke("ping", vec![]).is_err());
    assert_eq!(proxy.failovers(), 1);

    // Second invocation: the failover skips BOTH dead targets' stale
    // offers and converges on the live servant.
    let reply = proxy.invoke("ping", vec![]).unwrap();
    assert_eq!(reply, Value::from("pong"));
    assert_eq!(proxy.current_target(), Some(live.clone()));
    assert!(
        proxy.repicks_avoided() >= 1,
        "dead-list filtering should have skipped stale offers"
    );

    // An explicit reselect mid-TTL still must not rebind a dead target,
    // even though the trader ranks them first.
    assert!(proxy.reselect().unwrap());
    assert_eq!(proxy.current_target(), Some(live.clone()));
    let snap = adapta::telemetry::registry().snapshot();
    assert!(
        snap.counter("smartproxy.DeadSvc.failover.repicks_avoided")
            .unwrap_or(0)
            >= 1
    );

    // And invocations keep flowing on the live binding.
    assert_eq!(proxy.invoke("ping", vec![]).unwrap(), Value::from("pong"));
    assert_eq!(proxy.failovers(), 2);
}

/// Regression: a failover never rebinds a target that already failed
/// earlier in the same invocation. With a zero dead-target TTL nothing
/// outlives its failure, so only the invocation's own exclusion list
/// keeps attempt 3 from going back to the target that failed on
/// attempt 1.
#[test]
fn failover_never_repicks_a_target_that_failed_earlier_in_the_invocation() {
    use adapta::core::RetryPolicy;
    use adapta::idl::TypeCode;
    use adapta::trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

    let orb = adapta::orb::Orb::new("sp-exclusion");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("ExclSvc").with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    let live = orb
        .activate(
            "svc",
            adapta::orb::ServantFn::new("ExclSvc", |_, _| Ok(Value::from("pong"))),
        )
        .unwrap();
    // Two dead servers (closed TCP ports) outrank the live servant.
    let dead1 = adapta::orb::ObjRef::new("tcp://127.0.0.1:9", "svc", "ExclSvc");
    let dead2 = adapta::orb::ObjRef::new("tcp://127.0.0.1:19", "svc", "ExclSvc");
    for (target, rank) in [(&dead1, 3i64), (&dead2, 2), (&live, 1)] {
        trader
            .export(
                ExportRequest::new("ExclSvc", target.clone())
                    .with_property("Rank", Value::Long(rank)),
            )
            .unwrap();
    }

    let repo = adapta::idl::InterfaceRepository::new();
    let proxy = adapta::core::SmartProxy::builder(&orb, &repo, Arc::new(trader), "ExclSvc")
        .preference("max Rank")
        .dead_target_ttl(Duration::ZERO)
        .retry_policy(RetryPolicy::new(3).base(Duration::ZERO))
        .build()
        .unwrap();
    assert_eq!(proxy.current_target(), Some(dead1));

    // dead1 fails, then dead2; the third attempt must reach the live
    // servant rather than dead1 again.
    assert_eq!(proxy.invoke("ping", vec![]).unwrap(), Value::from("pong"));
    assert_eq!(proxy.current_target(), Some(live));
    assert_eq!(proxy.failovers(), 1);
    assert_eq!(proxy.retries(), 2);
}

/// A classic oneway goes through the same pick step as a two-way call
/// and reaches the bound target.
#[test]
fn classic_oneway_reaches_the_bound_target() {
    use adapta::idl::TypeCode;
    use adapta::trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

    let orb = adapta::orb::Orb::new("sp-oneway");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("OwSvc").with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    let mut notes = Vec::new();
    for (key, rank) in [("ow-a", 2i64), ("ow-b", 1)] {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = count.clone();
        let target = orb
            .activate(
                key,
                adapta::orb::ServantFn::new("OwSvc", move |_, _| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        trader
            .export(ExportRequest::new("OwSvc", target).with_property("Rank", Value::Long(rank)))
            .unwrap();
        notes.push(count);
    }

    let repo = adapta::idl::InterfaceRepository::new();
    let proxy = adapta::core::SmartProxy::builder(&orb, &repo, Arc::new(trader), "OwSvc")
        .preference("max Rank")
        .build()
        .unwrap();
    assert_eq!(proxy.current_target().unwrap().key, "ow-a");

    proxy.invoke_oneway("note", vec![]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while notes[0].load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        notes[0].load(Ordering::SeqCst),
        1,
        "the bound target got no oneway"
    );
    assert_eq!(notes[1].load(Ordering::SeqCst), 0);
    assert_eq!(proxy.invocations(), 1);
}

/// The classic rule "keep the current component when nothing better
/// matches": a `reselect` whose query matches nothing returns `false`,
/// keeps the bound target and counts no rebind.
#[test]
fn a_reselect_that_matches_nothing_keeps_the_bound_target() {
    use adapta::idl::TypeCode;
    use adapta::trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

    let orb = adapta::orb::Orb::new("sp-keep");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new("KeepSvc").with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    let servant = || adapta::orb::ServantFn::new("KeepSvc", |_, _| Ok(Value::from("pong")));
    let first = orb.activate("keep-a", servant()).unwrap();
    let offer = trader
        .export(ExportRequest::new("KeepSvc", first.clone()).with_property("Rank", Value::Long(2)))
        .unwrap();

    let repo = adapta::idl::InterfaceRepository::new();
    let proxy = adapta::core::SmartProxy::builder(&orb, &repo, Arc::new(trader.clone()), "KeepSvc")
        .constraint("Rank > 1")
        .build()
        .unwrap();
    assert_eq!(proxy.current_target(), Some(first.clone()));
    assert_eq!(proxy.rebinds(), 1);

    // The only offer left fails the constraint.
    trader.withdraw(&offer).unwrap();
    let other = orb.activate("keep-b", servant()).unwrap();
    trader
        .export(ExportRequest::new("KeepSvc", other).with_property("Rank", Value::Long(0)))
        .unwrap();
    assert!(!proxy.reselect().unwrap());
    assert_eq!(proxy.current_target(), Some(first));
    assert_eq!(proxy.rebinds(), 1);
}

/// The proxy's monitor subscriptions follow the selected offer: build
/// attaches once; a reselect of the same offer keeps the registration
/// (and still reports a match); a reselect to another offer attaches
/// there and detaches from the old one.
#[test]
fn subscriptions_move_only_when_the_selection_changes() {
    use adapta::idl::TypeCode;
    use adapta::orb::{OrbError, ServantFn};
    use adapta::trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

    let orb = adapta::orb::Orb::new("sp-attach");
    let trader = Trader::new(&orb);
    trader
        .add_type(
            ServiceTypeDef::new("AttachSvc")
                .with_property(PropDef::new("Rank", TypeCode::Long, PropMode::Normal))
                .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Normal)),
        )
        .unwrap();
    // A stub monitor that counts registrations and cancellations.
    let attached = Arc::new(AtomicUsize::new(0));
    let detached = Arc::new(AtomicUsize::new(0));
    let (a, d) = (attached.clone(), detached.clone());
    let monitor = orb
        .activate(
            "stub-monitor",
            ServantFn::new("EventMonitor", move |op, _| match op {
                "evalDP" => Ok(Value::Double(0.5)),
                "attachEventObserver" => Ok(Value::Long(a.fetch_add(1, Ordering::SeqCst) as i64)),
                "detachEventObserver" => {
                    d.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::Null)
                }
                _ => Err(OrbError::unknown_operation("EventMonitor", op)),
            }),
        )
        .unwrap();
    let mut offers = Vec::new();
    for (key, rank) in [("attach-a", 2i64), ("attach-b", 1)] {
        let target = orb
            .activate(
                key,
                ServantFn::new("AttachSvc", |_, _| Ok(Value::from("pong"))),
            )
            .unwrap();
        let id = trader
            .export(
                ExportRequest::new("AttachSvc", target.clone())
                    .with_property("Rank", Value::Long(rank))
                    .with_dynamic_property("LoadAvg", monitor.clone()),
            )
            .unwrap();
        offers.push((id, target));
    }

    let repo = adapta::idl::InterfaceRepository::new();
    let proxy =
        adapta::core::SmartProxy::builder(&orb, &repo, Arc::new(trader.clone()), "AttachSvc")
            .preference("max Rank")
            .subscribe(Subscription::new(
                "LoadAvg",
                "LoadIncrease",
                "function(o, v, m) return false end",
            ))
            .build()
            .unwrap();
    let counts = || {
        (
            attached.load(Ordering::SeqCst),
            detached.load(Ordering::SeqCst),
        )
    };
    assert_eq!(proxy.current_target(), Some(offers[0].1.clone()));
    assert_eq!(counts(), (1, 0));

    assert!(proxy.reselect().unwrap());
    assert_eq!(proxy.current_target(), Some(offers[0].1.clone()));
    assert_eq!(counts(), (1, 0));

    trader.withdraw(&offers[0].0).unwrap();
    assert!(proxy.reselect().unwrap());
    assert_eq!(proxy.current_target(), Some(offers[1].1.clone()));
    assert_eq!(counts(), (2, 1));
    assert_eq!(proxy.rebinds(), 2);
}
