//! Sandboxed remote evaluation, end to end (ISSUE 4).
//!
//! Remote code is hostile until proven otherwise: these tests ship
//! runaway loops, memory bombs, deep recursion and pcall-swallow
//! attempts into a live monitor and assert the host keeps ticking; the
//! quarantine state machine isolates repeat offenders and readmits them
//! after a clean probe; and an overloaded server sheds requests with a
//! retryable error that a smart proxy's retry policy absorbs.
//!
//! `ci.sh --sandbox` runs this file plus the script crate's property
//! tests and the `exp_overload` experiment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta::core::{RetryPolicy, SmartProxy};
use adapta::idl::{InterfaceRepository, TypeCode, Value};
use adapta::monitor::{Isolate, Monitor, MonitorServant, ObserverTarget};
use adapta::orb::{ObjRef, Orb, OrbError, OrbOptions, ServantFn};
use adapta::sim::SimTime;
use adapta::telemetry::registry;
use adapta::trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

/// A monitor served over the orb, plus a client proxy to it — the
/// remote-evaluation setup of Figures 1/2.
fn served_monitor(name: &str) -> (Orb, Orb, Monitor, adapta::orb::Proxy) {
    let server = Orb::new(&format!("{name}-server"));
    let actor = Isolate::new(name, |_| {});
    let monitor = Monitor::builder("Load")
        .source_native(|_| Value::from(99.0))
        .build(&actor, &server)
        .unwrap();
    let objref = server
        .activate("mon", MonitorServant::new(monitor.clone()))
        .unwrap();
    let client = Orb::new(&format!("{name}-client"));
    let proxy = client.proxy(&objref);
    (server, client, monitor, proxy)
}

#[test]
fn runaway_predicate_cannot_stall_the_monitor() {
    let (_s, client, monitor, proxy) = served_monitor("sbx-runaway");
    let healthy = Arc::new(AtomicUsize::new(0));
    let healthy_clone = healthy.clone();
    monitor.attach_observer_native(
        ObserverTarget::Callback(Arc::new(move |_| {
            healthy_clone.fetch_add(1, Ordering::Relaxed);
        })),
        "Healthy",
        |v| v.as_double().unwrap_or(0.0) > 50.0,
    );
    let obs_ref = client
        .activate(
            "obs",
            ServantFn::new("EventObserver", |_, _| Ok(Value::Null)),
        )
        .unwrap();
    // An infinite loop, shipped over the wire. The sandbox's step
    // budget stops it; pcall around it changes nothing (resource errors
    // are uncatchable); the quarantine then stops paying for it.
    proxy
        .invoke(
            "attachEventObserver",
            vec![
                Value::ObjRef(obs_ref),
                Value::from("Spin"),
                Value::from("function(o, v, m) while true do end end"),
            ],
        )
        .unwrap();
    for i in 0..6 {
        monitor.tick(SimTime::from_secs(i));
    }
    assert_eq!(
        healthy.load(Ordering::Relaxed),
        6,
        "other observers keep being served"
    );
    assert_eq!(monitor.ticks(), 6);
    assert_eq!(monitor.errors(), 3, "three strikes, then quarantined");
    assert_eq!(monitor.quarantined_count(), 1);
    assert!(
        registry()
            .snapshot()
            .counter("monitor.Load.resource_exhausted")
            .unwrap_or(0)
            >= 3
    );
}

#[test]
fn memory_bomb_is_stopped_by_the_allocation_cap() {
    let (_s, _c, monitor, proxy) = served_monitor("sbx-membomb");
    proxy
        .invoke(
            "defineAspect",
            vec![
                Value::from("Bomb"),
                Value::from(
                    "function(self, v, m)\n\
                     local s = 'x'\n\
                     while true do s = s .. s end\n\
                     end",
                ),
            ],
        )
        .unwrap();
    monitor.tick(SimTime::ZERO);
    assert_eq!(monitor.errors(), 1);
    let err = monitor.last_error().unwrap();
    assert!(err.contains("memory limit"), "{err}");
    assert_eq!(monitor.aspect_value("Bomb"), Some(Value::Null));
}

#[test]
fn deep_recursion_is_capped() {
    let (_s, _c, monitor, proxy) = served_monitor("sbx-recurse");
    proxy
        .invoke(
            "defineAspect",
            vec![
                Value::from("Deep"),
                Value::from(
                    "function(self, v, m)\n\
                     local function down(n) return down(n + 1) end\n\
                     return down(0)\n\
                     end",
                ),
            ],
        )
        .unwrap();
    monitor.tick(SimTime::ZERO);
    assert_eq!(monitor.errors(), 1);
    let err = monitor.last_error().unwrap();
    assert!(err.contains("call stack overflow"), "{err}");
}

#[test]
fn pcall_cannot_swallow_resource_exhaustion() {
    let (_s, _c, monitor, proxy) = served_monitor("sbx-pcall");
    // The attacker wraps the bomb in pcall and returns a benign value
    // on "failure" — if the resource error were catchable, the aspect
    // would evaluate cleanly and never be quarantined.
    proxy
        .invoke(
            "defineAspect",
            vec![
                Value::from("Sneaky"),
                Value::from(
                    "function(self, v, m)\n\
                     pcall(function() local s = 'x' while true do s = s .. s end end)\n\
                     return 'clean'\n\
                     end",
                ),
            ],
        )
        .unwrap();
    monitor.tick(SimTime::ZERO);
    assert_eq!(
        monitor.errors(),
        1,
        "the resource error re-raised through pcall"
    );
    assert_ne!(monitor.aspect_value("Sneaky"), Some(Value::from("clean")));
}

#[test]
fn quarantine_opens_probes_and_readmits() {
    let (_s, _c, monitor, proxy) = served_monitor("sbx-quarantine");
    // Fails its first three evaluations, then recovers — the shape of a
    // predicate depending on a resource that comes back.
    proxy
        .invoke(
            "defineAspect",
            vec![
                Value::from("Flaky"),
                Value::from(
                    "function(self, v, m)\n\
                     self.n = (self.n or 0) + 1\n\
                     if self.n <= 3 then error('warming up') end\n\
                     return 'ok'\n\
                     end",
                ),
            ],
        )
        .unwrap();
    // Ticks 1-3 fail and open the penalty box (threshold 3).
    for i in 0..3 {
        monitor.tick(SimTime::from_secs(i));
    }
    assert_eq!(monitor.quarantined_count(), 1);
    assert_eq!(monitor.errors(), 3);
    // The 8-tick penalty window: skipped, no new errors.
    for i in 3..11 {
        monitor.tick(SimTime::from_secs(i));
    }
    assert_eq!(monitor.errors(), 3, "quarantined entries cost nothing");
    // Probe tick: the aspect now succeeds and is readmitted.
    monitor.tick(SimTime::from_secs(11));
    assert_eq!(monitor.quarantined_count(), 0);
    assert_eq!(monitor.aspect_value("Flaky"), Some(Value::from("ok")));
    let snapshot = registry().snapshot();
    assert!(
        snapshot
            .counter("monitor.Load.quarantined.entries")
            .unwrap_or(0)
            >= 1
    );
    assert!(
        snapshot
            .counter("monitor.Load.quarantined.probes")
            .unwrap_or(0)
            >= 1
    );
    assert!(
        snapshot
            .counter("monitor.Load.quarantined.readmitted")
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn installer_quota_rejects_the_greedy_not_the_honest() {
    let (_s, _c, _monitor, proxy) = served_monitor("sbx-quota");
    // All servant-side installs are charged to one "remote" installer
    // identity; past the quota they are rejected up front.
    let mut rejected = None;
    for i in 0..64 {
        let out = proxy.invoke(
            "defineAspect",
            vec![
                Value::from(format!("A{i}")),
                Value::from("function(self, v, m) return 1 end"),
            ],
        );
        if let Err(e) = out {
            rejected = Some((i, e));
            break;
        }
    }
    let (at, err) = rejected.expect("quota eventually rejects");
    assert_eq!(at, adapta::monitor::MAX_INSTALLS_PER_INSTALLER);
    assert!(err.to_string().contains("quota"), "{err}");
}

#[test]
fn overload_shed_is_retryable_and_absorbed_by_the_smart_proxy() {
    // A deliberately tiny server: 2 dispatches in flight node-wide,
    // everything else shed with `TransientOverload`.
    let server = Orb::with_options(
        "sbx-overload-server",
        OrbOptions::new().max_inflight(2).max_conn_queue(2),
    );
    server
        .activate(
            "svc",
            ServantFn::new("StormSvc", |_, _| {
                std::thread::sleep(Duration::from_millis(3));
                Ok(Value::from("pong"))
            }),
        )
        .unwrap();
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();

    let client = Orb::new("sbx-overload-client");
    let trader = Trader::new(&client);
    trader
        .add_type(ServiceTypeDef::new("StormSvc").with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    trader
        .export(
            ExportRequest::new("StormSvc", ObjRef::new(&endpoint, "svc", "StormSvc"))
                .with_property("Rank", Value::Long(1)),
        )
        .unwrap();
    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&client, &repo, Arc::new(trader), "StormSvc")
        .retry_policy(
            RetryPolicy::new(25)
                .base(Duration::from_millis(2))
                .cap(Duration::from_millis(20)),
        )
        .build()
        .unwrap();

    // A storm: 8 threads hammer the 2-slot server concurrently.
    let proxy = Arc::new(proxy);
    let failures: Vec<_> = (0..8)
        .map(|_| {
            let proxy = proxy.clone();
            std::thread::spawn(move || {
                (0..5)
                    .filter(|_| proxy.invoke("ping", vec![]).is_err())
                    .count()
            })
        })
        .collect();
    let failed: usize = failures.into_iter().map(|h| h.join().unwrap()).sum();

    assert_eq!(failed, 0, "every call completed despite shedding");
    let snapshot = registry().snapshot();
    let shed = snapshot
        .counter("orb.sbx-overload-server.shed")
        .unwrap_or(0)
        + snapshot
            .counter("orb.sbx-overload-server.tcp.server.shed")
            .unwrap_or(0);
    assert!(shed > 0, "the storm actually tripped admission control");
    assert!(proxy.retries() > 0, "the proxy retried shed calls");
}

#[test]
fn overload_error_is_transient_and_retryable() {
    assert!(OrbError::TransientOverload.is_retryable());
    assert_eq!(
        OrbError::TransientOverload.to_string(),
        "server overloaded; retry later"
    );
}

#[test]
fn smart_proxy_event_queue_is_bounded() {
    let server = Orb::new("sbx-evq-server");
    server
        .activate("svc", ServantFn::new("EvSvc", |_, _| Ok(Value::from("ok"))))
        .unwrap();
    let endpoint = server.endpoint();
    let client = Orb::new("sbx-evq-client");
    let trader = Trader::new(&client);
    trader.add_type(ServiceTypeDef::new("EvSvc")).unwrap();
    trader
        .export(ExportRequest::new(
            "EvSvc",
            ObjRef::new(&endpoint, "svc", "EvSvc"),
        ))
        .unwrap();
    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&client, &repo, Arc::new(trader), "EvSvc")
        .build()
        .unwrap();
    let observer = proxy.observer_ref();
    let pusher = Orb::new("sbx-evq-pusher");
    for _ in 0..300 {
        pusher
            .invoke_oneway_ref(&observer, "notifyEvent", vec![Value::from("E")])
            .unwrap();
    }
    assert_eq!(proxy.pending_events(), 256, "queue capped at the bound");
    assert!(
        registry()
            .snapshot()
            .counter("smartproxy.EvSvc.events_dropped")
            .unwrap_or(0)
            >= 44
    );
}
