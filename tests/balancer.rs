//! Integration tests for the adapta-balancer subsystem: a smart proxy
//! in *balanced* mode materializes its trader query into a live
//! replica set and routes every invocation through a pluggable policy,
//! feeding call latencies and outcomes back into per-replica stats.
//!
//! The acceptance behaviors exercised here:
//!
//! * P2C-over-EWMA prefers the faster replica under latency skew;
//! * a mid-run degradation drains traffic off the slowed replica;
//! * the set refreshes to pick up new exports without a proxy restart;
//! * breaker-open replicas receive zero policy picks;
//! * the routing policy can be swapped at run time while invocations
//!   are in flight, without dropping any of them;
//! * two callers sharing one proxy ride a replica's breaker through an
//!   outage and back without a failed call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta::core::{SmartProxy, SmartProxyBuilder};
use adapta::idl::{InterfaceRepository, Value};
use adapta::orb::{ObjRef, Orb, ServantFn};
use adapta::trading::{ExportRequest, ServiceTypeDef, Trader};

/// One replica servant whose service time is steerable at run time
/// (microseconds; shared atomics let tests degrade a replica mid-run).
fn spawn_replica(orb: &Orb, service: &str, key: &str, sleep_us: Arc<AtomicU64>) -> ObjRef {
    let name = key.to_string();
    orb.activate(
        key,
        ServantFn::new(service, move |op, args| {
            let us = sleep_us.load(Ordering::Relaxed);
            if us > 0 {
                std::thread::sleep(Duration::from_micros(us));
            }
            match op {
                "whoami" => Ok(Value::from(name.as_str())),
                _ => Ok(Value::Seq(args)),
            }
        }),
    )
    .unwrap()
}

/// Orb + trader + `replicas` steerable servants exported under
/// `service`, plus a proxy builder over them. Returns the per-replica
/// sleep knobs in declaration order.
fn balanced_rig(
    service: &str,
    replicas: &[(&str, u64)],
) -> (Orb, Trader, SmartProxyBuilder, Vec<Arc<AtomicU64>>) {
    let orb = Orb::new(&format!("bal-{service}"));
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(service)).unwrap();
    let mut knobs = Vec::new();
    for (key, us) in replicas {
        let knob = Arc::new(AtomicU64::new(*us));
        let target = spawn_replica(&orb, service, key, knob.clone());
        trader.export(ExportRequest::new(service, target)).unwrap();
        knobs.push(knob);
    }
    let repo = InterfaceRepository::new();
    let builder = SmartProxy::builder(&orb, &repo, Arc::new(trader.clone()), service);
    (orb, trader, builder, knobs)
}

/// Current pick counters keyed by the replica's servant key.
fn picks_by_servant(proxy: &SmartProxy) -> HashMap<String, u64> {
    proxy
        .balancer()
        .expect("proxy is balanced")
        .replicas()
        .into_iter()
        .map(|r| (r.target().key.clone(), r.stats().picks()))
        .collect()
}

#[test]
fn p2c_prefers_the_faster_replica_under_latency_skew() {
    // 2x service-time skew: 1 ms vs 2 ms.
    let (_orb, _trader, builder, _knobs) =
        balanced_rig("P2cSkew", &[("fast", 1_000), ("slow", 2_000)]);
    let proxy = builder.balanced("p2c_ewma").build().unwrap();

    // Warm-up: both replicas need at least one latency sample before
    // the EWMA comparison means anything.
    for _ in 0..10 {
        proxy.invoke("echo", vec![Value::Long(0)]).unwrap();
    }
    let before = picks_by_servant(&proxy);

    const CALLS: u64 = 60;
    for i in 0..CALLS {
        proxy.invoke("echo", vec![Value::Long(i as i64)]).unwrap();
    }
    let after = picks_by_servant(&proxy);
    let fast = after["fast"] - before["fast"];
    let slow = after["slow"] - before["slow"];
    assert_eq!(fast + slow, CALLS);
    assert!(
        fast * 10 >= CALLS * 7,
        "p2c_ewma sent only {fast}/{CALLS} picks to the 2x-faster replica (slow got {slow})"
    );
}

#[test]
fn mid_run_degradation_drains_the_slowed_replica() {
    let (_orb, _trader, builder, knobs) = balanced_rig("Degrade", &[("a", 1_000), ("b", 1_000)]);
    let proxy = builder.balanced("p2c_ewma").build().unwrap();

    // Phase 1: equal speeds — both replicas carry traffic.
    for _ in 0..40 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let phase1 = picks_by_servant(&proxy);
    assert!(
        phase1["a"] > 0 && phase1["b"] > 0,
        "both should serve: {phase1:?}"
    );

    // Phase 2: replica `a` degrades 12x mid-run. The EWMA feedback loop
    // must steer new picks away without any rebinding step.
    knobs[0].store(12_000, Ordering::Relaxed);
    for _ in 0..60 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let phase2 = picks_by_servant(&proxy);
    let a = phase2["a"] - phase1["a"];
    let b = phase2["b"] - phase1["b"];
    assert_eq!(a + b, 60);
    assert!(
        a * 10 <= 60 * 3,
        "degraded replica still drew {a}/60 picks (healthy got {b})"
    );
}

#[test]
fn refresh_picks_up_new_exports_without_a_proxy_restart() {
    let (orb, trader, builder, _knobs) = balanced_rig("Grow", &[("first", 0)]);
    let proxy = builder.balanced("round_robin").build().unwrap();
    assert_eq!(proxy.balancer().unwrap().len(), 1);

    // A new component exports itself after the proxy is live.
    let knob = Arc::new(AtomicU64::new(0));
    let target = spawn_replica(&orb, "Grow", "second", knob);
    trader.export(ExportRequest::new("Grow", target)).unwrap();

    // In balanced mode reselect() == refresh(); true means the set changed.
    assert!(proxy.reselect().unwrap());
    assert_eq!(proxy.balancer().unwrap().len(), 2);

    // Round-robin immediately spreads onto the newcomer.
    for _ in 0..6 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let picks = picks_by_servant(&proxy);
    assert!(picks["second"] >= 2, "newcomer never picked: {picks:?}");

    let snap = adapta::telemetry::registry().snapshot();
    assert!(snap.counter("balancer.Grow.refreshes").unwrap_or(0) >= 2);
    assert!(snap.counter("balancer.Grow.added").unwrap_or(0) >= 2);
}

#[test]
fn background_refresher_tracks_exports_and_withdrawals() {
    let (orb, trader, builder, _knobs) = balanced_rig("Bg", &[("bg-a", 0)]);
    let proxy = builder
        .balanced("round_robin")
        .balancer_refresh(Duration::from_millis(20))
        .build()
        .unwrap();

    let knob = Arc::new(AtomicU64::new(0));
    let target = spawn_replica(&orb, "Bg", "bg-b", knob);
    let id = trader.export(ExportRequest::new("Bg", target)).unwrap();
    let wait_for_len = |n: usize| {
        for _ in 0..200 {
            if proxy.balancer().unwrap().len() == n {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    };
    assert!(wait_for_len(2), "background refresher never saw the export");

    // Withdrawal evicts the replica on a later background pass.
    trader.withdraw(&id).unwrap();
    assert!(wait_for_len(1), "background refresher never evicted");
    let snap = adapta::telemetry::registry().snapshot();
    assert!(snap.counter("balancer.Bg.evictions").unwrap_or(0) >= 1);
}

#[test]
fn breaker_open_replicas_receive_zero_picks() {
    let service = "BrkBal";
    let orb = Orb::new("bal-breaker");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(service)).unwrap();
    for key in ["live-a", "live-b"] {
        let target = spawn_replica(&orb, service, key, Arc::new(AtomicU64::new(0)));
        trader.export(ExportRequest::new(service, target)).unwrap();
    }
    // A crashed server's stale offer: nothing listens on port 9.
    let dead = ObjRef::new("tcp://127.0.0.1:9", "dead", service);
    trader
        .export(ExportRequest::new(service, dead.clone()))
        .unwrap();

    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), service)
        .balanced("round_robin")
        .circuit_breaker(adapta::core::BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(120),
        })
        .build()
        .unwrap();

    // Round-robin routes the dead replica its share; the failures trip
    // its breaker (two outcomes fill the window) while failover keeps
    // every call succeeding on a live replica.
    for _ in 0..8 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    assert_eq!(
        proxy.breaker_state(&dead),
        Some(adapta::core::BreakerState::Open),
        "the dead replica's breaker should have opened"
    );

    // With the breaker open (and its 120 s cool-down running), the dead
    // replica must draw ZERO further picks.
    let stalled = picks_by_servant(&proxy)["dead"];
    for _ in 0..40 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let now = picks_by_servant(&proxy);
    assert_eq!(
        now["dead"], stalled,
        "breaker-open replica kept drawing picks"
    );
    assert!(now["live-a"] > 0 && now["live-b"] > 0);
}

#[test]
fn runtime_policy_swap_drops_no_in_flight_calls() {
    let (_orb, _trader, builder, _knobs) =
        balanced_rig("Swap", &[("sw-a", 200), ("sw-b", 200), ("sw-c", 200)]);
    let proxy = builder.balanced("round_robin").build().unwrap();
    assert_eq!(proxy.balancer_policy().as_deref(), Some("round_robin"));

    const THREADS: usize = 4;
    const CALLS: usize = 50;
    let completed = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let proxy = proxy.clone();
        let completed = completed.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..CALLS {
                let tag = (t * CALLS + i) as i64;
                let out = proxy
                    .invoke("echo", vec![Value::Long(tag)])
                    .expect("invoke across policy swaps");
                assert_eq!(out, Value::Seq(vec![Value::Long(tag)]));
                completed.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    // Swap policies continuously while the callers hammer the proxy.
    let policies = [
        "least_inflight",
        "p2c_ewma",
        "consistent_hash",
        "round_robin",
    ];
    let mut swaps = 0usize;
    while completed.load(Ordering::Relaxed) < THREADS * CALLS {
        assert!(proxy.set_balancer_policy(policies[swaps % policies.len()]));
        swaps += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(proxy.invocations(), (THREADS * CALLS) as u64);
    assert!(swaps >= 2, "the race window was too short to swap twice");
    let snap = adapta::telemetry::registry().snapshot();
    assert!(snap.counter("balancer.Swap.policy_switches").unwrap_or(0) >= swaps as u64);
}

#[test]
fn consistent_hash_affinity_keys_stick_to_one_replica() {
    let (_orb, _trader, builder, _knobs) =
        balanced_rig("Affinity", &[("af-a", 0), ("af-b", 0), ("af-c", 0)]);
    let proxy = builder.balanced("consistent_hash").build().unwrap();

    for _ in 0..30 {
        proxy
            .invoke_keyed("echo", vec![], Some(0xDEAD_BEEF))
            .unwrap();
    }
    let picks = picks_by_servant(&proxy);
    let serving: Vec<_> = picks.iter().filter(|(_, &n)| n > 0).collect();
    assert_eq!(
        serving.len(),
        1,
        "one session key should map to exactly one replica: {picks:?}"
    );
}

#[test]
fn unmatched_strict_constraint_counts_a_relaxed_query_and_fires_the_event() {
    use adapta::core::RELAXED_QUERY_EVENT;
    use adapta::idl::TypeCode;
    use adapta::trading::{PropDef, PropMode};

    let service = "RelaxSvc";
    let orb = Orb::new("bal-relax");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new(service).with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    let target = spawn_replica(&orb, service, "only", Arc::new(AtomicU64::new(0)));
    trader
        .export(ExportRequest::new(service, target).with_property("Rank", Value::Long(1)))
        .unwrap();

    let fired = Arc::new(AtomicUsize::new(0));
    let fired_in_strategy = fired.clone();
    let repo = InterfaceRepository::new();
    // No offer satisfies the strict constraint, so binding falls back
    // to the relaxed (type-only) query — which is no longer silent.
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), service)
        .constraint("Rank > 100")
        .strategy_native(RELAXED_QUERY_EVENT, move |_proxy, _event| {
            fired_in_strategy.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .unwrap();

    assert!(proxy.relaxed_queries() >= 1, "fallback went uncounted");
    let snap = adapta::telemetry::registry().snapshot();
    assert!(
        snap.counter("smartproxy.RelaxSvc.failover.relaxed_queries")
            .unwrap_or(0)
            >= 1
    );

    // The queued RelaxedQuery event reaches its strategy on the next
    // invocation (postponed handling, like any other adaptation event).
    proxy.invoke("echo", vec![]).unwrap();
    assert!(fired.load(Ordering::Relaxed) >= 1, "strategy never ran");
}

/// A Rua strategy reads and swaps the routing policy through the proxy
/// facade, and calls after the swap use the new policy.
#[test]
fn rua_scripts_can_inspect_and_swap_the_policy() {
    let (_orb, _trader, builder, _knobs) = balanced_rig("Scripted", &[("sc-a", 0), ("sc-b", 0)]);
    let proxy = builder.balanced("round_robin").build().unwrap();
    for _ in 0..4 {
        proxy.invoke("echo", vec![]).unwrap();
    }

    proxy
        .install_strategies_script(
            r#"
            smartproxy._strategies = {
                Reroute = function(self)
                    self.before = self:_policy()
                    self.unknown = self:_set_policy("no_such_policy")
                    self.swapped = self:_set_policy("least_inflight")
                    self.after = self:_policy()
                end
            }
            "#,
        )
        .unwrap();
    proxy.adapt_now("Reroute");
    let out = proxy
        .actor()
        .eval("return smartproxy.before, smartproxy.unknown, smartproxy.swapped, smartproxy.after")
        .unwrap();
    assert_eq!(out[0].as_str(), Some("round_robin"));
    assert_eq!(out[1], Value::Bool(false));
    assert_eq!(out[2], Value::Bool(true));
    assert_eq!(out[3].as_str(), Some("least_inflight"));
    assert_eq!(proxy.balancer_policy().as_deref(), Some("least_inflight"));
    for _ in 0..4 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let picks: u64 = proxy
        .balancer()
        .unwrap()
        .replicas()
        .iter()
        .map(|r| r.stats().picks())
        .sum();
    assert_eq!(picks, 8);
}

/// Hosts answering `calls` balanced `whoami` invocations, by count.
fn whoami_counts(proxy: &SmartProxy, calls: usize) -> HashMap<String, usize> {
    let mut counts = HashMap::new();
    for _ in 0..calls {
        let host = proxy.invoke("whoami", vec![]).unwrap();
        *counts.entry(host.as_str().unwrap().to_owned()).or_default() += 1;
    }
    counts
}

/// `weighted_property:LoadAvg` reads the `LoadAvg` its selection
/// evaluated at the monitors: after the load moves, a re-selection
/// moves the picks.
#[test]
fn weighted_property_follows_load_through_the_selection() {
    use adapta::core::{Infrastructure, ServerSpec};

    let infra = Infrastructure::in_process().unwrap();
    for host in ["wl-busy", "wl-idle"] {
        infra
            .spawn_server(ServerSpec::echo("WeighLoad", host))
            .unwrap();
    }
    let proxy = infra
        .smart_proxy("WeighLoad")
        .balanced("weighted_property:LoadAvg")
        .build()
        .unwrap();

    infra.set_background("wl-busy", 5.0);
    infra.advance_in_steps(Duration::from_secs(150), Duration::from_secs(30));
    proxy.reselect().unwrap();

    let counts = whoami_counts(&proxy, 300);
    let idle = counts.get("wl-idle").copied().unwrap_or(0);
    assert!(
        idle > 210,
        "the idle replica drew only {idle}/300: {counts:?}"
    );
}

/// `weighted_property:Cost` weighs by `Cost` alone, even on offers whose
/// `LoadAvg` monitor reports the cheap server loaded.
#[test]
fn weighted_property_reads_only_its_named_property() {
    use adapta::core::{Infrastructure, ServerSpec};

    let infra = Infrastructure::in_process().unwrap();
    for (host, cost) in [("wc-cheap", 1.0), ("wc-dear", 20.0)] {
        infra
            .spawn_server(ServerSpec::echo("WeighCost", host).with_prop("Cost", Value::from(cost)))
            .unwrap();
    }
    let proxy = infra
        .smart_proxy("WeighCost")
        .balanced("weighted_property:Cost")
        .build()
        .unwrap();

    infra.set_background("wc-cheap", 5.0);
    infra.advance_in_steps(Duration::from_secs(150), Duration::from_secs(30));
    proxy.reselect().unwrap();

    let counts = whoami_counts(&proxy, 300);
    let cheap = counts.get("wc-cheap").copied().unwrap_or(0);
    assert!(
        cheap > 210,
        "the cheap replica drew only {cheap}/300: {counts:?}"
    );
}

/// A balanced proxy registers with a replica's monitor only for the
/// subscriptions it was built with.
#[test]
fn a_balanced_proxy_without_subscriptions_observes_no_monitor() {
    use adapta::core::{Infrastructure, ServerSpec};

    let infra = Infrastructure::in_process().unwrap();
    let servers: Vec<_> = ["nobs-a", "nobs-b"]
        .into_iter()
        .map(|host| infra.spawn_server(ServerSpec::echo("NoObs", host)).unwrap())
        .collect();
    let proxy = infra
        .smart_proxy("NoObs")
        .balanced("round_robin")
        .build()
        .unwrap();
    assert_eq!(proxy.balancer().unwrap().replicas().len(), 2);
    for server in &servers {
        assert_eq!(server.monitor().observer_count(), 0);
    }
}

/// Balanced oneways share the two-way pick step, so a replica whose
/// breaker is open receives none of them.
#[test]
fn balanced_oneways_skip_breaker_open_replicas() {
    let service = "OwBal";
    let orb = Orb::new("bal-oneway");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(service)).unwrap();
    for key in ["ow-a", "ow-b"] {
        let target = spawn_replica(&orb, service, key, Arc::new(AtomicU64::new(0)));
        trader.export(ExportRequest::new(service, target)).unwrap();
    }
    // Nothing listens on port 9: a oneway sent there fails.
    let dead = ObjRef::new("tcp://127.0.0.1:9", "dead", service);
    trader
        .export(ExportRequest::new(service, dead.clone()))
        .unwrap();

    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), service)
        .balanced("round_robin")
        .circuit_breaker(adapta::core::BreakerConfig {
            window: 1,
            min_calls: 1,
            failure_threshold: 0.5,
            open_for: Duration::from_secs(120),
        })
        .build()
        .unwrap();
    for _ in 0..8 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    assert_eq!(
        proxy.breaker_state(&dead),
        Some(adapta::core::BreakerState::Open)
    );

    let stalled = picks_by_servant(&proxy)["dead"];
    for _ in 0..40 {
        proxy.invoke_oneway("echo", vec![]).unwrap();
    }
    let now = picks_by_servant(&proxy);
    assert_eq!(
        now["dead"], stalled,
        "a oneway went to a breaker-open replica"
    );
    assert!(now["ow-a"] > 0 && now["ow-b"] > 0);
}

/// A balanced replica whose breaker opened rejoins the rotation: after
/// the cool-down the probe scan sends it one probe, the probe succeeds,
/// the breaker closes and the policy picks it again.
#[test]
fn breaker_open_replica_heals_through_a_probe_and_draws_picks_again() {
    use adapta::core::{BreakerConfig, BreakerState};
    use adapta::orb::{FaultAction, FaultRule};

    let service = "BalHeal";
    let orb = Orb::new("bal-heal");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(service)).unwrap();
    let a = spawn_replica(&orb, service, "heal-a", Arc::new(AtomicU64::new(0)));
    // Replica b lives on its own node, so a fault rule can target it.
    let b_node = Orb::new("bal-heal-b");
    let b = spawn_replica(&b_node, service, "heal-b", Arc::new(AtomicU64::new(0)));
    for target in [&a, &b] {
        trader
            .export(ExportRequest::new(service, target.clone()))
            .unwrap();
    }
    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), service)
        .balanced("round_robin")
        .circuit_breaker(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(200),
        })
        .dead_target_ttl(Duration::ZERO)
        .build()
        .unwrap();

    // b's first two frames are mangled, then it heals.
    orb.fault_plan()
        .add(FaultRule::new(b.endpoint.clone(), "*", FaultAction::Corrupt).budget(2));
    for _ in 0..8 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    assert_eq!(proxy.breaker_state(&b), Some(BreakerState::Open));
    let stalled = picks_by_servant(&proxy)["heal-b"];
    proxy.invoke("echo", vec![]).unwrap();
    assert_eq!(
        picks_by_servant(&proxy)["heal-b"],
        stalled,
        "picked during cool-down"
    );

    std::thread::sleep(Duration::from_millis(250));
    for _ in 0..10 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    assert_eq!(proxy.breaker_state(&b), Some(BreakerState::Closed));
    let healed = picks_by_servant(&proxy)["heal-b"];
    assert!(
        healed >= stalled + 3,
        "healed replica drew {} picks, expected the probe plus its rotation share",
        healed - stalled
    );
    let snap = adapta::telemetry::registry().snapshot();
    assert!(
        snap.counter("smartproxy.BalHeal.breaker.half_open")
            .unwrap_or(0)
            >= 1
    );
    assert!(
        snap.counter("smartproxy.BalHeal.breaker.closed")
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn two_callers_share_a_breaker_through_an_outage_and_back() {
    use adapta::core::{BreakerConfig, BreakerState};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    let service = "BalTwoCallers";
    let orb = Orb::new("bal-two-callers");
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(service)).unwrap();
    // Each call sleeps 200 µs in its servant, so the two callers leave
    // the CPU to the suite's timing-sensitive tests running beside them.
    let knob = Arc::new(AtomicU64::new(200));
    let a = spawn_replica(&orb, service, "pair-a", knob.clone());
    let b = spawn_replica(&orb, service, "pair-b", knob.clone());
    for target in [&a, &b] {
        trader
            .export(ExportRequest::new(service, target.clone()))
            .unwrap();
    }
    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader), service)
        .balanced("round_robin")
        .circuit_breaker(BreakerConfig {
            window: 2,
            min_calls: 2,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(20),
        })
        .dead_target_ttl(Duration::ZERO)
        .build()
        .unwrap();

    let stop = AtomicBool::new(false);
    let await_state = |want: BreakerState| {
        let until = Instant::now() + Duration::from_secs(5);
        while proxy.breaker_state(&b) != Some(want) {
            assert!(Instant::now() < until, "b's breaker never went {want:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let calls = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut calls = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let out = proxy.invoke("echo", vec![Value::Long(7)]);
                        assert_eq!(out.unwrap(), Value::Seq(vec![Value::Long(7)]));
                        calls += 1;
                    }
                    calls
                })
            })
            .collect();
        // A failed assertion below must still stop the callers, or the
        // scope would wait for them forever.
        let stopper = StopOnDrop(&stop);
        std::thread::sleep(Duration::from_millis(20));
        // b goes away: its failures fail over to a and open its breaker.
        assert!(orb.deactivate("pair-b"));
        await_state(BreakerState::Open);
        std::thread::sleep(Duration::from_millis(50));
        // b comes back: a probe after the cool-down closes the breaker.
        spawn_replica(&orb, service, "pair-b", knob.clone());
        await_state(BreakerState::Closed);
        std::thread::sleep(Duration::from_millis(20));
        drop(stopper);
        callers
            .into_iter()
            .map(|caller| caller.join().unwrap())
            .sum::<u64>()
    });
    assert!(calls > 0);
    assert_eq!(proxy.breaker_state(&a), Some(BreakerState::Closed));
    let snap = adapta::telemetry::registry().snapshot();
    assert_eq!(
        snap.gauge("smartproxy.BalTwoCallers.breaker.open_targets"),
        Some(0)
    );
}

/// Raises its flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A balanced proxy attaches its subscriptions to every replica, as a
/// classic proxy does to its one, and cancels a replica's registrations
/// when the replica is evicted.
#[test]
fn subscriptions_follow_every_replica_in_and_out_of_the_set() {
    use std::sync::Mutex;

    use adapta::core::Subscription;
    use adapta::idl::TypeCode;
    use adapta::orb::OrbError;
    use adapta::trading::{PropDef, PropMode};

    let service = "SubBal";
    let orb = Orb::new("bal-subscribe");
    let trader = Trader::new(&orb);
    trader
        .add_type(ServiceTypeDef::new(service).with_property(PropDef::new(
            "LoadAvg",
            TypeCode::Double,
            PropMode::Normal,
        )))
        .unwrap();
    // A stub monitor that keeps the event id of every live registration.
    let live: Arc<Mutex<HashMap<i64, String>>> = Arc::default();
    let registrations = live.clone();
    let next_id = AtomicU64::new(0);
    let monitor = orb
        .activate(
            "stub-monitor",
            ServantFn::new("EventMonitor", move |op, args| match op {
                "evalDP" => Ok(Value::Double(0.5)),
                "attachEventObserver" => {
                    let id = next_id.fetch_add(1, Ordering::SeqCst) as i64;
                    let event = args[1].as_str().unwrap_or_default().to_string();
                    registrations.lock().unwrap().insert(id, event);
                    Ok(Value::Long(id))
                }
                "detachEventObserver" => {
                    let id = args[0].as_long().unwrap();
                    registrations.lock().unwrap().remove(&id);
                    Ok(Value::Null)
                }
                _ => Err(OrbError::unknown_operation("EventMonitor", op)),
            }),
        )
        .unwrap();
    let mut offers = Vec::new();
    for key in ["sub-a", "sub-b"] {
        let target = spawn_replica(&orb, service, key, Arc::new(AtomicU64::new(0)));
        let request =
            ExportRequest::new(service, target).with_dynamic_property("LoadAvg", monitor.clone());
        offers.push(trader.export(request).unwrap());
    }
    let subscribed = || {
        live.lock()
            .unwrap()
            .values()
            .filter(|event| *event == "LoadIncrease")
            .count()
    };

    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&orb, &repo, Arc::new(trader.clone()), service)
        .balanced("round_robin")
        .balancer_refresh(Duration::from_secs(3600))
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return false end",
        ))
        .build()
        .unwrap();
    assert_eq!(proxy.balancer().unwrap().len(), 2);
    assert_eq!(subscribed(), 2, "{:?}", live.lock().unwrap());
    // The proxy's own subscriptions are its only registrations.
    assert_eq!(live.lock().unwrap().len(), 2);

    trader.withdraw(&offers[0]).unwrap();
    assert!(proxy.reselect().unwrap());
    assert_eq!(proxy.balancer().unwrap().len(), 1);
    assert_eq!(subscribed(), 1);
    assert_eq!(live.lock().unwrap().len(), 1);
}

/// A classic proxy is a replica set under the `bound` policy: it keeps
/// one replica, and a strategy can switch it to spread its calls.
#[test]
fn a_classic_proxy_is_a_set_that_keeps_one_replica() {
    let (_orb, _trader, builder, _knobs) =
        balanced_rig("Classic", &[("cl-a", 0), ("cl-b", 0), ("cl-c", 0)]);
    let proxy = builder.build().unwrap();
    assert_eq!(proxy.balancer_policy().as_deref(), Some("bound"));
    assert_eq!(proxy.balancer().unwrap().len(), 1);
    for _ in 0..6 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let picks = picks_by_servant(&proxy);
    assert_eq!(picks.values().sum::<u64>(), 6, "{picks:?}");
    assert_eq!(picks.len(), 1, "a bound proxy calls one replica: {picks:?}");

    assert!(proxy.set_balancer_policy("round_robin"));
    assert!(proxy.reselect().unwrap());
    assert_eq!(proxy.balancer().unwrap().len(), 3);
    for _ in 0..6 {
        proxy.invoke("echo", vec![]).unwrap();
    }
    let picks = picks_by_servant(&proxy);
    assert!(picks.values().all(|&n| n >= 2), "{picks:?}");
}
