//! Thread-safety and transport-concurrency tests: concurrent clients
//! hammering smart proxies, monitors ticking from another thread,
//! notifications racing with invocations — plus the multiplexed TCP
//! transport's guarantees (pipelining on one connection, per-call
//! deadlines that don't poison the pool, oneway/two-way interleaving).
//!
//! `ci.sh --stress` runs this file with `STRESS_ITERS` set, scaling
//! the iteration counts up to shake out transport races.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta::core::{Infrastructure, ServerSpec, Subscription};
use adapta::idl::Value;
use adapta::orb::{InvokeOptions, ObjRef, Orb, OrbError, ServantFn};

/// Multiplies `base` by the `STRESS_ITERS` environment variable when
/// set (the `ci.sh --stress` mode), so races get far more chances to
/// bite without slowing the default run.
fn stress_iters(base: usize) -> usize {
    std::env::var("STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(base, |m| base * m.max(1))
}

#[test]
fn many_threads_share_one_smart_proxy() {
    let infra = Infrastructure::in_process().unwrap();
    for host in ["conc-a", "conc-b"] {
        infra
            .spawn_server(ServerSpec::echo("ConcSvc", host))
            .unwrap();
    }
    let proxy = infra
        .smart_proxy("ConcSvc")
        .preference("min LoadAvg")
        .build()
        .unwrap();

    const THREADS: usize = 8;
    const CALLS: usize = 50;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let proxy = proxy.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..CALLS {
                let out = proxy
                    .invoke("echo", vec![Value::Long((t * CALLS + i) as i64)])
                    .expect("invoke under concurrency");
                assert_eq!(out, Value::Long((t * CALLS + i) as i64));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(proxy.invocations(), (THREADS * CALLS) as u64);
}

#[test]
fn invocations_race_with_monitor_ticks_and_events() {
    let infra = Infrastructure::in_process().unwrap();
    for host in ["race-a", "race-b", "race-c"] {
        infra
            .spawn_server(ServerSpec::echo("RaceSvc", host))
            .unwrap();
    }
    let proxy = infra
        .smart_proxy("RaceSvc")
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return v[1] > 0.5 end",
        ))
        .build()
        .unwrap();

    // One thread advances time and ticks monitors (generating events),
    // while others invoke through the proxy (draining + rebinding).
    let infra_ticker = infra.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_ticker = stop.clone();
    let ticker = std::thread::spawn(move || {
        let mut phase = 0u64;
        while !stop_ticker.load(std::sync::atomic::Ordering::Relaxed) {
            phase += 1;
            for (i, server) in infra_ticker.servers().into_iter().enumerate() {
                let jobs = if (phase / 3) % 3 == i as u64 {
                    4.0
                } else {
                    0.0
                };
                server.sim_host().set_background(infra_ticker.now(), jobs);
            }
            infra_ticker.advance(Duration::from_secs(30));
            std::thread::yield_now();
        }
    });

    let mut handles = Vec::new();
    for _ in 0..4 {
        let proxy = proxy.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..100 {
                proxy
                    .invoke("hello", vec![Value::from("race")])
                    .expect("invoke during adaptation");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    ticker.join().unwrap();
    assert!(proxy.invocations() >= 400);
    // Events were flowing while we invoked.
    assert!(
        proxy.events_received() > 0,
        "ticker should have caused events"
    );
}

#[test]
fn concurrent_strategy_swaps_are_safe() {
    let infra = Infrastructure::in_process().unwrap();
    infra
        .spawn_server(ServerSpec::echo("SwapRace", "swaprace-a"))
        .unwrap();
    let proxy = infra.smart_proxy("SwapRace").build().unwrap();

    let swapper = {
        let proxy = proxy.clone();
        std::thread::spawn(move || {
            for i in 0..50 {
                proxy
                    .set_strategy_script(
                        "E",
                        &format!("function(self, event) generation = {i} end"),
                    )
                    .expect("swap strategy");
            }
        })
    };
    let invoker = {
        let proxy = proxy.clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                proxy.adapt_now("E");
                proxy.invoke("hello", vec![Value::from("x")]).unwrap();
            }
        })
    };
    swapper.join().unwrap();
    invoker.join().unwrap();
    // The actor's state reflects some generation; nothing wedged.
    let gen = proxy.actor().eval("return generation or -1").unwrap();
    assert!(matches!(gen[0], Value::Long(_)));
}

// ---- multiplexed TCP transport ---------------------------------------------

/// A servant that sleeps `delay` on the `"slow"` operation and echoes
/// its arguments on everything else.
fn slow_echo_server(name: &str, delay: Duration) -> (Orb, String) {
    let server = Orb::new(name);
    server
        .activate(
            "svc",
            ServantFn::new("SlowEcho", move |op, args| {
                if op == "slow" {
                    std::thread::sleep(delay);
                    return Ok(Value::from("slow-reply"));
                }
                Ok(Value::Seq(args))
            }),
        )
        .unwrap();
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
    (server, endpoint)
}

/// Acceptance: 8 concurrent invocations of a 100 ms servant on one
/// endpoint must pipeline on the multiplexed connection and finish in
/// roughly one call's latency — well under the 8×100 ms a
/// lock-the-stream-per-round-trip transport would take.
#[test]
fn eight_concurrent_calls_to_a_slow_servant_pipeline() {
    let (_server, endpoint) = slow_echo_server("mux-pipe", Duration::from_millis(100));
    let client = Orb::new("mux-pipe-client");
    let target = ObjRef::new(endpoint, "svc", "SlowEcho");
    // Warm the pooled connection so the measurement sees pipelining,
    // not connection setup.
    client.invoke_ref(&target, "echo", vec![]).unwrap();

    let started = Instant::now();
    let handles: Vec<_> = (0..8i64)
        .map(|i| {
            let client = client.clone();
            let target = target.clone();
            std::thread::spawn(move || client.invoke_ref(&target, "slow", vec![Value::Long(i)]))
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), Value::from("slow-reply"));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(450),
        "8 concurrent 100ms calls took {elapsed:?}: the transport is serializing round trips"
    );
}

/// Acceptance: a deadline-expired call fails alone. The pooled
/// connection stays usable, the next call gets *its own* reply (never
/// the expired call's late one), and once the late reply trickles in it
/// is discarded without desynchronizing the stream.
#[test]
fn deadline_expiry_fails_one_call_without_poisoning_the_connection() {
    let (_server, endpoint) = slow_echo_server("mux-deadline", Duration::from_millis(300));
    let client = Orb::new("mux-deadline-client");
    let target = ObjRef::new(endpoint, "svc", "SlowEcho");
    client.invoke_ref(&target, "echo", vec![]).unwrap();

    // The call before set the connection's read timeout for the default
    // deadline; this one must still give up near its own 50 ms.
    let started = Instant::now();
    let err = client
        .invoke_ref_with(
            &target,
            "slow",
            vec![],
            InvokeOptions::new().deadline(Duration::from_millis(50)),
        )
        .unwrap_err();
    let waited = started.elapsed();
    assert!(
        matches!(err, OrbError::DeadlineExpired { .. }),
        "expected DeadlineExpired, got: {err}"
    );
    assert!(
        waited < Duration::from_millis(250),
        "a 50 ms deadline expired after {waited:?}"
    );

    // Immediately after the expiry (the slow reply is still pending on
    // the wire) the same pooled connection must serve fresh calls with
    // their own replies.
    let out = client
        .invoke_ref(&target, "echo", vec![Value::Long(1)])
        .unwrap();
    assert_eq!(out, Value::Seq(vec![Value::Long(1)]));

    // And after the late reply has arrived (and been discarded), the
    // connection is still healthy.
    std::thread::sleep(Duration::from_millis(350));
    let out = client
        .invoke_ref(&target, "echo", vec![Value::Long(2)])
        .unwrap();
    assert_eq!(out, Value::Seq(vec![Value::Long(2)]));
}

/// Oneway and two-way traffic interleaved on one pooled connection:
/// every two-way reply matches its own request, and every oneway is
/// eventually served.
#[test]
fn oneway_and_twoway_interleave_on_one_pooled_connection() {
    let (server, endpoint) = slow_echo_server("mux-interleave", Duration::from_millis(5));
    let client = Orb::new("mux-interleave-client");
    let target = ObjRef::new(endpoint, "svc", "SlowEcho");

    let rounds = stress_iters(25);
    for i in 0..rounds as i64 {
        client
            .invoke_oneway_ref(&target, "echo", vec![Value::Long(i)])
            .unwrap();
        let out = client
            .invoke_ref(&target, "echo", vec![Value::Long(i)])
            .unwrap();
        assert_eq!(out, Value::Seq(vec![Value::Long(i)]), "round {i}");
    }

    // All oneways (plus the two-ways) land on the server eventually.
    let expected = (rounds * 2) as u64;
    for _ in 0..1000 {
        if server.stats().requests_served >= expected {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "only {} of {expected} interleaved requests served",
        server.stats().requests_served
    );
}

/// A storm of concurrent callers from many threads over one endpoint:
/// no lost replies, no cross-talk, counters add up.
#[test]
fn concurrent_tcp_callers_never_cross_talk() {
    let (_server, endpoint) = slow_echo_server("mux-storm", Duration::from_millis(1));
    let client = Orb::new("mux-storm-client");
    let target = ObjRef::new(endpoint, "svc", "SlowEcho");
    let calls = stress_iters(20);
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let client = client.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                for i in 0..calls {
                    let tag = (t * 1_000_000 + i) as i64;
                    let out = client
                        .invoke_ref(&target, "echo", vec![Value::Long(tag)])
                        .expect("storm invoke");
                    assert_eq!(out, Value::Seq(vec![Value::Long(tag)]), "reply cross-talk");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(client.stats().replies_received, 6 * calls as u64);
}
