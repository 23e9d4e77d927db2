//! The TCP server's leader/followers crew: the thread that reads a
//! request serves it, after handing the lead to a follower. Slow and
//! fast requests pipelined on one connection, the per-connection thread
//! cap, the at-cap queue and its shedding, and the crew's exit.
//!
//! Its own test binary: it counts the process's connection threads. The
//! tests take turns, so each one sees only its own threads.
//! `ci.sh --stress` runs this file 20 times.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adapta_idl::Value;
use adapta_orb::{ObjRef, Orb, OrbError, OrbOptions, ServantFn};
use adapta_telemetry::registry;

/// Serializes the tests: they count threads process-wide.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of this process serving accepted connections.
fn connection_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("orb-conn"))
        .count()
}

/// Waits up to 5 s for every connection thread to exit.
fn await_no_connection_threads() {
    let until = Instant::now() + Duration::from_secs(5);
    while connection_threads() > 0 {
        assert!(Instant::now() < until, "connection threads never exited");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A server whose `echo` servant sleeps `pause`, then returns its
/// argument; the count is of its executions.
fn sleepy_server(
    name: &str,
    options: OrbOptions,
    pause: Duration,
) -> (Orb, ObjRef, Arc<AtomicUsize>) {
    let server = Orb::with_options(name, options);
    let executions = Arc::new(AtomicUsize::new(0));
    let count = executions.clone();
    server
        .activate(
            "echo",
            ServantFn::new("Echo", move |_, args| {
                count.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(pause);
                Ok(args[0].clone())
            }),
        )
        .unwrap();
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
    (server, ObjRef::new(endpoint, "echo", "Echo"), executions)
}

/// `callers` concurrent calls of `echo(i)` from one client, released
/// together, pipelined on its one pooled connection. A pseudo-operation,
/// which no servant runs, opens that connection first, so that no
/// second one is opened and dropped by callers racing to connect.
fn burst(client: &Orb, target: &ObjRef, callers: i64) -> Vec<(i64, Result<Value, OrbError>)> {
    let opened = client.invoke_ref(target, "_non_existent", vec![]);
    assert_eq!(opened.unwrap(), Value::Bool(false));
    let start = Arc::new(Barrier::new(callers as usize));
    let calls: Vec<JoinHandle<_>> = (0..callers)
        .map(|i| {
            let (client, target, start) = (client.clone(), target.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                (i, client.invoke_ref(&target, "echo", vec![Value::Long(i)]))
            })
        })
        .collect();
    calls.into_iter().map(|call| call.join().unwrap()).collect()
}

#[test]
fn a_slow_request_does_not_stall_a_fast_one_pipelined_behind_it() {
    let _turn = one_at_a_time();
    let server = Orb::new("leads-no-stall");
    let (started_tx, started) = mpsc::channel();
    server
        .activate(
            "svc",
            ServantFn::new("Svc", move |op, args| {
                if op == "slow" {
                    started_tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(300));
                }
                Ok(args[0].clone())
            }),
        )
        .unwrap();
    let target = ObjRef::new(server.listen_tcp("127.0.0.1:0").unwrap(), "svc", "Svc");
    let client = Orb::new("leads-no-stall-client");
    // Warm the pool: both calls below share this one connection.
    client
        .invoke_ref(&target, "fast", vec![Value::Long(0)])
        .unwrap();

    let slow = {
        let (client, target) = (client.clone(), target.clone());
        std::thread::spawn(move || client.invoke_ref(&target, "slow", vec![Value::Long(1)]))
    };
    started.recv().unwrap();
    let sent = Instant::now();
    let fast = client.invoke_ref(&target, "fast", vec![Value::Long(2)]);
    let waited = sent.elapsed();
    assert_eq!(fast.unwrap(), Value::Long(2));
    assert!(
        waited < Duration::from_millis(100),
        "fast reply took {waited:?}"
    );
    assert_eq!(slow.join().unwrap().unwrap(), Value::Long(1));
}

#[test]
fn at_the_cap_a_burst_queues_one_and_sheds_the_rest() {
    let _turn = one_at_a_time();
    let options = OrbOptions::new().max_conn_workers(1).max_conn_queue(1);
    let pause = Duration::from_millis(100);
    let (server, target, executions) = sleepy_server("leads-shed", options, pause);
    let shed_name = format!("orb.{}.tcp.server.shed", server.node_name());
    let shed_before = registry().snapshot().counter(&shed_name).unwrap_or(0);
    let client = Orb::new("leads-shed-client");

    let results = burst(&client, &target, 8);
    let mut served = 0;
    for (i, result) in results {
        match result {
            Ok(value) => {
                assert_eq!(value, Value::Long(i));
                served += 1;
            }
            Err(err) => assert!(matches!(err, OrbError::TransientOverload), "{err:?}"),
        }
    }
    let shed = registry().snapshot().counter(&shed_name).unwrap_or(0) - shed_before;
    assert!(shed > 0, "nothing was shed");
    assert_eq!(served + shed as usize, 8, "every call was served or shed");
    assert_eq!(executions.load(Ordering::SeqCst), served);
}

#[test]
fn a_burst_runs_at_most_the_cap_plus_the_leader() {
    let _turn = one_at_a_time();
    await_no_connection_threads();
    let cap = 4;
    let options = OrbOptions::new().max_conn_workers(cap).max_conn_queue(64);
    let server = Orb::with_options("leads-cap", options);
    let most = Arc::new(AtomicUsize::new(0));
    let seen = most.clone();
    server
        .activate(
            "echo",
            ServantFn::new("Echo", move |_, args| {
                seen.fetch_max(connection_threads(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                Ok(args[0].clone())
            }),
        )
        .unwrap();
    let target = ObjRef::new(server.listen_tcp("127.0.0.1:0").unwrap(), "echo", "Echo");
    let client = Orb::new("leads-cap-client");

    for (i, result) in burst(&client, &target, 16) {
        assert_eq!(result.unwrap(), Value::Long(i));
    }
    most.fetch_max(connection_threads(), Ordering::SeqCst);
    let most = most.load(Ordering::SeqCst);
    assert!(most > 1, "the burst was served by one thread");
    assert!(
        most <= cap + 1,
        "{most} connection threads for a cap of {cap}"
    );
}

#[test]
fn a_closed_connection_ends_every_thread_of_its_crew() {
    let _turn = one_at_a_time();
    await_no_connection_threads();
    let pause = Duration::from_millis(20);
    let (_server, target, _) = sleepy_server("leads-close", OrbOptions::new(), pause);
    let client = Orb::new("leads-close-client");
    for (i, result) in burst(&client, &target, 8) {
        assert_eq!(result.unwrap(), Value::Long(i));
    }
    // The crew outlives the burst: followers park on the lead.
    assert!(connection_threads() > 1);

    // The server lives on; the client's close alone ends the crew.
    drop(client);
    await_no_connection_threads();
}

#[test]
fn a_oneway_is_served_during_a_slow_call() {
    let _turn = one_at_a_time();
    let server = Orb::new("leads-oneway");
    let (noted_tx, noted) = mpsc::channel();
    let noted = Mutex::new(noted);
    let (started_tx, started) = mpsc::channel();
    server
        .activate(
            "svc",
            ServantFn::new("Svc", move |op, _| match op {
                // Answers whether the oneway ran while this call did.
                "slow" => {
                    started_tx.send(()).unwrap();
                    let noted = noted.lock().unwrap();
                    Ok(Value::Bool(
                        noted.recv_timeout(Duration::from_secs(2)).is_ok(),
                    ))
                }
                _ => {
                    noted_tx.send(()).unwrap();
                    Ok(Value::Null)
                }
            }),
        )
        .unwrap();
    let target = ObjRef::new(server.listen_tcp("127.0.0.1:0").unwrap(), "svc", "Svc");
    let client = Orb::new("leads-oneway-client");
    let slow = {
        let (client, target) = (client.clone(), target.clone());
        std::thread::spawn(move || client.invoke_ref(&target, "slow", vec![]))
    };
    started.recv().unwrap();
    client.invoke_oneway_ref(&target, "note", vec![]).unwrap();
    assert_eq!(slow.join().unwrap().unwrap(), Value::Bool(true));
}
