//! A dropped orb closes the connections it accepted, so their threads
//! (and their workers) exit even while the peer keeps its socket open.
//!
//! Its own test binary: it counts the process's connection threads.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta_idl::Value;
use adapta_orb::{ObjRef, Orb, ServantFn};

/// Threads of this process serving accepted connections.
fn connection_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("orb-conn"))
        .count()
}

/// A server on `addr` whose echo servant counts its executions.
fn counting_server(name: &str, addr: &str) -> (Orb, String, Arc<AtomicUsize>) {
    let executions = Arc::new(AtomicUsize::new(0));
    let server = Orb::new(name);
    let count = executions.clone();
    server
        .activate(
            "echo",
            ServantFn::new("Echo", move |_, args| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(args[0].clone())
            }),
        )
        .unwrap();
    let endpoint = server.listen_tcp(addr).unwrap();
    (server, endpoint, executions)
}

#[test]
fn a_dropped_orb_closes_its_accepted_connections() {
    let (a, endpoint, _) = counting_server("dropped-server-a", "127.0.0.1:0");
    let client = Orb::new("dropped-server-client");
    let target = ObjRef::new(endpoint.clone(), "echo", "Echo");
    let out = client.invoke_ref(&target, "echo", vec![Value::Long(1)]);
    assert_eq!(out.unwrap(), Value::Long(1));
    assert!(connection_threads() > 0);

    // The client keeps its pooled connection open; A's threads go anyway.
    drop(a);
    let mut polls = 0;
    while connection_threads() > 0 {
        polls += 1;
        assert!(polls < 500, "connection threads outlived their orb");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A new server on the same port serves the same client, once.
    let addr = endpoint.strip_prefix("tcp://").unwrap();
    let (_b, _, executions) = counting_server("dropped-server-b", addr);
    let out = client.invoke_ref(&target, "echo", vec![Value::Long(2)]);
    assert_eq!(out.unwrap(), Value::Long(2));
    assert_eq!(executions.load(Ordering::SeqCst), 1);
}
