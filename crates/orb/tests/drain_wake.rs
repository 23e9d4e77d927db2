//! A drain that cannot miss its wake-up. While an orb runs, a finished
//! dispatch wakes no one; once `Orb::shutdown` has begun, the last one
//! must wake the drain at once, not leave it to the drain's 25 ms
//! re-check. A servant blocks until released about 1 ms after the
//! shutdown begins, and the shutdown must return within a few
//! milliseconds of the release, in process and over TCP.
//!
//! `ci.sh --stress` runs this file 20 times.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adapta_idl::Value;
use adapta_orb::{ObjRef, Orb, ServantFn};

const TRIES: usize = 20;
/// Median delay a prompt wake-up stays under; one left to the re-check
/// takes about 24 ms.
const PROMPT: Duration = Duration::from_millis(5);

/// Shuts down an orb whose one servant is mid-call and blocked, releases
/// the servant about 1 ms after the shutdown began, and returns how long
/// after the release the shutdown returned. `client` calls the servant:
/// in process when `None`, else from that orb over TCP.
fn delay_after_release(name: &str, client: Option<&Orb>) -> Duration {
    let server = Orb::new(name);
    let (entered_tx, entered) = mpsc::channel();
    let release = Arc::new(Barrier::new(2));
    let gate = release.clone();
    server
        .activate(
            "block",
            ServantFn::new("Block", move |_, _| {
                let _ = entered_tx.send(());
                gate.wait();
                Ok(Value::Bool(true))
            }),
        )
        .unwrap();
    let (caller, target) = match client {
        Some(client) => {
            let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
            (client.clone(), ObjRef::new(endpoint, "block", "Block"))
        }
        None => (server.clone(), server.object_ref("block").unwrap()),
    };
    let call = std::thread::spawn(move || caller.invoke_ref(&target, "block", vec![]));
    entered.recv_timeout(Duration::from_secs(5)).unwrap();

    let drainer = server.clone();
    let shutdown = std::thread::spawn(move || {
        let drained = drainer.shutdown(Duration::from_secs(5));
        (drained, Instant::now())
    });
    while !server.is_shutting_down() {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(1));
    let released = Instant::now();
    release.wait();

    let (drained, returned) = shutdown.join().unwrap();
    assert!(drained, "{name}: the drain gave up");
    assert_eq!(call.join().unwrap().unwrap(), Value::Bool(true));
    returned.saturating_duration_since(released)
}

fn assert_prompt(mut delays: Vec<Duration>) {
    delays.sort();
    let median = delays[delays.len() / 2];
    assert!(
        median < PROMPT,
        "median shutdown delay after the release {median:?}, all {delays:?}"
    );
}

#[test]
fn the_last_in_process_dispatch_wakes_the_drain() {
    let delays = (0..TRIES)
        .map(|i| delay_after_release(&format!("drain-wake-inproc-{i}"), None))
        .collect();
    assert_prompt(delays);
}

#[test]
fn the_last_tcp_dispatch_wakes_the_drain() {
    let client = Orb::new("drain-wake-tcp-client");
    let delays = (0..TRIES)
        .map(|i| delay_after_release(&format!("drain-wake-tcp-{i}"), Some(&client)))
        .collect();
    assert_prompt(delays);
}
