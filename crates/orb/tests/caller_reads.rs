//! The TCP client's leader/followers wait: callers read their own
//! replies, with no reader thread per connection. Scripted raw servers
//! control the order and the timing of reply bytes on the wire.
//!
//! `ci.sh --stress` runs this file 20 times: it races deadlines
//! against the hand-off from one leader to the next.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use adapta_idl::Value;
use adapta_orb::{InvokeOptions, Message, ObjRef, Orb, OrbError, ReplyBody, RequestBody};

/// Reads one request frame; `None` at the end of the stream.
fn read_request(stream: &mut TcpStream) -> Option<RequestBody> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).ok()?;
    match Message::decode(&body) {
        Ok(Message::Request(request)) => Some(request),
        other => panic!("expected a request, got {other:?}"),
    }
}

/// The reply frame (length prefix included) echoing `request`'s first
/// argument.
fn echo_reply(request: &RequestBody) -> Vec<u8> {
    let body = Message::Reply(ReplyBody {
        id: request.id,
        outcome: Ok(request.args[0].clone()),
    })
    .encode();
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// Echoes requests on `stream` until the client closes it.
fn echo_until_closed(stream: &mut TcpStream) {
    while let Some(request) = read_request(stream) {
        if stream.write_all(&echo_reply(&request)).is_err() {
            return;
        }
    }
}

/// A raw server for one connection, run by `script` on its own thread.
fn scripted_server(script: impl FnOnce(TcpStream) + Send + 'static) -> (ObjRef, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        script(stream);
    });
    (ObjRef::new(format!("tcp://{addr}"), "echo", "Echo"), server)
}

fn call(
    client: &Orb,
    target: &ObjRef,
    arg: i64,
    deadline: Duration,
) -> JoinHandle<Result<Value, OrbError>> {
    let (client, target) = (client.clone(), target.clone());
    std::thread::spawn(move || {
        client.invoke_ref_with(
            &target,
            "echo",
            vec![Value::Long(arg)],
            InvokeOptions::new().deadline(deadline),
        )
    })
}

const LONG: Duration = Duration::from_secs(10);

/// Names of this process's threads.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

#[test]
fn replies_out_of_order_reach_their_own_callers() {
    let (arrived_tx, arrived) = mpsc::channel();
    let (target, server) = scripted_server(move |mut stream| {
        let first = read_request(&mut stream).unwrap();
        arrived_tx.send(()).unwrap();
        let second = read_request(&mut stream).unwrap();
        // The follower's reply first: the leader must route it.
        stream.write_all(&echo_reply(&second)).unwrap();
        stream.write_all(&echo_reply(&first)).unwrap();
        echo_until_closed(&mut stream);
    });
    let client = Orb::new("caller-reads-order");
    let leader = call(&client, &target, 1, LONG);
    arrived.recv().unwrap();
    let follower = call(&client, &target, 2, LONG);
    assert_eq!(follower.join().unwrap().unwrap(), Value::Long(2));
    assert_eq!(leader.join().unwrap().unwrap(), Value::Long(1));
    drop(client);
    server.join().unwrap();
}

#[test]
fn a_leader_timing_out_mid_frame_leaves_the_rest_to_the_next() {
    let (arrived_tx, arrived) = mpsc::channel();
    let (leader_gone_tx, leader_gone) = mpsc::channel::<()>();
    let (target, server) = scripted_server(move |mut stream| {
        let first = read_request(&mut stream).unwrap();
        arrived_tx.send(()).unwrap();
        let second = read_request(&mut stream).unwrap();
        let reply = echo_reply(&first);
        let (head, rest) = reply.split_at(reply.len() / 2);
        stream.write_all(head).unwrap();
        leader_gone.recv().unwrap();
        stream.write_all(rest).unwrap();
        stream.write_all(&echo_reply(&second)).unwrap();
        // Later calls must arrive on this same connection: the server
        // accepts no other.
        echo_until_closed(&mut stream);
    });
    let client = Orb::new("caller-reads-mid-frame");
    let leader = call(&client, &target, 1, Duration::from_millis(50));
    arrived.recv().unwrap();
    let follower = call(&client, &target, 2, LONG);
    let err = leader.join().unwrap().unwrap_err();
    assert!(matches!(err, OrbError::DeadlineExpired { .. }), "{err:?}");
    leader_gone_tx.send(()).unwrap();
    assert_eq!(follower.join().unwrap().unwrap(), Value::Long(2));
    // The stream is still in step, on the one pooled connection.
    for arg in 3..6 {
        let out = call(&client, &target, arg, Duration::from_secs(2));
        assert_eq!(out.join().unwrap().unwrap(), Value::Long(arg));
    }
    drop(client);
    server.join().unwrap();
}

#[test]
fn shutdown_wakes_a_blocked_leader_and_a_blocked_follower() {
    let (arrived_tx, arrived) = mpsc::channel();
    let (target, server) = scripted_server(move |mut stream| {
        while read_request(&mut stream).is_some() {
            let _ = arrived_tx.send(());
        }
    });
    let client = Orb::new("caller-reads-shutdown");
    let leader = call(&client, &target, 1, LONG);
    arrived.recv().unwrap();
    let follower = call(&client, &target, 2, LONG);
    arrived.recv().unwrap();
    // Let both block: the leader in `read`, the follower parked.
    std::thread::sleep(Duration::from_millis(50));
    client.shutdown(Duration::from_millis(100));
    for caller in [leader, follower] {
        let err = caller.join().unwrap().unwrap_err();
        assert!(matches!(err, OrbError::ShuttingDown), "{err:?}");
    }
    server.join().unwrap();
}

#[test]
fn an_idle_connection_closed_by_its_peer_is_replaced_before_the_write() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let target = ObjRef::new(
        format!("tcp://{}", listener.local_addr().unwrap()),
        "echo",
        "Echo",
    );
    let executions = Arc::new(AtomicUsize::new(0));
    let (closed_tx, closed) = mpsc::channel();
    let server = {
        let executions = executions.clone();
        // Each connection serves one request, then the server closes it.
        std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let request = read_request(&mut stream).unwrap();
                executions.fetch_add(1, Ordering::SeqCst);
                stream.write_all(&echo_reply(&request)).unwrap();
                drop(stream);
                closed_tx.send(()).unwrap();
            }
        })
    };
    let client = Orb::new("caller-reads-idle-close");
    let out = call(&client, &target, 1, LONG).join().unwrap();
    assert_eq!(out.unwrap(), Value::Long(1));
    closed.recv().unwrap();
    // Let the close reach the client's socket.
    std::thread::sleep(Duration::from_millis(50));
    let out = call(&client, &target, 2, LONG).join().unwrap();
    assert_eq!(out.unwrap(), Value::Long(2));
    assert_eq!(executions.load(Ordering::SeqCst), 2);
    server.join().unwrap();
}

#[cfg(target_os = "linux")]
#[test]
fn connections_have_no_reader_threads() {
    let client = Orb::new("caller-reads-threads-client");
    let servers: Vec<Orb> = (0..4)
        .map(|i| {
            let server = Orb::new(&format!("caller-reads-threads-{i}"));
            server
                .activate(
                    "echo",
                    adapta_orb::ServantFn::new("Echo", |_, args| Ok(args[0].clone())),
                )
                .unwrap();
            server
        })
        .collect();
    for server in &servers {
        let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
        let target = ObjRef::new(endpoint, "echo", "Echo");
        for arg in 0..3 {
            let out = client.invoke_ref(&target, "echo", vec![Value::Long(arg)]);
            assert_eq!(out.unwrap(), Value::Long(arg));
        }
    }
    let readers: Vec<_> = thread_names()
        .into_iter()
        .filter(|name| name.starts_with("orb-mux-reader"))
        .collect();
    assert!(readers.is_empty(), "reader threads: {readers:?}");
}

#[test]
fn a_storm_of_deadlines_never_crosses_replies() {
    const THREADS: u64 = 16;
    const CALLS: u64 = 200;
    let server = Orb::new("caller-reads-storm-server");
    server
        .activate(
            "echo",
            adapta_orb::ServantFn::new("Echo", |_, args| {
                let pause = args[1].as_long().unwrap_or(0) as u64;
                std::thread::sleep(Duration::from_millis(pause));
                Ok(args[0].clone())
            }),
        )
        .unwrap();
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
    let target = ObjRef::new(endpoint, "echo", "Echo");
    let client = Orb::new("caller-reads-storm-client");
    let callers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (client, target) = (client.clone(), target.clone());
            std::thread::spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
                let mut next = move |n: u64| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % n
                };
                let mut ok = 0;
                for i in 0..CALLS {
                    let arg = (t * CALLS + i) as i64;
                    let pause = next(6) as i64;
                    let deadline = Duration::from_millis(1 + next(20));
                    let out = client.invoke_ref_with(
                        &target,
                        "echo",
                        vec![Value::Long(arg), Value::Long(pause)],
                        InvokeOptions::new().deadline(deadline),
                    );
                    match out {
                        Ok(value) => {
                            assert_eq!(value, Value::Long(arg), "a reply reached the wrong caller");
                            ok += 1;
                        }
                        Err(OrbError::DeadlineExpired { .. }) => {}
                        Err(e) => panic!("call {arg}: {e:?}"),
                    }
                }
                ok
            })
        })
        .collect();
    let ok: u64 = callers.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(ok > 0, "no call beat its deadline");
    // The connection is still in step after the storm.
    let out = client.invoke_ref(&target, "echo", vec![Value::Long(-1), Value::Long(0)]);
    assert_eq!(out.unwrap(), Value::Long(-1));
}
