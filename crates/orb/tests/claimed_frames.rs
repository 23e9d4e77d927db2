//! A peer pins memory only for the bytes it sent: a length prefix that
//! claims a frame of 64 MiB, followed by 3 bytes of it, must not make a
//! listening orb set 64 MiB aside.
//!
//! Its own test binary: a byte-counting global allocator measures the
//! process's live heap, so no other test may run beside this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use adapta_idl::Value;
use adapta_orb::{ObjRef, Orb, ServantFn};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is an atomic counter update, which does not
// allocate.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_claimed_frame_pins_no_memory_before_its_bytes_arrive() {
    const PEERS: usize = 2;
    const CLAIM: u32 = 64 * 1024 * 1024;
    const BOUND: isize = 1024 * 1024;

    let server = Orb::new("claimed-frames");
    server
        .activate(
            "echo",
            ServantFn::new("Echo", |_, args| Ok(Value::Seq(args))),
        )
        .unwrap();
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
    let addr = endpoint.strip_prefix("tcp://").unwrap().to_owned();

    let before = live_bytes();
    let peers: Vec<TcpStream> = (0..PEERS)
        .map(|_| {
            let mut peer = TcpStream::connect(&addr).unwrap();
            peer.write_all(&CLAIM.to_le_bytes()).unwrap();
            peer.write_all(b"abc").unwrap();
            peer
        })
        .collect();
    // Give the server's connection threads time to read what was sent,
    // and keep the highest live heap seen meanwhile.
    let mut highest = before;
    let until = Instant::now() + Duration::from_millis(500);
    while Instant::now() < until {
        highest = highest.max(live_bytes());
        std::thread::sleep(Duration::from_millis(5));
    }
    let rise = highest - before;
    assert!(
        rise < BOUND,
        "{PEERS} peers that sent 7 bytes each pinned {rise} bytes"
    );

    // The orb still serves a well-behaved caller beside them.
    let client = Orb::new("claimed-frames-client");
    let target = ObjRef::new(endpoint, "echo", "Echo");
    let reply = client.invoke_ref(&target, "echo", vec![Value::Long(1)]);
    assert_eq!(reply.unwrap(), Value::Seq(vec![Value::Long(1)]));
    drop(peers);
}
