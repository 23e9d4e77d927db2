//! Regression guards for the per-call path: heap allocations of a warm
//! in-process smart-proxy call, and the fixed memory of a live latency
//! histogram.
//!
//! A counting global allocator (local to this test binary) counts the
//! allocations each thread makes while it has counting switched on, so
//! tests running in parallel and background threads do not disturb the
//! figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use adapta::core::{Infrastructure, ServerSpec};
use adapta::idl::Value;
use adapta::telemetry::registry;

struct CountingAllocator;

thread_local! {
    /// `Some(n)`: this thread counts, and has made `n` allocations.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is a thread-local counter update, which does not
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations this thread made in it.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.take()).unwrap_or(0)
}

/// E4's smart-proxy rung: a classic proxy bound to an in-process echo
/// server, invoked with a short string and a long. Counted per call,
/// including building the argument list (two allocations).
#[test]
fn warm_inproc_smart_proxy_call_stays_within_its_allocation_budget() {
    const WARM_UP: usize = 10_000;
    const CALLS: u64 = 100_000;
    const BUDGET: u64 = 32;

    let infra = Infrastructure::in_process().unwrap();
    infra
        .spawn_server(ServerSpec::echo("HotPathSvc", "hot-path-host"))
        .unwrap();
    let proxy = infra.smart_proxy("HotPathSvc").build().unwrap();
    let args = || vec![Value::from("payload-string"), Value::Long(42)];
    for _ in 0..WARM_UP {
        proxy.invoke("echo", args()).unwrap();
    }
    let allocations = allocations_in(|| {
        for _ in 0..CALLS {
            let reply = proxy.invoke("echo", args()).unwrap();
            assert_eq!(reply, Value::from("payload-string"));
        }
    });
    let per_call = allocations as f64 / CALLS as f64;
    assert!(
        per_call <= BUDGET as f64,
        "{per_call:.2} allocations per call, budget {BUDGET}"
    );
}

/// A live histogram's memory is fixed at creation: a million samples
/// allocate nothing and leave its size unchanged.
#[test]
fn a_million_samples_do_not_grow_a_live_histogram() {
    let histogram = registry().histogram("test.hot_path.flat");
    let before = histogram.heap_bytes();
    let allocations = allocations_in(|| {
        for i in 0..1_000_000u64 {
            histogram.record(Duration::from_nanos(i * 7919 % 50_000_000));
        }
    });
    assert_eq!(allocations, 0, "recording allocated");
    assert_eq!(histogram.heap_bytes(), before);
    assert_eq!(histogram.summary().count, 1_000_000);
}
