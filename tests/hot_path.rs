//! Regression guards for the per-call path: heap allocations of a warm
//! in-process smart-proxy call, classic and balanced, of a span and of a
//! trader query; the fixed memory of a live latency histogram; and the
//! span collector's visibility and memory bound across threads.
//!
//! A counting global allocator (local to this test binary) counts the
//! allocations each thread makes while it has counting switched on, so
//! tests running in parallel and background threads do not disturb the
//! figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use adapta::core::{BreakerConfig, Infrastructure, ServerSpec};
use adapta::idl::{TypeCode, Value};
use adapta::orb::{ObjRef, Orb, ServantFn};
use adapta::telemetry::{collector, registry, Span, RETAINED_SPAN_BYTES};
use adapta::trading::{ExportRequest, PropDef, PropMode, Query, ServiceTypeDef, Trader};

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
/// including building the argument list (two allocations). The budget
/// matches the balanced rung below: 6 allocations a call, so the pick
/// both kinds of proxy share cannot start allocating.
#[test]
fn warm_inproc_smart_proxy_call_stays_within_its_allocation_budget() {
    const WARM_UP: usize = 10_000;
    const CALLS: u64 = 100_000;
    const BUDGET: u64 = 6;

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

/// A balanced proxy with a breaker over two in-process echo servers,
/// invoked like the classic rung above. The pick reads each replica's
/// health record in place and hands the set itself to the policy, so
/// it allocates no replica list: 6 allocations a call, where copying
/// the list twice made 8.
///
/// Spans from every thread of the process share one trace ring, but a
/// ring slot is sized at creation for all that a span holds inline, so
/// a call's spans never grow a slot whatever other threads recorded
/// there: `SLACK` is 0.
#[test]
fn warm_balanced_smart_proxy_call_stays_within_its_allocation_budget() {
    const WARM_UP: usize = 10_000;
    const CALLS: u64 = 100_000;
    const BUDGET: u64 = 6;
    const SLACK: f64 = 0.0;

    let infra = Infrastructure::in_process().unwrap();
    for host in ["hot-path-bal-a", "hot-path-bal-b"] {
        infra
            .spawn_server(ServerSpec::echo("HotPathBalSvc", host))
            .unwrap();
    }
    let proxy = infra
        .smart_proxy("HotPathBalSvc")
        .balanced("round_robin")
        // No background refresh while counting: its trader queries
        // cycle their spans through the trace ring too.
        .balancer_refresh(Duration::from_secs(3600))
        .circuit_breaker(BreakerConfig::default())
        .build()
        .unwrap();
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
        per_call <= BUDGET as f64 + SLACK,
        "{per_call:.4} allocations per call, budget {BUDGET}"
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

/// A warm child span with two short text attributes, the shape of the
/// client and server spans of every call, allocates nothing: the span
/// keeps its texts inline and recording moves it into the collector's
/// ring. Warmed by enough spans to fill the ring, which grows only
/// until it holds its capacity.
#[test]
fn a_warm_child_span_with_two_attributes_allocates_nothing() {
    let root = Span::root("hot-path-span-root");
    let record = || {
        let mut span = Span::start(("client:", "echo"));
        span.attr("node", "hot-path-node");
        span.attr("key", "echo");
    };
    for _ in 0..collector().capacity() + 1 {
        record();
    }
    let allocations = allocations_in(|| {
        for _ in 0..10_000 {
            record();
        }
    });
    drop(root);
    assert_eq!(allocations, 0, "recording spans allocated");
}

/// Spans ended on two threads are visible to readers as soon as each
/// one ends: no span waits in a per-thread buffer.
#[test]
fn spans_of_two_threads_are_visible_as_soon_as_they_end() {
    std::thread::scope(|scope| {
        for thread in ["hot-path-visible-a", "hot-path-visible-b"] {
            scope.spawn(move || {
                for i in 0..500u64 {
                    let mut span = Span::root(("hot-path:", thread));
                    span.attr("i", i);
                    let (trace, id) = (span.trace_id(), span.span_id());
                    drop(span);
                    let spans = if i % 100 == 0 {
                        collector().finished()
                    } else {
                        collector().for_trace(trace)
                    };
                    let record = spans.iter().find(|s| s.span == id);
                    let record = record.unwrap_or_else(|| panic!("{thread}: span {i} not visible"));
                    assert_eq!(record.name, format!("hot-path:{thread}"));
                    assert_eq!(record.attrs, [("i".to_owned(), i.to_string())]);
                }
            });
        }
    });
}

/// Threads that start, record spans with texts too long to keep inline,
/// and end, one after another, leave the collector within its bound:
/// what they recorded is retained only as the ring's records.
#[test]
fn threads_that_come_and_go_leave_the_collector_within_its_bound() {
    let long = "t".repeat(200);
    for round in 0..40u64 {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..200u64 {
                    let mut span = Span::root(("hot-path-churn:", long.as_str()));
                    span.attr("round", round);
                    span.attr("text", long.as_str());
                    span.attr("i", i);
                }
            });
        });
    }
    let bound = collector().capacity() * RETAINED_SPAN_BYTES;
    let bytes = collector().heap_bytes();
    assert!(bytes <= bound, "{bytes} bytes retained, bound {bound}");
}

/// A trader holding `offers` static offers that `constraint` rejects
/// after evaluating every term: LoadAvg 30..39 passes both numeric
/// tests, LoadAvgIncreasing "yes" fails `== no`, and a Host without
/// "node" fails the substring test.
fn trader_with_rejected_offers(offers: usize) -> (Orb, Trader) {
    let orb = Orb::new("hot-path-trader");
    let trader = Trader::new(&orb);
    trader
        .add_type(
            ServiceTypeDef::new("Svc")
                .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Normal))
                .with_property(PropDef::new(
                    "LoadAvgIncreasing",
                    TypeCode::Str,
                    PropMode::Normal,
                ))
                .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Normal)),
        )
        .unwrap();
    for i in 0..offers {
        let host = format!("host-{i}");
        trader
            .export(
                ExportRequest::new("Svc", ObjRef::new("inproc://decoys", host.as_str(), "Svc"))
                    .with_property("LoadAvg", Value::Double(30.0 + (i % 10) as f64))
                    .with_property("LoadAvgIncreasing", Value::from("yes"))
                    .with_property("Host", Value::from(host)),
            )
            .unwrap();
    }
    (orb, trader)
}

/// Allocations of one warm query for `constraint` over `offers`
/// rejected static offers.
fn query_allocations(offers: usize, constraint: &str) -> u64 {
    let (_orb, trader) = trader_with_rejected_offers(offers);
    let query = Query::new("Svc")
        .constraint(constraint)
        .preference("min LoadAvg");
    for _ in 0..3 {
        assert!(trader.query(&query).unwrap().is_empty());
    }
    allocations_in(|| {
        assert!(trader.query(&query).unwrap().is_empty());
    })
}

/// A trader query allocates per match, not per candidate: over 1000
/// rejected offers it makes at most 8 allocations more than over 10,
/// for the Figure 7 constraint and for E5's "complex" one (string
/// equality, `~`, arithmetic, `exist`).
#[test]
fn a_query_does_not_allocate_per_rejected_offer() {
    const SLACK: u64 = 8;
    for constraint in [
        "LoadAvg < 50 and LoadAvgIncreasing == no ",
        "(LoadAvg < 50 and LoadAvgIncreasing == no) or \
         (LoadAvg * 2 + 1 < 80 and exist Host and Host ~ 'node')",
    ] {
        let few = query_allocations(10, constraint);
        let many = query_allocations(1000, constraint);
        assert!(
            many <= few + SLACK,
            "`{constraint}`: {many} allocations over 1000 offers, {few} over 10"
        );
    }
}

/// A bound proxy's re-selection that finds the offer it holds keeps its
/// replica instead of building a new one in its place: over one static
/// offer, the query, its match and the refreshed snapshot make at most
/// 28 allocations.
#[test]
fn an_unchanged_reselection_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 28;

    let infra = Infrastructure::in_process().unwrap();
    infra
        .trader()
        .add_type(
            ServiceTypeDef::new("HotPathReselectSvc").with_property(PropDef::new(
                "LoadAvg",
                TypeCode::Double,
                PropMode::Normal,
            )),
        )
        .unwrap();
    let echo = infra
        .orb()
        .activate(
            "hot-path-reselect",
            ServantFn::new("HotPathReselectSvc", |_, args| {
                Ok(args.into_iter().next().unwrap_or(Value::Null))
            }),
        )
        .unwrap();
    infra
        .trader()
        .export(
            ExportRequest::new("HotPathReselectSvc", echo)
                .with_property("LoadAvg", Value::Double(1.0)),
        )
        .unwrap();
    let proxy = infra
        .smart_proxy("HotPathReselectSvc")
        .constraint("LoadAvg < 50")
        .preference("min LoadAvg")
        .build()
        .unwrap();
    let (target, rebinds) = (proxy.current_target(), proxy.rebinds());
    assert!(target.is_some());
    for _ in 0..100 {
        assert!(proxy.reselect().unwrap());
    }
    let allocations = allocations_in(|| {
        assert!(proxy.reselect().unwrap());
    });
    assert_eq!(proxy.current_target(), target);
    assert_eq!(proxy.rebinds(), rebinds);
    assert!(
        allocations <= BUDGET,
        "{allocations} allocations, budget {BUDGET}"
    );
}
