//! Background jobs sleep between runs and end when their owners drop.
//!
//! A balanced proxy's refresher, a trader's liveness sweeper and a
//! monitor driver each run on a thread of their own. These tests find
//! those threads in `/proc/self/task` by name (Linux keeps a name's
//! first 15 bytes) and read their scheduler counters, so they run one
//! at a time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adapta::core::SmartProxy;
use adapta::idl::{InterfaceRepository, Value};
use adapta::monitor::{Isolate, Monitor, MonitorDriver};
use adapta::orb::{Orb, ServantFn};
use adapta::sim::RealClock;
use adapta::trading::{ExportRequest, ServiceTypeDef, Trader};

/// The name prefixes of the three jobs' threads.
const REFRESHER: &str = "balancer.";
const SWEEPER: &str = "trader-liveness";
const DRIVER: &str = "mon-driver-";

/// Tests here match threads by name: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The three jobs and what they run against.
struct Jobs {
    proxy: SmartProxy,
    trader: Trader,
    driver: MonitorDriver,
    monitor: Monitor,
}

/// A balanced proxy refreshing every `refresh`, its trader sweeping
/// every `sweep` and a monitor driven every `tick`.
fn start(tag: &str, refresh: Duration, sweep: Duration, tick: Duration) -> Jobs {
    let orb = Orb::new(&format!("idle-{tag}"));
    let trader = Trader::new(&orb);
    trader.add_type(ServiceTypeDef::new(tag)).unwrap();
    let target = orb
        .activate("echo", ServantFn::new(tag, |_, args| Ok(Value::Seq(args))))
        .unwrap();
    trader.export(ExportRequest::new(tag, target)).unwrap();
    let proxy = SmartProxy::builder(
        &orb,
        &InterfaceRepository::new(),
        Arc::new(trader.clone()),
        tag,
    )
    .balanced("round_robin")
    .balancer_refresh(refresh)
    .build()
    .unwrap();
    assert!(trader.start_liveness_sweeper(sweep, Duration::from_millis(50)));
    let actor = Isolate::new(&format!("idle-{tag}"), |_| {});
    let monitor = Monitor::builder(tag)
        .source_native(|_| Value::from(1.0))
        .build(&actor, &orb)
        .unwrap();
    let driver = MonitorDriver::start(monitor.clone(), Arc::new(RealClock::new()), tick);
    Jobs {
        proxy,
        trader,
        driver,
        monitor,
    }
}

/// Voluntary context switches of each live thread whose name starts
/// with `prefix`.
fn switches(prefix: &str) -> Vec<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter(|status| {
            status.lines().any(|l| {
                l.strip_prefix("Name:")
                    .is_some_and(|n| n.trim().starts_with(prefix))
            })
        })
        .filter_map(|status| {
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            line.trim().parse().ok()
        })
        .collect()
}

/// The one thread named `prefix…`'s voluntary context switches. A new
/// thread names itself once it runs, so this waits up to 1 s for it.
fn one_thread(prefix: &str) -> u64 {
    let started = Instant::now();
    loop {
        match switches(prefix)[..] {
            [n] => return n,
            [] if started.elapsed() < Duration::from_secs(1) => std::thread::yield_now(),
            ref all => panic!("expected one `{prefix}` thread, found {}", all.len()),
        }
    }
}

/// Waits up to `limit` for every thread named `prefix…` to end.
fn ends_within(prefix: &str, limit: Duration) -> bool {
    let started = Instant::now();
    while !switches(prefix).is_empty() {
        if started.elapsed() > limit {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn idle_jobs_wake_once_per_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let period = Duration::from_millis(200);
    let jobs = start("Idle", period, period, period);
    let before: Vec<u64> = [REFRESHER, SWEEPER, DRIVER].map(one_thread).into();
    std::thread::sleep(Duration::from_secs(2));
    let after: Vec<u64> = [REFRESHER, SWEEPER, DRIVER].map(one_thread).into();
    for ((prefix, b), a) in [REFRESHER, SWEEPER, DRIVER].iter().zip(before).zip(after) {
        // Ten runs in 2 s, one wake-up each, with room for the
        // scheduler; a 10 ms nap loop would record about 200.
        assert!(a - b <= 22, "`{prefix}` thread woke {} times in 2 s", a - b);
    }
    assert!(jobs.monitor.ticks() > 0, "the driver never ticked");
}

#[test]
fn dropping_an_owner_ends_its_job_at_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let hour = Duration::from_secs(3600);
    let Jobs {
        proxy,
        trader,
        driver,
        monitor,
    } = start("Drop", hour, hour, Duration::from_secs(60));
    let limit = Duration::from_millis(100);
    for prefix in [REFRESHER, SWEEPER, DRIVER] {
        one_thread(prefix);
    }
    drop(driver);
    assert!(
        ends_within(DRIVER, limit),
        "the 60 s driver outlived its drop"
    );
    assert_eq!(monitor.ticks(), 0);
    drop(proxy);
    assert!(
        ends_within(REFRESHER, limit),
        "the 1 h refresher outlived its proxy"
    );
    drop(trader);
    assert!(
        ends_within(SWEEPER, limit),
        "the 1 h sweeper outlived its trader"
    );
}
