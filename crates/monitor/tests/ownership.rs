//! Stored script values are owned by Rust handles: installers cannot
//! reach each other's through the scripts they share an isolate with,
//! no thread hosts an isolate, and what an isolate stores is dropped
//! once its owner is dropped.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use adapta_bridge::{Isolate, Stored};
use adapta_idl::Value;
use adapta_monitor::{Monitor, MonitorHost, ObserverTarget};
use adapta_orb::Orb;
use adapta_script::Interpreter;
use adapta_sim::SimTime;

/// Threads of this process whose name starts with `rua-`, the prefix
/// script actor threads used to carry.
fn rua_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("rua-"))
        .collect()
}

/// Stores a native holding the sender of a fresh channel in `isolate`;
/// the receiver reads `Disconnected` once the isolate dropped the value.
fn store_sentinel(isolate: &Isolate) -> (Stored, mpsc::Receiver<()>) {
    let (tx, rx) = mpsc::channel::<()>();
    let stored = isolate
        .with(move |_| {
            Stored::new(Interpreter::native("hold", move |_, _| {
                let _ = &tx;
                Ok(vec![])
            }))
        })
        .unwrap();
    (stored, rx)
}

/// Whether the value behind `rx`'s sender has been dropped.
fn dropped(rx: &mpsc::Receiver<()>) -> bool {
    rx.try_recv() == Err(mpsc::TryRecvError::Disconnected)
}

#[test]
fn a_remote_predicate_cannot_clear_another_installers_values() {
    let orb = Orb::new("own-isolation");
    let actor = Isolate::new("own-isolation", |_| {});
    let monitor = Monitor::builder("Isolation")
        .source_native(|_| Value::from(99.0))
        .build(&actor, &orb)
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let count = fired.clone();
    monitor
        .attach_observer_script_remote(
            "installer-a",
            ObserverTarget::Callback(Arc::new(move |_| {
                count.fetch_add(1, Ordering::Relaxed);
            })),
            "High",
            "function(o, v, m) return v > 50 end",
        )
        .unwrap();
    // Installer B shares the sandbox actor and clears the global a
    // registry of stored values would live in.
    monitor
        .attach_observer_script_remote(
            "installer-b",
            ObserverTarget::Callback(Arc::new(|_| {})),
            "Wipe",
            "function(o, v, m) __stored = {} return false end",
        )
        .unwrap();
    for tick in 1..=5 {
        monitor.tick(SimTime::ZERO);
        assert_eq!(fired.load(Ordering::Relaxed), tick, "A fires every tick");
    }
    assert_eq!(monitor.errors(), 0, "{:?}", monitor.last_error());
}

#[test]
fn a_monitor_host_runs_scripts_without_a_thread_and_drops_its_values_with_it() {
    let orb = Orb::new("own-host");
    let host = MonitorHost::new("own-host", &orb);
    host.eval(
        r#"
        m = EventMonitor:new("OwnHost", function() return {3, 1} end, 1)
        m:defineAspect("Up", [[function(self, v, mon) return v[1] > v[2] end]])
        m:attachEventObserver({notifyEvent = function(self, e) end}, "E",
            [[function(o, v, mon) return true end]])
    "#,
    )
    .unwrap();
    host.tick_all(SimTime::ZERO);
    assert_eq!(host.monitor("OwnHost").unwrap().notifications(), 1);
    assert_eq!(rua_threads(), Vec::<String>::new(), "no script thread");
    // The handle outlives the host: the isolate owns the value.
    let (kept, rx) = store_sentinel(host.actor());
    assert!(!dropped(&rx));
    drop(host);
    assert!(dropped(&rx), "the host's isolate went with it");
    drop(kept);
}

#[test]
fn a_monitor_runs_its_sandbox_without_a_thread_and_drops_it_with_it() {
    let orb = Orb::new("own-sandbox");
    let actor = Isolate::new("own-mon", |_| {});
    let monitor = Monitor::builder("Sb")
        .source_native(|_| Value::from(1.0))
        .build(&actor, &orb)
        .unwrap();
    monitor
        .define_aspect_script_remote("peer", "Echo", "function(self, v, m) return v end")
        .unwrap();
    monitor
        .attach_observer_script_remote(
            "peer",
            ObserverTarget::Callback(Arc::new(|_| {})),
            "E",
            "function(o, v, m) return m:getAspectValue('Echo') == v end",
        )
        .unwrap();
    monitor.tick(SimTime::ZERO);
    assert_eq!(monitor.notifications(), 1);
    assert_eq!(rua_threads(), Vec::<String>::new(), "no script thread");
    let (kept_sandboxed, sandboxed) = store_sentinel(&monitor.sandbox_actor());
    let (kept_trusted, trusted) = store_sentinel(&actor);
    drop(monitor);
    assert!(dropped(&sandboxed), "the sandbox went with the monitor");
    assert!(!dropped(&trusted), "the trusted isolate is still held");
    drop(actor);
    assert!(dropped(&trusted));
    drop((kept_sandboxed, kept_trusted));
}
