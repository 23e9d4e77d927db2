//! Stored script values are owned by Rust handles: installers cannot
//! reach each other's through the scripts they share an actor with, and
//! nothing stored in an actor keeps that actor's thread alive once its
//! owner is dropped.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta_bridge::ScriptActor;
use adapta_idl::Value;
use adapta_monitor::{Monitor, MonitorHost, ObserverTarget};
use adapta_orb::Orb;
use adapta_sim::SimTime;

/// Whether a thread of this process is named `name` (at most 15 bytes,
/// the longest name `/proc` reports in full).
fn thread_running(name: &str) -> bool {
    assert!(name.len() <= 15, "`{name}` would be truncated");
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(Result::ok)
        .any(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == name)
        })
}

/// Polls until no thread is named `name`, for at most 2 s.
fn thread_exits(name: &str) -> bool {
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(2) {
        if !thread_running(name) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn a_remote_predicate_cannot_clear_another_installers_values() {
    let orb = Orb::new("own-isolation");
    let actor = ScriptActor::spawn("own-isolation", |_| {});
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
fn a_dropped_monitor_host_stops_its_actor_thread() {
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
    assert!(thread_running("rua-own-host"));
    drop(host);
    assert!(thread_exits("rua-own-host"));
}

#[test]
fn a_dropped_monitor_stops_its_sandbox_actor_thread() {
    let orb = Orb::new("own-sandbox");
    let actor = ScriptActor::spawn("own-mon", |_| {});
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
    assert!(thread_running("rua-Sb-sandbox"));
    drop(monitor);
    assert!(thread_exits("rua-Sb-sandbox"));
    drop(actor);
    assert!(thread_exits("rua-own-mon"));
}
