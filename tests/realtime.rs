//! Wall-clock mode: the same stack driven by real time — monitor
//! driver threads pushing oneway notifications — as it would run
//! in a deployment rather than a simulation. Periods are milliseconds
//! so the test stays fast.

use std::sync::Arc;
use std::time::Duration;

use adapta::idl::Value;
use adapta::monitor::{Isolate, Monitor, MonitorDriver, MonitorServant};
use adapta::orb::{Orb, ServantFn};
use adapta::sim::{Clock, RealClock};

#[test]
fn monitor_driver_detects_events_in_real_time() {
    let server = Orb::new("rt-server");
    let client = Orb::new("rt-client");
    let actor = Isolate::new("rt", |_| {});
    let clock: Arc<dyn Clock> = Arc::new(RealClock::new());

    // The monitored "load" rises with wall time.
    let clock_for_source = clock.clone();
    let monitor = Monitor::builder("Load")
        .source_native(move |_| Value::from(clock_for_source.now().as_secs_f64() * 1000.0))
        .build(&actor, &server)
        .unwrap();
    let monitor_ref = server
        .activate("mon", MonitorServant::new(monitor.clone()))
        .unwrap();

    // A remote observer notified over (async) oneway.
    let notified = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let notified_clone = notified.clone();
    let observer = client
        .activate(
            "obs",
            ServantFn::new("EventObserver", move |_, _| {
                notified_clone.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(Value::Null)
            }),
        )
        .unwrap();
    client
        .proxy(&monitor_ref)
        .invoke(
            "attachEventObserver",
            vec![
                Value::ObjRef(observer),
                Value::from("Rising"),
                Value::from("function(o, v, m) return v > 20 end"),
            ],
        )
        .unwrap();

    // Drive in real time at 5 ms.
    let driver = MonitorDriver::start(monitor.clone(), clock, Duration::from_millis(5));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while notified.load(std::sync::atomic::Ordering::Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no notification within 5s (ticks: {}, errors: {})",
            monitor.ticks(),
            monitor.errors()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    driver.stop();
    assert!(monitor.ticks() > 0);
}

#[test]
fn tcp_and_real_time_together() {
    // A monitor served over TCP, polled by a remote client in real time.
    let server = Orb::new("rt-tcp-server");
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
    let actor = Isolate::new("rt-tcp", |_| {});
    let monitor = Monitor::builder("Temp")
        .source_native(|_| Value::from(21.5))
        .build(&actor, &server)
        .unwrap();
    server
        .activate("mon", MonitorServant::new(monitor.clone()))
        .unwrap();
    let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
    let _driver = MonitorDriver::start(monitor, clock, Duration::from_millis(5));

    let client = Orb::new("rt-tcp-client");
    let proxy = client.proxy(&adapta::orb::ObjRef::new(endpoint, "mon", "EventMonitor"));
    // Poll until the driver has produced a value.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let v = proxy.invoke("getValue", vec![]).unwrap();
        if v == Value::from(21.5) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "value never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
}
