//! Composite properties and events (Section III):
//!
//! "Each monitor in our infrastructure observes the value of a single
//! property. However, both the code for evaluating a property and the
//! code for diagnosing an event can contain references to other
//! monitors, thus allowing the construction of arbitrarily complex
//! composite properties and events."
//!
//! Here a *cluster-load* monitor's update function invokes two remote
//! host monitors through script-side proxies, and an event predicate
//! combines the composite value with an aspect of a third monitor.

use std::time::Duration;

use adapta::core::script_env;
use adapta::idl::{InterfaceRepository, Value};
use adapta::monitor::{Isolate, Monitor, MonitorHost, MonitorServant};
use adapta::orb::Orb;
use adapta::sim::{SimTime, VirtualClock};

fn host_monitor(orb: &Orb, name: &str, load: f64) -> (Monitor, adapta::orb::ObjRef) {
    let actor = Isolate::new(name, |_| {});
    let monitor = Monitor::builder("LoadAvg")
        .source_native(move |_| Value::from(load))
        .build(&actor, orb)
        .unwrap();
    monitor.tick(SimTime::ZERO);
    let objref = orb
        .activate(&format!("mon-{name}"), MonitorServant::new(monitor.clone()))
        .unwrap();
    (monitor, objref)
}

#[test]
fn composite_property_reads_other_monitors() {
    let orb = Orb::new("composite");
    let (_m1, ref1) = host_monitor(&orb, "comp-host1", 2.0);
    let (_m2, ref2) = host_monitor(&orb, "comp-host2", 4.0);

    // The composite monitor's script state can invoke remote objects.
    let repo = InterfaceRepository::new();
    script_env::register_monitor_interfaces(&repo);
    let orb_for_setup = orb.clone();
    let repo_for_setup = repo.clone();
    let mhost = MonitorHost::with_setup("composite-host", &orb, move |interp| {
        script_env::install(interp, orb_for_setup, repo_for_setup);
    });
    mhost
        .actor()
        .eval(&format!(
            "uri1 = '{}'\nuri2 = '{}'",
            ref1.to_uri(),
            ref2.to_uri()
        ))
        .unwrap();

    // The cluster monitor: its update function queries both host
    // monitors remotely and averages them — a composite property.
    mhost
        .eval(
            r#"
            cluster = EventMonitor:new("ClusterLoad",
                function()
                    local a = resolve(uri1):getValue()
                    local b = resolve(uri2):getValue()
                    return (a + b) / 2
                end,
                30)
        "#,
        )
        .unwrap();
    let cluster = mhost.monitor("ClusterLoad").unwrap();
    cluster.tick(SimTime::ZERO);
    assert_eq!(cluster.value(), Value::Long(3)); // (2 + 4) / 2

    // Composite *event*: fires only when the cluster average exceeds a
    // limit AND host2 individually exceeds its own.
    mhost
        .eval(
            r#"
            fired = 0
            obs = {notifyEvent = function(self, e) fired = fired + 1 end}
            cluster:attachEventObserver(obs, "ClusterHot",
                [[function(observer, value, monitor)
                    local worst = resolve(uri2):getValue()
                    return value > 2.5 and worst > 3.5
                end]])
        "#,
        )
        .unwrap();
    cluster.tick(SimTime::ZERO);
    assert_eq!(
        mhost.eval("return fired").unwrap(),
        vec![Value::Long(1)],
        "composite event must fire: avg 3 > 2.5 and host2 4 > 3.5"
    );
}

#[test]
fn composite_follows_live_changes_of_its_parts() {
    let orb = Orb::new("composite-live");
    let clock = VirtualClock::new();

    // Two host monitors whose values are settable.
    let actor = Isolate::new("comp-live-parts", |_| {});
    let m1 = Monitor::builder("LoadAvg")
        .initial(Value::from(1.0))
        .build(&actor, &orb)
        .unwrap();
    let m2 = Monitor::builder("LoadAvg")
        .initial(Value::from(1.0))
        .build(&actor, &orb)
        .unwrap();
    let r1 = orb.activate("p1", MonitorServant::new(m1.clone())).unwrap();
    let r2 = orb.activate("p2", MonitorServant::new(m2.clone())).unwrap();

    let repo = InterfaceRepository::new();
    script_env::register_monitor_interfaces(&repo);
    let orb_for_setup = orb.clone();
    let mhost = MonitorHost::with_setup("comp-live", &orb, move |interp| {
        script_env::install(interp, orb_for_setup, repo);
    });
    mhost
        .actor()
        .eval(&format!("u1 = '{}'\nu2 = '{}'", r1.to_uri(), r2.to_uri()))
        .unwrap();
    mhost
        .eval(
            r#"sum = EventMonitor:new("Sum",
                function() return resolve(u1):getValue() + resolve(u2):getValue() end, 5)"#,
        )
        .unwrap();
    let sum = mhost.monitor("Sum").unwrap();

    sum.tick(clock_now(&clock));
    assert_eq!(sum.value(), Value::Long(2));

    m1.set_value(Value::from(10.0));
    m2.set_value(Value::from(20.0));
    clock.advance(Duration::from_secs(5));
    sum.tick(clock_now(&clock));
    assert_eq!(sum.value(), Value::Long(30));
}

fn clock_now(clock: &VirtualClock) -> SimTime {
    use adapta::sim::Clock as _;
    clock.now()
}

#[test]
fn monitor_composition_errors_fail_soft() {
    // If a referenced monitor is unreachable, the composite's update
    // errors are counted and the previous value survives.
    let orb = Orb::new("composite-dead");
    let repo = InterfaceRepository::new();
    script_env::register_monitor_interfaces(&repo);
    let orb_for_setup = orb.clone();
    let mhost = MonitorHost::with_setup("comp-dead", &orb, move |interp| {
        script_env::install(interp, orb_for_setup, repo);
    });
    mhost
        .eval(
            r#"m = EventMonitor:new("X",
                function()
                    return resolve("adapta-ref:inproc://vanished;k;T"):getValue()
                end, 5)"#,
        )
        .unwrap();
    let m = mhost.monitor("X").unwrap();
    m.set_value(Value::from(7.0));
    m.tick(SimTime::ZERO);
    assert_eq!(m.value(), Value::from(7.0), "stale value survives");
    assert_eq!(m.errors(), 1);
}
