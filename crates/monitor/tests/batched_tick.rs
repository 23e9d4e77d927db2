//! How a monitor tick reaches the script actors: one job per run of
//! consecutive script entries on one actor, natives on the ticking
//! thread, entries evaluated in order, and nothing left behind in an
//! actor when an entry goes away.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use adapta_bridge::ScriptActor;
use adapta_idl::{ObjRefData, Value};
use adapta_monitor::{load_average_monitor, loadavg_reader, Monitor, MonitorHost, ObserverTarget};
use adapta_orb::{Orb, ServantFn};
use adapta_sim::{Clock, SimHost, SimTime, VirtualClock};

/// The Figure 3 monitor on a loaded simulated host.
fn fig3(node: &str) -> (VirtualClock, Monitor) {
    let orb = Orb::new(node);
    orb.set_synchronous_oneway(true);
    let clock = VirtualClock::new();
    let host = SimHost::new(format!("{node}-host"), Duration::from_millis(20));
    let reader = loadavg_reader(host.clone(), Arc::new(clock.clone()));
    let mhost = MonitorHost::with_setup(node, &orb, move |interp| {
        interp.set_reader(reader);
    });
    let monitor = load_average_monitor(&mhost).unwrap();
    host.set_background(clock.now(), 80.0);
    (clock, monitor)
}

/// An `EventObserver` servant counting its notifications.
fn counting_observer(node: &str) -> (Orb, ObjRefData, Arc<AtomicUsize>) {
    let orb = Orb::new(node);
    // Serve each push before the tick returns.
    orb.set_synchronous_oneway(true);
    let seen = Arc::new(AtomicUsize::new(0));
    let count = seen.clone();
    let target = orb
        .activate(
            "obs",
            ServantFn::new("EventObserver", move |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Null)
            }),
        )
        .unwrap();
    (orb, target, seen)
}

/// Jobs one tick submits to the monitor's trusted and sandboxed actors.
fn jobs_per_tick(monitor: &Monitor, clock: &VirtualClock) -> u64 {
    let sandbox = monitor.sandbox_actor();
    let before = monitor.actor().jobs() + sandbox.jobs();
    clock.advance(Duration::from_secs(30));
    monitor.tick(clock.now());
    monitor.actor().jobs() + sandbox.jobs() - before
}

#[test]
fn a_fig3_tick_costs_one_job_per_hosting_actor() {
    let (clock, monitor) = fig3("tick-jobs");
    // The value source and the `Increasing` aspect share the trusted
    // actor: one job.
    assert_eq!(jobs_per_tick(&monitor, &clock), 1);

    // Three remote observers' predicates share the sandboxed actor: one
    // more job, not three.
    let (_obs_orb, target, seen) = counting_observer("tick-jobs-obs");
    for installer in ["peer-a", "peer-b", "peer-c"] {
        monitor
            .attach_observer_script_remote(
                installer,
                ObserverTarget::Remote(target.clone()),
                "LoadIncrease",
                r#"function(observer, value, monitor)
                    return value[1] > 50 and monitor:getAspectValue("Increasing") == "yes"
                end"#,
            )
            .unwrap();
    }
    for _ in 0..4 {
        assert_eq!(jobs_per_tick(&monitor, &clock), 2);
    }
    assert_eq!(monitor.errors(), 0, "{:?}", monitor.last_error());
    assert!(seen.load(Ordering::Relaxed) >= 3, "the predicates fired");
}

#[test]
fn interleaved_trusted_and_sandboxed_aspects_see_each_other_in_order() {
    let orb = Orb::new("tick-chain");
    let actor = ScriptActor::spawn("tick-chain", |_| {});
    let monitor = Monitor::builder("Chain")
        .source_script("function() return 1 end")
        .build(&actor, &orb)
        .unwrap();
    // Each aspect reads the previous one; trusted and sandboxed hosts
    // alternate, with a native aspect in the middle.
    monitor
        .define_aspect_script("A1", "function(self, v, m) return m:getValue() + 1 end")
        .unwrap();
    monitor
        .define_aspect_script_remote(
            "peer",
            "A2",
            "function(self, v, m) return m:getAspectValue('A1') * 10 end",
        )
        .unwrap();
    monitor.define_aspect_native("N", |v| Value::from(v.as_long().unwrap_or(0) + 100));
    monitor
        .define_aspect_script(
            "A3",
            "function(self, v, m) return m:getAspectValue('A2') + m:getAspectValue('N') end",
        )
        .unwrap();
    monitor
        .define_aspect_script_remote(
            "peer",
            "A4",
            "function(self, v, m) return m:getAspectValue('A3') * 2 end",
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let count = fired.clone();
    monitor
        .attach_observer_script_remote(
            "peer",
            ObserverTarget::Callback(Arc::new(move |_| {
                count.fetch_add(1, Ordering::Relaxed);
            })),
            "Chained",
            "function(o, v, m) return m:getAspectValue('A4') == 242 end",
        )
        .unwrap();

    let sandbox = monitor.sandbox_actor();
    for round in 1..=2 {
        let before = actor.jobs() + sandbox.jobs();
        monitor.tick(SimTime::ZERO);
        // Source + A1 | A2 | (N natively) A3 | A4 + the predicate.
        assert_eq!(actor.jobs() + sandbox.jobs() - before, 4);
        assert_eq!(monitor.aspect_value("A1"), Some(Value::Long(2)));
        assert_eq!(monitor.aspect_value("A2"), Some(Value::Long(20)));
        assert_eq!(monitor.aspect_value("N"), Some(Value::Long(101)));
        assert_eq!(monitor.aspect_value("A3"), Some(Value::Long(121)));
        assert_eq!(monitor.aspect_value("A4"), Some(Value::Long(242)));
        assert_eq!(fired.load(Ordering::Relaxed), round);
    }
    assert_eq!(monitor.errors(), 0, "{:?}", monitor.last_error());
}

#[test]
fn natives_may_call_into_their_own_actor() {
    let orb = Orb::new("tick-reenter");
    let actor = ScriptActor::spawn("tick-reenter", |_| {});
    actor.eval("load = 7").unwrap();
    let source_actor = actor.clone();
    let monitor = Monitor::builder("Reenter")
        .source_native(move |_| source_actor.eval("return load").unwrap()[0].clone())
        .build(&actor, &orb)
        .unwrap();
    monitor
        .define_aspect_script("Twice", "function(self, v, m) return v * 2 end")
        .unwrap();
    let aspect_actor = actor.clone();
    monitor.define_aspect_native("Probe", move |v| {
        aspect_actor.eval("probed = true").unwrap();
        v.clone()
    });
    let predicate_actor = actor.clone();
    monitor.attach_observer_native(ObserverTarget::Callback(Arc::new(|_| {})), "E", move |_| {
        predicate_actor.eval("return probed").unwrap() == vec![Value::Bool(true)]
    });

    let (done_tx, done_rx) = mpsc::channel();
    let ticking = monitor.clone();
    let ticker = std::thread::spawn(move || {
        ticking.tick(SimTime::ZERO);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a tick whose natives call their own actor completes");
    ticker.join().expect("the ticking thread does not panic");
    assert_eq!(monitor.value(), Value::Long(7));
    assert_eq!(monitor.aspect_value("Twice"), Some(Value::Long(14)));
    assert_eq!(monitor.notifications(), 1);
}

#[test]
fn a_runaway_predicate_is_stopped_and_its_hop_mate_still_fires() {
    let orb = Orb::new("tick-runaway");
    let actor = ScriptActor::spawn("tick-runaway", |_| {});
    let monitor = Monitor::builder("Runaway")
        .source_native(|_| Value::from(99.0))
        .build(&actor, &orb)
        .unwrap();
    monitor
        .attach_observer_script_remote(
            "evil",
            ObserverTarget::Callback(Arc::new(|_| {})),
            "Spin",
            "function(o, v, m) while true do end end",
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let count = fired.clone();
    monitor
        .attach_observer_script_remote(
            "honest",
            ObserverTarget::Callback(Arc::new(move |_| {
                count.fetch_add(1, Ordering::Relaxed);
            })),
            "High",
            "function(o, v, m) return v > 50 end",
        )
        .unwrap();

    let sandbox = monitor.sandbox_actor();
    for tick in 1..=4 {
        let (jobs, started) = (sandbox.jobs(), Instant::now());
        monitor.tick(SimTime::ZERO);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the sandbox stops the runaway"
        );
        assert_eq!(sandbox.jobs() - jobs, 1, "both predicates share one job");
        assert_eq!(
            fired.load(Ordering::Relaxed),
            tick,
            "the well-behaved one fires"
        );
    }
    // Three strikes, then the penalty box.
    assert_eq!(monitor.errors(), 3);
    assert_eq!(monitor.quarantined_count(), 1);
    let error = monitor.last_error().unwrap();
    assert!(
        error.contains("budget") || error.contains("deadline"),
        "{error}"
    );
}

/// Entries in an actor's `__stored` table.
fn stored(actor: &ScriptActor) -> usize {
    actor
        .with(|interp| {
            interp
                .global("__stored")
                .as_table()
                .map_or(0, |t| t.borrow().total_entries())
        })
        .unwrap()
}

#[test]
fn detach_and_redefinition_release_what_entries_stored() {
    let orb = Orb::new("tick-release");
    let actor = ScriptActor::spawn("tick-release", |_| {});
    let monitor = Monitor::builder("Release")
        .source_native(|_| Value::from(1.0))
        .build(&actor, &orb)
        .unwrap();
    let observer = ObjRefData::new("inproc://tick-release-peer", "obs", "EventObserver");
    let predicate = "function(o, v, m) return v > 50 end";

    // Remote attach/detach cycles, with a tick now and then.
    let attach_detach = |cycles: usize| {
        for i in 0..cycles {
            let id = monitor
                .attach_observer_script_remote(
                    "peer",
                    ObserverTarget::Remote(observer.clone()),
                    "E",
                    predicate,
                )
                .unwrap();
            if i % 100 == 0 {
                monitor.tick(SimTime::ZERO);
            }
            assert!(monitor.detach_observer(id));
        }
    };
    let sandbox = monitor.sandbox_actor();
    attach_detach(1);
    let baseline = stored(&sandbox);
    attach_detach(1000);
    assert_eq!(stored(&sandbox), baseline, "attach/detach leaves nothing");

    // Redefinitions of one aspect.
    let redefine = |times: usize| {
        for i in 0..times {
            monitor
                .define_aspect_script("Same", "function(self, v, m) return v end")
                .unwrap();
            if i % 100 == 0 {
                monitor.tick(SimTime::ZERO);
            }
        }
    };
    redefine(1);
    let baseline = stored(&actor);
    redefine(1000);
    assert_eq!(stored(&actor), baseline, "redefinition leaves nothing");
    assert_eq!(monitor.errors(), 0, "{:?}", monitor.last_error());
}
