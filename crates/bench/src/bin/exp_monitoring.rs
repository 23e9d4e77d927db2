//! Experiment E2 — event-driven monitoring vs. polling (Section III).
//!
//! The paper: "To avoid the need for applications to poll monitors
//! continuously … we decided to support an event-driven monitoring
//! strategy. … The transfer of event detection to monitors allows a
//! reduction in the number of interactions between these objects and
//! their observers."
//!
//! Scenario: one host idles for 17 minutes, then its load jumps past
//! the threshold; the run lasts 30 minutes. A polling client asks the
//! monitor `getValue` every `p` seconds; an event client registers one
//! observer (1 message) and receives oneway notifications. We report
//! messages exchanged and detection latency for each strategy.
//!
//! Expected shape: polling costs O(duration/p) messages with mean
//! detection latency ~p/2; the event strategy costs O(detections)
//! messages and detects within one monitor period.
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_monitoring`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta_bench::Table;
use adapta_idl::Value;
use adapta_monitor::{load_average_monitor, loadavg_reader, MonitorHost, MonitorServant};
use adapta_orb::{Orb, ServantFn};
use adapta_sim::{Clock, Scheduler, SimHost, SimTime, VirtualClock};

const RUN: Duration = Duration::from_secs(30 * 60);
const SPIKE_AT: Duration = Duration::from_secs(17 * 60);
const MONITOR_PERIOD: Duration = Duration::from_secs(30);
const THRESHOLD: f64 = 3.0;

struct Setup {
    clock: VirtualClock,
    server: Orb,
    client: Orb,
    host: SimHost,
    mhost: MonitorHost,
    monitor_ref: adapta_orb::ObjRef,
}

fn setup(tag: &str) -> Setup {
    let server = Orb::new(&format!("e2-server-{tag}"));
    let client = Orb::new(&format!("e2-client-{tag}"));
    let clock = VirtualClock::new();
    let host = SimHost::new(format!("e2-host-{tag}"), Duration::from_millis(20));
    let reader = loadavg_reader(host.clone(), Arc::new(clock.clone()));
    let mhost = MonitorHost::with_setup(&format!("e2-{tag}"), &server, move |interp| {
        interp.set_reader(reader)
    });
    let monitor = load_average_monitor(&mhost).expect("figure-3 monitor");
    let monitor_ref = server
        .activate("loadmon", MonitorServant::new(monitor))
        .expect("activate monitor");
    Setup {
        clock,
        server,
        client,
        host,
        mhost,
        monitor_ref,
    }
}

/// Drives the scenario; `on_tick` runs after each monitor cycle.
fn drive(s: &Setup, mut on_tick: impl FnMut(SimTime)) {
    let mut sched: Scheduler<()> = Scheduler::with_clock(s.clock.clone());
    {
        let mhost = s.mhost.clone();
        let host = s.host.clone();
        sched.every(MONITOR_PERIOD, SimTime::ZERO + RUN, move |_, sc| {
            let now = sc.now();
            if now >= SimTime::ZERO + SPIKE_AT {
                host.set_background(now, 6.0);
            }
            mhost.tick_all(now);
        });
    }
    // Interleave the client's observation points with the ticks.
    let mut world = ();
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + RUN {
        let next = t + MONITOR_PERIOD;
        sched.run_until(&mut world, next);
        on_tick(next);
        t = next;
    }
}

fn polling_run(period: Duration) -> (u64, Option<Duration>) {
    let s = setup(&format!("poll{}", period.as_secs()));
    let proxy = s.client.proxy(&s.monitor_ref);
    let mut detected: Option<Duration> = None;
    let mut next_poll = SimTime::ZERO + period;
    drive(&s, |now| {
        while next_poll <= now {
            // One poll = request + reply.
            if detected.is_none() {
                if let Ok(v) = proxy.invoke("getValue", vec![]) {
                    let one = v.at(0).and_then(Value::as_double).unwrap_or(0.0);
                    if one > THRESHOLD {
                        detected = Some(next_poll - (SimTime::ZERO + SPIKE_AT));
                    }
                }
            } else {
                // Keep polling (a real client watches continuously).
                let _ = proxy.invoke("getValue", vec![]);
            }
            next_poll += period;
        }
    });
    let msgs = s.client.stats().requests_sent + s.client.stats().replies_received;
    (msgs, detected)
}

fn event_run() -> (u64, Option<Duration>) {
    let s = setup("event");
    let detected = Arc::new(AtomicU64::new(u64::MAX));
    let detected_clone = detected.clone();
    let clock = s.clock.clone();
    let observer = s
        .client
        .activate(
            "observer",
            ServantFn::new("EventObserver", move |_, _| {
                let now = clock.now().as_nanos();
                let _ = detected_clone.compare_exchange(
                    u64::MAX,
                    now,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                Ok(Value::Null)
            }),
        )
        .expect("observer");
    // One registration message carrying the predicate (remote
    // evaluation), then only oneway notifications.
    s.client
        .proxy(&s.monitor_ref)
        .invoke(
            "attachEventObserver",
            vec![
                Value::ObjRef(observer),
                Value::from("LoadIncrease"),
                Value::from(format!(
                    "function(o, value, m) return value[1] > {THRESHOLD} end"
                )),
            ],
        )
        .expect("attach");
    drive(&s, |_| {});
    let cs = s.client.stats();
    let ss = s.server.stats();
    // Client messages: the attach round trip; server → client: the
    // oneway notifications.
    let msgs = cs.requests_sent + cs.replies_received + ss.oneways_sent;
    let detected = match detected.load(Ordering::SeqCst) {
        u64::MAX => None,
        nanos => Some(SimTime::from_nanos(nanos) - (SimTime::ZERO + SPIKE_AT)),
    };
    (msgs, detected)
}

fn main() {
    println!("E2: event-driven monitoring vs polling — 30 min run, load spike at 17 min,");
    println!("monitor period {MONITOR_PERIOD:?}, threshold {THRESHOLD}.\n");

    let mut table = Table::new(vec![
        "strategy",
        "poll period",
        "messages",
        "detection latency",
    ]);
    for period in [5u64, 15, 30, 60, 120] {
        let (msgs, detected) = polling_run(Duration::from_secs(period));
        table.row(vec![
            "polling".into(),
            format!("{period}s"),
            msgs.to_string(),
            detected
                .map(|d| format!("{d:.0?}"))
                .unwrap_or_else(|| "missed".into()),
        ]);
    }
    let (msgs, detected) = event_run();
    table.row(vec![
        "event-driven".into(),
        "-".into(),
        msgs.to_string(),
        detected
            .map(|d| format!("{d:.0?}"))
            .unwrap_or_else(|| "missed".into()),
    ]);
    table.print();
    println!(
        "\n(polling trades messages for latency along the period sweep; the\n\
         event strategy gets both: O(detections) messages and detection\n\
         within one monitor period)"
    );

    adapta_bench::finish("exp_monitoring");
}
