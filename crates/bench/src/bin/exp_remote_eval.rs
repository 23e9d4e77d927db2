//! Experiment E3 — remote evaluation vs. value streaming (Section III).
//!
//! The paper ships the *event-diagnosing function* to the monitor
//! ("this allows the observer to define dynamically the code to be
//! executed at the (remote) monitor. This fits in the so-called remote
//! evaluation paradigm"). The alternative is to stream every sample to
//! the observer and evaluate the predicate client-side.
//!
//! Scenario: a 60-minute run with three 5-minute overload episodes. The
//! same detections must come out of both strategies; we compare the
//! notification traffic (messages and bytes from monitor to client).
//!
//! Expected shape: streaming sends one message per monitor tick
//! (O(duration/period)); remote evaluation sends one per *interesting*
//! tick (O(episode time/period)), an order of magnitude less here.
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_remote_eval`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta_bench::Table;
use adapta_idl::Value;
use adapta_monitor::{load_average_monitor, loadavg_reader, MonitorHost, MonitorServant};
use adapta_orb::{Orb, ServantFn};
use adapta_sim::{Scheduler, SimHost, SimTime, VirtualClock};

const RUN: Duration = Duration::from_secs(60 * 60);
const MONITOR_PERIOD: Duration = Duration::from_secs(30);
const THRESHOLD: f64 = 3.0;

/// Three overload episodes of 5 minutes each.
const EPISODES: [(u64, u64); 3] = [(600, 900), (1800, 2100), (3000, 3300)];

struct Run {
    /// Messages from the monitor's node to the client.
    notifications: u64,
    /// Bytes sent by the monitor's node.
    bytes: u64,
    /// Threshold crossings detected at the client.
    detections: u64,
}

fn run(strategy: &str) -> Run {
    let server = Orb::new(&format!("e3-server-{strategy}"));
    let client = Orb::new(&format!("e3-client-{strategy}"));
    let clock = VirtualClock::new();
    let host = SimHost::new(format!("e3-host-{strategy}"), Duration::from_millis(20));
    let reader = loadavg_reader(host.clone(), Arc::new(clock.clone()));
    let mhost = MonitorHost::with_setup(&format!("e3-{strategy}"), &server, move |interp| {
        interp.set_reader(reader)
    });
    let monitor = load_average_monitor(&mhost).expect("monitor");
    let monitor_ref = server
        .activate("loadmon", MonitorServant::new(monitor))
        .expect("activate");

    // The client-side observer. Under "streaming" it receives raw
    // samples and evaluates locally; under "remote-eval" it only hears
    // about interesting ones.
    let detections = Arc::new(AtomicU64::new(0));
    let detections_clone = detections.clone();
    let observer = client
        .activate(
            "observer",
            ServantFn::new("EventObserver", move |_, _| {
                detections_clone.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Null)
            }),
        )
        .expect("observer");

    let predicate = match strategy {
        // The paper's way: the predicate runs at the monitor.
        "remote-eval" => format!("function(o, value, m) return value[1] > {THRESHOLD} end"),
        // Strawman: notify on every sample; the client would evaluate.
        // (The notification itself is the traffic being measured; the
        // client-side comparison is free.)
        "streaming" => "function(o, value, m) return true end".to_owned(),
        other => unreachable!("unknown strategy {other}"),
    };
    client
        .proxy(&monitor_ref)
        .invoke(
            "attachEventObserver",
            vec![
                Value::ObjRef(observer),
                Value::from("Sample"),
                Value::from(predicate),
            ],
        )
        .expect("attach");

    let baseline = server.stats();
    let mut sched: Scheduler<()> = Scheduler::with_clock(clock.clone());
    {
        let mhost = mhost.clone();
        let host = host.clone();
        sched.every(MONITOR_PERIOD, SimTime::ZERO + RUN, move |_, s| {
            let now = s.now();
            let secs = now.as_secs();
            let loaded = EPISODES.iter().any(|(a, b)| secs >= *a && secs < *b);
            host.set_background(now, if loaded { 8.0 } else { 0.0 });
            mhost.tick_all(now);
        });
    }
    sched.run_to_completion(&mut ());

    let after = server.stats();
    Run {
        notifications: after.oneways_sent - baseline.oneways_sent,
        bytes: after.bytes_sent - baseline.bytes_sent,
        detections: detections.load(Ordering::Relaxed),
    }
}

fn main() {
    println!(
        "E3: remote evaluation vs value streaming — 60 min, {}s monitor period,",
        MONITOR_PERIOD.as_secs()
    );
    println!("three 5-minute overload episodes; same detection power required.\n");

    let mut table = Table::new(vec![
        "strategy",
        "monitor→client msgs",
        "bytes",
        "client deliveries",
    ]);
    let streaming = run("streaming");
    let remote = run("remote-eval");
    table.row(vec![
        "value streaming".into(),
        streaming.notifications.to_string(),
        streaming.bytes.to_string(),
        streaming.detections.to_string(),
    ]);
    table.row(vec![
        "remote evaluation".into(),
        remote.notifications.to_string(),
        remote.bytes.to_string(),
        remote.detections.to_string(),
    ]);
    table.print();
    let factor = streaming.notifications as f64 / remote.notifications.max(1) as f64;
    println!(
        "\nremote evaluation reduces monitor→client interactions by {factor:.1}x \
         on this trace\n(every delivery in the remote-eval row is an actual event)"
    );

    adapta_bench::finish("exp_remote_eval");
}
