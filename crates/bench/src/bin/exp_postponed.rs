//! Experiment E6 (ablation) — postponed vs. immediate event handling.
//!
//! The paper's design choice: "Typically, when the smart proxy receives
//! an event, it inserts it in a queue and postpones its handling until
//! the next service invocation. … The postponement of event handling
//! avoids conflicts with ongoing traffic when a reconfiguration is
//! done."
//!
//! Quantified here for a *slow* client (long think times) facing a
//! *noisy* monitor: with immediate handling, every notification runs
//! the strategy — trader queries and rebinds happen even while the
//! client is idle and will re-select again anyway before its next call;
//! with postponed handling, adaptation work is bounded by the
//! invocation rate. The cost of postponing is staleness: the binding
//! used at invocation time is chosen then, so its decision delay is
//! ~zero; the event just waits. The quality column counts the
//! invocations served by the host that carries the heavy background
//! load at call time: fewer is better adaptation.
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_postponed`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta_bench::Table;
use adapta_core::{Infrastructure, ServerSpec, Subscription};
use adapta_idl::Value;
use adapta_sim::workload::exp_duration;
use adapta_sim::{Scheduler, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RUN: Duration = Duration::from_secs(30 * 60);
const MONITOR_PERIOD: Duration = Duration::from_secs(30);
const THINK_MEAN: Duration = Duration::from_secs(120);

struct Outcome {
    events: u64,
    strategy_runs: u64,
    trader_queries: u64,
    rebinds: u64,
    invocations: u64,
    /// Invocations served by the host loaded at call time.
    loaded_calls: u64,
}

/// The host carrying the heavy background load at `now`: the load
/// moves to the next host every five minutes.
fn loaded_host(now: SimTime) -> usize {
    ((now.as_secs() / 300) % 3) as usize
}

fn run(immediate: bool) -> Outcome {
    let infra = Infrastructure::in_process().expect("infra");
    for name in ["e6-a", "e6-b", "e6-c"] {
        infra
            .spawn_server(ServerSpec::echo("E6Svc", name))
            .expect("server");
    }
    let queries0 = infra.trader().query_count();
    let mut builder = infra
        .smart_proxy("E6Svc")
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            // A twitchy predicate: any visible load fires it, so the
            // monitor is noisy on purpose.
            "function(o, value, m) return value[1] > 0.5 end",
        ));
    if immediate {
        builder = builder.immediate_handling();
    }
    let proxy = builder.build().expect("proxy");
    // The default Reselect strategy counts via rebinds/queries; track
    // strategy runs with events_handled.

    let mut sched: Scheduler<()> = Scheduler::with_clock(infra.clock().clone());
    let end = SimTime::ZERO + RUN;
    {
        let infra = infra.clone();
        sched.every(MONITOR_PERIOD, end, move |_, s| {
            let now = s.now();
            // Load oscillates between hosts so the "best" keeps moving.
            let phase = loaded_host(now);
            for (i, server) in infra.servers().into_iter().enumerate() {
                let jobs = if i == phase { 4.0 } else { 0.5 };
                server.sim_host().set_background(now, jobs);
                server.monitor_host().tick_all(now);
            }
        });
    }
    // A slow closed-loop client, counting its calls to the loaded host.
    struct Client {
        proxy: adapta_core::SmartProxy,
        rng: StdRng,
        targets: Vec<adapta_orb::ObjRef>,
        loaded_calls: Arc<AtomicU64>,
    }
    fn next_call(sched: &mut Scheduler<()>, at: SimTime, mut client: Client, end: SimTime) {
        sched.at(at, move |_, s| {
            let _ = client.proxy.invoke("hello", vec![Value::from("x")]);
            let loaded = &client.targets[loaded_host(s.now())];
            if client.proxy.current_target().as_ref() == Some(loaded) {
                client.loaded_calls.fetch_add(1, Ordering::Relaxed);
            }
            let think = exp_duration(&mut client.rng, THINK_MEAN);
            let next = s.now() + think;
            if next < end {
                next_call(s, next, client, end);
            }
        });
    }
    let loaded_calls = Arc::new(AtomicU64::new(0));
    let client = Client {
        proxy: proxy.clone(),
        rng: StdRng::seed_from_u64(7),
        targets: infra.servers().iter().map(|s| s.target().clone()).collect(),
        loaded_calls: loaded_calls.clone(),
    };
    next_call(
        &mut sched,
        SimTime::ZERO + Duration::from_secs(1),
        client,
        end,
    );
    sched.run_to_completion(&mut ());

    Outcome {
        events: proxy.events_received(),
        strategy_runs: proxy.events_handled(),
        trader_queries: infra.trader().query_count() - queries0,
        rebinds: proxy.rebinds(),
        invocations: proxy.invocations(),
        loaded_calls: loaded_calls.load(Ordering::Relaxed),
    }
}

fn main() {
    println!("E6: postponed vs immediate event handling — 30 min, noisy monitor");
    println!(
        "({}s period), slow client (mean think {}s).\n",
        MONITOR_PERIOD.as_secs(),
        THINK_MEAN.as_secs()
    );

    let mut table = Table::new(vec![
        "handling",
        "invocations",
        "events",
        "strategy runs",
        "trader queries",
        "rebinds",
        "adaptation work/invocation",
        "calls to loaded host",
    ]);
    for (label, immediate) in [("postponed (paper)", false), ("immediate (ablation)", true)] {
        let out = run(immediate);
        table.row(vec![
            label.into(),
            out.invocations.to_string(),
            out.events.to_string(),
            out.strategy_runs.to_string(),
            out.trader_queries.to_string(),
            out.rebinds.to_string(),
            format!(
                "{:.1}",
                out.strategy_runs as f64 / out.invocations.max(1) as f64
            ),
            out.loaded_calls.to_string(),
        ]);
    }
    table.print();
    println!(
        "\n(immediate handling spends adaptation work on every notification,\n\
         even between invocations; postponement bounds it by the client's\n\
         own call rate — the paper's rationale, made measurable)"
    );

    adapta_bench::finish("exp_postponed");
}
