//! Experiment E11 — chaos: the recovery policy under injected faults.
//!
//! A smart proxy armed with a retry policy (exponential backoff with
//! decorrelated jitter) and a per-target circuit breaker calls through
//! four phases of orchestrated misbehaviour on its preferred endpoint:
//! healthy, a drop+delay storm, a disconnect storm, and recovery. The
//! claim quantified: the same trading machinery that buys adaptation
//! also buys availability — the application sees zero failed calls
//! while the transport is actively sabotaged.
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_chaos`
//! (`CHAOS_CALLS` scales the per-phase call count, default 200).

use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta_bench::Table;
use adapta_core::{BreakerConfig, RetryPolicy, SmartProxy};
use adapta_idl::{InterfaceRepository, TypeCode, Value};
use adapta_orb::{FaultAction, FaultRule, ObjRef, Orb, ServantFn};
use adapta_telemetry::registry;
use adapta_trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader};

fn calls_per_phase() -> usize {
    std::env::var("CHAOS_CALLS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

fn tcp_echo(name: &str) -> (Orb, String) {
    let orb = Orb::new(name);
    orb.activate(
        "svc",
        ServantFn::new("ChaosSvc", |_, _| Ok(Value::from("pong"))),
    )
    .unwrap();
    let endpoint = orb.listen_tcp("127.0.0.1:0").unwrap();
    (orb, endpoint)
}

struct PhaseStats {
    name: &'static str,
    ok: usize,
    failed: usize,
    retries: u64,
    failovers: u64,
    injected: u64,
    opened: u64,
    closed: u64,
    elapsed: Duration,
}

fn counter(name: &str) -> u64 {
    registry().snapshot().counter(name).unwrap_or(0)
}

fn main() {
    let calls = calls_per_phase();
    println!("E11 — chaos: fault injection vs the recovery policy.");
    println!(
        "Two TCP servers; the preferred one is sabotaged per phase; the\n\
         smart proxy runs retry(6, jittered backoff) + a circuit breaker\n\
         (window 6, open 40ms). {calls} calls per phase.\n"
    );

    let (_flaky, flaky_ep) = tcp_echo("chaos-e11-flaky");
    let (_stable, stable_ep) = tcp_echo("chaos-e11-stable");

    let client = Orb::new("chaos-e11-client");
    let trader = Trader::new(&client);
    trader
        .add_type(ServiceTypeDef::new("ChaosSvc").with_property(PropDef::new(
            "Rank",
            TypeCode::Long,
            PropMode::Normal,
        )))
        .unwrap();
    for (endpoint, rank) in [(&flaky_ep, 2i64), (&stable_ep, 1)] {
        trader
            .export(
                ExportRequest::new(
                    "ChaosSvc",
                    ObjRef::new(endpoint.as_str(), "svc", "ChaosSvc"),
                )
                .with_property("Rank", Value::Long(rank)),
            )
            .unwrap();
    }
    let repo = InterfaceRepository::new();
    let proxy = SmartProxy::builder(&client, &repo, Arc::new(trader), "ChaosSvc")
        .preference("max Rank")
        .retry_policy(
            RetryPolicy::new(6)
                .base(Duration::from_millis(2))
                .cap(Duration::from_millis(10)),
        )
        .circuit_breaker(BreakerConfig {
            window: 6,
            min_calls: 3,
            failure_threshold: 0.5,
            open_for: Duration::from_millis(40),
        })
        .dead_target_ttl(Duration::from_millis(5))
        .build()
        .unwrap();

    let plan = client.fault_plan();
    let phases: Vec<(&'static str, Vec<FaultRule>)> = vec![
        ("healthy", vec![]),
        (
            "drop 30% + delay 20%",
            vec![
                FaultRule::new(flaky_ep.clone(), "*", FaultAction::Drop).probability(0.30),
                FaultRule::new(
                    flaky_ep.clone(),
                    "*",
                    FaultAction::Delay(Duration::from_millis(3)),
                )
                .probability(0.20),
            ],
        ),
        (
            "disconnect 25%",
            vec![FaultRule::new(flaky_ep.clone(), "*", FaultAction::Disconnect).probability(0.25)],
        ),
        ("recovered", vec![]),
    ];

    let opened_name = "smartproxy.ChaosSvc.breaker.opened";
    let closed_name = "smartproxy.ChaosSvc.breaker.closed";
    let mut stats = Vec::new();
    for (name, rules) in phases {
        plan.clear();
        for rule in rules {
            plan.add(rule);
        }
        // Let breaker cool-downs from the previous phase elapse, so
        // each phase shows steady-state behaviour (calls run ~70µs —
        // without this gap a whole phase fits inside one cool-down).
        std::thread::sleep(Duration::from_millis(60));
        let retries0 = proxy.retries();
        let failovers0 = proxy.failovers();
        let injected0 = plan.injected();
        let opened0 = counter(opened_name);
        let closed0 = counter(closed_name);
        let started = Instant::now();
        let mut ok = 0;
        let mut failed = 0;
        for _ in 0..calls {
            // Re-run component selection each call, as an adaptation
            // strategy would: traffic keeps preferring the sabotaged
            // high-rank endpoint instead of settling on the backup, so
            // the recovery policy stays under fire all phase.
            let _ = proxy.reselect();
            match proxy.invoke("ping", vec![]) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        stats.push(PhaseStats {
            name,
            ok,
            failed,
            retries: proxy.retries() - retries0,
            failovers: proxy.failovers() - failovers0,
            injected: plan.injected() - injected0,
            opened: counter(opened_name) - opened0,
            closed: counter(closed_name) - closed0,
            elapsed: started.elapsed(),
        });
    }

    let mut table = Table::new(vec![
        "phase",
        "ok",
        "failed",
        "faults injected",
        "retries",
        "failovers",
        "breaker opened",
        "breaker closed",
        "elapsed",
    ]);
    let mut total_failed = 0;
    for s in &stats {
        total_failed += s.failed;
        table.row(vec![
            s.name.into(),
            s.ok.to_string(),
            s.failed.to_string(),
            s.injected.to_string(),
            s.retries.to_string(),
            s.failovers.to_string(),
            s.opened.to_string(),
            s.closed.to_string(),
            format!("{:?}", s.elapsed),
        ]);
    }
    table.print();
    println!(
        "\n(total failed calls across all phases: {total_failed} — the recovery\n\
         policy absorbs the storm; the breaker sheds load from the flaky\n\
         endpoint instead of hammering it)"
    );

    adapta_bench::finish("exp_chaos");
}
