//! Building and dropping whole in-process node sets must not leave
//! threads behind: every scripted part (monitor hosts, monitor
//! sandboxes, smart-proxy strategies) runs on its caller's thread, and
//! each periodic job (a balanced proxy's refresher, a trader's liveness
//! sweeper, a monitor driver) ends when its owner drops, however long
//! its period.
//!
//! Only the thread count is asserted. Registry names and live heap
//! still grow per round, since a monitor's orb and the global metric
//! registry outlive the node set; that leak is tracked separately and
//! this test does not cover it.

use std::sync::Arc;
use std::time::Duration;

use adapta::core::{Infrastructure, ServerSpec, Subscription};
use adapta::monitor::MonitorDriver;
use adapta::orb::Orb;
use adapta::sim::RealClock;
use adapta::trading::Trader;

const ROUNDS: usize = 200;

/// Live threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// One node set: three echo servers, each with its monitor host and
/// sandbox, and a smart proxy whose predicate is installed remotely at
/// the monitors. It is called, ticked and dropped, together with a
/// balanced proxy refreshing every 50 ms, a trader sweeping every
/// 50 ms and a driver ticking a monitor every 60 s.
fn round(i: usize) {
    let infra = Infrastructure::in_process().unwrap();
    for s in 0..3 {
        infra
            .spawn_server(ServerSpec::echo("ChurnSvc", format!("churn-{i}-{s}")))
            .unwrap();
    }
    let monitor = infra.servers()[0].monitor().clone();
    let _driver =
        MonitorDriver::start(monitor, Arc::new(RealClock::new()), Duration::from_secs(60));
    let balanced = infra
        .smart_proxy("ChurnSvc")
        .balanced("round_robin")
        .balancer_refresh(Duration::from_millis(50))
        .build()
        .unwrap();
    balanced.invoke("whoami", vec![]).unwrap();
    // A trader of its own: the node set's trader is held by its orb's
    // servants and outlives the set, so its sweeper would too.
    let trader = Trader::new(&Orb::new(&format!("churn-{i}-trader")));
    assert!(trader.start_liveness_sweeper(Duration::from_millis(50), Duration::from_millis(20)));
    let proxy = infra
        .smart_proxy("ChurnSvc")
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            "function(o, v, m) return v[1] > 1 end",
        ))
        .build()
        .unwrap();
    proxy.invoke("whoami", vec![]).unwrap();
    infra.advance(Duration::from_secs(30));
    proxy.invoke("whoami", vec![]).unwrap();
}

#[test]
fn node_set_churn_leaves_no_threads_behind() {
    round(0);
    let warm = threads();
    for i in 1..=ROUNDS {
        round(i);
    }
    assert_eq!(threads(), warm, "threads after {ROUNDS} rounds");
}
