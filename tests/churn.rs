//! Building and dropping whole in-process node sets must not leave
//! threads behind: every scripted part (monitor hosts, monitor
//! sandboxes, smart-proxy strategies) runs on its caller's thread.
//!
//! Only the thread count is asserted. Registry names and live heap
//! still grow per round, since a monitor's orb and the global metric
//! registry outlive the node set; that leak is tracked separately and
//! this test does not cover it.

use std::time::Duration;

use adapta::core::{Infrastructure, ServerSpec, Subscription};

const ROUNDS: usize = 200;

/// Live threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// One node set: three echo servers, each with its monitor host and
/// sandbox, and a smart proxy whose predicate is installed remotely at
/// the monitors. It is called, ticked and dropped.
fn round(i: usize) {
    let infra = Infrastructure::in_process().unwrap();
    for s in 0..3 {
        infra
            .spawn_server(ServerSpec::echo("ChurnSvc", format!("churn-{i}-{s}")))
            .unwrap();
    }
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
