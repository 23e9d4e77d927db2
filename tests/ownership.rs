//! A smart proxy's stored script values are owned by Rust handles:
//! replaced strategies are released, and the proxy's actor thread stops
//! when the proxy is dropped.

use std::time::{Duration, Instant};

use adapta::core::{Infrastructure, ServerSpec};
use adapta::idl::Value;

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
fn a_dropped_smart_proxy_stops_its_actor_thread() {
    let infra = Infrastructure::in_process().unwrap();
    infra
        .spawn_server(ServerSpec::echo("OwnSvc", "own-a"))
        .unwrap();
    let proxy = infra
        .smart_proxy("OwnSvc")
        .strategy_script(
            "Check",
            "function(self, event) checked = self:_reselect() and self._target end",
        )
        .build()
        .unwrap();
    proxy.adapt_now("Check");
    let checked = proxy.actor().eval("return checked").unwrap();
    assert!(matches!(&checked[..], [Value::Str(_)]), "{checked:?}");
    assert!(thread_running("rua-sp-OwnSvc"));
    drop(proxy);
    assert!(thread_exits("rua-sp-OwnSvc"));
}

#[test]
fn replacing_a_script_strategy_releases_the_old_one() {
    let infra = Infrastructure::in_process().unwrap();
    infra
        .spawn_server(ServerSpec::echo("SwapSvc", "swap-a"))
        .unwrap();
    let proxy = infra.smart_proxy("SwapSvc").build().unwrap();
    let replace = |times: usize| {
        for i in 0..times {
            proxy
                .set_strategy_script("Swap", &format!("function(self, e) generation = {i} end"))
                .unwrap();
            if i % 100 == 0 {
                proxy.adapt_now("Swap");
            }
        }
    };
    replace(1);
    let baseline = proxy.actor().stored_count().unwrap();
    replace(1000);
    assert_eq!(proxy.actor().stored_count().unwrap(), baseline);
    assert_eq!(
        proxy.actor().eval("return generation").unwrap(),
        vec![Value::Long(900)]
    );
}
