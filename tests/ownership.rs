//! A smart proxy's stored script values are owned by Rust handles:
//! replaced strategies are released, no thread hosts the proxy's
//! scripts, and what its isolate stores is dropped with the proxy.

use std::sync::mpsc;

use adapta::core::{Infrastructure, ServerSpec};
use adapta::idl::Value;
use adapta::monitor::Stored;
use adapta::script::Interpreter;

/// Threads of this process whose name starts with `rua-`, the prefix
/// script actor threads used to carry.
fn rua_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("rua-"))
        .collect()
}

#[test]
fn a_smart_proxy_runs_scripts_without_a_thread_and_drops_its_values_with_it() {
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
    assert_eq!(rua_threads(), Vec::<String>::new(), "no script thread");

    // A native holding `tx`, stored in the proxy's isolate. The handle
    // outlives the proxy: the isolate owns the value, not the handle.
    let (tx, rx) = mpsc::channel::<()>();
    let kept: Stored = proxy
        .actor()
        .with(move |_| {
            Stored::new(Interpreter::native("hold", move |_, _| {
                let _ = &tx;
                Ok(vec![])
            }))
        })
        .unwrap();
    assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Empty));
    drop(proxy);
    assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    drop(kept);
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
