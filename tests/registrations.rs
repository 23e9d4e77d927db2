//! Every observer a smart proxy attaches belongs to a replica of its
//! set: the builder's subscriptions, Figure 7's relaxed threshold
//! (natively through `SmartProxy::observe`, in Rua through the facade's
//! monitor tables) and their identical re-attaches. A registration is
//! detached when the last replica holding it leaves the set, so a
//! server the proxy left sends it nothing.

use std::time::Duration;

use adapta::core::{
    policies::{load_sharing_proxy, BindingPolicy, LoadSharingConfig},
    Infrastructure, ServerSpec, SmartProxy, Subscription,
};
use adapta::idl::Value;

/// Figure 7, verbatim: the adaptation strategy for LoadIncrease events.
const FIG7_SOURCE: &str = r#"
smartproxy._strategies = {
    LoadIncrease = function(self)
        -- get the current load average
        self._loadavg = self._loadavgmon:getvalue()

        -- look for an alternative server
        local query
        query = "LoadAvg < 50 and LoadAvgIncreasing == no "
        if not self:_select(query) then
            self._loadavgmon:attachEventObserver(
                self._observer,
                "LoadIncrease",
                [[function(self, value, monitor)
                    local incr
                    incr = monitor:getAspectValue("Increasing")
                    return value[1] > 70 and incr == "yes"
                end]])
        end
    end
}
"#;

/// One call every 30 simulated seconds.
const STEP: Duration = Duration::from_secs(30);
/// Above both of Figure 7's thresholds (50, and the relaxed 70).
const HOT: f64 = 80.0;

fn whoami(proxy: &SmartProxy) -> String {
    let host = proxy.invoke("whoami", vec![]).unwrap();
    host.as_str().unwrap().to_owned()
}

/// Loads both servers for 6 simulated minutes with one call every 30 s,
/// so the strategy finds no alternative and relaxes at every event,
/// then moves the load off the other server. The bound monitor holds
/// at most the strict and the relaxed registration; once the proxy
/// rebinds, the old monitor holds none, and over the next 10 minutes
/// it sends nothing.
fn observers_leave_with_the_server(service: &str, proxy: impl Fn(&Infrastructure) -> SmartProxy) {
    let infra = Infrastructure::in_process().unwrap();
    let hosts = [format!("{service}-a"), format!("{service}-b")];
    for host in &hosts {
        infra
            .spawn_server(ServerSpec::echo(service, host.as_str()))
            .unwrap();
    }
    let proxy = proxy(&infra);
    let bound = whoami(&proxy);
    let other = hosts.iter().find(|h| **h != bound).unwrap().clone();
    let old = infra.server(&bound).unwrap().monitor().clone();

    for host in &hosts {
        infra.set_background(host, HOT);
    }
    for _ in 0..12 {
        infra.advance_in_steps(STEP, STEP);
        assert_eq!(whoami(&proxy), bound, "no alternative while both are hot");
    }
    assert!(proxy.events_handled() > 0, "the strategy never ran");
    assert!(
        old.observer_count() <= 2,
        "{} observers on the bound monitor",
        old.observer_count()
    );

    infra.set_background(&other, 0.0);
    for _ in 0..20 {
        infra.advance_in_steps(STEP, STEP);
        if whoami(&proxy) == other {
            break;
        }
    }
    assert_eq!(whoami(&proxy), other, "the proxy never left the hot server");
    assert_eq!(old.observer_count(), 0);

    let sent = old.notifications();
    for _ in 0..20 {
        infra.advance_in_steps(STEP, STEP);
        assert_eq!(whoami(&proxy), other);
    }
    assert_eq!(old.notifications(), sent, "the left server kept notifying");
}

#[test]
fn native_fig7_observers_leave_with_the_server() {
    observers_leave_with_the_server("RegNative", |infra| {
        load_sharing_proxy(
            infra.orb(),
            infra.repository(),
            std::sync::Arc::new(infra.trader().clone()),
            "RegNative",
            BindingPolicy::AutoAdaptive,
            LoadSharingConfig::default(),
        )
        .unwrap()
    });
}

#[test]
fn rua_fig7_observers_leave_with_the_server() {
    observers_leave_with_the_server("RegRua", |infra| {
        let cfg = LoadSharingConfig::default();
        let proxy = infra
            .smart_proxy("RegRua")
            .constraint(cfg.constraint())
            .preference("min LoadAvg")
            .subscribe(Subscription::new(
                "LoadAvg",
                "LoadIncrease",
                cfg.predicate(cfg.threshold),
            ))
            .build()
            .unwrap();
        proxy.install_strategies_script(FIG7_SOURCE).unwrap();
        proxy
    });
}

/// Under `bound`, two load-monitored offers of one server name its one
/// monitor, so their replicas hold the same strict registration. Moving
/// from one offer to the other, and back, keeps it attached.
#[test]
fn a_registration_two_offers_share_survives_their_swap() {
    let infra = Infrastructure::in_process().unwrap();
    let server = infra
        .spawn_server(ServerSpec::echo("RegShared", "reg-shared"))
        .unwrap();
    let announce = || {
        let host = vec![("Host".to_owned(), Value::from("reg-shared"))];
        let (target, monitor) = (server.target().clone(), server.monitor());
        server
            .agent()
            .announce_load_monitored("RegShared", target, monitor, host)
            .unwrap()
    };
    announce();
    let cfg = LoadSharingConfig::default();
    let proxy = infra
        .smart_proxy("RegShared")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            cfg.predicate(cfg.threshold),
        ))
        .build()
        .unwrap();
    let monitor = server.monitor();
    assert_eq!(monitor.observer_count(), 1);

    for _ in 0..2 {
        let held = proxy.current_offer().unwrap().id;
        server.agent().withdraw(&held).unwrap();
        assert!(proxy.reselect().unwrap());
        assert_ne!(proxy.current_offer().unwrap().id, held);
        assert_eq!(monitor.observer_count(), 1, "the strict subscription left");
        announce();
        assert!(proxy.reselect().unwrap());
        assert_eq!(monitor.observer_count(), 1);
    }

    // Still live: a hot server notifies the proxy through it.
    infra.set_background("reg-shared", HOT);
    infra.advance_in_steps(Duration::from_secs(120), STEP);
    assert!(proxy.events_received() > 0);
    assert_eq!(
        proxy.invoke("hello", vec![Value::from("x")]).unwrap(),
        Value::from("hello, x")
    );
}

/// A facade monitor table attaches only the proxy's own observer, and
/// only to a monitor behind a replica of the set: a table kept from a
/// server the proxy left is refused (`nil`), as is another observer.
#[test]
fn a_facade_attach_needs_a_replica_behind_its_monitor() {
    let infra = Infrastructure::in_process().unwrap();
    for host in ["reg-facade-a", "reg-facade-b"] {
        infra
            .spawn_server(ServerSpec::echo("RegFacade", host))
            .unwrap();
    }
    let proxy = infra
        .smart_proxy("RegFacade")
        .preference("min LoadAvg")
        .build()
        .unwrap();
    proxy
        .install_strategies_script(
            r#"
            smartproxy._strategies = {
                Keep = function(self) self.kept = self._loadavgmon end,
                Attach = function(self)
                    local code = "function(o, v, m) return false end"
                    local mon = self._loadavgmon
                    self.own = mon:attachEventObserver(self._observer, "Probe", code)
                    self.again = mon:attachEventObserver(self._observer, "Probe", code)
                    self.foreign = mon:attachEventObserver(self.kept, "Probe", code)
                    self.left = self.kept:attachEventObserver(self._observer, "Probe", code)
                end
            }
            "#,
        )
        .unwrap();
    proxy.adapt_now("Keep");
    let left = infra.server(&whoami(&proxy)).unwrap();
    left.withdraw();
    assert!(proxy.reselect().unwrap());
    let bound = infra.server(&whoami(&proxy)).unwrap();
    assert_ne!(bound.target(), left.target());

    proxy.adapt_now("Attach");
    let out = proxy
        .actor()
        .eval("return smartproxy.own, smartproxy.again, smartproxy.foreign, smartproxy.left")
        .unwrap();
    assert!(out[0].as_long().is_some(), "{out:?}");
    assert_eq!(out[1], out[0]);
    assert_eq!(out[2..], [Value::Null, Value::Null]);
    assert_eq!(bound.monitor().observer_count(), 1);
    assert_eq!(left.monitor().observer_count(), 0);

    // The registration belongs to the bound replica, and leaves with it.
    bound.withdraw();
    left.agent()
        .announce_load_monitored("RegFacade", left.target().clone(), left.monitor(), vec![])
        .unwrap();
    assert!(proxy.reselect().unwrap());
    assert_eq!(bound.monitor().observer_count(), 0);
}
