//! Reproduction of every figure in the paper, as executable code.
//!
//! * Figure 1 — the `AspectsManager` IDL, parsed verbatim and exercised
//!   over the ORB;
//! * Figure 2 — the `EventMonitor`/`EventObserver` IDL, including the
//!   `oneway notifyEvent` callback;
//! * Figure 3 — the LoadAverage event monitor listing, running verbatim
//!   as Rua source against a synthetic `/proc/loadavg`;
//! * Figure 4 — the event-observer attachment with a remote-evaluation
//!   predicate, verbatim;
//! * Figures 5 and 6 — the smart-proxy/architecture topology, exercised
//!   end to end in `tests/infrastructure.rs`;
//! * Figure 7 — the `LoadIncrease` adaptation strategy, installed
//!   verbatim through `smartproxy._strategies`.

use std::sync::Arc;
use std::time::Duration;

use adapta::core::{policies::LoadSharingConfig, Infrastructure, ServerSpec, Subscription};
use adapta::idl::{parse_idl, TypeCode, Value};
use adapta::monitor::{load_average_monitor, loadavg_reader, MonitorHost};
use adapta::orb::Orb;
use adapta::sim::{Clock, SimHost, VirtualClock};

/// Figure 1, verbatim (modulo the undeclared helper types, which the
/// parser maps to `any` — see `adapta-idl` docs).
const FIG1_IDL: &str = r#"
interface AspectsManager {
    PropertyValue getAspectValue(in AspectName name);
    AspectList definedAspects();
    void defineAspect(in AspectName name, in LuaCode updatef);
};
"#;

/// Figure 2, verbatim (with `BasicMonitor` declared so the base
/// resolves).
const FIG2_IDL: &str = r#"
interface BasicMonitor {
    any getValue();
    void setValue(in any v);
};
interface EventObserver {
    oneway void notifyEvent(in EventID evid);
};
interface EventMonitor : BasicMonitor {
    EventObserverID attachEventObserver(in EventObserver obj,
                                        in EventID evid,
                                        in LuaCode notifyf);
    void detachEventObserver(in EventObserverID id);
};
"#;

#[test]
fn fig1_aspects_manager_idl_round_trip() {
    let defs = parse_idl(FIG1_IDL).expect("figure 1 parses verbatim");
    assert_eq!(defs.len(), 1);
    let am = &defs[0];
    assert_eq!(am.name, "AspectsManager");
    let names: Vec<_> = am.operations.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["getAspectValue", "definedAspects", "defineAspect"]
    );
    assert_eq!(am.operation("defineAspect").unwrap().result, TypeCode::Void);

    // The interface is usable through the repository for dynamic
    // invocation checking.
    let repo = adapta::idl::InterfaceRepository::new();
    repo.register_all(defs).unwrap();
    let op = repo
        .lookup_operation("AspectsManager", "defineAspect")
        .unwrap();
    assert!(op
        .check_args(&[Value::from("Increasing"), Value::from("function() end")])
        .is_ok());
    assert!(op.check_args(&[Value::from("just-one")]).is_err());
}

#[test]
fn fig2_event_monitor_idl_round_trip() {
    let defs = parse_idl(FIG2_IDL).expect("figure 2 parses verbatim");
    let repo = adapta::idl::InterfaceRepository::new();
    repo.register_all(defs).unwrap();

    // notifyEvent is oneway void.
    let notify = repo
        .lookup_operation("EventObserver", "notifyEvent")
        .unwrap();
    assert!(notify.oneway);
    assert_eq!(notify.result, TypeCode::Void);

    // EventMonitor inherits BasicMonitor's operations.
    assert!(repo.lookup_operation("EventMonitor", "getValue").is_ok());
    assert!(repo.is_a("EventMonitor", "BasicMonitor"));
}

fn fig3_setup(node: &str) -> (VirtualClock, SimHost, MonitorHost) {
    let orb = Orb::new(node);
    let clock = VirtualClock::new();
    let host = SimHost::new(format!("{node}-host"), Duration::from_millis(20));
    let reader = loadavg_reader(host.clone(), Arc::new(clock.clone()));
    let mhost = MonitorHost::with_setup(node, &orb, move |interp| {
        interp.set_reader(reader);
    });
    (clock, host, mhost)
}

#[test]
fn fig3_load_average_monitor_runs_verbatim() {
    let (clock, host, mhost) = fig3_setup("fig3");
    // The listing itself lives in adapta-monitor as
    // LOAD_AVERAGE_MONITOR_SOURCE; load_average_monitor evals it.
    let monitor = load_average_monitor(&mhost).expect("figure 3 source runs");

    // A loaded machine for two minutes.
    host.set_background(clock.now(), 4.0);
    clock.advance(Duration::from_secs(120));
    monitor.tick(clock.now());

    // The property is the {1min, 5min, 15min} table of Figure 3.
    let value = monitor.value();
    let seq = value.as_seq().expect("three-tuple value");
    assert_eq!(seq.len(), 3);
    let one = seq[0].as_double().unwrap();
    let five = seq[1].as_double().unwrap();
    assert!(one > five, "rising load: {one} vs {five}");
    // The "Increasing" aspect defined in lines 14-21.
    assert_eq!(monitor.aspect_value("Increasing"), Some(Value::from("yes")));
}

#[test]
fn fig4_event_observer_attachment_runs_verbatim() {
    let (clock, host, mhost) = fig3_setup("fig4");
    load_average_monitor(&mhost).unwrap();

    // Figure 4, verbatim: a local observer and the event-diagnosing
    // function shipped as a string.
    mhost
        .eval(
            r#"
            notified = 0
            eventobserver = {notifyEvent = function(self, event)
                notified = notified + 1
            end}

            function_code = [[function(observer, value, monitor)
                local incr
                incr = monitor:getAspectValue("Increasing")
                return value[1] > 50 and incr == "yes"
            end]]

            mon = __lmon
            mon:attachEventObserver(
                eventobserver,
                "LoadIncrease",
                function_code)
        "#,
        )
        .expect("figure 4 source runs");

    // Low load: no notification.
    host.set_background(clock.now(), 2.0);
    clock.advance(Duration::from_secs(120));
    mhost.tick_all(clock.now());
    assert_eq!(mhost.eval("return notified").unwrap(), vec![Value::Long(0)]);

    // Load beyond the 50 threshold and increasing: notify.
    host.set_background(clock.now(), 80.0);
    clock.advance(Duration::from_secs(300));
    mhost.tick_all(clock.now());
    assert_eq!(mhost.eval("return notified").unwrap(), vec![Value::Long(1)]);
}

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

#[test]
fn fig7_strategy_reselects_and_relaxes_verbatim() {
    let infra = Infrastructure::in_process().unwrap();
    infra
        .spawn_server(ServerSpec::echo("Fig7Svc", "fig7-a"))
        .unwrap();
    infra
        .spawn_server(ServerSpec::echo("Fig7Svc", "fig7-b"))
        .unwrap();

    let cfg = LoadSharingConfig::default(); // thresholds 50/70, as in the figures
    let proxy = infra
        .smart_proxy("Fig7Svc")
        .constraint(cfg.constraint())
        .preference("min LoadAvg")
        .subscribe(Subscription::new(
            "LoadAvg",
            "LoadIncrease",
            cfg.predicate(50.0),
        ))
        .build()
        .unwrap();
    proxy
        .install_strategies_script(FIG7_SOURCE)
        .expect("figure 7 source installs");

    let first = proxy.invoke("whoami", vec![]).unwrap();
    let first_host = first.as_str().unwrap().to_owned();

    // Overload the bound host beyond 50; the 1-minute average rises
    // first so "Increasing" is yes.
    infra.set_background(&first_host, 80.0);
    infra.advance_in_steps(Duration::from_secs(240), Duration::from_secs(30));

    // Next invocation applies the queued strategy: the verbatim Fig. 7
    // code queries the trader and switches servers.
    let second = proxy.invoke("whoami", vec![]).unwrap();
    assert_ne!(second.as_str().unwrap(), first_host, "strategy must rebind");
    assert!(proxy.events_received() > 0);

    // Now overload *both* hosts beyond 50 (but the strategy's relaxed
    // threshold is 70): no alternative fits, so Fig. 7 lines 10-17
    // re-attach the observer with the 70 threshold on the current
    // monitor.
    let second_host = second.as_str().unwrap().to_owned();
    let before = infra
        .server(&second_host)
        .unwrap()
        .monitor()
        .observer_count();
    infra.set_background(&first_host, 60.0);
    infra.set_background(&second_host, 60.0);
    infra.advance_in_steps(Duration::from_secs(240), Duration::from_secs(30));
    let third = proxy.invoke("whoami", vec![]).unwrap();
    // Still bound (to either host; no better option), with the extra
    // relaxed observer installed.
    let third_host = third.as_str().unwrap().to_owned();
    let after = infra
        .server(&third_host)
        .unwrap()
        .monitor()
        .observer_count();
    assert!(
        after > before || third_host != second_host,
        "expected the relaxed observer (Fig. 7) or a legitimate rebind; \
         observers before={before} after={after}"
    );
    // The strategy stored the load average it read on the facade.
    let stored = proxy
        .actor()
        .eval("return smartproxy._loadavg[1] ~= nil")
        .unwrap();
    assert_eq!(stored, vec![Value::Bool(true)]);
}
