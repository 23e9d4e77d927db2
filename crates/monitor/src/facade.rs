//! The script-side monitoring API.
//!
//! [`MonitorHost`] owns one script state (a
//! [`ScriptActor`](adapta_bridge::ScriptActor)) with the monitor API
//! installed, so the paper's listings run verbatim:
//!
//! ```lua
//! lmon = EventMonitor:new("LoadAvg", function() ... end, 60)
//! lmon:defineAspect("Increasing", [[function(self, currval, monitor) ... end]])
//! lmon:attachEventObserver(observer, "LoadIncrease", [[function(o, v, m) ... end]])
//! ```
//!
//! Facade tables returned to scripts delegate to the Rust
//! [`Monitor`]; monitors created from script are registered with the
//! host so Rust code can drive their ticks.

use std::sync::{Arc, Weak};
use std::time::Duration;

use adapta_bridge::{ActorError, ScriptActor};
use adapta_idl::ObjRefData;
use adapta_orb::Orb;
use adapta_script::{Interpreter, RuaError, Table, Value as Script};
use adapta_sim::SimTime;
use parking_lot::Mutex;

use crate::monitor::{
    AspectFn, FirstArg, Monitor, MonitorInner, ObserverId, ObserverTarget, PredicateFn, ScriptFn,
};

/// The monitor behind a facade, while it exists.
fn live(monitor: &Weak<MonitorInner>) -> Result<Monitor, RuaError> {
    monitor
        .upgrade()
        .map(|inner| Monitor { inner })
        .ok_or_else(|| RuaError::runtime("the monitor no longer exists", 0))
}

/// Builds the script-facing facade table for a monitor.
///
/// `actor` is the actor that will host the table — code compiled by
/// `defineAspect`/`attachEventObserver` lives there — and `installer`
/// is the identity installs are charged to (remote installers are
/// quota-checked, `"local"` is not).
///
/// The natives hold the monitor weakly: facades are stored in the
/// monitor's own actors, and a strong reference would keep the monitor
/// and those actor threads alive forever. Every installed script entry
/// gets its own facade when it is installed and keeps it, so what a
/// script writes into its facade table persists across ticks, as its
/// `self` table does.
pub(crate) fn monitor_facade(
    monitor: &Weak<MonitorInner>,
    actor: &ScriptActor,
    installer: &str,
) -> Script {
    let table = Table::new();
    let t = std::rc::Rc::new(std::cell::RefCell::new(table));

    let set = |t: &std::rc::Rc<std::cell::RefCell<Table>>, name: &str, v: Script| {
        t.borrow_mut().set_str(name, v);
    };

    // getValue / getvalue (the paper mixes the spellings).
    for spelling in ["getValue", "getvalue"] {
        let w = monitor.clone();
        set(
            &t,
            spelling,
            Interpreter::native(spelling, move |_, _args| {
                Ok(vec![adapta_bridge::from_wire(&live(&w)?.value())])
            }),
        );
    }

    for spelling in ["setValue", "setvalue"] {
        let w = monitor.clone();
        set(
            &t,
            spelling,
            Interpreter::native(spelling, move |_, args| {
                // args[0] is the facade (method-call self).
                let v = args.get(1).cloned().unwrap_or(Script::Nil);
                live(&w)?.set_value(adapta_bridge::to_wire(&v));
                Ok(vec![])
            }),
        );
    }

    {
        let w = monitor.clone();
        set(
            &t,
            "getAspectValue",
            Interpreter::native("getAspectValue", move |_, args| {
                let name = args.get(1).and_then(Script::as_str).unwrap_or_default();
                let v = live(&w)?
                    .aspect_value(name)
                    .unwrap_or(adapta_idl::Value::Null);
                Ok(vec![adapta_bridge::from_wire(&v)])
            }),
        );
    }

    {
        let w = monitor.clone();
        set(
            &t,
            "definedAspects",
            Interpreter::native("definedAspects", move |_, _| {
                let mut out = Table::new();
                for name in live(&w)?.defined_aspects() {
                    out.push(Script::str(name));
                }
                Ok(vec![Script::Table(std::rc::Rc::new(
                    std::cell::RefCell::new(out),
                ))])
            }),
        );
    }

    {
        let w = monitor.clone();
        let a = actor.clone();
        let who = installer.to_owned();
        set(
            &t,
            "defineAspect",
            Interpreter::native("defineAspect", move |interp, args| {
                let name = args
                    .get(1)
                    .and_then(|v| v.as_str().map(str::to_owned))
                    .ok_or_else(|| RuaError::runtime("defineAspect: name expected", 0))?;
                let m = live(&w)?;
                if who != "local" {
                    m.check_quota(&who)
                        .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
                }
                let func = code_arg(interp, args.get(2))?;
                let script =
                    ScriptFn::store(interp, &a, &w, &who, func, FirstArg::New(Script::table()));
                m.put_aspect(name, who.clone(), AspectFn::Script(script));
                Ok(vec![])
            }),
        );
    }

    {
        let w = monitor.clone();
        let a = actor.clone();
        let who = installer.to_owned();
        set(
            &t,
            "attachEventObserver",
            Interpreter::native("attachEventObserver", move |interp, args| {
                let observer = args.get(1).cloned().unwrap_or(Script::Nil);
                let event_id = args
                    .get(2)
                    .and_then(|v| v.as_str().map(str::to_owned))
                    .ok_or_else(|| {
                        RuaError::runtime("attachEventObserver: event id expected", 0)
                    })?;
                let m = live(&w)?;
                if who != "local" {
                    m.check_quota(&who)
                        .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
                }
                let predicate = code_arg(interp, args.get(3))?;
                let target = observer_target(interp, observer)?;
                // The local object was stored for this observer: the
                // entry owns it.
                let first = FirstArg::observer(&target, true);
                let script = ScriptFn::store(interp, &a, &w, &who, predicate, first);
                let id =
                    m.push_observer(target, event_id, who.clone(), PredicateFn::Script(script));
                Ok(vec![Script::Num(id.0 as f64)])
            }),
        );
    }

    {
        let w = monitor.clone();
        set(
            &t,
            "detachEventObserver",
            Interpreter::native("detachEventObserver", move |_, args| {
                let id = args.get(1).and_then(Script::as_num).unwrap_or(0.0) as u64;
                Ok(vec![Script::Bool(
                    live(&w)?.detach_observer(ObserverId(id)),
                )])
            }),
        );
    }

    if let Ok(m) = live(monitor) {
        set(&t, "__property", Script::str(m.property()));
    }
    Script::Table(t)
}

/// Accepts either a function value or a source-code string (the
/// remote-evaluation form) and returns the function.
fn code_arg(interp: &mut Interpreter, arg: Option<&Script>) -> Result<Script, RuaError> {
    match arg {
        Some(v @ (Script::Function(_) | Script::Native(_))) => Ok(v.clone()),
        Some(Script::Str(code)) => interp.compile_function(code),
        other => Err(RuaError::runtime(
            format!(
                "expected a function or code string, got {}",
                other.map(|v| v.type_name()).unwrap_or("nothing")
            ),
            0,
        )),
    }
}

/// Classifies a script-side observer argument: a `__ref` table is a
/// remote observer; any other table is a local script observer, stored
/// in the actor.
fn observer_target(interp: &mut Interpreter, observer: Script) -> Result<ObserverTarget, RuaError> {
    if let Some(t) = observer.as_table() {
        let uri = t.borrow().get_str("__ref");
        if let Script::Str(uri) = uri {
            if let Some(data) = ObjRefData::from_uri(&uri) {
                return Ok(ObserverTarget::Remote(data));
            }
        }
        return Ok(ObserverTarget::Local(ScriptActor::stored_put(
            interp, observer,
        )));
    }
    Err(RuaError::runtime(
        "observer must be a table (remote reference or local object)",
        0,
    ))
}

/// A script state with the monitoring API installed, plus a registry of
/// the monitors created from script.
///
/// One `MonitorHost` corresponds to one machine in the paper's
/// deployment: the host where service agents run their configuration
/// scripts and monitors sample local conditions.
#[derive(Clone)]
pub struct MonitorHost {
    actor: ScriptActor,
    orb: Orb,
    monitors: Arc<Mutex<Vec<Monitor>>>,
}

impl std::fmt::Debug for MonitorHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorHost")
            .field("monitors", &self.monitors.lock().len())
            .finish_non_exhaustive()
    }
}

impl MonitorHost {
    /// Creates a host with a fresh script state.
    pub fn new(name: &str, orb: &Orb) -> MonitorHost {
        Self::with_setup(name, orb, |_| {})
    }

    /// Creates a host whose interpreter gets extra setup (readers,
    /// natives, clocks) before the monitor API is installed.
    pub fn with_setup(
        name: &str,
        orb: &Orb,
        setup: impl FnOnce(&mut Interpreter) + Send + 'static,
    ) -> MonitorHost {
        let actor = ScriptActor::spawn(name, setup);
        let host = MonitorHost {
            actor: actor.clone(),
            orb: orb.clone(),
            monitors: Arc::new(Mutex::new(Vec::new())),
        };
        host.install_api();
        host
    }

    fn install_api(&self) {
        let host = self.clone();
        self.actor
            .with(move |interp| {
                let ctor_host = host.clone();
                let new_native = Interpreter::native("EventMonitor.new", move |interp, args| {
                    // Accept both `EventMonitor.new(...)` and
                    // `EventMonitor:new(...)`: skip a leading table that
                    // is the class itself.
                    let args: Vec<Script> = match args.first() {
                        Some(Script::Table(t))
                            if matches!(
                                t.borrow().get_str("__class"),
                                Script::Str(ref s) if &**s == "EventMonitor"
                            ) =>
                        {
                            args[1..].to_vec()
                        }
                        _ => args,
                    };
                    let name = args
                        .first()
                        .and_then(|v| v.as_str().map(str::to_owned))
                        .ok_or_else(|| {
                            RuaError::runtime("EventMonitor.new: property name expected", 0)
                        })?;
                    let update = code_arg(interp, args.get(1))?;
                    let update = ScriptActor::stored_put(interp, update);
                    let period = args.get(2).and_then(Script::as_num).unwrap_or(60.0);
                    let monitor = Monitor::builder(&name)
                        .period(Duration::from_secs_f64(period.max(0.001)))
                        .source_handle(update)
                        .build(&ctor_host.actor, &ctor_host.orb)
                        .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
                    ctor_host.monitors.lock().push(monitor.clone());
                    Ok(vec![monitor_facade(
                        &Arc::downgrade(&monitor.inner),
                        &ctor_host.actor,
                        "local",
                    )])
                });
                let mut class = Table::new();
                class.set_str("__class", Script::str("EventMonitor"));
                class.set_str("new", new_native);
                let class = Script::Table(std::rc::Rc::new(std::cell::RefCell::new(class)));
                interp.set_global("EventMonitor", class.clone());
                // BasicMonitor is the same constructor in this
                // implementation (every monitor supports events).
                interp.set_global("BasicMonitor", class);
            })
            .expect("install monitor api");
    }

    /// The underlying script actor.
    pub fn actor(&self) -> &ScriptActor {
        &self.actor
    }

    /// The orb notifications go through.
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    /// Runs a script on the host (agents' configuration scripts).
    ///
    /// # Errors
    ///
    /// Script errors.
    pub fn eval(&self, source: &str) -> Result<Vec<adapta_idl::Value>, ActorError> {
        self.actor.eval(source)
    }

    /// Registers a natively-built monitor with this host (so
    /// [`tick_all`](Self::tick_all) drives it too).
    pub fn register(&self, monitor: Monitor) {
        self.monitors.lock().push(monitor);
    }

    /// Snapshot of the host's monitors.
    pub fn monitors(&self) -> Vec<Monitor> {
        self.monitors.lock().clone()
    }

    /// Finds a monitor by observed property name.
    pub fn monitor(&self, property: &str) -> Option<Monitor> {
        self.monitors
            .lock()
            .iter()
            .find(|m| m.property() == property)
            .cloned()
    }

    /// Ticks every registered monitor at `now`.
    pub fn tick_all(&self, now: SimTime) {
        for monitor in self.monitors() {
            monitor.tick(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_monitor_new_from_script() {
        let orb = Orb::new("facade-test");
        let host = MonitorHost::new("facade-test", &orb);
        host.eval(
            r#"
            lmon = EventMonitor:new("LoadAvg", function() return {1.5, 1.0, 0.5} end, 60)
        "#,
        )
        .unwrap();
        let mon = host.monitor("LoadAvg").expect("monitor registered");
        assert_eq!(mon.period(), Duration::from_secs(60));
        mon.tick(SimTime::ZERO);
        let out = host.eval("return lmon:getValue()[1]").unwrap();
        assert_eq!(out, vec![adapta_idl::Value::Double(1.5)]);
    }

    #[test]
    fn dot_call_also_works() {
        let orb = Orb::new("facade-dot");
        let host = MonitorHost::new("facade-dot", &orb);
        host.eval(r#"m = EventMonitor.new("X", function() return 7 end, 1)"#)
            .unwrap();
        host.tick_all(SimTime::ZERO);
        assert_eq!(
            host.eval("return m:getvalue()").unwrap(),
            vec![adapta_idl::Value::Long(7)]
        );
    }

    #[test]
    fn define_aspect_from_script() {
        let orb = Orb::new("facade-aspect");
        let host = MonitorHost::new("facade-aspect", &orb);
        host.eval(
            r#"
            m = EventMonitor:new("L", function() return {3, 1} end, 1)
            m:defineAspect("Increasing", [[function(self, currval, monitor)
                if currval[1] > currval[2] then return "yes" else return "no" end
            end]])
        "#,
        )
        .unwrap();
        host.tick_all(SimTime::ZERO);
        assert_eq!(
            host.eval("return m:getAspectValue('Increasing')").unwrap(),
            vec![adapta_idl::Value::Str("yes".into())]
        );
        assert_eq!(
            host.eval("return m:definedAspects()[1]").unwrap(),
            vec![adapta_idl::Value::Str("Increasing".into())]
        );
    }

    #[test]
    fn local_script_observer_is_notified() {
        let orb = Orb::new("facade-obs");
        let host = MonitorHost::new("facade-obs", &orb);
        // Figure 4, with a local observer object.
        host.eval(
            r#"
            notified = {}
            eventobserver = {notifyEvent = function(self, event)
                table.insert(notified, event)
            end}
            m = EventMonitor:new("Load", function() return 80 end, 1)
            m:attachEventObserver(eventobserver, "LoadIncrease",
                [[function(observer, value, monitor)
                    return value > 50
                end]])
        "#,
        )
        .unwrap();
        host.tick_all(SimTime::ZERO);
        assert_eq!(
            host.eval("return notified[1]").unwrap(),
            vec![adapta_idl::Value::Str("LoadIncrease".into())]
        );
    }

    #[test]
    fn detach_from_script() {
        let orb = Orb::new("facade-detach");
        let host = MonitorHost::new("facade-detach", &orb);
        host.eval(
            r#"
            count = 0
            obs = {notifyEvent = function(self, e) count = count + 1 end}
            m = EventMonitor:new("L", function() return 99 end, 1)
            id = m:attachEventObserver(obs, "E", [[function(o, v, m) return true end]])
        "#,
        )
        .unwrap();
        host.tick_all(SimTime::ZERO);
        host.eval("m:detachEventObserver(id)").unwrap();
        host.tick_all(SimTime::ZERO);
        assert_eq!(
            host.eval("return count").unwrap(),
            vec![adapta_idl::Value::Long(1)]
        );
    }

    #[test]
    fn predicate_passed_as_function_value() {
        let orb = Orb::new("facade-fnval");
        let host = MonitorHost::new("facade-fnval", &orb);
        host.eval(
            r#"
            hits = 0
            obs = {notifyEvent = function(self, e) hits = hits + 1 end}
            m = EventMonitor:new("L", function() return 10 end, 1)
            m:attachEventObserver(obs, "E", function(o, v, mon) return v == 10 end)
        "#,
        )
        .unwrap();
        host.tick_all(SimTime::ZERO);
        assert_eq!(
            host.eval("return hits").unwrap(),
            vec![adapta_idl::Value::Long(1)]
        );
    }

    #[test]
    fn set_value_from_script() {
        let orb = Orb::new("facade-setv");
        let host = MonitorHost::new("facade-setv", &orb);
        host.eval(r#"m = BasicMonitor:new("P", function() return nil end, 1)"#)
            .unwrap();
        let mon = host.monitor("P").unwrap();
        host.eval("m:setValue(123)").unwrap();
        assert_eq!(mon.value(), adapta_idl::Value::Long(123));
    }
}
