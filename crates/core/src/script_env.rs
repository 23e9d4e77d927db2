//! Invoking remote objects *from* scripts — the LuaCorba client side.
//!
//! A CORBA client written in Lua uses a remote object "in the same way
//! it uses any Lua object". Rua has no metatables, so instead of tag
//! methods we generate the proxy table's methods from the interface
//! repository: every operation of the reference's interface (and its
//! bases) becomes a callable entry that marshals its arguments, invokes
//! through the orb, and unmarshals the result. A generic `_invoke`
//! escape hatch covers interfaces the repository does not know.

use std::sync::Arc;

use adapta_bridge::{from_wire, to_wire};
use adapta_idl::{InterfaceRepository, ObjRefData};
use adapta_orb::Orb;
use adapta_script::{Interpreter, RuaError, Table, Value as Script};
use adapta_trading::{ExportRequest, OfferId, PropValue, Query, TradingService};

/// Builds a script proxy table for `target`.
///
/// The table carries `__ref`/`__type` (so it converts back to an object
/// reference when sent over the wire), one method per operation found
/// in `repo` for the target's interface, and the generic
/// `_invoke(self, op, args-table)`.
pub fn proxy_table(orb: &Orb, repo: &InterfaceRepository, target: &ObjRefData) -> Script {
    let mut t = Table::new();
    t.set_str("__ref", Script::str(target.to_uri()));
    t.set_str("__type", Script::str(&target.type_id));

    // Named methods from the interface repository.
    let mut ops: Vec<(String, bool)> = Vec::new();
    let mut stack = vec![target.type_id.clone()];
    while let Some(interface) = stack.pop() {
        if let Ok(def) = repo.lookup(&interface) {
            for op in &def.operations {
                if !ops.iter().any(|(n, _)| *n == op.name) {
                    ops.push((op.name.clone(), op.oneway));
                }
            }
            stack.extend(def.bases.iter().cloned());
        }
    }
    for (op, oneway) in ops {
        let orb = orb.clone();
        let target = target.clone();
        let op_name = op.clone();
        t.set_str(
            &op,
            Interpreter::native(&format!("{}::{op}", target.type_id), move |_, args| {
                // Method-call convention: args[0] is the proxy table.
                let wire_args: Vec<_> = args.iter().skip(1).map(to_wire).collect();
                if oneway {
                    orb.invoke_oneway_ref(&target, &op_name, wire_args)
                        .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
                    Ok(vec![])
                } else {
                    let out = orb
                        .invoke_ref(&target, &op_name, wire_args)
                        .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
                    Ok(vec![from_wire(&out)])
                }
            }),
        );
    }

    // Generic escape hatch for unknown interfaces.
    {
        let orb = orb.clone();
        let target = target.clone();
        t.set_str(
            "_invoke",
            Interpreter::native("_invoke", move |_, args| {
                let op = args
                    .get(1)
                    .and_then(|v| v.as_str().map(str::to_owned))
                    .ok_or_else(|| RuaError::runtime("_invoke: operation name expected", 0))?;
                let wire_args = match args.get(2) {
                    None | Some(Script::Nil) => Vec::new(),
                    Some(v) => match to_wire(v) {
                        adapta_idl::Value::Seq(items) => items,
                        other => vec![other],
                    },
                };
                let out = orb
                    .invoke_ref(&target, &op, wire_args)
                    .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
                Ok(vec![from_wire(&out)])
            }),
        );
    }

    Script::Table(std::rc::Rc::new(std::cell::RefCell::new(t)))
}

/// Installs the orb-access globals into an interpreter:
/// `resolve(uri)` → proxy table, and `resolve_name(endpoint, name)`.
pub fn install(interp: &mut Interpreter, orb: Orb, repo: InterfaceRepository) {
    {
        let orb = orb.clone();
        let repo = repo.clone();
        interp.register("resolve", move |_, args| {
            let uri = args
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| RuaError::runtime("resolve: reference string expected", 0))?;
            let data = ObjRefData::from_uri(uri)
                .ok_or_else(|| RuaError::runtime(format!("bad reference `{uri}`"), 0))?;
            Ok(vec![proxy_table(&orb, &repo, &data)])
        });
    }
    interp.register("resolve_name", move |_, args| {
        let endpoint = args
            .first()
            .and_then(|v| v.as_str())
            .ok_or_else(|| RuaError::runtime("resolve_name: endpoint expected", 0))?;
        let name = args
            .get(1)
            .and_then(|v| v.as_str())
            .ok_or_else(|| RuaError::runtime("resolve_name: name expected", 0))?;
        let data = orb
            .resolve_name(endpoint, name)
            .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
        Ok(vec![proxy_table(&orb, &repo, &data)])
    });
}

/// Installs the LuaTrading analogue: script-side access to a trading
/// service.
///
/// * `trader_query(type [, constraint [, preference]])` → array of
///   offer tables `{id, type, target (a `__ref` table), props}`;
/// * `trader_export(type, target, props)` → offer-id string (values in
///   `props` that are `__ref` tables become *dynamic* properties);
/// * `trader_withdraw(id)` → boolean.
///
/// The paper: "To facilitate the use of the Trading service in our
/// infrastructure, we developed a Lua library that provides a
/// simplified interface to it, called LuaTrading."
pub fn install_trading(interp: &mut Interpreter, trader: Arc<dyn TradingService>) {
    {
        let trader = trader.clone();
        interp.register("trader_query", move |_, args| {
            let service_type = args
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| RuaError::runtime("trader_query: service type expected", 0))?;
            let constraint = args.get(1).and_then(|v| v.as_str()).unwrap_or("");
            let preference = args.get(2).and_then(|v| v.as_str()).unwrap_or("");
            let q = Query::new(service_type)
                .constraint(constraint)
                .preference(preference);
            let matches = trader
                .query(&q)
                .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
            let mut out = Table::new();
            for m in matches {
                let mut offer = Table::new();
                offer.set_str("id", Script::str(m.id.as_str()));
                offer.set_str("type", Script::str(&m.service_type));
                offer.set_str(
                    "target",
                    from_wire(&adapta_idl::Value::ObjRef(m.target.clone())),
                );
                offer.set_str(
                    "props",
                    from_wire(&adapta_idl::Value::Map(m.properties.clone())),
                );
                out.push(Script::Table(std::rc::Rc::new(std::cell::RefCell::new(
                    offer,
                ))));
            }
            Ok(vec![Script::Table(std::rc::Rc::new(
                std::cell::RefCell::new(out),
            ))])
        });
    }
    {
        let trader = trader.clone();
        interp.register("trader_export", move |_, args| {
            let service_type = args
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| RuaError::runtime("trader_export: service type expected", 0))?
                .to_owned();
            let target = args
                .get(1)
                .map(to_wire)
                .and_then(|v| v.as_objref().cloned())
                .ok_or_else(|| {
                    RuaError::runtime("trader_export: target must be a reference table", 0)
                })?;
            let mut request = ExportRequest::new(service_type, target);
            if let Some(props) = args.get(2) {
                match to_wire(props) {
                    adapta_idl::Value::Map(fields) => {
                        for (name, value) in fields {
                            // Reference-valued properties export as
                            // dynamic properties (monitors).
                            match value.as_objref() {
                                Some(r) => request
                                    .properties
                                    .push((name, PropValue::Dynamic(r.clone()))),
                                None => request.properties.push((name, PropValue::Static(value))),
                            }
                        }
                    }
                    adapta_idl::Value::Seq(items) if items.is_empty() => {}
                    _ => {
                        return Err(RuaError::runtime(
                            "trader_export: props must be a table of name = value",
                            0,
                        ))
                    }
                }
            }
            let id = trader
                .export(request)
                .map_err(|e| RuaError::runtime(e.to_string(), 0))?;
            Ok(vec![Script::str(id.as_str())])
        });
    }
    interp.register("trader_withdraw", move |_, args| {
        let id = args
            .first()
            .and_then(|v| v.as_str())
            .ok_or_else(|| RuaError::runtime("trader_withdraw: offer id expected", 0))?;
        let ok = trader.withdraw(&OfferId::from_string(id)).is_ok();
        Ok(vec![Script::Bool(ok)])
    });
}

/// The monitor interfaces of the paper's Figures 1 and 2, used to seed
/// interface repositories so scripts get named proxy methods.
pub const MONITOR_IDL: &str = r#"
    interface BasicMonitor {
        any getValue();
        void setValue(in any v);
    };
    interface AspectsManager {
        any getAspectValue(in string name);
        AspectList definedAspects();
        void defineAspect(in string name, in LuaCode updatef);
    };
    interface EventObserver {
        oneway void notifyEvent(in string evid);
    };
    interface EventMonitor : BasicMonitor {
        any getvalue();
        void setvalue(in any v);
        any getAspectValue(in string name);
        AspectList definedAspects();
        void defineAspect(in string name, in LuaCode updatef);
        long attachEventObserver(in EventObserver obj, in string evid, in LuaCode notifyf);
        boolean detachEventObserver(in long id);
        any evalDP(in string name);
    };
"#;

/// Registers [`MONITOR_IDL`] into a repository (idempotent).
pub fn register_monitor_interfaces(repo: &InterfaceRepository) {
    if repo.contains("EventMonitor") {
        return;
    }
    let defs = adapta_idl::parse_idl(MONITOR_IDL).expect("monitor IDL parses");
    repo.register_all(defs).expect("fresh repository");
}

/// The interface of every orb's `_telemetry` object, so Rua scripts can
/// dump a node's metrics snapshot or retained traces through a plain
/// proxy table.
pub const TELEMETRY_IDL: &str = r#"
    interface Telemetry {
        string snapshot();
        string snapshotText();
        string traces();
        string tracesText();
        long counter(in string name);
        long gauge(in string name);
    };
"#;

/// Registers [`TELEMETRY_IDL`] into a repository (idempotent).
pub fn register_telemetry_interface(repo: &InterfaceRepository) {
    if repo.contains("Telemetry") {
        return;
    }
    let defs = adapta_idl::parse_idl(TELEMETRY_IDL).expect("telemetry IDL parses");
    repo.register_all(defs).expect("fresh repository");
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_idl::Value as Wire;
    use adapta_orb::ServantFn;

    fn echo_setup() -> (Orb, ObjRefData, InterfaceRepository) {
        let server = Orb::new("senv-server");
        let objref = server
            .activate(
                "echo",
                ServantFn::new("Echo", |op, args| match op {
                    "hello" => Ok(Wire::from(format!(
                        "hello, {}",
                        args.first().and_then(Wire::as_str).unwrap_or("?")
                    ))),
                    "sum" => Ok(Wire::Long(args.iter().filter_map(Wire::as_long).sum())),
                    other => Err(adapta_orb::OrbError::unknown_operation("Echo", other)),
                }),
            )
            .unwrap();
        let repo = InterfaceRepository::new();
        repo.register(
            adapta_idl::InterfaceDef::new("Echo")
                .with_operation(adapta_idl::OperationDef::new(
                    "hello",
                    vec![adapta_idl::ParamDef::new("who", adapta_idl::TypeCode::Str)],
                    adapta_idl::TypeCode::Str,
                ))
                .with_operation(adapta_idl::OperationDef::new(
                    "sum",
                    vec![],
                    adapta_idl::TypeCode::Long,
                )),
        )
        .unwrap();
        (server, objref, repo)
    }

    #[test]
    fn script_calls_remote_methods_by_name() {
        let (_server, objref, repo) = echo_setup();
        let client = Orb::new("senv-client");
        let mut interp = Interpreter::new();
        install(&mut interp, client, repo);
        interp.set_global("uri", adapta_script::Value::str(objref.to_uri()));
        let out = interp
            .eval("local s = resolve(uri)\nreturn s:hello('world')")
            .unwrap();
        assert_eq!(out, vec![adapta_script::Value::str("hello, world")]);
    }

    #[test]
    fn generic_invoke_works_without_repo_entry() {
        let (_server, objref, _repo) = echo_setup();
        let client = Orb::new("senv-client2");
        let mut interp = Interpreter::new();
        install(&mut interp, client, InterfaceRepository::new());
        interp.set_global("uri", adapta_script::Value::str(objref.to_uri()));
        let out = interp
            .eval("local s = resolve(uri)\nreturn s:_invoke('sum', {1, 2, 3})")
            .unwrap();
        assert_eq!(out, vec![adapta_script::Value::Num(6.0)]);
    }

    #[test]
    fn proxy_tables_travel_back_as_references() {
        let (_server, objref, repo) = echo_setup();
        let client = Orb::new("senv-client3");
        let mut interp = Interpreter::new();
        install(&mut interp, client, repo);
        interp.set_global("uri", adapta_script::Value::str(objref.to_uri()));
        let out = interp.eval("return resolve(uri)").unwrap();
        assert_eq!(to_wire(&out[0]), Wire::ObjRef(objref));
    }

    #[test]
    fn resolve_rejects_garbage() {
        let client = Orb::new("senv-client4");
        let mut interp = Interpreter::new();
        install(&mut interp, client, InterfaceRepository::new());
        assert!(interp.eval("return resolve('nonsense')").is_err());
    }

    #[test]
    fn resolve_name_round_trip() {
        let (server, objref, repo) = echo_setup();
        server.bind_name("the-echo", &objref).unwrap();
        let client = Orb::new("senv-client5");
        let mut interp = Interpreter::new();
        install(&mut interp, client, repo);
        interp.set_global("ep", adapta_script::Value::str(server.endpoint()));
        let out = interp
            .eval("local s = resolve_name(ep, 'the-echo')\nreturn s:hello('naming')")
            .unwrap();
        assert_eq!(out, vec![adapta_script::Value::str("hello, naming")]);
    }

    #[test]
    fn monitor_idl_registers() {
        let repo = InterfaceRepository::new();
        register_monitor_interfaces(&repo);
        assert!(repo.lookup_operation("EventMonitor", "getValue").is_ok());
        assert!(repo
            .lookup_operation("EventMonitor", "attachEventObserver")
            .is_ok());
        // Idempotent.
        register_monitor_interfaces(&repo);
    }

    #[test]
    fn rua_scripts_dump_the_telemetry_snapshot() {
        let server = Orb::new("senv-tele");
        adapta_telemetry::registry()
            .counter("test.senv.rua_dump")
            .add(3);
        let repo = InterfaceRepository::new();
        register_telemetry_interface(&repo);
        register_telemetry_interface(&repo); // idempotent
        let mut interp = Interpreter::new();
        install(&mut interp, server.clone(), repo);
        let uri = ObjRefData::new(server.endpoint(), "_telemetry", "Telemetry").to_uri();
        interp.set_global("uri", adapta_script::Value::str(uri));
        let out = interp
            .eval(
                "local t = resolve(uri)\n\
                 return t:snapshot(), t:counter('test.senv.rua_dump')",
            )
            .unwrap();
        let json = out[0].as_str().unwrap().to_owned();
        assert!(json.contains("\"test.senv.rua_dump\":3"), "{json}");
        assert_eq!(out[1], adapta_script::Value::Num(3.0));
    }
}

#[cfg(test)]
mod trading_tests {
    use super::*;
    use adapta_idl::{TypeCode, Value as Wire};
    use adapta_trading::{PropDef, PropMode, ServiceTypeDef, Trader};

    fn trading_interp() -> (Orb, Trader, Interpreter) {
        let orb = Orb::new("luatrading");
        let trader = Trader::new(&orb);
        trader
            .add_type(
                ServiceTypeDef::new("Svc")
                    .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Normal))
                    .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly)),
            )
            .unwrap();
        let mut interp = Interpreter::new();
        install(&mut interp, orb.clone(), InterfaceRepository::new());
        install_trading(&mut interp, Arc::new(trader.clone()));
        (orb, trader, interp)
    }

    #[test]
    fn export_and_query_from_script() {
        let (orb, _trader, mut interp) = trading_interp();
        let target = ObjRefData::new(orb.endpoint(), "svc-1", "Svc");
        interp.set_global("uri", adapta_script::Value::str(target.to_uri()));
        let out = interp
            .eval(
                r#"
                local target = resolve(uri)
                local id = trader_export("Svc", target, {LoadAvg = 7.5, Host = "n1"})
                local offers = trader_query("Svc", "LoadAvg < 50", "min LoadAvg")
                return id, #offers, offers[1].props.LoadAvg, offers[1].props.Host
            "#,
            )
            .unwrap();
        assert!(out[0].as_str().unwrap().starts_with("offer-"));
        assert_eq!(out[1], adapta_script::Value::Num(1.0));
        assert_eq!(out[2], adapta_script::Value::Num(7.5));
        assert_eq!(out[3], adapta_script::Value::str("n1"));
    }

    #[test]
    fn withdraw_from_script() {
        let (orb, trader, mut interp) = trading_interp();
        let target = ObjRefData::new(orb.endpoint(), "svc-1", "Svc");
        interp.set_global("uri", adapta_script::Value::str(target.to_uri()));
        let out = interp
            .eval(
                r#"
                local id = trader_export("Svc", resolve(uri), {LoadAvg = 1})
                local gone = trader_withdraw(id)
                local again = trader_withdraw(id)
                return gone, again
            "#,
            )
            .unwrap();
        assert_eq!(out[0], adapta_script::Value::Bool(true));
        assert_eq!(out[1], adapta_script::Value::Bool(false));
        assert!(trader.list_offers().is_empty());
    }

    #[test]
    fn reference_valued_props_become_dynamic() {
        let (orb, trader, mut interp) = trading_interp();
        // A live evaluator object for LoadAvg.
        let dp = orb
            .activate(
                "dp",
                adapta_orb::ServantFn::new("DynamicPropEval", |_, _| Ok(Wire::Double(2.5))),
            )
            .unwrap();
        let target = ObjRefData::new(orb.endpoint(), "svc-1", "Svc");
        interp.set_global("uri", adapta_script::Value::str(target.to_uri()));
        interp.set_global("dpuri", adapta_script::Value::str(dp.to_uri()));
        interp
            .eval(r#"trader_export("Svc", resolve(uri), {LoadAvg = resolve(dpuri)})"#)
            .unwrap();
        let offers = trader.list_offers();
        assert!(matches!(
            offers[0].properties[0].1,
            adapta_trading::PropValue::Dynamic(_)
        ));
        // And it evaluates at query time.
        let out = interp
            .eval(r#"return trader_query("Svc", "LoadAvg == 2.5")[1].props.LoadAvg"#)
            .unwrap();
        assert_eq!(out[0], adapta_script::Value::Num(2.5));
    }

    #[test]
    fn script_errors_for_bad_arguments() {
        let (_orb, _trader, mut interp) = trading_interp();
        assert!(interp.eval("trader_query(42)").is_err());
        assert!(interp.eval("trader_export('Svc', 'not-a-ref')").is_err());
        assert!(interp.eval("return trader_query('Unknown')").is_err());
    }
}
