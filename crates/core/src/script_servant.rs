//! Implementing servants *in* the scripting language — the LuaCorba
//! server side (DSI).
//!
//! A [`ScriptServant`] routes every invocation of an object key to a
//! method of a script table living in an [`Isolate`] — the paper's
//! *dynamic implementation routine*. Because the implementation is
//! interpreted, it can be modified and extended at run time without
//! recompiling or even interrupting the service (Section II).

use adapta_bridge::{from_wire, to_wire, ActorError, Isolate, Stored};
use adapta_idl::Value;
use adapta_orb::{OrbError, OrbResult, Servant};

/// A servant whose implementation is a script object.
///
/// ```
/// use adapta_bridge::Isolate;
/// use adapta_core::ScriptServant;
/// use adapta_orb::Orb;
/// use adapta_idl::Value;
///
/// let isolate = Isolate::new("srv", |_| {});
/// let servant = ScriptServant::from_source(&isolate, "Hello", r#"
///     return {
///         hello = function(self, who) return "hello, " .. who end
///     }
/// "#).unwrap();
/// let orb = Orb::new("script-servant-doc");
/// let objref = orb.activate("h", servant).unwrap();
/// let out = orb.proxy(&objref).invoke("hello", vec![Value::from("world")]).unwrap();
/// assert_eq!(out, Value::from("hello, world"));
/// ```
#[derive(Debug, Clone)]
pub struct ScriptServant {
    isolate: Isolate,
    interface: String,
    object: Stored,
}

impl ScriptServant {
    /// Creates a servant from a chunk evaluating to a table of methods.
    ///
    /// # Errors
    ///
    /// Script errors, or the chunk not returning a table.
    pub fn from_source(
        isolate: &Isolate,
        interface: impl Into<String>,
        source: &str,
    ) -> Result<ScriptServant, ActorError> {
        let object = isolate.with(|interp| -> Result<Stored, ActorError> {
            let values = interp.eval(source)?;
            match values.into_iter().next() {
                Some(v @ adapta_script::Value::Table(_)) => Ok(Stored::new(v)),
                other => Err(ActorError::Script(format!(
                    "servant source must return a table, got {}",
                    other.map(|v| v.type_name()).unwrap_or("nothing")
                ))),
            }
        })??;
        Ok(ScriptServant {
            isolate: isolate.clone(),
            interface: interface.into(),
            object,
        })
    }

    /// Creates a servant from a *global* table already defined in the
    /// isolate (lets configuration scripts build the object first).
    ///
    /// # Errors
    ///
    /// Script errors, or the global not being a table.
    pub fn from_global(
        isolate: &Isolate,
        interface: impl Into<String>,
        global: &str,
    ) -> Result<ScriptServant, ActorError> {
        let object = isolate.with(|interp| -> Result<Stored, ActorError> {
            match interp.global(global) {
                v @ adapta_script::Value::Table(_) => Ok(Stored::new(v)),
                other => Err(ActorError::Script(format!(
                    "global `{global}` is {} — expected the servant table",
                    other.type_name()
                ))),
            }
        })??;
        Ok(ScriptServant {
            isolate: isolate.clone(),
            interface: interface.into(),
            object,
        })
    }

    /// Replaces or adds one method on the live servant — dynamic
    /// extension without interrupting service.
    ///
    /// # Errors
    ///
    /// Script errors.
    pub fn update_method(&self, name: &str, code: &str) -> Result<(), ActorError> {
        self.isolate.with(|interp| -> Result<(), ActorError> {
            let f = interp.compile_function(code)?;
            if let Some(t) = self.object.get().as_table() {
                t.borrow_mut().set_str(name, f);
            }
            Ok(())
        })?
    }
}

impl Servant for ScriptServant {
    fn interface(&self) -> &str {
        &self.interface
    }

    fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        // `Ok(None)`: the table has no such method.
        let out = self
            .isolate
            .with(|interp| -> Result<Option<Value>, ActorError> {
                let table = self.object.get();
                let method = table
                    .as_table()
                    .map(|t| t.borrow().get_str(op))
                    .unwrap_or(adapta_script::Value::Nil);
                if matches!(method, adapta_script::Value::Nil) {
                    return Ok(None);
                }
                let mut call_args = vec![table];
                call_args.extend(args.iter().map(from_wire));
                let out = interp.call(&method, call_args)?;
                Ok(Some(out.first().map(to_wire).unwrap_or(Value::Null)))
            })
            .map_err(|e| OrbError::exception(e.to_string()))?;
        match out {
            Ok(Some(value)) => Ok(value),
            Ok(None) => Err(OrbError::unknown_operation(&self.interface, op)),
            Err(e) => Err(OrbError::exception(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_orb::Orb;

    fn servant() -> (Orb, ScriptServant) {
        let actor = Isolate::new("ss-test", |_| {});
        let servant = ScriptServant::from_source(
            &actor,
            "Counter",
            r#"
            local count = 0
            return {
                incr = function(self, by)
                    count = count + (by or 1)
                    return count
                end,
                get = function(self) return count end,
                boom = function(self) error("deliberate") end,
                confusing = function(self) error("no method here") end,
            }
        "#,
        )
        .unwrap();
        (Orb::new("ss-test"), servant)
    }

    #[test]
    fn script_servant_keeps_state_across_calls() {
        let (orb, servant) = servant();
        let objref = orb.activate("c", servant).unwrap();
        let proxy = orb.proxy(&objref);
        assert_eq!(
            proxy.invoke("incr", vec![Value::Long(5)]).unwrap(),
            Value::Long(5)
        );
        assert_eq!(
            proxy.invoke("incr", vec![Value::Long(2)]).unwrap(),
            Value::Long(7)
        );
        assert_eq!(proxy.invoke("get", vec![]).unwrap(), Value::Long(7));
    }

    #[test]
    fn unknown_method_maps_to_unknown_operation() {
        let (orb, servant) = servant();
        let objref = orb.activate("c", servant).unwrap();
        let err = orb.proxy(&objref).invoke("missing", vec![]).unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn only_an_absent_method_is_an_unknown_operation() {
        let (_orb, servant) = servant();
        let err = servant.invoke("missing", vec![]).unwrap_err();
        assert!(
            matches!(
                err,
                OrbError::Idl(adapta_idl::IdlError::UnknownOperation { .. })
            ),
            "{err:?}"
        );
        // A method whose error text mentions a missing method still ran.
        let err = servant.invoke("confusing", vec![]).unwrap_err();
        assert!(
            matches!(&err, OrbError::RemoteException { message } if message.contains("no method here")),
            "{err:?}"
        );
    }

    #[test]
    fn script_exceptions_propagate() {
        let (orb, servant) = servant();
        let objref = orb.activate("c", servant).unwrap();
        let err = orb.proxy(&objref).invoke("boom", vec![]).unwrap_err();
        assert!(err.to_string().contains("deliberate"));
    }

    #[test]
    fn live_method_update_changes_behaviour() {
        let (orb, servant) = servant();
        let objref = orb.activate("c", servant.clone()).unwrap();
        let proxy = orb.proxy(&objref);
        assert_eq!(proxy.invoke("get", vec![]).unwrap(), Value::Long(0));
        servant
            .update_method("get", "function(self) return 999 end")
            .unwrap();
        assert_eq!(proxy.invoke("get", vec![]).unwrap(), Value::Long(999));
    }

    #[test]
    fn from_global_builds_on_configured_state() {
        let actor = Isolate::new("ss-global", |_| {});
        actor
            .eval("svc = { ping = function(self) return 'pong' end }")
            .unwrap();
        let servant = ScriptServant::from_global(&actor, "Ping", "svc").unwrap();
        let orb = Orb::new("ss-global");
        let objref = orb.activate("p", servant).unwrap();
        assert_eq!(
            orb.proxy(&objref).invoke("ping", vec![]).unwrap(),
            Value::from("pong")
        );
    }

    #[test]
    fn source_must_return_table() {
        let actor = Isolate::new("ss-bad", |_| {});
        assert!(ScriptServant::from_source(&actor, "X", "return 42").is_err());
        assert!(ScriptServant::from_global(&actor, "X", "nope").is_err());
    }
}
