//! A minimal naming service.
//!
//! Every [`Orb`](crate::Orb) node activates one `NamingContext` servant
//! under the well-known key `_naming`, giving processes a bootstrap
//! mechanism: resolve a few well-known names (the trader, a monitor
//! factory…) and everything else is discovered dynamically.

use std::collections::HashMap;

use adapta_idl::Value;
use parking_lot::Mutex;

use crate::adapter::Servant;
use crate::error::OrbError;
use crate::OrbResult;

/// The naming-context servant: `bind`, `resolve`, `unbind`, `list`.
#[derive(Debug, Default)]
pub struct NamingServant {
    names: Mutex<HashMap<String, adapta_idl::ObjRefData>>,
}

impl NamingServant {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Servant for NamingServant {
    fn interface(&self) -> &str {
        "NamingContext"
    }

    fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        match op {
            "bind" => {
                let name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| OrbError::exception("bind: name must be a string"))?;
                let target = args
                    .get(1)
                    .and_then(Value::as_objref)
                    .ok_or_else(|| OrbError::exception("bind: target must be an object"))?;
                self.names.lock().insert(name.to_owned(), target.clone());
                Ok(Value::Null)
            }
            "resolve" => {
                let name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| OrbError::exception("resolve: name must be a string"))?;
                match self.names.lock().get(name) {
                    Some(data) => Ok(Value::ObjRef(data.clone())),
                    None => Err(OrbError::NameNotFound {
                        name: name.to_owned(),
                    }),
                }
            }
            "unbind" => {
                let name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| OrbError::exception("unbind: name must be a string"))?;
                let existed = self.names.lock().remove(name).is_some();
                Ok(Value::Bool(existed))
            }
            "list" => {
                let mut names: Vec<String> = self.names.lock().keys().cloned().collect();
                names.sort();
                Ok(Value::Seq(names.into_iter().map(Value::from).collect()))
            }
            other => Err(OrbError::unknown_operation("NamingContext", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_idl::ObjRefData;

    fn objref() -> Value {
        Value::ObjRef(ObjRefData::new("inproc://x", "k", "T"))
    }

    #[test]
    fn bind_resolve_unbind_list() {
        let naming = NamingServant::new();
        naming
            .invoke("bind", vec![Value::from("svc"), objref()])
            .unwrap();
        let resolved = naming.invoke("resolve", vec![Value::from("svc")]).unwrap();
        assert_eq!(resolved, objref());
        let listed = naming.invoke("list", vec![]).unwrap();
        assert_eq!(listed, Value::Seq(vec![Value::from("svc")]));
        assert_eq!(
            naming.invoke("unbind", vec![Value::from("svc")]).unwrap(),
            Value::Bool(true)
        );
        assert!(naming.invoke("resolve", vec![Value::from("svc")]).is_err());
        assert_eq!(
            naming.invoke("unbind", vec![Value::from("svc")]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn argument_validation() {
        let naming = NamingServant::new();
        assert!(naming
            .invoke("bind", vec![Value::Long(1), objref()])
            .is_err());
        assert!(naming
            .invoke("bind", vec![Value::from("x"), Value::Long(1)])
            .is_err());
        assert!(naming.invoke("resolve", vec![]).is_err());
        assert!(naming.invoke("frobnicate", vec![]).is_err());
    }
}
