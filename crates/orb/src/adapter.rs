//! Servants and the object adapter — the DSI/POA analogue.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adapta_idl::{IdlError, Value};
use parking_lot::RwLock;

use crate::error::OrbError;
use crate::OrbResult;

/// A dynamic servant: the analogue of CORBA's Dynamic Skeleton
/// Interface, where every operation funnels through one *dynamic
/// implementation routine*.
///
/// Implementations must be thread-safe: transports may dispatch
/// concurrently. Single-threaded implementations (like interpreter-backed
/// servants) are hosted behind a lock — see `adapta-bridge`'s
/// `Isolate`.
pub trait Servant: Send + Sync {
    /// The interface (repository id) this servant implements.
    fn interface(&self) -> &str;

    /// Handles one operation invocation.
    ///
    /// # Errors
    ///
    /// Implementations return [`OrbError`] for unknown operations, bad
    /// arguments, or application exceptions.
    fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value>;
}

/// The closure type behind [`ServantFn`].
type ServantClosure = Box<dyn Fn(&str, Vec<Value>) -> OrbResult<Value> + Send + Sync>;

/// A closure-backed [`Servant`], convenient for small objects:
///
/// ```
/// use adapta_orb::{ServantFn, Servant};
/// use adapta_idl::Value;
///
/// let echo = ServantFn::new("Echo", |op, args| {
///     Ok(Value::map([("op", Value::from(op)), ("n", Value::from(args.len() as i64))]))
/// });
/// assert_eq!(echo.interface(), "Echo");
/// ```
pub struct ServantFn {
    interface: String,
    f: ServantClosure,
}

impl ServantFn {
    /// Wraps a closure as a servant for `interface`.
    pub fn new(
        interface: impl Into<String>,
        f: impl Fn(&str, Vec<Value>) -> OrbResult<Value> + Send + Sync + 'static,
    ) -> Self {
        ServantFn {
            interface: interface.into(),
            f: Box::new(f),
        }
    }
}

impl Servant for ServantFn {
    fn interface(&self) -> &str {
        &self.interface
    }

    fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        (self.f)(op, args)
    }
}

impl std::fmt::Debug for ServantFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServantFn({})", self.interface)
    }
}

/// The object adapter: maps object keys to active servants.
#[derive(Default)]
pub struct ObjectAdapter {
    servants: RwLock<HashMap<String, Arc<dyn Servant>>>,
    counter: AtomicU64,
}

impl std::fmt::Debug for ObjectAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectAdapter")
            .field("active", &self.servants.read().len())
            .finish()
    }
}

impl ObjectAdapter {
    /// Creates an empty adapter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activates `servant` under `key`.
    ///
    /// # Errors
    ///
    /// Returns an error if the key is already in use.
    pub fn activate(&self, key: &str, servant: Arc<dyn Servant>) -> OrbResult<()> {
        let mut map = self.servants.write();
        if map.contains_key(key) {
            return Err(OrbError::Idl(IdlError::Duplicate(key.to_owned())));
        }
        map.insert(key.to_owned(), servant);
        Ok(())
    }

    /// Activates `servant` under a fresh generated key and returns it.
    pub fn activate_auto(&self, servant: Arc<dyn Servant>) -> String {
        loop {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            let key = format!("{}-{n}", servant.interface());
            if self.activate(&key, servant.clone()).is_ok() {
                return key;
            }
        }
    }

    /// Deactivates the servant under `key`; returns whether one existed.
    pub fn deactivate(&self, key: &str) -> bool {
        self.servants.write().remove(key).is_some()
    }

    /// The servant under `key`, if active.
    pub fn find(&self, key: &str) -> Option<Arc<dyn Servant>> {
        self.servants.read().get(key).cloned()
    }

    /// Number of active servants.
    pub fn active_count(&self) -> usize {
        self.servants.read().len()
    }

    /// Dispatches one invocation to the servant under `key` (the
    /// server-side upcall).
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::ObjectNotFound`] for unknown keys, plus any
    /// error the servant raises.
    pub fn dispatch(&self, key: &str, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        let servant = self.find(key).ok_or_else(|| OrbError::ObjectNotFound {
            key: key.to_owned(),
        })?;
        servant.invoke(op, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo() -> Arc<dyn Servant> {
        Arc::new(ServantFn::new("Echo", |op, args| {
            Ok(Value::Seq(
                std::iter::once(Value::from(op)).chain(args).collect(),
            ))
        }))
    }

    #[test]
    fn activate_and_dispatch() {
        let adapter = ObjectAdapter::new();
        adapter.activate("e1", echo()).unwrap();
        let out = adapter
            .dispatch("e1", "ping", vec![Value::Long(1)])
            .unwrap();
        assert_eq!(out, Value::Seq(vec![Value::from("ping"), Value::Long(1)]));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let adapter = ObjectAdapter::new();
        adapter.activate("k", echo()).unwrap();
        assert!(adapter.activate("k", echo()).is_err());
    }

    #[test]
    fn auto_keys_are_unique() {
        let adapter = ObjectAdapter::new();
        let k1 = adapter.activate_auto(echo());
        let k2 = adapter.activate_auto(echo());
        assert_ne!(k1, k2);
        assert!(k1.starts_with("Echo-"));
        assert_eq!(adapter.active_count(), 2);
    }

    #[test]
    fn deactivate_removes() {
        let adapter = ObjectAdapter::new();
        adapter.activate("k", echo()).unwrap();
        assert!(adapter.deactivate("k"));
        assert!(!adapter.deactivate("k"));
        assert!(matches!(
            adapter.dispatch("k", "op", vec![]),
            Err(OrbError::ObjectNotFound { .. })
        ));
    }
}
