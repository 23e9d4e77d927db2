//! The script actor: one interpreter, one thread, many callers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use adapta_idl::Value as Wire;
use adapta_script::{Interpreter, RuaError, Value as Script};
use crossbeam::channel::{bounded, unbounded, Sender};

use crate::convert::to_wire;

/// Errors surfaced by [`ScriptActor`] calls.
#[derive(Debug, Clone, PartialEq)]
pub enum ActorError {
    /// The script raised an error (or failed to parse).
    Script(String),
    /// The script hit a sandbox resource limit (step budget, memory
    /// cap, call depth or wall-clock deadline). Kept distinct from
    /// [`Script`](Self::Script) so hosts can treat it as evidence of
    /// hostile or runaway code rather than an ordinary bug.
    Resource(String),
    /// The host refused the operation before running any script
    /// (admission control: install quotas and the like).
    Rejected(String),
    /// The actor thread is gone.
    Disconnected,
}

impl ActorError {
    /// True when the script was stopped by the sandbox.
    pub fn is_resource_limit(&self) -> bool {
        matches!(self, ActorError::Resource(_))
    }
}

impl fmt::Display for ActorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActorError::Script(m) | ActorError::Resource(m) | ActorError::Rejected(m) => {
                write!(f, "{m}")
            }
            ActorError::Disconnected => write!(f, "script actor is gone"),
        }
    }
}

impl std::error::Error for ActorError {}

impl From<RuaError> for ActorError {
    fn from(e: RuaError) -> Self {
        if e.is_resource_limit() {
            ActorError::Resource(e.to_string())
        } else {
            ActorError::Script(e.to_string())
        }
    }
}

type Job = Box<dyn FnOnce(&mut Interpreter) + Send>;

/// Ids of stored values whose last handle dropped, waiting for the
/// actor thread to drop the values themselves.
type Released = Mutex<Vec<u64>>;

thread_local! {
    /// The actor running on this thread, if any, with the values
    /// stored in it. Only Rust code reaches this map: scripts cannot
    /// name it.
    static HOME: RefCell<Option<Home>> = const { RefCell::new(None) };
}

struct Home {
    actor: Weak<ActorInner>,
    released: Arc<Released>,
    values: HashMap<u64, Script>,
}

impl Home {
    /// Drops every released value (on the actor thread).
    fn drop_released(&mut self) -> Vec<Script> {
        let ids = std::mem::take(&mut *self.released.lock().unwrap_or_else(|e| e.into_inner()));
        ids.iter().filter_map(|id| self.values.remove(id)).collect()
    }
}

/// A script value stored in an actor, owned by this handle and its
/// clones.
///
/// The value itself (an `Rc` table or closure) never leaves the actor
/// thread. When the last clone drops, on any thread, the value's
/// release is queued and the actor drops it at the start of its next
/// job, so releasing costs no job of its own.
///
/// Nothing stored in an actor may hold a strong handle to that actor
/// or to its owner: the actor thread runs until the last
/// [`ScriptActor`] clone drops, and a stored value that kept one alive
/// would keep the thread alive forever.
#[derive(Clone)]
pub struct Stored(Arc<StoredId>);

struct StoredId {
    id: u64,
    released: Arc<Released>,
}

impl Drop for StoredId {
    fn drop(&mut self) {
        self.released
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.id);
    }
}

impl fmt::Debug for Stored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stored(#{})", self.0.id)
    }
}

impl Stored {
    /// Stores `value` in the actor running the current job (a
    /// [`with`](ScriptActor::with) closure or a native it calls).
    ///
    /// # Panics
    ///
    /// Off an actor thread.
    pub fn new(value: Script) -> Stored {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        HOME.with_borrow_mut(|home| {
            let home = home.as_mut().expect("Stored::new runs on a script actor");
            home.values.insert(id, value);
            Stored(Arc::new(StoredId {
                id,
                released: home.released.clone(),
            }))
        })
    }

    /// The stored value; `nil` off the thread of the actor storing it.
    pub fn get(&self) -> Script {
        HOME.with_borrow(|home| {
            home.as_ref()
                .and_then(|home| home.values.get(&self.0.id).cloned())
                .unwrap_or(Script::Nil)
        })
    }
}

/// A dedicated thread owning one [`Interpreter`], accepting work over a
/// channel.
///
/// This is the mechanism that lets the single-threaded scripting state
/// serve multi-threaded middleware: servants, monitors and smart proxies
/// hold a cheap `ScriptActor` clone and submit closures; remotely
/// shipped code is compiled once ([`store_function`]) and invoked many
/// times ([`call_in`]) with script arguments.
///
/// The thread exits once the last clone drops and its queued jobs ran.
///
/// ```
/// use adapta_bridge::ScriptActor;
/// use adapta_idl::Value;
/// use adapta_script::Value as Script;
///
/// let actor = ScriptActor::spawn("demo", |_| {});
/// let f = actor.store_function("function(a, b) return a + b end").unwrap();
/// let out = actor
///     .with(move |interp| {
///         ScriptActor::call_in(interp, &f, vec![Script::Num(20.0), Script::Num(22.0)])
///     })
///     .unwrap()
///     .unwrap();
/// assert_eq!(out, vec![Value::from(42i64)]);
/// ```
///
/// [`store_function`]: ScriptActor::store_function
/// [`call_in`]: ScriptActor::call_in
#[derive(Clone)]
pub struct ScriptActor {
    inner: Arc<ActorInner>,
}

struct ActorInner {
    tx: Sender<Job>,
    name: Box<str>,
    /// Jobs submitted so far.
    jobs: AtomicU64,
}

impl fmt::Debug for ScriptActor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScriptActor({})", self.inner.name)
    }
}

impl ScriptActor {
    /// Spawns the actor thread. `setup` runs first on the fresh
    /// interpreter (install natives, hooks, globals).
    pub fn spawn(name: &str, setup: impl FnOnce(&mut Interpreter) + Send + 'static) -> ScriptActor {
        let (tx, rx) = unbounded::<Job>();
        let inner = Arc::new(ActorInner {
            tx,
            name: name.into(),
            jobs: AtomicU64::new(0),
        });
        let actor = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name(format!("rua-{name}"))
            .spawn(move || {
                HOME.set(Some(Home {
                    actor,
                    released: Arc::default(),
                    values: HashMap::new(),
                }));
                let mut interp = Interpreter::new();
                setup(&mut interp);
                while let Ok(job) = rx.recv() {
                    // Dropped after the borrow ends: dropping a value
                    // runs the destructors of what its natives hold.
                    drop(HOME.with_borrow_mut(|h| h.as_mut().map(Home::drop_released)));
                    job(&mut interp);
                }
                drop(HOME.take());
            })
            .expect("spawn script actor");
        ScriptActor { inner }
    }

    /// The actor running the current job, from inside a
    /// [`with`](Self::with) closure or a native it calls: natives
    /// stored in an actor reach it this way instead of holding it.
    pub fn current() -> Option<ScriptActor> {
        HOME.with_borrow(|home| home.as_ref()?.actor.upgrade())
            .map(|inner| ScriptActor { inner })
    }

    /// Whether `other` is a handle to the same actor thread.
    pub fn same_actor(&self, other: &ScriptActor) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Jobs submitted to the actor so far: one per [`with`](Self::with)
    /// and per helper built on it. Each is one cross-thread round trip.
    pub fn jobs(&self) -> u64 {
        self.inner.jobs.load(Ordering::Relaxed)
    }

    /// Values stored in the actor whose handles are still alive.
    ///
    /// # Errors
    ///
    /// [`ActorError::Disconnected`] if the actor thread has exited.
    pub fn stored_count(&self) -> Result<usize, ActorError> {
        self.with(|_| HOME.with_borrow(|home| home.as_ref().map_or(0, |h| h.values.len())))
    }

    /// Runs `f` on the actor's interpreter and returns its result.
    ///
    /// This is the primitive everything else builds on. Blocks until the
    /// actor executes the closure.
    ///
    /// # Errors
    ///
    /// [`ActorError::Disconnected`] if the actor thread has exited.
    pub fn with<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Interpreter) -> R + Send + 'static,
    ) -> Result<R, ActorError> {
        let (reply_tx, reply_rx) = bounded::<R>(1);
        let job: Job = Box::new(move |interp| {
            let _ = reply_tx.send(f(interp));
        });
        self.inner.jobs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .tx
            .send(job)
            .map_err(|_| ActorError::Disconnected)?;
        reply_rx.recv().map_err(|_| ActorError::Disconnected)
    }

    /// Evaluates a chunk; returns its `return` values as wire values.
    ///
    /// # Errors
    ///
    /// Script errors or actor disconnection.
    pub fn eval(&self, source: &str) -> Result<Vec<Wire>, ActorError> {
        let source = source.to_owned();
        self.with(move |interp| {
            interp
                .eval(&source)
                .map(|values| values.iter().map(to_wire).collect::<Vec<_>>())
                .map_err(ActorError::from)
        })?
    }

    /// Compiles source that must yield a function (either a
    /// `function(...) … end` literal or a chunk returning one) and
    /// stores it in the actor.
    ///
    /// # Errors
    ///
    /// Script errors or actor disconnection.
    pub fn store_function(&self, source: &str) -> Result<Stored, ActorError> {
        let source = source.to_owned();
        self.with(move |interp| Ok(Stored::new(interp.compile_function(&source)?)))?
    }

    /// Calls a stored function with script arguments from inside a
    /// [`with`](Self::with) closure, so one job can run many calls.
    /// Each call gets its own sandbox budget and deadline.
    ///
    /// # Errors
    ///
    /// Script errors.
    pub fn call_in(
        interp: &mut Interpreter,
        f: &Stored,
        args: Vec<Script>,
    ) -> Result<Vec<Wire>, ActorError> {
        let out = interp.call(&f.get(), args)?;
        Ok(out.iter().map(to_wire).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_round_trips_values() {
        let actor = ScriptActor::spawn("t1", |_| {});
        let out = actor.eval("return 1 + 1, 'two', {3, 4}").unwrap();
        assert_eq!(out[0], Wire::Long(2));
        assert_eq!(out[1], Wire::Str("two".into()));
        assert_eq!(out[2], Wire::Seq(vec![Wire::Long(3), Wire::Long(4)]));
    }

    #[test]
    fn setup_installs_natives() {
        let actor = ScriptActor::spawn("t2", |interp| {
            interp.register("answer", |_, _| Ok(vec![Script::Num(42.0)]));
        });
        assert_eq!(actor.eval("return answer()").unwrap(), vec![Wire::Long(42)]);
    }

    /// Calls a stored function with no arguments.
    fn call(actor: &ScriptActor, f: &Stored) -> Result<Vec<Wire>, ActorError> {
        let f = f.clone();
        actor.with(move |interp| ScriptActor::call_in(interp, &f, vec![]))?
    }

    #[test]
    fn stored_functions_keep_state() {
        let actor = ScriptActor::spawn("t3", |_| {});
        let f = actor
            .store_function("local n = 0\nreturn function() n = n + 1 return n end")
            .unwrap();
        assert_eq!(call(&actor, &f).unwrap(), vec![Wire::Long(1)]);
        assert_eq!(call(&actor, &f).unwrap(), vec![Wire::Long(2)]);
    }

    #[test]
    fn a_value_lives_until_its_last_handle_drops() {
        let actor = ScriptActor::spawn("t4", |_| {});
        let f = actor.store_function("function() return 1 end").unwrap();
        let g = f.clone();
        assert_eq!(actor.stored_count().unwrap(), 1);
        drop(f);
        assert_eq!(call(&actor, &g).unwrap(), vec![Wire::Long(1)]);
        assert_eq!(actor.stored_count().unwrap(), 1);
        drop(g);
        assert_eq!(actor.stored_count().unwrap(), 0);
    }

    #[test]
    fn scripts_cannot_reach_stored_values() {
        let actor = ScriptActor::spawn("t4b", |_| {});
        let f = actor
            .store_function("function() return 'kept' end")
            .unwrap();
        // Wipe every global.
        actor
            .eval(
                "local g, keys = _G, {}
                 for k in pairs(g) do keys[#keys + 1] = k end
                 for i = 1, #keys do g[keys[i]] = nil end",
            )
            .unwrap();
        assert_eq!(call(&actor, &f).unwrap(), vec![Wire::Str("kept".into())]);
        // Another actor's handle reads as nil.
        let other = ScriptActor::spawn("t4c", |_| {});
        assert!(call(&other, &f).is_err());
    }

    #[test]
    fn the_thread_exits_when_the_last_handle_drops() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let actor = ScriptActor::spawn("t4d", |_| {});
        // A stored native holding `tx`: dropped with the actor's values.
        let stored = actor
            .with(move |_| {
                let native = Interpreter::native("hold", move |_, _| {
                    let _ = &tx;
                    Ok(vec![])
                });
                let actor = ScriptActor::current().expect("inside a job");
                (Stored::new(native), actor.jobs())
            })
            .unwrap();
        assert_eq!(stored.1, 1, "current() is the running actor");
        drop(actor);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(2)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        );
        assert!(ScriptActor::current().is_none(), "not on an actor thread");
    }

    #[test]
    fn script_errors_are_reported_not_fatal() {
        let actor = ScriptActor::spawn("t5", |_| {});
        let err = actor.eval("error('boom')").unwrap_err();
        assert!(matches!(err, ActorError::Script(m) if m.contains("boom")));
        // The actor survives.
        assert_eq!(actor.eval("return 1").unwrap(), vec![Wire::Long(1)]);
    }

    #[test]
    fn parse_errors_in_store_function() {
        let actor = ScriptActor::spawn("t6", |_| {});
        assert!(actor.store_function("function(").is_err());
        assert!(actor.store_function("return 42").is_err());
    }

    #[test]
    fn concurrent_callers_are_serialised() {
        let actor = ScriptActor::spawn("t7", |_| {});
        actor.eval("counter = 0").unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = actor.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    a.eval("counter = counter + 1").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(actor.eval("return counter").unwrap(), vec![Wire::Long(400)]);
    }

    #[test]
    fn globals_persist_across_eval_calls() {
        let actor = ScriptActor::spawn("t8", |_| {});
        actor.eval("state = {count = 1}").unwrap();
        assert_eq!(
            actor.eval("return state.count").unwrap(),
            vec![Wire::Long(1)]
        );
    }

    #[test]
    fn call_in_takes_script_arguments() {
        let actor = ScriptActor::spawn("t9", |_| {});
        let f = actor
            .store_function("function(t) return t.x + t.y end")
            .unwrap();
        let out = actor
            .with(move |interp| {
                let mut t = adapta_script::Table::new();
                t.set_str("x", Script::Num(1.0));
                t.set_str("y", Script::Num(2.0));
                let t = Script::Table(std::rc::Rc::new(std::cell::RefCell::new(t)));
                ScriptActor::call_in(interp, &f, vec![t])
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, vec![Wire::Long(3)]);
    }
}
