//! The script actor: one interpreter, one thread, many callers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use adapta_idl::Value as Wire;
use adapta_script::{Interpreter, RuaError, Value as Script};
use crossbeam::channel::{bounded, unbounded, Sender};

use crate::convert::{from_wire, to_wire};

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
    /// A stored function handle was not found (already dropped?).
    UnknownFunction(u64),
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
            ActorError::UnknownFunction(id) => write!(f, "unknown stored function #{id}"),
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

/// A handle to a function stored inside the actor's interpreter.
///
/// The function value itself (an `Rc` closure) never leaves the actor
/// thread; callers hold this opaque id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncHandle(u64);

/// A dedicated thread owning one [`Interpreter`], accepting work over a
/// channel.
///
/// This is the mechanism that lets the single-threaded scripting state
/// serve multi-threaded middleware: servants, monitors and smart proxies
/// hold a cheap `ScriptActor` clone and submit closures; remotely
/// shipped code is compiled once ([`store_function`]) and invoked many
/// times ([`call`]) with wire-value arguments.
///
/// ```
/// use adapta_bridge::ScriptActor;
/// use adapta_idl::Value;
///
/// let actor = ScriptActor::spawn("demo", |_| {});
/// let f = actor.store_function("function(a, b) return a + b end").unwrap();
/// let out = actor.call(f, vec![Value::from(20i64), Value::from(22i64)]).unwrap();
/// assert_eq!(out, vec![Value::from(42i64)]);
/// ```
///
/// [`store_function`]: ScriptActor::store_function
/// [`call`]: ScriptActor::call
#[derive(Clone)]
pub struct ScriptActor {
    tx: Sender<Job>,
    shared: Arc<Shared>,
}

/// What callers and the actor thread share besides the job channel.
struct Shared {
    name: Box<str>,
    /// Jobs submitted so far.
    jobs: AtomicU64,
    /// Stored values released by their owners, dropped at the start of
    /// the actor's next job.
    released: Mutex<Vec<FuncHandle>>,
}

impl Shared {
    /// Drops every released value from `__stored` (on the actor thread).
    fn drop_released(&self, interp: &mut Interpreter) {
        let handles = std::mem::take(&mut *self.released.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            unstore(interp, h.0);
        }
    }
}

impl fmt::Debug for ScriptActor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScriptActor({})", self.shared.name)
    }
}

impl ScriptActor {
    /// Spawns the actor thread. `setup` runs first on the fresh
    /// interpreter (install natives, hooks, globals).
    pub fn spawn(name: &str, setup: impl FnOnce(&mut Interpreter) + Send + 'static) -> ScriptActor {
        let (tx, rx) = unbounded::<Job>();
        let shared = Arc::new(Shared {
            name: name.into(),
            jobs: AtomicU64::new(0),
            released: Mutex::new(Vec::new()),
        });
        let thread_shared = shared.clone();
        let thread_name = format!("rua-{name}");
        std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let mut interp = Interpreter::new();
                setup(&mut interp);
                // Registry of stored functions, indexed by handle.
                interp.eval("__stored = {}").expect("init stored table");
                while let Ok(job) = rx.recv() {
                    thread_shared.drop_released(&mut interp);
                    job(&mut interp);
                }
            })
            .expect("spawn script actor");
        ScriptActor { tx, shared }
    }

    /// Whether `other` is a handle to the same actor thread.
    pub fn same_actor(&self, other: &ScriptActor) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Jobs submitted to the actor so far: one per [`with`](Self::with)
    /// and per helper built on it. Each is one cross-thread round trip.
    pub fn jobs(&self) -> u64 {
        self.shared.jobs.load(Ordering::Relaxed)
    }

    /// Releases stored values: they are dropped from the actor at the
    /// start of its next job, so releasing costs no job of its own.
    /// Callers must not use the handles afterwards.
    pub fn release(&self, handles: impl IntoIterator<Item = FuncHandle>) {
        self.shared
            .released
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(handles);
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
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.tx.send(job).map_err(|_| ActorError::Disconnected)?;
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
    /// stores it in the actor; returns a handle for later calls.
    ///
    /// # Errors
    ///
    /// Script errors or actor disconnection.
    pub fn store_function(&self, source: &str) -> Result<FuncHandle, ActorError> {
        let source = source.to_owned();
        self.with(move |interp| -> Result<FuncHandle, ActorError> {
            let f = interp.compile_function(&source)?;
            Ok(FuncHandle(store(interp, f)))
        })?
    }

    /// Stores an already-built script value from inside a
    /// [`with`](Self::with) closure (hosts use this to persist tables or
    /// natively-constructed functions across calls).
    pub fn stored_put(interp: &mut Interpreter, v: Script) -> FuncHandle {
        FuncHandle(store(interp, v))
    }

    /// Fetches a stored value from inside a [`with`](Self::with) closure.
    pub fn stored_get(interp: &mut Interpreter, f: FuncHandle) -> Option<Script> {
        fetch(interp, f.0)
    }

    /// Calls a stored function with script arguments from inside a
    /// [`with`](Self::with) closure, so one job can run many calls.
    /// Each call gets its own sandbox budget and deadline.
    ///
    /// # Errors
    ///
    /// Unknown handle or script errors.
    pub fn call_in(
        interp: &mut Interpreter,
        f: FuncHandle,
        args: Vec<Script>,
    ) -> Result<Vec<Wire>, ActorError> {
        let func = fetch(interp, f.0).ok_or(ActorError::UnknownFunction(f.0))?;
        let out = interp.call(&func, args)?;
        Ok(out.iter().map(to_wire).collect())
    }

    /// Calls a stored function with wire-value arguments.
    ///
    /// # Errors
    ///
    /// Unknown handle, script errors, or actor disconnection.
    pub fn call(&self, f: FuncHandle, args: Vec<Wire>) -> Result<Vec<Wire>, ActorError> {
        self.with(move |interp| Self::call_in(interp, f, args.iter().map(from_wire).collect()))?
    }

    /// Calls a stored function with *script* arguments produced by a
    /// builder closure (lets hosts pass facade tables with natives).
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn call_with(
        &self,
        f: FuncHandle,
        build_args: impl FnOnce(&mut Interpreter) -> Vec<Script> + Send + 'static,
    ) -> Result<Vec<Wire>, ActorError> {
        self.with(move |interp| {
            let args = build_args(interp);
            Self::call_in(interp, f, args)
        })?
    }

    /// Drops a stored function.
    ///
    /// # Errors
    ///
    /// Actor disconnection.
    pub fn drop_function(&self, f: FuncHandle) -> Result<(), ActorError> {
        self.with(move |interp| unstore(interp, f.0))
    }
}

fn store(interp: &mut Interpreter, v: Script) -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let stored = interp.global("__stored");
    let t = stored.as_table().expect("__stored registry table");
    t.borrow_mut()
        .set(Script::from(id as f64), v)
        .expect("numeric key");
    id
}

fn unstore(interp: &mut Interpreter, id: u64) {
    let stored = interp.global("__stored");
    if let Some(t) = stored.as_table() {
        let _ = t.borrow_mut().set(Script::from(id as f64), Script::Nil);
    }
}

fn fetch(interp: &mut Interpreter, id: u64) -> Option<Script> {
    let stored = interp.global("__stored");
    let t = stored.as_table()?;
    let v = t.borrow().get(&Script::from(id as f64));
    match v {
        Script::Nil => None,
        other => Some(other),
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

    #[test]
    fn stored_functions_keep_state() {
        let actor = ScriptActor::spawn("t3", |_| {});
        let f = actor
            .store_function("local n = 0\nreturn function() n = n + 1 return n end")
            .unwrap();
        assert_eq!(actor.call(f, vec![]).unwrap(), vec![Wire::Long(1)]);
        assert_eq!(actor.call(f, vec![]).unwrap(), vec![Wire::Long(2)]);
    }

    #[test]
    fn dropped_functions_are_unknown() {
        let actor = ScriptActor::spawn("t4", |_| {});
        let f = actor.store_function("function() return 1 end").unwrap();
        actor.drop_function(f).unwrap();
        assert_eq!(
            actor.call(f, vec![]),
            Err(ActorError::UnknownFunction(match f {
                FuncHandle(id) => id,
            }))
        );
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
    fn call_with_builds_script_arguments() {
        let actor = ScriptActor::spawn("t9", |_| {});
        let f = actor
            .store_function("function(t) return t.x + t.y end")
            .unwrap();
        let out = actor
            .call_with(f, |_| {
                let mut t = adapta_script::Table::new();
                t.set_str("x", Script::Num(1.0));
                t.set_str("y", Script::Num(2.0));
                vec![Script::Table(std::rc::Rc::new(std::cell::RefCell::new(t)))]
            })
            .unwrap();
        assert_eq!(out, vec![Wire::Long(3)]);
    }
}
