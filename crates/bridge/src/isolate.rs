//! The script isolate: one interpreter behind a mutex, run on any thread.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adapta_idl::Value as Wire;
use adapta_script::{Interpreter, RuaError, Value as Script};
use parking_lot::Mutex;

use crate::convert::to_wire;

/// Errors surfaced by [`Isolate`] calls.
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
    /// A job, or a native it called, tried to enter its own isolate
    /// again. Nothing ran.
    Reentrant,
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
            ActorError::Reentrant => write!(f, "script isolate re-entered by its own job"),
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

thread_local! {
    /// The isolates this thread runs jobs of, innermost last, with their
    /// stored values. Only Rust code reaches these maps, not scripts.
    static HOME: RefCell<Vec<Home>> = const { RefCell::new(Vec::new()) };
}

struct Home {
    isolate: Arc<IsolateInner>,
    values: HashMap<u64, Script>,
}

/// A script value stored in an isolate, owned by this handle and its
/// clones.
///
/// The value (an `Rc` table or closure) never leaves the isolate; the
/// handle is an id. When the last clone drops, on any thread, the
/// isolate drops the value at its next entry.
///
/// Nothing stored in an isolate may hold a strong handle to that
/// isolate or to its owner: that would keep both alive forever.
#[derive(Clone)]
pub struct Stored(Arc<StoredId>);

struct StoredId {
    id: u64,
    released: Arc<Mutex<Vec<u64>>>,
}

impl Drop for StoredId {
    fn drop(&mut self) {
        self.released.lock().push(self.id);
    }
}

impl fmt::Debug for Stored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stored(#{})", self.0.id)
    }
}

impl Stored {
    /// Stores `value` in the isolate running the current job (a
    /// [`with`](Isolate::with) closure or a native it calls).
    ///
    /// # Panics
    ///
    /// Outside an isolate's job.
    pub fn new(value: Script) -> Stored {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        HOME.with_borrow_mut(|homes| {
            let home = homes.last_mut().expect("in an isolate job");
            home.values.insert(id, value);
            Stored(Arc::new(StoredId {
                id,
                released: home.isolate.released.clone(),
            }))
        })
    }

    /// The stored value; `nil` outside a job of the isolate storing it.
    pub fn get(&self) -> Script {
        HOME.with_borrow(|homes| {
            homes
                .last()
                .and_then(|home| home.values.get(&self.0.id).cloned())
                .unwrap_or(Script::Nil)
        })
    }
}

/// One [`Interpreter`] and the values stored in it, entered by one
/// thread at a time.
///
/// Servants, monitors and smart proxies hold a cheap `Isolate` clone;
/// [`with`](Self::with) runs a closure on the interpreter on the
/// caller's own thread, under the isolate's lock. Remotely shipped
/// code is compiled once ([`store_function`]) and invoked many times
/// ([`call_in`]). The interpreter drops with the last clone.
///
/// A job must not store anything bound to its thread in the interpreter,
/// such as a thread-local's `Rc`: the next job may run on another thread.
///
/// ```
/// use adapta_bridge::Isolate;
/// use adapta_script::Value::Num;
///
/// let isolate = Isolate::new("demo", |_| {});
/// let f = isolate.store_function("function(a, b) return a + b end").unwrap();
/// let out = isolate.with(|interp| Isolate::call_in(interp, &f, vec![Num(20.0), Num(22.0)]));
/// assert_eq!(out.unwrap().unwrap(), vec![adapta_idl::Value::from(42i64)]);
/// ```
///
/// [`store_function`]: Isolate::store_function
/// [`call_in`]: Isolate::call_in
#[derive(Clone)]
pub struct Isolate {
    inner: Arc<IsolateInner>,
}

struct IsolateInner {
    name: Box<str>,
    jobs: AtomicU64,
    /// Ids of stored values whose last handle dropped, to drop at entry.
    released: Arc<Mutex<Vec<u64>>>,
    state: Mutex<State>,
}

/// What an isolate's lock guards.
struct State {
    interp: Interpreter,
    values: HashMap<u64, Script>,
}

// SAFETY: both fields are full of `Rc`s, whose counts are not atomic,
// and of natives that need not be `Send`. A `State` may still move
// between threads, as in mlua's `send` feature: the mutex orders every
// access, and nothing it holds is reachable from outside it.
// - `with` requires `R: Send` and a `Send` job, so no `Rc` enters or
//   leaves a job: every boundary converts to wire values.
// - A `Stored` is an id. `get` looks only in the innermost isolate this
//   thread runs a job of, so no value crosses into another isolate.
// - The script crate has no `thread_local!` that could keep an `Rc` on
//   a thread; `HOME` holds an isolate's values only during its job.
// - Natives are built in jobs, and none captures a value bound to the
//   thread that built it, such as an `Rc` kept in a thread-local.
unsafe impl Send for State {}

impl fmt::Debug for Isolate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Isolate({})", self.inner.name)
    }
}

impl Isolate {
    /// Creates the isolate. `setup` runs first, as its first job, on
    /// the fresh interpreter (install natives, hooks, globals).
    pub fn new(name: &str, setup: impl FnOnce(&mut Interpreter) + Send) -> Isolate {
        let isolate = Isolate {
            inner: Arc::new(IsolateInner {
                name: name.into(),
                jobs: AtomicU64::new(0),
                released: Arc::default(),
                state: Mutex::new(State {
                    interp: Interpreter::new(),
                    values: HashMap::new(),
                }),
            }),
        };
        isolate.with(setup).expect("no thread holds a new isolate");
        isolate
    }

    /// The isolate running the current job, from inside a
    /// [`with`](Self::with) closure or a native it calls: natives
    /// stored in an isolate reach it this way instead of holding it.
    pub fn current() -> Option<Isolate> {
        HOME.with_borrow(|homes| homes.last().map(|home| home.isolate.clone()))
            .map(|inner| Isolate { inner })
    }

    /// Whether `other` is a handle to the same isolate.
    pub fn same_actor(&self, other: &Isolate) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Entries so far: the setup, then one per [`with`](Self::with) and
    /// per helper built on it. A refused re-entry is not counted.
    pub fn jobs(&self) -> u64 {
        self.inner.jobs.load(Ordering::Relaxed)
    }

    /// Values stored in the isolate whose handles are still alive.
    ///
    /// # Errors
    ///
    /// [`ActorError::Reentrant`] from inside the isolate's own job.
    pub fn stored_count(&self) -> Result<usize, ActorError> {
        self.with(|_| HOME.with_borrow(|homes| homes.last().map_or(0, |h| h.values.len())))
    }

    /// Runs `f` on the isolate's interpreter, on this thread, and
    /// returns its result.
    ///
    /// Blocks while another thread runs a job of the isolate. A panic
    /// in `f` unwinds to the caller and leaves the isolate usable.
    ///
    /// # Errors
    ///
    /// [`ActorError::Reentrant`] if this thread is running a job of the
    /// isolate already: waiting for itself would never end.
    pub fn with<R: Send>(
        &self,
        f: impl FnOnce(&mut Interpreter) -> R + Send,
    ) -> Result<R, ActorError> {
        if HOME.with_borrow(|homes| homes.iter().any(|h| Arc::ptr_eq(&h.isolate, &self.inner))) {
            return Err(ActorError::Reentrant);
        }
        // The lock does not poison: a job that panicked left the
        // interpreter whole.
        let mut state = self.inner.state.lock();
        self.inner.jobs.fetch_add(1, Ordering::Relaxed);
        let State { interp, values } = &mut *state;
        let released = std::mem::take(&mut *self.inner.released.lock());
        let dead: Vec<Script> = released.iter().filter_map(|id| values.remove(id)).collect();
        let home = Home {
            isolate: self.inner.clone(),
            values: std::mem::take(values),
        };
        HOME.with_borrow_mut(|homes| homes.push(home));
        let _entered = Entered(values);
        // Dropped in the isolate, outside any borrow of `HOME`: dropping
        // a value runs the destructors of what its natives hold.
        drop(dead);
        Ok(f(interp))
    }

    /// Evaluates a chunk; returns its `return` values as wire values.
    ///
    /// # Errors
    ///
    /// Script errors, or re-entry.
    pub fn eval(&self, source: &str) -> Result<Vec<Wire>, ActorError> {
        self.with(|interp| Ok(interp.eval(source)?.iter().map(to_wire).collect()))?
    }

    /// Compiles source that must yield a function (either a
    /// `function(...) … end` literal or a chunk returning one) and
    /// stores it in the isolate.
    ///
    /// # Errors
    ///
    /// Script errors, or re-entry.
    pub fn store_function(&self, source: &str) -> Result<Stored, ActorError> {
        self.with(|interp| Ok(Stored::new(interp.compile_function(source)?)))?
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

/// Restores the thread's previous home when dropped, also while a
/// panicking job unwinds, and moves the isolate's values back.
struct Entered<'a>(&'a mut HashMap<u64, Script>);

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        if let Some(home) = HOME.with_borrow_mut(Vec::pop) {
            *self.0 = home.values;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn eval_round_trips_values() {
        let isolate = Isolate::new("t1", |_| {});
        let out = isolate.eval("return 1 + 1, 'two', {3, 4}").unwrap();
        assert_eq!(out[0], Wire::Long(2));
        assert_eq!(out[1], Wire::Str("two".into()));
        assert_eq!(out[2], Wire::Seq(vec![Wire::Long(3), Wire::Long(4)]));
    }

    #[test]
    fn setup_installs_natives() {
        let isolate = Isolate::new("t2", |interp| {
            interp.register("answer", |_, _| Ok(vec![Script::Num(42.0)]));
        });
        assert_eq!(
            isolate.eval("return answer()").unwrap(),
            vec![Wire::Long(42)]
        );
    }

    /// Calls a stored function with no arguments.
    fn call(isolate: &Isolate, f: &Stored) -> Result<Vec<Wire>, ActorError> {
        isolate.with(|interp| Isolate::call_in(interp, f, vec![]))?
    }

    #[test]
    fn stored_functions_keep_state() {
        let isolate = Isolate::new("t3", |_| {});
        let f = isolate
            .store_function("local n = 0\nreturn function() n = n + 1 return n end")
            .unwrap();
        assert_eq!(call(&isolate, &f).unwrap(), vec![Wire::Long(1)]);
        assert_eq!(call(&isolate, &f).unwrap(), vec![Wire::Long(2)]);
    }

    #[test]
    fn a_value_lives_until_its_last_handle_drops() {
        let isolate = Isolate::new("t4", |_| {});
        let f = isolate.store_function("function() return 1 end").unwrap();
        let g = f.clone();
        assert_eq!(isolate.stored_count().unwrap(), 1);
        drop(f);
        assert_eq!(call(&isolate, &g).unwrap(), vec![Wire::Long(1)]);
        assert_eq!(isolate.stored_count().unwrap(), 1);
        drop(g);
        assert_eq!(isolate.stored_count().unwrap(), 0);
    }

    #[test]
    fn scripts_cannot_reach_stored_values() {
        let isolate = Isolate::new("t4b", |_| {});
        let f = isolate
            .store_function("function() return 'kept' end")
            .unwrap();
        // Wipe every global.
        isolate
            .eval(
                "local g, keys = _G, {}
                 for k in pairs(g) do keys[#keys + 1] = k end
                 for i = 1, #keys do g[keys[i]] = nil end",
            )
            .unwrap();
        assert_eq!(call(&isolate, &f).unwrap(), vec![Wire::Str("kept".into())]);
        // Another isolate's handle reads as nil.
        let other = Isolate::new("t4c", |_| {});
        assert!(call(&other, &f).is_err());
    }

    #[test]
    fn stored_values_drop_with_the_last_isolate_handle() {
        let (tx, rx) = mpsc::channel::<()>();
        let isolate = Isolate::new("t4d", |_| {});
        // A stored native holding `tx`: dropped with the isolate's values.
        let stored = isolate
            .with(move |_| {
                let native = Interpreter::native("hold", move |_, _| {
                    let _ = &tx;
                    Ok(vec![])
                });
                let isolate = Isolate::current().expect("inside a job");
                (Stored::new(native), isolate.jobs())
            })
            .unwrap();
        assert_eq!(stored.1, 2, "current() is the running isolate");
        assert!(Isolate::current().is_none(), "not in a job any more");
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Empty));
        drop(isolate);
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn reentry_fails_fast_and_the_isolate_keeps_working() {
        let isolate = Isolate::new("t4e", |interp| {
            interp.register("reenter", |_, _| {
                let own = Isolate::current().expect("inside a job");
                let refused = own.eval("return 1").unwrap_err();
                Ok(vec![Script::str(refused.to_string())])
            });
        });
        let started = Instant::now();
        let out = isolate.eval("return reenter()").unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(out, vec![Wire::Str(ActorError::Reentrant.to_string())]);
        // Entering another isolate from a job is no re-entry.
        let other = Isolate::new("t4f", |_| {});
        let nested = isolate.with(|_| other.eval("return 2")).unwrap();
        assert_eq!(nested, Ok(vec![Wire::Long(2)]));
        assert_eq!(isolate.eval("return 3").unwrap(), vec![Wire::Long(3)]);
    }

    #[test]
    fn a_panicking_job_leaves_the_thread_and_the_isolate_usable() {
        let isolate = Isolate::new("t4g", |_| {});
        let f = isolate
            .store_function("function() return 'kept' end")
            .unwrap();
        let outer = Isolate::new("t4h", |_| {});
        let panicked = std::panic::catch_unwind(|| {
            outer.with(|_| {
                let _ = isolate.with(|_| -> () { panic!("job panics") });
            })
        });
        assert!(panicked.is_err());
        assert!(
            Isolate::current().is_none(),
            "the thread's home is restored"
        );
        assert_eq!(call(&isolate, &f).unwrap(), vec![Wire::Str("kept".into())]);
        assert_eq!(outer.eval("return 1").unwrap(), vec![Wire::Long(1)]);
    }

    #[test]
    fn caught_panics_leave_the_call_depth_cap_intact() {
        let isolate = Isolate::new("t4i", |interp| {
            interp.register("boom", |_, _| panic!("native panics"));
        });
        isolate
            .eval(
                "function via() boom() end
                 function deep(n) if n == 0 then return 0 end return 1 + deep(n - 1) end",
            )
            .unwrap();
        for _ in 0..30 {
            let panicked = std::panic::catch_unwind(|| isolate.eval("via()"));
            assert!(panicked.is_err());
        }
        assert_eq!(
            isolate.eval("return deep(50)").unwrap(),
            vec![Wire::Long(50)]
        );
    }

    #[test]
    fn script_errors_are_reported_not_fatal() {
        let isolate = Isolate::new("t5", |_| {});
        let err = isolate.eval("error('boom')").unwrap_err();
        assert!(matches!(err, ActorError::Script(m) if m.contains("boom")));
        // The isolate survives.
        assert_eq!(isolate.eval("return 1").unwrap(), vec![Wire::Long(1)]);
    }

    #[test]
    fn parse_errors_in_store_function() {
        let isolate = Isolate::new("t6", |_| {});
        assert!(isolate.store_function("function(").is_err());
        assert!(isolate.store_function("return 42").is_err());
    }

    #[test]
    fn concurrent_callers_are_serialised() {
        let isolate = Isolate::new("t7", |_| {});
        isolate.eval("counter = 0").unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = isolate.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    a.eval("counter = counter + 1").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            isolate.eval("return counter").unwrap(),
            vec![Wire::Long(400)]
        );
    }

    #[test]
    fn globals_persist_across_eval_calls() {
        let isolate = Isolate::new("t8", |_| {});
        isolate.eval("state = {count = 1}").unwrap();
        assert_eq!(
            isolate.eval("return state.count").unwrap(),
            vec![Wire::Long(1)]
        );
    }

    #[test]
    fn call_in_takes_script_arguments() {
        let isolate = Isolate::new("t9", |_| {});
        let f = isolate
            .store_function("function(t) return t.x + t.y end")
            .unwrap();
        let out = isolate
            .with(|interp| {
                let mut t = adapta_script::Table::new();
                t.set_str("x", Script::Num(1.0));
                t.set_str("y", Script::Num(2.0));
                let t = Script::Table(std::rc::Rc::new(std::cell::RefCell::new(t)));
                Isolate::call_in(interp, &f, vec![t])
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, vec![Wire::Long(3)]);
    }
}
