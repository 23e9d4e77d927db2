//! The monitor object: one observed property, its aspects and its
//! event observers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use adapta_bridge::{ActorError, Isolate, Stored};
use adapta_idl::Value;
use adapta_orb::{ObjRef, Orb};
use adapta_script::{Interpreter, SandboxPolicy, Value as Script};
use adapta_sim::SimTime;
use adapta_telemetry::{Counter, Gauge, HistogramHandle};
use parking_lot::Mutex;

use crate::facade;
use crate::guard::{Admit, Guard};

/// Max aspects + observers one installer identity may have live at a
/// time. Remote installs (see [`Monitor::define_aspect_script_remote`])
/// beyond this are rejected before any script is compiled.
pub const MAX_INSTALLS_PER_INSTALLER: usize = 32;
/// Bound on each observer's pending-push queue; same-event entries
/// coalesce, and overflow drops the oldest.
pub const OBSERVER_QUEUE_CAP: usize = 16;
/// Consecutive failed `oneway` pushes after which a remote observer is
/// evicted.
pub const EVICT_AFTER_FAILED_PUSHES: u32 = 5;
/// Compiled functions, and installers' monitor facades, that each of a
/// monitor's isolates keeps for reuse (see [`ScriptCache`]).
pub(crate) const SCRIPT_CACHE_CAP: usize = 16;

/// Where a monitor's property value comes from on each tick.
pub(crate) enum ValueSource {
    /// No automatic refresh; only `setValue`.
    Constant,
    /// A native Rust sampler.
    Native(Box<dyn Fn(SimTime) -> Value + Send + Sync>),
    /// A zero-argument script function stored in the monitor's isolate.
    Script(Stored),
}

/// An installed script function with everything it is called with,
/// stored in the isolate that hosts it: the function, its first argument
/// (an aspect's persistent `self` table, or the observer as scripts see
/// it) and its monitor facade. All three are stored in the job that
/// installs the function, so a tick only looks them up, and released
/// when the entry drops (detach, replacement, eviction, or the monitor
/// going away). The function and the facade may be shared with other
/// entries through the isolate's [`ScriptCache`]; the first argument is
/// the entry's own.
pub(crate) struct ScriptFn {
    isolate: Isolate,
    func: Stored,
    first: Stored,
    facade: Stored,
}

/// How an observer appears to its predicate: a remote observer as its
/// reference table, a local one as its script object, a native callback
/// as `nil`. Runs in the isolate's job.
pub(crate) fn observer_arg(target: &ObserverTarget) -> Script {
    match target {
        ObserverTarget::Remote(r) => adapta_bridge::from_wire(&Value::ObjRef(r.clone())),
        ObserverTarget::Local(object) => object.get(),
        ObserverTarget::Callback(_) => Script::Nil,
    }
}

/// The live entry that an attach of predicate `source` by `installer`,
/// for the remote observer `target` and `event_id`, would repeat. An
/// attach without source text repeats nothing.
fn identical(
    observers: &[ObserverEntry],
    installer: &str,
    target: &ObserverTarget,
    event_id: &str,
    source: Option<&str>,
) -> Option<ObserverId> {
    let (ObserverTarget::Remote(target), Some(source)) = (target, source) else {
        return None;
    };
    let same = |o: &&ObserverEntry| {
        matches!(&o.target, ObserverTarget::Remote(r) if r == target)
            && o.installer == installer
            && o.event_id == event_id
            && o.source.as_deref() == Some(source)
    };
    observers.iter().find(same).map(|o| ObserverId(o.id))
}

impl ScriptFn {
    /// Stores `func`, its first argument and a facade of `monitor`
    /// charging installs to `installer` in the isolate running the
    /// current job.
    pub(crate) fn store(
        monitor: &Weak<MonitorInner>,
        installer: &str,
        func: Script,
        first: Script,
    ) -> ScriptFn {
        let facade = Stored::new(facade::monitor_facade(monitor, installer));
        ScriptFn::with(Stored::new(func), first, facade)
    }

    /// An entry of a stored `func` and `facade`, storing `first` in the
    /// isolate running the current job.
    fn with(func: Stored, first: Script, facade: Stored) -> ScriptFn {
        ScriptFn {
            isolate: Isolate::current().expect("script entries are stored in an isolate job"),
            func,
            first: Stored::new(first),
            facade,
        }
    }

    /// This entry's evaluation as a tick step.
    fn step(&self, slot: Slot) -> Step {
        Step::Script(
            self.isolate.clone(),
            ScriptCall {
                slot,
                func: self.func.clone(),
                args: Some((self.first.clone(), self.facade.clone())),
            },
        )
    }
}

/// What installs into one of a monitor's isolates reuse, each list at
/// most [`SCRIPT_CACHE_CAP`] long, the oldest entry evicted first:
///
/// - compiled `function … end` literals, by source text. Such a
///   function has no upvalues, so entries can share it. A chunk that
///   returns a function may close over its own locals, so it is
///   compiled afresh for every entry;
/// - the monitor facade of each installer.
///
/// The values live in that isolate, so the trusted isolate and the
/// sandbox each have a cache of their own and never share an entry:
/// remotely shipped code never runs a function compiled outside the
/// sandbox. An evicted value lives on while an entry still holds it.
#[derive(Default)]
pub(crate) struct ScriptCache {
    functions: Mutex<VecDeque<(Box<str>, Stored)>>,
    facades: Mutex<VecDeque<(Box<str>, Stored)>>,
}

impl ScriptCache {
    /// The value under `key` in `entries`, made by `make` (outside the
    /// lock: compiling runs script code) when it is not there.
    fn get_or_make(
        entries: &Mutex<VecDeque<(Box<str>, Stored)>>,
        key: &str,
        make: impl FnOnce() -> Result<Stored, ActorError>,
    ) -> Result<Stored, ActorError> {
        if let Some((_, value)) = entries.lock().iter().find(|(k, _)| **k == *key) {
            return Ok(value.clone());
        }
        let value = make()?;
        let mut entries = entries.lock();
        if entries.len() >= SCRIPT_CACHE_CAP {
            entries.pop_front();
        }
        entries.push_back((key.into(), value.clone()));
        Ok(value)
    }

    /// `code` compiled in the current job's isolate.
    fn function(&self, interp: &mut Interpreter, code: &str) -> Result<Stored, ActorError> {
        let mut compile = || Ok(Stored::new(interp.compile_function(code)?));
        match code.trim_start().starts_with("function") {
            true => Self::get_or_make(&self.functions, code, compile),
            false => compile(),
        }
    }

    /// `installer`'s facade of `monitor`, in the current job's isolate.
    fn facade(&self, monitor: &Weak<MonitorInner>, installer: &str) -> Result<Stored, ActorError> {
        Self::get_or_make(&self.facades, installer, || {
            Ok(Stored::new(facade::monitor_facade(monitor, installer)))
        })
    }

    #[cfg(test)]
    fn functions(&self) -> usize {
        self.functions.lock().len()
    }
}

pub(crate) enum AspectFn {
    /// Native evaluator: `f(current_value) -> aspect_value`.
    Native(Box<dyn Fn(&Value) -> Value + Send + Sync>),
    /// Script evaluator `function(self, currval, monitor)` with a
    /// persistent `self` table, hosted by the monitor's trusted isolate
    /// for local installs and by its sandboxed isolate for remotely
    /// shipped code.
    Script(ScriptFn),
}

struct AspectEntry {
    /// Unique per definition: a redefined aspect gets a new id.
    id: u64,
    name: String,
    installer: String,
    func: AspectFn,
    last: Value,
    guard: Guard,
}

/// Identifies an attached event observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObserverId(pub u64);

/// Where event notifications go.
#[derive(Clone)]
pub enum ObserverTarget {
    /// A remote `EventObserver` object (`oneway notifyEvent(evid)`).
    Remote(ObjRef),
    /// A script object (table with a `notifyEvent` method) living in
    /// this monitor's isolate — the paper's Figure 4 observer.
    Local(Stored),
    /// A native callback (used by in-process smart proxies).
    Callback(Arc<dyn Fn(&str) + Send + Sync>),
}

impl std::fmt::Debug for ObserverTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObserverTarget::Remote(r) => write!(f, "Remote({r})"),
            ObserverTarget::Local(_) => write!(f, "Local(script)"),
            ObserverTarget::Callback(_) => write!(f, "Callback"),
        }
    }
}

pub(crate) enum PredicateFn {
    /// Native predicate over the current value.
    Native(Box<dyn Fn(&Value) -> bool + Send + Sync>),
    /// Script predicate `function(observer, value, monitor) -> bool`.
    Script(ScriptFn),
}

struct ObserverEntry {
    id: u64,
    installer: String,
    target: ObserverTarget,
    event_id: String,
    predicate: PredicateFn,
    /// The predicate's source text, for entries attached from source.
    source: Option<String>,
    guard: Guard,
    /// Pending event pushes (coalesced, drop-oldest at the cap).
    queue: VecDeque<String>,
    /// Consecutive failed `oneway` deliveries (remote targets only).
    push_failures: u32,
}

/// The monitor's `monitor.<property>.*` instruments, resolved once when
/// it is built so a tick does no name lookup.
struct MonitorMetrics {
    ticks: Counter,
    tick_cycle: HistogramHandle,
    errors: Counter,
    quarantined_active: Gauge,
    quarantine_probes: Counter,
    quarantine_readmitted: Counter,
    quarantine_entries: Counter,
    push_coalesced: Counter,
    push_dropped: Counter,
    observers_evicted: Counter,
    resource_exhausted: Counter,
    quota_rejections: Counter,
}

impl MonitorMetrics {
    fn for_property(property: &str) -> MonitorMetrics {
        let name = |stat: &str| format!("monitor.{property}.{stat}");
        let r = adapta_telemetry::registry();
        MonitorMetrics {
            ticks: r.counter(&name("ticks")),
            tick_cycle: r.histogram(&name("tick_cycle")),
            errors: r.counter(&name("errors")),
            quarantined_active: r.gauge(&name("quarantined.active")),
            quarantine_probes: r.counter(&name("quarantined.probes")),
            quarantine_readmitted: r.counter(&name("quarantined.readmitted")),
            quarantine_entries: r.counter(&name("quarantined.entries")),
            push_coalesced: r.counter(&name("push.coalesced")),
            push_dropped: r.counter(&name("push.dropped")),
            observers_evicted: r.counter(&name("observers.evicted")),
            resource_exhausted: r.counter(&name("resource_exhausted")),
            quota_rejections: r.counter(&name("quota_rejections")),
        }
    }
}

pub(crate) struct MonitorInner {
    property: String,
    period: Duration,
    isolate: Isolate,
    orb: Orb,
    value: Mutex<Value>,
    source: Mutex<ValueSource>,
    aspects: Mutex<Vec<AspectEntry>>,
    observers: Mutex<Vec<ObserverEntry>>,
    next_aspect: AtomicU64,
    next_observer: AtomicU64,
    notifications: AtomicU64,
    errors: AtomicU64,
    ticks: AtomicU64,
    evictions: AtomicU64,
    metrics: MonitorMetrics,
    /// The most recent user-code error, with context — so operators can
    /// see *why* `monitor.<prop>.errors` is climbing.
    last_error: Mutex<Option<String>>,
    /// Lazily created isolate for remotely shipped code, running under
    /// `SandboxPolicy::remote()` (resource limits + capability strip).
    sandbox: Mutex<Option<Isolate>>,
    /// What installs reuse in `isolate`.
    trusted_cache: ScriptCache,
    /// What installs reuse in `sandbox`.
    sandbox_cache: ScriptCache,
}

/// A monitor for one observed property — `BasicMonitor`,
/// `AspectsManager` and `EventMonitor` in a single object, as in the
/// paper's implementation.
///
/// Cloning yields another handle to the same monitor.
///
/// ```
/// use adapta_monitor::{Isolate, Monitor};
/// use adapta_orb::Orb;
/// use adapta_sim::SimTime;
/// use adapta_idl::Value;
///
/// let orb = Orb::new("mon-doc");
/// let isolate = Isolate::new("mon-doc", |_| {});
/// let mon = Monitor::builder("Temp")
///     .source_native(|_now| Value::from(21.5))
///     .build(&isolate, &orb)
///     .unwrap();
/// mon.tick(SimTime::ZERO);
/// assert_eq!(mon.value(), Value::from(21.5));
/// ```
#[derive(Clone)]
pub struct Monitor {
    pub(crate) inner: Arc<MonitorInner>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("property", &self.inner.property)
            .field("value", &*self.inner.value.lock())
            .field("aspects", &self.defined_aspects())
            .finish_non_exhaustive()
    }
}

/// Builder for [`Monitor`].
pub struct MonitorBuilder {
    property: String,
    period: Duration,
    initial: Value,
    source_native: Option<Box<dyn Fn(SimTime) -> Value + Send + Sync>>,
    source_script: Option<String>,
    source_handle: Option<Stored>,
}

impl MonitorBuilder {
    /// Sets the refresh period hint (default 60 s, the paper's choice).
    pub fn period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }

    /// Sets the initial property value.
    pub fn initial(mut self, value: Value) -> Self {
        self.initial = value;
        self
    }

    /// Samples the property with a native closure on each tick.
    pub fn source_native(mut self, f: impl Fn(SimTime) -> Value + Send + Sync + 'static) -> Self {
        self.source_native = Some(Box::new(f));
        self.source_script = None;
        self
    }

    /// Samples the property with a script function (source text) on
    /// each tick — the paper's `EventMonitor:new` update argument.
    pub fn source_script(mut self, code: impl Into<String>) -> Self {
        self.source_script = Some(code.into());
        self.source_native = None;
        self
    }

    /// Samples the property with an already-stored script function
    /// (used by the script-side `EventMonitor.new`).
    pub(crate) fn source_handle(mut self, h: Stored) -> Self {
        self.source_handle = Some(h);
        self.source_native = None;
        self.source_script = None;
        self
    }

    /// Builds the monitor on an isolate (script state) and orb.
    ///
    /// # Errors
    ///
    /// Script compilation errors for script sources.
    pub fn build(self, isolate: &Isolate, orb: &Orb) -> Result<Monitor, ActorError> {
        let source = if let Some(h) = self.source_handle {
            ValueSource::Script(h)
        } else if let Some(code) = self.source_script {
            ValueSource::Script(isolate.store_function(&code)?)
        } else if let Some(f) = self.source_native {
            ValueSource::Native(f)
        } else {
            ValueSource::Constant
        };
        let metrics = MonitorMetrics::for_property(&self.property);
        Ok(Monitor {
            inner: Arc::new(MonitorInner {
                property: self.property,
                period: self.period,
                isolate: isolate.clone(),
                orb: orb.clone(),
                value: Mutex::new(self.initial),
                source: Mutex::new(source),
                aspects: Mutex::new(Vec::new()),
                observers: Mutex::new(Vec::new()),
                next_aspect: AtomicU64::new(1),
                next_observer: AtomicU64::new(1),
                notifications: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                ticks: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                metrics,
                last_error: Mutex::new(None),
                sandbox: Mutex::new(None),
                trusted_cache: ScriptCache::default(),
                sandbox_cache: ScriptCache::default(),
            }),
        })
    }
}

impl Monitor {
    /// Starts building a monitor for the named property.
    pub fn builder(property: impl Into<String>) -> MonitorBuilder {
        MonitorBuilder {
            property: property.into(),
            period: Duration::from_secs(60),
            initial: Value::Null,
            source_native: None,
            source_script: None,
            source_handle: None,
        }
    }

    /// Whether `other` is a handle to this monitor.
    pub fn same_monitor(&self, other: &Monitor) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The observed property's name.
    pub fn property(&self) -> &str {
        &self.inner.property
    }

    /// The refresh-period hint for drivers.
    pub fn period(&self) -> Duration {
        self.inner.period
    }

    /// The script isolate hosting this monitor's dynamic code.
    pub fn actor(&self) -> &Isolate {
        &self.inner.isolate
    }

    /// The current property value (`getValue`).
    pub fn value(&self) -> Value {
        self.inner.value.lock().clone()
    }

    /// Overwrites the property value (`setValue`).
    pub fn set_value(&self, value: Value) {
        *self.inner.value.lock() = value;
    }

    /// Number of event notifications sent so far.
    pub fn notifications(&self) -> u64 {
        self.inner.notifications.load(Ordering::Relaxed)
    }

    /// Number of ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Number of update/aspect/predicate evaluation errors so far.
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }

    /// Number of observers evicted after repeated failed pushes.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// The most recent user-code error message (with context), if any.
    pub fn last_error(&self) -> Option<String> {
        self.inner.last_error.lock().clone()
    }

    /// Number of aspects/observers currently in the penalty box.
    pub fn quarantined_count(&self) -> usize {
        self.inner
            .aspects
            .lock()
            .iter()
            .filter(|a| a.guard.is_quarantined())
            .count()
            + self
                .inner
                .observers
                .lock()
                .iter()
                .filter(|o| o.guard.is_quarantined())
                .count()
    }

    /// The lazily created isolate hosting remotely shipped code, running
    /// under [`SandboxPolicy::remote`]: step/memory/depth/deadline
    /// limits plus the capability strip of host-escape functions.
    pub fn sandbox_actor(&self) -> Isolate {
        let mut sandbox = self.inner.sandbox.lock();
        sandbox
            .get_or_insert_with(|| {
                let name = format!("{}-sandbox", self.inner.property);
                Isolate::new(&name, |interp| {
                    interp.set_sandbox(&SandboxPolicy::remote());
                })
            })
            .clone()
    }

    /// Records an error with context for `last_error`, the error
    /// counter, the resource-exhaustion counter and a trace event.
    fn record_error(&self, context: &str, err: &ActorError) {
        self.inner.errors.fetch_add(1, Ordering::Relaxed);
        if err.is_resource_limit() {
            self.inner.metrics.resource_exhausted.incr();
        }
        let message = format!("{context}: {err}");
        let mut span = adapta_telemetry::Span::start("monitor.error");
        span.attr("property", self.property());
        span.attr("error", &message);
        span.end();
        *self.inner.last_error.lock() = Some(message);
    }

    /// Rejects a remote installer that already has too many live
    /// installs; local installs are not counted against a quota.
    pub(crate) fn check_quota(&self, installer: &str) -> Result<(), ActorError> {
        if installer == "local" {
            return Ok(());
        }
        let live = self
            .inner
            .aspects
            .lock()
            .iter()
            .filter(|a| a.installer == installer)
            .count()
            + self
                .inner
                .observers
                .lock()
                .iter()
                .filter(|o| o.installer == installer)
                .count();
        if live >= MAX_INSTALLS_PER_INSTALLER {
            self.inner.metrics.quota_rejections.incr();
            return Err(ActorError::Rejected(format!(
                "installer `{installer}` exceeded the quota of \
                 {MAX_INSTALLS_PER_INSTALLER} installed scripts"
            )));
        }
        Ok(())
    }

    /// Compiles `code` in `isolate` (or reuses it from the isolate's
    /// [`ScriptCache`]) and stores it with its first argument and
    /// installer's facade, all in one job.
    fn install_script(
        &self,
        isolate: &Isolate,
        installer: &str,
        code: &str,
        first: impl FnOnce() -> Script + Send,
    ) -> Result<ScriptFn, ActorError> {
        let monitor = Arc::downgrade(&self.inner);
        let cache = match isolate.same_actor(&self.inner.isolate) {
            true => &self.inner.trusted_cache,
            false => &self.inner.sandbox_cache,
        };
        isolate.with(|interp| {
            let func = cache.function(interp, code)?;
            let facade = cache.facade(&monitor, installer)?;
            Ok(ScriptFn::with(func, first(), facade))
        })?
    }

    // ---- aspects -------------------------------------------------------

    /// Defines (or replaces) an aspect computed natively.
    pub fn define_aspect_native(
        &self,
        name: impl Into<String>,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) {
        self.put_aspect(name.into(), "local".into(), AspectFn::Native(Box::new(f)));
    }

    /// Defines (or replaces) an aspect from script source — the
    /// `defineAspect(name, updatef)` of Figure 1. The function is
    /// called as `updatef(self, currval, monitor)` on every tick, with
    /// a persistent `self` table.
    ///
    /// # Errors
    ///
    /// Script compilation errors.
    pub fn define_aspect_script(
        &self,
        name: impl Into<String>,
        code: &str,
    ) -> Result<(), ActorError> {
        self.install_aspect_script(&self.inner.isolate, "local", name.into(), code)
    }

    /// Defines an aspect from *remotely shipped* source: the code is
    /// compiled and run in the monitor's sandboxed isolate
    /// ([`sandbox_actor`](Self::sandbox_actor)), and the installer's
    /// quota ([`MAX_INSTALLS_PER_INSTALLER`]) is enforced first.
    ///
    /// # Errors
    ///
    /// Quota rejection or script compilation errors.
    pub fn define_aspect_script_remote(
        &self,
        installer: &str,
        name: impl Into<String>,
        code: &str,
    ) -> Result<(), ActorError> {
        self.check_quota(installer)?;
        self.install_aspect_script(&self.sandbox_actor(), installer, name.into(), code)
    }

    fn install_aspect_script(
        &self,
        isolate: &Isolate,
        installer: &str,
        name: String,
        code: &str,
    ) -> Result<(), ActorError> {
        let script = self.install_script(isolate, installer, code, Script::table)?;
        self.put_aspect(name, installer.into(), AspectFn::Script(script));
        Ok(())
    }

    pub(crate) fn put_aspect(&self, name: String, installer: String, func: AspectFn) {
        let id = self.inner.next_aspect.fetch_add(1, Ordering::Relaxed);
        let entry = AspectEntry {
            id,
            name,
            installer,
            func,
            last: Value::Null,
            guard: Guard::default(),
        };
        let mut aspects = self.inner.aspects.lock();
        // A redefinition keeps the aspect's place in definition order;
        // the replaced entry is dropped, releasing what it stored.
        match aspects.iter_mut().find(|a| a.name == entry.name) {
            Some(slot) => *slot = entry,
            None => aspects.push(entry),
        }
    }

    /// The last computed value of an aspect (`getAspectValue`).
    pub fn aspect_value(&self, name: &str) -> Option<Value> {
        self.inner
            .aspects
            .lock()
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.last.clone())
    }

    /// Names of defined aspects, in definition order (`definedAspects`).
    pub fn defined_aspects(&self) -> Vec<String> {
        self.inner
            .aspects
            .lock()
            .iter()
            .map(|a| a.name.clone())
            .collect()
    }

    // ---- observers -------------------------------------------------------

    /// Attaches an observer with a script predicate
    /// (`attachEventObserver`). The predicate source is evaluated *at
    /// the monitor* — the remote-evaluation paradigm.
    ///
    /// # Errors
    ///
    /// Script compilation errors.
    pub fn attach_observer_script(
        &self,
        target: ObserverTarget,
        event_id: impl Into<String>,
        predicate_code: &str,
    ) -> Result<ObserverId, ActorError> {
        self.install_observer_script(
            &self.inner.isolate,
            "local",
            target,
            event_id.into(),
            predicate_code,
        )
    }

    /// Attaches an observer whose predicate arrived *over the wire*: it
    /// is compiled and run in the monitor's sandboxed isolate, and the
    /// installer's quota is enforced first.
    ///
    /// # Errors
    ///
    /// Quota rejection or script compilation errors.
    pub fn attach_observer_script_remote(
        &self,
        installer: &str,
        target: ObserverTarget,
        event_id: impl Into<String>,
        predicate_code: &str,
    ) -> Result<ObserverId, ActorError> {
        self.install_observer_script(
            &self.sandbox_actor(),
            installer,
            target,
            event_id.into(),
            predicate_code,
        )
    }

    /// Installs a script observer. An attach identical to a live entry
    /// (installer, remote observer, event id and predicate source) adds
    /// nothing and returns its id, before the quota is checked.
    fn install_observer_script(
        &self,
        isolate: &Isolate,
        installer: &str,
        target: ObserverTarget,
        event_id: String,
        predicate_code: &str,
    ) -> Result<ObserverId, ActorError> {
        let observers = self.inner.observers.lock();
        if let Some(id) = identical(
            &observers,
            installer,
            &target,
            &event_id,
            Some(predicate_code),
        ) {
            return Ok(id);
        }
        drop(observers);
        self.check_quota(installer)?;
        let script =
            self.install_script(isolate, installer, predicate_code, || observer_arg(&target))?;
        // `push_observer` looks again, in the lock that adds the entry:
        // an identical attach may have run while this one compiled.
        Ok(self.push_observer(
            target,
            event_id,
            installer,
            PredicateFn::Script(script),
            Some(predicate_code.into()),
        ))
    }

    /// Attaches an observer with a native predicate.
    pub fn attach_observer_native(
        &self,
        target: ObserverTarget,
        event_id: impl Into<String>,
        predicate: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> ObserverId {
        self.push_observer(
            target,
            event_id.into(),
            "local",
            PredicateFn::Native(Box::new(predicate)),
            None,
        )
    }

    pub(crate) fn push_observer(
        &self,
        target: ObserverTarget,
        event_id: String,
        installer: &str,
        predicate: PredicateFn,
        source: Option<String>,
    ) -> ObserverId {
        let mut observers = self.inner.observers.lock();
        if let Some(id) = identical(&observers, installer, &target, &event_id, source.as_deref()) {
            return id;
        }
        let id = self.inner.next_observer.fetch_add(1, Ordering::Relaxed);
        observers.push(ObserverEntry {
            id,
            installer: installer.into(),
            target,
            event_id,
            predicate,
            source,
            guard: Guard::default(),
            queue: VecDeque::new(),
            push_failures: 0,
        });
        ObserverId(id)
    }

    /// Detaches an observer (`detachEventObserver`); returns whether it
    /// existed. What its predicate stored is released at the hosting
    /// isolate's next entry.
    pub fn detach_observer(&self, id: ObserverId) -> bool {
        let mut observers = self.inner.observers.lock();
        let before = observers.len();
        observers.retain(|o| o.id != id.0);
        observers.len() != before
    }

    /// Number of attached observers.
    pub fn observer_count(&self) -> usize {
        self.inner.observers.lock().len()
    }

    // ---- the tick -------------------------------------------------------

    /// Runs one monitor cycle at time `now`: refresh the property value
    /// from its source, re-evaluate every aspect in definition order,
    /// then run every observer's event predicate and notify on `true`.
    ///
    /// Everything runs on the calling thread. Consecutive script
    /// entries hosted by the same isolate run in one job of that
    /// isolate, so a tick takes its lock once per run of script
    /// entries, not once per entry; each call still gets its own
    /// sandbox budget and deadline, and sees what earlier entries
    /// computed this tick.
    ///
    /// Errors in user-supplied code are counted (see
    /// [`errors`](Self::errors)) and never abort the tick.
    pub fn tick(&self, now: SimTime) {
        let metrics = &self.inner.metrics;
        self.inner.ticks.fetch_add(1, Ordering::Relaxed);
        metrics.ticks.incr();
        let errors_before = self.errors();
        metrics.tick_cycle.time(|| {
            let mut steps = self.plan().into_iter().peekable();
            while let Some(step) = steps.next() {
                match step {
                    Step::Native(slot) => self.run_native(slot, now),
                    Step::Script(isolate, call) => {
                        let mut batch = vec![call];
                        while let Some(Step::Script(_, call)) = steps.next_if(
                            |next| matches!(next, Step::Script(i, _) if i.same_actor(&isolate)),
                        ) {
                            batch.push(call);
                        }
                        self.run_hop(&isolate, batch);
                    }
                }
            }
            self.flush_pushes();
        });
        let new_errors = self.errors().saturating_sub(errors_before);
        if new_errors > 0 {
            metrics.errors.add(new_errors);
        }
        metrics
            .quarantined_active
            .set(self.quarantined_count() as i64);
    }

    /// The tick's steps in evaluation order: the value source, the
    /// aspects the quarantine admits, then the observers it admits.
    fn plan(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        match &*self.inner.source.lock() {
            ValueSource::Constant => {}
            ValueSource::Native(_) => steps.push(Step::Native(Slot::Source)),
            ValueSource::Script(h) => steps.push(Step::Script(
                self.inner.isolate.clone(),
                ScriptCall {
                    slot: Slot::Source,
                    func: h.clone(),
                    args: None,
                },
            )),
        }
        for entry in self.inner.aspects.lock().iter_mut() {
            if self.admit(&mut entry.guard) {
                let slot = Slot::Aspect(entry.id);
                steps.push(match &entry.func {
                    AspectFn::Native(_) => Step::Native(slot),
                    AspectFn::Script(script) => script.step(slot),
                });
            }
        }
        for entry in self.inner.observers.lock().iter_mut() {
            if self.admit(&mut entry.guard) {
                let slot = Slot::Observer(entry.id);
                steps.push(match &entry.predicate {
                    PredicateFn::Native(_) => Step::Native(slot),
                    PredicateFn::Script(script) => script.step(slot),
                });
            }
        }
        steps
    }

    /// Whether the quarantine lets an entry run this tick.
    fn admit(&self, guard: &mut Guard) -> bool {
        match guard.admit() {
            Admit::Skip => false,
            Admit::Probe => {
                self.inner.metrics.quarantine_probes.incr();
                true
            }
            Admit::Run => true,
        }
    }

    /// Evaluates a native step on the calling thread and applies its
    /// value as a script step's (a predicate's as [`Value::Bool`]).
    fn run_native(&self, slot: Slot, now: SimTime) {
        let value = match slot {
            Slot::Source => match &*self.inner.source.lock() {
                ValueSource::Native(f) => f(now),
                _ => return,
            },
            Slot::Aspect(id) => {
                let current = self.value();
                match self.inner.aspects.lock().iter().find(|a| a.id == id) {
                    Some(AspectEntry {
                        func: AspectFn::Native(f),
                        ..
                    }) => f(&current),
                    _ => return,
                }
            }
            Slot::Observer(id) => {
                let current = self.value();
                match self.inner.observers.lock().iter().find(|o| o.id == id) {
                    Some(ObserverEntry {
                        predicate: PredicateFn::Native(f),
                        ..
                    }) => Value::Bool(f(&current)),
                    _ => return,
                }
            }
        };
        self.apply(slot, Ok(vec![value]));
    }

    /// Runs a batch of script steps hosted by `isolate` in one job.
    /// Each result is applied before the next call, under the entry's
    /// lock alone, so later calls see it and facade natives can
    /// re-enter the monitor.
    fn run_hop(&self, isolate: &Isolate, batch: Vec<ScriptCall>) {
        let ran = isolate.with(|interp| {
            for call in batch {
                let out = self.call_script(interp, &call);
                self.apply(call.slot, out);
            }
        });
        // Only a tick run from inside a job of its own isolate is
        // refused; none of the batch ran, so no entry is charged.
        if let Err(e) = ran {
            self.record_error("tick", &e);
        }
    }

    /// Calls one script step in its isolate's job.
    fn call_script(
        &self,
        interp: &mut Interpreter,
        call: &ScriptCall,
    ) -> Result<Vec<Value>, ActorError> {
        let args = match &call.args {
            None => Vec::new(),
            Some((first, facade)) => vec![
                first.get(),
                adapta_bridge::from_wire(&self.value()),
                facade.get(),
            ],
        };
        Isolate::call_in(interp, &call.func, args)
    }

    /// Applies a step's outcome, native or scripted. An entry removed
    /// since the tick was planned is skipped.
    fn apply(&self, slot: Slot, out: Result<Vec<Value>, ActorError>) {
        match slot {
            Slot::Source => match out {
                Ok(values) => {
                    *self.inner.value.lock() = values.into_iter().next().unwrap_or(Value::Null);
                }
                Err(e) => self.record_error("value source", &e),
            },
            Slot::Aspect(id) => {
                let mut aspects = self.inner.aspects.lock();
                let Some(entry) = aspects.iter_mut().find(|a| a.id == id) else {
                    return;
                };
                match out {
                    Ok(values) => {
                        entry.last = values.into_iter().next().unwrap_or(Value::Null);
                        if entry.guard.on_success() {
                            self.inner.metrics.quarantine_readmitted.incr();
                        }
                    }
                    Err(e) => {
                        if entry.guard.on_failure() {
                            self.inner.metrics.quarantine_entries.incr();
                        }
                        let context = format!("aspect `{}`", entry.name);
                        drop(aspects);
                        self.record_error(&context, &e);
                    }
                }
            }
            Slot::Observer(id) => {
                let mut observers = self.inner.observers.lock();
                let Some(entry) = observers.iter_mut().find(|o| o.id == id) else {
                    return;
                };
                match out {
                    Ok(values) => {
                        if entry.guard.on_success() {
                            self.inner.metrics.quarantine_readmitted.incr();
                        }
                        let fired = values
                            .first()
                            .is_some_and(|v| !matches!(v, Value::Null | Value::Bool(false)));
                        if fired {
                            self.enqueue_push(entry);
                        }
                    }
                    Err(e) => {
                        if entry.guard.on_failure() {
                            self.inner.metrics.quarantine_entries.incr();
                        }
                        drop(observers);
                        self.record_error(&format!("observer {id} predicate"), &e);
                    }
                }
            }
        }
    }

    /// Queues one `notifyEvent` for the observer, coalescing a
    /// back-to-back duplicate and dropping the oldest entry at the cap.
    fn enqueue_push(&self, entry: &mut ObserverEntry) {
        if entry.queue.back() == Some(&entry.event_id) {
            self.inner.metrics.push_coalesced.incr();
            return;
        }
        if entry.queue.len() >= OBSERVER_QUEUE_CAP {
            entry.queue.pop_front();
            self.inner.metrics.push_dropped.incr();
        }
        entry.queue.push_back(entry.event_id.clone());
    }

    /// Drains every observer's pending-push queue, delivering each
    /// event. Remote observers that keep failing their `oneway` push
    /// ([`EVICT_AFTER_FAILED_PUSHES`] in a row) are evicted.
    fn flush_pushes(&self) {
        enum Delivery {
            Remote(ObjRef),
            Local(Stored),
            Callback(Arc<dyn Fn(&str) + Send + Sync>),
        }
        let ids: Vec<u64> = self
            .inner
            .observers
            .lock()
            .iter()
            .filter(|o| !o.queue.is_empty())
            .map(|o| o.id)
            .collect();
        for id in ids {
            let (delivery, pending) = {
                let mut observers = self.inner.observers.lock();
                let Some(entry) = observers.iter_mut().find(|o| o.id == id) else {
                    continue;
                };
                if entry.queue.is_empty() {
                    continue;
                }
                let delivery = match &entry.target {
                    ObserverTarget::Remote(r) => Delivery::Remote(r.clone()),
                    ObserverTarget::Local(h) => Delivery::Local(h.clone()),
                    ObserverTarget::Callback(f) => Delivery::Callback(f.clone()),
                };
                (delivery, std::mem::take(&mut entry.queue))
            };
            for event_id in pending {
                let pushed = match &delivery {
                    // Figure 2: `oneway void notifyEvent(in EventID evid)`.
                    Delivery::Remote(target) => self
                        .inner
                        .orb
                        .invoke_oneway_ref(target, "notifyEvent", vec![Value::from(&*event_id)])
                        .is_ok(),
                    Delivery::Local(h) => {
                        let out = self.inner.isolate.with(|interp| {
                            let table = h.get();
                            let method = table
                                .as_table()
                                .map(|t| t.borrow().get_str("notifyEvent"))
                                .unwrap_or(adapta_script::Value::Nil);
                            interp
                                .call(&method, vec![table, adapta_script::Value::str(&event_id)])
                                .map(|_| ())
                                .map_err(ActorError::from)
                        });
                        matches!(out, Ok(Ok(())))
                    }
                    Delivery::Callback(f) => {
                        f(&event_id);
                        true
                    }
                };
                if pushed {
                    self.inner.notifications.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.inner.errors.fetch_add(1, Ordering::Relaxed);
                }
                let remote = matches!(delivery, Delivery::Remote(_));
                if remote {
                    let mut observers = self.inner.observers.lock();
                    if let Some(entry) = observers.iter_mut().find(|o| o.id == id) {
                        if pushed {
                            entry.push_failures = 0;
                        } else {
                            entry.push_failures += 1;
                            if entry.push_failures >= EVICT_AFTER_FAILED_PUSHES {
                                observers.retain(|o| o.id != id);
                                drop(observers);
                                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                                self.inner.metrics.observers_evicted.incr();
                                *self.inner.last_error.lock() = Some(format!(
                                    "observer {id}: evicted after \
                                     {EVICT_AFTER_FAILED_PUSHES} failed pushes"
                                ));
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A tick step's target entry.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Source,
    Aspect(u64),
    Observer(u64),
}

/// A script step's handles, cloned out of its entry when the tick is
/// planned.
struct ScriptCall {
    slot: Slot,
    func: Stored,
    /// The first argument and the facade; `None` for the value source,
    /// which takes no arguments.
    args: Option<(Stored, Stored)>,
}

/// One step of a tick.
enum Step {
    /// Evaluated on the ticking thread.
    Native(Slot),
    /// Evaluated in the isolate; consecutive steps on one isolate
    /// share a job.
    Script(Isolate, ScriptCall),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn setup() -> (Orb, Isolate) {
        (Orb::new("mon-test"), Isolate::new("mon-test", |_| {}))
    }

    #[test]
    fn native_source_refreshes_value() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Load")
            .source_native(|now| Value::from(now.as_secs() as f64))
            .build(&actor, &orb)
            .unwrap();
        assert_eq!(mon.value(), Value::Null);
        mon.tick(SimTime::from_secs(5));
        assert_eq!(mon.value(), Value::from(5.0));
        assert_eq!(mon.ticks(), 1);
    }

    #[test]
    fn script_source_refreshes_value() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Seq")
            .source_script("local n = 0\nreturn function() n = n + 1 return n end")
            .build(&actor, &orb)
            .unwrap();
        mon.tick(SimTime::ZERO);
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.value(), Value::Long(2));
    }

    #[test]
    fn a_tick_inside_its_own_isolate_is_refused_without_a_strike() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Seq")
            .source_script("local n = 0\nreturn function() n = n + 1 return n end")
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_script("Same", "function(self, v, m) return v end")
            .unwrap();
        actor.with(|_| mon.tick(SimTime::ZERO)).unwrap();
        assert_eq!(mon.errors(), 1);
        assert!(mon.last_error().unwrap().contains("re-entered"));
        assert_eq!(mon.quarantined_count(), 0);
        mon.tick(SimTime::ZERO);
        assert_eq!(
            mon.value(),
            Value::Long(1),
            "nothing ran in the refused tick"
        );
        assert_eq!(mon.aspect_value("Same"), Some(Value::Long(1)));
    }

    #[test]
    fn constant_monitor_uses_set_value() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Policy")
            .initial(Value::from("strict"))
            .build(&actor, &orb)
            .unwrap();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.value(), Value::from("strict"));
        mon.set_value(Value::from("lenient"));
        assert_eq!(mon.value(), Value::from("lenient"));
    }

    #[test]
    fn native_aspects_follow_the_value() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Load")
            .source_native(|now| Value::from(now.as_secs() as f64))
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_native("Doubled", |v| {
            Value::from(v.as_double().unwrap_or(0.0) * 2.0)
        });
        mon.tick(SimTime::from_secs(3));
        assert_eq!(mon.aspect_value("Doubled"), Some(Value::from(6.0)));
        assert_eq!(mon.defined_aspects(), vec!["Doubled"]);
        assert_eq!(mon.aspect_value("Nope"), None);
    }

    #[test]
    fn script_aspect_gets_self_currval_monitor() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("LoadAvg")
            .source_native(|_| {
                Value::Seq(vec![Value::from(3.0), Value::from(2.0), Value::from(1.0)])
            })
            .build(&actor, &orb)
            .unwrap();
        // The paper's "Increasing" aspect (Figure 3, lines 14-21).
        mon.define_aspect_script(
            "Increasing",
            r#"function(self, currval, monitor)
                if currval[1] > currval[2] then
                    return "yes"
                else
                    return "no"
                end
            end"#,
        )
        .unwrap();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.aspect_value("Increasing"), Some(Value::from("yes")));
    }

    #[test]
    fn script_aspect_self_is_persistent() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("X")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_script(
            "Count",
            "function(self, currval, monitor)\nself.n = (self.n or 0) + 1\nreturn self.n\nend",
        )
        .unwrap();
        mon.tick(SimTime::ZERO);
        mon.tick(SimTime::ZERO);
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.aspect_value("Count"), Some(Value::Long(3)));
    }

    #[test]
    fn aspect_can_read_other_aspects_via_monitor_facade() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("X")
            .source_native(|_| Value::from(10.0))
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_native("Base", |v| v.clone());
        mon.define_aspect_script(
            "BasePlusOne",
            "function(self, currval, monitor)\nreturn monitor:getAspectValue('Base') + 1\nend",
        )
        .unwrap();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.aspect_value("BasePlusOne"), Some(Value::Long(11)));
    }

    #[test]
    fn redefining_an_aspect_replaces_it() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("X")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_native("A", |_| Value::from(1i64));
        mon.define_aspect_native("A", |_| Value::from(2i64));
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.defined_aspects().len(), 1);
        assert_eq!(mon.aspect_value("A"), Some(Value::Long(2)));
    }

    #[test]
    fn native_observer_fires_and_detaches() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Load")
            .source_native(|now| Value::from(now.as_secs() as f64))
            .build(&actor, &orb)
            .unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_clone = fired.clone();
        let id = mon.attach_observer_native(
            ObserverTarget::Callback(Arc::new(move |evid| {
                assert_eq!(evid, "LoadIncrease");
                fired_clone.fetch_add(1, Ordering::Relaxed);
            })),
            "LoadIncrease",
            |v| v.as_double().unwrap_or(0.0) > 50.0,
        );
        mon.tick(SimTime::from_secs(10)); // below threshold
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        mon.tick(SimTime::from_secs(60)); // above threshold
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(mon.notifications(), 1);
        assert!(mon.detach_observer(id));
        mon.tick(SimTime::from_secs(70));
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert!(!mon.detach_observer(id));
    }

    #[test]
    fn script_predicate_with_aspect_reproduces_fig4() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("LoadAvg")
            .source_native(|now| {
                // Rising load: one-minute average grows with time.
                let l1 = now.as_secs() as f64;
                Value::Seq(vec![
                    Value::from(l1),
                    Value::from(l1 / 2.0),
                    Value::from(0.0),
                ])
            })
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_script(
            "Increasing",
            r#"function(self, currval, monitor)
                if currval[1] > currval[2] then return "yes" else return "no" end
            end"#,
        )
        .unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_clone = fired.clone();
        // The paper's Figure 4 predicate, verbatim semantics.
        mon.attach_observer_script(
            ObserverTarget::Callback(Arc::new(move |_| {
                fired_clone.fetch_add(1, Ordering::Relaxed);
            })),
            "LoadIncrease",
            r#"function(observer, value, monitor)
                local incr
                incr = monitor:getAspectValue("Increasing")
                return value[1] > 50 and incr == "yes"
            end"#,
        )
        .unwrap();
        mon.tick(SimTime::from_secs(10));
        assert_eq!(fired.load(Ordering::Relaxed), 0, "load below limit");
        mon.tick(SimTime::from_secs(60));
        assert_eq!(fired.load(Ordering::Relaxed), 1, "load high and increasing");
    }

    #[test]
    fn remote_observer_gets_oneway_notification() {
        let (orb, actor) = setup();
        let observer_orb = Orb::new("mon-test-obs");
        let seen = Arc::new(Mutex::new(Vec::<(String, usize)>::new()));
        let seen_clone = seen.clone();
        let obs_ref = observer_orb
            .activate(
                "obs",
                adapta_orb::ServantFn::new("EventObserver", move |op, args| {
                    assert_eq!(op, "notifyEvent");
                    seen_clone
                        .lock()
                        .push((args[0].as_str().unwrap_or("?").to_owned(), args.len()));
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        let mon = Monitor::builder("Load")
            .source_native(|_| Value::from(99.0))
            .build(&actor, &orb)
            .unwrap();
        mon.attach_observer_native(ObserverTarget::Remote(obs_ref), "Overload", |v| {
            v.as_double().unwrap_or(0.0) > 50.0
        });
        mon.tick(SimTime::ZERO);
        // Figure 2's `notifyEvent(in EventID evid)`: the event id only.
        assert_eq!(seen.lock().as_slice(), &[("Overload".to_owned(), 1)]);
    }

    #[test]
    fn predicate_errors_are_counted_not_fatal() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("X")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        mon.attach_observer_script(
            ObserverTarget::Callback(Arc::new(|_| {})),
            "E",
            "function(o, v, m) error('kaboom') end",
        )
        .unwrap();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.errors(), 1);
        assert_eq!(mon.notifications(), 0);
        // Monitor still works.
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.ticks(), 2);
    }

    #[test]
    fn bad_source_script_fails_at_build() {
        let (orb, actor) = setup();
        assert!(Monitor::builder("X")
            .source_script("not valid lua ((")
            .build(&actor, &orb)
            .is_err());
    }

    #[test]
    fn failing_aspect_is_quarantined_then_probed() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Q")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_script("Bad", "function(s, v, m) error('nope') end")
            .unwrap();
        mon.define_aspect_native("Good", |v| v.clone());
        for _ in 0..crate::guard::QUARANTINE_THRESHOLD {
            mon.tick(SimTime::ZERO);
        }
        assert_eq!(mon.errors(), u64::from(crate::guard::QUARANTINE_THRESHOLD));
        assert_eq!(mon.quarantined_count(), 1);
        assert!(mon.last_error().unwrap().contains("aspect `Bad`"));
        // While quarantined the bad aspect costs nothing: no new errors,
        // and the healthy aspect keeps updating.
        for _ in 0..crate::guard::QUARANTINE_BASE_TICKS {
            mon.tick(SimTime::ZERO);
        }
        assert_eq!(mon.errors(), u64::from(crate::guard::QUARANTINE_THRESHOLD));
        assert_eq!(mon.aspect_value("Good"), Some(Value::from(1.0)));
        // Penalty expired: the next tick probes (one more error).
        mon.tick(SimTime::ZERO);
        assert_eq!(
            mon.errors(),
            u64::from(crate::guard::QUARANTINE_THRESHOLD) + 1
        );
        assert_eq!(mon.quarantined_count(), 1, "failed probe re-quarantines");
    }

    #[test]
    fn probe_success_readmits_the_entry() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("R")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        // Fails while a flag is set, then recovers.
        actor.eval("flaky = true").unwrap();
        mon.define_aspect_script(
            "Flaky",
            "function(s, v, m) if flaky then error('down') end return 'ok' end",
        )
        .unwrap();
        for _ in 0..crate::guard::QUARANTINE_THRESHOLD {
            mon.tick(SimTime::ZERO);
        }
        assert_eq!(mon.quarantined_count(), 1);
        actor.eval("flaky = false").unwrap();
        for _ in 0..=crate::guard::QUARANTINE_BASE_TICKS {
            mon.tick(SimTime::ZERO);
        }
        assert_eq!(mon.quarantined_count(), 0, "successful probe readmits");
        assert_eq!(mon.aspect_value("Flaky"), Some(Value::from("ok")));
    }

    #[test]
    fn remote_installer_quota_is_enforced() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Quota")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        for i in 0..MAX_INSTALLS_PER_INSTALLER {
            mon.define_aspect_script_remote(
                "evil",
                format!("A{i}"),
                "function(s, v, m) return 1 end",
            )
            .unwrap();
        }
        let over =
            mon.define_aspect_script_remote("evil", "A-over", "function(s, v, m) return 1 end");
        assert!(matches!(over, Err(ActorError::Rejected(_))), "{over:?}");
        // A different installer is unaffected.
        mon.define_aspect_script_remote("honest", "B0", "function(s, v, m) return 2 end")
            .unwrap();
    }

    /// Attaching the same remote observer, event and predicate again is
    /// a no-op: the same id, no new entry, and no charge to the quota,
    /// even at the quota. Another event, predicate or installer is a
    /// new entry, and so is an identical attach after a detach.
    #[test]
    fn an_identical_remote_attach_returns_the_live_entry() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Idempotent")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        let observer =
            ObserverTarget::Remote(ObjRef::new("inproc://idem-peer", "obs", "EventObserver"));
        let code = "function(o, v, m) return false end";
        let attach = |installer: &str, event: &str, code: &str| {
            mon.attach_observer_script_remote(installer, observer.clone(), event, code)
        };
        let first = attach("peer", "E", code).unwrap();
        assert_eq!(attach("peer", "E", code).unwrap(), first);
        assert_eq!(mon.observer_count(), 1);
        let other_event = attach("peer", "F", code).unwrap();
        let other_code = attach("peer", "E", "function(o, v, m) return true end").unwrap();
        let other_installer = attach("other", "E", code).unwrap();
        let ids = [first, other_event, other_code, other_installer];
        assert!(ids.iter().enumerate().all(|(i, a)| !ids[..i].contains(a)));
        assert_eq!(mon.observer_count(), 4);

        for i in 3..MAX_INSTALLS_PER_INSTALLER {
            attach(
                "peer",
                "E",
                &format!("function(o, v, m) return v > {i} end"),
            )
            .unwrap();
        }
        let rejections = || {
            adapta_telemetry::registry()
                .snapshot()
                .counter("monitor.Idempotent.quota_rejections")
                .unwrap_or(0)
        };
        let over = attach("peer", "E", "function(o, v, m) return v < 0 end");
        assert!(matches!(over, Err(ActorError::Rejected(_))), "{over:?}");
        assert_eq!(rejections(), 1);
        assert_eq!(attach("peer", "E", code).unwrap(), first);
        assert_eq!(rejections(), 1);
        assert_eq!(mon.observer_count(), MAX_INSTALLS_PER_INSTALLER + 1);

        assert!(mon.detach_observer(first));
        let again = attach("peer", "E", code).unwrap();
        assert!(again != first && !ids.contains(&again));
    }

    #[test]
    fn concurrent_identical_attaches_add_one_entry() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("IdempotentRace")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        let observer =
            ObserverTarget::Remote(ObjRef::new("inproc://race-peer", "obs", "EventObserver"));
        let start = std::sync::Barrier::new(4);
        let ids: Vec<ObserverId> = std::thread::scope(|s| {
            let attach = || {
                start.wait();
                let code = "function(o, v, m) return false end";
                mon.attach_observer_script_remote("peer", observer.clone(), "E", code)
                    .unwrap()
            };
            let threads: Vec<_> = (0..4).map(|_| s.spawn(attach)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(ids.iter().all(|id| *id == ids[0]), "{ids:?}");
        assert_eq!(mon.observer_count(), 1);
    }

    #[test]
    fn runaway_remote_predicate_is_stopped_and_quarantined() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Hostile")
            .source_native(|_| Value::from(99.0))
            .build(&actor, &orb)
            .unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_clone = fired.clone();
        mon.attach_observer_native(
            ObserverTarget::Callback(Arc::new(move |_| {
                fired_clone.fetch_add(1, Ordering::Relaxed);
            })),
            "Healthy",
            |v| v.as_double().unwrap_or(0.0) > 50.0,
        );
        // Infinite loop, shipped remotely: the sandbox budget stops it.
        mon.attach_observer_script_remote(
            "evil",
            ObserverTarget::Callback(Arc::new(|_| {})),
            "Spin",
            "function(o, v, m) while true do end end",
        )
        .unwrap();
        for _ in 0..4 {
            mon.tick(SimTime::ZERO);
        }
        // The hostile predicate errored until quarantined; the healthy
        // observer fired every tick regardless.
        assert_eq!(fired.load(Ordering::Relaxed), 4);
        assert_eq!(mon.errors(), u64::from(crate::guard::QUARANTINE_THRESHOLD));
        assert_eq!(mon.quarantined_count(), 1);
        assert!(
            mon.last_error().unwrap().contains("budget"),
            "{:?}",
            mon.last_error()
        );
    }

    #[test]
    fn remote_code_cannot_reach_host_escapes() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Caps")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        mon.define_aspect_script_remote(
            "evil",
            "Escape",
            "function(s, v, m) return readfrom('/etc/passwd') end",
        )
        .unwrap();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.errors(), 1);
        assert!(mon.last_error().unwrap().contains("Escape"));
    }

    #[test]
    fn unreachable_remote_observer_is_evicted() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Evict")
            .source_native(|_| Value::from(99.0))
            .build(&actor, &orb)
            .unwrap();
        let gone = adapta_idl::ObjRefData::new("inproc://nowhere", "obs", "EventObserver");
        mon.attach_observer_native(ObserverTarget::Remote(gone), "E", |_| true);
        for _ in 0..EVICT_AFTER_FAILED_PUSHES {
            mon.tick(SimTime::ZERO);
        }
        assert_eq!(mon.evictions(), 1);
        assert_eq!(mon.observer_count(), 0);
        assert!(mon.last_error().unwrap().contains("evicted"));
        // Further ticks are clean.
        let errors = mon.errors();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.errors(), errors);
    }

    /// An observer with a callback target, counting its notifications.
    fn counting_target() -> (ObserverTarget, Arc<AtomicUsize>) {
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        let target = ObserverTarget::Callback(Arc::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        (target, fired)
    }

    #[test]
    fn distinct_predicate_sources_leave_a_bounded_compile_cache() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Cache")
            .source_native(|_| Value::from(50.0))
            .build(&actor, &orb)
            .unwrap();
        let mut counters = Vec::new();
        for i in 0..100 {
            let (target, fired) = counting_target();
            let code = format!("function(o, v, m) return v > {i} end");
            mon.attach_observer_script(target, "E", &code).unwrap();
            counters.push(fired);
        }
        assert_eq!(mon.inner.trusted_cache.functions(), SCRIPT_CACHE_CAP);
        mon.tick(SimTime::ZERO);
        // Every observer runs its own predicate, evicted from the cache
        // or not: those below 50 fire.
        let fired: Vec<usize> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(fired.iter().sum::<usize>(), 50, "{fired:?}");
        assert!(fired[..50].iter().all(|&n| n == 1));
        assert_eq!(mon.errors(), 0);
    }

    /// The same source attached locally and remotely is compiled in
    /// each isolate: the remote predicate runs the sandbox's function,
    /// which cannot see what the trusted isolate defines.
    #[test]
    fn a_remote_predicate_never_runs_a_trusted_compile() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Isolated")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        actor.eval("trusted_only = true").unwrap();
        let code = "function(o, v, m) return trusted_only == true end";
        let (local, local_fired) = counting_target();
        mon.attach_observer_script(local, "E", code).unwrap();
        let (remote, remote_fired) = counting_target();
        mon.attach_observer_script_remote("peer", remote, "E", code)
            .unwrap();
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.errors(), 0, "{:?}", mon.last_error());
        assert_eq!(local_fired.load(Ordering::Relaxed), 1);
        assert_eq!(remote_fired.load(Ordering::Relaxed), 0);
        assert_eq!(mon.inner.trusted_cache.functions(), 1);
        assert_eq!(mon.inner.sandbox_cache.functions(), 1);
    }

    /// Two observers of one source share its compile but not their
    /// state: one that fails is quarantined alone, and each detaches
    /// alone.
    #[test]
    fn observers_of_one_source_keep_their_own_quarantine_and_detach() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Shared")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        let observer = |bad: bool| {
            actor
                .with(move |interp| {
                    let table = interp.eval_expr("{}").unwrap();
                    if let Some(t) = table.as_table() {
                        t.borrow_mut().set_str("bad", Script::Bool(bad));
                    }
                    ObserverTarget::Local(Stored::new(table))
                })
                .unwrap()
        };
        let code = "function(o, v, m) if o.bad then error('bad observer') end return false end";
        let bad = mon
            .attach_observer_script(observer(true), "E", code)
            .unwrap();
        let good = mon
            .attach_observer_script(observer(false), "E", code)
            .unwrap();
        assert_eq!(mon.inner.trusted_cache.functions(), 1);
        for _ in 0..crate::guard::QUARANTINE_THRESHOLD {
            mon.tick(SimTime::ZERO);
        }
        assert_eq!(mon.errors(), u64::from(crate::guard::QUARANTINE_THRESHOLD));
        assert_eq!(mon.quarantined_count(), 1);
        assert!(mon.detach_observer(bad));
        assert_eq!(mon.observer_count(), 1);
        assert_eq!(mon.quarantined_count(), 0);
        mon.tick(SimTime::ZERO);
        assert_eq!(mon.errors(), u64::from(crate::guard::QUARANTINE_THRESHOLD));
        assert!(mon.detach_observer(good));
        assert_eq!(mon.observer_count(), 0);
    }

    /// A chunk returning a function closes over its own locals, so each
    /// observer of it gets a closure of its own.
    #[test]
    fn a_chunk_source_gives_each_observer_its_own_closure() {
        let (orb, actor) = setup();
        let mon = Monitor::builder("Chunk")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        let code = "local n = 0 return function(o, v, m) n = n + 1 return n == 2 end";
        let (a, a_fired) = counting_target();
        let (b, b_fired) = counting_target();
        mon.attach_observer_script(a, "E", code).unwrap();
        mon.attach_observer_script(b, "E", code).unwrap();
        mon.tick(SimTime::ZERO);
        mon.tick(SimTime::ZERO);
        assert_eq!(a_fired.load(Ordering::Relaxed), 1);
        assert_eq!(b_fired.load(Ordering::Relaxed), 1);
        assert_eq!(mon.inner.trusted_cache.functions(), 0);
    }
}
