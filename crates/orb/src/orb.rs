//! The broker facade: node registry, invocation routing and statistics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use adapta_idl::{IdlError, Value};
use adapta_telemetry::{registry, Counter, Gauge, HistogramHandle, Span};
use parking_lot::{Mutex, RwLock};

use crate::adapter::{ObjectAdapter, Servant};
use crate::error::OrbError;
use crate::fault::{FaultAction, FaultPlan, FaultServant};
use crate::interceptor::{
    ClientAction, ClientInterceptor, ClientRequestInfo, ServerAction, ServerInterceptor,
    ServerRequestInfo,
};
use crate::message::{IncomingRequest, Message, OutgoingRequest, ReplyBody};
use crate::naming::NamingServant;
use crate::proxy::Proxy;
use crate::reference::ObjRef;
use crate::telemetry_servant::TelemetryServant;
use crate::transport;
use crate::OrbResult;

/// Process-wide registry of live broker nodes, keyed by node name.
/// In-process invocation resolves `inproc://<node>` endpoints here. A
/// node removes its entry when it drops, so no strong reference to a
/// node may be dropped while this lock is held.
fn nodes() -> &'static StdMutex<HashMap<String, Weak<OrbCore>>> {
    static NODES: OnceLock<StdMutex<HashMap<String, Weak<OrbCore>>>> = OnceLock::new();
    NODES.get_or_init(|| StdMutex::new(HashMap::new()))
}

thread_local! {
    /// The node this thread reached last in process: a thread calling
    /// one node over and over skips the registry's lock and hash.
    static LAST_NODE: RefCell<Weak<OrbCore>> = const { RefCell::new(Weak::new()) };
}

fn lookup_node(node: &str) -> Option<Arc<OrbCore>> {
    // A live orb keeps its name in the registry, so while the cached
    // orb is alive it is the one registered under its name.
    let cached = LAST_NODE.try_with(|last| last.borrow().upgrade());
    if let Some(core) = cached.ok().flatten().filter(|core| core.node == node) {
        return Some(core);
    }
    let core = nodes()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(node)
        .and_then(Weak::upgrade)?;
    let _ = LAST_NODE.try_with(|last| *last.borrow_mut() = Arc::downgrade(&core));
    Some(core)
}

/// The node's `orb.<node>.*` instruments, resolved once when the orb
/// is built.
#[derive(Debug)]
pub(crate) struct StatCells {
    requests_sent: Counter,
    oneways_sent: Counter,
    replies_received: Counter,
    requests_served: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    /// Dispatches shed at the node-wide in-flight cap.
    shed: Counter,
    /// TCP requests shed at a full connection queue.
    pub(crate) tcp_shed: Counter,
    /// TCP requests queued while every connection thread is busy.
    pub(crate) tcp_queue_depth: Gauge,
    /// TCP requests being served.
    pub(crate) tcp_inflight: Gauge,
    /// Failed TCP accepts.
    pub(crate) tcp_accept_errors: Counter,
    /// TCP calls awaiting a reply.
    pub(crate) tcp_client_inflight: Gauge,
    /// Pending entries on the most recently used TCP connection (a
    /// high-water mark of pipelining).
    pub(crate) tcp_client_depth: Gauge,
}

impl StatCells {
    fn for_node(node: &str) -> StatCells {
        let counter = |stat| registry().counter(&format!("orb.{node}.{stat}"));
        let gauge = |stat| registry().gauge(&format!("orb.{node}.{stat}"));
        StatCells {
            requests_sent: counter("requests_sent"),
            oneways_sent: counter("oneways_sent"),
            replies_received: counter("replies_received"),
            requests_served: counter("requests_served"),
            bytes_sent: counter("bytes_sent"),
            bytes_received: counter("bytes_received"),
            shed: counter("shed"),
            tcp_shed: counter("tcp.server.shed"),
            tcp_queue_depth: gauge("tcp.server.queue_depth"),
            tcp_inflight: gauge("tcp.server.inflight"),
            tcp_accept_errors: counter("tcp.accept.errors"),
            tcp_client_inflight: gauge("tcp.client.inflight"),
            tcp_client_depth: gauge("tcp.client.pipeline_depth"),
        }
    }
}

/// Removes every instrument a node named `node` registers: the names
/// [`StatCells::for_node`] resolves and its fault plan's counters. Called with the node map locked, when the node's name is
/// freed or a dead node's name is claimed, so a reused name starts from
/// zero and dropped nodes leave no names behind. Exact names, not a
/// prefix: a node named `server` must not take `orb.server.op.*`.
fn forget_node_metrics(node: &str) {
    const STATS: [&str; 13] = [
        "requests_sent",
        "oneways_sent",
        "replies_received",
        "requests_served",
        "bytes_sent",
        "bytes_received",
        "shed",
        "tcp.server.shed",
        "tcp.server.queue_depth",
        "tcp.server.inflight",
        "tcp.accept.errors",
        "tcp.client.inflight",
        "tcp.client.pipeline_depth",
    ];
    let r = registry();
    for stat in STATS {
        r.remove(&format!("orb.{node}.{stat}"));
    }
    FaultPlan::forget_metrics(node);
}

/// A served operation's metrics, `orb.server.op.<op>.{latency,errors}`.
#[derive(Debug)]
struct OpMetrics {
    latency: HistogramHandle,
    errors: Counter,
}

impl OpMetrics {
    fn named(op: &str) -> OpMetrics {
        OpMetrics {
            latency: registry().histogram(&format!("orb.server.op.{op}.latency")),
            errors: registry().counter(&format!("orb.server.op.{op}.errors")),
        }
    }
}

/// The metrics name that dispatches of operations the node does not
/// track by name are recorded under.
const UNKNOWN_OP: &str = "_unknown";

/// Bound on the operations one node tracks by name; dispatches of
/// further ones are recorded under [`UNKNOWN_OP`].
const MAX_TRACKED_OPS: usize = 256;

/// A snapshot of a broker's message counters.
///
/// The monitoring experiments (event push vs. polling, remote evaluation
/// vs. value streaming) are quantified with these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrbStats {
    /// Two-way requests sent by this node.
    pub requests_sent: u64,
    /// Oneway requests sent by this node.
    pub oneways_sent: u64,
    /// Replies received by this node.
    pub replies_received: u64,
    /// Invocations dispatched to local servants.
    pub requests_served: u64,
    /// Message bytes sent.
    pub bytes_sent: u64,
    /// Message bytes received.
    pub bytes_received: u64,
}

impl OrbStats {
    /// Total messages sent (requests + oneways).
    pub fn messages_sent(&self) -> u64 {
        self.requests_sent + self.oneways_sent
    }
}

/// Per-invocation options for [`Orb::invoke_ref_with`] (and the
/// [`Request`](crate::Request) builder).
///
/// Today this carries the per-call deadline: how long the client waits
/// for the reply before failing *this call only* with
/// [`OrbError::DeadlineExpired`]. On the multiplexed TCP transport an
/// expired deadline abandons just the matching pending-reply entry —
/// the pooled connection and every other in-flight call stay healthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvokeOptions {
    deadline: Option<std::time::Duration>,
}

impl InvokeOptions {
    /// Options with every field at its default (30 s deadline backstop).
    pub fn new() -> InvokeOptions {
        InvokeOptions::default()
    }

    /// Sets the per-call deadline.
    pub fn deadline(mut self, deadline: std::time::Duration) -> InvokeOptions {
        self.deadline = Some(deadline);
        self
    }

    /// The effective deadline: the explicit one, or the transport's
    /// 30-second liveness backstop.
    pub fn effective_deadline(&self) -> std::time::Duration {
        self.deadline.unwrap_or(transport::tcp::DEFAULT_DEADLINE)
    }
}

/// Node-level tuning knobs, fixed at construction
/// ([`Orb::with_options`]). [`Orb::new`] uses the defaults.
///
/// The three admission-control bounds protect a server from request
/// storms: work beyond them is *shed* with the retryable
/// [`OrbError::TransientOverload`] instead of queueing without limit,
/// so well-behaved clients (smart-proxy retry with backoff) absorb the
/// pushback while the server keeps serving at its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrbOptions {
    /// Maximum requests served at once per server-side TCP connection
    /// (default 32); the connection runs at most one more thread, the
    /// one reading. Above it, accepted requests wait in the
    /// connection's queue.
    pub max_conn_workers: usize,
    /// Bound on each server-side TCP connection's pending-request
    /// queue (default 256). Requests arriving beyond it are shed.
    pub max_conn_queue: usize,
    /// Global cap on dispatches executing or queued node-wide, across
    /// all transports (default 4096). Admissions beyond it are shed.
    pub max_inflight: u64,
}

impl Default for OrbOptions {
    fn default() -> Self {
        OrbOptions {
            max_conn_workers: 32,
            max_conn_queue: 256,
            max_inflight: 4096,
        }
    }
}

impl OrbOptions {
    /// Options with every field at its default.
    pub fn new() -> OrbOptions {
        OrbOptions::default()
    }

    /// Sets the per-connection cap on requests served at once.
    pub fn max_conn_workers(mut self, n: usize) -> OrbOptions {
        self.max_conn_workers = n.max(1);
        self
    }

    /// Sets the per-connection pending-job queue bound.
    pub fn max_conn_queue(mut self, n: usize) -> OrbOptions {
        self.max_conn_queue = n.max(1);
        self
    }

    /// Sets the node-wide in-flight dispatch cap.
    pub fn max_inflight(mut self, n: u64) -> OrbOptions {
        self.max_inflight = n.max(1);
        self
    }
}

/// The node's lifecycle, driving [`Orb::shutdown`].
///
/// `RUNNING → DRAINING → STOPPED`, one way only. DRAINING refuses new
/// *inbound* dispatches (callers get a retryable
/// [`OrbError::ShuttingDown`]) while accepted ones finish and outbound
/// invocations still work — so shutdown hooks can withdraw trader
/// offers. STOPPED additionally refuses outbound routing and tears
/// down pooled connections, waking any caller still blocked on a reply.
#[derive(Debug)]
struct Lifecycle {
    state: AtomicU8,
    /// Dispatches accepted and not yet fully replied.
    inflight: AtomicU64,
    drain_lock: StdMutex<()>,
    drained: Condvar,
}

const LIFECYCLE_RUNNING: u8 = 0;
const LIFECYCLE_DRAINING: u8 = 1;
const LIFECYCLE_STOPPED: u8 = 2;

impl Lifecycle {
    fn new() -> Lifecycle {
        Lifecycle {
            state: AtomicU8::new(LIFECYCLE_RUNNING),
            inflight: AtomicU64::new(0),
            drain_lock: StdMutex::new(()),
            drained: Condvar::new(),
        }
    }
}

/// One dispatch admitted by [`OrbCore::begin_dispatch`]: it holds the
/// node and retires the dispatch from the inflight count when dropped.
pub(crate) struct Dispatch(Arc<OrbCore>);

impl std::ops::Deref for Dispatch {
    type Target = OrbCore;

    fn deref(&self) -> &OrbCore {
        &self.0
    }
}

impl Drop for Dispatch {
    /// Retires the dispatch. Only a drain waits for the count to reach
    /// 0, so while the node runs this wakes no one: the condvar's notify
    /// would cost a system call on every call. The count's decrement and
    /// the state's load here, and [`Orb::shutdown`]'s swap to DRAINING
    /// and [`OrbCore::wait_drained`]'s count load, are `SeqCst`: either
    /// this load sees DRAINING and notifies under the lock, or the drain
    /// sees the count at 0 and never waits.
    fn drop(&mut self) {
        let lifecycle = &self.0.lifecycle;
        if lifecycle.inflight.fetch_sub(1, Ordering::SeqCst) == 1
            && lifecycle.state.load(Ordering::SeqCst) != LIFECYCLE_RUNNING
        {
            let _guard = lifecycle
                .drain_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            lifecycle.drained.notify_all();
        }
    }
}

pub(crate) struct OrbCore {
    pub(crate) node: String,
    pub(crate) adapter: ObjectAdapter,
    pub(crate) stats: StatCells,
    pub(crate) tcp_addr: RwLock<Option<String>>,
    /// The node's TCP accept loops.
    pub(crate) listeners: Mutex<Vec<transport::tcp::Listener>>,
    /// The node's accepted TCP connections, closed when it is dropped.
    pub(crate) accepted: Mutex<transport::tcp::Accepted>,
    next_id: AtomicU64,
    pub(crate) tcp_pool: Mutex<HashMap<String, Arc<transport::tcp::MuxConnection>>>,
    /// Interceptor chains, replaced whole on registration so a call
    /// takes its chain with one reference-count increment.
    client_interceptors: RwLock<Arc<[Arc<dyn ClientInterceptor>]>>,
    server_interceptors: RwLock<Arc<[Arc<dyn ServerInterceptor>]>>,
    /// Whether each chain has an interceptor, set after it got one, so
    /// a call through a node without interceptors takes no lock.
    client_intercepted: AtomicBool,
    server_intercepted: AtomicBool,
    /// Server metrics of the operations tracked by name (bounded by
    /// [`MAX_TRACKED_OPS`]), and of all others.
    op_metrics: RwLock<HashMap<String, OpMetrics>>,
    unknown_op: OpMetrics,
    faults: Arc<FaultPlan>,
    lifecycle: Lifecycle,
    shutdown_hooks: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub(crate) options: OrbOptions,
}

impl std::fmt::Debug for OrbCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrbCore")
            .field("node", &self.node)
            .field("adapter", &self.adapter)
            .finish_non_exhaustive()
    }
}

impl Drop for OrbCore {
    fn drop(&mut self) {
        // Stop the accept loops and the connections they accepted. Not
        // joined: the last reference may be the one an accept loop or a
        // connection thread itself holds.
        for listener in self.listeners.get_mut().drain(..) {
            listener.wake();
        }
        self.accepted.get_mut().close_all();
        // Forget the node's name, unless a newer orb took it over. No
        // orb is dropped while the map is locked, so this cannot wait
        // on itself.
        let mut nodes = nodes().lock().unwrap_or_else(|e| e.into_inner());
        if nodes.get(&self.node).is_some_and(|w| w.strong_count() == 0) {
            nodes.remove(&self.node);
            forget_node_metrics(&self.node);
        }
    }
}

impl OrbCore {
    /// Admits one inbound dispatch of `core`'s node, retired when the
    /// returned [`Dispatch`] drops: after its reply (if any) has been
    /// flushed to the transport, or while a panicking servant unwinds.
    /// It is refused with the retryable error the transport answers:
    /// [`OrbError::ShuttingDown`] when the node is draining,
    /// [`OrbError::TransientOverload`] when its in-flight cap is full.
    ///
    /// The count is raised *before* re-checking the state, both
    /// `SeqCst` like the drain's own accesses, so a concurrent
    /// [`Orb::shutdown`] either sees this dispatch in the inflight count
    /// or this dispatch sees the drained state — never neither.
    pub(crate) fn begin_dispatch(core: Arc<OrbCore>) -> OrbResult<Dispatch> {
        let lifecycle = &core.lifecycle;
        let prior = lifecycle.inflight.fetch_add(1, Ordering::SeqCst);
        let running = lifecycle.state.load(Ordering::SeqCst) == LIFECYCLE_RUNNING;
        let dispatch = Dispatch(core);
        if !running {
            return Err(OrbError::ShuttingDown);
        }
        if prior >= dispatch.options.max_inflight {
            dispatch.stats.shed.incr();
            return Err(OrbError::TransientOverload);
        }
        Ok(dispatch)
    }

    pub(crate) fn is_running(&self) -> bool {
        self.lifecycle.state.load(Ordering::Acquire) == LIFECYCLE_RUNNING
    }

    fn is_stopped(&self) -> bool {
        self.lifecycle.state.load(Ordering::Acquire) == LIFECYCLE_STOPPED
    }

    /// Blocks until the inflight count reaches zero or `deadline`
    /// elapses; returns whether the node fully drained.
    fn wait_drained(&self, deadline: Duration) -> bool {
        let started = Instant::now();
        let mut guard = self
            .lifecycle
            .drain_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // `SeqCst`, pairing with `Dispatch::drop` (see there).
        while self.lifecycle.inflight.load(Ordering::SeqCst) > 0 {
            let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                return false;
            };
            // Short waits are a backstop should a notify still be missed.
            let wait = remaining.min(Duration::from_millis(25));
            let (g, _) = self
                .lifecycle
                .drained
                .wait_timeout(guard, wait)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
        true
    }

    pub(crate) fn count_bytes_in(&self, n: usize) {
        self.stats.bytes_received.add(n as u64);
    }

    pub(crate) fn count_bytes_out(&self, n: usize) {
        self.stats.bytes_sent.add(n as u64);
    }

    pub(crate) fn count_served(&self) {
        self.stats.requests_served.incr();
    }

    /// Server-side dispatch of a decoded request (through the server
    /// interceptor chain).
    ///
    /// A panicking servant or interceptor fails its call, on either
    /// transport, with a non-retryable `RemoteException`.
    ///
    /// Dispatch runs under a `server:<op>` span. When the request
    /// carries trace ids (in its trace slot or service context), the
    /// span joins that trace — so a client invocation and its remote
    /// dispatch share one `TraceId` even across TCP. Per-operation latency and error
    /// counts land in the registry under `orb.server.op.<op>.*` (see
    /// [`with_op_metrics`](Self::with_op_metrics) for which names are tracked).
    pub(crate) fn serve(&self, request: IncomingRequest<'_>) -> ReplyBody {
        self.count_served();
        let (key, operation) = (request.key, request.operation);
        let name = ("server:", operation);
        let mut span = match request.trace {
            Some(trace) => Span::child_of(name, trace, request.parent),
            None => Span::start(name),
        };
        span.attr("node", &self.node);
        span.attr("key", key);
        let (outcome, validated) = catch_unwind(AssertUnwindSafe(|| {
            match self.intercept_server(key, operation, &request.args) {
                Some(abort) => (Err(abort), false),
                None => {
                    let outcome = self.dispatch(key, operation, request.args);
                    let known = !matches!(
                        outcome,
                        Err(OrbError::ObjectNotFound { .. }
                            | OrbError::Idl(IdlError::UnknownOperation { .. }))
                    );
                    (outcome, known)
                }
            }
        }))
        .unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<String>().map(String::as_str);
            let text = text.or(panic.downcast_ref::<&str>().copied());
            let message = format!("servant panicked: {}", text.unwrap_or("no message"));
            (Err(OrbError::exception(message)), false)
        });
        if let Err(e) = &outcome {
            span.attr("error", &e.to_string());
        }
        // The dispatch latency is the server span's duration: one
        // clock read serves both.
        let latency = span.end();
        self.with_op_metrics(operation, validated, |metrics| {
            if outcome.is_err() {
                metrics.errors.incr();
            }
            metrics.latency.record(latency);
        });
        ReplyBody {
            id: request.id,
            outcome,
        }
    }

    /// Runs `f` on the metrics a dispatch of `op` is recorded under, in
    /// place, so no handle is cloned per call. An operation is
    /// tracked by name once a dispatch of it was `validated`: it passed
    /// the server interceptors and reached a servant that knew it (or is
    /// a pseudo-operation of an existing object). Until then, and for
    /// every operation beyond [`MAX_TRACKED_OPS`], its dispatches are
    /// recorded under `orb.server.op._unknown`, so remote callers cannot
    /// grow the registry by inventing operation names.
    fn with_op_metrics(&self, op: &str, validated: bool, f: impl FnOnce(&OpMetrics)) {
        if let Some(metrics) = self.op_metrics.read().get(op) {
            return f(metrics);
        }
        let mut tracked = self.op_metrics.write();
        if !validated || tracked.len() >= MAX_TRACKED_OPS {
            return f(tracked.get(op).unwrap_or(&self.unknown_op));
        }
        f(tracked
            .entry(op.to_owned())
            .or_insert_with(|| OpMetrics::named(op)))
    }

    /// The client interceptor chain, or `None` when it is empty, so a
    /// call through a node without interceptors takes no lock.
    fn client_chain(&self) -> Option<Arc<[Arc<dyn ClientInterceptor>]>> {
        // `Acquire`, pairing with the registration's store.
        self.client_intercepted
            .load(Ordering::Acquire)
            .then(|| self.client_interceptors.read().clone())
    }

    /// Runs the server interceptor chain; the first abort's error.
    fn intercept_server(&self, key: &str, operation: &str, args: &[Value]) -> Option<OrbError> {
        // `Acquire`, pairing with the registration's store.
        if !self.server_intercepted.load(Ordering::Acquire) {
            return None;
        }
        let interceptors = self.server_interceptors.read().clone();
        let info = ServerRequestInfo {
            key,
            operation,
            args,
        };
        interceptors
            .iter()
            .find_map(|interceptor| match interceptor.receive_request(&info) {
                ServerAction::Proceed => None,
                ServerAction::Abort(message) => Some(OrbError::exception(message)),
            })
    }

    /// Dispatches to the servant under `key`, answering the CORBA-style
    /// standard pseudo-operations itself so they work for every object
    /// (and for absent ones, in the case of `_non_existent`).
    fn dispatch(&self, key: &str, operation: &str, args: Vec<Value>) -> OrbResult<Value> {
        let not_found = || OrbError::ObjectNotFound {
            key: key.to_owned(),
        };
        match operation {
            "_non_existent" => Ok(Value::Bool(self.adapter.find(key).is_none())),
            "_interface" => {
                let servant = self.adapter.find(key).ok_or_else(not_found)?;
                Ok(Value::from(servant.interface()))
            }
            "_is_a" => {
                let servant = self.adapter.find(key).ok_or_else(not_found)?;
                let asked = args.first().and_then(Value::as_str).unwrap_or("");
                Ok(Value::Bool(servant.interface() == asked))
            }
            _ => self.adapter.dispatch(key, operation, args),
        }
    }
}

/// A broker node: an object adapter plus transports, cheaply cloneable.
///
/// Each `Orb` has a unique node name; `inproc://<node>` endpoints route
/// between orbs of the same process through full marshalling (so
/// in-process measurements reflect real serialisation costs), and
/// `tcp://host:port` endpoints route between processes.
///
/// See the [crate docs](crate) for a full example.
#[derive(Debug, Clone)]
pub struct Orb {
    core: Arc<OrbCore>,
}

impl Orb {
    /// Creates a broker node. If `node` is taken by a live orb in this
    /// process, a numeric suffix is appended (check
    /// [`node_name`](Self::node_name) for the actual name).
    pub fn new(node: &str) -> Orb {
        Orb::with_options(node, OrbOptions::default())
    }

    /// Creates a broker node with explicit [`OrbOptions`] (admission
    /// bounds, per-connection serving cap).
    pub fn with_options(node: &str, options: OrbOptions) -> Orb {
        let mut registry = nodes().lock().unwrap_or_else(|e| e.into_inner());
        let mut name = node.to_owned();
        let mut n = 1;
        while registry.get(&name).is_some_and(|w| w.strong_count() > 0) {
            n += 1;
            name = format!("{node}-{n}");
        }
        if registry.contains_key(&name) {
            // A dead node's entry, not yet removed by its drop: its
            // instruments are not this node's.
            forget_node_metrics(&name);
        }
        let core = Arc::new(OrbCore {
            node: name.clone(),
            adapter: ObjectAdapter::new(),
            stats: StatCells::for_node(&name),
            tcp_addr: RwLock::new(None),
            listeners: Mutex::new(Vec::new()),
            accepted: Mutex::default(),
            next_id: AtomicU64::new(1),
            tcp_pool: Mutex::new(HashMap::new()),
            client_interceptors: RwLock::new(Arc::new([])),
            server_interceptors: RwLock::new(Arc::new([])),
            client_intercepted: AtomicBool::new(false),
            server_intercepted: AtomicBool::new(false),
            op_metrics: RwLock::new(HashMap::new()),
            unknown_op: OpMetrics::named(UNKNOWN_OP),
            faults: Arc::new(FaultPlan::for_node(&name)),
            lifecycle: Lifecycle::new(),
            shutdown_hooks: Mutex::new(Vec::new()),
            options,
        });
        registry.insert(name, Arc::downgrade(&core));
        drop(registry);
        let orb = Orb { core };
        // Every node hosts a naming context for bootstrap references.
        orb.core
            .adapter
            .activate("_naming", Arc::new(NamingServant::new()))
            .expect("naming servant on fresh adapter");
        // ... and a telemetry object exporting the process's metrics
        // snapshot and trace buffer through the broker itself.
        orb.core
            .adapter
            .activate("_telemetry", Arc::new(TelemetryServant::new()))
            .expect("telemetry servant on fresh adapter");
        // ... and a fault-injection object so chaos plans can be
        // scripted remotely over the broker itself.
        orb.core
            .adapter
            .activate(
                "_faults",
                Arc::new(FaultServant::new(orb.core.faults.clone())),
            )
            .expect("fault servant on fresh adapter");
        orb
    }

    /// The node's actual (unique) name.
    pub fn node_name(&self) -> &str {
        &self.core.node
    }

    /// The options this node was built with.
    pub fn options(&self) -> OrbOptions {
        self.core.options
    }

    /// The preferred endpoint for references exported by this node:
    /// the TCP endpoint when listening, otherwise `inproc://<node>`.
    pub fn endpoint(&self) -> String {
        match self.core.tcp_addr.read().as_ref() {
            Some(addr) => format!("tcp://{addr}"),
            None => format!("inproc://{}", self.core.node),
        }
    }

    /// Message counters so far: this node's `orb.<node>.*` counters,
    /// which start from zero when the orb is built and leave the
    /// telemetry registry when it drops.
    pub fn stats(&self) -> OrbStats {
        let s = &self.core.stats;
        OrbStats {
            requests_sent: s.requests_sent.value(),
            oneways_sent: s.oneways_sent.value(),
            replies_received: s.replies_received.value(),
            requests_served: s.requests_served.value(),
            bytes_sent: s.bytes_sent.value(),
            bytes_received: s.bytes_received.value(),
        }
    }

    /// Number of operations whose server metrics this node records
    /// under their own name (`orb.server.op.<op>.*`); at most 256.
    /// Dispatches of any other operation are recorded under
    /// `orb.server.op._unknown`.
    pub fn tracked_operations(&self) -> usize {
        self.core.op_metrics.read().len()
    }

    // ---- chaos and lifecycle ------------------------------------------

    /// This node's fault-injection plan (see [`FaultPlan`]). Empty by
    /// default; rules added here (or remotely via the node's `_faults`
    /// object) apply to every *outgoing* message of this node, on both
    /// the in-process and the TCP transport.
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        self.core.faults.clone()
    }

    /// Registers a hook that runs during [`shutdown`](Self::shutdown),
    /// after in-flight dispatches drain but while outbound invocations
    /// still work — the slot where a node withdraws its trader offers.
    pub fn on_shutdown(&self, hook: impl FnOnce() + Send + 'static) {
        self.core.shutdown_hooks.lock().push(Box::new(hook));
    }

    /// Whether [`shutdown`](Self::shutdown) has begun.
    pub fn is_shutting_down(&self) -> bool {
        !self.core.is_running()
    }

    /// Gracefully shuts the node down:
    ///
    /// 1. stops accepting — the TCP accept loop exits and new inbound
    ///    dispatches (TCP or in-process) are refused with a retryable
    ///    [`OrbError::ShuttingDown`], waking blocked callers;
    /// 2. drains — waits up to `deadline` for every accepted dispatch
    ///    to finish and flush its reply;
    /// 3. runs [`on_shutdown`](Self::on_shutdown) hooks while outbound
    ///    invocations still work, so offers can be withdrawn from
    ///    remote traders;
    /// 4. stops routing — outgoing invocations fail with
    ///    [`OrbError::ShuttingDown`] and pooled client connections are
    ///    torn down, waking any caller still awaiting a reply.
    ///
    /// Returns whether the node fully drained within `deadline`. Safe
    /// to call more than once; must not be called from a servant of
    /// this same node (the drain would wait on its own caller).
    pub fn shutdown(&self, deadline: Duration) -> bool {
        let lifecycle = &self.core.lifecycle;
        if lifecycle
            .state
            .compare_exchange(
                LIFECYCLE_RUNNING,
                LIFECYCLE_DRAINING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
            && self.core.is_stopped()
        {
            return true;
        }
        let listeners = std::mem::take(&mut *self.core.listeners.lock());
        for listener in listeners {
            let _ = listener.wake().join();
        }
        let drained = self.core.wait_drained(deadline);
        let hooks = std::mem::take(&mut *self.core.shutdown_hooks.lock());
        for hook in hooks {
            hook();
        }
        lifecycle.state.store(LIFECYCLE_STOPPED, Ordering::Release);
        // Tear down pooled client connections: every local caller still
        // awaiting a reply, leader or follower, is woken with a
        // retryable error.
        let pool: Vec<_> = self.core.tcp_pool.lock().drain().collect();
        for (_, conn) in pool {
            conn.kill(transport::tcp::Death::Shutdown);
        }
        *self.core.tcp_addr.write() = None;
        drained
    }

    /// Starts a TCP listener; returns the full endpoint (`tcp://…`).
    /// Pass `"127.0.0.1:0"` to pick a free port.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Transport`] when binding fails.
    pub fn listen_tcp(&self, addr: &str) -> OrbResult<String> {
        let bound = transport::tcp::listen(&self.core, addr)?;
        *self.core.tcp_addr.write() = Some(bound.to_string());
        Ok(format!("tcp://{bound}"))
    }

    /// Activates a servant under `key`; returns its reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the key is in use.
    pub fn activate(&self, key: &str, servant: impl Servant + 'static) -> OrbResult<ObjRef> {
        self.activate_arc(key, Arc::new(servant))
    }

    /// Activates a shared servant under `key`; returns its reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the key is in use.
    pub fn activate_arc(&self, key: &str, servant: Arc<dyn Servant>) -> OrbResult<ObjRef> {
        let type_id = servant.interface().to_owned();
        self.core.adapter.activate(key, servant)?;
        Ok(ObjRef::new(self.endpoint(), key, type_id))
    }

    /// Activates a servant under a generated key; returns its reference.
    pub fn activate_auto(&self, servant: impl Servant + 'static) -> ObjRef {
        let servant: Arc<dyn Servant> = Arc::new(servant);
        let type_id = servant.interface().to_owned();
        let key = self.core.adapter.activate_auto(servant);
        ObjRef::new(self.endpoint(), key, type_id)
    }

    /// Deactivates the servant under `key`; returns whether one existed.
    pub fn deactivate(&self, key: &str) -> bool {
        self.core.adapter.deactivate(key)
    }

    /// The local object adapter.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.core.adapter
    }

    /// Builds a reference to a locally-activated object.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::ObjectNotFound`] if nothing is active under
    /// `key`.
    pub fn object_ref(&self, key: &str) -> OrbResult<ObjRef> {
        let servant = self
            .core
            .adapter
            .find(key)
            .ok_or_else(|| OrbError::ObjectNotFound {
                key: key.to_owned(),
            })?;
        Ok(ObjRef::new(
            self.endpoint(),
            key,
            servant.interface().to_owned(),
        ))
    }

    /// Creates a client proxy for a reference (the DII entry point).
    pub fn proxy(&self, target: &ObjRef) -> Proxy {
        Proxy::new(self.clone(), target.clone())
    }

    /// Parses a stringified reference and creates a proxy for it.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Marshal`] on malformed reference strings.
    pub fn proxy_from_uri(&self, uri: &str) -> OrbResult<Proxy> {
        let data = ObjRef::from_uri(uri)
            .ok_or_else(|| OrbError::Marshal(format!("bad object reference `{uri}`")))?;
        Ok(self.proxy(&data))
    }

    // ---- naming ------------------------------------------------------

    /// Binds `name → target` in this node's naming context.
    ///
    /// # Errors
    ///
    /// Propagates servant errors.
    pub fn bind_name(&self, name: &str, target: &ObjRef) -> OrbResult<()> {
        self.core.adapter.dispatch(
            "_naming",
            "bind",
            vec![Value::from(name), Value::ObjRef(target.clone())],
        )?;
        Ok(())
    }

    /// Resolves `name` in the naming context at `endpoint` (or locally
    /// when `endpoint` is this node's).
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NameNotFound`] when unbound, or transport
    /// errors.
    pub fn resolve_name(&self, endpoint: &str, name: &str) -> OrbResult<ObjRef> {
        let target = ObjRef::new(endpoint, "_naming", "NamingContext");
        match self.invoke_ref(&target, "resolve", vec![Value::from(name)])? {
            Value::ObjRef(data) => Ok(data),
            other => Err(OrbError::Marshal(format!(
                "naming context returned {}, expected an object reference",
                other.kind()
            ))),
        }
    }

    // ---- invocation --------------------------------------------------

    /// Registers a client-side request interceptor (runs on every
    /// outgoing invocation of this node, in registration order).
    pub fn add_client_interceptor(&self, interceptor: impl ClientInterceptor + 'static) {
        let mut chain = self.core.client_interceptors.write();
        let mut next = chain.to_vec();
        next.push(Arc::new(interceptor));
        *chain = next.into();
        self.core.client_intercepted.store(true, Ordering::Release);
    }

    /// Registers a server-side request interceptor (runs before every
    /// local dispatch).
    pub fn add_server_interceptor(&self, interceptor: impl ServerInterceptor + 'static) {
        let mut chain = self.core.server_interceptors.write();
        let mut next = chain.to_vec();
        next.push(Arc::new(interceptor));
        *chain = next.into();
        self.core.server_intercepted.store(true, Ordering::Release);
    }

    /// Runs the client interceptor chain; returns the redirected
    /// target, or `None` when the request goes to `target`. Per the
    /// CORBA rules, a redirect restarts the chain on the new target;
    /// redirect loops are cut after 8 rounds.
    fn intercept_client(
        interceptors: &[Arc<dyn ClientInterceptor>],
        target: &ObjRef,
        op: &str,
        args: &[Value],
        oneway: bool,
    ) -> OrbResult<Option<ObjRef>> {
        let mut redirect: Option<ObjRef> = None;
        for _round in 0..8 {
            let mut redirected = false;
            for interceptor in interceptors {
                let info = ClientRequestInfo {
                    target: redirect.as_ref().unwrap_or(target),
                    operation: op,
                    args,
                    oneway,
                };
                match interceptor.send_request(&info) {
                    ClientAction::Proceed => {}
                    ClientAction::Redirect(next) => {
                        redirect = Some(next);
                        redirected = true;
                        break;
                    }
                    ClientAction::Abort(message) => {
                        return Err(OrbError::exception(message));
                    }
                }
            }
            if !redirected {
                return Ok(redirect);
            }
        }
        Err(OrbError::Transport(
            "client interceptors redirected more than 8 times".into(),
        ))
    }

    /// Sends a two-way invocation to `target` and waits for the reply.
    ///
    /// # Errors
    ///
    /// Transport errors, [`OrbError::ObjectNotFound`], or the remote
    /// exception raised by the servant.
    pub fn invoke_ref(&self, target: &ObjRef, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        self.invoke_args(target, op, &args, InvokeOptions::default())
    }

    /// Sends a two-way invocation with explicit per-call options (for
    /// example a [deadline](InvokeOptions::deadline)). The arguments
    /// (a `Vec<Value>`, or a borrowed slice) are only read: the request
    /// is encoded from them, so a caller that retries can send the same
    /// slice again without copying it.
    ///
    /// # Errors
    ///
    /// As [`invoke_ref`](Self::invoke_ref), plus
    /// [`OrbError::DeadlineExpired`] when the reply misses the deadline.
    pub fn invoke_ref_with(
        &self,
        target: &ObjRef,
        op: &str,
        args: impl AsRef<[Value]>,
        opts: InvokeOptions,
    ) -> OrbResult<Value> {
        self.invoke_args(target, op, args.as_ref(), opts)
    }

    fn invoke_args(
        &self,
        target: &ObjRef,
        op: &str,
        args: &[Value],
        opts: InvokeOptions,
    ) -> OrbResult<Value> {
        // The client span opens before the interceptor chain runs, so
        // spans emitted by observe hooks (and by nested invocations the
        // hooks trigger) nest under it.
        let mut span = Span::start(("client:", op));
        span.attr("node", &self.core.node);
        span.attr("key", &target.key);
        let outcome = self.invoke_traced(target, op, args, opts, &span);
        if outcome.is_err() {
            span.attr("error", true);
        }
        outcome
    }

    fn invoke_traced(
        &self,
        target: &ObjRef,
        op: &str,
        args: &[Value],
        opts: InvokeOptions,
        span: &Span,
    ) -> OrbResult<Value> {
        let chain = self.core.client_chain();
        let interceptors = chain.as_deref().unwrap_or_default();
        let redirect = Self::intercept_client(interceptors, target, op, args, false)?;
        let target = redirect.as_ref().unwrap_or(target);
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = OutgoingRequest {
            oneway: false,
            id,
            key: &target.key,
            operation: op,
            args,
            trace: span.trace_id(),
            span: span.span_id(),
        }
        .encode_frame();
        self.core.stats.requests_sent.incr();
        let outcome = self
            .route(target, op, &frame, Some(id), opts.effective_deadline())
            .and_then(|reply| {
                let reply = reply.expect("two-way invocations produce a reply");
                self.core.stats.replies_received.incr();
                reply.outcome
            });
        // Reply interceptors observe the two-way outcome.
        for interceptor in interceptors {
            let info = ClientRequestInfo {
                target,
                operation: op,
                args,
                oneway: false,
            };
            interceptor.receive_reply(&info, &outcome);
        }
        outcome
    }

    /// Sends a oneway (fire-and-forget) invocation to `target`. An
    /// in-process target serves it on this thread before the call
    /// returns; a TCP server serves it on the thread that read it.
    ///
    /// # Errors
    ///
    /// Transport errors only; servant outcomes are not observable.
    pub fn invoke_oneway_ref(&self, target: &ObjRef, op: &str, args: Vec<Value>) -> OrbResult<()> {
        let mut span = Span::start(("oneway:", op));
        span.attr("node", &self.core.node);
        span.attr("key", &target.key);
        let chain = self.core.client_chain();
        let interceptors = chain.as_deref().unwrap_or_default();
        let redirect = Self::intercept_client(interceptors, target, op, &args, true)?;
        let target = redirect.as_ref().unwrap_or(target);
        let frame = OutgoingRequest {
            oneway: true,
            id: 0,
            key: &target.key,
            operation: op,
            args: &args,
            trace: span.trace_id(),
            span: span.span_id(),
        }
        .encode_frame();
        self.core.stats.oneways_sent.incr();
        // Oneways never wait for a reply, so the deadline is moot.
        self.route(
            target,
            op,
            &frame,
            None,
            InvokeOptions::default().effective_deadline(),
        )?;
        Ok(())
    }

    /// Routes one encoded request `frame` (length prefix included) for
    /// `operation` to the target endpoint; for a two-way request,
    /// `reply_id` is its id and the reply body is returned. `deadline`
    /// bounds the wait for a TCP reply; in-process dispatch is
    /// synchronous and ignores it.
    fn route(
        &self,
        target: &ObjRef,
        operation: &str,
        frame: &[u8],
        reply_id: Option<u64>,
        deadline: std::time::Duration,
    ) -> OrbResult<Option<ReplyBody>> {
        if self.core.is_stopped() {
            return Err(OrbError::ShuttingDown);
        }
        if !self.apply_faults(target, operation, reply_id.is_none(), deadline)? {
            // A dropped oneway: the send "succeeded", nothing arrives.
            return Ok(None);
        }
        if let Some(node) = target.endpoint.strip_prefix("inproc://") {
            let peer = lookup_node(node).ok_or_else(|| OrbError::NodeUnreachable {
                endpoint: target.endpoint.clone(),
            })?;
            // Full marshal/unmarshal round trip keeps in-process
            // measurements honest.
            let bytes = &frame[4..];
            self.core.count_bytes_out(bytes.len());
            peer.count_bytes_in(bytes.len());
            let request = IncomingRequest::decode(bytes)?;
            if request.oneway {
                // Served on this thread like a two-way call, but
                // fire-and-forget: a refusal (draining or overload) is
                // discarded silently, and nothing is replied.
                if let Ok(peer) = OrbCore::begin_dispatch(peer) {
                    let _ = peer.serve(request);
                }
                return Ok(None);
            }
            let peer = OrbCore::begin_dispatch(peer)?;
            let reply = peer.serve(request);
            let reply_frame = Message::Reply(reply).encode_frame();
            let reply_bytes = &reply_frame[4..];
            peer.count_bytes_out(reply_bytes.len());
            drop(peer);
            self.core.count_bytes_in(reply_bytes.len());
            match Message::decode(reply_bytes)? {
                Message::Reply(body) => Ok(Some(body)),
                _ => Err(OrbError::Marshal("expected a reply".into())),
            }
        } else if let Some(addr) = target.endpoint.strip_prefix("tcp://") {
            transport::tcp::invoke(&self.core, addr, frame, reply_id, deadline)
        } else {
            Err(OrbError::NodeUnreachable {
                endpoint: target.endpoint.clone(),
            })
        }
    }

    /// Offers one outgoing request to the node's fault plan. Returns
    /// whether it may proceed (possibly after an injected delay):
    /// `false` for a silently dropped oneway, or the injected error.
    fn apply_faults(
        &self,
        target: &ObjRef,
        operation: &str,
        oneway: bool,
        deadline: std::time::Duration,
    ) -> OrbResult<bool> {
        let Some(action) = self.core.faults.decide(&target.endpoint, operation) else {
            return Ok(true);
        };
        match action {
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                Ok(true)
            }
            // What a black hole looks like to the caller — minus the
            // wait for the deadline to actually elapse.
            FaultAction::Drop if oneway => Ok(false),
            FaultAction::Drop => Err(OrbError::DeadlineExpired { after: deadline }),
            FaultAction::Corrupt => Err(OrbError::Transport(
                "injected fault: frame corrupted in flight".into(),
            )),
            FaultAction::Disconnect => {
                if let Some(addr) = target.endpoint.strip_prefix("tcp://") {
                    if let Some(conn) = self.core.tcp_pool.lock().remove(addr) {
                        conn.kill(transport::tcp::Death::Failed(
                            "injected fault: disconnect".into(),
                        ));
                    }
                }
                Err(OrbError::Transport("injected fault: disconnect".into()))
            }
            FaultAction::Error(message) => Err(OrbError::RemoteException { message }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ServantFn;

    fn hello_servant() -> ServantFn {
        ServantFn::new("Hello", |op, args| match op {
            "hello" => Ok(Value::from(format!(
                "hello, {}",
                args.first().and_then(Value::as_str).unwrap_or("?")
            ))),
            "fail" => Err(OrbError::exception("deliberate failure")),
            other => Err(OrbError::unknown_operation("Hello", other)),
        })
    }

    #[test]
    fn inproc_round_trip() {
        let server = Orb::new("t-orb-server");
        let objref = server.activate("h", hello_servant()).unwrap();
        let client = Orb::new("t-orb-client");
        let out = client
            .invoke_ref(&objref, "hello", vec![Value::from("world")])
            .unwrap();
        assert_eq!(out, Value::from("hello, world"));
    }

    #[test]
    fn duplicate_node_names_are_uniquified() {
        let a = Orb::new("t-orb-dup");
        let b = Orb::new("t-orb-dup");
        assert_ne!(a.node_name(), b.node_name());
        assert!(b.node_name().starts_with("t-orb-dup"));
    }

    #[test]
    fn node_name_is_freed_on_drop() {
        let name;
        {
            let orb = Orb::new("t-orb-freed");
            name = orb.node_name().to_owned();
        }
        let again = Orb::new("t-orb-freed");
        assert_eq!(again.node_name(), name);
    }

    #[test]
    fn a_panicking_servant_retires_its_tcp_dispatch() {
        let server = Orb::new("t-orb-panic-tcp");
        server
            .activate(
                "boom",
                ServantFn::new("Boom", |_, _| panic!("deliberate servant panic")),
            )
            .unwrap();
        let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
        let client = Orb::new("t-orb-panic-tcp-client");
        let target = ObjRef::new(endpoint, "boom", "Boom");
        // The connection thread catches the panic and replies.
        let options = InvokeOptions::default().deadline(Duration::from_secs(2));
        let err = client
            .invoke_ref_with(&target, "boom", vec![], options)
            .unwrap_err();
        assert!(matches!(err, OrbError::RemoteException { .. }), "{err:?}");
        let started = Instant::now();
        assert!(server.shutdown(Duration::from_millis(300)));
        assert!(started.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn a_reused_node_name_starts_from_zero() {
        let server = Orb::new("t-orb-reused-server");
        let objref = server.activate("h", hello_servant()).unwrap();
        let first = Orb::new("t-orb-reused");
        first.invoke_ref(&objref, "hello", vec![]).unwrap();
        assert_eq!(first.stats().requests_sent, 1);
        drop(first);
        let again = Orb::new("t-orb-reused");
        assert_eq!(again.node_name(), "t-orb-reused");
        assert_eq!(again.stats().requests_sent, 0);
        let snapshot = adapta_telemetry::registry().snapshot();
        assert_eq!(snapshot.counter("orb.t-orb-reused.requests_sent"), Some(0));
    }

    #[test]
    fn dropped_nodes_leave_the_node_map() {
        let churned = || {
            nodes()
                .lock()
                .unwrap()
                .keys()
                .filter(|name| name.starts_with("t-orb-churn-"))
                .count()
        };
        let before = churned();
        for i in 0..1000 {
            drop(Orb::new(&format!("t-orb-churn-{i}")));
        }
        assert_eq!(churned(), before);
    }

    #[test]
    fn a_panicking_servant_retires_its_dispatch() {
        let server = Orb::new("t-orb-panic");
        let objref = server
            .activate(
                "boom",
                ServantFn::new("Boom", |_, _| panic!("deliberate servant panic")),
            )
            .unwrap();
        let client = Orb::new("t-orb-panic-client");
        // The two-way caller gets the same non-retryable exception as
        // over TCP; the oneway's failure is discarded like any other.
        let err = client.invoke_ref(&objref, "boom", vec![]).unwrap_err();
        assert!(!err.is_retryable());
        assert!(
            matches!(&err, OrbError::RemoteException { message }
                if message == "servant panicked: deliberate servant panic"),
            "{err:?}"
        );
        client.invoke_oneway_ref(&objref, "boom", vec![]).unwrap();
        // Neither call left the node's in-flight count raised, so the
        // drain finds nothing to wait for.
        let started = Instant::now();
        assert!(server.shutdown(Duration::from_millis(300)));
        assert!(started.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn remote_exceptions_propagate() {
        let server = Orb::new("t-orb-exc");
        let objref = server.activate("h", hello_servant()).unwrap();
        let client = Orb::new("t-orb-exc-client");
        let err = client.invoke_ref(&objref, "fail", vec![]).unwrap_err();
        assert!(
            matches!(err, OrbError::RemoteException { message } if message.contains("deliberate"))
        );
    }

    #[test]
    fn object_not_found_survives_the_wire() {
        let server = Orb::new("t-orb-404");
        let client = Orb::new("t-orb-404-client");
        let target = ObjRef::new(server.endpoint(), "ghost", "Hello");
        let err = client.invoke_ref(&target, "hello", vec![]).unwrap_err();
        assert!(matches!(err, OrbError::ObjectNotFound { key } if key == "ghost"));
    }

    #[test]
    fn unreachable_node_is_an_error() {
        let client = Orb::new("t-orb-unreach");
        let target = ObjRef::new("inproc://no-such-node", "k", "T");
        assert!(matches!(
            client.invoke_ref(&target, "op", vec![]),
            Err(OrbError::NodeUnreachable { .. })
        ));
    }

    #[test]
    fn inflight_cap_sheds_with_transient_overload() {
        let server = Orb::with_options("t-orb-shed", OrbOptions::new().max_inflight(1));
        let (block_tx, block_rx) = std::sync::mpsc::sync_channel::<()>(0);
        let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let block_rx = StdMutex::new(block_rx);
        let entered_tx = StdMutex::new(entered_tx);
        let objref = server
            .activate(
                "slow",
                ServantFn::new("Slow", move |_, _| {
                    let _ = entered_tx.lock().unwrap().send(());
                    let _ = block_rx.lock().unwrap().recv();
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        let client = Orb::new("t-orb-shed-client");
        let occupant = {
            let client = client.clone();
            let objref = objref.clone();
            std::thread::spawn(move || client.invoke_ref(&objref, "block", vec![]))
        };
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("first call reached the servant");
        // The single in-flight slot is taken: the next call is shed
        // with a retryable error, before reaching the servant.
        let err = client.invoke_ref(&objref, "block", vec![]).unwrap_err();
        assert_eq!(err, OrbError::TransientOverload);
        assert!(err.is_retryable());
        block_tx.send(()).unwrap();
        occupant.join().unwrap().unwrap();
        // With the slot free again the server admits requests (the
        // servant blocks on `block_rx`, which `block_tx` still feeds).
        let snapshot = adapta_telemetry::registry().snapshot();
        assert!(snapshot.counter("orb.t-orb-shed.shed").unwrap_or(0) >= 1);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let server = Orb::new("t-orb-stats");
        let objref = server.activate("h", hello_servant()).unwrap();
        let client = Orb::new("t-orb-stats-client");
        client
            .invoke_ref(&objref, "hello", vec![Value::from("x")])
            .unwrap();
        client.invoke_oneway_ref(&objref, "hello", vec![]).unwrap();
        let cs = client.stats();
        assert_eq!(cs.requests_sent, 1);
        assert_eq!(cs.oneways_sent, 1);
        assert_eq!(cs.replies_received, 1);
        assert!(cs.bytes_sent > 0 && cs.bytes_received > 0);
        // Server served at least the two-way (oneway may still be queued).
        assert!(server.stats().requests_served >= 1);
    }

    #[test]
    fn inproc_oneway_runs_on_the_callers_thread() {
        let server = Orb::new("t-orb-1w");
        let served_on = Arc::new(Mutex::new(None));
        let record = served_on.clone();
        let objref = server
            .activate(
                "h",
                ServantFn::new("Hello", move |_, _| {
                    *record.lock() = Some(std::thread::current().id());
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        let client = Orb::new("t-orb-1w-client");
        client.invoke_oneway_ref(&objref, "hello", vec![]).unwrap();
        assert_eq!(*served_on.lock(), Some(std::thread::current().id()));
        assert_eq!(server.stats().requests_served, 1);
        // No executor thread was spawned for the oneway (thread names
        // are read where the platform exposes them).
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
                assert!(!name.trim_end().ends_with("-oneway"), "thread {name}");
            }
        }
    }

    #[test]
    fn oneway_to_a_shut_down_orb_is_discarded() {
        let server = Orb::new("t-orb-1w-down");
        let objref = server.activate("h", hello_servant()).unwrap();
        let client = Orb::new("t-orb-1w-down-client");
        assert!(server.shutdown(Duration::from_secs(1)));
        let served = server.stats().requests_served;
        client.invoke_oneway_ref(&objref, "hello", vec![]).unwrap();
        assert_eq!(server.stats().requests_served, served);
    }

    #[test]
    fn self_invocation_works() {
        let orb = Orb::new("t-orb-self");
        let objref = orb.activate("h", hello_servant()).unwrap();
        let out = orb
            .invoke_ref(&objref, "hello", vec![Value::from("me")])
            .unwrap();
        assert_eq!(out, Value::from("hello, me"));
    }

    #[test]
    fn naming_binds_and_resolves_across_nodes() {
        let server = Orb::new("t-orb-naming");
        let objref = server.activate("h", hello_servant()).unwrap();
        server.bind_name("hello-service", &objref).unwrap();
        let client = Orb::new("t-orb-naming-client");
        let resolved = client
            .resolve_name(&server.endpoint(), "hello-service")
            .unwrap();
        assert_eq!(resolved, objref);
        let missing = client.resolve_name(&server.endpoint(), "nope");
        assert!(matches!(missing, Err(OrbError::NameNotFound { .. })));
    }

    #[test]
    fn proxy_from_uri_round_trips() {
        let server = Orb::new("t-orb-uri");
        let objref = server.activate("h", hello_servant()).unwrap();
        let client = Orb::new("t-orb-uri-client");
        let proxy = client.proxy_from_uri(&objref.to_uri()).unwrap();
        let out = proxy.invoke("hello", vec![Value::from("uri")]).unwrap();
        assert_eq!(out, Value::from("hello, uri"));
        assert!(client.proxy_from_uri("garbage").is_err());
    }

    #[test]
    fn deactivate_then_invoke_fails() {
        let server = Orb::new("t-orb-deact");
        let objref = server.activate("h", hello_servant()).unwrap();
        assert!(server.deactivate("h"));
        let client = Orb::new("t-orb-deact-client");
        assert!(matches!(
            client.invoke_ref(&objref, "hello", vec![]),
            Err(OrbError::ObjectNotFound { .. })
        ));
    }
}
