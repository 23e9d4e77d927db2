//! The TCP transport: length-prefixed frames, one *multiplexed*
//! connection per remote endpoint, a listener thread per serving orb.
//!
//! ## Client side
//!
//! Each pooled connection ([`MuxConnection`]) owns a dedicated reader
//! thread and a pending-reply table keyed by the request id that is
//! already on the wire in every [`Message::Request`]. Writers take the
//! stream lock only for the frame write, so N concurrent invocations of
//! the same endpoint pipeline on one socket and complete in roughly the
//! latency of a single call instead of their sum. A per-call deadline
//! fails just the matching pending entry — a slow reply never poisons
//! the connection for other callers. A reply whose id routes nowhere
//! (not pending, not abandoned by a deadline) means the stream is
//! desynchronized: the connection is killed and evicted so no later
//! caller can read a stale reply as its own.
//!
//! ## Server side
//!
//! Each accepted connection dispatches decoded requests onto a small
//! on-demand worker pool; replies are written back in completion order
//! through a shared writer. One slow servant no longer head-of-line
//! blocks the other requests pipelined on the same connection.
//!
//! The wire protocol is unchanged: request ids were already carried by
//! every frame, multiplexing only starts using them for correlation.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use adapta_telemetry::{registry, Gauge};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::error::OrbError;
use crate::message::{Message, ReplyBody, RequestBody};
use crate::orb::OrbCore;
use crate::OrbResult;

/// Upper bound on accepted frame size (matches the marshalling limit).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Default per-call deadline: how long a client waits for a reply
/// before failing that call. Generous: this is a liveness backstop, not
/// a pacing knob; override it per call with `InvokeOptions`.
pub(crate) const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Pause after a transient accept failure (`EMFILE`, `ECONNABORTED`…)
/// before retrying, so a file-descriptor storm cannot spin the loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

fn io_err(context: &str, e: std::io::Error) -> OrbError {
    OrbError::Transport(format!("{context}: {e}"))
}

/// Writes an encoded frame (length prefix included) in one write.
fn send_frame(stream: &mut TcpStream, frame: &[u8]) -> OrbResult<()> {
    stream
        .write_all(frame)
        .map_err(|e| io_err("write frame", e))
}

/// Writes `body` behind its length prefix, as one write.
#[cfg(test)]
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> OrbResult<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    send_frame(stream, &frame)
}

/// Reads one frame's body; `None` at a clean end of stream. Callers
/// read through a [`BufReader`], so a small frame costs one `read`.
fn read_frame(stream: &mut impl Read) -> OrbResult<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(io_err("read frame length", e)),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(OrbError::Transport(format!("frame of {len} bytes refused")));
    }
    let mut body = vec![0u8; len as usize];
    stream
        .read_exact(&mut body)
        .map_err(|e| io_err("read frame body", e))?;
    Ok(Some(body))
}

// ---- server side -----------------------------------------------------------

/// A running accept loop: the address it listens on and its thread.
#[derive(Debug)]
pub(crate) struct Listener {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl Listener {
    /// Wakes the accept loop, blocked in `accept`, with a connection to
    /// its own address, so that it sees its orb draining or gone and
    /// exits (closing the listening socket). Returns the thread, for a
    /// caller that wants to wait for that.
    pub(crate) fn wake(self) -> std::thread::JoinHandle<()> {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        self.thread
    }
}

/// How long waking an accept loop may wait for its own connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Starts a listener for `core` on `addr`; returns the bound address.
///
/// The accept loop blocks in `accept` on a thread holding only a
/// [`Weak`] reference; [`Orb::shutdown`](crate::Orb::shutdown) and
/// dropping the orb wake it (see [`Listener::wake`]) and it exits.
pub(crate) fn listen(core: &Arc<OrbCore>, addr: &str) -> OrbResult<SocketAddr> {
    let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", e))?;
    let local = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
    let weak = Arc::downgrade(core);
    let thread = std::thread::Builder::new()
        .name(format!("orb-accept-{local}"))
        .spawn(move || accept_loop(listener, weak))
        .map_err(|e| OrbError::Transport(format!("spawn accept thread: {e}")))?;
    core.listeners.lock().push(Listener {
        addr: local,
        thread,
    });
    Ok(local)
}

fn accept_loop(listener: TcpListener, weak: Weak<OrbCore>) {
    loop {
        let accepted = listener.accept();
        // Exit when the orb is gone *or* draining: a shutting-down node
        // stops accepting new connections first.
        let Some(core) = weak.upgrade().filter(|core| core.is_running()) else {
            return;
        };
        match accepted {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let conn_weak = weak.clone();
                let _ = std::thread::Builder::new()
                    .name("orb-conn".to_owned())
                    .spawn(move || serve_connection(stream, conn_weak));
            }
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED…)
                // must not permanently kill the listener: count, back
                // off, keep accepting.
                registry()
                    .counter(&format!("orb.{}.tcp.accept.errors", core.node))
                    .incr();
                drop(core);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// One queued server-side job: the decoded request plus whether a reply
/// frame must be written back.
type Job = (RequestBody, bool);

fn serve_connection(stream: TcpStream, weak: Weak<OrbCore>) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut stream = BufReader::new(stream);
    let (tx, rx) = unbounded::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let workers = Arc::new(AtomicUsize::new(0));
    let idle = Arc::new(AtomicUsize::new(0));
    // Jobs accepted but not yet picked up by a worker; bounding it (per
    // `OrbOptions::max_conn_queue`) is what keeps a request storm from
    // queueing without limit behind slow servants.
    let queued = Arc::new(AtomicUsize::new(0));
    let mut depth_gauge: Option<Gauge> = None;
    let mut shed_counter = None;
    loop {
        let Ok(Some(body)) = read_frame(&mut stream) else {
            return; // worker channel closes with `tx`, draining the pool
        };
        let Some(core) = weak.upgrade() else { return };
        core.count_bytes_in(4 + body.len());
        let Ok(msg) = Message::decode(&body) else {
            return; // protocol violation: drop the connection
        };
        let job = match msg {
            Message::Request(req) => (req, true),
            Message::Oneway(req) => (req, false),
            Message::Reply(_) => return, // clients never push replies
        };
        // Shed before admission when this connection's queue is full:
        // the job never starts, so the error is retryable.
        if queued.load(Ordering::Acquire) >= core.options.max_conn_queue {
            shed_counter
                .get_or_insert_with(|| {
                    registry().counter(&format!("orb.{}.tcp.server.shed", core.node))
                })
                .incr();
            if job.1 {
                let reply = Message::Reply(ReplyBody {
                    id: job.0.id,
                    outcome: Err(OrbError::TransientOverload.to_string()),
                })
                .encode_frame();
                core.count_bytes_out(reply.len());
                if send_frame(&mut writer.lock(), &reply).is_err() {
                    return;
                }
            }
            continue;
        }
        // A draining or node-wide-overloaded orb refuses the dispatch
        // up front, waking the caller with a retryable error instead of
        // letting it block until its deadline.
        let refusal = match core.begin_dispatch() {
            crate::orb::DispatchDecision::Admitted => None,
            crate::orb::DispatchDecision::ShuttingDown => Some(OrbError::ShuttingDown),
            crate::orb::DispatchDecision::Overloaded => Some(OrbError::TransientOverload),
        };
        if let Some(err) = refusal {
            if job.1 {
                let reply = Message::Reply(ReplyBody {
                    id: job.0.id,
                    outcome: Err(err.to_string()),
                })
                .encode_frame();
                core.count_bytes_out(reply.len());
                if send_frame(&mut writer.lock(), &reply).is_err() {
                    return;
                }
            }
            continue;
        }
        let max_workers = core.options.max_conn_workers;
        let gauge = depth_gauge.get_or_insert_with(|| {
            registry().gauge(&format!("orb.{}.tcp.server.queue_depth", core.node))
        });
        drop(core);
        // Reserve a waiting worker for this job, or grow the pool; only
        // this dispatcher decrements `idle`, and a worker re-enters it
        // strictly after finishing a job, so a reservation always names
        // a worker that is (or is about to be) blocked on the queue.
        // Replies are written in completion order through the shared
        // writer, so a slow servant cannot head-of-line-block the
        // connection. At the worker cap the job simply queues.
        if idle.load(Ordering::Acquire) > 0 {
            idle.fetch_sub(1, Ordering::AcqRel);
        } else if workers.load(Ordering::Acquire) < max_workers {
            workers.fetch_add(1, Ordering::AcqRel);
            spawn_conn_worker(
                rx.clone(),
                writer.clone(),
                weak.clone(),
                workers.clone(),
                idle.clone(),
                queued.clone(),
            );
        }
        queued.fetch_add(1, Ordering::AcqRel);
        gauge.add(1);
        if tx.send(job).is_err() {
            return;
        }
    }
}

fn spawn_conn_worker(
    rx: Arc<Mutex<Receiver<Job>>>,
    writer: Arc<Mutex<TcpStream>>,
    weak: Weak<OrbCore>,
    workers: Arc<AtomicUsize>,
    idle: Arc<AtomicUsize>,
    queued: Arc<AtomicUsize>,
) {
    let workers_for_thread = workers.clone();
    let spawned = std::thread::Builder::new()
        .name("orb-conn-worker".to_owned())
        .spawn(move || {
            let workers = workers_for_thread;
            let mut inflight: Option<Gauge> = None;
            let mut depth: Option<Gauge> = None;
            loop {
                // The dispatcher already accounted for this worker —
                // either by spawning it for the job or by reserving it
                // out of `idle` — so no idle bookkeeping around the
                // blocking receive itself.
                let job = rx.lock().recv();
                let Ok((req, needs_reply)) = job else { break };
                let Some(core) = weak.upgrade() else { break };
                queued.fetch_sub(1, Ordering::AcqRel);
                depth
                    .get_or_insert_with(|| {
                        registry().gauge(&format!("orb.{}.tcp.server.queue_depth", core.node))
                    })
                    .sub(1);
                let gauge = inflight.get_or_insert_with(|| {
                    registry().gauge(&format!("orb.{}.tcp.server.inflight", core.node))
                });
                gauge.add(1);
                let reply = core.serve(req);
                gauge.sub(1);
                if needs_reply {
                    let frame = Message::Reply(reply).encode_frame();
                    core.count_bytes_out(frame.len());
                    let wrote = send_frame(&mut writer.lock(), &frame);
                    // The dispatch (accepted in `serve_connection`)
                    // retires only after its reply is flushed, so a
                    // draining orb never strands an accepted caller.
                    core.end_dispatch();
                    if wrote.is_err() {
                        break;
                    }
                } else {
                    core.end_dispatch();
                }
                // Job done: rejoin the waiting pool. This must come
                // after the reply write so a reserved worker can never
                // exit between reservation and pickup.
                idle.fetch_add(1, Ordering::AcqRel);
            }
            workers.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        workers.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---- client side -----------------------------------------------------------

/// Mutable state shared between a connection's writers and its reader
/// thread, all behind one lock so liveness checks and entry updates are
/// atomic.
#[derive(Default)]
struct PendingState {
    /// False once the reader declared the connection dead.
    alive: bool,
    /// Request id → reply slot of the caller awaiting it.
    entries: HashMap<u64, Sender<ReplyBody>>,
    /// Ids whose caller gave up (deadline); their late replies are
    /// discarded instead of being treated as desynchronization.
    abandoned: HashSet<u64>,
    /// Why the connection died.
    death: Option<Death>,
}

/// Why a client connection died. The cause decides the error its
/// callers get; the text is for messages only.
#[derive(Debug, Clone)]
pub(crate) enum Death {
    /// This side's orb is shutting down: callers get the retryable
    /// [`OrbError::ShuttingDown`].
    Shutdown,
    /// The connection failed: callers get [`OrbError::Transport`].
    Failed(String),
}

impl std::fmt::Display for Death {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Death::Shutdown => write!(f, "orb is shutting down"),
            Death::Failed(reason) => write!(f, "{reason}"),
        }
    }
}

/// A multiplexed client connection: shared writer + reader thread +
/// pending-reply table. Cheap to share; the pool hands out clones of
/// the `Arc` and concurrent invocations pipeline on the one socket.
pub(crate) struct MuxConnection {
    writer: Mutex<TcpStream>,
    state: Arc<Mutex<PendingState>>,
    /// `orb.<node>.tcp.client.inflight` — calls awaiting a reply.
    inflight: Gauge,
    /// `orb.<node>.tcp.client.pipeline_depth` — pending entries on the
    /// most recently used connection (a high-water mark of pipelining).
    depth: Gauge,
}

impl MuxConnection {
    fn is_alive(&self) -> bool {
        self.state.lock().alive
    }

    fn death(&self) -> Death {
        self.state
            .lock()
            .death
            .clone()
            .unwrap_or_else(|| Death::Failed("connection closed".to_owned()))
    }

    /// Reserves a reply slot for `id`; `None` when the connection is
    /// already dead (the caller should evict and retry on a fresh one).
    fn register(&self, id: u64) -> Option<(Receiver<ReplyBody>, usize)> {
        let (tx, rx) = bounded(1);
        let mut st = self.state.lock();
        if !st.alive {
            return None;
        }
        st.entries.insert(id, tx);
        Some((rx, st.entries.len()))
    }

    /// Abandons a pending call whose deadline expired: only that entry
    /// fails; the connection stays usable and the late reply will be
    /// discarded on arrival instead of desynchronizing the stream.
    fn forget(&self, id: u64) {
        let mut st = self.state.lock();
        if st.entries.remove(&id).is_some() {
            st.abandoned.insert(id);
        }
    }

    /// Declares the connection dead: fails every pending caller (their
    /// senders drop, so receivers disconnect) and wakes the reader by
    /// shutting the socket down.
    pub(crate) fn kill(&self, death: Death) {
        {
            let mut st = self.state.lock();
            if st.alive {
                st.alive = false;
                st.death = Some(death);
            }
            st.entries.clear();
            st.abandoned.clear();
        }
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        // Wakes the reader thread (which holds only a `Weak` to this
        // connection) so it exits instead of blocking forever.
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }
}

fn connect(core: &Arc<OrbCore>, addr: &str) -> OrbResult<Arc<MuxConnection>> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    let _ = stream.set_nodelay(true);
    let reader_stream = stream
        .try_clone()
        .map_err(|e| io_err("clone stream for reader", e))?;
    let state = Arc::new(Mutex::new(PendingState {
        alive: true,
        ..PendingState::default()
    }));
    let conn = Arc::new(MuxConnection {
        writer: Mutex::new(stream),
        state: state.clone(),
        inflight: registry().gauge(&format!("orb.{}.tcp.client.inflight", core.node)),
        depth: registry().gauge(&format!("orb.{}.tcp.client.pipeline_depth", core.node)),
    });
    let weak_core = Arc::downgrade(core);
    let weak_conn = Arc::downgrade(&conn);
    let reader_addr = addr.to_owned();
    std::thread::Builder::new()
        .name(format!("orb-mux-reader-{addr}"))
        .spawn(move || reader_loop(reader_stream, state, weak_core, weak_conn, reader_addr))
        .map_err(|e| OrbError::Transport(format!("spawn reader thread: {e}")))?;
    Ok(conn)
}

/// Routes incoming reply frames to their pending callers until the
/// connection dies; then fails every pending caller and evicts the
/// connection from the pool.
fn reader_loop(
    stream: TcpStream,
    state: Arc<Mutex<PendingState>>,
    weak_core: Weak<OrbCore>,
    weak_conn: Weak<MuxConnection>,
    addr: String,
) {
    let mut stream = BufReader::new(stream);
    let reason = loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            Ok(None) => break "connection closed by peer".to_owned(),
            Err(e) => break e.to_string(),
        };
        if let Some(core) = weak_core.upgrade() {
            core.count_bytes_in(4 + body.len());
        }
        let reply = match Message::decode(&body) {
            Ok(Message::Reply(reply)) => reply,
            Ok(_) => break "server pushed a non-reply frame".to_owned(),
            Err(e) => break format!("undecodable reply frame: {e}"),
        };
        let id = reply.id;
        let routed = {
            let mut st = state.lock();
            if let Some(tx) = st.entries.remove(&id) {
                let _ = tx.send(reply);
                true
            } else {
                // A deadline-abandoned call's late reply: discard.
                st.abandoned.remove(&id)
            }
        };
        if !routed {
            // An id that routes nowhere means the stream is
            // desynchronized; killing the connection here guarantees
            // no later caller can read a stale reply as its own.
            break format!("unroutable reply id {id}: connection desynchronized");
        }
    };
    {
        let mut st = state.lock();
        if st.alive {
            st.alive = false;
            st.death = Some(Death::Failed(reason));
        }
        st.entries.clear();
        st.abandoned.clear();
    }
    if let (Some(core), Some(conn)) = (weak_core.upgrade(), weak_conn.upgrade()) {
        evict_if_current(&core, &addr, &conn);
    }
}

/// Removes `conn` from the pool — but only if it is still the pooled
/// entry for `addr` (a replacement connection must survive).
fn evict_if_current(core: &OrbCore, addr: &str, conn: &Arc<MuxConnection>) {
    let mut pool = core.tcp_pool.lock();
    if pool.get(addr).is_some_and(|c| Arc::ptr_eq(c, conn)) {
        pool.remove(addr);
    }
}

fn pooled_connection(core: &Arc<OrbCore>, addr: &str) -> OrbResult<Arc<MuxConnection>> {
    if let Some(conn) = core.tcp_pool.lock().get(addr) {
        if conn.is_alive() {
            return Ok(conn.clone());
        }
    }
    // Connect outside the pool lock; on a race, prefer whichever live
    // connection landed in the pool (the loser is dropped, shutting its
    // socket down and stopping its reader).
    let conn = connect(core, addr)?;
    let mut pool = core.tcp_pool.lock();
    match pool.get(addr) {
        Some(existing) if existing.is_alive() => Ok(existing.clone()),
        _ => {
            pool.insert(addr.to_owned(), conn.clone());
            Ok(conn)
        }
    }
}

/// Sends the request `frame` to `addr`; for a two-way request (with
/// `expected_id`), waits up to `deadline` for the matching reply
/// (correlated by request id, so any number of calls may be in flight
/// on the connection at once). The stream lock is held only for the
/// write; the wait for the reply happens off-lock.
///
/// A stale pooled connection is evicted and retried once — but only when
/// the failure happened before any byte of the request could have been
/// executed remotely (registration or the initial write), never
/// mid-reply. A deadline expiry fails just this call.
pub(crate) fn invoke(
    core: &Arc<OrbCore>,
    addr: &str,
    frame: &[u8],
    expected_id: Option<u64>,
    deadline: Duration,
) -> OrbResult<Option<ReplyBody>> {
    let mut last_err = None;
    for _attempt in 0..2 {
        let conn = pooled_connection(core, addr)?;
        let registered = match expected_id {
            Some(id) => match conn.register(id) {
                Some(slot) => Some(slot),
                None => {
                    evict_if_current(core, addr, &conn);
                    last_err = Some(OrbError::Transport(conn.death().to_string()));
                    continue;
                }
            },
            None => None,
        };
        if let Err(e) = send_frame(&mut conn.writer.lock(), frame) {
            // A partial write leaves the stream unusable for everyone:
            // fail all pending callers and retry this request once on a
            // fresh connection.
            conn.kill(Death::Failed("request write failed".into()));
            evict_if_current(core, addr, &conn);
            last_err = Some(e);
            continue;
        }
        core.count_bytes_out(frame.len());
        let Some((rx, depth)) = registered else {
            return Ok(None); // oneway: fire and forget
        };
        conn.depth.set(depth as i64);
        conn.inflight.add(1);
        let out = match rx.recv_timeout(deadline) {
            Ok(reply) => Ok(Some(reply)),
            Err(RecvTimeoutError::Timeout) => {
                let id = expected_id.expect("two-way call has an id");
                conn.forget(id);
                Err(OrbError::DeadlineExpired { after: deadline })
            }
            Err(RecvTimeoutError::Disconnected) => match conn.death() {
                // Our own orb tore the pool down mid-call.
                Death::Shutdown => Err(OrbError::ShuttingDown),
                Death::Failed(reason) => Err(OrbError::Transport(format!(
                    "connection lost while awaiting reply: {reason}"
                ))),
            },
        };
        conn.inflight.sub(1);
        return out;
    }
    Err(last_err.unwrap_or_else(|| OrbError::Transport("tcp invoke failed".into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ServantFn;
    use crate::orb::Orb;
    use adapta_idl::Value;

    fn echo_orb(name: &str) -> (Orb, String) {
        let orb = Orb::new(name);
        orb.activate(
            "echo",
            ServantFn::new("Echo", |op, args| {
                if op == "boom" {
                    return Err(OrbError::exception("kapow"));
                }
                Ok(Value::Seq(args))
            }),
        )
        .unwrap();
        let endpoint = orb.listen_tcp("127.0.0.1:0").unwrap();
        (orb, endpoint)
    }

    #[test]
    fn tcp_round_trip() {
        let (_server, endpoint) = echo_orb("t-tcp-server");
        let client = Orb::new("t-tcp-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        let out = client
            .invoke_ref(&target, "echo", vec![Value::from(1i64), Value::from("x")])
            .unwrap();
        assert_eq!(out, Value::Seq(vec![Value::from(1i64), Value::from("x")]));
    }

    #[test]
    fn tcp_remote_exception() {
        let (_server, endpoint) = echo_orb("t-tcp-exc");
        let client = Orb::new("t-tcp-exc-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        let err = client.invoke_ref(&target, "boom", vec![]).unwrap_err();
        assert!(matches!(err, OrbError::RemoteException { message } if message.contains("kapow")));
    }

    #[test]
    fn tcp_oneway_is_served() {
        let (server, endpoint) = echo_orb("t-tcp-oneway");
        let client = Orb::new("t-tcp-oneway-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        client.invoke_oneway_ref(&target, "echo", vec![]).unwrap();
        for _ in 0..300 {
            if server.stats().requests_served >= 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("oneway never served over tcp");
    }

    #[test]
    fn tcp_connection_is_pooled_and_reused() {
        let (_server, endpoint) = echo_orb("t-tcp-pool");
        let client = Orb::new("t-tcp-pool-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        for i in 0..10i64 {
            let out = client
                .invoke_ref(&target, "echo", vec![Value::from(i)])
                .unwrap();
            assert_eq!(out, Value::Seq(vec![Value::from(i)]));
        }
    }

    /// A raw listener that accepts one connection and never replies.
    /// It reports when the request arrived, then either drops the
    /// connection (`hang_up`) or holds it until the client closes it.
    fn silent_server(hang_up: bool) -> (String, Receiver<()>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (arrived_tx, arrived) = bounded(1);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
            let _ = arrived_tx.send(());
            while !hang_up && stream.read(&mut buf).is_ok_and(|n| n > 0) {}
        });
        (format!("tcp://{addr}"), arrived, server)
    }

    #[test]
    fn a_blocked_caller_learns_why_its_connection_died() {
        // Its own orb shuts down: the retryable `ShuttingDown`.
        let client = Orb::new("t-tcp-death-own");
        let (endpoint, arrived, server) = silent_server(false);
        let target = crate::ObjRef::new(endpoint, "x", "X");
        let caller = {
            let client = client.clone();
            std::thread::spawn(move || client.invoke_ref(&target, "slow", vec![]))
        };
        arrived.recv().unwrap();
        client.shutdown(Duration::from_millis(100));
        let err = caller.join().unwrap().unwrap_err();
        assert!(matches!(err, OrbError::ShuttingDown), "{err:?}");
        server.join().unwrap();

        // The server drops the connection: `Transport`.
        let client = Orb::new("t-tcp-death-peer");
        let (endpoint, _, server) = silent_server(true);
        let target = crate::ObjRef::new(endpoint, "x", "X");
        let err = client.invoke_ref(&target, "slow", vec![]).unwrap_err();
        assert!(matches!(err, OrbError::Transport(_)), "{err:?}");
        server.join().unwrap();
    }

    #[test]
    fn connect_to_dead_endpoint_fails() {
        let client = Orb::new("t-tcp-dead-client");
        let target = crate::ObjRef::new("tcp://127.0.0.1:1", "echo", "Echo");
        assert!(matches!(
            client.invoke_ref(&target, "echo", vec![]),
            Err(OrbError::Transport(_))
        ));
    }

    #[test]
    fn server_survives_garbage_frames() {
        let (_server, endpoint) = echo_orb("t-tcp-garbage");
        let addr = endpoint.strip_prefix("tcp://").unwrap();
        // Throw garbage at the server on one connection…
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&7u32.to_le_bytes()).unwrap();
        bad.write_all(b"garbage").unwrap();
        // …and check a well-behaved client still gets service.
        let client = Orb::new("t-tcp-garbage-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        let out = client.invoke_ref(&target, "echo", vec![]).unwrap();
        assert_eq!(out, Value::Seq(vec![]));
    }

    /// Shutdown wakes the accept loop blocked in `accept`: its thread
    /// exits, closing the listening socket, so the port refuses new
    /// connections.
    #[test]
    fn shutdown_stops_the_blocking_accept_loop() {
        let (server, endpoint) = echo_orb("t-tcp-accept-stop");
        let addr = endpoint.strip_prefix("tcp://").unwrap().to_owned();
        let client = Orb::new("t-tcp-accept-stop-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        client.invoke_ref(&target, "echo", vec![]).unwrap();
        assert!(server.shutdown(Duration::from_secs(2)));
        let err = TcpStream::connect(&addr).expect_err("listener still accepting");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    /// Dropping the orb stops its accept loop the same way.
    #[test]
    fn dropping_the_orb_stops_the_blocking_accept_loop() {
        let (server, endpoint) = echo_orb("t-tcp-accept-drop");
        let addr = endpoint.strip_prefix("tcp://").unwrap().to_owned();
        drop(server);
        // The loop exits on its own thread once woken; allow it a moment.
        // Binding the port probes for the listening socket without
        // connecting, which would wake the loop itself.
        for _ in 0..200 {
            if TcpListener::bind(&addr).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("listener still open after the orb was dropped");
    }

    /// Regression for the desync bug: a reply whose id routes nowhere
    /// must kill *and evict* the connection, so the next caller gets a
    /// fresh socket instead of someone else's stale reply.
    #[test]
    fn mismatched_reply_id_evicts_the_desynchronized_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A misbehaving server: the first connection's first request is
        // answered with the wrong id; later connections behave.
        std::thread::spawn(move || {
            let mut first = true;
            while let Ok((mut stream, _)) = listener.accept() {
                let corrupt = first;
                first = false;
                while let Ok(Some(body)) = read_frame(&mut stream) {
                    let Ok(Message::Request(req)) = Message::decode(&body) else {
                        break;
                    };
                    let id = if corrupt { req.id + 1000 } else { req.id };
                    let reply = Message::Reply(ReplyBody {
                        id,
                        outcome: Ok(Value::Long(7)),
                    })
                    .encode();
                    if write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                }
            }
        });
        let client = Orb::new("t-tcp-desync-client");
        let target = crate::ObjRef::new(format!("tcp://{addr}"), "echo", "Echo");
        let err = client.invoke_ref(&target, "echo", vec![]).unwrap_err();
        assert!(
            matches!(&err, OrbError::Transport(m) if m.contains("unroutable")
                || m.contains("connection lost")),
            "unexpected error: {err}"
        );
        // The poisoned connection was evicted: the retry below runs on
        // a fresh socket and gets its own (correct) reply.
        let out = client.invoke_ref(&target, "echo", vec![]).unwrap();
        assert_eq!(out, Value::Long(7));
    }

    /// Concurrent two-way calls share the one pooled connection and
    /// pipeline instead of serializing on a per-round-trip lock.
    #[test]
    fn concurrent_calls_pipeline_on_one_connection() {
        let (_server, endpoint) = echo_orb("t-tcp-mux");
        let client = Orb::new("t-tcp-mux-client");
        let target = crate::ObjRef::new(endpoint, "echo", "Echo");
        client.invoke_ref(&target, "echo", vec![]).unwrap(); // warm the pool
        let mut handles = Vec::new();
        for i in 0..8i64 {
            let client = client.clone();
            let target = target.clone();
            handles.push(std::thread::spawn(move || {
                client
                    .invoke_ref(&target, "echo", vec![Value::from(i)])
                    .unwrap()
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), Value::Seq(vec![Value::from(i as i64)]));
        }
    }
}
