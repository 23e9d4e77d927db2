//! The TCP transport: length-prefixed frames, one *multiplexed*
//! connection per remote endpoint, a listener thread per serving orb.
//!
//! ## Client side
//!
//! Each pooled connection (`MuxConnection`) keeps a pending-reply
//! table keyed by the request id that is already on the wire in every
//! [`Message::Request`]. Writers take the write lock only for the frame
//! write, so N concurrent invocations of the same endpoint pipeline on
//! one socket and complete in roughly the latency of a single call
//! instead of their sum.
//!
//! There is no reader thread: the callers read their replies themselves
//! (the *leader/followers* wait strategy). One waiting caller at a
//! time, the leader, reads frames from the socket. It keeps its own
//! reply, and puts any other caller's reply in that caller's slot and
//! unparks it; followers park until their reply is in their slot. The
//! leader steps down when its reply arrives, when its deadline passes
//! or on an error, and unparks a follower to lead next. A reply thus
//! reaches its caller without a hand-off between threads when the
//! caller is the leader, which it is whenever it is alone on its
//! connection. The connection's frame reader outlives its leaders: a
//! leader that times out in the middle of a frame leaves the bytes it
//! read for the next one.
//!
//! A per-call deadline fails just that call — a slow reply never
//! poisons the connection for other callers. A reply whose id routes
//! nowhere (not pending, not abandoned by a deadline) means the stream
//! is desynchronized: the connection is killed and evicted so no later
//! caller can read a stale reply as its own. With no reader thread to
//! notice a peer that closed an idle connection, the caller that finds
//! no leader checks for that close, without blocking, before it writes,
//! and retries on a fresh connection: nothing was sent, so nothing can
//! run twice.
//!
//! ## Server side
//!
//! Each accepted connection is served by its own small crew of
//! threads, with the same *leader/followers* pattern. The thread
//! holding the connection's frame reader, the leader, reads one
//! request and admits it, passes the lead to a waiting follower
//! (spawning one on demand, up to `max_conn_workers`) and serves the
//! request itself, writing the reply in completion order. It then
//! rejoins the followers, who wait on a condition variable for the
//! lead. A servant that panics fails only its call, with a
//! non-retryable exception. A request is thus served on the thread that
//! read it, and one slow servant does not head-of-line block the
//! requests pipelined behind it. When every other thread is serving
//! and no more may be spawned, the leader keeps reading: it queues
//! what it reads, shedding past `max_conn_queue`, and a thread that
//! finishes serving takes queued requests before the lead. Dropping
//! the orb shuts its accepted connections down, so their threads exit.
//!
//! The wire protocol is unchanged: request ids were already carried by
//! every frame, multiplexing only starts using them for correlation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::OrbError;
use crate::message::{IncomingRequest, Message, QueuedRequest, ReplyBody};
use crate::orb::{Dispatch, OrbCore};
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
fn send_frame(mut stream: &TcpStream, frame: &[u8]) -> OrbResult<()> {
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

/// Reads one frame's body into a fresh buffer; `None` at a clean end of
/// stream. Scripted peers in tests use it; connections read through a
/// [`FrameReader`].
#[cfg(test)]
fn read_frame(stream: &mut impl Read) -> OrbResult<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
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

/// A connection's frame buffer starts at this size, so one `read`
/// takes in every small frame already queued on the socket.
const READ_BUF: usize = 8 * 1024;

/// A frame buffer grown past this for a large frame is shrunk back to
/// [`READ_BUF`] once it holds no unread bytes, so one big message does
/// not pin its size for the life of the connection.
const RETAINED_READ_BUF: usize = 64 * 1024;

/// A resumable reader of length-prefixed frames: one buffer per
/// connection, kept from frame to frame (and, on the client, from one
/// leader to the next). A read that fails in the middle of a frame, a
/// timeout say, keeps the bytes read so far; the next call resumes
/// there. A frame's body is returned in place, with no copy.
struct FrameReader {
    buf: Vec<u8>,
    /// Start of the bytes not yet returned.
    head: usize,
    /// End of the bytes read from the socket.
    tail: usize,
    /// The read timeout last set on the socket, if any.
    timeout: Option<Duration>,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; READ_BUF],
            head: 0,
            tail: 0,
            timeout: None,
        }
    }

    /// Bounds the socket's next read by `remaining`. The timeout set
    /// last is kept while it lies between half of `remaining` and all
    /// of it; otherwise the largest power-of-two milliseconds within
    /// `remaining` is set (`remaining` itself when under 1 ms). No read
    /// waits past its deadline, and calls with like deadlines on one
    /// connection leave the timeout alone.
    fn bound_read(&mut self, stream: &TcpStream, remaining: Duration) -> std::io::Result<()> {
        if self
            .timeout
            .is_some_and(|set| set <= remaining && set >= remaining / 2)
        {
            return Ok(());
        }
        let ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
        let timeout = match ms {
            0 => remaining,
            ms => Duration::from_millis(1 << (63 - ms.leading_zeros())),
        };
        self.timeout = None;
        stream.set_read_timeout(Some(timeout))?;
        self.timeout = Some(timeout);
        Ok(())
    }

    /// Returns the next frame's body; `None` at a clean end of stream
    /// (between frames). When the buffer holds no whole frame, it reads
    /// from `stream`, giving up at `until` (`None`: never) with a
    /// `TimedOut` error.
    fn next_frame(
        &mut self,
        mut stream: &TcpStream,
        until: Option<Instant>,
    ) -> std::io::Result<Option<&[u8]>> {
        loop {
            let unread = self.tail - self.head;
            let want = if unread < 4 {
                4
            } else {
                let prefix = &self.buf[self.head..self.head + 4];
                let len = u32::from_le_bytes(prefix.try_into().expect("four bytes"));
                if len > MAX_FRAME {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("frame of {len} bytes refused"),
                    ));
                }
                let total = 4 + len as usize;
                if unread >= total {
                    let body = self.head + 4..self.head + total;
                    self.head += total;
                    return Ok(Some(&self.buf[body]));
                }
                total
            };
            self.make_room(want);
            if let Some(until) = until {
                let remaining = until.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ErrorKind::TimedOut.into());
                }
                self.bound_read(stream, remaining)?;
            }
            match stream.read(&mut self.buf[self.tail..]) {
                Ok(0) if self.head == self.tail => return Ok(None),
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed in the middle of a frame",
                    ))
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A timed-out read: the loop gives up once `until` has
                // really passed.
                Err(e)
                    if until.is_some()
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Makes room after the unread bytes for a frame of `want` bytes,
    /// its length prefix included.
    fn make_room(&mut self, want: usize) {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > RETAINED_READ_BUF && want <= READ_BUF {
                self.buf.truncate(READ_BUF);
                self.buf.shrink_to_fit();
            }
        }
        if self.buf.len() - self.head >= want {
            return;
        }
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
    }
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

/// A node's accepted connections. A connection thread blocked in
/// `read` holds only a [`Weak`] reference to its orb, so without this
/// it would go on serving, and keep its threads, for as long as the
/// peer keeps the socket open after the orb is dropped.
#[derive(Default)]
pub(crate) struct Accepted(Vec<Weak<ServerConn>>);

impl Accepted {
    /// Shuts every accepted connection down; their threads see the end
    /// of the stream and exit.
    pub(crate) fn close_all(&mut self) {
        for conn in self.0.drain(..).filter_map(|conn| conn.upgrade()) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

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
                let conn = Arc::new(ServerConn {
                    stream,
                    writer: Mutex::new(()),
                    crew: Mutex::new(Crew {
                        lead: Some(FrameReader::new()),
                        ..Crew::default()
                    }),
                    turn: Condvar::new(),
                    core: weak.clone(),
                });
                let mut accepted = core.accepted.lock();
                // Forget the connections closed since the last accept.
                accepted.0.retain(|conn| conn.strong_count() > 0);
                accepted.0.push(Arc::downgrade(&conn));
                drop(accepted);
                conn.spawn();
            }
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED…)
                // must not permanently kill the listener: count, back
                // off, keep accepting.
                core.stats.tcp_accept_errors.incr();
                drop(core);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// An accepted connection, served by its own threads with the
/// *leader/followers* pattern: the thread holding the lead reads and
/// admits one request, hands the lead to a follower and serves the
/// request itself, then rejoins as a follower.
struct ServerConn {
    /// Read by the leader; written under `writer`.
    stream: TcpStream,
    writer: Mutex<()>,
    crew: Mutex<Crew>,
    /// Followers wait here for the lead, or for the connection to
    /// close.
    turn: Condvar,
    core: Weak<OrbCore>,
}

/// A request and its admission, which holds the node until the
/// request has been served and its reply flushed.
type Admitted = (QueuedRequest, Dispatch);

/// Who is doing what on a connection.
#[derive(Default)]
struct Crew {
    /// Threads on the connection, at most `max_conn_workers + 1`.
    threads: usize,
    /// Threads serving a request; the others lead or wait to.
    serving: usize,
    /// Admitted requests that found every thread but the leader
    /// serving, at most `max_conn_queue`.
    queued: VecDeque<Admitted>,
    /// The lead: the frame buffer, taken out by the thread that leads
    /// and put back when it hands the lead on.
    lead: Option<FrameReader>,
    /// The connection ended: threads waiting for the lead exit.
    closed: bool,
}

impl ServerConn {
    /// Starts a thread on the connection. Only the leader, or the
    /// accept loop before there is one, changes or reads `threads`.
    fn spawn(self: &Arc<Self>) {
        self.crew.lock().threads += 1;
        let conn = self.clone();
        let spawned = std::thread::Builder::new()
            .name("orb-conn".to_owned())
            .spawn(move || conn.follow());
        if spawned.is_err() {
            // No one reads until the spawning leader has served.
            self.crew.lock().threads -= 1;
        }
    }

    /// A connection thread: waits for the lead, serves what it admitted
    /// and what queued meanwhile, and again, until the connection
    /// closes. A waiting follower sleeps on `turn`; it does not spin on
    /// a lock the leader holds across its blocking read.
    fn follow(self: Arc<Self>) {
        loop {
            let frames = {
                let mut crew = self.crew.lock();
                loop {
                    if crew.closed {
                        return;
                    }
                    if let Some(frames) = crew.lead.take() {
                        break frames;
                    }
                    crew = self.turn.wait(crew).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(job) = self.admit(frames) else {
                self.crew.lock().closed = true;
                self.turn.notify_all();
                return;
            };
            self.serve(job);
        }
    }

    /// Leads: reads frames until one is admitted for this thread to
    /// serve, then hands the lead to a follower (spawned if none waits).
    /// At the thread cap with every other thread serving, it queues or
    /// sheds what it reads instead. `None` when the connection ends,
    /// fails or breaks the protocol.
    fn admit(self: &Arc<Self>, mut frames: FrameReader) -> Option<Admitted> {
        loop {
            let Ok(Some(body)) = frames.next_frame(&self.stream, None) else {
                return None;
            };
            let core = self.core.upgrade()?;
            core.count_bytes_in(4 + body.len());
            // A malformed frame, or a reply (clients never push one), is
            // a protocol violation: drop the connection.
            let request = IncomingRequest::decode(body).ok()?;
            let mut crew = self.crew.lock();
            // A request is shed when the queue it would join is full,
            // and refused by a draining or node-wide-overloaded orb. It
            // never starts, so the caller is woken with a retryable
            // error instead of blocking until its deadline.
            let admitted = if crew.queued.len() >= core.options.max_conn_queue {
                core.stats.tcp_shed.incr();
                Err(OrbError::TransientOverload)
            } else {
                OrbCore::begin_dispatch(core.clone())
            };
            let dispatch = match admitted {
                Ok(dispatch) => dispatch,
                Err(refusal) => {
                    drop(crew);
                    if !request.oneway {
                        let reply = ReplyBody {
                            id: request.id,
                            outcome: Err(refusal),
                        };
                        self.reply(&core, reply).ok()?;
                    }
                    continue;
                }
            };
            let job = (request.into_queued(), dispatch);
            let spawn = crew.threads == crew.serving + 1; // no follower waits
            if spawn && crew.threads > core.options.max_conn_workers {
                crew.queued.push_back(job);
                core.stats.tcp_queue_depth.add(1);
                continue;
            }
            crew.serving += 1;
            crew.lead = Some(frames);
            drop(crew);
            self.turn.notify_one();
            if spawn {
                self.spawn();
            }
            return Some(job);
        }
    }

    /// Serves an admitted request, replying in completion order, then
    /// the requests queued meanwhile, and leaves the crew of serving
    /// threads. A servant that panics fails its call with a
    /// non-retryable `RemoteException` (it may have partly run) and
    /// costs the connection nothing.
    fn serve(&self, (mut request, mut dispatch): Admitted) {
        loop {
            let stats = &dispatch.stats;
            stats.tcp_inflight.add(1);
            let (id, needs_reply) = (request.id, !request.oneway);
            let reply = catch_unwind(AssertUnwindSafe(|| {
                request.with(|request| dispatch.serve(request))
            }))
            .unwrap_or_else(|panic| ReplyBody {
                id,
                outcome: Err(OrbError::exception(format!(
                    "servant panicked: {}",
                    panic_message(panic.as_ref())
                ))),
            });
            stats.tcp_inflight.sub(1);
            if needs_reply {
                let _ = self.reply(&dispatch, reply);
            }
            // The dispatch retires only after its reply is flushed, so
            // a draining orb never strands an accepted caller.
            drop(dispatch);
            let mut crew = self.crew.lock();
            let Some(next) = crew.queued.pop_front() else {
                crew.serving -= 1;
                return;
            };
            (request, dispatch) = next;
            dispatch.stats.tcp_queue_depth.sub(1);
        }
    }

    fn reply(&self, core: &OrbCore, reply: ReplyBody) -> OrbResult<()> {
        let frame = Message::Reply(reply).encode_frame();
        core.count_bytes_out(frame.len());
        let _writing = self.writer.lock();
        send_frame(&self.stream, &frame)
    }
}

/// The text a panic was raised with, if it was a string.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

// ---- client side -----------------------------------------------------------

/// A caller awaiting its reply: the thread to unpark, and the slot the
/// leader puts the reply in.
struct Waiter {
    thread: Thread,
    reply: Option<ReplyBody>,
}

/// Mutable state shared by a connection's callers, all behind one lock
/// so liveness checks, leadership and entry updates are atomic.
#[derive(Default)]
struct PendingState {
    /// False once the connection was declared dead.
    alive: bool,
    /// Whether a caller, the leader, is reading replies.
    reading: bool,
    /// Request id → the caller awaiting its reply.
    entries: HashMap<u64, Waiter>,
    /// Ids whose caller gave up (deadline); their late replies are
    /// discarded instead of being treated as desynchronization.
    abandoned: HashSet<u64>,
    /// Why the connection died.
    death: Option<Death>,
}

impl PendingState {
    fn death(&self) -> Death {
        self.death
            .clone()
            .unwrap_or_else(|| Death::Failed("connection closed".to_owned()))
    }

    /// The error of a caller whose connection died under it.
    fn lost(&self) -> OrbError {
        match self.death() {
            // Our own orb tore the pool down mid-call.
            Death::Shutdown => OrbError::ShuttingDown,
            Death::Failed(reason) => {
                OrbError::Transport(format!("connection lost while awaiting reply: {reason}"))
            }
        }
    }

    /// Abandons a pending call whose deadline expired: only that entry
    /// fails; the connection stays usable and the late reply will be
    /// discarded on arrival instead of desynchronizing the stream.
    fn forget(&mut self, id: u64) {
        if self.entries.remove(&id).is_some() {
            self.abandoned.insert(id);
        }
    }

    /// With no leader, unparks one caller still awaiting its reply, to
    /// lead next.
    fn wake_next(&self) {
        if !self.reading {
            if let Some(waiter) = self.entries.values().find(|w| w.reply.is_none()) {
                waiter.thread.unpark();
            }
        }
    }
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

/// How a leader's turn at reading ended.
enum Lead {
    /// Its own reply arrived.
    Replied(ReplyBody),
    /// Its deadline passed.
    TimedOut,
    /// The connection died.
    Failed,
}

/// A multiplexed client connection: one socket, a write lock, a frame
/// reader locked by the current leader, and the pending-reply table.
/// Cheap to share; the pool hands out clones of the `Arc` and
/// concurrent invocations pipeline on the one socket.
pub(crate) struct MuxConnection {
    /// Reads and writes go through `&TcpStream`: `writer` serializes
    /// the writes, `reader` the reads.
    stream: TcpStream,
    writer: Mutex<()>,
    /// The frame buffer; whoever holds it is the leader.
    reader: Mutex<FrameReader>,
    state: Mutex<PendingState>,
}

impl MuxConnection {
    fn is_alive(&self) -> bool {
        self.state.lock().alive
    }

    /// Reserves a reply slot for `id` (a two-way call) and, when no
    /// caller is reading, makes this caller the leader. Returns whether
    /// it leads, and the pending count; `None` when the connection is
    /// already dead (the caller should evict and retry on a fresh one).
    fn register(&self, id: Option<u64>) -> Option<(bool, usize)> {
        let mut st = self.state.lock();
        if !st.alive {
            return None;
        }
        let leads = !st.reading;
        st.reading = true;
        if let Some(id) = id {
            let thread = std::thread::current();
            st.entries.insert(
                id,
                Waiter {
                    thread,
                    reply: None,
                },
            );
        }
        Some((leads, st.entries.len()))
    }

    /// Ends a turn as leader that read nothing: a oneway caller's.
    fn step_down(&self) {
        let mut st = self.state.lock();
        st.reading = false;
        st.wake_next();
    }

    /// Whether the peer still has the connection open. With no leader
    /// reading, a close by the peer is seen only here. The caller holds
    /// both the reader and the writer lock, which the portable
    /// [`peek_now`] needs.
    fn peer_open(&self) -> bool {
        match peek_now(&self.stream) {
            Ok(n) => n > 0,
            Err(e) => e.kind() == ErrorKind::WouldBlock,
        }
    }

    /// Waits up to `deadline` for the reply to `id`: as the leader
    /// (from the start when `frames` is this caller's), or parked as a
    /// follower until the leader delivers the reply or steps down.
    fn await_reply<'a>(
        &'a self,
        core: &OrbCore,
        addr: &str,
        id: u64,
        mut frames: Option<MutexGuard<'a, FrameReader>>,
        deadline: Duration,
    ) -> OrbResult<ReplyBody> {
        let until = Instant::now() + deadline;
        loop {
            if let Some(mut reader) = frames.take() {
                let lead = self.lead(core, addr, &mut reader, id, until);
                drop(reader);
                let mut st = self.state.lock();
                st.reading = false;
                let out = match lead {
                    Lead::Replied(reply) => {
                        st.entries.remove(&id);
                        Ok(reply)
                    }
                    Lead::TimedOut => {
                        st.forget(id);
                        Err(OrbError::DeadlineExpired { after: deadline })
                    }
                    Lead::Failed => Err(st.lost()),
                };
                st.wake_next();
                return out;
            }
            let mut st = self.state.lock();
            let Some(waiter) = st.entries.get_mut(&id) else {
                return Err(st.lost()); // killed: every waiting entry failed
            };
            if let Some(reply) = waiter.reply.take() {
                st.entries.remove(&id);
                st.wake_next();
                return Ok(reply);
            }
            let now = Instant::now();
            if now >= until {
                st.forget(id);
                st.wake_next();
                return Err(OrbError::DeadlineExpired { after: deadline });
            }
            if !st.reading {
                st.reading = true;
                drop(st);
                frames = Some(self.reader.lock());
                continue;
            }
            drop(st);
            std::thread::park_timeout(until - now);
        }
    }

    /// Reads frames as the leader until this caller's reply arrives,
    /// `until` passes or the connection fails, putting other callers'
    /// replies in their slots. On failure it kills and evicts the
    /// connection.
    fn lead(
        &self,
        core: &OrbCore,
        addr: &str,
        frames: &mut FrameReader,
        id: u64,
        until: Instant,
    ) -> Lead {
        let reason = loop {
            let body = match frames.next_frame(&self.stream, Some(until)) {
                Ok(Some(body)) => body,
                Ok(None) => break "connection closed by peer".to_owned(),
                Err(e) if e.kind() == ErrorKind::TimedOut => return Lead::TimedOut,
                Err(e) => break format!("read reply frame: {e}"),
            };
            core.count_bytes_in(4 + body.len());
            let reply = match Message::decode(body) {
                Ok(Message::Reply(reply)) => reply,
                Ok(_) => break "server pushed a non-reply frame".to_owned(),
                Err(e) => break format!("undecodable reply frame: {e}"),
            };
            if reply.id == id {
                return Lead::Replied(reply);
            }
            let mut st = self.state.lock();
            if let Some(waiter) = st.entries.get_mut(&reply.id) {
                waiter.thread.unpark();
                waiter.reply = Some(reply);
            } else if !st.abandoned.remove(&reply.id) {
                // An id that routes nowhere (a deadline-abandoned
                // call's late reply is discarded above) means the
                // stream is desynchronized; killing the connection here
                // guarantees no later caller can read a stale reply as
                // its own.
                break format!(
                    "unroutable reply id {}: connection desynchronized",
                    reply.id
                );
            }
        };
        self.kill(Death::Failed(reason));
        evict_if_current(core, addr, self);
        Lead::Failed
    }

    /// Declares the connection dead: fails every caller still awaiting
    /// a reply (a reply already in its slot is still delivered), and
    /// shuts the socket down, which wakes a leader blocked in `read`.
    pub(crate) fn kill(&self, death: Death) {
        {
            let mut st = self.state.lock();
            if st.alive {
                st.alive = false;
                st.death = Some(death);
            }
            st.entries.retain(|_, waiter| {
                waiter.thread.unpark();
                waiter.reply.is_some()
            });
            st.abandoned.clear();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Peeks at one byte of `stream` without blocking and without
/// consuming it: `Ok(0)` at the end of the stream, `WouldBlock` when
/// nothing is queued. One `recv(MSG_PEEK | MSG_DONTWAIT)` system call.
#[cfg(target_os = "linux")]
fn peek_now(stream: &TcpStream) -> std::io::Result<usize> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;

    const MSG_PEEK: c_int = 0x02;
    const MSG_DONTWAIT: c_int = 0x40;
    extern "C" {
        fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    }
    let mut byte = 0u8;
    // SAFETY: the descriptor is the open socket `stream` owns for the
    // whole call, and `buf` points to one writable byte, the length
    // passed. With these flags `recv` neither blocks nor changes the
    // socket's mode or its queued bytes.
    let peeked = unsafe {
        recv(
            stream.as_raw_fd(),
            std::ptr::addr_of_mut!(byte).cast(),
            1,
            MSG_PEEK | MSG_DONTWAIT,
        )
    };
    usize::try_from(peeked).map_err(|_| std::io::Error::last_os_error())
}

/// Peeks at one byte of `stream` without blocking and without
/// consuming it. Non-blocking mode belongs to the socket, so the caller
/// must hold both the reader and the writer lock: a concurrent blocking
/// read or write would see `WouldBlock` too.
#[cfg(not(target_os = "linux"))]
fn peek_now(stream: &TcpStream) -> std::io::Result<usize> {
    stream.set_nonblocking(true)?;
    let peeked = stream.peek(&mut [0u8]);
    stream.set_nonblocking(false)?;
    peeked
}

fn connect(addr: &str) -> OrbResult<Arc<MuxConnection>> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    let _ = stream.set_nodelay(true);
    Ok(Arc::new(MuxConnection {
        stream,
        writer: Mutex::new(()),
        reader: Mutex::new(FrameReader::new()),
        state: Mutex::new(PendingState {
            alive: true,
            ..PendingState::default()
        }),
    }))
}

/// Removes `conn` from the pool — but only if it is still the pooled
/// entry for `addr` (a replacement connection must survive).
fn evict_if_current(core: &OrbCore, addr: &str, conn: &MuxConnection) {
    let mut pool = core.tcp_pool.lock();
    if pool
        .get(addr)
        .is_some_and(|c| std::ptr::eq(Arc::as_ptr(c), conn))
    {
        pool.remove(addr);
    }
}

fn pooled_connection(core: &OrbCore, addr: &str) -> OrbResult<Arc<MuxConnection>> {
    if let Some(conn) = core.tcp_pool.lock().get(addr) {
        if conn.is_alive() {
            return Ok(conn.clone());
        }
    }
    // Connect outside the pool lock; on a race, prefer whichever live
    // connection landed in the pool (the loser is dropped, closing its
    // socket).
    let conn = connect(addr)?;
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
/// on the connection at once). The write lock is held only for the
/// write; the caller then reads replies itself as the leader, or waits
/// for the leader to hand it its reply.
///
/// A stale pooled connection is evicted and retried once — but only when
/// the failure happened before any byte of the request could have been
/// executed remotely (registration, the leader's check for a close by
/// the peer, or the initial write), never mid-reply. A deadline expiry
/// fails just this call.
pub(crate) fn invoke(
    core: &OrbCore,
    addr: &str,
    frame: &[u8],
    expected_id: Option<u64>,
    deadline: Duration,
) -> OrbResult<Option<ReplyBody>> {
    let mut last_err = None;
    for _attempt in 0..2 {
        let conn = pooled_connection(core, addr)?;
        let Some((leads, depth)) = conn.register(expected_id) else {
            evict_if_current(core, addr, &conn);
            last_err = Some(OrbError::Transport(conn.state.lock().death().to_string()));
            continue;
        };
        // A leader holds the frame reader from before its write, so the
        // check below cannot race a blocking read.
        let frames = leads.then(|| conn.reader.lock());
        let sent = {
            let _writing = conn.writer.lock();
            if leads && !conn.peer_open() {
                Err(Death::Failed("connection closed by peer".into()))
            } else {
                send_frame(&conn.stream, frame)
                    .map_err(|e| Death::Failed(format!("request write failed: {e}")))
            }
        };
        if let Err(death) = sent {
            // The peer closed the connection before the write, or a
            // partial write left the stream unusable for everyone: fail
            // all pending callers and retry this request once on a
            // fresh connection. Nothing of it was executed.
            last_err = Some(OrbError::Transport(death.to_string()));
            conn.kill(death);
            evict_if_current(core, addr, &conn);
            if matches!(conn.state.lock().death, Some(Death::Shutdown)) {
                return Err(OrbError::ShuttingDown);
            }
            continue;
        }
        core.count_bytes_out(frame.len());
        let Some(id) = expected_id else {
            // Oneway: fire and forget.
            if let Some(frames) = frames {
                drop(frames);
                conn.step_down();
            }
            return Ok(None);
        };
        let stats = &core.stats;
        stats.tcp_client_depth.set(depth as i64);
        stats.tcp_client_inflight.add(1);
        let out = conn.await_reply(core, addr, id, frames, deadline);
        stats.tcp_client_inflight.sub(1);
        return out.map(Some);
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
    fn tcp_resolve_of_an_unbound_name_is_name_not_found() {
        let (_server, endpoint) = echo_orb("t-tcp-naming");
        let client = Orb::new("t-tcp-naming-client");
        let err = client.resolve_name(&endpoint, "nope").unwrap_err();
        assert_eq!(
            err,
            OrbError::NameNotFound {
                name: "nope".into()
            }
        );
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
        let (arrived_tx, arrived) = sync_channel(1);
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
