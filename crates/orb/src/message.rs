//! Wire messages — the GIOP analogue.

use std::borrow::Cow;
use std::cell::RefCell;

use adapta_idl::Value;
use adapta_telemetry::{SpanId, TraceId, SPAN_ID_KEY, TRACE_ID_KEY};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::OrbError;
use crate::marshal::{
    get_str, get_str_ref, get_value, put_seq, put_str, put_value, seq_len, str_len, value_len,
};
use crate::OrbResult;

const MAGIC: &[u8; 4] = b"ADPT";
/// Current protocol version. Version 2 added the request service
/// context; version-1 frames (no context) are still decoded.
const VERSION: u8 = 2;
const MIN_VERSION: u8 = 1;

const KIND_REQUEST: u8 = 0;
const KIND_REPLY: u8 = 1;
const KIND_ONEWAY: u8 = 2;

// A reply's status byte says what follows it and, for a failed reply,
// which `OrbError` it decodes to (see `error_status`).
/// A result value follows.
const STATUS_RESULT: u8 = 0;
/// A `RemoteException`'s message follows, or the text of an error
/// without a status of its own, which decodes as a remote exception.
const STATUS_EXCEPTION: u8 = 1;
const STATUS_OBJECT_NOT_FOUND: u8 = 2;
const STATUS_NAME_NOT_FOUND: u8 = 3;
const STATUS_SHUTTING_DOWN: u8 = 4;
const STATUS_OVERLOAD: u8 = 5;

/// Magic, version and kind: the bytes every message starts with.
const HEADER_LEN: usize = 6;

/// Out-of-band key/value pairs carried with a request — the CORBA
/// *service context* analogue. The broker uses it to propagate trace
/// context (`trace-id`/`span-id`) across process and network hops;
/// applications and interceptors may add their own entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceContext {
    entries: Vec<(String, String)>,
}

impl ServiceContext {
    /// Creates an empty context.
    pub fn new() -> ServiceContext {
        ServiceContext::default()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Stores `value` under `key`, replacing any previous value.
    pub fn set(&mut self, key: &str, value: &str) {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => value.clone_into(v),
            None => self.entries.push((key.to_string(), value.to_string())),
        }
    }

    /// True when the context carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Like [`set`](Self::set), keeping the given strings instead of
    /// copying them.
    fn set_owned(&mut self, key: String, value: String) {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// The entries as the wire carries them.
    fn wire(&self) -> impl ExactSizeIterator<Item = (&str, &[u8])> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_bytes()))
    }
}

/// The body of a request (two-way or oneway).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBody {
    /// Correlation id (unused for oneway).
    pub id: u64,
    /// Target object key.
    pub key: String,
    /// Operation name.
    pub operation: String,
    /// Argument list.
    pub args: Vec<Value>,
    /// Out-of-band service context (trace propagation and the like).
    pub context: ServiceContext,
}

/// The body of a reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyBody {
    /// Correlation id of the request being answered.
    pub id: u64,
    /// The operation result or the raised error. An error without a
    /// reply status of its own crosses the wire as its text and arrives
    /// as an [`OrbError::RemoteException`].
    pub outcome: Result<Value, OrbError>,
}

/// A broker wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Two-way invocation.
    Request(RequestBody),
    /// Fire-and-forget invocation (no reply follows).
    Oneway(RequestBody),
    /// Reply to a two-way request.
    Reply(ReplyBody),
}

/// A request as the client side sends it: every part borrowed from the
/// caller, and the trace context given as the client span's ids. It
/// encodes to the same bytes as the [`Message::Request`] (or
/// [`Message::Oneway`]) whose service context holds those ids under
/// `trace-id` and `span-id`, without building that message.
pub(crate) struct OutgoingRequest<'a> {
    pub(crate) oneway: bool,
    pub(crate) id: u64,
    pub(crate) key: &'a str,
    pub(crate) operation: &'a str,
    pub(crate) args: &'a [Value],
    pub(crate) trace: TraceId,
    pub(crate) span: SpanId,
}

impl OutgoingRequest<'_> {
    /// Encodes the request as one transport frame (see
    /// [`Message::encode_frame`]).
    pub(crate) fn encode_frame(&self) -> Frame {
        let (trace, span) = (self.trace.to_hex(), self.span.to_hex());
        let context = [(TRACE_ID_KEY, &trace[..]), (SPAN_ID_KEY, &span[..])];
        let kind = if self.oneway {
            KIND_ONEWAY
        } else {
            KIND_REQUEST
        };
        let len = request_len(self.key, self.operation, self.args, context.into_iter());
        frame(len, |buf| {
            put_request(
                buf,
                kind,
                self.id,
                self.key,
                self.operation,
                self.args,
                context.into_iter(),
            );
        })
    }
}

/// Largest frame buffer kept for reuse; bigger ones are freed.
const POOLED_FRAME_MAX: usize = 64 * 1024;
/// Frame buffers kept for reuse per thread: one per nesting level of
/// invocations a servant makes mid-dispatch, plus a reply.
const POOLED_FRAMES: usize = 8;

thread_local! {
    static FRAME_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// One encoded transport frame. Its buffer comes from, and on drop
/// goes back to, a small per-thread pool, so encoding a request or a
/// reply does not allocate in steady state.
#[derive(Debug, PartialEq)]
pub(crate) struct Frame(Vec<u8>);

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if self.0.capacity() > POOLED_FRAME_MAX {
            return;
        }
        let buf = std::mem::take(&mut self.0);
        // After the thread's pool is gone (thread exit), just free.
        let _ = FRAME_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOLED_FRAMES {
                pool.push(buf);
            }
        });
    }
}

/// A frame of `len` message bytes, written by `put` after the 4-byte
/// little-endian length prefix.
fn frame(len: usize, put: impl FnOnce(&mut Vec<u8>)) -> Frame {
    let mut buf = FRAME_POOL
        .try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    buf.clear();
    buf.reserve_exact(4 + len);
    buf.put_u32_le(len as u32);
    put(&mut buf);
    debug_assert_eq!(buf.len(), 4 + len, "encoded size mismatch");
    Frame(buf)
}

fn put_header<B: BufMut>(buf: &mut B, kind: u8) {
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
}

/// A failed reply's status byte and the text that follows it, if any.
/// An error without a status of its own is rendered (on the rare path
/// of a servant failing with, say, an IDL error).
fn error_status(error: &OrbError) -> (u8, Option<Cow<'_, str>>) {
    match error {
        OrbError::RemoteException { message } => (STATUS_EXCEPTION, Some(message.into())),
        OrbError::ObjectNotFound { key } => (STATUS_OBJECT_NOT_FOUND, Some(key.into())),
        OrbError::NameNotFound { name } => (STATUS_NAME_NOT_FOUND, Some(name.into())),
        OrbError::ShuttingDown => (STATUS_SHUTTING_DOWN, None),
        OrbError::TransientOverload => (STATUS_OVERLOAD, None),
        other => (STATUS_EXCEPTION, Some(other.to_string().into())),
    }
}

/// The encoded size of a request with these parts.
fn request_len<'c>(
    key: &str,
    operation: &str,
    args: &[Value],
    context: impl Iterator<Item = (&'c str, &'c [u8])>,
) -> usize {
    let context: usize = context.map(|(k, v)| str_len(k) + 4 + v.len()).sum();
    HEADER_LEN + 8 + str_len(key) + str_len(operation) + seq_len(args) + 4 + context
}

/// Appends a request; the argument list travels as one sequence value.
fn put_request<'c, B: BufMut>(
    buf: &mut B,
    kind: u8,
    id: u64,
    key: &str,
    operation: &str,
    args: &[Value],
    context: impl ExactSizeIterator<Item = (&'c str, &'c [u8])>,
) {
    put_header(buf, kind);
    buf.put_u64_le(id);
    put_str(buf, key);
    put_str(buf, operation);
    put_seq(buf, args);
    buf.put_u32_le(context.len() as u32);
    for (k, v) in context {
        put_str(buf, k);
        buf.put_u32_le(v.len() as u32);
        buf.put_slice(v);
    }
}

impl Message {
    /// Encodes the message, without the transport length prefix.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.put(&mut buf);
        buf.freeze()
    }

    /// Encodes the message as one transport frame: the 4-byte
    /// little-endian length prefix, then the bytes [`encode`] produces.
    ///
    /// [`encode`]: Self::encode
    pub(crate) fn encode_frame(&self) -> Frame {
        frame(self.encoded_len(), |buf| self.put(buf))
    }

    fn encoded_len(&self) -> usize {
        match self {
            Message::Request(body) | Message::Oneway(body) => {
                request_len(&body.key, &body.operation, &body.args, body.context.wire())
            }
            Message::Reply(body) => {
                HEADER_LEN
                    + 8
                    + 1
                    + match &body.outcome {
                        Ok(v) => value_len(v),
                        Err(e) => error_status(e).1.map_or(0, |text| str_len(&text)),
                    }
            }
        }
    }

    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            Message::Request(body) | Message::Oneway(body) => {
                let kind = if matches!(self, Message::Request(_)) {
                    KIND_REQUEST
                } else {
                    KIND_ONEWAY
                };
                put_request(
                    buf,
                    kind,
                    body.id,
                    &body.key,
                    &body.operation,
                    &body.args,
                    body.context.wire(),
                );
            }
            Message::Reply(body) => {
                put_header(buf, KIND_REPLY);
                buf.put_u64_le(body.id);
                match &body.outcome {
                    Ok(v) => {
                        buf.put_u8(STATUS_RESULT);
                        put_value(buf, v);
                    }
                    Err(e) => {
                        let (status, text) = error_status(e);
                        buf.put_u8(status);
                        if let Some(text) = text {
                            put_str(buf, &text);
                        }
                    }
                }
            }
        }
    }

    /// Decodes a message from a complete frame body. A request is read
    /// by [`IncomingRequest::decode`]'s decoder, then copied out of the
    /// frame with its whole service context.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Marshal`] on malformed frames.
    pub fn decode(bytes: &[u8]) -> OrbResult<Message> {
        let (version, kind, mut cursor) = header(bytes)?;
        let msg = match kind {
            KIND_REQUEST | KIND_ONEWAY => {
                let mut context = ServiceContext::new();
                let request =
                    decode_request(version, kind == KIND_ONEWAY, &mut cursor, &mut |k, v| {
                        context.set_owned(k.to_owned(), v.to_owned());
                    })?;
                let body = RequestBody {
                    id: request.id,
                    key: request.key.to_owned(),
                    operation: request.operation.to_owned(),
                    args: request.args,
                    context,
                };
                if request.oneway {
                    Message::Oneway(body)
                } else {
                    Message::Request(body)
                }
            }
            KIND_REPLY => {
                if cursor.len() < 9 {
                    return Err(OrbError::Marshal("truncated reply".into()));
                }
                let id = cursor.get_u64_le();
                let status = cursor.get_u8();
                let outcome = match status {
                    STATUS_RESULT => Ok(get_value(&mut cursor)?),
                    STATUS_EXCEPTION => Err(OrbError::exception(get_str(&mut cursor)?)),
                    STATUS_OBJECT_NOT_FOUND => Err(OrbError::ObjectNotFound {
                        key: get_str(&mut cursor)?,
                    }),
                    STATUS_NAME_NOT_FOUND => Err(OrbError::NameNotFound {
                        name: get_str(&mut cursor)?,
                    }),
                    STATUS_SHUTTING_DOWN => Err(OrbError::ShuttingDown),
                    STATUS_OVERLOAD => Err(OrbError::TransientOverload),
                    other => {
                        return Err(OrbError::Marshal(format!("unknown reply status {other}")))
                    }
                };
                Message::Reply(ReplyBody { id, outcome })
            }
            other => return Err(OrbError::Marshal(format!("unknown message kind {other}"))),
        };
        no_trailing_bytes(cursor)?;
        Ok(msg)
    }
}

/// A request (two-way or oneway) decoded in place: the key and the
/// operation are borrowed from the frame, and the caller's trace ids
/// are parsed from the service context's hex strings, read in place
/// too. Only the arguments are copied out.
///
/// It accepts exactly the frames [`Message::decode`] decodes as a
/// request or oneway, with the same fields.
#[derive(Debug, Clone, PartialEq)]
pub struct IncomingRequest<'a> {
    /// Whether no reply is expected.
    pub oneway: bool,
    /// Correlation id (unused for oneway).
    pub id: u64,
    /// Target object key.
    pub key: &'a str,
    /// Operation name.
    pub operation: &'a str,
    /// Argument list.
    pub args: Vec<Value>,
    /// The caller's trace: the last `trace-id` entry of the service
    /// context, when it parses as hex.
    pub trace: Option<TraceId>,
    /// The caller's span: the last `span-id` entry, when it parses.
    pub parent: Option<SpanId>,
}

impl<'a> IncomingRequest<'a> {
    /// Decodes a request or oneway from a complete frame body.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Marshal`] on malformed frames and on replies.
    pub fn decode(bytes: &'a [u8]) -> OrbResult<IncomingRequest<'a>> {
        let (version, kind, mut cursor) = header(bytes)?;
        let oneway = match kind {
            KIND_REQUEST => false,
            KIND_ONEWAY => true,
            KIND_REPLY => return Err(OrbError::Marshal("unexpected reply".into())),
            other => return Err(OrbError::Marshal(format!("unknown message kind {other}"))),
        };
        let (mut trace, mut parent) = (None, None);
        let mut request = decode_request(version, oneway, &mut cursor, &mut |k, v| {
            // Later entries replace earlier ones, as in `ServiceContext`.
            if k == TRACE_ID_KEY {
                trace = TraceId::from_hex(v);
            } else if k == SPAN_ID_KEY {
                parent = SpanId::from_hex(v);
            }
        })?;
        no_trailing_bytes(cursor)?;
        request.trace = trace;
        request.parent = parent;
        Ok(request)
    }

    /// The request with its key and operation copied, to hand to
    /// another thread.
    pub(crate) fn into_queued(self) -> QueuedRequest {
        QueuedRequest {
            oneway: self.oneway,
            id: self.id,
            key: self.key.to_owned(),
            operation: self.operation.to_owned(),
            args: self.args,
            trace: self.trace,
            parent: self.parent,
        }
    }
}

/// A decoded request that owns its key and operation: what a TCP
/// connection serves once its reading thread has let go of the frame,
/// and what it queues while every connection thread is busy.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub(crate) oneway: bool,
    pub(crate) id: u64,
    key: String,
    operation: String,
    args: Vec<Value>,
    trace: Option<TraceId>,
    parent: Option<SpanId>,
}

impl QueuedRequest {
    /// Runs `f` on the request, borrowed again.
    pub(crate) fn with<R>(self, f: impl FnOnce(IncomingRequest<'_>) -> R) -> R {
        let QueuedRequest {
            oneway,
            id,
            key,
            operation,
            args,
            trace,
            parent,
        } = self;
        f(IncomingRequest {
            oneway,
            id,
            key: &key,
            operation: &operation,
            args,
            trace,
            parent,
        })
    }
}

/// Checks a message's magic and version; returns the version, the
/// kind and the bytes after them.
fn header(bytes: &[u8]) -> OrbResult<(u8, u8, &[u8])> {
    if bytes.len() < HEADER_LEN {
        return Err(OrbError::Marshal("frame too short".into()));
    }
    let (magic, mut cursor) = bytes.split_at(4);
    if magic != MAGIC {
        return Err(OrbError::Marshal("bad magic".into()));
    }
    let version = cursor.get_u8();
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(OrbError::Marshal(format!(
            "unsupported protocol version {version}"
        )));
    }
    let kind = cursor.get_u8();
    Ok((version, kind, cursor))
}

fn no_trailing_bytes(cursor: &[u8]) -> OrbResult<()> {
    if !cursor.is_empty() {
        return Err(OrbError::Marshal("trailing bytes in frame".into()));
    }
    Ok(())
}

/// Decodes a request body after the header, borrowing from the frame,
/// and hands each service-context entry to `entry` in wire order.
/// Version-1 frames carry no service context. The returned request has
/// no trace ids yet. (A `dyn` sink keeps one copy of this code, warm
/// for both decoders.)
fn decode_request<'a>(
    version: u8,
    oneway: bool,
    cursor: &mut &'a [u8],
    entry: &mut dyn FnMut(&'a str, &'a str),
) -> OrbResult<IncomingRequest<'a>> {
    if cursor.len() < 8 {
        return Err(OrbError::Marshal("truncated request".into()));
    }
    let id = cursor.get_u64_le();
    let key = get_str_ref(cursor)?;
    let operation = get_str_ref(cursor)?;
    let args = match get_value(cursor)? {
        Value::Seq(items) => items,
        _ => return Err(OrbError::Marshal("request args must be a sequence".into())),
    };
    if version >= 2 {
        if cursor.len() < 4 {
            return Err(OrbError::Marshal("truncated service context".into()));
        }
        for _ in 0..cursor.get_u32_le() {
            let k = get_str_ref(cursor)?;
            let v = get_str_ref(cursor)?;
            entry(k, v);
        }
    }
    Ok(IncomingRequest {
        oneway,
        id,
        key,
        operation,
        args,
        trace: None,
        parent: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
        let frame = msg.encode_frame();
        assert_eq!(frame[..4], (bytes.len() as u32).to_le_bytes());
        assert_eq!(frame[4..], bytes[..]);
    }

    #[test]
    fn outgoing_requests_encode_like_their_messages() {
        let args = [Value::from("payload-string"), Value::Long(42)];
        let (trace, span) = (
            TraceId::from_raw(0xdead_beef),
            SpanId::from_raw(u64::MAX - 1),
        );
        for oneway in [false, true] {
            let outgoing = OutgoingRequest {
                oneway,
                id: 11,
                key: "echo",
                operation: "echo",
                args: &args,
                trace,
                span,
            };
            let mut context = ServiceContext::new();
            context.set(TRACE_ID_KEY, &trace.to_string());
            context.set(SPAN_ID_KEY, &span.to_string());
            let body = RequestBody {
                id: 11,
                key: "echo".into(),
                operation: "echo".into(),
                args: args.to_vec(),
                context,
            };
            let msg = if oneway {
                Message::Oneway(body)
            } else {
                Message::Request(body)
            };
            let frame = outgoing.encode_frame();
            assert_eq!(frame, msg.encode_frame());
            assert_eq!(Message::decode(&frame[4..]).unwrap(), msg);
            let incoming = IncomingRequest::decode(&frame[4..]).unwrap();
            assert_eq!((incoming.oneway, incoming.key), (oneway, "echo"));
            assert_eq!((incoming.trace, incoming.parent), (Some(trace), Some(span)));
        }
    }

    #[test]
    fn request_round_trips() {
        round_trip(Message::Request(RequestBody {
            id: 7,
            key: "mon-1".into(),
            operation: "getValue".into(),
            args: vec![Value::Long(1), Value::Str("x".into())],
            context: ServiceContext::new(),
        }));
    }

    #[test]
    fn oneway_round_trips() {
        round_trip(Message::Oneway(RequestBody {
            id: 0,
            key: "obs".into(),
            operation: "notifyEvent".into(),
            args: vec![Value::Str("LoadIncrease".into())],
            context: ServiceContext::new(),
        }));
    }

    #[test]
    fn service_context_round_trips() {
        let mut context = ServiceContext::new();
        context.set("trace-id", "00000000deadbeef");
        context.set("span-id", "00000000cafef00d");
        context.set("tenant", "acme");
        round_trip(Message::Request(RequestBody {
            id: 9,
            key: "k".into(),
            operation: "op".into(),
            args: vec![],
            context,
        }));
    }

    #[test]
    fn service_context_set_replaces() {
        let mut context = ServiceContext::new();
        context.set("a", "1");
        context.set("a", "2");
        assert_eq!(context.len(), 1);
        assert_eq!(context.get("a"), Some("2"));
        assert_eq!(context.get("b"), None);
    }

    #[test]
    fn version_1_frames_still_decode() {
        // A version-1 request has no service-context section.
        let msg = Message::Request(RequestBody {
            id: 3,
            key: "k".into(),
            operation: "op".into(),
            args: vec![Value::Long(1)],
            context: ServiceContext::new(),
        });
        let mut bytes = msg.encode().to_vec();
        bytes[4] = 1;
        bytes.truncate(bytes.len() - 4); // drop the empty context count
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn replies_round_trip() {
        round_trip(Message::Reply(ReplyBody {
            id: 7,
            outcome: Ok(Value::Double(0.5)),
        }));
        round_trip(Message::Reply(ReplyBody {
            id: 8,
            outcome: Err(OrbError::ObjectNotFound { key: "k".into() }),
        }));
        round_trip(Message::Reply(ReplyBody {
            id: 9,
            outcome: Err(OrbError::exception("bad state")),
        }));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = Message::Reply(ReplyBody {
            id: 1,
            outcome: Ok(Value::Null),
        })
        .encode()
        .to_vec();
        bytes[0] = b'X';
        assert!(Message::decode(&bytes).is_err());

        let mut bytes = Message::Reply(ReplyBody {
            id: 1,
            outcome: Ok(Value::Null),
        })
        .encode()
        .to_vec();
        bytes[4] = 99;
        assert!(matches!(
            Message::decode(&bytes),
            Err(OrbError::Marshal(m)) if m.contains("version")
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let mut context = ServiceContext::new();
        context.set("trace-id", "74");
        let bytes = Message::Request(RequestBody {
            id: 1,
            key: "k".into(),
            operation: "op".into(),
            args: vec![Value::Long(2)],
            context,
        })
        .encode();
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            assert!(
                IncomingRequest::decode(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }
}
