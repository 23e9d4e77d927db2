//! Wire messages — the GIOP analogue.

use std::borrow::Cow;
use std::cell::RefCell;

use adapta_idl::Value;
use adapta_telemetry::{SpanId, TraceId, SPAN_ID_KEY, TRACE_ID_KEY};
use bytes::{BufMut, Bytes};

use crate::error::OrbError;
use crate::marshal::{
    array, get_seq, get_str, get_str_ref, get_value, put_seq, put_str, put_value, seq_len, str_len,
    value_len,
};
use crate::OrbResult;

const MAGIC: &[u8; 4] = b"ADPT";
/// Current protocol version. Version 2 added the request service
/// context; version 3 the trace slot ahead of it (see
/// [`TRACE_SLOT_LEN`]). Version-1 frames (no context) and version-2
/// frames (trace ids as hex context entries) are still decoded.
const VERSION: u8 = 3;
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

/// A version-3 request's trace slot, right after the argument list: the
/// caller's trace id and span id as two little-endian `u64`s, 0 for
/// absent. [`Message::encode`] fills it from a service context that
/// begins with canonical `trace-id` and `span-id` entries (16 lowercase
/// hex digits, not all zero) and [`Message::decode`] turns it back into
/// those two entries, so a [`RequestBody`] round-trips unchanged.
const TRACE_SLOT_LEN: usize = 16;

/// A request's trace slot: raw trace id and span id, 0 for absent.
type TraceSlot = (u64, u64);

/// Out-of-band key/value pairs carried with a request — the CORBA
/// *service context* analogue. A [`Message`] holds the request's trace
/// context in it under `trace-id`/`span-id` (the wire carries those in
/// the trace slot); applications and interceptors may add their own
/// entries.
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

    /// The trace slot the context travels with, and the entries left
    /// to send as text: the ids of leading canonical `trace-id` and
    /// `span-id` entries and the entries after them, or an empty slot
    /// and every entry.
    fn wire(&self) -> (TraceSlot, &[(String, String)]) {
        let leading = match &self.entries[..] {
            [(k1, v1), (k2, v2), rest @ ..] if k1 == TRACE_ID_KEY && k2 == SPAN_ID_KEY => {
                canonical_id(v1)
                    .zip(canonical_id(v2))
                    .map(|slot| (slot, rest))
            }
            _ => None,
        };
        leading.unwrap_or(((0, 0), &self.entries[..]))
    }
}

/// The id a canonical hex entry holds: exactly the 16 lowercase digits
/// `Display` prints, of a value other than the reserved 0. The digits
/// are checked and converted without a branch per digit, since each
/// request's ids differ and mispredicted branches would cost more than
/// the conversion.
fn canonical_id(hex: &str) -> Option<u64> {
    let digits: &[u8; 16] = hex.as_bytes().try_into().ok()?;
    let mut id = 0u64;
    let mut canonical = true;
    for &c in digits {
        canonical &= c.is_ascii_digit() | (b'a'..=b'f').contains(&c);
        // '0'..='9' → 0..=9 and 'a'..='f' → 10..=15.
        id = id << 4 | u64::from((c & 0xf) + 9 * (c >> 6));
    }
    (canonical && id != 0).then_some(id)
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
/// caller, and the trace context given as the client span's ids, which
/// travel in the trace slot. It encodes to the same bytes as the
/// [`Message::Request`] (or [`Message::Oneway`]) whose service context
/// holds just those ids under `trace-id` and `span-id`, without
/// building that message or formatting the ids.
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
        let kind = if self.oneway {
            KIND_ONEWAY
        } else {
            KIND_REQUEST
        };
        let slot = (self.trace.raw(), self.span.raw());
        request_frame(
            kind,
            self.id,
            self.key,
            self.operation,
            self.args,
            slot,
            &[],
        )
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

/// Encodes a request as one transport frame: the argument list
/// travels as one sequence value, followed by the trace slot and the
/// text entries of the service context. Every request, outgoing or a
/// [`Message`], is encoded here.
fn request_frame(
    kind: u8,
    id: u64,
    key: &str,
    operation: &str,
    args: &[Value],
    (trace, span): TraceSlot,
    context: &[(String, String)],
) -> Frame {
    let context_len: usize = context.iter().map(|(k, v)| str_len(k) + str_len(v)).sum();
    let len = HEADER_LEN
        + 8
        + str_len(key)
        + str_len(operation)
        + seq_len(args)
        + TRACE_SLOT_LEN
        + 4
        + context_len;
    frame(len, |buf| {
        put_header(buf, kind);
        buf.put_u64_le(id);
        put_str(buf, key);
        put_str(buf, operation);
        put_seq(buf, args);
        buf.put_u64_le(trace);
        buf.put_u64_le(span);
        buf.put_u32_le(context.len() as u32);
        for (k, v) in context {
            put_str(buf, k);
            put_str(buf, v);
        }
    })
}

/// Encodes a reply as one transport frame.
fn reply_frame(body: &ReplyBody) -> Frame {
    match &body.outcome {
        Ok(v) => frame(HEADER_LEN + 8 + 1 + value_len(v), |buf| {
            put_header(buf, KIND_REPLY);
            buf.put_u64_le(body.id);
            buf.put_u8(STATUS_RESULT);
            put_value(buf, v);
        }),
        Err(e) => {
            let (status, text) = error_status(e);
            let len = HEADER_LEN + 8 + 1 + text.as_ref().map_or(0, |text| str_len(text));
            frame(len, |buf| {
                put_header(buf, KIND_REPLY);
                buf.put_u64_le(body.id);
                buf.put_u8(status);
                if let Some(text) = text {
                    put_str(buf, &text);
                }
            })
        }
    }
}

impl Message {
    /// Encodes the message, without the transport length prefix: the
    /// bytes of the transport frame the orb sends, copied out of the
    /// frame's reused buffer.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.encode_frame()[4..])
    }

    /// Encodes the message as one transport frame: the 4-byte
    /// little-endian length prefix, then the bytes [`encode`] produces.
    ///
    /// [`encode`]: Self::encode
    pub(crate) fn encode_frame(&self) -> Frame {
        match self {
            Message::Request(body) | Message::Oneway(body) => {
                let kind = if matches!(self, Message::Request(_)) {
                    KIND_REQUEST
                } else {
                    KIND_ONEWAY
                };
                let (slot, context) = body.context.wire();
                request_frame(
                    kind,
                    body.id,
                    &body.key,
                    &body.operation,
                    &body.args,
                    slot,
                    context,
                )
            }
            Message::Reply(body) => reply_frame(body),
        }
    }

    /// Decodes a message from a complete frame body. A request is read
    /// by [`IncomingRequest::decode`]'s decoder, then copied out of the
    /// frame with its whole service context: a version-3 trace slot
    /// becomes leading `trace-id` and `span-id` entries (one for each
    /// id that is not 0), and text entries follow, replacing an earlier
    /// entry under the same key.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Marshal`] on malformed frames.
    pub fn decode(bytes: &[u8]) -> OrbResult<Message> {
        let (version, kind, mut cursor) = header(bytes)?;
        let msg = match kind {
            KIND_REQUEST | KIND_ONEWAY => {
                let request = decode_request(version, kind == KIND_ONEWAY, &mut cursor)?;
                let mut context = ServiceContext::new();
                if let Some(trace) = request.trace {
                    context.set_owned(TRACE_ID_KEY.to_owned(), hex(trace.to_hex()));
                }
                if let Some(span) = request.parent {
                    context.set_owned(SPAN_ID_KEY.to_owned(), hex(span.to_hex()));
                }
                decode_context(version, &mut cursor, &mut |k, v| {
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
                let Some((&[id @ .., status], rest)) = cursor.split_first_chunk::<9>() else {
                    return Err(OrbError::Marshal("truncated reply".into()));
                };
                cursor = rest;
                let id = u64::from_le_bytes(id);
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

/// The text of an id's hex digits, without the formatting machinery.
fn hex(digits: [u8; 16]) -> String {
    String::from_utf8(digits.to_vec()).expect("hex digits are ASCII")
}

/// A request (two-way or oneway) decoded in place: the key and the
/// operation are borrowed from the frame, and the caller's trace ids
/// are read from the trace slot, or parsed from the service context's
/// hex strings, read in place too. Only the arguments are copied out.
///
/// The trace slot counts as `trace-id` and `span-id` entries ahead of
/// the context's, and a later entry replaces an earlier one, as in
/// [`ServiceContext`]: a text entry wins over the slot, and one that is
/// not hex leaves the request without that id.
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
    /// context if there is one (none when it is not hex), else the
    /// trace slot's id.
    pub trace: Option<TraceId>,
    /// The caller's span: the last `span-id` entry if there is one
    /// (none when it is not hex), else the trace slot's id.
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
        let mut request = decode_request(version, oneway, &mut cursor)?;
        let (trace, parent) = (&mut request.trace, &mut request.parent);
        decode_context(version, &mut cursor, &mut |k, v| {
            // Later entries replace earlier ones, as in `ServiceContext`.
            if k == TRACE_ID_KEY {
                *trace = TraceId::from_hex(v);
            } else if k == SPAN_ID_KEY {
                *parent = SpanId::from_hex(v);
            }
        })?;
        no_trailing_bytes(cursor)?;
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
#[inline]
fn header(bytes: &[u8]) -> OrbResult<(u8, u8, &[u8])> {
    let Some((&[m0, m1, m2, m3, version, kind], cursor)) = bytes.split_first_chunk::<HEADER_LEN>()
    else {
        return Err(OrbError::Marshal("frame too short".into()));
    };
    if [m0, m1, m2, m3] != *MAGIC {
        return Err(OrbError::Marshal("bad magic".into()));
    }
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(OrbError::Marshal(format!(
            "unsupported protocol version {version}"
        )));
    }
    Ok((version, kind, cursor))
}

fn no_trailing_bytes(cursor: &[u8]) -> OrbResult<()> {
    if !cursor.is_empty() {
        return Err(OrbError::Marshal("trailing bytes in frame".into()));
    }
    Ok(())
}

/// Decodes a request body after the header up to its service context,
/// borrowing from the frame. The returned request holds the trace
/// slot's ids; frames before version 3 have no slot.
fn decode_request<'a>(
    version: u8,
    oneway: bool,
    cursor: &mut &'a [u8],
) -> OrbResult<IncomingRequest<'a>> {
    let Ok(id) = array(cursor) else {
        return Err(OrbError::Marshal("truncated request".into()));
    };
    let id = u64::from_le_bytes(id);
    let key = get_str_ref(cursor)?;
    let operation = get_str_ref(cursor)?;
    let Some(args) = get_seq(cursor)? else {
        return Err(OrbError::Marshal("request args must be a sequence".into()));
    };
    let (mut trace, mut parent) = (None, None);
    if version >= 3 {
        let (Ok(raw_trace), Ok(raw_span)) = (array(cursor), array(cursor)) else {
            return Err(OrbError::Marshal("truncated trace slot".into()));
        };
        let (raw_trace, raw_span) = (u64::from_le_bytes(raw_trace), u64::from_le_bytes(raw_span));
        trace = (raw_trace != 0).then(|| TraceId::from_raw(raw_trace));
        parent = (raw_span != 0).then(|| SpanId::from_raw(raw_span));
    }
    Ok(IncomingRequest {
        oneway,
        id,
        key,
        operation,
        args,
        trace,
        parent,
    })
}

/// Hands each service-context entry after the trace slot to `entry`,
/// in wire order, borrowing from the frame. Version-1 frames carry no
/// service context. (A `dyn` sink keeps one copy of this code, warm for
/// both decoders.)
fn decode_context<'a>(
    version: u8,
    cursor: &mut &'a [u8],
    entry: &mut dyn FnMut(&'a str, &'a str),
) -> OrbResult<()> {
    if version >= 2 {
        let Ok(count) = array(cursor) else {
            return Err(OrbError::Marshal("truncated service context".into()));
        };
        for _ in 0..u32::from_le_bytes(count) {
            let k = get_str_ref(cursor)?;
            let v = get_str_ref(cursor)?;
            entry(k, v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Long),
            any::<f64>().prop_map(Value::Double),
            ".{0,24}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..32)
                .prop_map(|b| Value::Bytes(Bytes::from(b))),
        ];
        leaf.prop_recursive(2, 16, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
                proptest::collection::vec(("[a-z]{0,6}", inner), 0..4).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        /// The hot path's encoders write the frames of the messages they
        /// stand for: a request from its span's ids, as the `Message`
        /// whose context holds them, and a reply's frame, as its encoding
        /// behind a length prefix.
        #[test]
        fn hot_path_frames_equal_message_encodings(
            oneway in any::<bool>(),
            id in any::<u64>(),
            key in ".{0,12}",
            operation in "[a-zA-Z_]{0,12}",
            args in proptest::collection::vec(value(), 0..4),
            (trace, span) in (1..=u64::MAX, 1..=u64::MAX),
            outcome in prop_oneof![
                value().prop_map(Ok),
                ".{0,24}".prop_map(|m| Err(OrbError::exception(m))),
                Just(Err(OrbError::ShuttingDown)),
            ],
        ) {
            let (trace, span) = (TraceId::from_raw(trace), SpanId::from_raw(span));
            let outgoing = OutgoingRequest {
                oneway,
                id,
                key: &key,
                operation: &operation,
                args: &args,
                trace,
                span,
            };
            let mut context = ServiceContext::new();
            context.set(TRACE_ID_KEY, &trace.to_string());
            context.set(SPAN_ID_KEY, &span.to_string());
            let body = RequestBody { id, key: key.clone(), operation: operation.clone(), args: args.clone(), context };
            let msg = if oneway { Message::Oneway(body) } else { Message::Request(body) };
            let frame = outgoing.encode_frame();
            prop_assert_eq!(&frame[..4], &(frame.len() as u32 - 4).to_le_bytes());
            prop_assert_eq!(&frame[4..], &msg.encode()[..]);

            let reply = Message::Reply(ReplyBody { id, outcome });
            let frame = reply.encode_frame();
            prop_assert_eq!(&frame[..4], &(frame.len() as u32 - 4).to_le_bytes());
            prop_assert_eq!(&frame[4..], &reply.encode()[..]);
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
        // Drop the empty trace slot and context count.
        bytes.truncate(bytes.len() - TRACE_SLOT_LEN - 4);
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    /// A version-2 request as the wire carried it: id 5, `k.op(1)`, and
    /// a context of hex `trace-id` and `span-id` entries and a `tenant`.
    const V2_REQUEST: &[u8] = b"ADPT\x02\x00\
        \x05\x00\x00\x00\x00\x00\x00\x00\
        \x01\x00\x00\x00k\
        \x02\x00\x00\x00op\
        \x06\x01\x00\x00\x00\x02\x01\x00\x00\x00\x00\x00\x00\x00\
        \x03\x00\x00\x00\
        \x08\x00\x00\x00trace-id\x10\x00\x00\x00\
        00000000deadbeef\
        \x07\x00\x00\x00span-id\x10\x00\x00\x00\
        00000000cafef00d\
        \x06\x00\x00\x00tenant\x04\x00\x00\x00acme";

    #[test]
    fn version_2_frames_still_decode_with_their_trace_ids() {
        let incoming = IncomingRequest::decode(V2_REQUEST).unwrap();
        assert_eq!(
            (incoming.id, incoming.key, incoming.operation),
            (5, "k", "op")
        );
        assert_eq!(incoming.args, vec![Value::Long(1)]);
        assert_eq!(incoming.trace, Some(TraceId::from_raw(0xdead_beef)));
        assert_eq!(incoming.parent, Some(SpanId::from_raw(0xcafe_f00d)));
        let Message::Request(body) = Message::decode(V2_REQUEST).unwrap() else {
            panic!("not a request");
        };
        let entries: Vec<_> = body.context.iter().collect();
        assert_eq!(
            entries,
            [
                ("trace-id", "00000000deadbeef"),
                ("span-id", "00000000cafef00d"),
                ("tenant", "acme"),
            ]
        );
        // Re-encoded, the same body moves the ids to the trace slot.
        let frame = Message::Request(body.clone()).encode();
        assert_eq!(frame.len(), V2_REQUEST.len() + TRACE_SLOT_LEN - 63);
        assert_eq!(Message::decode(&frame).unwrap(), Message::Request(body));
    }

    /// Builds a request whose context holds `entries`, in order.
    fn request_with(entries: &[(&str, &str)]) -> Message {
        let mut context = ServiceContext::new();
        for (k, v) in entries {
            context.set(k, v);
        }
        Message::Request(RequestBody {
            id: 1,
            key: "k".into(),
            operation: "op".into(),
            args: vec![],
            context,
        })
    }

    #[test]
    fn only_leading_canonical_ids_travel_in_the_slot() {
        let (trace, span) = ("00000000deadbeef", "00000000cafef00d");
        let slotted = request_with(&[(TRACE_ID_KEY, trace), (SPAN_ID_KEY, span)]);
        let empty = request_with(&[]).encode().len();
        assert_eq!(slotted.encode().len(), empty);
        round_trip(slotted);
        // Upper case, zero, short, out of order, or not first: text.
        for entries in [
            [(TRACE_ID_KEY, "00000000DEADBEEF"), (SPAN_ID_KEY, span)],
            [(TRACE_ID_KEY, trace), (SPAN_ID_KEY, "0000000000000000")],
            [(TRACE_ID_KEY, "deadbeef"), (SPAN_ID_KEY, span)],
            [(SPAN_ID_KEY, span), (TRACE_ID_KEY, trace)],
            [("tenant", "acme"), (TRACE_ID_KEY, trace)],
        ] {
            let msg = request_with(&entries);
            assert!(msg.encode().len() > empty, "{entries:?} left the context");
            round_trip(msg);
        }
    }

    #[test]
    fn a_text_trace_entry_wins_over_the_slot() {
        let outgoing = OutgoingRequest {
            oneway: false,
            id: 2,
            key: "k",
            operation: "op",
            args: &[],
            trace: TraceId::from_raw(1),
            span: SpanId::from_raw(2),
        };
        let mut bytes = outgoing.encode_frame()[4..].to_vec();
        // Replace the empty context with one `trace-id` entry, then one
        // `span-id` entry that is not hex.
        bytes.truncate(bytes.len() - 4);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for (k, v) in [(TRACE_ID_KEY, "00000000000000ff"), (SPAN_ID_KEY, "zz")] {
            put_str(&mut bytes, k);
            put_str(&mut bytes, v);
        }
        let incoming = IncomingRequest::decode(&bytes).unwrap();
        assert_eq!(incoming.trace, Some(TraceId::from_raw(0xff)));
        assert_eq!(incoming.parent, None);
        let Message::Request(body) = Message::decode(&bytes).unwrap() else {
            panic!("not a request");
        };
        let entries: Vec<_> = body.context.iter().collect();
        assert_eq!(
            entries,
            [(TRACE_ID_KEY, "00000000000000ff"), (SPAN_ID_KEY, "zz")]
        );
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
