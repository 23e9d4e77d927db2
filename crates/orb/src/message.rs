//! Wire messages — the GIOP analogue.

use adapta_idl::Value;
use adapta_telemetry::{SpanId, TraceId, SPAN_ID_KEY, TRACE_ID_KEY};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::OrbError;
use crate::marshal::{
    get_str, get_value, put_seq, put_str, put_value, seq_len, str_len, value_len,
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
    /// The operation result or the raised exception.
    pub outcome: Result<Value, String>,
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
    pub(crate) fn encode_frame(&self) -> Vec<u8> {
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

/// A frame of `len` message bytes, written by `put` after the 4-byte
/// little-endian length prefix, in one exactly sized buffer.
fn frame(len: usize, put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + len);
    buf.put_u32_le(len as u32);
    put(&mut buf);
    debug_assert_eq!(buf.len(), 4 + len, "encoded size mismatch");
    buf
}

fn put_header<B: BufMut>(buf: &mut B, kind: u8) {
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
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
    pub(crate) fn encode_frame(&self) -> Vec<u8> {
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
                        Err(message) => str_len(message),
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
                        buf.put_u8(0);
                        put_value(buf, v);
                    }
                    Err(message) => {
                        buf.put_u8(1);
                        put_str(buf, message);
                    }
                }
            }
        }
    }

    /// Decodes a message from a complete frame body.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Marshal`] on malformed frames.
    pub fn decode(bytes: &[u8]) -> OrbResult<Message> {
        let mut cursor = bytes;
        if cursor.len() < 6 {
            return Err(OrbError::Marshal("frame too short".into()));
        }
        let (magic, rest) = cursor.split_at(4);
        cursor = rest;
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
        let msg = match kind {
            KIND_REQUEST | KIND_ONEWAY => {
                if cursor.len() < 8 {
                    return Err(OrbError::Marshal("truncated request".into()));
                }
                let id = cursor.get_u64_le();
                let key = get_str(&mut cursor)?;
                let operation = get_str(&mut cursor)?;
                let args = match get_value(&mut cursor)? {
                    Value::Seq(items) => items,
                    _ => return Err(OrbError::Marshal("request args must be a sequence".into())),
                };
                let mut context = ServiceContext::new();
                if version >= 2 {
                    if cursor.len() < 4 {
                        return Err(OrbError::Marshal("truncated service context".into()));
                    }
                    let entries = cursor.get_u32_le();
                    context.entries.reserve(entries.min(16) as usize);
                    for _ in 0..entries {
                        let k = get_str(&mut cursor)?;
                        let v = get_str(&mut cursor)?;
                        context.set_owned(k, v);
                    }
                }
                let body = RequestBody {
                    id,
                    key,
                    operation,
                    args,
                    context,
                };
                if kind == KIND_REQUEST {
                    Message::Request(body)
                } else {
                    Message::Oneway(body)
                }
            }
            KIND_REPLY => {
                if cursor.len() < 9 {
                    return Err(OrbError::Marshal("truncated reply".into()));
                }
                let id = cursor.get_u64_le();
                let status = cursor.get_u8();
                let outcome = match status {
                    0 => Ok(get_value(&mut cursor)?),
                    1 => Err(get_str(&mut cursor)?),
                    other => {
                        return Err(OrbError::Marshal(format!("unknown reply status {other}")))
                    }
                };
                Message::Reply(ReplyBody { id, outcome })
            }
            other => return Err(OrbError::Marshal(format!("unknown message kind {other}"))),
        };
        if !cursor.is_empty() {
            return Err(OrbError::Marshal("trailing bytes in frame".into()));
        }
        Ok(msg)
    }
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
            outcome: Err("object not found".into()),
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
        }
    }
}
