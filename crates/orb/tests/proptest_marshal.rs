//! Property tests for the wire codec: every value, every request body
//! and every reply status round-trips, the decoder is total (never
//! panics) on arbitrary bytes, and the borrowed request decoder agrees
//! with `Message::decode` on every request frame of versions 1 to 3,
//! and fails with the same error on truncated and corrupted ones.

use std::time::Duration;

use adapta_idl::{ObjRefData, Value};
use adapta_orb::{
    decode_value, encode_value, IncomingRequest, Message, OrbError, ReplyBody, RequestBody,
    ServiceContext,
};
use adapta_telemetry::{SpanId, TraceId};
use bytes::Bytes;
use proptest::prelude::*;

/// A strategy generating arbitrary well-formed wire values, including
/// nested containers.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Long),
        any::<f64>().prop_map(Value::Double),
        ".{0,32}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| Value::Bytes(Bytes::from(b))),
        ("[a-z:/.0-9]{0,16}", "[a-z0-9-]{0,12}", "[A-Za-z]{0,12}").prop_map(
            |(endpoint, key, type_id)| Value::ObjRef(ObjRefData::new(endpoint, key, type_id))
        ),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Seq),
            proptest::collection::vec(("[a-z_]{0,8}", inner), 0..6).prop_map(Value::Map),
        ]
    })
}

/// Structural equality that treats NaN doubles as equal (the codec is
/// bit-preserving but `PartialEq` on f64 is not reflexive for NaN).
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits() || x == y
        }
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| value_eq(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && value_eq(va, vb))
        }
        _ => a == b,
    }
}

/// Encodes a request frame body by hand, so the service context may
/// repeat keys (`ServiceContext::set` replaces instead). Version 1
/// frames carry no context, and only version 3 carries the trace slot
/// (raw trace and span ids, 0 for absent).
#[allow(clippy::too_many_arguments)]
fn request_frame(
    version: u8,
    oneway: bool,
    id: u64,
    key: &str,
    operation: &str,
    args: &[Value],
    (trace, span): (u64, u64),
    context: &[(String, String)],
) -> Vec<u8> {
    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = b"ADPT".to_vec();
    out.push(version);
    out.push(if oneway { 2 } else { 0 });
    out.extend_from_slice(&id.to_le_bytes());
    put_str(&mut out, key);
    put_str(&mut out, operation);
    out.extend_from_slice(&encode_value(&Value::Seq(args.to_vec())));
    if version >= 3 {
        out.extend_from_slice(&trace.to_le_bytes());
        out.extend_from_slice(&span.to_le_bytes());
    }
    if version >= 2 {
        out.extend_from_slice(&(context.len() as u32).to_le_bytes());
        for (k, v) in context {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
    }
    out
}

/// Service-context entries: mostly trace ids, valid or not, repeated or
/// not, among unrelated entries.
fn context_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    let key = prop_oneof![
        Just("trace-id".to_owned()),
        Just("span-id".to_owned()),
        Just("trace-id".to_owned()),
        Just("span-id".to_owned()),
        Just("tenant".to_owned()),
        "[a-z-]{0,12}".boxed(),
    ];
    let hex = || any::<u64>().prop_map(|n| format!("{n:016x}"));
    let value = prop_oneof![
        hex(),
        hex(),
        "[0-9a-f]{1,15}".boxed(),
        "[0-9a-f]{17,20}".boxed(),
        ".{0,20}".boxed(),
        Just(String::new()),
    ];
    proptest::collection::vec((key, value), 0..6)
}

/// A raw trace-slot id: often absent (0), otherwise any value.
fn slot_id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

/// A service context as `ServiceContext::set` builds it: often led by
/// `trace-id` and `span-id` entries, canonical or not (zero, upper
/// case, short), and followed by other entries, which may set either
/// key again.
fn service_context_strategy() -> impl Strategy<Value = ServiceContext> {
    let id = || {
        prop_oneof![
            any::<u64>().prop_map(|n| format!("{n:016x}")),
            Just("0000000000000000".to_owned()),
            any::<u64>().prop_map(|n| format!("{n:016X}")),
            "[0-9a-f]{1,15}".prop_map(String::from),
        ]
    };
    let lead = proptest::option::of((id(), id()));
    let key = prop_oneof![
        Just("trace-id".to_owned()),
        Just("span-id".to_owned()),
        "[a-z-]{1,12}".prop_map(String::from),
    ];
    let rest = proptest::collection::vec((key, ".{0,24}".prop_map(String::from)), 0..4);
    (lead, rest).prop_map(|(lead, rest)| {
        let mut context = ServiceContext::new();
        if let Some((trace, span)) = lead {
            context.set("trace-id", &trace);
            context.set("span-id", &span);
        }
        for (k, v) in &rest {
            context.set(k, v);
        }
        context
    })
}

/// A reply outcome of every status: a result, each error variant with a
/// status of its own, and the variants that have none.
fn outcome_strategy() -> impl Strategy<Value = Result<Value, OrbError>> {
    let text = || ".{0,48}";
    prop_oneof![
        value_strategy().prop_map(Ok),
        text().prop_map(|m| Err(OrbError::exception(m))),
        text().prop_map(|key| Err(OrbError::ObjectNotFound { key })),
        text().prop_map(|name| Err(OrbError::NameNotFound { name })),
        Just(Err(OrbError::ShuttingDown)),
        Just(Err(OrbError::TransientOverload)),
        (text(), text()).prop_map(|(i, op)| Err(OrbError::unknown_operation(&i, &op))),
        text().prop_map(|endpoint| Err(OrbError::NodeUnreachable { endpoint })),
        text().prop_map(|m| Err(OrbError::Marshal(m))),
        text().prop_map(|m| Err(OrbError::Transport(m))),
        any::<u32>().prop_map(|ms| Err(OrbError::DeadlineExpired {
            after: Duration::from_millis(u64::from(ms)),
        })),
    ]
}

proptest! {
    #[test]
    fn any_value_round_trips(v in value_strategy()) {
        let encoded = encode_value(&v);
        let decoded = decode_value(&encoded).expect("well-formed encoding decodes");
        prop_assert!(value_eq(&v, &decoded), "{v:?} != {decoded:?}");
    }

    #[test]
    fn decoder_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must never panic; errors are fine.
        let _ = decode_value(&bytes);
        let owned = Message::decode(&bytes);
        let borrowed = IncomingRequest::decode(&bytes);
        prop_assert_eq!(
            borrowed.is_ok(),
            matches!(owned, Ok(Message::Request(_) | Message::Oneway(_)))
        );
    }

    #[test]
    fn truncation_never_panics(v in value_strategy(), cut in 0usize..64) {
        let encoded = encode_value(&v);
        let cut = cut.min(encoded.len());
        let _ = decode_value(&encoded[..cut]);
    }

    #[test]
    fn messages_round_trip(
        id in any::<u64>(),
        key in "[a-z0-9-]{0,16}",
        op in "[a-zA-Z_]{1,16}",
        args in proptest::collection::vec(value_strategy(), 0..4),
        oneway in any::<bool>(),
        context in service_context_strategy(),
    ) {
        let body = RequestBody { id, key, operation: op, args, context };
        let msg = if oneway { Message::Oneway(body) } else { Message::Request(body) };
        let decoded = Message::decode(&msg.encode()).expect("decodes");
        match (&msg, &decoded) {
            (Message::Request(a), Message::Request(b))
            | (Message::Oneway(a), Message::Oneway(b)) => {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(&a.key, &b.key);
                prop_assert_eq!(&a.operation, &b.operation);
                prop_assert_eq!(&a.context, &b.context);
                prop_assert_eq!(a.args.len(), b.args.len());
                for (x, y) in a.args.iter().zip(&b.args) {
                    prop_assert!(value_eq(x, y));
                }
            }
            _ => prop_assert!(false, "kind changed in transit"),
        }
    }

    #[test]
    fn replies_round_trip(id in any::<u64>(), outcome in outcome_strategy()) {
        // A variant without a status of its own arrives as a remote
        // exception carrying its text; every other outcome as itself.
        let expected = match &outcome {
            Err(
                e @ (OrbError::Idl(_)
                | OrbError::NodeUnreachable { .. }
                | OrbError::Marshal(_)
                | OrbError::Transport(_)
                | OrbError::DeadlineExpired { .. }),
            ) => Err(OrbError::exception(e.to_string())),
            other => other.clone(),
        };
        let bytes = Message::Reply(ReplyBody { id, outcome }).encode();
        let Message::Reply(body) = Message::decode(&bytes).expect("well-formed reply decodes") else {
            panic!("kind changed in transit");
        };
        prop_assert_eq!(body.id, id);
        match (&body.outcome, &expected) {
            (Ok(a), Ok(b)) => prop_assert!(value_eq(a, b), "{a:?} != {b:?}"),
            _ => prop_assert_eq!(&body.outcome, &expected),
        }
        for cut in 0..bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn unknown_reply_statuses_are_rejected(
        id in any::<u64>(),
        status in 6u8..=255,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut frame = b"ADPT".to_vec();
        frame.extend_from_slice(&[2, 1]);
        frame.extend_from_slice(&id.to_le_bytes());
        frame.push(status);
        frame.extend_from_slice(&tail);
        prop_assert!(Message::decode(&frame).is_err());
    }

    #[test]
    fn objref_uri_round_trips(
        endpoint in "[ -~]{0,24}",
        key in "[ -~]{0,24}",
        type_id in "[ -~]{0,24}",
    ) {
        let data = ObjRefData::new(endpoint, key, type_id);
        prop_assert_eq!(ObjRefData::from_uri(&data.to_uri()), Some(data));
    }

    /// Truncated and corrupted request frames, and garbage after a
    /// valid header, fail in both decoders with the same error; a
    /// frame either decodes as the same request in both or fails alike.
    /// A frame with a reply's header is refused by the request decoder
    /// as a reply, whatever follows.
    #[test]
    fn both_decoders_fail_alike_on_truncated_and_garbage_frames(
        version in 1u8..=3,
        oneway in any::<bool>(),
        key in ".{0,8}",
        args in proptest::collection::vec(value_strategy(), 0..3),
        slot in (slot_id_strategy(), slot_id_strategy()),
        context in context_strategy(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
        kind in 0u8..=3,
        outcome in outcome_strategy(),
    ) {
        let frame = request_frame(version, oneway, 7, &key, "op", &args, slot, &context);
        let mut corrupted = frame.clone();
        for (at, byte) in &flips {
            let at = at % corrupted.len();
            corrupted[at] = *byte;
        }
        let mut header_then_garbage = frame[..4].to_vec();
        header_then_garbage.extend_from_slice(&[version, kind]);
        header_then_garbage.extend_from_slice(&garbage);
        let reply = Message::Reply(ReplyBody { id: 7, outcome }).encode();
        for bytes in [
            &frame[..cut % frame.len()],
            &corrupted[..],
            &header_then_garbage[..],
            &reply[..],
            &reply[..cut % reply.len()],
        ] {
            let owned = Message::decode(bytes);
            let borrowed = IncomingRequest::decode(bytes);
            let reply_header = bytes.len() >= 6
                && bytes.starts_with(b"ADPT")
                && (1..=3).contains(&bytes[4])
                && bytes[5] == 1;
            if reply_header {
                prop_assert_eq!(borrowed, Err(OrbError::Marshal("unexpected reply".into())));
                continue;
            }
            match (&owned, &borrowed) {
                (Ok(Message::Request(_) | Message::Oneway(_)), Ok(_)) => {}
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "{:?} against {:?} on {:?}", owned, borrowed, bytes),
            }
        }
    }

    #[test]
    fn the_borrowed_decoder_agrees_with_message_decode(
        version in 1u8..=3,
        oneway in any::<bool>(),
        id in any::<u64>(),
        key in ".{0,16}",
        op in "[a-zA-Z_]{0,16}",
        args in proptest::collection::vec(value_strategy(), 0..4),
        slot in (slot_id_strategy(), slot_id_strategy()),
        context in context_strategy(),
    ) {
        let frame = request_frame(version, oneway, id, &key, &op, &args, slot, &context);
        let borrowed = IncomingRequest::decode(&frame).expect("borrowed decode");
        let body = match Message::decode(&frame).expect("owned decode") {
            Message::Request(body) if !oneway => body,
            Message::Oneway(body) if oneway => body,
            other => panic!("kind changed in transit: {other:?}"),
        };
        prop_assert_eq!(borrowed.oneway, oneway);
        prop_assert_eq!(borrowed.id, body.id);
        prop_assert_eq!(borrowed.key, body.key.as_str());
        prop_assert_eq!(borrowed.operation, body.operation.as_str());
        prop_assert_eq!(borrowed.args.len(), body.args.len());
        for (x, y) in borrowed.args.iter().zip(&body.args) {
            prop_assert!(value_eq(x, y));
        }
        // The trace slot counts as entries ahead of the text ones, and
        // the last `trace-id`/`span-id` wins; one that is not hex
        // leaves the request without a caller, so a fresh trace starts.
        let trace = body.context.get("trace-id").and_then(TraceId::from_hex);
        let parent = body.context.get("span-id").and_then(SpanId::from_hex);
        prop_assert_eq!(borrowed.trace, trace);
        prop_assert_eq!(borrowed.parent, parent);
        let slot_hex = |raw: u64| (version >= 3 && raw != 0).then(|| format!("{raw:016x}"));
        let last = |key: &str, raw: u64| {
            context
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .or_else(|| slot_hex(raw))
        };
        if version >= 2 {
            prop_assert_eq!(body.context.get("trace-id").map(str::to_owned), last("trace-id", slot.0));
            prop_assert_eq!(body.context.get("span-id").map(str::to_owned), last("span-id", slot.1));
        } else {
            prop_assert!(body.context.is_empty());
        }
        // A frame cut short anywhere is an error in both decoders.
        for cut in 0..frame.len() {
            prop_assert!(IncomingRequest::decode(&frame[..cut]).is_err(), "borrowed, cut at {}", cut);
            prop_assert!(Message::decode(&frame[..cut]).is_err(), "owned, cut at {}", cut);
        }
    }
}
