//! Property tests for the wire codec: every value round-trips, the
//! decoder is total (never panics) on arbitrary bytes, and the borrowed
//! request decoder agrees with `Message::decode` on every frame.

use adapta_idl::{ObjRefData, Value};
use adapta_orb::{
    decode_value, encode_value, IncomingRequest, Message, ReplyBody, RequestBody, ServiceContext,
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
/// frames carry no context.
fn request_frame(
    version: u8,
    oneway: bool,
    id: u64,
    key: &str,
    operation: &str,
    args: &[Value],
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
        ctx in proptest::collection::vec(("[a-z-]{1,12}", ".{0,24}"), 0..4),
    ) {
        let mut context = ServiceContext::new();
        for (k, v) in &ctx {
            context.set(k, v);
        }
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
    fn replies_round_trip(id in any::<u64>(), ok in any::<bool>(), text in ".{0,48}") {
        let outcome = if ok { Ok(Value::Str(text.clone())) } else { Err(text.clone()) };
        let msg = Message::Reply(ReplyBody { id, outcome });
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
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

    #[test]
    fn the_borrowed_decoder_agrees_with_message_decode(
        version in 1u8..=2,
        oneway in any::<bool>(),
        id in any::<u64>(),
        key in ".{0,16}",
        op in "[a-zA-Z_]{0,16}",
        args in proptest::collection::vec(value_strategy(), 0..4),
        context in context_strategy(),
    ) {
        let frame = request_frame(version, oneway, id, &key, &op, &args, &context);
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
        // The last `trace-id`/`span-id` wins; one that is not hex
        // leaves the request without a caller, so a fresh trace starts.
        let trace = body.context.get("trace-id").and_then(TraceId::from_hex);
        let parent = body.context.get("span-id").and_then(SpanId::from_hex);
        prop_assert_eq!(borrowed.trace, trace);
        prop_assert_eq!(borrowed.parent, parent);
        let last = |key: &str| context.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        if version >= 2 {
            prop_assert_eq!(body.context.get("trace-id"), last("trace-id"));
            prop_assert_eq!(body.context.get("span-id"), last("span-id"));
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
