//! CDR-like binary marshalling of [`Value`]s.
//!
//! The encoding is self-describing (tag byte per value), little-endian,
//! with `u32` length prefixes for strings and containers — close in
//! spirit to CORBA's CDR encoding of `any`.

use adapta_idl::{ObjRefData, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::OrbError;
use crate::OrbResult;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_LONG: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;
const TAG_OBJREF: u8 = 8;

/// Maximum container length accepted by the decoder — a defence against
/// hostile or corrupt frames.
const MAX_LEN: u32 = 64 * 1024 * 1024;

/// Appends the encoding of `value` to `buf`.
pub(crate) fn put_value<B: BufMut>(buf: &mut B, value: &Value) {
    match value {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Long(n) => {
            buf.put_u8(TAG_LONG);
            buf.put_i64_le(*n);
        }
        Value::Double(d) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_f64_le(*d);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::Seq(items) => put_seq(buf, items),
        Value::Map(fields) => {
            buf.put_u8(TAG_MAP);
            buf.put_u32_le(fields.len() as u32);
            for (k, v) in fields {
                put_str(buf, k);
                put_value(buf, v);
            }
        }
        Value::ObjRef(data) => {
            buf.put_u8(TAG_OBJREF);
            put_str(buf, &data.endpoint);
            put_str(buf, &data.key);
            put_str(buf, &data.type_id);
        }
    }
}

/// Appends `items` encoded as one sequence value, the way
/// [`put_value`] encodes a `Value::Seq` of them.
pub(crate) fn put_seq<B: BufMut>(buf: &mut B, items: &[Value]) {
    buf.put_u8(TAG_SEQ);
    buf.put_u32_le(items.len() as u32);
    for item in items {
        put_value(buf, item);
    }
}

/// The number of bytes [`put_seq`] appends for `items`.
pub(crate) fn seq_len(items: &[Value]) -> usize {
    1 + 4 + items.iter().map(value_len).sum::<usize>()
}

/// Encodes a single value to a fresh buffer.
///
/// ```
/// use adapta_idl::Value;
/// use adapta_orb::{encode_value, decode_value};
///
/// let v = Value::map([("x", Value::from(1i64))]);
/// let bytes = encode_value(&v);
/// assert_eq!(decode_value(&bytes).unwrap(), v);
/// ```
pub fn encode_value(value: &Value) -> Bytes {
    let mut buf = BytesMut::with_capacity(value_len(value));
    put_value(&mut buf, value);
    buf.freeze()
}

/// Decodes a single value from `bytes` (must consume the whole buffer).
///
/// # Errors
///
/// Returns [`OrbError::Marshal`] on truncated or malformed input.
pub fn decode_value(bytes: &[u8]) -> OrbResult<Value> {
    let mut cursor = bytes;
    let v = get_value(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(OrbError::Marshal(format!(
            "{} trailing bytes after value",
            cursor.len()
        )));
    }
    Ok(v)
}

/// Appends a length-prefixed string.
pub(crate) fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// The encoded size of a length-prefixed string.
pub(crate) fn str_len(s: &str) -> usize {
    4 + s.len()
}

/// The number of bytes [`put_value`] appends for `value`, so encoders
/// can size their buffer once.
pub(crate) fn value_len(value: &Value) -> usize {
    match value {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Long(_) | Value::Double(_) => 9,
        Value::Str(s) => 1 + str_len(s),
        Value::Bytes(b) => 1 + 4 + b.len(),
        Value::Seq(items) => seq_len(items),
        Value::Map(fields) => {
            1 + 4
                + fields
                    .iter()
                    .map(|(k, v)| str_len(k) + value_len(v))
                    .sum::<usize>()
        }
        Value::ObjRef(data) => {
            1 + str_len(&data.endpoint) + str_len(&data.key) + str_len(&data.type_id)
        }
    }
}

fn need(cursor: &&[u8], n: usize) -> OrbResult<()> {
    if cursor.len() < n {
        return Err(OrbError::Marshal(format!(
            "truncated message: needed {n} bytes, had {}",
            cursor.len()
        )));
    }
    Ok(())
}

fn get_len(cursor: &mut &[u8]) -> OrbResult<usize> {
    need(cursor, 4)?;
    let n = cursor.get_u32_le();
    if n > MAX_LEN {
        return Err(OrbError::Marshal(format!("length {n} exceeds limit")));
    }
    Ok(n as usize)
}

/// Reads a length-prefixed string.
pub(crate) fn get_str(cursor: &mut &[u8]) -> OrbResult<String> {
    get_str_ref(cursor).map(str::to_owned)
}

/// Reads a length-prefixed string in place, borrowing it from the
/// buffer.
pub(crate) fn get_str_ref<'a>(cursor: &mut &'a [u8]) -> OrbResult<&'a str> {
    let n = get_len(cursor)?;
    need(cursor, n)?;
    let (head, tail) = cursor.split_at(n);
    let s = std::str::from_utf8(head)
        .map_err(|_| OrbError::Marshal("invalid UTF-8 in string".into()))?;
    *cursor = tail;
    Ok(s)
}

/// Reads one encoded value, advancing the cursor.
pub(crate) fn get_value(cursor: &mut &[u8]) -> OrbResult<Value> {
    need(cursor, 1)?;
    let tag = cursor.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => {
            need(cursor, 1)?;
            Value::Bool(cursor.get_u8() != 0)
        }
        TAG_LONG => {
            need(cursor, 8)?;
            Value::Long(cursor.get_i64_le())
        }
        TAG_DOUBLE => {
            need(cursor, 8)?;
            Value::Double(cursor.get_f64_le())
        }
        TAG_STR => Value::Str(get_str(cursor)?),
        TAG_BYTES => {
            let n = get_len(cursor)?;
            need(cursor, n)?;
            let (head, tail) = cursor.split_at(n);
            let b = Bytes::copy_from_slice(head);
            *cursor = tail;
            Value::Bytes(b)
        }
        TAG_SEQ => {
            let n = get_len(cursor)?;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(get_value(cursor)?);
            }
            Value::Seq(items)
        }
        TAG_MAP => {
            let n = get_len(cursor)?;
            let mut fields = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let k = get_str(cursor)?;
                let v = get_value(cursor)?;
                fields.push((k, v));
            }
            Value::Map(fields)
        }
        TAG_OBJREF => {
            let endpoint = get_str(cursor)?;
            let key = get_str(cursor)?;
            let type_id = get_str(cursor)?;
            Value::ObjRef(ObjRefData::new(endpoint, key, type_id))
        }
        other => return Err(OrbError::Marshal(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let encoded = encode_value(&v);
        assert_eq!(encoded.len(), value_len(&v), "encoded size of {v:?}");
        assert_eq!(decode_value(&encoded).unwrap(), v, "round trip of {v:?}");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Long(-42));
        round_trip(Value::Long(i64::MAX));
        round_trip(Value::Double(3.25));
        round_trip(Value::Double(f64::INFINITY));
        round_trip(Value::Str("olá".into()));
        round_trip(Value::Str(String::new()));
        round_trip(Value::Bytes(Bytes::from_static(&[0, 1, 255])));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Value::Seq(vec![
            Value::Long(1),
            Value::Str("two".into()),
            Value::Seq(vec![Value::Null]),
        ]));
        round_trip(Value::map([
            ("load", Value::Double(0.5)),
            ("ref", Value::ObjRef(ObjRefData::new("tcp://h:1", "k", "T"))),
        ]));
        round_trip(Value::Seq(vec![]));
        round_trip(Value::Map(vec![]));
    }

    #[test]
    fn nan_payload_round_trips_bitwise() {
        let encoded = encode_value(&Value::Double(f64::NAN));
        match decode_value(&encoded).unwrap() {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_input_errors() {
        let encoded = encode_value(&Value::Str("hello".into()));
        for cut in 0..encoded.len() {
            assert!(
                decode_value(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut encoded = encode_value(&Value::Long(1)).to_vec();
        encoded.push(0);
        assert!(decode_value(&encoded).is_err());
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(decode_value(&[99]).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_STR);
        buf.put_u32_le(u32::MAX);
        assert!(decode_value(&buf).is_err());
    }
}
