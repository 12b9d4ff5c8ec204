//! Compact binary encoding for values and tuples.
//!
//! Hand-rolled on top of the `bytes` crate so the workspace needs no
//! external serialization format. The format is little-endian with
//! LEB128-style varints for lengths and sequence numbers:
//!
//! ```text
//! value  := tag:u8 payload
//!   0x00 Null
//!   0x01 Int      zigzag varint
//!   0x02 Double   8 bytes LE bits
//!   0x03 Bool     u8
//!   0x04 Text     varint len + utf8 bytes
//!   0x05 Blob     varint len + bytes
//!   0x06 Pad      varint virtual-length       (no payload bytes!)
//! tuple  := stream:u8 seq:varint ts:varint arity:varint value*
//! ```
//!
//! `Pad` encodes its *virtual* length only — the whole point of `Pad` is
//! to model large state without materializing it; the disk cost model
//! charges for the virtual bytes separately.
//!
//! One encoding serves every place a tuple is held as bytes: a routed
//! [`TupleBatch`](crate::batch::TupleBatch) row, a `DataBatch` wire
//! frame, a columnar arena row (`arity value*`, the tail of `tuple`) and
//! the row fallback of a spill segment. `dcape_storage::codec`
//! re-exports this module and adds the column blocks.

use bytes::{Buf, BufMut};

use crate::error::{DcapeError, Result};
use crate::ids::StreamId;
use crate::time::VirtualTime;
use crate::tuple::Tuple;
use crate::value::Value;

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_DOUBLE: u8 = 0x02;
const TAG_BOOL: u8 = 0x03;
const TAG_TEXT: u8 = 0x04;
const TAG_BLOB: u8 = 0x05;
const TAG_PAD: u8 = 0x06;

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Append an unsigned varint (LEB128).
#[inline]
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    // Assembled on the stack so the sink is appended to (and its
    // capacity checked) once per number, not once per byte.
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let mut n = 0;
    while v >= 0x80 {
        bytes[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    bytes[n] = v as u8;
    buf.put_slice(&bytes[..=n]);
}

/// The LEB128 number at the front of `bytes` and its encoded length, or
/// `None` if it is cut short or runs past [`MAX_VARINT_LEN`].
#[inline(always)]
fn leb128(bytes: &[u8]) -> Option<(u64, usize)> {
    // Most numbers here — lengths, arities, small keys, deltas, ids —
    // take one or two bytes: read those without the loop.
    match *bytes {
        [b0, ..] if b0 < 0x80 => return Some((b0 as u64, 1)),
        [b0, b1, ..] if b1 < 0x80 => return Some(((b0 & 0x7F) as u64 | (b1 as u64) << 7, 2)),
        _ => {}
    }
    let mut v: u64 = 0;
    for (i, &byte) in bytes.iter().take(MAX_VARINT_LEN).enumerate() {
        v |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Why [`leb128`] refused `bytes`.
#[cold]
fn varint_error(bytes: &[u8]) -> DcapeError {
    DcapeError::codec(if bytes.len() > MAX_VARINT_LEN {
        "varint: overflow"
    } else {
        "varint: unexpected end of input"
    })
}

/// Read an unsigned varint (LEB128).
#[inline]
pub fn get_varint(buf: &mut impl Buf) -> Result<u64> {
    // One pass over the unconsumed bytes (every `Buf` here is
    // contiguous), then one `advance`.
    match leb128(buf.chunk()) {
        Some((v, len)) => {
            buf.advance(len);
            Ok(v)
        }
        None => Err(varint_error(buf.chunk())),
    }
}

/// Exact encoded length of an unsigned varint (LEB128), in bytes.
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(bits/7), with 0 encoding as one byte.
    (9 * (64 - v.leading_zeros()) as usize + 64) / 64
}

/// Exact encoded length of one value, in bytes.
#[inline]
pub fn encoded_value_len(v: &Value) -> usize {
    encoded_raw_value_len(v.as_raw())
}

/// Exact encoded length of one tuple, in bytes.
pub fn encoded_tuple_len(t: &Tuple) -> usize {
    1 + varint_len(t.seq())
        + varint_len(t.ts().as_millis())
        + varint_len(t.arity() as u64)
        + t.values().iter().map(encoded_value_len).sum::<usize>()
}

/// Map a signed integer onto the unsigned varint range (small magnitudes
/// of either sign encode short).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one value.
#[inline]
pub fn encode_value(buf: &mut impl BufMut, v: &Value) {
    encode_raw_value(buf, v.as_raw());
}

/// Consume a varint-prefixed byte string and return it borrowed from
/// the buffer's unconsumed bytes (every `Buf` here is contiguous).
fn get_len_prefixed<'b, B: Buf>(buf: &'b mut B, what: &str) -> Result<&'b [u8]> {
    let len = get_varint(buf)?;
    match usize::try_from(len) {
        Ok(len) if len <= buf.remaining() => Ok(&B::chunk(buf)[..len]),
        _ => Err(DcapeError::codec(format!("{what}: short input"))),
    }
}

/// Decode one value.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value> {
    if !buf.has_remaining() {
        return Err(DcapeError::codec("value: unexpected end of input"));
    }
    match buf.get_u8() {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(unzigzag(get_varint(buf)?))),
        TAG_DOUBLE => {
            if buf.remaining() < 8 {
                return Err(DcapeError::codec("double: short input"));
            }
            Ok(Value::Double(f64::from_bits(buf.get_u64_le())))
        }
        TAG_BOOL => {
            if !buf.has_remaining() {
                return Err(DcapeError::codec("bool: short input"));
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        TAG_TEXT => {
            let bytes = get_len_prefixed(buf, "text")?;
            let len = bytes.len();
            let v = std::str::from_utf8(bytes)
                .map(Value::text)
                .map_err(|e| DcapeError::codec(format!("text: invalid utf8: {e}")))?;
            buf.advance(len);
            Ok(v)
        }
        TAG_BLOB => {
            let bytes = get_len_prefixed(buf, "blob")?;
            let len = bytes.len();
            let v = Value::Blob(bytes.into());
            buf.advance(len);
            Ok(v)
        }
        TAG_PAD => {
            let n = get_varint(buf)?;
            u32::try_from(n)
                .map(Value::Pad)
                .map_err(|_| DcapeError::codec("pad: length exceeds u32"))
        }
        tag => Err(DcapeError::codec(format!("unknown value tag 0x{tag:02x}"))),
    }
}

/// One encoded value read in place: scalars decoded, text and blob
/// payloads borrowed from the input (text not yet checked for UTF-8).
/// What the spill block codec walks arena rows with, so a stored row is
/// re-encoded without ever becoming a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawValue<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float, as its bit pattern.
    Double(u64),
    /// Boolean.
    Bool(bool),
    /// Text payload bytes.
    Text(&'a [u8]),
    /// Blob payload bytes.
    Blob(&'a [u8]),
    /// Accounting-only payload length.
    Pad(u32),
}

/// Read one encoded value off the front of `buf` without allocating.
/// Refuses what [`decode_value`] refuses, except that text bytes are
/// returned unchecked.
#[inline]
pub fn raw_value<'a>(buf: &mut &'a [u8]) -> Result<RawValue<'a>> {
    let Some((&tag, rest)) = buf.split_first() else {
        return Err(DcapeError::codec("value: unexpected end of input"));
    };
    *buf = rest;
    match tag {
        TAG_NULL => Ok(RawValue::Null),
        TAG_INT => Ok(RawValue::Int(unzigzag(get_varint(buf)?))),
        TAG_DOUBLE if buf.len() >= 8 => Ok(RawValue::Double(buf.get_u64_le())),
        TAG_BOOL if !buf.is_empty() => Ok(RawValue::Bool(buf.get_u8() != 0)),
        TAG_DOUBLE | TAG_BOOL => Err(DcapeError::codec("value: short input")),
        TAG_TEXT | TAG_BLOB => {
            let len = usize::try_from(get_varint(buf)?).unwrap_or(usize::MAX);
            let rest: &'a [u8] = buf;
            if len > rest.len() {
                return Err(DcapeError::codec("text or blob: short input"));
            }
            let (bytes, tail) = rest.split_at(len);
            *buf = tail;
            Ok(if tag == TAG_TEXT {
                RawValue::Text(bytes)
            } else {
                RawValue::Blob(bytes)
            })
        }
        TAG_PAD => u32::try_from(get_varint(buf)?)
            .map(RawValue::Pad)
            .map_err(|_| DcapeError::codec("pad: length exceeds u32")),
        tag => Err(DcapeError::codec(format!("unknown value tag 0x{tag:02x}"))),
    }
}

/// A reader over bytes known to be well formed — rows
/// [`TupleBatch::push`](crate::batch::TupleBatch::push) wrote or
/// [`TupleBatch::decode`](crate::batch::TupleBatch::decode) checked,
/// arena rows — for the walks that read every routed and every moved
/// row. It reads by index: each read is bounds-checked and has no error
/// path, and a number is read without the length checks of
/// [`get_varint`] (a one-byte one without a loop). Bytes that are not well
/// formed make it panic; [`raw_value`] and [`get_varint`] are the
/// readers that refuse them.
#[derive(Debug, Clone, Copy)]
pub struct KnownBytes<'a> {
    bytes: &'a [u8],
    at: usize,
}

/// Why reading [`KnownBytes`] cannot fail.
const KNOWN: &str = "bytes known to be well formed";

impl<'a> KnownBytes<'a> {
    /// A reader at the front of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        KnownBytes { bytes, at: 0 }
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn position(&self) -> usize {
        self.at
    }

    /// The bytes read since offset `start`.
    #[inline]
    pub fn since(&self, start: usize) -> &'a [u8] {
        &self.bytes[start..self.at]
    }

    /// Ask for the cache line `distance` bytes past the next unread
    /// one (a hint: see [`prefetch`](crate::prefetch::prefetch)).
    #[inline(always)]
    pub fn prefetch_ahead(&self, distance: usize) {
        crate::prefetch::prefetch(self.bytes.as_ptr().wrapping_add(self.at + distance));
    }

    /// Read one byte.
    #[inline(always)]
    pub fn byte(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    /// Read one unsigned varint: a byte at a time, with no length
    /// check — a well-formed one ends within ten bytes.
    #[inline(always)]
    pub fn varint(&mut self) -> u64 {
        let b0 = self.byte();
        if b0 < 0x80 {
            return b0 as u64;
        }
        let mut v = (b0 & 0x7F) as u64;
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= ((b & 0x7F) as u64) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    #[inline(always)]
    fn take(&mut self, n: usize) -> &'a [u8] {
        let taken = &self.bytes[self.at..self.at + n];
        self.at += n;
        taken
    }

    /// Read one encoded value, text and blob payloads borrowed.
    #[inline(always)]
    pub fn value(&mut self) -> RawValue<'a> {
        match self.byte() {
            TAG_NULL => RawValue::Null,
            TAG_INT => RawValue::Int(unzigzag(self.varint())),
            TAG_DOUBLE => {
                RawValue::Double(u64::from_le_bytes(self.take(8).try_into().expect(KNOWN)))
            }
            TAG_BOOL => RawValue::Bool(self.byte() != 0),
            tag @ (TAG_TEXT | TAG_BLOB) => {
                let len = self.varint() as usize;
                let bytes = self.take(len);
                if tag == TAG_TEXT {
                    RawValue::Text(bytes)
                } else {
                    RawValue::Blob(bytes)
                }
            }
            TAG_PAD => RawValue::Pad(self.varint() as u32),
            tag => unreachable!("value tag {tag:#x} in {KNOWN}"),
        }
    }
}

/// The bytes `v` accounts for in operator state
/// ([`Value::payload_bytes`]).
#[inline(always)]
pub fn raw_payload_bytes(v: RawValue<'_>) -> usize {
    match v {
        RawValue::Text(bytes) | RawValue::Blob(bytes) => bytes.len(),
        RawValue::Pad(n) => n as usize,
        _ => 0,
    }
}

/// Append `v` in the value encoding: the inverse of [`raw_value`].
#[inline]
pub fn encode_raw_value(buf: &mut impl BufMut, v: RawValue<'_>) {
    match v {
        RawValue::Null => buf.put_u8(TAG_NULL),
        RawValue::Int(i) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag(i));
        }
        RawValue::Double(bits) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_u64_le(bits);
        }
        RawValue::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(b as u8);
        }
        RawValue::Text(bytes) | RawValue::Blob(bytes) => {
            let text = matches!(v, RawValue::Text(_));
            buf.put_u8(if text { TAG_TEXT } else { TAG_BLOB });
            put_varint(buf, bytes.len() as u64);
            buf.put_slice(bytes);
        }
        RawValue::Pad(n) => {
            buf.put_u8(TAG_PAD);
            put_varint(buf, n as u64);
        }
    }
}

/// Exact length [`encode_raw_value`] writes for `v`, in bytes.
#[inline]
pub fn encoded_raw_value_len(v: RawValue<'_>) -> usize {
    1 + match v {
        RawValue::Null => 0,
        RawValue::Int(i) => varint_len(zigzag(i)),
        RawValue::Double(_) => 8,
        RawValue::Bool(_) => 1,
        RawValue::Text(bytes) | RawValue::Blob(bytes) => {
            varint_len(bytes.len() as u64) + bytes.len()
        }
        RawValue::Pad(n) => varint_len(n as u64),
    }
}

/// Step over one encoded value without building it, returning the bytes
/// it accounts for in operator state ([`Value::payload_bytes`]). Refuses
/// exactly what [`decode_value`] refuses; the UTF-8 check of a text
/// value is run only on request (bytes this program encoded itself need
/// none).
#[inline]
pub fn skip_value(buf: &mut &[u8], check_utf8: bool) -> Result<usize> {
    let v = raw_value(buf)?;
    if let (RawValue::Text(bytes), true) = (v, check_utf8) {
        std::str::from_utf8(bytes)
            .map_err(|e| DcapeError::codec(format!("text: invalid utf8: {e}")))?;
    }
    Ok(raw_payload_bytes(v))
}

/// Decode the value in column `idx` of a row body (`arity:varint
/// value*`, the tail of `tuple`), stepping over the columns before it;
/// `None` if the row has no such column.
#[inline]
pub fn body_value(mut body: &[u8], idx: usize) -> Result<Option<Value>> {
    if idx as u64 >= get_varint(&mut body)? {
        return Ok(None);
    }
    for _ in 0..idx {
        skip_value(&mut body, false)?;
    }
    decode_value(&mut body).map(Some)
}

/// Encode one tuple.
pub fn encode_tuple(buf: &mut impl BufMut, t: &Tuple) {
    buf.put_u8(t.stream().0);
    put_varint(buf, t.seq());
    put_varint(buf, t.ts().as_millis());
    put_varint(buf, t.arity() as u64);
    for v in t.values() {
        encode_value(buf, v);
    }
}

/// Decode one tuple.
pub fn decode_tuple(buf: &mut impl Buf) -> Result<Tuple> {
    if !buf.has_remaining() {
        return Err(DcapeError::codec("tuple: unexpected end of input"));
    }
    let stream = StreamId(buf.get_u8());
    let seq = get_varint(buf)?;
    let ts = VirtualTime::from_millis(get_varint(buf)?);
    let arity = get_varint(buf)? as usize;
    if arity > 1 << 20 {
        return Err(DcapeError::codec("tuple: implausible arity"));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Tuple::new(stream, seq, ts, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleBuilder;
    use bytes::{Bytes, BytesMut};
    use proptest::prelude::*;

    fn round_trip_value(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, v);
        let mut bytes = buf.freeze();
        let out = decode_value(&mut bytes).unwrap();
        assert!(!bytes.has_remaining(), "trailing bytes after decode");
        out
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int(-64),
            Value::Double(3.25),
            Value::Double(f64::NAN),
            Value::Bool(true),
            Value::Bool(false),
            Value::text(""),
            Value::text("bank1.offerCurrency"),
            Value::Blob(Bytes::from_static(b"\x00\x01\x02")),
            Value::Pad(0),
            Value::Pad(u32::MAX),
        ]
    }

    #[test]
    fn value_round_trips() {
        for v in sample_values() {
            assert_eq!(round_trip_value(&v), v);
        }
    }

    #[test]
    fn encoded_lens_are_exact() {
        for v in sample_values() {
            let mut buf = BytesMut::new();
            encode_value(&mut buf, &v);
            assert_eq!(buf.len(), encoded_value_len(&v), "{v:?}");
        }
        let t = TupleBuilder::new(StreamId(2))
            .seq(u64::MAX)
            .ts(VirtualTime::from_millis(98765))
            .value(42i64)
            .value("EUR")
            .pad(512)
            .build();
        let mut buf = BytesMut::new();
        encode_tuple(&mut buf, &t);
        assert_eq!(buf.len(), encoded_tuple_len(&t));
    }

    #[test]
    fn skip_value_steps_like_decode_and_reports_payload_bytes() {
        for v in sample_values() {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            buf.push(0xEE); // the next value's first byte stays put
            let mut rest = buf.as_slice();
            assert_eq!(skip_value(&mut rest, true).unwrap(), v.payload_bytes());
            assert_eq!(rest, [0xEE], "{v:?}");
            for cut in 0..buf.len() - 1 {
                assert!(
                    skip_value(&mut &buf[..cut], true).is_err(),
                    "{v:?} cut {cut}"
                );
            }
        }
        assert!(skip_value(&mut &[0xFFu8][..], false).is_err());
        let bad_text = [TAG_TEXT, 2, 0xC3, 0x28];
        assert!(skip_value(&mut &bad_text[..], true).is_err());
        assert_eq!(skip_value(&mut &bad_text[..], false).unwrap(), 2);
        let mut wide_pad = vec![TAG_PAD];
        put_varint(&mut wide_pad, u32::MAX as u64 + 1);
        assert!(skip_value(&mut wide_pad.as_slice(), false).is_err());
    }

    #[test]
    fn raw_value_reads_in_place_and_encodes_back() {
        for v in sample_values() {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            let encoded = buf.len();
            buf.push(0xEE);
            let mut rest = buf.as_slice();
            let raw = raw_value(&mut rest).unwrap();
            assert_eq!(rest, [0xEE], "{v:?}");
            match (raw, &v) {
                (RawValue::Text(b), Value::Text(s)) => assert_eq!(b, s.as_bytes()),
                (RawValue::Blob(b), Value::Blob(bytes)) => assert_eq!(b, &bytes[..]),
                (RawValue::Int(i), Value::Int(j)) => assert_eq!(i, *j),
                _ => {}
            }
            let mut again = Vec::new();
            encode_raw_value(&mut again, raw);
            assert_eq!(again, buf[..encoded], "{v:?}");
            for cut in 0..encoded {
                assert!(raw_value(&mut &buf[..cut]).is_err(), "{v:?} cut {cut}");
            }
        }
        assert!(raw_value(&mut &[0xFFu8][..]).is_err());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            (1 << 63) - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v={v}");
        }
    }

    #[test]
    fn pad_encodes_virtually_not_physically() {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &Value::Pad(1_000_000));
        assert!(buf.len() < 8, "pad must not materialize payload bytes");
    }

    #[test]
    fn tuple_round_trips() {
        let t = TupleBuilder::new(StreamId(2))
            .seq(12345)
            .ts(VirtualTime::from_millis(98765))
            .value(42i64)
            .value("EUR")
            .value(1.5f64)
            .pad(512)
            .build();
        let mut buf = BytesMut::new();
        encode_tuple(&mut buf, &t);
        let mut bytes = buf.freeze();
        let out = decode_tuple(&mut bytes).unwrap();
        assert_eq!(out, t);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let t = TupleBuilder::new(StreamId(0))
            .value(7i64)
            .value("abc")
            .build();
        let mut buf = BytesMut::new();
        encode_tuple(&mut buf, &t);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(
                decode_tuple(&mut partial).is_err(),
                "decode of {cut}/{} bytes should fail",
                full.len()
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut b = Bytes::from_static(&[0xFF]);
        assert!(decode_value(&mut b).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x04); // TEXT
        put_varint(&mut buf, 2);
        buf.put_slice(&[0xC3, 0x28]); // invalid utf8
        let mut bytes = buf.freeze();
        assert!(decode_value(&mut bytes).is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
        }
    }

    /// The one- and two-byte fast path reads what the byte loop reads,
    /// for every pair of leading bytes — cut after one byte, after two,
    /// or followed by more — long spellings of small numbers included.
    #[test]
    fn the_short_varint_path_reads_what_the_loop_reads() {
        fn by_loop(bytes: &[u8]) -> Option<(u64, usize)> {
            let mut v = 0u64;
            for (i, &byte) in bytes.iter().take(MAX_VARINT_LEN).enumerate() {
                v |= ((byte & 0x7F) as u64) << (7 * i);
                if byte & 0x80 == 0 {
                    return Some((v, i + 1));
                }
            }
            None
        }
        assert_eq!(leb128(&[]), None);
        for b0 in 0..=255u8 {
            assert_eq!(leb128(&[b0]), by_loop(&[b0]));
            for b1 in 0..=255u8 {
                for tail in [&[][..], &[0x05], &[0x85, 0x01]] {
                    let bytes = [&[b0, b1][..], tail].concat();
                    assert_eq!(leb128(&bytes), by_loop(&bytes), "{bytes:x?}");
                }
            }
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 bytes of continuation => > 64 bits.
        let mut b = Bytes::from_static(&[0x80; 11]);
        assert!(get_varint(&mut b).is_err());
    }

    proptest! {
        #[test]
        fn prop_int_round_trip(v in any::<i64>()) {
            prop_assert_eq!(round_trip_value(&Value::Int(v)), Value::Int(v));
        }

        #[test]
        fn prop_text_round_trip(s in ".{0,64}") {
            let v = Value::text(&s);
            prop_assert_eq!(round_trip_value(&v), v);
        }

        #[test]
        fn prop_tuple_round_trip(
            stream in 0u8..4,
            seq in any::<u64>(),
            ts in any::<u64>(),
            ints in proptest::collection::vec(any::<i64>(), 0..8),
        ) {
            let values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            let t = Tuple::new(StreamId(stream), seq, VirtualTime::from_millis(ts), values);
            let mut buf = BytesMut::new();
            encode_tuple(&mut buf, &t);
            let mut bytes = buf.freeze();
            prop_assert_eq!(decode_tuple(&mut bytes).unwrap(), t);
        }

        #[test]
        fn prop_zigzag_round_trip(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        /// Decoding arbitrary bytes must never panic — it returns a
        /// value (when the bytes happen to parse) or an error — and
        /// stepping over them agrees with decoding them.
        #[test]
        fn decode_value_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut b = data.as_slice();
            let decoded = decode_value(&mut b);
            let mut s = data.as_slice();
            match (decoded, skip_value(&mut s, true)) {
                (Ok(v), Ok(payload)) => {
                    prop_assert_eq!(v.payload_bytes(), payload);
                    prop_assert_eq!(b.len(), s.len());
                }
                (Err(_), Err(_)) => {}
                (d, s) => prop_assert!(false, "decode {:?} but skip {:?}", d, s),
            }
        }

        #[test]
        fn decode_tuple_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut b = Bytes::from(data);
            let _ = decode_tuple(&mut b);
        }
    }
}
