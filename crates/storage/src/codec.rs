//! Compact binary encoding for tuples and values, and the column
//! blocks of a spill segment.
//!
//! The value and tuple encoding itself — tags, varints, the `tuple`
//! row — is defined in [`dcape_common::codec`] (routed batches and the
//! engine's arena rows use it below this crate) and re-exported here
//! unchanged. `Pad` encodes its *virtual* length only; the disk cost
//! model charges for the virtual bytes separately (see
//! [`crate::diskmodel`]).

use bytes::{Buf, BufMut};

pub use dcape_common::codec::{
    decode_tuple, decode_value, encode_tuple, encode_value, encoded_tuple_len, encoded_value_len,
    get_varint, put_varint, varint_len,
};
use dcape_common::codec::{unzigzag, zigzag};
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::StreamId;
use dcape_common::time::VirtualTime;
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;

// ---------------------------------------------------------------------
// Column blocks.
//
// A *stream block* is the columnar encoding of one stream's tuple list
// inside a spill segment (format version 2; see [`crate::segment`]):
//
// ```text
// block  := count:varint [count > 0: layout:u8 body]
//   layout 0 (rows)     body := tuple*            (heterogeneous fallback)
//   layout 1 (columnar) body := stream:u8 arity:varint
//                               seq-col ts-col value-col^arity
// seq-col, ts-col := first:varint (zigzag-varint delta)*   -- delta coded
// value-col := ctag:u8 payload
//   0x00 Null        (no payload)
//   0x01 Int         zigzag varint per row
//   0x02 Double      8 bytes LE bits per row
//   0x03 Bool        u8 per row
//   0x04 Text dict   ndict:varint (len:varint utf8)* index:varint per row
//   0x05 Blob dict   ndict:varint (len:varint bytes)* index:varint per row
//   0x06 Pad const   n:varint                    (whole column, one value)
//   0x07 Pad         n:varint per row
//   0x08 Mixed       value* (tagged per-row fallback)
// ```
//
// The columnar layout requires a uniform stream ID and arity across the
// block (true for any block a partition group produces); anything else
// falls back to the row layout. Monotone timestamps and dense sequence
// numbers delta-code to one or two bytes per row, and low-cardinality
// text/blob columns store each distinct payload once.

const LAYOUT_ROWS: u8 = 0;
const LAYOUT_COLUMNAR: u8 = 1;

const CT_NULL: u8 = 0x00;
const CT_INT: u8 = 0x01;
const CT_DOUBLE: u8 = 0x02;
const CT_BOOL: u8 = 0x03;
const CT_TEXT_DICT: u8 = 0x04;
const CT_BLOB_DICT: u8 = 0x05;
const CT_PAD_CONST: u8 = 0x06;
const CT_PAD: u8 = 0x07;
const CT_MIXED: u8 = 0x08;

/// Delta-code a u64 column: first value verbatim, then zigzag-varint
/// differences (wrapping, so arbitrary jumps still round-trip).
fn put_delta_column(buf: &mut impl BufMut, values: impl Iterator<Item = u64>) {
    let mut prev: Option<u64> = None;
    for v in values {
        match prev {
            None => put_varint(buf, v),
            Some(p) => put_varint(buf, zigzag((v as i64).wrapping_sub(p as i64))),
        }
        prev = Some(v);
    }
}

fn get_delta_column(buf: &mut impl Buf, count: usize) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for i in 0..count {
        let v = if i == 0 {
            get_varint(buf)?
        } else {
            let prev = *out.last().expect("i > 0");
            (prev as i64).wrapping_add(unzigzag(get_varint(buf)?)) as u64
        };
        out.push(v);
    }
    Ok(out)
}

/// Pick the column encoding for value column `c` of a uniform block.
fn column_tag(tuples: &[Tuple], c: usize) -> u8 {
    let uniform = |f: fn(&Value) -> bool| tuples.iter().all(|t| f(&t.values()[c]));
    match &tuples[0].values()[c] {
        Value::Null if uniform(|v| matches!(v, Value::Null)) => CT_NULL,
        Value::Int(_) if uniform(|v| matches!(v, Value::Int(_))) => CT_INT,
        Value::Double(_) if uniform(|v| matches!(v, Value::Double(_))) => CT_DOUBLE,
        Value::Bool(_) if uniform(|v| matches!(v, Value::Bool(_))) => CT_BOOL,
        Value::Text(_) if uniform(|v| matches!(v, Value::Text(_))) => CT_TEXT_DICT,
        Value::Blob(_) if uniform(|v| matches!(v, Value::Blob(_))) => CT_BLOB_DICT,
        Value::Pad(n) if uniform(|v| matches!(v, Value::Pad(_))) => {
            if tuples.iter().all(|t| t.values()[c] == Value::Pad(*n)) {
                CT_PAD_CONST
            } else {
                CT_PAD
            }
        }
        _ => CT_MIXED,
    }
}

fn encode_column(buf: &mut impl BufMut, tuples: &[Tuple], c: usize) {
    let tag = column_tag(tuples, c);
    buf.put_u8(tag);
    let col = tuples.iter().map(|t| &t.values()[c]);
    match tag {
        CT_NULL => {}
        CT_INT => {
            for v in col {
                let Value::Int(i) = v else { unreachable!() };
                put_varint(buf, zigzag(*i));
            }
        }
        CT_DOUBLE => {
            for v in col {
                let Value::Double(d) = v else { unreachable!() };
                buf.put_u64_le(d.to_bits());
            }
        }
        CT_BOOL => {
            for v in col {
                let Value::Bool(b) = v else { unreachable!() };
                buf.put_u8(*b as u8);
            }
        }
        CT_PAD_CONST => {
            let Value::Pad(n) = tuples[0].values()[c] else {
                unreachable!()
            };
            put_varint(buf, n as u64);
        }
        CT_PAD => {
            for v in col {
                let Value::Pad(n) = v else { unreachable!() };
                put_varint(buf, *n as u64);
            }
        }
        CT_TEXT_DICT => {
            let mut dict: Vec<&str> = Vec::new();
            let mut map: dcape_common::hash::FxHashMap<&str, u64> =
                dcape_common::hash::FxHashMap::default();
            let mut indexes: Vec<u64> = Vec::with_capacity(tuples.len());
            for v in col {
                let Value::Text(s) = v else { unreachable!() };
                let id = *map.entry(s.as_ref()).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u64
                });
                indexes.push(id);
            }
            put_varint(buf, dict.len() as u64);
            for s in dict {
                put_varint(buf, s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
            for id in indexes {
                put_varint(buf, id);
            }
        }
        CT_BLOB_DICT => {
            let mut dict: Vec<&[u8]> = Vec::new();
            let mut map: dcape_common::hash::FxHashMap<&[u8], u64> =
                dcape_common::hash::FxHashMap::default();
            let mut indexes: Vec<u64> = Vec::with_capacity(tuples.len());
            for v in col {
                let Value::Blob(b) = v else { unreachable!() };
                let id = *map.entry(b.as_ref()).or_insert_with(|| {
                    dict.push(b);
                    (dict.len() - 1) as u64
                });
                indexes.push(id);
            }
            put_varint(buf, dict.len() as u64);
            for b in dict {
                put_varint(buf, b.len() as u64);
                buf.put_slice(b);
            }
            for id in indexes {
                put_varint(buf, id);
            }
        }
        _ => {
            for v in col {
                encode_value(buf, v);
            }
        }
    }
}

fn decode_column(buf: &mut impl Buf, count: usize) -> Result<Vec<Value>> {
    if !buf.has_remaining() {
        return Err(DcapeError::codec("column: unexpected end of input"));
    }
    let tag = buf.get_u8();
    let mut out = Vec::with_capacity(count.min(1 << 20));
    match tag {
        CT_NULL => out.resize(count, Value::Null),
        CT_INT => {
            for _ in 0..count {
                out.push(Value::Int(unzigzag(get_varint(buf)?)));
            }
        }
        CT_DOUBLE => {
            for _ in 0..count {
                if buf.remaining() < 8 {
                    return Err(DcapeError::codec("double column: short input"));
                }
                out.push(Value::Double(f64::from_bits(buf.get_u64_le())));
            }
        }
        CT_BOOL => {
            for _ in 0..count {
                if !buf.has_remaining() {
                    return Err(DcapeError::codec("bool column: short input"));
                }
                out.push(Value::Bool(buf.get_u8() != 0));
            }
        }
        CT_PAD_CONST => {
            let n = u32::try_from(get_varint(buf)?)
                .map_err(|_| DcapeError::codec("pad column: length exceeds u32"))?;
            out.resize(count, Value::Pad(n));
        }
        CT_PAD => {
            for _ in 0..count {
                let n = u32::try_from(get_varint(buf)?)
                    .map_err(|_| DcapeError::codec("pad column: length exceeds u32"))?;
                out.push(Value::Pad(n));
            }
        }
        CT_TEXT_DICT | CT_BLOB_DICT => {
            let ndict = get_varint(buf)? as usize;
            if ndict > count {
                return Err(DcapeError::codec("column dict larger than column"));
            }
            let mut dict: Vec<Value> = Vec::with_capacity(ndict);
            for _ in 0..ndict {
                let len = get_varint(buf)? as usize;
                if buf.remaining() < len {
                    return Err(DcapeError::codec("column dict entry: short input"));
                }
                let bytes = &buf.chunk()[..len];
                dict.push(if tag == CT_TEXT_DICT {
                    let s = std::str::from_utf8(bytes)
                        .map_err(|e| DcapeError::codec(format!("dict text: invalid utf8: {e}")))?;
                    Value::text(s)
                } else {
                    Value::Blob(bytes.into())
                });
                buf.advance(len);
            }
            for _ in 0..count {
                let id = get_varint(buf)? as usize;
                let v = dict
                    .get(id)
                    .ok_or_else(|| DcapeError::codec("column dict index out of range"))?;
                out.push(v.clone());
            }
        }
        CT_MIXED => {
            for _ in 0..count {
                out.push(decode_value(buf)?);
            }
        }
        tag => return Err(DcapeError::codec(format!("unknown column tag 0x{tag:02x}"))),
    }
    Ok(out)
}

/// Encode one stream's tuple list as a column block.
pub fn encode_stream_block(buf: &mut impl BufMut, tuples: &[Tuple]) {
    put_varint(buf, tuples.len() as u64);
    if tuples.is_empty() {
        return;
    }
    let stream = tuples[0].stream();
    let arity = tuples[0].arity();
    if !tuples
        .iter()
        .all(|t| t.stream() == stream && t.arity() == arity)
    {
        buf.put_u8(LAYOUT_ROWS);
        for t in tuples {
            encode_tuple(buf, t);
        }
        return;
    }
    buf.put_u8(LAYOUT_COLUMNAR);
    buf.put_u8(stream.0);
    put_varint(buf, arity as u64);
    put_delta_column(buf, tuples.iter().map(Tuple::seq));
    put_delta_column(buf, tuples.iter().map(|t| t.ts().as_millis()));
    for c in 0..arity {
        encode_column(buf, tuples, c);
    }
}

/// Decode one stream's column block back into its tuple list.
pub fn decode_stream_block(buf: &mut impl Buf) -> Result<Vec<Tuple>> {
    let count = get_varint(buf)? as usize;
    if count == 0 {
        return Ok(Vec::new());
    }
    if !buf.has_remaining() {
        return Err(DcapeError::codec("block: unexpected end of input"));
    }
    match buf.get_u8() {
        LAYOUT_ROWS => {
            let mut tuples = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                tuples.push(decode_tuple(buf)?);
            }
            Ok(tuples)
        }
        LAYOUT_COLUMNAR => {
            if !buf.has_remaining() {
                return Err(DcapeError::codec("block: missing stream id"));
            }
            let stream = StreamId(buf.get_u8());
            let arity = get_varint(buf)? as usize;
            if arity > 1 << 20 {
                return Err(DcapeError::codec("block: implausible arity"));
            }
            let seqs = get_delta_column(buf, count)?;
            let tss = get_delta_column(buf, count)?;
            let mut columns: Vec<Vec<Value>> = Vec::with_capacity(arity.min(1 << 10));
            for _ in 0..arity {
                columns.push(decode_column(buf, count)?);
            }
            let mut tuples = Vec::with_capacity(count.min(1 << 20));
            for i in 0..count {
                let values: Vec<Value> = columns.iter().map(|col| col[i].clone()).collect();
                tuples.push(Tuple::new(
                    stream,
                    seqs[i],
                    VirtualTime::from_millis(tss[i]),
                    values,
                ));
            }
            Ok(tuples)
        }
        b => Err(DcapeError::codec(format!("unknown block layout 0x{b:02x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use dcape_common::tuple::TupleBuilder;
    use proptest::prelude::*;

    fn block_round_trip(tuples: &[Tuple]) {
        let mut buf = BytesMut::new();
        encode_stream_block(&mut buf, tuples);
        let mut bytes = buf.freeze();
        let out = decode_stream_block(&mut bytes).unwrap();
        assert_eq!(out, tuples);
        assert!(!bytes.has_remaining(), "trailing bytes after block decode");
    }

    #[test]
    fn stream_block_round_trips_uniform_columns() {
        let currencies = ["EUR", "USD", "JPY"];
        let tuples: Vec<Tuple> = (0..50u64)
            .map(|i| {
                TupleBuilder::new(StreamId(1))
                    .seq(i)
                    .ts(VirtualTime::from_millis(i * 30))
                    .value((i % 7) as i64)
                    .value(currencies[(i % 3) as usize])
                    .pad(1024)
                    .build()
            })
            .collect();
        block_round_trip(&tuples);
    }

    #[test]
    fn stream_block_round_trips_every_column_kind() {
        let tuples: Vec<Tuple> = (0..20u64)
            .map(|i| {
                TupleBuilder::new(StreamId(0))
                    .seq(i * 3 + 1)
                    .ts(VirtualTime::from_millis(1_000_000 + i))
                    .value(Value::Null)
                    .value(-(i as i64) * 1001)
                    .value(i as f64 * 0.5)
                    .value(i % 2 == 0)
                    .value(Value::Blob(Bytes::from(vec![(i % 4) as u8; 16])))
                    .pad((i % 5) as u32 * 100)
                    .build()
            })
            .collect();
        block_round_trip(&tuples);
    }

    #[test]
    fn stream_block_round_trips_mixed_type_column() {
        // One column alternates Int/Text => CT_MIXED fallback.
        let tuples: Vec<Tuple> = (0..10u64)
            .map(|i| {
                let b = TupleBuilder::new(StreamId(2)).seq(i);
                if i % 2 == 0 {
                    b.value(i as i64).build()
                } else {
                    b.value("odd").build()
                }
            })
            .collect();
        block_round_trip(&tuples);
    }

    #[test]
    fn stream_block_ragged_arity_falls_back_to_rows() {
        let mut tuples = vec![
            TupleBuilder::new(StreamId(0)).seq(0).value(1i64).build(),
            TupleBuilder::new(StreamId(0))
                .seq(1)
                .value(2i64)
                .value("extra")
                .build(),
        ];
        block_round_trip(&tuples);
        // Mixed stream IDs too.
        tuples[1] = TupleBuilder::new(StreamId(1)).seq(1).value(2i64).build();
        block_round_trip(&tuples);
    }

    #[test]
    fn empty_block_round_trips() {
        block_round_trip(&[]);
    }

    #[test]
    fn stream_block_beats_row_encoding_on_repetitive_data() {
        // Monotone timestamps, dense seqs, low-cardinality blob payloads:
        // exactly the spill-heavy shape the columnar format targets.
        let templates: Vec<Bytes> = (0..4u8).map(|t| Bytes::from(vec![t; 256])).collect();
        let tuples: Vec<Tuple> = (0..200u64)
            .map(|i| {
                TupleBuilder::new(StreamId(0))
                    .seq(i)
                    .ts(VirtualTime::from_millis(i * 30))
                    .value((i % 9) as i64)
                    .value(Value::Blob(templates[(i % 4) as usize].clone()))
                    .build()
            })
            .collect();
        let mut cols = BytesMut::new();
        encode_stream_block(&mut cols, &tuples);
        let rows: usize = tuples.iter().map(encoded_tuple_len).sum();
        assert!(
            cols.len() * 2 < rows,
            "columnar {} should be well under half of row {}",
            cols.len(),
            rows
        );
    }

    #[test]
    fn truncated_blocks_error_not_panic() {
        let tuples: Vec<Tuple> = (0..8u64)
            .map(|i| {
                TupleBuilder::new(StreamId(1))
                    .seq(i)
                    .ts(VirtualTime::from_millis(i))
                    .value(i as i64)
                    .value("abc")
                    .build()
            })
            .collect();
        let mut buf = BytesMut::new();
        encode_stream_block(&mut buf, &tuples);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(
                decode_stream_block(&mut partial).is_err(),
                "decode of {cut}/{} bytes should fail",
                full.len()
            );
        }
    }

    #[test]
    fn dict_index_out_of_range_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1); // count
        buf.put_u8(LAYOUT_COLUMNAR);
        buf.put_u8(0); // stream
        put_varint(&mut buf, 1); // arity
        put_varint(&mut buf, 0); // seq
        put_varint(&mut buf, 0); // ts
        buf.put_u8(CT_TEXT_DICT);
        put_varint(&mut buf, 1); // ndict
        put_varint(&mut buf, 1); // entry len
        buf.put_u8(b'x');
        put_varint(&mut buf, 5); // index out of range
        let mut bytes = buf.freeze();
        assert!(decode_stream_block(&mut bytes).is_err());
    }

    #[test]
    fn oversized_dict_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1); // count
        buf.put_u8(LAYOUT_COLUMNAR);
        buf.put_u8(0);
        put_varint(&mut buf, 1); // arity
        put_varint(&mut buf, 0); // seq
        put_varint(&mut buf, 0); // ts
        buf.put_u8(CT_BLOB_DICT);
        put_varint(&mut buf, 9); // ndict > count
        let mut bytes = buf.freeze();
        assert!(decode_stream_block(&mut bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_stream_block_round_trip(
            seqs in proptest::collection::vec(any::<u64>(), 0..40),
            key_mod in 1i64..10,
            ts_step in 0u64..100,
        ) {
            let tuples: Vec<Tuple> = seqs
                .iter()
                .enumerate()
                .map(|(i, &seq)| {
                    TupleBuilder::new(StreamId(1))
                        .seq(seq)
                        .ts(VirtualTime::from_millis(i as u64 * ts_step))
                        .value(seq as i64 % key_mod)
                        .value(["a", "bb", "ccc"][i % 3])
                        .build()
                })
                .collect();
            let mut buf = BytesMut::new();
            encode_stream_block(&mut buf, &tuples);
            let mut bytes = buf.freeze();
            prop_assert_eq!(decode_stream_block(&mut bytes).unwrap(), tuples);
            prop_assert!(!bytes.has_remaining());
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    proptest! {
        /// Column-block decoding of arbitrary bytes must never panic.
        #[test]
        fn decode_stream_block_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut b = Bytes::from(data);
            let _ = decode_stream_block(&mut b);
        }

        /// Corrupting any single byte of a valid column block either
        /// still decodes or errors — never panics.
        #[test]
        fn block_bit_flips_never_panic(idx in 0usize..4096, flip in 1u8..255) {
            let templates: Vec<Bytes> = (0..3u8).map(|t| Bytes::from(vec![t; 32])).collect();
            let tuples: Vec<dcape_common::tuple::Tuple> = (0..16u64)
                .map(|i| {
                    dcape_common::tuple::TupleBuilder::new(dcape_common::ids::StreamId(1))
                        .seq(i)
                        .ts(dcape_common::time::VirtualTime::from_millis(i * 30))
                        .value(i as i64 % 5)
                        .value(dcape_common::value::Value::Blob(
                            templates[(i % 3) as usize].clone(),
                        ))
                        .pad(100)
                        .build()
                })
                .collect();
            let mut buf = bytes::BytesMut::new();
            encode_stream_block(&mut buf, &tuples);
            let mut bytes = buf.to_vec();
            let idx = idx % bytes.len();
            bytes[idx] ^= flip;
            let mut b = Bytes::from(bytes);
            let _ = decode_stream_block(&mut b);
        }
    }
}
