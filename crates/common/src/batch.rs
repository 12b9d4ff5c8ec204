//! Batched tuple transport.
//!
//! A [`TupleBatch`] carries routed tuples — rows of `(PartitionId,
//! Tuple)` in arrival order — from a split to one engine, so the
//! dataflow pays one channel send / one frame / one dispatch per batch
//! instead of one per tuple (every runtime's coordinator loop coalesces
//! the ticks between two pulses — up to 64, ~33 at a 30 ms
//! inter-arrival — unless an engine message or a timeout cuts the batch
//! first). The batch boundary is purely a transport grouping: consumers
//! must preserve the contained order.
//!
//! The batch is **one flat byte buffer plus a row count**. Its bytes are
//! exactly the body of a `DataBatch` wire frame:
//!
//! ```text
//! row  := pid:varint tuple          (tuple as in [`crate::codec`])
//!       = pid:varint stream:u8 seq:varint ts:varint arity:varint value*
//! ```
//!
//! A row is encoded once, on the thread that made it, straight into the
//! batch it travels in: [`push_raw`](TupleBatch::push_raw) takes a
//! [`RawRow`] — the row's parts, borrowed from whoever generated them —
//! so the driver's generated rows never become a [`Tuple`];
//! [`push`](TupleBatch::push) writes the same bytes for a caller that
//! holds a tuple, and drops it. The batch then crosses a channel as one
//! allocation, is framed onto a socket by a bulk copy, and the columnar
//! join state copies each row's `arity value*` tail — already its arena
//! row format — without ever rebuilding a [`Tuple`]. Rows that arrive
//! from outside the program enter through [`TupleBatch::decode`], whose
//! one walk checks everything the row readers rely on.

use bytes::Buf;

use crate::codec::{
    body_value, decode_value, encode_raw_value, encode_tuple, get_varint, put_varint,
    raw_payload_bytes, skip_value, KnownBytes, RawValue,
};
use crate::error::{DcapeError, Result};
use crate::ids::{PartitionId, StreamId};
use crate::time::VirtualTime;
use crate::tuple::{heap_size, Tuple};
use crate::value::Value;

/// Bytes [`TupleBatch::with_capacity`] reserves per expected row: what a
/// paper-spec row (integer key plus a `Pad` column) encodes to. Rows
/// with real payloads outgrow it by doubling.
const ROW_BYTES_HINT: usize = 16;

/// One row's parts, borrowed from the source that generated them: what
/// [`TupleBatch::push_raw`] encodes, with no [`Tuple`] in between.
#[derive(Debug, Clone, Copy)]
pub struct RawRow<'a> {
    /// Origin stream.
    pub stream: StreamId,
    /// Per-stream arrival sequence number.
    pub seq: u64,
    /// Virtual arrival timestamp.
    pub ts: VirtualTime,
    /// The column values, in column order.
    pub values: &'a [RawValue<'a>],
}

/// An ordered batch of routed tuples, the unit of inter-operator
/// transfer in the batched dataflow.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    /// The encoded rows, back to back; always a whole number of valid
    /// rows (only `push` and `decode` write it).
    buf: Vec<u8>,
    rows: usize,
}

impl TupleBatch {
    /// New empty batch.
    pub fn new() -> Self {
        TupleBatch::default()
    }

    /// New empty batch with room for about `n` small rows.
    pub fn with_capacity(n: usize) -> Self {
        TupleBatch {
            buf: Vec::with_capacity(n * ROW_BYTES_HINT),
            rows: 0,
        }
    }

    /// Append one routed tuple, preserving arrival order. The tuple is
    /// encoded here and dropped.
    #[inline]
    pub fn push(&mut self, pid: PartitionId, tuple: Tuple) {
        put_varint(&mut self.buf, pid.0 as u64);
        encode_tuple(&mut self.buf, &tuple);
        self.rows += 1;
    }

    /// Append one routed row given by its parts, preserving arrival
    /// order: the bytes [`push`](Self::push) writes for the tuple with
    /// those parts, encoded straight into the batch.
    #[inline]
    pub fn push_raw(&mut self, pid: PartitionId, row: &RawRow<'_>) {
        put_varint(&mut self.buf, pid.0 as u64);
        self.buf.push(row.stream.0);
        put_varint(&mut self.buf, row.seq);
        put_varint(&mut self.buf, row.ts.as_millis());
        put_varint(&mut self.buf, row.values.len() as u64);
        for &v in row.values {
            encode_raw_value(&mut self.buf, v);
        }
        self.rows += 1;
    }

    /// Append `later`'s rows behind these, in their order.
    pub fn append(&mut self, later: &TupleBatch) {
        self.buf.extend_from_slice(&later.buf);
        self.rows += later.rows;
    }

    /// Number of tuples in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the batch holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Drop all tuples, keeping the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
        self.rows = 0;
    }

    /// Hand the contents off, leaving an empty batch with the outgoing
    /// buffer's capacity — what the windows before it grew to — so the
    /// next accumulation window fills it without reallocating.
    pub fn take(&mut self) -> TupleBatch {
        let next = TupleBatch {
            buf: Vec::with_capacity(self.buf.capacity()),
            rows: 0,
        };
        std::mem::replace(self, next)
    }

    /// The encoded rows: the body of a `DataBatch` frame after its row
    /// count.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Take `rows` encoded rows off the front of `buf` — the inverse of
    /// [`as_bytes`](Self::as_bytes) for bytes from outside the program.
    /// One walk checks every row (partition id in range, known value
    /// tags, lengths inside `buf`, UTF-8 text, `Pad` within `u32`), so
    /// reading the batch's rows afterwards cannot fail; then the rows
    /// are copied in bulk.
    pub fn decode(rows: usize, buf: &mut &[u8]) -> Result<Self> {
        let all = *buf;
        let mut rest = all;
        for _ in 0..rows {
            parse_row(&mut rest, true)?;
        }
        *buf = rest;
        Ok(TupleBatch {
            buf: all[..all.len() - rest.len()].to_vec(),
            rows,
        })
    }

    /// Iterate over the rows in batch order.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            buf: KnownBytes::new(&self.buf),
            left: self.rows,
        }
    }

    /// Iterate over the rows in batch order, each with its key: the
    /// value in column `key_columns[s]` of a row of stream `s`, read in
    /// place — `None` when `key_columns` has no entry for the stream or
    /// the row no such column. One walk reads a row's header, steps
    /// over its values summing their payload, and takes the key on the
    /// way (see [`KnownBytes`]).
    pub fn keyed_rows<'k>(&self, key_columns: &'k [usize]) -> KeyedRows<'_, 'k> {
        KeyedRows {
            rows: self.rows(),
            key_columns,
        }
    }
}

/// One row of a [`TupleBatch`], borrowed from its buffer: the routing
/// header decoded, the column values still encoded.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    pid: PartitionId,
    stream: StreamId,
    seq: u64,
    ts: VirtualTime,
    arity: usize,
    /// Sum of the values' [`Value::payload_bytes`].
    payload: usize,
    body: &'a [u8],
}

impl<'a> RowRef<'a> {
    /// Read one `arity value*` body off the front of `buf` as the row
    /// with the given header: the tail of a batch row, and how a stored
    /// row whose header lives in columns (a snapshot's arena row, a
    /// segment's row block) becomes a row again — one definition of a
    /// well-formed body for all of them.
    #[inline]
    pub fn from_body(
        pid: PartitionId,
        stream: StreamId,
        seq: u64,
        ts: VirtualTime,
        buf: &mut &'a [u8],
        check_utf8: bool,
    ) -> Result<Self> {
        let body_start = *buf;
        // Every value encodes to at least one byte, which bounds the
        // arity (and with it the payload sum) by the bytes at hand.
        let arity = match usize::try_from(get_varint(buf)?) {
            Ok(n) if n <= buf.len() => n,
            _ => return Err(DcapeError::codec("row: implausible arity")),
        };
        let mut payload = 0usize;
        for _ in 0..arity {
            payload = payload.saturating_add(skip_value(buf, check_utf8)?);
        }
        Ok(RowRef {
            pid,
            stream,
            seq,
            ts,
            arity,
            payload,
            body: &body_start[..body_start.len() - buf.len()],
        })
    }

    /// [`from_body`](Self::from_body) for a body known to be well
    /// formed, read at `body`'s position; also returns the value in
    /// column `key`, if one is asked for and the row has it, taken in
    /// the same walk.
    #[inline(always)]
    pub fn from_known_body(
        pid: PartitionId,
        stream: StreamId,
        seq: u64,
        ts: VirtualTime,
        body: &mut KnownBytes<'a>,
        key: Option<usize>,
    ) -> (Self, Option<RawValue<'a>>) {
        let start = body.position();
        let arity = body.varint() as usize;
        let key = key.unwrap_or(usize::MAX);
        let mut found = None;
        let mut payload = 0usize;
        for c in 0..arity {
            let v = body.value();
            payload += raw_payload_bytes(v);
            if c == key {
                found = Some(v);
            }
        }
        let row = RowRef {
            pid,
            stream,
            seq,
            ts,
            arity,
            payload,
            body: body.since(start),
        };
        (row, found)
    }

    /// The partition the split routed the tuple to.
    #[inline]
    pub fn pid(&self) -> PartitionId {
        self.pid
    }

    /// Origin stream.
    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Per-stream arrival sequence number.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Virtual arrival timestamp.
    #[inline]
    pub fn ts(&self) -> VirtualTime {
        self.ts
    }

    /// Column count.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The encoded columns, `arity:varint value*` — byte for byte the
    /// columnar state's arena row.
    #[inline]
    pub fn body(&self) -> &'a [u8] {
        self.body
    }

    /// What [`HeapSize::heap_size`](crate::mem::HeapSize::heap_size)
    /// reports for the tuple this row encodes.
    #[inline]
    pub fn heap_size(&self) -> usize {
        heap_size(self.arity, self.payload)
    }

    /// Decode the value in column `idx`, if present, stepping over the
    /// columns before it.
    #[inline]
    pub fn value(&self, idx: usize) -> Option<Value> {
        body_value(self.body, idx).expect(CHECKED)
    }

    /// Rebuild the tuple.
    pub fn to_tuple(&self) -> Tuple {
        let mut buf = self.body;
        get_varint(&mut buf).expect(CHECKED);
        let values = (0..self.arity)
            .map(|_| decode_value(&mut buf).expect(CHECKED))
            .collect();
        Tuple::new(self.stream, self.seq, self.ts, values)
    }
}

/// Why reading a [`RowRef`]'s body cannot fail.
const CHECKED: &str = "batch rows are encoded by push or checked by decode";

/// Iterator over the rows of a [`TupleBatch`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    buf: KnownBytes<'a>,
    left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        self.next_keyed(|_| None).map(|(row, _)| row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> Rows<'a> {
    /// The next row — read as [`parse_row`] reads it, from bytes that
    /// passed it — and its value in column `key_column(stream)`.
    #[inline(always)]
    fn next_keyed(
        &mut self,
        key_column: impl FnOnce(StreamId) -> Option<usize>,
    ) -> Option<(RowRef<'a>, Option<RawValue<'a>>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let buf = &mut self.buf;
        // A batch usually arrives from another thread: ask for its
        // bytes a few rows before they are read.
        buf.prefetch_ahead(512);
        let pid = PartitionId(buf.varint() as u32);
        let stream = StreamId(buf.byte());
        let seq = buf.varint();
        let ts = VirtualTime::from_millis(buf.varint());
        let key = key_column(stream);
        Some(RowRef::from_known_body(pid, stream, seq, ts, buf, key))
    }
}

/// Iterator over the rows of a [`TupleBatch`], each with its key (see
/// [`TupleBatch::keyed_rows`]).
#[derive(Debug, Clone)]
pub struct KeyedRows<'a, 'k> {
    rows: Rows<'a>,
    key_columns: &'k [usize],
}

impl<'a> Iterator for KeyedRows<'a, '_> {
    type Item = (RowRef<'a>, Option<RawValue<'a>>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let key_columns = self.key_columns;
        (self.rows).next_keyed(|stream| key_columns.get(stream.index()).copied())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for KeyedRows<'_, '_> {}

/// Read one row off the front of `buf`: decode the header, step over
/// the values. The single definition of a well-formed row: `decode`
/// runs it on bytes from outside, with `check_utf8`, before [`Rows`]
/// and [`KeyedRows`] read them.
#[inline]
fn parse_row<'a>(buf: &mut &'a [u8], check_utf8: bool) -> Result<RowRef<'a>> {
    let pid = u32::try_from(get_varint(buf)?)
        .map_err(|_| DcapeError::codec("row: partition id out of range"))?;
    if buf.is_empty() {
        return Err(DcapeError::codec("row: unexpected end of input"));
    }
    let stream = StreamId(buf.get_u8());
    let seq = get_varint(buf)?;
    let ts = VirtualTime::from_millis(get_varint(buf)?);
    RowRef::from_body(PartitionId(pid), stream, seq, ts, buf, check_utf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash;
    use crate::mem::HeapSize;
    use crate::testing::proptest_cases;
    use crate::tuple::TupleBuilder;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn tpl(stream: u8, seq: u64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq))
            .value(seq as i64)
            .build()
    }

    #[test]
    fn push_preserves_order() {
        let mut b = TupleBatch::with_capacity(3);
        b.push(PartitionId(2), tpl(0, 0));
        b.push(PartitionId(1), tpl(1, 0));
        b.push(PartitionId(2), tpl(0, 1));
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows().len(), 3);
        let rows: Vec<(u32, u8, u64)> = b
            .rows()
            .map(|r| (r.pid().0, r.stream().0, r.seq()))
            .collect();
        assert_eq!(rows, vec![(2, 0, 0), (1, 1, 0), (2, 0, 1)]);
    }

    #[test]
    fn clear_and_take_leave_an_empty_batch() {
        let mut b = TupleBatch::with_capacity(8);
        b.push(PartitionId(0), tpl(0, 0));
        let bytes = b.as_bytes().len();
        let grown = b.buf.capacity();
        let taken = b.take();
        assert_eq!(taken.len(), 1);
        assert!(b.is_empty() && b.as_bytes().is_empty());
        assert!(
            b.buf.capacity() >= grown,
            "take leaves what the buffer grew to, not what it held"
        );
        let mut taken = taken;
        taken.clear();
        assert!(taken.is_empty());
        assert!(taken.rows().next().is_none());
        assert!(taken.buf.capacity() >= bytes, "clear keeps the buffer");
    }

    #[test]
    fn value_reads_one_column_and_none_past_the_arity() {
        let t = TupleBuilder::new(StreamId(1))
            .value("skipped")
            .pad(9)
            .value(7i64)
            .build();
        let mut b = TupleBatch::new();
        b.push(PartitionId(4), t.clone());
        let row = b.rows().next().unwrap();
        assert_eq!(row.arity(), 3);
        for c in 0..3 {
            assert_eq!(row.value(c).as_ref(), t.get(c));
        }
        assert_eq!(row.value(3), None);
    }

    #[test]
    fn decode_takes_exactly_its_rows_and_rejects_damage() {
        let mut b = TupleBatch::new();
        b.push(PartitionId(300), tpl(0, 1));
        b.push(
            PartitionId(1),
            TupleBuilder::new(StreamId(2)).value("añb").build(),
        );
        let mut wire = b.as_bytes().to_vec();
        wire.extend_from_slice(b"next");
        let mut cursor = wire.as_slice();
        let got = TupleBatch::decode(2, &mut cursor).unwrap();
        assert_eq!(cursor, b"next");
        assert_eq!(got.as_bytes(), b.as_bytes());
        assert_eq!(got.len(), 2);
        // One row more than there is, a cut anywhere, broken UTF-8.
        assert!(TupleBatch::decode(3, &mut b.as_bytes()).is_err());
        for cut in 0..b.as_bytes().len() {
            assert!(TupleBatch::decode(2, &mut &b.as_bytes()[..cut]).is_err());
        }
        let mut bad = b.as_bytes().to_vec();
        let n = bad.len();
        bad[n - 2] = 0xFF;
        assert!(TupleBatch::decode(2, &mut bad.as_slice()).is_err());
        // A partition id past u32.
        let mut wide = Vec::new();
        put_varint(&mut wide, u32::MAX as u64 + 1);
        encode_tuple(&mut wide, &tpl(0, 0));
        assert!(TupleBatch::decode(1, &mut wide.as_slice()).is_err());
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0u8..1).prop_map(|_| Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b))),
            any::<bool>().prop_map(Value::Bool),
            ".{0,12}".prop_map(Value::text),
            proptest::collection::vec(any::<u8>(), 0..40).prop_map(|b| Value::Blob(Bytes::from(b))),
            any::<u32>().prop_map(Value::Pad),
        ]
    }

    fn tuple_strategy() -> impl Strategy<Value = (u32, Tuple)> {
        (
            (any::<u32>(), any::<u8>()),
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec(value_strategy(), 0..6),
        )
            .prop_map(|((pid, stream), (seq, ts), values)| {
                let ts = VirtualTime::from_millis(ts);
                (pid, Tuple::new(StreamId(stream), seq, ts, values))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: proptest_cases(64),
            ..ProptestConfig::default()
        })]

        /// `push` → rows → materialize returns the input (every value
        /// variant, arity 0…5, the empty batch included), each row is
        /// accounted at its tuple's `heap_size`, its body is the arena
        /// row, and the bytes survive `decode`.
        #[test]
        fn rows_return_what_was_pushed(
            input in proptest::collection::vec(tuple_strategy(), 0..12)
        ) {
            let mut batch = TupleBatch::new();
            for (pid, t) in &input {
                batch.push(PartitionId(*pid), t.clone());
            }
            prop_assert_eq!(batch.len(), input.len());
            prop_assert_eq!(batch.is_empty(), input.is_empty());
            let decoded = TupleBatch::decode(input.len(), &mut batch.as_bytes()).unwrap();
            prop_assert_eq!(decoded.as_bytes(), batch.as_bytes());
            let mut rows = batch.rows();
            for (pid, t) in &input {
                let row = rows.next().unwrap();
                prop_assert_eq!(row.pid(), PartitionId(*pid));
                prop_assert_eq!((row.stream(), row.seq(), row.ts()), (t.stream(), t.seq(), t.ts()));
                prop_assert_eq!(row.arity(), t.arity());
                prop_assert_eq!(row.heap_size(), t.heap_size());
                prop_assert_eq!(&row.to_tuple(), t);
                let mut arena_row = Vec::new();
                put_varint(&mut arena_row, t.arity() as u64);
                t.values().iter().for_each(|v| crate::codec::encode_value(&mut arena_row, v));
                prop_assert_eq!(row.body(), arena_row.as_slice());
            }
            prop_assert!(rows.next().is_none());
        }

        /// `push_raw` writes the bytes `push` writes for the tuple with
        /// the same parts (every value variant, arity 0…5), and a batch
        /// appended behind another reads as one batch of both.
        #[test]
        fn push_raw_writes_what_push_writes(
            input in proptest::collection::vec(tuple_strategy(), 0..12),
            cut in 0usize..12,
        ) {
            let (mut raw, mut built) = (TupleBatch::new(), TupleBatch::new());
            for (pid, t) in &input {
                let values: Vec<RawValue<'_>> = t.values().iter().map(Value::as_raw).collect();
                let row = RawRow { stream: t.stream(), seq: t.seq(), ts: t.ts(), values: &values };
                raw.push_raw(PartitionId(*pid), &row);
                built.push(PartitionId(*pid), t.clone());
            }
            prop_assert_eq!(raw.len(), built.len());
            prop_assert_eq!(raw.as_bytes(), built.as_bytes());
            let (front, back) = input.split_at(cut.min(input.len()));
            let mut joined = TupleBatch::new();
            let mut later = TupleBatch::new();
            front.iter().for_each(|(pid, t)| joined.push(PartitionId(*pid), t.clone()));
            back.iter().for_each(|(pid, t)| later.push(PartitionId(*pid), t.clone()));
            joined.append(&later);
            prop_assert_eq!(joined.len(), built.len());
            prop_assert_eq!(joined.as_bytes(), built.as_bytes());
        }

        /// The keyed walk reads each row as the checking `parse_row`
        /// does — partition, stream, seq, ts, arity, payload, body — and
        /// the key that `body_value` decodes from the body afterwards,
        /// with its `fx_hash`: every value kind, arity 0…5, key columns
        /// at 0 and behind a blob, streams with no key column and rows
        /// shorter than theirs.
        #[test]
        fn keyed_rows_read_what_rows_and_body_value_read(
            input in proptest::collection::vec(tuple_strategy(), 0..12),
            blob_first in any::<bool>(),
            key_columns in proptest::collection::vec(0usize..6, 0..5),
        ) {
            let mut batch = TupleBatch::new();
            for (pid, t) in &input {
                let mut values = t.values().to_vec();
                if blob_first {
                    values.insert(0, Value::Blob(Bytes::from(vec![7u8; 300])));
                }
                let stream = StreamId(t.stream().0 % 5);
                batch.push(PartitionId(*pid), Tuple::new(stream, t.seq(), t.ts(), values));
            }
            let keyed = batch.keyed_rows(&key_columns);
            prop_assert_eq!(keyed.len(), batch.len());
            let mut bytes = batch.as_bytes();
            let checked = (0..batch.len()).map(|_| parse_row(&mut bytes, true).unwrap());
            for ((row, key), plain) in keyed.zip(checked) {
                prop_assert_eq!((row.pid(), row.stream(), row.seq()), (plain.pid(), plain.stream(), plain.seq()));
                prop_assert_eq!((row.ts(), row.arity()), (plain.ts(), plain.arity()));
                prop_assert_eq!(row.heap_size(), plain.heap_size());
                prop_assert_eq!(row.body(), plain.body());
                let column = key_columns.get(plain.stream().index());
                let expected = column.and_then(|&c| body_value(plain.body(), c).unwrap());
                let key = key.map(|k| k.to_value().unwrap());
                prop_assert_eq!(key.as_ref().map(fx_hash), expected.as_ref().map(fx_hash));
                prop_assert_eq!(key, expected);
            }
        }

        /// Arbitrary bytes never panic `decode`, and whatever it accepts
        /// reads back without panicking.
        #[test]
        fn decode_never_panics(
            rows in 0usize..4,
            data in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            if let Ok(batch) = TupleBatch::decode(rows, &mut data.as_slice()) {
                for row in batch.rows() {
                    let t = row.to_tuple();
                    prop_assert_eq!(row.heap_size(), t.heap_size());
                }
            }
        }
    }
}
