//! Spill segments.
//!
//! A [`SpilledGroup`] is the unit the state-spill adaptation writes: one
//! partition group — the partitions of *all* input streams sharing one
//! partition ID (§2, Figure 3(b)). Spilling whole groups is what frees
//! the cleanup process from timestamp bookkeeping: within a segment, all
//! run-time results among its tuples were already produced before the
//! spill, so the cleanup only needs cross-segment combinations (§3).
//!
//! In memory a group is **columnar**, the shape the join state already
//! has: per stream a [`StreamColumns`] — timestamp column, sequence
//! column, and one arena of encoded rows (`arity value*`, a batch row's
//! tail) in pages ([`RowPages`]) with each row's address. The engine
//! moves its columns, pages included, out into a snapshot and back in;
//! the block codec reads and writes arena rows in place; cleanup merges
//! slices on their timestamp columns. No
//! boundary rebuilds a [`Tuple`] — [`StreamColumns::tuple`] exists for
//! enumerating sinks and tests. Slot `s` holds rows of
//! stream `s` only, so rows carry no stream ID. A clone shares the
//! buffers. A cleanup merge whose sink only counts reads a segment as
//! [`SegmentKeys`] instead: per stream the timestamps and the join keys,
//! checked as a full decode checks them, with no arena rebuilt.
//!
//! The binary layout is:
//!
//! ```text
//! segment := MAGIC:u32 VERSION:u8 partition:varint nstreams:varint stream-block^nstreams
//! ```
//!
//! `VERSION` is 2: each stream's rows are one column block
//! (delta-coded timestamps/sequence numbers, dictionary-coded
//! low-cardinality payload columns — see [`crate::codec`]), typically a
//! fraction of the rows' own encoding. Version 1, a verbatim row-by-row
//! body, is no longer written, and a segment that carries it is refused
//! as a codec error.

use std::sync::Arc;

use bytes::Bytes;

use dcape_common::batch::RowRef;
use dcape_common::codec::body_value;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::mem::HeapSize;
use dcape_common::pages::{RowAt, RowPages};
use dcape_common::time::VirtualTime;
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;

use crate::codec::{
    decode_stream_block, decode_stream_keys, encode_stream_block, encode_value, encoded_value_len,
    get_varint, lacks_key, put_varint, varint_len, BlockScratch,
};

const MAGIC: u32 = 0xDCA9_E501;
const VERSION_COLUMNS: u8 = 2;

/// The segment format spill writes use. There is one: version 2's
/// column blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentCodec {
    /// Version 2: compressed column blocks.
    #[default]
    Columns,
}

/// One stream's rows of a partition group, in insertion order: row `i`
/// is `ts[i]`, `seq[i]` and the arena row at address `ends[i]`, which
/// holds its encoded columns (`arity:varint value*`).
///
/// Every arena row is well-formed — encoded by this program or checked
/// by [`SpilledGroup::decode`] — so reading one back cannot fail. One
/// stream's arena is capped at 4 GiB of row bytes. Two are equal when
/// their rows are, whatever pages those lie in.
#[derive(Debug, Clone, Default)]
pub struct StreamColumns {
    ts: Vec<VirtualTime>,
    seq: Vec<u64>,
    /// Each row's page and end offset in `arena`.
    ends: Vec<RowAt>,
    arena: RowPages,
    /// Sum of the rows' accounted heap sizes.
    acct: u64,
}

impl PartialEq for StreamColumns {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts
            && self.seq == other.seq
            && self.acct == other.acct
            && (0..self.len()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for StreamColumns {}

impl StreamColumns {
    /// Assemble columns the caller already holds — the join state's own,
    /// or a decoded block's. `arena` must hold one well-formed row at
    /// each address in `ends`, in that order, and `acct` the rows'
    /// accounted heap sizes.
    pub fn from_parts(
        ts: Vec<VirtualTime>,
        seq: Vec<u64>,
        ends: Vec<RowAt>,
        arena: RowPages,
        acct: u64,
    ) -> Self {
        assert!(ts.len() == seq.len() && seq.len() == ends.len());
        StreamColumns {
            ts,
            seq,
            ends,
            arena,
            acct,
        }
    }

    /// Give the columns back: timestamps, sequence numbers, row
    /// addresses, arena.
    pub fn into_parts(self) -> (Vec<VirtualTime>, Vec<u64>, Vec<RowAt>, RowPages) {
        (self.ts, self.seq, self.ends, self.arena)
    }

    pub(crate) fn with_capacity(rows: usize) -> Self {
        StreamColumns {
            ts: Vec::with_capacity(rows),
            seq: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            ..StreamColumns::default()
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The timestamp column.
    pub fn ts(&self) -> &[VirtualTime] {
        &self.ts
    }

    /// The sequence-number column.
    pub fn seqs(&self) -> &[u64] {
        &self.seq
    }

    /// Bytes of all the encoded rows.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Sum of the rows' accounted heap sizes.
    pub fn acct(&self) -> u64 {
        self.acct
    }

    /// Row `i`'s encoded columns.
    pub fn row(&self, i: usize) -> &[u8] {
        let prev = i.checked_sub(1).map(|before| self.ends[before]);
        self.arena.row(prev, self.ends[i])
    }

    /// Refuse `more` row bytes that would take the arena past 4 GiB.
    fn check_room(&self, more: usize) -> Result<()> {
        if self.arena.len() + more > u32::MAX as usize {
            return Err(DcapeError::state(
                "snapshot arena exceeds 4 GiB for one stream partition",
            ));
        }
        Ok(())
    }

    /// Book the row just appended to the arena at `at`.
    fn end_row(&mut self, at: RowAt, seq: u64, ts: VirtualTime, heap_size: usize) {
        self.ts.push(ts);
        self.seq.push(seq);
        self.ends.push(at);
        self.acct += heap_size as u64;
    }

    /// Append a checked row.
    pub(crate) fn push_row(&mut self, row: &RowRef<'_>) -> Result<()> {
        self.check_room(row.body().len())?;
        let at = self.arena.push(row.body());
        self.end_row(at, row.seq(), row.ts(), row.heap_size());
        Ok(())
    }

    /// Append `tuple`, encoding it: the way in for callers that hold
    /// tuples (tests, tools), not a path the join state takes. The tuple's stream ID is not kept — the slot says it.
    pub fn push_tuple(&mut self, tuple: &Tuple) -> Result<()> {
        let arity = tuple.arity() as u64;
        let values = tuple.values().iter();
        let len = varint_len(arity) + values.map(encoded_value_len).sum::<usize>();
        self.check_room(len)?;
        let at = self.arena.push_with(len, |page| {
            put_varint(page, arity);
            for v in tuple.values() {
                encode_value(page, v);
            }
        });
        self.end_row(at, tuple.seq(), tuple.ts(), tuple.heap_size());
        Ok(())
    }

    /// Append `later`'s rows behind these; its pages move as they are.
    pub fn append(&mut self, later: StreamColumns) -> Result<()> {
        self.check_room(later.arena.len())?;
        let shift = self.arena.absorb(later.arena);
        self.ts.extend(later.ts);
        self.seq.extend(later.seq);
        let ends = later.ends.iter();
        self.ends
            .extend(ends.map(|&(page, end)| (page.wrapping_add(shift), end)));
        self.acct += later.acct;
        Ok(())
    }

    /// Rebuild row `i` as a tuple of `stream`.
    pub fn tuple(&self, stream: StreamId, i: usize) -> Tuple {
        let (seq, ts) = (self.seq[i], self.ts[i]);
        RowRef::from_body(PartitionId(0), stream, seq, ts, &mut self.row(i), false)
            .expect("arena rows are well-formed")
            .to_tuple()
    }
}

/// One spilled partition group: per-stream columns for one partition
/// ID, exactly as they sat in memory at spill time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpilledGroup {
    /// The partition ID of the group.
    pub partition: PartitionId,
    /// `streams[s]` holds the rows of input stream `s`; shared between
    /// clones.
    streams: Arc<Vec<StreamColumns>>,
}

impl SpilledGroup {
    /// New empty group for `partition` with `num_streams` inputs.
    pub fn empty(partition: PartitionId, num_streams: usize) -> Self {
        Self::from_streams(partition, vec![StreamColumns::default(); num_streams])
    }

    /// A group over columns the caller already holds, one per stream
    /// slot.
    pub fn from_streams(partition: PartitionId, streams: Vec<StreamColumns>) -> Self {
        SpilledGroup {
            partition,
            streams: Arc::new(streams),
        }
    }

    /// Append `tuple` to the slot of its stream
    /// ([`StreamColumns::push_tuple`]).
    pub fn push(&mut self, tuple: &Tuple) -> Result<()> {
        let num_streams = self.streams.len();
        match Arc::make_mut(&mut self.streams).get_mut(tuple.stream().index()) {
            Some(cols) => cols.push_tuple(tuple),
            None => Err(DcapeError::state(format!(
                "stream {} out of range for a {num_streams}-stream group",
                tuple.stream()
            ))),
        }
    }

    /// Number of stream slots.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// The per-stream columns, slot `s` holding stream `s`.
    pub fn streams(&self) -> &[StreamColumns] {
        &self.streams
    }

    /// Take the per-stream columns out — without copying when no clone
    /// of the group is alive.
    pub fn into_streams(self) -> Vec<StreamColumns> {
        Arc::try_unwrap(self.streams).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Stream `s`'s rows rebuilt as tuples, in insertion order.
    pub fn tuples(&self, s: usize) -> Vec<Tuple> {
        let cols = &self.streams[s];
        (0..cols.len())
            .map(|i| cols.tuple(StreamId(s as u8), i))
            .collect()
    }

    /// Total number of tuples across all streams.
    pub fn tuple_count(&self) -> usize {
        self.streams.iter().map(StreamColumns::len).sum()
    }

    /// Estimated in-memory state bytes of the group's tuples: the sum
    /// of their accounted heap sizes, without the per-tuple index
    /// overhead the engine charges a resident group.
    pub fn state_bytes(&self) -> usize {
        self.streams.iter().map(|c| c.acct as usize).sum()
    }

    /// True if the group holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.streams.iter().all(StreamColumns::is_empty)
    }

    /// Serialize to segment bytes.
    pub fn encode(&self) -> Bytes {
        // Sized from the arenas, not the row count: a fat payload no
        // longer regrows the buffer a dozen times. An eighth of the rows'
        // bytes is about what repeating payloads compress to, and three
        // doublings cover payloads that do not repeat at all. Reserving
        // the arenas' full size instead is no faster and holds eight
        // times the buffer for the common case (with paged arenas it no
        // longer moves the spill benchmark's peak RSS either way: 85.3-85.4
        // against 85.5 MiB).
        let rows: usize = self
            .streams
            .iter()
            .map(|c| c.arena_len() / 8 + 8 * c.len())
            .sum();
        let mut buf = Vec::with_capacity(32 + rows);
        self.encode_into(&mut buf, &mut BlockScratch::default());
        buf.into()
    }

    /// [`encode`](Self::encode) in `codec`'s format, the only one.
    pub fn encode_with(&self, codec: SegmentCodec) -> Bytes {
        match codec {
            SegmentCodec::Columns => self.encode(),
        }
    }

    /// Append the segment's bytes to `buf`, encoding each block through
    /// `scratch` — what the spill store calls, over one buffer and one
    /// scratch it keeps.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>, scratch: &mut BlockScratch) {
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION_COLUMNS);
        put_varint(buf, self.partition.0 as u64);
        put_varint(buf, self.streams.len() as u64);
        for (s, cols) in self.streams.iter().enumerate() {
            encode_stream_block(buf, StreamId(s as u8), cols, scratch);
        }
    }

    /// Deserialize from segment bytes.
    pub fn decode(bytes: Bytes) -> Result<Self> {
        Self::decode_slice(&bytes)
    }

    /// [`decode`](Self::decode) from borrowed bytes, e.g. a slice of a
    /// wire frame: the rows are copied into fresh arenas either way.
    pub fn decode_slice(mut bytes: &[u8]) -> Result<Self> {
        let buf = &mut bytes;
        let (partition, nstreams) = decode_header(buf)?;
        let mut streams = Vec::with_capacity(nstreams);
        for s in 0..nstreams {
            streams.push(decode_stream_block(buf, StreamId(s as u8))?);
        }
        decode_end(buf)?;
        Ok(Self::from_streams(partition, streams))
    }
}

/// Read a segment's header: its partition and stream count. A version
/// other than 2 is refused.
fn decode_header(buf: &mut &[u8]) -> Result<(PartitionId, usize)> {
    let Some((magic, rest)) = buf.split_first_chunk::<4>() else {
        return Err(DcapeError::codec("segment: short header"));
    };
    let magic = u32::from_le_bytes(*magic);
    if magic != MAGIC {
        return Err(DcapeError::codec(format!(
            "segment: bad magic 0x{magic:08x}"
        )));
    }
    let Some((&version, rest)) = rest.split_first() else {
        return Err(DcapeError::codec("segment: short header"));
    };
    if version != VERSION_COLUMNS {
        return Err(DcapeError::codec(format!(
            "segment: unsupported version {version}"
        )));
    }
    *buf = rest;
    let partition = u32::try_from(get_varint(buf)?)
        .map_err(|_| DcapeError::codec("segment: partition id out of range"))?;
    let nstreams = get_varint(buf)?;
    if nstreams > 256 {
        return Err(DcapeError::codec("segment: implausible stream count"));
    }
    Ok((PartitionId(partition), nstreams as usize))
}

fn decode_end(buf: &[u8]) -> Result<()> {
    if !buf.is_empty() {
        return Err(DcapeError::codec("segment: trailing bytes"));
    }
    Ok(())
}

/// One stream's rows of a segment cut to what a merge that only counts
/// reads: the timestamp column and each row's join key, in insertion
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyColumns {
    ts: Vec<VirtualTime>,
    keys: Vec<Value>,
}

impl KeyColumns {
    pub(crate) fn from_parts(ts: Vec<VirtualTime>, keys: Vec<Value>) -> Self {
        assert_eq!(ts.len(), keys.len());
        KeyColumns { ts, keys }
    }

    /// The timestamps and keys of `cols`' rows, each key the value in
    /// column `key_column`.
    pub(crate) fn of_rows(cols: &StreamColumns, key_column: usize) -> Result<Self> {
        let keys =
            (0..cols.len()).map(|i| body_value(cols.row(i), key_column)?.ok_or_else(lacks_key));
        Ok(KeyColumns::from_parts(
            cols.ts().to_vec(),
            keys.collect::<Result<_>>()?,
        ))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The timestamp column.
    pub fn ts(&self) -> &[VirtualTime] {
        &self.ts
    }

    /// The key column.
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }
}

/// A segment read as [`KeyColumns`] only: what a count-only cleanup
/// merge takes in. Its bytes are checked as [`SpilledGroup::decode`]
/// checks them; no arena row is rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentKeys {
    /// The partition ID of the group.
    pub partition: PartitionId,
    /// `streams[s]`: stream `s`'s timestamps and keys.
    pub streams: Vec<KeyColumns>,
}

impl SegmentKeys {
    /// Decode segment bytes keeping, of stream
    /// `s`'s rows, the timestamp and column `key_columns[s]`. A segment
    /// with another stream count than `key_columns` is refused.
    pub fn decode_slice(mut bytes: &[u8], key_columns: &[usize]) -> Result<Self> {
        let buf = &mut bytes;
        let (partition, nstreams) = decode_header(buf)?;
        if nstreams != key_columns.len() {
            return Err(DcapeError::state(format!(
                "segment for {partition} has {nstreams} streams, join configured for {}",
                key_columns.len()
            )));
        }
        let mut streams = Vec::with_capacity(nstreams);
        for (s, &key_column) in key_columns.iter().enumerate() {
            streams.push(decode_stream_keys(buf, StreamId(s as u8), key_column)?);
        }
        decode_end(buf)?;
        Ok(SegmentKeys { partition, streams })
    }

    /// Total number of rows across all streams.
    pub fn tuple_count(&self) -> usize {
        self.streams.iter().map(KeyColumns::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encoded_tuple_len, golden};
    use bytes::BufMut;
    use dcape_common::testing::proptest_cases;
    use dcape_common::tuple::TupleBuilder;
    use dcape_common::value::Value;
    use proptest::prelude::*;

    fn group_of(partition: PartitionId, per_stream: &[Vec<Tuple>]) -> SpilledGroup {
        let mut g = SpilledGroup::empty(partition, per_stream.len());
        for t in per_stream.iter().flatten() {
            g.push(t).unwrap();
        }
        g
    }

    /// Segment bytes as the `Vec<Vec<Tuple>>` snapshot encoded them.
    fn golden_segment(partition: PartitionId, per_stream: &[Vec<Tuple>]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le(MAGIC);
        buf.put_u8(VERSION_COLUMNS);
        put_varint(&mut buf, partition.0 as u64);
        put_varint(&mut buf, per_stream.len() as u64);
        for tuples in per_stream {
            golden::encode_stream_block(&mut buf, tuples);
        }
        buf
    }

    fn sample_tuples() -> Vec<Vec<Tuple>> {
        (0..3u8)
            .map(|s| {
                (0..5u64)
                    .map(|i| {
                        TupleBuilder::new(StreamId(s))
                            .seq(i)
                            .ts(VirtualTime::from_millis(i * 30))
                            .value((i * 10 + s as u64) as i64)
                            .pad(64)
                            .build()
                    })
                    .collect()
            })
            .collect()
    }

    fn group() -> SpilledGroup {
        group_of(PartitionId(17), &sample_tuples())
    }

    #[test]
    fn round_trip() {
        let g = group();
        let out = SpilledGroup::decode(g.encode()).unwrap();
        assert_eq!(out, g);
        for s in 0..3 {
            assert_eq!(out.tuples(s), sample_tuples()[s]);
        }
        assert_eq!(g.encode_with(SegmentCodec::Columns), g.encode());
        // Mixed value types, large seq/ts varints.
        let mut g = SpilledGroup::empty(PartitionId(300), 2);
        g.push(
            &TupleBuilder::new(StreamId(0))
                .seq(u64::MAX)
                .ts(VirtualTime::from_millis(1 << 40))
                .value("a long-ish text value")
                .value(-1i64)
                .value(2.5f64)
                .pad(1_000_000)
                .build(),
        )
        .unwrap();
        assert_eq!(SpilledGroup::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn columnar_segment_is_smaller_on_regular_data() {
        let rows: usize = sample_tuples()
            .iter()
            .flatten()
            .map(encoded_tuple_len)
            .sum();
        assert!(
            group().encode().len() < rows,
            "column blocks should compress the regular spill shape"
        );
    }

    #[test]
    fn counts_and_sizes() {
        let g = group();
        assert_eq!(g.tuple_count(), 15);
        assert!(!g.is_empty());
        let heap: usize = sample_tuples().iter().flatten().map(Tuple::heap_size).sum();
        assert_eq!(g.state_bytes(), heap, "pads included");
        let e = SpilledGroup::empty(PartitionId(0), 3);
        assert!(e.is_empty());
        assert_eq!(e.tuple_count(), 0);
        assert_eq!(e.state_bytes(), 0);
    }

    #[test]
    fn a_clone_shares_the_buffers_until_one_side_writes() {
        let g = group();
        let mut copy = g.clone();
        assert!(std::ptr::eq(g.streams().as_ptr(), copy.streams().as_ptr()));
        copy.push(&sample_tuples()[1][0]).unwrap();
        assert_eq!(g.tuple_count() + 1, copy.tuple_count());
        // The sole owner gives its columns up without copying them.
        let row = g.streams()[0].row(0).as_ptr();
        assert_eq!(g.into_streams()[0].row(0).as_ptr(), row);
    }

    #[test]
    fn columns_are_equal_by_their_rows_whatever_pages_those_lie_in() {
        let row_of = |i: u64, key: u64| {
            TupleBuilder::new(StreamId(0))
                .seq(i)
                .ts(VirtualTime::from_millis(i * 30))
                .value(key as i64)
                .value(Value::Blob(vec![(i % 5) as u8; 100 + i as usize].into()))
                .build()
        };
        let tuples: Vec<Tuple> = (0..90).map(|i| row_of(i, i % 7)).collect();
        let columns_of = |tuples: &[Tuple]| {
            let mut cols = StreamColumns::default();
            tuples.iter().for_each(|t| cols.push_tuple(t).unwrap());
            cols
        };
        let pushed = columns_of(&tuples);
        let mut appended = StreamColumns::default();
        for slice in [&tuples[..20], &tuples[20..65], &tuples[65..]] {
            appended.append(columns_of(slice)).unwrap();
        }
        assert_ne!(pushed.ends, appended.ends, "the rows lie in other pages");
        let group =
            |cols: &StreamColumns| SpilledGroup::from_streams(PartitionId(9), vec![cols.clone()]);
        let bytes = group(&pushed).encode();
        let decoded = SpilledGroup::decode(bytes.clone()).unwrap().into_streams();
        assert_eq!(decoded[0], pushed);
        assert_eq!(appended, pushed);
        assert_eq!(appended, decoded[0]);
        assert_eq!(group(&appended).encode(), bytes);
        assert_eq!(group(&decoded[0]).encode(), bytes);
        // One value differing in one row is seen, and a row missing in
        // either operand.
        let mut other = tuples.clone();
        other[89] = row_of(89, 99);
        assert_ne!(columns_of(&other), pushed);
        assert_ne!(columns_of(&tuples[..89]), pushed);
        assert_ne!(pushed, columns_of(&tuples[..89]));
    }

    #[test]
    fn push_files_by_stream_and_refuses_a_stream_without_a_slot() {
        let mut g = SpilledGroup::empty(PartitionId(0), 2);
        g.push(&TupleBuilder::new(StreamId(1)).value(1i64).build())
            .unwrap();
        assert_eq!((g.streams()[0].len(), g.streams()[1].len()), (0, 1));
        assert!(g.push(&TupleBuilder::new(StreamId(2)).build()).is_err());
    }

    #[test]
    fn empty_group_round_trips() {
        let g = SpilledGroup::empty(PartitionId(3), 4);
        assert_eq!(SpilledGroup::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = group().encode().to_vec();
        bytes[0] ^= 0xFF;
        assert!(SpilledGroup::decode(bytes.into()).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = group().encode().to_vec();
        bytes[4] = 99;
        assert!(SpilledGroup::decode(bytes.into()).is_err());
    }

    /// Version 1, the retired row-by-row body, is refused as a codec
    /// error by both decoders, whatever follows the header.
    #[test]
    fn a_version_1_segment_is_refused() {
        let mut g = SpilledGroup::empty(PartitionId(3), 3);
        g.push(&sample_tuples()[0][0]).unwrap();
        let mut v1 = Vec::new();
        v1.put_u32_le(MAGIC);
        v1.put_u8(1);
        put_varint(&mut v1, 3);
        put_varint(&mut v1, 3);
        put_varint(&mut v1, 1);
        crate::codec::encode_tuple(&mut v1, &sample_tuples()[0][0]);
        v1.extend_from_slice(&[0, 0]);
        let mut relabelled = g.encode().to_vec();
        relabelled[4] = 1;
        for bytes in [v1, relabelled] {
            let refused =
                |e: DcapeError| matches!(e, DcapeError::Codec(m) if m.contains("version 1"));
            assert!(refused(SpilledGroup::decode_slice(&bytes).unwrap_err()));
            assert!(refused(
                SegmentKeys::decode_slice(&bytes, &[0; 3]).unwrap_err()
            ));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = group().encode().to_vec();
        bytes.push(0);
        assert!(SpilledGroup::decode(bytes.into()).is_err());
    }

    /// One cell of generated input: which kind of value, and material
    /// for it.
    type Cell = (u8, i64, Vec<u8>);
    /// One generated row: seq, ts, cells.
    type Row = ((u64, u64), Vec<Cell>);

    fn value_of((kind, int, bytes): &Cell) -> Value {
        match kind % 7 {
            0 => Value::Null,
            1 => Value::Int(*int),
            2 => Value::Double(f64::from_bits(*int as u64)),
            3 => Value::Bool(int & 1 == 1),
            4 => Value::text(String::from_utf8_lossy(bytes)),
            5 => Value::Blob(bytes.clone().into()),
            _ => Value::Pad(*int as u32),
        }
    }

    /// Build stream `s`'s tuples from generated rows. `shape` picks what
    /// the block encoder meets: columns of one kind each (their values
    /// drawn from two rows' material when `shape` is 1, so dictionaries
    /// repeat and pads are constant), cells of any kind under one arity,
    /// or rows of differing arity.
    fn tuples_of(s: u8, shape: u8, rows: &[Row]) -> Vec<Tuple> {
        let Some((_, first)) = rows.first() else {
            return Vec::new();
        };
        let build = |(seq, ts): (u64, u64), values: Vec<Value>| {
            Tuple::new(StreamId(s), seq, VirtualTime::from_millis(ts), values)
        };
        let rows = rows.iter().enumerate();
        rows.map(|(i, (header, cells))| {
            let cell = |c: usize| -> Cell {
                let own = cells.get(c).unwrap_or_else(|| &first[c]);
                match shape % 4 {
                    0 => (first[c].0, own.1, own.2.clone()),
                    1 => (
                        first[c].0,
                        own.1 % 2,
                        first[(c + i) % first.len()].2.clone(),
                    ),
                    _ => own.clone(),
                }
            };
            let arity = if shape % 4 == 3 {
                cells.len()
            } else {
                first.len()
            };
            build(*header, (0..arity).map(|c| value_of(&cell(c))).collect())
        })
        .collect()
    }

    fn streams_strategy() -> impl Strategy<Value = Vec<(u8, Vec<Row>)>> {
        let cell = (
            0u8..7,
            any::<i64>(),
            proptest::collection::vec(any::<u8>(), 0..24),
        );
        let row = (
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec(cell, 0..5),
        );
        proptest::collection::vec((0u8..4, proptest::collection::vec(row, 0..9)), 0..4)
    }

    fn per_stream_of(streams: &[(u8, Vec<Row>)]) -> Vec<Vec<Tuple>> {
        let streams = streams.iter().enumerate();
        streams
            .map(|(s, (shape, rows))| tuples_of(s as u8, *shape, rows))
            .collect()
    }

    /// Everything that reads a group's arenas, none of which may panic
    /// on a group `decode` returned.
    fn walk(g: &SpilledGroup) {
        for s in 0..g.num_streams() {
            let heap: usize = g.tuples(s).iter().map(Tuple::heap_size).sum();
            assert_eq!(heap as u64, g.streams()[s].acct());
        }
        // The same tuples come back; the same bytes need not, since a
        // damaged segment can spell a number the long way.
        let out = SpilledGroup::decode(g.encode()).unwrap();
        (0..g.num_streams()).for_each(|s| assert_eq!(out.tuples(s), g.tuples(s)));
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: proptest_cases(64),
            ..ProptestConfig::default()
        })]

        /// Encoding a group from its columns writes the bytes the
        /// tuple-based encoder wrote for the same tuples, and decoding
        /// them gives the group back —
        /// every value kind, typed, dictionary, constant, mixed and
        /// ragged columns, empty streams and the empty group included.
        #[test]
        fn encoded_bytes_match_the_tuple_based_encoder(
            pid in any::<u32>(),
            streams in streams_strategy(),
        ) {
            let per_stream = per_stream_of(&streams);
            let g = group_of(PartitionId(pid), &per_stream);
            let bytes = g.encode();
            prop_assert_eq!(&bytes[..], &golden_segment(PartitionId(pid), &per_stream)[..]);
            let out = SpilledGroup::decode(bytes).unwrap();
            prop_assert_eq!(&out, &g);
            for (s, tuples) in per_stream.iter().enumerate() {
                prop_assert_eq!(&out.tuples(s), tuples);
            }
        }

        /// Segment decoding of arbitrary bytes must never panic.
        #[test]
        fn decode_segment_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            if let Ok(g) = SpilledGroup::decode(Bytes::from(data)) {
                walk(&g);
            }
        }
    }

    /// What [`SegmentKeys::decode_slice`] must make of `bytes`: the
    /// full decode cut to timestamps and keys, or its error — and an
    /// error too when a row lacks its key column.
    fn keys_by_full_decode(bytes: &[u8], key_columns: &[usize]) -> Option<Vec<KeyColumns>> {
        let group = SpilledGroup::decode_slice(bytes).ok()?;
        if group.num_streams() != key_columns.len() {
            return None;
        }
        let streams = group.streams().iter().zip(key_columns);
        streams
            .map(|(cols, &k)| KeyColumns::of_rows(cols, k).ok())
            .collect()
    }

    /// The key decode of `bytes` succeeds exactly when the full decode
    /// does and every row has its key column, and then reads the same
    /// timestamps and keys.
    fn check_keys_decode_like_the_full_decode(
        bytes: &[u8],
        key_columns: &[usize],
    ) -> std::result::Result<(), TestCaseError> {
        let keys = SegmentKeys::decode_slice(bytes, key_columns).ok();
        let expected = keys_by_full_decode(bytes, key_columns);
        prop_assert_eq!(keys.map(|k| k.streams), expected);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: proptest_cases(8),
            ..ProptestConfig::default()
        })]

        /// On every truncation and single-bit flip of a valid segment —
        /// and on a valid header followed by arbitrary bytes — the count-only key decode fails
        /// exactly when the full decode fails (or a row lacks its key),
        /// so both check the same bytes; where both succeed they read
        /// the same timestamps and keys.
        #[test]
        fn the_key_decode_fails_exactly_when_the_full_decode_fails(
            streams in streams_strategy(),
            key_columns in proptest::collection::vec(0usize..3, 4..5),
            noise in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let g = group_of(PartitionId(3), &per_stream_of(&streams));
            let key_columns = &key_columns[..g.num_streams()];
            let mut bytes = g.encode().to_vec();
            check_keys_decode_like_the_full_decode(&bytes, key_columns)?;
            for cut in 0..bytes.len() {
                check_keys_decode_like_the_full_decode(&bytes[..cut], key_columns)?;
            }
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                check_keys_decode_like_the_full_decode(&bytes, key_columns)?;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let mut fuzzed = Vec::new();
            fuzzed.put_u32_le(MAGIC);
            fuzzed.put_u8(VERSION_COLUMNS);
            put_varint(&mut fuzzed, 3);
            put_varint(&mut fuzzed, key_columns.len() as u64);
            fuzzed.extend_from_slice(&noise);
            check_keys_decode_like_the_full_decode(&fuzzed, key_columns)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: proptest_cases(8),
            ..ProptestConfig::default()
        })]

        /// Every truncation of a valid segment is refused, and every
        /// single-bit flip is refused or decodes to a group whose arenas
        /// read back without panicking.
        #[test]
        fn truncations_and_bit_flips_never_panic(streams in streams_strategy()) {
            let g = group_of(PartitionId(3), &per_stream_of(&streams));
            let mut bytes = g.encode().to_vec();
            for cut in 0..bytes.len() {
                prop_assert!(SpilledGroup::decode_slice(&bytes[..cut]).is_err(), "cut at {}", cut);
            }
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                if let Ok(flipped) = SpilledGroup::decode_slice(&bytes) {
                    walk(&flipped);
                }
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
