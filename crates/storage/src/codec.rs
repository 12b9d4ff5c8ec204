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

use dcape_common::batch::RowRef;
pub use dcape_common::codec::{
    decode_tuple, decode_value, encode_tuple, encode_value, encoded_tuple_len, encoded_value_len,
    get_varint, put_varint, varint_len,
};
use dcape_common::codec::{
    encode_raw_value, encoded_raw_value_len, raw_value, unzigzag, zigzag, RawValue,
};
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::{fx_hash, FxHashMap};
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::pages::RowPages;
use dcape_common::prefetch::prefetch;
use dcape_common::time::VirtualTime;
use dcape_common::tuple::heap_size;

use crate::segment::{KeyColumns, StreamColumns};

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
// The columnar layout requires a uniform arity across the block (true
// for any block a partition group produces); anything else falls back
// to the row layout. A block holds rows of one stream, its slot's. Monotone timestamps and dense sequence
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

/// Why reading a [`StreamColumns`] arena cannot fail.
const ARENA: &str = "arena rows are well-formed (StreamColumns invariant)";

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

/// Read a delta-coded column of `count` rows; its values are kept only
/// when `keep` is set, but every varint is read and checked either way.
fn get_delta_column(buf: &mut &[u8], count: usize, keep: bool) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(if keep { count } else { 0 });
    let mut prev = 0u64;
    for i in 0..count {
        let v = get_varint(buf)?;
        prev = if i == 0 {
            v
        } else {
            (prev as i64).wrapping_add(unzigzag(v)) as u64
        };
        if keep {
            out.push(prev);
        }
    }
    Ok(out)
}

/// The block tag of a column whose rows all hold `v`'s kind of value.
fn uniform_tag(v: &RawValue<'_>) -> u8 {
    match v {
        RawValue::Null => CT_NULL,
        RawValue::Int(_) => CT_INT,
        RawValue::Double(_) => CT_DOUBLE,
        RawValue::Bool(_) => CT_BOOL,
        RawValue::Text(_) => CT_TEXT_DICT,
        RawValue::Blob(_) => CT_BLOB_DICT,
        RawValue::Pad(_) => CT_PAD_CONST,
    }
}

/// Distinct text/blob payloads of one column in first-occurrence order.
///
/// A payload is found by hashing a bounded sample of it — 48 bytes of a
/// 1 KiB blob, not all of it — and confirmed by comparing
/// the bytes, so entries are exactly the distinct payloads, in the order
/// a full-value hash map would have met them.
#[derive(Debug, Default)]
struct Dict<'a> {
    entries: Vec<&'a [u8]>,
    /// `chain[id]`: the next entry with the same sample hash.
    chain: Vec<u32>,
    heads: FxHashMap<u64, u32>,
}

const NO_ENTRY: u32 = u32::MAX;

impl<'a> Dict<'a> {
    fn sample_hash(bytes: &[u8]) -> u64 {
        const EDGE: usize = 16;
        if bytes.len() <= 3 * EDGE {
            return fx_hash(bytes);
        }
        let mid = bytes.len() / 2 - EDGE / 2;
        fx_hash(&(
            bytes.len(),
            &bytes[..EDGE],
            &bytes[mid..mid + EDGE],
            &bytes[bytes.len() - EDGE..],
        ))
    }

    fn id_of(&mut self, bytes: &'a [u8]) -> u32 {
        let new_id = self.entries.len() as u32;
        let mut at = *self.heads.entry(Self::sample_hash(bytes)).or_insert(new_id);
        while at != new_id {
            if self.entries[at as usize] == bytes {
                return at;
            }
            let next = self.chain[at as usize];
            if next == NO_ENTRY {
                self.chain[at as usize] = new_id;
                break;
            }
            at = next;
        }
        self.entries.push(bytes);
        self.chain.push(NO_ENTRY);
        new_id
    }

    /// Emptied, for payloads of another block; its buffers are kept.
    fn recycle<'b>(mut self) -> Dict<'b> {
        self.entries.clear();
        self.chain.clear();
        self.heads.clear();
        Dict {
            entries: self
                .entries
                .into_iter()
                .map(|_| unreachable!("cleared"))
                .collect(),
            chain: self.chain,
            heads: self.heads,
        }
    }
}

/// One column of the block being encoded: its tag so far, and its rows
/// so far in that tag's encoding.
#[derive(Debug, Default)]
struct ColumnOut<'a> {
    tag: u8,
    /// A pad column's first length, the whole column while it is
    /// `CT_PAD_CONST`.
    first_pad: u32,
    /// The column's per-row part: a varint, eight or one byte per row,
    /// a dictionary id, or the value's own encoding (`CT_MIXED`).
    values: Vec<u8>,
    dict: Dict<'a>,
}

impl<'a> ColumnOut<'a> {
    /// Start the column with row 0's value `v`, whose encoding is `raw`.
    fn start(&mut self, v: RawValue<'a>, raw: &'a [u8]) {
        self.tag = uniform_tag(&v);
        self.first_pad = if let RawValue::Pad(n) = v { n } else { 0 };
        self.put(v, raw);
    }

    /// Take row `i`'s value `v`, whose encoding is `raw`, first moving
    /// the column to a tag that holds it: a pad column whose length
    /// changes writes the first length for every row before, and a
    /// column that meets a second kind of value restarts as `CT_MIXED`
    /// from the arena rows of `cols` (it is column `c` of them).
    #[inline]
    fn push(
        &mut self,
        v: RawValue<'a>,
        raw: &'a [u8],
        i: usize,
        c: usize,
        cols: &'a StreamColumns,
    ) {
        match (self.tag, uniform_tag(&v)) {
            (CT_PAD_CONST, CT_PAD_CONST) if v != RawValue::Pad(self.first_pad) => {
                self.tag = CT_PAD;
                for _ in 0..i {
                    put_varint(&mut self.values, self.first_pad as u64);
                }
            }
            (CT_MIXED, _) | (CT_PAD, CT_PAD_CONST) => {}
            (held, seen) if held == seen => {}
            _ => self.restart_mixed(i, c, cols),
        }
        self.put(v, raw);
    }

    #[inline]
    fn put(&mut self, v: RawValue<'a>, raw: &'a [u8]) {
        let out = &mut self.values;
        match (self.tag, v) {
            (CT_NULL | CT_PAD_CONST, _) => {}
            (CT_INT, RawValue::Int(i)) => put_varint(out, zigzag(i)),
            (CT_DOUBLE, RawValue::Double(bits)) => out.put_u64_le(bits),
            (CT_BOOL, RawValue::Bool(b)) => out.push(b as u8),
            (CT_PAD, RawValue::Pad(n)) => put_varint(out, n as u64),
            (CT_TEXT_DICT, RawValue::Text(b)) | (CT_BLOB_DICT, RawValue::Blob(b)) => {
                put_varint(out, self.dict.id_of(b) as u64)
            }
            (CT_MIXED, _) => out.extend_from_slice(raw),
            (tag, _) => unreachable!("column tag {tag:#x} was picked from these values"),
        }
    }

    /// Turn the column into `CT_MIXED` before row `rows`: what it held
    /// is dropped and column `c` of the rows before is copied again, in
    /// the value encoding, from the arena.
    #[cold]
    fn restart_mixed(&mut self, rows: usize, c: usize, cols: &'a StreamColumns) {
        self.tag = CT_MIXED;
        self.values.clear();
        self.dict = std::mem::take(&mut self.dict).recycle();
        for i in 0..rows {
            let mut row = cols.row(i);
            get_varint(&mut row).expect(ARENA);
            for _ in 0..c {
                raw_value(&mut row).expect(ARENA);
            }
            let from = row;
            raw_value(&mut row).expect(ARENA);
            self.values
                .extend_from_slice(&from[..from.len() - row.len()]);
        }
    }

    /// Append the column as the block stores it.
    fn write(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag);
        match self.tag {
            CT_PAD_CONST => put_varint(buf, self.first_pad as u64),
            CT_TEXT_DICT | CT_BLOB_DICT => {
                put_varint(buf, self.dict.entries.len() as u64);
                for entry in &self.dict.entries {
                    put_varint(buf, entry.len() as u64);
                    buf.extend_from_slice(entry);
                }
            }
            _ => {}
        }
        buf.extend_from_slice(&self.values);
    }

    /// Emptied, for another block; its buffers are kept.
    fn recycle<'b>(mut self) -> ColumnOut<'b> {
        self.values.clear();
        ColumnOut {
            tag: CT_NULL,
            first_pad: 0,
            values: self.values,
            dict: self.dict.recycle(),
        }
    }
}

/// The buffers the block encoder fills, kept from one block to the
/// next: one value buffer and one dictionary per column. A
/// [`SpillStore`](crate::store::SpillStore) keeps one for every spill.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    columns: Vec<ColumnOut<'static>>,
}

impl BlockScratch {
    /// At least `arity` empty columns, for rows that borrow from a block.
    fn lend<'a>(&mut self, arity: usize) -> Vec<ColumnOut<'a>> {
        let kept = std::mem::take(&mut self.columns).into_iter();
        let mut columns: Vec<ColumnOut<'a>> = kept.map(ColumnOut::recycle).collect();
        if columns.len() < arity {
            columns.resize_with(arity, ColumnOut::default);
        }
        columns
    }

    fn give_back(&mut self, columns: Vec<ColumnOut<'_>>) {
        self.columns = columns.into_iter().map(ColumnOut::recycle).collect();
    }
}

/// How many rows ahead of the one it encodes the block encoder asks for
/// every cache line of a row: a spilled group's rows are cold, and the
/// ones of a 1 KiB payload cross the pages the hardware prefetcher
/// stops at.
const PREFETCH_AHEAD: usize = 2;

/// Encode one stream's rows as a column block, reading the arena rows in
/// place.
///
/// One pass parses each row once and appends each of its values to its
/// column's buffer in `scratch` — a dictionary id for text and blob —
/// while the column's tag is picked; then the buffers are written out
/// behind the header. A column that stops fitting its tag partway moves
/// on: a pad column whose length changes writes the first length for the
/// rows before, a column that meets a second kind of value restarts as
/// `CT_MIXED`. A row whose arity differs from the first row's restarts
/// the block in the row layout. The rows [`PREFETCH_AHEAD`] ahead are
/// asked for while a row is encoded.
pub(crate) fn encode_stream_block(
    buf: &mut Vec<u8>,
    stream: StreamId,
    cols: &StreamColumns,
    scratch: &mut BlockScratch,
) {
    let n = cols.len();
    put_varint(buf, n as u64);
    if n == 0 {
        return;
    }
    let arity = get_varint(&mut cols.row(0)).expect(ARENA) as usize;
    let mut columns = scratch.lend(arity);
    for i in 0..n {
        if i + PREFETCH_AHEAD < n {
            let ahead = cols.row(i + PREFETCH_AHEAD);
            for line in (0..ahead.len()).step_by(64) {
                prefetch(ahead.as_ptr().wrapping_add(line));
            }
        }
        let mut row = cols.row(i);
        if get_varint(&mut row).expect(ARENA) as usize != arity {
            scratch.give_back(columns);
            buf.push(LAYOUT_ROWS);
            return put_rows(buf, stream, cols);
        }
        for (c, column) in columns[..arity].iter_mut().enumerate() {
            let from = row;
            let v = raw_value(&mut row).expect(ARENA);
            let raw = &from[..from.len() - row.len()];
            if i == 0 {
                column.start(v, raw);
            } else {
                column.push(v, raw, i, c, cols);
            }
        }
    }
    buf.push(LAYOUT_COLUMNAR);
    buf.push(stream.0);
    put_varint(buf, arity as u64);
    put_delta_column(buf, cols.seqs().iter().copied());
    put_delta_column(buf, cols.ts().iter().map(|t| t.as_millis()));
    for column in &columns[..arity] {
        column.write(buf);
    }
    scratch.give_back(columns);
}

/// Write `cols` as row-encoded tuples, each its header from the columns
/// and its arena row as it is: the body of a column block's row
/// fallback.
pub(crate) fn put_rows(buf: &mut Vec<u8>, stream: StreamId, cols: &StreamColumns) {
    for i in 0..cols.len() {
        buf.push(stream.0);
        put_varint(buf, cols.seqs()[i]);
        put_varint(buf, cols.ts()[i].as_millis());
        buf.extend_from_slice(cols.row(i));
    }
}

/// Decode `count` row-encoded tuples into the columns of slot `stream`,
/// each checked as [`TupleBatch::decode`](dcape_common::batch::TupleBatch::decode)
/// checks a batch row and refused if it names another stream.
pub(crate) fn decode_row_block(
    buf: &mut &[u8],
    count: usize,
    stream: StreamId,
) -> Result<StreamColumns> {
    // A tuple encodes to at least four bytes.
    if count > buf.len() / 4 {
        return Err(DcapeError::codec("block: more rows than bytes"));
    }
    let mut cols = StreamColumns::with_capacity(count);
    for _ in 0..count {
        check_stream(buf, stream)?;
        let seq = get_varint(buf)?;
        let ts = VirtualTime::from_millis(get_varint(buf)?);
        let row = RowRef::from_body(PartitionId(0), stream, seq, ts, buf, true)?;
        cols.push_row(&row)?;
    }
    Ok(cols)
}

/// Take the stream byte off `buf`; a partition group files stream `s`'s
/// rows in slot `s`, so any other value is refused.
fn check_stream(buf: &mut &[u8], slot: StreamId) -> Result<()> {
    match buf.split_first() {
        Some((&id, rest)) if id == slot.0 => {
            *buf = rest;
            Ok(())
        }
        Some((&id, _)) => Err(DcapeError::codec(format!(
            "block: slot {} holds a row of stream {id}",
            slot.0
        ))),
        None => Err(DcapeError::codec("block: missing stream id")),
    }
}

/// One decoded value column: a value per row, or one for all rows.
enum Column<'a> {
    Const(RawValue<'a>),
    PerRow(Vec<RawValue<'a>>),
}

impl<'a> Column<'a> {
    /// Row `i`'s value.
    fn value(&self, i: usize) -> RawValue<'a> {
        match self {
            Column::Const(v) => *v,
            Column::PerRow(values) => values[i],
        }
    }
}

/// Decode one value column of `count` rows, borrowing text and blob
/// payloads from `buf`. Adds what the column's values take in the row
/// encoding to `arena_len` and what they account for in operator state
/// to `payload`. Every value is read and checked; the column is built
/// only when `keep` is set.
fn decode_column<'a>(
    buf: &mut &'a [u8],
    count: usize,
    arena_len: &mut u64,
    payload: &mut u64,
    keep: bool,
) -> Result<Option<Column<'a>>> {
    let Some((&tag, rest)) = buf.split_first() else {
        return Err(DcapeError::codec("column: unexpected end of input"));
    };
    *buf = rest;
    let rows = count as u64;
    let pad =
        |n: u64| u32::try_from(n).map_err(|_| DcapeError::codec("pad column: length exceeds u32"));
    let mut out = Vec::new();
    if keep {
        out.reserve(count);
    }
    match tag {
        CT_NULL => {
            *arena_len += rows;
            return Ok(keep.then_some(Column::Const(RawValue::Null)));
        }
        CT_PAD_CONST => {
            let n = get_varint(buf)?;
            *arena_len += rows * (1 + varint_len(n) as u64);
            *payload = payload.saturating_add(rows.saturating_mul(n));
            let v = RawValue::Pad(pad(n)?);
            return Ok(keep.then_some(Column::Const(v)));
        }
        CT_INT | CT_PAD | CT_MIXED => {
            let before = buf.len();
            for _ in 0..count {
                let v = match tag {
                    CT_INT => RawValue::Int(unzigzag(get_varint(buf)?)),
                    CT_PAD => RawValue::Pad(pad(get_varint(buf)?)?),
                    _ => {
                        let v = raw_value(buf)?;
                        if let RawValue::Text(bytes) = v {
                            check_utf8(bytes)?;
                        }
                        v
                    }
                };
                *payload = payload.saturating_add(match v {
                    RawValue::Pad(n) => n as u64,
                    RawValue::Text(b) | RawValue::Blob(b) => b.len() as u64,
                    _ => 0,
                });
                if keep {
                    out.push(v);
                }
            }
            // A mixed column is stored in the row encoding; the other
            // two lack only the tag byte.
            *arena_len += (before - buf.len()) as u64 + if tag == CT_MIXED { 0 } else { rows };
        }
        CT_DOUBLE | CT_BOOL => {
            let width = if tag == CT_DOUBLE { 8 } else { 1 };
            if buf.len() / width < count {
                return Err(DcapeError::codec("fixed-width column: short input"));
            }
            if keep {
                for _ in 0..count {
                    out.push(if tag == CT_DOUBLE {
                        RawValue::Double(buf.get_u64_le())
                    } else {
                        RawValue::Bool(buf.get_u8() != 0)
                    });
                }
            } else {
                buf.advance(width * count);
            }
            *arena_len += rows * (1 + width as u64);
        }
        CT_TEXT_DICT | CT_BLOB_DICT => {
            let ndict = get_varint(buf)?;
            if ndict > rows {
                return Err(DcapeError::codec("column dict larger than column"));
            }
            let mut dict: Vec<&'a [u8]> = Vec::with_capacity(ndict as usize);
            for _ in 0..ndict {
                let len = usize::try_from(get_varint(buf)?).unwrap_or(usize::MAX);
                let all: &'a [u8] = buf;
                if len > all.len() {
                    return Err(DcapeError::codec("column dict entry: short input"));
                }
                let (entry, rest) = all.split_at(len);
                if tag == CT_TEXT_DICT {
                    check_utf8(entry)?;
                }
                dict.push(entry);
                *buf = rest;
            }
            for _ in 0..count {
                let entry = usize::try_from(get_varint(buf)?)
                    .ok()
                    .and_then(|id| dict.get(id))
                    .ok_or_else(|| DcapeError::codec("column dict index out of range"))?;
                *arena_len += (1 + varint_len(entry.len() as u64) + entry.len()) as u64;
                *payload = payload.saturating_add(entry.len() as u64);
                if keep {
                    out.push(if tag == CT_TEXT_DICT {
                        RawValue::Text(entry)
                    } else {
                        RawValue::Blob(entry)
                    });
                }
            }
        }
        tag => return Err(DcapeError::codec(format!("unknown column tag 0x{tag:02x}"))),
    }
    Ok(keep.then_some(Column::PerRow(out)))
}

fn check_utf8(bytes: &[u8]) -> Result<()> {
    std::str::from_utf8(bytes)
        .map(|_| ())
        .map_err(|e| DcapeError::codec(format!("text: invalid utf8: {e}")))
}

/// A column block's row count and layout byte, `None` for an empty
/// block (which has no layout).
fn block_head(buf: &mut &[u8]) -> Result<Option<(usize, u8)>> {
    let count = usize::try_from(get_varint(buf)?).unwrap_or(usize::MAX);
    if count == 0 {
        return Ok(None);
    }
    let Some((&layout, rest)) = buf.split_first() else {
        return Err(DcapeError::codec("block: unexpected end of input"));
    };
    *buf = rest;
    Ok(Some((count, layout)))
}

/// The body of a columnar block, parsed and checked: what both block
/// decoders build from.
struct ColumnarBlock<'a> {
    arity: usize,
    /// Empty unless asked for.
    seqs: Vec<u64>,
    ts: Vec<VirtualTime>,
    /// `None` for a column not asked for.
    columns: Vec<Option<Column<'a>>>,
    /// Bytes the rows take in the row encoding.
    arena_len: u64,
    /// What the rows' values account for in operator state.
    payload: u64,
}

/// Parse and check a columnar block's body, building the sequence
/// column only if `seqs` is set and value column `c` only if `keep(c)`:
/// whatever is built, every byte is checked alike.
fn parse_columnar<'a>(
    buf: &mut &'a [u8],
    count: usize,
    stream: StreamId,
    seqs: bool,
    keep: impl Fn(usize) -> bool,
) -> Result<ColumnarBlock<'a>> {
    check_stream(buf, stream)?;
    let arity = usize::try_from(get_varint(buf)?).unwrap_or(usize::MAX);
    // Every row costs a byte in the seq column and every column a tag
    // byte, which bounds both by the bytes at hand.
    if count > buf.len() || arity > buf.len() {
        return Err(DcapeError::codec("block: more rows or columns than bytes"));
    }
    let seqs = get_delta_column(buf, count, seqs)?;
    let ts = get_delta_column(buf, count, true)?;
    let mut arena_len = (count * varint_len(arity as u64)) as u64;
    let mut payload = 0u64;
    let mut columns = Vec::with_capacity(arity);
    for c in 0..arity {
        columns.push(decode_column(
            buf,
            count,
            &mut arena_len,
            &mut payload,
            keep(c),
        )?);
    }
    if arena_len > u32::MAX as u64 {
        return Err(DcapeError::codec("block: rows exceed the 4 GiB arena"));
    }
    Ok(ColumnarBlock {
        arity,
        seqs,
        ts: ts.into_iter().map(VirtualTime::from_millis).collect(),
        columns,
        arena_len,
        payload,
    })
}

/// Decode one stream's column block straight into the columns of slot
/// `stream`: the values are interleaved back into arena rows without a
/// [`Tuple`](dcape_common::tuple::Tuple) in between. Everything a reader
/// of the arena relies on is checked here — known tags, lengths inside
/// `buf`, UTF-8 text, `Pad` within `u32`, an arena within its `u32`
/// offsets — since segment bytes also arrive off a socket.
pub(crate) fn decode_stream_block(buf: &mut &[u8], stream: StreamId) -> Result<StreamColumns> {
    let Some((count, layout)) = block_head(buf)? else {
        return Ok(StreamColumns::default());
    };
    match layout {
        LAYOUT_ROWS => decode_row_block(buf, count, stream),
        LAYOUT_COLUMNAR => {
            let block = parse_columnar(buf, count, stream, true, |_| true)?;
            let arity = block.arity;
            let columns: Vec<&Column<'_>> = block.columns.iter().flatten().collect();
            let mut arena = RowPages::default();
            let mut ends = Vec::with_capacity(count);
            for i in 0..count {
                let values = columns.iter().map(|c| encoded_raw_value_len(c.value(i)));
                let len = varint_len(arity as u64) + values.sum::<usize>();
                ends.push(arena.push_with(len, |page| {
                    put_varint(page, arity as u64);
                    for column in &columns {
                        encode_raw_value(page, column.value(i));
                    }
                }));
            }
            // Short of `arena_len` only where the input spelled a varint
            // longer than it had to.
            debug_assert!(arena.len() as u64 <= block.arena_len);
            let acct = (count as u64 * heap_size(arity, 0) as u64).saturating_add(block.payload);
            Ok(StreamColumns::from_parts(
                block.ts, block.seqs, ends, arena, acct,
            ))
        }
        b => Err(DcapeError::codec(format!("unknown block layout 0x{b:02x}"))),
    }
}

/// Decode one stream's block as only its timestamps and the values of
/// column `key_column`: the block is parsed and checked as
/// [`decode_stream_block`] checks it, but of a columnar block only the
/// timestamp and key columns are built, and no arena row. A row-layout
/// block is decoded whole and then cut.
pub(crate) fn decode_stream_keys(
    buf: &mut &[u8],
    stream: StreamId,
    key_column: usize,
) -> Result<KeyColumns> {
    let Some((count, layout)) = block_head(buf)? else {
        return Ok(KeyColumns::default());
    };
    match layout {
        LAYOUT_ROWS => KeyColumns::of_rows(&decode_row_block(buf, count, stream)?, key_column),
        LAYOUT_COLUMNAR => {
            let block = parse_columnar(buf, count, stream, false, |c| c == key_column)?;
            let column = block.columns.get(key_column).ok_or_else(lacks_key)?;
            let column = column.as_ref().expect("the key column is built");
            let keys = (0..count).map(|i| column.value(i).to_value());
            Ok(KeyColumns::from_parts(
                block.ts,
                keys.collect::<Result<_>>()?,
            ))
        }
        b => Err(DcapeError::codec(format!("unknown block layout 0x{b:02x}"))),
    }
}

/// A row without the column its stream joins on.
pub(crate) fn lacks_key() -> DcapeError {
    DcapeError::state("cleanup tuple lacks join column")
}

/// The block encoder this module had while a snapshot was a
/// `Vec<Vec<Tuple>>`, kept as the reference the arena-walking encoder
/// must match byte for byte. It also shows what a slot holding another
/// stream's tuple used to encode to, which decoding now refuses.
#[cfg(test)]
pub(crate) mod golden {
    use super::*;
    use dcape_common::tuple::Tuple;
    use dcape_common::value::Value;

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

    fn encode_dict_column<'t>(buf: &mut Vec<u8>, payloads: impl Iterator<Item = &'t [u8]>) {
        let mut dict: Vec<&[u8]> = Vec::new();
        let mut map: FxHashMap<&[u8], u64> = FxHashMap::default();
        let mut indexes: Vec<u64> = Vec::new();
        for b in payloads {
            let id = *map.entry(b).or_insert_with(|| {
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

    fn encode_column(buf: &mut Vec<u8>, tuples: &[Tuple], c: usize) {
        let tag = column_tag(tuples, c);
        buf.put_u8(tag);
        let col = tuples.iter().map(|t| &t.values()[c]);
        match tag {
            CT_NULL => {}
            CT_PAD_CONST => {
                let Value::Pad(n) = tuples[0].values()[c] else {
                    unreachable!()
                };
                put_varint(buf, n as u64);
            }
            CT_TEXT_DICT => encode_dict_column(
                buf,
                col.map(|v| v.as_text().expect("text column").as_bytes()),
            ),
            CT_BLOB_DICT => encode_dict_column(
                buf,
                col.map(|v| match v {
                    Value::Blob(b) => &b[..],
                    _ => unreachable!(),
                }),
            ),
            _ => {
                for v in col {
                    match (tag, v) {
                        (CT_INT, Value::Int(i)) => put_varint(buf, zigzag(*i)),
                        (CT_DOUBLE, Value::Double(d)) => buf.put_u64_le(d.to_bits()),
                        (CT_BOOL, Value::Bool(b)) => buf.put_u8(*b as u8),
                        (CT_PAD, Value::Pad(n)) => put_varint(buf, *n as u64),
                        (CT_MIXED, v) => encode_value(buf, v),
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    /// Encode one stream's tuple list as a column block.
    pub(crate) fn encode_stream_block(buf: &mut Vec<u8>, tuples: &[Tuple]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dcape_common::tuple::{Tuple, TupleBuilder};
    use dcape_common::value::Value;
    use proptest::prelude::*;

    fn columns_of(tuples: &[Tuple]) -> StreamColumns {
        let mut cols = StreamColumns::default();
        for t in tuples {
            cols.push_tuple(t).unwrap();
        }
        cols
    }

    /// Encode `tuples` (all of one stream) from their columnar form,
    /// check the bytes against the tuple-based reference encoder, decode
    /// them and check columns and tuples against the input.
    fn block_round_trip(tuples: &[Tuple]) -> Vec<u8> {
        let stream = tuples.first().map_or(StreamId(0), Tuple::stream);
        let cols = columns_of(tuples);
        let mut scratch = BlockScratch::default();
        let mut buf = Vec::new();
        encode_stream_block(&mut buf, stream, &cols, &mut scratch);
        let mut reference = Vec::new();
        golden::encode_stream_block(&mut reference, tuples);
        assert_eq!(buf, reference, "bytes differ from the tuple-based encoder");
        // A scratch another block left behind changes nothing.
        let mut again = Vec::new();
        encode_stream_block(&mut again, stream, &cols, &mut scratch);
        assert_eq!(again, buf, "bytes differ through a used scratch");
        let mut bytes = buf.as_slice();
        let out = decode_stream_block(&mut bytes, stream).unwrap();
        assert!(bytes.is_empty(), "trailing bytes after block decode");
        assert_eq!(out, cols);
        let rebuilt: Vec<Tuple> = (0..out.len()).map(|i| out.tuple(stream, i)).collect();
        assert_eq!(rebuilt, tuples);
        buf
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
        let tuples = vec![
            TupleBuilder::new(StreamId(0)).seq(0).value(1i64).build(),
            TupleBuilder::new(StreamId(0))
                .seq(1)
                .value(2i64)
                .value("extra")
                .build(),
        ];
        let bytes = block_round_trip(&tuples);
        assert_eq!(bytes[1], LAYOUT_ROWS);
    }

    /// The tag of each value column of a columnar block `bytes`.
    fn column_tags(bytes: &[u8]) -> Vec<u8> {
        let mut buf = bytes;
        let count = get_varint(&mut buf).unwrap() as usize;
        assert_eq!(buf[0], LAYOUT_COLUMNAR);
        buf = &buf[2..];
        let arity = get_varint(&mut buf).unwrap() as usize;
        get_delta_column(&mut buf, count, false).unwrap();
        get_delta_column(&mut buf, count, false).unwrap();
        let mut tags = Vec::new();
        for _ in 0..arity {
            tags.push(buf[0]);
            let (mut arena_len, mut payload) = (0, 0);
            decode_column(&mut buf, count, &mut arena_len, &mut payload, false).unwrap();
        }
        assert!(buf.is_empty());
        tags
    }

    /// Row `i` of a block whose columns hold an int, a text, a pad and a
    /// blob, each of which `odd` may replace.
    fn four_columns(i: u64, odd: Option<(usize, Value)>) -> Tuple {
        let mut values = vec![
            Value::Int(i as i64 % 3),
            Value::text(["x", "yy"][i as usize % 2]),
            Value::Pad(64),
            Value::Blob(Bytes::from(vec![i as u8 % 2; 60])),
        ];
        if let Some((c, v)) = odd {
            values[c] = v;
        }
        Tuple::new(StreamId(2), i, VirtualTime::from_millis(i * 10), values)
    }

    /// A block that turns ragged after its first row, or on its last,
    /// restarts in the row layout, however far its columns got.
    #[test]
    fn a_block_that_turns_ragged_restarts_in_the_row_layout() {
        for ragged_at in [1, 9] {
            let tuples: Vec<Tuple> = (0..10u64)
                .map(|i| {
                    let t = four_columns(i, None);
                    if i == ragged_at {
                        let values = t.values()[..3].to_vec();
                        Tuple::new(t.stream(), t.seq(), t.ts(), values)
                    } else {
                        t
                    }
                })
                .collect();
            let bytes = block_round_trip(&tuples);
            assert_eq!(bytes[1], LAYOUT_ROWS, "ragged at row {ragged_at}");
        }
    }

    /// A column that meets a second kind of value partway through — on
    /// row 1, in the middle, on its last row — turns `CT_MIXED` from its
    /// first row on, and the columns beside it keep their tags.
    #[test]
    fn a_column_that_turns_mixed_partway_is_mixed_from_its_first_row() {
        for c in 0..4 {
            for mixed_at in [1, 5, 9] {
                let odd = |i: u64| (i == mixed_at).then_some((c, Value::Double(0.5)));
                let tuples: Vec<Tuple> = (0..10u64).map(|i| four_columns(i, odd(i))).collect();
                let mut tags = vec![CT_INT, CT_TEXT_DICT, CT_PAD_CONST, CT_BLOB_DICT];
                tags[c] = CT_MIXED;
                assert_eq!(column_tags(&block_round_trip(&tuples)), tags);
            }
        }
    }

    /// A pad column that stops being constant — on its last row, or
    /// earlier and back — carries every row's length.
    #[test]
    fn a_pad_column_that_stops_being_constant_carries_every_length() {
        for changed_at in [[9, 9], [1, 1], [3, 7]] {
            let odd = |i: u64| (changed_at.contains(&i)).then_some((2, Value::Pad(65)));
            let tuples: Vec<Tuple> = (0..10u64).map(|i| four_columns(i, odd(i))).collect();
            let tags = [CT_INT, CT_TEXT_DICT, CT_PAD, CT_BLOB_DICT];
            assert_eq!(column_tags(&block_round_trip(&tuples)), tags);
        }
        let constant: Vec<Tuple> = (0..10u64).map(|i| four_columns(i, None)).collect();
        let tags = [CT_INT, CT_TEXT_DICT, CT_PAD_CONST, CT_BLOB_DICT];
        assert_eq!(column_tags(&block_round_trip(&constant)), tags);
    }

    #[test]
    fn another_streams_row_in_a_slot_is_refused() {
        // What the tuple-based encoder wrote for a slot holding tuples
        // of two streams (row layout) and of one wrong stream (columnar
        // layout): a group files stream `s` in slot `s`, so neither
        // decodes into slot 0.
        let stray = TupleBuilder::new(StreamId(1)).seq(1).value(2i64).build();
        let home = TupleBuilder::new(StreamId(0)).seq(0).value(1i64).build();
        for tuples in [vec![home, stray.clone()], vec![stray]] {
            let mut bytes = Vec::new();
            golden::encode_stream_block(&mut bytes, &tuples);
            assert!(decode_stream_block(&mut bytes.as_slice(), StreamId(0)).is_err());
        }
    }

    #[test]
    fn empty_block_round_trips() {
        block_round_trip(&[]);
    }

    #[test]
    fn dictionary_keeps_first_occurrence_order_when_samples_collide() {
        // Long payloads that agree in every sampled byte (both ends and
        // the middle) and differ elsewhere: the byte comparison, not the
        // sample, decides what is a distinct entry.
        let variant = |v: u8| {
            let mut b = vec![7u8; 200];
            b[30] = v;
            Value::Blob(Bytes::from(b))
        };
        let tuples: Vec<Tuple> = [2u8, 0, 2, 1, 0, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                TupleBuilder::new(StreamId(0))
                    .seq(i as u64)
                    .value(variant(v))
                    .build()
            })
            .collect();
        block_round_trip(&tuples);
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
        let cols = block_round_trip(&tuples);
        let rows = tuples.iter().map(encoded_tuple_len).sum::<usize>();
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
        let full = block_round_trip(&tuples);
        for cut in 0..full.len() {
            assert!(
                decode_stream_block(&mut &full[..cut], StreamId(1)).is_err(),
                "decode of {cut}/{} bytes should fail",
                full.len()
            );
        }
    }

    /// The head of a one-row, one-column columnar block of stream 0.
    fn one_cell_block(column_tag: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // count
        buf.put_u8(LAYOUT_COLUMNAR);
        buf.put_u8(0); // stream
        put_varint(&mut buf, 1); // arity
        put_varint(&mut buf, 0); // seq
        put_varint(&mut buf, 0); // ts
        buf.put_u8(column_tag);
        buf
    }

    #[test]
    fn dict_index_out_of_range_rejected() {
        let mut buf = one_cell_block(CT_TEXT_DICT);
        put_varint(&mut buf, 1); // ndict
        put_varint(&mut buf, 1); // entry len
        buf.put_u8(b'x');
        put_varint(&mut buf, 5); // index out of range
        assert!(decode_stream_block(&mut buf.as_slice(), StreamId(0)).is_err());
    }

    #[test]
    fn oversized_dict_rejected() {
        let mut buf = one_cell_block(CT_BLOB_DICT);
        put_varint(&mut buf, 9); // ndict > count
        assert!(decode_stream_block(&mut buf.as_slice(), StreamId(0)).is_err());
    }

    #[test]
    fn invalid_utf8_in_a_text_dictionary_rejected() {
        let mut buf = one_cell_block(CT_TEXT_DICT);
        put_varint(&mut buf, 1); // ndict
        put_varint(&mut buf, 2); // entry len
        buf.put_slice(&[0xC3, 0x28]);
        put_varint(&mut buf, 0); // index
        assert!(decode_stream_block(&mut buf.as_slice(), StreamId(0)).is_err());
    }

    #[test]
    fn counts_past_the_input_are_refused_before_allocating() {
        for layout in [LAYOUT_ROWS, LAYOUT_COLUMNAR] {
            let mut buf = Vec::new();
            put_varint(&mut buf, u64::MAX); // count
            buf.put_u8(layout);
            buf.put_u8(0); // stream
            put_varint(&mut buf, 1); // arity, or a tuple's seq
            assert!(decode_stream_block(&mut buf.as_slice(), StreamId(0)).is_err());
        }
        let mut wide = Vec::new();
        put_varint(&mut wide, 1); // count
        wide.put_u8(LAYOUT_COLUMNAR);
        wide.put_u8(0);
        put_varint(&mut wide, u64::MAX); // arity
        assert!(decode_stream_block(&mut wide.as_slice(), StreamId(0)).is_err());
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
            block_round_trip(&tuples);
        }

        /// Column-block decoding of arbitrary bytes must never panic,
        /// and whatever it accepts re-encodes and rebuilds as tuples.
        #[test]
        fn decode_stream_block_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            if let Ok(cols) = decode_stream_block(&mut data.as_slice(), StreamId(0)) {
                encode_stream_block(&mut Vec::new(), StreamId(0), &cols, &mut BlockScratch::default());
                (0..cols.len()).for_each(|i| drop(cols.tuple(StreamId(0), i)));
            }
        }
    }
}
