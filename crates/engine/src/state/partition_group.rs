//! One partition group of a symmetric m-way hash join.
//!
//! A partition group holds, for **one partition ID**, the tuples of
//! *every* input stream, each side hash-indexed on its join column. This
//! is the paper's adaptation unit (§2, Figure 3(b)): grouping all inputs'
//! partitions together keeps joins local to one machine after relocation
//! and lets whole groups spill without timestamp bookkeeping — all
//! results among co-resident tuples are produced symmetrically at
//! insertion time, so a spilled group owes nothing internally.
//!
//! Insertion implements the symmetric hash join step: look the new
//! tuple's join key up, emit the full cartesian combination of the other
//! streams' matches, then index the tuple.
//!
//! The state is **columnar** — struct-of-arrays per stream: a contiguous
//! timestamp column, a packed per-row bookkeeping column (sequence
//! number, accounted size, arena address) and one payload arena of
//! encoded values, in pages ([`RowPages`]) — a [`TupleBatch`] row's
//! `arity value*` tail, copied in as it arrives and never moved by a
//! later append; and **one** `JoinIndex` for the whole group, whose
//! entry for a key holds a position list per stream — so an insert pays
//! one lookup, not one per stream. Join keys live only in that index. The
//! probe path touches only the index entry and the columns (a count-only
//! sink gets [`SpanList::TsOnly`] lists and never sees a row); rows are
//! materialized from the arena only at the sink or spill boundary.
//!
//! Index positions are *logical*: a stream partition counts the rows it
//! has physically dropped (`base`), and row `i` of its columns is
//! position `base + i`, so dropping rows moves no position. A window
//! purge of a time-ordered partition finds the expired prefix by a
//! galloping search, sums its accounted bytes and retires it — the join
//! index is not touched. The retired positions stay in the index as a
//! dead prefix of their lists, below the stream's *floor*; the next
//! insert that reaches an entry trims them off before it probes, and a
//! growing index sweeps out the entries left with nothing live.

use dcape_common::batch::{RowRef, TupleBatch};
#[cfg(test)]
use dcape_common::codec::body_value;
use dcape_common::codec::{decode_value, get_varint};
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::fx_hash;
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::mem::HeapSize;
use dcape_common::pages::{RowAt, RowPages};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;
use dcape_storage::{SpilledGroup, StreamColumns};
use std::sync::Arc;

use crate::probe::{ProbeSpans, SpanList, INLINE_STREAMS};
use crate::sink::ResultSink;
use crate::state::join_index::{JoinIndex, PosList};
use crate::state::productivity::DecayState;

/// Estimated per-tuple bookkeeping bytes beyond the tuple itself
/// (vector slot + hash-index entry share).
pub const PER_TUPLE_OVERHEAD: usize = 24;

/// Per-row bookkeeping that is only read at materialization, purge, or
/// accounting time — packed into one vector so the insert hot path
/// touches a single cache line for all three fields (a dedicated
/// vector per field measurably hurt insert throughput under random
/// partition access).
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    /// Arrival sequence number.
    seq: u64,
    /// Accounted heap size captured at insert: what the row costs as a
    /// [`Tuple`], the unit every memory decision is made in.
    acct: u64,
    /// End offset (exclusive) of the row's slice of its arena page; the
    /// start is the previous row's `end` if that row shares the page,
    /// else 0.
    end: u32,
    /// Number of the arena page the row lies in.
    page: u32,
}

// `page` lies in what was padding behind `end`.
const _: () = assert!(std::mem::size_of::<RowMeta>() == 24);

impl RowMeta {
    /// The row's arena address.
    fn at(&self) -> RowAt {
        (self.page, self.end)
    }
}

/// Struct-of-arrays state of one stream inside one partition group.
///
/// Row `i` is scattered across parallel stores: the dense timestamp
/// column `ts[i]` (probes window-filter by binary search over it, and
/// count-only sinks read it directly through [`SpanList::TsOnly`]),
/// the packed [`RowMeta`] record `meta[i]`, and the payload arena row at
/// `meta[i]`'s address holding the codec-encoded column
/// values (arity varint + one encoded value per column — a
/// [`RowRef::body`], byte for byte). The join
/// key lives only in the group's [`JoinIndex`], and no per-row key copy
/// is ever stored.
///
/// Row `i` is index position `base + i`. Rows `..head` are a retired
/// (window-expired) prefix: still physically present in
/// `ts`/`meta`/`arena`, but dead — every reader walks `head..` only, and
/// index positions below the [`floor`](Self::floor) `base + head` are
/// never probed. One stream partition's arena is capped at 4 GiB of live
/// bytes, enforced *before* any result is emitted.
#[derive(Debug, Clone)]
struct ColumnarPartition {
    ts: Vec<VirtualTime>,
    meta: Vec<RowMeta>,
    /// Encoded payloads of all rows, in insertion order.
    arena: RowPages,
    /// True while `ts` is nondecreasing in storage order — then every
    /// match-position list is too, which unlocks binary-search window
    /// pruning in [`ProbeSpans::count_valid`]. Live streams arrive in
    /// timestamp order so this normally stays `true`; replayed or
    /// merged state may clear it, which only costs the pruning
    /// shortcut, never correctness.
    ts_sorted: bool,
    /// Physical index of the first live row.
    head: usize,
    /// Rows physically dropped so far: the index position of row 0.
    /// `base + meta.len()` stays within `u32`
    /// ([`ColumnarState::check_capacity`] rebases before it would not).
    base: u32,
    /// Oldest live timestamp ([`NO_ROWS`] when empty): one comparison
    /// rejects a purge pulse that expires nothing here.
    min_ts: VirtualTime,
}

/// `min_ts` of an empty partition: no cutoff is above it.
const NO_ROWS: VirtualTime = VirtualTime::from_millis(u64::MAX);

/// The retired prefix is physically reclaimed once fewer than this
/// many live rows remain per retired row (`head > live / 4`). A
/// constant, not a setting: it only trades ≤ 25 % transient column
/// memory against how often the O(live rows) shift of the columns runs,
/// and any fixed ratio keeps the amortised cost at O(1) per expired row.
const COMPACT_LIVE_PER_DEAD: usize = 4;

impl Default for ColumnarPartition {
    fn default() -> Self {
        ColumnarPartition {
            ts: Vec::new(),
            meta: Vec::new(),
            arena: RowPages::default(),
            ts_sorted: true,
            head: 0,
            base: 0,
            min_ts: NO_ROWS,
        }
    }
}

impl ColumnarPartition {
    /// Live rows.
    fn len(&self) -> usize {
        self.meta.len() - self.head
    }

    /// Physical indices of the live rows, in insertion order.
    fn live(&self) -> std::ops::Range<usize> {
        self.head..self.meta.len()
    }

    /// Index position of the first live row: every position of this
    /// stream below it is dead.
    #[inline]
    fn floor(&self) -> u32 {
        self.base + self.head as u32
    }

    /// Row `i`'s encoded slice of the arena.
    fn row_bytes(&self, i: usize) -> &[u8] {
        let prev = i.checked_sub(1).map(|before| self.meta[before].at());
        self.arena.row(prev, self.meta[i].at())
    }

    /// Append one row and return its position. Infallible: callers run
    /// [`ColumnarState::check_capacity`] first.
    fn append(&mut self, row: &RowRef<'_>) -> u32 {
        if let Some(&last) = self.ts.last() {
            self.ts_sorted &= row.ts() >= last;
        }
        self.min_ts = self.min_ts.min(row.ts());
        let pos = self.base + self.meta.len() as u32;
        self.ts.push(row.ts());
        let (page, end) = self.arena.push(row.body());
        self.meta.push(RowMeta {
            seq: row.seq(),
            acct: row.heap_size() as u64,
            end,
            page,
        });
        pos
    }

    /// Physically drop the retired prefix from every store: the arena
    /// frees the pages it filled, and only the live rows that share the
    /// first live row's page have their offsets re-based. `base` grows
    /// by the rows dropped, so no index position moves.
    fn drop_retired(&mut self) {
        let head = std::mem::take(&mut self.head);
        if head == 0 {
            return;
        }
        self.base += head as u32;
        if head == self.meta.len() {
            self.arena.clear();
        } else {
            let (gone, first) = (self.meta[head - 1], self.meta[head].page);
            let cut = if gone.page == first { gone.end } else { 0 };
            self.arena.drop_before(first, cut);
            let shared = self.meta[head..].iter_mut();
            for m in shared.take_while(|m| m.page == first) {
                m.end -= cut;
            }
        }
        self.ts.drain(..head);
        self.meta.drain(..head);
    }

    /// Bytes the stores occupy: the columns' capacities and the arena's
    /// pages.
    fn reserved_bytes(&self) -> usize {
        self.ts.capacity() * std::mem::size_of::<VirtualTime>()
            + self.meta.capacity() * std::mem::size_of::<RowMeta>()
            + self.arena.reserved()
    }

    /// Hand the live rows over as snapshot columns: the timestamp column
    /// and the arena move, the bookkeeping column splits in two.
    fn into_columns(mut self) -> StreamColumns {
        self.drop_retired();
        let acct = self.meta.iter().map(|m| m.acct).sum();
        let (seq, ends) = self.meta.iter().map(|m| (m.seq, m.at())).unzip();
        StreamColumns::from_parts(self.ts, seq, ends, self.arena, acct)
    }

    /// Rebuild row `i` from its columns and arena slice. The arena
    /// holds only bodies of well-formed batch rows, so decode failures
    /// are impossible.
    fn materialize(&self, stream: StreamId, i: usize) -> Tuple {
        let mut buf = self.row_bytes(i);
        let arity = get_varint(&mut buf).expect("arena: self-encoded") as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(decode_value(&mut buf).expect("arena: self-encoded"));
        }
        Tuple::new(stream, self.meta[i].seq, self.ts[i], values)
    }

    /// Recover row `i`'s join key from its arena slice, decoding only as
    /// far as the join `column` (validated present at insert).
    #[cfg(test)]
    fn key_at(&self, i: usize, column: usize) -> Value {
        body_value(self.row_bytes(i), column)
            .expect("arena: self-encoded")
            .expect("join column validated at insert")
    }

    /// Test-only: the structural invariants of the column stores.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert_eq!(self.ts.len(), self.meta.len());
        assert!(self.head <= self.meta.len());
        assert!(
            u32::try_from(self.base as usize + self.meta.len()).is_ok(),
            "every row has a u32 position"
        );
        assert!(
            self.meta.is_empty() || self.head < self.meta.len(),
            "a fully retired partition is compacted to empty"
        );
        let rows = (0..self.meta.len()).map(|i| self.row_bytes(i).len());
        assert_eq!(
            rows.sum::<usize>(),
            self.arena.len(),
            "the arena is its rows"
        );
        let oldest = self.ts[self.head..].iter().min().copied();
        assert_eq!(self.min_ts, oldest.unwrap_or(NO_ROWS));
    }
}

/// The columnar state of one group: a [`ColumnarPartition`] per stream
/// and the one [`JoinIndex`] over all of them. Above stream `s`'s floor,
/// list `s` of a key's index entry holds exactly the positions of stream
/// `s`'s live rows with that key, ascending; below it, only a dead
/// prefix; and every live key has an entry. A purge only raises the
/// floor; the dead prefixes go when an insert reaches the entry or the
/// index is swept, and whatever re-numbers positions (`rebase`,
/// `purge_unsorted`) lives here, beside the index.
#[derive(Debug)]
struct ColumnarState {
    cols: Vec<ColumnarPartition>,
    index: JoinIndex,
}

impl ColumnarState {
    fn new(streams: usize) -> Self {
        ColumnarState {
            cols: (0..streams).map(|_| ColumnarPartition::default()).collect(),
            index: JoinIndex::new(streams),
        }
    }

    /// Take snapshot columns in as live state: the timestamp column and
    /// the arena move, and one walk over the rows rebuilds the
    /// bookkeeping column and the join index. Also returns the bytes the
    /// rows account for.
    fn from_columns(
        pid: PartitionId,
        streams: Vec<StreamColumns>,
        join_columns: &[usize],
    ) -> Result<(Self, usize)> {
        let mut st = ColumnarState::new(streams.len());
        let mut bytes = 0usize;
        for (s, columns) in streams.into_iter().enumerate() {
            let (ts, seq, ends, arena) = columns.into_parts();
            let mut meta = Vec::with_capacity(ends.len());
            let mut prev = None;
            for (i, (&seq, &(page, end))) in seq.iter().zip(&ends).enumerate() {
                let mut body = arena.row(prev, (page, end));
                prev = Some((page, end));
                let row = RowRef::from_body(pid, StreamId(s as u8), seq, ts[i], &mut body, false)?;
                let key = row
                    .value(join_columns[s])
                    .ok_or_else(|| DcapeError::state("snapshot tuple lacks join column"))?;
                let slot = st.index.find_or_insert(fx_hash(&key), &key, |_| 0);
                st.index.list_mut(slot, s).push(i as u32);
                let acct = row.heap_size();
                bytes += acct + PER_TUPLE_OVERHEAD;
                meta.push(RowMeta {
                    seq,
                    acct: acct as u64,
                    end,
                    page,
                });
            }
            st.cols[s] = ColumnarPartition {
                ts_sorted: ts.windows(2).all(|w| w[0] <= w[1]),
                min_ts: ts.iter().min().copied().unwrap_or(NO_ROWS),
                ts,
                meta,
                arena,
                head: 0,
                base: 0,
            };
        }
        Ok((st, bytes))
    }

    /// Hand the live rows over as snapshot columns, one per stream.
    fn into_columns(self) -> Vec<StreamColumns> {
        let cols = self.cols.into_iter();
        cols.map(ColumnarPartition::into_columns).collect()
    }

    /// Reject an insert into stream `s` whose `row_len` arena bytes
    /// would push its arena past 4 GiB of row bytes. Checked before
    /// the probe so no results are emitted for a row that is then
    /// refused. Near the 4 GiB edge the retired prefix is reclaimed
    /// first — the cap is on live bytes. A stream whose next position
    /// would not fit in a `u32` is [rebased](Self::rebase) first.
    fn check_capacity(&mut self, s: usize, row_len: usize) -> Result<()> {
        let cp = &mut self.cols[s];
        if cp.arena.len() + row_len > u32::MAX as usize {
            cp.drop_retired();
            if cp.arena.len() + row_len > u32::MAX as usize {
                return Err(DcapeError::state(
                    "columnar arena exceeds 4 GiB for one stream partition",
                ));
            }
        }
        if cp.base as usize + cp.meta.len() >= u32::MAX as usize {
            self.rebase(s);
        }
        Ok(())
    }

    /// Re-number stream `s`'s positions from 0: drop the retired prefix,
    /// then walk list `s` of every entry, dropping its dead prefix and
    /// shifting the rest down by the old `base`, and sweep the entries
    /// that leaves empty. O(index slots + live rows), once per 2³² rows
    /// the stream takes in.
    #[cold]
    fn rebase(&mut self, s: usize) {
        let cp = &mut self.cols[s];
        cp.drop_retired();
        let base = std::mem::take(&mut cp.base);
        self.index.for_each_list_mut(s, |list| {
            list.retain_mut(|p| match p.checked_sub(base) {
                Some(live) => {
                    *p = live;
                    true
                }
                None => false,
            })
        });
        let cols = &self.cols;
        self.index.sweep(|s| cols[s].floor());
    }

    /// Symmetric-join step for one row of stream `s`: **one** index
    /// lookup yields the key's entry, whose lists are the `m - 1` match
    /// lists to probe and the list the new row's position is appended to
    /// (the key is cloned only when the entry is new). The entry's lists
    /// lose their dead prefixes first, so the probe sees exactly the live
    /// rows; a stream that has never purged is not read. Returns the
    /// results emitted.
    fn probe_insert(
        &mut self,
        s: usize,
        key: &Value,
        row: &RowRef<'_>,
        scratch: &mut Vec<Vec<Tuple>>,
        window: Option<VirtualDuration>,
        sink: &mut dyn ResultSink,
    ) -> Result<u64> {
        self.check_capacity(s, row.body().len())?;
        let cols = &self.cols;
        let floor = |s: usize| cols[s].floor();
        let slot = self.index.find_or_insert(fx_hash(key), key, floor);
        self.index.trim(slot, floor);
        let matches = self.index.lists(slot);
        let emitted = Self::probe(&self.cols, matches, scratch, window, s, row, sink);
        let pos = self.cols[s].append(row);
        self.index.list_mut(slot, s).push(pos);
        Ok(emitted)
    }

    /// Deliver the product of `row` (slot `s`) with the `matches` of
    /// every other stream. First checks every other list for emptiness
    /// and bails before touching any column; then builds the span lists:
    /// timestamp-only views for count-only sinks (the probing slot is a
    /// one-row view of `row`'s timestamp), materialized row slices (into
    /// the reused `scratch` buffers) for sinks that enumerate — only
    /// then, with a product to deliver, is `row` itself rebuilt as a
    /// [`Tuple`].
    fn probe(
        cols: &[ColumnarPartition],
        matches: &[PosList],
        scratch: &mut Vec<Vec<Tuple>>,
        window: Option<VirtualDuration>,
        s: usize,
        row: &RowRef<'_>,
        sink: &mut dyn ResultSink,
    ) -> u64 {
        let m = cols.len();
        if m < 2 {
            return 0;
        }
        let mut ts_sorted = true;
        for (i, cp) in cols.iter().enumerate() {
            if i == s {
                continue;
            }
            if matches[i].is_empty() {
                return 0;
            }
            ts_sorted &= cp.ts_sorted;
        }
        let probing_ts = [row.ts()];
        let probing;
        let mut inline = [SpanList::Slice(&[]); INLINE_STREAMS];
        let mut spilled = Vec::new();
        let lists = if m <= INLINE_STREAMS {
            &mut inline[..m]
        } else {
            spilled.resize(m, SpanList::Slice(&[]));
            &mut spilled[..]
        };
        if sink.wants_rows() {
            probing = row.to_tuple();
            lists[s] = SpanList::One(&probing);
            if scratch.len() < m {
                scratch.resize_with(m, Vec::new);
            }
            for (i, cp) in cols.iter().enumerate() {
                if i == s {
                    continue;
                }
                let buf = &mut scratch[i];
                buf.clear();
                buf.extend(
                    matches[i]
                        .as_slice()
                        .iter()
                        .map(|&p| cp.materialize(StreamId(i as u8), (p - cp.base) as usize)),
                );
            }
            for (i, rows) in scratch.iter().enumerate().take(m) {
                if i != s {
                    lists[i] = SpanList::Slice(rows);
                }
            }
        } else {
            lists[s] = SpanList::TsOnly {
                ts: &probing_ts,
                base: 0,
                positions: &[0],
            };
            for (i, cp) in cols.iter().enumerate() {
                if i != s {
                    lists[i] = SpanList::TsOnly {
                        ts: &cp.ts,
                        base: cp.base,
                        positions: matches[i].as_slice(),
                    };
                }
            }
        }
        sink.emit_product(&ProbeSpans::new(lists, window, ts_sorted))
    }

    /// Drop stream `s`'s rows with `ts < cutoff`. Returns the accounted
    /// bytes freed and the number of rows visited (the purge-cost
    /// counter behind [`PartitionGroup::purge_rows_touched`]).
    ///
    /// A pulse that expires nothing here is rejected by one comparison
    /// against `min_ts`. In a `ts_sorted` partition the expired rows are
    /// a prefix: a galloping binary search finds the cut, their accounted
    /// sizes are summed from `meta`, and the prefix is retired by
    /// advancing `head` — which raises the stream's floor, so their index
    /// positions are dead where they stand. No key is decoded and the
    /// index is not read. Once the retired prefix outgrows a quarter of
    /// the live rows it is physically dropped (`base` grows by it, so no
    /// position moves). An unsorted partition takes the full rebuild of
    /// [`purge_unsorted`](Self::purge_unsorted).
    fn purge(&mut self, s: usize, cutoff: VirtualTime) -> (usize, u64) {
        let cp = &mut self.cols[s];
        if cp.min_ts >= cutoff {
            return (0, 0);
        }
        if !cp.ts_sorted {
            return self.purge_unsorted(s, cutoff);
        }
        let cut = cp.head + expired_prefix(&cp.ts[cp.head..], cutoff);
        let expired = &cp.meta[cp.head..cut];
        let acct: u64 = expired.iter().map(|m| m.acct).sum();
        let freed = acct as usize + expired.len() * PER_TUPLE_OVERHEAD;
        let mut touched = expired.len() as u64;
        cp.head = cut;
        cp.min_ts = cp.ts.get(cut).copied().unwrap_or(NO_ROWS);
        if cp.len() < COMPACT_LIVE_PER_DEAD * cp.head {
            touched += cp.len() as u64;
            cp.drop_retired();
        }
        (freed, touched)
    }

    /// Purge of a partition whose rows are not in time order (replayed
    /// or installed state): scan every live row, compact the survivors
    /// to the front of the columns in place, push their arena rows into
    /// fresh pages, and re-number the stream's index positions from 0
    /// through a survivor table — no re-hashing of rows, no row
    /// materialization; positions below the floor and those of expired
    /// rows map to `DEAD` and are dropped — then sweep out the entries
    /// that lost their last position. Recomputes `ts_sorted` over the
    /// survivors, so the partition returns to the prefix-drop path once
    /// the offending rows expire.
    fn purge_unsorted(&mut self, s: usize, cutoff: VirtualTime) -> (usize, u64) {
        const DEAD: u32 = u32::MAX;
        let cp = &mut self.cols[s];
        let floor = cp.floor();
        // `remap[p - floor]`: the new position of the row at position `p`.
        let mut remap = vec![DEAD; cp.len()];
        let mut freed = 0usize;
        let mut kept = 0usize;
        let mut arena = RowPages::default();
        let mut prev = cp.head.checked_sub(1).map(|retired| cp.meta[retired].at());
        let mut sorted = true;
        let mut prev_ts = VirtualTime::from_millis(0);
        let mut min_ts = NO_ROWS;
        for i in cp.live() {
            let at = cp.meta[i].at();
            let row = cp.arena.row(prev, at);
            prev = Some(at);
            if cp.ts[i] < cutoff {
                freed += cp.meta[i].acct as usize + PER_TUPLE_OVERHEAD;
                continue;
            }
            remap[i - cp.head] = kept as u32;
            cp.ts[kept] = cp.ts[i];
            let (page, end) = arena.push(row);
            cp.meta[kept] = RowMeta {
                end,
                page,
                ..cp.meta[i]
            };
            sorted &= kept == 0 || cp.ts[kept] >= prev_ts;
            prev_ts = cp.ts[kept];
            min_ts = min_ts.min(prev_ts);
            kept += 1;
        }
        let touched = cp.len() as u64;
        cp.ts.truncate(kept);
        cp.meta.truncate(kept);
        cp.arena = arena;
        cp.ts_sorted = sorted;
        cp.head = 0;
        cp.base = 0;
        cp.min_ts = min_ts;
        self.index.for_each_list_mut(s, |list| {
            list.retain_mut(|p| {
                *p = p
                    .checked_sub(floor)
                    .map_or(DEAD, |live| remap[live as usize]);
                *p != DEAD
            })
        });
        let cols = &self.cols;
        self.index.sweep(|s| cols[s].floor());
        (freed, touched)
    }

    /// Test-only: the column stores' invariants, the index's own, and
    /// the tie between them — above stream `s`'s floor, list `s` of a
    /// key's entry holds each live row of stream `s` with that key
    /// exactly once, ascending, and nothing else; below it, only a dead
    /// prefix; and every live key has an entry.
    #[cfg(test)]
    fn assert_invariants(&self, join_columns: &[usize]) {
        self.cols
            .iter()
            .for_each(ColumnarPartition::assert_invariants);
        self.index.assert_invariants();
        let mut expected: std::collections::HashMap<Value, Vec<Vec<u32>>> = Default::default();
        for (s, cp) in self.cols.iter().enumerate() {
            for i in cp.live() {
                expected
                    .entry(cp.key_at(i, join_columns[s]))
                    .or_insert_with(|| vec![Vec::new(); self.cols.len()])[s]
                    .push(cp.base + i as u32);
            }
        }
        for (key, lists) in self.index.entries() {
            let live: Vec<&[u32]> = (lists.iter().zip(&self.cols))
                .map(|(list, cp)| {
                    let held = list.as_slice();
                    let end = cp.base as usize + cp.meta.len();
                    assert!(held.iter().all(|&p| (p as usize) < end), "a row holds it");
                    &held[held.partition_point(|&p| p < cp.floor())..]
                })
                .collect();
            match expected.remove(key) {
                Some(rows) => assert_eq!(live, rows.iter().map(Vec::as_slice).collect::<Vec<_>>()),
                None => assert!(live.iter().all(|l| l.is_empty()), "{key} has no live row"),
            }
        }
        let lost: Vec<&Value> = expected.keys().collect();
        assert!(lost.is_empty(), "live keys without an entry: {lost:?}");
    }
}
/// Length of the `< cutoff` prefix of a ts-nondecreasing column whose
/// first element is below `cutoff`. Gallops from the front before
/// bisecting, so a pulse that expires `k` rows costs O(log k) and reads
/// the cache line the oldest timestamp sits in, whatever the live
/// length.
fn expired_prefix(live: &[VirtualTime], cutoff: VirtualTime) -> usize {
    let mut hi = 1;
    while hi < live.len() && live[hi] < cutoff {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + live[lo..hi.min(live.len())].partition_point(|&t| t < cutoff)
}

/// In-memory join state for one partition ID across all input streams.
#[derive(Debug)]
pub struct PartitionGroup {
    pid: PartitionId,
    state: ColumnarState,
    /// Shared across all groups of one operator — creating a group is
    /// an `Arc` bump, not a `Vec` clone.
    join_columns: Arc<[usize]>,
    window: Option<VirtualDuration>,
    bytes: usize,
    output_count: u64,
    decay: DecayState,
    /// Reused per-stream row-materialization buffers for probes feeding
    /// row-wanting sinks (no per-probe allocation once warm).
    scratch: Vec<Vec<Tuple>>,
    /// Reused one-row batch a [`Tuple`] handed to
    /// [`insert`](Self::insert) is encoded into on its way to
    /// [`insert_row`](Self::insert_row).
    row_scratch: TupleBatch,
    /// See [`purge_rows_touched`](Self::purge_rows_touched).
    purge_touched: u64,
}

impl PartitionGroup {
    /// New empty group. `join_columns[s]` is the join-column index of
    /// stream `s`; `window` enables sliding-window semantics.
    pub fn new(
        pid: PartitionId,
        join_columns: impl Into<Arc<[usize]>>,
        window: Option<VirtualDuration>,
    ) -> Self {
        let join_columns = join_columns.into();
        PartitionGroup {
            pid,
            state: ColumnarState::new(join_columns.len()),
            join_columns,
            window,
            bytes: 0,
            output_count: 0,
            decay: DecayState::default(),
            scratch: Vec::new(),
            row_scratch: TupleBatch::new(),
            purge_touched: 0,
        }
    }

    /// Fold the current sampling window into the group's decayed
    /// productivity estimate (used with
    /// [`ProductivityEstimator::Decaying`](crate::state::productivity::ProductivityEstimator)).
    pub fn close_productivity_window(&mut self, alpha: f64) {
        self.decay.close_window(alpha, self.bytes);
    }

    /// The decayed productivity estimate, if any window has closed yet.
    pub fn decayed_productivity(&self) -> Option<f64> {
        self.decay.initialized.then_some(self.decay.ewma)
    }

    /// The group's partition ID.
    pub fn pid(&self) -> PartitionId {
        self.pid
    }

    /// Accounted state bytes (`P_size`).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes the streams' columns and arena pages occupy, used or not:
    /// what [`bytes`](Self::bytes) accounts for, as the allocator sees
    /// it (the join index is in neither figure).
    pub fn reserved_bytes(&self) -> usize {
        let cols = self.state.cols.iter();
        cols.map(ColumnarPartition::reserved_bytes).sum()
    }

    /// Results generated from this group so far (`P_output`).
    pub fn output_count(&self) -> u64 {
        self.output_count
    }

    /// The paper's productivity metric `P_output / P_size`.
    pub fn productivity(&self) -> f64 {
        self.output_count as f64 / self.bytes.max(1) as f64
    }

    /// Total tuples across all streams.
    pub fn tuple_count(&self) -> usize {
        self.state.cols.iter().map(ColumnarPartition::len).sum()
    }

    /// True if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuple_count() == 0
    }

    /// Symmetric-hash-join step: emit all new results formed with
    /// `row` (one per combination of matching tuples in every other
    /// stream), then store and index it. Returns the number of results
    /// emitted and the bytes newly accounted.
    ///
    /// The whole probe product reaches the sink as **one**
    /// [`ResultSink::emit_product`] call over borrowed span lists — no
    /// per-insert allocation (the span array lives on the stack for up
    /// to [`INLINE_STREAMS`] streams) and no per-combination virtual
    /// dispatch for count-only sinks. Only the join key is decoded and
    /// the row's encoded columns are copied into the arena as they are;
    /// a sink answering [`ResultSink::wants_rows`]` == false` is served
    /// [`SpanList::TsOnly`] lists straight off the timestamp columns —
    /// no row is materialized at all.
    pub fn insert_row(
        &mut self,
        row: &RowRef<'_>,
        sink: &mut dyn ResultSink,
    ) -> Result<(u64, usize)> {
        let s = self.stream_slot(row.stream())?;
        let key = row
            .value(self.join_columns[s])
            .ok_or_else(|| DcapeError::state("tuple lacks join column"))?;
        let (state, scratch) = (&mut self.state, &mut self.scratch);
        let emitted = state.probe_insert(s, &key, row, scratch, self.window, sink)?;
        Ok(self.account(emitted, row.heap_size()))
    }

    /// [`insert_row`](Self::insert_row) for a caller holding a
    /// [`Tuple`]: it is encoded into a scratch row and takes the row
    /// path, the one insert implementation.
    pub fn insert(&mut self, tuple: Tuple, sink: &mut dyn ResultSink) -> Result<(u64, usize)> {
        let mut one = std::mem::take(&mut self.row_scratch);
        one.clear();
        one.push(self.pid, tuple);
        let result = self.insert_row(&one.rows().next().expect("just pushed"), sink);
        self.row_scratch = one;
        result
    }

    /// The slot of `stream` in this join, or an error if it has none.
    fn stream_slot(&self, stream: StreamId) -> Result<usize> {
        let s = stream.index();
        if s >= self.join_columns.len() {
            return Err(DcapeError::state(format!(
                "stream {stream} out of range for {}-way join",
                self.join_columns.len()
            )));
        }
        Ok(s)
    }

    /// Book one stored tuple of accounted size `heap_size` and the
    /// `emitted` results it produced; returns what the insert reports.
    fn account(&mut self, emitted: u64, heap_size: usize) -> (u64, usize) {
        let added = heap_size + PER_TUPLE_OVERHEAD;
        self.bytes += added;
        self.output_count += emitted;
        self.decay.window_output += emitted;
        (emitted, added)
    }

    /// Drop every tuple whose window has fully expired at the purge
    /// `horizon` (i.e. it can no longer join with any arrival carrying
    /// `ts >= horizon`) and retire it. Callers pass a watermark-driven
    /// horizon — never ahead of the oldest tuple still in flight — so
    /// expiry is judged against data progress, not the wall clock.
    /// Returns the accounted bytes freed. No-op for unwindowed groups.
    ///
    /// Costs O(streams) when nothing expired and O(expired rows)
    /// amortised when the streams are in time order — a search for the
    /// cut and a sum over the expired rows' accounted sizes; the join
    /// index is not touched.
    pub fn purge_expired(&mut self, horizon: VirtualTime) -> usize {
        let Some(window) = self.window else {
            return 0;
        };
        let cutoff =
            VirtualTime::from_millis(horizon.as_millis().saturating_sub(window.as_millis()));
        let mut freed = 0usize;
        for s in 0..self.join_columns.len() {
            let (bytes, touched) = self.state.purge(s, cutoff);
            freed += bytes;
            self.purge_touched += touched;
        }
        self.bytes -= freed;
        freed
    }

    /// Rows the purge path has visited over this group's lifetime:
    /// expired rows retired, plus live rows moved by a compaction or
    /// scanned by the out-of-order fallback. The purge-cost counter —
    /// in a steady sliding window it grows with the rows that expire,
    /// not with the rows that are live.
    pub fn purge_rows_touched(&self) -> u64 {
        self.purge_touched
    }

    /// Consume the group into a serializable snapshot plus its output
    /// count (relocation carries the count; spill discards it because a
    /// fresh group restarts its productivity history). The columns are
    /// handed over as they are.
    pub fn into_snapshot(self) -> (SpilledGroup, u64) {
        let streams = self.state.into_columns();
        (
            SpilledGroup::from_streams(self.pid, streams),
            self.output_count,
        )
    }

    /// Rebuild a group from a snapshot (relocation receive / tests),
    /// restoring indexes, byte accounting, and the carried output count.
    /// The snapshot's columns are taken in as they are (copied only if a
    /// clone of the snapshot is still alive).
    pub fn from_snapshot(
        snapshot: SpilledGroup,
        join_columns: impl Into<Arc<[usize]>>,
        window: Option<VirtualDuration>,
        output_count: u64,
    ) -> Result<Self> {
        let join_columns = join_columns.into();
        if snapshot.num_streams() != join_columns.len() {
            return Err(DcapeError::state(format!(
                "snapshot has {} streams, join configured for {}",
                snapshot.num_streams(),
                join_columns.len()
            )));
        }
        let pid = snapshot.partition;
        let mut group = PartitionGroup::new(pid, join_columns, window);
        (group.state, group.bytes) =
            ColumnarState::from_columns(pid, snapshot.into_streams(), &group.join_columns)?;
        group.output_count = output_count;
        Ok(group)
    }

    /// Clone the group's content as a snapshot without consuming it
    /// (used by tests and the drift checker).
    pub fn snapshot(&self) -> SpilledGroup {
        let cols = self.state.cols.iter().cloned();
        let streams = cols.map(ColumnarPartition::into_columns).collect();
        SpilledGroup::from_streams(self.pid, streams)
    }

    /// Recompute accounted bytes from scratch (drift detection). Rows
    /// are re-materialized from the arena, so this checks the stored
    /// `acct` column against ground truth too.
    pub fn recompute_bytes(&self) -> usize {
        let cols = self.state.cols.iter().enumerate();
        cols.flat_map(|(s, cp)| {
            cp.live()
                .map(move |i| cp.materialize(StreamId(s as u8), i).heap_size() + PER_TUPLE_OVERHEAD)
        })
        .sum()
    }

    /// Test-only: the ts-sorted flag of stream `s`.
    #[cfg(test)]
    fn ts_sorted_of(&self, s: usize) -> bool {
        self.state.cols[s].ts_sorted
    }

    /// Test-only: a group whose streams' positions start at `base`, as
    /// if that many rows had come and gone.
    #[cfg(test)]
    fn with_base(
        pid: PartitionId,
        join_columns: Vec<usize>,
        window: Option<VirtualDuration>,
        base: u32,
    ) -> Self {
        let mut group = PartitionGroup::new(pid, join_columns, window);
        for cp in &mut group.state.cols {
            cp.base = base;
        }
        group
    }

    /// Test-only: check the state's structural invariants.
    #[cfg(test)]
    fn assert_invariants(&self) {
        self.state.assert_invariants(&self.join_columns);
    }

    /// Test-only: tuple count of stream `s`.
    #[cfg(test)]
    fn stream_len(&self, s: usize) -> usize {
        self.state.cols[s].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, CountingSink};
    use dcape_common::ids::StreamId;
    use dcape_common::time::VirtualTime;
    use dcape_common::tuple::TupleBuilder;

    fn tpl(stream: u8, seq: u64, key: i64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq))
            .value(key)
            .build()
    }

    fn group3() -> PartitionGroup {
        PartitionGroup::new(PartitionId(0), vec![0, 0, 0], None)
    }

    #[test]
    fn three_way_join_produces_cartesian_results() {
        let mut g = group3();
        let mut sink = CollectingSink::new();
        // 2 tuples on stream 0, 2 on stream 1, then 1 on stream 2: the
        // stream-2 insert sees 2x2 combinations.
        g.insert(tpl(0, 0, 7), &mut sink).unwrap();
        g.insert(tpl(0, 1, 7), &mut sink).unwrap();
        g.insert(tpl(1, 0, 7), &mut sink).unwrap();
        g.insert(tpl(1, 1, 7), &mut sink).unwrap();
        assert!(sink.is_empty(), "no stream-2 tuple yet, no results");
        let (n, _) = g.insert(tpl(2, 0, 7), &mut sink).unwrap();
        assert_eq!(n, 4);
        assert_eq!(sink.len(), 4);
        assert_eq!(g.output_count(), 4);
        // Every result has one tuple per stream, in stream order.
        for r in sink.results() {
            assert_eq!(r.len(), 3);
            for (s, t) in r.iter().enumerate() {
                assert_eq!(t.stream().index(), s);
            }
        }
    }

    #[test]
    fn results_match_multiplicity_cube() {
        // f tuples per stream with one shared key => f^3 total results.
        let f = 4u64;
        let mut g = group3();
        let mut sink = CountingSink::new();
        for rep in 0..f {
            for s in 0..3u8 {
                g.insert(tpl(s, rep, 1), &mut sink).unwrap();
            }
        }
        assert_eq!(sink.count(), f * f * f);
        assert_eq!(g.output_count(), f * f * f);
        assert_eq!(g.tuple_count(), (3 * f) as usize);
    }

    #[test]
    fn different_keys_do_not_join() {
        let mut g = group3();
        let mut sink = CountingSink::new();
        g.insert(tpl(0, 0, 1), &mut sink).unwrap();
        g.insert(tpl(1, 0, 2), &mut sink).unwrap();
        g.insert(tpl(2, 0, 3), &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
        assert_eq!(g.productivity(), 0.0);
    }

    #[test]
    fn two_way_join_works() {
        let mut g = PartitionGroup::new(PartitionId(1), vec![0, 0], None);
        let mut sink = CountingSink::new();
        g.insert(tpl(0, 0, 5), &mut sink).unwrap();
        g.insert(tpl(1, 0, 5), &mut sink).unwrap();
        g.insert(tpl(1, 1, 5), &mut sink).unwrap();
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn bytes_accounting_matches_recompute() {
        let mut g = group3();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..10 {
                g.insert(tpl(s, i, (i % 3) as i64), &mut sink).unwrap();
            }
        }
        assert_eq!(g.bytes(), g.recompute_bytes());
        assert!(g.bytes() > 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_state_and_stats() {
        let mut g = group3();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..5 {
                g.insert(tpl(s, i, 1), &mut sink).unwrap();
            }
        }
        let bytes_before = g.bytes();
        let output_before = g.output_count();
        let (snap, carried) = g.into_snapshot();
        assert_eq!(carried, output_before);
        let g2 = PartitionGroup::from_snapshot(snap, vec![0, 0, 0], None, carried).unwrap();
        assert_eq!(g2.bytes(), bytes_before);
        assert_eq!(g2.output_count(), output_before);
        // Restored group continues joining correctly.
        let mut g2 = g2;
        let mut sink2 = CountingSink::new();
        g2.insert(tpl(0, 99, 1), &mut sink2).unwrap();
        // 5 on stream 1 x 5 on stream 2.
        assert_eq!(sink2.count(), 25);
    }

    #[test]
    fn from_snapshot_validates_stream_count() {
        let snap = SpilledGroup::empty(PartitionId(0), 2);
        assert!(PartitionGroup::from_snapshot(snap, vec![0, 0, 0], None, 0).is_err());
    }

    #[test]
    fn from_snapshot_rejects_a_row_without_the_join_column() {
        let mut snap = SpilledGroup::empty(PartitionId(0), 3);
        snap.push(&tpl(1, 0, 1)).unwrap(); // one column; the join wants column 2
        assert!(PartitionGroup::from_snapshot(snap, vec![2, 2, 2], None, 0).is_err());
    }

    #[test]
    fn insert_rejects_out_of_range_stream() {
        let mut g = group3();
        let mut sink = CountingSink::new();
        assert!(g.insert(tpl(7, 0, 1), &mut sink).is_err());
    }

    #[test]
    fn insert_rejects_missing_join_column() {
        let mut g = PartitionGroup::new(PartitionId(0), vec![2, 2, 2], None);
        let mut sink = CountingSink::new();
        // Tuple has only one column; join column 2 is missing.
        assert!(g.insert(tpl(0, 0, 1), &mut sink).is_err());
    }

    #[test]
    fn windowed_counting_matches_collecting_oracle() {
        // Same inserts into two groups: the CountingSink takes the
        // product/window-pruned path, the CollectingSink enumerates.
        // Timestamps arrive in order (the live-stream case).
        let window = Some(VirtualDuration::from_millis(3));
        let mut fast = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut slow = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut count = CountingSink::new();
        let mut collect = CollectingSink::new();
        for i in 0..24u64 {
            let t = tpl((i % 3) as u8, i, 1);
            let (nf, _) = fast.insert(t.clone(), &mut count).unwrap();
            let before = collect.len();
            let (ns, _) = slow.insert(t, &mut collect).unwrap();
            assert_eq!(nf, ns, "per-insert emitted counts diverge at {i}");
            assert_eq!(collect.len() - before, ns as usize);
        }
        assert_eq!(count.count(), collect.len() as u64);
        assert_eq!(fast.output_count(), slow.output_count());
        assert!(count.count() > 0);
    }

    #[test]
    fn out_of_order_arrivals_fall_back_and_stay_exact() {
        // Shuffled timestamps break the ts-sorted promise; the count
        // path must detect it and still match enumeration.
        let window = Some(VirtualDuration::from_millis(4));
        let mut fast = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut slow = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut count = CountingSink::new();
        let mut collect = CollectingSink::new();
        let ts_order = [9u64, 2, 14, 0, 7, 7, 3, 11, 1, 5, 13, 4];
        for (i, &ts) in ts_order.iter().enumerate() {
            let t = TupleBuilder::new(StreamId((i % 3) as u8))
                .seq(i as u64)
                .ts(VirtualTime::from_millis(ts))
                .value(1i64)
                .build();
            let (nf, _) = fast.insert(t.clone(), &mut count).unwrap();
            let (ns, _) = slow.insert(t, &mut collect).unwrap();
            assert_eq!(nf, ns, "per-insert emitted counts diverge at {i}");
        }
        assert_eq!(count.count(), collect.len() as u64);
        assert!(count.count() > 0);
    }

    #[test]
    fn purge_restores_sorted_flag() {
        let window = Some(VirtualDuration::from_millis(5));
        let mut g = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut sink = CountingSink::new();
        // An out-of-order early tuple, then in-order late ones.
        for (seq, ts) in [(0u64, 50u64), (1, 1), (2, 100), (3, 101)] {
            let t = TupleBuilder::new(StreamId(0))
                .seq(seq)
                .ts(VirtualTime::from_millis(ts))
                .value(1i64)
                .build();
            g.insert(t, &mut sink).unwrap();
        }
        assert!(!g.ts_sorted_of(0));
        g.purge_expired(VirtualTime::from_millis(103));
        assert!(g.ts_sorted_of(0), "rebuild recomputes sortedness");
        assert_eq!(g.stream_len(0), 2);
    }

    #[test]
    fn late_arrival_behind_a_retired_prefix_takes_the_fallback() {
        // A prefix drop leaves a retired prefix in place (35 live rows
        // against 5 retired: no compaction yet); a late arrival older
        // than everything live then sends the next purge down the
        // unsorted path, which must start from the retired prefix's
        // end and leave the partition compacted and sorted again.
        let row_of = |ts: u64| {
            TupleBuilder::new(StreamId(0))
                .seq(ts)
                .ts(VirtualTime::from_millis(ts))
                .value(1i64)
                .value(ts as i64) // rows must differ, or a misread arena slice hides
                .build()
        };
        let window = Some(VirtualDuration::from_millis(5));
        let mut g = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut sink = CountingSink::new();
        for ts in 0..40 {
            g.insert(row_of(ts), &mut sink).unwrap();
        }
        let horizon = VirtualTime::from_millis(10);
        assert!(g.purge_expired(horizon) > 0);
        assert_eq!(g.stream_len(0), 35);
        g.insert(row_of(3), &mut sink).unwrap();
        assert!(!g.ts_sorted_of(0));
        let freed = g.purge_expired(horizon);
        assert_eq!(freed, row_of(3).heap_size() + PER_TUPLE_OVERHEAD);
        assert!(g.ts_sorted_of(0));
        assert_eq!(
            g.snapshot().tuples(0),
            (5..40).map(row_of).collect::<Vec<_>>()
        );
        assert_eq!(g.bytes(), g.recompute_bytes());
        g.assert_invariants();
    }

    #[test]
    fn productivity_reflects_output_per_byte() {
        let mut hot = group3();
        let mut cold = group3();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..6 {
                hot.insert(tpl(s, i, 1), &mut sink).unwrap(); // all same key
                cold.insert(tpl(s, i, i as i64 * 3 + s as i64), &mut sink)
                    .unwrap(); // no joins
            }
        }
        assert!(hot.productivity() > cold.productivity());
        assert_eq!(cold.output_count(), 0);
    }
    /// Steady-state sliding run over several groups: `N` live rows,
    /// `k` expiring per pulse, `P` pulses. The rows purge visits must
    /// follow the rows that expire (plus the amortised compactions),
    /// not the rows that are live.
    #[test]
    fn purge_cost_follows_expired_rows_not_live_rows() {
        const GROUPS: u64 = 8;
        const PER_STREAM: u64 = 200; // live rows per stream partition
        const PULSES: u64 = 400;
        let window = Some(VirtualDuration::from_millis(PER_STREAM - 1));
        let mut groups: Vec<PartitionGroup> = (0..GROUPS)
            .map(|g| PartitionGroup::new(PartitionId(g as u32), vec![0, 0, 0], window))
            .collect();
        let mut sink = CountingSink::new();
        // One tick = one row into every stream of every group.
        let mut tick = |groups: &mut [PartitionGroup], now: u64| {
            for (g, group) in groups.iter_mut().enumerate() {
                for s in 0..3u8 {
                    let t = TupleBuilder::new(StreamId(s))
                        .seq(now)
                        .ts(VirtualTime::from_millis(now))
                        .value((now % 50 + g as u64) as i64)
                        .build();
                    group.insert(t, &mut sink).unwrap();
                }
            }
        };
        for now in 0..PER_STREAM {
            tick(&mut groups, now);
        }
        let live: u64 = groups.iter().map(|g| g.tuple_count() as u64).sum();
        assert_eq!(live, GROUPS * 3 * PER_STREAM);
        for pulse in 0..PULSES {
            let now = PER_STREAM + pulse;
            tick(&mut groups, now);
            for g in &mut groups {
                assert!(g.purge_expired(VirtualTime::from_millis(now)) > 0);
            }
        }
        let expired_per_pulse = GROUPS * 3;
        let touched: u64 = groups.iter().map(PartitionGroup::purge_rows_touched).sum();
        let live_after: u64 = groups.iter().map(|g| g.tuple_count() as u64).sum();
        assert_eq!(live_after, live, "the window is in steady state");
        assert!(
            touched >= expired_per_pulse * PULSES,
            "every expiry is counted"
        );
        // 1 visit per expired row + < COMPACT_LIVE_PER_DEAD per row for
        // the compaction that later reclaims it.
        let bound = (1 + COMPACT_LIVE_PER_DEAD as u64) * expired_per_pulse * PULSES;
        assert!(
            touched <= bound,
            "purge visited {touched} rows for {} expiries (bound {bound}); a full scan visits {}",
            expired_per_pulse * PULSES,
            live * PULSES
        );
        for g in &groups {
            g.assert_invariants();
            assert_eq!(g.bytes(), g.recompute_bytes());
        }
    }

    /// Every index entry's key and lists, as plain vectors.
    fn index_contents(g: &PartitionGroup) -> std::collections::HashMap<Value, Vec<Vec<u32>>> {
        let entries = g.state.index.entries();
        entries
            .map(|(key, lists)| {
                (
                    key.clone(),
                    lists.iter().map(|l| l.as_slice().to_vec()).collect(),
                )
            })
            .collect()
    }

    /// A pulse retires rows by raising the streams' floors: until a
    /// compaction it reads and writes nothing of the join index.
    #[test]
    fn a_pulse_that_does_not_compact_leaves_the_index_as_it_was() {
        let window = Some(VirtualDuration::from_millis(99));
        let mut g = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut sink = CountingSink::new();
        for now in 0..100 {
            for s in 0..3u8 {
                g.insert(tpl(s, now, (now % 7) as i64), &mut sink).unwrap();
            }
        }
        let (before, slots) = (index_contents(&g), g.state.index.slot_count());
        // Cutoff 11: 11 rows of each stream expire, 89 stay — too few
        // retired rows to compact.
        let freed = g.purge_expired(VirtualTime::from_millis(110));
        assert_eq!(
            freed,
            3 * 11 * (tpl(0, 0, 0).heap_size() + PER_TUPLE_OVERHEAD)
        );
        for cp in &g.state.cols {
            assert_eq!(
                (cp.base, cp.head, cp.len()),
                (0, 11, 89),
                "retired, not compacted"
            );
        }
        assert_eq!(index_contents(&g), before);
        assert_eq!(g.state.index.slot_count(), slots);
        g.assert_invariants();
        // The next insert of a key trims that key's entry only.
        g.insert(tpl(0, 100, 2), &mut sink).unwrap();
        let after = index_contents(&g);
        let trimmed = Value::Int(2);
        assert!(after[&trimmed].iter().all(|l| l.iter().all(|&p| p >= 11)));
        assert!(after
            .iter()
            .filter(|(key, _)| **key != trimmed)
            .all(|(key, lists)| *lists == before[key]));
        g.assert_invariants();
    }

    /// A window sliding over keys that never repeat leaves an entry
    /// behind for every key it passes; the index's growth sweeps them
    /// out and sizes the table by what is left, so its slot count
    /// follows the live keys, not the keys that went by.
    #[test]
    fn an_index_over_keys_that_never_repeat_stays_sized_by_the_live_keys() {
        const LIVE: u64 = 64; // live keys (= ticks) in the window
        let window = Some(VirtualDuration::from_millis(LIVE - 1));
        let mut g = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut sink = CountingSink::new();
        for now in 0..60 * LIVE {
            for s in 0..3u8 {
                g.insert(tpl(s, now, now as i64), &mut sink).unwrap();
            }
            g.purge_expired(VirtualTime::from_millis(now));
            let slots = g.state.index.slot_count();
            assert!(
                slots <= 8 * LIVE as usize,
                "{slots} slots at tick {now} for {LIVE} live keys"
            );
        }
        assert_eq!(sink.count(), 60 * LIVE, "each tick's rows join once");
        assert_eq!(g.tuple_count(), 3 * LIVE as usize);
        g.assert_invariants();
    }

    /// A window sliding over ~50 times what it holds: the pages the
    /// expired rows filled are freed as compaction passes them, so what
    /// the group occupies follows what is live, not what has gone by.
    #[test]
    fn a_sliding_windows_arena_pages_are_freed_behind_it() {
        const LIVE: u64 = 400; // rows per stream partition, ~3 pages' worth
        let row_of = |s: u8, now: u64| {
            TupleBuilder::new(StreamId(s))
                .seq(now)
                .ts(VirtualTime::from_millis(now))
                .value((now % 50) as i64)
                .value("sixteen bytes...")
                .build()
        };
        let window = Some(VirtualDuration::from_millis(LIVE - 1));
        let mut g = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], window);
        let mut sink = CountingSink::new();
        let mut most = 0;
        for now in 0..50 * LIVE {
            for s in 0..3u8 {
                g.insert(row_of(s, now), &mut sink).unwrap();
            }
            g.purge_expired(VirtualTime::from_millis(now));
            if now == LIVE {
                most = g.reserved_bytes();
            }
            // The retired quarter, a page of slack, columns that doubled.
            assert!(
                g.reserved_bytes() <= 2 * most || now < LIVE,
                "{} bytes reserved at {now}, {most} when the window first filled",
                g.reserved_bytes()
            );
        }
        assert_eq!(g.tuple_count(), 3 * LIVE as usize);
        g.assert_invariants();
    }

    mod purge_model {
        //! Random interleavings of in-order and late inserts, purges at
        //! arbitrary horizons and snapshot round trips, checked after
        //! every step against a naive `Vec<Tuple>` filter model, for 2-,
        //! 3- and 5-way joins and for integer and text keys.

        use super::*;
        use proptest::prelude::*;

        const WINDOW_MS: u64 = 120;
        /// Most streams the properties join; ops draw a stream below it
        /// and the run folds that into its own stream count.
        const MAX_STREAMS: u8 = 5;

        /// Stream 1 keeps its key in column 1 so key recovery has to
        /// decode past a payload column.
        fn join_column(stream: usize) -> usize {
            usize::from(stream == 1)
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// Arrival at `newest + offset` ms: in order when `offset`
            /// is not negative, late (out of order) when it is.
            Insert { stream: u8, key: i64, offset: i64 },
            /// Purge with the cutoff at `newest - 2·W + offset` — from
            /// "nothing expires" through "everything expires" — or,
            /// with `None`, again at the previous horizon.
            Purge { offset: Option<u64> },
            /// `snapshot` → `from_snapshot`.
            RoundTrip,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            const W: u64 = WINDOW_MS;
            let insert = |offsets: std::ops::Range<i64>| {
                (0..MAX_STREAMS, 0i64..4, offsets).prop_map(|(stream, key, offset)| Op::Insert {
                    stream,
                    key,
                    offset,
                })
            };
            let purge =
                |offsets: std::ops::Range<u64>| offsets.prop_map(|o| Op::Purge { offset: Some(o) });
            // Arms are unweighted: in-order arrivals and sliding purges
            // are listed more than once so that windows fill, slide
            // and compact several times per case.
            prop_oneof![
                insert(0..4),
                insert(0..4),
                insert(0..4),
                insert(0..4),
                insert(0..4),
                insert(-2 * W as i64..0),
                purge(0..3 * W + 2),
                purge(2 * W - 4..2 * W + 1),
                purge(2 * W - 4..2 * W + 1),
                (0u64..1).prop_map(|_| Op::Purge { offset: None }),
                (0u64..1).prop_map(|_| Op::RoundTrip),
            ]
        }

        /// The reference: live tuples per stream in arrival order, and
        /// the sortedness flag as the state defines it.
        struct Model {
            live: Vec<Vec<Tuple>>,
            sorted: Vec<bool>,
        }

        impl Model {
            fn key(t: &Tuple) -> &Value {
                t.get(join_column(t.stream().index()))
                    .expect("built with it")
            }

            /// Same-key combinations of `t` with one live tuple of each
            /// other stream whose timestamps all fit the window.
            fn matches(&self, t: &Tuple) -> u64 {
                /// Combinations over `sides` that keep `lo..=hi` within
                /// the window.
                fn count(sides: &[Vec<u64>], lo: u64, hi: u64) -> u64 {
                    if hi - lo > WINDOW_MS {
                        return 0;
                    }
                    match sides.split_first() {
                        None => 1,
                        Some((side, rest)) => side
                            .iter()
                            .map(|&ts| count(rest, lo.min(ts), hi.max(ts)))
                            .sum(),
                    }
                }
                let sides: Vec<Vec<u64>> = (0..self.live.len())
                    .filter(|&s| s != t.stream().index())
                    .map(|s| {
                        let same_key = self.live[s].iter().filter(|u| Self::key(u) == Self::key(t));
                        same_key.map(|u| u.ts().as_millis()).collect()
                    })
                    .collect();
                count(&sides, t.ts().as_millis(), t.ts().as_millis())
            }

            fn insert(&mut self, t: Tuple) {
                let s = t.stream().index();
                if let Some(last) = self.live[s].last() {
                    self.sorted[s] &= t.ts() >= last.ts();
                }
                self.live[s].push(t);
            }

            /// Filter out `ts < cutoff`; a stream that lost a row has
            /// its flag recomputed over the survivors.
            fn purge(&mut self, cutoff: VirtualTime) -> usize {
                let mut freed = 0;
                for (live, sorted) in self.live.iter_mut().zip(&mut self.sorted) {
                    let before = live.len();
                    live.retain(|t| {
                        let keep = t.ts() >= cutoff;
                        if !keep {
                            freed += t.heap_size() + PER_TUPLE_OVERHEAD;
                        }
                        keep
                    });
                    if live.len() < before {
                        *sorted = Self::in_order(live);
                    }
                }
                freed
            }

            fn in_order(live: &[Tuple]) -> bool {
                live.windows(2).all(|w| w[0].ts() <= w[1].ts())
            }

            fn bytes(&self) -> usize {
                self.live
                    .iter()
                    .flatten()
                    .map(|t| t.heap_size() + PER_TUPLE_OVERHEAD)
                    .sum()
            }
        }

        fn tuple(stream: u8, seq: u64, ts: u64, key: Value) -> Tuple {
            let payload = &"payload"[..(seq % 7) as usize];
            let b = TupleBuilder::new(StreamId(stream))
                .seq(seq)
                .ts(VirtualTime::from_millis(ts));
            // The trailing column makes every row's arena slice unique.
            if join_column(stream as usize) == 0 {
                b.value(key).value(payload).value(seq as i64).build()
            } else {
                b.value(payload).value(key).value(seq as i64).build()
            }
        }

        /// Drive an `m`-way join and the model through `ops`.
        fn run(m: usize, text_keys: bool, ops: Vec<Op>) -> Result<(), TestCaseError> {
            run_from(0, m, text_keys, ops)
        }

        /// [`run`] on a group whose positions start at `base`.
        fn run_from(
            base: u32,
            m: usize,
            text_keys: bool,
            ops: Vec<Op>,
        ) -> Result<(), TestCaseError> {
            let window = Some(VirtualDuration::from_millis(WINDOW_MS));
            let join_columns: Vec<usize> = (0..m).map(join_column).collect();
            let mut model = Model {
                live: vec![Vec::new(); m],
                sorted: vec![true; m],
            };
            let mut g =
                PartitionGroup::with_base(PartitionId(5), join_columns.clone(), window, base);
            let mut sink = CountingSink::new();
            let (mut newest, mut last_horizon) = (0u64, 0u64);
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Insert {
                        stream,
                        key,
                        offset,
                    } => {
                        let ts = newest.saturating_add_signed(offset);
                        newest = newest.max(ts);
                        let key = if text_keys {
                            Value::text(format!("key-{key}"))
                        } else {
                            Value::Int(key)
                        };
                        let t = tuple(stream % m as u8, seq as u64, ts, key);
                        let expected = model.matches(&t);
                        let (emitted, _) = g.insert(t.clone(), &mut sink).unwrap();
                        prop_assert_eq!(emitted, expected, "probe count at step {}", seq);
                        model.insert(t);
                    }
                    Op::Purge { offset } => {
                        if let Some(offset) = offset {
                            last_horizon = (newest + offset).saturating_sub(WINDOW_MS);
                        }
                        let horizon = VirtualTime::from_millis(last_horizon);
                        let cutoff =
                            VirtualTime::from_millis(last_horizon.saturating_sub(WINDOW_MS));
                        let expected = model.purge(cutoff);
                        prop_assert_eq!(g.purge_expired(horizon), expected);
                    }
                    Op::RoundTrip => {
                        g = PartitionGroup::from_snapshot(
                            g.snapshot(),
                            join_columns.clone(),
                            window,
                            g.output_count(),
                        )
                        .unwrap();
                        for (live, sorted) in model.live.iter().zip(&mut model.sorted) {
                            *sorted = Model::in_order(live);
                        }
                    }
                }
                g.assert_invariants();
                let snapshot = g.snapshot();
                for (s, live) in model.live.iter().enumerate() {
                    prop_assert_eq!(&snapshot.tuples(s), live);
                }
                prop_assert_eq!(g.bytes(), model.bytes());
                prop_assert_eq!(g.bytes(), g.recompute_bytes());
                for s in 0..m {
                    prop_assert_eq!(g.ts_sorted_of(s), model.sorted[s]);
                }
            }
            Ok(())
        }

        /// A window slides across the end of the `u32` position space:
        /// every stream starts 300 positions short of it and takes in
        /// ~630 rows in time order (a late row would send the stream
        /// down the unsorted path, which re-numbers it from 0) under
        /// pulses that retire and compact. The stream is rebased on the
        /// way; counts, freed bytes and the invariants hold against the
        /// model throughout.
        #[test]
        fn a_window_slides_across_the_end_of_the_position_space() {
            let ops = (0..2100u32).map(|i| match i % 10 {
                9 => Op::Purge {
                    offset: Some(2 * WINDOW_MS - 60),
                },
                _ => Op::Insert {
                    stream: (i % 3) as u8,
                    key: (i / 3 % 4) as i64,
                    offset: i64::from(i % 2),
                },
            });
            run_from(u32::MAX - 300, 3, false, ops.collect()).unwrap();
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: dcape_common::testing::proptest_cases(64),
                ..ProptestConfig::default()
            })]

            #[test]
            fn purge_matches_naive_filter_model(
                ops in proptest::collection::vec(op_strategy(), 50..600)
            ) {
                run(3, false, ops)?;
            }

            #[test]
            fn purge_matches_model_with_text_keys(
                ops in proptest::collection::vec(op_strategy(), 50..400)
            ) {
                run(3, true, ops)?;
            }

            #[test]
            fn purge_matches_model_two_way(
                ops in proptest::collection::vec(op_strategy(), 50..400)
            ) {
                run(2, false, ops)?;
            }

            #[test]
            fn purge_matches_model_five_way(
                ops in proptest::collection::vec(op_strategy(), 50..400)
            ) {
                run(5, true, ops)?;
            }
        }
    }

    mod reference_model {
        //! Random in-order and late inserts, purges at horizons no later
        //! arrival precedes, and snapshot round trips, fed alike to one
        //! group whose sink enumerates and one whose sink counts: what
        //! they deliver is the [`ReferenceJoin`] of the input — its
        //! identity multiset and its count.

        use super::*;
        use dcape_common::testing::ReferenceJoin;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Arrival `ahead` ms past the newest timestamp, then `late`
            /// ms back from there — never behind the last purge horizon.
            Insert {
                stream: u8,
                key: i64,
                ahead: u64,
                late: u64,
            },
            /// Purge at the horizon `back` ms before the newest
            /// timestamp — never behind the last one.
            Purge { back: u64 },
            /// `snapshot` → `from_snapshot`, output count carried.
            RoundTrip,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            let insert = |late: std::ops::Range<u64>| {
                (0u8..4, 0i64..3, 0u64..4, late).prop_map(|(stream, key, ahead, late)| Op::Insert {
                    stream,
                    key,
                    ahead,
                    late,
                })
            };
            // Arms are unweighted: in-order arrivals are listed more
            // than once so that windows fill between purges.
            prop_oneof![
                insert(0..1),
                insert(0..1),
                insert(0..1),
                insert(0..1),
                insert(1..30),
                (0u64..40).prop_map(|back| Op::Purge { back }),
                (0u64..1).prop_map(|_| Op::RoundTrip),
            ]
        }

        fn run(m: usize, window_ms: Option<u64>, ops: Vec<Op>) -> Result<(), TestCaseError> {
            let window = window_ms.map(VirtualDuration::from_millis);
            let join_columns = vec![0; m];
            let group = || PartitionGroup::new(PartitionId(5), join_columns.clone(), window);
            let (mut enumerating, mut counting) = (group(), group());
            let (mut collect, mut count) = (CollectingSink::new(), CountingSink::new());
            let mut reference = ReferenceJoin::new(&join_columns, window);
            // `floor`: the last purge horizon, which no arrival precedes.
            let (mut newest, mut floor) = (0u64, 0u64);
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Insert {
                        stream,
                        key,
                        ahead,
                        late,
                    } => {
                        let ts = (newest + ahead).saturating_sub(late).max(floor);
                        newest = newest.max(ts);
                        let t = TupleBuilder::new(StreamId(stream % m as u8))
                            .seq(seq as u64)
                            .ts(VirtualTime::from_millis(ts))
                            .value(key)
                            .value(&"payload"[..seq % 7])
                            .build();
                        reference.push(&t);
                        let (enumerated, _) = enumerating.insert(t.clone(), &mut collect).unwrap();
                        let (counted, _) = counting.insert(t, &mut count).unwrap();
                        prop_assert_eq!(enumerated, counted, "emitted at step {}", seq);
                    }
                    Op::Purge { back } => {
                        floor = newest.saturating_sub(back).max(floor);
                        let horizon = VirtualTime::from_millis(floor);
                        let freed = enumerating.purge_expired(horizon);
                        prop_assert_eq!(counting.purge_expired(horizon), freed);
                    }
                    Op::RoundTrip => {
                        for g in [&mut enumerating, &mut counting] {
                            *g = PartitionGroup::from_snapshot(
                                g.snapshot(),
                                join_columns.clone(),
                                window,
                                g.output_count(),
                            )
                            .unwrap();
                        }
                    }
                }
            }
            prop_assert_eq!(collect.identities(), reference.identities());
            prop_assert_eq!(count.count(), reference.count());
            prop_assert_eq!(counting.output_count(), reference.count());
            prop_assert_eq!(enumerating.snapshot(), counting.snapshot());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: dcape_common::testing::proptest_cases(64),
                ..ProptestConfig::default()
            })]

            #[test]
            fn windowed_three_way_equals_the_reference_join(
                ops in proptest::collection::vec(op_strategy(), 50..400)
            ) {
                run(3, Some(12), ops)?;
            }

            #[test]
            fn zero_width_window_two_way_equals_the_reference_join(
                ops in proptest::collection::vec(op_strategy(), 50..400)
            ) {
                run(2, Some(0), ops)?;
            }

            #[test]
            fn unwindowed_four_way_equals_the_reference_join(
                ops in proptest::collection::vec(op_strategy(), 20..120)
            ) {
                run(4, None, ops)?;
            }
        }
    }
}
