//! The cleanup phase: producing exactly the missing results.
//!
//! §3 of the paper: after the run-time phase, disk-resident partition
//! groups are (1) organized by partition ID, (2) merged, generating
//! missing results, and (3) merged with the memory-resident group of the
//! same ID, "applying incremental view maintenance algorithms".
//!
//! ## Why only cross-segment combinations are missing
//!
//! The engine spills **whole partition groups** (all inputs together).
//! While a group was memory-resident, the symmetric join produced every
//! result among its co-resident tuples. Segments of one partition ID are
//! therefore disjoint time slices `S₁, S₂, …, S_k` (plus the final
//! memory-resident slice): within-slice results already exist, and a
//! result mixing slices was never produced because its constituents were
//! never co-resident. The missing set is exactly the IVM expansion of
//! `(C₁+S)⋈…⋈(C_m+S)` minus `C⋈…⋈C` minus `S⋈…⋈S`: all per-stream
//! choice vectors over {cumulative, new-segment} except the two pure
//! ones. No timestamps are needed — the paper's argument for the
//! partition-group granularity (§2).

use dcape_common::codec::body_value;
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::fx_hash;
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;
use dcape_storage::{SpilledGroup, StreamColumns};

use crate::probe::{ProbeSpans, SpanList, INLINE_STREAMS};
use crate::sink::ResultSink;
use crate::state::join_index::JoinIndex;

/// Statistics of one partition's cleanup merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanupOutcome {
    /// Missing results produced.
    pub missing_results: u64,
    /// Tuples scanned while building merge indexes (cost-model input).
    pub scanned_tuples: u64,
    /// Segments merged (including the memory-resident one, if present).
    pub segments_merged: usize,
    /// Rows rebuilt as tuples for a sink that enumerates; a count-only
    /// sink leaves this at zero.
    pub rows_materialized: u64,
}

/// One side — cumulative or fresh — of one stream's candidates for one
/// join key: the key's positions in the stream's timestamp column.
#[derive(Clone, Copy)]
struct Side<'a> {
    ts: &'a [VirtualTime],
    ts_sorted: bool,
    positions: &'a [u32],
}

/// Deliver the cross-slice products of one join key: every per-stream
/// choice between the key's cumulative (`sides[s][0]`) and fresh
/// (`sides[s][1]`) candidates except the two pure ones, each as **one**
/// [`ResultSink::emit_product`] call that a count-only sink resolves
/// without enumerating. The span lists are timestamp-only views of the
/// merged columns unless the caller rebuilt the candidates' `rows` for
/// a sink that wants them.
fn emit_key(
    sides: &[[Side<'_>; 2]],
    rows: Option<&[[Vec<Tuple>; 2]]>,
    window: Option<VirtualDuration>,
    sink: &mut dyn ResultSink,
) -> u64 {
    let m = sides.len();
    let mut inline = [SpanList::Slice(&[]); INLINE_STREAMS];
    let mut spilled = Vec::new();
    let spans = if m <= INLINE_STREAMS {
        &mut inline[..m]
    } else {
        spilled.resize(m, SpanList::Slice(&[]));
        &mut spilled[..]
    };
    let mut emitted = 0;
    // Bit `s` of `mask` set: stream `s` takes the fresh side. All-zero
    // (cumulative only) and all-one (fresh only) were produced at run
    // time.
    let full: u32 = (1 << m) - 1;
    'masks: for mask in 1..full {
        let mut ts_sorted = true;
        for (s, span) in spans.iter_mut().enumerate() {
            let pick = (mask >> s & 1) as usize;
            let side = sides[s][pick];
            if side.positions.is_empty() {
                continue 'masks;
            }
            // Positions ascend, so a list is in time order whenever its
            // part of the column is.
            ts_sorted &= side.ts_sorted;
            *span = match rows {
                Some(rows) => SpanList::Slice(&rows[s][pick]),
                None => SpanList::TsOnly {
                    ts: side.ts,
                    base: 0,
                    positions: side.positions,
                },
            };
        }
        emitted += sink.emit_product(&ProbeSpans::new(spans, window, ts_sorted));
    }
    emitted
}

/// The cleanup merge of **one partition ID**, one segment at a time.
///
/// [`push`](Self::push) takes the partition's slices in spill order —
/// the memory-resident group, if any, last — and emits exactly the
/// missing (cross-slice) join results; duplicates are impossible by
/// construction, see the module docs. A caller that reads each segment
/// just before pushing it never holds more than one decoded.
///
/// A slice's columns are taken in as they are and nothing is copied to
/// grow the merge. What a product reads is kept joined up across the
/// slices: per stream one timestamp column, and one `JoinIndex` from
/// join key to positions in it — the run-time state's own index. The
/// newest slice's rows sit at the end of each column, so one entry's
/// lists split into the cumulative candidates and the fresh ones, and a
/// count-only sink is served [`SpanList::TsOnly`] views of them: no row
/// is rebuilt, and the slice's rows are let go as soon as it is indexed.
pub struct SegmentMerger<'j> {
    join_columns: &'j [usize],
    window: Option<VirtualDuration>,
    /// Hold on to every slice's rows: for [`into_group`](Self::into_group),
    /// or because the sink of the first push wanted rows.
    keep_rows: bool,
    outcome: CleanupOutcome,
    pid: Option<PartitionId>,
    /// `slices[k][s]`: stream `s`'s rows of the `k`-th slice kept.
    slices: Vec<Vec<StreamColumns>>,
    /// `starts[s][k]`: the position in `ts[s]` of the `k`-th slice's
    /// first row.
    starts: Vec<Vec<u32>>,
    ts: Vec<Vec<VirtualTime>>,
    /// Is `ts[s]` in time order before the newest slice's rows…
    old_sorted: Vec<bool>,
    /// … and within them?
    new_sorted: Vec<bool>,
    index: JoinIndex,
    /// The newest slice's keys, each once, in first-occurrence order.
    fresh_keys: Vec<(u64, Value)>,
    /// Reused buffers for the rows of one key, per stream and side.
    rows: Vec<[Vec<Tuple>; 2]>,
}

impl<'j> SegmentMerger<'j> {
    /// A merge for a join on `join_columns` under `window`. With
    /// `keep_rows` the merged rows can be taken out as one group at the
    /// end; without, a slice's rows are dropped once nothing reads them.
    pub fn new(
        join_columns: &'j [usize],
        window: Option<VirtualDuration>,
        keep_rows: bool,
    ) -> Self {
        let m = join_columns.len();
        SegmentMerger {
            join_columns,
            window,
            keep_rows,
            outcome: CleanupOutcome::default(),
            pid: None,
            slices: Vec::new(),
            starts: vec![Vec::new(); m],
            ts: vec![Vec::new(); m],
            old_sorted: vec![true; m],
            new_sorted: vec![true; m],
            index: JoinIndex::new(m),
            fresh_keys: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// What the merge has done so far.
    pub fn outcome(&self) -> CleanupOutcome {
        self.outcome
    }

    /// Merge the next slice: index its rows behind those merged so far
    /// and emit the results that mix it with them into `sink`.
    pub fn push(&mut self, segment: SpilledGroup, sink: &mut dyn ResultSink) -> Result<()> {
        let m = self.join_columns.len();
        if segment.num_streams() != m {
            return Err(DcapeError::state(format!(
                "segment for {} has {} streams, join configured for {m}",
                segment.partition,
                segment.num_streams(),
            )));
        }
        self.outcome.scanned_tuples += segment.tuple_count() as u64;
        self.outcome.segments_merged += 1;
        if self.pid.is_none() {
            self.pid = Some(segment.partition);
            self.keep_rows |= sink.wants_rows();
        } else if sink.wants_rows() && !self.keep_rows {
            return Err(DcapeError::state(
                "sink wants rows of slices merged for one that did not",
            ));
        }
        let slice = segment.into_streams();
        self.index_rows(&slice)?;
        if self.keep_rows {
            self.slices.push(slice);
        }
        if self.outcome.segments_merged > 1 {
            self.emit_cross(sink);
        }
        Ok(())
    }

    /// Where the newest slice's rows of stream `s` start in `ts[s]`.
    fn fresh_start(&self, s: usize) -> u32 {
        self.starts[s].last().copied().unwrap_or(0)
    }

    /// Append `slice`'s timestamps and index its rows by join key — one
    /// lookup per row, each key read in place in the arena.
    fn index_rows(&mut self, slice: &[StreamColumns]) -> Result<()> {
        for (s, cols) in slice.iter().enumerate() {
            let before = self.fresh_start(s) as usize;
            let ts = &mut self.ts[s];
            if ts.len() + cols.len() > u32::MAX as usize {
                return Err(DcapeError::state("merged segments exceed 2^32 rows"));
            }
            // What was the newest slice joins the older ones.
            let joined = before == 0 || before == ts.len() || ts[before - 1] <= ts[before];
            self.old_sorted[s] &= self.new_sorted[s] && joined;
            self.new_sorted[s] = cols.ts().windows(2).all(|w| w[0] <= w[1]);
            self.starts[s].push(ts.len() as u32);
            ts.extend_from_slice(cols.ts());
        }
        self.fresh_keys.clear();
        for (s, cols) in slice.iter().enumerate() {
            let start = self.fresh_start(s);
            for i in 0..cols.len() {
                let key = body_value(cols.row(i), self.join_columns[s])?
                    .ok_or_else(|| DcapeError::state("cleanup tuple lacks join column"))?;
                let hash = fx_hash(&key);
                let slot = self.index.find_or_insert(hash, &key, |_| 0);
                // Positions ascend: a key this slice has already met
                // ends one of its lists in this slice.
                let mut lists = self.index.lists(slot).iter().enumerate();
                let met = lists.any(|(s, list)| {
                    (list.as_slice().last()).is_some_and(|&p| p >= self.fresh_start(s))
                });
                self.index.list_mut(slot, s).push(start + i as u32);
                if !met {
                    self.fresh_keys.push((hash, key));
                }
            }
        }
        Ok(())
    }

    /// Rebuild the row at position `p` of stream `s`.
    fn materialize(&self, s: usize, p: u32) -> Tuple {
        let k = self.starts[s].partition_point(|&start| start <= p) - 1;
        self.slices[k][s].tuple(StreamId(s as u8), (p - self.starts[s][k]) as usize)
    }

    /// Emit the products that mix the newest slice with the older ones.
    fn emit_cross(&mut self, sink: &mut dyn ResultSink) {
        let m = self.ts.len();
        let wants_rows = sink.wants_rows();
        let mut rows = std::mem::take(&mut self.rows);
        rows.resize_with(m, Default::default);
        let mut sides = Vec::with_capacity(m);
        let (mut missing, mut materialized) = (0, 0);
        for (hash, key) in &self.fresh_keys {
            let slot = self.index.find(*hash, key).expect("indexed above");
            sides.clear();
            for (s, list) in self.index.lists(slot).iter().enumerate() {
                let list = list.as_slice();
                let start = self.fresh_start(s);
                let (held, new) = list.split_at(list.partition_point(|&p| p < start));
                let side = |positions, ts_sorted| Side {
                    ts: &self.ts[s],
                    ts_sorted,
                    positions,
                };
                sides.push([
                    side(held, self.old_sorted[s]),
                    side(new, self.new_sorted[s]),
                ]);
            }
            // Every mixed choice vector takes the cumulative side for
            // some stream.
            if sides.iter().all(|[held, _]| held.positions.is_empty()) {
                continue;
            }
            if wants_rows {
                for (s, (sides, rows)) in sides.iter().zip(&mut rows).enumerate() {
                    for (side, rows) in sides.iter().zip(rows) {
                        rows.clear();
                        rows.extend(side.positions.iter().map(|&p| self.materialize(s, p)));
                        materialized += rows.len() as u64;
                    }
                }
            }
            missing += emit_key(&sides, wants_rows.then_some(&rows), self.window, sink);
        }
        self.rows = rows;
        self.outcome.missing_results += missing;
        self.outcome.rows_materialized += materialized;
    }

    /// All the rows merged, as one group: stream by stream in slice
    /// order (`None` if nothing was pushed). Only for a merge built with
    /// `keep_rows`.
    pub fn into_group(self) -> Result<Option<SpilledGroup>> {
        assert!(self.keep_rows, "the merge was not told to keep its rows");
        let Some(pid) = self.pid else {
            return Ok(None);
        };
        let mut streams = vec![StreamColumns::default(); self.ts.len()];
        for slice in self.slices {
            for (all, cols) in streams.iter_mut().zip(slice) {
                all.append(cols)?;
            }
        }
        Ok(Some(SpilledGroup::from_streams(pid, streams)))
    }
}

/// Merge the time-ordered segments of **one partition ID**, emitting
/// exactly the missing (cross-segment) join results into `sink`.
///
/// `segments` must be in spill order; the caller appends the final
/// memory-resident group (if any) as the last element.
pub fn merge_segments(
    join_columns: &[usize],
    segments: Vec<SpilledGroup>,
    sink: &mut dyn ResultSink,
) -> Result<CleanupOutcome> {
    merge_segments_windowed(join_columns, None, segments, sink)
}

/// [`merge_segments`] with an optional sliding window: cross-slice
/// combinations whose timestamps span more than the window are not
/// results of the windowed query and are skipped.
pub fn merge_segments_windowed(
    join_columns: &[usize],
    window: Option<VirtualDuration>,
    segments: Vec<SpilledGroup>,
    sink: &mut dyn ResultSink,
) -> Result<CleanupOutcome> {
    let mut merger = SegmentMerger::new(join_columns, window, false);
    for segment in segments {
        merger.push(segment, sink)?;
    }
    Ok(merger.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectingSink;
    use dcape_common::ids::{PartitionId, StreamId};
    use dcape_common::tuple::TupleBuilder;

    fn tpl(stream: u8, seq: u64, key: i64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .value(key)
            .build()
    }

    fn seg(tuples: Vec<Tuple>) -> SpilledGroup {
        let mut g = SpilledGroup::empty(PartitionId(0), 3);
        for t in tuples {
            g.push(&t).unwrap();
        }
        g
    }

    /// Brute-force reference join over a set of slices: all (a,b,c)
    /// combinations with equal keys.
    fn reference_join(slices: &[&SpilledGroup]) -> Vec<Vec<(u8, u64)>> {
        let mut all: Vec<Vec<Tuple>> = vec![Vec::new(); 3];
        for g in slices {
            for (s, ts) in all.iter_mut().enumerate() {
                ts.extend(g.tuples(s));
            }
        }
        let mut out = Vec::new();
        for a in &all[0] {
            for b in &all[1] {
                for c in &all[2] {
                    if a.get(0) == b.get(0) && b.get(0) == c.get(0) {
                        out.push(vec![
                            (a.stream().0, a.seq()),
                            (b.stream().0, b.seq()),
                            (c.stream().0, c.seq()),
                        ]);
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Within-slice results (already produced at run time).
    fn within_slice_results(slices: &[&SpilledGroup]) -> Vec<Vec<(u8, u64)>> {
        let mut out = Vec::new();
        for g in slices {
            out.extend(reference_join(&[g]));
        }
        out.sort();
        out
    }

    #[test]
    fn two_segments_cross_results_only() {
        // Segment 1: one matching triple (keys 1).
        let s1 = seg(vec![tpl(0, 0, 1), tpl(1, 0, 1), tpl(2, 0, 1)]);
        // Segment 2: another triple with the same key.
        let s2 = seg(vec![tpl(0, 1, 1), tpl(1, 1, 1), tpl(2, 1, 1)]);
        let mut sink = CollectingSink::new();
        let outcome = merge_segments(&[0, 0, 0], vec![s1.clone(), s2.clone()], &mut sink).unwrap();

        // Total join = 2x2x2 = 8; within-segment = 1 + 1; missing = 6.
        assert_eq!(outcome.missing_results, 6);
        assert_eq!(outcome.segments_merged, 2);
        assert_eq!(outcome.scanned_tuples, 6);

        // The emitted set must be exactly reference minus within-slice.
        let reference = reference_join(&[&s1, &s2]);
        let within = within_slice_results(&[&s1, &s2]);
        let emitted = sink.identities();
        assert_eq!(emitted.len() + within.len(), reference.len());
        for r in &emitted {
            assert!(reference.contains(r));
            assert!(!within.contains(r), "duplicate of run-time result: {r:?}");
        }
    }

    #[test]
    fn three_segments_no_duplicates_and_complete() {
        let s1 = seg(vec![tpl(0, 0, 1), tpl(1, 0, 1)]);
        let s2 = seg(vec![tpl(2, 0, 1), tpl(0, 1, 1)]);
        let s3 = seg(vec![tpl(1, 1, 1), tpl(2, 1, 1), tpl(0, 2, 2)]);
        let mut sink = CollectingSink::new();
        merge_segments(
            &[0, 0, 0],
            vec![s1.clone(), s2.clone(), s3.clone()],
            &mut sink,
        )
        .unwrap();
        let reference = reference_join(&[&s1, &s2, &s3]);
        let within = within_slice_results(&[&s1, &s2, &s3]);
        let emitted = sink.identities();
        // Completeness: emitted + within == reference (as multisets).
        let mut combined = emitted.clone();
        combined.extend(within.clone());
        combined.sort();
        assert_eq!(combined, reference);
        // No duplicates within emitted.
        let mut dedup = emitted.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), emitted.len());
    }

    #[test]
    fn single_segment_produces_nothing() {
        let s1 = seg(vec![tpl(0, 0, 1), tpl(1, 0, 1), tpl(2, 0, 1)]);
        let mut sink = CollectingSink::new();
        let outcome = merge_segments(&[0, 0, 0], vec![s1], &mut sink).unwrap();
        assert_eq!(outcome.missing_results, 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn disjoint_keys_produce_nothing() {
        let s1 = seg(vec![tpl(0, 0, 1), tpl(1, 0, 1), tpl(2, 0, 1)]);
        let s2 = seg(vec![tpl(0, 1, 2), tpl(1, 1, 2), tpl(2, 1, 2)]);
        let mut sink = CollectingSink::new();
        let outcome = merge_segments(&[0, 0, 0], vec![s1, s2], &mut sink).unwrap();
        assert_eq!(outcome.missing_results, 0);
    }

    #[test]
    fn empty_segment_list_is_noop() {
        let mut sink = CollectingSink::new();
        let outcome = merge_segments(&[0, 0, 0], vec![], &mut sink).unwrap();
        assert_eq!(outcome, CleanupOutcome::default());
    }

    #[test]
    fn partial_segments_still_combine() {
        // Segment 1 has only streams 0 and 1; segment 2 only stream 2:
        // every result is a cross result.
        let s1 = seg(vec![tpl(0, 0, 5), tpl(1, 0, 5)]);
        let s2 = seg(vec![tpl(2, 0, 5)]);
        let mut sink = CollectingSink::new();
        let outcome = merge_segments(&[0, 0, 0], vec![s1, s2], &mut sink).unwrap();
        assert_eq!(outcome.missing_results, 1);
        assert_eq!(sink.identities(), vec![vec![(0, 0), (1, 0), (2, 0)]]);
    }

    #[test]
    fn mismatched_stream_count_rejected() {
        let bad = SpilledGroup::empty(PartitionId(0), 2);
        let mut sink = CollectingSink::new();
        assert!(merge_segments(&[0, 0, 0], vec![bad], &mut sink).is_err());
    }

    #[test]
    fn two_way_join_cleanup() {
        let mut g1 = SpilledGroup::empty(PartitionId(0), 2);
        g1.push(&tpl(0, 0, 1)).unwrap();
        let mut g2 = SpilledGroup::empty(PartitionId(0), 2);
        g2.push(&tpl(1, 0, 1)).unwrap();
        let mut sink = CollectingSink::new();
        let outcome = merge_segments(&[0, 0], vec![g1, g2], &mut sink).unwrap();
        assert_eq!(outcome.missing_results, 1);
    }

    mod merge_model {
        //! Random slices of a 3-way join — few keys so lists grow, a text
        //! column ahead of stream 1's key, timestamps in and out of
        //! order — merged under a window and without one, for a sink
        //! that enumerates and one that only counts, against the
        //! brute-force join of all rows minus the joins within each
        //! slice.

        use super::*;
        use crate::probe::within_window;
        use crate::sink::CountingSink;
        use dcape_common::time::VirtualTime;
        use proptest::prelude::*;

        const JOIN_COLUMNS: [usize; 3] = [0, 1, 0];

        fn row(stream: u8, seq: u64, key: i64, ts: u64) -> Tuple {
            let b = TupleBuilder::new(StreamId(stream))
                .seq(seq)
                .ts(VirtualTime::from_millis(ts));
            if JOIN_COLUMNS[stream as usize] == 1 {
                b.value("ahead of the key").value(key).build()
            } else {
                b.value(key).pad(seq as u32).build()
            }
        }

        /// Identities of the same-key, in-window combinations of one row
        /// per stream.
        fn join(rows: &[Vec<Tuple>], window: Option<VirtualDuration>) -> Vec<Vec<(u8, u64)>> {
            let key = |t: &Tuple| t.get(JOIN_COLUMNS[t.stream().index()]).cloned();
            let mut out = Vec::new();
            for a in &rows[0] {
                for b in rows[1].iter().filter(|b| key(b) == key(a)) {
                    for c in rows[2].iter().filter(|c| key(c) == key(a)) {
                        if within_window(window, &[a, b, c]) {
                            out.push(vec![(0, a.seq()), (1, b.seq()), (2, c.seq())]);
                        }
                    }
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: dcape_common::testing::proptest_cases(64),
                ..ProptestConfig::default()
            })]

            #[test]
            fn merge_emits_the_cross_slice_results_and_counts_them_rowless(
                slices in proptest::collection::vec(
                    proptest::collection::vec((0u8..3, 0i64..3, 0u64..40), 0..14),
                    0..5,
                ),
                window_ms in 0u64..60,
                in_order in any::<bool>(),
            ) {
                // Above 40 the window never cuts: the unwindowed join.
                let window = (window_ms < 40).then(|| VirtualDuration::from_millis(window_ms));
                let mut seq = 0;
                // In order, every column stays sorted across slices and
                // the count path trims by binary search; otherwise it
                // has to notice and count exactly.
                let slices: Vec<Vec<Vec<Tuple>>> = slices
                    .into_iter()
                    .enumerate()
                    .map(|(k, mut rows)| {
                        if in_order {
                            rows.sort_by_key(|&(_, _, ts)| ts);
                        }
                        let mut per_stream = vec![Vec::new(); 3];
                        for (stream, key, ts) in rows {
                            seq += 1;
                            let ts = if in_order { ts / 2 + 20 * k as u64 } else { ts };
                            per_stream[stream as usize].push(row(stream, seq, key, ts));
                        }
                        per_stream
                    })
                    .collect();
                let mut all = vec![Vec::new(); 3];
                let mut expected = Vec::new();
                for slice in &slices {
                    for (s, rows) in slice.iter().enumerate() {
                        all[s].extend(rows.iter().cloned());
                    }
                }
                expected.extend(join(&all, window));
                for slice in &slices {
                    for within in join(slice, window) {
                        let at = expected.iter().position(|r| *r == within).expect("a subset");
                        expected.swap_remove(at);
                    }
                }
                expected.sort();
                let segments = || -> Vec<SpilledGroup> {
                    let groups = slices.iter().map(|slice| {
                        let mut g = SpilledGroup::empty(PartitionId(9), 3);
                        slice.iter().flatten().for_each(|t| g.push(t).unwrap());
                        g
                    });
                    groups.collect()
                };

                let mut collect = CollectingSink::new();
                let collected =
                    merge_segments_windowed(&JOIN_COLUMNS, window, segments(), &mut collect).unwrap();
                prop_assert_eq!(collect.identities(), expected.clone());
                prop_assert_eq!(collected.missing_results, expected.len() as u64);
                prop_assert!(collected.rows_materialized > 0 || expected.is_empty());

                let mut count = CountingSink::new();
                let counted =
                    merge_segments_windowed(&JOIN_COLUMNS, window, segments(), &mut count).unwrap();
                prop_assert_eq!(count.count(), expected.len() as u64);
                prop_assert_eq!(counted.rows_materialized, 0, "a count-only sink sees no row");
                prop_assert_eq!(
                    CleanupOutcome { rows_materialized: 0, ..collected },
                    counted
                );

                // What the merge can hand back is every slice's rows,
                // stream by stream in slice order.
                let mut merger = SegmentMerger::new(&JOIN_COLUMNS, window, true);
                for segment in segments() {
                    merger.push(segment, &mut CountingSink::new()).unwrap();
                }
                match merger.into_group().unwrap() {
                    None => prop_assert!(slices.is_empty()),
                    Some(group) => {
                        prop_assert_eq!(group.partition, PartitionId(9));
                        for (s, rows) in all.iter().enumerate() {
                            prop_assert_eq!(&group.tuples(s), rows);
                        }
                    }
                }
            }
        }
    }
}
