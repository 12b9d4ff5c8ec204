//! The XJoin-style **per-input** spill baseline (§2, Figure 3(a)).
//!
//! The paper contrasts its partition-group granularity with the
//! alternative of spilling partitions of *individual inputs*
//! independently, as XJoin \[25\] and Hash-Merge Join \[17\] do. That
//! alternative forces two costs the partition-group design avoids:
//!
//! 1. **Timestamp bookkeeping.** When only input A's partition is pushed
//!    at time `t`, the tuples of B and C that arrive *after* `t` have
//!    already probed an A-side that no longer contains the spilled
//!    tuples — so the cleanup must join the spilled A-segment `A₁¹`
//!    against exactly the B/C tuples with timestamp `> t` is wrong; it
//!    is the *complement*: every B/C tuple that was present **at or
//!    before** the push already joined with `A₁¹` at run time, so the
//!    cleanup must pair `A₁¹` only with B/C tuples that arrived after
//!    the push (and with later-spilled segments, watermark-compared).
//!    "The cleanup needs to be carefully synchronized with the
//!    timestamps of the input tuples and the timestamps of the
//!    partitions being pushed" — this module implements exactly that
//!    synchronization, as the measurable cost of the design the paper
//!    rejects.
//! 2. **Cross-machine joins** if relocation moved per-input partitions
//!    independently (not implemented — the cluster layer only supports
//!    the partition-group granularity; this baseline is single-engine).
//!
//! Semantics implemented here: the operator state is one partition per
//! (input, partition-ID). A spill pushes the partition of **one** input
//! whose tuples become inactive: subsequent probes from other inputs do
//! not see them (results deferred to cleanup), while new tuples of the
//! spilled input accumulate into a fresh in-memory partition. Cleanup
//! reunites everything: a result `(a, b, c)` was produced at run time
//! iff, at the moment its *last* constituent arrived, the other two were
//! memory-resident; the cleanup emits precisely the complement, using
//! per-tuple arrival sequence numbers and per-segment push watermarks.

use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;
use dcape_common::ids::PartitionId;
use dcape_common::mem::{HeapSize, MemoryTracker};
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;

use crate::sink::ResultSink;

/// Global arrival order stamp (the "timestamp" of §2's discussion; we
/// use a dense sequence number assigned by the operator).
type Stamp = u64;

/// Per-input key index over stamped tuples used by the cleanup merge.
type StampedIndex = FxHashMap<Value, Vec<(Stamp, Stamp, Tuple)>>;

/// One spilled per-input segment: the partition of one input pushed at
/// `pushed_at`.
#[derive(Debug, Clone)]
struct InputSegment {
    stream: usize,
    pushed_at: Stamp,
    /// `(arrival stamp, join key, tuple)` triples, in arrival order.
    tuples: Vec<(Stamp, Value, Tuple)>,
}

#[derive(Debug, Default)]
struct InputPartition {
    /// Memory-resident tuples: stamp + key + tuple.
    tuples: Vec<(Stamp, Value, Tuple)>,
    index: FxHashMap<Value, Vec<u32>>,
    bytes: usize,
}

impl InputPartition {
    fn insert(&mut self, stamp: Stamp, key: Value, tuple: Tuple) {
        let pos = self.tuples.len() as u32;
        self.bytes += tuple.heap_size();
        self.index.entry(key.clone()).or_default().push(pos);
        self.tuples.push((stamp, key, tuple));
    }

    fn matches(&self, key: &Value) -> impl Iterator<Item = &(Stamp, Value, Tuple)> {
        self.index
            .get(key)
            .into_iter()
            .flat_map(|positions| positions.iter().map(|&p| &self.tuples[p as usize]))
    }
}

/// Per-partition state across all inputs, plus this partition's spilled
/// segments.
#[derive(Debug)]
struct GroupState {
    inputs: Vec<InputPartition>,
    segments: Vec<InputSegment>,
}

/// Report of a per-input cleanup run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerInputCleanupReport {
    /// Missing results emitted.
    pub missing_results: u64,
    /// Segments merged.
    pub segments: usize,
    /// Timestamp comparisons performed — the bookkeeping overhead that
    /// the partition-group design eliminates (reported so the ablation
    /// can quantify the paper's argument).
    pub stamp_comparisons: u64,
}

/// A symmetric m-way hash join whose spill unit is a **single input's**
/// partition, with full timestamp bookkeeping (the baseline the paper
/// argues against). Single-engine only.
#[derive(Debug)]
pub struct PerInputJoin {
    join_columns: Vec<usize>,
    groups: FxHashMap<PartitionId, GroupState>,
    tracker: std::sync::Arc<MemoryTracker>,
    next_stamp: Stamp,
    output: u64,
}

impl PerInputJoin {
    /// Create with one join column per input stream.
    pub fn new(join_columns: Vec<usize>, tracker: std::sync::Arc<MemoryTracker>) -> Result<Self> {
        if join_columns.len() < 2 {
            return Err(DcapeError::config("m-way join needs >= 2 inputs"));
        }
        Ok(PerInputJoin {
            join_columns,
            groups: FxHashMap::default(),
            tracker,
            next_stamp: 0,
            output: 0,
        })
    }

    fn num_streams(&self) -> usize {
        self.join_columns.len()
    }

    /// Total results produced at run time.
    pub fn output(&self) -> u64 {
        self.output
    }

    /// Memory-resident accounted bytes.
    pub fn state_bytes(&self) -> usize {
        self.groups
            .values()
            .flat_map(|g| g.inputs.iter())
            .map(|i| i.bytes)
            .sum()
    }

    /// Process one tuple of partition `pid`; emits the results formed
    /// with currently *memory-resident* tuples of the other inputs.
    pub fn process(
        &mut self,
        pid: PartitionId,
        tuple: Tuple,
        sink: &mut dyn ResultSink,
    ) -> Result<u64> {
        let m = self.num_streams();
        let s = tuple.stream().index();
        if s >= m {
            return Err(DcapeError::state("stream out of range"));
        }
        let key = tuple
            .get(self.join_columns[s])
            .ok_or_else(|| DcapeError::state("tuple lacks join column"))?
            .clone();
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let group = self.groups.entry(pid).or_insert_with(|| GroupState {
            inputs: (0..m).map(|_| InputPartition::default()).collect(),
            segments: Vec::new(),
        });

        // Probe the memory-resident partitions of every other input.
        let mut lists: Vec<Vec<&Tuple>> = Vec::with_capacity(m);
        let mut viable = true;
        for (i, input) in group.inputs.iter().enumerate() {
            if i == s {
                lists.push(vec![]);
                continue;
            }
            let l: Vec<&Tuple> = input.matches(&key).map(|(_, _, t)| t).collect();
            if l.is_empty() {
                viable = false;
                break;
            }
            lists.push(l);
        }
        let mut emitted = 0u64;
        if viable {
            // Odometer over the other inputs.
            let mut counters = vec![0usize; m];
            let mut parts: Vec<&Tuple> = vec![&tuple; m];
            'outer: loop {
                for i in 0..m {
                    if i != s {
                        parts[i] = lists[i][counters[i]];
                    }
                }
                sink.emit(&parts);
                emitted += 1;
                for i in (0..m).rev() {
                    if i == s {
                        continue;
                    }
                    counters[i] += 1;
                    if counters[i] < lists[i].len() {
                        continue 'outer;
                    }
                    counters[i] = 0;
                }
                break;
            }
        }
        drop(lists);
        let bytes = tuple.heap_size();
        group.inputs[s].insert(stamp, key, tuple);
        self.tracker.allocate(bytes);
        self.output += emitted;
        Ok(emitted)
    }

    /// Spill the partition of **one input** of one partition ID (the
    /// XJoin move). Its tuples become inactive until cleanup. Returns
    /// the bytes freed, or `None` if there was nothing to push.
    pub fn spill_input(&mut self, pid: PartitionId, stream: usize) -> Option<usize> {
        let group = self.groups.get_mut(&pid)?;
        let input = group.inputs.get_mut(stream)?;
        if input.tuples.is_empty() {
            return None;
        }
        // Consume a stamp: pushes and arrivals share one total order,
        // so visibility checks can use strict comparison.
        let pushed_at = self.next_stamp;
        self.next_stamp += 1;
        let tuples = std::mem::take(&mut input.tuples);
        input.index.clear();
        let freed = input.bytes;
        input.bytes = 0;
        self.tracker.release(freed);
        group.segments.push(InputSegment {
            stream,
            pushed_at,
            tuples,
        });
        Some(freed)
    }

    /// Sizes of each input's memory-resident partition for `pid`
    /// (spill-policy input).
    pub fn input_sizes(&self, pid: PartitionId) -> Vec<usize> {
        self.groups
            .get(&pid)
            .map(|g| g.inputs.iter().map(|i| i.bytes).collect())
            .unwrap_or_default()
    }

    /// All partitions with any state (sorted).
    pub fn partitions(&self) -> Vec<PartitionId> {
        let mut pids: Vec<PartitionId> = self.groups.keys().copied().collect();
        pids.sort_unstable();
        pids
    }

    /// The cleanup phase with timestamp synchronization.
    ///
    /// A combination (one tuple per input) was produced at run time iff
    /// **when its last-arriving member arrived, every other member was
    /// memory-resident** — i.e. arrived earlier AND was not yet pushed:
    /// member `x` (stamp `sx`, in a segment pushed at `px`, or resident
    /// with `px = ∞`) was visible to the arrival at stamp `sl` iff
    /// `sx < sl < px` (noting `px > sx` always). The cleanup therefore
    /// enumerates all key-matching combinations and emits exactly those
    /// for which visibility failed for at least one member — each
    /// missing combination exactly once.
    pub fn cleanup(mut self, sink: &mut dyn ResultSink) -> Result<PerInputCleanupReport> {
        let m = self.num_streams();
        let mut report = PerInputCleanupReport::default();
        let pids = self.partitions();
        for pid in pids {
            let group = self.groups.remove(&pid).expect("listed");
            report.segments += group.segments.len();
            // Assemble, per input, every tuple with (stamp, push stamp).
            // Residents get push stamp = MAX.
            let mut per_input: Vec<StampedIndex> = (0..m).map(|_| FxHashMap::default()).collect();
            for seg in group.segments {
                for (stamp, key, tuple) in seg.tuples {
                    per_input[seg.stream].entry(key).or_default().push((
                        stamp,
                        seg.pushed_at,
                        tuple,
                    ));
                }
            }
            for (i, input) in group.inputs.into_iter().enumerate() {
                for (stamp, key, tuple) in input.tuples {
                    per_input[i]
                        .entry(key)
                        .or_default()
                        .push((stamp, Stamp::MAX, tuple));
                }
            }
            // Candidate keys = keys present in every input.
            let keys: Vec<Value> = per_input[0]
                .keys()
                .filter(|k| per_input.iter().all(|pi| pi.contains_key(*k)))
                .cloned()
                .collect();
            for key in keys {
                let lists: Vec<&Vec<(Stamp, Stamp, Tuple)>> =
                    per_input.iter().map(|pi| &pi[&key]).collect();
                // Odometer over the full cartesian product; emit the
                // combinations NOT produced at run time.
                let mut counters = vec![0usize; m];
                'outer: loop {
                    let combo: Vec<&(Stamp, Stamp, Tuple)> =
                        (0..m).map(|i| &lists[i][counters[i]]).collect();
                    // Last arrival in the combo.
                    let last = combo.iter().map(|(s, _, _)| *s).max().expect("m >= 2");
                    let mut produced_at_runtime = true;
                    for (stamp, pushed_at, _) in &combo {
                        report.stamp_comparisons += 1;
                        // The last arriver itself is trivially visible.
                        if *stamp == last {
                            continue;
                        }
                        // Visible iff not yet pushed when `last` arrived.
                        if *pushed_at < last {
                            produced_at_runtime = false;
                            break;
                        }
                    }
                    if !produced_at_runtime {
                        let parts: Vec<&Tuple> = combo.iter().map(|(_, _, t)| t).collect();
                        sink.emit(&parts);
                        report.missing_results += 1;
                    }
                    // Advance.
                    for i in (0..m).rev() {
                        counters[i] += 1;
                        if counters[i] < lists[i].len() {
                            continue 'outer;
                        }
                        counters[i] = 0;
                    }
                    break;
                }
            }
        }
        Ok(report)
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

    fn join3() -> PerInputJoin {
        PerInputJoin::new(vec![0, 0, 0], MemoryTracker::new(u64::MAX)).unwrap()
    }

    /// Reference: all same-key triples over everything processed.
    fn reference(all: &[Tuple]) -> Vec<Vec<(u8, u64)>> {
        let mut out = Vec::new();
        for a in all.iter().filter(|t| t.stream().0 == 0) {
            for b in all.iter().filter(|t| t.stream().0 == 1) {
                for c in all.iter().filter(|t| t.stream().0 == 2) {
                    if a.get(0) == b.get(0) && b.get(0) == c.get(0) {
                        out.push(vec![(0u8, a.seq()), (1u8, b.seq()), (2u8, c.seq())]);
                    }
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn no_spill_matches_symmetric_join() {
        let mut j = join3();
        let mut sink = CountingSink::new();
        for seq in 0..5u64 {
            for s in 0..3u8 {
                j.process(PartitionId(0), tpl(s, seq, 1), &mut sink)
                    .unwrap();
            }
        }
        assert_eq!(sink.count(), 125);
        assert_eq!(j.output(), 125);
    }

    #[test]
    fn spilled_input_goes_inactive() {
        let mut j = join3();
        let mut sink = CountingSink::new();
        j.process(PartitionId(0), tpl(0, 0, 1), &mut sink).unwrap();
        j.process(PartitionId(0), tpl(1, 0, 1), &mut sink).unwrap();
        let freed = j.spill_input(PartitionId(0), 0).unwrap();
        assert!(freed > 0);
        // Stream 2 arrives: A is on disk, so no result at run time.
        j.process(PartitionId(0), tpl(2, 0, 1), &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn cleanup_completes_exactly_once_single_spill() {
        let mut j = join3();
        let mut runtime = CollectingSink::new();
        let mut all = Vec::new();
        let feed = |j: &mut PerInputJoin,
                    sink: &mut CollectingSink,
                    s: u8,
                    q: u64,
                    k: i64,
                    all: &mut Vec<Tuple>| {
            let t = tpl(s, q, k);
            all.push(t.clone());
            j.process(PartitionId(0), t, sink).unwrap();
        };
        feed(&mut j, &mut runtime, 0, 0, 1, &mut all);
        feed(&mut j, &mut runtime, 1, 0, 1, &mut all);
        feed(&mut j, &mut runtime, 2, 0, 1, &mut all); // produced: 1
        j.spill_input(PartitionId(0), 0).unwrap();
        feed(&mut j, &mut runtime, 1, 1, 1, &mut all); // A inactive: nothing
        feed(&mut j, &mut runtime, 2, 1, 1, &mut all); // joins B{0,1} x A{} => 0... B is visible: (b?,c1) needs A too: 0
        feed(&mut j, &mut runtime, 0, 1, 1, &mut all); // fresh A partition: joins B{0,1} x C{0,1} = 4
        let mut cleanup = CollectingSink::new();
        let report = j.cleanup(&mut cleanup).unwrap();
        let mut produced = runtime.identities();
        produced.extend(cleanup.identities());
        produced.sort();
        assert_eq!(produced, reference(&all));
        assert!(report.missing_results > 0);
        assert!(report.stamp_comparisons > 0);
        // No duplicates.
        let mut dedup = produced.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), produced.len());
    }

    #[test]
    fn cleanup_exact_under_many_random_spills() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut j = join3();
            let mut runtime = CollectingSink::new();
            let mut all = Vec::new();
            for seq in 0..60u64 {
                let s = rng.gen_range(0..3u8);
                let k = rng.gen_range(0..4i64);
                let t = tpl(s, seq, k);
                all.push(t.clone());
                j.process(PartitionId((k % 2) as u32), t, &mut runtime)
                    .unwrap();
                if rng.gen_bool(0.15) {
                    let pid = PartitionId(rng.gen_range(0..2u32));
                    let stream = rng.gen_range(0..3usize);
                    let _ = j.spill_input(pid, stream);
                }
            }
            let mut cleanup = CollectingSink::new();
            j.cleanup(&mut cleanup).unwrap();
            let mut produced = runtime.identities();
            produced.extend(cleanup.identities());
            produced.sort();
            let expected = reference(&all);
            assert_eq!(produced.len(), expected.len(), "seed {seed}: count");
            assert_eq!(produced, expected, "seed {seed}: loss or duplicate");
        }
    }

    #[test]
    fn spill_empty_input_returns_none() {
        let mut j = join3();
        assert!(j.spill_input(PartitionId(0), 0).is_none());
        let mut sink = CountingSink::new();
        j.process(PartitionId(0), tpl(0, 0, 1), &mut sink).unwrap();
        assert!(j.spill_input(PartitionId(0), 1).is_none(), "stream 1 empty");
        assert!(j.spill_input(PartitionId(0), 0).is_some());
        assert!(j.spill_input(PartitionId(0), 0).is_none(), "already pushed");
    }

    #[test]
    fn input_sizes_reflect_state() {
        let mut j = join3();
        let mut sink = CountingSink::new();
        j.process(PartitionId(3), tpl(0, 0, 3), &mut sink).unwrap();
        j.process(PartitionId(3), tpl(0, 1, 3), &mut sink).unwrap();
        j.process(PartitionId(3), tpl(1, 2, 3), &mut sink).unwrap();
        let sizes = j.input_sizes(PartitionId(3));
        assert_eq!(sizes.len(), 3);
        assert!(sizes[0] > sizes[1]);
        assert_eq!(sizes[2], 0);
        assert!(j.input_sizes(PartitionId(9)).is_empty());
        assert_eq!(j.partitions(), vec![PartitionId(3)]);
        assert!(j.state_bytes() > 0);
    }

    #[test]
    fn rejects_bad_config_and_inputs() {
        assert!(PerInputJoin::new(vec![0], MemoryTracker::new(1)).is_err());
        let mut j = join3();
        let mut sink = CountingSink::new();
        assert!(j.process(PartitionId(0), tpl(7, 0, 1), &mut sink).is_err());
    }
}
