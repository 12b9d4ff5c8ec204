//! The symmetric m-way hash join operator (one partitioned instance).
//!
//! This is one *instance* of the partitioned operator of §2, i.e. the
//! portion running on one machine. It owns a map from partition ID to
//! [`PartitionGroup`] and keeps the engine's [`MemoryTracker`] and
//! [`ProductivityWindow`] up to date on every insert. The adaptation
//! controllers act through the extraction/installation API:
//!
//! * spill: [`MJoinOperator::drain_group`] hands a group's snapshot to
//!   the spill store and frees its memory;
//! * relocation: [`MJoinOperator::extract_group`] /
//!   [`MJoinOperator::install_group`] move a group (with its carried
//!   `P_output`) between machines.

use std::sync::Arc;

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;
use dcape_common::ids::PartitionId;
use dcape_common::mem::MemoryTracker;
use dcape_common::tuple::Tuple;
use dcape_storage::SpilledGroup;

use crate::config::MJoinConfig;
use crate::sink::ResultSink;
use crate::state::partition_group::PartitionGroup;
use crate::state::productivity::{GroupStats, ProductivityEstimator, ProductivityWindow};

/// One machine's instance of the partitioned symmetric m-way hash join.
#[derive(Debug)]
pub struct MJoinOperator {
    cfg: MJoinConfig,
    /// `cfg.join_columns` shared across every partition group: creating
    /// a group on first arrival bumps a refcount instead of cloning the
    /// column vector.
    join_columns: Arc<[usize]>,
    groups: FxHashMap<PartitionId, PartitionGroup>,
    tracker: Arc<MemoryTracker>,
    window: ProductivityWindow,
    /// Groups spilled since the beginning (count of drain operations).
    drain_count: u64,
    /// Incrementally maintained sum of all resident groups' bytes, so
    /// stats samples don't pay an O(#groups) walk. Checked against
    /// [`MJoinOperator::recompute_state_bytes`] in tests/debug asserts.
    state_bytes: usize,
}

impl MJoinOperator {
    /// Build an operator instance. Fails on invalid configuration.
    pub fn new(cfg: MJoinConfig, tracker: Arc<MemoryTracker>) -> Result<Self> {
        cfg.validate()?;
        let join_columns: Arc<[usize]> = cfg.join_columns.as_slice().into();
        Ok(MJoinOperator {
            cfg,
            join_columns,
            groups: FxHashMap::default(),
            tracker,
            window: ProductivityWindow::new(),
            drain_count: 0,
            state_bytes: 0,
        })
    }

    /// The operator's configuration.
    pub fn config(&self) -> &MJoinConfig {
        &self.cfg
    }

    /// The resident group of `pid`, created empty on first arrival.
    fn group_mut(&mut self, pid: PartitionId) -> &mut PartitionGroup {
        self.groups.entry(pid).or_insert_with(|| {
            PartitionGroup::new(pid, Arc::clone(&self.join_columns), self.cfg.window)
        })
    }

    /// Process one input tuple belonging to partition `pid`; results go
    /// to `sink`. Returns the number of results emitted.
    pub fn process(
        &mut self,
        pid: PartitionId,
        tuple: Tuple,
        sink: &mut dyn ResultSink,
    ) -> Result<u64> {
        let (emitted, added_bytes) = self.group_mut(pid).insert(tuple, sink)?;
        self.tracker.allocate(added_bytes);
        self.window.record(emitted);
        self.state_bytes += added_bytes;
        Ok(emitted)
    }

    /// Process a whole batch of routed tuples; results go to `sink`.
    /// Returns the number of results emitted.
    ///
    /// Rows are inserted one by one, in arrival order, straight from the
    /// batch's encoded bytes ([`PartitionGroup::insert_row`]); what the
    /// batch saves is the tracker/window update, paid once per batch.
    /// There is no per-partition regrouping: the generator samples a
    /// partition per stream per tick, so consecutive tuples of one batch
    /// almost never share a partition, and tuples of different
    /// partitions never interact — results and state are identical to
    /// calling [`process`](Self::process) per tuple.
    ///
    /// An invalid row ends the batch: the rows before it stay inserted
    /// (and accounted), the rest are dropped.
    pub fn process_batch(&mut self, batch: &TupleBatch, sink: &mut dyn ResultSink) -> Result<u64> {
        let mut emitted_total = 0u64;
        let mut added_total = 0usize;
        let mut failed = None;
        for row in batch.rows() {
            match self.group_mut(row.pid()).insert_row(&row, sink) {
                Ok((emitted, added)) => {
                    emitted_total += emitted;
                    added_total += added;
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // Account for everything inserted even when a mid-batch row
        // failed, so the incremental totals never drift from the state.
        self.tracker.allocate(added_total);
        self.window.record(emitted_total);
        self.state_bytes += added_total;
        match failed {
            Some(e) => Err(e),
            None => Ok(emitted_total),
        }
    }

    /// Number of resident partition groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Accounted bytes across all resident groups (incrementally
    /// maintained; see [`MJoinOperator::recompute_state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// What the resident groups' columns and arena pages occupy
    /// ([`PartitionGroup::reserved_bytes`]); an O(#groups) walk.
    pub fn state_reserved_bytes(&self) -> usize {
        let groups = self.groups.values();
        groups.map(PartitionGroup::reserved_bytes).sum()
    }

    /// Total results produced by this operator instance.
    pub fn total_output(&self) -> u64 {
        self.window.total_output()
    }

    /// Mutable access to the productivity sampling window (the stats
    /// reporter closes windows).
    pub fn window_mut(&mut self) -> &mut ProductivityWindow {
        &mut self.window
    }

    /// Snapshot per-group statistics (for policy ranking), sorted by
    /// partition ID for determinism. Uses the cumulative estimator.
    pub fn group_stats(&self) -> Vec<GroupStats> {
        self.group_stats_with(ProductivityEstimator::Cumulative)
    }

    /// Like [`MJoinOperator::group_stats`], with an explicit
    /// productivity estimator. For the decaying estimator, groups whose
    /// first window has not yet closed fall back to their cumulative
    /// value.
    pub fn group_stats_with(&self, estimator: ProductivityEstimator) -> Vec<GroupStats> {
        let mut stats: Vec<GroupStats> = Vec::with_capacity(self.groups.len());
        stats.extend(self.groups.values().map(|g| {
            let mut s = GroupStats::new(g.pid(), g.bytes(), g.output_count());
            if let ProductivityEstimator::Decaying { .. } = estimator {
                if let Some(ewma) = g.decayed_productivity() {
                    s.productivity = ewma;
                }
            }
            s
        }));
        stats.sort_unstable_by_key(|s| s.pid);
        stats
    }

    /// Fold every group's sampling window into its decayed productivity
    /// estimate (call at the stats-report cadence when using
    /// [`ProductivityEstimator::Decaying`]).
    pub fn close_productivity_windows(&mut self, alpha: f64) {
        for g in self.groups.values_mut() {
            g.close_productivity_window(alpha);
        }
    }

    /// Resident partition IDs (sorted).
    pub fn resident_partitions(&self) -> Vec<PartitionId> {
        let mut pids: Vec<PartitionId> = Vec::with_capacity(self.groups.len());
        pids.extend(self.groups.keys().copied());
        pids.sort_unstable();
        pids
    }

    /// Does this instance currently hold a group for `pid`?
    pub fn has_group(&self, pid: PartitionId) -> bool {
        self.groups.contains_key(&pid)
    }

    /// Remove a group for **spilling**: its snapshot goes to disk, its
    /// memory is released, and its productivity history is discarded —
    /// a future group under the same ID starts fresh (§3: "new tuples
    /// with the same partition ID may continue to accumulate to form a
    /// new partition group"). Returns the snapshot, the group's
    /// `P_output` — which only [`MJoinOperator::undrain_group`] wants —
    /// and the accounted bytes freed (which exceed the snapshot's own
    /// tuple bytes by the per-tuple index overhead).
    pub fn drain_group(&mut self, pid: PartitionId) -> Option<(SpilledGroup, u64, usize)> {
        let group = self.groups.remove(&pid)?;
        let freed = group.bytes();
        self.tracker.release(freed);
        self.state_bytes -= freed;
        self.drain_count += 1;
        let (snapshot, output) = group.into_snapshot();
        Some((snapshot, output, freed))
    }

    /// Take back a drain whose snapshot could not be written: the group
    /// is resident again with its rows, its `P_output` and its
    /// accounting, and the drain is not counted. As on a relocation
    /// install, the decaying productivity estimate is not restored: the
    /// group ranks by its cumulative value until its next window closes.
    pub fn undrain_group(&mut self, snapshot: SpilledGroup, output_count: u64) -> Result<()> {
        self.install_group(snapshot, output_count)?;
        self.drain_count -= 1;
        Ok(())
    }

    /// Remove a group for **relocation**: snapshot plus carried
    /// `P_output`, so the receiver resumes its productivity history.
    pub fn extract_group(&mut self, pid: PartitionId) -> Option<(SpilledGroup, u64)> {
        let group = self.groups.remove(&pid)?;
        self.tracker.release(group.bytes());
        self.state_bytes -= group.bytes();
        Some(group.into_snapshot())
    }

    /// Install a relocated group. Fails if a group for the partition is
    /// already resident (the relocation protocol moves whole groups, so
    /// a double-install indicates a protocol violation).
    pub fn install_group(&mut self, snapshot: SpilledGroup, output_count: u64) -> Result<()> {
        let pid = snapshot.partition;
        if self.groups.contains_key(&pid) {
            return Err(DcapeError::state(format!(
                "group {pid} already resident — double install"
            )));
        }
        let group = PartitionGroup::from_snapshot(
            snapshot,
            Arc::clone(&self.join_columns),
            self.cfg.window,
            output_count,
        )?;
        self.tracker.allocate(group.bytes());
        self.state_bytes += group.bytes();
        self.groups.insert(pid, group);
        Ok(())
    }

    /// Purge tuples that expired before the purge `horizon` (no-op
    /// without a configured window). Empty groups are removed. Returns
    /// the accounted bytes freed.
    ///
    /// `horizon` is the watermark-driven purge horizon, not the wall
    /// clock: callers pass `min(admitted watermark, oldest timestamp
    /// still buffered in-flight at any split)`, so tuples held at
    /// paused splits during a relocation can never find their join
    /// partners already purged when they replay. Purging strictly by
    /// clock time is what made windowed totals timing-dependent.
    ///
    /// `skip` answers, per resident partition, whether it must NOT be
    /// purged: partitions whose disk-resident spill segments live here
    /// *or on any other engine* (tracked cluster-wide across
    /// relocations via the engine's purge-protect set). Their memory
    /// tuples may still owe cross-slice results to spilled partners —
    /// dropping them would lose results, and retiring them to disk
    /// would break the cleanup merge's disjoint-co-residency-slice
    /// assumption. Purging a segment-free partition is always safe:
    /// every co-resident partner already joined at insert time and
    /// every post-horizon arrival is out of window.
    ///
    /// `skip` is a predicate, not a set, so a pulse builds nothing: it
    /// costs O(resident groups) plus what
    /// [`PartitionGroup::purge_expired`] pays for the rows that expire.
    pub fn purge_expired(
        &mut self,
        horizon: dcape_common::time::VirtualTime,
        skip: impl Fn(PartitionId) -> bool,
    ) -> usize {
        if self.cfg.window.is_none() {
            return 0;
        }
        let mut freed = 0usize;
        self.groups.retain(|pid, g| {
            if skip(*pid) {
                return true;
            }
            freed += g.purge_expired(horizon);
            !g.is_empty()
        });
        self.tracker.release(freed);
        self.state_bytes -= freed;
        freed
    }

    /// Number of drain (spill) operations performed.
    pub fn drain_count(&self) -> u64 {
        self.drain_count
    }

    /// Recompute all accounted bytes from scratch and compare with the
    /// incremental accounting — returns the recomputed figure. Used by
    /// debug assertions and tests to catch drift.
    pub fn recompute_state_bytes(&self) -> usize {
        self.groups
            .values()
            .map(PartitionGroup::recompute_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, CountingSink};
    use dcape_common::ids::StreamId;
    use dcape_common::time::VirtualTime;
    use dcape_common::tuple::TupleBuilder;

    fn op() -> MJoinOperator {
        MJoinOperator::new(MJoinConfig::same_column(3, 0), MemoryTracker::new(10 << 20)).unwrap()
    }

    fn tpl(stream: u8, seq: u64, key: i64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq))
            .value(key)
            .build()
    }

    /// A two-column row whose join key (column 1) is always 1.
    fn tpl2(stream: u8, seq: u64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq))
            .value(seq as i64)
            .value(1i64)
            .build()
    }

    #[test]
    fn processes_and_tracks_memory() {
        let tracker = MemoryTracker::new(10 << 20);
        let mut op =
            MJoinOperator::new(MJoinConfig::same_column(3, 0), Arc::clone(&tracker)).unwrap();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            op.process(PartitionId(1), tpl(s, 0, 1), &mut sink).unwrap();
        }
        assert_eq!(sink.count(), 1);
        assert_eq!(op.group_count(), 1);
        assert_eq!(tracker.used() as usize, op.state_bytes());
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
    }

    #[test]
    fn groups_are_isolated_by_partition() {
        let mut op = op();
        let mut sink = CountingSink::new();
        // Same key value but different partitions must not join — the
        // operator trusts the router's partition assignment.
        op.process(PartitionId(1), tpl(0, 0, 5), &mut sink).unwrap();
        op.process(PartitionId(2), tpl(1, 0, 5), &mut sink).unwrap();
        op.process(PartitionId(2), tpl(2, 0, 5), &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
        assert_eq!(op.group_count(), 2);
        assert_eq!(
            op.resident_partitions(),
            vec![PartitionId(1), PartitionId(2)]
        );
    }

    #[test]
    fn drain_releases_memory_and_discards_history() {
        let tracker = MemoryTracker::new(10 << 20);
        let mut op =
            MJoinOperator::new(MJoinConfig::same_column(3, 0), Arc::clone(&tracker)).unwrap();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..4 {
                op.process(PartitionId(7), tpl(s, i, 1), &mut sink).unwrap();
            }
        }
        let used_before = tracker.used();
        assert!(used_before > 0);
        let (snap, _, freed) = op.drain_group(PartitionId(7)).unwrap();
        assert_eq!(freed as u64, used_before);
        assert_eq!(snap.tuple_count(), 12);
        assert_eq!(tracker.used(), 0);
        assert!(!op.has_group(PartitionId(7)));
        assert_eq!(op.drain_count(), 1);
        // New tuples re-create the group with a fresh history.
        op.process(PartitionId(7), tpl(0, 99, 1), &mut sink)
            .unwrap();
        let stats = op.group_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].output, 0);
    }

    #[test]
    fn extract_install_round_trip_moves_state_and_stats() {
        let tracker_a = MemoryTracker::new(10 << 20);
        let tracker_b = MemoryTracker::new(10 << 20);
        let mut a =
            MJoinOperator::new(MJoinConfig::same_column(3, 0), Arc::clone(&tracker_a)).unwrap();
        let mut b =
            MJoinOperator::new(MJoinConfig::same_column(3, 0), Arc::clone(&tracker_b)).unwrap();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..3 {
                a.process(PartitionId(4), tpl(s, i, 1), &mut sink).unwrap();
            }
        }
        let output_before = a.total_output();
        let (snap, carried) = a.extract_group(PartitionId(4)).unwrap();
        assert_eq!(carried, output_before);
        assert_eq!(tracker_a.used(), 0);
        b.install_group(snap, carried).unwrap();
        assert_eq!(tracker_b.used() as usize, b.state_bytes());
        // Continue joining on the receiver: 3x3 existing matches.
        let mut sink_b = CollectingSink::new();
        b.process(PartitionId(4), tpl(0, 50, 1), &mut sink_b)
            .unwrap();
        assert_eq!(sink_b.len(), 9);
        // Carried stats visible in group stats.
        let stats = b.group_stats();
        assert_eq!(stats[0].output, carried + 9);
    }

    #[test]
    fn double_install_rejected() {
        let mut op = op();
        let snap = SpilledGroup::empty(PartitionId(2), 3);
        op.install_group(snap.clone(), 0).unwrap();
        assert!(op.install_group(snap, 0).is_err());
    }

    #[test]
    fn drain_missing_group_returns_none() {
        let mut op = op();
        assert!(op.drain_group(PartitionId(9)).is_none());
        assert!(op.extract_group(PartitionId(9)).is_none());
    }

    /// `process_batch` over the encoded rows equals per-tuple `process`,
    /// for a sink that enumerates (results compared as a multiset of
    /// whole tuples, so every row was rebuilt intact) and one that only
    /// counts.
    #[test]
    fn batch_matches_per_tuple_path() {
        let rows = || {
            // Two interleaved partitions, then a same-partition run;
            // the key sits behind a text column of varying length.
            (0..30u64).map(|seq| {
                let pid = PartitionId(if seq < 12 { (seq % 2) as u32 } else { 1 });
                let t = TupleBuilder::new(StreamId((seq % 3) as u8))
                    .seq(seq)
                    .ts(VirtualTime::from_millis(seq))
                    .value(&"payload"[..(seq % 7) as usize])
                    .value((seq % 4) as i64)
                    .pad(100)
                    .build();
                (pid, t)
            })
        };
        let op_on = |tracker| MJoinOperator::new(MJoinConfig::same_column(3, 1), tracker).unwrap();
        let tracker = MemoryTracker::new(10 << 20);
        let mut per_tuple = op_on(MemoryTracker::new(10 << 20));
        let mut batched = op_on(Arc::clone(&tracker));
        let mut counted = op_on(MemoryTracker::new(10 << 20));
        let mut sink_a = CollectingSink::new();
        let mut sink_b = CollectingSink::new();
        let mut sink_c = CountingSink::new();
        let mut batch = TupleBatch::new();
        let mut per_tuple_emitted = 0;
        for (pid, t) in rows() {
            per_tuple_emitted += per_tuple.process(pid, t.clone(), &mut sink_a).unwrap();
            batch.push(pid, t);
        }
        let emitted = batched.process_batch(&batch, &mut sink_b).unwrap();
        assert_eq!(emitted, per_tuple_emitted);
        assert_eq!(emitted as usize, sink_b.len());
        assert!(emitted > 0);
        assert_eq!(counted.process_batch(&batch, &mut sink_c).unwrap(), emitted);
        assert_eq!(sink_c.count(), emitted);
        // Same result multiset (order may differ across partitions).
        let sorted = |sink: &CollectingSink| {
            let mut v: Vec<String> = sink
                .results()
                .iter()
                .map(|r| r.iter().map(|t| t.to_string()).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&sink_a), sorted(&sink_b));
        // Same state, and the incremental totals never drift.
        for op in [&batched, &counted] {
            assert_eq!(per_tuple.state_bytes(), op.state_bytes());
            assert_eq!(op.state_bytes(), op.recompute_state_bytes());
            assert_eq!(per_tuple.total_output(), op.total_output());
        }
        assert_eq!(tracker.used() as usize, batched.state_bytes());
        for pid in [PartitionId(0), PartitionId(1)] {
            let (expected, ..) = per_tuple.drain_group(pid).unwrap();
            assert_eq!(batched.drain_group(pid).unwrap().0, expected);
            assert_eq!(counted.drain_group(pid).unwrap().0, expected);
        }
    }

    #[test]
    fn batch_inserts_valid_prefix_then_errors() {
        // Two ways a row can be refused: a stream the join does not
        // have, and (the join column being 1) a row with one column.
        let bad_stream = |i: u64| tpl2(7, i);
        let no_join_column = |i: u64| tpl(1, i, 1);
        for bad in [bad_stream, no_join_column] {
            let op_on =
                |tracker| MJoinOperator::new(MJoinConfig::same_column(3, 1), tracker).unwrap();
            // The reference: the valid prefix alone.
            let mut prefix = op_on(MemoryTracker::new(10 << 20));
            let mut prefix_sink = CountingSink::new();
            let tracker = MemoryTracker::new(10 << 20);
            let mut op = op_on(Arc::clone(&tracker));
            let mut sink = CountingSink::new();
            let mut batch = TupleBatch::new();
            let pid = PartitionId(3);
            for (i, stream) in [0u8, 1, 2, 0, 9, 1, 2].into_iter().enumerate() {
                let i = i as u64;
                let t = if i == 4 { bad(i) } else { tpl2(stream, i) };
                if i < 4 {
                    prefix.process(pid, t.clone(), &mut prefix_sink).unwrap();
                }
                batch.push(pid, t);
            }
            assert!(
                op.process_batch(&batch, &mut sink).is_err(),
                "bad row reported"
            );
            // Valid prefix inserted, tail dropped, and state bytes,
            // tracker and productivity window account exactly that.
            let (snap, ..) = op.drain_group(pid).unwrap();
            assert_eq!(snap.tuple_count(), 4);
            op.install_group(snap, 0).unwrap();
            assert_eq!(sink.count(), prefix_sink.count());
            assert!(sink.count() > 0);
            assert_eq!(op.total_output(), prefix.total_output());
            assert_eq!(op.state_bytes(), prefix.state_bytes());
            assert_eq!(op.state_bytes(), op.recompute_state_bytes());
            assert_eq!(tracker.used() as usize, op.state_bytes());
        }
    }

    #[test]
    fn incremental_state_bytes_survives_drain_install_purge() {
        let mut op = op();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..5 {
                op.process(PartitionId(1), tpl(s, i, 1), &mut sink).unwrap();
                op.process(PartitionId(2), tpl(s, i, 2), &mut sink).unwrap();
            }
        }
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
        let (snap, ..) = op.drain_group(PartitionId(1)).unwrap();
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
        op.install_group(snap, 0).unwrap();
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
        let (snap2, carried) = op.extract_group(PartitionId(2)).unwrap();
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
        op.install_group(snap2, carried).unwrap();
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
    }

    #[test]
    fn group_stats_sorted_and_complete() {
        let mut op = op();
        let mut sink = CountingSink::new();
        for pid in [5u32, 1, 3] {
            op.process(PartitionId(pid), tpl(0, pid as u64, pid as i64), &mut sink)
                .unwrap();
        }
        let stats = op.group_stats();
        let pids: Vec<u32> = stats.iter().map(|s| s.pid.0).collect();
        assert_eq!(pids, vec![1, 3, 5]);
    }
}
