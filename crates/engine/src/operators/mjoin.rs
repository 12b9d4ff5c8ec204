//! The symmetric m-way hash join operator (one partitioned instance).
//!
//! This is one *instance* of the partitioned operator of §2, i.e. the
//! portion running on one machine. It owns a map from partition ID to
//! [`PartitionGroup`] and keeps two running figures up to date on every
//! insert: [`MJoinOperator::state_bytes`], the engine's one memory
//! account (every spill, relocation and reactivation decision reads it),
//! and the [`ProductivityWindow`]. The engine's adaptations act through
//! one extraction/installation pair:
//!
//! * [`MJoinOperator::extract_group`] takes a group out of memory — to
//!   the spill store, to another machine, or into a cleanup merge — and
//!   says how many accounted bytes left with it;
//! * [`MJoinOperator::install_group`] puts a group in (a relocated one,
//!   a reactivated one, or a spill victim whose write failed) with its
//!   carried `P_output`.

use std::sync::Arc;

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;
use dcape_common::ids::PartitionId;
use dcape_common::tuple::Tuple;
use dcape_storage::SpilledGroup;

use crate::config::MJoinConfig;
use crate::sink::ResultSink;
use crate::state::partition_group::{KeyedRow, PartitionGroup};
use crate::state::productivity::{GroupStats, ProductivityEstimator, ProductivityWindow};

/// How many rows ahead of the insert loop [`MJoinOperator::process_batch`]
/// prefetches what a row's insert reaches first: far enough for the
/// lines to arrive while the rows in between are inserted, near enough
/// that they are still in cache when its own insert comes.
const PREFETCH_AHEAD: usize = 8;

/// One machine's instance of the partitioned symmetric m-way hash join.
#[derive(Debug)]
pub struct MJoinOperator {
    cfg: MJoinConfig,
    /// `cfg.join_columns` shared across every partition group: creating
    /// a group on first arrival bumps a refcount instead of cloning the
    /// column vector.
    join_columns: Arc<[usize]>,
    groups: FxHashMap<PartitionId, PartitionGroup>,
    window: ProductivityWindow,
    /// Incrementally maintained sum of all resident groups' bytes: the
    /// engine's memory in use, without an O(#groups) walk. Checked
    /// against [`MJoinOperator::recompute_state_bytes`] in tests/debug
    /// asserts.
    state_bytes: usize,
    /// The keyed rows of the batch in hand, empty between batches; kept
    /// for its allocation (see [`recycle`]).
    keyed: Vec<KeyedRow<'static>>,
    /// The one-row batch [`process`](MJoinOperator::process) feeds
    /// through [`process_batch`](MJoinOperator::process_batch).
    one: TupleBatch,
}

impl MJoinOperator {
    /// Build an operator instance. Fails on invalid configuration.
    pub fn new(cfg: MJoinConfig) -> Result<Self> {
        cfg.validate()?;
        let join_columns: Arc<[usize]> = cfg.join_columns.as_slice().into();
        Ok(MJoinOperator {
            cfg,
            join_columns,
            groups: FxHashMap::default(),
            window: ProductivityWindow::new(),
            state_bytes: 0,
            keyed: Vec::new(),
            one: TupleBatch::new(),
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

    /// Prefetch what `keyed`'s insert reaches first in its group
    /// ([`PartitionGroup::prefetch`]), if the group is resident. Looks
    /// the group up without creating it: a row that is never inserted
    /// creates nothing.
    #[inline]
    fn prefetch(&self, keyed: &KeyedRow<'_>) {
        if let Some(group) = self.groups.get(&keyed.row().pid()) {
            group.prefetch(keyed);
        }
    }

    /// Process one input tuple belonging to partition `pid`; results go
    /// to `sink`. Returns the number of results emitted. The tuple is a
    /// one-row [`process_batch`](Self::process_batch).
    pub fn process(
        &mut self,
        pid: PartitionId,
        tuple: Tuple,
        sink: &mut dyn ResultSink,
    ) -> Result<u64> {
        let mut one = std::mem::take(&mut self.one);
        one.clear();
        one.push(pid, tuple);
        let result = self.process_batch(&one, sink);
        self.one = one;
        result
    }

    /// Process a whole batch of routed tuples; results go to `sink`.
    /// Returns the number of results emitted.
    ///
    /// Two steps:
    ///
    /// 1. **Key the batch.** One pass parses each row, checks it against
    ///    the join and decodes and hashes its join key — one walk over
    ///    the row reads its header, its payload size and its key
    ///    (`TupleBatch::keyed_rows`, `KeyedRow::new`) — into a buffer
    ///    the operator keeps across batches.
    /// 2. **Insert, with the entries in flight.** Rows are inserted one
    ///    by one, in arrival order, straight from the batch's encoded
    ///    bytes (`PartitionGroup::insert_row`, which takes the key and
    ///    hash of step 1). Before row `i` is inserted, what row `i + 8`'s
    ///    insert reaches first — its index entry and the ends of its
    ///    stream's columns — is prefetched in its group
    ///    (`PartitionGroup::prefetch`), so the cache misses of
    ///    consecutive rows overlap instead of being paid one after
    ///    another. A prefetch is a hint: whatever the rows between
    ///    change, it changes no result.
    ///
    /// The state-bytes/window update is paid once per batch. There is no
    /// per-partition regrouping: the generator samples a partition per
    /// stream per tick, so consecutive tuples of one batch almost never
    /// share a partition, and tuples of different partitions never
    /// interact — results and state are identical to calling
    /// [`process`](Self::process) per tuple.
    ///
    /// An invalid row ends the batch: the rows before it are inserted
    /// (and accounted), the rest are dropped, and no row from it on
    /// creates a group.
    pub fn process_batch(&mut self, batch: &TupleBatch, sink: &mut dyn ResultSink) -> Result<u64> {
        let mut keyed = recycle(std::mem::take(&mut self.keyed));
        let mut failed = None;
        for (row, key) in batch.keyed_rows(&self.join_columns) {
            match KeyedRow::new(row, key, &self.join_columns) {
                Ok(row) => keyed.push(row),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        for ahead in keyed.iter().take(PREFETCH_AHEAD) {
            self.prefetch(ahead);
        }
        let mut emitted_total = 0u64;
        let mut added_total = 0usize;
        for (i, row) in keyed.iter().enumerate() {
            if let Some(ahead) = keyed.get(i + PREFETCH_AHEAD) {
                self.prefetch(ahead);
            }
            match self.group_mut(row.row().pid()).insert_row(row, sink) {
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
        self.keyed = recycle(keyed);
        // Account for everything inserted even when a mid-batch row
        // failed, so the incremental totals never drift from the state.
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

    /// Remove a group from memory. Returns its snapshot, its carried
    /// `P_output` and the accounted bytes freed (which exceed the
    /// snapshot's own tuple bytes by the per-tuple index overhead).
    ///
    /// A relocation hands `P_output` to the receiver, so the group
    /// resumes its productivity history there. A spill drops it: a
    /// future group under the same ID starts fresh (§3: "new tuples
    /// with the same partition ID may continue to accumulate to form a
    /// new partition group") — unless the write fails, and the victim
    /// goes back through [`MJoinOperator::install_group`] with it.
    pub fn extract_group(&mut self, pid: PartitionId) -> Option<(SpilledGroup, u64, usize)> {
        let group = self.groups.remove(&pid)?;
        let freed = group.bytes();
        self.state_bytes -= freed;
        let (snapshot, output) = group.into_snapshot();
        Some((snapshot, output, freed))
    }

    /// Install a group with its carried `P_output`. The decaying
    /// productivity estimate is not carried: the group ranks by its
    /// cumulative value until its next window closes. Fails if a group
    /// for the partition is already resident (the relocation protocol
    /// moves whole groups, so a double-install indicates a protocol
    /// violation).
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
        self.state_bytes -= freed;
        freed
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

/// `v` emptied, for rows that borrow from another batch. Collecting a
/// vector's own `into_iter` into a vector of an element of the same
/// layout reuses its allocation, so the keyed pass allocates only while
/// its buffer grows to the largest batch yet.
fn recycle<'b>(mut v: Vec<KeyedRow<'_>>) -> Vec<KeyedRow<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, CountingSink};
    use dcape_common::hash::fx_hash;
    use dcape_common::ids::StreamId;
    use dcape_common::time::{VirtualDuration, VirtualTime};
    use dcape_common::tuple::TupleBuilder;
    use dcape_common::value::Value;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn op() -> MJoinOperator {
        MJoinOperator::new(MJoinConfig::same_column(3, 0)).unwrap()
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
        let mut op = op();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            op.process(PartitionId(1), tpl(s, 0, 1), &mut sink).unwrap();
        }
        assert_eq!(sink.count(), 1);
        assert_eq!(op.group_count(), 1);
        assert!(op.state_bytes() > 0);
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
        let mut op = op();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..4 {
                op.process(PartitionId(7), tpl(s, i, 1), &mut sink).unwrap();
            }
        }
        let used_before = op.state_bytes();
        assert!(used_before > 0);
        let (snap, _, freed) = op.extract_group(PartitionId(7)).unwrap();
        assert_eq!(freed, used_before);
        assert_eq!(snap.tuple_count(), 12);
        assert_eq!(op.state_bytes(), 0);
        assert!(!op.has_group(PartitionId(7)));
        // New tuples re-create the group with a fresh history.
        op.process(PartitionId(7), tpl(0, 99, 1), &mut sink)
            .unwrap();
        let stats = op.group_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].output, 0);
    }

    #[test]
    fn extract_install_round_trip_moves_state_and_stats() {
        let (mut a, mut b) = (op(), op());
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            for i in 0..3 {
                a.process(PartitionId(4), tpl(s, i, 1), &mut sink).unwrap();
            }
        }
        let output_before = a.total_output();
        let (snap, carried, freed) = a.extract_group(PartitionId(4)).unwrap();
        assert_eq!(carried, output_before);
        assert_eq!(a.state_bytes(), 0);
        b.install_group(snap, carried).unwrap();
        assert_eq!(b.state_bytes(), freed);
        assert_eq!(b.state_bytes(), b.recompute_state_bytes());
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
        assert!(op.extract_group(PartitionId(9)).is_none());
    }

    /// Window of the windowed runs, in ms.
    const WINDOW_MS: u64 = 40;

    #[derive(Debug, Clone)]
    enum Key {
        /// The key and partition of the row before.
        Again,
        /// One of 24 integers whose hashes share their top 12 bits.
        Colliding(usize),
        /// One of 400 integers: tables fill and grow.
        Wide(i64),
        /// One of 12 text keys.
        Text(u8),
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A row `ahead` ms past the newest, then `late` ms back.
        Row {
            stream: u8,
            pid: u32,
            key: Key,
            ahead: u64,
            late: u64,
        },
        /// End the batch; windowed, purge at `back` ms before the
        /// newest timestamp.
        Pulse { back: u64 },
        /// End the batch, no pulse.
        Cut,
    }

    /// 24 integer keys whose `fx_hash` agree in the top 12 bits, so
    /// they share a home slot in every table of up to 4096 slots.
    fn colliding() -> &'static [i64] {
        static KEYS: OnceLock<Vec<i64>> = OnceLock::new();
        KEYS.get_or_init(|| {
            let top = |k: i64| fx_hash(&Value::Int(k)) >> 52;
            let home = top(0);
            (0..).filter(|&k| top(k) == home).take(24).collect()
        })
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        let row = ((0u8..3, 0u32..6), (0u64..3, 0u64..25));
        ((0u8..40, 0u16..400), row).prop_map(|((roll, k), ((stream, pid), (ahead, late)))| {
            // One step in twenty ends the batch, so batches run to ~20
            // rows, mostly past the prefetch distance.
            let key = match roll {
                0 => {
                    return Step::Pulse {
                        back: u64::from(k) % (2 * WINDOW_MS),
                    }
                }
                1 => return Step::Cut,
                2..=11 => Key::Again,
                12..=21 => Key::Colliding(usize::from(k) % 24),
                22..=35 => Key::Wide(i64::from(k)),
                _ => Key::Text((k % 12) as u8),
            };
            Step::Row {
                stream,
                pid,
                key,
                ahead,
                // One row in five is late.
                late: if late < 20 { 0 } else { late },
            }
        })
    }

    /// Every result as its tuples' text, sorted.
    fn multiset(sink: &CollectingSink) -> Vec<String> {
        let results = sink.results().iter();
        let mut v: Vec<String> = results
            .map(|r| r.iter().map(|t| t.to_string()).collect())
            .collect();
        v.sort();
        v
    }

    fn run(window: Option<u64>, steps: &[Step]) -> Result<(), TestCaseError> {
        let op_on = || {
            let cfg = MJoinConfig::same_column(3, 1);
            let cfg = match window {
                Some(ms) => cfg.with_window(VirtualDuration::from_millis(ms)),
                None => cfg,
            };
            MJoinOperator::new(cfg).unwrap()
        };
        let (mut rows, mut batched, mut counted) = (op_on(), op_on(), op_on());
        let (mut rows_sink, mut batch_sink) = (CollectingSink::new(), CollectingSink::new());
        let mut count_sink = CountingSink::new();
        let mut batch = TupleBatch::new();
        let (mut newest, mut key, mut last_pid) = (0u64, Value::Int(0), 0u32);
        let end = [Step::Cut];
        for (seq, step) in steps.iter().chain(&end).enumerate() {
            match step {
                Step::Row {
                    stream,
                    pid,
                    key: pick,
                    ahead,
                    late,
                } => {
                    let pid = match pick {
                        Key::Again => PartitionId(last_pid),
                        _ => PartitionId(*pid),
                    };
                    last_pid = pid.0;
                    key = match pick {
                        Key::Again => key,
                        Key::Colliding(i) => Value::Int(colliding()[*i]),
                        Key::Wide(k) => Value::Int(*k),
                        Key::Text(k) => Value::text(format!("key-{k}")),
                    };
                    let ts = (newest + ahead).saturating_sub(*late);
                    newest = newest.max(ts);
                    let t = TupleBuilder::new(StreamId(*stream))
                        .seq(seq as u64)
                        .ts(VirtualTime::from_millis(ts))
                        .value(&"payload"[..seq % 7])
                        .value(key.clone())
                        .build();
                    let one = rows.process(pid, t.clone(), &mut rows_sink);
                    prop_assert!(one.is_ok());
                    batch.push(pid, t);
                }
                Step::Pulse { .. } | Step::Cut => {
                    let emitted = batched.process_batch(&batch, &mut batch_sink).unwrap();
                    let counted_emitted = counted.process_batch(&batch, &mut count_sink);
                    prop_assert_eq!(counted_emitted.unwrap(), emitted);
                    batch.clear();
                    prop_assert_eq!(rows.total_output(), batched.total_output());
                    if let (Step::Pulse { back }, Some(_)) = (step, window) {
                        let horizon = VirtualTime::from_millis(newest.saturating_sub(*back));
                        let freed = rows.purge_expired(horizon, |_| false);
                        prop_assert_eq!(batched.purge_expired(horizon, |_| false), freed);
                        prop_assert_eq!(counted.purge_expired(horizon, |_| false), freed);
                    }
                    for op in [&batched, &counted] {
                        prop_assert_eq!(op.state_bytes(), rows.state_bytes());
                        prop_assert_eq!(op.state_bytes(), op.recompute_state_bytes());
                        prop_assert_eq!(op.resident_partitions(), rows.resident_partitions());
                    }
                }
            }
        }
        prop_assert_eq!(batch_sink.len(), rows_sink.len());
        prop_assert_eq!(count_sink.count(), rows_sink.len() as u64);
        prop_assert_eq!(multiset(&batch_sink), multiset(&rows_sink));
        for pid in rows.resident_partitions() {
            let (expected, ..) = rows.extract_group(pid).unwrap();
            prop_assert_eq!(&batched.extract_group(pid).unwrap().0, &expected);
            prop_assert_eq!(&counted.extract_group(pid).unwrap().0, &expected);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: dcape_common::testing::proptest_cases(64),
            ..ProptestConfig::default()
        })]

        /// A batch equals its rows fed one per batch: random batches
        /// through `process_batch`, and the same rows one by one through
        /// `process`, agree on every count, every result and every byte
        /// of state. The batches hold same-key runs, keys whose hashes
        /// share a home slot at every table size the cases reach, groups
        /// that first arrive mid-batch (also after a pulse emptied them),
        /// indexes that grow and sweep mid-batch, and — windowed — the
        /// purge a `tick_with_horizon` pulse runs between two batches.
        /// Each row's index entry and column ends are prefetched eight
        /// rows ahead of its insert, while the rows in between move
        /// slots, lists and columns about: a stale prefetch must change
        /// nothing.
        #[test]
        fn batch_matches_per_tuple_path(
            steps in proptest::collection::vec(step_strategy(), 20..300)
        ) {
            run(None, &steps)?;
            run(Some(WINDOW_MS), &steps)?;
        }
    }

    /// The keyed pass's buffer keeps its allocation from batch to batch.
    #[test]
    fn the_keyed_buffer_is_reused_across_batches() {
        let mut op = op();
        let mut sink = CountingSink::new();
        let mut batch = TupleBatch::new();
        for i in 0..20 {
            batch.push(PartitionId(i as u32 % 4), tpl((i % 3) as u8, i, 1));
        }
        op.process_batch(&batch, &mut sink).unwrap();
        let (ptr, cap) = (op.keyed.as_ptr(), op.keyed.capacity());
        assert!(cap >= 20 && op.keyed.is_empty());
        op.process_batch(&batch, &mut sink).unwrap();
        op.process(PartitionId(1), tpl(0, 99, 1), &mut sink)
            .unwrap();
        assert_eq!((op.keyed.as_ptr(), op.keyed.capacity()), (ptr, cap));
    }

    /// An invalid row ends the batch wherever it sits: at its head,
    /// inside the prefetch distance, past it. The rows before it are
    /// inserted and accounted exactly as the same rows alone would be;
    /// no row from it on is inserted, and none creates a group — the
    /// lookahead only looks groups up.
    #[test]
    fn batch_inserts_valid_prefix_then_errors() {
        // Two ways a row can be refused: a stream the join does not
        // have, and (the join column being 1) a row with one column.
        let bad_stream = |i: u64| tpl2(7, i);
        let no_join_column = |i: u64| tpl(1, i, 1);
        let op_on = || MJoinOperator::new(MJoinConfig::same_column(3, 1)).unwrap();
        for bad in [bad_stream, no_join_column] {
            for at in [0, 3, PREFETCH_AHEAD + 4] {
                // The valid prefix alternates two groups; the bad row
                // and every row behind it but one in four go to groups
                // of their own.
                let pid = |i: usize| match i {
                    _ if i < at => PartitionId(3 + (i % 2) as u32),
                    _ if i.is_multiple_of(4) => PartitionId(3),
                    _ => PartitionId(100 + i as u32),
                };
                // The reference: the valid prefix alone.
                let mut prefix = op_on();
                let mut prefix_sink = CountingSink::new();
                let mut op = op_on();
                let mut sink = CountingSink::new();
                let mut batch = TupleBatch::new();
                for i in 0..at + 2 * PREFETCH_AHEAD {
                    let t = if i == at {
                        bad(i as u64)
                    } else {
                        tpl2((i % 3) as u8, i as u64)
                    };
                    if i < at {
                        prefix.process(pid(i), t.clone(), &mut prefix_sink).unwrap();
                    }
                    batch.push(pid(i), t);
                }
                assert!(
                    op.process_batch(&batch, &mut sink).is_err(),
                    "bad row at {at} reported"
                );
                assert_eq!(op.resident_partitions(), prefix.resident_partitions());
                // Valid prefix inserted, tail dropped, and state bytes
                // and productivity window account exactly that.
                assert_eq!(sink.count(), prefix_sink.count());
                assert_eq!(sink.count() > 0, at > 3, "the prefix joins");
                assert_eq!(op.total_output(), prefix.total_output());
                assert_eq!(op.state_bytes(), prefix.state_bytes());
                assert_eq!(op.state_bytes(), op.recompute_state_bytes());
                for pid in prefix.resident_partitions() {
                    let (expected, ..) = prefix.extract_group(pid).unwrap();
                    assert_eq!(op.extract_group(pid).unwrap().0, expected);
                }
            }
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
        let (snap, ..) = op.extract_group(PartitionId(1)).unwrap();
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
        op.install_group(snap, 0).unwrap();
        assert_eq!(op.state_bytes(), op.recompute_state_bytes());
        let (snap2, carried, _) = op.extract_group(PartitionId(2)).unwrap();
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
