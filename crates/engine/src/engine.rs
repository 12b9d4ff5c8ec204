//! The query engine: one machine of the paper's distributed system.
//!
//! Wires together the m-way join instance and the spill store, and is
//! the paper's *local adaptation controller* (§2, Tables 1–2, the QE
//! halves of Algorithms 1–2): it holds the engine's execution [`Mode`]
//! and the `ss_timer`, and picks the groups to spill or move by itself,
//! which keeps these local decisions out of the global coordinator. Its
//! memory in use is the join's one running total of accounted state
//! bytes ([`MJoinOperator::state_bytes`]). The cluster layer drives a
//! [`QueryEngine`] through five entry points:
//!
//! * [`QueryEngine::process`] — data path;
//! * [`QueryEngine::tick`] — the `ss_timer` pulse (local spill trigger,
//!   `computeSpillAmount` and the victim policy);
//! * [`QueryEngine::force_spill`] — the `start_ss` command of the
//!   active-disk strategy (Algorithm 2);
//! * [`QueryEngine::select_parts_to_move`] (`computePartsToMove`) /
//!   [`QueryEngine::extract_groups`] / [`QueryEngine::install_groups`] —
//!   the state hand-off of a relocation; the round around it (its id,
//!   the retained copy, the uncommitted install, who owns a partition
//!   afterwards) is the cluster's engine handler's, not the engine's;
//! * [`QueryEngine::cleanup`] — the post-run cleanup phase.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashSet;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_metrics::journal::{AdaptEvent, EngineStatsReport, JournalHandle, SpillTrigger};
use dcape_storage::{DiskModel, SpillBackend, SpillStore, SpilledGroup};

use crate::config::EngineConfig;
use crate::operators::mjoin::MJoinOperator;
use crate::sink::ResultSink;
use crate::spill::cleanup::SegmentMerger;
use crate::spill::policy::take_until_bytes;
use crate::state::partition_group::PER_TUPLE_OVERHEAD;
use crate::state::productivity::sort_most_productive_first;

// The cleanup calibration, against §3.2's cleanup numbers: ~993 K
// missing results took ~359 s => ~360 µs/result end-to-end including
// merge scans; that is split between a scan and an emit term.
/// Microseconds of virtual time per tuple scanned during cleanup.
const CLEANUP_SCAN_US_PER_TUPLE: u64 = 50;
/// Microseconds of virtual time per missing result produced.
const CLEANUP_EMIT_US_PER_RESULT: u64 = 300;
/// The disk every spill write and cleanup read is charged on.
const DISK: DiskModel = DiskModel::default_2006();

/// Execution modes of a query engine (Table 2). A spill runs inside one
/// synchronous call and leaves the mode as it found it, so the paper's
/// `ss_mode` has no variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Normal query plan execution; no adaptation in progress.
    #[default]
    Normal,
    /// This engine participates in a state-relocation protocol round
    /// (`sr_mode`): no spill check and no reactivation touch its state
    /// until the round is over. The cluster's engine handler sets it
    /// at `Cptv`, `SendStates` and `InstallStates` and clears it once
    /// the engine keeps no copy and no uncommitted install of a round.
    Relocation,
}

/// Result of one spill adaptation on one engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillOutcome {
    /// When the spill ran.
    pub at: VirtualTime,
    /// Partition groups pushed.
    pub groups: Vec<PartitionId>,
    /// Accounted state bytes freed.
    pub state_bytes: u64,
    /// Physically encoded bytes written.
    pub encoded_bytes: u64,
    /// Virtual-time disk cost of the writes.
    pub io_cost: VirtualDuration,
}

/// Result of the cleanup phase on one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CleanupReport {
    /// Partitions that had disk-resident segments.
    pub partitions: usize,
    /// Missing results produced.
    pub missing_results: u64,
    /// Tuples scanned during merging.
    pub scanned_tuples: u64,
    /// Accounted state bytes read back from disk.
    pub disk_state_bytes_read: u64,
    /// Modeled virtual-time cost of the whole cleanup (I/O + compute).
    pub virtual_cost: VirtualDuration,
}

/// One partition group in transit during relocation: the state
/// snapshot, its accumulated `P_output`, and whether the partition must
/// stay purge-protected on the receiver (spill segments left behind on
/// the sender still owe cross-slice cleanup results).
pub type ExtractedGroup = (SpilledGroup, u64, bool);

/// One machine's query engine.
#[derive(Debug)]
pub struct QueryEngine {
    id: EngineId,
    cfg: EngineConfig,
    join: MJoinOperator,
    store: SpillStore,
    mode: Mode,
    /// When the spill check next runs (Algorithm 1, `ss_timer_expired`).
    ss_timer: PeriodicTimer,
    rng: StdRng,
    spill_history: Vec<SpillOutcome>,
    journal: JournalHandle,
    /// Latest virtual time seen at a timed entry point; timestamps
    /// journal events from untimed paths (cleanup, reactivation).
    clock: VirtualTime,
    /// Cluster-wide purge protection: partitions whose disk-resident
    /// spill segments live on *another* engine (flagged during
    /// relocation install). Their memory tuples still owe cross-slice
    /// cleanup results, so the window purge must skip them just as it
    /// skips locally-spilled partitions.
    purge_protect: FxHashSet<PartitionId>,
}

impl QueryEngine {
    /// Build an engine over the given spill backend.
    pub fn new(id: EngineId, cfg: EngineConfig, backend: Box<dyn SpillBackend>) -> Result<Self> {
        cfg.validate()?;
        Ok(QueryEngine {
            rng: StdRng::seed_from_u64(0xE_0DD + id.0 as u64),
            id,
            join: MJoinOperator::new(cfg.join.clone())?,
            store: SpillStore::new(backend),
            mode: Mode::Normal,
            ss_timer: PeriodicTimer::new(cfg.ss_timer, VirtualTime::ZERO),
            cfg,
            spill_history: Vec::new(),
            journal: JournalHandle::disabled(),
            clock: VirtualTime::ZERO,
            purge_protect: FxHashSet::default(),
        })
    }

    /// Convenience: engine with an in-memory spill backend — for unit
    /// tests, examples and the benchmark's walk; a runtime's engines
    /// spill to a [`dcape_storage::FileBackend`].
    pub fn in_memory(id: EngineId, cfg: EngineConfig) -> Result<Self> {
        Self::new(id, cfg, Box::new(dcape_storage::MemBackend::new()))
    }

    /// This engine's ID.
    pub fn id(&self) -> EngineId {
        self.id
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Transition execution mode (driven by the relocation protocol,
    /// Algorithm 1 lines 13–20, 27–31).
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// Accounted memory in use: the join's resident state bytes.
    pub fn memory_used(&self) -> u64 {
        self.join.state_bytes() as u64
    }

    /// What the resident state's columns and arena pages occupy in the
    /// heap, slack included — to hold against
    /// [`memory_used`](Self::memory_used), which is what the engine acts
    /// on.
    pub fn state_reserved_bytes(&self) -> u64 {
        self.join.state_reserved_bytes() as u64
    }

    /// Total results produced.
    pub fn total_output(&self) -> u64 {
        self.join.total_output()
    }

    /// The join operator (read access for drivers and tests).
    pub fn join(&self) -> &MJoinOperator {
        &self.join
    }

    /// The spill store (read access).
    pub fn store(&self) -> &SpillStore {
        &self.store
    }

    /// Spill operations performed so far.
    pub fn spill_history(&self) -> &[SpillOutcome] {
        &self.spill_history
    }

    /// Attach an adaptation-event journal. Engines start with a
    /// disabled handle; drivers install a real one per engine so the
    /// runtimes can merge per-engine timelines afterwards.
    pub fn attach_journal(&mut self, journal: JournalHandle) {
        self.journal = journal;
    }

    /// The attached journal handle (cloneable, possibly disabled).
    pub fn journal(&self) -> &JournalHandle {
        &self.journal
    }

    /// Process one routed tuple. Returns the number of results emitted.
    pub fn process(
        &mut self,
        pid: PartitionId,
        tuple: Tuple,
        sink: &mut dyn ResultSink,
    ) -> Result<u64> {
        self.journal.add_tuples_routed(1);
        self.join.process(pid, tuple, sink)
    }

    /// Process a whole batch of routed tuples. Returns the number of
    /// results emitted. Counter updates are amortized to one per batch;
    /// results and state are identical to calling
    /// [`QueryEngine::process`] per tuple.
    ///
    /// The batch is only read, so it is taken by value or by reference:
    /// a driver that refills the same buffers every tick passes
    /// `&batch` and clears it afterwards.
    pub fn process_batch(
        &mut self,
        batch: impl std::borrow::Borrow<TupleBatch>,
        sink: &mut dyn ResultSink,
    ) -> Result<u64> {
        let batch = batch.borrow();
        self.journal.add_tuples_routed(batch.len() as u64);
        self.join.process_batch(batch, sink)
    }

    /// The `ss_timer` pulse: purge window-expired state (windowed
    /// queries only), then spill if memory exceeded the threshold and
    /// the engine is in normal mode (Algorithm 1, events at QE).
    ///
    /// Purges at `now` — callers that track an in-flight watermark use
    /// [`QueryEngine::tick_with_horizon`] instead.
    pub fn tick(&mut self, now: VirtualTime) -> Result<Option<SpillOutcome>> {
        self.tick_with_horizon(now, now)
    }

    /// The `ss_timer` pulse with a watermark-driven purge horizon:
    /// purge window-expired state up to `horizon` (which lags `now`
    /// while tuples sit buffered at paused splits), then run the spill
    /// check at `now`. `horizon == now` is the plain clock-driven
    /// behavior.
    ///
    /// The check is Algorithm 1's `ss_timer_expired` handler: once the
    /// timer has expired it restarts, and the engine spills
    /// `computeSpillAmount` — `spill_fraction` of the memory in use,
    /// rounded up — if memory exceeds the threshold and it is in normal
    /// mode ("else don't spill now, wait until next timer expires").
    pub fn tick_with_horizon(
        &mut self,
        now: VirtualTime,
        horizon: VirtualTime,
    ) -> Result<Option<SpillOutcome>> {
        self.clock = self.clock.max(now);
        self.purge_at(horizon);
        if !self.ss_timer.expired(now) {
            return Ok(None);
        }
        self.ss_timer.reset(now);
        let used = self.memory_used();
        if used <= self.cfg.spill_threshold || self.mode != Mode::Normal {
            return Ok(None);
        }
        let amount = self.spill_amount(used);
        Ok(Some(self.spill_bytes(
            amount,
            now,
            SpillTrigger::MemoryThreshold,
        )?))
    }

    /// `computeSpillAmount`: `spill_fraction` (the `k%` of Figures 5/6)
    /// of the memory in use, rounded up.
    fn spill_amount(&self, used: u64) -> u64 {
        ((used as f64) * self.cfg.spill_fraction).ceil() as u64
    }

    /// Purge window-expired state up to `horizon` only — no spill
    /// check, no mode side effects. Used for the catch-up purge when a
    /// relocation's `Resume` releases a held-back watermark. Returns
    /// the accounted bytes freed (0 for unwindowed queries).
    ///
    /// Skipped: partitions with disk-resident segments *here*, and
    /// those whose segments live on another engine after a relocation
    /// (`purge_protect`) — asked per resident group, nothing is built
    /// per pulse.
    pub fn purge_at(&mut self, horizon: VirtualTime) -> usize {
        let (store, protect) = (&self.store, &self.purge_protect);
        self.join.purge_expired(horizon, |pid| {
            !store.segments_of(pid).is_empty() || protect.contains(&pid)
        })
    }

    /// The active-disk `start_ss` command: spill `amount` bytes now,
    /// regardless of the local threshold (Algorithm 2, lines 24–27).
    pub fn force_spill(&mut self, amount: u64, now: VirtualTime) -> Result<SpillOutcome> {
        self.clock = self.clock.max(now);
        self.spill_bytes(amount, now, SpillTrigger::Forced)
    }

    fn spill_bytes(
        &mut self,
        amount: u64,
        now: VirtualTime,
        trigger: SpillTrigger,
    ) -> Result<SpillOutcome> {
        let victims = self.cfg.victim_policy.select_victims(
            self.join.group_stats_with(self.cfg.estimator),
            amount,
            &mut self.rng,
        );
        let mut outcome = SpillOutcome {
            at: now,
            groups: Vec::with_capacity(victims.len()),
            state_bytes: 0,
            encoded_bytes: 0,
            io_cost: VirtualDuration::ZERO,
        };
        // A write that fails (a full disk, an unusable temp directory)
        // ends the spill: that victim goes back into memory (rows,
        // `P_output`, accounting; `install_group` says what does not),
        // the victims before it stay spilled and are journaled as the
        // spill that happened — nothing is, if there were none — and
        // the caller gets the error.
        let mut failed = None;
        for pid in victims {
            let Some((snapshot, output, freed)) = self.join.extract_group(pid) else {
                continue;
            };
            let meta = match self.store.spill_group(&snapshot) {
                Ok(meta) => meta,
                Err(e) => {
                    self.join.install_group(snapshot, output)?;
                    failed = Some(e);
                    break;
                }
            };
            outcome.groups.push(pid);
            outcome.state_bytes += freed as u64;
            outcome.encoded_bytes += meta.encoded_bytes;
            outcome.io_cost = outcome.io_cost + DISK.io_cost(meta.state_bytes);
        }
        if let Some(e) = failed.take_if(|_| outcome.groups.is_empty()) {
            return Err(e);
        }
        self.journal.add_spill_bytes(outcome.state_bytes);
        self.journal.add_spill_bytes_written(outcome.encoded_bytes);
        self.journal.record(
            now,
            AdaptEvent::SpillDecision {
                engine: self.id,
                trigger,
                groups: outcome.groups.clone(),
                state_bytes: outcome.state_bytes,
                encoded_bytes: outcome.encoded_bytes,
                memory_used: self.memory_used(),
            },
        );
        self.spill_history.push(outcome.clone());
        failed.map_or(Ok(outcome), Err)
    }

    /// `computePartsToMove`: the most productive groups up to `amount`
    /// bytes (the local half of the relocation decision). Productive
    /// partitions stay in (some machine's) main memory, per the
    /// lazy-disk design (§5.1).
    pub fn select_parts_to_move(&self, amount: u64) -> Vec<PartitionId> {
        let mut stats = self.join.group_stats_with(self.cfg.estimator);
        sort_most_productive_first(&mut stats);
        take_until_bytes(&stats, amount)
    }

    /// Extract the given groups for relocation (releases their memory).
    /// Unknown partitions are skipped — they may have been spilled
    /// between selection and extraction.
    ///
    /// The third element is the cluster-wide purge-protect flag: true
    /// when this engine still holds disk-resident segments for the
    /// partition (they stay behind — only memory state relocates), or
    /// when the partition was itself installed here with protection
    /// from an earlier round (protection is transitive across chained
    /// relocations). The receiver must keep such partitions out of its
    /// window purge until cleanup.
    pub fn extract_groups(&mut self, pids: &[PartitionId]) -> Vec<ExtractedGroup> {
        pids.iter()
            .filter_map(|pid| {
                let (snapshot, output, _) = self.join.extract_group(*pid)?;
                let protect =
                    !self.store.segments_of(*pid).is_empty() || self.purge_protect.remove(pid);
                Some((snapshot, output, protect))
            })
            .collect()
    }

    /// Install relocated groups arriving from another engine. Groups
    /// flagged purge-protected (segments left behind on the sender)
    /// join this engine's protected set.
    pub fn install_groups(&mut self, groups: Vec<ExtractedGroup>) -> Result<()> {
        for (snapshot, output, protect) in groups {
            if protect {
                self.purge_protect.insert(snapshot.partition);
            }
            self.join.install_group(snapshot, output)?;
        }
        Ok(())
    }

    /// Produce the periodic statistics report for the coordinator and
    /// start a fresh sampling window.
    pub fn report(&mut self, now: VirtualTime) -> EngineStatsReport {
        self.clock = self.clock.max(now);
        // The stats cadence doubles as the per-group sampling window
        // for the decaying productivity estimator.
        if let crate::state::productivity::ProductivityEstimator::Decaying { alpha } =
            self.cfg.estimator
        {
            self.join.close_productivity_windows(alpha);
        }
        EngineStatsReport {
            engine: self.id,
            at: now,
            memory_used: self.memory_used(),
            num_groups: self.join.group_count(),
            window_output: self.join.window_mut().take_window(),
            total_output: self.join.total_output(),
        }
    }

    /// Partitions with disk-resident segments on this engine (sorted).
    pub fn spilled_partitions(&self) -> Vec<PartitionId> {
        self.store.partitions_with_segments()
    }

    /// Take (read + remove) all disk-resident segments of one partition,
    /// in spill order — a partition's segments may live on a different
    /// engine than its current owner after relocations, and this is how
    /// they are gathered to be forwarded.
    pub fn take_spilled_segments(&mut self, pid: PartitionId) -> Result<Vec<SpilledGroup>> {
        self.journal_reads(|store| store.take_segments(pid))
    }

    /// Take (read + remove) the oldest disk-resident segment of one
    /// partition, `None` once it has none left: what a cleanup merge
    /// pulls, so that one decoded segment is held at a time.
    pub fn take_spilled_segment(&mut self, pid: PartitionId) -> Result<Option<SpilledGroup>> {
        self.journal_reads(|store| store.take_segment(pid))
    }

    /// Run a read-back on the store with the physically read encoded
    /// bytes journaled (every disk read-back path funnels through here).
    fn journal_reads<T>(&mut self, read: impl FnOnce(&mut SpillStore) -> Result<T>) -> Result<T> {
        let before = self.store.stats().encoded_bytes_read;
        let taken = read(&mut self.store);
        self.journal
            .add_spill_bytes_read(self.store.stats().encoded_bytes_read - before);
        taken
    }

    /// Read access to a partition's segment metadata (cost accounting).
    pub fn spilled_segment_metas(&self, pid: PartitionId) -> &[dcape_storage::SegmentMeta] {
        self.store.segments_of(pid)
    }

    /// Import segments that another engine spilled for a partition this
    /// engine owns (distributed cleanup: segments are forwarded to the
    /// owner before the parallel merge). Order among slices does not
    /// affect the merge's correctness — slices are disjoint
    /// co-residency epochs.
    ///
    /// Storing a forwarded segment is not a spill: `spill_bytes_written`
    /// stays what spill adaptations wrote (the denominator of the
    /// compression ratio), and the hand-off shows as the segment's two
    /// read-backs — one to forward it, one to merge it — in
    /// `spill_bytes_read`.
    pub fn import_segments(&mut self, segments: Vec<SpilledGroup>) -> Result<()> {
        for segment in segments {
            self.store.spill_group(&segment)?;
        }
        Ok(())
    }

    /// Run the cleanup phase over every partition with disk-resident
    /// segments, merging in the memory-resident group where present and
    /// emitting the missing results into `sink`.
    pub fn cleanup(&mut self, sink: &mut dyn ResultSink) -> Result<CleanupReport> {
        let mut report = CleanupReport::default();
        for pid in self.store.partitions_with_segments() {
            let (partition, _) = self.merge_partition(pid, false, sink)?;
            report.partitions += 1;
            report.missing_results += partition.missing_results;
            report.scanned_tuples += partition.scanned_tuples;
            report.disk_state_bytes_read += partition.disk_state_bytes_read;
            report.virtual_cost = report.virtual_cost + partition.virtual_cost;
        }
        report.virtual_cost = report.virtual_cost + Self::merge_compute_cost(&report);
        Ok(report)
    }

    /// Modeled compute time of the merges `report` sums up.
    ///
    /// The run-time phase is input-paced (30 ms ≫ per-tuple work on the
    /// paper's hardware), so run-time processing is free in virtual
    /// time; the cleanup phase, however, is *compute*-paced — the paper
    /// reports its duration in seconds — so cleanup work is charged per
    /// scanned tuple and per produced result, alongside the disk I/O
    /// [`DISK`] charges.
    fn merge_compute_cost(report: &CleanupReport) -> VirtualDuration {
        let compute_us = report.scanned_tuples * CLEANUP_SCAN_US_PER_TUPLE
            + report.missing_results * CLEANUP_EMIT_US_PER_RESULT;
        VirtualDuration::from_millis(compute_us / 1000)
    }

    /// Merge partition `pid`'s disk-resident segments, pulled one at a
    /// time, with its memory-resident group (which leaves memory), emit
    /// the missing results into `sink`, and journal the merge. The
    /// report's cost covers the I/O only. With `keep_state` also returns
    /// everything merged as one group, and the resident group's output
    /// count.
    fn merge_partition(
        &mut self,
        pid: PartitionId,
        keep_state: bool,
        sink: &mut dyn ResultSink,
    ) -> Result<(CleanupReport, Option<(SpilledGroup, u64)>)> {
        let mut report = CleanupReport {
            partitions: 1,
            ..CleanupReport::default()
        };
        // Disk I/O cost, from metadata (before consuming them).
        for meta in self.store.segments_of(pid) {
            report.virtual_cost = report.virtual_cost + DISK.io_cost(meta.state_bytes);
            report.disk_state_bytes_read += meta.state_bytes;
        }
        let join_columns = self.cfg.join.join_columns.clone();
        let mut merger = SegmentMerger::new(&join_columns, self.cfg.join.window, keep_state);
        if keep_state || sink.wants_rows() {
            while let Some(segment) = self.take_spilled_segment(pid)? {
                merger.push(segment, sink)?;
            }
        } else {
            // Nothing will read a row: decode only what a count reads.
            while let Some(keys) =
                self.journal_reads(|store| store.take_segment_keys(pid, &join_columns))?
            {
                merger.push_keys(keys, sink)?;
            }
        }
        let mut carried_output = 0;
        if let Some((resident, output, _)) = self.join.extract_group(pid) {
            carried_output = output;
            merger.push(resident, sink)?;
        }
        let outcome = merger.outcome();
        report.missing_results = outcome.missing_results;
        report.scanned_tuples = outcome.scanned_tuples;
        self.journal.record(
            self.clock,
            AdaptEvent::CleanupPhase {
                engine: self.id,
                group: pid,
                missing_results: outcome.missing_results,
                scanned_tuples: outcome.scanned_tuples,
                disk_bytes_read: report.disk_state_bytes_read,
            },
        );
        let merged = if keep_state {
            merger.into_group()?.map(|group| (group, carried_output))
        } else {
            None
        };
        Ok((report, merged))
    }

    /// Run-time reactivation of one spilled partition (§3: "this state
    /// cleanup process can be performed at any time when memory becomes
    /// available"): merge the partition's disk-resident segments with
    /// its memory-resident group, emit the missing results into `sink`,
    /// and install the fully merged group back in memory — the
    /// partition becomes *active* again.
    ///
    /// Returns `None` if the partition has no disk-resident segments.
    /// Callers are responsible for checking that memory headroom exists.
    pub fn reactivate_partition(
        &mut self,
        pid: PartitionId,
        sink: &mut dyn ResultSink,
    ) -> Result<Option<CleanupReport>> {
        if self.store.segments_of(pid).is_empty() {
            return Ok(None);
        }
        // What the merge accumulated is the partition's whole state.
        let (mut report, merged) = self.merge_partition(pid, true, sink)?;
        report.virtual_cost = report.virtual_cost + Self::merge_compute_cost(&report);
        let (merged, carried_output) = merged.expect("the partition had segments");
        self.join
            .install_group(merged, carried_output + report.missing_results)?;
        Ok(Some(report))
    }

    /// Opportunistic run-time reactivation: when the configured
    /// watermark is set, the engine is in normal mode (like the spill
    /// check, it does not adapt locally while a relocation round holds
    /// groups of it in flight) and memory is comfortably below the
    /// spill threshold, pick the smallest spilled partition whose merged
    /// state fits under the threshold and reactivate it. At most one
    /// partition per call (the runtimes call this on the clock pulse).
    ///
    /// A partition's segments come back at what an installed group is
    /// charged: their tuples' accounted bytes plus the per-tuple index
    /// overhead ([`PER_TUPLE_OVERHEAD`]) each. Its resident group, if
    /// any, is already counted in the memory in use.
    ///
    /// Only partitions `owns` accepts are candidates: segments stay
    /// behind when a partition's memory state relocates, and merging
    /// them here would strand a group on a non-owner, out of the
    /// owner's cleanup merge.
    pub fn maybe_reactivate(
        &mut self,
        owns: impl Fn(PartitionId) -> bool,
        sink: &mut dyn ResultSink,
    ) -> Result<Option<CleanupReport>> {
        let Some(watermark) = self.cfg.reactivate_watermark else {
            return Ok(None);
        };
        if self.mode != Mode::Normal {
            return Ok(None);
        }
        let threshold = self.cfg.spill_threshold;
        let used = self.memory_used();
        if used as f64 >= threshold as f64 * watermark {
            return Ok(None);
        }
        // Smallest spilled partition (by resident cost) that fits back
        // under the threshold — among those this engine owns.
        let candidate = self
            .store
            .partitions_with_segments()
            .into_iter()
            .filter(|pid| owns(*pid))
            .map(|pid| {
                let bytes: u64 = self
                    .store
                    .segments_of(pid)
                    .iter()
                    .map(|m| m.state_bytes + m.tuples * PER_TUPLE_OVERHEAD as u64)
                    .sum();
                (bytes, pid)
            })
            .filter(|(bytes, _)| used + bytes < threshold)
            .min();
        match candidate {
            Some((_, pid)) => self.reactivate_partition(pid, sink),
            None => Ok(None),
        }
    }

    /// Debug-only accounting drift check: recompute state bytes from
    /// scratch and compare with the incremental total.
    pub fn assert_accounting_consistent(&self) -> Result<()> {
        let recomputed = self.join.recompute_state_bytes() as u64;
        let incremental = self.memory_used();
        if recomputed != incremental {
            return Err(DcapeError::state(format!(
                "incremental state-bytes drift on {}: incremental {incremental}, recomputed {recomputed}",
                self.id
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::sink::{CollectingSink, CountingSink};
    use crate::spill::policy::VictimPolicy;
    use dcape_common::ids::StreamId;
    use dcape_common::testing::ReferenceJoin;
    use dcape_common::tuple::TupleBuilder;

    fn tpl(stream: u8, seq: u64, key: i64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq * 30))
            .value(key)
            .pad(100)
            .build()
    }

    fn engine(budget: u64, threshold: u64) -> QueryEngine {
        QueryEngine::in_memory(EngineId(0), EngineConfig::three_way(budget, threshold)).unwrap()
    }

    fn fill(e: &mut QueryEngine, keys: i64, reps: u64) -> u64 {
        let mut sink = CountingSink::new();
        for rep in 0..reps {
            for key in 0..keys {
                for s in 0..3u8 {
                    e.process(
                        PartitionId((key % 4) as u32),
                        tpl(s, rep * keys as u64 + key as u64, key),
                        &mut sink,
                    )
                    .unwrap();
                }
            }
        }
        sink.count()
    }

    #[test]
    fn process_and_account() {
        let mut e = engine(1 << 20, 1 << 19);
        let results = fill(&mut e, 8, 3);
        assert!(results > 0);
        assert_eq!(e.total_output(), results);
        e.assert_accounting_consistent().unwrap();
        assert!(e.memory_used() > 0);
    }

    #[test]
    fn tick_spills_when_over_threshold() {
        // Tiny threshold so a few tuples overflow it.
        let mut e = engine(1 << 20, 512);
        fill(&mut e, 8, 4);
        assert!(e.memory_used() > 512);
        let outcome = e
            .tick(VirtualTime::from_secs(10))
            .unwrap()
            .expect("spill should trigger");
        assert!(!outcome.groups.is_empty());
        assert!(outcome.state_bytes > 0);
        let charged: u64 = (outcome.groups.iter())
            .flat_map(|&pid| e.store().segments_of(pid))
            .map(|meta| 8 + meta.state_bytes.div_ceil(60_000))
            .sum();
        assert_eq!(outcome.io_cost.as_millis(), charged);
        assert_eq!(e.spill_history().len(), 1);
        assert_eq!(e.store().segment_count(), outcome.groups.len());
        e.assert_accounting_consistent().unwrap();
        // Below-threshold tick does nothing.
        let mut quiet = engine(1 << 20, 1 << 19);
        fill(&mut quiet, 2, 1);
        assert!(quiet.tick(VirtualTime::from_secs(10)).unwrap().is_none());
    }

    /// The spill check runs only when the `ss_timer` has expired, and
    /// an expiry restarts the timer whether or not it spills.
    #[test]
    fn the_ss_timer_gates_the_spill_check_and_restarts_on_expiry() {
        // Over the threshold before the first expiry: no check yet.
        let mut early = engine(1 << 20, 512);
        fill(&mut early, 8, 4);
        assert!(early.memory_used() > 512);
        assert!(early.tick(VirtualTime::from_secs(1)).unwrap().is_none());
        assert!(early.tick(VirtualTime::from_secs(5)).unwrap().is_some());

        let mut e = engine(1 << 20, 8 << 10);
        fill(&mut e, 4, 1);
        assert!(e.memory_used() < 8 << 10);
        // Expired at 5 s, under the threshold: no spill, timer restarts.
        assert!(e.tick(VirtualTime::from_secs(5)).unwrap().is_none());
        fill(&mut e, 8, 8);
        assert!(e.memory_used() > 8 << 10);
        // Restarted at 5 s, so not expired at 6 s or 9 s.
        assert!(e.tick(VirtualTime::from_secs(6)).unwrap().is_none());
        assert!(e.tick(VirtualTime::from_secs(9)).unwrap().is_none());
        assert!(e.spill_history().is_empty());
        // Expired again at 10 s and over the threshold.
        assert!(e.tick(VirtualTime::from_secs(10)).unwrap().is_some());
    }

    /// A pulse over the threshold in relocation mode does not spill (it
    /// waits for the next expiry); the next one in normal mode does.
    #[test]
    fn no_threshold_spill_while_relocating() {
        let mut e = engine(1 << 20, 512);
        fill(&mut e, 8, 4);
        e.set_mode(Mode::Relocation);
        assert!(e.tick(VirtualTime::from_secs(10)).unwrap().is_none());
        assert!(e.spill_history().is_empty());
        e.set_mode(Mode::Normal);
        assert!(e.tick(VirtualTime::from_secs(20)).unwrap().is_some());
    }

    /// `computeSpillAmount` is `spill_fraction` of the memory in use,
    /// rounded up.
    #[test]
    fn spill_amount_is_the_fraction_of_used_rounded_up() {
        let e = engine(1 << 20, 1 << 19);
        assert_eq!(e.config().spill_fraction, 0.3);
        assert_eq!(e.spill_amount(1000), 300);
        assert_eq!(e.spill_amount(1001), 301);
        assert_eq!(e.spill_amount(1), 1);
        assert_eq!(e.spill_amount(0), 0);
    }

    /// `computePartsToMove` takes the most productive groups first.
    #[test]
    fn parts_to_move_prefer_productive_groups() {
        let mut e = engine(1 << 20, 1 << 19);
        let mut sink = CountingSink::new();
        // Three groups of equal size: partition 0's keys never match
        // (no output), partition 1's always do (27 results), partition
        // 2's once per key (3 results).
        for i in 0..3u64 {
            for s in 0..3u8 {
                let seq = i * 3 + s as u64;
                e.process(PartitionId(0), tpl(s, seq, 100 + seq as i64), &mut sink)
                    .unwrap();
                e.process(PartitionId(1), tpl(s, seq, 1), &mut sink)
                    .unwrap();
                e.process(PartitionId(2), tpl(s, seq, 10 + i as i64), &mut sink)
                    .unwrap();
            }
        }
        let stats = e.join().group_stats();
        assert!(stats.iter().all(|g| g.bytes == stats[0].bytes));
        let outputs: Vec<u64> = stats.iter().map(|g| g.output).collect();
        assert_eq!(outputs, [0, 27, 3]);
        let one_and_a_half = stats[0].bytes as u64 * 3 / 2;
        assert_eq!(
            e.select_parts_to_move(one_and_a_half),
            [PartitionId(1), PartitionId(2)]
        );
    }

    #[test]
    fn force_spill_ignores_threshold() {
        let mut e = engine(1 << 20, 1 << 19);
        fill(&mut e, 8, 2);
        let used = e.memory_used();
        let outcome = e.force_spill(used / 2, VirtualTime::from_secs(1)).unwrap();
        assert!(outcome.state_bytes >= used / 2);
        assert!(e.memory_used() < used);
    }

    #[test]
    fn relocation_extract_install_round_trip() {
        let mut a = engine(1 << 20, 1 << 19);
        let mut b = engine(1 << 20, 1 << 19);
        fill(&mut a, 8, 2);
        let amount = a.memory_used() / 2;
        let parts = a.select_parts_to_move(amount);
        assert!(!parts.is_empty());
        let groups = a.extract_groups(&parts);
        assert_eq!(groups.len(), parts.len());
        let moved_bytes: u64 = groups.iter().map(|(g, _, _)| g.state_bytes() as u64).sum();
        b.install_groups(groups).unwrap();
        assert!(moved_bytes > 0);
        a.assert_accounting_consistent().unwrap();
        b.assert_accounting_consistent().unwrap();
        for pid in &parts {
            assert!(b.join().has_group(*pid));
            assert!(!a.join().has_group(*pid));
        }
    }

    #[test]
    fn report_closes_sampling_window() {
        let mut e = engine(1 << 20, 1 << 19);
        let produced = fill(&mut e, 4, 3);
        let r1 = e.report(VirtualTime::from_secs(1));
        assert_eq!(r1.window_output, produced);
        assert_eq!(r1.total_output, produced);
        assert_eq!(r1.engine, EngineId(0));
        // Fresh window is empty.
        let r2 = e.report(VirtualTime::from_secs(2));
        assert_eq!(r2.window_output, 0);
        assert_eq!(r2.total_output, produced);
    }

    /// The central correctness property: run-time results + cleanup
    /// results together equal the reference join, with no duplicates,
    /// regardless of spills in between.
    #[test]
    fn spill_plus_cleanup_equals_reference_join() {
        let cfg =
            EngineConfig::three_way(1 << 20, 1 << 19).with_policy(VictimPolicy::LeastProductive);
        let mut e =
            QueryEngine::new(EngineId(1), cfg, Box::new(dcape_storage::MemBackend::new())).unwrap();
        let mut runtime_sink = CollectingSink::new();
        let mut all_tuples: Vec<Tuple> = Vec::new();
        let mut seq = 0u64;
        // Interleave processing with forced spills.
        for round in 0..6 {
            for key in 0..6i64 {
                for s in 0..3u8 {
                    let t = tpl(s, seq, key);
                    seq += 1;
                    all_tuples.push(t.clone());
                    e.process(PartitionId((key % 3) as u32), t, &mut runtime_sink)
                        .unwrap();
                }
            }
            if round % 2 == 1 {
                e.force_spill(e.memory_used() / 2, VirtualTime::from_secs(round))
                    .unwrap();
            }
        }
        let mut cleanup_sink = CollectingSink::new();
        let report = e.cleanup(&mut cleanup_sink).unwrap();
        assert!(report.partitions > 0);
        assert!(report.missing_results > 0);
        assert_eq!(report.missing_results as usize, cleanup_sink.len());

        // Reference join: all same-key triples.
        let mut reference: Vec<Vec<(u8, u64)>> = Vec::new();
        for a in all_tuples.iter().filter(|t| t.stream().0 == 0) {
            for b in all_tuples.iter().filter(|t| t.stream().0 == 1) {
                for c in all_tuples.iter().filter(|t| t.stream().0 == 2) {
                    if a.get(0) == b.get(0) && b.get(0) == c.get(0) {
                        reference.push(vec![(0, a.seq()), (1, b.seq()), (2, c.seq())]);
                    }
                }
            }
        }
        reference.sort();
        let mut produced = runtime_sink.identities();
        produced.extend(cleanup_sink.identities());
        produced.sort();
        assert_eq!(produced, reference, "loss or duplication detected");
    }

    #[test]
    fn cleanup_on_clean_engine_is_empty() {
        let mut e = engine(1 << 20, 1 << 19);
        fill(&mut e, 4, 1);
        let mut sink = CountingSink::new();
        let report = e.cleanup(&mut sink).unwrap();
        assert_eq!(report.partitions, 0);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn cleanup_cost_model_charges_io_and_compute() {
        let mut e = engine(1 << 20, 512);
        fill(&mut e, 8, 4);
        e.force_spill(e.memory_used(), VirtualTime::from_secs(1))
            .unwrap();
        fill(&mut e, 8, 2);
        // The §3.2 calibration: 50 µs per scanned tuple, 300 µs per
        // missing result, 8 ms seek and 60 MB/s per segment read.
        assert_eq!(
            (CLEANUP_SCAN_US_PER_TUPLE, CLEANUP_EMIT_US_PER_RESULT, DISK),
            (50, 300, DiskModel::default_2006())
        );
        let io_ms: u64 = (e.spilled_partitions().into_iter())
            .flat_map(|pid| e.spilled_segment_metas(pid).to_vec())
            .map(|meta| 8 + meta.state_bytes.div_ceil(60_000))
            .sum();
        let mut sink = CountingSink::new();
        let report = e.cleanup(&mut sink).unwrap();
        assert!(report.disk_state_bytes_read > 0);
        assert!(report.scanned_tuples > 0);
        assert!(report.missing_results > 0);
        let compute_us = report.scanned_tuples * 50 + report.missing_results * 300;
        assert_eq!(report.virtual_cost.as_millis(), io_ms + compute_us / 1000);
    }

    /// Reactivation mid-run: the partition becomes active again and the
    /// overall result set stays exact.
    #[test]
    fn reactivate_partition_restores_activity_and_exactness() {
        let cfg = EngineConfig::three_way(1 << 20, 1 << 19);
        let mut e = QueryEngine::in_memory(EngineId(2), cfg).unwrap();
        let mut sink = CollectingSink::new();
        let mut all = Vec::new();
        let mut seq = 0u64;
        let feed = |e: &mut QueryEngine,
                    sink: &mut CollectingSink,
                    all: &mut Vec<Tuple>,
                    key: i64,
                    seq: &mut u64| {
            for s in 0..3u8 {
                let t = tpl(s, *seq, key);
                *seq += 1;
                all.push(t.clone());
                e.process(PartitionId(0), t, sink).unwrap();
            }
        };
        feed(&mut e, &mut sink, &mut all, 1, &mut seq);
        feed(&mut e, &mut sink, &mut all, 1, &mut seq);
        // Spill everything, then more tuples arrive (inactive period).
        e.force_spill(u64::MAX / 2, VirtualTime::from_secs(1))
            .unwrap();
        feed(&mut e, &mut sink, &mut all, 1, &mut seq);
        // Reactivate: missing cross results emitted, state back in memory.
        let report = e
            .reactivate_partition(PartitionId(0), &mut sink)
            .unwrap()
            .expect("had segments");
        assert!(report.missing_results > 0);
        assert!(report.virtual_cost > VirtualDuration::ZERO);
        assert_eq!(e.store().segment_count(), 0);
        assert!(e.join().has_group(PartitionId(0)));
        e.assert_accounting_consistent().unwrap();
        // New tuples now join against the FULL merged state again.
        feed(&mut e, &mut sink, &mut all, 1, &mut seq);

        // Exactness: everything ever owed has been emitted.
        let mut reference: Vec<Vec<(u8, u64)>> = Vec::new();
        for a in all.iter().filter(|t| t.stream().0 == 0) {
            for b in all.iter().filter(|t| t.stream().0 == 1) {
                for c in all.iter().filter(|t| t.stream().0 == 2) {
                    if a.get(0) == b.get(0) && b.get(0) == c.get(0) {
                        reference.push(vec![(0, a.seq()), (1, b.seq()), (2, c.seq())]);
                    }
                }
            }
        }
        reference.sort();
        assert_eq!(sink.identities(), reference);
        // Reactivating again is a no-op.
        let mut sink2 = CountingSink::new();
        assert!(e
            .reactivate_partition(PartitionId(0), &mut sink2)
            .unwrap()
            .is_none());
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let cfg = EngineConfig::three_way(100, 200); // threshold > budget
        assert!(QueryEngine::in_memory(EngineId(0), cfg).is_err());
    }

    /// A memory backend whose `fail_on`-th write fails.
    #[derive(Debug)]
    struct FailingWrite {
        inner: dcape_storage::MemBackend,
        writes: u32,
        fail_on: u32,
    }

    impl SpillBackend for FailingWrite {
        fn write_segment(&mut self, bytes: &[u8]) -> Result<dcape_storage::SegmentHandle> {
            self.writes += 1;
            if self.writes == self.fail_on {
                return Err(std::io::Error::other("injected: no space left on device").into());
            }
            self.inner.write_segment(bytes)
        }

        fn read_segment(
            &mut self,
            handle: dcape_storage::SegmentHandle,
            buf: &mut Vec<u8>,
        ) -> Result<()> {
            self.inner.read_segment(handle, buf)
        }

        fn delete_segment(&mut self, handle: dcape_storage::SegmentHandle) -> Result<()> {
            self.inner.delete_segment(handle)
        }
    }

    /// One tuple per stream and key into 16 equal groups, `reps` times.
    fn feed_groups(
        e: &mut QueryEngine,
        reps: std::ops::Range<u64>,
        reference: &mut ReferenceJoin,
        sink: &mut dyn ResultSink,
    ) {
        for rep in reps {
            for key in 0..16i64 {
                for s in 0..3u8 {
                    let t = tpl(s, rep * 16 + key as u64, key);
                    reference.push(&t);
                    e.process(PartitionId(key as u32), t, sink).unwrap();
                }
            }
        }
    }

    /// A spill whose first, or third, write fails leaves that victim in
    /// memory with its rows, `P_output` and accounting, keeps the
    /// victims before it spilled, and loses no result.
    #[test]
    fn a_failed_spill_write_puts_the_victim_back() {
        for fail_on in [1u32, 3] {
            let backend = FailingWrite {
                inner: Default::default(),
                writes: 0,
                fail_on,
            };
            let cfg = EngineConfig::three_way(1 << 20, 512);
            let mut e = QueryEngine::new(EngineId(0), cfg, Box::new(backend)).unwrap();
            let mut reference = ReferenceJoin::new(&[0, 0, 0], None);
            let mut runtime = CountingSink::new();
            feed_groups(&mut e, 0..3, &mut reference, &mut runtime);
            let (used, stats) = (e.memory_used(), e.join().group_stats());
            assert!(stats.iter().all(|s| s.output > 0));

            // 30 % of 16 equal groups: five victims, so the third is a
            // middle one.
            let failed = e.tick(VirtualTime::from_secs(10));
            assert!(matches!(failed, Err(DcapeError::Io(_))), "{failed:?}");
            let written = (fail_on - 1) as usize;
            assert_eq!(e.mode(), Mode::Normal);
            assert_eq!(e.store().segment_count(), written);
            assert_eq!(e.join().group_count(), 16 - written);
            e.assert_accounting_consistent().unwrap();
            // Journaled as spilled: what was written, and nothing else.
            assert_eq!(e.spill_history().len(), usize::from(written > 0));
            let spilled: Vec<PartitionId> = (e.spill_history().iter())
                .flat_map(|outcome| outcome.groups.clone())
                .collect();
            assert_eq!(spilled, e.spilled_partitions());
            let freed: u64 = e.spill_history().iter().map(|o| o.state_bytes).sum();
            assert_eq!(e.memory_used(), used - freed);
            assert_eq!(freed == 0, written == 0);
            // Every group still resident, the failed victim among them,
            // has the size and `P_output` it had.
            let resident: Vec<_> = (stats.iter().copied())
                .filter(|s| e.join().has_group(s.pid))
                .collect();
            assert_eq!(e.join().group_stats(), resident);

            // The fault has passed: the next pulse spills, and the run
            // as a whole owes exactly the reference join.
            let outcome = e.tick(VirtualTime::from_secs(20)).unwrap();
            let outcome = outcome.expect("still over the threshold");
            assert!(!outcome.groups.is_empty());
            feed_groups(&mut e, 3..5, &mut reference, &mut runtime);
            let mut cleanup = CountingSink::new();
            e.cleanup(&mut cleanup).unwrap();
            assert_eq!(runtime.count() + cleanup.count(), reference.count());
        }
    }

    /// The file-backed engine every runtime builds and the memory-backed
    /// one of the unit tests are the same engine to the digit: same
    /// spills, same store statistics, same results in the same order,
    /// same cleanup report — with forced spills, threshold spills and a
    /// run-time reactivation on the way.
    #[test]
    fn a_file_backed_engine_equals_a_memory_backed_one_to_the_digit() {
        let run = |backend: Box<dyn SpillBackend>| {
            let cfg = EngineConfig::three_way(1 << 20, 24 << 10).with_reactivation(0.5);
            let mut e = QueryEngine::new(EngineId(0), cfg, backend).unwrap();
            let (mut runtime, mut cleanup) = (CollectingSink::new(), CollectingSink::new());
            let mut batch = TupleBatch::new();
            for round in 0..12u64 {
                for i in 0..48u64 {
                    let (seq, key) = (round * 48 + i, (i % 16) as i64);
                    let stream = ((i / 16) % 3) as u8;
                    batch.push(PartitionId(key as u32 % 8), tpl(stream, seq, key));
                }
                e.process_batch(&batch, &mut runtime).unwrap();
                batch.clear();
                let now = VirtualTime::from_secs(round * 5);
                e.tick(now).unwrap();
                match round {
                    4 => drop(e.force_spill(e.memory_used() / 2, now).unwrap()),
                    7 => {
                        e.force_spill(u64::MAX / 2, now).unwrap();
                        let back = e.maybe_reactivate(|_| true, &mut runtime).unwrap();
                        assert!(back.is_some(), "an empty memory has room");
                    }
                    _ => {}
                }
            }
            assert!(e.spill_history().len() > 3);
            let report = e.cleanup(&mut cleanup).unwrap();
            assert!(report.missing_results > 0);
            (
                e.spill_history().to_vec(),
                e.store().stats(),
                runtime.identities(),
                cleanup.identities(),
                report,
            )
        };
        let files = dcape_storage::FileBackend::new(std::env::temp_dir()).unwrap();
        assert_eq!(
            run(Box::new(files)),
            run(Box::new(dcape_storage::MemBackend::new()))
        );
    }
}

#[cfg(test)]
mod reactivation_tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::sink::CountingSink;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::TupleBuilder;

    fn tpl(stream: u8, seq: u64, key: i64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq * 30))
            .value(key)
            .pad(100)
            .build()
    }

    #[test]
    fn watermark_reactivates_when_memory_frees_up() {
        let cfg = EngineConfig::three_way(1 << 20, 64 << 10).with_reactivation(0.5);
        let mut e = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
        let mut sink = CountingSink::new();
        for seq in 0..40u64 {
            for s in 0..3u8 {
                e.process(
                    PartitionId((seq % 4) as u32),
                    tpl(s, seq, (seq % 4) as i64),
                    &mut sink,
                )
                .unwrap();
            }
        }
        // Spill everything: memory -> 0, disk has segments.
        e.force_spill(u64::MAX / 2, VirtualTime::from_secs(1))
            .unwrap();
        assert!(e.store().segment_count() > 0);
        assert_eq!(e.memory_used(), 0);
        // Memory is far below the watermark: reactivation fires.
        let before = sink.count();
        let report = e.maybe_reactivate(|_| true, &mut sink).unwrap();
        assert!(report.is_some());
        assert!(e.memory_used() > 0, "state back in memory");
        // Single spilled slice per pid => nothing was missing.
        assert_eq!(sink.count(), before);
        // Repeated calls drain the remaining partitions one at a time.
        let mut rounds = 0;
        while e.maybe_reactivate(|_| true, &mut sink).unwrap().is_some() {
            rounds += 1;
            assert!(rounds < 100, "must terminate");
        }
        assert_eq!(e.store().segment_count(), 0);
        e.assert_accounting_consistent().unwrap();
    }

    #[test]
    fn no_watermark_means_no_reactivation() {
        let cfg = EngineConfig::three_way(1 << 20, 64 << 10);
        let mut e = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            e.process(PartitionId(0), tpl(s, 0, 0), &mut sink).unwrap();
        }
        e.force_spill(u64::MAX / 2, VirtualTime::from_secs(1))
            .unwrap();
        assert!(e.maybe_reactivate(|_| true, &mut sink).unwrap().is_none());
        assert!(e.store().segment_count() > 0);
    }

    #[test]
    fn reactivation_waits_for_headroom() {
        // Watermark set, but memory sits above it: no reactivation.
        let cfg = EngineConfig::three_way(1 << 20, 32 << 10).with_reactivation(0.1);
        let mut e = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
        let mut sink = CountingSink::new();
        for seq in 0..40u64 {
            for s in 0..3u8 {
                e.process(
                    PartitionId((seq % 4) as u32),
                    tpl(s, seq, (seq % 4) as i64),
                    &mut sink,
                )
                .unwrap();
            }
        }
        // Spill half; remaining memory is above 10% of the threshold.
        e.force_spill(e.memory_used() / 2, VirtualTime::from_secs(1))
            .unwrap();
        assert!(e.memory_used() > (32 << 10) / 10);
        assert!(e.maybe_reactivate(|_| true, &mut sink).unwrap().is_none());
    }

    /// Only what `owns` accepts is reactivated, and nothing while a
    /// relocation round holds the engine in relocation mode.
    #[test]
    fn reactivation_takes_only_owned_partitions_and_waits_out_a_round() {
        let cfg = EngineConfig::three_way(1 << 20, 64 << 10).with_reactivation(0.5);
        let mut e = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            e.process(PartitionId(0), tpl(s, 0, 0), &mut sink).unwrap();
            e.process(PartitionId(1), tpl(s, 1, 1), &mut sink).unwrap();
        }
        e.force_spill(u64::MAX / 2, VirtualTime::from_secs(1))
            .unwrap();
        assert_eq!(e.spilled_partitions(), [PartitionId(0), PartitionId(1)]);
        e.set_mode(Mode::Relocation);
        assert!(e.maybe_reactivate(|_| true, &mut sink).unwrap().is_none());
        e.set_mode(Mode::Normal);
        let not_zero = |pid: PartitionId| pid != PartitionId(0);
        assert!(e.maybe_reactivate(not_zero, &mut sink).unwrap().is_some());
        assert!(e.maybe_reactivate(not_zero, &mut sink).unwrap().is_none());
        assert_eq!(e.spilled_partitions(), [PartitionId(0)]);
        assert!(e.join().has_group(PartitionId(1)));
    }

    /// A spill forced while a relocation round holds the engine leaves
    /// it in relocation mode: the spill does not end the round.
    #[test]
    fn a_spill_keeps_the_engine_in_relocation_mode() {
        let cfg = EngineConfig::three_way(1 << 20, 64 << 10).with_reactivation(0.5);
        let mut e = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
        let mut sink = CountingSink::new();
        for s in 0..3u8 {
            e.process(PartitionId(0), tpl(s, 0, 0), &mut sink).unwrap();
        }
        e.set_mode(Mode::Relocation);
        let spilled = e.force_spill(u64::MAX / 2, VirtualTime::from_secs(1));
        assert_eq!(spilled.unwrap().groups, [PartitionId(0)]);
        assert_eq!(e.mode(), Mode::Relocation);
        // So nothing comes back while the round lasts.
        assert!(e.maybe_reactivate(|_| true, &mut sink).unwrap().is_none());
    }

    /// A spilled group comes back at its resident cost — its tuples'
    /// accounted bytes plus the per-tuple index overhead — so a
    /// reactivation never lifts memory over the threshold it checked.
    #[test]
    fn reactivation_counts_the_per_tuple_overhead() {
        let run = |threshold: u64| {
            let cfg = EngineConfig::three_way(1 << 20, threshold).with_reactivation(0.5);
            let mut e = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
            let mut sink = CountingSink::new();
            for seq in 0..200u64 {
                for s in 0..3u8 {
                    e.process(PartitionId(0), tpl(s, seq, (seq % 50) as i64), &mut sink)
                        .unwrap();
                }
            }
            let resident = e.memory_used();
            e.force_spill(u64::MAX / 2, VirtualTime::from_secs(1))
                .unwrap();
            let back = e.maybe_reactivate(|_| true, &mut sink).unwrap();
            (resident, e.store().stats().state_bytes_written, back, e)
        };
        // 600 rows: 141 600 B on disk, 156 000 B once resident.
        let (resident, on_disk, back, e) = run(148_800);
        assert_eq!((resident, on_disk), (156_000, 141_600));
        assert!(back.is_none(), "156 000 B would not fit under 148 800 B");
        assert_eq!(e.memory_used(), 0);
        assert_eq!(e.spilled_partitions(), [PartitionId(0)]);
        // One byte of room more than the group needs: it comes back.
        let (_, _, back, e) = run(156_001);
        assert!(back.is_some());
        assert_eq!(e.memory_used(), 156_000);
        e.assert_accounting_consistent().unwrap();
    }

    #[test]
    fn invalid_watermark_rejected() {
        let cfg = EngineConfig::three_way(1 << 20, 64 << 10).with_reactivation(1.5);
        assert!(QueryEngine::in_memory(EngineId(0), cfg).is_err());
    }
}
