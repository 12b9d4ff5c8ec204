//! Structured adaptation-event journal.
//!
//! Every run-time adaptation the paper describes — state spill (§4),
//! the 8-step relocation protocol (§5.2), cleanup (§4.2) — is recorded
//! here as a typed [`AdaptEvent`] carrying the numbers that triggered
//! it, so a run can be audited after the fact: *why* did engine 2 spill
//! at t=84s, which partitions moved in round 3, how many tuples were
//! buffered while the split remapped.
//!
//! The journal is designed to sit on the hot path of both runtimes:
//! recording is one short mutex acquisition on a fixed-size ring (no
//! allocation beyond the event payload), counters are plain atomics,
//! and a disabled [`JournalHandle`] is a no-op that costs one branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::VirtualTime;

/// Default ring capacity: generous for full paper-scale runs while
/// bounding memory to a few MB.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// What initiated a state spill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillTrigger {
    /// The local controller crossed its memory threshold (§4.1).
    MemoryThreshold,
    /// The global coordinator forced the spill (active-disk, §6.2).
    Forced,
}

impl SpillTrigger {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpillTrigger::MemoryThreshold => "memory_threshold",
            SpillTrigger::Forced => "forced",
        }
    }
}

/// One adaptation event, with the numbers that triggered it.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptEvent {
    /// An engine pushed partition groups to disk (§4.1).
    SpillDecision {
        /// Engine that spilled.
        engine: EngineId,
        /// What initiated the spill.
        trigger: SpillTrigger,
        /// Partition groups chosen as victims.
        groups: Vec<PartitionId>,
        /// In-memory bytes removed.
        state_bytes: u64,
        /// Bytes as encoded on disk.
        encoded_bytes: u64,
        /// Memory in use when the decision fired.
        memory_used: u64,
        /// The engine's memory budget.
        memory_budget: u64,
    },
    /// One step of the 8-step relocation protocol (§5.2).
    RelocationStep {
        /// Coordinator round id.
        round: u64,
        /// Protocol step, 1..=8.
        step: u8,
        /// Engine shedding state.
        sender: EngineId,
        /// Engine receiving state.
        receiver: EngineId,
        /// Partitions being moved (empty at step 1, before the sender
        /// has picked them).
        parts: Vec<PartitionId>,
        /// State bytes requested (step 1) or shipped (steps 4–5); zero
        /// elsewhere.
        bytes: u64,
        /// Tuples buffered at the splits and flushed at step 7 (zero
        /// elsewhere).
        buffered_tuples: u64,
        /// `M_least / M_max` load ratio that triggered the round
        /// (meaningful at step 1; zero elsewhere).
        load_ratio: f64,
    },
    /// Disk-resident state merged to emit missing results (§4.2).
    CleanupPhase {
        /// Engine doing the cleanup.
        engine: EngineId,
        /// Partition group being merged.
        group: PartitionId,
        /// Result tuples recovered from disk state.
        missing_results: u64,
        /// Tuples scanned during the merge.
        scanned_tuples: u64,
        /// Disk bytes read back.
        disk_bytes_read: u64,
    },
    /// Periodic cluster-wide statistics snapshot fed to the strategies.
    StatsSample {
        /// Number of engines reporting.
        engines: u32,
        /// Highest per-engine memory load.
        max_load: f64,
        /// Lowest per-engine memory load.
        min_load: f64,
        /// `min/max` memory-load ratio (Algorithm 1's trigger input).
        load_ratio: f64,
        /// `max/min` productivity ratio (Algorithm 2's trigger input).
        productivity_ratio: f64,
        /// Total memory in use across the cluster.
        memory_used: u64,
        /// Total memory budget across the cluster.
        memory_budget: u64,
    },
    /// An engine crossed its memory threshold (emitted before the
    /// corresponding spill decision resolves victims).
    MemoryPressure {
        /// Engine under pressure.
        engine: EngineId,
        /// Memory in use.
        used: u64,
        /// The engine's budget.
        budget: u64,
    },
    /// The chaos layer injected a fault at a message edge (deterministic
    /// seeded schedule; see `dcape-cluster::faults`).
    FaultInjected {
        /// Which fault fired: `drop`, `duplicate`, `delay`,
        /// `corrupt_length`, `stall`, or `crash`.
        fault: &'static str,
        /// Message edge the fault hit (stable snake_case, e.g.
        /// `install_states`).
        edge: &'static str,
        /// Relocation round the message belonged to (zero when the edge
        /// is not round-scoped).
        round: u64,
        /// Delivery attempt the fault applied to (first send is 0).
        attempt: u32,
    },
    /// A protocol anomaly that was tolerated and journaled instead of
    /// poisoning the coordinator: stale or duplicate round messages,
    /// phase timeouts, retries, aborts, peers declared dead.
    ProtocolWarning {
        /// Stable snake_case warning code, e.g. `stale_ptv`,
        /// `duplicate_transfer_ack`, `phase_timeout`, `round_aborted`.
        code: &'static str,
        /// Engine the anomalous message came from (for timeouts, the
        /// round's sender).
        engine: EngineId,
        /// Round id the message referenced.
        round: u64,
        /// Code-dependent detail (protocol step for timeouts, retry
        /// attempt for retries, zero otherwise).
        detail: u64,
    },
    /// An engine was admitted into the live membership: it now
    /// participates in placement and the rebalancing planner may drain
    /// partition groups toward it.
    EngineJoined {
        /// The admitted engine.
        engine: EngineId,
        /// Engines in the membership after admission (active plus
        /// draining; excludes engines already fully drained).
        members: u32,
    },
    /// An engine finished draining: it owns zero partition groups, its
    /// spilled segments were forwarded to the new owners, and it may
    /// exit.
    EngineDrained {
        /// The drained engine.
        engine: EngineId,
        /// Relocation rounds (plus any final zero-state remap) it took
        /// to empty the engine.
        moves: u64,
    },
}

impl AdaptEvent {
    /// Stable snake_case tag used in exports and filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            AdaptEvent::SpillDecision { .. } => "spill_decision",
            AdaptEvent::RelocationStep { .. } => "relocation_step",
            AdaptEvent::CleanupPhase { .. } => "cleanup_phase",
            AdaptEvent::StatsSample { .. } => "stats_sample",
            AdaptEvent::MemoryPressure { .. } => "memory_pressure",
            AdaptEvent::FaultInjected { .. } => "fault_injected",
            AdaptEvent::ProtocolWarning { .. } => "protocol_warning",
            AdaptEvent::EngineJoined { .. } => "engine_joined",
            AdaptEvent::EngineDrained { .. } => "engine_drained",
        }
    }
}

/// A journal record: when, in what order, and what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Virtual time of the event.
    pub at: VirtualTime,
    /// Sequence number: a total order within one journal (and across
    /// sibling journals) even when many events share a timestamp.
    pub seq: u64,
    /// The event payload.
    pub event: AdaptEvent,
}

/// Monotonic counters and gauges kept beside the event ring. All are
/// plain atomics so strategies and exporters can read them without
/// touching the ring's lock.
#[derive(Debug, Default)]
pub struct JournalCounters {
    tuples_routed: AtomicU64,
    spill_bytes: AtomicU64,
    spill_bytes_written: AtomicU64,
    spill_bytes_read: AtomicU64,
    relocation_bytes: AtomicU64,
    transfer_bytes: AtomicU64,
    buffered_in_flight: AtomicU64,
    purges_deferred: AtomicU64,
    watermark_held_ms: AtomicU64,
    replayed_in_order: AtomicU64,
    faults_injected: AtomicU64,
    msgs_retried: AtomicU64,
    rounds_aborted: AtomicU64,
    watermark_released_on_abort: AtomicU64,
    rebalance_moves: AtomicU64,
    events_recorded: AtomicU64,
    events_dropped: AtomicU64,
}

impl JournalCounters {
    /// Tuples routed through splits/engines so far.
    pub fn tuples_routed(&self) -> u64 {
        self.tuples_routed.load(Ordering::Relaxed)
    }

    /// Total state bytes pushed to disk by spills.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes.load(Ordering::Relaxed)
    }

    /// Physically encoded bytes written to disk by spills (what hit the
    /// backend, after segment-codec compression; compare with
    /// [`spill_bytes`](Self::spill_bytes), the accounted state volume).
    pub fn spill_bytes_written(&self) -> u64 {
        self.spill_bytes_written.load(Ordering::Relaxed)
    }

    /// Physically encoded bytes read back from disk (cleanup merges,
    /// run-time reactivation, segment forwarding).
    pub fn spill_bytes_read(&self) -> u64 {
        self.spill_bytes_read.load(Ordering::Relaxed)
    }

    /// Total state bytes shipped between engines by relocation.
    pub fn relocation_bytes(&self) -> u64 {
        self.relocation_bytes.load(Ordering::Relaxed)
    }

    /// Physically encoded bytes shipped between engines by relocation
    /// `SendStates` transfers (wire volume after segment-codec
    /// compression; compare with
    /// [`relocation_bytes`](Self::relocation_bytes)).
    pub fn transfer_bytes(&self) -> u64 {
        self.transfer_bytes.load(Ordering::Relaxed)
    }

    /// Tuples currently buffered at paused splits (steps 4–7 of the
    /// protocol); returns to zero once step 7 flushes them.
    pub fn buffered_in_flight(&self) -> u64 {
        self.buffered_in_flight.load(Ordering::Relaxed)
    }

    /// Purge pulses that ran with a held-back horizon: tuples were
    /// buffered at paused splits, so the purge horizon was clamped to
    /// the oldest buffered timestamp instead of the current clock.
    pub fn purges_deferred(&self) -> u64 {
        self.purges_deferred.load(Ordering::Relaxed)
    }

    /// Total virtual milliseconds the purge watermark spent held back
    /// by relocations (summed over rounds, accumulated at release).
    pub fn watermark_held_ms(&self) -> u64 {
        self.watermark_held_ms.load(Ordering::Relaxed)
    }

    /// Tuples replayed in timestamp order at step 7 of the relocation
    /// protocol (buffered during the pause, flushed ahead of every
    /// post-resume arrival).
    pub fn replayed_in_order(&self) -> u64 {
        self.replayed_in_order.load(Ordering::Relaxed)
    }

    /// Faults the chaos layer injected (drops, duplicates, delays,
    /// corruptions, stalls, crashes), summed across all edges.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Protocol messages re-sent after a phase timeout.
    pub fn msgs_retried(&self) -> u64 {
        self.msgs_retried.load(Ordering::Relaxed)
    }

    /// Relocation rounds abandoned after retries were exhausted (the
    /// sender resumed its paused partitions locally).
    pub fn rounds_aborted(&self) -> u64 {
        self.rounds_aborted.load(Ordering::Relaxed)
    }

    /// Held purge watermarks released by the abort path rather than a
    /// step-7 Resume (one per aborted round that was holding one).
    pub fn watermark_released_on_abort(&self) -> u64 {
        self.watermark_released_on_abort.load(Ordering::Relaxed)
    }

    /// Relocation moves issued by the elastic rebalancing planner
    /// (join rebalances plus drain rounds), as opposed to moves chosen
    /// by the load-balancing strategies.
    pub fn rebalance_moves(&self) -> u64 {
        self.rebalance_moves.load(Ordering::Relaxed)
    }

    /// Events accepted into the ring.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded.load(Ordering::Relaxed)
    }

    /// Events overwritten after the ring filled.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }

    /// Plain-data copy of the current values.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            tuples_routed: self.tuples_routed(),
            spill_bytes: self.spill_bytes(),
            spill_bytes_written: self.spill_bytes_written(),
            spill_bytes_read: self.spill_bytes_read(),
            relocation_bytes: self.relocation_bytes(),
            transfer_bytes: self.transfer_bytes(),
            buffered_in_flight: self.buffered_in_flight(),
            purges_deferred: self.purges_deferred(),
            watermark_held_ms: self.watermark_held_ms(),
            replayed_in_order: self.replayed_in_order(),
            faults_injected: self.faults_injected(),
            msgs_retried: self.msgs_retried(),
            rounds_aborted: self.rounds_aborted(),
            watermark_released_on_abort: self.watermark_released_on_abort(),
            rebalance_moves: self.rebalance_moves(),
            events_recorded: self.events_recorded(),
            events_dropped: self.events_dropped(),
        }
    }
}

/// Point-in-time copy of [`JournalCounters`], for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Tuples routed through splits/engines.
    pub tuples_routed: u64,
    /// Total state bytes pushed to disk by spills.
    pub spill_bytes: u64,
    /// Physically encoded bytes written to disk by spills.
    pub spill_bytes_written: u64,
    /// Physically encoded bytes read back from disk.
    pub spill_bytes_read: u64,
    /// Total state bytes shipped between engines by relocation.
    pub relocation_bytes: u64,
    /// Physically encoded bytes shipped by relocation transfers.
    pub transfer_bytes: u64,
    /// Tuples still buffered at paused splits when sampled.
    pub buffered_in_flight: u64,
    /// Purge pulses that ran with a relocation-held horizon.
    pub purges_deferred: u64,
    /// Virtual milliseconds the purge watermark was held back, total.
    pub watermark_held_ms: u64,
    /// Tuples replayed in timestamp order at step-7 flushes.
    pub replayed_in_order: u64,
    /// Faults injected by the chaos layer.
    pub faults_injected: u64,
    /// Protocol messages re-sent after phase timeouts.
    pub msgs_retried: u64,
    /// Relocation rounds abandoned after retry exhaustion.
    pub rounds_aborted: u64,
    /// Held watermarks released by the abort path.
    pub watermark_released_on_abort: u64,
    /// Relocation moves issued by the elastic rebalancing planner.
    pub rebalance_moves: u64,
    /// Events accepted into the ring.
    pub events_recorded: u64,
    /// Events overwritten after the ring filled.
    pub events_dropped: u64,
}

impl CountersSnapshot {
    /// Fold another snapshot into this one (summing every counter).
    pub fn absorb(&mut self, other: &CountersSnapshot) {
        self.tuples_routed += other.tuples_routed;
        self.spill_bytes += other.spill_bytes;
        self.spill_bytes_written += other.spill_bytes_written;
        self.spill_bytes_read += other.spill_bytes_read;
        self.relocation_bytes += other.relocation_bytes;
        self.transfer_bytes += other.transfer_bytes;
        self.buffered_in_flight += other.buffered_in_flight;
        self.purges_deferred += other.purges_deferred;
        self.watermark_held_ms += other.watermark_held_ms;
        self.replayed_in_order += other.replayed_in_order;
        self.faults_injected += other.faults_injected;
        self.msgs_retried += other.msgs_retried;
        self.rounds_aborted += other.rounds_aborted;
        self.watermark_released_on_abort += other.watermark_released_on_abort;
        self.rebalance_moves += other.rebalance_moves;
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
    }

    /// Spill compression ratio: accounted state bytes spilled per
    /// encoded byte physically written (`None` before any encoded
    /// write). A row-codec run of plain-payload tuples sits near 1; the
    /// column-block codec on regular data pushes this well above 2.
    pub fn spill_compression_ratio(&self) -> Option<f64> {
        (self.spill_bytes_written > 0)
            .then(|| self.spill_bytes as f64 / self.spill_bytes_written as f64)
    }
}

/// Fixed-capacity overwrite-oldest ring of journal entries.
#[derive(Debug)]
struct Ring {
    slots: Vec<JournalEntry>,
    capacity: usize,
    /// Index of the next write; wraps once `slots` is full.
    head: usize,
}

impl Ring {
    fn push(&mut self, entry: JournalEntry) -> bool {
        if self.slots.len() < self.capacity {
            self.slots.push(entry);
            true
        } else {
            let dropped_head = self.head;
            self.slots[dropped_head] = entry;
            self.head = (self.head + 1) % self.capacity;
            false
        }
    }

    fn snapshot(&self) -> Vec<JournalEntry> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

/// The journal: an event ring plus counters.
#[derive(Debug)]
pub struct EventJournal {
    ring: Mutex<Ring>,
    /// Source of sequence numbers; shared between sibling journals
    /// (see [`JournalHandle::sibling`]).
    seq: Arc<AtomicU64>,
    counters: JournalCounters,
}

impl EventJournal {
    /// A journal holding at most `capacity` events (oldest dropped
    /// first on overflow).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::numbered_by(capacity, Arc::new(AtomicU64::new(0)))
    }

    fn numbered_by(capacity: usize, seq: Arc<AtomicU64>) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        EventJournal {
            ring: Mutex::new(Ring {
                slots: Vec::new(),
                capacity,
                head: 0,
            }),
            seq,
            counters: JournalCounters::default(),
        }
    }

    /// Record one event at virtual time `at`.
    pub fn record(&self, at: VirtualTime, event: AdaptEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let entry = JournalEntry { at, seq, event };
        let kept = self.ring.lock().expect("journal lock poisoned").push(entry);
        self.counters
            .events_recorded
            .fetch_add(1, Ordering::Relaxed);
        if !kept {
            self.counters.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The counters, readable lock-free.
    pub fn counters(&self) -> &JournalCounters {
        &self.counters
    }

    /// Copy of the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.ring.lock().expect("journal lock poisoned").snapshot()
    }
}

/// Cheap, cloneable handle threaded through engines, coordinator,
/// strategies and runtimes. A disabled handle makes every call a no-op
/// so un-instrumented runs pay only a branch.
#[derive(Debug, Clone, Default)]
pub struct JournalHandle {
    inner: Option<Arc<EventJournal>>,
}

impl JournalHandle {
    /// An active handle with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An active handle with an explicit ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        JournalHandle {
            inner: Some(Arc::new(EventJournal::with_capacity(capacity))),
        }
    }

    /// A no-op handle.
    pub fn disabled() -> Self {
        JournalHandle::default()
    }

    /// [`enabled`](Self::enabled) when `on`, else
    /// [`disabled`](Self::disabled) — a run's `journal` flag as a handle.
    pub fn when(on: bool) -> Self {
        if on {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// A new journal — its own ring and counters — that draws sequence
    /// numbers from the same source as this one (disabled if this one
    /// is). Whatever one thread records into siblings keeps its order
    /// when [`merge_journals`] breaks timestamp ties by `seq`; the
    /// deterministic runtime gives every in-place engine a sibling of
    /// the coordinator's journal for that reason.
    pub fn sibling(&self) -> Self {
        JournalHandle {
            inner: self.inner.as_ref().map(|j| {
                Arc::new(EventJournal::numbered_by(
                    DEFAULT_JOURNAL_CAPACITY,
                    Arc::clone(&j.seq),
                ))
            }),
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn record(&self, at: VirtualTime, event: AdaptEvent) {
        if let Some(journal) = &self.inner {
            journal.record(at, event);
        }
    }

    /// Counters, if enabled. Strategies use this to fold observed I/O
    /// volume into their decisions without touching the event ring.
    pub fn counters(&self) -> Option<&JournalCounters> {
        self.inner.as_deref().map(EventJournal::counters)
    }

    /// Add routed tuples to the counter (no-op when disabled).
    #[inline]
    pub fn add_tuples_routed(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.tuples_routed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add spilled bytes to the counter (no-op when disabled).
    #[inline]
    pub fn add_spill_bytes(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.spill_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add physically encoded spill-write bytes (no-op when disabled).
    #[inline]
    pub fn add_spill_bytes_written(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters
                .spill_bytes_written
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add physically encoded spill-read bytes (no-op when disabled).
    #[inline]
    pub fn add_spill_bytes_read(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.spill_bytes_read.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add relocated state bytes to the counter (no-op when disabled).
    #[inline]
    pub fn add_relocation_bytes(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.relocation_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add physically encoded relocation-transfer bytes (no-op when
    /// disabled).
    #[inline]
    pub fn add_transfer_bytes(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.transfer_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the in-flight buffered-tuple gauge (steps 4–7).
    #[inline]
    pub fn add_buffered_in_flight(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters
                .buffered_in_flight
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count a purge pulse that ran with a held-back horizon (no-op
    /// when disabled).
    #[inline]
    pub fn add_purges_deferred(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.purges_deferred.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Accumulate virtual milliseconds the purge watermark was held
    /// back by a relocation round (no-op when disabled).
    #[inline]
    pub fn add_watermark_held_ms(&self, ms: u64) {
        if let Some(j) = &self.inner {
            j.counters
                .watermark_held_ms
                .fetch_add(ms, Ordering::Relaxed);
        }
    }

    /// Count tuples replayed in timestamp order at a step-7 flush
    /// (no-op when disabled).
    #[inline]
    pub fn add_replayed_in_order(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.replayed_in_order.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count faults injected by the chaos layer (no-op when disabled).
    #[inline]
    pub fn add_faults_injected(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.faults_injected.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count protocol messages re-sent after a phase timeout (no-op
    /// when disabled).
    #[inline]
    pub fn add_msgs_retried(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.msgs_retried.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count relocation rounds abandoned after retry exhaustion (no-op
    /// when disabled).
    #[inline]
    pub fn add_rounds_aborted(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.rounds_aborted.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count a held watermark released by the abort path instead of a
    /// step-7 Resume (no-op when disabled).
    #[inline]
    pub fn add_watermark_released_on_abort(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters
                .watermark_released_on_abort
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count relocation moves issued by the elastic rebalancing planner
    /// (no-op when disabled).
    #[inline]
    pub fn add_rebalance_moves(&self, n: u64) {
        if let Some(j) = &self.inner {
            j.counters.rebalance_moves.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Lower the in-flight buffered-tuple gauge (step 7 flush).
    #[inline]
    pub fn sub_buffered_in_flight(&self, n: u64) {
        if let Some(j) = &self.inner {
            let c = &j.counters.buffered_in_flight;
            let mut cur = c.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Copy of the retained entries, oldest first (empty when disabled).
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.inner
            .as_ref()
            .map(|j| j.snapshot())
            .unwrap_or_default()
    }
}

/// Merge per-engine journals into one timeline ordered by virtual time,
/// with each journal's own sequence numbers breaking ties so intra-
/// engine order is preserved.
pub fn merge_journals(journals: impl IntoIterator<Item = Vec<JournalEntry>>) -> Vec<JournalEntry> {
    let mut all: Vec<JournalEntry> = journals.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.at, e.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure(engine: u16, used: u64) -> AdaptEvent {
        AdaptEvent::MemoryPressure {
            engine: EngineId(engine),
            used,
            budget: 100,
        }
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let handle = JournalHandle::with_capacity(8);
        for i in 0..5u64 {
            handle.record(VirtualTime::from_millis(i * 10), pressure(0, i));
        }
        let snap = handle.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.at.as_millis(), i as u64 * 10);
        }
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops() {
        let handle = JournalHandle::with_capacity(4);
        for i in 0..10u64 {
            handle.record(VirtualTime::from_millis(i), pressure(0, i));
        }
        let snap = handle.snapshot();
        assert_eq!(snap.len(), 4);
        // Oldest six were overwritten; sequence numbers keep climbing.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let counters = handle.counters().unwrap();
        assert_eq!(counters.events_recorded(), 10);
        assert_eq!(counters.events_dropped(), 6);
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let handle = JournalHandle::disabled();
        handle.record(VirtualTime::ZERO, pressure(0, 1));
        handle.add_spill_bytes(10);
        assert!(!handle.is_enabled());
        assert!(handle.snapshot().is_empty());
        assert!(handle.counters().is_none());
    }

    #[test]
    fn clones_share_one_ring() {
        let handle = JournalHandle::with_capacity(8);
        let clone = handle.clone();
        handle.record(VirtualTime::ZERO, pressure(0, 1));
        clone.record(VirtualTime::from_millis(1), pressure(1, 2));
        assert_eq!(handle.snapshot().len(), 2);
        assert_eq!(clone.snapshot()[0].seq, 0);
        assert_eq!(clone.snapshot()[1].seq, 1);
    }

    #[test]
    fn buffered_gauge_rises_and_falls() {
        let handle = JournalHandle::with_capacity(8);
        handle.add_buffered_in_flight(7);
        handle.add_buffered_in_flight(3);
        assert_eq!(handle.counters().unwrap().buffered_in_flight(), 10);
        handle.sub_buffered_in_flight(10);
        assert_eq!(handle.counters().unwrap().buffered_in_flight(), 0);
        // Saturates rather than wrapping.
        handle.sub_buffered_in_flight(5);
        assert_eq!(handle.counters().unwrap().buffered_in_flight(), 0);
    }

    #[test]
    fn watermark_counters_accumulate_and_absorb() {
        let handle = JournalHandle::with_capacity(8);
        handle.add_purges_deferred(3);
        handle.add_watermark_held_ms(250);
        handle.add_watermark_held_ms(50);
        handle.add_replayed_in_order(17);
        let c = handle.counters().unwrap();
        assert_eq!(c.purges_deferred(), 3);
        assert_eq!(c.watermark_held_ms(), 300);
        assert_eq!(c.replayed_in_order(), 17);
        let mut total = c.snapshot();
        total.absorb(&c.snapshot());
        assert_eq!(total.purges_deferred, 6);
        assert_eq!(total.watermark_held_ms, 600);
        assert_eq!(total.replayed_in_order, 34);
        // Disabled handles stay no-ops.
        let off = JournalHandle::disabled();
        off.add_purges_deferred(1);
        off.add_watermark_held_ms(1);
        off.add_replayed_in_order(1);
        assert!(off.counters().is_none());
    }

    #[test]
    fn chaos_counters_accumulate_and_absorb() {
        let handle = JournalHandle::with_capacity(8);
        handle.add_faults_injected(4);
        handle.add_msgs_retried(2);
        handle.add_rounds_aborted(1);
        handle.add_watermark_released_on_abort(1);
        let c = handle.counters().unwrap();
        assert_eq!(c.faults_injected(), 4);
        assert_eq!(c.msgs_retried(), 2);
        assert_eq!(c.rounds_aborted(), 1);
        assert_eq!(c.watermark_released_on_abort(), 1);
        let mut total = c.snapshot();
        total.absorb(&c.snapshot());
        assert_eq!(total.faults_injected, 8);
        assert_eq!(total.msgs_retried, 4);
        assert_eq!(total.rounds_aborted, 2);
        assert_eq!(total.watermark_released_on_abort, 2);
        // Disabled handles stay no-ops.
        let off = JournalHandle::disabled();
        off.add_faults_injected(1);
        off.add_msgs_retried(1);
        off.add_rounds_aborted(1);
        off.add_watermark_released_on_abort(1);
        assert!(off.counters().is_none());
    }

    #[test]
    fn byte_volume_counters_accumulate_and_derive_ratio() {
        let handle = JournalHandle::with_capacity(8);
        handle.add_spill_bytes(1000);
        handle.add_spill_bytes_written(250);
        handle.add_spill_bytes_read(250);
        handle.add_relocation_bytes(600);
        handle.add_transfer_bytes(150);
        let c = handle.counters().unwrap();
        assert_eq!(c.spill_bytes_written(), 250);
        assert_eq!(c.spill_bytes_read(), 250);
        assert_eq!(c.transfer_bytes(), 150);
        let snap = c.snapshot();
        assert_eq!(snap.spill_compression_ratio(), Some(4.0));
        let mut total = snap;
        total.absorb(&snap);
        assert_eq!(total.spill_bytes_written, 500);
        assert_eq!(total.spill_bytes_read, 500);
        assert_eq!(total.transfer_bytes, 300);
        // No encoded writes yet => no ratio (never a division by zero).
        assert_eq!(CountersSnapshot::default().spill_compression_ratio(), None);
        let off = JournalHandle::disabled();
        off.add_spill_bytes_written(1);
        off.add_spill_bytes_read(1);
        off.add_transfer_bytes(1);
        assert!(off.counters().is_none());
    }

    #[test]
    fn merge_orders_by_time_then_sequence() {
        let a = JournalHandle::with_capacity(8);
        let b = JournalHandle::with_capacity(8);
        a.record(VirtualTime::from_millis(20), pressure(0, 1));
        a.record(VirtualTime::from_millis(20), pressure(0, 2));
        b.record(VirtualTime::from_millis(10), pressure(1, 3));
        b.record(VirtualTime::from_millis(30), pressure(1, 4));
        let merged = merge_journals([a.snapshot(), b.snapshot()]);
        let times: Vec<u64> = merged.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, vec![10, 20, 20, 30]);
        // The two t=20 events keep engine-a's internal order.
        assert!(merged[1].seq < merged[2].seq);
    }

    #[test]
    fn siblings_keep_recording_order_across_journals_on_timestamp_ties() {
        let a = JournalHandle::with_capacity(8);
        let b = a.sibling();
        let t = VirtualTime::from_millis(20);
        b.record(t, pressure(1, 1));
        a.record(t, pressure(0, 2));
        b.record(t, pressure(1, 3));
        // Own ring, own counters.
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.counters().unwrap().events_recorded(), 2);
        let merged = merge_journals([a.snapshot(), b.snapshot()]);
        let used: Vec<u64> = merged
            .iter()
            .map(|e| match e.event {
                AdaptEvent::MemoryPressure { used, .. } => used,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(used, vec![1, 2, 3]);
        assert!(!JournalHandle::disabled().sibling().is_enabled());
    }
}
