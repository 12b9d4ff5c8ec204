//! Structured adaptation-event journal.
//!
//! Every run-time adaptation the paper describes — state spill (§4),
//! the 8-step relocation protocol (§5.2), cleanup (§4.2) — is recorded
//! here as a typed [`AdaptEvent`] carrying the numbers that triggered
//! it, so a run can be audited after the fact: *why* did engine 2 spill
//! at t=84s, which partitions moved in round 3, how many tuples were
//! buffered while the split remapped.
//!
//! The journal keeps every event of a run: it is the whole run record
//! that figure curves are drawn from and decisions are replayed from.
//! Recording is one short mutex acquisition and an append, counters are
//! plain atomics, and a disabled [`JournalHandle`] is a no-op that costs
//! one branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::VirtualTime;

/// A closed vocabulary: each type's variants with their stable
/// snake_case names, declared once. The name is what exports and the
/// human renderer write; the wire sends a tag of its own instead.
macro_rules! vocabulary {
    ($(
        $(#[$doc:meta])+
        $ty:ident { $( $(#[$vdoc:meta])+ $variant:ident = $name:literal, )+ }
    )+) => { $(
        $(#[$doc])+
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $( $(#[$vdoc])+ $variant, )+
        }

        impl $ty {
            /// Stable snake_case name used in exports.
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )+
                }
            }
        }
    )+ };
}

vocabulary! {
    /// What initiated a state spill.
    SpillTrigger {
        /// The local controller crossed its memory threshold (§4.1).
        MemoryThreshold = "memory_threshold",
        /// The global coordinator forced the spill (active-disk, §6.2).
        Forced = "forced",
    }

    /// A tolerated protocol anomaly ([`AdaptEvent::ProtocolWarning`]): what
    /// happened, and what the warning's `detail` holds. Its `engine` is
    /// the message's sender, or the engine the anomaly concerns.
    Warning {
        /// A `Ptv` for a round that already closed (detail: step 2).
        StalePtv = "stale_ptv",
        /// A second `Ptv` for the round in flight (detail: step 2).
        DuplicatePtv = "duplicate_ptv",
        /// A `TransferAck` for a round that already closed, or of an
        /// attempt other than the one in flight (detail: step 6).
        StaleTransferAck = "stale_transfer_ack",
        /// A phase timed out and its message was re-sent (detail: the step).
        PhaseTimeoutRetry = "phase_timeout_retry",
        /// Retries ran out and the round was abandoned (detail: the step).
        RoundAborted = "round_aborted",
        /// A receiver aborted rounds until given up on (detail: the aborts).
        PeerDeclaredDead = "peer_declared_dead",
        /// A move toward a dead receiver became a forced spill (detail: bytes).
        RelocationDegradedToSpill = "relocation_degraded_to_spill",
        /// An admitted engine announced itself again (detail: 0).
        DuplicateJoinReady = "duplicate_join_ready",
        /// An engine began to drain (detail: 0).
        DrainStarted = "drain_started",
        /// A `DrainState` from an engine not draining (detail: its bytes).
        StaleDrainState = "stale_drain_state",
        /// A drain stopped relocating and spills the rest (detail: bytes).
        DrainDegradedToSpill = "drain_degraded_to_spill",
        /// A drain's stateless partitions were remapped (detail: how many).
        DrainRemainderRemapped = "drain_remainder_remapped",
        /// A `Ptv` after the run quiesced (detail: step 2).
        StalePtvAfterQuiesce = "stale_ptv_after_quiesce",
        /// A `TransferAck` after the run quiesced (detail: step 6).
        StaleAckAfterQuiesce = "stale_ack_after_quiesce",
        /// A `Cptv` for a round the engine closed (detail: step 1).
        StaleCptv = "stale_cptv",
        /// A `SendStates` for a round the engine closed (detail: step 4).
        StaleSendStates = "stale_send_states",
        /// A `SendStates` toward a fenced receiver was dropped (detail: step 4).
        SendToFencedDropped = "send_to_fenced_dropped",
        /// A transfer of the wrong length was discarded (detail: bytes declared).
        CorruptTransferDiscarded = "corrupt_transfer_discarded",
        /// An installed transfer arrived again and was only acked (detail: step 5).
        DuplicateInstall = "duplicate_install",
        /// An engine unwound an aborted round (detail: the groups it undid).
        RoundUnwound = "round_unwound",
        /// A socket worker died and was respawned (detail: its respawns).
        WorkerRespawned = "worker_respawned",
    }

    /// A fault the chaos layer injected ([`AdaptEvent::FaultInjected`]).
    Fault {
        /// The message was lost.
        Drop = "drop",
        /// The message arrived twice.
        Duplicate = "duplicate",
        /// The message arrived late.
        Delay = "delay",
        /// The transfer's declared length was garbled.
        CorruptLength = "corrupt_length",
        /// The engine froze for a while.
        Stall = "stall",
        /// The receiving engine crashed mid-install and restarted.
        CrashRestart = "crash_restart",
    }

    /// Protocol message edges the chaos layer can interfere with (see
    /// `dcape_cluster::faults`).
    FaultEdge {
        /// Step 1: coordinator asks the sender to choose partitions.
        Cptv = "cptv",
        /// Step 2: sender reports its chosen partitions.
        Ptv = "ptv",
        /// Step 3/4 trigger: coordinator tells the sender to extract/ship.
        SendStates = "send_states",
        /// Step 5: the state transfer itself, sender → receiver.
        InstallStates = "install_states",
        /// Step 6: receiver acknowledges the installed transfer.
        TransferAck = "transfer_ack",
        /// Spill-cleanup segment forwarding: stall-only, keyed by partition
        /// id, the stall added to the engine's reported cleanup cost.
        CleanupSegments = "cleanup_segments",
    }
}

/// One engine's answer to a statistics collection: the "very
/// light-weight running statistics" (§2/§4) the coordinator decides
/// from. Only scalars, no per-partition detail — the per-partition
/// ranking happens locally. The same value is the stats message, the
/// [`AdaptEvent::EngineSample`] record and the decision's input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStatsReport {
    /// Reporting engine.
    pub engine: EngineId,
    /// The collection instant the engine answered (the `now` of the
    /// request).
    pub at: VirtualTime,
    /// Accounted state bytes in memory (the coordinator's `load`).
    pub memory_used: u64,
    /// Resident partition groups.
    pub num_groups: usize,
    /// Results produced since the previous report (sampling window).
    pub window_output: u64,
    /// Cumulative results produced.
    pub total_output: u64,
}

/// One adaptation event, with the numbers that triggered it. Its
/// `kind` tag and its JSON keys come from one field list per variant,
/// in [`crate::report`].
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
        /// Memory in use once the victims were pushed: a threshold
        /// spill fired at `memory_used + state_bytes`.
        memory_used: u64,
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
    /// The chaos layer injected a fault at a message edge (deterministic
    /// seeded schedule; see `dcape-cluster::faults`).
    FaultInjected {
        /// Which fault fired.
        fault: Fault,
        /// Message edge the fault hit.
        edge: FaultEdge,
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
        /// What was tolerated.
        code: Warning,
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
    /// participates in placement and the coordinator's join-rebalance
    /// moves may drain partition groups toward it.
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
    /// One engine's statistics report from a complete collection, as
    /// the coordinator's decision saw it: what the figures plot over
    /// time, and what a decision is replayed from, on every runtime.
    EngineSample(EngineStatsReport),
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

/// The counter table: one row per counter, and the only place one is
/// spelled. A row is the counter's doc comment, whose count makes the
/// run's total, its name, and the [`JournalHandle`] method that adds to
/// it (`macro_rules!` cannot build an identifier).
/// `engine` rows are summed over every engine's shutdown snapshot and
/// the coordinator's own; `coordinator` rows take the coordinator's
/// count alone, because an engine's would count the same thing a second
/// time (a tuple it was handed, state bytes it installed).
///
/// From the rows come [`JournalCounters`] (the atomics) and its
/// `snapshot`, [`CountersSnapshot`] with `absorb`, `absorb_engine` and
/// the ordered `NAMES` / `values` / `from_values` listing that the wire
/// format and the JSON exporter walk, and the `add_*` methods.
macro_rules! counter_table {
    ($( $(#[$doc:meta])+ $side:ident $name:ident => $add:ident; )+) => {
        /// Monotonic counters and one gauge kept beside the event log.
        /// All are plain atomics, so taking a [`snapshot`](Self::snapshot)
        /// never touches the log's lock.
        #[derive(Debug, Default)]
        pub struct JournalCounters {
            $( $name: AtomicU64, )+
        }

        impl JournalCounters {
            /// Plain-data copy of the current values.
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }
        }

        /// Point-in-time copy of [`JournalCounters`], for reports.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            $( $(#[$doc])+ pub $name: u64, )+
        }

        impl CountersSnapshot {
            /// How many counters there are.
            pub const COUNT: usize = Self::NAMES.len();

            /// Every counter's name, in the order of
            /// [`values`](Self::values).
            pub const NAMES: &'static [&'static str] = &[$( stringify!($name) ),+];

            /// Every counter's value, in table order.
            pub fn values(&self) -> [u64; Self::COUNT] {
                [$( self.$name ),+]
            }

            /// The snapshot holding `values`, in table order.
            pub fn from_values(values: [u64; Self::COUNT]) -> Self {
                let [$( $name ),+] = values;
                CountersSnapshot { $( $name ),+ }
            }

            /// Fold another snapshot into this one (summing every
            /// counter).
            pub fn absorb(&mut self, other: &CountersSnapshot) {
                $( self.$name += other.$name; )+
            }

            /// Fold one engine's shutdown snapshot into a run's total:
            /// the `engine` rows of the table are summed, the
            /// `coordinator` rows are left to the coordinator's count.
            pub fn absorb_engine(&mut self, engine: &CountersSnapshot) {
                $( if counter_table!(@summed $side) { self.$name += engine.$name; } )+
            }
        }

        impl JournalHandle {
            $(
                #[doc = concat!("Add `n` to `", stringify!($name), "` (no-op when disabled).")]
                #[inline]
                pub fn $add(&self, n: u64) {
                    if let Some(j) = &self.inner {
                        j.counters.$name.fetch_add(n, Ordering::Relaxed);
                    }
                }
            )+
        }

        /// Every row with its `add_*` method.
        #[cfg(test)]
        const ADDERS: &[(&str, fn(&JournalHandle, u64))] =
            &[$( (stringify!($name), JournalHandle::$add), )+];
    };
    (@summed engine) => { true };
    (@summed coordinator) => { false };
}

counter_table! {
    /// Tuples routed through splits/engines.
    coordinator tuples_routed => add_tuples_routed;
    /// Accounted state bytes pushed to disk by spills.
    engine spill_bytes => add_spill_bytes;
    /// Physically encoded bytes written to disk by spills (what hit the
    /// backend, after segment-codec compression; compare with
    /// `spill_bytes`, the accounted state volume).
    engine spill_bytes_written => add_spill_bytes_written;
    /// Physically encoded bytes read back from disk (cleanup merges,
    /// run-time reactivation, segment forwarding).
    engine spill_bytes_read => add_spill_bytes_read;
    /// Accounted state bytes shipped between engines by relocation.
    coordinator relocation_bytes => add_relocation_bytes;
    /// Physically encoded bytes shipped between engines by relocation
    /// `SendStates` transfers (wire volume after segment-codec
    /// compression; compare with `relocation_bytes`).
    engine transfer_bytes => add_transfer_bytes;
    /// Gauge: tuples buffered at paused splits right now (steps 4–7 of
    /// the protocol); [`JournalHandle::sub_buffered_in_flight`] lowers
    /// it when step 7 flushes them.
    coordinator buffered_in_flight => add_buffered_in_flight;
    /// Purge pulses that ran with a held-back horizon: tuples were
    /// buffered at paused splits, so the purge horizon was clamped to
    /// the oldest buffered timestamp instead of the current clock.
    coordinator purges_deferred => add_purges_deferred;
    /// Virtual milliseconds the purge watermark spent held back by
    /// relocations (summed over rounds, accumulated at release).
    coordinator watermark_held_ms => add_watermark_held_ms;
    /// Tuples replayed in timestamp order at step 7 of the relocation
    /// protocol (buffered during the pause, flushed ahead of every
    /// post-resume arrival).
    coordinator replayed_in_order => add_replayed_in_order;
    /// Faults the chaos layer injected (drops, duplicates, delays,
    /// corruptions, stalls, crashes), summed across all edges.
    engine faults_injected => add_faults_injected;
    /// Protocol messages re-sent after a phase timeout.
    engine msgs_retried => add_msgs_retried;
    /// Relocation rounds abandoned after retries were exhausted (the
    /// sender resumed its paused partitions locally).
    engine rounds_aborted => add_rounds_aborted;
    /// Held purge watermarks released by the abort path rather than a
    /// step-7 Resume (one per aborted round that was holding one).
    engine watermark_released_on_abort => add_watermark_released_on_abort;
    /// Elastic relocation moves (join rebalances plus drain rounds), as
    /// opposed to moves chosen by the load-balancing trigger.
    coordinator rebalance_moves => add_rebalance_moves;
}

/// The journal: an append-only event log plus counters.
#[derive(Debug, Default)]
pub struct EventJournal {
    entries: Mutex<Vec<JournalEntry>>,
    /// Source of sequence numbers; shared between sibling journals
    /// (see [`JournalHandle::sibling`]).
    seq: Arc<AtomicU64>,
    counters: JournalCounters,
}

impl EventJournal {
    /// Record one event at virtual time `at`.
    pub fn record(&self, at: VirtualTime, event: AdaptEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let entry = JournalEntry { at, seq, event };
        self.entries
            .lock()
            .expect("journal lock poisoned")
            .push(entry);
    }

    /// The counters, readable lock-free.
    pub fn counters(&self) -> &JournalCounters {
        &self.counters
    }

    /// Copy of every entry, oldest first.
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.entries.lock().expect("journal lock poisoned").clone()
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
    /// An active handle.
    pub fn enabled() -> Self {
        JournalHandle {
            inner: Some(Arc::default()),
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

    /// A new journal — its own log and counters — that draws sequence
    /// numbers from the same source as this one (disabled if this one
    /// is). Whatever one thread records into siblings keeps its order
    /// when [`merge_journals`] breaks timestamp ties by `seq`; the
    /// deterministic runtime gives every in-place engine a sibling of
    /// the coordinator's journal for that reason.
    pub fn sibling(&self) -> Self {
        JournalHandle {
            inner: self.inner.as_ref().map(|j| {
                Arc::new(EventJournal {
                    seq: Arc::clone(&j.seq),
                    ..EventJournal::default()
                })
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

    /// Counters, if enabled.
    pub fn counters(&self) -> Option<&JournalCounters> {
        self.inner.as_deref().map(EventJournal::counters)
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

    /// Copy of every entry, oldest first (empty when disabled).
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

    fn sample(engine: u16, used: u64) -> AdaptEvent {
        AdaptEvent::EngineSample(EngineStatsReport {
            engine: EngineId(engine),
            at: VirtualTime::ZERO,
            memory_used: used,
            num_groups: 0,
            window_output: 0,
            total_output: 0,
        })
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let handle = JournalHandle::enabled();
        for i in 0..5u64 {
            handle.record(VirtualTime::from_millis(i * 10), sample(0, i));
        }
        let snap = handle.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.at.as_millis(), i as u64 * 10);
        }
    }

    /// Nothing is ever overwritten: a journal and its sibling each hold
    /// every event recorded into them, in `seq` order — more events than
    /// a 2^16-slot ring would keep.
    #[test]
    fn a_journal_keeps_every_event() {
        const N: u64 = 70_000;
        let handle = JournalHandle::enabled();
        let sibling = handle.sibling();
        for i in 0..N {
            handle.record(VirtualTime::from_millis(i), sample(0, i));
            sibling.record(VirtualTime::from_millis(i), sample(1, i));
        }
        for (journal, first) in [(&handle, 0), (&sibling, 1)] {
            let seqs: Vec<u64> = journal.snapshot().iter().map(|e| e.seq).collect();
            let want: Vec<u64> = (0..N).map(|i| 2 * i + first).collect();
            assert_eq!(seqs, want);
        }
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let handle = JournalHandle::disabled();
        handle.record(VirtualTime::ZERO, sample(0, 1));
        handle.add_spill_bytes(10);
        assert!(!handle.is_enabled());
        assert!(handle.snapshot().is_empty());
        assert!(handle.counters().is_none());
    }

    #[test]
    fn clones_share_one_log() {
        let handle = JournalHandle::enabled();
        let clone = handle.clone();
        handle.record(VirtualTime::ZERO, sample(0, 1));
        clone.record(VirtualTime::from_millis(1), sample(1, 2));
        assert_eq!(handle.snapshot().len(), 2);
        assert_eq!(clone.snapshot()[0].seq, 0);
        assert_eq!(clone.snapshot()[1].seq, 1);
    }

    #[test]
    fn buffered_gauge_rises_and_falls() {
        let handle = JournalHandle::enabled();
        let buffered = || handle.counters().unwrap().snapshot().buffered_in_flight;
        handle.add_buffered_in_flight(7);
        handle.add_buffered_in_flight(3);
        assert_eq!(buffered(), 10);
        handle.sub_buffered_in_flight(10);
        assert_eq!(buffered(), 0);
        // Saturates rather than wrapping.
        handle.sub_buffered_in_flight(5);
        assert_eq!(buffered(), 0);
    }

    /// Every row of the counter table, through everything generated
    /// from it.
    #[test]
    fn every_counter_row_adds_absorbs_and_lists() {
        const N: usize = CountersSnapshot::COUNT;
        let names = CountersSnapshot::NAMES;
        for (name, add) in ADDERS {
            let row = names.iter().position(|n| n == name).expect("a table row");
            let handle = JournalHandle::enabled();
            add(&handle, 5);
            add(&handle, 2);
            let snap = handle.counters().unwrap().snapshot();
            let mut want = [0; N];
            want[row] = 7;
            assert_eq!(snap.values(), want, "{name}: its own field and no other");
            let mut total = snap;
            total.absorb(&snap);
            want[row] = 14;
            assert_eq!(total.values(), want, "{name}: absorb sums");
            let off = JournalHandle::disabled();
            add(&off, 1);
            assert!(off.counters().is_none(), "{name}: ignored when disabled");
        }

        // The listing is the struct: distinct values sit under their own
        // names and survive the trip.
        let distinct: [u64; N] = std::array::from_fn(|i| 100 + i as u64);
        let all = CountersSnapshot::from_values(distinct);
        assert_eq!(all.values(), distinct);
        assert_eq!(CountersSnapshot::from_values(all.values()), all);
        assert_eq!((names[0], all.tuples_routed), ("tuples_routed", 100));
        assert_eq!(names[N - 1], "rebalance_moves");
        assert_eq!(all.rebalance_moves, 99 + N as u64);

        // `absorb_engine` sums what engines count and leaves the rest to
        // the coordinator's own count.
        let engine_side = [
            "spill_bytes",
            "spill_bytes_written",
            "spill_bytes_read",
            "transfer_bytes",
            "faults_injected",
            "msgs_retried",
            "rounds_aborted",
            "watermark_released_on_abort",
        ];
        let mut folded = all;
        folded.absorb_engine(&all);
        for ((name, got), one) in names.iter().zip(folded.values()).zip(distinct) {
            let want = if engine_side.contains(name) {
                2 * one
            } else {
                one
            };
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn merge_orders_by_time_then_sequence() {
        let a = JournalHandle::enabled();
        let b = JournalHandle::enabled();
        a.record(VirtualTime::from_millis(20), sample(0, 1));
        a.record(VirtualTime::from_millis(20), sample(0, 2));
        b.record(VirtualTime::from_millis(10), sample(1, 3));
        b.record(VirtualTime::from_millis(30), sample(1, 4));
        let merged = merge_journals([a.snapshot(), b.snapshot()]);
        let times: Vec<u64> = merged.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, vec![10, 20, 20, 30]);
        // The two t=20 events keep engine-a's internal order.
        assert!(merged[1].seq < merged[2].seq);
    }

    #[test]
    fn siblings_keep_recording_order_across_journals_on_timestamp_ties() {
        let a = JournalHandle::enabled();
        let b = a.sibling();
        let t = VirtualTime::from_millis(20);
        b.record(t, sample(1, 1));
        a.record(t, sample(0, 2));
        b.record(t, sample(1, 3));
        // Own log, own counters.
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 2);
        b.add_spill_bytes(3);
        assert_eq!(a.counters().unwrap().snapshot().spill_bytes, 0);
        let merged = merge_journals([a.snapshot(), b.snapshot()]);
        let used: Vec<u64> = merged
            .iter()
            .map(|e| match e.event {
                AdaptEvent::EngineSample(r) => r.memory_used,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(used, vec![1, 2, 3]);
        assert!(!JournalHandle::disabled().sibling().is_enabled());
    }
}
