//! The protocol vocabulary between the global coordinator (GC) and the
//! query engines (QE).
//!
//! The relocation messages realize the 8-step sequence of Figure 8:
//!
//! 1. GC → sender: [`ToEngine::Cptv`] — compute partitions to vacate;
//! 2. sender → GC: [`FromEngine::Ptv`] — the chosen partition list;
//! 3. GC → split host: pause &amp; buffer the affected partitions
//!    (handled by [`crate::placement::PlacementMap::pause`]);
//! 4. GC → sender: [`ToEngine::SendStates`];
//! 5. sender → receiver: [`ToEngine::InstallStates`] — the state
//!    transfer itself;
//! 6. receiver → GC: [`FromEngine::TransferAck`];
//! 7. GC → split host: remap &amp; flush buffered tuples
//!    ([`crate::placement::PlacementMap::remap_and_release`]);
//! 8. GC → sender &amp; receiver: [`ToEngine::Resume`] — exit `sr_mode`.
//!
//! The same enums carry the data path ([`ToEngine::DataBatch`] — routed
//! tuples reach an engine in batches and in no other way), the periodic
//! statistics ([`FromEngine::Stats`]) and the active-disk strategy's
//! forced-spill command ([`ToEngine::StartSpill`]), so every runtime
//! runs the entire system over two message types.

use dcape_common::batch::TupleBatch;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::VirtualTime;
use dcape_metrics::journal::{CountersSnapshot, EngineStatsReport, JournalEntry};
use dcape_storage::SpilledGroup;

/// A relocated partition group in flight: snapshot plus carried
/// `P_output` so the receiver resumes productivity accounting.
#[derive(Debug, Clone)]
pub struct GroupTransfer {
    /// The group's content.
    pub snapshot: SpilledGroup,
    /// Carried cumulative output count.
    pub output_count: u64,
    /// Cluster-wide purge protection: the sender holds disk-resident
    /// spill segments for this partition (or inherited protection from
    /// an earlier relocation), so the receiver must never window-purge
    /// the group's memory tuples — they still owe cross-slice cleanup
    /// results against segments living on another engine.
    pub purge_protect: bool,
}

/// Messages delivered *to* a query engine.
#[derive(Debug)]
pub enum ToEngine {
    /// A batch of routed tuples for this engine, processed in batch
    /// order — the data path (up to 64 generator ticks' worth, or the
    /// tuples a relocation round released): one engine step, one channel
    /// send or one frame for all of them.
    DataBatch {
        /// The routed tuples, in arrival order, held encoded.
        tuples: TupleBatch,
    },
    /// Step 1: compute partitions to vacate worth `amount` bytes.
    Cptv {
        /// Relocation round id.
        round: u64,
        /// Bytes to vacate.
        amount: u64,
        /// Delivery attempt (0 on first send; bumped per retry). Keys
        /// the chaos layer's per-edge fault decisions.
        attempt: u32,
    },
    /// Step 4: extract the listed partitions and ship them to
    /// `receiver`.
    SendStates {
        /// Relocation round id.
        round: u64,
        /// Partitions to move.
        parts: Vec<PartitionId>,
        /// Destination engine.
        receiver: EngineId,
        /// Delivery attempt (0 on first send; bumped per retry).
        attempt: u32,
    },
    /// Step 5: install these relocated groups (sender → receiver).
    InstallStates {
        /// Relocation round id.
        round: u64,
        /// Originating engine (journaled by the receiver).
        sender: EngineId,
        /// The groups.
        groups: Vec<GroupTransfer>,
        /// Delivery attempt, inherited from the driving `SendStates`.
        attempt: u32,
        /// Byte length the sender declares for `groups`. The receiver
        /// recomputes and discards the transfer on mismatch (the chaos
        /// layer's corrupt-length fault), forcing a retry.
        declared_bytes: u64,
    },
    /// Abort an in-flight relocation round after retries were
    /// exhausted: the sender reinstalls its retained outbound copy, the
    /// receiver discards any uncommitted installation, and both leave
    /// relocation mode. Ownership never changed, so the split's
    /// buffered tuples replay to the original owner. No `Resume`
    /// follows: the coordinator releases the purge watermark it held at
    /// the splits, and the next `Tick`'s horizon carries it (commit/abort
    /// notifications ride the reliable channel — see
    /// `dcape-cluster::faults`).
    AbortRound {
        /// The aborted round id.
        round: u64,
    },
    /// Step 8: the relocation round is over; return to normal mode.
    ///
    /// Carries the purge watermark that was held back while the round's
    /// partitions sat paused at the splits: every buffered tuple has
    /// been replayed (in timestamp order, ahead of post-resume
    /// arrivals), so engines may now catch up their window purge to
    /// `watermark`.
    Resume {
        /// Relocation round id.
        round: u64,
        /// The released purge horizon — safe to purge up to this time.
        watermark: VirtualTime,
    },
    /// Active-disk force spill (`start_ss`, Algorithm 2).
    StartSpill {
        /// Bytes to spill.
        amount: u64,
    },
    /// Ask for a statistics report (the `sr_timer`).
    ReportStats {
        /// Virtual timestamp to stamp the report with.
        now: VirtualTime,
    },
    /// The clock pulse, once a virtual second: drives the engine's local
    /// `ss_timer`, its window purge and run-time reactivation.
    Tick {
        /// Current virtual time (drives spill checks and stats).
        now: VirtualTime,
        /// Watermark-driven purge horizon: `min(admitted watermark,
        /// oldest timestamp still buffered in-flight at any split)`.
        /// While a relocation holds tuples paused at the splits this
        /// lags `now`, deferring window purges until replay lands.
        horizon: VirtualTime,
    },
    /// Distributed cleanup, phase 1: end of input. Forward every
    /// locally-spilled segment whose partition is owned elsewhere to
    /// its owner (per the enclosed final placement), then report
    /// readiness.
    PrepareCleanup {
        /// Final owner of every partition (index = partition id).
        owners: Vec<EngineId>,
    },
    /// Distributed cleanup: segments forwarded from a peer for a
    /// partition this engine owns.
    ForwardedSegments {
        /// The partition.
        pid: PartitionId,
        /// The peer's segments, in its local spill order.
        segments: Vec<SpilledGroup>,
    },
    /// Distributed cleanup, phase 2: every engine is ready — run the
    /// local merge for owned partitions, report, and stop.
    StartCleanup,
    /// Elastic drain: enter drain mode and report resident state. Rides
    /// the reliable channel (never faulted) and is idempotent — the
    /// coordinator re-sends it after every drain round to poll
    /// progress, and the engine always answers with a fresh
    /// [`FromEngine::DrainState`].
    BeginDrain,
    /// Elastic membership: `engine` is fenced (draining or drained).
    /// Receivers must never ship relocation state toward it; a stale or
    /// chaos-delayed `SendStates` naming it as receiver is dropped with
    /// a `send_to_fenced_dropped` warning instead of re-populating the
    /// drained engine.
    FenceNotice {
        /// The fenced engine.
        engine: EngineId,
    },
}

/// Messages delivered *from* a query engine to the coordinator.
#[derive(Debug)]
pub enum FromEngine {
    /// Step 2: the partitions this engine chose to vacate.
    Ptv {
        /// Relocation round id.
        round: u64,
        /// Sender engine.
        engine: EngineId,
        /// Chosen partitions.
        parts: Vec<PartitionId>,
    },
    /// Step 6: the receiver installed the transferred state.
    TransferAck {
        /// Relocation round id.
        round: u64,
        /// Receiving engine.
        engine: EngineId,
        /// Accounted bytes installed.
        bytes: u64,
        /// The `InstallStates` attempt it acknowledges — the
        /// `SendStates` attempt that shipped it.
        attempt: u32,
    },
    /// Periodic statistics report.
    Stats(EngineStatsReport),
    /// Distributed cleanup: this engine has forwarded all non-owned
    /// segments and is ready for the merge phase.
    CleanupReady {
        /// Reporting engine.
        engine: EngineId,
    },
    /// Distributed cleanup: the engine's local merge finished; final
    /// counters.
    CleanupDone {
        /// Reporting engine.
        engine: EngineId,
        /// Results produced during the run-time phase.
        runtime_output: u64,
        /// Missing results produced by this engine's local merge.
        cleanup_output: u64,
        /// Spill operations this engine performed.
        spill_count: u64,
        /// Modeled virtual cost of the local merge (ms).
        cleanup_cost_ms: u64,
        /// The engine's adaptation-event journal.
        journal: Vec<JournalEntry>,
        /// The engine's final journal counters.
        journal_counters: CountersSnapshot,
    },
    /// Elastic drain: answer to [`ToEngine::BeginDrain`] — how much
    /// relocatable state the draining engine still holds in memory. The
    /// coordinator plans the next drain round from this (fresher than
    /// the periodic stats), finalizes the drain at zero, or degrades to
    /// a forced spill when rounds keep aborting.
    DrainState {
        /// The draining engine.
        engine: EngineId,
        /// In-memory state bytes still resident.
        resident_bytes: u64,
    },
    /// Elastic join: the engine process/thread is up and connected
    /// (sent once at startup). The coordinator defers rebalance moves
    /// toward a scheduled joiner until its `JoinReady` arrives.
    JoinReady {
        /// The joining engine.
        engine: EngineId,
    },
}

impl FromEngine {
    /// The reporting engine (every variant carries one).
    pub(crate) fn engine(&self) -> EngineId {
        match self {
            FromEngine::Ptv { engine, .. }
            | FromEngine::TransferAck { engine, .. }
            | FromEngine::CleanupReady { engine, .. }
            | FromEngine::CleanupDone { engine, .. }
            | FromEngine::DrainState { engine, .. }
            | FromEngine::JoinReady { engine } => *engine,
            FromEngine::Stats(r) => r.engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_variants_construct_and_debug() {
        let m = ToEngine::Cptv {
            round: 1,
            amount: 1024,
            attempt: 0,
        };
        assert!(format!("{m:?}").contains("Cptv"));
        let m = ToEngine::AbortRound { round: 2 };
        assert!(format!("{m:?}").contains("AbortRound"));
        let m = FromEngine::Ptv {
            round: 1,
            engine: EngineId(0),
            parts: vec![PartitionId(3)],
        };
        assert!(format!("{m:?}").contains("Ptv"));
        let g = GroupTransfer {
            snapshot: SpilledGroup::empty(PartitionId(1), 3),
            output_count: 42,
            purge_protect: false,
        };
        assert_eq!(g.output_count, 42);
        let m = ToEngine::Tick {
            now: VirtualTime::from_millis(100),
            horizon: VirtualTime::from_millis(40),
        };
        assert!(format!("{m:?}").contains("horizon"));
    }
}
