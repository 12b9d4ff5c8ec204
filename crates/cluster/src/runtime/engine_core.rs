//! The engine side of the protocol: the one handler every runtime
//! steps.
//!
//! An [`EngineCore`] wraps one [`QueryEngine`] plus the message-handling
//! state machine of the Figure 8 protocol: data processing, the clock
//! pulse (window purge, spill check, run-time reactivation), the
//! engine-side relocation steps (`Ptv`, state extraction,
//! `InstallStates`, `TransferAck`, abort/commit), spill commands, the
//! drain poll and the two-phase distributed cleanup. It is the only
//! place a runtime builds an engine. The transport-specific part — how
//! a reply reaches the coordinator or a peer engine — is abstracted
//! behind [`EngineTx`], so the same `handle` body runs inline under the
//! virtual-time transport ([`super::sim`]), on a channel
//! ([`super::threaded`]) and on a framed TCP connection (the
//! `dcape-node` worker process of [`super::socket`]).
//!
//! The fault plan is passed per message, not stored: the socket worker
//! substitutes an inactive plan while replaying history after a
//! crash-restart, so a deterministically scheduled fault cannot re-fire
//! on every respawn.

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_engine::config::EngineConfig;
use dcape_engine::controller::Mode;
use dcape_engine::engine::QueryEngine;
use dcape_engine::probe::ProbeSpans;
use dcape_engine::sink::{CollectingSink, ResultSink};
use dcape_metrics::journal::{AdaptEvent, JournalHandle};
use dcape_storage::FileBackend;

use crate::faults::{FaultDecision, FaultEdge, FaultPlan};
use crate::messages::{FromEngine, GroupTransfer, ToEngine};
use crate::runtime::driver::{edge_decision, pop_due};

/// How an engine sends its replies: to the global coordinator or to a
/// peer engine (`InstallStates`, `ForwardedSegments`).
///
/// Implementations may not fail the engine loop on transport errors —
/// the threaded driver ignores a closed channel (shutdown race), the
/// socket worker treats a broken connection as fatal separately.
pub(crate) trait EngineTx {
    /// Send a message to the global coordinator.
    fn to_gc(&mut self, m: FromEngine) -> Result<()>;
    /// Send a message to peer engine `target`.
    fn to_peer(&mut self, target: EngineId, m: ToEngine) -> Result<()>;
}

/// What the caller's loop should do after one handled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineFlow {
    /// Keep receiving.
    Continue,
    /// A chaos crash-restart fired (already journaled): the threaded
    /// driver warm-restarts the in-process engine, the socket worker
    /// exits the OS process and is respawned by the coordinator.
    CrashRequested,
    /// `CleanupDone` was sent; the engine is finished.
    Finished,
}

/// An engine-held message the chaos layer delayed; released once a
/// `Tick` advances the engine's virtual clock past the due time.
enum Held {
    ToGc(FromEngine),
    ToPeer(EngineId, ToEngine),
}

/// An engine's output sink: counts whole probe products, or — when the
/// run collects results — enumerates them into a [`CollectingSink`] as
/// well.
#[derive(Debug, Default)]
pub(crate) struct OutputSink {
    pub(crate) count: u64,
    pub(crate) collect: Option<CollectingSink>,
}

impl OutputSink {
    fn new(collect_results: bool) -> Self {
        OutputSink {
            count: 0,
            collect: collect_results.then(CollectingSink::new),
        }
    }
}

impl ResultSink for OutputSink {
    fn wants_rows(&self) -> bool {
        self.collect.is_some()
    }

    fn emit(&mut self, parts: &[&Tuple]) {
        self.count += 1;
        if let Some(c) = &mut self.collect {
            c.emit(parts);
        }
    }

    fn emit_product(&mut self, spans: &ProbeSpans<'_, '_>) -> u64 {
        if self.collect.is_none() {
            let n = spans.count_valid();
            self.count += n;
            n
        } else {
            let mut n = 0u64;
            spans.for_each_valid(|parts| {
                self.emit(parts);
                n += 1;
            });
            n
        }
    }
}

/// One query engine plus its protocol state, independent of transport.
pub(crate) struct EngineCore {
    pub(crate) id: EngineId,
    pub(crate) qe: QueryEngine,
    /// Run-time results (probe products and reactivation merges).
    pub(crate) sink: OutputSink,
    /// Missing results of the final cleanup merge.
    pub(crate) cleanup_sink: OutputSink,
    pub(crate) last_now: VirtualTime,
    held: Vec<(VirtualTime, Held)>,
    /// Peers announced as fenced (draining/drained): relocation state
    /// must never be shipped toward them, however stale the command.
    fenced_peers: Vec<EngineId>,
    /// `BeginDrain` arrived: this engine is being emptied, so it stops
    /// reactivating spilled state back into memory.
    draining: bool,
    /// Chaos stalls on the segments this engine forwarded, added to its
    /// reported cleanup cost.
    cleanup_stall_ms: u64,
}

impl EngineCore {
    /// Build the engine — the one place a runtime does. `journal` is
    /// the engine's own journal (disabled when the run keeps none);
    /// `collect_results` makes both sinks materialize their results.
    ///
    /// The engine spills to an unlinked log in the system's temporary
    /// directory (`TMPDIR` moves it), under every transport: the virtual
    /// clock charges the `DiskModel` and never sees the real I/O.
    pub(crate) fn new(
        id: EngineId,
        cfg: EngineConfig,
        journal: JournalHandle,
        collect_results: bool,
    ) -> Result<Self> {
        let spill_log = FileBackend::new(std::env::temp_dir())?;
        let mut qe = QueryEngine::new(id, cfg, Box::new(spill_log))?;
        qe.attach_journal(journal);
        Ok(EngineCore {
            id,
            qe,
            sink: OutputSink::new(collect_results),
            cleanup_sink: OutputSink::new(collect_results),
            last_now: VirtualTime::ZERO,
            held: Vec::new(),
            fenced_peers: Vec::new(),
            draining: false,
            cleanup_stall_ms: 0,
        })
    }

    /// Release engine-held delayed messages that are due.
    fn release_held(&mut self, now: VirtualTime, tx: &mut dyn EngineTx) -> Result<()> {
        while let Some(held) = pop_due(&mut self.held, now) {
            match held {
                Held::ToGc(m) => tx.to_gc(m)?,
                Held::ToPeer(target, m) => tx.to_peer(target, m)?,
            }
        }
        Ok(())
    }

    /// Journal a tolerated protocol anomaly.
    fn warn(&self, code: &'static str, engine: EngineId, round: u64, detail: u64) {
        self.qe.journal().record(
            self.last_now,
            AdaptEvent::ProtocolWarning {
                code,
                engine,
                round,
                detail,
            },
        );
    }

    /// Journal and count a fault injected outside the per-message
    /// decisions (a stall, a crash-restart).
    fn note_fault(&self, fault: &'static str, edge: FaultEdge, round: u64, attempt: u32) {
        self.qe.journal().add_faults_injected(1);
        self.qe.journal().record(
            self.last_now,
            AdaptEvent::FaultInjected {
                fault,
                edge: edge.name(),
                round,
                attempt,
            },
        );
    }

    /// Put a reply to the coordinator (`Ptv`, `TransferAck`) on the wire
    /// through the fault plan: deliver, drop, duplicate or delay it (a
    /// garbled reply is discarded on receipt — same outcome as a drop).
    fn chaos_reply(
        &mut self,
        plan: &FaultPlan,
        edge: FaultEdge,
        round: u64,
        attempt: u32,
        tx: &mut dyn EngineTx,
        reply: impl Fn() -> FromEngine,
    ) -> Result<()> {
        match edge_decision(plan, self.qe.journal(), self.last_now, edge, round, attempt) {
            FaultDecision::Deliver => tx.to_gc(reply()),
            FaultDecision::Drop | FaultDecision::CorruptLength => Ok(()),
            FaultDecision::Duplicate => {
                tx.to_gc(reply())?;
                tx.to_gc(reply())
            }
            FaultDecision::Delay(ms) => {
                let due = self.last_now + VirtualDuration::from_millis(ms);
                self.held.push((due, Held::ToGc(reply())));
                Ok(())
            }
        }
    }

    /// Handle one protocol message. `plan` decides the chaos faults on
    /// the edges this engine sends (`Ptv`, `InstallStates`,
    /// `TransferAck`, the `CleanupSegments` stall); pass
    /// [`FaultPlan::disabled`] to replay history fault-free.
    pub(crate) fn handle(
        &mut self,
        msg: ToEngine,
        plan: &FaultPlan,
        tx: &mut dyn EngineTx,
    ) -> Result<EngineFlow> {
        let id = self.id;
        match msg {
            ToEngine::DataBatch { tuples } => {
                self.qe.process_batch(tuples, &mut self.sink)?;
            }
            ToEngine::Tick { now, horizon } => {
                self.last_now = now;
                self.release_held(now, tx)?;
                self.qe.tick_with_horizon(now, horizon)?;
                // Opportunistic reactivation (at most one partition per
                // pulse). Not while draining: merging spilled state
                // back into memory would race the drain, and after the
                // final remap strand it outside the owners' cleanup.
                if !self.draining {
                    self.qe.maybe_reactivate(&mut self.sink)?;
                }
            }
            ToEngine::ReportStats { now } => {
                self.last_now = now;
                let report = self.qe.report(now);
                tx.to_gc(FromEngine::Stats(report))?;
            }
            ToEngine::Cptv {
                round,
                amount,
                attempt,
            } => {
                if self.qe.is_stale_round(round) {
                    self.warn("stale_cptv", id, round, 1);
                } else {
                    self.qe.set_mode(Mode::Relocation);
                    let parts = self.qe.select_parts_to_move(amount);
                    // Step 2 rides the faultable Ptv edge: the
                    // coordinator's phase timeout covers a lost
                    // reply by re-issuing Cptv with a new attempt.
                    self.chaos_reply(plan, FaultEdge::Ptv, round, attempt, tx, || {
                        FromEngine::Ptv {
                            round,
                            engine: id,
                            parts: parts.clone(),
                        }
                    })?;
                }
            }
            ToEngine::SendStates {
                round,
                parts,
                receiver,
                attempt,
            } => {
                if self.qe.is_stale_round(round) {
                    self.warn("stale_send_states", id, round, 4);
                    return Ok(EngineFlow::Continue);
                }
                if self.fenced_peers.contains(&receiver) {
                    // A chaos-delayed copy naming a now-fenced receiver
                    // must not re-populate a draining engine; the
                    // coordinator's phase timeout aborts the round.
                    self.warn("send_to_fenced_dropped", receiver, round, 4);
                    return Ok(EngineFlow::Continue);
                }
                let fresh = !self.qe.outbound_pending(round);
                let groups_raw = self.qe.begin_outbound(round, &parts);
                let bytes: u64 = groups_raw
                    .iter()
                    .map(|(g, _, _)| g.state_bytes() as u64)
                    .sum();
                if fresh {
                    // Journal the extraction once; retries re-ship
                    // the retained copy and must not inflate the
                    // relocation volume.
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::RelocationStep {
                            round,
                            step: 4,
                            sender: id,
                            receiver,
                            parts: parts.clone(),
                            bytes,
                            buffered_tuples: 0,
                            load_ratio: 0.0,
                        },
                    );
                    self.qe.journal().add_relocation_bytes(bytes);
                    // Wire volume in encoded (column-block) form — what
                    // the transfer actually costs on the network. Only
                    // a kept journal has a counter to add it to.
                    if self.qe.journal().is_enabled() {
                        let codec = self.qe.config().spill_codec;
                        let encoded: u64 = groups_raw
                            .iter()
                            .map(|(g, _, _)| g.encode_with(codec).len() as u64)
                            .sum();
                        self.qe.journal().add_transfer_bytes(encoded);
                    }
                }
                // A stall keeps the transfer from landing for a
                // while; a delay fault adds on top of it.
                let mut declared_bytes = bytes;
                let mut delay_ms = plan.stall_ms(FaultEdge::InstallStates, round, attempt);
                if delay_ms > 0 {
                    self.note_fault("stall", FaultEdge::InstallStates, round, attempt);
                }
                let mut copies = 1u32;
                match edge_decision(
                    plan,
                    self.qe.journal(),
                    self.last_now,
                    FaultEdge::InstallStates,
                    round,
                    attempt,
                ) {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => copies = 0,
                    FaultDecision::CorruptLength => {
                        declared_bytes = FaultPlan::corrupt_length(bytes);
                    }
                    FaultDecision::Delay(ms) => delay_ms += ms,
                    FaultDecision::Duplicate => copies = 2,
                }
                for _ in 0..copies {
                    let groups: Vec<GroupTransfer> = groups_raw
                        .iter()
                        .cloned()
                        .map(|(snapshot, output_count, purge_protect)| GroupTransfer {
                            snapshot,
                            output_count,
                            purge_protect,
                        })
                        .collect();
                    let m = ToEngine::InstallStates {
                        round,
                        sender: id,
                        groups,
                        attempt,
                        declared_bytes,
                    };
                    if delay_ms > 0 {
                        self.held.push((
                            self.last_now + VirtualDuration::from_millis(delay_ms),
                            Held::ToPeer(receiver, m),
                        ));
                    } else {
                        tx.to_peer(receiver, m)?;
                    }
                }
            }
            ToEngine::InstallStates {
                round,
                sender,
                groups,
                attempt,
                declared_bytes,
            } => {
                let bytes: u64 = groups.iter().map(|g| g.snapshot.state_bytes() as u64).sum();
                // Corrupt-length detection: recompute the payload
                // size, discard on mismatch and send no ack — the
                // sender's phase timeout re-sends the transfer.
                if declared_bytes != bytes {
                    self.warn("corrupt_transfer_discarded", id, round, declared_bytes);
                    return Ok(EngineFlow::Continue);
                }
                if plan.crash_during_install(round, attempt) {
                    self.note_fault("crash_restart", FaultEdge::InstallStates, round, attempt);
                    return Ok(EngineFlow::CrashRequested);
                }
                self.qe.set_mode(Mode::Relocation);
                let parts: Vec<PartitionId> = groups.iter().map(|g| g.snapshot.partition).collect();
                let installed = self.qe.install_groups_for_round(
                    round,
                    groups
                        .into_iter()
                        .map(|g| (g.snapshot, g.output_count, g.purge_protect))
                        .collect(),
                )?;
                if installed {
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::RelocationStep {
                            round,
                            step: 5,
                            sender,
                            receiver: id,
                            parts,
                            bytes,
                            buffered_tuples: 0,
                            load_ratio: 0.0,
                        },
                    );
                } else {
                    // Duplicate (or stale) install: a no-op, but
                    // the ack must still go out — the first one
                    // may have been lost.
                    self.warn("duplicate_install", id, round, 5);
                    if self.qe.is_stale_round(round) {
                        self.qe.set_mode(Mode::Normal);
                    }
                }
                self.chaos_reply(plan, FaultEdge::TransferAck, round, attempt, tx, || {
                    FromEngine::TransferAck {
                        round,
                        engine: id,
                        bytes,
                    }
                })?;
            }
            ToEngine::AbortRound { round } => {
                // Retries exhausted: unwind whichever side of the
                // round this engine played. The sender reinstalls
                // its retained copy (this message precedes any
                // replayed tuples on the same FIFO channel); the
                // receiver discards the uncommitted installation.
                let discarded = self.qe.abort_inbound(round)?;
                let reinstalled = self.qe.abort_outbound(round)?;
                self.warn("round_unwound", id, round, (discarded + reinstalled) as u64);
                self.qe.set_mode(Mode::Normal);
            }
            ToEngine::Resume { round, watermark } => {
                // The round completed: the sender drops its
                // retained copy, the receiver makes the
                // installation permanent, and both close the round
                // so stragglers become stale no-ops.
                self.qe.commit_outbound(round);
                self.qe.commit_inbound(round);
                self.qe.set_mode(Mode::Normal);
                // Catch-up purge: the round's replay (if any) sits
                // earlier in this FIFO inbox, so it has been
                // processed; everything arriving later carries
                // `ts >= watermark`. Purge-only — no spill-trigger
                // side effects between protocol steps.
                self.qe.purge_at(watermark);
            }
            ToEngine::StartSpill { amount } => {
                self.qe.force_spill(amount, self.last_now)?;
            }
            ToEngine::BeginDrain => {
                // Reliable-channel drain poll: report how much movable
                // state is still resident. Idempotent by construction.
                self.draining = true;
                tx.to_gc(FromEngine::DrainState {
                    engine: id,
                    resident_bytes: self.qe.memory_used(),
                })?;
            }
            ToEngine::FenceNotice { engine } => {
                if !self.fenced_peers.contains(&engine) {
                    self.fenced_peers.push(engine);
                }
            }
            ToEngine::PrepareCleanup { owners } => {
                // Forward segments of partitions owned elsewhere.
                let mut forwarded = 0usize;
                for pid in self.qe.spilled_partitions() {
                    let owner = owners
                        .get(pid.index())
                        .copied()
                        .ok_or_else(|| DcapeError::state(format!("no owner for {pid}")))?;
                    if owner == id {
                        continue;
                    }
                    // Stall-only edge: the shipment rides the reliable
                    // channel, so content is never lost — a stall only
                    // makes this engine's share of the cleanup slower.
                    let stall = plan.stall_ms(FaultEdge::CleanupSegments, u64::from(pid.0), 0);
                    if stall > 0 {
                        self.note_fault("stall", FaultEdge::CleanupSegments, u64::from(pid.0), 0);
                        self.cleanup_stall_ms += stall;
                    }
                    let segments = self.qe.take_spilled_segments(pid)?;
                    forwarded += segments.len();
                    tx.to_peer(owner, ToEngine::ForwardedSegments { pid, segments })?;
                }
                tx.to_gc(FromEngine::CleanupReady {
                    engine: id,
                    forwarded,
                })?;
            }
            ToEngine::ForwardedSegments { segments, .. } => {
                self.qe.import_segments(segments)?;
            }
            ToEngine::StartCleanup => {
                // Local parallel merge over owned partitions.
                let report = self.qe.cleanup(&mut self.cleanup_sink)?;
                tx.to_gc(FromEngine::CleanupDone {
                    engine: id,
                    runtime_output: self.sink.count,
                    cleanup_output: self.cleanup_sink.count,
                    spill_count: self.qe.spill_history().len() as u64,
                    cleanup_cost_ms: report.virtual_cost.as_millis() + self.cleanup_stall_ms,
                    journal: self.qe.journal().snapshot(),
                    journal_counters: self
                        .qe
                        .journal()
                        .counters()
                        .map(|c| c.snapshot())
                        .unwrap_or_default(),
                })?;
                return Ok(EngineFlow::Finished);
            }
        }
        Ok(EngineFlow::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::batch::TupleBatch;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::TupleBuilder;

    /// Keeps what the engine sent to its peers.
    struct Peers(Vec<ToEngine>);

    impl EngineTx for Peers {
        fn to_gc(&mut self, _: FromEngine) -> Result<()> {
            Ok(())
        }

        fn to_peer(&mut self, _: EngineId, m: ToEngine) -> Result<()> {
            self.0.push(m);
            Ok(())
        }
    }

    /// `transfer_bytes` is the encoded size of the groups `SendStates`
    /// shipped; a run that keeps no journal ships the same groups and
    /// has no counter to add them to.
    #[test]
    fn transfer_bytes_is_the_encoded_size_of_what_send_states_shipped() {
        let sizes = [true, false].map(|journaled| {
            let cfg = EngineConfig::three_way(1 << 20, 1 << 19);
            let codec = cfg.spill_codec;
            let journal = JournalHandle::when(journaled);
            let mut core = EngineCore::new(EngineId(0), cfg, journal, false).unwrap();
            let mut tuples = TupleBatch::new();
            for seq in 0..60u64 {
                let t = TupleBuilder::new(StreamId((seq % 3) as u8))
                    .seq(seq)
                    .value((seq % 5) as i64)
                    .pad(64);
                tuples.push(PartitionId((seq % 2) as u32), t.build());
            }
            let (plan, mut tx) = (FaultPlan::disabled(), Peers(Vec::new()));
            core.handle(ToEngine::DataBatch { tuples }, &plan, &mut tx)
                .unwrap();
            let send = ToEngine::SendStates {
                round: 1,
                parts: vec![PartitionId(0), PartitionId(1)],
                receiver: EngineId(1),
                attempt: 0,
            };
            core.handle(send, &plan, &mut tx).unwrap();
            let [ToEngine::InstallStates { groups, .. }] = &tx.0[..] else {
                panic!("expected one InstallStates, got {:?}", tx.0);
            };
            let encoded: u64 = groups
                .iter()
                .map(|g| g.snapshot.encode_with(codec).len() as u64)
                .sum();
            let counted = core.qe.journal().counters().map(|c| c.snapshot());
            assert_eq!(
                counted.map(|c| c.transfer_bytes),
                journaled.then_some(encoded)
            );
            encoded
        });
        assert!(sizes[0] > 0 && sizes[0] == sizes[1]);
    }
}
