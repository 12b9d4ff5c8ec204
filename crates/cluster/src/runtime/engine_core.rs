//! Engine-side protocol logic shared by the [`super::threaded`] and
//! [`super::socket`] drivers.
//!
//! An [`EngineCore`] wraps one [`QueryEngine`] plus the message-handling
//! state machine of the Figure 8 protocol: data processing, the
//! engine-side relocation steps (`Ptv`, state extraction,
//! `InstallStates`, `TransferAck`, abort/commit), spill commands, and
//! the two-phase distributed cleanup. The driver-specific part — how a
//! reply reaches the coordinator or a peer engine — is abstracted behind
//! [`EngineTx`], so the same `handle` body runs on a crossbeam channel
//! (threaded driver) and on a framed TCP connection (`dcape-node`
//! worker process).
//!
//! The fault plan is passed per message, not stored: the socket worker
//! substitutes an inactive plan while replaying history after a
//! crash-restart, so a deterministically scheduled fault cannot re-fire
//! on every respawn.

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_engine::controller::Mode;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::CountingSink;
use dcape_metrics::journal::{AdaptEvent, JournalHandle};

use crate::faults::{FaultDecision, FaultEdge, FaultPlan};
use crate::messages::{FromEngine, GroupTransfer, ToEngine};
use crate::runtime::driver::edge_decision;

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

/// One query engine plus its protocol state, independent of transport.
pub(crate) struct EngineCore {
    pub(crate) id: EngineId,
    pub(crate) qe: QueryEngine,
    pub(crate) sink: CountingSink,
    pub(crate) last_now: VirtualTime,
    held: Vec<(VirtualTime, Held)>,
    /// Peers announced as fenced (draining/drained): relocation state
    /// must never be shipped toward them, however stale the command.
    fenced_peers: Vec<EngineId>,
}

impl EngineCore {
    pub(crate) fn new(id: EngineId, cfg: EngineConfig, journal_on: bool) -> Result<Self> {
        let mut qe = QueryEngine::in_memory(id, cfg)?;
        if journal_on {
            qe.set_journal(JournalHandle::enabled());
        }
        Ok(EngineCore {
            id,
            qe,
            sink: CountingSink::new(),
            last_now: VirtualTime::ZERO,
            held: Vec::new(),
            fenced_peers: Vec::new(),
        })
    }

    /// Release engine-held delayed messages that are due (insertion
    /// order among equal due times).
    fn release_held(&mut self, now: VirtualTime, tx: &mut dyn EngineTx) -> Result<()> {
        while let Some(idx) = self
            .held
            .iter()
            .enumerate()
            .filter(|(_, (due, _))| now >= *due)
            .min_by_key(|(i, (due, _))| (*due, *i))
            .map(|(i, _)| i)
        {
            match self.held.remove(idx).1 {
                Held::ToGc(m) => tx.to_gc(m)?,
                Held::ToPeer(target, m) => tx.to_peer(target, m)?,
            }
        }
        Ok(())
    }

    /// Handle one protocol message. `plan` decides the chaos faults on
    /// the edges this engine sends (`Ptv`, `InstallStates`,
    /// `TransferAck`); pass [`FaultPlan::disabled`] to replay history
    /// fault-free.
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
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::ProtocolWarning {
                            code: "stale_cptv",
                            engine: id,
                            round,
                            detail: 1,
                        },
                    );
                } else {
                    self.qe.set_mode(Mode::Relocation);
                    let parts = self.qe.select_parts_to_move(amount);
                    // Step 2 rides the faultable Ptv edge: the
                    // coordinator's phase timeout covers a lost
                    // reply by re-issuing Cptv with a new attempt.
                    match edge_decision(
                        plan,
                        self.qe.journal(),
                        self.last_now,
                        FaultEdge::Ptv,
                        round,
                        attempt,
                    ) {
                        FaultDecision::Deliver => {
                            tx.to_gc(FromEngine::Ptv {
                                round,
                                engine: id,
                                parts,
                            })?;
                        }
                        FaultDecision::Drop | FaultDecision::CorruptLength => {}
                        FaultDecision::Duplicate => {
                            tx.to_gc(FromEngine::Ptv {
                                round,
                                engine: id,
                                parts: parts.clone(),
                            })?;
                            tx.to_gc(FromEngine::Ptv {
                                round,
                                engine: id,
                                parts,
                            })?;
                        }
                        FaultDecision::Delay(ms) => self.held.push((
                            self.last_now + VirtualDuration::from_millis(ms),
                            Held::ToGc(FromEngine::Ptv {
                                round,
                                engine: id,
                                parts,
                            }),
                        )),
                    }
                }
            }
            ToEngine::SendStates {
                round,
                parts,
                receiver,
                attempt,
            } => {
                if self.qe.is_stale_round(round) {
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::ProtocolWarning {
                            code: "stale_send_states",
                            engine: id,
                            round,
                            detail: 4,
                        },
                    );
                    return Ok(EngineFlow::Continue);
                }
                if self.fenced_peers.contains(&receiver) {
                    // A chaos-delayed copy naming a now-fenced receiver
                    // must not re-populate a draining engine; the
                    // coordinator's phase timeout aborts the round.
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::ProtocolWarning {
                            code: "send_to_fenced_dropped",
                            engine: receiver,
                            round,
                            detail: 4,
                        },
                    );
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
                    // the transfer actually costs on the network.
                    let codec = self.qe.config().spill_codec;
                    let encoded: u64 = groups_raw
                        .iter()
                        .map(|(g, _, _)| g.encode_with(codec).len() as u64)
                        .sum();
                    self.qe.journal().add_transfer_bytes(encoded);
                }
                // A stall keeps the transfer from landing for a
                // while; a delay fault adds on top of it.
                let mut declared_bytes = bytes;
                let mut delay_ms = plan.stall_ms(FaultEdge::InstallStates, round, attempt);
                if delay_ms > 0 {
                    self.qe.journal().add_faults_injected(1);
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::FaultInjected {
                            fault: "stall",
                            edge: FaultEdge::InstallStates.name(),
                            round,
                            attempt,
                        },
                    );
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
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::ProtocolWarning {
                            code: "corrupt_transfer_discarded",
                            engine: id,
                            round,
                            detail: declared_bytes,
                        },
                    );
                    return Ok(EngineFlow::Continue);
                }
                if plan.crash_during_install(round, attempt) {
                    self.qe.journal().add_faults_injected(1);
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::FaultInjected {
                            fault: "crash_restart",
                            edge: FaultEdge::InstallStates.name(),
                            round,
                            attempt,
                        },
                    );
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
                    self.qe.journal().record(
                        self.last_now,
                        AdaptEvent::ProtocolWarning {
                            code: "duplicate_install",
                            engine: id,
                            round,
                            detail: 5,
                        },
                    );
                    if self.qe.is_stale_round(round) {
                        self.qe.set_mode(Mode::Normal);
                    }
                }
                match edge_decision(
                    plan,
                    self.qe.journal(),
                    self.last_now,
                    FaultEdge::TransferAck,
                    round,
                    attempt,
                ) {
                    FaultDecision::Deliver => {
                        tx.to_gc(FromEngine::TransferAck {
                            round,
                            engine: id,
                            bytes,
                        })?;
                    }
                    FaultDecision::Drop | FaultDecision::CorruptLength => {}
                    FaultDecision::Duplicate => {
                        for _ in 0..2 {
                            tx.to_gc(FromEngine::TransferAck {
                                round,
                                engine: id,
                                bytes,
                            })?;
                        }
                    }
                    FaultDecision::Delay(ms) => self.held.push((
                        self.last_now + VirtualDuration::from_millis(ms),
                        Held::ToGc(FromEngine::TransferAck {
                            round,
                            engine: id,
                            bytes,
                        }),
                    )),
                }
            }
            ToEngine::AbortRound { round } => {
                // Retries exhausted: unwind whichever side of the
                // round this engine played. The sender reinstalls
                // its retained copy (this message precedes any
                // replayed tuples on the same FIFO channel); the
                // receiver discards the uncommitted installation.
                let discarded = self.qe.abort_inbound(round)?;
                let reinstalled = self.qe.abort_outbound(round)?;
                self.qe.journal().record(
                    self.last_now,
                    AdaptEvent::ProtocolWarning {
                        code: "round_unwound",
                        engine: id,
                        round,
                        detail: (discarded + reinstalled) as u64,
                    },
                );
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
                let mut sink = CountingSink::new();
                let report = self.qe.cleanup(&mut sink)?;
                tx.to_gc(FromEngine::CleanupDone {
                    engine: id,
                    runtime_output: self.qe.total_output(),
                    cleanup_output: sink.count(),
                    spill_count: self.qe.spill_history().len() as u64,
                    cleanup_cost_ms: report.virtual_cost.as_millis(),
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
