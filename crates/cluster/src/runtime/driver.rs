//! Coordinator-side protocol logic shared by the [`super::threaded`] and
//! [`super::socket`] drivers.
//!
//! Both drivers run the same loop — source, splits, global coordinator —
//! and differ only in how a `ToEngine` message reaches its engine (a
//! crossbeam channel vs. a framed TCP connection). Everything here is
//! therefore generic over a `send(engine, msg)` function; the chaos
//! layer (fault decisions, held/delayed messages, timeout recovery) and
//! the coordinator's half of the relocation state machine live on this
//! side of that seam.

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_metrics::journal::{AdaptEvent, CountersSnapshot, JournalEntry, JournalHandle};

use crate::coordinator::{DrainStep, EngineState, GlobalCoordinator, TimeoutAction};
use crate::faults::{FaultDecision, FaultEdge, FaultPlan};
use crate::messages::{FromEngine, ToEngine};
use crate::placement::{released_batch, PlacementMap};
use crate::relocation::Action;
use crate::stats::ClusterStats;
use crate::strategy::Decision;

/// How a driver puts a message on the wire to one engine.
pub(crate) type SendFn<'a> = dyn FnMut(EngineId, ToEngine) -> Result<()> + 'a;

/// Results folded out of engines that drained and exited *mid-run*
/// (their `CleanupDone` arrives long before the final shutdown merge).
#[derive(Debug, Default)]
pub(crate) struct DrainFold {
    pub(crate) runtime_output: u64,
    pub(crate) cleanup_output: u64,
    pub(crate) cleanup_wall_ms: u64,
    pub(crate) spill_counts: Vec<(EngineId, u64)>,
    pub(crate) journals: Vec<Vec<JournalEntry>>,
    pub(crate) counters: CountersSnapshot,
}

/// Fold one engine's shutdown counters into a cluster-wide snapshot.
/// Spills happen engine-side in the live runtimes (unlike the sim's
/// mirror); the chaos counters fold too: engines inject faults on the
/// edges they send (Ptv, InstallStates, TransferAck).
pub(crate) fn fold_engine_counters(dst: &mut CountersSnapshot, src: &CountersSnapshot) {
    dst.spill_bytes += src.spill_bytes;
    dst.spill_bytes_written += src.spill_bytes_written;
    dst.spill_bytes_read += src.spill_bytes_read;
    dst.transfer_bytes += src.transfer_bytes;
    dst.events_recorded += src.events_recorded;
    dst.events_dropped += src.events_dropped;
    dst.faults_injected += src.faults_injected;
    dst.msgs_retried += src.msgs_retried;
    dst.rounds_aborted += src.rounds_aborted;
    dst.watermark_released_on_abort += src.watermark_released_on_abort;
}

/// Intercept the drain-shutdown handshake of an engine in
/// `DrainCleanup`: its `CleanupReady`/`CleanupDone` arrive mid-run,
/// where the shared coordinator handler treats them as protocol errors.
/// Returns the message back when it is not part of a drain shutdown.
pub(crate) fn intercept_drain_cleanup(
    msg: FromEngine,
    gc: &mut GlobalCoordinator,
    send: &mut impl FnMut(EngineId, ToEngine) -> Result<()>,
    fold: &mut DrainFold,
    now: VirtualTime,
) -> Result<Option<FromEngine>> {
    match msg {
        FromEngine::CleanupReady { engine, .. }
            if gc.engine_state(engine) == EngineState::DrainCleanup =>
        {
            send(engine, ToEngine::StartCleanup)?;
            Ok(None)
        }
        FromEngine::CleanupDone {
            engine,
            runtime_output,
            cleanup_output,
            spill_count,
            cleanup_cost_ms,
            journal,
            journal_counters,
        } if gc.engine_state(engine) == EngineState::DrainCleanup => {
            fold.runtime_output += runtime_output;
            fold.cleanup_output += cleanup_output;
            fold.cleanup_wall_ms = fold.cleanup_wall_ms.max(cleanup_cost_ms);
            fold.spill_counts.push((engine, spill_count));
            fold.journals.push(journal);
            fold_engine_counters(&mut fold.counters, &journal_counters);
            gc.finish_drain(engine, now);
            Ok(None)
        }
        other => Ok(Some(other)),
    }
}

/// Driver-held control messages the chaos layer delayed (`Cptv`,
/// `SendStates`); released into the transport once the virtual clock
/// passes the due time.
pub(crate) type HeldSends = Vec<(VirtualTime, EngineId, ToEngine)>;

/// Consult the fault plan for one message edge, journaling any injected
/// fault (shared by the driver and the engines — both count into
/// `faults_injected`, folded together at shutdown).
pub(crate) fn edge_decision(
    plan: &FaultPlan,
    journal: &JournalHandle,
    now: VirtualTime,
    edge: FaultEdge,
    round: u64,
    attempt: u32,
) -> FaultDecision {
    let decision = plan.decide(edge, round, attempt);
    if let Some(fault) = decision.fault_name() {
        journal.add_faults_injected(1);
        journal.record(
            now,
            AdaptEvent::FaultInjected {
                fault,
                edge: edge.name(),
                round,
                attempt,
            },
        );
    }
    decision
}

/// Release driver-held delayed control messages whose due time passed
/// (insertion order among equal due times — FIFO per transport does the
/// rest).
pub(crate) fn release_due(held: &mut HeldSends, now: VirtualTime, send: &mut SendFn) -> Result<()> {
    while let Some(idx) = held
        .iter()
        .enumerate()
        .filter(|(_, (due, _, _))| now >= *due)
        .min_by_key(|(i, (due, _, _))| (*due, *i))
        .map(|(i, _)| i)
    {
        let (_, engine, msg) = held.remove(idx);
        send(engine, msg)?;
    }
    Ok(())
}

/// Put a coordinator-originated control message (`Cptv`, `SendStates`)
/// on the wire through the fault plan: deliver, drop, duplicate, delay
/// or garble it per the seeded schedule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn chaos_send(
    plan: &FaultPlan,
    journal: &JournalHandle,
    now: VirtualTime,
    edge: FaultEdge,
    round: u64,
    attempt: u32,
    target: EngineId,
    make: impl Fn() -> ToEngine,
    send: &mut SendFn,
    held: &mut HeldSends,
) -> Result<()> {
    match edge_decision(plan, journal, now, edge, round, attempt) {
        FaultDecision::Deliver => send(target, make()),
        // A garbled control message is discarded on receipt — same
        // outcome as a drop; the phase timeout re-sends it.
        FaultDecision::Drop | FaultDecision::CorruptLength => Ok(()),
        FaultDecision::Duplicate => {
            send(target, make())?;
            send(target, make())
        }
        FaultDecision::Delay(ms) => {
            held.push((now + VirtualDuration::from_millis(ms), target, make()));
            Ok(())
        }
    }
}

/// Fence a draining engine: mark it in the placement map, tell every
/// other participant (so stale relocations toward it are dropped), and
/// start the `BeginDrain`/`DrainState` poll loop.
pub(crate) fn start_drain_fencing(
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    engine: EngineId,
) -> Result<()> {
    placement.fence_engine(engine)?;
    for peer in gc.participating_engines() {
        if peer != engine {
            send(peer, ToEngine::FenceNotice { engine })?;
        }
    }
    send(engine, ToEngine::BeginDrain)
}

/// Process a scale-in event: request the drain and, unless it was
/// deferred behind an in-flight round targeting the engine, fence it
/// immediately.
pub(crate) fn begin_drain_event(
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    engine: EngineId,
    now: VirtualTime,
) -> Result<()> {
    if gc.request_drain(engine, now)? {
        start_drain_fencing(gc, placement, send, engine)?;
    }
    Ok(())
}

/// Keep a drain moving after a relocation round ended (completed or
/// aborted): start a deferred drain, or re-poll the draining engine
/// with `BeginDrain` now that the round slot is free.
pub(crate) fn drain_continue(
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    now: VirtualTime,
) -> Result<()> {
    if let Some(engine) = gc.poll_pending_drain(now) {
        return start_drain_fencing(gc, placement, send, engine);
    }
    if !gc.relocation_active() {
        if let Some(engine) = gc.draining_engine() {
            send(engine, ToEngine::BeginDrain)?;
        }
    }
    Ok(())
}

/// Send the tuples a pause released to `target` as one
/// [`ToEngine::DataBatch`] (none when nothing was buffered), ahead of
/// whatever the caller sends next on the same FIFO transport. Returns
/// how many tuples went.
pub(crate) fn send_released(
    released: Vec<(PartitionId, Vec<Tuple>)>,
    target: EngineId,
    send: &mut SendFn,
) -> Result<u64> {
    let tuples = released_batch(released);
    let sent = tuples.len() as u64;
    if sent > 0 {
        send(target, ToEngine::DataBatch { tuples })?;
    }
    Ok(sent)
}

/// Execute [`DrainStep::FinalizeRemap`]: move the draining engine's
/// remaining (zero-state) partitions straight to `receiver` — pause and
/// remap back-to-back, so nothing can buffer in between — then start
/// the cleanup hand-off: flush any residual resident state to disk and
/// have the engine forward every spilled segment to the new owners.
pub(crate) fn finalize_drain_remap(
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    engine: EngineId,
    receiver: EngineId,
    now: VirtualTime,
) -> Result<()> {
    let parts = placement.partitions_of(engine);
    if !parts.is_empty() {
        placement.pause(&parts)?;
        let released = placement.remap_and_release(&parts, receiver)?;
        send_released(released, receiver, send)?;
    }
    gc.drain_finalized(engine, parts.len(), now);
    send(engine, ToEngine::StartSpill { amount: u64::MAX })?;
    let owners: Vec<EngineId> = (0..placement.num_partitions())
        .map(|p| placement.owner(PartitionId(p)))
        .collect::<Result<_>>()?;
    send(engine, ToEngine::PrepareCleanup { owners })
}

/// Execute a drain step returned by
/// [`GlobalCoordinator::on_drain_state`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_drain_step(
    step: DrainStep,
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    journal: &JournalHandle,
    now: VirtualTime,
    plan: &FaultPlan,
    held: &mut HeldSends,
) -> Result<()> {
    match step {
        DrainStep::Wait => Ok(()),
        DrainStep::ForceSpill { engine, amount } => {
            // The spill and the re-poll ride the reliable channel in
            // order, so the next DrainState reflects the spill.
            send(engine, ToEngine::StartSpill { amount })?;
            send(engine, ToEngine::BeginDrain)
        }
        DrainStep::Relocate {
            round,
            sender,
            amount,
            ..
        } => chaos_send(
            plan,
            journal,
            now,
            FaultEdge::Cptv,
            round,
            0,
            sender,
            || ToEngine::Cptv {
                round,
                amount,
                attempt: 0,
            },
            send,
            held,
        ),
        DrainStep::FinalizeRemap { engine, receiver } => {
            finalize_drain_remap(gc, placement, send, engine, receiver, now)
        }
    }
}

/// Execute a phase-timeout recovery decision: re-send the phase's
/// message (again through the fault plan — a retry can be unlucky
/// twice) or unwind the round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_timeout_action(
    action: TimeoutAction,
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    journal: &JournalHandle,
    now: VirtualTime,
    plan: &FaultPlan,
    held: &mut HeldSends,
) -> Result<()> {
    match action {
        TimeoutAction::RetryCptv {
            round,
            sender,
            amount,
            attempt,
        } => chaos_send(
            plan,
            journal,
            now,
            FaultEdge::Cptv,
            round,
            attempt,
            sender,
            || ToEngine::Cptv {
                round,
                amount,
                attempt,
            },
            send,
            held,
        ),
        TimeoutAction::RetrySendStates {
            round,
            sender,
            receiver,
            parts,
            attempt,
        } => chaos_send(
            plan,
            journal,
            now,
            FaultEdge::SendStates,
            round,
            attempt,
            sender,
            || ToEngine::SendStates {
                round,
                parts: parts.clone(),
                receiver,
                attempt,
            },
            send,
            held,
        ),
        TimeoutAction::AbortRound {
            round,
            sender,
            receiver,
            parts,
            held_since,
        } => {
            // Any delayed copies of this round's control messages are
            // moot — the engines treat them as stale if they do land,
            // but don't even bother releasing them.
            held.retain(|(_, _, m)| {
                !matches!(m,
                    ToEngine::Cptv { round: r, .. } | ToEngine::SendStates { round: r, .. }
                    if *r == round)
            });
            // Abort notifications ride the reliable channel (an abort
            // that can be lost is not an abort protocol). FIFO order:
            // the sender reinstalls its retained copy before any
            // replayed tuple reaches it.
            send(receiver, ToEngine::AbortRound { round })?;
            send(sender, ToEngine::AbortRound { round })?;
            if !parts.is_empty() {
                // Release without remapping: ownership never changed,
                // so the buffered tuples replay to the original owner.
                let released = placement.release_paused(&parts)?;
                let buffered = send_released(released, sender, send)?;
                journal.sub_buffered_in_flight(buffered);
                journal.add_replayed_in_order(buffered);
                if let Some(held_at) = held_since {
                    journal
                        .add_watermark_held_ms(now.as_millis().saturating_sub(held_at.as_millis()));
                }
                journal.add_watermark_released_on_abort(1);
            }
            // The round slot is free again — keep any drain moving.
            drain_continue(gc, placement, send, now)
        }
    }
}

/// Coordinator-side message handling (shared by the run loop and the
/// quiesce loop of both drivers).
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_coordinator_msg(
    msg: FromEngine,
    gc: &mut GlobalCoordinator,
    placement: &mut PlacementMap,
    send: &mut SendFn,
    pending_stats: &mut [Option<dcape_engine::stats::EngineStatsReport>],
    awaiting_stats: &mut bool,
    relocations: &mut u64,
    journal: &JournalHandle,
    now: VirtualTime,
    watermark: VirtualTime,
    plan: &FaultPlan,
    held: &mut HeldSends,
) -> Result<()> {
    match msg {
        FromEngine::Stats(report) => {
            let idx = report.engine.index();
            pending_stats[idx] = Some(report);
            // Completeness over the *active* set: draining engines may
            // exit mid-cycle, and the strategy must not pick them as
            // sender or receiver anyway.
            let active = gc.active_engines();
            let complete = if active.is_empty() {
                pending_stats.iter().all(Option::is_some)
            } else {
                active.iter().all(|e| pending_stats[e.index()].is_some())
            };
            if *awaiting_stats && complete {
                *awaiting_stats = false;
                let reports = if active.is_empty() {
                    pending_stats.iter().flatten().copied().collect()
                } else {
                    active
                        .iter()
                        .filter_map(|e| pending_stats[e.index()])
                        .collect()
                };
                let stats = ClusterStats::new(reports);
                match gc.evaluate(&stats, now)? {
                    Decision::None => {}
                    Decision::ForceSpill { engine, amount } => {
                        send(engine, ToEngine::StartSpill { amount })?;
                    }
                    Decision::Relocate { sender, .. } => {
                        let (round, s, _r, amount) =
                            gc.active_round_info().expect("round just opened");
                        debug_assert_eq!(s, sender);
                        chaos_send(
                            plan,
                            journal,
                            now,
                            FaultEdge::Cptv,
                            round,
                            0,
                            sender,
                            || ToEngine::Cptv {
                                round,
                                amount,
                                attempt: 0,
                            },
                            send,
                            held,
                        )?;
                    }
                }
            }
            Ok(())
        }
        FromEngine::Ptv {
            round,
            engine,
            parts,
        } => match gc.on_ptv(engine, round, parts, now)? {
            // Stale or duplicated Ptv: already journaled. If its round
            // is gone and the engine is not the sender of a live one, a
            // Resume stops it idling in relocation mode after a late
            // Cptv re-entered it.
            None => {
                let active_sender = gc.active_round_info().map(|(_, s, _, _)| s);
                if active_sender != Some(engine) {
                    send(engine, ToEngine::Resume { round, watermark })?;
                }
                Ok(())
            }
            // Aborted rounds paused nothing, so the full admitted
            // watermark is already safe to release.
            Some(Action::Abort) => {
                send(engine, ToEngine::Resume { round, watermark })?;
                drain_continue(gc, placement, send, now)
            }
            Some(Action::PauseAndTransfer {
                parts,
                sender,
                receiver,
            }) => {
                placement.pause(&parts)?;
                journal.record(
                    now,
                    AdaptEvent::RelocationStep {
                        round,
                        step: 3,
                        sender,
                        receiver,
                        parts: parts.clone(),
                        bytes: 0,
                        buffered_tuples: 0,
                        load_ratio: 0.0,
                    },
                );
                let attempt = gc.current_attempt();
                chaos_send(
                    plan,
                    journal,
                    now,
                    FaultEdge::SendStates,
                    round,
                    attempt,
                    sender,
                    || ToEngine::SendStates {
                        round,
                        parts: parts.clone(),
                        receiver,
                        attempt,
                    },
                    send,
                    held,
                )
            }
            Some(Action::RemapAndResume { .. }) => {
                Err(DcapeError::protocol("remap action out of order"))
            }
        },
        FromEngine::TransferAck {
            round,
            engine,
            bytes,
        } => {
            // Capture the pair before the ack closes the round.
            let sender = gc.active_round_info().map(|(_, s, ..)| s).unwrap_or(engine);
            match gc.on_transfer_ack(engine, round, now)? {
                // Stale or duplicated ack: already journaled; nothing
                // to execute (and nothing to double-count).
                None => Ok(()),
                Some(Action::RemapAndResume {
                    parts,
                    receiver,
                    held_since,
                }) => {
                    journal.add_relocation_bytes(bytes);
                    // Step 7: flush the split-side buffers to the new
                    // owner as one batch (per-pid lists arrive in order;
                    // batching is a stable reordering).
                    let released = placement.remap_and_release(&parts, receiver)?;
                    let buffered = send_released(released, receiver, send)?;
                    journal.record(
                        now,
                        AdaptEvent::RelocationStep {
                            round,
                            step: 7,
                            sender,
                            receiver,
                            parts,
                            bytes: 0,
                            buffered_tuples: buffered,
                            load_ratio: 0.0,
                        },
                    );
                    journal.sub_buffered_in_flight(buffered);
                    journal.add_replayed_in_order(buffered);
                    journal.add_watermark_held_ms(
                        now.as_millis().saturating_sub(held_since.as_millis()),
                    );
                    *relocations += 1;
                    // Step 8: resume both parties, releasing the held
                    // purge watermark. Every replayed tuple was sent
                    // (FIFO) before this Resume and every later arrival
                    // carries `ts >= watermark`, so engines may catch
                    // their window purge up to `watermark` on receipt.
                    // The sender is derivable from the completed
                    // round's parts' previous owner; we broadcast
                    // Resume — engines ignore stale rounds.
                    for peer in broadcast_set(gc, pending_stats.len()) {
                        send(peer, ToEngine::Resume { round, watermark })?;
                    }
                    journal.record(
                        now,
                        AdaptEvent::RelocationStep {
                            round,
                            step: 8,
                            sender,
                            receiver,
                            parts: Vec::new(),
                            bytes: 0,
                            buffered_tuples: 0,
                            load_ratio: 0.0,
                        },
                    );
                    // The round slot is free again — keep any drain
                    // moving.
                    drain_continue(gc, placement, send, now)
                }
                other => Err(DcapeError::protocol(format!(
                    "unexpected action after ack: {other:?}"
                ))),
            }
        }
        FromEngine::DrainState {
            engine,
            resident_bytes,
        } => {
            let step = gc.on_drain_state(engine, resident_bytes, now)?;
            handle_drain_step(step, gc, placement, send, journal, now, plan, held)
        }
        FromEngine::JoinReady { engine } => {
            gc.on_join_ready(engine, now);
            Ok(())
        }
        // Mid-run cleanup traffic belongs to a drain hand-off; the
        // drivers intercept it (they own the counter accumulators) and
        // only a misrouted message lands here.
        FromEngine::CleanupReady { .. } | FromEngine::CleanupDone { .. } => {
            Err(DcapeError::protocol("cleanup message before shutdown"))
        }
    }
}

/// The engines a protocol broadcast must reach: the participating
/// membership, or every provisioned slot in legacy mode.
pub(crate) fn broadcast_set(gc: &GlobalCoordinator, capacity: usize) -> Vec<EngineId> {
    let members = gc.participating_engines();
    if members.is_empty() {
        (0..capacity).map(|i| EngineId(i as u16)).collect()
    } else {
        members
    }
}
