//! The engine side of the protocol: the one handler every runtime
//! steps.
//!
//! An `EngineCore` wraps one [`QueryEngine`] plus the message-handling
//! state machine of the Figure 8 protocol: data processing, the clock
//! pulse (window purge, spill check, run-time reactivation), the
//! engine-side relocation steps (`Ptv`, state extraction,
//! `InstallStates`, `TransferAck`, abort/commit), spill commands, the
//! drain poll and the two-phase distributed cleanup. It is the only
//! place a runtime builds an engine.
//!
//! The engine's side of a relocation round — closed rounds, the copy
//! kept until commit, the uncommitted install, the partitions given
//! away, the relocation-mode flips — is one private `EngineRound`,
//! consulted once per protocol message; the [`QueryEngine`] only hands
//! state over and knows nothing of rounds. The transport-specific part
//! — how a reply reaches the coordinator or a peer engine — is abstracted
//! behind `EngineTx`, so the same `handle` body runs inline under the
//! virtual-time transport ([`super::sim`]), on a channel
//! ([`super::threaded`]) and on a framed TCP connection (the
//! `dcape-node` worker process of [`super::socket`]).
//!
//! The fault plan is passed per message, not stored: the socket worker
//! substitutes an inactive plan while replaying history after a
//! crash-restart, so a deterministically scheduled fault cannot re-fire
//! on every respawn.

use bytes::Bytes;

use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashSet;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::{ExtractedGroup, QueryEngine};
use dcape_engine::probe::ProbeSpans;
use dcape_engine::sink::{CollectingSink, ResultSink};
use dcape_engine::Mode;
use dcape_metrics::journal::{AdaptEvent, Fault, JournalHandle, Warning};
use dcape_storage::{FileBackend, SpilledGroup};

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
    /// A chaos crash-restart fired (already journaled): the virtual-time
    /// and channel transports restart the engine in place
    /// ([`EngineCore::crash_restart`]), the socket worker exits the OS
    /// process and is respawned by the coordinator.
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

/// This engine's side of the relocation rounds, the only place it
/// lives. A message for a closed round is a stale no-op, a duplicate
/// install is re-acked without reinstalling, an abort restores both
/// ends as they were. The sender's kept copy survives an in-process
/// crash, the receiver's install does not until the round commits.
/// Ownership moves only at commit: an abort or a crash gives nothing back.
#[derive(Default)]
struct EngineRound {
    /// Rounds below this id are closed.
    min_live: u64,
    /// What a round shipped, kept until it ends: an abort reinstalls
    /// it, a retried `SendStates` re-ships it.
    outbound: Option<(u64, Vec<KeptGroup>)>,
    /// What an uncommitted round installed here, and the latest
    /// attempt of its transfer that arrived since.
    inbound: Option<(u64, u32, Vec<PartitionId>)>,
    /// Shipped away in a committed round and not received back in one:
    /// their segments here are the new owner's, never reactivated here.
    shipped_away: FxHashSet<PartitionId>,
    /// Peers announced as fenced (draining/drained): nothing is shipped
    /// toward them, however stale the command — a chaos-delayed copy must
    /// not re-populate a draining engine; the round times out instead.
    fenced: FxHashSet<EngineId>,
}

/// What a `SendStates` ships.
enum Outbound {
    Stale,
    Fenced,
    /// The groups, and — when they were extracted now rather than
    /// decoded from the kept copy — their encoded size.
    Ship(Vec<ExtractedGroup>, Option<u64>),
}

/// A shipped group as its sender keeps it until the round ends: the
/// snapshot encoded once as segment bytes — their length is the
/// transfer's `transfer_bytes` — so that the snapshot itself travels.
/// Only a retry, a duplicate or an abort decodes it again.
struct KeptGroup {
    partition: PartitionId,
    segment: Bytes,
    output_count: u64,
    purge_protect: bool,
}

impl KeptGroup {
    fn keep((snapshot, output_count, purge_protect): &ExtractedGroup) -> Self {
        KeptGroup {
            partition: snapshot.partition,
            segment: snapshot.encode(),
            output_count: *output_count,
            purge_protect: *purge_protect,
        }
    }

    /// The kept groups as they were extracted.
    fn restore(kept: &[KeptGroup]) -> Result<Vec<ExtractedGroup>> {
        (kept.iter())
            .map(|k| {
                let snapshot = SpilledGroup::decode(k.segment.clone())?;
                Ok((snapshot, k.output_count, k.purge_protect))
            })
            .collect()
    }
}

impl EngineRound {
    fn is_stale(&self, round: u64) -> bool {
        round < self.min_live
    }

    /// End `round` here: later copies of its messages are stale.
    fn close(&mut self, qe: &mut QueryEngine, round: u64) {
        self.min_live = self.min_live.max(round + 1);
        self.settle(qe);
    }

    /// Leave relocation mode unless a kept copy or an uncommitted install
    /// remains, which no spill or reactivation may touch (a partition
    /// reactivated while its copy is in flight would be resident twice).
    fn settle(&self, qe: &mut QueryEngine) {
        if self.outbound.is_none() && self.inbound.is_none() {
            qe.set_mode(Mode::Normal);
        }
    }

    /// `Cptv`: false for a closed round, else the engine enters
    /// relocation mode.
    fn on_cptv(&self, qe: &mut QueryEngine, round: u64) -> bool {
        let live = !self.is_stale(round);
        if live {
            qe.set_mode(Mode::Relocation);
        }
        live
    }

    /// `SendStates`: extract `parts` and keep them, encoded, until the
    /// round ends — or re-ship what a first copy of this command
    /// extracted — in relocation mode.
    fn on_send_states(
        &mut self,
        qe: &mut QueryEngine,
        round: u64,
        parts: &[PartitionId],
        receiver: EngineId,
    ) -> Result<Outbound> {
        if self.is_stale(round) {
            return Ok(Outbound::Stale);
        }
        if self.fenced.contains(&receiver) {
            return Ok(Outbound::Fenced);
        }
        qe.set_mode(Mode::Relocation);
        if self.outbound.as_ref().is_some_and(|(r, _)| *r == round) {
            return Ok(Outbound::Ship(self.kept_copy()?, None));
        }
        let groups = qe.extract_groups(parts);
        let kept: Vec<KeptGroup> = groups.iter().map(KeptGroup::keep).collect();
        let encoded = kept.iter().map(|k| k.segment.len() as u64).sum();
        self.outbound = Some((round, kept));
        Ok(Outbound::Ship(groups, Some(encoded)))
    }

    /// A copy of what the live round shipped, decoded from the kept
    /// bytes.
    fn kept_copy(&self) -> Result<Vec<ExtractedGroup>> {
        KeptGroup::restore(self.outbound.as_ref().map_or(&[], |(_, kept)| kept))
    }

    /// Whether attempt `attempt` of `round`'s transfer is a copy of an
    /// install this engine holds: no later than the latest attempt that
    /// arrived since it installed.
    fn holds(&self, round: u64, attempt: u32) -> bool {
        matches!(&self.inbound, Some((r, latest, _)) if *r == round && attempt <= *latest)
    }

    /// `InstallStates`: install `groups` in relocation mode. False (the
    /// caller still acks) when already installed or the round is closed.
    fn on_install_states(
        &mut self,
        qe: &mut QueryEngine,
        round: u64,
        attempt: u32,
        groups: Vec<ExtractedGroup>,
    ) -> Result<bool> {
        if self.is_stale(round) {
            self.settle(qe);
            return Ok(false);
        }
        qe.set_mode(Mode::Relocation);
        if let Some((_, latest, _)) = self.inbound.as_mut().filter(|(r, ..)| *r == round) {
            *latest = (*latest).max(attempt);
            return Ok(false);
        }
        let pids = groups.iter().map(|(g, _, _)| g.partition).collect();
        qe.install_groups(groups)?;
        self.inbound = Some((round, attempt, pids));
        Ok(true)
    }

    /// `Resume`: the round committed. The sender drops its copy and no
    /// longer owns what it shipped; the receiver's install is permanent
    /// and what it received is its own again.
    fn on_resume(&mut self, qe: &mut QueryEngine, round: u64) {
        if let Some((_, shipped)) = self.outbound.take_if(|(r, _)| *r == round) {
            (self.shipped_away).extend(shipped.iter().map(|k| k.partition));
        }
        if let Some((_, _, received)) = self.inbound.take_if(|(r, ..)| *r == round) {
            for pid in &received {
                self.shipped_away.remove(pid);
            }
        }
        self.close(qe, round);
    }

    /// `AbortRound`: the receiver uninstalls, the sender reinstalls its
    /// copy. Returns the number of groups unwound.
    fn on_abort(&mut self, qe: &mut QueryEngine, round: u64) -> Result<usize> {
        let mut unwound = 0;
        if let Some((_, _, received)) = self.inbound.take_if(|(r, ..)| *r == round) {
            unwound += qe.extract_groups(&received).len();
        }
        if let Some((_, shipped)) = self.outbound.take_if(|(r, _)| *r == round) {
            unwound += shipped.len();
            qe.install_groups(KeptGroup::restore(&shipped)?)?;
        }
        self.close(qe, round);
        Ok(unwound)
    }

    /// An in-process crash loses the uncommitted install (the sender's
    /// copy is the truth; the round retries or aborts), not the kept copy.
    fn on_crash(&mut self, qe: &mut QueryEngine) {
        if let Some((_, _, received)) = self.inbound.take() {
            qe.extract_groups(&received);
        }
        self.settle(qe);
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
    round: EngineRound,
    /// `BeginDrain` arrived: this engine is being emptied, so it stops
    /// reactivating spilled state back into memory.
    draining: bool,
    /// Chaos stalls on the segments this engine forwarded, added to its
    /// reported cleanup cost.
    cleanup_stall_ms: u64,
}

impl EngineCore {
    /// Build the engine — the one place a runtime does. `journal` is
    /// the engine's own journal; `collect_results` makes both sinks
    /// materialize their results.
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
            round: EngineRound::default(),
            draining: false,
            cleanup_stall_ms: 0,
        })
    }

    /// The in-process crash after [`EngineFlow::CrashRequested`] (the
    /// socket worker exits instead and is replayed): it loses a round's
    /// uncommitted install and the messages it was holding — a dead
    /// process's outbox dies with it, and a held ack would promise the
    /// install just wiped.
    pub(crate) fn crash_restart(&mut self) {
        self.round.on_crash(&mut self.qe);
        self.held.clear();
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
    fn warn(&self, code: Warning, engine: EngineId, round: u64, detail: u64) {
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
    fn note_fault(&self, fault: Fault, edge: FaultEdge, round: u64, attempt: u32) {
        self.qe.journal().add_faults_injected(1);
        self.qe.journal().record(
            self.last_now,
            AdaptEvent::FaultInjected {
                fault,
                edge,
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
                    let away = &self.round.shipped_away;
                    (self.qe).maybe_reactivate(|pid| !away.contains(&pid), &mut self.sink)?;
                }
            }
            ToEngine::ReportStats { now } => {
                self.last_now = now;
                // Recompute the memory accounting from scratch once per
                // collection: drift in the incremental bookkeeping fails
                // the run instead of skewing the decision it feeds.
                #[cfg(debug_assertions)]
                self.qe.assert_accounting_consistent()?;
                let report = self.qe.report(now);
                tx.to_gc(FromEngine::Stats(report))?;
            }
            ToEngine::Cptv {
                round,
                amount,
                attempt,
            } => {
                if self.round.on_cptv(&mut self.qe, round) {
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
                } else {
                    self.warn(Warning::StaleCptv, id, round, 1);
                }
            }
            ToEngine::SendStates {
                round,
                parts,
                receiver,
                attempt,
            } => {
                let (groups, encoded) =
                    match (self.round).on_send_states(&mut self.qe, round, &parts, receiver)? {
                        Outbound::Ship(groups, encoded) => (groups, encoded),
                        Outbound::Stale => {
                            self.warn(Warning::StaleSendStates, id, round, 4);
                            return Ok(EngineFlow::Continue);
                        }
                        Outbound::Fenced => {
                            self.warn(Warning::SendToFencedDropped, receiver, round, 4);
                            return Ok(EngineFlow::Continue);
                        }
                    };
                let bytes: u64 = groups.iter().map(|(g, _, _)| g.state_bytes() as u64).sum();
                if let Some(encoded) = encoded {
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
                        },
                    );
                    self.qe.journal().add_relocation_bytes(bytes);
                    // Wire volume in encoded (column-block) form — what
                    // the transfer actually costs on the network.
                    self.qe.journal().add_transfer_bytes(encoded);
                }
                // A stall keeps the transfer from landing for a
                // while; a delay fault adds on top of it.
                let mut declared_bytes = bytes;
                let mut delay_ms = plan.stall_ms(FaultEdge::InstallStates, round, attempt);
                if delay_ms > 0 {
                    self.note_fault(Fault::Stall, FaultEdge::InstallStates, round, attempt);
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
                // The snapshots travel in the last copy; a duplicate
                // before it is decoded from the kept bytes.
                let mut transfers = Vec::new();
                for _ in 1..copies {
                    transfers.push(self.round.kept_copy()?);
                }
                if copies > 0 {
                    transfers.push(groups);
                }
                for groups in transfers {
                    let groups = (groups.into_iter())
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
                    self.warn(Warning::CorruptTransferDiscarded, id, round, declared_bytes);
                    return Ok(EngineFlow::Continue);
                }
                // A crash strikes an install, never a copy of one held
                // here already: the ack sent for that install may be
                // the one the coordinator commits on.
                if !self.round.holds(round, attempt) && plan.crash_during_install(round, attempt) {
                    self.note_fault(
                        Fault::CrashRestart,
                        FaultEdge::InstallStates,
                        round,
                        attempt,
                    );
                    return Ok(EngineFlow::CrashRequested);
                }
                let parts: Vec<PartitionId> = groups.iter().map(|g| g.snapshot.partition).collect();
                let groups = (groups.into_iter())
                    .map(|g| (g.snapshot, g.output_count, g.purge_protect))
                    .collect();
                if self
                    .round
                    .on_install_states(&mut self.qe, round, attempt, groups)?
                {
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
                        },
                    );
                } else {
                    // Duplicate (or stale) install: a no-op, but
                    // the ack must still go out — the first one
                    // may have been lost.
                    self.warn(Warning::DuplicateInstall, id, round, 5);
                }
                self.chaos_reply(plan, FaultEdge::TransferAck, round, attempt, tx, || {
                    FromEngine::TransferAck {
                        round,
                        engine: id,
                        bytes,
                        attempt,
                    }
                })?;
            }
            ToEngine::AbortRound { round } => {
                // Retries exhausted: unwind whichever side of the
                // round this engine played. The sender reinstalls
                // its retained copy (this message precedes any
                // replayed tuples on the same FIFO channel); the
                // receiver discards the uncommitted installation.
                let unwound = self.round.on_abort(&mut self.qe, round)?;
                self.warn(Warning::RoundUnwound, id, round, unwound as u64);
            }
            ToEngine::Resume { round, watermark } => {
                // The round completed: the sender drops its
                // retained copy, the receiver makes the
                // installation permanent, ownership moves, and both
                // close the round so stragglers become stale no-ops.
                self.round.on_resume(&mut self.qe, round);
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
                self.round.fenced.insert(engine);
            }
            ToEngine::PrepareCleanup { owners } => {
                // Forward segments of partitions owned elsewhere.
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
                        self.note_fault(
                            Fault::Stall,
                            FaultEdge::CleanupSegments,
                            u64::from(pid.0),
                            0,
                        );
                        self.cleanup_stall_ms += stall;
                    }
                    let segments = self.qe.take_spilled_segments(pid)?;
                    tx.to_peer(owner, ToEngine::ForwardedSegments { pid, segments })?;
                }
                tx.to_gc(FromEngine::CleanupReady { engine: id })?;
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
                    journal_counters: self.qe.journal().counters().snapshot(),
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
    use std::collections::VecDeque;

    use dcape_common::batch::TupleBatch;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::TupleBuilder;

    use crate::faults::FaultConfig;
    use proptest::prelude::*;

    /// What the engines sent: to the coordinator in `gc`; to a peer on
    /// `wire`, until the test delivers, drops or duplicates it.
    #[derive(Default)]
    struct Recorder {
        gc: Vec<FromEngine>,
        wire: VecDeque<(EngineId, ToEngine)>,
    }

    impl EngineTx for Recorder {
        fn to_gc(&mut self, m: FromEngine) -> Result<()> {
            self.gc.push(m);
            Ok(())
        }

        fn to_peer(&mut self, target: EngineId, m: ToEngine) -> Result<()> {
            self.wire.push_back((target, m));
            Ok(())
        }
    }

    /// A second copy of a transfer on the wire.
    fn copy(m: &ToEngine) -> ToEngine {
        let ToEngine::InstallStates {
            round,
            sender,
            groups,
            attempt,
            declared_bytes,
        } = m
        else {
            panic!("only transfers travel between engines here, got {m:?}");
        };
        ToEngine::InstallStates {
            round: *round,
            sender: *sender,
            groups: groups.clone(),
            attempt: *attempt,
            declared_bytes: *declared_bytes,
        }
    }

    /// A plan under which every install crashes its receiver.
    fn crashing() -> FaultPlan {
        FaultPlan::new(
            0,
            FaultConfig {
                crash_rate: 1.0,
                ..FaultConfig::none()
            },
        )
    }

    /// Roomy engines that reactivate spilled partitions once memory is
    /// below half the spill threshold.
    fn reactivating() -> EngineConfig {
        EngineConfig::three_way(1 << 20, 64 << 10).with_reactivation(0.5)
    }

    /// Two engines joined by a [`Recorder`], stepped message by message
    /// as a coordinator would.
    struct Pair {
        cores: [EngineCore; 2],
        tx: Recorder,
        seq: u64,
    }

    impl Pair {
        fn new(cfg: EngineConfig) -> Self {
            let core = |id| {
                let journal = JournalHandle::default();
                EngineCore::new(EngineId(id), cfg.clone(), journal, false).unwrap()
            };
            Pair {
                cores: [core(0), core(1)],
                tx: Recorder::default(),
                seq: 0,
            }
        }

        fn step_under(&mut self, e: usize, msg: ToEngine, plan: &FaultPlan) -> Result<EngineFlow> {
            self.cores[e].handle(msg, plan, &mut self.tx)
        }

        fn step(&mut self, e: usize, msg: ToEngine) {
            let flow = self.step_under(e, msg, &FaultPlan::disabled()).unwrap();
            assert_eq!(flow, EngineFlow::Continue);
        }

        /// Deliver the oldest transfer on the wire.
        fn deliver(&mut self) {
            let (to, m) = self.tx.wire.pop_front().expect("a transfer on the wire");
            self.step(to.index(), m);
        }

        /// Deliver the oldest transfer to a receiver that crashes on it,
        /// and restart that receiver in place.
        fn crash_on_delivery(&mut self) {
            let (to, m) = self.tx.wire.pop_front().expect("a transfer on the wire");
            let flow = self.step_under(to.index(), m, &crashing()).unwrap();
            assert_eq!(flow, EngineFlow::CrashRequested);
            self.cores[to.index()].crash_restart();
        }

        /// Three joining tuples per partition of `pids`, `reps` times,
        /// into engine `e`.
        fn load(&mut self, e: usize, pids: &[u32], reps: u64) {
            let mut tuples = TupleBatch::new();
            for _ in 0..reps {
                for &pid in pids {
                    for stream in 0..3u8 {
                        let t = TupleBuilder::new(StreamId(stream))
                            .seq(self.seq)
                            .ts(VirtualTime::from_millis(self.seq * 10))
                            .value(i64::from(pid))
                            .pad(64);
                        tuples.push(PartitionId(pid), t.build());
                        self.seq += 1;
                    }
                }
            }
            self.step(e, ToEngine::DataBatch { tuples });
        }

        /// Spill all of engine `e`'s resident state.
        fn spill_all(&mut self, e: usize) {
            self.step(e, ToEngine::StartSpill { amount: u64::MAX });
        }

        fn cptv(&mut self, round: u64, from: usize) {
            let cptv = ToEngine::Cptv {
                round,
                amount: u64::MAX,
                attempt: 0,
            };
            self.step(from, cptv);
        }

        fn send_states(&mut self, round: u64, from: usize, parts: &[PartitionId], attempt: u32) {
            let send = ToEngine::SendStates {
                round,
                parts: parts.to_vec(),
                receiver: EngineId(1 - from as u16),
                attempt,
            };
            self.step(from, send);
        }

        /// Steps 1–5 of a round shipping `parts` from `from` to the
        /// other engine: the receiver has installed them and acked.
        fn ship(&mut self, round: u64, from: usize, parts: &[PartitionId]) {
            self.cptv(round, from);
            self.send_states(round, from, parts, 0);
            self.deliver();
        }

        /// The coordinator commits `round` (its `Resume` is a broadcast).
        fn resume(&mut self, round: u64) {
            for e in 0..2 {
                let watermark = VirtualTime::ZERO;
                self.step(e, ToEngine::Resume { round, watermark });
            }
        }

        /// The coordinator aborts `round`: receiver, then sender.
        fn abort(&mut self, round: u64, from: usize) {
            self.step(1 - from, ToEngine::AbortRound { round });
            self.step(from, ToEngine::AbortRound { round });
        }

        fn tick(&mut self, e: usize, secs: u64) {
            let now = VirtualTime::from_secs(secs);
            self.step(e, ToEngine::Tick { now, horizon: now });
        }

        fn mem(&self, e: usize) -> u64 {
            self.cores[e].qe.memory_used()
        }

        fn events(&self, e: usize) -> Vec<AdaptEvent> {
            let journal = self.cores[e].qe.journal().snapshot();
            journal.into_iter().map(|entry| entry.event).collect()
        }

        /// Engine `e`'s run-time merges of spilled partitions, in order.
        fn reactivated(&self, e: usize) -> Vec<PartitionId> {
            (self.events(e).into_iter())
                .filter_map(|event| match event {
                    AdaptEvent::CleanupPhase { group, .. } => Some(group),
                    _ => None,
                })
                .collect()
        }

        /// The `detail` of each warning `code` engine `e` journaled.
        fn warnings(&self, e: usize, code: Warning) -> Vec<u64> {
            (self.events(e).into_iter())
                .filter_map(|event| match event {
                    AdaptEvent::ProtocolWarning {
                        code: c, detail, ..
                    } if c == code => Some(detail),
                    _ => None,
                })
                .collect()
        }

        /// Step-`step` records engine `e` journaled.
        fn steps(&self, e: usize, step: u8) -> usize {
            (self.events(e).iter())
                .filter(|event| matches!(event, AdaptEvent::RelocationStep { step: s, .. } if *s == step))
                .count()
        }

        /// Acks engine `e` sent for `round`.
        fn acks(&self, e: usize, round: u64) -> usize {
            (self.tx.gc.iter())
                .filter(|m| {
                    matches!(m, FromEngine::TransferAck { round: r, engine, .. }
                        if *r == round && engine.index() == e)
                })
                .count()
        }

        fn resident(&self, e: usize) -> Vec<PartitionId> {
            let join = self.cores[e].qe.join();
            (0..PARTITIONS)
                .map(PartitionId)
                .filter(|&p| join.has_group(p))
                .collect()
        }

        fn assert_accounting(&self) {
            for core in &self.cores {
                core.qe.assert_accounting_consistent().unwrap();
            }
        }
    }

    /// Partitions the tests load: engine 0 owns the first half, engine 1
    /// the second.
    const PARTITIONS: u32 = 8;
    const P0: [u32; 4] = [0, 1, 2, 3];
    const P1: [u32; 4] = [4, 5, 6, 7];

    fn pids(raw: &[u32]) -> Vec<PartitionId> {
        raw.iter().copied().map(PartitionId).collect()
    }

    /// `transfer_bytes` is the encoded size of the groups `SendStates`
    /// shipped.
    #[test]
    fn transfer_bytes_is_the_encoded_size_of_what_send_states_shipped() {
        let cfg = EngineConfig::three_way(1 << 20, 1 << 19);
        let codec = cfg.spill_codec;
        let mut core = EngineCore::new(EngineId(0), cfg, JournalHandle::default(), false).unwrap();
        let mut tuples = TupleBatch::new();
        for seq in 0..60u64 {
            let t = TupleBuilder::new(StreamId((seq % 3) as u8))
                .seq(seq)
                .value((seq % 5) as i64)
                .pad(64);
            tuples.push(PartitionId((seq % 2) as u32), t.build());
        }
        let (plan, mut tx) = (FaultPlan::disabled(), Recorder::default());
        core.handle(ToEngine::DataBatch { tuples }, &plan, &mut tx)
            .unwrap();
        let send = ToEngine::SendStates {
            round: 1,
            parts: vec![PartitionId(0), PartitionId(1)],
            receiver: EngineId(1),
            attempt: 0,
        };
        core.handle(send, &plan, &mut tx).unwrap();
        let [(_, ToEngine::InstallStates { groups, .. })] = tx.wire.make_contiguous() else {
            panic!("expected one InstallStates, got {:?}", tx.wire);
        };
        let encoded: u64 = groups
            .iter()
            .map(|g| g.snapshot.encode_with(codec).len() as u64)
            .sum();
        assert!(encoded > 0);
        let counted = core.qe.journal().counters().snapshot().transfer_bytes;
        assert_eq!(counted, encoded);
    }

    /// A duplicated `InstallStates` is re-acked without installing twice.
    #[test]
    fn a_duplicated_install_is_reacked_without_doubling_state() {
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 5);
        pair.cptv(7, 0);
        pair.send_states(7, 0, &pids(&P0), 0);
        let duplicate = copy(&pair.tx.wire[0].1);
        pair.deliver();
        let after_first = pair.mem(1);
        assert!(after_first > 0);
        pair.tx.wire.push_back((EngineId(1), duplicate));
        pair.deliver();
        assert_eq!(
            pair.mem(1),
            after_first,
            "a duplicate must not double state"
        );
        assert_eq!(pair.acks(1, 7), 2, "the first ack may have been lost");
        assert_eq!(pair.warnings(1, Warning::DuplicateInstall), [5]);
        assert_eq!(pair.steps(1, 5), 1);
        pair.assert_accounting();
    }

    /// A retried `SendStates` re-ships the copy the first one extracted
    /// — the same rows, decoded from the bytes the sender kept, not a
    /// second extraction — and an abort after one copy was installed
    /// still finds that copy whole.
    #[test]
    fn a_retried_send_states_reships_the_kept_copy() {
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 5);
        let before = pair.mem(0);
        pair.cptv(3, 0);
        pair.send_states(3, 0, &pids(&P0), 0);
        let freed = pair.mem(0);
        pair.send_states(3, 0, &pids(&P0), 1);
        assert_eq!(pair.mem(0), freed, "a retry must not extract again");
        assert_eq!(pair.steps(0, 4), 1, "the extraction is journaled once");
        let groups = |m: &ToEngine| match m {
            ToEngine::InstallStates { groups, .. } => groups.clone(),
            other => panic!("expected a transfer, got {other:?}"),
        };
        let (first, second) = (groups(&pair.tx.wire[0].1), groups(&pair.tx.wire[1].1));
        assert_eq!(first.len(), P0.len());
        for (shipped, reshipped) in first.iter().zip(&second) {
            let (a, b) = (&shipped.snapshot, &reshipped.snapshot);
            assert_eq!(a, b);
            assert_eq!(a.state_bytes(), b.state_bytes());
            assert_eq!(shipped.output_count, reshipped.output_count);
            assert_eq!(shipped.purge_protect, reshipped.purge_protect);
            assert!(a.streams().iter().all(|cols| !cols.is_empty()));
        }
        // One copy lands; the round aborts; the sender's copy is whole,
        // and a later round extracts the same groups again.
        pair.deliver();
        pair.tx.wire.clear();
        pair.abort(3, 0);
        assert_eq!((pair.mem(0), pair.mem(1)), (before, 0));
        pair.cptv(4, 0);
        pair.send_states(4, 0, &pids(&P0), 0);
        let again = groups(&pair.tx.wire[0].1);
        let snapshots =
            |g: &[GroupTransfer]| g.iter().map(|g| g.snapshot.clone()).collect::<Vec<_>>();
        assert_eq!(snapshots(&again), snapshots(&second));
    }

    /// `AbortRound` restores memory, output and accounting on both ends:
    /// the receiver uninstalls, the sender reinstalls its copy.
    #[test]
    fn an_abort_restores_memory_output_and_accounting_on_both_ends() {
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 6);
        let before = [0, 1].map(|e| (pair.mem(e), pair.cores[e].qe.total_output()));
        assert!(before[0].1 > 0);
        pair.ship(1, 0, &pids(&P0));
        assert_eq!(pair.mem(0), 0);
        assert!(pair.mem(1) > 0);
        pair.abort(1, 0);
        let after = [0, 1].map(|e| (pair.mem(e), pair.cores[e].qe.total_output()));
        assert_eq!(after, before);
        assert_eq!(pair.resident(0), pids(&P0));
        assert_eq!(pair.resident(1), []);
        for e in 0..2 {
            assert_eq!(pair.warnings(e, Warning::RoundUnwound), [P0.len() as u64]);
            assert_eq!(pair.cores[e].qe.mode(), Mode::Normal);
        }
        pair.assert_accounting();
    }

    /// A crash between install and ack — the receiver crashes on the
    /// retried transfer — wipes the uncommitted install and nothing of
    /// the receiver's own; the sender's copy brings the state home.
    #[test]
    fn a_crash_between_install_and_ack_wipes_only_the_uncommitted_install() {
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 5);
        pair.load(1, &P1, 3);
        let before = [pair.mem(0), pair.mem(1)];
        pair.ship(5, 0, &pids(&P0));
        assert!(pair.mem(1) > before[1]);
        pair.send_states(5, 0, &pids(&P0), 1);
        pair.crash_on_delivery();
        assert_eq!(pair.mem(1), before[1]);
        assert_eq!(pair.resident(1), pids(&P1));
        assert_eq!(pair.cores[1].qe.mode(), Mode::Normal);
        assert_eq!(pair.acks(1, 5), 1, "the crash sent no ack");
        pair.abort(5, 0);
        assert_eq!([pair.mem(0), pair.mem(1)], before);
        assert_eq!(pair.warnings(1, Warning::RoundUnwound), [0]);
        pair.assert_accounting();
    }

    /// The chaos layer delays the ack of attempt 0's install, and the
    /// retried transfer crashes the receiver, wiping that install. The
    /// held ack promised state that no longer exists: it dies with the
    /// crash instead of reaching the coordinator at the next pulse.
    #[test]
    fn a_crash_drops_the_acks_its_engine_was_holding() {
        let delaying = FaultPlan::new(
            0,
            FaultConfig {
                delay_rate: 1.0,
                max_delay_ms: 500,
                ..FaultConfig::none()
            },
        );
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 5);
        pair.cptv(6, 0);
        pair.send_states(6, 0, &pids(&P0), 0);
        let (to, install) = pair.tx.wire.pop_front().expect("a transfer on the wire");
        pair.step_under(to.index(), install, &delaying).unwrap();
        assert!(pair.mem(1) > 0, "attempt 0 installed");
        assert_eq!(pair.acks(1, 6), 0, "and its ack is held");
        pair.send_states(6, 0, &pids(&P0), 1);
        pair.crash_on_delivery();
        assert_eq!(pair.mem(1), 0, "the crash wiped the install");
        pair.tick(1, 1);
        assert_eq!(pair.acks(1, 6), 0, "an ack for the wiped install went out");
    }

    /// Attempt 0's transfer is late: attempt 1 installs and acks first.
    /// Attempt 0 is then a copy of what the receiver holds, so no crash
    /// strikes it — one would wipe the install that attempt 1's ack,
    /// the one the coordinator commits on, promised — and its re-ack
    /// names attempt 0, which the coordinator no longer waits for.
    #[test]
    fn a_late_copy_of_an_earlier_attempt_wipes_nothing() {
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 5);
        pair.cptv(7, 0);
        pair.send_states(7, 0, &pids(&P0), 0);
        pair.send_states(7, 0, &pids(&P0), 1);
        let (to, late) = pair.tx.wire.pop_front().expect("attempt 0 on the wire");
        pair.deliver();
        let installed = pair.mem(1);
        assert!(installed > 0, "attempt 1 installed");
        let flow = pair.step_under(to.index(), late, &crashing()).unwrap();
        assert_eq!(
            flow,
            EngineFlow::Continue,
            "the late copy crashed its receiver"
        );
        assert_eq!(pair.mem(1), installed);
        let acked: Vec<u32> = (pair.tx.gc.iter())
            .filter_map(|m| match m {
                FromEngine::TransferAck { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(acked, [1, 0]);
        pair.resume(7);
        assert_eq!(pair.resident(1), pids(&P0));
        pair.assert_accounting();
    }

    /// `Resume` closes the round on both ends: its stragglers are
    /// `stale_*` warnings that move nothing, a late transfer is re-acked
    /// without installing, and an abort after the commit unwinds
    /// nothing.
    #[test]
    fn resume_closes_the_round_so_stragglers_are_stale_warnings() {
        let mut pair = Pair::new(EngineConfig::three_way(1 << 30, 1 << 29));
        pair.load(0, &P0, 5);
        pair.cptv(2, 0);
        pair.send_states(2, 0, &pids(&P0), 0);
        let late = copy(&pair.tx.wire[0].1);
        pair.deliver();
        pair.resume(2);
        let held = pair.mem(1);
        assert_eq!(pair.mem(0), 0);
        pair.cptv(2, 0);
        pair.send_states(2, 0, &pids(&P0), 1);
        assert!(pair.tx.wire.is_empty(), "nothing re-shipped");
        assert_eq!(pair.warnings(0, Warning::StaleCptv), [1]);
        assert_eq!(pair.warnings(0, Warning::StaleSendStates), [4]);
        pair.tx.wire.push_back((EngineId(1), late));
        pair.deliver();
        assert_eq!(pair.warnings(1, Warning::DuplicateInstall), [5]);
        assert_eq!(pair.acks(1, 2), 2);
        pair.abort(2, 0);
        assert_eq!((pair.mem(0), pair.mem(1)), (0, held));
        assert_eq!(pair.warnings(0, Warning::RoundUnwound), [0]);
        assert_eq!(pair.resident(1), pids(&P0));
        pair.assert_accounting();
    }

    /// Engine 0 holds partition 0 with a spilled segment behind its
    /// resident remainder; round 1 ships the remainder to engine 1 and
    /// commits. Returns the pair and the partition.
    fn shipped_away() -> (Pair, PartitionId) {
        let mut pair = Pair::new(reactivating());
        let p = PartitionId(0);
        pair.load(0, &[0], 2);
        pair.spill_all(0);
        pair.load(0, &[0], 2);
        assert_eq!(pair.cores[0].qe.spilled_partitions(), [p]);
        pair.ship(1, 0, &[p]);
        pair.resume(1);
        (pair, p)
    }

    /// Segments stay behind when a partition's memory state relocates:
    /// the engine that shipped it away does not reactivate them, until
    /// a later round brings the partition back and commits.
    #[test]
    fn shipped_away_partitions_are_not_reactivated_until_they_return() {
        let (mut pair, p) = shipped_away();
        pair.tick(0, 1);
        assert_eq!(pair.mem(0), 0, "nothing reactivated on a non-owner");
        assert_eq!(pair.cores[0].qe.spilled_partitions(), [p]);
        // Back it comes; while the round is open nothing reactivates.
        pair.ship(2, 1, &[p]);
        pair.tick(0, 2);
        assert_eq!(pair.reactivated(0), []);
        pair.resume(2);
        pair.tick(0, 3);
        assert_eq!(pair.reactivated(0), [p]);
        assert_eq!(pair.cores[0].qe.spilled_partitions(), []);
        pair.assert_accounting();
    }

    /// Round 2 brings the partition back to the engine that shipped it
    /// away in round 1, and `undo` takes the install away again before
    /// the round commits: that engine still does not own the partition,
    /// so the next pulse, with all the memory it wants, must leave its
    /// segment alone.
    fn receiver_still_a_non_owner_after(undo: impl FnOnce(&mut Pair)) {
        let (mut pair, p) = shipped_away();
        pair.ship(2, 1, &[p]);
        assert!(pair.mem(0) > 0);
        undo(&mut pair);
        pair.tick(0, 10);
        assert_eq!(
            pair.cores[0].qe.spilled_partitions(),
            [p],
            "engine 0 reactivated the segments of a partition engine 1 owns"
        );
        assert_eq!(pair.mem(0), 0);
        assert_eq!(pair.reactivated(0), []);
    }

    #[test]
    fn an_aborted_install_leaves_its_receiver_a_non_owner() {
        receiver_still_a_non_owner_after(|pair| pair.abort(2, 1));
    }

    #[test]
    fn an_install_wiped_by_a_crash_leaves_its_receiver_a_non_owner() {
        receiver_still_a_non_owner_after(|pair| {
            pair.send_states(2, 1, &[PartitionId(0)], 1);
            pair.crash_on_delivery();
        });
    }

    /// Engine 1 sends its partition 4 — a spilled segment behind a
    /// resident remainder — in round 2, and a late copy of round 1's
    /// transfer reaches it before or after the extraction: handled as a
    /// stale duplicate, or crashing it. Once the copy is in flight the
    /// engine is in relocation mode whatever arrived, so the next pulse
    /// does not reactivate partition 4 beside it, and the abort puts it
    /// back once.
    #[test]
    fn a_sender_stays_in_relocation_mode_while_its_copy_is_in_flight() {
        for plan in [FaultPlan::disabled(), crashing()] {
            for late_first in [false, true] {
                let mut pair = Pair::new(reactivating());
                let (p0, p4) = (PartitionId(0), PartitionId(4));
                pair.load(0, &[0], 2);
                pair.load(1, &[4], 2);
                pair.spill_all(1);
                pair.load(1, &[4], 1);
                pair.cptv(1, 0);
                pair.send_states(1, 0, &[p0], 0);
                let late = copy(&pair.tx.wire[0].1);
                pair.deliver();
                pair.resume(1);
                let before = pair.mem(1);
                pair.cptv(2, 1);
                let mut late = Some(late);
                for step in 0..2 {
                    if (step == 0) == late_first {
                        let late = late.take().unwrap();
                        if pair.step_under(1, late, &plan).unwrap() == EngineFlow::CrashRequested {
                            pair.cores[1].crash_restart();
                        }
                    } else {
                        pair.send_states(2, 1, &[p4], 0);
                    }
                }
                assert_eq!(pair.cores[1].qe.mode(), Mode::Relocation);
                pair.tick(1, 1);
                assert_eq!(pair.reactivated(1), []);
                pair.abort(2, 1);
                assert_eq!(pair.mem(1), before);
            }
        }
    }

    /// What the fuzz does next.
    #[derive(Debug, Clone, Copy)]
    enum Input {
        /// Open a round (`Cptv`) from engine `from` for `halves` halves
        /// of its memory, `gap` ids past the last one opened: a future
        /// round for an engine that saw none of the ones between.
        Open { from: usize, halves: u64, gap: u64 },
        /// The live round's `SendStates`; a retry after the first.
        Send,
        /// A copy of it naming a fenced receiver.
        SendFenced,
        /// The oldest transfer on the wire meets its fate.
        Wire(Fate),
        /// The coordinator commits the live round, once its receiver
        /// acked.
        Commit,
        /// The coordinator aborts the live round.
        Abort,
        /// A clock pulse at engine `e`.
        Tick { e: usize },
        /// A message of the last round closed reaches its sender late.
        Stale(Late),
    }

    #[derive(Debug, Clone, Copy)]
    enum Late {
        Cptv,
        SendStates,
        /// What the coordinator sends the sender of a late `Ptv` —
        /// unless it is sending the round in flight.
        Resume,
    }

    #[derive(Debug, Clone, Copy)]
    enum Fate {
        Deliver,
        /// Delivered, and a second copy stays at the front of the wire.
        Duplicate,
        Drop,
        /// Sent to the back of the wire: late, perhaps stale by then.
        Hold,
        /// Its receiver crashes on it and restarts in place — unless it
        /// is a copy of an install the receiver holds.
        Crash,
    }

    /// Inputs weighted so that most rounds get their transfer through
    /// and commit — partitions travel back and forth — while every
    /// fault still shows up in most schedules.
    fn input() -> impl Strategy<Value = Input> {
        let fates = [
            Fate::Deliver,
            Fate::Deliver,
            Fate::Deliver,
            Fate::Duplicate,
            Fate::Drop,
            Fate::Hold,
            Fate::Crash,
        ];
        let open = (0usize..2, 0u64..3, 0u64..3).prop_map(|(from, halves, gap)| Input::Open {
            from,
            halves,
            gap,
        });
        let wire = (0usize..fates.len()).prop_map(move |i| Input::Wire(fates[i]));
        let tick = (0usize..2).prop_map(|e| Input::Tick { e });
        prop_oneof![
            open.clone(),
            open,
            (0u8..1).prop_map(|_| Input::Send),
            (0u8..1).prop_map(|_| Input::Send),
            (0u8..1).prop_map(|_| Input::SendFenced),
            wire.clone(),
            wire.clone(),
            wire,
            (0u8..1).prop_map(|_| Input::Commit),
            (0u8..1).prop_map(|_| Input::Commit),
            (0u8..1).prop_map(|_| Input::Commit),
            (0u8..1).prop_map(|_| Input::Abort),
            tick.clone(),
            tick,
            (0usize..3).prop_map(|i| Input::Stale([Late::Cptv, Late::SendStates, Late::Resume][i])),
        ]
    }

    /// The round the fuzz's coordinator has open.
    struct Live {
        id: u64,
        from: usize,
        to: usize,
        parts: Vec<PartitionId>,
        /// `SendStates` went out (to the real receiver) this often.
        sends: u32,
        /// The `SendStates` attempts the receiver acked. Only an ack of
        /// the attempt in flight lets the round commit.
        acked: Vec<u32>,
        /// The latest attempt of the transfer the receiver took in since
        /// it installed, `None` while it holds no install: a crash
        /// strikes every transfer but a copy of one no later than this.
        installed: Option<u32>,
        /// Each engine's resident partitions and memory when the round
        /// opened, plus what it reactivated since: an abort must land
        /// exactly here.
        before: [(Vec<PartitionId>, u64); 2],
    }

    type Check = std::result::Result<(), TestCaseError>;

    /// The fuzz's coordinator, and what it knows the engines must hold.
    struct Model {
        pair: Pair,
        /// Each partition's owner; it changes only when a round commits.
        owner: Vec<usize>,
        /// What the two engines hold between them while no round is
        /// open: the load, plus whatever reactivation merged back in.
        loaded: u64,
        next_round: u64,
        clock: u64,
        live: Option<Live>,
        ptv: Option<Vec<PartitionId>>,
        /// The last round closed: id, sender, parts.
        closed: Option<(u64, usize, Vec<PartitionId>)>,
    }

    impl Model {
        /// Each engine holds its half of the partitions, each partition
        /// a spilled segment behind a resident remainder.
        fn new() -> Self {
            let mut pair = Pair::new(reactivating());
            for (e, own) in [(0, P0), (1, P1)] {
                pair.load(e, &own, 2);
                pair.spill_all(e);
                pair.load(e, &own, 1);
            }
            Model {
                loaded: pair.mem(0) + pair.mem(1),
                pair,
                owner: (0..PARTITIONS).map(|p| usize::from(p >= 4)).collect(),
                next_round: 0,
                clock: 0,
                live: None,
                ptv: None,
                closed: None,
            }
        }

        /// Engine `e` handles `msg`; the coordinator reads its replies.
        fn step(
            &mut self,
            e: usize,
            msg: ToEngine,
            plan: &FaultPlan,
        ) -> std::result::Result<EngineFlow, TestCaseError> {
            let flow = (self.pair.step_under(e, msg, plan))
                .map_err(|err| TestCaseError::fail(format!("engine {e} refused: {err}")))?;
            for reply in self.pair.tx.gc.drain(..) {
                match reply {
                    FromEngine::Ptv { parts, .. } => self.ptv = Some(parts),
                    FromEngine::TransferAck {
                        round,
                        engine,
                        attempt,
                        ..
                    } => {
                        if let Some(live) = self.live.as_mut() {
                            if live.id == round && live.to == engine.index() {
                                live.acked.push(attempt);
                            }
                        }
                    }
                    _ => {}
                }
            }
            Ok(flow)
        }

        fn run(&mut self, e: usize, msg: ToEngine) -> Check {
            let flow = self.step(e, msg, &FaultPlan::disabled())?;
            prop_assert_eq!(flow, EngineFlow::Continue);
            Ok(())
        }

        fn apply(&mut self, input: Input) -> Check {
            match input {
                Input::Open { from, halves, gap } => {
                    if self.live.is_some() {
                        return Ok(());
                    }
                    let id = self.next_round + gap;
                    self.next_round = id + 1;
                    let before = [0, 1].map(|e| (self.pair.resident(e), self.pair.mem(e)));
                    let amount = self.pair.mem(from) * halves / 2;
                    self.run(
                        from,
                        ToEngine::Cptv {
                            round: id,
                            amount,
                            attempt: 0,
                        },
                    )?;
                    let parts = self.ptv.take().expect("a live Cptv is answered");
                    if parts.is_empty() {
                        // Nothing to move: the coordinator resumes the
                        // sender alone.
                        let resume = ToEngine::Resume {
                            round: id,
                            watermark: VirtualTime::ZERO,
                        };
                        self.run(from, resume)?;
                        self.closed = Some((id, from, parts));
                    } else {
                        self.live = Some(Live {
                            id,
                            from,
                            to: 1 - from,
                            parts,
                            sends: 0,
                            acked: Vec::new(),
                            installed: None,
                            before,
                        });
                    }
                }
                Input::Send => {
                    let Some(live) = self.live.as_mut() else {
                        return Ok(());
                    };
                    let (from, attempt) = (live.from, live.sends);
                    live.sends += 1;
                    let parts = live.parts.clone();
                    let send = ToEngine::SendStates {
                        round: live.id,
                        parts: parts.clone(),
                        receiver: EngineId(live.to as u16),
                        attempt,
                    };
                    let mem = self.pair.mem(from);
                    self.run(from, send)?;
                    let Some((_, ToEngine::InstallStates { groups, .. })) =
                        self.pair.tx.wire.back()
                    else {
                        prop_assert!(false, "SendStates shipped nothing");
                        unreachable!()
                    };
                    let shipped: Vec<PartitionId> =
                        groups.iter().map(|g| g.snapshot.partition).collect();
                    prop_assert_eq!(shipped, parts, "every part is shipped, every time");
                    if attempt > 0 {
                        prop_assert_eq!(self.pair.mem(from), mem, "a retry extracted again");
                    }
                }
                Input::SendFenced => {
                    let Some(live) = self.live.as_ref() else {
                        return Ok(());
                    };
                    let (from, fenced) = (live.from, EngineId(2));
                    let send = ToEngine::SendStates {
                        round: live.id,
                        parts: live.parts.clone(),
                        receiver: fenced,
                        attempt: live.sends,
                    };
                    let (mem, wire) = (self.pair.mem(from), self.pair.tx.wire.len());
                    let dropped = self.pair.warnings(from, Warning::SendToFencedDropped).len();
                    self.run(from, ToEngine::FenceNotice { engine: fenced })?;
                    self.run(from, send)?;
                    prop_assert_eq!(
                        self.pair.warnings(from, Warning::SendToFencedDropped).len(),
                        dropped + 1
                    );
                    prop_assert_eq!((self.pair.mem(from), self.pair.tx.wire.len()), (mem, wire));
                }
                Input::Wire(fate) => {
                    let Some((to, m)) = self.pair.tx.wire.pop_front() else {
                        return Ok(());
                    };
                    let e = to.index();
                    // The attempt, if this is the live round's transfer
                    // to its receiver, and whether that receiver holds
                    // an install this is a copy of.
                    let live_attempt = match (&m, &self.live) {
                        (ToEngine::InstallStates { round, attempt, .. }, Some(live))
                            if *round == live.id && live.to == e =>
                        {
                            Some(*attempt)
                        }
                        _ => None,
                    };
                    let held = (self.live.as_ref().and_then(|live| live.installed))
                        .is_some_and(|latest| live_attempt.is_some_and(|a| a <= latest));
                    let taken_in = match fate {
                        Fate::Deliver => {
                            self.run(e, m)?;
                            true
                        }
                        Fate::Duplicate => {
                            let again = copy(&m);
                            self.run(e, m)?;
                            self.pair.tx.wire.push_front((to, again));
                            true
                        }
                        Fate::Drop => false,
                        Fate::Hold => {
                            self.pair.tx.wire.push_back((to, m));
                            false
                        }
                        Fate::Crash => {
                            let flow = self.step(e, m, &crashing())?;
                            if held {
                                prop_assert_eq!(
                                    flow,
                                    EngineFlow::Continue,
                                    "a copy of a held install crashed engine {}",
                                    e
                                );
                            } else {
                                prop_assert_eq!(flow, EngineFlow::CrashRequested);
                                self.pair.cores[e].crash_restart();
                                if let Some(live) = self.live.as_mut().filter(|l| l.to == e) {
                                    live.installed = None;
                                }
                            }
                            held
                        }
                    };
                    if let (true, Some(attempt), Some(live)) =
                        (taken_in, live_attempt, self.live.as_mut())
                    {
                        live.installed = live.installed.max(Some(attempt));
                    }
                }
                Input::Commit => {
                    let acked =
                        |live: &mut Live| live.sends > 0 && live.acked.contains(&(live.sends - 1));
                    let Some(live) = self.live.take_if(acked) else {
                        return Ok(());
                    };
                    for e in 0..2 {
                        let resume = ToEngine::Resume {
                            round: live.id,
                            watermark: VirtualTime::ZERO,
                        };
                        self.run(e, resume)?;
                    }
                    for p in &live.parts {
                        self.owner[p.index()] = live.to;
                    }
                    self.closed = Some((live.id, live.from, live.parts));
                }
                Input::Abort => {
                    let Some(live) = self.live.take() else {
                        return Ok(());
                    };
                    self.run(live.to, ToEngine::AbortRound { round: live.id })?;
                    self.run(live.from, ToEngine::AbortRound { round: live.id })?;
                    for (e, (resident, mem)) in live.before.iter().enumerate() {
                        prop_assert_eq!(
                            &self.pair.resident(e),
                            resident,
                            "engine {} after an abort",
                            e
                        );
                        prop_assert_eq!(self.pair.mem(e), *mem, "engine {} after an abort", e);
                    }
                    self.closed = Some((live.id, live.from, live.parts));
                }
                Input::Tick { e } => {
                    self.clock += 1;
                    let now = VirtualTime::from_secs(self.clock);
                    let (mem, merged) = (self.pair.mem(e), self.pair.reactivated(e).len());
                    self.run(e, ToEngine::Tick { now, horizon: now })?;
                    let grown = self.pair.mem(e).checked_sub(mem);
                    let Some(grown) = grown else {
                        return Err(TestCaseError::fail(format!("a pulse shrank engine {e}")));
                    };
                    match self.pair.reactivated(e)[merged..] {
                        [] => prop_assert_eq!(grown, 0, "a pulse without a merge moved memory"),
                        [p] => {
                            prop_assert_eq!(
                                self.owner[p.index()],
                                e,
                                "engine {} reactivated {}, which it does not own",
                                e,
                                p
                            );
                            if let Some(live) = self.live.as_mut() {
                                // Before the extraction a merge only adds to
                                // what will ship; after it, the partition
                                // would be resident twice.
                                let shipping =
                                    live.from == e && live.sends > 0 && live.parts.contains(&p);
                                prop_assert!(
                                    !shipping,
                                    "engine {} reactivated {} while shipping it",
                                    e,
                                    p
                                );
                                let (resident, mem) = &mut live.before[e];
                                if !resident.contains(&p) {
                                    resident.push(p);
                                    resident.sort();
                                }
                                *mem += grown;
                            }
                            self.loaded += grown;
                        }
                        ref more => prop_assert!(false, "one pulse merged {:?}", more),
                    }
                }
                Input::Stale(late) => {
                    let Some((round, from, parts)) = self.closed.clone() else {
                        return Ok(());
                    };
                    let (msg, warning) = match late {
                        Late::Cptv => (
                            ToEngine::Cptv {
                                round,
                                amount: u64::MAX,
                                attempt: 9,
                            },
                            Some(Warning::StaleCptv),
                        ),
                        Late::SendStates => {
                            let receiver = EngineId(1 - from as u16);
                            let send = ToEngine::SendStates {
                                round,
                                parts,
                                receiver,
                                attempt: 9,
                            };
                            (send, Some(Warning::StaleSendStates))
                        }
                        Late::Resume => {
                            if self.live.as_ref().is_some_and(|live| live.from == from) {
                                return Ok(());
                            }
                            (
                                ToEngine::Resume {
                                    round,
                                    watermark: VirtualTime::ZERO,
                                },
                                None,
                            )
                        }
                    };
                    let warned =
                        |pair: &Pair| warning.map_or(0, |code| pair.warnings(from, code).len());
                    let (before, held) = (
                        warned(&self.pair),
                        (
                            [self.pair.mem(0), self.pair.mem(1)],
                            self.pair.tx.wire.len(),
                        ),
                    );
                    self.run(from, msg)?;
                    prop_assert_eq!(warned(&self.pair), before + usize::from(warning.is_some()));
                    prop_assert_eq!(
                        (
                            [self.pair.mem(0), self.pair.mem(1)],
                            self.pair.tx.wire.len()
                        ),
                        held
                    );
                }
            }
            self.check()
        }

        /// What holds after every input: consistent accounting, an
        /// engine holding a round's state in relocation mode, and with no
        /// round open, each partition resident on its owner alone and
        /// nothing gained or lost in memory.
        fn check(&self) -> Check {
            for core in &self.pair.cores {
                let consistent = core.qe.assert_accounting_consistent();
                prop_assert!(consistent.is_ok(), "{:?}", consistent);
                let holds = core.round.outbound.is_some() || core.round.inbound.is_some();
                if holds {
                    prop_assert_eq!(
                        core.qe.mode(),
                        Mode::Relocation,
                        "{} holds a round's state",
                        core.id
                    );
                }
            }
            if self.live.is_none() {
                for e in 0..2 {
                    let owned: Vec<PartitionId> = (0..PARTITIONS)
                        .filter(|p| self.owner[*p as usize] == e)
                        .map(PartitionId)
                        .collect();
                    prop_assert_eq!(self.pair.resident(e), owned, "engine {} between rounds", e);
                }
                prop_assert_eq!(self.pair.mem(0) + self.pair.mem(1), self.loaded);
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 1024,
            ..ProptestConfig::default()
        })]

        /// Two engines under a coordinator that opens rounds with gaps
        /// in their ids, retries `SendStates` and names fenced
        /// receivers, over a wire that delivers, duplicates, drops,
        /// reorders or crashes the receiver on a transfer, with commits,
        /// aborts, pulses and stale copies in between. No input is
        /// refused; an abort restores both engines as they were; a
        /// commit leaves the parts resident on the receiver alone; with
        /// no round open, each partition is resident on its owner and
        /// memory sums to the load; no engine reactivates a partition
        /// it does not own or is shipping.
        #[test]
        fn the_engine_side_of_a_round_survives_any_schedule(
            inputs in proptest::collection::vec(input(), 1..80)
        ) {
            let mut model = Model::new();
            for (i, input) in inputs.iter().enumerate() {
                if let Err(e) = model.apply(*input) {
                    prop_assert!(false, "{} at input {} of {:?}", e, i, inputs);
                }
            }
        }
    }
}
