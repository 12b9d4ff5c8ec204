//! The global coordinator (GC).
//!
//! §2: "a dedicated global coordinator is in charge of a set of query
//! engines … it collects and analyzes running statistics of each
//! processor \[and\] makes coarse-grained adaptation decisions such as how
//! many states to relocate from one processor to the other but *not
//! which partition groups*". The coordinator therefore owns:
//!
//! * the adaptation strategy (none / lazy-disk / active-disk, and the
//!   join-time rebalancing every configuration does), one decision per
//!   evaluation of the statistics,
//! * the elastic membership and the drain in progress,
//! * the one relocation round in flight (Figure 8), opened in one place
//!   (`open`) and closed in one place (`close`); every out-of-order
//!   event is a protocol error — what the paper's protocol exists to
//!   guarantee ("no operator states should be missing or corrupted in
//!   the relocation process", §4.1).
//!
//! It knows nothing of transports: the one coordinator loop
//! ([`crate::runtime::driver`]) feeds it statistics, protocol events and
//! the clock, and executes the [`Command`] each of them returns, on
//! every runtime.

use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_metrics::journal::{AdaptEvent, JournalHandle, Warning};

use crate::stats::ClusterStats;
use crate::strategy::{Decision, Strategy, StrategyConfig};

/// Consecutive aborted drain rounds before the coordinator stops trying
/// to relocate off the draining engine and degrades to a forced spill
/// (the segments still reach their new owners through the cleanup
/// hand-off, so the drain terminates under any chaos schedule).
const DRAIN_ABORTS_TO_DEGRADE: u32 = 3;

/// Virtual time a patient coordinator allows each phase attempt of a
/// round before it re-sends the phase's message.
const PHASE_TIMEOUT: VirtualDuration = VirtualDuration::from_secs(2);

/// Re-sends per phase before a patient coordinator abandons the round.
const MAX_RETRIES: u32 = 3;

/// Consecutive aborted rounds toward one receiver before the coordinator
/// declares the peer dead and degrades relocations toward it to local
/// spills.
const PEER_DEATH_THRESHOLD: u32 = 3;

/// Lifecycle of one engine in the elastic membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// Slot provisioned (capacity pre-sized) but the engine has not
    /// been admitted yet.
    NotJoined,
    /// Full member: owns partitions, receives placements.
    Active,
    /// Fenced and shedding state via drain relocation rounds.
    Draining,
    /// Owns nothing; handing its spilled segments to the new owners
    /// (mid-run `PrepareCleanup`/`StartCleanup` exchange).
    DrainCleanup,
    /// Gone: counters folded, clean exit.
    Drained,
}

/// What the driver must do next: the one output of every
/// [`GlobalCoordinator`] input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Step 1: send `Cptv(amount)` to the sender — for a round just
    /// opened (`attempt` 0), or again because its partition list is
    /// overdue.
    Cptv {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// Bytes to vacate.
        amount: u64,
        /// Delivery attempt.
        attempt: u32,
    },
    /// Step 2 arrived: pause `parts` at the splits (step 3), then tell
    /// the sender to ship them to the receiver (steps 4–5, attempt 0).
    Pause {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// The receiver engine.
        receiver: EngineId,
        /// Partitions to pause and move.
        parts: Vec<PartitionId>,
    },
    /// Step 4 again: the receiver's ack is overdue, so the sender
    /// re-ships its retained outbound copy.
    SendStates {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// The receiver engine.
        receiver: EngineId,
        /// Partitions being moved.
        parts: Vec<PartitionId>,
        /// Delivery attempt.
        attempt: u32,
    },
    /// Step 6 arrived and closed the round: remap `parts` to the
    /// receiver and flush the tuples their pause buffered (step 7),
    /// then resume every engine (step 8).
    Remap {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// The new owner.
        receiver: EngineId,
        /// Moved partitions.
        parts: Vec<PartitionId>,
        /// What the receiver reported installing.
        bytes: u64,
        /// When the partitions were paused (step 3) — since when the
        /// purge watermark has been held back for this round.
        held_since: VirtualTime,
    },
    /// The sender had nothing to move: the round is closed; resume the
    /// sender.
    Empty {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
    },
    /// Retries exhausted: the round is abandoned. Send `AbortRound` to
    /// sender and receiver, release the paused partitions *without*
    /// remapping, replay their buffered tuples to the sender, and
    /// release the held watermark.
    Abort {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// The receiver engine.
        receiver: EngineId,
        /// The partitions paused and since when, if the round got that
        /// far (it died waiting for its partition list otherwise).
        paused: Option<(Vec<PartitionId>, VirtualTime)>,
    },
    /// Resume `engine`, which a late `Cptv` of a closed round may have
    /// put back in relocation mode.
    Resume {
        /// The closed round.
        round: u64,
        /// The engine to resume.
        engine: EngineId,
    },
    /// Force `engine` to spill `amount` bytes (active-disk, or a
    /// relocation toward a peer declared dead).
    Spill {
        /// The engine to relieve.
        engine: EngineId,
        /// Bytes to spill.
        amount: u64,
    },
    /// Drain rounds keep aborting: force the draining engine to spill
    /// everything, then ask it for its state again. The segments reach
    /// their owners in the cleanup hand-off after the final remap.
    DrainSpill {
        /// The draining engine.
        engine: EngineId,
    },
    /// The draining engine holds no state: pause and remap its remaining
    /// (zero-state) partitions straight to `receiver`, report back
    /// through [`GlobalCoordinator::drain_finalized`], then start the
    /// cleanup hand-off (`StartSpill(MAX)` + `PrepareCleanup`).
    FinalizeDrain {
        /// The draining engine.
        engine: EngineId,
        /// New owner for its remaining partitions.
        receiver: EngineId,
    },
}

#[derive(Debug, Clone, Copy)]
struct Member {
    state: EngineState,
    /// `JoinReady` received — the engine is up and reachable, so the
    /// strategy may move state toward it.
    ready: bool,
    /// Admitted after the run started (journal/report bookkeeping).
    mid_run_joiner: bool,
}

/// Book-keeping for the (single) drain in progress.
#[derive(Debug)]
struct DrainCtl {
    engine: EngineId,
    /// Elastic moves executed for this drain (rounds + final remap).
    moves: u64,
    consecutive_aborts: u32,
    degraded: bool,
    /// `drain_degraded_to_spill` journaled (once).
    degrade_warned: bool,
}

/// Why a round was opened. The 8-step protocol is the same for all
/// three; the purpose only changes the accounting when it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// Chosen by the adaptation strategy.
    Balance,
    /// Shedding state off a draining engine.
    Drain,
    /// Moving state toward a freshly admitted engine.
    JoinRebalance,
}

/// Where a round stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Step 1 sent; waiting for the sender's partition list (step 2).
    WaitPtv,
    /// Steps 3–5 issued: partitions paused, transfer under way; waiting
    /// for the receiver's ack (step 6).
    WaitAck,
}

impl Phase {
    /// The step a timeout in this phase re-sends.
    fn resent_step(self) -> u64 {
        match self {
            Phase::WaitPtv => 1,
            Phase::WaitAck => 4,
        }
    }
}

/// How a round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The receiver installed the state.
    Moved,
    /// The sender had nothing to move.
    Empty,
    /// A phase ran out of retries.
    TimedOut,
}

/// The relocation round in flight, from step 1 until it closes.
#[derive(Debug)]
struct Round {
    id: u64,
    sender: EngineId,
    receiver: EngineId,
    amount: u64,
    purpose: Purpose,
    phase: Phase,
    /// The partitions being moved (empty before step 2).
    parts: Vec<PartitionId>,
    /// Virtual time of step 3 (partitions paused at the splits).
    paused_at: VirtualTime,
    /// Delivery attempt within the current phase (0 = first send).
    attempt: u32,
    /// When the current attempt times out (acted on only by a patient
    /// coordinator).
    deadline: VirtualTime,
}

/// The global adaptation controller.
#[derive(Debug)]
pub struct GlobalCoordinator {
    strategy: Strategy,
    round: Option<Round>,
    next_round: u64,
    force_spills_issued: u64,
    journal: JournalHandle,
    /// Phases time out: re-sent up to [`MAX_RETRIES`] times, then the
    /// round is aborted.
    patient: bool,
    /// Consecutive aborted rounds per receiver (reset on success).
    consecutive_aborts: FxHashMap<EngineId, u32>,
    /// Receivers declared dead: relocations toward them degrade to
    /// local force-spills at the sender.
    dead_peers: Vec<EngineId>,
    /// Elastic membership, indexed by engine id.
    members: Vec<Member>,
    /// Last known memory load per engine (from the stats feed); drain
    /// rounds pick the least-loaded active engine as receiver.
    last_loads: Vec<Option<u64>>,
    /// The drain in progress, if any (at most one at a time).
    drain: Option<DrainCtl>,
    /// Drain requested while a relocation round targeted the engine;
    /// started as soon as that round ends.
    pending_drain: Option<EngineId>,
}

impl GlobalCoordinator {
    /// A coordinator running `strategy` over `initial` active engines,
    /// with slots up to `capacity` (initial + scheduled joins)
    /// provisioned but not joined. The coordinator records the protocol
    /// steps it observes (1, 2 and 6) into `journal`; the strategy
    /// records nothing, since the `engine_sample` records it decides
    /// from are its whole input. `patient` arms bounded
    /// retry-then-abort on every protocol phase.
    pub fn new(
        strategy: &StrategyConfig,
        initial: usize,
        capacity: usize,
        journal: JournalHandle,
        patient: bool,
    ) -> Self {
        let capacity = capacity.max(initial);
        let members = (0..capacity)
            .map(|i| Member {
                state: if i < initial {
                    EngineState::Active
                } else {
                    EngineState::NotJoined
                },
                ready: false,
                mid_run_joiner: false,
            })
            .collect();
        GlobalCoordinator {
            strategy: Strategy::new(strategy),
            round: None,
            next_round: 0,
            force_spills_issued: 0,
            journal,
            patient,
            consecutive_aborts: FxHashMap::default(),
            dead_peers: Vec::new(),
            members,
            last_loads: vec![None; capacity],
            drain: None,
            pending_drain: None,
        }
    }

    // ---- elastic membership -------------------------------------------

    /// Lifecycle state of `engine`.
    pub fn engine_state(&self, engine: EngineId) -> EngineState {
        self.members
            .get(engine.index())
            .map_or(EngineState::NotJoined, |m| m.state)
    }

    /// Engines in [`EngineState::Active`], ascending.
    pub fn active_engines(&self) -> Vec<EngineId> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.state == EngineState::Active)
            .map(|(i, _)| EngineId(i as u16))
            .collect()
    }

    /// Engines that still participate in the protocol (active,
    /// draining, or in the cleanup hand-off) — the broadcast set.
    pub fn participating_engines(&self) -> Vec<EngineId> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                matches!(
                    m.state,
                    EngineState::Active | EngineState::Draining | EngineState::DrainCleanup
                )
            })
            .map(|(i, _)| EngineId(i as u16))
            .collect()
    }

    /// Admit a provisioned engine (scale-out event): it becomes active
    /// and a rebalance target once its `JoinReady` arrives.
    pub fn admit_engine(&mut self, engine: EngineId, now: VirtualTime) -> Result<()> {
        let m = self
            .members
            .get_mut(engine.index())
            .ok_or_else(|| DcapeError::state(format!("admit of unprovisioned engine {engine}")))?;
        if m.state != EngineState::NotJoined {
            return Err(DcapeError::protocol(format!(
                "engine {engine} admitted twice"
            )));
        }
        m.state = EngineState::Active;
        m.mid_run_joiner = true;
        self.last_loads[engine.index()] = Some(0);
        let members = self.participating_engines().len() as u32;
        self.journal
            .record(now, AdaptEvent::EngineJoined { engine, members });
        Ok(())
    }

    /// An engine announced it is up and connected. Idempotent: the
    /// second copy (e.g. after a crash-restart mid-admission) is
    /// journaled as `duplicate_join_ready` and ignored.
    pub fn on_join_ready(&mut self, engine: EngineId, now: VirtualTime) {
        let Some(m) = self.members.get_mut(engine.index()) else {
            return;
        };
        if m.ready {
            self.warn(Warning::DuplicateJoinReady, engine, self.next_round, 0, now);
        } else {
            m.ready = true;
        }
    }

    /// Mid-run joiners that are active and ready — the receiver
    /// candidates of a join-rebalance move.
    fn ready_joiners(&self) -> Vec<EngineId> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.state == EngineState::Active && m.ready && m.mid_run_joiner)
            .map(|(i, _)| EngineId(i as u16))
            .collect()
    }

    /// Is a drain in progress (any phase)?
    pub fn drain_in_progress(&self) -> bool {
        self.drain.is_some() || self.pending_drain.is_some()
    }

    /// The engine currently shedding state — the driver's `BeginDrain`
    /// poll target. `None` once the drain reaches the cleanup hand-off.
    pub fn draining_engine(&self) -> Option<EngineId> {
        self.drain
            .as_ref()
            .filter(|d| self.engine_state(d.engine) == EngineState::Draining)
            .map(|d| d.engine)
    }

    /// Request a drain (scale-in event). Returns `true` when the drain
    /// started immediately — the driver must fence the engine in the
    /// placement map, broadcast `FenceNotice`, and send `BeginDrain`.
    /// Returns `false` when an in-flight relocation round targets the
    /// engine: the drain is deferred, and
    /// [`GlobalCoordinator::poll_pending_drain`] hands it back once the
    /// round ends.
    pub fn request_drain(&mut self, engine: EngineId, now: VirtualTime) -> Result<bool> {
        if self.drain_in_progress() {
            return Err(DcapeError::protocol(format!(
                "drain of {engine} requested while another drain is in progress"
            )));
        }
        if self.engine_state(engine) != EngineState::Active {
            return Err(DcapeError::protocol(format!(
                "drain of non-active engine {engine}"
            )));
        }
        if self.active_engines().len() < 2 {
            return Err(DcapeError::state("cannot drain the last active engine"));
        }
        if self.round.as_ref().is_some_and(|r| r.receiver == engine) {
            self.pending_drain = Some(engine);
            return Ok(false);
        }
        self.start_drain(engine, now);
        Ok(true)
    }

    /// Start a deferred drain once the blocking round is gone. The
    /// driver calls this after every round completion/abort; a returned
    /// engine needs the same fencing + `BeginDrain` as an immediate
    /// [`GlobalCoordinator::request_drain`].
    pub fn poll_pending_drain(&mut self, now: VirtualTime) -> Option<EngineId> {
        if self.relocation_active() {
            return None;
        }
        let engine = self.pending_drain.take()?;
        self.start_drain(engine, now);
        Some(engine)
    }

    fn start_drain(&mut self, engine: EngineId, now: VirtualTime) {
        self.members[engine.index()].state = EngineState::Draining;
        self.warn(Warning::DrainStarted, engine, self.next_round, 0, now);
        self.drain = Some(DrainCtl {
            engine,
            moves: 0,
            consecutive_aborts: 0,
            degraded: false,
            degrade_warned: false,
        });
    }

    /// The least-loaded active engine other than `exclude` — the drain
    /// receiver (fresh joiners sit at load 0, so they are naturally
    /// preferred; ties break to the lowest id).
    fn min_load_receiver(&self, exclude: EngineId) -> Option<EngineId> {
        self.active_engines()
            .into_iter()
            .filter(|e| *e != exclude)
            .min_by_key(|e| (self.last_loads[e.index()].unwrap_or(0), *e))
    }

    /// A `DrainState` report arrived: decide the next drain step —
    /// nothing while a round is in flight or the report is stale.
    pub fn on_drain_state(
        &mut self,
        engine: EngineId,
        resident_bytes: u64,
        now: VirtualTime,
    ) -> Result<Option<Command>> {
        if self.engine_state(engine) != EngineState::Draining
            || self.drain.as_ref().is_none_or(|d| d.engine != engine)
        {
            self.warn(
                Warning::StaleDrainState,
                engine,
                self.next_round,
                resident_bytes,
                now,
            );
            return Ok(None);
        }
        if self.relocation_active() {
            return Ok(None);
        }
        let Some(receiver) = self.min_load_receiver(engine) else {
            return Err(DcapeError::state(format!(
                "no active receiver left for drain of {engine}"
            )));
        };
        if resident_bytes == 0 {
            return Ok(Some(Command::FinalizeDrain { engine, receiver }));
        }
        if let Some(ctl) = self.drain.as_mut().filter(|d| d.degraded) {
            if !std::mem::replace(&mut ctl.degrade_warned, true) {
                self.warn(
                    Warning::DrainDegradedToSpill,
                    engine,
                    self.next_round,
                    resident_bytes,
                    now,
                );
            }
            self.force_spills_issued += 1;
            return Ok(Some(Command::DrainSpill { engine }));
        }
        self.open(engine, receiver, resident_bytes, Purpose::Drain, now)
            .map(Some)
    }

    /// The driver executed [`Command::FinalizeDrain`], remapping
    /// `remapped_parts` partitions (possibly zero). The drain enters
    /// the cleanup hand-off; the driver follows with `StartSpill(MAX)`
    /// and `PrepareCleanup` to the engine and routes its `CleanupReady`
    /// / `CleanupDone` through [`GlobalCoordinator::finish_drain`].
    pub fn drain_finalized(&mut self, engine: EngineId, remapped_parts: usize, now: VirtualTime) {
        debug_assert_eq!(self.engine_state(engine), EngineState::Draining);
        if remapped_parts > 0 {
            if let Some(ctl) = self.drain.as_mut() {
                ctl.moves += 1;
            }
            self.journal.add_rebalance_moves(1);
            self.warn(
                Warning::DrainRemainderRemapped,
                engine,
                self.next_round,
                remapped_parts as u64,
                now,
            );
        }
        self.members[engine.index()].state = EngineState::DrainCleanup;
    }

    /// The drained engine's `CleanupDone` arrived: close the drain,
    /// journal [`AdaptEvent::EngineDrained`], and return the move count.
    pub fn finish_drain(&mut self, engine: EngineId, now: VirtualTime) -> u64 {
        debug_assert_eq!(self.engine_state(engine), EngineState::DrainCleanup);
        self.members[engine.index()].state = EngineState::Drained;
        let moves = self.drain.take().map_or(0, |d| d.moves);
        self.journal
            .record(now, AdaptEvent::EngineDrained { engine, moves });
        moves
    }

    /// Record the latest loads (for drain receiver selection).
    fn note_loads(&mut self, stats: &ClusterStats) {
        for r in stats.reports() {
            if let Some(slot) = self.last_loads.get_mut(r.engine.index()) {
                *slot = Some(r.memory_used);
            }
        }
    }

    // ---- end elastic membership ---------------------------------------

    /// Does a phase time out (retry, then abort)? Without patience the
    /// coordinator waits forever — correct on a fabric that loses
    /// nothing.
    pub fn is_patient(&self) -> bool {
        self.patient
    }

    /// Is a relocation round in flight?
    pub fn relocation_active(&self) -> bool {
        self.round.is_some()
    }

    /// Forced spills issued (active-disk, degraded relocations and
    /// drains).
    pub fn force_spills_issued(&self) -> u64 {
        self.force_spills_issued
    }

    /// Evaluate fresh statistics (the `sr_timer`/`lb_timer` expiry of
    /// Algorithms 1–2): the strategy decides, a relocation opens a round.
    pub fn evaluate(&mut self, stats: &ClusterStats, now: VirtualTime) -> Result<Option<Command>> {
        self.note_loads(stats);
        // One round at a time, and a drain owns the round slot until it
        // completes: the strategy is not consulted meanwhile.
        if self.drain_in_progress() || self.relocation_active() {
            return Ok(None);
        }
        let joiners = self.ready_joiners();
        match self.strategy.decide(stats, &joiners) {
            None => Ok(None),
            Some(Decision::JoinRebalance {
                sender,
                receiver,
                amount,
            }) => self
                .open(sender, receiver, amount, Purpose::JoinRebalance, now)
                .map(Some),
            // Graceful degradation: relocating toward a peer declared
            // dead would just burn another timeout ladder — shed the
            // memory pressure locally instead.
            Some(Decision::Relocate {
                sender,
                receiver,
                amount,
            }) if self.dead_peers.contains(&receiver) => {
                self.warn(
                    Warning::RelocationDegradedToSpill,
                    receiver,
                    self.next_round,
                    amount,
                    now,
                );
                self.force_spills_issued += 1;
                Ok(Some(Command::Spill {
                    engine: sender,
                    amount,
                }))
            }
            Some(Decision::Relocate {
                sender,
                receiver,
                amount,
            }) => self
                .open(sender, receiver, amount, Purpose::Balance, now)
                .map(Some),
            Some(Decision::ForceSpill { engine, amount }) => {
                self.force_spills_issued += 1;
                Ok(Some(Command::Spill { engine, amount }))
            }
        }
    }

    /// Open a round: journal step 1 and have the driver send `Cptv`.
    fn open(
        &mut self,
        sender: EngineId,
        receiver: EngineId,
        amount: u64,
        purpose: Purpose,
        now: VirtualTime,
    ) -> Result<Command> {
        debug_assert!(self.round.is_none(), "one round at a time");
        if sender == receiver {
            return Err(DcapeError::protocol(
                "relocation sender and receiver must differ",
            ));
        }
        let id = self.next_round;
        self.journal.record(
            now,
            AdaptEvent::RelocationStep {
                round: id,
                step: 1,
                sender,
                receiver,
                parts: Vec::new(),
                bytes: amount,
                buffered_tuples: 0,
            },
        );
        self.next_round += 1;
        self.round = Some(Round {
            id,
            sender,
            receiver,
            amount,
            purpose,
            phase: Phase::WaitPtv,
            parts: Vec::new(),
            paused_at: VirtualTime::ZERO,
            attempt: 0,
            deadline: now + PHASE_TIMEOUT,
        });
        Ok(Command::Cptv {
            round: id,
            sender,
            amount,
            attempt: 0,
        })
    }

    /// Close the round in flight and account for how it ended: the
    /// receiver's liveness, the drain's progress and degradation, the
    /// rebalance-move and abort counters.
    fn close(&mut self, outcome: Outcome, now: VirtualTime) -> Round {
        let round = self.round.take().expect("a round is in flight");
        let drain = round.purpose == Purpose::Drain;
        match outcome {
            Outcome::Moved => {
                // A completed round proves the receiver is alive.
                self.consecutive_aborts.insert(round.receiver, 0);
                if let Some(ctl) = self.drain.as_mut().filter(|_| drain) {
                    ctl.moves += 1;
                    ctl.consecutive_aborts = 0;
                }
                if round.purpose != Purpose::Balance {
                    self.journal.add_rebalance_moves(1);
                }
            }
            Outcome::Empty if drain => self.note_drain_abort(),
            Outcome::Empty => {}
            Outcome::TimedOut => {
                let step = round.phase.resent_step();
                self.warn(Warning::RoundAborted, round.receiver, round.id, step, now);
                self.journal.add_rounds_aborted(1);
                if drain {
                    // Drain-round aborts almost always mean the *sender*
                    // (the draining engine) is sick, not the receiver —
                    // count them toward the spill degradation instead of
                    // peer death.
                    self.note_drain_abort();
                } else {
                    let receiver = round.receiver;
                    let aborts = self.consecutive_aborts.entry(receiver).or_insert(0);
                    *aborts += 1;
                    let aborts = *aborts;
                    if aborts >= PEER_DEATH_THRESHOLD && !self.dead_peers.contains(&receiver) {
                        self.dead_peers.push(receiver);
                        self.warn(
                            Warning::PeerDeclaredDead,
                            receiver,
                            round.id,
                            u64::from(aborts),
                            now,
                        );
                    }
                }
            }
        }
        round
    }

    /// Poll the phase deadline of a patient coordinator's round: once it
    /// passed, re-send the phase's message with the next attempt, or —
    /// retries exhausted — abandon the round. `None` when nothing is
    /// due.
    pub fn check_timeout(&mut self, now: VirtualTime) -> Option<Command> {
        if !self.patient {
            return None;
        }
        let r = self.round.as_mut().filter(|r| now >= r.deadline)?;
        if r.attempt < MAX_RETRIES {
            r.attempt += 1;
            r.deadline = now + PHASE_TIMEOUT;
            self.journal.record(
                now,
                AdaptEvent::ProtocolWarning {
                    code: Warning::PhaseTimeoutRetry,
                    engine: r.sender,
                    round: r.id,
                    detail: r.phase.resent_step(),
                },
            );
            self.journal.add_msgs_retried(1);
            return Some(match r.phase {
                Phase::WaitPtv => Command::Cptv {
                    round: r.id,
                    sender: r.sender,
                    amount: r.amount,
                    attempt: r.attempt,
                },
                Phase::WaitAck => Command::SendStates {
                    round: r.id,
                    sender: r.sender,
                    receiver: r.receiver,
                    parts: r.parts.clone(),
                    attempt: r.attempt,
                },
            });
        }
        let r = self.close(Outcome::TimedOut, now);
        Some(Command::Abort {
            round: r.id,
            sender: r.sender,
            receiver: r.receiver,
            paused: (r.phase == Phase::WaitAck).then_some((r.parts, r.paused_at)),
        })
    }

    /// Engines only echo round ids the coordinator sent them: one it
    /// never opened is a protocol error.
    fn check_opened(&self, round: u64, event: &str) -> Result<()> {
        if round >= self.next_round {
            return Err(DcapeError::protocol(format!(
                "{event} for round {round}, which was never opened"
            )));
        }
        Ok(())
    }

    /// Journal a tolerated protocol anomaly.
    fn warn(&self, code: Warning, engine: EngineId, round: u64, detail: u64, now: VirtualTime) {
        self.journal.record(
            now,
            AdaptEvent::ProtocolWarning {
                code,
                engine,
                round,
                detail,
            },
        );
    }

    /// Step 2: the sender's partition list arrived at virtual time
    /// `now`. Step 3 follows at once, so the receiver's ack is awaited
    /// from `now`.
    ///
    /// A late or duplicated `Ptv` — for a round that already closed, or
    /// a second copy for the round in flight — is journaled as a warning
    /// instead of poisoning the coordinator (a retried message must
    /// never wedge adaptation).
    pub fn on_ptv(
        &mut self,
        from: EngineId,
        round: u64,
        parts: Vec<PartitionId>,
        now: VirtualTime,
    ) -> Result<Option<Command>> {
        self.check_opened(round, "ptv")?;
        let Some(r) = self.round.as_mut().filter(|r| r.id == round) else {
            self.warn(Warning::StalePtv, from, round, 2, now);
            // Unless it is sending the round in flight, resume the engine
            // a late `Cptv` may have put back in relocation mode.
            let sending = self.round.as_ref().is_some_and(|r| r.sender == from);
            return Ok((!sending).then_some(Command::Resume {
                round,
                engine: from,
            }));
        };
        if from != r.sender {
            return Err(DcapeError::protocol(format!(
                "ptv from {from}, expected sender {}",
                r.sender
            )));
        }
        if r.phase != Phase::WaitPtv {
            // The first copy already advanced the round.
            self.warn(Warning::DuplicatePtv, from, round, 2, now);
            return Ok(None);
        }
        let (sender, receiver) = (r.sender, r.receiver);
        self.journal.record(
            now,
            AdaptEvent::RelocationStep {
                round,
                step: 2,
                sender,
                receiver,
                parts: parts.clone(),
                bytes: 0,
                buffered_tuples: 0,
            },
        );
        if parts.is_empty() {
            self.close(Outcome::Empty, now);
            return Ok(Some(Command::Empty { round, sender }));
        }
        r.phase = Phase::WaitAck;
        r.parts = parts.clone();
        r.paused_at = now;
        r.attempt = 0;
        r.deadline = now + PHASE_TIMEOUT;
        Ok(Some(Command::Pause {
            round,
            sender,
            receiver,
            parts,
        }))
    }

    /// Step 6: the receiver's transfer ack — it installed `bytes` from
    /// `SendStates` attempt `attempt` — arrived at virtual time `now`;
    /// the round closes.
    ///
    /// A late or duplicated ack (a retried transfer can deliver the same
    /// ack twice; the round may have completed — or aborted — by the
    /// time the second copy lands) is journaled as a warning. So is an
    /// ack of an attempt other than the one in flight: a retry may have
    /// crashed the receiver since, wiping the install that ack promised.
    pub fn on_transfer_ack(
        &mut self,
        from: EngineId,
        round: u64,
        attempt: u32,
        bytes: u64,
        now: VirtualTime,
    ) -> Result<Option<Command>> {
        self.check_opened(round, "transfer_ack")?;
        let Some(r) = self.round.as_ref().filter(|r| r.id == round) else {
            self.warn(Warning::StaleTransferAck, from, round, 6, now);
            return Ok(None);
        };
        if from != r.receiver {
            return Err(DcapeError::protocol(format!(
                "transfer_ack from {from}, expected receiver {}",
                r.receiver
            )));
        }
        if r.phase != Phase::WaitAck {
            return Err(DcapeError::protocol(format!(
                "transfer_ack for round {round} before its ptv"
            )));
        }
        if attempt != r.attempt {
            self.warn(Warning::StaleTransferAck, from, round, 6, now);
            return Ok(None);
        }
        self.journal.record(
            now,
            AdaptEvent::RelocationStep {
                round,
                step: 6,
                sender: r.sender,
                receiver: r.receiver,
                parts: Vec::new(),
                bytes: 0,
                buffered_tuples: 0,
            },
        );
        let r = self.close(Outcome::Moved, now);
        Ok(Some(Command::Remap {
            round,
            sender: r.sender,
            receiver: r.receiver,
            parts: r.parts,
            bytes,
            held_since: r.paused_at,
        }))
    }

    /// Count a drain-round abort toward the forced-spill degradation.
    fn note_drain_abort(&mut self) {
        if let Some(ctl) = self.drain.as_mut() {
            ctl.consecutive_aborts += 1;
            if ctl.consecutive_aborts >= DRAIN_ABORTS_TO_DEGRADE {
                ctl.degraded = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::report;

    fn imbalanced() -> ClusterStats {
        ClusterStats::new(vec![report(0, 1000, 1.0), report(1, 100, 1.0)])
    }

    /// Lazy-disk over two engines and a slot for a third, relocating
    /// on every imbalance.
    fn lazy(patient: bool) -> GlobalCoordinator {
        let strategy = StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::ZERO,
        };
        GlobalCoordinator::new(&strategy, 2, 3, JournalHandle::default(), patient)
    }

    /// Let the strategy open a round at `now`: its id and amount.
    fn open_round(gc: &mut GlobalCoordinator, now: VirtualTime) -> (u64, u64) {
        match gc.evaluate(&imbalanced(), now).unwrap() {
            Some(Command::Cptv {
                round,
                sender: EngineId(0),
                amount,
                attempt: 0,
            }) => (round, amount),
            other => panic!("expected a round from QE0, got {other:?}"),
        }
    }

    /// Poll the deadline once a phase timeout from `now` until the round
    /// is abandoned; the retries on the way and the abort.
    fn time_out(gc: &mut GlobalCoordinator, mut now: VirtualTime) -> (Vec<Command>, Command) {
        let mut retries = Vec::new();
        loop {
            now += PHASE_TIMEOUT;
            match gc.check_timeout(now).expect("a deadline passed") {
                abort @ Command::Abort { .. } => return (retries, abort),
                retry => retries.push(retry),
            }
        }
    }

    fn warnings(gc: &GlobalCoordinator) -> Vec<Warning> {
        gc.journal
            .snapshot()
            .into_iter()
            .filter_map(|e| match e.event {
                AdaptEvent::ProtocolWarning { code, .. } => Some(code),
                _ => None,
            })
            .collect()
    }

    const E0: EngineId = EngineId(0);
    const E1: EngineId = EngineId(1);
    const E2: EngineId = EngineId(2);

    #[test]
    fn full_relocation_lifecycle() {
        let mut gc = lazy(false);
        assert!(!gc.relocation_active());
        let (round, _) = open_round(&mut gc, VirtualTime::from_secs(1));
        assert!(gc.relocation_active());
        // While a round is in flight, further evaluations do nothing —
        // not even a move toward a ready joiner.
        let t = VirtualTime::from_secs(2);
        gc.admit_engine(E2, t).unwrap();
        gc.on_join_ready(E2, t);
        let joiner_empty = ClusterStats::new(vec![
            report(0, 100_000, 10.0),
            report(1, 1000, 1.0),
            report(2, 0, 0.0),
        ]);
        for stats in [imbalanced(), joiner_empty.clone()] {
            assert_eq!(gc.evaluate(&stats, t).unwrap(), None);
        }
        let parts = vec![PartitionId(1), PartitionId(2)];
        assert_eq!(
            gc.on_ptv(E0, round, parts.clone(), VirtualTime::from_secs(3))
                .unwrap(),
            Some(Command::Pause {
                round,
                sender: E0,
                receiver: E1,
                parts: parts.clone(),
            })
        );
        assert_eq!(
            gc.on_transfer_ack(E1, round, 0, 500, VirtualTime::from_secs(4))
                .unwrap(),
            Some(Command::Remap {
                round,
                sender: E0,
                receiver: E1,
                parts,
                bytes: 500,
                held_since: VirtualTime::from_secs(3),
            })
        );
        assert!(!gc.relocation_active());
        let steps: Vec<u8> = gc
            .journal
            .snapshot()
            .into_iter()
            .filter_map(|e| match e.event {
                AdaptEvent::RelocationStep { step, .. } => Some(step),
                _ => None,
            })
            .collect();
        assert_eq!(steps, [1, 2, 6]);
        // With the round closed, the joiner gets its move.
        let cmd = gc.evaluate(&joiner_empty, VirtualTime::from_secs(5));
        assert!(
            matches!(cmd, Ok(Some(Command::Cptv { sender: E0, .. }))),
            "{cmd:?}"
        );
        let opened = gc.round.as_ref().map(|r| (r.receiver, r.purpose));
        assert_eq!(opened, Some((E2, Purpose::JoinRebalance)));
    }

    #[test]
    fn empty_ptv_closes_the_round() {
        let mut gc = lazy(false);
        let (round, _) = open_round(&mut gc, VirtualTime::from_secs(1));
        assert_eq!(
            gc.on_ptv(E0, round, vec![], VirtualTime::from_secs(2))
                .unwrap(),
            Some(Command::Empty { round, sender: E0 })
        );
        assert!(!gc.relocation_active());
        // The next imbalance opens the next round.
        assert_eq!(open_round(&mut gc, VirtualTime::from_secs(3)).0, round + 1);
    }

    #[test]
    fn stale_and_duplicate_messages_are_warnings_not_errors() {
        let mut gc = lazy(false);
        let (round, _) = open_round(&mut gc, VirtualTime::from_secs(1));
        let t = VirtualTime::from_secs(2);
        let parts = vec![PartitionId(1)];
        assert!(gc.on_ptv(E0, round, parts.clone(), t).unwrap().is_some());
        // The Ptv again, while the round waits for its ack: a no-op.
        assert_eq!(gc.on_ptv(E0, round, parts.clone(), t).unwrap(), None);
        assert!(gc.on_transfer_ack(E1, round, 0, 0, t).unwrap().is_some());
        // A retried ack for the closed round: tolerated, still closed.
        assert_eq!(gc.on_transfer_ack(E1, round, 0, 0, t).unwrap(), None);
        // A late Ptv of the closed round: its sender may be idling in
        // relocation mode, so it is resumed…
        assert_eq!(
            gc.on_ptv(E0, round, parts.clone(), t).unwrap(),
            Some(Command::Resume { round, engine: E0 })
        );
        // …unless it is the sender of the round now in flight.
        open_round(&mut gc, VirtualTime::from_secs(3));
        assert_eq!(gc.on_ptv(E0, round, parts, t).unwrap(), None);
        assert_eq!(
            warnings(&gc),
            [
                Warning::DuplicatePtv,
                Warning::StaleTransferAck,
                Warning::StalePtv,
                Warning::StalePtv
            ]
        );
    }

    #[test]
    fn wrong_party_wrong_phase_and_future_rounds_are_errors() {
        let mut gc = lazy(false);
        let t = VirtualTime::from_secs(1);
        assert!(gc.on_ptv(E0, 0, vec![], t).is_err(), "no round opened yet");
        assert!(gc.on_transfer_ack(E1, 0, 0, 0, t).is_err());
        let (round, _) = open_round(&mut gc, t);
        assert!(gc.on_ptv(E0, round + 1, vec![], t).is_err(), "future round");
        assert!(
            gc.on_transfer_ack(E1, round, 0, 0, t).is_err(),
            "ack before ptv"
        );
        assert!(
            gc.on_ptv(E1, round, vec![], t).is_err(),
            "ptv from receiver"
        );
        gc.on_ptv(E0, round, vec![PartitionId(1)], t)
            .unwrap()
            .unwrap();
        assert!(
            gc.on_transfer_ack(E0, round, 0, 0, t).is_err(),
            "ack from sender"
        );
        // None of them disturbed the round.
        assert!(matches!(
            gc.on_transfer_ack(E1, round, 0, 0, t).unwrap(),
            Some(Command::Remap { .. })
        ));
    }

    #[test]
    fn a_round_never_relocates_onto_its_sender() {
        let mut gc = lazy(false);
        let t = VirtualTime::ZERO;
        assert!(gc.open(E0, E0, 10, Purpose::Balance, t).is_err());
        assert!(!gc.relocation_active());
    }

    #[test]
    fn an_impatient_coordinator_waits_forever() {
        let mut gc = lazy(false);
        open_round(&mut gc, VirtualTime::from_secs(1));
        assert_eq!(gc.check_timeout(VirtualTime::from_mins(60)), None);
        assert!(gc.relocation_active());
    }

    #[test]
    fn phase_timeout_retries_then_aborts() {
        let mut gc = lazy(true);
        // Without a round, no timeout fires.
        assert_eq!(gc.check_timeout(VirtualTime::from_secs(100)), None);
        let start = VirtualTime::from_secs(100);
        let (round, amount) = open_round(&mut gc, start);
        // Before the deadline: nothing.
        assert_eq!(
            gc.check_timeout(start + VirtualDuration::from_secs(1)),
            None
        );
        let (retries, abort) = time_out(&mut gc, start);
        let expected: Vec<Command> = (1..=MAX_RETRIES)
            .map(|attempt| Command::Cptv {
                round,
                sender: E0,
                amount,
                attempt,
            })
            .collect();
        assert_eq!(retries, expected);
        // It died waiting for its partition list: nothing was paused.
        assert_eq!(
            abort,
            Command::Abort {
                round,
                sender: E0,
                receiver: E1,
                paused: None,
            }
        );
        assert!(!gc.relocation_active());
        let c = gc.journal.counters().snapshot();
        assert_eq!(c.msgs_retried, u64::from(MAX_RETRIES));
        assert_eq!(c.rounds_aborted, 1);
        // No round anymore: the poll goes quiet.
        assert_eq!(gc.check_timeout(VirtualTime::from_mins(60)), None);
    }

    #[test]
    fn wait_ack_timeout_aborts_with_paused_parts() {
        let mut gc = lazy(true);
        let (round, _) = open_round(&mut gc, VirtualTime::from_secs(1));
        let paused_at = VirtualTime::from_secs(2);
        gc.on_ptv(E0, round, vec![PartitionId(4)], paused_at)
            .unwrap()
            .unwrap();
        // The WaitAck phase armed at the Ptv: its retries re-send step 4.
        assert_eq!(gc.check_timeout(VirtualTime::from_millis(3999)), None);
        let (retries, abort) = time_out(&mut gc, paused_at);
        assert!(retries.iter().enumerate().all(|(i, c)| *c
            == Command::SendStates {
                round,
                sender: E0,
                receiver: E1,
                parts: vec![PartitionId(4)],
                attempt: i as u32 + 1,
            }));
        assert_eq!(retries.len(), MAX_RETRIES as usize);
        assert_eq!(
            abort,
            Command::Abort {
                round,
                sender: E0,
                receiver: E1,
                paused: Some((vec![PartitionId(4)], paused_at)),
            }
        );
    }

    /// Only an ack of the `SendStates` attempt in flight closes the
    /// round: an earlier attempt's ack may promise an install that the
    /// retry's crash has wiped since.
    #[test]
    fn an_ack_of_an_earlier_attempt_is_stale() {
        let mut gc = lazy(true);
        let (round, _) = open_round(&mut gc, VirtualTime::from_secs(1));
        let paused_at = VirtualTime::from_secs(2);
        gc.on_ptv(E0, round, vec![PartitionId(4)], paused_at)
            .unwrap()
            .unwrap();
        let retry = gc.check_timeout(paused_at + PHASE_TIMEOUT);
        assert!(matches!(
            retry,
            Some(Command::SendStates { attempt: 1, .. })
        ));
        let t = VirtualTime::from_secs(5);
        for attempt in [0, 2] {
            assert_eq!(gc.on_transfer_ack(E1, round, attempt, 0, t).unwrap(), None);
            assert!(gc.relocation_active());
        }
        assert!(matches!(
            gc.on_transfer_ack(E1, round, 1, 0, t).unwrap(),
            Some(Command::Remap { .. })
        ));
        assert_eq!(
            warnings(&gc),
            [
                Warning::PhaseTimeoutRetry,
                Warning::StaleTransferAck,
                Warning::StaleTransferAck
            ]
        );
    }

    #[test]
    fn repeated_aborts_declare_peer_dead_and_degrade_to_spill() {
        let mut gc = lazy(true);
        let mut now = VirtualTime::from_secs(1);
        for _ in 0..PEER_DEATH_THRESHOLD {
            open_round(&mut gc, now);
            time_out(&mut gc, now);
            now += VirtualDuration::from_secs(60);
        }
        assert_eq!(gc.dead_peers, [E1]);
        // The same imbalance now degrades to a local force-spill at the
        // overloaded sender.
        assert_eq!(
            gc.evaluate(&imbalanced(), now).unwrap(),
            Some(Command::Spill {
                engine: E0,
                amount: 450,
            })
        );
        assert_eq!(gc.force_spills_issued(), 1);
        let w = warnings(&gc);
        assert!(
            w.contains(&Warning::PeerDeclaredDead)
                && w.contains(&Warning::RelocationDegradedToSpill)
        );
    }

    #[test]
    fn force_spill_counter() {
        let strategy = StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::ZERO,
            lambda: 2.0,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 30,
        };
        let mut gc = GlobalCoordinator::new(&strategy, 2, 2, JournalHandle::default(), false);
        let stats = ClusterStats::new(vec![report(0, 1000, 10.0), report(1, 950, 1.0)]);
        let cmd = gc.evaluate(&stats, VirtualTime::from_secs(1)).unwrap();
        assert!(matches!(cmd, Some(Command::Spill { .. })), "{cmd:?}");
        assert_eq!(gc.force_spills_issued(), 1);
    }
}
