//! The global coordinator (GC).
//!
//! §2: "a dedicated global coordinator is in charge of a set of query
//! engines … it collects and analyzes running statistics of each
//! processor [and] makes coarse-grained adaptation decisions such as how
//! many states to relocate from one processor to the other but *not
//! which partition groups*". The coordinator therefore owns:
//!
//! * the pluggable [`AdaptationStrategy`] (lazy-disk / active-disk /
//!   none),
//! * the lifecycle of at most one in-flight [`RelocationRound`],
//! * adaptation counters for reporting.
//!
//! It knows nothing of transports: the one coordinator loop
//! ([`crate::runtime::driver`]) feeds it statistics and protocol events
//! and executes the actions it returns, on every runtime.

use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_metrics::journal::{AdaptEvent, JournalHandle};

use crate::relocation::{Action, Phase, RelocationRound, RoundPurpose};
use crate::stats::ClusterStats;
use crate::strategy::{AdaptationStrategy, Decision, RebalancePlanner, StrategyConfig};

/// Consecutive aborted drain rounds before the coordinator stops trying
/// to relocate off the draining engine and degrades to a forced spill
/// (the segments still reach their new owners through the cleanup
/// hand-off, so the drain terminates under any chaos schedule).
const DRAIN_ABORTS_TO_DEGRADE: u32 = 3;

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

#[derive(Debug, Clone, Copy)]
struct Member {
    state: EngineState,
    /// `JoinReady` received — the engine is up and reachable, so the
    /// rebalance planner may move state toward it.
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

/// What the driver must do after feeding a [`FromEngine::DrainState`]
/// report into [`GlobalCoordinator::on_drain_state`].
///
/// [`FromEngine::DrainState`]: crate::messages::FromEngine
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainStep {
    /// Nothing right now (a relocation round is still in flight, or the
    /// report was stale). The driver re-polls with `BeginDrain` when
    /// the round ends.
    Wait,
    /// A drain relocation round was opened: send `Cptv(amount)` to the
    /// draining engine (step 1).
    Relocate {
        /// Round id.
        round: u64,
        /// The draining engine (sender).
        sender: EngineId,
        /// Target engine for the shed state.
        receiver: EngineId,
        /// Bytes to vacate (all resident state).
        amount: u64,
    },
    /// Drain rounds keep aborting: force the engine to spill everything
    /// to disk instead. The segments reach their owners in the cleanup
    /// hand-off after the final remap.
    ForceSpill {
        /// The draining engine.
        engine: EngineId,
        /// Bytes to spill (`u64::MAX` = everything).
        amount: u64,
    },
    /// No resident state left: pause + remap the engine's remaining
    /// (zero-state) partitions straight to `receiver`, then start the
    /// cleanup hand-off (`StartSpill(MAX)` + `PrepareCleanup` to the
    /// draining engine). The driver reports back via
    /// [`GlobalCoordinator::drain_finalized`].
    FinalizeRemap {
        /// The draining engine.
        engine: EngineId,
        /// New owner for its remaining partitions.
        receiver: EngineId,
    },
}

/// Per-phase timeout and bounded-retry policy for relocation rounds.
///
/// Without a policy the coordinator waits forever — correct on a
/// reliable fabric and exactly the pre-chaos behaviour. With one, each
/// protocol phase (WaitPtv, WaitAck) gets a deadline; on expiry the
/// coordinator re-issues the phase's message up to `max_retries` times
/// and then **aborts** the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual time allowed per phase attempt.
    pub phase_timeout: VirtualDuration,
    /// Re-sends per phase before the round is abandoned.
    pub max_retries: u32,
    /// Consecutive aborted rounds toward one receiver before the
    /// coordinator declares the peer dead and degrades relocations to
    /// local spills.
    pub peer_death_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            phase_timeout: VirtualDuration::from_secs(2),
            max_retries: 3,
            peer_death_threshold: 3,
        }
    }
}

/// What the driver must do after a phase deadline expired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeoutAction {
    /// Re-send step 1 (`Cptv`) to the sender with the new attempt.
    RetryCptv {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// Bytes to vacate.
        amount: u64,
        /// New delivery attempt number.
        attempt: u32,
    },
    /// Re-send step 4 (`SendStates`) to the sender with the new
    /// attempt; the sender re-ships its retained outbound copy.
    RetrySendStates {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// The receiver engine.
        receiver: EngineId,
        /// Partitions being moved.
        parts: Vec<PartitionId>,
        /// New delivery attempt number.
        attempt: u32,
    },
    /// Retries exhausted: abandon the round. The driver must send
    /// `AbortRound` to sender and receiver, release the paused
    /// partitions *without* remapping (`parts` is empty when the round
    /// died in WaitPtv, before anything paused), replay their buffered
    /// tuples to the original owner, and release the held watermark.
    AbortRound {
        /// Round id.
        round: u64,
        /// The sender engine.
        sender: EngineId,
        /// The receiver engine.
        receiver: EngineId,
        /// Paused partitions to release (empty if none were paused).
        parts: Vec<PartitionId>,
        /// When the partitions were paused (watermark-held accounting);
        /// `None` if the round never reached the pause.
        held_since: Option<VirtualTime>,
    },
}

/// The global adaptation controller.
#[derive(Debug)]
pub struct GlobalCoordinator {
    strategy: Box<dyn AdaptationStrategy>,
    active_round: Option<RelocationRound>,
    next_round: u64,
    relocations_completed: u64,
    relocations_aborted: u64,
    force_spills_issued: u64,
    journal: JournalHandle,
    /// Per-phase timeout policy; `None` waits forever (default).
    retry: Option<RetryPolicy>,
    /// Deadline for the current phase attempt, when a policy is set.
    phase_deadline: Option<VirtualTime>,
    /// Delivery attempt within the current phase (0 = first send).
    attempt: u32,
    /// Consecutive aborted rounds per receiver (reset on success).
    consecutive_aborts: FxHashMap<EngineId, u32>,
    /// Receivers declared dead: relocations toward them degrade to
    /// local force-spills at the sender.
    dead_peers: Vec<EngineId>,
    /// Elastic membership, indexed by engine id. Empty = legacy mode
    /// (fixed engine set, every engine implicitly active).
    members: Vec<Member>,
    /// Last known memory load per engine (from the stats feed); drain
    /// rounds pick the least-loaded active engine as receiver.
    last_loads: Vec<Option<u64>>,
    /// Join-time rebalancing planner.
    rebalance: RebalancePlanner,
    /// The drain in progress, if any (at most one at a time).
    drain: Option<DrainCtl>,
    /// Drain requested while a relocation round targeted the engine;
    /// started as soon as that round ends.
    pending_drain: Option<EngineId>,
}

impl GlobalCoordinator {
    /// Build a coordinator running the given strategy.
    pub fn new(strategy: &StrategyConfig) -> Self {
        GlobalCoordinator {
            strategy: strategy.build(),
            active_round: None,
            next_round: 0,
            relocations_completed: 0,
            relocations_aborted: 0,
            force_spills_issued: 0,
            journal: JournalHandle::disabled(),
            retry: None,
            phase_deadline: None,
            attempt: 0,
            consecutive_aborts: FxHashMap::default(),
            dead_peers: Vec::new(),
            members: Vec::new(),
            last_loads: Vec::new(),
            rebalance: RebalancePlanner::default(),
            drain: None,
            pending_drain: None,
        }
    }

    /// Arm per-phase timeouts with bounded retry then abort. Without
    /// this call phases never time out (the pre-chaos behaviour).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Receivers declared dead after repeated aborted rounds.
    pub fn dead_peers(&self) -> &[EngineId] {
        &self.dead_peers
    }

    // ---- elastic membership -------------------------------------------

    /// Enable the elastic membership: `initial` engines start active,
    /// slots up to `capacity` (initial + scheduled joins) are
    /// provisioned but not joined. Without this call the coordinator
    /// runs in the legacy fixed-set mode.
    pub fn init_membership(&mut self, initial: usize, capacity: usize) {
        let capacity = capacity.max(initial);
        self.members = (0..capacity)
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
        self.last_loads = vec![None; capacity];
    }

    /// Lifecycle state of `engine`. Legacy mode (no membership) reports
    /// every engine active.
    pub fn engine_state(&self, engine: EngineId) -> EngineState {
        if self.members.is_empty() {
            return EngineState::Active;
        }
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
            self.warn("duplicate_join_ready", engine, self.next_round, 0, now);
        } else {
            m.ready = true;
        }
    }

    /// Mid-run joiners that are active and ready — the rebalance
    /// planner's receiver candidates.
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
        if self.members.is_empty() {
            return Err(DcapeError::state("drain requires elastic membership"));
        }
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
        let deferred = self
            .active_round
            .as_ref()
            .is_some_and(|r| r.receiver() == engine);
        if deferred {
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
        self.warn("drain_started", engine, self.next_round, 0, now);
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

    /// A `DrainState` report arrived: decide the next drain step.
    pub fn on_drain_state(
        &mut self,
        engine: EngineId,
        resident_bytes: u64,
        now: VirtualTime,
    ) -> Result<DrainStep> {
        if self.engine_state(engine) != EngineState::Draining
            || self.drain.as_ref().is_none_or(|d| d.engine != engine)
        {
            self.warn(
                "stale_drain_state",
                engine,
                self.next_round,
                resident_bytes,
                now,
            );
            return Ok(DrainStep::Wait);
        }
        if self.relocation_active() {
            return Ok(DrainStep::Wait);
        }
        let Some(receiver) = self.min_load_receiver(engine) else {
            return Err(DcapeError::state(format!(
                "no active receiver left for drain of {engine}"
            )));
        };
        if resident_bytes == 0 {
            return Ok(DrainStep::FinalizeRemap { engine, receiver });
        }
        let ctl = self.drain.as_mut().expect("checked above");
        if ctl.degraded {
            if !ctl.degrade_warned {
                ctl.degrade_warned = true;
                self.warn(
                    "drain_degraded_to_spill",
                    engine,
                    self.next_round,
                    resident_bytes,
                    now,
                );
            }
            self.force_spills_issued += 1;
            return Ok(DrainStep::ForceSpill {
                engine,
                amount: u64::MAX,
            });
        }
        let round = RelocationRound::begin_with_purpose(
            self.next_round,
            engine,
            receiver,
            resident_bytes,
            RoundPurpose::Drain,
        )?;
        self.journal.record(
            now,
            AdaptEvent::RelocationStep {
                round: round.round(),
                step: 1,
                sender: engine,
                receiver,
                parts: Vec::new(),
                bytes: resident_bytes,
                buffered_tuples: 0,
                load_ratio: 0.0,
            },
        );
        let id = round.round();
        self.next_round += 1;
        self.active_round = Some(round);
        self.arm_phase(now);
        Ok(DrainStep::Relocate {
            round: id,
            sender: engine,
            receiver,
            amount: resident_bytes,
        })
    }

    /// The driver executed [`DrainStep::FinalizeRemap`], remapping
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
                "drain_remainder_remapped",
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

    /// Attach a journal; the strategy shares it (recording a
    /// `StatsSample` per evaluation), and the coordinator records the
    /// protocol steps it observes directly (1, 2 and 6).
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.strategy.attach_journal(journal.clone());
        self.journal = journal;
    }

    /// The strategy's name (for reports).
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Is a relocation round in flight?
    pub fn relocation_active(&self) -> bool {
        self.active_round.is_some()
    }

    /// Completed relocation rounds.
    pub fn relocations_completed(&self) -> u64 {
        self.relocations_completed
    }

    /// Aborted relocation rounds (sender had nothing to move).
    pub fn relocations_aborted(&self) -> u64 {
        self.relocations_aborted
    }

    /// Forced spills issued (active-disk).
    pub fn force_spills_issued(&self) -> u64 {
        self.force_spills_issued
    }

    /// Evaluate fresh statistics (the `sr_timer`/`lb_timer` expiry of
    /// Algorithms 1–2) and return the decision the driver must execute.
    ///
    /// When the decision is [`Decision::Relocate`], the coordinator has
    /// already opened the relocation round — the driver must send
    /// `Cptv(amount)` (step 1) to the sender and later feed
    /// [`GlobalCoordinator::on_ptv`] / \
    /// [`GlobalCoordinator::on_transfer_ack`].
    pub fn evaluate(&mut self, stats: &ClusterStats, now: VirtualTime) -> Result<Decision> {
        self.note_loads(stats);
        // A drain owns the single round slot until it completes; the
        // strategy and the join planner stay quiet meanwhile.
        if self.drain_in_progress() {
            return Ok(Decision::None);
        }
        // Join-time rebalancing outranks the strategy: a fresh engine
        // is idle capacity, and the planner's hysteresis band keeps it
        // from fighting the strategy's own moves.
        if !self.relocation_active() {
            let joiners = self.ready_joiners();
            if let Some(mv) = self.rebalance.plan(stats, &joiners, now) {
                let round = RelocationRound::begin_with_purpose(
                    self.next_round,
                    mv.sender,
                    mv.receiver,
                    mv.amount,
                    RoundPurpose::JoinRebalance,
                )?;
                self.journal.record(
                    now,
                    AdaptEvent::RelocationStep {
                        round: round.round(),
                        step: 1,
                        sender: mv.sender,
                        receiver: mv.receiver,
                        parts: Vec::new(),
                        bytes: mv.amount,
                        buffered_tuples: 0,
                        load_ratio: stats.load_ratio(),
                    },
                );
                self.next_round += 1;
                self.active_round = Some(round);
                self.arm_phase(now);
                return Ok(Decision::Relocate {
                    sender: mv.sender,
                    receiver: mv.receiver,
                    amount: mv.amount,
                });
            }
        }
        let mut decision = self.strategy.decide(stats, now, self.relocation_active());
        // Graceful degradation: relocating toward a peer declared dead
        // would just burn another timeout ladder — shed the memory
        // pressure locally instead.
        if let Decision::Relocate {
            sender,
            receiver,
            amount,
        } = decision
        {
            if self.dead_peers.contains(&receiver) {
                self.journal.record(
                    now,
                    AdaptEvent::ProtocolWarning {
                        code: "relocation_degraded_to_spill",
                        engine: receiver,
                        round: self.next_round,
                        detail: amount,
                    },
                );
                decision = Decision::ForceSpill {
                    engine: sender,
                    amount,
                };
            }
        }
        match &decision {
            Decision::Relocate {
                sender,
                receiver,
                amount,
            } => {
                let round = RelocationRound::begin(self.next_round, *sender, *receiver, *amount)?;
                self.journal.record(
                    now,
                    AdaptEvent::RelocationStep {
                        round: round.round(),
                        step: 1,
                        sender: *sender,
                        receiver: *receiver,
                        parts: Vec::new(),
                        bytes: *amount,
                        buffered_tuples: 0,
                        load_ratio: stats.load_ratio(),
                    },
                );
                self.next_round += 1;
                self.active_round = Some(round);
                self.arm_phase(now);
            }
            Decision::ForceSpill { .. } => {
                self.force_spills_issued += 1;
            }
            Decision::None => {}
        }
        Ok(decision)
    }

    /// Start a fresh deadline/attempt ladder for the phase that just
    /// began (no-op without a retry policy).
    fn arm_phase(&mut self, now: VirtualTime) {
        self.attempt = 0;
        self.phase_deadline = self.retry.map(|p| now + p.phase_timeout);
    }

    /// The current phase's delivery attempt (0 = first send). Drivers
    /// stamp outgoing protocol messages with this so the chaos layer's
    /// decisions key on it.
    pub fn current_attempt(&self) -> u32 {
        self.attempt
    }

    /// Poll the phase deadline. Returns the recovery action the driver
    /// must execute if the current phase has timed out at `now`:
    /// re-send the phase message (bounded) or abort the round. `None`
    /// when no round is active, no policy is set, or the deadline has
    /// not passed.
    pub fn check_timeout(&mut self, now: VirtualTime) -> Option<TimeoutAction> {
        let policy = self.retry?;
        let deadline = self.phase_deadline?;
        if now < deadline {
            return None;
        }
        let active = self.active_round.as_ref()?;
        let round = active.round();
        let (sender, receiver) = (active.sender(), active.receiver());
        let step: u64 = match active.phase() {
            Phase::WaitPtv => 1,
            Phase::WaitAck => 4,
            Phase::Done => return None,
        };
        if self.attempt < policy.max_retries {
            self.attempt += 1;
            self.phase_deadline = Some(now + policy.phase_timeout);
            self.journal.record(
                now,
                AdaptEvent::ProtocolWarning {
                    code: "phase_timeout_retry",
                    engine: sender,
                    round,
                    detail: step,
                },
            );
            self.journal.add_msgs_retried(1);
            let attempt = self.attempt;
            return Some(match active.phase() {
                Phase::WaitPtv => TimeoutAction::RetryCptv {
                    round,
                    sender,
                    amount: active.amount(),
                    attempt,
                },
                Phase::WaitAck => TimeoutAction::RetrySendStates {
                    round,
                    sender,
                    receiver,
                    parts: active.parts().to_vec(),
                    attempt,
                },
                Phase::Done => unreachable!("filtered above"),
            });
        }
        // Retries exhausted: abandon the round.
        let purpose = active.purpose();
        let (parts, held_since) = match active.phase() {
            Phase::WaitAck => (active.parts().to_vec(), Some(active.paused_at())),
            _ => (Vec::new(), None),
        };
        self.journal.record(
            now,
            AdaptEvent::ProtocolWarning {
                code: "round_aborted",
                engine: receiver,
                round,
                detail: step,
            },
        );
        self.journal.add_rounds_aborted(1);
        self.active_round = None;
        self.phase_deadline = None;
        self.relocations_aborted += 1;
        if purpose == RoundPurpose::Drain {
            // Drain-round aborts almost always mean the *sender* (the
            // draining engine) is sick, not the receiver — count them
            // toward the spill degradation instead of peer death.
            self.note_drain_abort();
        } else {
            let aborts = self.consecutive_aborts.entry(receiver).or_insert(0);
            *aborts += 1;
            if *aborts >= policy.peer_death_threshold && !self.dead_peers.contains(&receiver) {
                self.dead_peers.push(receiver);
                self.journal.record(
                    now,
                    AdaptEvent::ProtocolWarning {
                        code: "peer_declared_dead",
                        engine: receiver,
                        round,
                        detail: u64::from(*aborts),
                    },
                );
            }
        }
        Some(TimeoutAction::AbortRound {
            round,
            sender,
            receiver,
            parts,
            held_since,
        })
    }

    /// The id and amount of the active round (for issuing `Cptv`).
    pub fn active_round_info(&self) -> Option<(u64, EngineId, EngineId, u64)> {
        self.active_round
            .as_ref()
            .map(|r| (r.round(), r.sender(), r.receiver(), r.amount()))
    }

    /// True if `round` names a round that already finished (completed
    /// or aborted) — the signature of a late or duplicated message.
    fn is_stale_round(&self, round: u64) -> bool {
        round < self.next_round
            && self
                .active_round
                .as_ref()
                .is_none_or(|active| round != active.round())
    }

    /// Journal a tolerated protocol anomaly.
    fn warn(
        &self,
        code: &'static str,
        engine: EngineId,
        round: u64,
        detail: u64,
        now: VirtualTime,
    ) {
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
    /// `now`.
    ///
    /// Returns `Ok(None)` for a late or duplicated message — a `Ptv`
    /// for a round that already finished, or a re-delivered `Ptv` for
    /// the active round — journaled as a warning instead of poisoning
    /// the coordinator (a retried message must never wedge adaptation).
    pub fn on_ptv(
        &mut self,
        from: EngineId,
        round: u64,
        parts: Vec<PartitionId>,
        now: VirtualTime,
    ) -> Result<Option<Action>> {
        if self.is_stale_round(round) || self.active_round.is_none() {
            self.warn("stale_ptv", from, round, 2, now);
            return Ok(None);
        }
        let active = self.active_round.as_mut().expect("checked above");
        if *active.phase() != Phase::WaitPtv && from == active.sender() {
            // Re-delivered Ptv for the round in flight: the first copy
            // already advanced the phase; this one is a no-op.
            self.warn("duplicate_ptv", from, round, 2, now);
            return Ok(None);
        }
        let (sender, receiver) = (active.sender(), active.receiver());
        let event_parts = parts.clone();
        let action = active.on_ptv(from, round, parts, now)?;
        self.journal.record(
            now,
            AdaptEvent::RelocationStep {
                round,
                step: 2,
                sender,
                receiver,
                parts: event_parts,
                bytes: 0,
                buffered_tuples: 0,
                load_ratio: 0.0,
            },
        );
        if matches!(action, Action::Abort) {
            let purpose = self
                .active_round
                .as_ref()
                .map_or(RoundPurpose::Balance, RelocationRound::purpose);
            self.active_round = None;
            self.phase_deadline = None;
            self.relocations_aborted += 1;
            if purpose == RoundPurpose::Drain {
                self.note_drain_abort();
            }
        } else {
            // Step 3 pauses immediately; the WaitAck phase starts now.
            self.arm_phase(now);
        }
        Ok(Some(action))
    }

    /// Step 6: the receiver's transfer ack arrived at virtual time
    /// `now`. Returns the final remap-and-resume action and closes the
    /// round.
    ///
    /// Returns `Ok(None)` for a late or duplicated ack (a retried
    /// transfer can deliver the same ack twice; the round may have
    /// completed — or aborted — by the time the second copy lands).
    pub fn on_transfer_ack(
        &mut self,
        from: EngineId,
        round: u64,
        now: VirtualTime,
    ) -> Result<Option<Action>> {
        if self.is_stale_round(round) || self.active_round.is_none() {
            self.warn("stale_transfer_ack", from, round, 6, now);
            return Ok(None);
        }
        let active = self.active_round.as_mut().expect("checked above");
        let (sender, receiver) = (active.sender(), active.receiver());
        let purpose = active.purpose();
        let action = active.on_transfer_ack(from, round)?;
        debug_assert!(active.is_done());
        self.journal.record(
            now,
            AdaptEvent::RelocationStep {
                round,
                step: 6,
                sender,
                receiver,
                parts: Vec::new(),
                bytes: 0,
                buffered_tuples: 0,
                load_ratio: 0.0,
            },
        );
        self.active_round = None;
        self.phase_deadline = None;
        self.relocations_completed += 1;
        // A completed round proves the receiver is alive.
        self.consecutive_aborts.insert(receiver, 0);
        match purpose {
            RoundPurpose::Drain => {
                if let Some(ctl) = self.drain.as_mut() {
                    ctl.moves += 1;
                    ctl.consecutive_aborts = 0;
                }
                self.journal.add_rebalance_moves(1);
            }
            RoundPurpose::JoinRebalance => self.journal.add_rebalance_moves(1),
            RoundPurpose::Balance => {}
        }
        Ok(Some(action))
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
    use crate::strategy::test_support::report;
    use dcape_common::time::VirtualDuration;

    fn imbalanced() -> ClusterStats {
        ClusterStats::new(vec![report(0, 1000, 1.0), report(1, 100, 1.0)])
    }

    fn lazy() -> GlobalCoordinator {
        GlobalCoordinator::new(&StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::ZERO,
        })
    }

    #[test]
    fn full_relocation_lifecycle() {
        let mut gc = lazy();
        assert!(!gc.relocation_active());
        let d = gc
            .evaluate(&imbalanced(), VirtualTime::from_secs(1))
            .unwrap();
        let Decision::Relocate {
            sender,
            receiver,
            amount,
        } = d
        else {
            panic!("expected relocation, got {d:?}");
        };
        assert!(gc.relocation_active());
        let (round, s, r, a) = gc.active_round_info().unwrap();
        assert_eq!((s, r, a), (sender, receiver, amount));

        // While active, further evaluations do nothing.
        let d2 = gc
            .evaluate(&imbalanced(), VirtualTime::from_secs(2))
            .unwrap();
        assert_eq!(d2, Decision::None);

        let action = gc
            .on_ptv(
                sender,
                round,
                vec![PartitionId(1), PartitionId(2)],
                VirtualTime::from_secs(3),
            )
            .unwrap();
        assert!(matches!(action, Some(Action::PauseAndTransfer { .. })));
        let action = gc
            .on_transfer_ack(receiver, round, VirtualTime::from_secs(4))
            .unwrap();
        assert!(matches!(action, Some(Action::RemapAndResume { .. })));
        assert!(!gc.relocation_active());
        assert_eq!(gc.relocations_completed(), 1);
        assert_eq!(gc.relocations_aborted(), 0);
    }

    #[test]
    fn abort_on_empty_ptv() {
        let mut gc = lazy();
        let Decision::Relocate { sender, .. } = gc
            .evaluate(&imbalanced(), VirtualTime::from_secs(1))
            .unwrap()
        else {
            panic!()
        };
        let (round, ..) = gc.active_round_info().unwrap();
        let action = gc
            .on_ptv(sender, round, vec![], VirtualTime::from_secs(2))
            .unwrap();
        assert_eq!(action, Some(Action::Abort));
        assert!(!gc.relocation_active());
        assert_eq!(gc.relocations_aborted(), 1);
        assert_eq!(gc.relocations_completed(), 0);
    }

    #[test]
    fn stale_and_duplicate_messages_are_warnings_not_errors() {
        let mut gc = lazy();
        gc.set_journal(JournalHandle::with_capacity(64));
        // No round at all: late messages are tolerated.
        assert_eq!(
            gc.on_ptv(EngineId(0), 0, vec![], VirtualTime::ZERO)
                .unwrap(),
            None
        );
        assert_eq!(
            gc.on_transfer_ack(EngineId(0), 0, VirtualTime::ZERO)
                .unwrap(),
            None
        );
        // Run a full round, then replay its messages: both are stale.
        let Decision::Relocate {
            sender, receiver, ..
        } = gc
            .evaluate(&imbalanced(), VirtualTime::from_secs(1))
            .unwrap()
        else {
            panic!()
        };
        let (round, ..) = gc.active_round_info().unwrap();
        // Duplicate Ptv while the round is in WaitAck: no-op.
        gc.on_ptv(
            sender,
            round,
            vec![PartitionId(1)],
            VirtualTime::from_secs(2),
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            gc.on_ptv(
                sender,
                round,
                vec![PartitionId(1)],
                VirtualTime::from_secs(2)
            )
            .unwrap(),
            None
        );
        gc.on_transfer_ack(receiver, round, VirtualTime::from_secs(3))
            .unwrap()
            .unwrap();
        // Retried ack for the completed round: tolerated, still closed.
        assert_eq!(
            gc.on_transfer_ack(receiver, round, VirtualTime::from_secs(4))
                .unwrap(),
            None
        );
        assert_eq!(gc.relocations_completed(), 1);
        let warnings: Vec<_> = gc
            .journal
            .snapshot()
            .into_iter()
            .filter(|e| e.event.kind() == "protocol_warning")
            .collect();
        assert_eq!(warnings.len(), 4);
    }

    #[test]
    fn phase_timeout_retries_then_aborts() {
        let mut gc = lazy();
        gc.set_journal(JournalHandle::with_capacity(64));
        gc.set_retry_policy(RetryPolicy {
            phase_timeout: VirtualDuration::from_secs(1),
            max_retries: 2,
            peer_death_threshold: 2,
        });
        // Without an active round, no timeout fires.
        assert_eq!(gc.check_timeout(VirtualTime::from_secs(100)), None);
        let Decision::Relocate { sender, amount, .. } = gc
            .evaluate(&imbalanced(), VirtualTime::from_secs(1))
            .unwrap()
        else {
            panic!()
        };
        let (round, ..) = gc.active_round_info().unwrap();
        // Before the deadline: nothing.
        assert_eq!(gc.check_timeout(VirtualTime::from_millis(1500)), None);
        // First expiry: retry Cptv with attempt 1.
        assert_eq!(
            gc.check_timeout(VirtualTime::from_secs(2)),
            Some(TimeoutAction::RetryCptv {
                round,
                sender,
                amount,
                attempt: 1,
            })
        );
        assert_eq!(gc.current_attempt(), 1);
        // Second expiry: retry with attempt 2 (the cap).
        assert!(matches!(
            gc.check_timeout(VirtualTime::from_secs(3)),
            Some(TimeoutAction::RetryCptv { attempt: 2, .. })
        ));
        // Third expiry: retries exhausted, round aborts in WaitPtv
        // (nothing was paused).
        let abort = gc.check_timeout(VirtualTime::from_secs(4)).unwrap();
        assert!(matches!(
            &abort,
            TimeoutAction::AbortRound {
                parts,
                held_since: None,
                ..
            } if parts.is_empty()
        ));
        assert!(!gc.relocation_active());
        assert_eq!(gc.relocations_aborted(), 1);
        let c = gc.journal.counters().unwrap().snapshot();
        assert_eq!(c.msgs_retried, 2);
        assert_eq!(c.rounds_aborted, 1);
        // No round anymore: the poll goes quiet.
        assert_eq!(gc.check_timeout(VirtualTime::from_secs(5)), None);
    }

    #[test]
    fn wait_ack_timeout_aborts_with_paused_parts() {
        let mut gc = lazy();
        gc.set_retry_policy(RetryPolicy {
            phase_timeout: VirtualDuration::from_secs(1),
            max_retries: 0,
            peer_death_threshold: 99,
        });
        let Decision::Relocate {
            sender, receiver, ..
        } = gc
            .evaluate(&imbalanced(), VirtualTime::from_secs(1))
            .unwrap()
        else {
            panic!()
        };
        let (round, ..) = gc.active_round_info().unwrap();
        gc.on_ptv(
            sender,
            round,
            vec![PartitionId(4)],
            VirtualTime::from_secs(2),
        )
        .unwrap()
        .unwrap();
        // The WaitAck phase re-armed at the Ptv; zero retries allowed,
        // so the first expiry aborts and carries the paused parts.
        let abort = gc.check_timeout(VirtualTime::from_secs(3)).unwrap();
        assert_eq!(
            abort,
            TimeoutAction::AbortRound {
                round,
                sender,
                receiver,
                parts: vec![PartitionId(4)],
                held_since: Some(VirtualTime::from_secs(2)),
            }
        );
    }

    #[test]
    fn repeated_aborts_declare_peer_dead_and_degrade_to_spill() {
        let mut gc = lazy();
        gc.set_retry_policy(RetryPolicy {
            phase_timeout: VirtualDuration::from_secs(1),
            max_retries: 0,
            peer_death_threshold: 2,
        });
        let mut now = VirtualTime::from_secs(1);
        for _ in 0..2 {
            let Decision::Relocate { .. } = gc.evaluate(&imbalanced(), now).unwrap() else {
                panic!()
            };
            now += VirtualDuration::from_secs(10);
            assert!(matches!(
                gc.check_timeout(now),
                Some(TimeoutAction::AbortRound { .. })
            ));
            now += VirtualDuration::from_secs(10);
        }
        assert_eq!(gc.dead_peers().len(), 1);
        // The same imbalance now degrades to a local force-spill at
        // the overloaded sender.
        let d = gc.evaluate(&imbalanced(), now).unwrap();
        assert!(
            matches!(d, Decision::ForceSpill { engine, .. } if engine == EngineId(0)),
            "expected degraded spill, got {d:?}"
        );
        assert_eq!(gc.force_spills_issued(), 1);
    }

    #[test]
    fn force_spill_counter() {
        let mut gc = GlobalCoordinator::new(&StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::ZERO,
            lambda: 2.0,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 30,
        });
        let stats = ClusterStats::new(vec![report(0, 1000, 10.0), report(1, 950, 1.0)]);
        let d = gc.evaluate(&stats, VirtualTime::from_secs(1)).unwrap();
        assert!(matches!(d, Decision::ForceSpill { .. }));
        assert_eq!(gc.force_spills_issued(), 1);
        assert_eq!(gc.strategy_name(), "active-disk");
    }
}
