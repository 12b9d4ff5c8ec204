//! The coordinator side of the protocol: one run, generic over a
//! transport.
//!
//! `CoordinatorRun` is the stream source, the split operators, the
//! global coordinator and the coordinator's half of every protocol —
//! the 8-step relocation, elastic join and drain, the chaos layer
//! (fault decisions, held messages, timeout recovery), quiesce and the
//! two-phase distributed cleanup. It exists once; what differs between
//! the runtimes is only the `Transport` underneath it: how a
//! [`ToEngine`] reaches an engine and how a [`FromEngine`] comes back
//! (stepped inline on a virtual clock in [`super::sim`], a
//! channel per engine thread in [`super::threaded`], a framed TCP
//! connection per worker process in [`super::socket`]).
//!
//! ## Batch boundaries and ordering — one rule for every transport
//!
//! Routed tuples coalesce into one [`TupleBatch`] per engine across
//! generator ticks (the send is the per-message cost being amortized)
//! and are flushed
//!
//! * every `MAX_BATCH_TICKS` ticks — at the bench's 30 ms
//!   inter-arrival the 1-s pulse cuts a batch at ~33 ticks first, so the
//!   cap binds only below ~16 ms,
//! * before a `Tick` send and before a `ReportStats` *send*, so no data
//!   trails a pulse it preceded in virtual time — a collection that
//!   falls due while a stats reply or a relocation round is outstanding
//!   is not sent yet, and flushes nothing until it is,
//! * before the coordinator acts on any [`FromEngine`] message or phase
//!   timeout, so every already-routed tuple reaches its engine ahead of
//!   a `SendStates`/remap that could re-home its partition,
//! * before a scale event's sends — a joiner's start, `FenceNotice` and
//!   `BeginDrain` — so a membership change finds every tuple routed
//!   before it already at its engine.
//!
//! Every transport delivers one engine's messages in send order, so the
//! tuples a pause released precede the `Resume` (or follow the
//! `AbortRound`) sent after them.

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};
use dcape_engine::sink::CollectingSink;
use dcape_metrics::journal::{
    merge_journals, AdaptEvent, CountersSnapshot, EngineStatsReport, JournalEntry, JournalHandle,
    Warning,
};
use dcape_streamgen::StreamSetGenerator;

use crate::coordinator::{Command, EngineState, GlobalCoordinator};
use crate::faults::{FaultDecision, FaultEdge, FaultPlan};
use crate::messages::{FromEngine, ToEngine};
use crate::placement::{released_batch, PlacementMap};
use crate::runtime::sim::{ScaleAction, ScaleEvent, SimConfig};
use crate::split::SplitOperator;
use crate::stats::ClusterStats;

/// Generator ticks one data batch may span before it is sent.
const MAX_BATCH_TICKS: u32 = 64;

/// Consecutive idle receives tolerated while waiting for a cleanup
/// reply: about two minutes at the live transports' 5 ms receive
/// timeout. The deterministic transport never blocks, so there an
/// engine that owes a reply and has not sent it fails the run at once.
const CLEANUP_IDLE_LIMIT: u32 = 24_000;

/// How messages travel between the coordinator and the engines — all a
/// runtime has to supply. Messages to one engine arrive in send order.
pub(crate) trait Transport {
    /// Bring engine `engine` up: a thread, a process, or a value stepped
    /// in place. It announces itself with [`FromEngine::JoinReady`].
    fn start_engine(&mut self, engine: EngineId) -> Result<()>;

    /// Send `msg` to `engine`. A send to an engine that has already sent
    /// [`FromEngine::CleanupDone`] is `Ok(())` — the coordinator may not
    /// have read that message yet when it broadcasts a pulse.
    fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()>;

    /// The next engine message, if one is there, without blocking. `now`
    /// is the coordinator's clock: what the virtual-time transport
    /// delivers engine-to-engine traffic by.
    fn try_recv(&mut self, now: VirtualTime) -> Result<Option<FromEngine>>;

    /// The next engine message, or `None` when the transport considers
    /// itself idle (nothing arrived within its receive timeout; nothing
    /// deliverable at `now` for the virtual-time transport).
    fn recv_or_idle(&mut self, now: VirtualTime) -> Result<Option<FromEngine>>;

    /// Every engine has sent `CleanupDone`: release threads, processes
    /// and connections.
    fn shutdown(&mut self) -> Result<()>;
}

/// One completed relocation, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelocationEvent {
    /// When the round completed: the coordinator's clock at its remap.
    pub at: VirtualTime,
    /// Sender engine.
    pub sender: EngineId,
    /// Receiver engine.
    pub receiver: EngineId,
    /// Partitions moved.
    pub parts: usize,
    /// Accounted bytes moved.
    pub bytes: u64,
    /// Tuples buffered at the splits during the transfer.
    pub buffered_tuples: usize,
}

/// What a run produced: a run-time phase, then a cleanup phase. It
/// accumulates over the run: a relocation when its round completes,
/// an engine's share when its `CleanupDone` arrives — mid-run for one
/// that drained, at shutdown for the rest.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Results produced during the run-time phase.
    pub runtime_output: u64,
    /// Missing results produced by the cleanup phase.
    pub cleanup_output: u64,
    /// Modeled cleanup cost per engine slot (ms of virtual time), as
    /// each engine reported it with `CleanupDone`.
    pub cleanup_cost_ms: Vec<u64>,
    /// Spill adaptations per engine slot.
    pub spill_counts: Vec<u64>,
    /// Completed relocations, with the rounds quiesce completed.
    pub relocations: Vec<RelocationEvent>,
    /// Forced spills issued by the coordinator.
    pub force_spills: u64,
    /// Every engine's journal plus the coordinator's, merged by time.
    pub journal: Vec<JournalEntry>,
    /// Final counters: the coordinator's tallies plus every engine's.
    pub journal_counters: CountersSnapshot,
    /// What the engines emitted in the run-time phase, engine by engine;
    /// only a sim run with `collect_results` set collects it.
    pub runtime_results: Option<CollectingSink>,
    /// What the engines' cleanup merges emitted, likewise.
    pub cleanup_results: Option<CollectingSink>,
}

impl RunReport {
    /// Total results across both phases.
    pub fn total_output(&self) -> u64 {
        self.runtime_output + self.cleanup_output
    }

    /// Cluster cleanup wall time under per-engine parallelism: the
    /// maximum per-engine cost (the paper's Figure 12 comparison).
    pub fn cleanup_wall_ms(&self) -> u64 {
        self.cleanup_cost_ms.iter().copied().max().unwrap_or(0)
    }

    /// The relocations completed by the `deadline` the run was taken to:
    /// `run_until` stamps below it, quiesce at or after it.
    pub fn relocations_before(
        &self,
        deadline: VirtualTime,
    ) -> impl Iterator<Item = &RelocationEvent> {
        self.relocations.iter().filter(move |r| r.at < deadline)
    }
}

/// Consult the fault plan for one message edge, journaling any injected
/// fault (shared by the coordinator and the engines — both count into
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
    if let Some(fault) = decision.fault() {
        journal.add_faults_injected(1);
        journal.record(
            now,
            AdaptEvent::FaultInjected {
                fault,
                edge,
                round,
                attempt,
            },
        );
    }
    decision
}

/// Take the entry of `queue` that is due at `now` and was due first
/// (insertion order among equal due times), if there is one — how every
/// delayed message in a run is released, which keeps a chaos schedule
/// reproducible.
pub(crate) fn pop_due<T>(queue: &mut Vec<(VirtualTime, T)>, now: VirtualTime) -> Option<T> {
    let idx = queue
        .iter()
        .enumerate()
        .filter(|(_, (due, _))| *due <= now)
        .min_by_key(|(i, (due, _))| (*due, *i))
        .map(|(i, _)| i)?;
    Some(queue.remove(idx).1)
}

/// One run of the coordinator side over transport `T`: the state the
/// loop carries and the protocol handlers that act on it.
pub(crate) struct CoordinatorRun<T: Transport> {
    transport: T,
    gen: StreamSetGenerator,
    split: SplitOperator,
    placement: PlacementMap,
    gc: GlobalCoordinator,
    /// The coordinator's own journal (the global coordinator and the
    /// strategy record into it too).
    journal: JournalHandle,
    plan: FaultPlan,
    windowed: bool,
    tick_timer: PeriodicTimer,
    stats_timer: PeriodicTimer,
    pending_stats: Vec<Option<EngineStatsReport>>,
    /// The instant of the statistics collection awaiting replies; a
    /// reply stamped with any other is stale and ignored.
    collecting: Option<VirtualTime>,
    /// Control messages (`Cptv`, `SendStates`) the chaos layer delayed,
    /// released once the clock passes their due time.
    held: Vec<(VirtualTime, (EngineId, ToEngine))>,
    /// Routed, not yet sent: one batch per engine slot.
    batches: Vec<TupleBatch>,
    pending_ticks: u32,
    /// Scheduled membership changes, sorted by time; `next_scale` is the
    /// first one not yet applied.
    scale_events: Vec<ScaleEvent>,
    next_scale: usize,
    report: RunReport,
    /// The journals the engines shipped with `CleanupDone`.
    engine_journals: Vec<Vec<JournalEntry>>,
    /// The coordinator's clock: the current generator tick while
    /// running, the deadline after it, the quiesce clock from then on.
    now: VirtualTime,
}

impl<T: Transport> CoordinatorRun<T> {
    /// Set the run up and start the initial engines. `journal` is the
    /// coordinator's journal; `patient` arms bounded retry-then-abort on
    /// every protocol phase — without it a single lost message would
    /// wedge quiesce forever, so every caller whose transport or fault
    /// plan can lose one sets it.
    pub(crate) fn new(
        cfg: &SimConfig,
        journal: JournalHandle,
        patient: bool,
        mut transport: T,
    ) -> Result<Self> {
        if cfg.num_engines == 0 {
            return Err(DcapeError::config("need at least one engine"));
        }
        if cfg.workload.num_streams != cfg.engine.join.num_streams {
            return Err(DcapeError::config(
                "workload stream count must match the join's",
            ));
        }
        let gen = StreamSetGenerator::new(cfg.workload.clone())?;
        let split = SplitOperator::new(
            gen.partitioner(),
            vec![StreamSetGenerator::JOIN_COLUMN; cfg.workload.num_streams],
        )?;
        let placement =
            PlacementMap::new(&cfg.placement, cfg.workload.num_partitions, cfg.num_engines)?;
        // Everything indexed by engine is provisioned at peak capacity
        // up front, so a join never reshapes shared structures mid-run.
        let capacity = cfg.capacity();
        let gc = GlobalCoordinator::new(
            &cfg.strategy,
            cfg.num_engines,
            capacity,
            journal.clone(),
            patient,
        );
        let mut scale_events = cfg.scale_events.clone();
        scale_events.sort_by_key(|e| e.at);
        for i in 0..cfg.num_engines {
            transport.start_engine(EngineId(i as u16))?;
        }
        Ok(CoordinatorRun {
            transport,
            gen,
            split,
            placement,
            gc,
            journal,
            plan: cfg.faults,
            windowed: cfg.engine.join.window.is_some(),
            tick_timer: PeriodicTimer::new(VirtualDuration::from_secs(1), VirtualTime::ZERO),
            stats_timer: PeriodicTimer::new(cfg.stats_interval, VirtualTime::ZERO),
            pending_stats: vec![None; capacity],
            collecting: None,
            held: Vec::new(),
            batches: (0..capacity).map(|_| TupleBatch::new()).collect(),
            pending_ticks: 0,
            scale_events,
            next_scale: 0,
            report: RunReport {
                cleanup_cost_ms: vec![0; capacity],
                spill_counts: vec![0; capacity],
                ..RunReport::default()
            },
            engine_journals: Vec::new(),
            now: VirtualTime::ZERO,
        })
    }

    pub(crate) fn now(&self) -> VirtualTime {
        self.now
    }

    pub(crate) fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    pub(crate) fn coordinator(&self) -> &GlobalCoordinator {
        &self.gc
    }

    /// Relocation rounds completed so far.
    pub(crate) fn relocations(&self) -> &[RelocationEvent] {
        &self.report.relocations
    }

    pub(crate) fn transport(&self) -> &T {
        &self.transport
    }

    pub(crate) fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    // ---- the loop -------------------------------------------------------

    /// Generate, route and deliver input up to `deadline` of virtual
    /// time, pulsing the engines once a virtual second, collecting
    /// statistics every stats interval and acting on whatever the
    /// engines send back. Ends with every routed tuple delivered.
    pub(crate) fn run_until(&mut self, deadline: VirtualTime) -> Result<()> {
        while self.gen.now() < deadline {
            let now = self.gen.now();
            self.now = now;
            self.apply_scale_events()?;
            self.journal
                .add_tuples_routed(self.gen.spec().num_streams as u64);
            let (split, placement, batches) =
                (&mut self.split, &mut self.placement, &mut self.batches);
            let journal = &self.journal;
            self.gen.tick_raw(|row| {
                let pid = split.classify_raw(&row)?;
                match placement.route_raw(pid, &row)? {
                    Some(engine) => batches[engine.index()].push_raw(pid, &row),
                    None => journal.add_buffered_in_flight(1),
                }
                Ok(())
            })?;
            self.pending_ticks += 1;
            let tick_due = self.tick_timer.expired(now);
            // A collection the coordinator cannot start yet (a reply or
            // a round outstanding) is not due: it must not flush either.
            let stats_due = self.stats_timer.expired(now)
                && self.collecting.is_none()
                && !self.gc.relocation_active();
            if self.pending_ticks >= MAX_BATCH_TICKS || tick_due || stats_due {
                self.flush_pending()?;
            }
            if tick_due {
                self.tick_timer.reset(now);
                self.pulse()?;
            }
            if stats_due {
                self.stats_timer.reset(now);
                self.collecting = Some(now);
                self.pending_stats.iter_mut().for_each(|s| *s = None);
                for e in self.gc.active_engines() {
                    self.transport.send(e, ToEngine::ReportStats { now })?;
                }
            }
            while let Some(msg) = self.transport.try_recv(now)? {
                self.flush_pending()?;
                self.handle_msg(msg)?;
            }
            // Only a plan that can lose messages holds them, and only a patient
            // coordinator times a phase out: skip both per tick otherwise.
            if self.gc.is_patient() {
                self.release_due()?;
                self.poll_timeouts()?;
            }
        }
        self.now = self.now.max(deadline);
        self.flush_pending()
    }

    /// Finish (or abort) whatever the protocol still has in flight — a
    /// relocation round, a drain, a statistics collection, held
    /// messages — so no state is lost mid-transfer. Messages may have
    /// been lost, so the loop never waits on one: whenever the transport
    /// is idle the clock advances 200 virtual ms, phase deadlines fire
    /// (retry, then abort) and a pulse lets the engines release what
    /// they hold.
    pub(crate) fn quiesce(&mut self) -> Result<()> {
        // The closing pulse: the engines' clocks reach the deadline, so
        // whatever they journal from here on is stamped at or after it.
        self.pulse()?;
        while self.gc.relocation_active()
            || self.gc.drain_in_progress()
            || self.collecting.is_some()
            || !self.held.is_empty()
        {
            self.release_due()?;
            match self.transport.recv_or_idle(self.now)? {
                Some(msg) => self.handle_msg(msg)?,
                None => {
                    self.now += VirtualDuration::from_millis(200);
                    self.poll_timeouts()?;
                    self.pulse()?;
                }
            }
        }
        // Closing the last round released every pause and with it the
        // held watermark: nothing may remain buffered at the splits.
        debug_assert!(self.placement.paused_partitions().is_empty());
        debug_assert!(self.placement.oldest_buffered_ts().is_none());
        Ok(())
    }

    /// The distributed cleanup over the surviving engines (drained ones
    /// already handed their segments over and reported; never-joined
    /// slots have no engine), then shut the transport down and fold the
    /// report. Phase 1: every engine forwards the spilled segments of
    /// partitions it does not own to their owners. Phase 2: each merges
    /// its owned partitions locally, in parallel — every forward sits
    /// ahead of `StartCleanup` in its target's inbox, because each
    /// engine forwards before it reports ready and `StartCleanup` goes
    /// out only after every ready.
    pub(crate) fn cleanup(&mut self) -> Result<RunReport> {
        let owners = self.owners()?;
        let survivors = self.gc.active_engines();
        for e in &survivors {
            self.transport.send(
                *e,
                ToEngine::PrepareCleanup {
                    owners: owners.clone(),
                },
            )?;
        }
        let mut waiting = survivors.clone();
        while !waiting.is_empty() {
            match self.next_cleanup_msg("CleanupReady")? {
                // A respawned worker's replay can repeat it: harmless.
                FromEngine::CleanupReady { engine, .. } => waiting.retain(|e| *e != engine),
                other => {
                    return Err(DcapeError::protocol(format!(
                        "unexpected message during cleanup prepare: {other:?}"
                    )))
                }
            }
        }
        for e in &survivors {
            self.transport.send(*e, ToEngine::StartCleanup)?;
        }
        let mut waiting = survivors;
        while !waiting.is_empty() {
            match self.next_cleanup_msg("CleanupDone")? {
                msg @ FromEngine::CleanupDone { .. } => {
                    let before = waiting.len();
                    waiting.retain(|e| *e != msg.engine());
                    // Anything else is a duplicate from a late replay.
                    if waiting.len() < before {
                        self.absorb(msg);
                    }
                }
                other => {
                    return Err(DcapeError::protocol(format!(
                        "unexpected message during merge: {other:?}"
                    )))
                }
            }
        }
        self.transport.shutdown()?;

        let mut report = std::mem::take(&mut self.report);
        report.force_spills = self.gc.force_spills_issued();
        let mut journals = std::mem::take(&mut self.engine_journals);
        journals.push(self.journal.snapshot());
        report.journal = merge_journals(journals);
        report
            .journal_counters
            .absorb(&self.journal.counters().snapshot());
        Ok(report)
    }

    /// The next `CleanupReady`/`CleanupDone`. No round can be live after
    /// quiesce, so any protocol message still queued — a duplicated or
    /// delayed copy, the replayed history of a worker respawned late —
    /// is stale by construction: journaled (or ignored) and skipped.
    fn next_cleanup_msg(&mut self, awaited: &str) -> Result<FromEngine> {
        let mut idle = 0u32;
        loop {
            let Some(msg) = self.transport.recv_or_idle(self.now)? else {
                idle += 1;
                if idle > CLEANUP_IDLE_LIMIT {
                    return Err(DcapeError::Disconnected(format!(
                        "timed out awaiting {awaited}"
                    )));
                }
                continue;
            };
            idle = 0;
            let (code, engine, round, detail) = match msg {
                FromEngine::CleanupReady { .. } | FromEngine::CleanupDone { .. } => return Ok(msg),
                FromEngine::Ptv { round, engine, .. } => {
                    (Warning::StalePtvAfterQuiesce, engine, round, 2)
                }
                FromEngine::TransferAck { round, engine, .. } => {
                    (Warning::StaleAckAfterQuiesce, engine, round, 6)
                }
                FromEngine::Stats(_)
                | FromEngine::DrainState { .. }
                | FromEngine::JoinReady { .. } => continue,
            };
            self.journal.record(
                self.now,
                AdaptEvent::ProtocolWarning {
                    code,
                    engine,
                    round,
                    detail,
                },
            );
        }
    }

    /// Send every routed-but-unsent tuple, one batch per engine. The
    /// batch crosses as one allocation; `take` leaves a buffer of the
    /// same byte size behind.
    fn flush_pending(&mut self) -> Result<()> {
        self.pending_ticks = 0;
        for (i, pending) in self.batches.iter_mut().enumerate() {
            if !pending.is_empty() {
                let tuples = pending.take();
                self.transport
                    .send(EngineId(i as u16), ToEngine::DataBatch { tuples })?;
            }
        }
        Ok(())
    }

    /// The clock pulse to every participating engine. The purge horizon
    /// is watermark-driven: while a relocation holds tuples buffered at
    /// the splits it stays at the oldest buffered timestamp, so no
    /// engine can purge the join partners of a tuple yet to replay.
    fn pulse(&mut self) -> Result<()> {
        let watermark = self.split.admitted_watermark();
        let horizon = self.placement.purge_horizon(watermark);
        if self.windowed && horizon < watermark {
            self.journal.add_purges_deferred(1);
        }
        let now = self.now;
        for e in self.gc.participating_engines() {
            self.transport.send(e, ToEngine::Tick { now, horizon })?;
        }
        Ok(())
    }

    /// Apply the elastic membership changes whose time has come.
    fn apply_scale_events(&mut self) -> Result<()> {
        while let Some(event) = self.scale_events.get(self.next_scale).copied() {
            if event.at > self.now {
                break;
            }
            self.next_scale += 1;
            self.flush_pending()?;
            match event.action {
                ScaleAction::AddEngine => {
                    let id = self.placement.add_engine()?;
                    self.transport.start_engine(id)?;
                    self.gc.admit_engine(id, self.now)?;
                    // A stats collection begun against the old
                    // membership can never complete against the new
                    // one; restart it at the next timer expiry.
                    self.collecting = None;
                }
                ScaleAction::DrainEngine(target) => {
                    let engine = match target {
                        Some(e) => e,
                        None => self
                            .gc
                            .active_engines()
                            .into_iter()
                            .max()
                            .ok_or_else(|| DcapeError::config("no active engine to drain"))?,
                    };
                    // Deferred while an in-flight round targets the
                    // engine; `drain_continue` picks it up afterwards.
                    if self.gc.request_drain(engine, self.now)? {
                        self.start_drain_fencing(engine)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ---- the chaos layer ------------------------------------------------

    /// Put a coordinator-originated control message (`Cptv`,
    /// `SendStates`) on the wire through the fault plan: deliver, drop,
    /// duplicate, delay or garble it per the seeded schedule.
    fn chaos_send(
        &mut self,
        edge: FaultEdge,
        round: u64,
        attempt: u32,
        target: EngineId,
        make: impl Fn() -> ToEngine,
    ) -> Result<()> {
        let (copies, delay_ms, garbled) =
            edge_decision(&self.plan, &self.journal, self.now, edge, round, attempt).delivery();
        // A garbled control message is discarded on receipt — same
        // outcome as a drop; the phase timeout re-sends it.
        let copies = if garbled { 0 } else { copies };
        for _ in 0..copies {
            match delay_ms {
                Some(ms) => self.held.push((
                    self.now + VirtualDuration::from_millis(ms),
                    (target, make()),
                )),
                None => self.transport.send(target, make())?,
            }
        }
        Ok(())
    }

    fn send_states(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        parts: Vec<PartitionId>,
        attempt: u32,
    ) -> Result<()> {
        self.chaos_send(FaultEdge::SendStates, round, attempt, sender, || {
            ToEngine::SendStates {
                round,
                parts: parts.clone(),
                receiver,
                attempt,
            }
        })
    }

    /// Release held control messages whose due time passed (the
    /// transport's per-engine order does the rest).
    fn release_due(&mut self) -> Result<()> {
        while let Some((engine, msg)) = pop_due(&mut self.held, self.now) {
            self.transport.send(engine, msg)?;
        }
        Ok(())
    }

    /// Poll the coordinator's phase deadline: re-send the phase's
    /// message (again through the fault plan — a retry can be unlucky
    /// twice) or, retries exhausted, unwind the round. Each poll either
    /// re-arms the deadline in the future or closes the round, so the
    /// loop terminates.
    fn poll_timeouts(&mut self) -> Result<()> {
        while let Some(cmd) = self.gc.check_timeout(self.now) {
            self.flush_pending()?;
            self.execute(cmd)?;
        }
        Ok(())
    }

    /// Send the tuples a pause released to `target` as one
    /// [`ToEngine::DataBatch`] (none when nothing was buffered), ahead
    /// of whatever goes to that engine next, and book them as replayed.
    /// Per-partition lists arrive in order, so the one batch is a stable
    /// reordering. Returns how many tuples went.
    fn replay_released(
        &mut self,
        released: Vec<(PartitionId, TupleBatch)>,
        target: EngineId,
    ) -> Result<u64> {
        let tuples = released_batch(released);
        let sent = tuples.len() as u64;
        if sent > 0 {
            self.transport
                .send(target, ToEngine::DataBatch { tuples })?;
        }
        self.journal.sub_buffered_in_flight(sent);
        self.journal.add_replayed_in_order(sent);
        Ok(sent)
    }

    // ---- elastic drain --------------------------------------------------

    /// Fence a draining engine: mark it in the placement map, tell every
    /// other participant (so stale relocations toward it are dropped),
    /// and start the `BeginDrain`/`DrainState` poll loop.
    fn start_drain_fencing(&mut self, engine: EngineId) -> Result<()> {
        self.placement.fence_engine(engine)?;
        for peer in self.gc.participating_engines() {
            if peer != engine {
                self.transport
                    .send(peer, ToEngine::FenceNotice { engine })?;
            }
        }
        self.transport.send(engine, ToEngine::BeginDrain)
    }

    /// Keep a drain moving after a relocation round ended (completed or
    /// aborted): start a deferred drain, or re-poll the draining engine
    /// with `BeginDrain` now that the round slot is free.
    fn drain_continue(&mut self) -> Result<()> {
        if let Some(engine) = self.gc.poll_pending_drain(self.now) {
            return self.start_drain_fencing(engine);
        }
        if !self.gc.relocation_active() {
            if let Some(engine) = self.gc.draining_engine() {
                self.transport.send(engine, ToEngine::BeginDrain)?;
            }
        }
        Ok(())
    }

    /// The final owner of every partition (index = partition id).
    fn owners(&self) -> Result<Vec<EngineId>> {
        (0..self.placement.num_partitions())
            .map(|p| self.placement.owner(PartitionId(p)))
            .collect()
    }

    // ---- engine messages ------------------------------------------------

    /// Journal a relocation step the coordinator executes itself (3, 7
    /// and 8; the global coordinator records 1, 2 and 6, the engines 4
    /// and 5).
    fn record_step(
        &self,
        round: u64,
        step: u8,
        sender: EngineId,
        receiver: EngineId,
        parts: Vec<PartitionId>,
        buffered_tuples: u64,
    ) {
        self.journal.record(
            self.now,
            AdaptEvent::RelocationStep {
                round,
                step,
                sender,
                receiver,
                parts,
                bytes: 0,
                buffered_tuples,
            },
        );
    }

    /// Fold one engine's `CleanupDone` into the report.
    fn absorb(&mut self, done: FromEngine) {
        let FromEngine::CleanupDone {
            engine,
            runtime_output,
            cleanup_output,
            spill_count,
            cleanup_cost_ms,
            journal,
            journal_counters,
        } = done
        else {
            unreachable!("callers match CleanupDone");
        };
        let report = &mut self.report;
        report.runtime_output += runtime_output;
        report.cleanup_output += cleanup_output;
        report.cleanup_cost_ms[engine.index()] = cleanup_cost_ms;
        report.spill_counts[engine.index()] = spill_count;
        self.engine_journals.push(journal);
        report.journal_counters.absorb_engine(&journal_counters);
    }

    /// Act on one engine message (the run loop and the quiesce loop).
    fn handle_msg(&mut self, msg: FromEngine) -> Result<()> {
        let now = self.now;
        let cmd = match msg {
            FromEngine::Stats(report) => {
                if self.collecting != Some(report.at) {
                    return Ok(());
                }
                self.pending_stats[report.engine.index()] = Some(report);
                // Completeness over the *active* set: draining engines
                // may exit mid-cycle, and the strategy must not pick
                // them as sender or receiver anyway.
                let active = self.gc.active_engines();
                let reports: Vec<EngineStatsReport> = active
                    .iter()
                    .filter_map(|e| self.pending_stats[e.index()])
                    .collect();
                if reports.len() < active.len() {
                    return Ok(());
                }
                self.collecting = None;
                // The decision's inputs, one record per engine, stamped
                // with the collection instant: also what the figures
                // plot.
                for r in &reports {
                    self.journal.record(r.at, AdaptEvent::EngineSample(*r));
                }
                self.gc.evaluate(&ClusterStats::new(reports), now)?
            }
            FromEngine::Ptv {
                round,
                engine,
                parts,
            } => self.gc.on_ptv(engine, round, parts, now)?,
            FromEngine::TransferAck {
                round,
                engine,
                bytes,
                attempt,
            } => self
                .gc
                .on_transfer_ack(engine, round, attempt, bytes, now)?,
            FromEngine::DrainState {
                engine,
                resident_bytes,
            } => self.gc.on_drain_state(engine, resident_bytes, now)?,
            FromEngine::JoinReady { engine } => {
                self.gc.on_join_ready(engine, now);
                None
            }
            // Mid-run cleanup traffic is the hand-off of an engine that
            // drained: it forwarded its segments, so let it merge (it
            // owns nothing) and fold its report.
            FromEngine::CleanupReady { engine, .. }
                if self.gc.engine_state(engine) == EngineState::DrainCleanup =>
            {
                return self.transport.send(engine, ToEngine::StartCleanup);
            }
            msg @ FromEngine::CleanupDone { .. }
                if self.gc.engine_state(msg.engine()) == EngineState::DrainCleanup =>
            {
                self.gc.finish_drain(msg.engine(), now);
                self.absorb(msg);
                None
            }
            FromEngine::CleanupReady { .. } | FromEngine::CleanupDone { .. } => {
                return Err(DcapeError::protocol("cleanup message before shutdown"))
            }
        };
        match cmd {
            Some(cmd) => self.execute(cmd),
            None => Ok(()),
        }
    }

    /// Carry out what the global coordinator decided.
    fn execute(&mut self, cmd: Command) -> Result<()> {
        let now = self.now;
        match cmd {
            Command::Cptv {
                round,
                sender,
                amount,
                attempt,
            } => self.chaos_send(FaultEdge::Cptv, round, attempt, sender, || ToEngine::Cptv {
                round,
                amount,
                attempt,
            }),
            Command::Pause {
                round,
                sender,
                receiver,
                parts,
            } => {
                self.placement.pause(&parts)?;
                self.record_step(round, 3, sender, receiver, parts.clone(), 0);
                self.send_states(round, sender, receiver, parts, 0)
            }
            Command::SendStates {
                round,
                sender,
                receiver,
                parts,
                attempt,
            } => self.send_states(round, sender, receiver, parts, attempt),
            Command::Remap {
                round,
                sender,
                receiver,
                parts,
                bytes,
                held_since,
            } => {
                self.journal.add_relocation_bytes(bytes);
                // Step 7: flush the split-side buffers to the new owner.
                let released = self.placement.remap_and_release(&parts, receiver)?;
                let buffered = self.replay_released(released, receiver)?;
                self.report.relocations.push(RelocationEvent {
                    at: now,
                    sender,
                    receiver,
                    parts: parts.len(),
                    bytes,
                    buffered_tuples: buffered as usize,
                });
                self.record_step(round, 7, sender, receiver, parts, buffered);
                self.journal
                    .add_watermark_held_ms(now.as_millis().saturating_sub(held_since.as_millis()));
                // Step 8: resume, releasing the held purge watermark.
                // Every replayed tuple was sent before this Resume and
                // every later arrival carries `ts >= watermark`, so
                // engines may catch their window purge up to `watermark`
                // on receipt. Broadcast: sender and receiver commit the
                // round, everyone else ignores it as stale.
                for peer in self.gc.participating_engines() {
                    self.resume(peer, round)?;
                }
                self.record_step(round, 8, sender, receiver, Vec::new(), 0);
                self.drain_continue()
            }
            // Nothing was paused, so the full admitted watermark is
            // already safe to release.
            Command::Empty { round, sender } => {
                self.resume(sender, round)?;
                self.drain_continue()
            }
            Command::Abort {
                round,
                sender,
                receiver,
                paused,
            } => {
                // Delayed copies of this round's control messages are
                // moot — the engines would treat them as stale — so
                // don't release them.
                self.held.retain(|(_, (_, m))| {
                    !matches!(m,
                        ToEngine::Cptv { round: r, .. } | ToEngine::SendStates { round: r, .. }
                        if *r == round)
                });
                // Abort notifications ride the reliable channel (an
                // abort that can be lost is not an abort protocol). In
                // send order: the sender reinstalls its retained copy
                // before any replayed tuple reaches it.
                self.transport
                    .send(receiver, ToEngine::AbortRound { round })?;
                self.transport
                    .send(sender, ToEngine::AbortRound { round })?;
                if let Some((parts, held_since)) = paused {
                    // Release without remapping: ownership never
                    // changed, so the buffered tuples replay to the
                    // original owner.
                    let released = self.placement.release_paused(&parts)?;
                    self.replay_released(released, sender)?;
                    self.journal.add_watermark_held_ms(
                        now.as_millis().saturating_sub(held_since.as_millis()),
                    );
                    self.journal.add_watermark_released_on_abort(1);
                }
                self.drain_continue()
            }
            Command::Resume { round, engine } => self.resume(engine, round),
            Command::Spill { engine, amount } => {
                self.transport.send(engine, ToEngine::StartSpill { amount })
            }
            Command::DrainSpill { engine } => {
                // The spill and the re-poll ride the reliable channel in
                // order, so the next DrainState reflects the spill.
                self.transport
                    .send(engine, ToEngine::StartSpill { amount: u64::MAX })?;
                self.transport.send(engine, ToEngine::BeginDrain)
            }
            // Move the engine's remaining (zero-state) partitions
            // straight to `receiver` — pause and remap back-to-back, so
            // nothing can buffer in between — then start the cleanup
            // hand-off: flush any residual resident state to disk and
            // have the engine forward every spilled segment to the new
            // owners.
            Command::FinalizeDrain { engine, receiver } => {
                let parts = self.placement.partitions_of(engine);
                if !parts.is_empty() {
                    self.placement.pause(&parts)?;
                    let released = self.placement.remap_and_release(&parts, receiver)?;
                    self.replay_released(released, receiver)?;
                }
                self.gc.drain_finalized(engine, parts.len(), now);
                self.transport
                    .send(engine, ToEngine::StartSpill { amount: u64::MAX })?;
                let owners = self.owners()?;
                self.transport
                    .send(engine, ToEngine::PrepareCleanup { owners })
            }
        }
    }

    /// Take `engine` out of relocation mode for `round`, releasing the
    /// admitted watermark.
    fn resume(&mut self, engine: EngineId, round: u64) -> Result<()> {
        let watermark = self.split.admitted_watermark();
        self.transport
            .send(engine, ToEngine::Resume { round, watermark })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::netmodel::NetworkModel;
    use crate::placement::PlacementSpec;
    use crate::runtime::sim::{ScaleEvent, SimTransport};
    use crate::strategy::StrategyConfig;
    use dcape_engine::config::EngineConfig;
    use dcape_streamgen::testing::reference_join;
    use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

    /// One thing the coordinator did at the seam.
    #[derive(Debug)]
    enum Seen {
        /// A `DataBatch` went out: the timestamp of its oldest row, and
        /// the coordinator clock of the last receive poll before it.
        Data {
            oldest: VirtualTime,
            polled: VirtualTime,
        },
        /// `Tick` or `ReportStats`, and its stamp.
        Pulse(VirtualTime),
        /// `Resume`, and the watermark it released.
        Resume(VirtualTime),
        AbortRound,
        /// `FenceNotice` or `BeginDrain`: a drain's first sends.
        Fence,
        OtherSend,
        /// An engine message was handed over at this coordinator clock.
        Received(VirtualTime),
    }

    /// Records every send (with the tuples accounted for at that moment:
    /// sent so far plus buffered at paused splits) and every receive,
    /// over in-place engines that answer like real ones.
    struct Recording {
        inner: SimTransport,
        journal: JournalHandle,
        rows_sent: u64,
        /// The clock the coordinator last polled for engine messages
        /// with: a send in the loop happens at it or one tick after.
        polled: VirtualTime,
        log: Vec<(Option<EngineId>, u64, Seen)>,
    }

    impl Recording {
        fn new(cfg: &SimConfig, journal: JournalHandle) -> Self {
            Recording {
                inner: SimTransport::new(cfg, journal.clone()),
                journal,
                rows_sent: 0,
                polled: VirtualTime::ZERO,
                log: Vec::new(),
            }
        }

        fn note(&mut self, engine: Option<EngineId>, seen: Seen) {
            let buffered = self.journal.counters().snapshot().buffered_in_flight;
            self.log.push((engine, self.rows_sent + buffered, seen));
        }

        fn received(&mut self, now: VirtualTime, msg: Option<FromEngine>) -> Option<FromEngine> {
            self.polled = now;
            if msg.is_some() {
                self.note(None, Seen::Received(now));
            }
            msg
        }
    }

    impl Transport for Recording {
        fn start_engine(&mut self, engine: EngineId) -> Result<()> {
            self.inner.start_engine(engine)
        }

        fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
            let seen = match &msg {
                ToEngine::DataBatch { tuples } => {
                    self.rows_sent += tuples.len() as u64;
                    Seen::Data {
                        oldest: tuples.rows().map(|r| r.ts()).min().expect("no empty batch"),
                        polled: self.polled,
                    }
                }
                ToEngine::Tick { now, .. } | ToEngine::ReportStats { now } => Seen::Pulse(*now),
                ToEngine::Resume { watermark, .. } => Seen::Resume(*watermark),
                ToEngine::AbortRound { .. } => Seen::AbortRound,
                ToEngine::FenceNotice { .. } | ToEngine::BeginDrain => Seen::Fence,
                _ => Seen::OtherSend,
            };
            self.note(Some(engine), seen);
            self.inner.send(engine, msg)
        }

        fn try_recv(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
            let msg = self.inner.try_recv(now)?;
            Ok(self.received(now, msg))
        }

        fn recv_or_idle(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
            let msg = self.inner.recv_or_idle(now)?;
            Ok(self.received(now, msg))
        }

        fn shutdown(&mut self) -> Result<()> {
            self.inner.shutdown()
        }
    }

    /// The ordering rules of the module docs, read off what a relocating
    /// run — slow network, every other install crashing, so rounds both
    /// complete and abort with tuples buffered — sent through the seam.
    /// A round lasts 5–8 virtual seconds here: at the 5-s stats interval
    /// collections fall due while one is open and have to wait.
    #[test]
    fn sends_follow_the_flush_and_replay_rules() {
        // Pinned: a journaled run's wire volume, to the byte (the encode
        // behind it is skipped only where no journal keeps the count).
        let report = run_checking_the_seam(VirtualDuration::from_secs(20));
        assert_eq!(report.journal_counters.transfer_bytes, 44_549);
        let report = run_checking_the_seam(VirtualDuration::from_secs(5));
        assert_eq!(report.journal_counters.transfer_bytes, 66_365);
    }

    /// A scale event flushes first: off the pulse grid, the tuples routed
    /// before a drain fires reach their engines ahead of its
    /// `FenceNotice` and `BeginDrain`.
    #[test]
    fn a_drain_follows_the_data_routed_before_it() {
        let period = VirtualDuration::from_millis(30);
        // Half a second after a pulse: half a second of data is pending.
        let at = VirtualTime::from_millis(90_510);
        let spec = StreamSetSpec::uniform(24, 2400, 1, period).with_seed(23);
        let streams = spec.num_streams as u64;
        let cfg = SimConfig::new(
            2,
            EngineConfig::three_way(1 << 30, 1 << 29),
            spec,
            StrategyConfig::NoAdaptation,
        )
        .with_scale_events(vec![ScaleEvent::drain(at)]);
        let journal = JournalHandle::default();
        let transport = Recording::new(&cfg, journal.clone());
        let mut run = CoordinatorRun::new(&cfg, journal, false, transport).unwrap();
        run.run_until(VirtualTime::from_mins(2)).unwrap();
        let log = &run.transport().log;
        let fence = (log.iter())
            .position(|(_, _, seen)| matches!(seen, Seen::Fence))
            .expect("the drain fences its engine");
        let routed_before = at.as_millis() / period.as_millis() * streams;
        assert_eq!(
            log[fence].1, routed_before,
            "every tuple routed before the drain is sent"
        );
        assert!(
            matches!(log[fence - 1].2, Seen::Data { .. }),
            "the flush goes right ahead of the fence: {:?}",
            &log[fence - 1]
        );
    }

    /// Hands engine 1's first stats reply over late: after its reply
    /// to a later collection arrives, which in turn is held until
    /// nothing else is pending — a slow engine on a live transport.
    struct HoldsOneReply {
        inner: SimTransport,
        held_once: bool,
        stale: Option<FromEngine>,
        late: Option<FromEngine>,
    }

    impl HoldsOneReply {
        /// What to hand over for `msg`; `None` asks the engines again.
        fn reorder(&mut self, msg: Option<FromEngine>) -> Option<Option<FromEngine>> {
            let from_e1 = matches!(&msg, Some(FromEngine::Stats(r)) if r.engine == EngineId(1));
            match msg {
                None => Some(self.late.take()),
                Some(_) if from_e1 && !self.held_once => {
                    self.held_once = true;
                    self.stale = msg;
                    None
                }
                Some(_) if from_e1 && self.stale.is_some() => {
                    self.late = msg;
                    Some(self.stale.take())
                }
                msg => Some(msg),
            }
        }
    }

    impl Transport for HoldsOneReply {
        fn start_engine(&mut self, engine: EngineId) -> Result<()> {
            self.inner.start_engine(engine)
        }

        fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
            self.inner.send(engine, msg)
        }

        fn try_recv(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
            loop {
                let msg = self.inner.try_recv(now)?;
                if let Some(msg) = self.reorder(msg) {
                    return Ok(msg);
                }
            }
        }

        fn recv_or_idle(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
            loop {
                let msg = self.inner.recv_or_idle(now)?;
                if let Some(msg) = self.reorder(msg) {
                    return Ok(msg);
                }
            }
        }

        fn shutdown(&mut self) -> Result<()> {
            self.inner.shutdown()
        }
    }

    /// A collection abandoned by an admission stays abandoned: engine
    /// 1's reply to it, arriving after the next collection went out,
    /// does not stand in for its reply to that one, so every collection
    /// samples each engine at the collection's own instant.
    #[test]
    fn a_stale_stats_reply_completes_no_collection() {
        let spec = StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30));
        let cfg = SimConfig::new(
            2,
            EngineConfig::three_way(1 << 30, 1 << 29),
            spec,
            StrategyConfig::NoAdaptation,
        )
        .with_stats_interval(VirtualDuration::from_secs(10))
        .with_scale_events(vec![ScaleEvent::add(VirtualTime::from_secs(15))]);
        let journal = JournalHandle::default();
        let transport = HoldsOneReply {
            inner: SimTransport::new(&cfg, journal.clone()),
            held_once: false,
            stale: None,
            late: None,
        };
        let mut run = CoordinatorRun::new(&cfg, journal.clone(), false, transport).unwrap();
        run.run_until(VirtualTime::from_secs(45)).unwrap();
        assert!(run.transport().held_once && run.transport().stale.is_none());
        let sampled = |engine: u16| -> Vec<VirtualTime> {
            (journal.snapshot().iter())
                .filter_map(|e| match e.event {
                    AdaptEvent::EngineSample(r) if r.engine == EngineId(engine) => Some(e.at),
                    _ => None,
                })
                .collect()
        };
        // The collection the admission abandoned (at 10 s) left no
        // sample; the three after it sample every engine.
        let after_admission = sampled(0);
        assert_eq!(after_admission.len(), 3);
        assert!(after_admission[0] > VirtualTime::from_secs(15));
        assert_eq!(sampled(1), sampled(0));
        assert_eq!(sampled(2), sampled(0));
    }

    /// Hands each round's first `TransferAck` over only once the
    /// coordinator has re-sent that round's `SendStates`: an ack slow
    /// enough on a live transport that its phase timed out first. Over
    /// a free network the retry reaches the receiver before the held
    /// ack is handed over, so an install the retry crashed is already
    /// wiped when the coordinator reads the ack.
    struct HoldsFirstAck {
        inner: SimTransport,
        acked: Vec<u64>,
        held: Option<(u64, FromEngine)>,
        /// The held ack, due ahead of anything else.
        due: Option<FromEngine>,
        /// Rounds whose held ack was handed over after a retry.
        late: Vec<u64>,
    }

    impl HoldsFirstAck {
        /// What to hand over for `msg`; `None` asks the engines again.
        fn reorder(&mut self, msg: Option<FromEngine>) -> Option<Option<FromEngine>> {
            match msg {
                Some(FromEngine::TransferAck { round, .. }) if !self.acked.contains(&round) => {
                    self.acked.push(round);
                    self.held = msg.map(|m| (round, m));
                    None
                }
                msg => Some(msg),
            }
        }

        fn recv(
            &mut self,
            mut poll: impl FnMut(&mut SimTransport) -> Result<Option<FromEngine>>,
        ) -> Result<Option<FromEngine>> {
            if let Some(m) = self.due.take() {
                return Ok(Some(m));
            }
            loop {
                let msg = poll(&mut self.inner)?;
                if let Some(msg) = self.reorder(msg) {
                    return Ok(msg);
                }
            }
        }
    }

    impl Transport for HoldsFirstAck {
        fn start_engine(&mut self, engine: EngineId) -> Result<()> {
            self.inner.start_engine(engine)
        }

        fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
            let retried = match &msg {
                ToEngine::SendStates { round, .. } => Some(*round),
                _ => None,
            };
            self.inner.send(engine, msg)?;
            if let Some((round, ack)) = self.held.take_if(|(r, _)| Some(*r) == retried) {
                self.late.push(round);
                self.due = Some(ack);
            }
            Ok(())
        }

        fn try_recv(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
            self.recv(|t| t.try_recv(now))
        }

        fn recv_or_idle(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
            self.recv(|t| t.recv_or_idle(now))
        }

        fn shutdown(&mut self) -> Result<()> {
            self.inner.shutdown()
        }
    }

    /// Attempt 0 installs and acks; the ack is slow, so the coordinator
    /// times out and re-sends `SendStates`; attempt 1 crashes the
    /// receiver, which wipes the install; then the attempt-0 ack lands.
    /// The coordinator must not commit on it — the state it promises is
    /// gone — but wait for an ack of the attempt in flight: the run
    /// stays exact, and the late ack is journaled as stale.
    #[test]
    fn an_ack_older_than_the_crash_that_wiped_its_install_commits_nothing() {
        let period = VirtualDuration::from_millis(30);
        let deadline = VirtualTime::from_mins(4);
        let spec = StreamSetSpec::uniform(24, 2400, 1, period)
            .with_seed(23)
            .with_pattern(ArrivalPattern::AlternatingSkew {
                group_a: (0..6).map(PartitionId).collect(),
                ratio: 10.0,
                period: VirtualDuration::from_mins(2),
            });
        let crashes = FaultConfig {
            crash_rate: 0.5,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(3, crashes);
        let mut cfg = SimConfig::new(
            2,
            EngineConfig::three_way(1 << 30, 1 << 29),
            spec.clone(),
            StrategyConfig::LazyDisk {
                theta_r: 0.9,
                tau_m: VirtualDuration::from_secs(20),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
        .with_stats_interval(VirtualDuration::from_secs(5))
        .with_faults(plan);
        cfg.network = NetworkModel::free();
        let journal = JournalHandle::default();
        let transport = HoldsFirstAck {
            inner: SimTransport::new(&cfg, journal.clone()),
            acked: Vec::new(),
            held: None,
            due: None,
            late: Vec::new(),
        };
        let mut run = CoordinatorRun::new(&cfg, journal, true, transport).unwrap();
        run.run_until(deadline).unwrap();
        run.quiesce().unwrap();
        let report = run.cleanup().unwrap();

        // The order happened: a held attempt-0 ack landed after the
        // retry that crashed its receiver.
        let wiped: Vec<u64> = (run.transport().late.iter().copied())
            .filter(|&r| !plan.crash_during_install(r, 0) && plan.crash_during_install(r, 1))
            .collect();
        assert!(
            !wiped.is_empty(),
            "no round met the order: {:?}",
            run.transport().late
        );
        for round in &wiped {
            let stale = report.journal.iter().any(|e| {
                matches!(e.event, AdaptEvent::ProtocolWarning {
                    code: Warning::StaleTransferAck,
                    round: r,
                    ..
                } if r == *round)
            });
            assert!(stale, "round {round}'s wiped ack was not refused");
        }
        assert!(!report.relocations.is_empty(), "a later attempt commits");
        let oracle = reference_join(&spec, deadline, None).unwrap();
        assert_eq!(
            report.runtime_output + report.cleanup_output,
            oracle.count(),
            "a commit on a wiped install loses its state"
        );
    }

    fn run_checking_the_seam(stats_interval: VirtualDuration) -> RunReport {
        let period = VirtualDuration::from_millis(30);
        let deadline = VirtualTime::from_mins(5);
        let spec = StreamSetSpec::uniform(24, 2400, 1, period)
            .with_payload_pad(200)
            .with_seed(23)
            .with_pattern(ArrivalPattern::AlternatingSkew {
                group_a: (0..6).map(PartitionId).collect(),
                ratio: 10.0,
                period: VirtualDuration::from_mins(2),
            });
        let streams = spec.num_streams as u64;
        let crashes = FaultConfig {
            crash_rate: 0.7,
            ..FaultConfig::none()
        };
        let mut cfg = SimConfig::new(
            2,
            EngineConfig::three_way(1 << 30, 1 << 29),
            spec,
            StrategyConfig::LazyDisk {
                theta_r: 0.9,
                tau_m: VirtualDuration::from_secs(45),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
        .with_stats_interval(stats_interval)
        .with_faults(FaultPlan::new(6, crashes));
        cfg.network = NetworkModel::slow_wan();
        let journal = JournalHandle::default();
        let transport = Recording::new(&cfg, journal.clone());
        let mut run = CoordinatorRun::new(&cfg, journal, true, transport).unwrap();
        run.run_until(deadline).unwrap();
        run.quiesce().unwrap();
        let report = run.cleanup().unwrap();
        let log = &run.transport().log;

        let total_ticks = deadline.as_millis() / period.as_millis();
        let generated_by = |now: VirtualTime| {
            (now.as_millis() / period.as_millis() + 1).min(total_ticks) * streams
        };
        assert_eq!(run.transport().rows_sent, total_ticks * streams);

        // Every tuple routed so far is sent (or still buffered at a
        // paused split) before a pulse goes out and before the
        // coordinator acts on an engine message.
        let mut acting_at = None;
        for (engine, accounted, seen) in log {
            match seen {
                Seen::Received(now) => acting_at = Some(*now),
                Seen::Data { .. } => {}
                Seen::Pulse(at) => {
                    assert_eq!(*accounted, generated_by(*at), "{seen:?} to {engine:?}")
                }
                _ => {
                    if let Some(now) = acting_at.take() {
                        assert!(*accounted >= generated_by(now), "{seen:?} to {engine:?}");
                    }
                }
            }
        }

        // A batch waits for its pulse: every `DataBatch` is cut by an
        // engine message the coordinator is about to act on (received
        // just ahead of the flush), by a send that needs the data ahead
        // of it (a pulse, `ReportStats`, a timeout's retry or abort,
        // the `Resume` after a replay, all logged just after), follows
        // the `AbortRound` it replays behind, or ends `MAX_BATCH_TICKS`
        // ticks after the last batch to its engine. A flush goes to
        // every engine at once, so the other engines' batches are not
        // neighbours.
        let cap_ms = u64::from(MAX_BATCH_TICKS - 1) * period.as_millis();
        for e in [EngineId(0), EngineId(1)] {
            let is_neighbour = |(to, _, seen): &&(Option<EngineId>, u64, Seen)| {
                *to == Some(e) || !matches!(seen, Seen::Data { .. })
            };
            let mut last_polled: Option<VirtualTime> = None;
            for (k, (to, _, seen)) in log.iter().enumerate() {
                let Seen::Data { polled, .. } = seen else {
                    continue;
                };
                if *to != Some(e) {
                    continue;
                }
                let before = log[..k].iter().rev().find(is_neighbour);
                let after = log[k + 1..].iter().find(is_neighbour);
                let cut_by_message = matches!(before, Some((_, _, Seen::Received(_))));
                let replays_abort =
                    matches!(before, Some((to, _, Seen::AbortRound)) if *to == Some(e));
                let cut_by_send =
                    matches!(after, Some((Some(_), _, s)) if !matches!(s, Seen::Data { .. }));
                // The cap flushes before the tick's poll, the previous
                // batch went out at or before the poll `MAX_BATCH_TICKS`
                // ticks earlier.
                let cut_by_cap =
                    last_polled.is_some_and(|p| polled.as_millis() >= p.as_millis() + cap_ms);
                assert!(
                    cut_by_message || replays_abort || cut_by_send || cut_by_cap,
                    "{e}: {seen:?} (log entry {k}) was cut by nothing: \
                     after {before:?}, before {after:?}"
                );
                last_polled = Some(*polled);
            }
        }

        let (mut replays_before_resume, mut replays_after_abort) = (0, 0);
        for e in [EngineId(0), EngineId(1)] {
            let sends: Vec<&Seen> = log
                .iter()
                .filter(|(to, _, _)| *to == Some(e))
                .map(|(_, _, seen)| seen)
                .collect();
            let (mut pulsed, mut resumed) = (VirtualTime::ZERO, VirtualTime::ZERO);
            for (i, seen) in sends.iter().enumerate() {
                match seen {
                    Seen::Pulse(at) => pulsed = *at,
                    Seen::Resume(watermark) => resumed = *watermark,
                    Seen::Data { oldest, .. } => {
                        // Nothing trails the watermark a Resume released.
                        assert!(*oldest >= resumed, "{e}: {seen:?} after Resume({resumed})");
                        // Data never trails a pulse it preceded — except
                        // the replay of what a pause buffered, which
                        // follows the AbortRound to the sender or
                        // precedes the Resume to the receiver.
                        if *oldest < pulsed {
                            let after_abort = matches!(sends[i - 1], Seen::AbortRound);
                            let before_resume = matches!(sends.get(i + 1), Some(Seen::Resume(_)));
                            assert!(
                                after_abort || before_resume,
                                "{e}: {seen:?} trails the pulse at {pulsed}"
                            );
                            replays_after_abort += usize::from(after_abort);
                            replays_before_resume += usize::from(before_resume);
                        }
                    }
                    _ => {}
                }
            }
        }
        let aborted = report.journal_counters.watermark_released_on_abort;
        assert!(replays_before_resume > 0 && !report.relocations.is_empty());
        assert!(replays_after_abort > 0 && aborted > 0);
        report
    }
}
