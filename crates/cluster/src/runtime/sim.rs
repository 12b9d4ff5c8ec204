//! The deterministic virtual-time cluster driver.
//!
//! Replays a whole experiment — stream generation, routing through the
//! split operators' placement map, per-engine symmetric joins, the
//! `ss_timer` spill pulse, the coordinator's periodic evaluation, and
//! the full relocation protocol with tuple buffering — on a single
//! thread against the virtual clock. Relocation transfers take modeled
//! network time: tuples arriving for the affected partitions while the
//! transfer is in flight are buffered at the splits and redelivered to
//! the new owner afterwards, exactly as §4.1 describes.
//!
//! Determinism: same [`SimConfig`] ⇒ bit-identical run. That is what
//! lets the repro harness regenerate the paper's figures reproducibly.

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::{CollectingSink, ResultSink};
use dcape_engine::spill::cleanup::SegmentMerger;
use dcape_metrics::journal::{
    merge_journals, AdaptEvent, CountersSnapshot, JournalEntry, JournalHandle,
};
use dcape_metrics::Recorder;
use dcape_storage::SpilledGroup;
use dcape_streamgen::{StreamSetGenerator, StreamSetSpec};

use crate::split::SplitOperator;

use crate::coordinator::{DrainStep, GlobalCoordinator, RetryPolicy, TimeoutAction};
use crate::faults::{FaultDecision, FaultEdge, FaultPlan};
use crate::netmodel::NetworkModel;
use crate::placement::{released_batch, PlacementMap, PlacementSpec, Route};
use crate::relocation::Action;
use crate::strategy::{Decision, StrategyConfig};

use dcape_engine::controller::Mode;

/// An elastic membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Admit a new engine (scale-out). It gets the next dense id; the
    /// rebalance planner moves state toward it.
    AddEngine,
    /// Drain an engine (scale-in): fence it and relocate its state away
    /// until it owns nothing, then let it exit. `None` picks the
    /// highest-id active engine at fire time.
    DrainEngine(Option<EngineId>),
}

/// A scheduled membership change, applied when the virtual clock
/// reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Virtual time of the change.
    pub at: VirtualTime,
    /// What happens.
    pub action: ScaleAction,
}

impl ScaleEvent {
    /// A join at `at`.
    pub fn add(at: VirtualTime) -> Self {
        ScaleEvent {
            at,
            action: ScaleAction::AddEngine,
        }
    }

    /// A drain of the highest-id active engine at `at`.
    pub fn drain(at: VirtualTime) -> Self {
        ScaleEvent {
            at,
            action: ScaleAction::DrainEngine(None),
        }
    }

    /// A drain of a specific engine at `at`.
    pub fn drain_engine(at: VirtualTime, engine: EngineId) -> Self {
        ScaleEvent {
            at,
            action: ScaleAction::DrainEngine(Some(engine)),
        }
    }
}

/// Configuration of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of query engines ("machines").
    pub num_engines: usize,
    /// Per-engine configuration (memory budget, spill knobs, join).
    pub engine: EngineConfig,
    /// Input workload.
    pub workload: StreamSetSpec,
    /// Initial partition placement.
    pub placement: PlacementSpec,
    /// Global adaptation strategy.
    pub strategy: StrategyConfig,
    /// How often engines report statistics and the coordinator
    /// evaluates (`sr_timer` / `lb_timer`).
    pub stats_interval: VirtualDuration,
    /// How often the recorder samples throughput/memory series.
    pub sample_interval: VirtualDuration,
    /// Network model for relocation transfers.
    pub network: NetworkModel,
    /// Collect full results (tests): every probe product is enumerated
    /// into a [`CollectingSink`]. Otherwise results are only counted —
    /// whole products at a time, no row materialized.
    pub collect_results: bool,
    /// Record a structured adaptation-event journal (merged into the
    /// report); off by default.
    pub journal: bool,
    /// Deterministic fault injection over the relocation protocol's
    /// message edges (see [`crate::faults`]). Disabled by default; an
    /// active plan also arms the coordinator's per-phase
    /// timeout/retry/abort policy.
    pub faults: FaultPlan,
    /// Scheduled elastic membership changes (joins and drains), applied
    /// when the virtual clock reaches each event's time. Empty by
    /// default (a static engine set).
    pub scale_events: Vec<ScaleEvent>,
}

impl SimConfig {
    /// Sensible defaults around a workload: 45 s stats interval, 60 s
    /// sampling, gigabit network, round-robin placement.
    pub fn new(
        num_engines: usize,
        engine: EngineConfig,
        workload: StreamSetSpec,
        strategy: StrategyConfig,
    ) -> Self {
        SimConfig {
            num_engines,
            engine,
            workload,
            placement: PlacementSpec::RoundRobin,
            strategy,
            stats_interval: VirtualDuration::from_secs(45),
            sample_interval: VirtualDuration::from_secs(60),
            network: NetworkModel::gigabit(),
            collect_results: false,
            journal: false,
            faults: FaultPlan::disabled(),
            scale_events: Vec::new(),
        }
    }

    /// Builder-style: inject deterministic faults from the given plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: set the initial placement.
    pub fn with_placement(mut self, placement: PlacementSpec) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style: set the stats interval.
    pub fn with_stats_interval(mut self, interval: VirtualDuration) -> Self {
        self.stats_interval = interval;
        self
    }

    /// Builder-style: set the sample interval.
    pub fn with_sample_interval(mut self, interval: VirtualDuration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Builder-style: collect full results.
    pub fn collecting(mut self) -> Self {
        self.collect_results = true;
        self
    }

    /// Builder-style: record the adaptation-event journal.
    pub fn with_journal(mut self) -> Self {
        self.journal = true;
        self
    }

    /// Builder-style: schedule elastic membership changes.
    pub fn with_scale_events(mut self, events: Vec<ScaleEvent>) -> Self {
        self.scale_events = events;
        self
    }

    /// Peak engine-slot count this run can reach: the initial engines
    /// plus every scheduled join. Runtimes provision channel fabrics,
    /// outboxes and counters at this capacity up front so joins never
    /// reshape shared structures mid-run.
    pub fn capacity(&self) -> usize {
        self.num_engines
            + self
                .scale_events
                .iter()
                .filter(|e| e.action == ScaleAction::AddEngine)
                .count()
    }
}

/// One completed relocation, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelocationEvent {
    /// When the transfer completed.
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

/// Aggregated result of a simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// Results produced during the run-time phase.
    pub runtime_output: u64,
    /// Missing results produced by the cleanup phase.
    pub cleanup_output: u64,
    /// Per-engine modeled cleanup costs (ms of virtual time).
    pub cleanup_cost_ms: Vec<u64>,
    /// Completed relocations.
    pub relocations: Vec<RelocationEvent>,
    /// Forced spills issued by the coordinator.
    pub force_spills: u64,
    /// Local spill adaptations per engine.
    pub spill_counts: Vec<u64>,
    /// Recorded time series (throughput, memory, …).
    pub recorder: Recorder,
    /// Collected results, if `collect_results` was set: run-time phase.
    pub runtime_results: Option<CollectingSink>,
    /// Collected results, if `collect_results` was set: cleanup phase.
    pub cleanup_results: Option<CollectingSink>,
    /// Adaptation-event journal, merged across the driver and every
    /// engine by virtual time (empty unless `journal` was set).
    pub journal: Vec<JournalEntry>,
    /// Final counter values (driver-level tallies plus per-engine ring
    /// accounting; zeros unless `journal` was set).
    pub journal_counters: CountersSnapshot,
}

impl SimReport {
    /// Total results across both phases.
    pub fn total_output(&self) -> u64 {
        self.runtime_output + self.cleanup_output
    }

    /// Cluster cleanup wall time under per-engine parallelism: the
    /// maximum per-engine cost (the paper's Figure 12 comparison).
    pub fn cleanup_wall_ms(&self) -> u64 {
        self.cleanup_cost_ms.iter().copied().max().unwrap_or(0)
    }

    /// A ready-to-print run summary: one row per engine plus totals.
    pub fn summary_table(&self) -> dcape_metrics::Table {
        let mut table =
            dcape_metrics::Table::new(&["engine", "final output", "spills", "cleanup cost (ms)"]);
        for (i, (spills, cost)) in self
            .spill_counts
            .iter()
            .zip(&self.cleanup_cost_ms)
            .enumerate()
        {
            let out = self
                .recorder
                .series(&format!("output/QE{i}"))
                .and_then(|s| s.last())
                .map(|(_, v)| v as u64)
                .unwrap_or(0);
            table.row(vec![
                format!("QE{i}"),
                format!("{out}"),
                format!("{spills}"),
                format!("{cost}"),
            ]);
        }
        table.row(vec![
            "total".into(),
            format!("{}", self.runtime_output),
            format!("{}", self.spill_counts.iter().sum::<u64>()),
            format!("{} (wall)", self.cleanup_wall_ms()),
        ]);
        table
    }
}

/// A relocation transfer in flight (between steps 5 and 6). With the
/// chaos layer there can be several at once (a duplicated
/// `InstallStates` is two copies of the same payload in flight).
#[derive(Debug)]
struct InFlightTransfer {
    round: u64,
    receiver: EngineId,
    parts: Vec<PartitionId>,
    groups: Vec<(SpilledGroup, u64, bool)>,
    sender: EngineId,
    bytes: u64,
    /// Byte length the sender declared; differs from `bytes` when the
    /// corrupt-length fault hit this copy — the receiver discards it.
    declared_bytes: u64,
    /// Delivery attempt the driving `SendStates` carried.
    attempt: u32,
    complete_at: VirtualTime,
}

/// A control message the chaos layer delayed: redelivered from
/// [`SimDriver::on_clock`] once the virtual clock passes its due time.
#[derive(Debug)]
enum DelayedEvent {
    /// Step 1 toward the sender.
    Cptv {
        round: u64,
        sender: EngineId,
        amount: u64,
        attempt: u32,
    },
    /// Step 2 toward the coordinator.
    Ptv {
        round: u64,
        sender: EngineId,
        parts: Vec<PartitionId>,
    },
    /// Step 4 toward the sender.
    SendStates {
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        parts: Vec<PartitionId>,
        attempt: u32,
    },
    /// Step 6 toward the coordinator.
    TransferAck {
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        bytes: u64,
    },
}

/// Output sink: counts whole probe products, or — when the run collects
/// results — enumerates them into a [`CollectingSink`] as well.
#[derive(Debug, Default)]
struct SimSink {
    count: u64,
    collect: Option<CollectingSink>,
}

impl SimSink {
    fn new(collect_results: bool) -> Self {
        SimSink {
            count: 0,
            collect: collect_results.then(CollectingSink::new),
        }
    }
}

impl ResultSink for SimSink {
    fn wants_rows(&self) -> bool {
        self.collect.is_some()
    }

    fn emit(&mut self, parts: &[&Tuple]) {
        self.count += 1;
        if let Some(c) = &mut self.collect {
            c.emit(parts);
        }
    }

    fn emit_product(&mut self, spans: &dcape_engine::probe::ProbeSpans<'_, '_>) -> u64 {
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

/// The simulated cluster.
#[derive(Debug)]
pub struct SimDriver {
    cfg: SimConfig,
    engines: Vec<QueryEngine>,
    placement: PlacementMap,
    split: SplitOperator,
    gc: GlobalCoordinator,
    gen: StreamSetGenerator,
    stats_timer: PeriodicTimer,
    sample_timer: PeriodicTimer,
    recorder: Recorder,
    sink: SimSink,
    in_flight: Vec<InFlightTransfer>,
    /// Chaos-delayed control messages, delivered once due (insertion
    /// order among equal due times — deterministic).
    pending: Vec<(VirtualTime, DelayedEvent)>,
    relocations: Vec<RelocationEvent>,
    journal: JournalHandle,
    /// Engine spill bytes already mirrored into the driver journal's
    /// counters (strategies read cluster-wide totals mid-run).
    mirrored_spill_bytes: u64,
    /// Encoded spill write volume already mirrored (see above).
    mirrored_spill_written: u64,
    /// Encoded spill read-back volume already mirrored (see above).
    mirrored_spill_read: u64,
    /// Reusable one-tick generator buffer.
    tick_buf: Vec<Tuple>,
    /// Reusable per-engine routed batches.
    engine_batches: Vec<TupleBatch>,
    /// Scheduled membership changes, sorted by time; `next_scale`
    /// indexes the first not-yet-applied one.
    scale_events: Vec<ScaleEvent>,
    next_scale: usize,
    now: VirtualTime,
}

impl SimDriver {
    /// Build a driver; validates the whole configuration.
    pub fn new(cfg: SimConfig) -> Result<Self> {
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
        let mut engines = (0..cfg.num_engines)
            .map(|i| QueryEngine::in_memory(EngineId(i as u16), cfg.engine.clone()))
            .collect::<Result<Vec<_>>>()?;
        let mut gc = GlobalCoordinator::new(&cfg.strategy);
        gc.init_membership(cfg.num_engines, cfg.capacity());
        let mut scale_events = cfg.scale_events.clone();
        scale_events.sort_by_key(|e| e.at);
        // Each engine keeps its own journal; the driver, coordinator and
        // strategy share one more. `finish` merges them by virtual time.
        let journal = if cfg.journal {
            for e in &mut engines {
                e.set_journal(JournalHandle::enabled());
            }
            let handle = JournalHandle::enabled();
            gc.set_journal(handle.clone());
            handle
        } else {
            JournalHandle::disabled()
        };
        // An active fault plan implies bounded patience: arm the
        // per-phase timeout/retry/abort ladder so dropped messages
        // cannot wedge a round forever.
        if cfg.faults.is_active() {
            gc.set_retry_policy(RetryPolicy::default());
        }
        Ok(SimDriver {
            stats_timer: PeriodicTimer::new(cfg.stats_interval, VirtualTime::ZERO),
            sample_timer: PeriodicTimer::new(cfg.sample_interval, VirtualTime::ZERO),
            recorder: Recorder::new(),
            sink: SimSink::new(cfg.collect_results),
            in_flight: Vec::new(),
            pending: Vec::new(),
            relocations: Vec::new(),
            journal,
            mirrored_spill_bytes: 0,
            mirrored_spill_written: 0,
            mirrored_spill_read: 0,
            tick_buf: Vec::new(),
            engine_batches: (0..cfg.num_engines).map(|_| TupleBatch::new()).collect(),
            scale_events,
            next_scale: 0,
            now: VirtualTime::ZERO,
            cfg,
            engines,
            placement,
            split,
            gc,
            gen,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The recorder (read access while running).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The placement map (read access for tests).
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// The engines (read access for tests).
    pub fn engines(&self) -> &[QueryEngine] {
        &self.engines
    }

    /// Completed relocations so far.
    pub fn relocations(&self) -> &[RelocationEvent] {
        &self.relocations
    }

    /// The global coordinator (read access for tests).
    pub fn coordinator(&self) -> &GlobalCoordinator {
        &self.gc
    }

    /// Run until the virtual deadline: per generator tick, the clock's
    /// work, then the tick's tuples routed into one batch per engine
    /// and one `process_batch` call per engine. The tick buffer and the
    /// batches are reused — a tick's batch is a few rows that would
    /// otherwise regrow a buffer from empty every tick.
    pub fn run_until(&mut self, deadline: VirtualTime) -> Result<()> {
        while self.gen.now() < deadline {
            let mut tick = std::mem::take(&mut self.tick_buf);
            self.now = self.gen.tick_batch(&mut tick);
            self.on_clock()?;
            self.journal.add_tuples_routed(tick.len() as u64);
            for tuple in tick.drain(..) {
                let pid = self.split.classify(&tuple)?;
                match self.placement.route(pid, tuple)? {
                    Route::Buffered => {
                        self.journal.add_buffered_in_flight(1);
                    }
                    Route::Deliver(engine, tuple) => {
                        self.engine_batches[engine.index()].push(pid, tuple);
                    }
                }
            }
            self.tick_buf = tick;
            for i in 0..self.engines.len() {
                if self.engine_batches[i].is_empty() {
                    continue;
                }
                self.engines[i].process_batch(&self.engine_batches[i], &mut self.sink)?;
                self.engine_batches[i].clear();
            }
        }
        self.now = deadline;
        self.on_clock()?;
        Ok(())
    }

    /// Everything that reacts to the clock, independent of data:
    /// transfer completion, engine `ss_timer`s, coordinator evaluation,
    /// series sampling.
    fn on_clock(&mut self) -> Result<()> {
        self.process_scale_events()?;
        self.pump_protocol()?;
        self.pump_drain()?;
        // Local spill pulses + opportunistic reactivation. Window
        // purges run at the watermark-driven horizon, not the clock:
        // tuples buffered at paused splits hold the horizon back, so a
        // relocation can never purge the partners of tuples it is
        // holding.
        let watermark = self.split.admitted_watermark();
        let horizon = self.placement.purge_horizon(watermark);
        if self.cfg.engine.join.window.is_some() && horizon < watermark {
            self.journal.add_purges_deferred(1);
        }
        for e in &mut self.engines {
            e.tick_with_horizon(self.now, horizon)?;
            // A fenced engine is being emptied: reactivating spilled
            // state back into memory would race the drain (and after
            // the final remap would strand tuples outside the cleanup
            // gather). Its segments stay on disk instead.
            if !self.placement.is_fenced(e.id()) {
                e.maybe_reactivate(&mut self.sink)?;
            }
        }
        self.mirror_engine_spills();
        // Coordinator evaluation.
        if self.stats_timer.expired(self.now) {
            self.stats_timer.reset(self.now);
            self.evaluate_coordinator()?;
        }
        // Series sampling.
        if self.sample_timer.expired(self.now) {
            self.sample_timer.reset(self.now);
            self.sample_series();
            // Debug builds recompute memory accounting from scratch at
            // every sample — any drift in the incremental bookkeeping
            // fails the run immediately instead of skewing decisions.
            #[cfg(debug_assertions)]
            for e in &self.engines {
                e.assert_accounting_consistent()?;
            }
        }
        Ok(())
    }

    /// Apply scheduled membership changes whose time has come.
    fn process_scale_events(&mut self) -> Result<()> {
        while self.next_scale < self.scale_events.len()
            && self.scale_events[self.next_scale].at <= self.now
        {
            let event = self.scale_events[self.next_scale];
            self.next_scale += 1;
            match event.action {
                ScaleAction::AddEngine => {
                    let id = self.placement.add_engine()?;
                    let mut qe = QueryEngine::in_memory(id, self.cfg.engine.clone())?;
                    if self.journal.is_enabled() {
                        qe.set_journal(JournalHandle::enabled());
                    }
                    self.engines.push(qe);
                    self.engine_batches.push(TupleBatch::new());
                    self.gc.admit_engine(id, self.now)?;
                    // In-process joiners are ready the instant they
                    // exist — the rebalance planner may target them
                    // from the next evaluation on.
                    self.gc.on_join_ready(id, self.now);
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
                    if self.gc.request_drain(engine, self.now)? {
                        self.placement.fence_engine(engine)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Advance an in-progress drain: promote a deferred drain once the
    /// round blocking it closed, then poll the draining engine's
    /// resident state and execute the resulting step. The socket and
    /// threaded runtimes do the same over `BeginDrain`/`DrainState`
    /// messages; here the poll is a direct call.
    fn pump_drain(&mut self) -> Result<()> {
        if let Some(engine) = self.gc.poll_pending_drain(self.now) {
            self.placement.fence_engine(engine)?;
        }
        let Some(engine) = self.gc.draining_engine() else {
            return Ok(());
        };
        if self.gc.relocation_active() {
            return Ok(());
        }
        let resident = self.engines[engine.index()].memory_used();
        match self.gc.on_drain_state(engine, resident, self.now)? {
            DrainStep::Wait => Ok(()),
            DrainStep::Relocate {
                round,
                sender,
                amount,
                ..
            } => self.send_cptv(round, sender, amount, 0),
            DrainStep::ForceSpill { engine, amount } => {
                self.engines[engine.index()].force_spill(amount, self.now)?;
                Ok(())
            }
            DrainStep::FinalizeRemap { engine, receiver } => self.finalize_drain(engine, receiver),
        }
    }

    /// The draining engine's resident state hit zero: remap whatever
    /// zero-state partitions it still owns straight to `receiver`
    /// (nothing to ship — no 8-step round needed), spill any residual
    /// state to disk and retire the engine. Its segments stay in the
    /// engine vector, so the finish-time cleanup gathers them exactly
    /// like the live runtimes' segment forwarding does.
    fn finalize_drain(&mut self, engine: EngineId, receiver: EngineId) -> Result<()> {
        let parts = self.placement.partitions_of(engine);
        if !parts.is_empty() {
            self.placement.pause(&parts)?;
            let released = self.placement.remap_and_release(&parts, receiver)?;
            self.replay_released(released, receiver)?;
        }
        self.gc.drain_finalized(engine, parts.len(), self.now);
        self.engines[engine.index()].force_spill(u64::MAX, self.now)?;
        self.gc.finish_drain(engine, self.now);
        Ok(())
    }

    /// Deliver the tuples a pause released to `target` as one batch and
    /// book them as replayed. Returns how many there were.
    fn replay_released(
        &mut self,
        released: Vec<(PartitionId, Vec<Tuple>)>,
        target: EngineId,
    ) -> Result<u64> {
        let flush = released_batch(released);
        let buffered = flush.len() as u64;
        if buffered > 0 {
            self.engines[target.index()].process_batch(flush, &mut self.sink)?;
        }
        self.journal.sub_buffered_in_flight(buffered);
        self.journal.add_replayed_in_order(buffered);
        Ok(buffered)
    }

    /// Mirror engine spill volume into the shared driver journal so the
    /// strategies' counter view is cluster-wide.
    fn mirror_engine_spills(&mut self) {
        if !self.journal.is_enabled() {
            return;
        }
        let (mut total, mut written, mut read) = (0u64, 0u64, 0u64);
        for c in self.engines.iter().filter_map(|e| e.journal().counters()) {
            total += c.spill_bytes();
            written += c.spill_bytes_written();
            read += c.spill_bytes_read();
        }
        let delta = total - self.mirrored_spill_bytes;
        if delta > 0 {
            self.journal.add_spill_bytes(delta);
            self.mirrored_spill_bytes = total;
        }
        let delta = written - self.mirrored_spill_written;
        if delta > 0 {
            self.journal.add_spill_bytes_written(delta);
            self.mirrored_spill_written = written;
        }
        let delta = read - self.mirrored_spill_read;
        if delta > 0 {
            self.journal.add_spill_bytes_read(delta);
            self.mirrored_spill_read = read;
        }
    }

    /// Record a relocation protocol step the driver itself executes
    /// (3–5, 7, 8; the coordinator records 1, 2 and 6).
    #[allow(clippy::too_many_arguments)] // mirrors the event's fields
    fn record_step(
        &self,
        round: u64,
        step: u8,
        sender: EngineId,
        receiver: EngineId,
        parts: &[PartitionId],
        bytes: u64,
        buffered_tuples: u64,
    ) {
        self.journal.record(
            self.now,
            AdaptEvent::RelocationStep {
                round,
                step,
                sender,
                receiver,
                parts: parts.to_vec(),
                bytes,
                buffered_tuples,
                load_ratio: 0.0,
            },
        );
    }

    /// Everything protocol-related the clock drives: due transfers
    /// complete, chaos-delayed control messages deliver, and the
    /// coordinator's phase deadline is polled (retry or abort).
    fn pump_protocol(&mut self) -> Result<()> {
        // Complete due in-flight transfers, in (complete_at, insertion)
        // order — deterministic regardless of how they were queued.
        while let Some(idx) = self
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, t)| self.now >= t.complete_at)
            .min_by_key(|(i, t)| (t.complete_at, *i))
            .map(|(i, _)| i)
        {
            let t = self.in_flight.remove(idx);
            self.complete_transfer(t)?;
        }
        // Deliver due delayed control messages, same ordering rule.
        while let Some(idx) = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, (due, _))| self.now >= *due)
            .min_by_key(|(i, (due, _))| (*due, *i))
            .map(|(i, _)| i)
        {
            let (_, event) = self.pending.remove(idx);
            self.deliver_delayed(event)?;
        }
        // Phase deadline: bounded retry, then abort. Each poll either
        // re-arms the deadline in the future or closes the round, so
        // this loop terminates.
        while let Some(action) = self.gc.check_timeout(self.now) {
            self.handle_timeout(action)?;
        }
        Ok(())
    }

    /// Consult the fault plan for one message edge and journal any
    /// injected fault (the `faults_injected` accounting).
    fn edge_decision(&mut self, edge: FaultEdge, round: u64, attempt: u32) -> FaultDecision {
        let decision = self.cfg.faults.decide(edge, round, attempt);
        if let Some(fault) = decision.fault_name() {
            self.journal.add_faults_injected(1);
            self.journal.record(
                self.now,
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

    fn warn(&self, code: &'static str, engine: EngineId, round: u64, detail: u64) {
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

    fn deliver_delayed(&mut self, event: DelayedEvent) -> Result<()> {
        match event {
            DelayedEvent::Cptv {
                round,
                sender,
                amount,
                attempt,
            } => self.deliver_cptv(round, sender, amount, attempt),
            DelayedEvent::Ptv {
                round,
                sender,
                parts,
            } => self.deliver_ptv(round, sender, parts),
            DelayedEvent::SendStates {
                round,
                sender,
                receiver,
                parts,
                attempt,
            } => self.deliver_send_states(round, sender, receiver, parts, attempt),
            DelayedEvent::TransferAck {
                round,
                sender,
                receiver,
                bytes,
            } => self.deliver_transfer_ack(round, sender, receiver, bytes),
        }
    }

    fn handle_timeout(&mut self, action: TimeoutAction) -> Result<()> {
        match action {
            TimeoutAction::RetryCptv {
                round,
                sender,
                amount,
                attempt,
            } => self.send_cptv(round, sender, amount, attempt),
            TimeoutAction::RetrySendStates {
                round,
                sender,
                receiver,
                parts,
                attempt,
            } => self.send_send_states(round, sender, receiver, parts, attempt),
            TimeoutAction::AbortRound {
                round,
                sender,
                receiver,
                parts,
                held_since,
            } => self.abort_round(round, sender, receiver, &parts, held_since),
        }
    }

    /// Step 1 across the faultable channel.
    fn send_cptv(&mut self, round: u64, sender: EngineId, amount: u64, attempt: u32) -> Result<()> {
        match self.edge_decision(FaultEdge::Cptv, round, attempt) {
            FaultDecision::Deliver => self.deliver_cptv(round, sender, amount, attempt),
            // A garbled control message is discarded on receipt — same
            // outcome as a drop; the phase timeout re-sends it.
            FaultDecision::Drop | FaultDecision::CorruptLength => Ok(()),
            FaultDecision::Duplicate => {
                self.deliver_cptv(round, sender, amount, attempt)?;
                self.deliver_cptv(round, sender, amount, attempt)
            }
            FaultDecision::Delay(ms) => {
                self.pending.push((
                    self.now + VirtualDuration::from_millis(ms),
                    DelayedEvent::Cptv {
                        round,
                        sender,
                        amount,
                        attempt,
                    },
                ));
                Ok(())
            }
        }
    }

    /// Step 1 lands at the sender: compute the partition list and answer
    /// with step 2.
    fn deliver_cptv(
        &mut self,
        round: u64,
        sender: EngineId,
        amount: u64,
        attempt: u32,
    ) -> Result<()> {
        if self.engines[sender.index()].is_stale_round(round) {
            self.warn("stale_cptv", sender, round, 1);
            return Ok(());
        }
        self.engines[sender.index()].set_mode(Mode::Relocation);
        let parts = self.engines[sender.index()].select_parts_to_move(amount);
        self.send_ptv(round, sender, parts, attempt)
    }

    /// Step 2 across the faultable channel (the attempt follows the
    /// `Cptv` that prompted it).
    fn send_ptv(
        &mut self,
        round: u64,
        sender: EngineId,
        parts: Vec<PartitionId>,
        attempt: u32,
    ) -> Result<()> {
        match self.edge_decision(FaultEdge::Ptv, round, attempt) {
            FaultDecision::Deliver => self.deliver_ptv(round, sender, parts),
            FaultDecision::Drop | FaultDecision::CorruptLength => Ok(()),
            FaultDecision::Duplicate => {
                self.deliver_ptv(round, sender, parts.clone())?;
                self.deliver_ptv(round, sender, parts)
            }
            FaultDecision::Delay(ms) => {
                self.pending.push((
                    self.now + VirtualDuration::from_millis(ms),
                    DelayedEvent::Ptv {
                        round,
                        sender,
                        parts,
                    },
                ));
                Ok(())
            }
        }
    }

    /// Step 2 lands at the coordinator.
    fn deliver_ptv(&mut self, round: u64, sender: EngineId, parts: Vec<PartitionId>) -> Result<()> {
        match self.gc.on_ptv(sender, round, parts, self.now)? {
            None => {
                // Stale or duplicated. If the round it belonged to is
                // gone, the sender must not stay wedged in relocation
                // mode because a late Cptv re-entered it.
                let active_sender = self.gc.active_round_info().map(|(_, s, _, _)| s);
                if active_sender != Some(sender) {
                    self.engines[sender.index()].set_mode(Mode::Normal);
                }
                Ok(())
            }
            Some(Action::Abort) => {
                self.engines[sender.index()].set_mode(Mode::Normal);
                Ok(())
            }
            Some(Action::PauseAndTransfer {
                parts,
                sender,
                receiver,
            }) => {
                // Step 3: pause at the splits.
                self.placement.pause(&parts)?;
                self.record_step(round, 3, sender, receiver, &parts, 0, 0);
                self.engines[receiver.index()].set_mode(Mode::Relocation);
                // Step 4 starts its own attempt ladder (the WaitAck
                // phase was just armed).
                let attempt = self.gc.current_attempt();
                self.send_send_states(round, sender, receiver, parts, attempt)
            }
            Some(Action::RemapAndResume { .. }) => {
                Err(DcapeError::protocol("remap before transfer completed"))
            }
        }
    }

    /// Step 4 across the faultable channel.
    fn send_send_states(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        parts: Vec<PartitionId>,
        attempt: u32,
    ) -> Result<()> {
        match self.edge_decision(FaultEdge::SendStates, round, attempt) {
            FaultDecision::Deliver => {
                self.deliver_send_states(round, sender, receiver, parts, attempt)
            }
            FaultDecision::Drop | FaultDecision::CorruptLength => Ok(()),
            FaultDecision::Duplicate => {
                self.deliver_send_states(round, sender, receiver, parts.clone(), attempt)?;
                self.deliver_send_states(round, sender, receiver, parts, attempt)
            }
            FaultDecision::Delay(ms) => {
                self.pending.push((
                    self.now + VirtualDuration::from_millis(ms),
                    DelayedEvent::SendStates {
                        round,
                        sender,
                        receiver,
                        parts,
                        attempt,
                    },
                ));
                Ok(())
            }
        }
    }

    /// Step 4 lands at the sender: extract (first time) or re-ship the
    /// retained copy, then put step 5 on the wire.
    fn deliver_send_states(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        parts: Vec<PartitionId>,
        attempt: u32,
    ) -> Result<()> {
        if self.engines[sender.index()].is_stale_round(round) {
            self.warn("stale_send_states", sender, round, 4);
            return Ok(());
        }
        // A chaos-delayed SendStates can name a receiver that was
        // fenced for draining after the round opened; shipping state to
        // it would repopulate an engine being emptied. Drop it — the
        // phase timeout aborts the round.
        if self.placement.is_fenced(receiver) {
            self.warn("send_to_fenced_dropped", receiver, round, 4);
            return Ok(());
        }
        let fresh = !self.engines[sender.index()].outbound_pending(round);
        let groups = self.engines[sender.index()].begin_outbound(round, &parts);
        let bytes: u64 = groups.iter().map(|(g, _, _)| g.state_bytes() as u64).sum();
        if fresh {
            // Journal the extraction once; retries re-ship the same
            // copy and must not inflate the relocation volume.
            self.record_step(round, 4, sender, receiver, &parts, bytes, 0);
            self.journal.add_relocation_bytes(bytes);
            // Wire volume: what the transfer costs in encoded form
            // (the column-block codec typically shrinks this well
            // below the accounted state bytes).
            let encoded: u64 = groups
                .iter()
                .map(|(g, _, _)| g.encode_with(self.cfg.engine.spill_codec).len() as u64)
                .sum();
            self.journal.add_transfer_bytes(encoded);
        }
        // Step 5: the state transfer itself, over modeled network time
        // (the whole round's control chatter is charged here — see
        // `NetworkModel::relocation_round_cost`). A stall fault keeps
        // the receiver unresponsive for a while on top.
        let mut declared_bytes = bytes;
        let mut cost = self.cfg.network.relocation_round_cost(bytes);
        let stall = self
            .cfg
            .faults
            .stall_ms(FaultEdge::InstallStates, round, attempt);
        if stall > 0 {
            self.journal.add_faults_injected(1);
            self.journal.record(
                self.now,
                AdaptEvent::FaultInjected {
                    fault: "stall",
                    edge: FaultEdge::InstallStates.name(),
                    round,
                    attempt,
                },
            );
            cost = cost + VirtualDuration::from_millis(stall);
        }
        let mut copies = 1u32;
        match self.edge_decision(FaultEdge::InstallStates, round, attempt) {
            FaultDecision::Deliver => {}
            FaultDecision::Drop => return Ok(()),
            FaultDecision::CorruptLength => {
                declared_bytes = FaultPlan::corrupt_length(bytes);
            }
            FaultDecision::Delay(ms) => {
                cost = cost + VirtualDuration::from_millis(ms);
            }
            FaultDecision::Duplicate => copies = 2,
        }
        for _ in 0..copies {
            self.in_flight.push(InFlightTransfer {
                round,
                receiver,
                parts: parts.clone(),
                groups: groups.clone(),
                sender,
                bytes,
                declared_bytes,
                attempt,
                complete_at: self.now + cost,
            });
        }
        Ok(())
    }

    /// Step 5 lands at the receiver (transfer completed): verify,
    /// maybe crash, install idempotently, then ack (step 6).
    fn complete_transfer(&mut self, t: InFlightTransfer) -> Result<()> {
        // Corrupt-length detection: the receiver recomputes the payload
        // length and discards on mismatch — equivalent to a drop, healed
        // by the phase timeout re-sending `SendStates`.
        if t.declared_bytes != t.bytes {
            self.warn(
                "corrupt_transfer_discarded",
                t.receiver,
                t.round,
                t.declared_bytes,
            );
            return Ok(());
        }
        // Fenced mid-flight: the receiver started draining while the
        // transfer was on the wire. Discard without acking; the sender's
        // retained copy is reinstalled when the round aborts.
        if self.placement.is_fenced(t.receiver) {
            self.warn("send_to_fenced_dropped", t.receiver, t.round, 5);
            return Ok(());
        }
        // Crash-restart mid-install: the uncommitted installation is
        // lost, no ack goes out; the sender's retained copy stays
        // authoritative and the round retries or aborts.
        if self.cfg.faults.crash_during_install(t.round, t.attempt) {
            self.journal.add_faults_injected(1);
            self.journal.record(
                self.now,
                AdaptEvent::FaultInjected {
                    fault: "crash_restart",
                    edge: FaultEdge::InstallStates.name(),
                    round: t.round,
                    attempt: t.attempt,
                },
            );
            self.engines[t.receiver.index()].crash_restart()?;
            return Ok(());
        }
        let installed =
            self.engines[t.receiver.index()].install_groups_for_round(t.round, t.groups)?;
        if installed {
            self.record_step(t.round, 5, t.sender, t.receiver, &t.parts, t.bytes, 0);
        } else {
            // Duplicate (or stale) install: a no-op, but the ack must
            // still go out — the first one may have been lost.
            self.warn("duplicate_install", t.receiver, t.round, 5);
        }
        self.send_transfer_ack(t.round, t.sender, t.receiver, t.bytes, t.attempt)
    }

    /// Step 6 across the faultable channel.
    fn send_transfer_ack(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        bytes: u64,
        attempt: u32,
    ) -> Result<()> {
        match self.edge_decision(FaultEdge::TransferAck, round, attempt) {
            FaultDecision::Deliver => self.deliver_transfer_ack(round, sender, receiver, bytes),
            FaultDecision::Drop | FaultDecision::CorruptLength => Ok(()),
            FaultDecision::Duplicate => {
                self.deliver_transfer_ack(round, sender, receiver, bytes)?;
                self.deliver_transfer_ack(round, sender, receiver, bytes)
            }
            FaultDecision::Delay(ms) => {
                self.pending.push((
                    self.now + VirtualDuration::from_millis(ms),
                    DelayedEvent::TransferAck {
                        round,
                        sender,
                        receiver,
                        bytes,
                    },
                ));
                Ok(())
            }
        }
    }

    /// Step 6 lands at the coordinator: close the round (steps 7–8).
    fn deliver_transfer_ack(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        bytes: u64,
    ) -> Result<()> {
        match self.gc.on_transfer_ack(receiver, round, self.now)? {
            // Stale or duplicated ack: already journaled by the
            // coordinator; nothing to execute.
            None => Ok(()),
            Some(Action::RemapAndResume {
                parts,
                receiver,
                held_since,
            }) => self.finish_round(round, sender, receiver, parts, held_since, bytes),
            Some(other) => Err(DcapeError::protocol(format!(
                "unexpected action after ack: {other:?}"
            ))),
        }
    }

    /// Steps 7–8: remap, flush buffered tuples to the new owner, commit
    /// both ends, resume.
    fn finish_round(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        parts: Vec<PartitionId>,
        held_since: VirtualTime,
        bytes: u64,
    ) -> Result<()> {
        // Step 7: remap and flush buffered tuples to the new owner.
        // `remap_and_release` yields per-pid lists in arrival order, so
        // the one-batch flush is a stable reordering by pid.
        let released = self.placement.remap_and_release(&parts, receiver)?;
        let buffered = self.replay_released(released, receiver)?;
        self.record_step(round, 7, sender, receiver, &parts, 0, buffered);
        self.journal
            .add_watermark_held_ms(self.now.as_millis().saturating_sub(held_since.as_millis()));
        // Step 8: resume; the round commits on both ends (the sender
        // drops its retained copy, the receiver's installation becomes
        // permanent, late messages for this round turn stale).
        self.engines[sender.index()].commit_outbound(round);
        self.engines[receiver.index()].commit_inbound(round);
        self.engines[sender.index()].set_mode(Mode::Normal);
        self.engines[receiver.index()].set_mode(Mode::Normal);
        self.record_step(round, 8, sender, receiver, &[], 0, 0);
        // Copies of this round still in flight are moot: the receiver
        // would treat them as duplicates anyway; drop them to keep the
        // in-flight set small.
        self.in_flight.retain(|t| t.round != round);
        self.relocations.push(RelocationEvent {
            at: self.now,
            sender,
            receiver,
            parts: parts.len(),
            bytes,
            buffered_tuples: buffered as usize,
        });
        Ok(())
    }

    /// Retries exhausted: unwind the round. The sender reinstalls its
    /// retained outbound copy, the receiver discards any uncommitted
    /// installation, the paused partitions release **without** an owner
    /// change (their buffered tuples replay to the original owner), and
    /// the held purge watermark is freed.
    fn abort_round(
        &mut self,
        round: u64,
        sender: EngineId,
        receiver: EngineId,
        parts: &[PartitionId],
        held_since: Option<VirtualTime>,
    ) -> Result<()> {
        self.in_flight.retain(|t| t.round != round);
        self.engines[receiver.index()].abort_inbound(round)?;
        self.engines[receiver.index()].set_mode(Mode::Normal);
        let reinstalled = self.engines[sender.index()].abort_outbound(round)?;
        self.engines[sender.index()].set_mode(Mode::Normal);
        self.warn("round_unwound", sender, round, reinstalled as u64);
        if !parts.is_empty() {
            let released = self.placement.release_paused(parts)?;
            self.replay_released(released, sender)?;
            if let Some(held) = held_since {
                self.journal
                    .add_watermark_held_ms(self.now.as_millis().saturating_sub(held.as_millis()));
            }
            self.journal.add_watermark_released_on_abort(1);
        }
        Ok(())
    }

    fn evaluate_coordinator(&mut self) -> Result<()> {
        // Statistics come from active members only — a draining engine
        // must not be picked as a relocation receiver, and a drained
        // one is gone.
        let mut reports = Vec::new();
        for e in self.gc.active_engines() {
            reports.push(self.engines[e.index()].report(self.now));
        }
        let stats = crate::stats::ClusterStats::new(reports);
        match self.gc.evaluate(&stats, self.now)? {
            Decision::None => Ok(()),
            Decision::ForceSpill { engine, amount } => {
                self.engines[engine.index()].force_spill(amount, self.now)?;
                Ok(())
            }
            Decision::Relocate { sender, .. } => {
                // Step 1: Cptv toward the sender, across the (possibly
                // faulty) control channel.
                let (round, s, _r, amount) =
                    self.gc.active_round_info().expect("relocation just opened");
                debug_assert_eq!(s, sender);
                self.send_cptv(round, sender, amount, 0)
            }
        }
    }

    fn sample_series(&mut self) {
        let total: u64 = self.sink.count;
        self.recorder.record("output/total", self.now, total as f64);
        for e in &self.engines {
            let id = e.id();
            self.recorder
                .record(&format!("mem/{id}"), self.now, e.memory_used() as f64);
            self.recorder
                .record(&format!("output/{id}"), self.now, e.total_output() as f64);
        }
    }

    /// Advance virtual time through whatever the protocol still has in
    /// flight — pending transfers, delayed messages, retry ladders —
    /// until every relocation round has committed or aborted. Bounded:
    /// each pass either delivers an event or fires a deadline, and the
    /// retry ladder is finite.
    fn drain_protocol(&mut self) -> Result<()> {
        let mut passes = 0u32;
        while !self.in_flight.is_empty() || !self.pending.is_empty() || self.gc.relocation_active()
        {
            passes += 1;
            if passes > 100_000 {
                return Err(DcapeError::protocol(
                    "relocation protocol failed to quiesce at finish",
                ));
            }
            let next = self
                .in_flight
                .iter()
                .map(|t| t.complete_at)
                .chain(self.pending.iter().map(|(due, _)| *due))
                .chain(self.gc.phase_deadline())
                .min();
            let Some(next) = next else {
                // A round is open but nothing can ever advance it (no
                // retry policy and nothing in flight) — the pre-chaos
                // degenerate case; leave it open.
                break;
            };
            self.now = self.now.max(next);
            self.pump_protocol()?;
        }
        Ok(())
    }

    /// Input ended mid-drain: keep alternating drain polls with
    /// protocol quiescence until the engine is empty and retired. Each
    /// pass either completes a round (moving resident state off), hits
    /// the abort ladder (which bounds to the forced-spill degrade) or
    /// finalizes, so this terminates.
    fn complete_elastic_drain(&mut self) -> Result<()> {
        let mut passes = 0u32;
        while self.gc.drain_in_progress() {
            passes += 1;
            if passes > 10_000 {
                return Err(DcapeError::protocol("drain failed to complete at finish"));
            }
            self.pump_drain()?;
            self.drain_protocol()?;
        }
        Ok(())
    }

    /// Finish the run: drain the relocation protocol, then perform the
    /// cluster-wide cleanup phase and assemble the report.
    pub fn finish(mut self) -> Result<SimReport> {
        self.drain_protocol()?;
        self.complete_elastic_drain()?;
        self.sample_series();
        self.mirror_engine_spills();
        let runtime_output = self.sink.count;
        let runtime_results = self.sink.collect.take();

        // Cluster-wide cleanup: for every partition, gather segments
        // from ALL engines plus the memory-resident group from the
        // current owner, and merge. Costs are attributed to the owner
        // engine (work is executed where the partition lives).
        let mut cleanup_sink = SimSink::new(self.cfg.collect_results);
        let cost_model = self.cfg.engine.cost;
        let mut cost_ms = vec![0u64; self.engines.len()];
        let join_columns = self.cfg.engine.join.join_columns.clone();

        let mut spilled_pids: Vec<PartitionId> = self
            .engines
            .iter()
            .flat_map(|e| e.spilled_partitions())
            .collect();
        spilled_pids.sort_unstable();
        spilled_pids.dedup();

        for pid in spilled_pids {
            let owner = self.placement.owner(pid)?;
            let mut merger = SegmentMerger::new(&join_columns, self.cfg.engine.join.window, false);
            let mut io_ms = 0u64;
            let mut disk_bytes = 0u64;
            // Chaos: a stalled segment shipment slows this partition's
            // cleanup down (stall-only edge — cleanup messages ride the
            // reliable channel, so content is never lost).
            let stall = self
                .cfg
                .faults
                .stall_ms(FaultEdge::CleanupSegments, u64::from(pid.0), 0);
            if stall > 0 {
                self.journal.add_faults_injected(1);
                self.journal.record(
                    self.now,
                    AdaptEvent::FaultInjected {
                        fault: "stall",
                        edge: FaultEdge::CleanupSegments.name(),
                        round: u64::from(pid.0),
                        attempt: 0,
                    },
                );
                io_ms += stall;
            }
            for e in &mut self.engines {
                for meta in e.spilled_segment_metas(pid) {
                    io_ms += cost_model.disk.io_cost(meta.state_bytes).as_millis();
                    disk_bytes += meta.state_bytes;
                }
                while let Some(segment) = e.take_spilled_segment(pid)? {
                    merger.push(segment, &mut cleanup_sink)?;
                }
            }
            if let Some((resident, _)) = self.engines[owner.index()].extract_resident_group(pid) {
                merger.push(resident, &mut cleanup_sink)?;
            }
            let outcome = merger.outcome();
            self.journal.record(
                self.now,
                AdaptEvent::CleanupPhase {
                    engine: owner,
                    group: pid,
                    missing_results: outcome.missing_results,
                    scanned_tuples: outcome.scanned_tuples,
                    disk_bytes_read: disk_bytes,
                },
            );
            let compute_us = outcome.scanned_tuples * cost_model.cleanup_scan_us_per_tuple
                + outcome.missing_results * cost_model.cleanup_emit_us_per_result;
            cost_ms[owner.index()] += io_ms + compute_us / 1000;
        }

        // Cleanup read the spilled segments back through the engines'
        // journaled spill paths — mirror the final byte volumes.
        self.mirror_engine_spills();

        let journal = if self.journal.is_enabled() {
            let mut rings = vec![self.journal.snapshot()];
            rings.extend(self.engines.iter().map(|e| e.journal().snapshot()));
            merge_journals(rings)
        } else {
            Vec::new()
        };
        let mut journal_counters = self
            .journal
            .counters()
            .map(|c| c.snapshot())
            .unwrap_or_default();
        // Ring accounting is per journal; fold the engines' in.
        for c in self.engines.iter().filter_map(|e| e.journal().counters()) {
            journal_counters.events_recorded += c.events_recorded();
            journal_counters.events_dropped += c.events_dropped();
        }

        Ok(SimReport {
            runtime_output,
            cleanup_output: cleanup_sink.count,
            cleanup_cost_ms: cost_ms,
            relocations: std::mem::take(&mut self.relocations),
            force_spills: self.gc.force_spills_issued(),
            spill_counts: self
                .engines
                .iter()
                .map(|e| e.spill_history().len() as u64)
                .collect(),
            recorder: std::mem::take(&mut self.recorder),
            runtime_results,
            cleanup_results: cleanup_sink.collect,
            journal,
            journal_counters,
        })
    }
}
