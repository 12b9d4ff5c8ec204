//! The deterministic virtual-time cluster runtime.
//!
//! Replays a whole experiment — stream generation, routing through the
//! split operators' placement map, per-engine symmetric joins, the
//! `ss_timer` spill pulse, the coordinator's periodic evaluation, and
//! the full relocation protocol with tuple buffering — on a single
//! thread against the virtual clock. It runs the same coordinator loop
//! ([`super::driver`]) and the same engine handler
//! ([`super::engine_core`]) as the live runtimes; this module is their
//! third transport: engines are values stepped in place the moment a
//! message is sent to them, their replies wait in a FIFO inbox, and
//! engine-to-engine state transfers take modeled network time — tuples
//! arriving for the affected partitions while a transfer is in flight
//! are buffered at the splits and redelivered to the new owner
//! afterwards, exactly as §4.1 describes.
//!
//! Determinism: same [`SimConfig`] ⇒ bit-identical run — no thread, no
//! wall clock, every queue drained in a fixed order. That is what lets
//! the repro harness regenerate the paper's figures reproducibly.

use std::collections::VecDeque;

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::EngineId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::CollectingSink;
use dcape_metrics::journal::{CountersSnapshot, JournalEntry, JournalHandle};
use dcape_streamgen::StreamSetSpec;

use crate::coordinator::GlobalCoordinator;
use crate::faults::FaultPlan;
use crate::messages::{FromEngine, ToEngine};
use crate::netmodel::NetworkModel;
use crate::placement::{PlacementMap, PlacementSpec};
use crate::runtime::driver::{pop_due, CoordinatorRun, Transport};
use crate::runtime::engine_core::{EngineCore, EngineFlow, EngineTx};
use crate::strategy::StrategyConfig;

/// An elastic membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Admit a new engine (scale-out). It gets the next dense id;
    /// join-rebalance moves bring state to it.
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
    /// Per-engine configuration (spill threshold and knobs, join).
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
    /// Network model for relocation transfers.
    pub network: NetworkModel,
    /// Collect full results (tests): every probe product is enumerated
    /// into a [`CollectingSink`]. Otherwise results are only counted —
    /// whole products at a time, no row materialized.
    pub collect_results: bool,
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
    /// Sensible defaults around a workload: 45 s stats interval,
    /// gigabit network, round-robin placement.
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
            network: NetworkModel::gigabit(),
            collect_results: false,
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

    /// Builder-style: collect full results.
    pub fn collecting(mut self) -> Self {
        self.collect_results = true;
        self
    }

    /// Returns `self` unchanged: every run keeps its journal. Kept
    /// only because the benchmark's job builder still calls it.
    pub fn with_journal(self) -> Self {
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
    /// Modeled cleanup cost per engine slot (ms of virtual time), as
    /// each engine reported it with `CleanupDone`.
    pub cleanup_cost_ms: Vec<u64>,
    /// Completed relocations.
    pub relocations: Vec<RelocationEvent>,
    /// Forced spills issued by the coordinator.
    pub force_spills: u64,
    /// Local spill adaptations per engine slot.
    pub spill_counts: Vec<u64>,
    /// Collected results, if `collect_results` was set: what the
    /// engines emitted during the run-time phase, engine by engine.
    pub runtime_results: Option<CollectingSink>,
    /// Collected results, if `collect_results` was set: what the
    /// engines' cleanup merges emitted.
    pub cleanup_results: Option<CollectingSink>,
    /// Adaptation-event journal, merged across the coordinator and every
    /// engine by virtual time.
    pub journal: Vec<JournalEntry>,
    /// Final counter values (the coordinator's tallies plus what every
    /// engine reported).
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
}

/// The virtual-time transport: every engine lives here, by value.
pub(crate) struct SimTransport {
    engine_cfg: EngineConfig,
    collect_results: bool,
    /// The coordinator's journal; every engine records into a sibling
    /// of it, so the merged journal keeps, among events with one
    /// timestamp, the order this one thread recorded them in.
    journal: JournalHandle,
    plan: FaultPlan,
    network: NetworkModel,
    /// Engines in id order; a slot is empty only while its engine is
    /// being stepped. One that finished stays: its state and sinks are
    /// what tests and the report read.
    cores: Vec<Option<EngineCore>>,
    finished: Vec<bool>,
    /// Engine replies, in the order they were sent.
    inbox: VecDeque<FromEngine>,
    /// State transfers on the modeled network, in send order, each with
    /// its due time; landed by `(due, position)`.
    in_flight: Vec<(VirtualTime, (EngineId, ToEngine))>,
    /// The cluster's one clock: the coordinator's at its latest receive
    /// or pulse. Engines stepped in place read it — a simulated cluster
    /// has no clock skew — so an engine's journal entry is never
    /// stamped before its cause.
    now: VirtualTime,
}

impl SimTransport {
    /// An empty cluster; `journal` is the coordinator's journal.
    pub(crate) fn new(cfg: &SimConfig, journal: JournalHandle) -> Self {
        SimTransport {
            engine_cfg: cfg.engine.clone(),
            collect_results: cfg.collect_results,
            journal,
            plan: cfg.faults,
            network: cfg.network,
            cores: Vec::new(),
            finished: Vec::new(),
            inbox: VecDeque::new(),
            in_flight: Vec::new(),
            now: VirtualTime::ZERO,
        }
    }

    /// The engines started so far, in id order.
    fn cores(&self) -> impl Iterator<Item = &EngineCore> {
        self.cores
            .iter()
            .map(|c| c.as_ref().expect("no engine step in progress"))
    }

    /// Step `engine` through `msg`, in place. Whatever it sends while
    /// handling the message goes through this transport's [`EngineTx`].
    fn step(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
        if let ToEngine::Tick { now, .. } | ToEngine::ReportStats { now } = &msg {
            self.now = self.now.max(*now);
        }
        let idx = engine.index();
        let slot = self
            .cores
            .get_mut(idx)
            .ok_or_else(|| DcapeError::state(format!("message for unstarted engine {engine}")))?;
        if self.finished[idx] {
            return Ok(());
        }
        let mut core = slot.take().ok_or_else(|| {
            DcapeError::state(format!("message for {engine} while it is stepped"))
        })?;
        core.last_now = core.last_now.max(self.now);
        let plan = self.plan;
        let flow = core.handle(msg, &plan, self);
        if matches!(flow, Ok(EngineFlow::CrashRequested)) {
            core.crash_restart();
        }
        self.cores[idx] = Some(core);
        self.finished[idx] = flow? == EngineFlow::Finished;
        Ok(())
    }

    /// Advance to `now`, land the state transfers that are due, and hand
    /// out the oldest engine reply.
    fn next(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
        self.now = self.now.max(now);
        while let Some((target, msg)) = pop_due(&mut self.in_flight, self.now) {
            self.step(target, msg)?;
        }
        Ok(self.inbox.pop_front())
    }
}

/// What the engine being stepped sends.
impl EngineTx for SimTransport {
    fn to_gc(&mut self, m: FromEngine) -> Result<()> {
        self.inbox.push_back(m);
        Ok(())
    }

    /// A state transfer takes modeled network time (the whole round's
    /// control chatter is charged to it — see
    /// [`NetworkModel::relocation_round_cost`]). Everything else — the
    /// cleanup forwards, whose cost is the owner's modeled merge cost,
    /// and a transfer over a free network — steps the peer on the spot,
    /// one segment shipment in memory at a time.
    fn to_peer(&mut self, target: EngineId, m: ToEngine) -> Result<()> {
        let cost = match &m {
            ToEngine::InstallStates { groups, .. } => {
                let bytes = groups.iter().map(|g| g.snapshot.state_bytes() as u64).sum();
                self.network.relocation_round_cost(bytes)
            }
            _ => VirtualDuration::ZERO,
        };
        if cost == VirtualDuration::ZERO {
            self.step(target, m)
        } else {
            self.in_flight.push((self.now + cost, (target, m)));
            Ok(())
        }
    }
}

impl Transport for SimTransport {
    fn start_engine(&mut self, engine: EngineId) -> Result<()> {
        if engine.index() != self.cores.len() {
            return Err(DcapeError::state(format!(
                "engine {engine} started out of order"
            )));
        }
        self.cores.push(Some(EngineCore::new(
            engine,
            self.engine_cfg.clone(),
            self.journal.sibling(),
            self.collect_results,
        )?));
        self.finished.push(false);
        self.inbox.push_back(FromEngine::JoinReady { engine });
        Ok(())
    }

    fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
        self.step(engine, msg)
    }

    fn try_recv(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
        self.next(now)
    }

    /// Never blocks: with nothing queued and nothing due the transport
    /// is idle, and only the coordinator's clock can change that.
    fn recv_or_idle(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
        self.next(now)
    }

    fn shutdown(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The simulated cluster: the shared coordinator run over the
/// virtual-time transport, plus what only the simulation can offer —
/// read access to the engines mid-run and the collected results.
pub struct SimDriver {
    run: CoordinatorRun<SimTransport>,
}

impl SimDriver {
    /// Build a driver; validates the whole configuration.
    pub fn new(cfg: SimConfig) -> Result<Self> {
        let journal = JournalHandle::default();
        let transport = SimTransport::new(&cfg, journal.clone());
        // A fault plan that can lose a message implies bounded
        // patience: dropped messages must not wedge a round forever.
        let patient = cfg.faults.needs_patience();
        Ok(SimDriver {
            run: CoordinatorRun::new(&cfg, journal, patient, transport)?,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.run.now()
    }

    /// The placement map (read access for tests).
    pub fn placement(&self) -> &PlacementMap {
        self.run.placement()
    }

    /// The engines started so far, in id order (read access for tests).
    pub fn engines(&self) -> Vec<&QueryEngine> {
        self.run.transport().cores().map(|c| &c.qe).collect()
    }

    /// Completed relocations so far.
    pub fn relocations(&self) -> &[RelocationEvent] {
        self.run.relocations()
    }

    /// The global coordinator (read access for tests).
    pub fn coordinator(&self) -> &GlobalCoordinator {
        self.run.coordinator()
    }

    /// Run until the virtual deadline.
    pub fn run_until(&mut self, deadline: VirtualTime) -> Result<()> {
        self.run.run_until(deadline)
    }

    /// Finish the run: quiesce the protocol, then run the distributed
    /// cleanup phase and assemble the report.
    pub fn finish(mut self) -> Result<SimReport> {
        self.run.quiesce()?;
        let report = self.run.cleanup()?;
        let collect = |pick: fn(&mut EngineCore) -> Option<CollectingSink>,
                       cores: &mut [Option<EngineCore>]| {
            let mut sinks = cores.iter_mut().flatten().filter_map(pick);
            let mut all = sinks.next()?;
            sinks.for_each(|s| all.append(s));
            Some(all)
        };
        let cores = &mut self.run.transport_mut().cores;
        Ok(SimReport {
            runtime_output: report.runtime_output,
            cleanup_output: report.cleanup_output,
            cleanup_cost_ms: report.cleanup_cost_ms,
            relocations: report.relocations,
            force_spills: report.force_spills,
            spill_counts: report.spill_counts,
            runtime_results: collect(|c| c.sink.collect.take(), cores),
            cleanup_results: collect(|c| c.cleanup_sink.collect.take(), cores),
            journal: report.journal,
            journal_counters: report.journal_counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seam's contract, where it is deterministic: an engine that
    /// has sent `CleanupDone` swallows whatever is sent to it next.
    #[test]
    fn send_to_a_finished_engine_is_ok() {
        let cfg = SimConfig::new(
            1,
            EngineConfig::three_way(1 << 20, 1 << 19),
            StreamSetSpec::uniform(4, 100, 1, VirtualDuration::from_millis(30)),
            StrategyConfig::NoAdaptation,
        );
        let mut t = SimTransport::new(&cfg, JournalHandle::default());
        let e = EngineId(0);
        t.start_engine(e).unwrap();
        let owners = vec![e; 4];
        t.send(e, ToEngine::PrepareCleanup { owners }).unwrap();
        t.send(e, ToEngine::StartCleanup).unwrap();
        let now = VirtualTime::ZERO;
        let replies: Vec<FromEngine> = std::iter::from_fn(|| t.try_recv(now).unwrap()).collect();
        assert!(matches!(
            replies[..],
            [
                FromEngine::JoinReady { .. },
                FromEngine::CleanupReady { .. },
                FromEngine::CleanupDone { .. }
            ]
        ));
        t.send(e, ToEngine::Tick { now, horizon: now }).unwrap();
        t.send(e, ToEngine::BeginDrain).unwrap();
        assert!(t.recv_or_idle(now).unwrap().is_none(), "it answers nothing");
    }
}
