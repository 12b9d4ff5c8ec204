//! The threaded cluster runtime: one OS thread per query engine.
//!
//! This runtime stands in for the paper's PC cluster: engines run
//! concurrently and all coordination flows through channels as real
//! asynchronous messages (the full Figure 8 sequence — `Cptv`, `Ptv`,
//! pause-and-buffer, `SendStates`, engine-to-engine `InstallStates`,
//! `TransferAck`, remap-and-flush, `Resume`), while the calling thread
//! plays stream source, split operators and global coordinator.
//!
//! The protocol itself lives in [`super::driver`] (coordinator side)
//! and [`super::engine_core`] (engine side), shared with the other two
//! runtimes; this module supplies the channel `Transport`
//! and the thread lifecycle.
//!
//! Virtual time still paces the timers. Thread interleaving varies, so
//! the *timing* of adaptation decisions is not reproducible here — but
//! totals are invariant (every tuple is processed exactly once), and a
//! run without adaptation is equal to the deterministic runtime's to
//! the digit.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::EngineId;
use dcape_common::time::VirtualTime;
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::{CountersSnapshot, JournalEntry, JournalHandle};

use crate::faults::FaultPlan;
use crate::messages::{FromEngine, ToEngine};
use crate::runtime::driver::{CoordinatorRun, RunReport, Transport};
use crate::runtime::engine_core::{EngineCore, EngineFlow, EngineTx};
use crate::runtime::sim::SimConfig;

/// Outcome of one threaded run.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Results produced during the run-time phase (all engines).
    pub runtime_output: u64,
    /// Missing results produced by the central cleanup merge.
    pub cleanup_output: u64,
    /// Completed relocation rounds.
    pub relocations: u64,
    /// Spill adaptations per engine.
    pub spill_counts: Vec<u64>,
    /// Forced spills issued.
    pub force_spills: u64,
    /// Modeled parallel cleanup wall time: max per-engine merge cost.
    pub cleanup_wall_ms: u64,
    /// Adaptation-event journal: every engine's journal plus the
    /// coordinator's, merged by virtual time.
    pub journal: Vec<JournalEntry>,
    /// Final counter values (coordinator-side tallies plus per-engine
    /// counts).
    pub journal_counters: CountersSnapshot,
}

impl ThreadedReport {
    /// Total results across both phases.
    pub fn total_output(&self) -> u64 {
        self.runtime_output + self.cleanup_output
    }
}

impl From<RunReport> for ThreadedReport {
    fn from(r: RunReport) -> Self {
        ThreadedReport {
            runtime_output: r.runtime_output,
            cleanup_output: r.cleanup_output,
            relocations: r.relocations.len() as u64,
            spill_counts: r.spill_counts,
            force_spills: r.force_spills,
            cleanup_wall_ms: r.cleanup_cost_ms.iter().copied().max().unwrap_or(0),
            journal: r.journal,
            journal_counters: r.journal_counters,
        }
    }
}

/// Run a complete experiment on real threads until `deadline` of
/// virtual time, then quiesce and run the distributed cleanup.
pub fn run_threaded(cfg: SimConfig, deadline: VirtualTime) -> Result<ThreadedReport> {
    let journal = JournalHandle::default();
    // A fault plan that can lose a message arms bounded patience —
    // otherwise a single dropped protocol message would wedge the
    // quiesce loop forever.
    let patient = cfg.faults.needs_patience();
    let transport = ChannelTransport::new(&cfg, journal.clone());
    let mut run = CoordinatorRun::new(&cfg, journal, patient, transport)?;
    run.run_until(deadline)?;
    run.quiesce()?;
    Ok(run.cleanup()?.into())
}

/// The channel fabric: one unbounded channel into every engine slot and
/// one shared inbox back. Provisioned at peak capacity up front — a
/// joiner's channel exists before its thread does, so nothing shared
/// reshapes mid-run and peers can address it the moment the coordinator
/// admits it.
struct ChannelTransport {
    engine_cfg: EngineConfig,
    /// The coordinator's journal; every engine records into a sibling
    /// of it, so one `seq` source numbers the whole run.
    journal: JournalHandle,
    plan: FaultPlan,
    to_engines: Vec<Sender<ToEngine>>,
    /// The receiving end of each slot until its thread takes it.
    unstarted: Vec<Option<Receiver<ToEngine>>>,
    to_gc: Sender<FromEngine>,
    from_engines: Receiver<FromEngine>,
    /// An engine thread hands its receiver back when it finishes, so the
    /// channel stays open — and a send to a finished engine stays
    /// `Ok(())` — until the thread is joined at shutdown.
    handles: Vec<thread::JoinHandle<Receiver<ToEngine>>>,
}

impl ChannelTransport {
    fn new(cfg: &SimConfig, journal: JournalHandle) -> Self {
        let (to_engines, unstarted) = (0..cfg.capacity())
            .map(|_| {
                let (tx, rx) = channel();
                (tx, Some(rx))
            })
            .unzip();
        let (to_gc, from_engines) = channel();
        ChannelTransport {
            engine_cfg: cfg.engine.clone(),
            journal,
            plan: cfg.faults,
            to_engines,
            unstarted,
            to_gc,
            from_engines,
            handles: Vec::new(),
        }
    }
}

impl Transport for ChannelTransport {
    fn start_engine(&mut self, engine: EngineId) -> Result<()> {
        let rx = self.unstarted[engine.index()]
            .take()
            .ok_or_else(|| DcapeError::state(format!("engine {engine} started twice")))?;
        let journal = self.journal.sibling();
        let core = EngineCore::new(engine, self.engine_cfg.clone(), journal, false)?;
        let tx = ChannelTx {
            to_gc: self.to_gc.clone(),
            peers: self.to_engines.clone(),
        };
        let plan = self.plan;
        let handle = thread::Builder::new()
            .name(format!("dcape-qe{}", engine.index()))
            .spawn(move || engine_main(core, rx, tx, plan))
            .map_err(DcapeError::Io)?;
        self.handles.push(handle);
        Ok(())
    }

    fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
        self.to_engines[engine.index()]
            .send(msg)
            .map_err(|_| DcapeError::Disconnected(format!("engine {engine} channel closed")))
    }

    fn try_recv(&mut self, _now: VirtualTime) -> Result<Option<FromEngine>> {
        Ok(self.from_engines.try_recv().ok())
    }

    fn recv_or_idle(&mut self, _now: VirtualTime) -> Result<Option<FromEngine>> {
        match self.from_engines.recv_timeout(Duration::from_millis(5)) {
            Ok(msg) => Ok(Some(msg)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(DcapeError::Disconnected("engines hung up".into()))
            }
        }
    }

    fn shutdown(&mut self) -> Result<()> {
        for h in self.handles.drain(..) {
            h.join()
                .map_err(|_| DcapeError::Disconnected("engine thread panicked".into()))?;
        }
        Ok(())
    }
}

/// Channel transport for an engine thread: replies go to the
/// coordinator's inbox, peer messages straight into the peer's channel.
/// Send errors are ignored — a closed channel only happens in shutdown
/// races, where the message is moot.
struct ChannelTx {
    to_gc: Sender<FromEngine>,
    peers: Vec<Sender<ToEngine>>,
}

impl EngineTx for ChannelTx {
    fn to_gc(&mut self, m: FromEngine) -> Result<()> {
        let _ = self.to_gc.send(m);
        Ok(())
    }

    fn to_peer(&mut self, target: EngineId, m: ToEngine) -> Result<()> {
        let _ = self.peers[target.index()].send(m);
        Ok(())
    }
}

/// The engine thread body: a thin receive loop around [`EngineCore`].
/// Returns the receiver once `CleanupDone` is sent (see
/// [`ChannelTransport::handles`]).
fn engine_main(
    mut core: EngineCore,
    rx: Receiver<ToEngine>,
    mut tx: ChannelTx,
    plan: FaultPlan,
) -> Receiver<ToEngine> {
    let id = core.id;
    // Announce readiness: for a mid-run joiner this is what unlocks
    // rebalance moves toward it; for initial engines it is a quiet
    // no-op at the coordinator.
    let _ = tx.to_gc.send(FromEngine::JoinReady { engine: id });
    for msg in rx.iter() {
        match core.handle(msg, &plan, &mut tx) {
            Ok(EngineFlow::Continue) => {}
            // In-process crash-restart: keep the thread alive — the
            // socket runtime's worker exits the real OS process here
            // instead.
            Ok(EngineFlow::CrashRequested) => core.crash_restart(),
            Ok(EngineFlow::Finished) => break,
            Err(e) => panic!("engine {id} failed: {e}"),
        }
    }
    rx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyConfig;
    use dcape_common::time::VirtualDuration;
    use dcape_streamgen::StreamSetSpec;

    /// An engine that drains mid-run sends `CleanupDone` and its thread
    /// exits; until the coordinator has read that message the engine is
    /// still in its broadcast set, so the next pulse goes to a channel
    /// nobody reads. That send must not fail the run.
    #[test]
    fn send_to_a_finished_engine_is_ok() {
        let cfg = SimConfig::new(
            1,
            EngineConfig::three_way(1 << 20, 1 << 19),
            StreamSetSpec::uniform(4, 100, 1, VirtualDuration::from_millis(30)),
            StrategyConfig::NoAdaptation,
        );
        let mut t = ChannelTransport::new(&cfg, JournalHandle::default());
        let e = EngineId(0);
        t.start_engine(e).unwrap();
        let owners = vec![e; 4];
        t.send(e, ToEngine::PrepareCleanup { owners }).unwrap();
        t.send(e, ToEngine::StartCleanup).unwrap();
        let now = VirtualTime::ZERO;
        while !matches!(
            t.recv_or_idle(now).unwrap(),
            Some(FromEngine::CleanupDone { .. })
        ) {}
        // Force the interleaving: the thread is gone before the send.
        while !t.handles[0].is_finished() {
            thread::yield_now();
        }
        t.send(e, ToEngine::Tick { now, horizon: now }).unwrap();
        t.shutdown().unwrap();
    }
}
