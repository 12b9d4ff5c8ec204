//! The threaded cluster runtime: one OS thread per query engine.
//!
//! This driver stands in for the paper's PC cluster: engines run
//! concurrently, all coordination flows through channels as real
//! asynchronous messages (the full Figure 8 sequence — `Cptv`, `Ptv`,
//! pause-and-buffer, `SendStates`, engine-to-engine `InstallStates`,
//! `TransferAck`, remap-and-flush, `Resume`), and the driver thread
//! plays the roles of stream source, split operators, and global
//! coordinator.
//!
//! The protocol logic itself lives in [`super::driver`]
//! (coordinator side) and [`super::engine_core`] (engine side), shared
//! with the multi-process [`super::socket`] driver; this module supplies
//! the crossbeam-channel transport and the thread lifecycle.
//!
//! Differences from the paper's deployment, by design:
//!
//! * Virtual time still paces timers (determinism of *decisions* is not
//!   required here — thread interleaving varies — but totals are
//!   invariant: every tuple is processed exactly once).
//! * The cleanup phase is **distributed**, as in the paper: at
//!   shutdown the driver broadcasts the final placement, every engine
//!   forwards its non-owned spill segments to the partitions' owners
//!   (engine-to-engine messages), and once all engines report ready,
//!   each merges its owned partitions locally, in parallel, reporting
//!   missing-result counts and its modeled merge cost (the wall time is
//!   the max — T-cleanup-2's comparison).

use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};
use dcape_metrics::journal::{
    merge_journals, AdaptEvent, CountersSnapshot, JournalEntry, JournalHandle,
};
use dcape_streamgen::StreamSetGenerator;

use crate::coordinator::{GlobalCoordinator, RetryPolicy};
use crate::faults::FaultPlan;
use crate::messages::{FromEngine, ToEngine};
use crate::placement::{PlacementMap, Route};
use crate::runtime::driver::{
    begin_drain_event, fold_engine_counters, handle_coordinator_msg, handle_timeout_action,
    intercept_drain_cleanup, release_due, DrainFold, HeldSends,
};
use crate::runtime::engine_core::{EngineCore, EngineFlow, EngineTx};
use crate::runtime::sim::{ScaleAction, SimConfig};

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
    /// coordinator's, merged by virtual time (empty unless
    /// `SimConfig::journal` was set).
    pub journal: Vec<JournalEntry>,
    /// Final counter values (coordinator-side tallies plus per-engine
    /// ring accounting; zeros unless `SimConfig::journal` was set).
    pub journal_counters: CountersSnapshot,
}

impl ThreadedReport {
    /// Total results across both phases.
    pub fn total_output(&self) -> u64 {
        self.runtime_output + self.cleanup_output
    }
}

/// Run a complete experiment on real threads until `deadline` of
/// virtual time, then shut down and merge the cleanup phase.
pub fn run_threaded(cfg: SimConfig, deadline: VirtualTime) -> Result<ThreadedReport> {
    if cfg.num_engines == 0 {
        return Err(DcapeError::config("need at least one engine"));
    }
    let mut gen = StreamSetGenerator::new(cfg.workload.clone())?;
    let mut split = crate::split::SplitOperator::new(
        gen.partitioner(),
        vec![StreamSetGenerator::JOIN_COLUMN; cfg.workload.num_streams],
    )?;
    let mut placement =
        PlacementMap::new(&cfg.placement, cfg.workload.num_partitions, cfg.num_engines)?;
    let capacity = cfg.capacity();
    let mut scale_events = cfg.scale_events.clone();
    scale_events.sort_by_key(|e| e.at);
    let mut next_scale = 0usize;
    let mut gc = GlobalCoordinator::new(&cfg.strategy);
    gc.init_membership(cfg.num_engines, capacity);
    // Coordinator-side journal; each engine thread keeps its own and
    // ships it back with `CleanupDone` for the final merge.
    let journal = if cfg.journal {
        let handle = JournalHandle::enabled();
        gc.set_journal(handle.clone());
        handle
    } else {
        JournalHandle::disabled()
    };
    // An active fault plan arms bounded patience — otherwise a single
    // dropped protocol message would wedge the quiesce loop forever.
    if cfg.faults.is_active() {
        gc.set_retry_policy(RetryPolicy::default());
    }
    let mut held_sends: HeldSends = Vec::new();

    // Channel fabric, provisioned at peak capacity up front: a joiner's
    // channel pair already exists before its thread does, so nothing
    // shared reshapes mid-run and peers can address it the moment the
    // coordinator admits it.
    let mut to_engines: Vec<Sender<ToEngine>> = Vec::with_capacity(capacity);
    let mut engine_rxs: Vec<Option<Receiver<ToEngine>>> = Vec::with_capacity(capacity);
    for _ in 0..capacity {
        let (tx, rx) = unbounded();
        to_engines.push(tx);
        engine_rxs.push(Some(rx));
    }
    let (to_gc, from_engines) = unbounded::<FromEngine>();

    // Spawn the initial engine threads; joiners spawn when their scale
    // event fires.
    let mut handles = Vec::with_capacity(capacity);
    for (i, slot) in engine_rxs.iter_mut().enumerate().take(cfg.num_engines) {
        let rx = slot.take().expect("initial slot unspawned");
        handles.push(spawn_engine(i, &cfg, rx, &to_gc, &to_engines));
    }

    // Driver loop: source + splits + coordinator.
    let mut stats_timer = PeriodicTimer::new(cfg.stats_interval, VirtualTime::ZERO);
    let mut tick_timer = PeriodicTimer::new(
        dcape_common::time::VirtualDuration::from_secs(1),
        VirtualTime::ZERO,
    );
    let mut pending_stats: Vec<Option<dcape_engine::stats::EngineStatsReport>> =
        vec![None; capacity];
    let mut awaiting_stats = false;
    let mut relocations = 0u64;
    let mut drain_fold = DrainFold::default();

    // All coordinator-side protocol helpers send through this closure;
    // the socket driver substitutes one that frames onto TCP.
    let mut send = |e: EngineId, msg: ToEngine| -> Result<()> {
        to_engines[e.index()]
            .send(msg)
            .map_err(|_| DcapeError::Disconnected(format!("engine {e} channel closed")))
    };

    // The data path: one reused tick buffer and one routed batch per
    // engine. Batches coalesce across generator ticks — the channel
    // send is the per-message cost being amortized — and flush (a)
    // every `MAX_BATCH_TICKS` ticks, (b) before any `Tick`/
    // `ReportStats` send, so no data trails a timer pulse it preceded
    // in virtual time, and (c) before any coordinator message is
    // handled, so every already-routed tuple reaches its engine ahead
    // of a `SendStates`/remap that could re-home its partition.
    const MAX_BATCH_TICKS: u32 = 64;
    let mut tick_buf: Vec<dcape_common::tuple::Tuple> = Vec::new();
    let mut engine_batches: Vec<TupleBatch> = (0..capacity).map(|_| TupleBatch::new()).collect();
    let mut pending_ticks = 0u32;
    let flush_pending =
        |batches: &mut Vec<TupleBatch>, txs: &[Sender<ToEngine>], ticks: &mut u32| -> Result<()> {
            *ticks = 0;
            for (i, pending) in batches.iter_mut().enumerate() {
                if pending.is_empty() {
                    continue;
                }
                // The batch crosses the channel as one allocation;
                // `take` leaves a buffer of the same byte size behind.
                let tuples = pending.take();
                txs[i]
                    .send(ToEngine::DataBatch { tuples })
                    .map_err(|_| DcapeError::Disconnected(format!("engine {i} channel closed")))?;
            }
            Ok(())
        };

    while gen.now() < deadline {
        let now = gen.now();
        // Elastic membership changes whose time has come.
        while next_scale < scale_events.len() && scale_events[next_scale].at <= now {
            let event = scale_events[next_scale];
            next_scale += 1;
            match event.action {
                ScaleAction::AddEngine => {
                    let id = placement.add_engine()?;
                    let rx = engine_rxs[id.index()]
                        .take()
                        .expect("joiner slot unspawned");
                    handles.push(spawn_engine(id.index(), &cfg, rx, &to_gc, &to_engines));
                    gc.admit_engine(id, now)?;
                    // A stats collection begun against the old
                    // membership can never complete against the new
                    // one; restart it at the next timer expiry.
                    awaiting_stats = false;
                }
                ScaleAction::DrainEngine(target) => {
                    let engine = match target {
                        Some(e) => e,
                        None => gc
                            .active_engines()
                            .into_iter()
                            .max()
                            .ok_or_else(|| DcapeError::config("no active engine to drain"))?,
                    };
                    begin_drain_event(&mut gc, &mut placement, &mut send, engine, now)?;
                }
            }
        }
        gen.tick_batch(&mut tick_buf);
        journal.add_tuples_routed(tick_buf.len() as u64);
        for tuple in tick_buf.drain(..) {
            let pid = split.classify(&tuple)?;
            match placement.route(pid, tuple)? {
                Route::Buffered => {
                    journal.add_buffered_in_flight(1);
                }
                Route::Deliver(engine, tuple) => {
                    engine_batches[engine.index()].push(pid, tuple);
                }
            }
        }
        pending_ticks += 1;
        if pending_ticks >= MAX_BATCH_TICKS || tick_timer.expired(now) || stats_timer.expired(now) {
            flush_pending(&mut engine_batches, &to_engines, &mut pending_ticks)?;
        }
        if tick_timer.expired(now) {
            tick_timer.reset(now);
            // Watermark-driven purge horizon: while a relocation holds
            // tuples buffered at the splits, the horizon stays at the
            // oldest buffered timestamp, so no engine can purge the
            // join partners of a tuple that has yet to replay.
            let watermark = split.admitted_watermark();
            let horizon = placement.purge_horizon(watermark);
            if cfg.engine.join.window.is_some() && horizon < watermark {
                journal.add_purges_deferred(1);
            }
            for e in gc.participating_engines() {
                send(e, ToEngine::Tick { now, horizon })?;
            }
        }
        if stats_timer.expired(now) && !awaiting_stats && !gc.relocation_active() {
            stats_timer.reset(now);
            awaiting_stats = true;
            pending_stats.iter_mut().for_each(|s| *s = None);
            for e in gc.active_engines() {
                send(e, ToEngine::ReportStats { now })?;
            }
        }

        // Drain coordinator inbox without blocking the data path.
        while let Ok(msg) = from_engines.try_recv() {
            // Deliver already-routed tuples before acting on anything
            // that might pause or re-home their partitions.
            flush_pending(&mut engine_batches, &to_engines, &mut pending_ticks)?;
            let Some(msg) = intercept_drain_cleanup(msg, &mut gc, &mut send, &mut drain_fold, now)?
            else {
                continue;
            };
            handle_coordinator_msg(
                msg,
                &mut gc,
                &mut placement,
                &mut send,
                &mut pending_stats,
                &mut awaiting_stats,
                &mut relocations,
                &journal,
                now,
                split.admitted_watermark(),
                &cfg.faults,
                &mut held_sends,
            )?;
        }

        // Chaos: release driver-held delayed control messages whose due
        // time passed, and poll the coordinator's phase deadline
        // (bounded retry, then abort).
        if cfg.faults.is_active() {
            release_due(&mut held_sends, now, &mut send)?;
            while let Some(action) = gc.check_timeout(now) {
                flush_pending(&mut engine_batches, &to_engines, &mut pending_ticks)?;
                handle_timeout_action(
                    action,
                    &mut gc,
                    &mut placement,
                    &mut send,
                    &journal,
                    now,
                    &cfg.faults,
                    &mut held_sends,
                )?;
            }
        }
    }

    // No more joins can fire: drop the master inbox sender so engine
    // hang-ups surface as disconnects in the loops below.
    drop(to_gc);

    // The deadline passed: deliver any coalesced batches before the
    // quiesce/cleanup phases.
    flush_pending(&mut engine_batches, &to_engines, &mut pending_ticks)?;

    // Quiesce: finish (or abort) any in-flight relocation before
    // shutdown so no state is lost mid-transfer. Under chaos, messages
    // may be lost — a blocking receive could wait forever — so the loop
    // advances a virtual clock on receive timeouts: phase deadlines
    // fire (retry, then abort) and engine-held delayed messages release
    // on the ticks we keep sending.
    let mut vnow = deadline;
    while gc.relocation_active()
        || gc.drain_in_progress()
        || awaiting_stats
        || !held_sends.is_empty()
    {
        release_due(&mut held_sends, vnow, &mut send)?;
        match from_engines.recv_timeout(Duration::from_millis(5)) {
            Ok(msg) => {
                let Some(msg) =
                    intercept_drain_cleanup(msg, &mut gc, &mut send, &mut drain_fold, vnow)?
                else {
                    continue;
                };
                handle_coordinator_msg(
                    msg,
                    &mut gc,
                    &mut placement,
                    &mut send,
                    &mut pending_stats,
                    &mut awaiting_stats,
                    &mut relocations,
                    &journal,
                    vnow,
                    split.admitted_watermark(),
                    &cfg.faults,
                    &mut held_sends,
                )?
            }
            Err(RecvTimeoutError::Timeout) => {
                vnow += VirtualDuration::from_millis(200);
                while let Some(action) = gc.check_timeout(vnow) {
                    handle_timeout_action(
                        action,
                        &mut gc,
                        &mut placement,
                        &mut send,
                        &journal,
                        vnow,
                        &cfg.faults,
                        &mut held_sends,
                    )?;
                }
                // Keep ticking so engines release their own held
                // messages; the horizon honours anything still
                // buffered at a paused split.
                let watermark = split.admitted_watermark();
                let horizon = placement.purge_horizon(watermark);
                for e in gc.participating_engines() {
                    send(e, ToEngine::Tick { now: vnow, horizon })?;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DcapeError::Disconnected("engines hung up".into()))
            }
        }
    }

    // Flush any tuples still buffered (there should be none once no
    // relocation is active — assert the protocol invariant). Draining
    // the last round also released the held watermark: nothing may
    // remain buffered at the splits after quiesce.
    debug_assert!(placement.paused_partitions().is_empty());
    debug_assert!(placement.oldest_buffered_ts().is_none());

    // Distributed cleanup, phase 1: every engine forwards its non-owned
    // segments to the partition's owner (the paper's cleanup runs where
    // the partition lives, in parallel across machines).
    let owners: Vec<EngineId> = (0..placement.num_partitions())
        .map(|i| placement.owner(PartitionId(i)))
        .collect::<Result<_>>()?;
    // Only the surviving engines participate in the final cleanup:
    // drained ones already forwarded their segments and exited, and
    // never-joined slots have no thread.
    let final_engines = gc.active_engines();
    for e in &final_engines {
        send(
            *e,
            ToEngine::PrepareCleanup {
                owners: owners.clone(),
            },
        )?;
    }
    let mut ready = 0usize;
    while ready < final_engines.len() {
        match from_engines
            .recv()
            .map_err(|_| DcapeError::Disconnected("engines hung up during cleanup".into()))?
        {
            FromEngine::CleanupReady { .. } => ready += 1,
            // Chaos stragglers: a duplicated or delayed protocol message
            // can still be queued when quiesce exits (the loop stops the
            // moment no round is active, which is exactly when a second
            // copy of the closing ack becomes redundant). No round can be
            // live here, so these are stale by construction — journal and
            // skip, consistent with the runtimes' stale-message handling.
            FromEngine::Ptv { round, engine, .. } => journal.record(
                vnow,
                AdaptEvent::ProtocolWarning {
                    code: "stale_ptv_after_quiesce",
                    engine,
                    round,
                    detail: 2,
                },
            ),
            FromEngine::TransferAck { round, engine, .. } => journal.record(
                vnow,
                AdaptEvent::ProtocolWarning {
                    code: "stale_ack_after_quiesce",
                    engine,
                    round,
                    detail: 6,
                },
            ),
            FromEngine::Stats(_) => {}
            // A duplicated/delayed drain poll reply can trail the
            // drain's completion — stale by construction here.
            FromEngine::DrainState { .. } | FromEngine::JoinReady { .. } => {}
            other => {
                return Err(DcapeError::protocol(format!(
                    "unexpected message during cleanup prepare: {other:?}"
                )))
            }
        }
    }
    // Phase 2: all forwards are enqueued ahead of StartCleanup in every
    // engine's FIFO inbox (each engine forwarded before reporting
    // ready, and we send StartCleanup only after every ready) — the
    // merge can begin.
    for e in &final_engines {
        send(*e, ToEngine::StartCleanup)?;
    }

    // Mid-run drained engines already contributed their outputs,
    // journals and counters through the interception fold.
    let mut runtime_output = drain_fold.runtime_output;
    let mut cleanup_output = drain_fold.cleanup_output;
    let mut cleanup_wall_ms = drain_fold.cleanup_wall_ms;
    let mut spill_counts = vec![0u64; capacity];
    for (engine, count) in &drain_fold.spill_counts {
        spill_counts[engine.index()] = *count;
    }
    let mut engine_journals: Vec<Vec<JournalEntry>> = std::mem::take(&mut drain_fold.journals);
    let mut journal_counters = drain_fold.counters;
    let mut remaining = final_engines.len();
    while remaining > 0 {
        match from_engines
            .recv()
            .map_err(|_| DcapeError::Disconnected("engines hung up during merge".into()))?
        {
            FromEngine::CleanupDone {
                engine,
                runtime_output: out,
                cleanup_output: missed,
                spill_count,
                cleanup_cost_ms,
                journal: engine_journal,
                journal_counters: engine_counters,
            } => {
                runtime_output += out;
                cleanup_output += missed;
                cleanup_wall_ms = cleanup_wall_ms.max(cleanup_cost_ms);
                spill_counts[engine.index()] = spill_count;
                engine_journals.push(engine_journal);
                fold_engine_counters(&mut journal_counters, &engine_counters);
                remaining -= 1;
            }
            // Chaos duplicates of already-settled rounds can trail into
            // the merge — stale by construction, like the prepare loop.
            FromEngine::Ptv { round, engine, .. } => journal.record(
                vnow,
                AdaptEvent::ProtocolWarning {
                    code: "stale_ptv_after_quiesce",
                    engine,
                    round,
                    detail: 2,
                },
            ),
            FromEngine::TransferAck { round, engine, .. } => journal.record(
                vnow,
                AdaptEvent::ProtocolWarning {
                    code: "stale_ack_after_quiesce",
                    engine,
                    round,
                    detail: 6,
                },
            ),
            FromEngine::Stats(_) | FromEngine::DrainState { .. } | FromEngine::JoinReady { .. } => {
            }
            other => {
                return Err(DcapeError::protocol(format!(
                    "unexpected message during merge: {other:?}"
                )))
            }
        }
    }
    for h in handles {
        h.join()
            .map_err(|_| DcapeError::Disconnected("engine thread panicked".into()))?;
    }

    let merged = if cfg.journal {
        engine_journals.push(journal.snapshot());
        merge_journals(engine_journals)
    } else {
        Vec::new()
    };
    if let Some(c) = journal.counters() {
        journal_counters.absorb(&c.snapshot());
    }

    Ok(ThreadedReport {
        runtime_output,
        cleanup_output,
        relocations,
        spill_counts,
        force_spills: gc.force_spills_issued(),
        cleanup_wall_ms,
        journal: merged,
        journal_counters,
    })
}

/// Spawn one engine thread on slot `i` (initial engines at startup,
/// joiners when their scale event fires).
fn spawn_engine(
    i: usize,
    cfg: &SimConfig,
    rx: Receiver<ToEngine>,
    to_gc: &Sender<FromEngine>,
    to_engines: &[Sender<ToEngine>],
) -> thread::JoinHandle<()> {
    let id = EngineId(i as u16);
    let engine_cfg = cfg.engine.clone();
    let to_gc = to_gc.clone();
    let peers = to_engines.to_vec();
    let journal_on = cfg.journal;
    let plan = cfg.faults;
    thread::Builder::new()
        .name(format!("dcape-qe{i}"))
        .spawn(move || engine_main(id, engine_cfg, rx, to_gc, peers, journal_on, plan))
        .expect("spawn engine thread")
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
fn engine_main(
    id: EngineId,
    cfg: dcape_engine::config::EngineConfig,
    rx: Receiver<ToEngine>,
    to_gc: Sender<FromEngine>,
    peers: Vec<Sender<ToEngine>>,
    journal_on: bool,
    plan: FaultPlan,
) {
    let mut core = match EngineCore::new(id, cfg, journal_on) {
        Ok(core) => core,
        Err(e) => panic!("engine {id} failed to start: {e}"),
    };
    let mut tx = ChannelTx { to_gc, peers };
    // Announce readiness: for a mid-run joiner this is what unlocks
    // rebalance moves toward it; for initial engines it is a quiet
    // no-op at the coordinator.
    let _ = tx.to_gc.send(FromEngine::JoinReady { engine: id });
    for msg in rx.iter() {
        match core.handle(msg, &plan, &mut tx) {
            Ok(EngineFlow::Continue) => {}
            // In-process crash-restart: drop all transient state, keep
            // the process (thread) alive — the socket driver's worker
            // exits the real OS process here instead.
            Ok(EngineFlow::CrashRequested) => {
                if let Err(e) = core.qe.crash_restart() {
                    panic!("engine {id} failed to crash-restart: {e}");
                }
            }
            Ok(EngineFlow::Finished) => break,
            Err(e) => panic!("engine {id} failed: {e}"),
        }
    }
}
