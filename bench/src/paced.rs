//! Workload 4's open loop: a pacer releases batches on a wall-clock
//! schedule whether or not the engine keeps up, so queueing shows.
//!
//! The pacer (this thread) runs generate → classify → route →
//! `TupleBatch::push` ahead of time and releases each 64-tick batch at
//! the instant its last tuple is *due* under the fixed rate. The engine
//! thread runs `process_batch`, and `tick_with_horizon` (purge + spill
//! check) once per virtual second. A batch's result latency is the time
//! its `process_batch` returns — every result it contributes to has
//! been emitted by then — minus its due time, so a stall is charged to
//! every batch that waited behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dcape_cluster::placement::{PlacementMap, Route};
use dcape_cluster::split::SplitOperator;
use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::EngineId;
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::CountingSink;
use dcape_streamgen::StreamSetGenerator;

use crate::stats::percentile;
use crate::workloads::{put, Fields, Job};

/// Generator ticks per released batch (the threaded driver's cap).
pub const BATCH_TICKS: u64 = 64;
/// Latency limit: a rate at which the typical (median) batch misses it
/// is not sustained — a backlog is building — and all its batches count
/// as failed. The limit is on the median, not a high percentile, because
/// the reference box's hypervisor now and then stalls both threads for
/// up to ~0.4 s: that alone puts 5-10 % of a phase's batches over 50 ms
/// (1 run in 15), and is not the program's doing.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// A single batch later than this counts as lost.
pub const LOST_AFTER_MS: f64 = 1000.0;
/// Final approach to a due time is spun, not slept: the scheduler's
/// wake-up jitter is larger than a batch interval at the `hi` rate.
const SPIN: Duration = Duration::from_micros(150);

/// Whole batches' worth of ticks that `secs` seconds at `rate` tuples/s
/// of a `streams`-stream input amount to.
pub fn phase_ticks(rate: f64, secs: f64, streams: usize) -> u64 {
    (rate * secs / streams as f64) as u64 / BATCH_TICKS * BATCH_TICKS
}

enum Msg {
    Batch {
        tuples: TupleBatch,
        due: Instant,
        /// Index into the job's recorded phases; `None` while warming up.
        phase: Option<usize>,
    },
    Tick {
        now: VirtualTime,
        horizon: VirtualTime,
    },
}

#[derive(Default)]
struct EngineSide {
    /// Result latency per batch, per recorded phase, in ms.
    latency_ms: Vec<Vec<f64>>,
    busy: Duration,
    results: u64,
}

#[derive(Default)]
struct PacerSide {
    lag_ms: Vec<f64>,
    busy: Duration,
    depth_max: usize,
    recorded_tuples: u64,
    recorded_span: Duration,
}

/// Run the paced job: an unrecorded lead-in at the first rate, then one
/// recorded phase per rate, back to back over the same engine state.
pub fn run(job: &Job) -> Result<Fields> {
    let start = Instant::now();
    let mut engine = QueryEngine::in_memory(EngineId(0), job.cfg.engine.clone())?;
    let (tx, rx) = mpsc::channel::<Msg>();
    let depth = AtomicUsize::new(0);
    let phases = job.phases.len();
    let (pacer, engine_side) = std::thread::scope(|s| {
        let consumer = s.spawn(|| consume(rx, &mut engine, &depth, phases));
        let pacer = pace(job, tx, &depth);
        let engine_side = consumer
            .join()
            .unwrap_or_else(|_| Err(DcapeError::state("paced engine thread panicked")));
        (pacer, engine_side)
    });
    let (pacer, engine_side) = (pacer?, engine_side?);

    let mut f = Fields::new();
    put(&mut f, "wall_s", start.elapsed().as_secs_f64());
    put(&mut f, "tuples_routed", job.tuples() as f64);
    put(&mut f, "runtime_output", engine_side.results as f64);
    put(&mut f, "total_output", engine_side.results as f64);
    let mut sent = 0u64;
    let mut late = 0u64;
    for ((label, _, _), latencies) in job.phases.iter().zip(&engine_side.latency_ms) {
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        sent += sorted.len() as u64;
        late += if percentile(&sorted, 50.0) > LATENCY_LIMIT_MS {
            sorted.len() as u64
        } else {
            sorted.iter().filter(|&&l| l > LOST_AFTER_MS).count() as u64
        };
        for (name, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("max", 100.0)] {
            put(
                &mut f,
                &format!("result_latency_{name}_ms_{label}"),
                percentile(&sorted, p),
            );
        }
    }
    put(&mut f, "recorded_tuples", pacer.recorded_tuples as f64);
    put(&mut f, "batches_sent", sent as f64);
    put(&mut f, "batches_failed", late as f64);
    let mut lag = pacer.lag_ms;
    lag.sort_by(f64::total_cmp);
    put(&mut f, "pacer.lag_p99_ms", percentile(&lag, 99.0));
    let span = pacer.recorded_span.as_secs_f64();
    let rate = |busy: f64| {
        if busy > 0.0 {
            pacer.recorded_tuples as f64 / busy
        } else {
            0.0
        }
    };
    put(&mut f, "pacer.achieved_rate_tps", rate(span));
    put(&mut f, "queue.depth_max", pacer.depth_max as f64);
    put(&mut f, "pacer.busy_s", pacer.busy.as_secs_f64());
    put(&mut f, "engine.busy_s", engine_side.busy.as_secs_f64());
    // The rate the busier stage could sustain with no idle time: above
    // it the queue between the two threads grows without bound.
    put(
        &mut f,
        "sustainable_tps",
        rate(pacer.busy.max(engine_side.busy).as_secs_f64()),
    );
    Ok(f)
}

fn pace(job: &Job, tx: mpsc::Sender<Msg>, depth: &AtomicUsize) -> Result<PacerSide> {
    let spec = &job.cfg.workload;
    let streams = spec.num_streams;
    let mut gen = StreamSetGenerator::new(spec.clone())?;
    let mut split = SplitOperator::new(
        gen.partitioner(),
        vec![StreamSetGenerator::JOIN_COLUMN; streams],
    )?;
    let mut placement = PlacementMap::new(&job.cfg.placement, spec.num_partitions, 1)?;
    let mut second = PeriodicTimer::new(VirtualDuration::from_secs(1), VirtualTime::ZERO);
    let mut tick = Vec::new();
    let mut out = PacerSide::default();

    let recorded: u64 = job.phases.iter().map(|p| p.2).sum();
    let lead_in = job
        .phases
        .first()
        .map(|p| (None, p.1, job.ticks - recorded));
    let plan = lead_in.into_iter().chain(
        job.phases
            .iter()
            .enumerate()
            .map(|(i, &(_, rate, ticks))| (Some(i), rate, ticks)),
    );
    let mut due = Instant::now();
    let mut recorded_from = None;
    for (phase, rate, ticks) in plan {
        if phase.is_some() && recorded_from.is_none() {
            recorded_from = Some(due);
        }
        let mut left = ticks;
        while left > 0 {
            let n = left.min(BATCH_TICKS);
            left -= n;
            let began = Instant::now();
            let mut tuples = TupleBatch::with_capacity(n as usize * streams);
            let mut now = VirtualTime::ZERO;
            for _ in 0..n {
                now = gen.tick_batch(&mut tick);
                for tuple in tick.drain(..) {
                    let pid = split.classify(&tuple)?;
                    match placement.route(pid, tuple)? {
                        Route::Deliver(_, tuple) => tuples.push(pid, tuple),
                        Route::Buffered => {
                            return Err(DcapeError::state("paced run paused a partition"))
                        }
                    }
                }
            }
            if phase.is_some() {
                out.busy += began.elapsed();
                out.recorded_tuples += tuples.len() as u64;
            }
            due += Duration::from_secs_f64(tuples.len() as f64 / rate);
            loop {
                let ahead = due.saturating_duration_since(Instant::now());
                if ahead.is_zero() {
                    break;
                } else if ahead > SPIN {
                    std::thread::sleep(ahead - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
            if phase.is_some() {
                out.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                out.depth_max = out.depth_max.max(depth.fetch_add(1, Ordering::Relaxed) + 1);
            } else {
                depth.fetch_add(1, Ordering::Relaxed);
            }
            let gone = |_| DcapeError::Disconnected("paced engine thread hung up".into());
            tx.send(Msg::Batch { tuples, due, phase }).map_err(gone)?;
            if second.expired(now) {
                second.reset(now);
                let horizon = placement.purge_horizon(split.admitted_watermark());
                tx.send(Msg::Tick { now, horizon }).map_err(gone)?;
            }
        }
    }
    if let Some(from) = recorded_from {
        out.recorded_span = from.elapsed();
    }
    Ok(out)
}

fn consume(
    rx: mpsc::Receiver<Msg>,
    engine: &mut QueryEngine,
    depth: &AtomicUsize,
    phases: usize,
) -> Result<EngineSide> {
    let mut out = EngineSide {
        latency_ms: vec![Vec::new(); phases],
        ..EngineSide::default()
    };
    let mut sink = CountingSink::new();
    let mut recording = false;
    for msg in rx {
        let began = Instant::now();
        match msg {
            Msg::Batch { tuples, due, phase } => {
                depth.fetch_sub(1, Ordering::Relaxed);
                engine.process_batch(tuples, &mut sink)?;
                recording = phase.is_some();
                if let Some(p) = phase {
                    out.latency_ms[p].push(due.elapsed().as_secs_f64() * 1e3);
                }
            }
            Msg::Tick { now, horizon } => {
                engine.tick_with_horizon(now, horizon)?;
            }
        }
        if recording {
            out.busy += began.elapsed();
        }
    }
    engine.cleanup(&mut sink)?;
    out.results = sink.count();
    Ok(out)
}
