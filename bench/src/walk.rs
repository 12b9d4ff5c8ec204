//! The layer walk: one job replayed on one thread through the public
//! calls the runtimes make, with a timer around every call, so each
//! layer's self time can be read off and a job's wall time attributed.
//!
//! Spans are kept in memory and written out when the walk ends. Calls
//! happen per tick; one span per call would cost more to record than
//! the call, so a layer's calls within one *step* (one virtual second)
//! are summed into one span, and a step's spans are laid back to back
//! inside the step span in call order. Relocations, the cleanup phase
//! and the storage pass are steps of their own. A span's self time is
//! its duration minus its children's (`engine.sink` inside
//! `engine.mjoin` and `engine.cleanup`; every layer inside its step).
//!
//! With tracing off the same code runs without reading the clock, which
//! gives the untraced wall time the overhead is measured against.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dcape_cluster::messages::{GroupTransfer, ToEngine};
use dcape_cluster::placement::{PlacementMap, Route};
use dcape_cluster::split::SplitOperator;
use dcape_cluster::wire::{frame_bytes, read_frame, WireMsg};
use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::EngineId;
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_engine::engine::QueryEngine;
use dcape_engine::probe::ProbeSpans;
use dcape_engine::sink::{CountingSink, ResultSink};
use dcape_storage::{FileBackend, SpillStore, SpilledGroup};
use dcape_streamgen::{ArrivalPattern, StreamSetGenerator};

use crate::workloads::{put, Fields, Job, Workload};

/// Ticks coalesced per batch on the channel and socket runtimes.
const MAX_BATCH_TICKS: u32 = 64;

/// A timed layer, named after the module that does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum Layer {
    Streamgen,
    Split,
    Placement,
    WireEncode,
    WireDecode,
    /// `process_batch`, sink time included (`Sink` is its child).
    Mjoin,
    Sink,
    Purge,
    Spill,
    RelocExtract,
    RelocInstall,
    /// `cleanup`, sink time included (`CleanupSink` is its child).
    Cleanup,
    CleanupSink,
    /// Harness bookkeeping between calls; not a layer of the program.
    Other,
    // The storage pass runs outside the walk's wall time.
    CodecEncode,
    CodecDecode,
    StoreMemWrite,
    StoreMemRead,
    StoreFileWrite,
    StoreFileRead,
}

const LAYERS: usize = Layer::StoreFileRead as usize + 1;

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Streamgen,
        Layer::Split,
        Layer::Placement,
        Layer::WireEncode,
        Layer::WireDecode,
        Layer::Mjoin,
        Layer::Sink,
        Layer::Purge,
        Layer::Spill,
        Layer::RelocExtract,
        Layer::RelocInstall,
        Layer::Cleanup,
        Layer::CleanupSink,
        Layer::Other,
        Layer::CodecEncode,
        Layer::CodecDecode,
        Layer::StoreMemWrite,
        Layer::StoreMemRead,
        Layer::StoreFileWrite,
        Layer::StoreFileRead,
    ];

    fn span_name(self) -> &'static str {
        match self {
            Layer::Streamgen => "streamgen",
            Layer::Split => "cluster.split",
            Layer::Placement => "cluster.placement",
            Layer::WireEncode => "cluster.wire.encode",
            Layer::WireDecode => "cluster.wire.decode",
            Layer::Mjoin => "engine.mjoin",
            Layer::Sink | Layer::CleanupSink => "engine.sink",
            Layer::Purge => "engine.purge",
            Layer::Spill => "engine.spill",
            Layer::RelocExtract => "engine.relocate.extract",
            Layer::RelocInstall => "engine.relocate.install",
            Layer::Cleanup => "engine.cleanup",
            Layer::Other => "harness",
            Layer::CodecEncode => "storage.codec.encode",
            Layer::CodecDecode => "storage.codec.decode",
            Layer::StoreMemWrite => "storage.store.mem_write",
            Layer::StoreMemRead => "storage.store.mem_read",
            Layer::StoreFileWrite => "storage.store.file_write",
            Layer::StoreFileRead => "storage.store.file_read",
        }
    }

    /// The span this layer's time is nested in, if not the step itself.
    fn nested_in(self) -> Option<Layer> {
        match self {
            Layer::Sink => Some(Layer::Mjoin),
            Layer::CleanupSink => Some(Layer::Cleanup),
            _ => None,
        }
    }
}

/// One recorded span. `parent` 0 is the walk itself.
#[derive(Debug, Clone, Copy)]
struct Span {
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    last: Instant,
    step_start_ns: u64,
    /// Nanoseconds per layer: in the open step, and over the whole walk.
    step: [u64; LAYERS],
    total: [u64; LAYERS],
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        let now = Instant::now();
        Tracer {
            on,
            origin: now,
            last: now,
            step_start_ns: 0,
            step: [0; LAYERS],
            total: [0; LAYERS],
            spans: Vec::new(),
        }
    }

    /// Charge the time since the previous lap to `layer`.
    #[inline]
    fn lap(&mut self, layer: Layer) {
        if self.on {
            let now = Instant::now();
            self.step[layer as usize] += (now - self.last).as_nanos() as u64;
            self.last = now;
        }
    }

    /// Book the sink time measured inside the last call under `layer`.
    fn take_sink(&mut self, sink: &mut TimedSink, layer: Layer) {
        self.step[layer as usize] += std::mem::take(&mut sink.ns);
    }

    /// Restart the clock after time that belongs to no step.
    fn resume(&mut self) {
        self.last = Instant::now();
        self.step_start_ns = (self.last - self.origin).as_nanos() as u64;
    }

    fn push(&mut self, parent: u32, name: &'static str, start_ns: u64, dur_ns: u64) -> u32 {
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.spans.len() as u32
    }

    /// Close the open step: one span per layer that ran, laid end to end
    /// inside a `name` span, sink time nested in its caller's span.
    fn end_step(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let end_ns = (self.last - self.origin).as_nanos() as u64;
        let step = self.push(0, name, self.step_start_ns, end_ns - self.step_start_ns);
        let mut at = self.step_start_ns;
        for layer in Layer::ALL {
            let ns = self.step[layer as usize];
            if ns == 0 || layer.nested_in().is_some() {
                continue;
            }
            let id = self.push(step, layer.span_name(), at, ns);
            for child in Layer::ALL {
                let child_ns = self.step[child as usize];
                if child.nested_in() == Some(layer) && child_ns > 0 {
                    self.push(id, child.span_name(), at, child_ns.min(ns));
                }
            }
            at += ns;
        }
        for (total, step) in self.total.iter_mut().zip(&mut self.step) {
            *total += std::mem::take(step);
        }
        self.step_start_ns = end_ns;
    }

    /// Seconds spent in `layer` itself, its nested children taken out.
    fn self_s(&self, layer: Layer) -> f64 {
        let children: u64 = Layer::ALL
            .iter()
            .filter(|c| c.nested_in() == Some(layer))
            .map(|&c| self.total[c as usize])
            .sum();
        self.total[layer as usize].saturating_sub(children) as f64 / 1e9
    }

    fn write_jsonl(&self, path: &Path, run: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"run\": \"{run}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One in this many `emit_product` calls is timed and stands for all of
/// them: the call costs about as much as reading the clock twice, and on
/// the all-memory job timing every call was half the tracing overhead.
const SINK_TIMED_EVERY: u64 = 4;

/// Counting sink that times the probe products delivered to it.
struct TimedSink {
    inner: CountingSink,
    on: bool,
    ns: u64,
    products: u64,
}

impl ResultSink for TimedSink {
    fn emit(&mut self, parts: &[&Tuple]) {
        self.inner.emit(parts);
    }

    #[inline]
    fn emit_product(&mut self, spans: &ProbeSpans<'_, '_>) -> u64 {
        self.products += 1;
        if !self.on || !self.products.is_multiple_of(SINK_TIMED_EVERY) {
            return self.inner.emit_product(spans);
        }
        let start = Instant::now();
        let n = self.inner.emit_product(spans);
        self.ns += start.elapsed().as_nanos() as u64 * SINK_TIMED_EVERY;
        n
    }

    fn wants_rows(&self) -> bool {
        false
    }
}

/// What one walk produced.
#[derive(Debug)]
pub struct WalkOutcome {
    pub total_output: u64,
    /// Run-time phase plus cleanup; the storage pass is not part of it.
    pub wall_s: f64,
    /// Per-layer metrics (times are zero when the walk was untraced).
    pub fields: Fields,
}

/// Everything the walk's steps share.
struct Walk<'a> {
    job: &'a Job,
    tr: Tracer,
    sink: TimedSink,
    engines: Vec<QueryEngine>,
    placement: PlacementMap,
    split: SplitOperator,
    batches: Vec<TupleBatch>,
    /// Frames go through the wire codec (socket workload only).
    wire: bool,
    wire_seq: u64,
    wire_bytes: u64,
    buffered: u64,
    purge_calls: u64,
    /// Accounted bytes of one stored tuple (constant per workload).
    row_bytes: u64,
    /// Live rows summed over purge calls: what the purges had to scan.
    rows_scanned: u64,
    reloc_groups: u64,
    reloc_bytes: u64,
}

impl Walk<'_> {
    fn state_bytes(&self) -> u64 {
        self.engines.iter().map(QueryEngine::memory_used).sum()
    }

    /// One frame through `frame_bytes` / `read_frame`, as the socket
    /// runtime's coordinator and worker do.
    fn through_wire(&mut self, msg: ToEngine) -> Result<ToEngine> {
        self.wire_seq += 1;
        let frame = frame_bytes(self.wire_seq, &WireMsg::Engine(msg))?;
        self.tr.lap(Layer::WireEncode);
        self.wire_bytes += frame.len() as u64;
        let decoded = read_frame(&mut frame.as_slice())?;
        self.tr.lap(Layer::WireDecode);
        match decoded {
            Some((_, WireMsg::Engine(msg))) => Ok(msg),
            other => Err(DcapeError::codec(format!(
                "frame decoded to {other:?}, not an engine message"
            ))),
        }
    }

    /// Deliver every pending batch to its engine.
    fn flush(&mut self) -> Result<()> {
        for i in 0..self.engines.len() {
            if self.batches[i].is_empty() {
                continue;
            }
            let mut tuples = std::mem::take(&mut self.batches[i]);
            self.tr.lap(Layer::Other);
            if self.wire {
                match self.through_wire(ToEngine::DataBatch { tuples })? {
                    ToEngine::DataBatch { tuples: decoded } => tuples = decoded,
                    other => return Err(DcapeError::codec(format!("unexpected frame {other:?}"))),
                }
            }
            self.engines[i].process_batch(tuples, &mut self.sink)?;
            self.tr.lap(Layer::Mjoin);
            self.tr.take_sink(&mut self.sink, Layer::Sink);
        }
        Ok(())
    }

    /// The clock pulse every engine gets: `tick_with_horizon`, which
    /// purges to the watermark horizon and then checks the spill
    /// trigger. It is one call, so its time goes to the purge layer on
    /// a windowed job unless the call spilled, and to the spill layer
    /// otherwise (no workload both windows and spills).
    fn clock(&mut self, now: VirtualTime) -> Result<()> {
        let horizon = self
            .placement
            .purge_horizon(self.split.admitted_watermark());
        let windowed = self.job.window_ms().is_some();
        if windowed && self.row_bytes > 0 {
            self.rows_scanned += self.state_bytes() / self.row_bytes;
        }
        self.tr.lap(Layer::Other);
        for e in &mut self.engines {
            let spilled = e.tick_with_horizon(now, horizon)?.is_some();
            if windowed && !spilled {
                self.purge_calls += 1;
                self.tr.lap(Layer::Purge);
            } else {
                self.tr.lap(Layer::Spill);
            }
        }
        Ok(())
    }

    /// A scripted relocation between two engines, run at a skew flip:
    /// the fuller engine ships half the difference to the other, through
    /// the calls (and the `InstallStates` frame) a real round uses.
    fn relocate(&mut self) -> Result<()> {
        let used: Vec<u64> = self.engines.iter().map(QueryEngine::memory_used).collect();
        let (from, to) = if used[0] >= used[1] { (0, 1) } else { (1, 0) };
        let amount = (used[from] - used[to]) / 2;
        if amount == 0 {
            return Ok(());
        }
        self.tr.lap(Layer::Other);
        let pids = self.engines[from].select_parts_to_move(amount);
        let groups = self.engines[from].extract_groups(&pids);
        self.tr.lap(Layer::RelocExtract);
        self.placement.pause(&pids)?;
        let declared_bytes: u64 = groups.iter().map(|g| g.0.state_bytes() as u64).sum();
        self.reloc_groups += groups.len() as u64;
        self.reloc_bytes += declared_bytes;
        let msg = ToEngine::InstallStates {
            round: self.reloc_groups,
            sender: EngineId(from as u16),
            groups: groups
                .into_iter()
                .map(|(snapshot, output_count, purge_protect)| GroupTransfer {
                    snapshot,
                    output_count,
                    purge_protect,
                })
                .collect(),
            attempt: 0,
            declared_bytes,
        };
        self.tr.lap(Layer::Other);
        let ToEngine::InstallStates { groups, .. } = self.through_wire(msg)? else {
            return Err(DcapeError::codec("InstallStates changed kind on the wire"));
        };
        let groups = groups
            .into_iter()
            .map(|g| (g.snapshot, g.output_count, g.purge_protect))
            .collect();
        self.tr.lap(Layer::Other);
        self.engines[to].install_groups(groups)?;
        self.tr.lap(Layer::RelocInstall);
        // Nothing was routed meanwhile, so the pause buffers are empty.
        self.placement
            .remap_and_release(&pids, EngineId(to as u16))?;
        self.tr.lap(Layer::Placement);
        Ok(())
    }

    /// Re-encode and decode every spilled group, and write and read it
    /// through a `SpillStore` over memory (the engine's own) and over
    /// real files. Leaves the engines' stores as it found them.
    fn storage_pass(&mut self, dir: &Path) -> Result<(u64, u64)> {
        let codec = self.job.cfg.engine.spill_codec;
        let mut files = SpillStore::with_codec(Box::new(FileBackend::new(dir)?), codec);
        let (mut bytes_in, mut bytes_out) = (0u64, 0u64);
        self.tr.resume();
        for e in &mut self.engines {
            for pid in e.spilled_partitions() {
                let segments = e.take_spilled_segments(pid)?;
                self.tr.lap(Layer::StoreMemRead);
                for group in &segments {
                    let encoded = group.encode_with(codec);
                    self.tr.lap(Layer::CodecEncode);
                    bytes_in += group.state_bytes() as u64;
                    bytes_out += encoded.len() as u64;
                    self.tr.lap(Layer::Other);
                    let decoded = SpilledGroup::decode(encoded)?;
                    self.tr.lap(Layer::CodecDecode);
                    if decoded != *group {
                        return Err(DcapeError::codec("spilled group changed in the codec"));
                    }
                    drop(decoded);
                    self.tr.lap(Layer::Other);
                    files.spill_group(group)?;
                    self.tr.lap(Layer::StoreFileWrite);
                }
                e.import_segments(segments)?;
                self.tr.lap(Layer::StoreMemWrite);
            }
        }
        for pid in files.partitions_with_segments() {
            let segments = files.take_segments(pid)?;
            self.tr.lap(Layer::StoreFileRead);
            drop(segments);
            self.tr.lap(Layer::Other);
        }
        self.tr.end_step("storage_pass");
        Ok((bytes_in, bytes_out))
    }
}

/// Replay `job` single-threaded. `scratch` is a directory the storage
/// pass may create, fill and remove; `trace_out` receives the spans.
pub fn walk(
    job: &Job,
    traced: bool,
    scratch: &Path,
    trace_out: Option<&Path>,
) -> Result<WalkOutcome> {
    let cfg = &job.cfg;
    let spec = &cfg.workload;
    let streams = spec.num_streams;
    let mut gen = StreamSetGenerator::new(spec.clone())?;
    let split = SplitOperator::new(
        gen.partitioner(),
        vec![StreamSetGenerator::JOIN_COLUMN; streams],
    )?;
    let engines = (0..cfg.num_engines)
        .map(|i| QueryEngine::in_memory(EngineId(i as u16), cfg.engine.clone()))
        .collect::<Result<Vec<_>>>()?;
    // The sim delivers one batch per tick and pulses every engine's
    // clock each tick; the other runtimes coalesce up to 64 ticks and
    // pulse once per virtual second.
    let per_tick = job.workload == Workload::SpillCleanupSim;
    let batch_ticks = if per_tick { 1 } else { MAX_BATCH_TICKS };
    let flip = match &spec.pattern {
        ArrivalPattern::AlternatingSkew { period, .. } if cfg.num_engines == 2 => Some(*period),
        _ => None,
    };
    let mut w = Walk {
        job,
        tr: Tracer::new(traced),
        sink: TimedSink {
            inner: CountingSink::new(),
            on: traced,
            ns: 0,
            products: 0,
        },
        placement: PlacementMap::new(&cfg.placement, spec.num_partitions, cfg.num_engines)?,
        split,
        batches: (0..cfg.num_engines).map(|_| TupleBatch::new()).collect(),
        engines,
        wire: job.workload == Workload::SkewWindowSocket,
        wire_seq: 0,
        wire_bytes: 0,
        buffered: 0,
        purge_calls: 0,
        row_bytes: 0,
        rows_scanned: 0,
        reloc_groups: 0,
        reloc_bytes: 0,
    };

    let mut second = PeriodicTimer::new(VirtualDuration::from_secs(1), VirtualTime::ZERO);
    let mut next_flip = flip.map(|p| VirtualTime::ZERO + p);
    let mut tick: Vec<Tuple> = Vec::new();
    let mut pids = Vec::new();
    let mut pending = 0u32;
    let start = Instant::now();
    w.tr.resume();
    while gen.ticks() < job.ticks {
        let now = gen.tick_batch(&mut tick);
        w.tr.lap(Layer::Streamgen);
        if let (Some(at), Some(period)) = (next_flip, flip) {
            if now >= at {
                w.flush()?;
                pending = 0;
                w.tr.end_step("step");
                w.relocate()?;
                w.tr.end_step("relocation");
                next_flip = Some(at + period);
            }
        }
        pids.clear();
        for tuple in &tick {
            pids.push(w.split.classify(tuple)?);
        }
        w.tr.lap(Layer::Split);
        for (tuple, &pid) in tick.drain(..).zip(&pids) {
            match w.placement.route(pid, tuple)? {
                Route::Deliver(engine, tuple) => w.batches[engine.index()].push(pid, tuple),
                Route::Buffered => w.buffered += 1,
            }
        }
        w.tr.lap(Layer::Placement);
        pending += 1;
        let pulse = second.expired(now);
        if pending >= batch_ticks || pulse {
            w.flush()?;
            pending = 0;
        }
        if w.row_bytes == 0 && gen.ticks() == 1 {
            w.flush()?;
            w.row_bytes = w.state_bytes() / streams as u64;
        }
        if per_tick || pulse {
            w.clock(now)?;
        }
        if pulse {
            second.reset(now);
            w.tr.lap(Layer::Other);
            w.tr.end_step("step");
        }
    }
    w.flush()?;
    w.clock(job.deadline())?;
    w.tr.lap(Layer::Other);
    w.tr.end_step("step");
    let run_phase = start.elapsed();
    let routed = job.tuples() - w.buffered;
    let rows_purged = match job.window_ms() {
        Some(_) if w.row_bytes > 0 => routed.saturating_sub(w.state_bytes() / w.row_bytes),
        _ => 0,
    };
    let runtime_output = w.sink.inner.count();

    let (mut codec_in, mut codec_out) = (0, 0);
    if traced {
        let result = w.storage_pass(scratch);
        let _ = std::fs::remove_dir_all(scratch);
        (codec_in, codec_out) = result?;
    }

    let cleanup_start = Instant::now();
    w.tr.resume();
    let mut segments = 0u64;
    for e in &mut w.engines {
        segments += e
            .spilled_partitions()
            .iter()
            .map(|&pid| e.spilled_segment_metas(pid).len() as u64)
            .sum::<u64>();
        w.tr.lap(Layer::Other);
        e.cleanup(&mut w.sink)?;
        w.tr.lap(Layer::Cleanup);
        w.tr.take_sink(&mut w.sink, Layer::CleanupSink);
    }
    w.tr.end_step("cleanup");
    let wall_s = (run_phase + cleanup_start.elapsed()).as_secs_f64();
    let total_output = w.sink.inner.count();

    if let Some(path) = trace_out {
        let run = format!("{}-{}", job.workload.name(), spec.seed);
        w.tr.write_jsonl(path, &run).map_err(DcapeError::Io)?;
    }

    let tr = &w.tr;
    let tuples = job.tuples() as f64;
    let per = |secs: f64, n: f64| if n > 0.0 { secs * 1e9 / n } else { 0.0 };
    let mut f = Fields::new();
    put(&mut f, "walk.wall_s", wall_s);
    for (name, layer) in [
        ("streamgen", Layer::Streamgen),
        ("cluster.split", Layer::Split),
        ("cluster.placement", Layer::Placement),
        ("engine.mjoin", Layer::Mjoin),
    ] {
        put(&mut f, &format!("{name}.self_s"), tr.self_s(layer));
        put(
            &mut f,
            &format!("{name}.ns_per_tuple"),
            per(tr.self_s(layer), tuples),
        );
    }
    put(
        &mut f,
        "cluster.placement.buffered_tuples",
        w.buffered as f64,
    );
    put(
        &mut f,
        "engine.sink.self_s",
        tr.self_s(Layer::Sink) + tr.self_s(Layer::CleanupSink),
    );
    put(&mut f, "engine.sink.products", w.sink.products as f64);
    put(&mut f, "engine.sink.results", total_output as f64);
    put(&mut f, "engine.purge.self_s", tr.self_s(Layer::Purge));
    put(&mut f, "engine.purge.calls", w.purge_calls as f64);
    put(&mut f, "engine.purge.rows_purged", rows_purged as f64);
    put(
        &mut f,
        "engine.purge.ns_per_live_row",
        per(tr.self_s(Layer::Purge), w.rows_scanned as f64),
    );
    let wire_s = tr.self_s(Layer::WireEncode) + tr.self_s(Layer::WireDecode);
    put(
        &mut f,
        "cluster.wire.encode_self_s",
        tr.self_s(Layer::WireEncode),
    );
    put(
        &mut f,
        "cluster.wire.decode_self_s",
        tr.self_s(Layer::WireDecode),
    );
    put(&mut f, "cluster.wire.bytes", w.wire_bytes as f64);
    put(
        &mut f,
        "cluster.wire.ns_per_byte",
        per(wire_s, w.wire_bytes as f64),
    );
    let spills = w.engines.iter().flat_map(|e| e.spill_history());
    put(&mut f, "engine.spill.total_s", tr.self_s(Layer::Spill));
    put(&mut f, "engine.spill.count", spills.clone().count() as f64);
    put(
        &mut f,
        "engine.spill.state_bytes",
        spills.map(|s| s.state_bytes).sum::<u64>() as f64,
    );
    put(
        &mut f,
        "storage.codec.encode_s",
        tr.self_s(Layer::CodecEncode),
    );
    put(
        &mut f,
        "storage.codec.decode_s",
        tr.self_s(Layer::CodecDecode),
    );
    put(&mut f, "storage.codec.bytes_in", codec_in as f64);
    put(&mut f, "storage.codec.bytes_out", codec_out as f64);
    put(
        &mut f,
        "storage.codec.compression_ratio",
        if codec_out > 0 {
            codec_in as f64 / codec_out as f64
        } else {
            0.0
        },
    );
    for (name, layer) in [
        ("mem_write_s", Layer::StoreMemWrite),
        ("mem_read_s", Layer::StoreMemRead),
        ("file_write_s", Layer::StoreFileWrite),
        ("file_read_s", Layer::StoreFileRead),
    ] {
        put(&mut f, &format!("storage.store.{name}"), tr.self_s(layer));
    }
    put(&mut f, "engine.cleanup.self_s", tr.self_s(Layer::Cleanup));
    put(&mut f, "engine.cleanup.segments", segments as f64);
    put(
        &mut f,
        "engine.cleanup.results",
        (total_output - runtime_output) as f64,
    );
    put(
        &mut f,
        "engine.relocate.extract_self_s",
        tr.self_s(Layer::RelocExtract),
    );
    put(
        &mut f,
        "engine.relocate.install_self_s",
        tr.self_s(Layer::RelocInstall),
    );
    put(&mut f, "engine.relocate.bytes", w.reloc_bytes as f64);
    put(&mut f, "engine.relocate.groups", w.reloc_groups as f64);
    // Layers of the program only: the harness's own bookkeeping and the
    // storage pass are outside what the walk's wall time is made of.
    let covered: f64 = Layer::ALL[..Layer::Other as usize]
        .iter()
        .map(|&l| tr.self_s(l))
        .sum();
    put(
        &mut f,
        "trace.coverage",
        if traced { covered / wall_s } else { 0.0 },
    );
    Ok(WalkOutcome {
        total_output,
        wall_s,
        fields: f,
    })
}
