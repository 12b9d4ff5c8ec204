//! Every metric the benchmark reports, by name, with its unit, its
//! direction and (end to end) the bound it may worsen by.
//!
//! `BENCHMARK.json` is generated from these tables (`dcape-bench
//! manifest`), so the file and the program cannot disagree.

use crate::json::Json;
use crate::workloads::Workload;

use Workload::{
    AllmemUniformThreaded as W1, PacedWindowLatency as W4, SkewWindowSocket as W3,
    SpillCleanupSim as W2,
};

/// Seed used when none is given, and while the benchmark was developed.
pub const DEFAULT_SEED: u64 = 20070415;
/// Seconds one contract run measures for.
pub const RUN_SECONDS: u64 = 16;

/// An end-to-end metric: something an operator of the join sees.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median it may worsen by.
    pub bound: f64,
    /// Workloads it is defined on.
    pub on: &'static [Workload],
}

impl EndToEnd {
    /// The contract in `BENCHMARK.json` wants every `end_to_end` metric
    /// from every workload, never zero, and steady from seed to seed.
    /// Set-up time, throughput and peak memory are; the others exist on
    /// one workload only, or are zero when all is well, or (the result
    /// share, 6-9 % depending on which partitions a seed makes the
    /// engines spill) move more between seeds than any bound allows.
    /// Those are listed under `per_layer` there, so every traced run
    /// still records them; `all` and `compare` treat all eleven alike.
    pub fn in_contract(&self) -> bool {
        matches!(
            self.name,
            "setup_s" | "throughput_tuples_per_s" | "peak_rss_mib"
        )
    }

    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

const EVERY: &[Workload] = &Workload::ALL;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        on: EVERY,
    },
    EndToEnd {
        name: "throughput_tuples_per_s",
        unit: "tuples/s",
        higher_is_better: true,
        bound: 0.25,
        on: EVERY,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
        on: EVERY,
    },
    EndToEnd {
        name: "runtime_result_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.01,
        on: EVERY,
    },
    EndToEnd {
        name: "cleanup_phase_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        on: &[W2],
    },
    EndToEnd {
        name: "spill_bytes_written",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.01,
        on: &[W2],
    },
    EndToEnd {
        name: "result_latency_p50_ms_lo",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        on: &[W4],
    },
    EndToEnd {
        name: "result_latency_p50_ms_hi",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        on: &[W4],
    },
    // Zero when all is well, so it has no relative bound: any failure is
    // a regression (`compare` treats a non-zero value as worse).
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.0,
        on: EVERY,
    },
];

/// A per-layer metric: name, unit, and whether more is better.
pub type PerLayer = (&'static str, &'static str, bool);

pub const PER_LAYER: &[PerLayer] = &[
    ("streamgen.self_s", "s", false),
    ("streamgen.ns_per_tuple", "ns", false),
    ("cluster.split.self_s", "s", false),
    ("cluster.split.ns_per_tuple", "ns", false),
    ("cluster.placement.self_s", "s", false),
    ("cluster.placement.ns_per_tuple", "ns", false),
    ("cluster.placement.buffered_tuples", "count", false),
    ("engine.mjoin.self_s", "s", false),
    ("engine.mjoin.ns_per_tuple", "ns", false),
    ("engine.sink.self_s", "s", false),
    ("engine.sink.products", "count", false),
    ("engine.sink.results", "count", true),
    ("engine.purge.self_s", "s", false),
    ("engine.purge.calls", "count", false),
    ("engine.purge.rows_purged", "count", false),
    ("engine.purge.ns_per_live_row", "ns", false),
    ("cluster.wire.encode_self_s", "s", false),
    ("cluster.wire.decode_self_s", "s", false),
    ("cluster.wire.bytes", "bytes", false),
    ("cluster.wire.ns_per_byte", "ns", false),
    ("engine.spill.total_s", "s", false),
    ("engine.spill.count", "count", false),
    ("engine.spill.state_bytes", "bytes", false),
    ("storage.codec.encode_s", "s", false),
    ("storage.codec.decode_s", "s", false),
    ("storage.codec.bytes_in", "bytes", false),
    ("storage.codec.bytes_out", "bytes", false),
    ("storage.codec.compression_ratio", "ratio", true),
    ("storage.store.mem_write_s", "s", false),
    ("storage.store.mem_read_s", "s", false),
    ("storage.store.file_write_s", "s", false),
    ("storage.store.file_read_s", "s", false),
    ("engine.cleanup.self_s", "s", false),
    ("engine.cleanup.segments", "count", false),
    ("engine.cleanup.results", "count", false),
    ("engine.relocate.extract_self_s", "s", false),
    ("engine.relocate.install_self_s", "s", false),
    ("engine.relocate.bytes", "bytes", false),
    ("engine.relocate.groups", "count", false),
    ("run.relocations", "count", false),
    ("run.relocation_bytes", "bytes", false),
    ("run.transfer_bytes", "bytes", false),
    ("run.rounds_aborted", "count", false),
    ("run.msgs_retried", "count", false),
    ("run.watermark_held_ms", "ms", false),
    ("run.purges_deferred", "count", false),
    ("run.replayed_in_order", "count", false),
    ("run.spill_count", "count", false),
    ("run.force_spills", "count", false),
    ("run.spill_bytes", "bytes", false),
    ("run.spill_bytes_read", "bytes", false),
    ("runtime.wall_minus_walk_s", "s", false),
    ("runtime.speedup_vs_walk", "ratio", true),
    ("pacer.lag_p99_ms", "ms", false),
    ("pacer.achieved_rate_tps", "tuples/s", true),
    ("queue.depth_max", "count", false),
    // The two p95s were meant to be end-to-end metrics. Run to run they
    // range over 0.4-1.5 ms (and to 34 ms when the hypervisor stalls a
    // phase), so no bound resolves them; they are recorded here instead.
    ("result_latency_p95_ms_lo", "ms", false),
    ("result_latency_p95_ms_hi", "ms", false),
    ("result_latency_p99_ms_lo", "ms", false),
    ("result_latency_p99_ms_hi", "ms", false),
    ("result_latency_max_ms_hi", "ms", false),
    ("trace.coverage", "ratio", true),
    ("trace.overhead_share", "ratio", false),
    ("calib.mops_start", "Mop/s", true),
    ("calib.mops_end", "Mop/s", true),
    ("harness.prep_s", "s", false),
];

/// The contract file, generated: the end-to-end metrics defined on
/// every workload carry bounds; the single-workload ones ride along as
/// per-layer metrics so every run still records them.
pub fn manifest() -> Json {
    let workloads = [
        (W1, "state only grows in memory: generate, split/route, channel and probe/count/insert do all the work; purge, spill, cleanup, relocation and wire do none"),
        (W2, "memory is the bottleneck: victim selection, spill encode/write, cleanup read/merge and lazy-disk relocation dominate, single-threaded and bit-deterministic"),
        (W3, "window-bounded state under alternating skew over TCP: purge, frame encode/decode and live relocation rounds carry the cost while probe lists stay short"),
        (W4, "open loop at two fixed rates over the windowed engine: the only place queueing shows, as per-batch result latency from the batch's due time"),
    ];
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name".to_string(), Json::from(name)),
            ("unit".to_string(), Json::from(unit)),
            ("better".to_string(), Json::from(better)),
        ]
    };
    let end_to_end = END_TO_END.iter().filter(|m| m.in_contract()).map(|m| {
        let mut o = metric(m.name, m.unit, m.better());
        o.push(("bound".to_string(), Json::from(m.bound)));
        Json::Obj(o)
    });
    let single_workload = END_TO_END
        .iter()
        .filter(|m| !m.in_contract())
        .map(|m| Json::Obj(metric(m.name, m.unit, m.better())));
    let per_layer = PER_LAYER.iter().map(|&(name, unit, higher)| {
        Json::Obj(metric(name, unit, if higher { "higher" } else { "lower" }))
    });
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("bench/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("bench")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|(w, why)| {
                        Json::obj([("name", Json::from(w.name())), ("why", Json::from(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        (
            "per_layer",
            Json::Arr(single_workload.chain(per_layer).collect()),
        ),
    ])
}
