//! Property-based equivalence of the columnar and row state layouts,
//! and of the two spill codecs.
//!
//! The struct-of-arrays partition-group layout and the column-block
//! spill codec are pure performance transforms: for any workload —
//! windowed or not, skewed or not, with real blob payloads, spills,
//! relocations, and chaos faults — they must produce the same result
//! multiset, the same per-group `P_output`, the same adaptation
//! history, and the same journal byte-volume totals as the row layout
//! with the verbatim row codec, on both the simulated and the threaded
//! runtime.

use proptest::prelude::*;

use dcape_cluster::faults::{FaultConfig, FaultPlan};
use dcape_cluster::runtime::sim::{SimConfig, SimDriver, SimReport};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::ids::PartitionId;
use dcape_common::testing::proptest_cases as cases;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::{EngineConfig, StateLayout};
use dcape_storage::SegmentCodec;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// The knobs a single equivalence case explores.
#[derive(Debug, Clone)]
struct CaseParams {
    seed: u64,
    num_partitions: u32,
    tuple_range: u64,
    /// Real blob payload bytes (0 = none) — exercises the payload
    /// arena and the dictionary column encoder.
    payload_blob: u32,
    skewed: bool,
    tight_memory: bool,
    active_disk: bool,
    num_engines: usize,
    window_ms: Option<u64>,
}

fn case_strategy() -> impl Strategy<Value = CaseParams> {
    (
        (0u64..1_000, 8u32..33, 200u64..2401, 0u32..513),
        (any::<bool>(), any::<bool>(), any::<bool>(), 2usize..4),
        (any::<bool>(), 200u64..120_000),
    )
        .prop_map(
            |(
                (seed, num_partitions, tuple_range, payload_blob),
                (skewed, tight_memory, active_disk, num_engines),
                (windowed, window_raw),
            )| CaseParams {
                seed,
                num_partitions,
                tuple_range,
                payload_blob,
                skewed,
                tight_memory,
                active_disk,
                num_engines,
                window_ms: windowed.then_some(window_raw),
            },
        )
}

fn build_config(p: &CaseParams, layout: StateLayout, codec: SegmentCodec) -> SimConfig {
    let mut spec = StreamSetSpec::uniform(
        p.num_partitions,
        p.tuple_range,
        1,
        VirtualDuration::from_millis(30),
    )
    .with_payload_blob(p.payload_blob)
    .with_seed(p.seed);
    if p.skewed {
        let group_a: Vec<PartitionId> = (0..p.num_partitions / 4).map(PartitionId).collect();
        spec = spec.with_pattern(ArrivalPattern::AlternatingSkew {
            group_a,
            ratio: 8.0,
            period: VirtualDuration::from_mins(1),
        });
    }
    let mut engine = if p.tight_memory {
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4)
    } else {
        EngineConfig::three_way(1 << 30, 1 << 29)
    };
    engine = engine.with_layout(layout).with_spill_codec(codec);
    if let Some(w) = p.window_ms {
        engine.join = engine.join.with_window(VirtualDuration::from_millis(w));
    }
    let strategy = if p.active_disk {
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 1.5,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 20,
        }
    } else {
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        }
    };
    let mut cfg = SimConfig::new(p.num_engines, engine, spec, strategy)
        .with_stats_interval(VirtualDuration::from_secs(30))
        .with_journal();
    if p.num_engines == 2 {
        cfg = cfg.with_placement(PlacementSpec::Fractions(vec![0.7, 0.3]));
    }
    cfg
}

/// Per-engine `(pid, bytes, P_output)` triples of every resident group —
/// the layout must leave memory accounting and productivity untouched.
type GroupOutputs = Vec<Vec<(PartitionId, usize, u64)>>;

fn group_outputs(driver: &SimDriver) -> GroupOutputs {
    driver
        .engines()
        .iter()
        .map(|e| {
            e.join()
                .group_stats()
                .iter()
                .map(|g| (g.pid, g.bytes, g.output))
                .collect()
        })
        .collect()
}

fn run_sim(cfg: SimConfig, deadline: VirtualTime) -> (SimReport, GroupOutputs) {
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let groups = group_outputs(&driver);
    (driver.finish().unwrap(), groups)
}

/// Sorted multiset of collected result identities (`(stream, seq)`
/// per joined part) for exact comparison.
fn result_multiset(report: &SimReport) -> Vec<Vec<(u8, u64)>> {
    let mut all: Vec<Vec<(u8, u64)>> = report
        .runtime_results
        .iter()
        .chain(report.cleanup_results.iter())
        .flat_map(|c| c.identities())
        .collect();
    all.sort_unstable();
    all
}

proptest! {
    // Each case runs the full simulation several times; keep the
    // default count small (CI stress runs raise it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(6),
        ..ProptestConfig::default()
    })]

    /// For arbitrary workloads the columnar sim run is observationally
    /// identical to the row-layout run: same result multiset, same
    /// per-group `P_output` and accounted bytes, same adaptation
    /// history, same spill multiset (counts and byte volumes), and the
    /// same journal byte-volume counters — including the encoded
    /// spill/transfer volumes, since both layouts snapshot identical
    /// rows in identical order.
    #[test]
    fn sim_columnar_equals_row(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let (row, row_groups) = run_sim(
            build_config(&p, StateLayout::Row, SegmentCodec::Columns).collecting(),
            deadline,
        );
        let (col, col_groups) = run_sim(
            build_config(&p, StateLayout::Columnar, SegmentCodec::Columns).collecting(),
            deadline,
        );

        prop_assert_eq!(row.runtime_output, col.runtime_output);
        prop_assert_eq!(row.cleanup_output, col.cleanup_output);
        prop_assert_eq!(row_groups, col_groups, "per-group stats diverge");
        prop_assert_eq!(row.relocations.len(), col.relocations.len());
        prop_assert_eq!(&row.spill_counts, &col.spill_counts);
        prop_assert_eq!(row.force_spills, col.force_spills);
        prop_assert_eq!(
            result_multiset(&row),
            result_multiset(&col),
            "result multisets diverge"
        );

        let r = row.journal_counters;
        let c = col.journal_counters;
        prop_assert_eq!(r.tuples_routed, c.tuples_routed);
        prop_assert_eq!(r.spill_bytes, c.spill_bytes);
        prop_assert_eq!(r.spill_bytes_written, c.spill_bytes_written);
        prop_assert_eq!(r.spill_bytes_read, c.spill_bytes_read);
        prop_assert_eq!(r.relocation_bytes, c.relocation_bytes);
        prop_assert_eq!(r.transfer_bytes, c.transfer_bytes);
        prop_assert_eq!(r.buffered_in_flight, 0);
        prop_assert_eq!(c.buffered_in_flight, 0);
    }

    /// The spill codec is invisible to results: the verbatim row codec
    /// and the column-block codec agree on every output and on the
    /// accounted (pre-encoding) byte counters; only the encoded volume
    /// differs, and with real low-cardinality payloads the column
    /// blocks never write more than the row codec.
    #[test]
    fn sim_codec_choice_only_changes_encoded_bytes(p in case_strategy()) {
        // Force the spill-heavy regime so the codecs actually run.
        let p = CaseParams { tight_memory: true, payload_blob: p.payload_blob.max(64), ..p };
        let deadline = VirtualTime::from_mins(2);
        let (rows, rows_groups) = run_sim(
            build_config(&p, StateLayout::Columnar, SegmentCodec::Rows),
            deadline,
        );
        let (cols, cols_groups) = run_sim(
            build_config(&p, StateLayout::Columnar, SegmentCodec::Columns),
            deadline,
        );

        prop_assert_eq!(rows.runtime_output, cols.runtime_output);
        prop_assert_eq!(rows.cleanup_output, cols.cleanup_output);
        prop_assert_eq!(rows_groups, cols_groups, "per-group stats diverge across codecs");
        let r = rows.journal_counters;
        let c = cols.journal_counters;
        prop_assert_eq!(r.spill_bytes, c.spill_bytes, "accounted volume must not depend on codec");
        if r.spill_bytes_written > 0 {
            prop_assert!(c.spill_bytes_written > 0, "columns arm must spill too");
            prop_assert!(
                c.spill_bytes_written <= r.spill_bytes_written,
                "column blocks wrote more than verbatim rows: {} > {}",
                c.spill_bytes_written,
                r.spill_bytes_written
            );
        }
    }
}

proptest! {
    // Threaded and chaos runs are slower; keep the default count
    // smaller still.
    #![proptest_config(ProptestConfig {
        cases: cases(4),
        ..ProptestConfig::default()
    })]

    /// Threaded runtime: adaptation timing is scheduler-dependent but
    /// totals are not — the columnar and row layouts must produce
    /// exactly the same total output as each other and as the
    /// deterministic sim.
    #[test]
    fn threaded_columnar_preserves_totals(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let row = run_threaded(
            build_config(&p, StateLayout::Row, SegmentCodec::Columns),
            deadline,
        )
        .unwrap();
        let col = run_threaded(
            build_config(&p, StateLayout::Columnar, SegmentCodec::Columns),
            deadline,
        )
        .unwrap();

        prop_assert_eq!(row.total_output(), col.total_output());
        prop_assert_eq!(
            row.journal_counters.tuples_routed,
            col.journal_counters.tuples_routed
        );
        prop_assert_eq!(row.journal_counters.buffered_in_flight, 0);
        prop_assert_eq!(col.journal_counters.buffered_in_flight, 0);

        let (sim, _) = run_sim(
            build_config(&p, StateLayout::Columnar, SegmentCodec::Columns),
            deadline,
        );
        prop_assert_eq!(col.total_output(), sim.total_output());
    }

    /// Chaos seeds: with deterministic faults active on the relocation
    /// protocol (drops, duplicates, delays, corrupt lengths), both
    /// layouts ride the same fault schedule in the deterministic sim
    /// and must still agree exactly — on results and on the fault
    /// bookkeeping itself.
    #[test]
    fn sim_columnar_equals_row_under_chaos(
        p in case_strategy(),
        chaos_seed in 0u64..1_000,
    ) {
        let p = CaseParams { skewed: true, ..p };
        let deadline = VirtualTime::from_mins(2);
        let plan = || FaultPlan::new(chaos_seed, FaultConfig::uniform(0.2));
        let (row, row_groups) = run_sim(
            build_config(&p, StateLayout::Row, SegmentCodec::Columns).with_faults(plan()),
            deadline,
        );
        let (col, col_groups) = run_sim(
            build_config(&p, StateLayout::Columnar, SegmentCodec::Columns).with_faults(plan()),
            deadline,
        );

        prop_assert_eq!(row.runtime_output, col.runtime_output);
        prop_assert_eq!(row.cleanup_output, col.cleanup_output);
        prop_assert_eq!(row_groups, col_groups, "chaos per-group stats diverge");
        let r = row.journal_counters;
        let c = col.journal_counters;
        prop_assert_eq!(r.faults_injected, c.faults_injected);
        prop_assert_eq!(r.rounds_aborted, c.rounds_aborted);
        prop_assert_eq!(r.msgs_retried, c.msgs_retried);
        prop_assert_eq!(r.relocation_bytes, c.relocation_bytes);
        prop_assert_eq!(r.transfer_bytes, c.transfer_bytes);
        prop_assert_eq!(r.buffered_in_flight, 0);
        prop_assert_eq!(c.buffered_in_flight, 0);
    }
}
