//! Property-based equivalence of the batched and per-tuple data paths.
//!
//! The batched dataflow (generator tick batches, one channel send per
//! engine per tick, `process_batch` on the engine) is a pure
//! performance transform: for any workload it must produce the same
//! result multiset, the same final state accounting, and the same
//! journal counter totals as the per-tuple path, on both the simulated
//! and the threaded runtime.

use proptest::prelude::*;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver, SimReport};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::ids::PartitionId;
use dcape_common::testing::proptest_cases as cases;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// The knobs a single equivalence case explores.
#[derive(Debug, Clone)]
struct CaseParams {
    seed: u64,
    num_partitions: u32,
    tuple_range: u64,
    payload_pad: u32,
    skewed: bool,
    tight_memory: bool,
    active_disk: bool,
    num_engines: usize,
}

fn case_strategy() -> impl Strategy<Value = CaseParams> {
    (
        (0u64..1_000, 8u32..33, 200u64..2401, 0u32..301),
        (any::<bool>(), any::<bool>(), any::<bool>(), 2usize..4),
    )
        .prop_map(
            |(
                (seed, num_partitions, tuple_range, payload_pad),
                (skewed, tight_memory, active_disk, num_engines),
            )| CaseParams {
                seed,
                num_partitions,
                tuple_range,
                payload_pad,
                skewed,
                tight_memory,
                active_disk,
                num_engines,
            },
        )
}

fn build_config(p: &CaseParams, collect: bool) -> SimConfig {
    let mut spec = StreamSetSpec::uniform(
        p.num_partitions,
        p.tuple_range,
        1,
        VirtualDuration::from_millis(30),
    )
    .with_payload_pad(p.payload_pad)
    .with_seed(p.seed);
    if p.skewed {
        let group_a: Vec<PartitionId> = (0..p.num_partitions / 4).map(PartitionId).collect();
        spec = spec.with_pattern(ArrivalPattern::AlternatingSkew {
            group_a,
            ratio: 8.0,
            period: VirtualDuration::from_mins(1),
        });
    }
    let engine = if p.tight_memory {
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4)
    } else {
        EngineConfig::three_way(1 << 30, 1 << 29)
    };
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
    if collect {
        cfg = cfg.collecting();
    }
    cfg
}

fn run_sim(p: &CaseParams, batch: bool, deadline: VirtualTime) -> SimReport {
    let cfg = build_config(p, true).with_batching(batch);
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    driver.finish().unwrap()
}

/// Sorted identity multiset of every result (runtime + cleanup).
fn result_identities(report: &SimReport) -> Vec<Vec<(u8, u64)>> {
    let mut ids = report.runtime_results.as_ref().unwrap().identities();
    ids.extend(report.cleanup_results.as_ref().unwrap().identities());
    ids.sort();
    ids
}

proptest! {
    // Each case runs the full simulation twice; keep the default count
    // small (CI stress runs raise it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(8),
        ..ProptestConfig::default()
    })]

    /// For arbitrary workloads the batched sim run is observationally
    /// identical to the per-tuple sim run: same results, same
    /// adaptation history, same counter totals.
    #[test]
    fn sim_batched_path_equals_per_tuple_path(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let batched = run_sim(&p, true, deadline);
        let per_tuple = run_sim(&p, false, deadline);

        prop_assert_eq!(batched.runtime_output, per_tuple.runtime_output);
        prop_assert_eq!(batched.cleanup_output, per_tuple.cleanup_output);
        prop_assert_eq!(batched.relocations.len(), per_tuple.relocations.len());
        prop_assert_eq!(&batched.spill_counts, &per_tuple.spill_counts);
        prop_assert_eq!(batched.force_spills, per_tuple.force_spills);
        prop_assert_eq!(
            result_identities(&batched),
            result_identities(&per_tuple),
            "result multisets diverge"
        );

        // Journal counter totals must match exactly; the in-flight
        // gauge must drain to zero on both paths.
        let b = batched.journal_counters;
        let t = per_tuple.journal_counters;
        prop_assert_eq!(b.tuples_routed, t.tuples_routed);
        prop_assert_eq!(b.spill_bytes, t.spill_bytes);
        prop_assert_eq!(b.relocation_bytes, t.relocation_bytes);
        prop_assert_eq!(b.buffered_in_flight, 0);
        prop_assert_eq!(t.buffered_in_flight, 0);
    }
}

proptest! {
    // Threaded runs spin up real threads; keep the default count
    // smaller still (CI stress runs raise it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(4),
        ..ProptestConfig::default()
    })]

    /// Threaded runtime: adaptation *timing* is scheduler-dependent,
    /// but totals are not — the batched and per-tuple paths and the
    /// deterministic sim must all produce exactly the same total
    /// output (watermark-driven purging makes this hold for windowed
    /// workloads too; see `count_equivalence.rs`).
    #[test]
    fn threaded_batched_path_preserves_totals(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let batched = run_threaded(build_config(&p, false).with_batching(true), deadline).unwrap();
        let per_tuple = run_threaded(build_config(&p, false).with_batching(false), deadline).unwrap();

        prop_assert_eq!(batched.total_output(), per_tuple.total_output());
        prop_assert_eq!(
            batched.journal_counters.tuples_routed,
            per_tuple.journal_counters.tuples_routed
        );
        prop_assert_eq!(batched.journal_counters.buffered_in_flight, 0);
        prop_assert_eq!(per_tuple.journal_counters.buffered_in_flight, 0);

        let sim = run_sim(&p, true, deadline);
        prop_assert_eq!(batched.total_output(), sim.total_output());
    }
}
