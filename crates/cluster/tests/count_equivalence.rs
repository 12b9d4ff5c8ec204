//! Property-based equivalence of count-first and enumerating delivery,
//! and of the threaded runtime against the deterministic sim.
//!
//! Count-first result delivery (span-based `emit_product` with product
//! counting and window-pruned counting) is a pure performance
//! transform: for any workload — windowed or not, skewed or not, with
//! spills and relocations — it must produce the same output counts,
//! the same per-group `P_output`, the same journal counter totals, and
//! counts that agree exactly with the collected-result multiset of the
//! enumerating path, on both the simulated and the threaded runtime.
//!
//! Windowed totals are asserted exactly on the threaded runtime too:
//! window purges run at the watermark-driven horizon (`min(admitted
//! watermark, oldest tuple still buffered at any split)`), so tuples
//! buffered during a relocation always find their join partners alive
//! when they replay, and every sound run — threaded or simulated, fast
//! or slow, under any thread schedule — emits exactly the reference
//! windowed join multiset.

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

/// When `DCAPE_JOURNAL_DUMP` names a directory, write a run's journal
/// there as JSONL (CI uploads the directory as an artifact on failure).
fn dump_journal(name: &str, entries: &[dcape_metrics::journal::JournalEntry]) {
    if let Ok(dir) = std::env::var("DCAPE_JOURNAL_DUMP") {
        let path =
            std::path::Path::new(&dir).join(format!("{name}-pid{}.jsonl", std::process::id()));
        if let Err(e) = dcape_metrics::report::write_journal_jsonl(&path, entries) {
            eprintln!("journal dump to {} failed: {e}", path.display());
        }
    }
}

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
    /// Sliding window in virtual ms (`None` = unwindowed). Small
    /// windows exercise the straddling-span fallback, large ones the
    /// everything-fits product shortcut.
    window_ms: Option<u64>,
}

fn case_strategy() -> impl Strategy<Value = CaseParams> {
    (
        (0u64..1_000, 8u32..33, 200u64..2401, 0u32..301),
        (any::<bool>(), any::<bool>(), any::<bool>(), 2usize..4),
        (any::<bool>(), 200u64..120_000),
    )
        .prop_map(
            |(
                (seed, num_partitions, tuple_range, payload_pad),
                (skewed, tight_memory, active_disk, num_engines),
                (windowed, window_raw),
            )| CaseParams {
                seed,
                num_partitions,
                tuple_range,
                payload_pad,
                skewed,
                tight_memory,
                active_disk,
                num_engines,
                window_ms: windowed.then_some(window_raw),
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
    let mut engine = if p.tight_memory {
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4)
    } else {
        EngineConfig::three_way(1 << 30, 1 << 29)
    };
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
    if collect {
        cfg = cfg.collecting();
    }
    cfg
}

/// Per-engine `(pid, bytes, P_output)` triples of every resident group —
/// the fast paths must leave the productivity bookkeeping untouched.
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

/// Run the sim to the deadline, returning the report plus the per-group
/// stats observed at the deadline (before cleanup).
fn run_sim(
    p: &CaseParams,
    count_first: bool,
    collect: bool,
    deadline: VirtualTime,
) -> (SimReport, GroupOutputs) {
    let cfg = build_config(p, collect).with_count_first(count_first);
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let groups = group_outputs(&driver);
    (driver.finish().unwrap(), groups)
}

proptest! {
    // Each case runs the full simulation three times; keep the default
    // count small (CI stress runs raise it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(8),
        ..ProptestConfig::default()
    })]

    /// For arbitrary workloads the count-first sim run is
    /// observationally identical to the enumerating sim run: same
    /// per-phase counts, same per-group `P_output`, same adaptation
    /// history, same journal counter totals — and both agree with the
    /// collected-result multiset of the enumerating path.
    #[test]
    fn sim_count_first_equals_enumeration(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let (fast, fast_groups) = run_sim(&p, true, false, deadline);
        let (slow, slow_groups) = run_sim(&p, false, false, deadline);
        let (collected, _) = run_sim(&p, false, true, deadline);

        prop_assert_eq!(fast.runtime_output, slow.runtime_output);
        prop_assert_eq!(fast.cleanup_output, slow.cleanup_output);
        prop_assert_eq!(fast_groups, slow_groups, "per-group P_output diverges");
        prop_assert_eq!(fast.relocations.len(), slow.relocations.len());
        prop_assert_eq!(&fast.spill_counts, &slow.spill_counts);
        prop_assert_eq!(fast.force_spills, slow.force_spills);

        // The counts must equal the materialized result multiset sizes
        // of the enumerating path, phase by phase.
        prop_assert_eq!(
            fast.runtime_output,
            collected.runtime_results.as_ref().unwrap().len() as u64,
            "runtime count vs collected multiset"
        );
        prop_assert_eq!(
            fast.cleanup_output,
            collected.cleanup_results.as_ref().unwrap().len() as u64,
            "cleanup count vs collected multiset"
        );

        // Journal counter totals must match exactly.
        let f = fast.journal_counters;
        let s = slow.journal_counters;
        prop_assert_eq!(f.tuples_routed, s.tuples_routed);
        prop_assert_eq!(f.spill_bytes, s.spill_bytes);
        prop_assert_eq!(f.relocation_bytes, s.relocation_bytes);
        prop_assert_eq!(f.buffered_in_flight, 0);
        prop_assert_eq!(s.buffered_in_flight, 0);
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
    /// but totals are not — windowed or unwindowed, the count-first
    /// and enumerating sink arms and the deterministic sim must all
    /// produce exactly the same total output. Watermark-driven purging
    /// is what makes the windowed half of this claim hold: the purge
    /// horizon is tied to data progress, so no thread schedule can
    /// purge the partners of a tuple buffered during a relocation.
    #[test]
    fn threaded_count_first_preserves_totals(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let fast =
            run_threaded(build_config(&p, false).with_count_first(true), deadline).unwrap();
        let slow =
            run_threaded(build_config(&p, false).with_count_first(false), deadline).unwrap();

        dump_journal("threaded_count_first_preserves_totals.fast", &fast.journal);
        dump_journal("threaded_count_first_preserves_totals.slow", &slow.journal);
        prop_assert_eq!(fast.total_output(), slow.total_output());
        prop_assert_eq!(
            fast.journal_counters.tuples_routed,
            slow.journal_counters.tuples_routed
        );
        prop_assert_eq!(fast.journal_counters.buffered_in_flight, 0);
        prop_assert_eq!(slow.journal_counters.buffered_in_flight, 0);

        let (sim, _) = run_sim(&p, true, false, deadline);
        prop_assert_eq!(fast.total_output(), sim.total_output());
    }

    /// Windowed threaded equivalence, exact: both sink arms with a
    /// sliding window always configured, asserted against each other,
    /// against the deterministic sim, and against the collected result
    /// multiset of the enumerating sim — the converted form of what
    /// used to be a smoke-only pass.
    #[test]
    fn threaded_windowed_totals_are_exact(p in case_strategy()) {
        let p = CaseParams {
            window_ms: Some(p.window_ms.unwrap_or(45_000)),
            ..p
        };
        let deadline = VirtualTime::from_mins(2);
        let fast =
            run_threaded(build_config(&p, false).with_count_first(true), deadline).unwrap();
        let slow =
            run_threaded(build_config(&p, false).with_count_first(false), deadline).unwrap();
        dump_journal("threaded_windowed_totals_are_exact.fast", &fast.journal);
        dump_journal("threaded_windowed_totals_are_exact.slow", &slow.journal);

        prop_assert_eq!(
            fast.journal_counters.tuples_routed,
            slow.journal_counters.tuples_routed
        );
        prop_assert_eq!(fast.journal_counters.buffered_in_flight, 0);
        prop_assert_eq!(slow.journal_counters.buffered_in_flight, 0);
        prop_assert_eq!(fast.total_output(), slow.total_output());

        let (sim, _) = run_sim(&p, true, false, deadline);
        let (collected, _) = run_sim(&p, false, true, deadline);
        prop_assert_eq!(fast.total_output(), sim.total_output());
        prop_assert_eq!(
            fast.total_output(),
            collected.runtime_results.as_ref().unwrap().len() as u64
                + collected.cleanup_results.as_ref().unwrap().len() as u64,
            "threaded windowed total vs collected multiset"
        );
    }
}

/// Minimized regression for the replay-after-purge race: a windowed,
/// skewed, tight-memory, three-engine workload (shape found by the
/// property above) with fat payloads and a short stats cadence. Fat
/// state transfers make `InstallStates` and the backlog drain slow
/// while the unthrottled driver keeps advancing virtual time, so
/// clock ticks pile up in the receiving engine's inbox *between* the
/// installed state and the replay of the tuples buffered during the
/// pause. Before watermark-driven purging, those ticks purged the
/// replayed tuples' freshly installed join partners — totals were
/// schedule-dependent, disagreeing with the deterministic sim and
/// across runs of the same workload. With the purge horizon held back
/// to the oldest buffered tuple, four concurrent copies of the
/// workload all produce exactly the sim's total, under every schedule.
#[test]
fn windowed_relocation_replay_matches_sim_exactly() {
    for seed in [500u64, 501, 502] {
        let p = CaseParams {
            seed,
            num_partitions: 29,
            tuple_range: 1754,
            payload_pad: 4096,
            skewed: true,
            tight_memory: true,
            active_disk: false,
            num_engines: 3,
            window_ms: Some(45_000),
        };
        let deadline = VirtualTime::from_mins(2);
        let mk = || {
            build_config(&p, false)
                .with_count_first(true)
                .with_stats_interval(VirtualDuration::from_secs(5))
        };
        let mut sim_driver = SimDriver::new(mk()).unwrap();
        sim_driver.run_until(deadline).unwrap();
        let sim = sim_driver.finish().unwrap();
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cfg = mk();
                    s.spawn(move || run_threaded(cfg, deadline).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        dump_journal(
            &format!("windowed_relocation_replay_seed{seed}"),
            &runs[0].journal,
        );
        assert!(
            sim.relocations.len() + runs.iter().map(|r| r.relocations as usize).sum::<usize>() > 0,
            "seed {seed} must exercise relocation"
        );
        for (i, threaded) in runs.iter().enumerate() {
            assert_eq!(
                threaded.total_output(),
                sim.total_output(),
                "seed {seed} run {i}: threaded windowed total diverged from sim"
            );
            assert_eq!(threaded.journal_counters.buffered_in_flight, 0);
        }
    }
}

/// Quiesce-path drain: with a window configured and a deadline short
/// enough that relocations are regularly still in flight at shutdown,
/// the quiesce loop must finish the round — replaying every buffered
/// tuple and releasing the held watermark — before cleanup starts. No
/// tuple may remain stranded (`buffered_in_flight == 0`) and the total
/// must still match the deterministic sim exactly.
#[test]
fn quiesce_drains_buffer_and_releases_watermark() {
    let p = CaseParams {
        seed: 3,
        num_partitions: 16,
        tuple_range: 400,
        payload_pad: 120,
        skewed: true,
        tight_memory: true,
        active_disk: false,
        num_engines: 2,
        window_ms: Some(10_000),
    };
    // Deadlines just past the stats cadence land shutdown close to the
    // relocation window of each round.
    for deadline_s in [95u64, 125, 155] {
        let deadline = VirtualTime::from_secs(deadline_s);
        let threaded = run_threaded(build_config(&p, false), deadline).unwrap();
        let mut driver = SimDriver::new(build_config(&p, false)).unwrap();
        driver.run_until(deadline).unwrap();
        let sim = driver.finish().unwrap();
        assert_eq!(
            threaded.journal_counters.buffered_in_flight, 0,
            "deadline {deadline_s}s: tuples stranded in split buffers after quiesce"
        );
        assert_eq!(
            threaded.total_output(),
            sim.total_output(),
            "deadline {deadline_s}s: quiesced threaded total diverged from sim"
        );
    }
}
