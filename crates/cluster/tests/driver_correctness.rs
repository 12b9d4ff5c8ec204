//! End-to-end correctness of the cluster drivers.
//!
//! The paper's protocol promise (§4.1): *no operator states should be
//! missing or corrupted* across adaptations. The verifiable consequence:
//! run-time results + cleanup results together equal the reference join
//! of the full input, no matter how many spills and relocations happened
//! in between, on both the simulated and the threaded driver.

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::ids::EngineId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::AdaptEvent;
use dcape_streamgen::testing::reference_join;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

fn small_workload(seed: u64) -> StreamSetSpec {
    StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(200)
        .with_seed(seed)
}

/// Engine config tight enough to force several spills during the run.
fn tight_engine() -> EngineConfig {
    EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4)
}

#[test]
fn sim_lazy_disk_no_loss_no_duplication() {
    let deadline = VirtualTime::from_mins(5);
    let spec = small_workload(11);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    assert!(reference > 0);

    let cfg = SimConfig::new(
        3,
        tight_engine(),
        spec,
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]))
    .with_stats_interval(VirtualDuration::from_secs(30))
    .collecting();
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let report = driver.finish().unwrap();

    assert!(
        report.spill_counts.iter().sum::<u64>() > 0,
        "workload must be memory constrained for this test to bite"
    );
    assert_eq!(
        report.total_output(),
        reference,
        "runtime {} + cleanup {} != reference {reference}",
        report.runtime_output,
        report.cleanup_output
    );

    // No duplicates among collected results.
    let mut ids = report.runtime_results.unwrap().identities();
    ids.extend(report.cleanup_results.unwrap().identities());
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate results detected");
}

#[test]
fn sim_relocations_happen_under_skew_and_preserve_results() {
    let deadline = VirtualTime::from_mins(8);
    let group_a: Vec<dcape_common::ids::PartitionId> =
        (0..6).map(dcape_common::ids::PartitionId).collect();
    let spec = small_workload(23).with_pattern(ArrivalPattern::AlternatingSkew {
        group_a,
        ratio: 10.0,
        period: VirtualDuration::from_mins(2),
    });
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    // Roomy memory: relocation-only regime (no spill).
    let engine = EngineConfig::three_way(1 << 30, 1 << 29);
    let cfg = SimConfig::new(
        2,
        engine,
        spec,
        StrategyConfig::LazyDisk {
            theta_r: 0.9,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
    .with_stats_interval(VirtualDuration::from_secs(30));
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let relocations = driver.relocations().len();
    let report = driver.finish().unwrap();

    assert!(relocations > 0, "alternating skew must trigger relocations");
    assert_eq!(report.spill_counts.iter().sum::<u64>(), 0);
    assert_eq!(report.cleanup_output, 0, "nothing spilled, nothing missed");
    assert_eq!(report.runtime_output, reference);
}

#[test]
fn sim_active_disk_preserves_results_with_force_spills() {
    use dcape_streamgen::{ClassAssignment, PartitionClass};
    let deadline = VirtualTime::from_mins(5);
    let mut spec = small_workload(37);
    // Productivity gap: first half of partitions join rate 4, rest 1.
    spec.classes = vec![
        PartitionClass {
            assignment: ClassAssignment::Fraction(0.5),
            join_rate: 4,
            tuple_range: 2400,
        },
        PartitionClass {
            assignment: ClassAssignment::Fraction(0.5),
            join_rate: 1,
            tuple_range: 2400,
        },
    ];
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let cfg = SimConfig::new(
        3,
        tight_engine(),
        spec,
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 1.5,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 20,
        },
    )
    .with_stats_interval(VirtualDuration::from_secs(30));
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let report = driver.finish().unwrap();
    assert_eq!(report.total_output(), reference);
}

/// Same `SimConfig` ⇒ bit-identical run, on the busiest configuration
/// there is: relocating under alternating skew, tight memory, the chaos
/// layer armed, an engine joining and another draining. Two runs agree
/// on the whole merged journal (every engine's samples included), every
/// relocation and every counter.
#[test]
fn sim_is_deterministic() {
    use dcape_cluster::faults::{FaultConfig, FaultPlan};
    use dcape_cluster::runtime::sim::ScaleEvent;
    let deadline = VirtualTime::from_mins(4);
    let run = || {
        let spec = small_workload(5).with_pattern(ArrivalPattern::AlternatingSkew {
            group_a: (0..6).map(dcape_common::ids::PartitionId).collect(),
            ratio: 10.0,
            period: VirtualDuration::from_mins(1),
        });
        let cfg = SimConfig::new(
            2,
            tight_engine(),
            spec,
            StrategyConfig::LazyDisk {
                theta_r: 0.8,
                tau_m: VirtualDuration::from_secs(20),
            },
        )
        .with_stats_interval(VirtualDuration::from_secs(15))
        .with_journal()
        .with_faults(FaultPlan::new(13, FaultConfig::uniform(0.2)))
        .with_scale_events(vec![
            ScaleEvent::add(VirtualTime::from_secs(40)),
            ScaleEvent::drain_engine(VirtualTime::from_secs(150), dcape_common::ids::EngineId(0)),
        ]);
        let mut d = SimDriver::new(cfg).unwrap();
        d.run_until(deadline).unwrap();
        d.finish().unwrap()
    };
    let (a, b) = (run(), run());
    assert!(!a.relocations.is_empty(), "the run must relocate");
    assert!(a.journal_counters.faults_injected > 0, "and inject faults");
    assert!(a.spill_counts.iter().sum::<u64>() > 0, "and spill");
    assert_eq!(
        a.journal_counters.rebalance_moves,
        b.journal_counters.rebalance_moves
    );
    assert!(
        a.journal_counters.rebalance_moves > 0,
        "and move state for the join and the drain"
    );
    assert_eq!(a.journal, b.journal);
    assert_eq!(a.journal_counters, b.journal_counters);
    assert_eq!(a.relocations, b.relocations);
    assert!(
        a.journal
            .iter()
            .any(|e| matches!(e.event, AdaptEvent::EngineSample(r) if r.engine == EngineId(2))),
        "the joiner is sampled"
    );
    assert_eq!(
        (
            a.runtime_output,
            a.cleanup_output,
            &a.spill_counts,
            &a.cleanup_cost_ms
        ),
        (
            b.runtime_output,
            b.cleanup_output,
            &b.spill_counts,
            &b.cleanup_cost_ms
        )
    );
}

/// What the coordinator did over a whole run, to the bit: one hash of
/// the merged journal (as JSON lines), every counter and every completed
/// relocation. Pinned for four deterministic runs that reach every
/// coordinator path — chaos retries and aborts, join and drain moves, a
/// completed drain, forced spills, the queued moves of a global
/// rebalance — so a refactor of the coordinator, its strategy or its
/// driver that changes any decision, message or record fails here.
/// The constants were taken before such a refactor and must not be
/// regenerated by one.
#[test]
fn coordinator_runs_are_pinned() {
    use dcape_cluster::runtime::sim::SimReport;
    use dcape_cluster::testing::{pinned_runs, PINNED_RUN_END};
    use dcape_common::hash::fx_hash;
    use dcape_metrics::report::journal_to_jsonl;

    let reports = pinned_runs().map(|cfg| -> SimReport {
        let mut driver = SimDriver::new(cfg).unwrap();
        driver.run_until(PINNED_RUN_END).unwrap();
        driver.finish().unwrap()
    });
    let hashes = reports.each_ref().map(|r| {
        let relocations: Vec<_> = r
            .relocations
            .iter()
            .map(|e| {
                let (s, t) = (e.sender.0, e.receiver.0);
                (e.at.as_millis(), s, t, e.parts, e.bytes, e.buffered_tuples)
            })
            .collect();
        fx_hash(&(
            journal_to_jsonl(&r.journal),
            r.journal_counters.values(),
            relocations,
        ))
    });

    // Not vacuous: between them the runs take every coordinator path.
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.journal_counters.msgs_retried) > 0, "a retry");
    assert!(sum(|r| r.journal_counters.rounds_aborted) > 0, "an abort");
    assert!(sum(|r| r.journal_counters.rebalance_moves) > 0, "a move");
    assert!(sum(|r| r.force_spills) > 0, "a forced spill");
    assert!(
        reports[1]
            .journal
            .iter()
            .any(|e| matches!(e.event, AdaptEvent::EngineDrained { .. })),
        "a completed drain"
    );
    // Fresh triggers are at least τ_m (45 s) apart, so a round opened
    // sooner after the one before it is a queued move of a global plan.
    let tau_m = VirtualDuration::from_secs(45);
    let opened: Vec<VirtualTime> = (reports[3].journal.iter())
        .filter(|e| matches!(e.event, AdaptEvent::RelocationStep { step: 1, .. }))
        .map(|e| e.at)
        .collect();
    assert!(
        opened.windows(2).any(|w| w[1].since(w[0]) < tau_m),
        "a queued move: rounds opened at {opened:?}"
    );
    assert_eq!(
        hashes,
        [
            0xCFA8_4D3C_CE38_83DD,
            0x61FC_92B4_EE51_9BAB,
            0x3F48_CCEB_6038_880E,
            0x5686_480D_D2F5_1888
        ],
        "coordinator behaviour changed: {hashes:#018x?}"
    );
}

#[test]
fn threaded_driver_matches_reference_and_sim_total() {
    let deadline = VirtualTime::from_mins(5);
    let spec = small_workload(42);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let make_cfg = || {
        SimConfig::new(
            3,
            tight_engine(),
            spec.clone(),
            StrategyConfig::LazyDisk {
                theta_r: 0.8,
                tau_m: VirtualDuration::from_secs(45),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]))
        .with_stats_interval(VirtualDuration::from_secs(30))
    };

    let threaded = run_threaded(make_cfg(), deadline).unwrap();
    assert_eq!(
        threaded.total_output(),
        reference,
        "threaded driver lost or duplicated results"
    );

    let mut sim = SimDriver::new(make_cfg()).unwrap();
    sim.run_until(deadline).unwrap();
    let sim_report = sim.finish().unwrap();
    assert_eq!(
        sim_report.total_output(),
        threaded.total_output(),
        "sim and threaded drivers disagree on the total"
    );
}

#[test]
fn threaded_driver_relocates_under_skew() {
    let deadline = VirtualTime::from_mins(5);
    let group_a: Vec<dcape_common::ids::PartitionId> =
        (0..6).map(dcape_common::ids::PartitionId).collect();
    let spec = small_workload(77).with_pattern(ArrivalPattern::AlternatingSkew {
        group_a,
        ratio: 10.0,
        period: VirtualDuration::from_mins(2),
    });
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    let cfg = SimConfig::new(
        2,
        EngineConfig::three_way(1 << 30, 1 << 29),
        spec,
        StrategyConfig::LazyDisk {
            theta_r: 0.9,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
    .with_stats_interval(VirtualDuration::from_secs(30));
    let report = run_threaded(cfg, deadline).unwrap();
    assert!(report.relocations > 0, "skew should force relocations");
    assert_eq!(report.total_output(), reference);
}

#[test]
fn global_rebalance_scheme_preserves_results_across_four_engines() {
    let deadline = VirtualTime::from_mins(6);
    let spec = small_workload(91);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    // Heavily skewed four-engine placement; global rebalance plans
    // multiple pair moves per trigger.
    let cfg = SimConfig::new(
        4,
        EngineConfig::three_way(1 << 30, 1 << 29),
        spec,
        StrategyConfig::LazyDiskRebalance {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![0.55, 0.25, 0.15, 0.05]))
    .with_stats_interval(VirtualDuration::from_secs(30))
    .with_journal();
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let relocations = driver.relocations().len();
    let report = driver.finish().unwrap();
    assert!(relocations >= 2, "rebalance should move multiple pairs");
    assert_eq!(report.runtime_output, reference);

    // Memory ends up better balanced than it started.
    let mems: Vec<u64> = driver_mems(&report);
    let max = *mems.iter().max().unwrap();
    let min = *mems.iter().min().unwrap();
    assert!(
        (min as f64) / (max.max(1) as f64) > 0.3,
        "final loads should be balanced-ish: {mems:?}"
    );
}

/// Each engine's memory at its last statistics sample.
fn driver_mems(report: &dcape_cluster::runtime::sim::SimReport) -> Vec<u64> {
    let mut last = [None; 4];
    for e in &report.journal {
        if let AdaptEvent::EngineSample(r) = e.event {
            last[r.engine.index()] = Some(r.memory_used);
        }
    }
    last.into_iter().flatten().collect()
}

#[test]
fn threaded_active_disk_preserves_results() {
    let deadline = VirtualTime::from_mins(5);
    let spec = small_workload(123);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    let cfg = SimConfig::new(
        3,
        tight_engine(),
        spec,
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 1.5,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 20,
        },
    )
    .with_stats_interval(VirtualDuration::from_secs(30));
    let report = run_threaded(cfg, deadline).unwrap();
    assert_eq!(
        report.total_output(),
        reference,
        "threaded active-disk lost or duplicated results"
    );
}

/// `reactivate_watermark` means the same thing on every runtime: the
/// engines merge spilled partitions back during the run, on their clock
/// pulse. Exactness holds with and without it, and with it the merged
/// journal holds cleanup merges stamped before the deadline — a
/// reactivation journals through the same merge as the final cleanup,
/// at the engine's clock, and the final cleanup runs at or after the
/// deadline.
#[test]
fn runtime_reactivation_reduces_cleanup_debt_and_stays_exact() {
    use dcape_metrics::journal::JournalEntry;
    let deadline = VirtualTime::from_mins(6);
    let spec = small_workload(55);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let cfg = |reactivate: bool| {
        let mut engine = tight_engine();
        if reactivate {
            engine = engine.with_reactivation(0.5);
        }
        SimConfig::new(
            3,
            engine,
            spec.clone(),
            StrategyConfig::LazyDisk {
                theta_r: 0.8,
                tau_m: VirtualDuration::from_secs(45),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]))
        .with_stats_interval(VirtualDuration::from_secs(30))
        .with_journal()
    };
    let run_sim = |reactivate: bool| {
        let mut driver = SimDriver::new(cfg(reactivate)).unwrap();
        driver.run_until(deadline).unwrap();
        driver.finish().unwrap()
    };
    let merges_during_the_run = |journal: &[JournalEntry]| {
        journal
            .iter()
            .filter(|e| matches!(e.event, AdaptEvent::CleanupPhase { .. }) && e.at < deadline)
            .count()
    };

    let plain = run_sim(false);
    let reactivating = run_sim(true);
    assert!(plain.spill_counts.iter().sum::<u64>() > 0);
    // Exactness holds either way.
    assert_eq!(plain.total_output(), reference);
    assert_eq!(reactivating.total_output(), reference);
    assert_eq!(merges_during_the_run(&plain.journal), 0);
    assert!(merges_during_the_run(&reactivating.journal) > 0);
    // Reactivation pays the merge during the run, leaving less (or at
    // most equal) debt for the post-run cleanup phase.
    assert!(
        reactivating.cleanup_output <= plain.cleanup_output,
        "reactivation should shrink post-run cleanup: {} vs {}",
        reactivating.cleanup_output,
        plain.cleanup_output
    );

    let plain = run_threaded(cfg(false), deadline).unwrap();
    let reactivating = run_threaded(cfg(true), deadline).unwrap();
    assert_eq!(plain.total_output(), reference);
    assert_eq!(reactivating.total_output(), reference);
    assert_eq!(merges_during_the_run(&plain.journal), 0);
    assert!(
        merges_during_the_run(&reactivating.journal) > 0,
        "the threaded engines must reactivate too"
    );
}
