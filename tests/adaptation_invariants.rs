//! Property-based invariants of the adaptation machinery, across crates.
//!
//! The central theorem of the reproduction: **for any workload and any
//! adaptation schedule, run-time results + cleanup results = the
//! reference join, exactly once each.** Spills, relocations, strategy
//! choice, placement skew — none of it may change the answer, only its
//! timing.

use proptest::prelude::*;

use dcape::cluster::faults::{FaultConfig, FaultPlan};
use dcape::cluster::runtime::sim::{SimConfig, SimDriver};
use dcape::cluster::strategy::StrategyConfig;
use dcape::cluster::PlacementSpec;
use dcape::common::ids::PartitionId;
use dcape::common::time::{VirtualDuration, VirtualTime};
use dcape::engine::config::EngineConfig;
use dcape::streamgen::testing::reference_join;
use dcape::streamgen::{ArrivalPattern, StreamSetSpec};

fn strategy_from(idx: u8) -> StrategyConfig {
    match idx % 3 {
        0 => StrategyConfig::NoAdaptation,
        1 => StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(30),
        },
        _ => StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(30),
            lambda: 1.5,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 20,
        },
    }
}

/// A relocation-hungry run where **every** `InstallStates` crash-restarts
/// the receiver after step 5: state shipped and installed, ack never
/// sent. Retries re-ship, crash again, and the coordinator aborts.
fn run_with_certain_install_crash(seed: u64) -> (dcape::cluster::RunReport, u64) {
    let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
    let spec = StreamSetSpec::uniform(18, 1800, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(128)
        .with_seed(seed)
        .with_pattern(ArrivalPattern::AlternatingSkew {
            group_a,
            ratio: 10.0,
            period: VirtualDuration::from_mins(2),
        });
    let deadline = VirtualTime::from_mins(5);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    let crash_always = FaultConfig {
        crash_rate: 1.0,
        ..FaultConfig::none()
    };
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
    .with_stats_interval(VirtualDuration::from_secs(30))
    .with_faults(FaultPlan::new(seed, crash_always));
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    (driver.finish().unwrap(), reference)
}

/// The deterministic crash-restart scenario of the fault model: the
/// receiver dies mid-relocation *after* the state landed (the ack is
/// lost), restarts empty, and the round aborts. The abort must leave
/// zero buffered tuples behind and produce no duplicate outputs — the
/// sender's retained copy is the single source of truth.
#[test]
fn crash_after_install_aborts_without_loss_or_duplication() {
    let (report, reference) = run_with_certain_install_crash(23);
    // Every attempted round died: no relocation ever completed…
    assert!(report.relocations.is_empty(), "no round may survive");
    let c = &report.journal_counters;
    assert!(c.faults_injected > 0, "crashes must have been injected");
    assert!(c.msgs_retried > 0, "timeouts must have retried first");
    assert!(c.rounds_aborted > 0, "retry exhaustion must abort");
    // …every abort released its held watermark and replayed its
    // buffered tuples; nothing is left parked at a paused split.
    assert_eq!(c.watermark_released_on_abort, c.rounds_aborted);
    assert_eq!(c.buffered_in_flight, 0, "abort left tuples buffered");
    // And the answer is still exact: nothing lost to the crashes,
    // nothing double-counted from re-shipped state.
    assert_eq!(
        report.total_output(),
        reference,
        "crash-abort cycle changed the join result"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full (small) cluster run
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_schedule_produces_exactly_the_reference_join(
        seed in 0u64..1000,
        num_engines in 1usize..4,
        strategy_idx in 0u8..3,
        threshold_kb in 48u64..512,
        minutes in 2u64..5,
        skew in 0usize..3,
    ) {
        let spec = StreamSetSpec::uniform(18, 1800, 1, VirtualDuration::from_millis(30))
            .with_payload_pad(128)
            .with_seed(seed);
        let deadline = VirtualTime::from_mins(minutes);
        let reference = reference_join(&spec, deadline, None).unwrap().count();

        let engine = EngineConfig::three_way(64 << 20, threshold_kb << 10);
        let placement = match (skew, num_engines) {
            (_, 1) => PlacementSpec::RoundRobin,
            (0, _) => PlacementSpec::RoundRobin,
            (1, 2) => PlacementSpec::Fractions(vec![0.7, 0.3]),
            (1, 3) => PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]),
            (_, 2) => PlacementSpec::Fractions(vec![0.5, 0.5]),
            (_, _) => PlacementSpec::Fractions(vec![2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0]),
        };
        let cfg = SimConfig::new(num_engines, engine, spec, strategy_from(strategy_idx))
            .with_placement(placement)
            .with_stats_interval(VirtualDuration::from_secs(20));
        let mut driver = SimDriver::new(cfg).unwrap();
        driver.run_until(deadline).unwrap();
        let report = driver.finish().unwrap();
        prop_assert_eq!(
            report.total_output(),
            reference,
            "strategy={} engines={} threshold={}KB: runtime {} + cleanup {}",
            strategy_idx,
            num_engines,
            threshold_kb,
            report.runtime_output,
            report.cleanup_output
        );
    }

    #[test]
    fn crashed_installs_abort_cleanly_for_any_seed(
        seed in 0u64..1000,
    ) {
        let (report, reference) = run_with_certain_install_crash(seed);
        prop_assert_eq!(report.total_output(), reference);
        prop_assert_eq!(report.journal_counters.buffered_in_flight, 0);
    }

    #[test]
    fn memory_accounting_never_drifts(
        seed in 0u64..1000,
        threshold_kb in 32u64..256,
    ) {
        let spec = StreamSetSpec::uniform(12, 1200, 1, VirtualDuration::from_millis(30))
            .with_payload_pad(64)
            .with_seed(seed);
        let cfg = SimConfig::new(
            2,
            EngineConfig::three_way(64 << 20, threshold_kb << 10),
            spec,
            StrategyConfig::lazy_default(),
        );
        let mut driver = SimDriver::new(cfg).unwrap();
        driver.run_until(VirtualTime::from_mins(3)).unwrap();
        for engine in driver.engines() {
            prop_assert!(engine.assert_accounting_consistent().is_ok());
        }
    }
}
