//! Elastic runs must compute exactly what static runs compute: a live
//! engine join (scale-out) or drain (scale-in) mid-run may change *how*
//! the cluster spreads its state, never *what* it outputs. Every test
//! pits an elastic run against the generator-level reference count
//! and/or a static run of the identical workload and asserts the output
//! totals (and, where collected, the result multisets) are unchanged —
//! with and without the chaos layer garbling the relocation rounds the
//! drain and join rebalancing ride on.
//!
//! The socket arm lives in `crates/repro/tests/socket_equivalence.rs`,
//! where cargo builds the real `dcape-node` worker binary; here a
//! smoke-level socket run is gated on `DCAPE_NODE_BIN` pointing at a
//! prebuilt worker (CI sets it; local runs without it skip the arm).

use dcape_cluster::coordinator::EngineState;
use dcape_cluster::faults::{FaultConfig, FaultPlan};
use dcape_cluster::runtime::sim::{ScaleEvent, SimConfig, SimDriver, SimReport};
use dcape_cluster::runtime::socket::{run_socket, SocketConfig, SocketMode};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::testing::{
    assert_chaos_invariants, count_events, dump_journal, relocation_cfg, relocation_workload, seeds,
};
use dcape_cluster::PlacementSpec;
use dcape_common::ids::EngineId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::AdaptEvent;
use dcape_streamgen::testing::reference_join;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// Overloaded two-engine start: tight memory, spill-heavy — the regime
/// a scale-out is for.
fn overloaded_cfg(spec: StreamSetSpec, engines: usize) -> SimConfig {
    let fractions = match engines {
        2 => vec![0.5, 0.5],
        3 => vec![0.6, 0.2, 0.2],
        n => vec![1.0 / n as f64; n],
    };
    SimConfig::new(
        engines,
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4),
        spec,
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(fractions))
    .with_stats_interval(VirtualDuration::from_secs(30))
    .with_journal()
}

/// Drive an elastic sim run to `deadline`, assert the mid-run membership
/// transitions actually happened, then finish and return the report.
fn run_elastic_sim(
    cfg: SimConfig,
    deadline: VirtualTime,
    label: &str,
    expect_joined: &[EngineId],
    expect_drained: &[EngineId],
) -> SimReport {
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    for e in expect_joined {
        assert_eq!(
            driver.coordinator().engine_state(*e),
            EngineState::Active,
            "{label}: joiner {e} must be active before shutdown"
        );
        assert!(
            !driver.placement().partitions_of(*e).is_empty(),
            "{label}: joiner {e} must own partition groups before shutdown"
        );
    }
    for e in expect_drained {
        assert_eq!(
            driver.coordinator().engine_state(*e),
            EngineState::Drained,
            "{label}: {e} must finish draining before shutdown"
        );
        // The drained engine's books are empty: nothing owned, nothing
        // resident, nothing buffered for it in flight.
        assert!(
            driver.placement().partitions_of(*e).is_empty(),
            "{label}: drained {e} still owns partition groups"
        );
        assert_eq!(
            driver.engines()[e.index()].memory_used(),
            0,
            "{label}: drained {e} still holds resident state"
        );
    }
    let report = driver.finish().unwrap();
    dump_journal(label, &report.journal);
    report
}

// ---- sim ----------------------------------------------------------------

#[test]
fn sim_join_keeps_totals_and_takes_load() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(23).with_pattern(ArrivalPattern::Uniform);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let static_run = {
        let mut d = SimDriver::new(overloaded_cfg(spec.clone(), 2).collecting()).unwrap();
        d.run_until(deadline).unwrap();
        d.finish().unwrap()
    };
    assert_eq!(static_run.total_output(), reference);
    assert!(
        static_run.spill_counts.iter().sum::<u64>() > 0,
        "the overloaded baseline must spill for the join to matter"
    );

    let elastic = run_elastic_sim(
        overloaded_cfg(spec, 2)
            .collecting()
            .with_scale_events(vec![ScaleEvent::add(VirtualTime::from_secs(90))]),
        deadline,
        "elastic-sim-join",
        &[EngineId(2)],
        &[],
    );
    assert_eq!(
        elastic.total_output(),
        reference,
        "a live join changed the windowed total"
    );
    assert_eq!(
        count_events(&elastic.journal, |e| matches!(
            e,
            AdaptEvent::EngineJoined { .. }
        )),
        1,
        "the join must be journaled exactly once"
    );
    assert!(
        elastic.journal_counters.rebalance_moves > 0,
        "join-rebalance moves must bring state to the joiner"
    );

    // Same input, same answers: the union multiset of runtime + cleanup
    // results is identical between the static and the elastic run.
    let multiset = |r: &SimReport| {
        let mut ids = r.runtime_results.as_ref().unwrap().identities();
        ids.extend(r.cleanup_results.as_ref().unwrap().identities());
        ids.sort();
        ids
    };
    assert_eq!(
        multiset(&static_run),
        multiset(&elastic),
        "a live join changed the result multiset"
    );
}

/// What a scale-out is for: on the spill-heavy workload (1 KiB blob
/// payloads, two 4 MiB engines, lazy-disk) a third engine joining at
/// the two-minute mark must spill measurably fewer encoded bytes than
/// the static overloaded run, via real rebalance moves, at a relocation
/// cost below the spill traffic it displaces. Deterministic, so a
/// regression in the join moves or the join path fails here rather than
/// silently eroding the benefit.
#[test]
fn elastic_join_reduces_spill_writes() {
    let deadline = VirtualTime::from_mins(6);
    let arm = |events: Vec<ScaleEvent>| {
        let spec = StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
            .with_payload_blob(1024)
            .with_seed(7);
        let cfg = overloaded_cfg(spec, 2)
            .with_placement(PlacementSpec::RoundRobin)
            .with_scale_events(events);
        let mut driver = SimDriver::new(cfg).unwrap();
        driver.run_until(deadline).unwrap();
        driver.finish().unwrap().journal_counters
    };
    let fixed = arm(Vec::new());
    let joined = arm(vec![ScaleEvent::add(VirtualTime::from_mins(2))]);
    assert!(fixed.spill_bytes_written > 0 && joined.spill_bytes_written > 0);
    assert!(joined.rebalance_moves > 0, "join arm must rebalance state");
    assert!(
        fixed.spill_bytes_written as f64 >= 1.1 * joined.spill_bytes_written as f64,
        "mid-run join must cut spill writes by >= 10%: static {} vs elastic {}",
        fixed.spill_bytes_written,
        joined.spill_bytes_written
    );
    assert!(
        joined.transfer_bytes < fixed.spill_bytes_written,
        "relocation traffic must stay below the static spill volume: {} transfer vs {} spill",
        joined.transfer_bytes,
        fixed.spill_bytes_written
    );
}

#[test]
fn sim_drain_retires_engine_empty_and_keeps_totals() {
    let deadline = VirtualTime::from_mins(6);
    let spec = relocation_workload(55);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let static_run = {
        let mut d = SimDriver::new(relocation_cfg(spec.clone(), 3).collecting()).unwrap();
        d.run_until(deadline).unwrap();
        d.finish().unwrap()
    };
    assert_eq!(static_run.total_output(), reference);

    let elastic = run_elastic_sim(
        relocation_cfg(spec, 3)
            .collecting()
            .with_scale_events(vec![ScaleEvent::drain(VirtualTime::from_mins(2))]),
        deadline,
        "elastic-sim-drain",
        &[],
        &[EngineId(2)],
    );
    assert_eq!(
        elastic.total_output(),
        reference,
        "a live drain changed the windowed total"
    );
    assert_eq!(
        count_events(&elastic.journal, |e| matches!(
            e,
            AdaptEvent::EngineDrained { .. }
        )),
        1,
        "the drain must be journaled exactly once"
    );
    assert_eq!(elastic.journal_counters.buffered_in_flight, 0);

    let multiset = |r: &SimReport| {
        let mut ids = r.runtime_results.as_ref().unwrap().identities();
        ids.extend(r.cleanup_results.as_ref().unwrap().identities());
        ids.sort();
        ids
    };
    assert_eq!(
        multiset(&static_run),
        multiset(&elastic),
        "a live drain changed the result multiset"
    );
}

#[test]
fn sim_elastic_totals_survive_chaos() {
    let deadline = VirtualTime::from_mins(6);
    let spec = relocation_workload(77);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    let events = vec![
        ScaleEvent::add(VirtualTime::from_secs(60)),
        ScaleEvent::drain_engine(VirtualTime::from_mins(3), EngineId(1)),
    ];

    for seed in seeds() {
        let plan = FaultPlan::new(seed, FaultConfig::uniform(0.2));
        let report = run_elastic_sim(
            relocation_cfg(spec.clone(), 2)
                .with_scale_events(events.clone())
                .with_faults(plan),
            deadline,
            &format!("elastic-sim-chaos-seed{seed}"),
            &[EngineId(2)],
            &[EngineId(1)],
        );
        assert_eq!(
            report.total_output(),
            reference,
            "seed {seed}: chaos over an elastic run changed the total"
        );
        assert_chaos_invariants(&report.journal, &report.journal_counters);
        assert_eq!(
            count_events(&report.journal, |e| matches!(
                e,
                AdaptEvent::EngineJoined { .. }
            )),
            1,
            "seed {seed}"
        );
        assert_eq!(
            count_events(&report.journal, |e| matches!(
                e,
                AdaptEvent::EngineDrained { .. }
            )),
            1,
            "seed {seed}"
        );
    }
}

// ---- threaded -----------------------------------------------------------

#[test]
fn threaded_join_and_drain_keep_totals() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(91);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let static_run = run_threaded(relocation_cfg(spec.clone(), 2), deadline).unwrap();
    assert_eq!(static_run.total_output(), reference);

    let elastic = run_threaded(
        relocation_cfg(spec, 2).with_scale_events(vec![
            ScaleEvent::add(VirtualTime::from_secs(60)),
            ScaleEvent::drain_engine(VirtualTime::from_mins(3), EngineId(0)),
        ]),
        deadline,
    )
    .unwrap();
    dump_journal("elastic-threaded", &elastic.journal);
    assert_eq!(
        elastic.total_output(),
        reference,
        "threaded join+drain changed the total"
    );
    assert_eq!(
        count_events(&elastic.journal, |e| matches!(
            e,
            AdaptEvent::EngineJoined { .. }
        )),
        1
    );
    assert_eq!(
        count_events(&elastic.journal, |e| matches!(
            e,
            AdaptEvent::EngineDrained { .. }
        )),
        1
    );
    assert_eq!(elastic.journal_counters.buffered_in_flight, 0);
}

#[test]
fn threaded_elastic_survives_chaos() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(42);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    let seed = seeds()[0];
    let plan = FaultPlan::new(seed, FaultConfig::uniform(0.2));

    let report = run_threaded(
        relocation_cfg(spec, 2)
            .with_scale_events(vec![
                ScaleEvent::add(VirtualTime::from_secs(60)),
                ScaleEvent::drain_engine(VirtualTime::from_mins(3), EngineId(1)),
            ])
            .with_faults(plan),
        deadline,
    )
    .unwrap_or_else(|e| panic!("seed {seed}: threaded elastic chaos run failed: {e}"));
    dump_journal(
        &format!("elastic-threaded-chaos-seed{seed}"),
        &report.journal,
    );
    assert_eq!(
        report.total_output(),
        reference,
        "seed {seed}: chaos over a threaded elastic run changed the total"
    );
    assert_chaos_invariants(&report.journal, &report.journal_counters);
}

// ---- socket (smoke; the full matrix lives in socket_equivalence.rs) -----

#[test]
fn socket_elastic_smoke() {
    let Ok(bin) = std::env::var("DCAPE_NODE_BIN") else {
        eprintln!("DCAPE_NODE_BIN not set; skipping the socket elastic smoke run");
        return;
    };
    let deadline = VirtualTime::from_mins(4);
    let spec = relocation_workload(7);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let report = run_socket(
        SocketConfig {
            sim: relocation_cfg(spec, 2).with_scale_events(vec![
                ScaleEvent::add(VirtualTime::from_secs(60)),
                ScaleEvent::drain_engine(VirtualTime::from_mins(2), EngineId(0)),
            ]),
            mode: SocketMode::Spawn {
                node_bin: bin.into(),
            },
            kill: None,
        },
        deadline,
    )
    .unwrap();
    dump_journal("elastic-socket-smoke", &report.journal);
    assert_eq!(
        report.total_output(),
        reference,
        "socket join+drain changed the total"
    );
    assert_eq!(
        count_events(&report.journal, |e| matches!(
            e,
            AdaptEvent::EngineJoined { .. }
        )),
        1
    );
    assert_eq!(
        count_events(&report.journal, |e| matches!(
            e,
            AdaptEvent::EngineDrained { .. }
        )),
        1
    );
    assert_eq!(report.journal_counters.buffered_in_flight, 0);
}
