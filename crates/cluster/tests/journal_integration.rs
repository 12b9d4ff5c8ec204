//! End-to-end checks of the adaptation-event journal.
//!
//! A run with adaptation enabled must leave an auditable trail: every
//! completed relocation shows all 8 protocol steps in order, every
//! spill decision is paired with cleanup events for the same partition
//! groups, and the JSON-lines export holds one object per event.

use dcape_cluster::faults::{FaultConfig, FaultEdge, FaultPlan};
use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::{PlacementSpec, RunReport};
use dcape_common::ids::PartitionId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::{AdaptEvent, JournalEntry, SpillTrigger};
use dcape_metrics::journal_to_jsonl;
use dcape_streamgen::{ArrivalPattern, ClassAssignment, PartitionClass, StreamSetSpec};

fn small_workload(seed: u64) -> StreamSetSpec {
    StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(200)
        .with_seed(seed)
}

/// Steps of one relocation round, in merged-timeline order.
fn steps_of_round(journal: &[JournalEntry], round: u64) -> Vec<u8> {
    journal
        .iter()
        .filter_map(|e| match &e.event {
            AdaptEvent::RelocationStep { round: r, step, .. } if *r == round => Some(*step),
            _ => None,
        })
        .collect()
}

fn relocation_rounds(journal: &[JournalEntry]) -> Vec<u64> {
    let mut rounds: Vec<u64> = journal
        .iter()
        .filter_map(|e| match &e.event {
            AdaptEvent::RelocationStep { round, .. } => Some(*round),
            _ => None,
        })
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    rounds
}

fn skewed_relocation_report(deadline: VirtualTime) -> RunReport {
    let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
    let spec = small_workload(23).with_pattern(ArrivalPattern::AlternatingSkew {
        group_a,
        ratio: 10.0,
        period: VirtualDuration::from_mins(2),
    });
    // Roomy memory: relocation-only regime.
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
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    driver.finish().unwrap()
}

#[test]
fn sim_relocation_emits_all_eight_steps_in_order() {
    let report = skewed_relocation_report(VirtualTime::from_mins(8));
    assert!(
        !report.relocations.is_empty(),
        "alternating skew must trigger relocations"
    );
    assert!(!report.journal.is_empty());

    let rounds = relocation_rounds(&report.journal);
    assert!(!rounds.is_empty());
    let mut complete = 0usize;
    for round in rounds {
        let steps = steps_of_round(&report.journal, round);
        if steps.len() == 8 {
            assert_eq!(
                steps,
                vec![1, 2, 3, 4, 5, 6, 7, 8],
                "round {round} steps out of order"
            );
            complete += 1;
        } else {
            // An aborted round stops after the (empty) Ptv arrives.
            assert_eq!(steps, vec![1, 2], "round {round}: unexpected partial steps");
        }
    }
    assert_eq!(
        complete,
        report.relocations.len(),
        "every completed relocation must journal a full 8-step sequence"
    );

    // Counters match the run.
    let c = report.journal_counters;
    assert!(c.tuples_routed > 0);
    assert!(c.relocation_bytes > 0);
    assert!(
        c.transfer_bytes > 0,
        "relocations must journal encoded wire volume"
    );
    assert_eq!(c.buffered_in_flight, 0, "gauge must return to zero");
}

#[test]
fn sim_journal_merges_by_virtual_time_and_exports_jsonl() {
    let report = skewed_relocation_report(VirtualTime::from_mins(6));
    // Merged timeline is ordered by virtual time.
    for pair in report.journal.windows(2) {
        assert!(pair[0].at <= pair[1].at, "journal not time-ordered");
    }
    // JSON-lines export: one object per event.
    let jsonl = journal_to_jsonl(&report.journal);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), report.journal.len());
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\""));
    }
}

/// The spill threshold of the active-disk run below.
const SPILL_THRESHOLD: u64 = 600 << 10;

#[test]
fn sim_forced_spill_pairs_decision_with_cleanup_groups() {
    let deadline = VirtualTime::from_mins(5);
    let mut spec = small_workload(37);
    // Productivity gap: half the partitions join 4x, the rest 1x.
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
    let cfg = SimConfig::new(
        3,
        EngineConfig::three_way(1 << 22, SPILL_THRESHOLD).with_spill_fraction(0.4),
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
    assert!(report.force_spills > 0, "config must force spills");

    let forced: Vec<&JournalEntry> = report
        .journal
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                AdaptEvent::SpillDecision {
                    trigger: SpillTrigger::Forced,
                    ..
                }
            )
        })
        .collect();
    assert!(
        !forced.is_empty(),
        "forced spills must journal a SpillDecision"
    );

    // Every partition group a spill decision pushed to disk is merged
    // by a later CleanupPhase event for the same group id.
    for entry in &forced {
        let AdaptEvent::SpillDecision { groups, .. } = &entry.event else {
            unreachable!();
        };
        assert!(!groups.is_empty());
        for pid in groups {
            assert!(
                report.journal.iter().any(|e| match &e.event {
                    AdaptEvent::CleanupPhase { group, .. } => group == pid && e.at >= entry.at,
                    _ => false,
                }),
                "spilled group {pid} has no matching cleanup event"
            );
        }
    }

    // Threshold spills are journaled too, each one fired over the
    // threshold: the memory in use before it is what it left in memory
    // plus what it pushed.
    let threshold_spills = report.journal.iter().filter_map(|e| match e.event {
        AdaptEvent::SpillDecision {
            trigger: SpillTrigger::MemoryThreshold,
            memory_used,
            state_bytes,
            ..
        } => Some(memory_used + state_bytes),
        _ => None,
    });
    for used in threshold_spills {
        assert!(
            used > SPILL_THRESHOLD,
            "a threshold spill fired at {used} B, not over the threshold"
        );
    }
    // Byte-volume counters: spills journal both the accounted state
    // volume and the encoded write volume; cleanup reads the segments
    // back; the column-block codec (the default) writes fewer bytes
    // than the state it encodes.
    let c = report.journal_counters;
    assert!(c.spill_bytes > 0);
    assert!(
        c.spill_bytes_written > 0,
        "spills must journal encoded writes"
    );
    assert!(c.spill_bytes_read > 0, "cleanup must journal encoded reads");
    assert!(
        c.spill_bytes > c.spill_bytes_written,
        "column-block codec should compress: {} state bytes, {} written",
        c.spill_bytes,
        c.spill_bytes_written
    );
}

#[test]
fn threaded_journal_covers_relocations_and_merges_engine_journals() {
    let deadline = VirtualTime::from_mins(5);
    let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
    let spec = small_workload(77).with_pattern(ArrivalPattern::AlternatingSkew {
        group_a,
        ratio: 10.0,
        period: VirtualDuration::from_mins(2),
    });
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
    assert!(!report.journal.is_empty());
    for pair in report.journal.windows(2) {
        assert!(pair[0].at <= pair[1].at, "merged journal not time-ordered");
    }
    // Every engine records into a sibling of the coordinator's journal,
    // so one counter numbers the whole run: no two entries share a
    // `seq`, and a round's steps, taken in `seq` order, are the
    // protocol's causal order (an engine's clock may lag the
    // coordinator's, so timestamps alone do not give it).
    let mut seqs: Vec<u64> = report.journal.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), report.journal.len(), "merged seqs collide");
    let mut by_seq: Vec<&JournalEntry> = report.journal.iter().collect();
    by_seq.sort_by_key(|e| e.seq);
    let mut complete = 0u64;
    for round in relocation_rounds(&report.journal) {
        let steps: Vec<u8> = (by_seq.iter())
            .filter_map(|e| match &e.event {
                AdaptEvent::RelocationStep { round: r, step, .. } if *r == round => Some(*step),
                _ => None,
            })
            .collect();
        if steps.len() == 8 {
            assert_eq!(steps, vec![1, 2, 3, 4, 5, 6, 7, 8], "round {round}");
            complete += 1;
        }
    }
    assert_eq!(complete, report.relocations);
    assert!(report.journal_counters.tuples_routed > 0);
    assert!(report.journal_counters.relocation_bytes > 0);
    assert!(
        report.journal_counters.transfer_bytes > 0,
        "engine-side SendStates must journal encoded wire volume"
    );
}

/// The watermark-purge counters: a windowed run whose relocations hold
/// the purge horizon back must journal the deferral (`purges_deferred`),
/// the hold duration (`watermark_held_ms`), and the in-order replay
/// volume (`replayed_in_order`) — on both runtimes — so a regression in
/// watermark-driven purging is visible straight from `--journal` output.
#[test]
fn watermark_purge_counters_cover_both_runtimes() {
    let deadline = VirtualTime::from_mins(8);
    let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
    let windowed_cfg = || {
        let spec = small_workload(23).with_pattern(ArrivalPattern::AlternatingSkew {
            group_a: group_a.clone(),
            ratio: 10.0,
            period: VirtualDuration::from_mins(2),
        });
        let mut engine = EngineConfig::three_way(1 << 30, 1 << 29);
        engine.join = engine.join.with_window(VirtualDuration::from_secs(20));
        let mut cfg = SimConfig::new(
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
        // A slow network stretches transfers over many clock pulses, so
        // the held horizon demonstrably defers purges mid-transfer.
        cfg.network = dcape_cluster::netmodel::NetworkModel::slow_wan();
        cfg
    };

    let mut driver = SimDriver::new(windowed_cfg()).unwrap();
    driver.run_until(deadline).unwrap();
    let simulated = driver.finish().unwrap();
    assert!(
        !simulated.relocations.is_empty(),
        "skew must trigger relocations"
    );
    let c = simulated.journal_counters;
    assert!(
        c.purges_deferred > 0,
        "held horizon must defer purge pulses"
    );
    assert!(c.watermark_held_ms > 0, "hold duration must accumulate");
    assert!(c.replayed_in_order > 0, "buffered tuples must replay");
    assert_eq!(c.buffered_in_flight, 0, "gauge must return to zero");

    // Threaded runtime: the same counters flow through the channel
    // fabric (hold duration and replay volume are journaled at step 7).
    // Tuples buffer only while a round's transfer is in flight and the
    // coordinator still routes input, so the arm holds the transfer: a
    // stall-only fault plan keeps each round's `InstallStates` at its
    // sender for at least 2.1 s of virtual time (asserted below). The
    // sender lets it go only on a clock pulse past that, which the
    // coordinator sends only after routing the input before it; so a
    // round whose `SendStates` goes out 1.1 s or more before the
    // deadline has a second of input — about a hundred tuples, most of
    // them for the skewed partitions that move — reach its paused
    // partitions, which buffer and replay by construction. A stall loses
    // nothing, so the coordinator runs without phase timeouts and no
    // round aborts.
    //
    // What the arm cannot fix is when the first round starts: the
    // coordinator runs ahead of its engines, and every reply a round
    // waits for (stats, `Ptv`) adds to its lead, so on a busy host a
    // round decided mid-run may send `SendStates` only in the quiesce
    // drain after the deadline, where nothing is routed. Such a run
    // tests nothing; the arm then runs again over twice the time. A run
    // with a round that started in time must pass every assertion.
    let stalls = FaultConfig {
        stall_rate: 1.0,
        max_delay_ms: 5_000,
        ..FaultConfig::none()
    };
    let plan = FaultPlan::new(35, stalls);
    let threaded_arm = |minutes: u64| {
        let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
        let spec = StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
            .with_payload_pad(8192)
            .with_seed(23)
            .with_pattern(ArrivalPattern::AlternatingSkew {
                group_a,
                ratio: 10.0,
                period: VirtualDuration::from_mins(2),
            });
        let mut engine = EngineConfig::three_way(1 << 30, 1 << 29);
        engine.join = engine.join.with_window(VirtualDuration::from_secs(60));
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
        .with_stats_interval(VirtualDuration::from_secs(5))
        .with_faults(plan);
        let deadline = VirtualTime::from_mins(minutes);
        (run_threaded(cfg, deadline).unwrap(), deadline)
    };
    let started_in_time = |journal: &[JournalEntry], deadline: VirtualTime| {
        journal.iter().any(|e| {
            matches!(e.event, AdaptEvent::RelocationStep { step: 3, .. })
                && e.at + VirtualDuration::from_millis(1_100) <= deadline
        })
    };
    let (threaded, _) = [2, 4, 8, 16, 32]
        .into_iter()
        .map(threaded_arm)
        .find(|(report, deadline)| started_in_time(&report.journal, *deadline))
        .expect("in 32 virtual minutes no round sent SendStates before the deadline");
    assert!(threaded.relocations > 0, "skew must trigger relocations");
    for round in relocation_rounds(&threaded.journal) {
        let stall = plan.stall_ms(FaultEdge::InstallStates, round, 0);
        assert!(
            stall >= 2_100,
            "round {round}'s transfer is held {stall} ms"
        );
    }
    let t = threaded.journal_counters;
    assert_eq!(t.rounds_aborted, 0, "a stall-only plan aborts no round");
    assert_eq!(t.buffered_in_flight, 0, "gauge must return to zero");
    assert!(t.watermark_held_ms > 0, "hold duration must accumulate");
    assert!(t.replayed_in_order > 0, "buffered tuples must replay");
}

/// A run keeps its record with no builder call: on both in-process
/// runtimes, a plain `SimConfig::new` run returns a journal and the
/// counters of its routing and its spills.
#[test]
fn a_default_run_keeps_its_record() {
    let cfg = || {
        SimConfig::new(
            2,
            EngineConfig::three_way(1 << 22, 600 << 10),
            small_workload(23),
            StrategyConfig::NoAdaptation,
        )
    };
    let deadline = VirtualTime::from_mins(4);
    let mut driver = SimDriver::new(cfg()).unwrap();
    driver.run_until(deadline).unwrap();
    let simulated = driver.finish().unwrap();
    let threaded = run_threaded(cfg(), deadline).unwrap();
    for (name, journal, c) in [
        ("sim", &simulated.journal, simulated.journal_counters),
        ("threaded", &threaded.journal, threaded.journal_counters),
    ] {
        assert!(!journal.is_empty(), "{name}: an empty journal");
        assert!(c.tuples_routed > 0, "{name}: no routed tuples counted");
        assert!(c.spill_bytes > 0, "{name}: no spilled bytes counted");
    }
}
