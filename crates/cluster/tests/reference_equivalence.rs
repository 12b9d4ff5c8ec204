//! Property-based equivalence of every runtime with the reference join.
//!
//! There is one data path — rows encoded at the split, batches to the
//! engines, columnar state, whole probe products counted unless the sink
//! collects — and one oracle for it: [`ReferenceJoin`], the per-key
//! product / windowed sweep over the generated input, which shares no
//! code with the engine. For any case — windowed or not, skewed or not,
//! padded or real blob payloads, tight memory (spills, cleanup),
//! lazy- or active-disk relocation, two or three engines, chaos faults
//! on the relocation protocol — the sim's collected result multiset is
//! the oracle's, and the totals of the counting sim, of the threaded
//! runtime and of every phase are the oracle's count.
//!
//! Windowed totals are asserted exactly on the threaded runtime too:
//! window purges run at the watermark-driven horizon (`min(admitted
//! watermark, oldest tuple still buffered at any split)`), so tuples
//! buffered during a relocation always find their join partners alive
//! when they replay, and every sound run — threaded or simulated, fast
//! or slow, under any thread schedule — emits exactly the reference
//! windowed join.

use proptest::prelude::*;

use dcape_cluster::faults::{FaultConfig, FaultPlan};
use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::testing::dump_journal;
use dcape_cluster::{PlacementSpec, RunReport};
use dcape_common::ids::PartitionId;
use dcape_common::testing::{proptest_cases as cases, ReferenceJoin};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_streamgen::testing::reference_join;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// What a single case varies.
#[derive(Debug, Clone)]
struct CaseParams {
    seed: u64,
    num_partitions: u32,
    tuple_range: u64,
    /// Payload bytes per tuple (0 = none): accounted-only padding, or —
    /// with `blob` — real bytes, which exercise the payload arena and
    /// the dictionary column encoder.
    payload: u32,
    blob: bool,
    skewed: bool,
    tight_memory: bool,
    active_disk: bool,
    num_engines: usize,
    /// Sliding window in virtual ms (`None` = unwindowed). Small
    /// windows exercise the straddling-span fallback, large ones the
    /// everything-fits product shortcut.
    window_ms: Option<u64>,
}

impl CaseParams {
    fn window(&self) -> Option<VirtualDuration> {
        self.window_ms.map(VirtualDuration::from_millis)
    }
}

fn case_strategy() -> impl Strategy<Value = CaseParams> {
    (
        (0u64..1_000, 8u32..33, 200u64..2401, 0u32..513),
        (any::<bool>(), any::<bool>(), any::<bool>(), 2usize..4),
        (any::<bool>(), any::<bool>(), 200u64..120_000),
    )
        .prop_map(
            |(
                (seed, num_partitions, tuple_range, payload),
                (skewed, tight_memory, active_disk, num_engines),
                (blob, windowed, window_raw),
            )| CaseParams {
                seed,
                num_partitions,
                tuple_range,
                payload,
                blob,
                skewed,
                tight_memory,
                active_disk,
                num_engines,
                window_ms: windowed.then_some(window_raw),
            },
        )
}

fn workload(p: &CaseParams) -> StreamSetSpec {
    let spec = StreamSetSpec::uniform(
        p.num_partitions,
        p.tuple_range,
        1,
        VirtualDuration::from_millis(30),
    )
    .with_seed(p.seed);
    let spec = if p.blob {
        spec.with_payload_blob(p.payload)
    } else {
        spec.with_payload_pad(p.payload)
    };
    if !p.skewed {
        return spec;
    }
    let group_a: Vec<PartitionId> = (0..p.num_partitions / 4).map(PartitionId).collect();
    spec.with_pattern(ArrivalPattern::AlternatingSkew {
        group_a,
        ratio: 8.0,
        period: VirtualDuration::from_mins(1),
    })
}

fn build_config(p: &CaseParams) -> SimConfig {
    let mut engine = if p.tight_memory {
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4)
    } else {
        EngineConfig::three_way(1 << 30, 1 << 29)
    };
    if let Some(w) = p.window() {
        engine.join = engine.join.with_window(w);
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
    let mut cfg = SimConfig::new(p.num_engines, engine, workload(p), strategy)
        .with_stats_interval(VirtualDuration::from_secs(30));
    if p.num_engines == 2 {
        cfg = cfg.with_placement(PlacementSpec::Fractions(vec![0.7, 0.3]));
    }
    cfg
}

/// The oracle for a case run to `deadline`.
fn reference(p: &CaseParams, deadline: VirtualTime) -> ReferenceJoin {
    reference_join(&workload(p), deadline, p.window()).unwrap()
}

/// Per-engine `(pid, bytes, P_output)` triples of every resident group —
/// what a sink does with a product must leave memory accounting and
/// productivity untouched.
type GroupOutputs = Vec<Vec<(PartitionId, usize, u64)>>;

/// Run the sim to the deadline, returning the report plus the per-group
/// stats observed at the deadline (before cleanup).
fn run_sim(cfg: SimConfig, deadline: VirtualTime) -> (RunReport, GroupOutputs) {
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let groups = driver
        .engines()
        .iter()
        .map(|e| {
            let stats = e.join().group_stats();
            stats.iter().map(|g| (g.pid, g.bytes, g.output)).collect()
        })
        .collect();
    (driver.finish().unwrap(), groups)
}

/// Sorted identity multiset of every collected result (runtime +
/// cleanup).
fn result_identities(report: &RunReport) -> Vec<Vec<(u8, u64)>> {
    let mut ids = report.runtime_results.as_ref().unwrap().identities();
    ids.extend(report.cleanup_results.as_ref().unwrap().identities());
    ids.sort_unstable();
    ids
}

/// The threaded runtime's total is the oracle's count; nothing stays
/// buffered; it routed what the sim routed.
fn check_threaded(name: &str, p: &CaseParams, deadline: VirtualTime) -> Result<(), TestCaseError> {
    let expected = reference(p, deadline).count();
    let threaded = run_threaded(build_config(p), deadline).unwrap();
    dump_journal(name, &threaded.journal);
    prop_assert_eq!(threaded.total_output(), expected, "threaded total");
    prop_assert_eq!(threaded.journal_counters.buffered_in_flight, 0);

    let (simulated, _) = run_sim(build_config(p), deadline);
    prop_assert_eq!(simulated.total_output(), expected, "sim total");
    prop_assert_eq!(
        threaded.journal_counters.tuples_routed,
        simulated.journal_counters.tuples_routed
    );
    Ok(())
}

proptest! {
    // Each case runs the full simulation twice; keep the default count
    // small (CI stress runs raise it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(8),
        ..ProptestConfig::default()
    })]

    /// For arbitrary workloads the collecting sim run delivers exactly
    /// the oracle's result multiset, and the counting run — the same
    /// program with the other sink — is observationally identical to
    /// it: same per-phase counts, same per-group `P_output`, same
    /// adaptation history, same journal counter totals.
    #[test]
    fn sim_results_equal_the_reference_join(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let oracle = reference(&p, deadline);
        let (collected, collected_groups) = run_sim(build_config(&p).collecting(), deadline);
        let (counted, counted_groups) = run_sim(build_config(&p), deadline);

        prop_assert_eq!(
            result_identities(&collected),
            oracle.identities(),
            "result multiset vs oracle"
        );
        prop_assert_eq!(counted.total_output(), oracle.count(), "counted total vs oracle");

        // Counts are the sizes of the materialized multisets, phase by
        // phase.
        prop_assert_eq!(
            counted.runtime_output,
            collected.runtime_results.as_ref().unwrap().len() as u64,
            "runtime count vs collected multiset"
        );
        prop_assert_eq!(
            counted.cleanup_output,
            collected.cleanup_results.as_ref().unwrap().len() as u64,
            "cleanup count vs collected multiset"
        );
        prop_assert_eq!(counted.runtime_output, collected.runtime_output);
        prop_assert_eq!(counted.cleanup_output, collected.cleanup_output);
        prop_assert_eq!(counted_groups, collected_groups, "per-group P_output diverges");
        prop_assert_eq!(counted.relocations.len(), collected.relocations.len());
        prop_assert_eq!(&counted.spill_counts, &collected.spill_counts);
        prop_assert_eq!(counted.force_spills, collected.force_spills);

        // Journal counter totals must match exactly; the in-flight
        // gauge must drain to zero.
        let a = counted.journal_counters;
        let b = collected.journal_counters;
        prop_assert_eq!(a.tuples_routed, b.tuples_routed);
        prop_assert_eq!(a.spill_bytes, b.spill_bytes);
        prop_assert_eq!(a.spill_bytes_written, b.spill_bytes_written);
        prop_assert_eq!(a.spill_bytes_read, b.spill_bytes_read);
        prop_assert_eq!(a.relocation_bytes, b.relocation_bytes);
        prop_assert_eq!(a.transfer_bytes, b.transfer_bytes);
        prop_assert_eq!(a.buffered_in_flight, 0);
        prop_assert_eq!(b.buffered_in_flight, 0);
    }
}

/// The spill-heavy regime — 1 KiB blob payloads drawn from a few
/// templates, 4 MiB engines — must actually spill, and the column
/// blocks must write at most half of what verbatim rows did, under
/// either strategy: a codec regression fails here rather than silently
/// shrinking the ratio. The retired row codec wrote 0.88 of the
/// accounted state these runs push out (36.7 of 41.9 MB, and 36.3 of
/// 41.4 MB under active-disk), so half of it is 0.44 of that state.
#[test]
fn spill_heavy_reduction_holds() {
    for active_disk in [false, true] {
        let p = CaseParams {
            seed: 7,
            num_partitions: 24,
            tuple_range: 2400,
            payload: 1024,
            blob: true,
            skewed: false,
            tight_memory: true,
            active_disk,
            num_engines: 2,
            window_ms: None,
        };
        let (report, _) = run_sim(build_config(&p), VirtualTime::from_mins(6));
        let c = report.journal_counters;
        assert!(
            c.spill_bytes_written > 0,
            "active_disk {active_disk}: no spills"
        );
        assert!(
            100 * c.spill_bytes_written <= 44 * c.spill_bytes,
            "active_disk {active_disk}: column blocks must halve spill writes: \
             state {} vs written {}",
            c.spill_bytes,
            c.spill_bytes_written
        );
    }
}

proptest! {
    // Threaded runs spin up real threads and chaos runs retry for a
    // while; keep the default count smaller still (CI stress runs raise
    // it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(4),
        ..ProptestConfig::default()
    })]

    /// Threaded runtime: adaptation *timing* is scheduler-dependent,
    /// but totals are not — windowed or unwindowed, the threaded run
    /// and the deterministic sim produce exactly the oracle's count.
    /// Watermark-driven purging is what makes the windowed half of
    /// this claim hold: the purge horizon is tied to data progress, so
    /// no thread schedule can purge the partners of a tuple buffered
    /// during a relocation.
    #[test]
    fn threaded_totals_equal_the_reference_join(p in case_strategy()) {
        check_threaded(
            "threaded_totals_equal_the_reference_join",
            &p,
            VirtualTime::from_mins(3),
        )?;
    }

    /// The same with a sliding window always configured — the
    /// converted form of what used to be a smoke-only pass.
    #[test]
    fn threaded_windowed_totals_are_exact(p in case_strategy()) {
        let p = CaseParams {
            window_ms: Some(p.window_ms.unwrap_or(45_000)),
            ..p
        };
        check_threaded("threaded_windowed_totals_are_exact", &p, VirtualTime::from_mins(2))?;
    }

    /// Chaos seeds: with deterministic faults active on the relocation
    /// protocol (drops, duplicates, delays, corrupt lengths, crashes,
    /// stalls), what the sim collects is still exactly the oracle's
    /// multiset — no result lost to an aborted round, none duplicated
    /// by a retried one — and no tuple is left buffered.
    #[test]
    fn sim_under_chaos_equals_the_reference_join(
        p in case_strategy(),
        chaos_seed in 0u64..1_000,
    ) {
        let p = CaseParams { skewed: true, ..p };
        let deadline = VirtualTime::from_mins(2);
        let oracle = reference(&p, deadline);
        let plan = FaultPlan::new(chaos_seed, FaultConfig::uniform(0.2));
        let (chaotic, _) = run_sim(build_config(&p).collecting().with_faults(plan), deadline);

        prop_assert_eq!(chaotic.total_output(), oracle.count(), "chaos total vs oracle");
        prop_assert_eq!(
            result_identities(&chaotic),
            oracle.identities(),
            "chaos result multiset vs oracle"
        );
        prop_assert_eq!(chaotic.journal_counters.buffered_in_flight, 0);
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
/// workload all produce exactly the sim's total — the oracle's count —
/// under every schedule.
#[test]
fn windowed_relocation_replay_matches_sim_exactly() {
    for seed in [500u64, 501, 502] {
        let p = CaseParams {
            seed,
            num_partitions: 29,
            tuple_range: 1754,
            payload: 4096,
            blob: false,
            skewed: true,
            tight_memory: true,
            active_disk: false,
            num_engines: 3,
            window_ms: Some(45_000),
        };
        let deadline = VirtualTime::from_mins(2);
        let mk = || build_config(&p).with_stats_interval(VirtualDuration::from_secs(5));
        let (sim, _) = run_sim(mk(), deadline);
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
        assert_eq!(
            sim.total_output(),
            reference(&p, deadline).count(),
            "seed {seed}: sim windowed total diverged from the reference join"
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
        payload: 120,
        blob: false,
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
        let threaded = run_threaded(build_config(&p), deadline).unwrap();
        let (sim, _) = run_sim(build_config(&p), deadline);
        assert_eq!(
            threaded.journal_counters.buffered_in_flight, 0,
            "deadline {deadline_s}s: tuples stranded in split buffers after quiesce"
        );
        assert_eq!(
            threaded.total_output(),
            sim.total_output(),
            "deadline {deadline_s}s: quiesced threaded total diverged from sim"
        );
        assert_eq!(
            sim.total_output(),
            reference(&p, deadline).count(),
            "deadline {deadline_s}s: sim total diverged from the reference join"
        );
    }
}

/// One protocol implementation: on a run whose engines see a
/// deterministic message sequence — tight memory, no adaptation, so
/// only data, pulses and statistics requests — the deterministic runtime
/// and the threaded one are the same program to the digit: per-phase
/// outputs, per-engine spills, every spill counter. Unwindowed and with
/// a 60 s window; both totals are the oracle's count.
#[test]
fn sim_equals_threaded_on_a_deterministic_run() {
    let deadline = VirtualTime::from_mins(4);
    for window in [None, Some(VirtualDuration::from_secs(60))] {
        for seed in [55u64, 91, 7] {
            let spec = StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
                .with_payload_pad(200)
                .with_seed(seed);
            let spill_cfg = || {
                let mut engine =
                    EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4);
                if let Some(w) = window {
                    engine.join = engine.join.with_window(w);
                }
                SimConfig::new(2, engine, spec.clone(), StrategyConfig::NoAdaptation)
                    .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
                    .with_stats_interval(VirtualDuration::from_secs(30))
            };
            let what = format!("seed {seed}, window {window:?}");
            let (simulated, _) = run_sim(spill_cfg(), deadline);
            let threaded = run_threaded(spill_cfg(), deadline).unwrap();
            let expected = reference_join(&spec, deadline, window).unwrap().count();
            assert!(
                simulated.spill_counts.iter().sum::<u64>() > 0,
                "{what}: must spill"
            );
            assert_eq!(simulated.total_output(), expected, "{what}: sim total");
            assert_eq!(threaded.total_output(), expected, "{what}: threaded total");
            assert_eq!(simulated.runtime_output, threaded.runtime_output, "{what}");
            assert_eq!(simulated.cleanup_output, threaded.cleanup_output, "{what}");
            assert_eq!(simulated.spill_counts, threaded.spill_counts, "{what}");
            let (s, t) = (simulated.journal_counters, threaded.journal_counters);
            assert_eq!(s.tuples_routed, t.tuples_routed, "{what}");
            assert_eq!(s.spill_bytes, t.spill_bytes, "{what}");
            assert_eq!(s.spill_bytes_written, t.spill_bytes_written, "{what}");
        }
    }
}
