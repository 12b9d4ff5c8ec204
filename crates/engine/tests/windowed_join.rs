//! Sliding-window join semantics (the intro's infinite-stream regime:
//! "the techniques we study … could also be applied to cases with
//! infinite data streams as long as operators have finite window
//! sizes").
//!
//! Invariants under test:
//! * results are exactly the same-key combinations whose timestamps all
//!   fit within the window (oracle comparison);
//! * purging frees the memory of expired tuples without affecting
//!   results;
//! * spill + cleanup stay exact for windowed queries — expired
//!   cross-slice combinations are NOT resurrected by the cleanup merge.

use dcape_common::ids::{EngineId, PartitionId, StreamId};
use dcape_common::mem::HeapSize;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::{Tuple, TupleBuilder};
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::{CollectingSink, CountingSink};
use dcape_engine::state::partition_group::PER_TUPLE_OVERHEAD;

fn tpl(stream: u8, seq: u64, key: i64, ts_ms: u64) -> Tuple {
    TupleBuilder::new(StreamId(stream))
        .seq(seq)
        .ts(VirtualTime::from_millis(ts_ms))
        .value(key)
        .pad(64)
        .build()
}

/// Windowed reference join: all same-key triples whose max-min ts fits
/// the window.
fn windowed_reference(all: &[Tuple], window_ms: u64) -> Vec<Vec<(u8, u64)>> {
    let mut out = Vec::new();
    for a in all.iter().filter(|t| t.stream().0 == 0) {
        for b in all.iter().filter(|t| t.stream().0 == 1) {
            for c in all.iter().filter(|t| t.stream().0 == 2) {
                if a.get(0) != b.get(0) || b.get(0) != c.get(0) {
                    continue;
                }
                let ts = [a.ts().as_millis(), b.ts().as_millis(), c.ts().as_millis()];
                let span = ts.iter().max().unwrap() - ts.iter().min().unwrap();
                if span <= window_ms {
                    out.push(vec![(0, a.seq()), (1, b.seq()), (2, c.seq())]);
                }
            }
        }
    }
    out.sort();
    out
}

fn windowed_engine(window_ms: u64, threshold: u64) -> QueryEngine {
    let mut cfg = EngineConfig::three_way(1 << 30, threshold);
    cfg.join = cfg
        .join
        .with_window(VirtualDuration::from_millis(window_ms));
    // Check the spill trigger (and purge) frequently relative to the
    // sub-second windows these tests use.
    cfg.ss_timer = VirtualDuration::from_millis(200);
    QueryEngine::in_memory(EngineId(0), cfg).unwrap()
}

/// Deterministic pseudo-random workload across partitions/keys/time.
fn workload(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let mix = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let stream = (mix % 3) as u8;
            let key = ((mix >> 8) % 6) as i64;
            tpl(stream, i, key, i * 40) // 40 ms apart
        })
        .collect()
}

#[test]
fn windowed_join_matches_oracle() {
    let window_ms = 400; // ~10 tuples wide
    let all = workload(300);
    let mut engine = windowed_engine(window_ms, 1 << 29);
    let mut sink = CollectingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), &mut sink).unwrap();
    }
    assert_eq!(sink.identities(), windowed_reference(&all, window_ms));
}

#[test]
fn purging_frees_memory_without_changing_results() {
    let window_ms = 400;
    let all = workload(400);
    // Engine A: no purging (never ticks).
    let mut a = windowed_engine(window_ms, 1 << 29);
    // Engine B: purges on every tick.
    let mut b = windowed_engine(window_ms, 1 << 29);
    let mut sink_a = CountingSink::new();
    let mut sink_b = CountingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        a.process(pid, t.clone(), &mut sink_a).unwrap();
        b.process(pid, t.clone(), &mut sink_b).unwrap();
        b.tick(t.ts()).unwrap();
    }
    assert_eq!(sink_a.count(), sink_b.count(), "purging changed results");
    assert!(
        b.memory_used() < a.memory_used() / 4,
        "purging should bound state: {} vs {}",
        b.memory_used(),
        a.memory_used()
    );
}

#[test]
fn windowed_spill_plus_cleanup_is_exact() {
    let window_ms = 600;
    let all = workload(400);
    // Tiny threshold: spills happen while the window is live.
    let mut engine = windowed_engine(window_ms, 1 << 10);
    let mut runtime = CollectingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), &mut runtime).unwrap();
        engine.tick(t.ts()).unwrap();
    }
    assert!(
        !engine.spill_history().is_empty(),
        "threshold must force spills for this test"
    );
    let mut cleanup = CollectingSink::new();
    engine.cleanup(&mut cleanup).unwrap();
    let mut produced = runtime.identities();
    produced.extend(cleanup.identities());
    produced.sort();
    let reference = windowed_reference(&all, window_ms);
    assert_eq!(
        produced.len(),
        reference.len(),
        "windowed spill/cleanup produced wrong cardinality"
    );
    assert_eq!(produced, reference);
}

#[test]
fn zero_width_window_only_matches_same_timestamp() {
    let mut engine = windowed_engine(0, 1 << 29);
    let mut sink = CountingSink::new();
    let pid = PartitionId(0);
    // Same timestamp: joins.
    engine.process(pid, tpl(0, 0, 1, 100), &mut sink).unwrap();
    engine.process(pid, tpl(1, 1, 1, 100), &mut sink).unwrap();
    engine.process(pid, tpl(2, 2, 1, 100), &mut sink).unwrap();
    assert_eq!(sink.count(), 1);
    // Different timestamp: no new joins.
    engine.process(pid, tpl(0, 3, 1, 101), &mut sink).unwrap();
    assert_eq!(sink.count(), 1);
}

#[test]
fn unwindowed_engine_unaffected() {
    // Regression guard: window = None behaves exactly as before.
    let all = workload(200);
    let mut engine =
        QueryEngine::in_memory(EngineId(0), EngineConfig::three_way(1 << 30, 1 << 29)).unwrap();
    let mut sink = CountingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), &mut sink).unwrap();
        engine.tick(t.ts()).unwrap();
    }
    let unwindowed_reference = windowed_reference(&all, u64::MAX);
    assert_eq!(sink.count() as usize, unwindowed_reference.len());
}

/// Feed `all` into `engine`, ticking at every tuple; `horizon_of` maps
/// the clock to the purge horizon the tick carries.
fn run_ticking(
    engine: &mut QueryEngine,
    all: &[Tuple],
    sink: &mut CountingSink,
    horizon_of: impl Fn(VirtualTime) -> VirtualTime,
) {
    for t in all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), sink).unwrap();
        engine
            .tick_with_horizon(t.ts(), horizon_of(t.ts()))
            .unwrap();
    }
}

#[test]
fn protected_partitions_are_never_purged_and_catch_up_on_release() {
    let window_ms = 400;
    let all = workload(600);
    let (head, tail) = all.split_at(100);
    let relocated = PartitionId(1);
    let spilled = PartitionId(2);

    // `open` purges everything; `guarded` holds the same state with
    // partition 1 installed purge-protected (segments left behind on
    // its sender) and partition 2 spilled locally.
    let mut open = windowed_engine(window_ms, 1 << 29);
    let mut guarded = windowed_engine(window_ms, 1 << 29);
    let (mut open_sink, mut guarded_sink) = (CountingSink::new(), CountingSink::new());
    run_ticking(&mut open, head, &mut open_sink, |now| now);
    run_ticking(&mut guarded, head, &mut guarded_sink, |now| now);
    let mut groups = guarded.extract_groups(&[relocated]);
    assert_eq!(groups.len(), 1);
    groups[0].2 = true;
    guarded.install_groups(groups).unwrap();
    let spilled_bytes = guarded.join().group_stats()[spilled.0 as usize].bytes as u64;
    let outcome = guarded
        .force_spill(spilled_bytes, head.last().unwrap().ts())
        .unwrap();
    assert_eq!(outcome.groups, vec![spilled]);

    run_ticking(&mut open, tail, &mut open_sink, |now| now);
    run_ticking(&mut guarded, tail, &mut guarded_sink, |now| now);
    open.assert_accounting_consistent().unwrap();
    guarded.assert_accounting_consistent().unwrap();

    let bytes_of = |e: &QueryEngine, pid: PartitionId| {
        let stats = e.join().group_stats();
        stats.iter().find(|s| s.pid == pid).map_or(0, |s| s.bytes)
    };
    // Skipped partitions kept every tuple they received since the
    // protection began; the others were purged exactly as in `open`.
    let arrived = |pid: PartitionId, from: &[Tuple]| {
        from.iter()
            .filter(|t| t.get(0).unwrap().as_int().unwrap() % 4 == pid.0 as i64)
            .count()
    };
    let per_tuple = all[0].heap_size() + PER_TUPLE_OVERHEAD; // same for every tuple
    assert_eq!(
        bytes_of(&guarded, spilled),
        arrived(spilled, tail) * per_tuple,
        "a locally spilled partition's memory tuples are never purged"
    );
    assert!(bytes_of(&guarded, relocated) >= arrived(relocated, tail) * per_tuple);
    assert!(bytes_of(&guarded, relocated) > 4 * bytes_of(&open, relocated));
    assert_eq!(
        bytes_of(&guarded, PartitionId(3)),
        bytes_of(&open, PartitionId(3))
    );

    // Release: the partition relocates on without the flag (its
    // protection travels with it), lands unprotected, and the next
    // purge catches it up to exactly what `open` holds.
    let horizon = tail.last().unwrap().ts();
    let mut groups = guarded.extract_groups(&[relocated]);
    assert!(groups[0].2, "protection is handed to the next receiver");
    groups[0].2 = false;
    guarded.install_groups(groups).unwrap();
    assert!(guarded.purge_at(horizon) > 0);
    assert_eq!(bytes_of(&guarded, relocated), bytes_of(&open, relocated));
    assert_eq!(guarded.purge_at(horizon), 0, "nothing left to catch up");
    guarded.assert_accounting_consistent().unwrap();
}

#[test]
fn held_watermark_defers_purge_and_resume_catches_up() {
    let window_ms = 400;
    let all = workload(600);
    let (before, rest) = all.split_at(200);
    let (held, after) = rest.split_at(200);
    let hold = before.last().unwrap().ts();

    // `clock` purges at the clock throughout. `lagging` sees the
    // horizon pinned at `hold` for the middle third (a relocation
    // holding the watermark), then the `Resume` catch-up purge.
    let mut clock = windowed_engine(window_ms, 1 << 29);
    let mut lagging = windowed_engine(window_ms, 1 << 29);
    let (mut clock_sink, mut lagging_sink) = (CountingSink::new(), CountingSink::new());
    run_ticking(&mut clock, before, &mut clock_sink, |now| now);
    run_ticking(&mut lagging, before, &mut lagging_sink, |now| now);
    run_ticking(&mut clock, held, &mut clock_sink, |now| now);
    run_ticking(&mut lagging, held, &mut lagging_sink, |_| hold);
    assert!(
        lagging.memory_used() > 4 * clock.memory_used(),
        "a held horizon purges nothing past it: {} vs {}",
        lagging.memory_used(),
        clock.memory_used()
    );
    // Resident bytes per partition. (`P_output` is not compared: a
    // group the purge empties is dropped with its history, and only
    // `clock` emptied any.)
    let resident = |e: &QueryEngine| -> Vec<(PartitionId, usize)> {
        let stats = e.join().group_stats();
        stats.iter().map(|s| (s.pid, s.bytes)).collect()
    };
    let watermark = held.last().unwrap().ts();
    assert!(lagging.purge_at(watermark) > 0);
    assert_eq!(resident(&lagging), resident(&clock));

    run_ticking(&mut clock, after, &mut clock_sink, |now| now);
    run_ticking(&mut lagging, after, &mut lagging_sink, |now| now);
    assert_eq!(lagging_sink.count(), clock_sink.count());
    assert_eq!(resident(&lagging), resident(&clock));
    lagging.assert_accounting_consistent().unwrap();
}
