//! Batched vs per-tuple dataflow: the microbenchmarks behind the
//! `BENCH_pr2.json` trajectory. Each pair runs the same tuples through
//! the per-tuple entry point and the batched one, so the reported
//! ns/iter difference is the amortization win (one tracker/window
//! update per batch, rows inserted straight from their encoding).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dcape_cluster::placement::{PlacementMap, PlacementSpec, Route};
use dcape_cluster::split::SplitOperator;
use dcape_common::batch::TupleBatch;
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::mem::MemoryTracker;
use dcape_common::partition::Partitioner;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::{Tuple, TupleBuilder};
use dcape_engine::config::MJoinConfig;
use dcape_engine::operators::mjoin::MJoinOperator;
use dcape_engine::sink::CountingSink;
use dcape_streamgen::{StreamSetGenerator, StreamSetSpec};

fn tpl(stream: u8, seq: u64, key: i64, pad: u32) -> Tuple {
    TupleBuilder::new(StreamId(stream))
        .seq(seq)
        .ts(VirtualTime::from_millis(seq))
        .value(key)
        .pad(pad)
        .build()
}

/// One tick-shaped workload: `n` rounds of 3 stream tuples, routed over
/// `parts` partitions with the given join multiplicity.
fn workload(n: u64, multiplicity: u64, parts: u32) -> Vec<(PartitionId, Tuple)> {
    let mut out = Vec::with_capacity(n as usize * 3);
    for seq in 0..n {
        let key = (seq / multiplicity) as i64;
        for s in 0..3u8 {
            out.push((PartitionId((key as u32) % parts), tpl(s, seq, key, 0)));
        }
    }
    out
}

fn fresh_join() -> MJoinOperator {
    MJoinOperator::new(MJoinConfig::same_column(3, 0), MemoryTracker::new(u64::MAX)).unwrap()
}

/// Join insert: per-tuple `process` vs `process_batch` on identical
/// input, at low and high match multiplicities.
fn bench_join_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("batching/join_insert");
    for &m in &[1u64, 16] {
        let tuples = workload(1000, m, 8);
        group.throughput(Throughput::Elements(tuples.len() as u64));
        group.bench_with_input(BenchmarkId::new("per_tuple", m), &tuples, |b, tuples| {
            b.iter(|| {
                let mut op = fresh_join();
                let mut sink = CountingSink::new();
                for (pid, t) in tuples {
                    op.process(*pid, t.clone(), &mut sink).unwrap();
                }
                black_box(sink.count())
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", m), &tuples, |b, tuples| {
            b.iter(|| {
                let mut op = fresh_join();
                let mut sink = CountingSink::new();
                // 32 ticks' worth of tuples per batch; the buffer is
                // reused as the sim driver reuses its own.
                let mut batch = TupleBatch::new();
                for chunk in tuples.chunks(96) {
                    batch.clear();
                    for (pid, t) in chunk {
                        batch.push(*pid, t.clone());
                    }
                    op.process_batch(&batch, &mut sink).unwrap();
                }
                black_box(sink.count())
            });
        });
    }
    group.finish();
}

/// Split routing: classify + route per tuple vs classify a whole tick
/// into per-engine batches (the sim/threaded batched-loop inner step).
fn bench_routing(c: &mut Criterion) {
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30));
    let mut gen = StreamSetGenerator::new(spec).unwrap();
    let tuples = gen.generate_ticks(2_000);
    let num_engines = 3usize;
    let mut group = c.benchmark_group("batching/routing");
    group.throughput(Throughput::Elements(tuples.len() as u64));
    group.bench_function("per_tuple", |b| {
        b.iter(|| {
            let mut split = SplitOperator::new(Partitioner::modulo(120), vec![0, 0, 0]).unwrap();
            let mut map = PlacementMap::new(&PlacementSpec::RoundRobin, 120, num_engines).unwrap();
            let mut delivered = 0u64;
            for t in &tuples {
                let pid = split.classify(t).unwrap();
                if let Route::Deliver(_, _) = map.route(pid, t.clone()).unwrap() {
                    delivered += 1;
                }
            }
            black_box(delivered)
        });
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut split = SplitOperator::new(Partitioner::modulo(120), vec![0, 0, 0]).unwrap();
            let mut map = PlacementMap::new(&PlacementSpec::RoundRobin, 120, num_engines).unwrap();
            let mut engine_batches: Vec<TupleBatch> =
                (0..num_engines).map(|_| TupleBatch::new()).collect();
            let mut delivered = 0u64;
            for chunk in tuples.chunks(96) {
                for t in chunk {
                    let pid = split.classify(t).unwrap();
                    if let Route::Deliver(engine, tuple) = map.route(pid, t.clone()).unwrap() {
                        engine_batches[engine.index()].push(pid, tuple);
                    }
                }
                for batch in &mut engine_batches {
                    delivered += batch.len() as u64;
                    batch.clear();
                }
            }
            black_box(delivered)
        });
    });
    group.finish();
}

/// Generator: fresh Vec per tick vs the reusable `tick_batch` buffer.
fn bench_generator_tick(c: &mut Criterion) {
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30))
        .with_payload_pad(1024);
    let mut group = c.benchmark_group("batching/streamgen_5k_ticks");
    group.bench_function("collect_per_tick", |b| {
        b.iter(|| {
            let mut gen = StreamSetGenerator::new(spec.clone()).unwrap();
            let mut n = 0usize;
            for _ in 0..5_000 {
                n += gen.generate_ticks(1).len();
            }
            black_box(n)
        });
    });
    group.bench_function("tick_batch_reuse", |b| {
        b.iter(|| {
            let mut gen = StreamSetGenerator::new(spec.clone()).unwrap();
            let mut buf = Vec::new();
            let mut n = 0usize;
            for _ in 0..5_000 {
                gen.tick_batch(&mut buf);
                n += buf.len();
            }
            black_box(n)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_join_paths,
    bench_routing,
    bench_generator_tick
);
criterion_main!(benches);
