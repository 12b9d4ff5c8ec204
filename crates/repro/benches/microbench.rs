//! Micro-benchmarks of the core building blocks: symmetric join
//! insert/probe, tuple codec, spill round-trips, victim selection,
//! cleanup merging, routing, and stream generation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dcape_common::ids::{EngineId, PartitionId, StreamId};
use dcape_common::mem::MemoryTracker;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::{Tuple, TupleBuilder};
use dcape_engine::config::MJoinConfig;
use dcape_engine::operators::mjoin::MJoinOperator;
use dcape_engine::sink::CountingSink;
use dcape_engine::spill::cleanup::merge_segments;
use dcape_engine::state::productivity::GroupStats;
use dcape_engine::VictimPolicy;
use dcape_storage::{SpillStore, SpilledGroup};
use dcape_streamgen::{StreamSetGenerator, StreamSetSpec};

fn tpl(stream: u8, seq: u64, key: i64, pad: u32) -> Tuple {
    TupleBuilder::new(StreamId(stream))
        .seq(seq)
        .ts(VirtualTime::from_millis(seq))
        .value(key)
        .pad(pad)
        .build()
}

/// Symmetric m-way hash join: insert throughput at different join
/// multiplicities (matches per probe).
fn bench_join_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("join/insert");
    for &multiplicity in &[1u64, 4, 16] {
        group.throughput(Throughput::Elements(3000));
        group.bench_with_input(
            BenchmarkId::from_parameter(multiplicity),
            &multiplicity,
            |b, &m| {
                b.iter(|| {
                    let mut op = MJoinOperator::new(
                        MJoinConfig::same_column(3, 0),
                        MemoryTracker::new(u64::MAX),
                    )
                    .unwrap();
                    let mut sink = CountingSink::new();
                    for seq in 0..1000u64 {
                        for s in 0..3u8 {
                            let key = (seq / m) as i64;
                            op.process(
                                PartitionId((key % 8) as u32),
                                tpl(s, seq, key, 0),
                                &mut sink,
                            )
                            .unwrap();
                        }
                    }
                    black_box(sink.count())
                });
            },
        );
    }
    group.finish();
}

/// Tuple codec round-trip.
fn bench_codec(c: &mut Criterion) {
    use dcape_storage::codec::{decode_tuple, encode_tuple};
    let tuple = tpl(1, 123456, 987654, 512);
    c.bench_function("codec/encode_decode_tuple", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::with_capacity(64);
            encode_tuple(&mut buf, black_box(&tuple));
            let mut bytes = buf.freeze();
            black_box(decode_tuple(&mut bytes).unwrap())
        });
    });
}

fn group_with(tuples_per_stream: u64, pad: u32) -> SpilledGroup {
    let mut g = SpilledGroup::empty(PartitionId(0), 3);
    for s in 0..3u8 {
        for i in 0..tuples_per_stream {
            g.push(&tpl(s, i, i as i64 % 50, pad)).unwrap();
        }
    }
    g
}

/// Spill store round-trip (in-memory backend; file backend separately).
fn bench_spill_store(c: &mut Criterion) {
    let g = group_with(500, 256);
    c.bench_function("spill/mem_roundtrip_1500_tuples", |b| {
        b.iter(|| {
            let mut store = SpillStore::in_memory();
            store.spill_group(black_box(&g)).unwrap();
            black_box(store.take_segments(PartitionId(0)).unwrap())
        });
    });
    let dir = std::env::temp_dir().join("dcape-bench-spill");
    c.bench_function("spill/file_roundtrip_1500_tuples", |b| {
        b.iter(|| {
            let backend = dcape_storage::FileBackend::new(&dir).unwrap();
            let mut store = SpillStore::new(Box::new(backend));
            store.spill_group(black_box(&g)).unwrap();
            black_box(store.take_segments(PartitionId(0)).unwrap())
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One partition group across every state boundary, the life of a spill
/// victim or a relocated group: extract (`into_snapshot`) → encode →
/// decode → install (`from_snapshot`). 3 streams × 2 000 rows, each an
/// integer key and a 1 KiB blob drawn from 8 templates — the shape
/// `spill_cleanup_sim` moves.
fn bench_snapshot_roundtrip(c: &mut Criterion) {
    use dcape_common::value::Value;
    use dcape_engine::state::PartitionGroup;
    const ROWS: u64 = 2000;
    let templates: Vec<bytes::Bytes> = (0..8u8)
        .map(|v| bytes::Bytes::from(vec![b'a' + v; 1024]))
        .collect();
    let mut group = c.benchmark_group("spill/snapshot_roundtrip");
    group.throughput(Throughput::Elements(3 * ROWS));
    group.bench_function("3x2000_rows_blob1024", |b| {
        b.iter_batched(
            || {
                let mut g = PartitionGroup::new(PartitionId(0), vec![0, 0, 0], None);
                let mut sink = CountingSink::new();
                for seq in 0..ROWS {
                    for s in 0..3u8 {
                        let t = TupleBuilder::new(StreamId(s))
                            .seq(seq)
                            .ts(VirtualTime::from_millis(seq * 30))
                            .value((seq % 1000) as i64)
                            .value(Value::Blob(templates[(seq % 8) as usize].clone()))
                            .build();
                        g.insert(t, &mut sink).unwrap();
                    }
                }
                g
            },
            |g| {
                let (snapshot, output) = g.into_snapshot();
                let segment = snapshot.encode();
                drop(snapshot);
                let decoded = SpilledGroup::decode(segment).unwrap();
                black_box(PartitionGroup::from_snapshot(
                    decoded,
                    vec![0, 0, 0],
                    None,
                    output,
                ))
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Victim selection over 1 000 candidate groups.
fn bench_victim_selection(c: &mut Criterion) {
    let stats: Vec<GroupStats> = (0..1000u32)
        .map(|i| {
            GroupStats::new(
                PartitionId(i),
                (i as usize % 97) * 1000 + 100,
                (i as u64 * 37) % 5000,
            )
        })
        .collect();
    let mut group = c.benchmark_group("policy/select_1000_groups");
    for policy in [
        VictimPolicy::LeastProductive,
        VictimPolicy::LargestFirst,
        VictimPolicy::Random,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, p| {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
                b.iter(|| black_box(p.select_victims(stats.clone(), 5_000_000, &mut rng)));
            },
        );
    }
    group.finish();
}

/// Cleanup merging at different segment counts.
fn bench_cleanup_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("cleanup/merge");
    for &segments in &[2usize, 4, 8] {
        let slices: Vec<SpilledGroup> = (0..segments).map(|_| group_with(100, 0)).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(segments),
            &slices,
            |b, slices| {
                b.iter(|| {
                    let mut sink = CountingSink::new();
                    merge_segments(&[0, 0, 0], black_box(slices.clone()), &mut sink).unwrap();
                    black_box(sink.count())
                });
            },
        );
    }
    group.finish();
}

/// Stream generation throughput.
fn bench_generator(c: &mut Criterion) {
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30))
        .with_payload_pad(1024);
    c.bench_function("streamgen/10k_ticks", |b| {
        b.iter(|| {
            let mut gen = StreamSetGenerator::new(spec.clone()).unwrap();
            black_box(gen.generate_ticks(10_000).len())
        });
    });
}

/// Relocation extract + install between two engines.
fn bench_relocation_transfer(c: &mut Criterion) {
    use dcape_engine::config::EngineConfig;
    use dcape_engine::engine::QueryEngine;
    c.bench_function("relocation/extract_install_8_groups", |b| {
        b.iter_batched(
            || {
                let mut a = QueryEngine::in_memory(
                    EngineId(0),
                    EngineConfig::three_way(u64::MAX / 4, u64::MAX / 8),
                )
                .unwrap();
                let mut sink = CountingSink::new();
                for seq in 0..2000u64 {
                    for s in 0..3u8 {
                        let key = (seq % 200) as i64;
                        a.process(
                            PartitionId((key % 8) as u32),
                            tpl(s, seq, key, 128),
                            &mut sink,
                        )
                        .unwrap();
                    }
                }
                let b_engine = QueryEngine::in_memory(
                    EngineId(1),
                    EngineConfig::three_way(u64::MAX / 4, u64::MAX / 8),
                )
                .unwrap();
                (a, b_engine)
            },
            |(mut a, mut b_engine)| {
                let parts = a.select_parts_to_move(u64::MAX / 2);
                let groups = a.extract_groups(&parts);
                b_engine.install_groups(groups).unwrap();
                black_box(b_engine.join().group_count())
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

/// Steady-state window purge, the regime `dcape-bench`'s windowed
/// workloads run in: a 600 s window filled at the paper rate over 120
/// partitions (≈ 60 000 live rows) plus 100 s of backlog, then 100
/// one-second pulses that each expire ≈ 100 rows. Only the pulses are
/// timed: ns/iter ÷ 100 is the cost of a pulse, and the element rate
/// is expired rows per second.
fn bench_purge_steady_state(c: &mut Criterion) {
    const WINDOW_S: u64 = 600;
    const PULSES: u64 = 100;
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30))
        .with_payload_pad(1024);
    let mut gen = StreamSetGenerator::new(spec).unwrap();
    let partitioner = gen.partitioner();
    let input = gen.generate_until(VirtualTime::from_secs(WINDOW_S + PULSES));
    let expired = input
        .iter()
        .filter(|t| t.ts() < VirtualTime::from_secs(PULSES))
        .count();
    let mut group = c.benchmark_group("join/purge_steady_state");
    group.throughput(Throughput::Elements(expired as u64));
    group.bench_function("100_pulses", |b| {
        b.iter_batched(
            || {
                let cfg = MJoinConfig::same_column(3, 0)
                    .with_window(VirtualDuration::from_secs(WINDOW_S));
                let mut op = MJoinOperator::new(cfg, MemoryTracker::new(u64::MAX)).unwrap();
                let mut sink = CountingSink::new();
                for t in &input {
                    let pid = partitioner.partition_of(t.get(0).unwrap());
                    op.process(pid, t.clone(), &mut sink).unwrap();
                }
                op
            },
            |mut op| {
                let mut freed = 0usize;
                for pulse in 1..=PULSES {
                    freed += op.purge_expired(VirtualTime::from_secs(WINDOW_S + pulse), |_| false);
                }
                black_box((freed, op))
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Probe + insert into a full sliding window — the kernel of
/// `dcape-bench`'s paced job, timed without the bench crate. A 600 s
/// window is filled at the paper rate over 120 partitions (≈ 60 000 live
/// rows, ≈ 10 000 keys); 100 s more input, pre-routed into 64-tick
/// batches (192 tuples, the threaded driver's cap), is then fed to the
/// one engine with a purge pulse once a virtual second has passed — a
/// batch spans 1.92 of them, so after each, as in the paced job — which
/// keeps state at its steady size. Only the batches and pulses are
/// timed: the element rate is tuples per second.
fn bench_probe_insert_steady_window(c: &mut Criterion) {
    use dcape_common::batch::TupleBatch;
    use dcape_engine::config::EngineConfig;
    use dcape_engine::engine::QueryEngine;
    const WINDOW_S: u64 = 600;
    const STEADY_S: u64 = 100;
    const BATCH_TICKS: usize = 64;
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30))
        .with_payload_pad(1024);
    let streams = spec.num_streams;
    let mut gen = StreamSetGenerator::new(spec).unwrap();
    let partitioner = gen.partitioner();
    let routed = |tuples: &[Tuple]| {
        let mut batch = TupleBatch::with_capacity(tuples.len());
        for t in tuples {
            batch.push(partitioner.partition_of(t.get(0).unwrap()), t.clone());
        }
        batch
    };
    let fill = routed(&gen.generate_until(VirtualTime::from_secs(WINDOW_S)));
    let steady = gen.generate_until(VirtualTime::from_secs(WINDOW_S + STEADY_S));
    let batches: Vec<(VirtualTime, TupleBatch)> = steady
        .chunks(BATCH_TICKS * streams)
        .map(|chunk| (chunk[chunk.len() - 1].ts(), routed(chunk)))
        .collect();
    let mut cfg = EngineConfig::three_way(u64::MAX / 4, u64::MAX / 8);
    cfg.join = cfg.join.with_window(VirtualDuration::from_secs(WINDOW_S));

    let mut group = c.benchmark_group("join/probe_insert_steady_window");
    group.throughput(Throughput::Elements(steady.len() as u64));
    group.bench_function("100_s", |b| {
        b.iter_batched(
            || {
                let mut engine = QueryEngine::in_memory(EngineId(0), cfg.clone()).unwrap();
                engine
                    .process_batch(&fill, &mut CountingSink::new())
                    .unwrap();
                engine
            },
            |mut engine| {
                let mut sink = CountingSink::new();
                let mut pulse = VirtualTime::from_secs(WINDOW_S + 1);
                for (now, batch) in &batches {
                    engine.process_batch(batch, &mut sink).unwrap();
                    if *now >= pulse {
                        engine.purge_at(*now);
                        pulse = *now + VirtualDuration::from_secs(1);
                    }
                }
                black_box((sink.count(), engine))
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// One `DataBatch` frame through `frame_bytes` / `read_frame`, as the
/// socket runtime's coordinator and worker do per flush: a 64-tick batch
/// (192 rows) of the paper spec with a 128 B blob — the shape
/// `skew_window_socket` sends. Framing is a bulk copy of the batch's
/// bytes; un-framing is the one validating walk plus a bulk copy.
fn bench_data_batch_frame(c: &mut Criterion) {
    use dcape_cluster::messages::ToEngine;
    use dcape_cluster::wire::{frame_bytes, read_frame, WireMsg};
    use dcape_common::batch::TupleBatch;
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30))
        .with_payload_pad(1024)
        .with_payload_blob(128);
    let mut gen = StreamSetGenerator::new(spec).unwrap();
    let partitioner = gen.partitioner();
    let tuples = gen.generate_ticks(64);
    let mut batch = TupleBatch::with_capacity(tuples.len());
    for t in tuples {
        batch.push(partitioner.partition_of(t.get(0).unwrap()), t);
    }
    let msg = WireMsg::Engine(ToEngine::DataBatch { tuples: batch });
    let mut group = c.benchmark_group("wire/data_batch_frame_roundtrip");
    group.throughput(Throughput::Bytes(frame_bytes(1, &msg).unwrap().len() as u64));
    group.bench_function("64_ticks_blob128", |b| {
        b.iter(|| {
            let frame = frame_bytes(1, black_box(&msg)).unwrap();
            black_box(read_frame(&mut frame.as_slice()).unwrap())
        });
    });
    group.finish();
}

/// Trace record + replay throughput.
fn bench_trace_io(c: &mut Criterion) {
    use dcape_storage::{TraceReader, TraceWriter};
    let tuples: Vec<Tuple> = (0..2000u64)
        .map(|i| tpl((i % 3) as u8, i, i as i64 % 50, 64))
        .collect();
    let path = std::env::temp_dir().join("dcape-bench-trace");
    c.bench_function("trace/record_replay_2000", |b| {
        b.iter(|| {
            let mut w = TraceWriter::create(&path).unwrap();
            for t in &tuples {
                w.write(t).unwrap();
            }
            w.finish().unwrap();
            let n = TraceReader::open(&path).unwrap().count();
            black_box(n)
        });
    });
    let _ = std::fs::remove_file(&path);
}

/// The per-input (XJoin-style) join baseline, for comparison with
/// `join/insert`.
fn bench_per_input_join(c: &mut Criterion) {
    use dcape_engine::spill::per_input::PerInputJoin;
    c.bench_function("join/per_input_insert_3000", |b| {
        b.iter(|| {
            let mut j = PerInputJoin::new(vec![0, 0, 0], MemoryTracker::new(u64::MAX)).unwrap();
            let mut sink = CountingSink::new();
            for seq in 0..1000u64 {
                for s in 0..3u8 {
                    let key = (seq % 40) as i64;
                    j.process(
                        PartitionId((key % 8) as u32),
                        tpl(s, seq, key, 0),
                        &mut sink,
                    )
                    .unwrap();
                }
            }
            black_box(sink.count())
        });
    });
}

criterion_group!(
    benches,
    bench_join_insert,
    bench_codec,
    bench_spill_store,
    bench_snapshot_roundtrip,
    bench_victim_selection,
    bench_cleanup_merge,
    bench_generator,
    bench_relocation_transfer,
    bench_purge_steady_state,
    bench_probe_insert_steady_window,
    bench_data_batch_frame,
    bench_trace_io,
    bench_per_input_join,
);
criterion_main!(benches);
