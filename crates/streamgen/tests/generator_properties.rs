//! Property tests for the workload generator: the §3.1 semantics must
//! hold for arbitrary spec parameters, not just the paper's defaults.

use std::collections::HashMap;

use proptest::prelude::*;

use dcape_common::batch::TupleBatch;
use dcape_common::ids::PartitionId;
use dcape_common::time::VirtualDuration;
use dcape_streamgen::{ArrivalPattern, StreamSetGenerator, StreamSetSpec};

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every generated tuple routes (via the generator's own
    /// partitioner) to a valid partition, and crafted values respect
    /// the modulo embedding.
    #[test]
    fn generated_values_route_consistently(
        partitions in 2u32..64,
        tuple_range in 200u64..5000,
        join_rate in 1u32..5,
        seed in 0u64..500,
    ) {
        let spec = StreamSetSpec::uniform(
            partitions,
            tuple_range,
            join_rate,
            VirtualDuration::from_millis(30),
        )
        .with_seed(seed);
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        let partitioner = gen.partitioner();
        for t in gen.generate_ticks(200) {
            let v = t.values()[0].as_int().unwrap();
            let pid = partitioner.partition_of(&t.values()[0]);
            prop_assert!(pid.0 < partitions);
            prop_assert_eq!(v as u64 % partitions as u64, pid.0 as u64);
        }
    }

    /// The join multiplicative factor grows linearly: after k full
    /// tuple ranges, the average per-value multiplicity per stream is
    /// ~k * join_rate (§3.1's growth model).
    #[test]
    fn multiplicative_factor_grows_linearly(
        join_rate in 1u32..4,
        seed in 0u64..200,
    ) {
        let partitions = 8u32;
        let tuple_range = 800u64;
        let ranges = 3u64;
        let spec = StreamSetSpec::uniform(
            partitions,
            tuple_range,
            join_rate,
            VirtualDuration::from_millis(30),
        )
        .with_seed(seed);
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        let batch = gen.generate_ticks(tuple_range * ranges);
        let mut counts: HashMap<(u8, i64), u64> = HashMap::new();
        for t in &batch {
            *counts
                .entry((t.stream().0, t.values()[0].as_int().unwrap()))
                .or_default() += 1;
        }
        let avg = counts.values().sum::<u64>() as f64 / counts.len() as f64;
        let expected = (ranges * join_rate as u64) as f64;
        prop_assert!(
            (avg - expected).abs() / expected < 0.35,
            "avg multiplicity {avg}, expected ~{expected}"
        );
    }

    /// Static weighted skew concentrates arrivals proportionally.
    #[test]
    fn weighted_static_skews_arrivals(seed in 0u64..200) {
        let spec = StreamSetSpec::uniform(4, 400, 1, VirtualDuration::from_millis(30))
            .with_seed(seed)
            .with_pattern(ArrivalPattern::WeightedStatic(vec![9.0, 1.0, 1.0, 1.0]));
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        let _ = gen.generate_ticks(3000);
        let hot = gen.arrivals_to(dcape_common::ids::PartitionId(0));
        let cold: u64 = (1..4)
            .map(|i| gen.arrivals_to(dcape_common::ids::PartitionId(i)))
            .sum();
        // Hot partition weight 9 vs 3 => expect ~3x the rest combined.
        prop_assert!(
            hot as f64 > cold as f64 * 2.0,
            "hot {hot} vs cold-total {cold}"
        );
    }

    /// Ticks interleave all streams with non-decreasing timestamps and
    /// the configured inter-arrival gap.
    #[test]
    fn timestamps_paced_by_inter_arrival(gap_ms in 1u64..100, seed in 0u64..100) {
        let spec = StreamSetSpec::uniform(4, 400, 1, VirtualDuration::from_millis(gap_ms))
            .with_seed(seed);
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        let batch = gen.generate_ticks(50);
        for (i, chunk) in batch.chunks(3).enumerate() {
            for t in chunk {
                prop_assert_eq!(t.ts().as_millis(), i as u64 * gap_ms);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: dcape_common::testing::proptest_cases(32),
        ..ProptestConfig::default()
    })]

    /// The rows `tick_raw` lends are `tick_batch`'s tuples: tick for
    /// tick, each routes to the same partition and encodes into a batch
    /// to the same bytes, and the two generators end in the same state —
    /// with pad payloads, blob payloads, both, and a skew that flips
    /// its favoured group during the run.
    #[test]
    fn raw_rows_encode_like_tick_batch(
        partitions in 2u32..40,
        streams in 2usize..5,
        seed in any::<u64>(),
        pad in prop_oneof![0u32..1, 1u32..2048],
        blob in prop_oneof![0u32..1, 1u32..300],
        skew in any::<bool>(),
        ticks in 1u64..200,
    ) {
        let mut spec = StreamSetSpec::uniform(partitions, 400, 2, VirtualDuration::from_millis(30))
            .with_streams(streams)
            .with_seed(seed)
            .with_payload_pad(pad)
            .with_payload_blob(blob);
        if skew {
            spec = spec.with_pattern(ArrivalPattern::AlternatingSkew {
                group_a: (0..partitions).step_by(2).map(PartitionId).collect(),
                ratio: 10.0,
                period: VirtualDuration::from_millis(900),
            });
        }
        let mut raw = StreamSetGenerator::new(spec.clone()).unwrap();
        let mut built = StreamSetGenerator::new(spec).unwrap();
        let partitioner = raw.partitioner();
        let mut tick = Vec::new();
        for _ in 0..ticks {
            let mut from_raw = TupleBatch::new();
            let raw_ts = raw
                .tick_raw(|row| {
                    let pid = partitioner.partition_of_raw(row.values[StreamSetGenerator::JOIN_COLUMN]);
                    from_raw.push_raw(pid, &row);
                    Ok(())
                })
                .unwrap();
            let mut from_tuples = TupleBatch::new();
            let built_ts = built.tick_batch(&mut tick);
            for tuple in tick.drain(..) {
                let pid = partitioner.partition_of(&tuple.values()[StreamSetGenerator::JOIN_COLUMN]);
                from_tuples.push(pid, tuple);
            }
            prop_assert_eq!(raw_ts, built_ts);
            prop_assert_eq!(from_raw.len(), streams);
            prop_assert_eq!(from_raw.as_bytes(), from_tuples.as_bytes());
        }
        prop_assert_eq!((raw.now(), raw.ticks()), (built.now(), built.ticks()));
        for p in 0..partitions {
            prop_assert_eq!(raw.arrivals_to(PartitionId(p)), built.arrivals_to(PartitionId(p)));
        }
    }
}

/// The raw path's bytes, pinned: `tick_raw` → `partition_of_raw` →
/// `TupleBatch::push_raw` over 300 ticks of the three input specs the
/// benchmark's jobs use (pad 1024: the all-memory and paced jobs; blob
/// 1024: the spill job; alternating skew with blob 128: the skew job),
/// at three seeds. Each case pins the encoded length and the `fx_hash`
/// of every tick's batch bytes in order, so a change to the generator,
/// the partitioner or the batch row layout shows here even once no
/// second path is left to compare the raw rows with.
#[test]
fn raw_path_bytes_are_pinned() {
    use std::hash::Hasher;

    use dcape_common::hash::FxHasher;

    let gap = VirtualDuration::from_millis(30);
    let paper = StreamSetSpec::uniform(120, 30_000, 3, gap);
    let specs = [
        ("pad1024", paper.clone().with_payload_pad(1024)),
        (
            "blob1024",
            StreamSetSpec::uniform(120, 12_000, 1, gap).with_payload_blob(1024),
        ),
        (
            "skew_blob128",
            paper
                .with_payload_blob(128)
                .with_pattern(ArrivalPattern::AlternatingSkew {
                    group_a: (0..120).step_by(2).map(PartitionId).collect(),
                    ratio: 10.0,
                    period: VirtualDuration::from_secs(600),
                }),
        ),
    ];
    let pinned: [(&str, u64, usize, u64); 9] = [
        ("pad1024", 20_070_415, 11_462, 0xd785_8a53_d09e_7b6d),
        ("pad1024", 7, 11_449, 0x8a9e_a4fa_7c15_257c),
        ("pad1024", 1, 11_458, 0x9615_5de8_cc84_6e50),
        ("blob1024", 20_070_415, 933_195, 0xe3cb_be73_8456_0d69),
        ("blob1024", 7, 933_197, 0xa2d1_5f87_0e6e_90ab),
        ("blob1024", 1, 933_209, 0xba93_4138_7e40_ed90),
        ("skew_blob128", 20_070_415, 126_657, 0x6a7d_6b38_3fa0_7f5c),
        ("skew_blob128", 7, 126_649, 0x14a2_6fb7_4b0d_6f99),
        ("skew_blob128", 1, 126_668, 0x7e48_5de4_7223_561b),
    ];
    let mut got = Vec::new();
    for (name, spec) in &specs {
        for seed in [20_070_415u64, 7, 1] {
            let mut gen = StreamSetGenerator::new(spec.clone().with_seed(seed)).unwrap();
            let partitioner = gen.partitioner();
            let (mut len, mut hash) = (0usize, FxHasher::default());
            for _ in 0..300 {
                let mut batch = TupleBatch::new();
                gen.tick_raw(|row| {
                    let key = row.values[StreamSetGenerator::JOIN_COLUMN];
                    batch.push_raw(partitioner.partition_of_raw(key), &row);
                    Ok(())
                })
                .unwrap();
                len += batch.as_bytes().len();
                hash.write(batch.as_bytes());
            }
            got.push((*name, seed, len, hash.finish()));
        }
    }
    assert_eq!(got, pinned, "the raw path's bytes moved");
}
