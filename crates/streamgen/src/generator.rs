//! The stream-set generator.
//!
//! Produces the interleaved tuples of all input streams of one m-way
//! join, honouring the [`StreamSetSpec`]: at every *tick* (one
//! inter-arrival step of virtual time), each stream emits one tuple — the
//! paper's "input rate is set to 30 ms per input stream". The tuple's
//! join value is drawn from the owning partition's [`ValueSchedule`], and
//! the partition itself is sampled under the (possibly time-varying)
//! [`ArrivalPattern`](crate::pattern::ArrivalPattern) weights.
//!
//! Join values are crafted so that `value mod num_partitions` equals the
//! partition ID, which is exactly what [`Partitioner::Modulo`] computes —
//! generator and split operators therefore agree on routing without any
//! side channel.
//!
//! A tick's rows come in two forms from one draw routine, so the random
//! stream and every value are the same in both:
//! [`tick_raw`](StreamSetGenerator::tick_raw) lends each row's parts as a
//! [`RawRow`] — the key, the pad and a blob that points at its template —
//! to be classified, routed and encoded once into the batch it travels
//! in, which is how the coordinator's loop feeds the engines; and
//! [`tick_batch`](StreamSetGenerator::tick_batch) builds [`Tuple`]s, for
//! callers that hold rows as values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dcape_common::batch::RawRow;
use dcape_common::codec::RawValue;
use dcape_common::error::Result;
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::time::VirtualTime;
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;

use crate::partitioner::Partitioner;
use crate::schedule::ValueSchedule;
use crate::spec::{PartitionProfile, StreamSetSpec};

/// Deterministic generator over all streams of one experiment. The
/// stream never ends: drivers decide how many ticks (or how much
/// virtual time) to consume.
#[derive(Debug)]
pub struct StreamSetGenerator {
    spec: StreamSetSpec,
    profiles: Vec<PartitionProfile>,
    partitioner: Partitioner,
    /// `schedules[stream][partition]`.
    schedules: Vec<Vec<ValueSchedule>>,
    /// Cumulative weight table for partition sampling.
    cumulative: Vec<f64>,
    /// When the current weight table expires (time-varying patterns).
    weights_valid_until: Option<VirtualTime>,
    rng: StdRng,
    now: VirtualTime,
    seqs: Vec<u64>,
    arrivals: Vec<u64>,
    ticks: u64,
    /// Pre-built blob payload templates (`spec.payload_blob > 0`);
    /// tuples cycle through them by sequence number, off the rng stream,
    /// so enabling blobs never perturbs the generated join values.
    blob_templates: Vec<bytes::Bytes>,
}

impl StreamSetGenerator {
    /// Build a generator from a spec. Fails on inconsistent specs.
    pub fn new(spec: StreamSetSpec) -> Result<Self> {
        let profiles = spec.resolve()?;
        let partitioner = Partitioner::modulo(spec.num_partitions);
        let n = spec.num_partitions as usize;
        let schedules = (0..spec.num_streams)
            .map(|s| {
                profiles
                    .iter()
                    .map(|p| {
                        // Distinct seed per (stream, partition), derived
                        // from the spec seed.
                        let seed = spec
                            .seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((s as u64) << 32)
                            .wrapping_add(p.partition.0 as u64);
                        ValueSchedule::new(p.domain_size, p.join_rate, seed)
                    })
                    .collect()
            })
            .collect();
        let blob_templates = if spec.payload_blob > 0 {
            // Eight deterministic variants: realistic-looking header
            // text followed by a variant-dependent byte fill. Low
            // whole-value cardinality (8 distinct blobs) is the point —
            // it is what dictionary-based spill codecs exploit.
            (0u8..8)
                .map(|v| {
                    let mut b = Vec::with_capacity(spec.payload_blob as usize);
                    b.extend_from_slice(format!("sensor-{v}/reading;unit=C;payload=").as_bytes());
                    while b.len() < spec.payload_blob as usize {
                        b.push(b'a' + (v + (b.len() % 13) as u8) % 26);
                    }
                    b.truncate(spec.payload_blob as usize);
                    bytes::Bytes::from(b)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut gen = StreamSetGenerator {
            blob_templates,
            rng: StdRng::seed_from_u64(spec.seed ^ 0xC0FF_EE00_D00D_F00D),
            seqs: vec![0; spec.num_streams],
            arrivals: vec![0; n],
            cumulative: Vec::with_capacity(n),
            weights_valid_until: None,
            now: VirtualTime::ZERO,
            ticks: 0,
            profiles,
            partitioner,
            schedules,
            spec,
        };
        gen.rebuild_weights();
        Ok(gen)
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &StreamSetSpec {
        &self.spec
    }

    /// The partitioner that split operators must use to agree with the
    /// generator's routing.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Resolved per-partition profiles.
    pub fn profiles(&self) -> &[PartitionProfile] {
        &self.profiles
    }

    /// Column index of the join value in generated tuples (always 0).
    pub const JOIN_COLUMN: usize = 0;

    /// Virtual time of the next tick.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Arrivals routed to `pid` so far (per stream-set, i.e. counted once
    /// per tuple regardless of stream).
    pub fn arrivals_to(&self, pid: PartitionId) -> u64 {
        self.arrivals[pid.index()]
    }

    /// Total ticks generated so far (tuples per stream).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Generate tuples until `deadline`, returning them in arrival order.
    pub fn generate_until(&mut self, deadline: VirtualTime) -> Vec<Tuple> {
        let mut out = Vec::new();
        while self.now < deadline {
            self.tick_into(&mut out);
        }
        out
    }

    /// Generate exactly `ticks` ticks (each yields one tuple per stream).
    pub fn generate_ticks(&mut self, ticks: u64) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(ticks as usize * self.spec.num_streams);
        for _ in 0..ticks {
            self.tick_into(&mut out);
        }
        out
    }

    /// Advance one tick into a caller-owned buffer: clears `out`, emits
    /// one tuple per stream at the current timestamp, and returns that
    /// timestamp. Batched drivers reuse one buffer across all ticks
    /// instead of allocating a fresh `Vec` per tick.
    pub fn tick_batch(&mut self, out: &mut Vec<Tuple>) -> VirtualTime {
        out.clear();
        let ts = self.now;
        self.tick_into(out);
        ts
    }

    /// Advance one tick without building a tuple: lend each stream's row,
    /// in stream order, to `emit` as its parts — the rows
    /// [`tick_batch`](Self::tick_batch) would have built, value for
    /// value — and return the tick's timestamp. An error from `emit` is
    /// returned at once and leaves the tick half drawn; it ends the run.
    pub fn tick_raw(
        &mut self,
        mut emit: impl FnMut(RawRow<'_>) -> Result<()>,
    ) -> Result<VirtualTime> {
        let ts = self.begin_tick();
        for s in 0..self.spec.num_streams {
            let (seq, key, blob) = self.draw(s);
            let mut values = [RawValue::Int(key), RawValue::Null, RawValue::Null];
            let mut arity = 1;
            if self.spec.payload_pad > 0 {
                values[arity] = RawValue::Pad(self.spec.payload_pad);
                arity += 1;
            }
            if let Some(i) = blob {
                values[arity] = RawValue::Blob(&self.blob_templates[i]);
                arity += 1;
            }
            emit(RawRow {
                stream: StreamId(s as u8),
                seq,
                ts,
                values: &values[..arity],
            })?;
        }
        self.end_tick();
        Ok(ts)
    }

    fn rebuild_weights(&mut self) {
        self.cumulative.clear();
        let mut acc = 0.0;
        for p in &self.profiles {
            acc += self.spec.pattern.weight_at(p.partition, self.now).max(0.0);
            self.cumulative.push(acc);
        }
        assert!(acc > 0.0, "arrival pattern assigns zero total weight");
        self.weights_valid_until = self.spec.pattern.next_change_after(self.now);
    }

    fn sample_partition(&mut self) -> PartitionId {
        let total = *self.cumulative.last().expect("non-empty partitions");
        let r = self.rng.gen::<f64>() * total;
        let idx = self
            .cumulative
            .partition_point(|&c| c <= r)
            .min(self.cumulative.len() - 1);
        self.profiles[idx].partition
    }

    /// Start a tick: refresh the weight table if the pattern moved on,
    /// and return the tick's timestamp.
    #[inline]
    fn begin_tick(&mut self) -> VirtualTime {
        if let Some(valid_until) = self.weights_valid_until {
            if self.now >= valid_until {
                self.rebuild_weights();
            }
        }
        self.now
    }

    /// Draw stream `s`'s row of the current tick — the one routine both
    /// row forms come from: its sequence number, its join value (crafted
    /// so `value mod n == pid`) and, with blob payloads, its template.
    #[inline]
    fn draw(&mut self, s: usize) -> (u64, i64, Option<usize>) {
        let n = self.spec.num_partitions as u64;
        let pid = self.sample_partition();
        let local = self.schedules[s][pid.index()].next_value();
        let key = (local * n + pid.0 as u64) as i64;
        let seq = self.seqs[s];
        let blob = (!self.blob_templates.is_empty())
            .then(|| (seq % self.blob_templates.len() as u64) as usize);
        self.seqs[s] += 1;
        self.arrivals[pid.index()] += 1;
        (seq, key, blob)
    }

    #[inline]
    fn end_tick(&mut self) {
        self.ticks += 1;
        self.now += self.spec.inter_arrival;
    }

    /// Advance one tick: one tuple per stream at the current timestamp.
    fn tick_into(&mut self, out: &mut Vec<Tuple>) {
        let ts = self.begin_tick();
        // Exact, so `Tuple::new`'s boxed slice takes the buffer over
        // without reallocating, whatever the spec's arity.
        let arity = 1
            + usize::from(self.spec.payload_pad > 0)
            + usize::from(!self.blob_templates.is_empty());
        for s in 0..self.spec.num_streams {
            let (seq, key, blob) = self.draw(s);
            let mut values = Vec::with_capacity(arity);
            values.push(Value::Int(key));
            if self.spec.payload_pad > 0 {
                values.push(Value::Pad(self.spec.payload_pad));
            }
            if let Some(i) = blob {
                values.push(Value::Blob(self.blob_templates[i].clone()));
            }
            out.push(Tuple::new(StreamId(s as u8), seq, ts, values));
        }
        self.end_tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ArrivalPattern;
    use crate::spec::{ClassAssignment, PartitionClass};
    use dcape_common::time::VirtualDuration;
    use std::collections::HashMap;

    fn small_spec() -> StreamSetSpec {
        StreamSetSpec::uniform(8, 800, 2, VirtualDuration::from_millis(30))
    }

    #[test]
    fn routing_agrees_with_modulo_partitioner() {
        let mut gen = StreamSetGenerator::new(small_spec()).unwrap();
        let part = gen.partitioner();
        let mut tick = Vec::new();
        for _ in 0..167 {
            gen.tick_batch(&mut tick);
            for t in &tick {
                let pid = part.partition_of(&t.values()[StreamSetGenerator::JOIN_COLUMN]);
                assert!(pid.0 < 8);
            }
        }
    }

    #[test]
    fn each_tick_emits_one_tuple_per_stream_with_shared_timestamp() {
        let mut gen = StreamSetGenerator::new(small_spec()).unwrap();
        let batch = gen.generate_ticks(10);
        assert_eq!(batch.len(), 30);
        for (i, chunk) in batch.chunks(3).enumerate() {
            let ts = chunk[0].ts();
            assert_eq!(ts.as_millis(), i as u64 * 30);
            let streams: Vec<u8> = chunk.iter().map(|t| t.stream().0).collect();
            assert_eq!(streams, vec![0, 1, 2]);
            for t in chunk {
                assert_eq!(t.ts(), ts);
            }
        }
    }

    #[test]
    fn seq_numbers_are_dense_per_stream() {
        let mut gen = StreamSetGenerator::new(small_spec()).unwrap();
        let batch = gen.generate_ticks(50);
        let mut next: HashMap<u8, u64> = HashMap::new();
        for t in batch {
            let e = next.entry(t.stream().0).or_default();
            assert_eq!(t.seq(), *e);
            *e += 1;
        }
    }

    #[test]
    fn multiplicative_factor_grows_linearly() {
        // Uniform spec: 8 partitions, tuple range 800, join rate 2 =>
        // per-partition arrivals per range = 100, domain = 50 values.
        // After exactly 2 ranges (1600 ticks), every value should have
        // appeared ~4 times per stream (2 ranges * rate 2), modulo
        // sampling noise across partitions.
        let mut gen = StreamSetGenerator::new(small_spec()).unwrap();
        let batch = gen.generate_ticks(1600);
        let mut per_stream_value_counts: HashMap<(u8, i64), u64> = HashMap::new();
        for t in &batch {
            let v = t.values()[0].as_int().unwrap();
            *per_stream_value_counts
                .entry((t.stream().0, v))
                .or_default() += 1;
        }
        let counts: Vec<u64> = per_stream_value_counts.values().copied().collect();
        let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        assert!(
            (avg - 4.0).abs() < 1.0,
            "expected avg multiplicity ~4, got {avg}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let ticks = |spec| StreamSetGenerator::new(spec).unwrap().generate_ticks(100);
        let a = ticks(small_spec());
        assert_eq!(a, ticks(small_spec()));
        assert_ne!(a, ticks(small_spec().with_seed(99)));
    }

    #[test]
    fn payload_pad_is_attached() {
        let spec = small_spec().with_payload_pad(256);
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        let mut tick = Vec::new();
        gen.tick_batch(&mut tick);
        for t in &tick {
            assert_eq!(t.arity(), 2);
            assert_eq!(t.values()[1], Value::Pad(256));
        }
    }

    #[test]
    fn payload_blob_is_real_and_rng_neutral() {
        let base: Vec<Tuple> = StreamSetGenerator::new(small_spec())
            .unwrap()
            .generate_ticks(200);
        let blobbed: Vec<Tuple> = StreamSetGenerator::new(small_spec().with_payload_blob(512))
            .unwrap()
            .generate_ticks(200);
        let mut distinct = std::collections::HashSet::new();
        for (a, b) in base.iter().zip(&blobbed) {
            // The blob rides along without perturbing the join values.
            assert_eq!(a.values()[0], b.values()[0]);
            let Value::Blob(bytes) = &b.values()[1] else {
                panic!("expected a blob payload, got {:?}", b.values()[1]);
            };
            assert_eq!(bytes.len(), 512);
            distinct.insert(bytes.clone());
        }
        // Low whole-value cardinality: the template set, nothing more.
        assert!(distinct.len() <= 8, "too many variants: {}", distinct.len());
        assert!(distinct.len() > 1, "variants must actually cycle");
    }

    #[test]
    fn alternating_skew_shifts_arrivals() {
        let group_a: Vec<PartitionId> = (0..4).map(PartitionId).collect();
        let spec = small_spec().with_pattern(ArrivalPattern::AlternatingSkew {
            group_a: group_a.clone(),
            ratio: 10.0,
            period: VirtualDuration::from_secs(60),
        });
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        // Phase 0 lasts 60 s = 2000 ticks at 30 ms.
        let _ = gen.generate_until(VirtualTime::from_secs(60));
        let phase0_a: u64 = (0..4).map(|i| gen.arrivals_to(PartitionId(i))).sum();
        let phase0_b: u64 = (4..8).map(|i| gen.arrivals_to(PartitionId(i))).sum();
        assert!(
            phase0_a > phase0_b * 5,
            "phase 0 should favour group A: {phase0_a} vs {phase0_b}"
        );
        // Phase 1: favour flips.
        let _ = gen.generate_until(VirtualTime::from_secs(120));
        let total_a: u64 = (0..4).map(|i| gen.arrivals_to(PartitionId(i))).sum();
        let total_b: u64 = (4..8).map(|i| gen.arrivals_to(PartitionId(i))).sum();
        let phase1_b = total_b - phase0_b;
        let phase1_a = total_a - phase0_a;
        assert!(
            phase1_b > phase1_a * 5,
            "phase 1 should favour group B: {phase1_b} vs {phase1_a}"
        );
    }

    #[test]
    fn heterogeneous_classes_differ_in_value_repetition() {
        // Class 0 (partitions 0..4): join rate 4; class 1 (4..8): rate 1.
        let mut spec = small_spec();
        spec.classes = vec![
            PartitionClass {
                assignment: ClassAssignment::Fraction(0.5),
                join_rate: 4,
                tuple_range: 800,
            },
            PartitionClass {
                assignment: ClassAssignment::Fraction(0.5),
                join_rate: 1,
                tuple_range: 800,
            },
        ];
        let mut gen = StreamSetGenerator::new(spec).unwrap();
        let part = gen.partitioner();
        let batch = gen.generate_ticks(4000);
        let mut per_value: HashMap<i64, u64> = HashMap::new();
        let mut value_partition: HashMap<i64, u32> = HashMap::new();
        for t in &batch {
            if t.stream().0 != 0 {
                continue; // one stream suffices
            }
            let v = t.values()[0].as_int().unwrap();
            *per_value.entry(v).or_default() += 1;
            value_partition.insert(v, part.partition_of(&t.values()[0]).0);
        }
        let avg_for = |range: std::ops::Range<u32>| {
            let counts: Vec<u64> = per_value
                .iter()
                .filter(|(v, _)| range.contains(&value_partition[*v]))
                .map(|(_, c)| *c)
                .collect();
            counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64
        };
        let hot = avg_for(0..4);
        let cold = avg_for(4..8);
        assert!(
            hot > cold * 2.0,
            "rate-4 values should repeat ≫ rate-1 values: {hot} vs {cold}"
        );
    }

    #[test]
    fn generate_until_respects_deadline() {
        let mut gen = StreamSetGenerator::new(small_spec()).unwrap();
        let batch = gen.generate_until(VirtualTime::from_millis(300));
        // 300 / 30 = 10 ticks * 3 streams.
        assert_eq!(batch.len(), 30);
        assert_eq!(gen.now().as_millis(), 300);
    }
}
