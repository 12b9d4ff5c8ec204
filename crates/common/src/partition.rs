//! Mapping join values to partition IDs.
//!
//! The split operator in front of every input stream (§2, Figure 2)
//! derives the partition ID from the join-column value. Any deterministic
//! function works as long as *all* splits of one operator agree; we offer
//! two:
//!
//! * [`Partitioner::Modulo`] — `value mod n` for integer keys. The
//!   experiments use this because the generator can then *choose* which
//!   partition a crafted value lands in (necessary to control
//!   per-partition join rates and machine-targeted skew).
//! * [`Partitioner::Hash`] — deterministic Fx hash of the value, the
//!   general-purpose choice for arbitrary key types.

use crate::codec::RawValue;
use crate::ids::PartitionId;
use crate::value::Value;

/// Strategy for mapping a join-column value to one of `n` partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// `abs(int value) mod n`; falls back to hashing for non-integers.
    Modulo {
        /// Total number of partitions `n`.
        num_partitions: u32,
    },
    /// Deterministic hash of any value type, mod n.
    Hash {
        /// Total number of partitions `n`.
        num_partitions: u32,
    },
}

impl Partitioner {
    /// Build a modulo partitioner.
    pub fn modulo(num_partitions: u32) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        Partitioner::Modulo { num_partitions }
    }

    /// Build a hash partitioner.
    pub fn hash(num_partitions: u32) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        Partitioner::Hash { num_partitions }
    }

    /// Total number of partitions this partitioner spreads over.
    pub fn num_partitions(&self) -> u32 {
        match self {
            Partitioner::Modulo { num_partitions } | Partitioner::Hash { num_partitions } => {
                *num_partitions
            }
        }
    }

    /// The partition the given join value belongs to.
    #[inline]
    pub fn partition_of(&self, value: &Value) -> PartitionId {
        self.partition_of_raw(value.as_raw())
    }

    /// [`partition_of`](Self::partition_of) for a value read in place
    /// (or never built): the one definition both forms go through.
    #[inline]
    pub fn partition_of_raw(&self, value: RawValue<'_>) -> PartitionId {
        let n = match *self {
            Partitioner::Modulo { num_partitions } => {
                if let RawValue::Int(i) = value {
                    return PartitionId((i.unsigned_abs() % num_partitions as u64) as u32);
                }
                num_partitions
            }
            Partitioner::Hash { num_partitions } => num_partitions,
        };
        PartitionId((value.partition_hash() % n as u64) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_value, encode_value, raw_value};
    use crate::testing::proptest_cases;
    use bytes::Bytes;
    use proptest::prelude::*;

    #[test]
    fn modulo_places_crafted_values_predictably() {
        let p = Partitioner::modulo(16);
        for pid in 0..16u32 {
            for idx in 0..10u64 {
                let v = Value::Int((idx * 16 + pid as u64) as i64);
                assert_eq!(p.partition_of(&v), PartitionId(pid));
            }
        }
    }

    #[test]
    fn modulo_handles_negative_ints() {
        let p = Partitioner::modulo(10);
        assert_eq!(p.partition_of(&Value::Int(-3)), PartitionId(3));
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let p = Partitioner::hash(32);
        for i in 0..1000i64 {
            let a = p.partition_of(&Value::Int(i));
            let b = p.partition_of(&Value::Int(i));
            assert_eq!(a, b);
            assert!(a.0 < 32);
        }
    }

    #[test]
    fn hash_spreads_text_keys() {
        let p = Partitioner::hash(8);
        let mut seen = std::collections::HashSet::new();
        for name in [
            "USD", "EUR", "GBP", "JPY", "CHF", "AUD", "CAD", "NZD", "SEK",
        ] {
            seen.insert(p.partition_of(&Value::text(name)));
        }
        assert!(seen.len() >= 3, "keys all collided: {seen:?}");
    }

    #[test]
    fn num_partitions_accessor() {
        assert_eq!(Partitioner::modulo(7).num_partitions(), 7);
        assert_eq!(Partitioner::hash(9).num_partitions(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = Partitioner::modulo(0);
    }

    /// Hashes and placements as `Value::partition_hash` computed them
    /// before the value and its raw form shared one definition.
    #[test]
    fn partition_hashes_are_pinned() {
        let pinned = [
            (Value::Null, 0xafcc_c1b7_2722_0a95, 1, 1),
            (Value::Int(-3), 0x0b89_bada_8a99_e041, 3, 2),
            (Value::Int(1 << 40), 0x220a_9500_0000_0000, 2, 3),
            (Value::Double(1.5), 0xeb58_0000_0000_0000, 6, 6),
            (Value::Double(f64::NAN), 0x2b58_0000_0000_0000, 1, 1),
            (Value::Bool(true), 0xfe1b_501f_a1b7_0a95, 6, 6),
            (Value::Bool(false), 0xac9e_8e68_7a95_0000, 6, 6),
            (Value::text("EUR"), 0xde22_4a92_a489_9845, 4, 4),
            (Value::text(""), 0, 0, 0),
            (
                Value::Blob(Bytes::from_static(b"\x00\x01\xff")),
                0x26e6_d6e7_2f17_facf,
                3,
                3,
            ),
            (Value::Pad(16), 0x52dc_1b72_7220_a950, 4, 4),
        ];
        for (v, hash, modulo, hashed) in pinned {
            assert_eq!(v.partition_hash(), hash, "{v:?}");
            assert_eq!(
                Partitioner::modulo(7).partition_of(&v),
                PartitionId(modulo),
                "{v:?}"
            );
            assert_eq!(
                Partitioner::hash(7).partition_of(&v),
                PartitionId(hashed),
                "{v:?}"
            );
        }
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0u8..1).prop_map(|_| Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b))),
            any::<bool>().prop_map(Value::Bool),
            ".{0,12}".prop_map(Value::text),
            proptest::collection::vec(any::<u8>(), 0..40).prop_map(|b| Value::Blob(Bytes::from(b))),
            any::<u32>().prop_map(Value::Pad),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: proptest_cases(256),
            ..ProptestConfig::default()
        })]

        /// A value read in place from its encoding — how the generator
        /// hands the split a key — is placed where the value decoded
        /// from the same bytes is, by either partitioner.
        #[test]
        fn raw_values_place_like_decoded_values(v in value_strategy(), n in 1u32..300) {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            let raw = raw_value(&mut buf.as_slice()).unwrap();
            let decoded = decode_value(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(raw, v.as_raw());
            prop_assert_eq!(raw.partition_hash(), decoded.partition_hash());
            for p in [Partitioner::modulo(n), Partitioner::hash(n)] {
                prop_assert_eq!(p.partition_of_raw(raw), p.partition_of(&decoded));
            }
        }
    }
}
