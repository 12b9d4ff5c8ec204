//! # dcape-streamgen
//!
//! Synthetic multi-stream workload generator reproducing §3.1 of the
//! paper ("Data Characteristics of Long-running Queries").
//!
//! The paper controls three knobs:
//!
//! * **join multiplicative factor** — the average number of tuples per
//!   stream sharing one join value over a period. With a three-way join,
//!   a factor of `f` yields `f³` results per join value, so output (and
//!   state) grows monotonically as the factor grows.
//! * **tuple range `k`** — the factor increases after every `k` tuples of
//!   a stream.
//! * **join rate `r`** — by how much the factor increases per tuple range.
//!
//! We realize these semantics per partition: a partition owning a domain
//! of `d` distinct join values, receiving a `share` of each stream's
//! tuples, emits each of its values exactly `r` times per *cycle* (one
//! tuple-range worth of its arrivals), so after `m` ranges every value has
//! appeared `m·r` times per stream — exactly the paper's growth model.
//! Partition *classes* give different partitions different join rates and
//! tuple ranges (Figures 7, 13, 14), and [`ArrivalPattern`]s skew which
//! partitions receive tuples over time (Figures 9, 10).
//!
//! Everything is seeded and deterministic.
//!
//! # Example
//!
//! ```
//! use dcape_common::time::VirtualDuration;
//! use dcape_streamgen::{StreamSetGenerator, StreamSetSpec};
//!
//! // 16 partitions, join rate 2 per 1 600-tuple range, 30 ms apart.
//! let spec = StreamSetSpec::uniform(16, 1_600, 2, VirtualDuration::from_millis(30));
//! let mut gen = StreamSetGenerator::new(spec)?;
//! let partitioner = gen.partitioner();
//! let batch = gen.generate_ticks(10); // 10 ticks x 3 streams
//! assert_eq!(batch.len(), 30);
//! for tuple in &batch {
//!     // every tuple routes deterministically
//!     let pid = partitioner.partition_of(&tuple.values()[0]);
//!     assert!(pid.0 < 16);
//! }
//! # Ok::<(), dcape_common::DcapeError>(())
//! ```

#![deny(unsafe_code)]

pub mod generator;
pub mod partitioner;
pub mod pattern;
pub mod schedule;
pub mod spec;
pub mod testing;

pub use generator::StreamSetGenerator;
pub use partitioner::Partitioner;
pub use pattern::ArrivalPattern;
pub use spec::{ClassAssignment, PartitionClass, StreamSetSpec};
