//! # dcape-common
//!
//! Shared foundation types for the `dcape` workspace, a reproduction of
//! *"Optimizing State-Intensive Non-Blocking Queries Using Run-time
//! Adaptation"* (Liu, Jbantova, Rundensteiner — ICDE 2007).
//!
//! This crate deliberately contains only the vocabulary that every other
//! crate needs:
//!
//! * [`ids`] — strongly typed identifiers (partitions, engines, streams).
//! * [`value`] / [`tuple`](mod@tuple) — the row model flowing through operators.
//! * [`codec`] — the one byte encoding of values and tuples (batches,
//!   wire frames, columnar arena rows, spill segments).
//! * [`batch`] — the routed-tuple batch, the unit of inter-operator
//!   transfer in the batched dataflow: rows held encoded.
//! * [`pages`] — the paged arena encoded rows rest in, from the join
//!   state to a decoded segment.
//! * [`time`] — virtual time, the clock abstraction that lets hour-long
//!   paper experiments replay deterministically in seconds.
//! * [`mem`] — explicit heap-size accounting, the substitute for the
//!   paper's per-machine physical memory observations.
//! * [`hash`] — a fast, deterministic hasher used for partitioning.
//! * [`prefetch`](mod@prefetch) — the cache prefetch hint, the
//!   workspace's one `unsafe`.
//! * [`error`] — the workspace error type.
//! * [`testing`] — what the workspace's tests share, the reference join
//!   first of all.

#![deny(unsafe_code)]

pub mod batch;
pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod mem;
pub mod pages;
pub mod partition;
pub mod prefetch;
pub mod testing;
pub mod time;
pub mod tuple;
pub mod value;

pub use batch::TupleBatch;
pub use error::{DcapeError, Result};
pub use ids::{EngineId, PartitionId, StreamId};
pub use mem::HeapSize;
pub use partition::Partitioner;
pub use time::{VirtualDuration, VirtualTime};
pub use tuple::{Tuple, TupleBuilder};
pub use value::Value;
