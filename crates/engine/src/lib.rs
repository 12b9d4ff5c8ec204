//! # dcape-engine
//!
//! The query engine: a single machine's share of a partitioned,
//! state-intensive, non-blocking query (§2 of the paper).
//!
//! The centrepiece is the **symmetric m-way hash join**
//! ([`operators::mjoin::MJoinOperator`]) whose state is organized into
//! **partition groups** ([`state::partition_group::PartitionGroup`]) —
//! the partitions of all input streams sharing one partition ID, the
//! smallest unit of adaptation (§2, Figure 3(b)).
//!
//! Around it:
//!
//! * [`state::productivity`] — the paper's partition-group productivity
//!   metric `P_output / P_size` and engine-level average productivity
//!   rate `R`.
//! * [`spill::policy`] — victim-selection policies for state spill
//!   (productivity-ranked per the paper, plus the XJoin largest-first
//!   and other baselines).
//! * [`spill::cleanup`] — the cleanup phase: merging disk-resident
//!   segments back, emitting exactly the missing results (incremental
//!   view-maintenance expansion over spill segments).
//! * [`engine`] — [`engine::QueryEngine`], assembling all of the above
//!   behind the interface the cluster layer drives. It is also the
//!   paper's local adaptation controller (Algorithms 1–2, QE side): it
//!   holds the execution [`Mode`] and the `ss_timer`
//!   ([`QueryEngine::tick`]), runs the active-disk `start_ss`
//!   ([`QueryEngine::force_spill`]) and picks the groups a relocation
//!   moves ([`QueryEngine::select_parts_to_move`]). Its memory in use is
//!   one running total, [`MJoinOperator::state_bytes`].
//! * [`operators`] — the m-way join, plus the group-by aggregate the
//!   example queries apply to its results.
//!
//! # Example
//!
//! ```
//! use dcape_common::ids::{EngineId, PartitionId, StreamId};
//! use dcape_common::time::VirtualTime;
//! use dcape_common::tuple::TupleBuilder;
//! use dcape_engine::{CountingSink, EngineConfig, QueryEngine};
//!
//! let mut engine =
//!     QueryEngine::in_memory(EngineId(0), EngineConfig::three_way(1 << 20, 1 << 19))?;
//! let mut results = CountingSink::new();
//! for stream in 0..3u8 {
//!     let tuple = TupleBuilder::new(StreamId(stream))
//!         .ts(VirtualTime::from_millis(30))
//!         .value(7i64)
//!         .build();
//!     engine.process(PartitionId(7), tuple, &mut results)?;
//! }
//! assert_eq!(results.count(), 1); // one three-way match on key 7
//! # Ok::<(), dcape_common::DcapeError>(())
//! ```

#![deny(unsafe_code)]

pub mod config;
pub mod engine;
pub mod operators;
pub mod probe;
pub mod sink;
pub mod spill;
pub mod state;

pub use config::{EngineConfig, MJoinConfig};
pub use engine::{Mode, QueryEngine};
pub use operators::mjoin::MJoinOperator;
pub use probe::{ProbeSpans, SpanList};
pub use sink::{CollectingSink, CountingSink, ResultSink};
pub use spill::policy::VictimPolicy;
