//! # dcape-storage
//!
//! The spill substrate: everything needed to push partition groups to
//! disk and bring them back (§3 of the paper, "State Spill Adaptation").
//!
//! * [`codec`] — compact hand-rolled binary encoding of tuples (no
//!   external format crates) and the column blocks of a segment.
//! * [`segment`] — the snapshot of one partition group (all of its
//!   per-stream partitions together, per the partition-group
//!   granularity argument of §2/Figure 3(b)), held as columns, and the
//!   *spill segment* it serializes to.
//! * [`backend`] — where segment bytes live: an append-only, unlinked
//!   spill log in the temp directory ([`backend::FileBackend`], what
//!   every runtime's engines use) or memory ([`backend::MemBackend`],
//!   for unit tests, examples and the benchmark's layer walk).
//! * [`store`] — the [`store::SpillStore`]: per-partition segment
//!   registry plus I/O statistics.
//! * [`diskmodel`] — virtual-time cost model for spill I/O: what an
//!   engine charges for disk activity, whatever the backend really took.

#![deny(unsafe_code)]

pub mod backend;
pub mod codec;
pub mod diskmodel;
pub mod segment;
pub mod store;

pub use backend::{FileBackend, MemBackend, SegmentHandle, SpillBackend};
pub use diskmodel::DiskModel;
pub use segment::{KeyColumns, SegmentCodec, SegmentKeys, SpilledGroup, StreamColumns};
pub use store::{SegmentMeta, SpillStats, SpillStore};
