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
//! * [`backend`] — where segment bytes live: real files
//!   ([`backend::FileBackend`]) or memory ([`backend::MemBackend`] for
//!   tests and pure simulations).
//! * [`store`] — the [`store::SpillStore`]: per-partition segment
//!   registry plus I/O statistics.
//! * [`diskmodel`] — virtual-time cost model for spill I/O, used by the
//!   simulated cluster driver to charge for disk activity.
//! * [`trace`] — record/replay tuple streams as portable workload
//!   artifacts.

pub mod backend;
pub mod codec;
pub mod diskmodel;
pub mod segment;
pub mod store;
pub mod trace;

pub use backend::{FileBackend, MemBackend, SegmentHandle, SpillBackend};
pub use diskmodel::DiskModel;
pub use segment::{SegmentCodec, SpilledGroup, StreamColumns};
pub use store::{SegmentMeta, SpillStats, SpillStore};
pub use trace::{TraceReader, TraceWriter};
