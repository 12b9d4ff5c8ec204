//! Operator state: partition groups and productivity statistics.

pub(crate) mod join_index;
pub mod partition_group;
pub mod productivity;

pub use partition_group::PartitionGroup;
pub use productivity::{GroupStats, ProductivityWindow};
