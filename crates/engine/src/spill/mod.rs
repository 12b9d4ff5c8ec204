//! State spill: victim policies and the cleanup phase.

pub mod cleanup;
pub mod per_input;
pub mod policy;

pub use cleanup::{merge_segments, CleanupOutcome, SegmentMerger};
pub use per_input::{PerInputCleanupReport, PerInputJoin};
pub use policy::VictimPolicy;
