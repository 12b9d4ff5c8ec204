//! Operator state: partition groups and productivity statistics.

mod join_index;
pub mod partition_group;
pub mod productivity;

pub use partition_group::PartitionGroup;
pub use productivity::{GroupStats, ProductivityWindow};

/// Case count of this module's model properties. The vendored proptest
/// shim does not read `PROPTEST_CASES`, so the CI stress job's setting
/// reaches them through here.
#[cfg(test)]
fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
