//! Test support: the reference join of a generated workload.

use dcape_common::error::Result;
use dcape_common::testing::ReferenceJoin;
use dcape_common::time::{VirtualDuration, VirtualTime};

use crate::{StreamSetGenerator, StreamSetSpec};

/// Feed the [`ReferenceJoin`] every tuple `spec` generates before
/// `deadline` — the input a runtime driven to that deadline consumes.
pub fn reference_join(
    spec: &StreamSetSpec,
    deadline: VirtualTime,
    window: Option<VirtualDuration>,
) -> Result<ReferenceJoin> {
    let mut gen = StreamSetGenerator::new(spec.clone())?;
    let join_columns = vec![StreamSetGenerator::JOIN_COLUMN; spec.num_streams];
    let mut join = ReferenceJoin::new(&join_columns, window);
    let mut tick = Vec::new();
    while gen.now() < deadline {
        gen.tick_batch(&mut tick);
        tick.iter().for_each(|t| join.push(t));
    }
    Ok(join)
}
