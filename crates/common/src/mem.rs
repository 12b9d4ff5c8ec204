//! Explicit memory accounting.
//!
//! The paper's adaptation triggers are all phrased in terms of observed
//! per-machine memory: "state spill is triggered whenever the memory usage
//! of the machine is over 200 MB" (§3.2), and relocation fires when
//! `M_least / M_max < θ_r` (§4). On a real cluster those numbers come from
//! the OS; in this reproduction every piece of operator state implements
//! [`HeapSize`], and each query engine keeps one running total of its
//! resident join state (`MJoinOperator::state_bytes` in the engine
//! crate), added to on every insert and install and subtracted from on
//! every spill, relocation and purge. That one number is what every
//! adaptation decision reads, in place of the paper's physical-memory
//! observations, at a configurable scale.
//!
//! A `debug_assertions`-only check in the cluster's engine handler
//! recomputes the total from the groups before every statistics report
//! and fails the run on drift.

/// Estimated heap footprint of a piece of operator state, in bytes.
///
/// Implementations estimate rather than measure: the goal is a consistent,
/// monotone proxy for real memory that all policies share, not allocator
/// ground truth.
pub trait HeapSize {
    /// Estimated bytes attributable to `self`.
    fn heap_size(&self) -> usize;
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.iter().map(HeapSize::heap_size).sum::<usize>()
            + (self.capacity() - self.len()) * std::mem::size_of::<T>()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_and_option_heap_size() {
        struct Fixed;
        impl HeapSize for Fixed {
            fn heap_size(&self) -> usize {
                10
            }
        }
        let v = vec![Fixed, Fixed, Fixed];
        // Fixed is zero-sized, so spare capacity adds nothing.
        assert_eq!(v.heap_size(), 30);
        let some: Option<Fixed> = Some(Fixed);
        let none: Option<Fixed> = None;
        assert_eq!(some.heap_size(), 10);
        assert_eq!(none.heap_size(), 0);
    }
}
