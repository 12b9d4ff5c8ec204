//! A cache prefetch hint.
//!
//! The join state's inserts are memory-bound: each one reads an index
//! slot and its position lists that are, under random partition access,
//! rarely in cache. A batch is in hand before its first insert, so the
//! join asks for a later row's lines while it works on the current one
//! ([`prefetch`]); the batch walk and the spill block encoder do the same
//! for the rows they read next. The hint is the workspace's one `unsafe`
//! block.

/// Ask the CPU to start loading the cache line holding `p`.
///
/// A hint only: nothing is read, and whether the line arrives, and
/// when, changes no result. `p` may be anything — dangling, one past
/// an allocation's end, or freed since — because a prefetch never
/// faults. On targets other than x86_64 it does nothing.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache: it never dereferences
    // `p` and never faults, whatever `p` points at. Its one precondition
    // is the SSE target feature, which every x86_64 target has.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pointer_that_is_no_allocation_is_a_safe_hint() {
        let empty: Vec<u64> = Vec::new();
        prefetch(empty.as_ptr());
        let held = vec![1u8, 2, 3];
        prefetch(held.as_ptr().wrapping_add(held.len()));
        let freed = held.as_ptr();
        drop(held);
        prefetch(freed);
    }
}
