//! Indexing a row costs no heap allocation of its own.
//!
//! A partition group keeps, per join key and stream, the newest few
//! positions in the key's index entry and every row's link to the row
//! before it with the same key in a column beside the row's timestamp;
//! no (key, stream) owns a growable list. So the allocator is called
//! only when a column, an arena or the index table grows — a few times
//! per doubling — and not per key. This test counts the allocator's
//! calls — the reason it is a test binary of its own with a single
//! test — while one unwindowed 3-way group over 100 keys takes in 100
//! rows per key and stream. A list per (key, stream) on the heap, grown
//! by doubling, makes about five calls per list (0.05 per row) and
//! fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcape_common::batch::TupleBatch;
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::time::VirtualTime;
use dcape_common::tuple::TupleBuilder;
use dcape_engine::config::MJoinConfig;
use dcape_engine::{CountingSink, MJoinOperator};

/// The system allocator, counting the calls that hand memory out.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged, so `System`'s own guarantees are this allocator's; the
// counting touches one atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p` came from `System` with this layout, and the
        // caller vouches for `new_size`.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn indexing_rows_allocates_per_doubling_not_per_key() {
    const KEYS: i64 = 100;
    const ROWS_PER_KEY: u64 = 100;
    const STREAMS: u8 = 3;
    let pid = PartitionId(0);
    // Every row goes to one group, in batches of the size a runtime
    // sends, all built before the count starts.
    let mut batches = Vec::new();
    let mut batch = TupleBatch::new();
    for round in 0..ROWS_PER_KEY {
        for key in 0..KEYS {
            for s in 0..STREAMS {
                let tuple = TupleBuilder::new(StreamId(s))
                    .seq(round * KEYS as u64 + key as u64)
                    .ts(VirtualTime::from_millis(round))
                    .value(key)
                    .build();
                batch.push(pid, tuple);
                if batch.len() == 192 {
                    batches.push(std::mem::replace(&mut batch, TupleBatch::new()));
                }
            }
        }
    }
    batches.push(batch);
    let rows = KEYS as u64 * ROWS_PER_KEY * STREAMS as u64;
    let mut join = MJoinOperator::new(MJoinConfig::same_column(STREAMS as usize, 0)).unwrap();
    let mut sink = CountingSink::new();

    let before = CALLS.load(Ordering::Relaxed);
    for batch in &batches {
        join.process_batch(batch, &mut sink).unwrap();
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(join.group_count(), 1);
    // Unwindowed, every key's rows all join: 100³ results a key.
    assert_eq!(sink.count(), KEYS as u64 * ROWS_PER_KEY.pow(3));
    let per_row = calls as f64 / rows as f64;
    println!("{calls} allocator calls over {rows} rows = {per_row:.4} per row");
    assert!(
        per_row < 0.02,
        "{per_row:.4} allocator calls per row: does each (key, stream) own a list again?"
    );
}
