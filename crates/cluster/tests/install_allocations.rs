//! Installing a relocated group takes its rows over without copying
//! them.
//!
//! The sender ships the snapshot it extracted and keeps only its
//! encoded bytes for a retry, a duplicate or an abort, so the snapshot
//! arrives with no other owner and the receiver moves its arena pages
//! into the join state as they are. This test counts the bytes the
//! allocator hands out — the reason it is a test binary of its own with
//! a single test — while the receiver handles one `InstallStates` of
//! 1 KiB rows: what it allocates is the per-row bookkeeping and the
//! join index, a few percent of the arena. A sender that also kept the
//! snapshot shares its pages, and the receiver copies every one of them
//! and fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcape_cluster::testing::prepared_install;

/// The system allocator, counting the bytes it hands out.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged, so `System`'s own guarantees are this allocator's; the
// counting touches one atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `p` came from `System` with this layout, and the
        // caller vouches for `new_size`.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn installing_a_relocated_group_does_not_copy_its_rows() {
    let (install, arena) = prepared_install(2_000);
    let before = BYTES.load(Ordering::Relaxed);
    install();
    let allocated = (BYTES.load(Ordering::Relaxed) - before) as usize;
    println!(
        "install allocated {allocated} bytes for {arena} arena bytes ({:.3})",
        allocated as f64 / arena as f64
    );
    assert!(arena > 6_000_000, "6 000 rows of over 1 KiB");
    assert!(
        allocated * 10 < arena,
        "the install allocated {allocated} bytes for {arena} bytes of rows"
    );
}
