//! A generated row costs no heap allocation of its own.
//!
//! The coordinator's loop draws each row's parts from the generator and
//! encodes them once, straight into the batch of the engine that owns
//! the row's partition; no `Tuple` (an `Arc` and a boxed value slice,
//! two allocations) is built and freed on the way. This test counts the
//! allocator's calls — the reason it is a test binary of its own with a
//! single test — over the run phase of an all-memory job on the
//! deterministic runtime, engine included, and holds them well under one
//! per routed tuple. A loop that builds a `Tuple` per row makes more than
//! two per tuple and fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_streamgen::StreamSetSpec;

/// The system allocator, counting the calls that hand memory out.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged, so `System`'s own guarantees are this allocator's; the
// counting touches two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p` came from `System` with this layout, and the
        // caller vouches for `new_size`.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations plus reallocations so far.
fn calls() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    )
}

#[test]
fn an_all_memory_run_allocates_well_under_once_per_tuple() {
    // The benchmark's all-memory job, shortened: one engine whose budget
    // is never reached, three streams of 1 KiB `Pad` rows, journaling.
    let minutes = 4;
    let spec = StreamSetSpec::uniform(120, 30_000, 3, VirtualDuration::from_millis(30))
        .with_payload_pad(1024)
        .with_seed(20070415);
    let cfg = SimConfig::new(
        1,
        EngineConfig::three_way(1 << 40, 1 << 39),
        spec,
        StrategyConfig::NoAdaptation,
    )
    // No statistics collection falls due: in a debug build each one
    // audits the engine's accounting from scratch, which allocates per
    // group and has nothing to do with the rows.
    .with_stats_interval(VirtualDuration::from_secs(2 * minutes * 60))
    .with_journal();
    let deadline = VirtualTime::from_secs(minutes * 60);
    let mut driver = SimDriver::new(cfg).unwrap();
    let (allocs_before, reallocs_before) = calls();
    driver.run_until(deadline).unwrap();
    let (allocs_after, reallocs_after) = calls();
    let report = driver.finish().unwrap();
    let tuples = report.journal_counters.tuples_routed;
    assert_eq!(tuples, minutes * 60_000 / 30 * 3);
    assert!(report.total_output() > 0);

    let allocs = allocs_after - allocs_before;
    let reallocs = reallocs_after - reallocs_before;
    let per_tuple = (allocs + reallocs) as f64 / tuples as f64;
    println!(
        "run phase: {allocs} allocations and {reallocs} reallocations over {tuples} routed \
         tuples = {per_tuple:.3} per tuple"
    );
    assert!(
        per_tuple < 0.5,
        "{per_tuple:.3} allocator calls per routed tuple: is a row built on the heap again?"
    );
}
