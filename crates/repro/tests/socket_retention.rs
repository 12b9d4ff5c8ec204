//! The socket coordinator keeps no frame history in its heap.
//!
//! A coordinator must be able to replay every frame it has sent an
//! engine to that engine's respawned worker, so the history grows with
//! the run. It lives in an unlinked replay log on disk: the heap of this
//! process — the coordinator; the workers are processes of their own —
//! counted by the allocator below (the reason this file is a test binary
//! of its own with a single test), peaks at about the same figure for a
//! run four times as long. With every frame kept in memory, as the link
//! threads once did, the peak grows with the run and the test fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dcape_cluster::runtime::sim::SimConfig;
use dcape_cluster::runtime::socket::{run_socket, SocketConfig, SocketMode};
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_streamgen::testing::reference_join;
use dcape_streamgen::StreamSetSpec;

/// The system allocator, counting the bytes it has handed out and not
/// got back, and the most that figure has been.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Relaxed throughout: the two numbers are statistics and publish nothing.
fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged, so `System`'s own guarantees are this allocator's; the
// counting touches two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(p, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with this layout, and the
        // caller vouches for `new_size`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;
const WINDOW: VirtualDuration = VirtualDuration::from_secs(60);

/// ~100 tuples per virtual second with 1 KiB blob payloads: ~6 MB of
/// frames per virtual minute.
fn spec() -> StreamSetSpec {
    StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
        .with_payload_blob(1024)
        .with_seed(20070415)
}

/// Two worker processes under a sliding window (their state stays
/// small), no adaptation, to `deadline`; returns the coordinator's peak
/// live heap in bytes after checking the result against the reference.
fn peak_heap(deadline: VirtualTime) -> u64 {
    let mut sim = SimConfig::new(
        2,
        EngineConfig::three_way(1 << 30, 1 << 29),
        spec(),
        StrategyConfig::NoAdaptation,
    )
    .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
    .with_stats_interval(VirtualDuration::from_secs(30));
    sim.engine.join = sim.engine.join.with_window(WINDOW);
    let cfg = SocketConfig {
        sim,
        mode: SocketMode::Spawn {
            node_bin: PathBuf::from(env!("CARGO_BIN_EXE_dcape-node")),
        },
        kill: None,
    };

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_socket(cfg, deadline).unwrap();
    let peak = (PEAK.load(Ordering::Relaxed) - before) as u64;

    // Only now the oracle, whose own memory is not the run's.
    let reference = reference_join(&spec(), deadline, Some(WINDOW)).unwrap();
    assert_eq!(report.total_output(), reference.count());
    println!("to {deadline}: peak live heap {:.2} MiB", peak as f64 / MIB);
    peak
}

#[test]
fn the_coordinator_heap_does_not_grow_with_the_run() {
    let short = peak_heap(VirtualTime::from_mins(2));
    let long = peak_heap(VirtualTime::from_mins(8));
    assert!(
        long * 4 <= short * 5,
        "peak live heap {:.2} MiB over 8 virtual minutes against {:.2} MiB over 2",
        long as f64 / MIB,
        short as f64 / MIB,
    );
}
