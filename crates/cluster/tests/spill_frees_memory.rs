//! A spill leaves the process.
//!
//! Two engines under the lazy-disk strategy push several times their
//! memory budgets to disk, and the heap of this process — counted by the
//! allocator below, the reason this file is a test binary of its own
//! with a single test — never holds much more than the budgets: what the
//! engines account for as spilled is in their unlinked logs, not in
//! memory. With segments kept as bytes in the process (every runtime
//! before the spill log) the peak is the budgets *plus* everything
//! spilled, and the test fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_storage::backend::LOG_NAME_PREFIX;
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

const MIB: u64 = 1 << 20;
const ENGINES: u64 = 2;
/// Per engine; the spill threshold is two thirds of it, as in the
/// benchmark's `spill_cleanup_sim`, whose budgets are four times these.
const BUDGET: u64 = 12 * MIB;
const BUDGETS: u64 = ENGINES * BUDGET;

/// Files in the temp directory that carry this process's log name.
fn named_logs() -> Vec<std::ffi::OsString> {
    let mine = format!("{LOG_NAME_PREFIX}{}-", std::process::id());
    let entries = std::fs::read_dir(std::env::temp_dir()).unwrap();
    let names = entries.map(|entry| entry.unwrap().file_name());
    names
        .filter(|name| name.to_string_lossy().starts_with(&mine))
        .collect()
}

/// What one run read, in bytes.
struct Peaks {
    on_disk: u64,
    /// Most the allocator had handed out and not got back.
    live: u64,
    /// Most the engines accounted for (`memory_used`), and the most
    /// their resident columns and arena pages occupied at one of those
    /// samples.
    accounted: u64,
    reserved: u64,
}

/// Two engines under lazy-disk over `partitions` partition IDs until
/// four times their budgets are on disk, then cleanup, checked against
/// the reference join.
fn spill_run(partitions: u32) -> Peaks {
    let spec = StreamSetSpec::uniform(partitions, 12_000, 1, VirtualDuration::from_millis(30))
        .with_payload_blob(1024)
        .with_seed(20070415);
    let engine = EngineConfig::three_way(BUDGET, BUDGET * 2 / 3).with_spill_fraction(0.3);
    let strategy = StrategyConfig::LazyDisk {
        theta_r: 0.8,
        tau_m: VirtualDuration::from_secs(45),
    };
    let cfg = SimConfig::new(ENGINES as usize, engine, spec.clone(), strategy)
        .with_stats_interval(VirtualDuration::from_secs(30));

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut driver = SimDriver::new(cfg).unwrap();
    let (mut on_disk, mut accounted, mut reserved) = (0, 0, 0);
    while on_disk < 4 * BUDGETS {
        driver
            .run_until(driver.now() + VirtualDuration::from_secs(10))
            .unwrap();
        let engines = driver.engines();
        on_disk = (engines.iter())
            .map(|e| e.store().state_bytes_on_disk())
            .sum();
        accounted = accounted.max(engines.iter().map(|e| e.memory_used()).sum());
        reserved = reserved.max(engines.iter().map(|e| e.state_reserved_bytes()).sum());
        assert!(
            driver.now() < VirtualTime::from_mins(600),
            "{on_disk} bytes spilled by {}",
            driver.now()
        );
    }
    let engines = driver.engines();
    assert!(engines.iter().all(|e| e.store().segment_count() > 0));
    assert_eq!(named_logs(), Vec::<std::ffi::OsString>::new());
    let deadline = driver.now();
    let report = driver.finish().unwrap();
    let live = (PEAK.load(Ordering::Relaxed) - before) as u64;
    assert_eq!(named_logs(), Vec::<std::ffi::OsString>::new());

    // Only now the oracle, whose own memory is not the run's.
    let reference = reference_join(&spec, deadline, None).unwrap();
    assert_eq!(report.total_output(), reference.count());
    assert!(report.cleanup_output > 0, "cleanup owed nothing");

    let mib = |bytes: u64| bytes as f64 / MIB as f64;
    println!(
        "{partitions} partitions: spilled {:.1} MiB over {:.1} MiB of budgets by {deadline}: \
         peak live heap {:.1} MiB, peak accounted {:.1} MiB (its columns and pages reserved \
         {:.1} MiB), live/accounted {:.2}",
        mib(on_disk),
        mib(BUDGETS),
        mib(live),
        mib(accounted),
        mib(reserved),
        live as f64 / accounted as f64,
    );
    Peaks {
        on_disk,
        live,
        accounted,
        reserved,
    }
}

#[test]
fn spilled_state_is_not_held_in_the_heap() {
    let mib = |bytes: u64| bytes as f64 / MIB as f64;
    let run = spill_run(120);
    assert!(
        run.live <= BUDGETS * 5 / 4,
        "peak live heap {:.1} MiB against {:.1} MiB of budgets with {:.1} MiB spilled",
        mib(run.live),
        mib(BUDGETS),
        mib(run.on_disk),
    );

    // A quarter of the partitions under the same budgets: each stream
    // partition's arena grows to the ~180 KiB it has in the benchmark's
    // `spill_cleanup_sim`, and the heap must follow what the engines
    // account for, not a multiple of it — with one doubling buffer per
    // arena it read 1.6 times that.
    let run = spill_run(30);
    assert!(
        run.reserved * 4 <= run.accounted * 5 && run.live * 4 <= run.accounted * 5,
        "peak live heap {:.1} MiB and {:.1} MiB of columns and pages against {:.1} MiB accounted",
        mib(run.live),
        mib(run.reserved),
        mib(run.accounted),
    );
}
