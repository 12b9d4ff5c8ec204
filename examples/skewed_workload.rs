//! Live state relocation on the *threaded* runtime: two engines on
//! real OS threads, alternating 10x input skew, the full 8-step
//! relocation protocol over channels — and the invariant that no result
//! is lost or duplicated despite all the movement.
//!
//! ```sh
//! cargo run --release --example skewed_workload
//! ```

#![deny(unsafe_code)]

use dcape::cluster::runtime::sim::{SimConfig, SimDriver};
use dcape::cluster::runtime::threaded::run_threaded;
use dcape::cluster::strategy::StrategyConfig;
use dcape::cluster::PlacementSpec;
use dcape::common::ids::PartitionId;
use dcape::common::time::{VirtualDuration, VirtualTime};
use dcape::engine::config::EngineConfig;
use dcape::streamgen::testing::reference_join;
use dcape::streamgen::{ArrivalPattern, StreamSetSpec};

fn workload() -> StreamSetSpec {
    let group_a: Vec<PartitionId> = (0..16).map(PartitionId).collect();
    StreamSetSpec::uniform(32, 6_000, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(256)
        .with_pattern(ArrivalPattern::AlternatingSkew {
            group_a,
            ratio: 10.0,
            period: VirtualDuration::from_mins(5),
        })
}

fn config() -> SimConfig {
    SimConfig::new(
        2,
        EngineConfig::three_way(1 << 30, 1 << 29), // roomy: relocation-only
        workload(),
        StrategyConfig::LazyDisk {
            theta_r: 0.9,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
    .with_stats_interval(VirtualDuration::from_secs(45))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "dcape {} — relocation under alternating skew (threaded runtime)\n",
        dcape::VERSION
    );
    let deadline = VirtualTime::from_mins(25);
    // The reference join shares no code with either runtime.
    let reference = reference_join(&workload(), deadline, None)?.count();

    println!("running on real threads (full Figure 8 protocol over channels) ...");
    let threaded = run_threaded(config(), deadline)?;
    println!("  relocations      : {}", threaded.relocations);
    println!("  run-time output  : {}", threaded.runtime_output);
    println!("  cleanup output   : {}", threaded.cleanup_output);
    println!(
        "  cleanup wall     : {} ms (parallel, modeled)",
        threaded.cleanup_wall_ms
    );

    println!("\nrunning the same experiment on the deterministic sim driver ...");
    let mut sim = SimDriver::new(config())?;
    sim.run_until(deadline)?;
    for r in sim.relocations() {
        println!(
            "  t={:>5.1}min  {} -> {}  {} partitions, {:.2} MiB, {} tuples buffered",
            r.at.as_mins_f64(),
            r.sender,
            r.receiver,
            r.parts,
            r.bytes as f64 / (1 << 20) as f64,
            r.buffered_tuples,
        );
    }
    let moved: u64 = sim.relocations().iter().map(|r| r.bytes).sum();
    println!(
        "  moved in total: {:.2} MiB",
        moved as f64 / (1 << 20) as f64
    );
    let sim_report = sim.finish()?;

    println!("\ncorrectness (no loss, no duplication):");
    println!("  reference join count : {reference}");
    println!("  threaded total       : {}", threaded.total_output());
    println!("  sim total            : {}", sim_report.total_output());
    assert_eq!(threaded.total_output(), reference);
    assert_eq!(sim_report.total_output(), reference);
    println!("  OK — all three agree");
    Ok(())
}
