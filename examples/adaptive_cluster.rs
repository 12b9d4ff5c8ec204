//! Three query engines under memory pressure: compare the paper's two
//! integrated strategies — lazy-disk and active-disk — on a workload
//! with a per-machine productivity gap (the Figure 13 scenario).
//!
//! Both runs record the adaptation-event journal; the tail of each
//! timeline is printed so the spill/relocation decisions can be read
//! alongside the throughput numbers.
//!
//! ```sh
//! cargo run --release --example adaptive_cluster
//! ```

#![deny(unsafe_code)]

use dcape::cluster::runtime::sim::{SimConfig, SimDriver};
use dcape::cluster::strategy::StrategyConfig;
use dcape::cluster::PlacementSpec;
use dcape::common::ids::PartitionId;
use dcape::common::time::{VirtualDuration, VirtualTime};
use dcape::engine::config::EngineConfig;
use dcape::streamgen::{ClassAssignment, PartitionClass, StreamSetSpec};

/// 48 partitions: engine 0's block joins 4x per range, the rest 1x —
/// a productivity gap only the active-disk strategy exploits.
fn workload() -> StreamSetSpec {
    let hot: Vec<PartitionId> = (0..16).map(PartitionId).collect();
    let cold: Vec<PartitionId> = (16..48).map(PartitionId).collect();
    let mut spec = StreamSetSpec::uniform(48, 12_000, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(512);
    spec.classes = vec![
        PartitionClass {
            assignment: ClassAssignment::Explicit(hot),
            join_rate: 4,
            tuple_range: 12_000,
        },
        PartitionClass {
            assignment: ClassAssignment::Explicit(cold),
            join_rate: 1,
            tuple_range: 12_000,
        },
    ];
    spec
}

fn run(strategy: StrategyConfig, label: &str) -> Result<u64, Box<dyn std::error::Error>> {
    let engine = EngineConfig::three_way(9 << 20, 6 << 20);
    let cfg = SimConfig::new(3, engine, workload(), strategy)
        .with_placement(PlacementSpec::Fractions(vec![
            1.0 / 3.0,
            1.0 / 3.0,
            1.0 / 3.0,
        ]))
        .with_stats_interval(VirtualDuration::from_secs(45))
        .with_journal();
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(VirtualTime::from_mins(30))?;
    let relocations = driver.relocations().len();
    let report = driver.finish()?;
    let c = report.journal_counters;
    println!("{label}:");
    println!("  run-time output : {}", report.runtime_output);
    println!("  cleanup output  : {}", report.cleanup_output);
    println!("  local spills    : {:?}", report.spill_counts);
    println!("  forced spills   : {}", report.force_spills);
    println!("  relocations     : {relocations}");
    println!(
        "  journal         : {} events ({} spill bytes, {} relocated bytes)",
        report.journal.len(),
        c.spill_bytes,
        c.relocation_bytes
    );
    // The three engines' last statistics samples: memory and output
    // per machine.
    let (samples, adaptations): (Vec<_>, Vec<_>) = report
        .journal
        .iter()
        .cloned()
        .partition(|e| e.event.kind() == "engine_sample");
    let last = samples.len().saturating_sub(3);
    println!("{}", dcape::metrics::render_journal(&samples[last..]));
    // Every adaptation, last 12.
    let tail = adaptations.len().saturating_sub(12);
    println!("adaptation timeline (tail):");
    println!("{}", dcape::metrics::render_journal(&adaptations[tail..]));
    Ok(report.runtime_output)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "dcape {} — lazy-disk vs active-disk on a 3-engine cluster\n",
        dcape::VERSION
    );
    let lazy = run(
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        },
        "lazy-disk (Algorithm 1)",
    )?;
    let active = run(
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 2.0,
            spill_fraction: 0.3,
            force_spill_cap: 10 << 20,
        },
        "active-disk (Algorithm 2)",
    )?;
    println!(
        "active-disk produced {:.1}% {} run-time output than lazy-disk",
        (active as f64 / lazy as f64 - 1.0).abs() * 100.0,
        if active >= lazy { "more" } else { "less" }
    );
    Ok(())
}
