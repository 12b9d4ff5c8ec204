//! Quickstart: one query engine, a state-intensive three-way join,
//! memory overflow, state spill, and the cleanup phase.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![deny(unsafe_code)]

use dcape::common::ids::EngineId;
use dcape::common::time::{VirtualDuration, VirtualTime};
use dcape::engine::config::EngineConfig;
use dcape::engine::engine::QueryEngine;
use dcape::engine::sink::CountingSink;
use dcape::engine::VictimPolicy;
use dcape::streamgen::{StreamSetGenerator, StreamSetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("dcape {} — quickstart\n", dcape::VERSION);

    // A three-stream workload: 16 partitions, every join value repeats
    // once per 4 800-tuple range, one tuple per stream every 30 ms.
    let spec = StreamSetSpec::uniform(16, 4_800, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(512);
    let mut gen = StreamSetGenerator::new(spec)?;
    let partitioner = gen.partitioner();

    // One engine with a deliberately tiny memory budget, so the spill
    // adaptation has to kick in: 2 MiB threshold, push the least
    // productive 30% whenever the ss_timer sees an overflow.
    let cfg = EngineConfig::three_way(3 << 20, 2 << 20)
        .with_policy(VictimPolicy::LeastProductive)
        .with_spill_fraction(0.3);
    let mut engine = QueryEngine::in_memory(EngineId(0), cfg)?;

    // Run 12 virtual minutes of input.
    let deadline = VirtualTime::from_mins(12);
    let mut sink = CountingSink::new();
    let tuples = gen.generate_until(deadline);
    println!("processing {} tuples ...", tuples.len());
    for tuple in tuples {
        let now = tuple.ts();
        let pid = partitioner.partition_of(&tuple.values()[0]);
        engine.process(pid, tuple, &mut sink)?;
        engine.tick(now)?; // drives the ss_timer against arrival time
    }

    println!("run-time phase:");
    println!("  results produced : {}", sink.count());
    println!("  spill adaptations: {}", engine.spill_history().len());
    println!(
        "  state on disk    : {:.2} MiB ({} segments)",
        engine.store().state_bytes_on_disk() as f64 / (1 << 20) as f64,
        engine.store().segment_count(),
    );
    println!(
        "  memory in use    : {:.2} MiB",
        engine.memory_used() as f64 / (1 << 20) as f64
    );

    // The cleanup phase merges disk-resident segments back and emits
    // exactly the missing results — no duplicates, no losses.
    let mut cleanup_sink = CountingSink::new();
    let report = engine.cleanup(&mut cleanup_sink)?;
    println!("\ncleanup phase:");
    println!("  partitions merged: {}", report.partitions);
    println!("  missing results  : {}", report.missing_results);
    println!(
        "  modeled cost     : {} ms of virtual time",
        report.virtual_cost.as_millis()
    );
    println!("\ntotal results: {}", sink.count() + cleanup_sink.count());
    Ok(())
}
