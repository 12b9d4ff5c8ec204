//! The infinite-stream regime: the paper's intro notes that the
//! adaptation techniques "could also be applied to cases with infinite
//! data streams as long as operators have finite window sizes". This
//! example runs a sliding-window three-way join for a long stretch of
//! virtual time and shows that state stays bounded (purging) while
//! results remain exactly the windowed join.
//!
//! ```sh
//! cargo run --release --example windowed_stream
//! ```

#![deny(unsafe_code)]

use dcape::common::ids::{EngineId, PartitionId};
use dcape::common::time::{VirtualDuration, VirtualTime};
use dcape::engine::config::EngineConfig;
use dcape::engine::engine::QueryEngine;
use dcape::engine::sink::CountingSink;
use dcape::streamgen::{StreamSetGenerator, StreamSetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "dcape {} — sliding-window join over an unbounded stream\n",
        dcape::VERSION
    );

    let window = VirtualDuration::from_secs(60);
    let spec = StreamSetSpec::uniform(32, 2_000, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(256);
    let mut gen = StreamSetGenerator::new(spec)?;
    let partitioner = gen.partitioner();

    let mut cfg = EngineConfig::three_way(1 << 30, 1 << 29);
    cfg.join = cfg.join.with_window(window);
    cfg.ss_timer = VirtualDuration::from_secs(5); // purge cadence
    let mut engine = QueryEngine::in_memory(EngineId(0), cfg)?;
    let mut sink = CountingSink::new();

    println!(
        "{:>8} {:>14} {:>12} {:>10}",
        "t(min)", "results", "state(KiB)", "groups"
    );
    let mut peak = 0u64;
    for minute in 1..=30u64 {
        for tuple in gen.generate_until(VirtualTime::from_mins(minute)) {
            let now = tuple.ts();
            let pid: PartitionId = partitioner.partition_of(&tuple.values()[0]);
            engine.process(pid, tuple, &mut sink)?;
            engine.tick(now)?; // ss_timer: purges expired tuples
        }
        peak = peak.max(engine.memory_used());
        if minute % 5 == 0 {
            println!(
                "{:>8} {:>14} {:>12.1} {:>10}",
                minute,
                sink.count(),
                engine.memory_used() as f64 / 1024.0,
                engine.join().group_count(),
            );
        }
    }
    println!(
        "\nstate stayed bounded: peak {:.1} KiB over 30 minutes of stream \
         (an unwindowed run would grow without bound)",
        peak as f64 / 1024.0
    );
    println!("spills needed: {}", engine.spill_history().len());
    Ok(())
}
