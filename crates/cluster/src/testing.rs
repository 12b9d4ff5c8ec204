//! Support shared by the cluster suites — the chaos, elastic and
//! reference-equivalence suites here and the socket suite of the repro
//! crate: the chaos seed sweep, the journal dump CI uploads, the
//! exactly-once journal invariants and the relocation-heavy workload.

use std::path::Path;

use dcape_common::ids::PartitionId;
use dcape_common::time::VirtualDuration;
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::{AdaptEvent, CountersSnapshot, JournalEntry};
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

use crate::placement::PlacementSpec;
use crate::runtime::sim::SimConfig;
use crate::strategy::StrategyConfig;

/// Chaos seeds to sweep: the one `DCAPE_CHAOS_SEED` names (CI passes one
/// per job), else a fixed short list that keeps local runs fast.
pub fn seeds() -> Vec<u64> {
    match std::env::var("DCAPE_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DCAPE_CHAOS_SEED must be an unsigned integer")],
        Err(_) => vec![7, 42, 0x00C0_FFEE],
    }
}

/// When `DCAPE_JOURNAL_DUMP` names a directory, write a run's journal
/// there as JSONL (CI uploads the directory as an artifact on failure).
/// Pid-qualified: socket-runtime workers dump their own journals from
/// their own processes into the same directory, and two test binaries
/// running in parallel must not clobber each other.
pub fn dump_journal(name: &str, entries: &[JournalEntry]) {
    if let Ok(dir) = std::env::var("DCAPE_JOURNAL_DUMP") {
        let path = Path::new(&dir).join(format!("{name}-pid{}.jsonl", std::process::id()));
        if let Err(e) = dcape_metrics::report::write_journal_jsonl(&path, entries) {
            eprintln!("journal dump to {} failed: {e}", path.display());
        }
    }
}

/// How many journal entries satisfy `pred`.
pub fn count_events(journal: &[JournalEntry], pred: impl Fn(&AdaptEvent) -> bool) -> usize {
    journal.iter().filter(|e| pred(&e.event)).count()
}

/// The books of a chaos run close, on any runtime: every injected fault
/// is journaled exactly once, retries and aborts are accounted, and no
/// tuple is left buffered at a paused split.
pub fn assert_chaos_invariants(journal: &[JournalEntry], counters: &CountersSnapshot) {
    let journaled_faults = count_events(journal, |e| matches!(e, AdaptEvent::FaultInjected { .. }));
    assert_eq!(
        counters.faults_injected, journaled_faults as u64,
        "every injected fault must be journaled exactly once"
    );
    let warned = |code: &str| {
        count_events(
            journal,
            |e| matches!(e, AdaptEvent::ProtocolWarning { code: c, .. } if *c == code),
        ) as u64
    };
    assert_eq!(
        counters.msgs_retried,
        warned("phase_timeout_retry"),
        "retry accounting"
    );
    assert_eq!(
        counters.rounds_aborted,
        warned("round_aborted"),
        "abort accounting"
    );
    assert!(
        counters.watermark_released_on_abort <= counters.rounds_aborted,
        "a watermark release needs an abort"
    );
    assert_eq!(
        counters.buffered_in_flight, 0,
        "no tuple may stay buffered at a paused split after shutdown"
    );
}

/// Alternating skew on 24 partitions with padded payloads: relocation
/// pressure, flipping every two minutes.
pub fn relocation_workload(seed: u64) -> StreamSetSpec {
    let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
    StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(200)
        .with_seed(seed)
        .with_pattern(ArrivalPattern::AlternatingSkew {
            group_a,
            ratio: 10.0,
            period: VirtualDuration::from_mins(2),
        })
}

/// Lazy-disk on roomy engines, the partitions split evenly, journaled:
/// a relocation-heavy, spill-free regime — drains finish through
/// relocation rounds rather than forced spills.
pub fn relocation_cfg(spec: StreamSetSpec, engines: usize) -> SimConfig {
    SimConfig::new(
        engines,
        EngineConfig::three_way(1 << 30, 1 << 29),
        spec,
        StrategyConfig::LazyDisk {
            theta_r: 0.9,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![
        1.0 / engines as f64;
        engines
    ]))
    .with_stats_interval(VirtualDuration::from_secs(30))
    .with_journal()
}
