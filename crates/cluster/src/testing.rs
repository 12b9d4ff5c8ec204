//! Support shared by the cluster suites — the chaos, elastic and
//! reference-equivalence suites here and the socket suite of the repro
//! crate: the chaos seed sweep, the journal dump CI uploads (socket
//! workers write theirs through it too), the exactly-once journal
//! invariants, the relocation-heavy workload and the four runs the
//! coordinator pin holds.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};

use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::{AdaptEvent, CountersSnapshot, JournalEntry, Warning};
use dcape_streamgen::{ArrivalPattern, ClassAssignment, PartitionClass, StreamSetSpec};

use crate::faults::{FaultConfig, FaultPlan};
use crate::placement::PlacementSpec;
use crate::runtime::sim::{ScaleEvent, SimConfig};
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
/// there as JSONL (CI uploads the directory as an artifact on failure);
/// unset or empty, write nothing. Pid-qualified: socket-runtime workers
/// dump their own journals from their own processes into the same
/// directory, and two test binaries running in parallel must not
/// clobber each other.
pub fn dump_journal(name: &str, entries: &[JournalEntry]) {
    let dir = std::env::var_os("DCAPE_JOURNAL_DUMP");
    let Some(path) = journal_dump_path(dir.as_deref(), name, std::process::id()) else {
        return;
    };
    if let Err(e) = dcape_metrics::report::write_journal_jsonl(&path, entries) {
        eprintln!("journal dump to {} failed: {e}", path.display());
    }
}

/// Where [`dump_journal`] writes journal `name` of process `pid` when
/// `DCAPE_JOURNAL_DUMP` is `dir`: `<dir>/<name>-pid<pid>.jsonl`, or
/// nowhere when the variable is unset or empty.
fn journal_dump_path(dir: Option<&OsStr>, name: &str, pid: u32) -> Option<PathBuf> {
    let dir = dir.filter(|dir| !dir.is_empty())?;
    Some(Path::new(dir).join(format!("{name}-pid{pid}.jsonl")))
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
    let warned = |code: Warning| {
        count_events(
            journal,
            |e| matches!(e, AdaptEvent::ProtocolWarning { code: c, .. } if *c == code),
        ) as u64
    };
    assert_eq!(
        counters.msgs_retried,
        warned(Warning::PhaseTimeoutRetry),
        "retry accounting"
    );
    assert_eq!(
        counters.rounds_aborted,
        warned(Warning::RoundAborted),
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
}

/// Where every pinned run ends.
pub const PINNED_RUN_END: VirtualTime = VirtualTime::from_mins(6);

/// The four deterministic, journaled sim runs the coordinator pin holds
/// (each run to [`PINNED_RUN_END`]); between them they reach every
/// coordinator path:
///
/// 1. lazy-disk on roomy engines under a skew that flips every minute,
///    evaluated every 15 s, chaos at 0.3 — retries and aborts;
/// 2. the same with an engine joining at 60 s and engine 1 draining at
///    3 min — join moves and a completed drain;
/// 3. active-disk on tight engines with a productivity gap — forced
///    spills;
/// 4. global rebalance over four engines placed far from the mean — one
///    trigger plans several moves, the later ones popped from the queue
///    at the next evaluations (τ_m = 45 s).
pub fn pinned_runs() -> [SimConfig; 4] {
    let workload = |seed| {
        StreamSetSpec::uniform(24, 2400, 1, VirtualDuration::from_millis(30))
            .with_payload_pad(200)
            .with_seed(seed)
    };
    let lazy_chaos = |fault_seed| {
        let spec = workload(23).with_pattern(ArrivalPattern::AlternatingSkew {
            group_a: (0..6).map(PartitionId).collect(),
            ratio: 10.0,
            period: VirtualDuration::from_mins(1),
        });
        SimConfig::new(
            2,
            EngineConfig::three_way(1 << 30, 1 << 29),
            spec,
            StrategyConfig::LazyDisk {
                theta_r: 0.9,
                tau_m: VirtualDuration::from_secs(15),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
        .with_stats_interval(VirtualDuration::from_secs(15))
        .with_faults(FaultPlan::new(fault_seed, FaultConfig::uniform(0.3)))
    };
    let elastic_chaos = lazy_chaos(1).with_scale_events(vec![
        ScaleEvent::add(VirtualTime::from_secs(60)),
        ScaleEvent::drain_engine(VirtualTime::from_mins(3), EngineId(1)),
    ]);
    let mut productive = workload(37);
    productive.classes = [4, 1]
        .map(|join_rate| PartitionClass {
            assignment: ClassAssignment::Fraction(0.5),
            join_rate,
            tuple_range: 2400,
        })
        .to_vec();
    let active_disk = SimConfig::new(
        3,
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4),
        productive,
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 1.5,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 20,
        },
    )
    .with_stats_interval(VirtualDuration::from_secs(30));
    let rebalance = SimConfig::new(
        4,
        EngineConfig::three_way(1 << 30, 1 << 29),
        workload(91),
        StrategyConfig::LazyDiskRebalance {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        },
    )
    .with_placement(PlacementSpec::Fractions(vec![0.55, 0.25, 0.15, 0.05]))
    .with_stats_interval(VirtualDuration::from_secs(15));
    [lazy_chaos(2), elastic_chaos, active_disk, rebalance]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty `DCAPE_JOURNAL_DUMP` is no directory: it must not turn
    /// into a file in the working directory.
    #[test]
    fn a_journal_dump_goes_to_the_named_directory_or_nowhere() {
        let path = |dir: Option<&str>| journal_dump_path(dir.map(OsStr::new), "worker-e1", 42);
        assert_eq!(path(None), None);
        assert_eq!(path(Some("")), None);
        assert_eq!(
            path(Some("dumps")),
            Some(PathBuf::from("dumps/worker-e1-pid42.jsonl"))
        );
    }
}
