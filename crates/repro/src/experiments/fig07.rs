//! Figure 7 + the §3.2 cleanup comparison (T-cleanup-1):
//! throughput-oriented spill — which partition groups to push.
//!
//! Setup: one machine; one third of the partitions have average join
//! rate 4, one third rate 2, one third rate 1. Policies compared:
//! `push-less-productive` (the paper's) vs `push-more-productive`
//! (adversarial baseline).
//!
//! Expected shapes:
//! * Figure 7 — push-less-productive ends ~70 % ahead in run-time
//!   output after 40 minutes.
//! * T-cleanup-1 — push-less-productive leaves far fewer missed results
//!   for the cleanup phase (paper: 194 308 tuples in 26.9 s vs 992 893
//!   in 359 s), so its cleanup is several times cheaper.

use std::collections::BTreeMap;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::error::Result;
use dcape_common::time::VirtualDuration;
use dcape_engine::VictimPolicy;
use dcape_metrics::{engine_curves, render_series_table, Table, TimeSeries};
use dcape_streamgen::{ClassAssignment, PartitionClass, StreamSetSpec};

use crate::opts::RunOpts;
use crate::scale;

/// Per-policy outcome.
#[derive(Debug)]
pub struct PolicyOutcome {
    /// Policy label.
    pub label: &'static str,
    /// Run-time output.
    pub runtime_output: u64,
    /// Cleanup (missed) results.
    pub cleanup_output: u64,
    /// Modeled cleanup cost in virtual ms.
    pub cleanup_ms: u64,
}

/// Result of the Figure 7 experiment.
#[derive(Debug)]
pub struct Fig07Result {
    /// push-less-productive outcome.
    pub less: PolicyOutcome,
    /// push-more-productive outcome.
    pub more: PolicyOutcome,
}

/// The heterogeneous workload: ⅓ of partitions at join rate 4, ⅓ at 2,
/// ⅓ at 1 (all at the default tuple range).
pub fn heterogeneous_workload() -> StreamSetSpec {
    let mut spec = scale::paper_workload();
    spec.classes = vec![
        PartitionClass {
            assignment: ClassAssignment::Fraction(1.0 / 3.0),
            join_rate: 4,
            tuple_range: scale::TUPLE_RANGE,
        },
        PartitionClass {
            assignment: ClassAssignment::Fraction(1.0 / 3.0),
            join_rate: 2,
            tuple_range: scale::TUPLE_RANGE,
        },
        PartitionClass {
            assignment: ClassAssignment::Fraction(1.0 / 3.0),
            join_rate: 1,
            tuple_range: scale::TUPLE_RANGE,
        },
    ];
    spec
}

fn run_policy(
    label: &'static str,
    policy: VictimPolicy,
    opts: &RunOpts,
    throughput: &mut BTreeMap<String, TimeSeries>,
) -> Result<PolicyOutcome> {
    let duration = scale::default_duration(opts.fast);
    let threshold = scale::scale_bytes(scale::THRESHOLD_200MB, opts.fast);
    let engine = scale::engine_with_threshold(threshold).with_policy(policy);
    let cfg = SimConfig::new(
        1,
        engine,
        heterogeneous_workload(),
        StrategyConfig::NoAdaptation,
    )
    .with_faults(opts.fault_plan())
    .with_journal();
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(duration)?;
    let report = driver.finish()?;
    let curves = engine_curves(&report.journal, duration, report.runtime_output);
    throughput.insert(format!("throughput/{label}"), curves.output);
    Ok(PolicyOutcome {
        label,
        runtime_output: report.runtime_output,
        cleanup_output: report.cleanup_output,
        cleanup_ms: report.cleanup_wall_ms(),
    })
}

/// Run Figure 7 and T-cleanup-1.
pub fn run(opts: &RunOpts) -> Result<Fig07Result> {
    let mut throughput = BTreeMap::new();
    let less = run_policy(
        "push-less-productive",
        VictimPolicy::LeastProductive,
        opts,
        &mut throughput,
    )?;
    let more = run_policy(
        "push-more-productive",
        VictimPolicy::MostProductive,
        opts,
        &mut throughput,
    )?;

    let step = VirtualDuration::from_mins(if opts.fast { 1 } else { 5 });
    let fig7 = render_series_table(&throughput, step);
    opts.emit("Figure 7: throughput-oriented spill policies", &fig7);
    opts.csv("fig7_throughput.csv", &fig7)?;

    let mut cleanup = Table::new(&[
        "policy",
        "runtime output",
        "cleanup tuples",
        "cleanup time (ms, modeled)",
    ]);
    for o in [&less, &more] {
        cleanup.row(vec![
            o.label.to_string(),
            format!("{}", o.runtime_output),
            format!("{}", o.cleanup_output),
            format!("{}", o.cleanup_ms),
        ]);
    }
    opts.emit(
        "T-cleanup-1 (§3.2): cleanup effort after the Figure 7 runs",
        &cleanup,
    );
    opts.csv("cleanup1.csv", &cleanup)?;

    Ok(Fig07Result { less, more })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn less_productive_policy_wins_both_phases() {
        let opts = RunOpts::fast_quiet();
        let r = run(&opts).unwrap();
        assert!(
            r.less.runtime_output > r.more.runtime_output,
            "push-less-productive should out-produce push-more-productive: {} vs {}",
            r.less.runtime_output,
            r.more.runtime_output
        );
        assert!(
            r.less.cleanup_output < r.more.cleanup_output,
            "push-less-productive should owe fewer missed results: {} vs {}",
            r.less.cleanup_output,
            r.more.cleanup_output
        );
        assert!(
            r.less.cleanup_ms <= r.more.cleanup_ms,
            "cleanup time should follow missed-result volume"
        );
        // Totals agree: both policies eventually produce the same
        // complete result set.
        assert_eq!(
            r.less.runtime_output + r.less.cleanup_output,
            r.more.runtime_output + r.more.cleanup_output,
            "exactness violated: total results differ between policies"
        );
    }
}
