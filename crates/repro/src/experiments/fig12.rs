//! Figure 12 + the §5.2 cleanup comparison (T-cleanup-2): lazy-disk in
//! a memory-constrained cluster.
//!
//! Setup: three machines, skewed initial distribution (one machine owns
//! ⅔ of the partitions, the others ⅙ each), and budgets low enough that
//! even the aggregate cluster memory cannot hold the query — the regime
//! where "state spills cannot be avoided any longer simply by
//! relocating states across machines" (§5).
//!
//! Expected shapes:
//! * Figure 12 — lazy-disk out-produces no-relocation at run time by
//!   using all three machines' memory before resorting to disk.
//! * T-cleanup-2 — total results are similar, but the cleanup stage
//!   differs dramatically: no-relocation leaves nearly all segments on
//!   one machine (paper: >1600 s) while lazy-disk spread the state so
//!   cleanup parallelizes (<400 s) — shape: ≈ #machines speedup.

use std::collections::BTreeMap;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::error::Result;
use dcape_common::time::VirtualDuration;
use dcape_metrics::{engine_curves, render_series_table, Table, TimeSeries};

use crate::opts::RunOpts;
use crate::scale;

/// One configuration's outcome.
#[derive(Debug)]
pub struct Fig12Outcome {
    /// Label.
    pub label: &'static str,
    /// Run-time output.
    pub runtime_output: u64,
    /// Cleanup (missed) results.
    pub cleanup_output: u64,
    /// Per-engine modeled cleanup cost (ms).
    pub cleanup_cost_ms: Vec<u64>,
    /// Parallel cleanup wall time = max per-engine cost.
    pub cleanup_wall_ms: u64,
    /// Spills per engine.
    pub spill_counts: Vec<u64>,
}

/// Result of Figure 12 / T-cleanup-2.
#[derive(Debug)]
pub struct Fig12Result {
    /// No-relocation baseline.
    pub baseline: Fig12Outcome,
    /// Lazy-disk run.
    pub lazy: Fig12Outcome,
}

fn run_one(
    label: &'static str,
    relocate: bool,
    opts: &RunOpts,
    throughput: &mut BTreeMap<String, TimeSeries>,
) -> Result<Fig12Outcome> {
    let duration = scale::default_duration(opts.fast);
    // Tight budgets: the whole cluster cannot hold the state (§5.2's
    // "extremely heavy" 6-hour regime, compressed by lowering budgets
    // instead of stretching the run).
    let threshold = scale::scale_bytes(scale::THRESHOLD_60MB, opts.fast);
    let engine = scale::engine_with_threshold(threshold);
    let strategy = if relocate {
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        }
    } else {
        StrategyConfig::NoAdaptation
    };
    let cfg = SimConfig::new(3, engine, scale::paper_workload(), strategy)
        .with_placement(PlacementSpec::Fractions(vec![
            2.0 / 3.0,
            1.0 / 6.0,
            1.0 / 6.0,
        ]))
        .with_stats_interval(VirtualDuration::from_secs(45))
        .with_faults(opts.fault_plan())
        .with_journal();
    let cfg = opts.with_scale_events(cfg);
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(duration)?;
    let report = driver.finish()?;
    opts.write_journal(
        &format!("fig12-{label}"),
        &report.journal,
        &report.journal_counters,
    )?;
    let curves = engine_curves(&report.journal, duration, report.runtime_output);
    throughput.insert(format!("throughput/{label}"), curves.output);
    Ok(Fig12Outcome {
        label,
        runtime_output: report.runtime_output,
        cleanup_output: report.cleanup_output,
        cleanup_wall_ms: report.cleanup_wall_ms(),
        cleanup_cost_ms: report.cleanup_cost_ms,
        spill_counts: report.spill_counts,
    })
}

/// Run Figure 12 and T-cleanup-2.
pub fn run(opts: &RunOpts) -> Result<Fig12Result> {
    let mut throughput = BTreeMap::new();
    let baseline = run_one("no-relocation", false, opts, &mut throughput)?;
    let lazy = run_one("lazy-disk", true, opts, &mut throughput)?;

    let step = VirtualDuration::from_mins(if opts.fast { 1 } else { 5 });
    let fig12 = render_series_table(&throughput, step);
    opts.emit("Figure 12: lazy-disk vs no-relocation", &fig12);
    opts.csv("fig12_throughput.csv", &fig12)?;

    let mut cleanup = Table::new(&[
        "config",
        "runtime output",
        "cleanup tuples",
        "cleanup wall (ms)",
        "per-engine cleanup (ms)",
        "spills/engine",
    ]);
    for o in [&baseline, &lazy] {
        cleanup.row(vec![
            o.label.to_string(),
            format!("{}", o.runtime_output),
            format!("{}", o.cleanup_output),
            format!("{}", o.cleanup_wall_ms),
            format!("{:?}", o.cleanup_cost_ms),
            format!("{:?}", o.spill_counts),
        ]);
    }
    opts.emit("T-cleanup-2 (§5.2): cleanup-stage comparison", &cleanup);
    opts.csv("cleanup2.csv", &cleanup)?;

    Ok(Fig12Result { baseline, lazy })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_disk_wins_runtime_and_cleanup_parallelism() {
        let opts = RunOpts::fast_quiet();
        let r = run(&opts).unwrap();
        // Both configurations are memory constrained.
        assert!(r.baseline.spill_counts.iter().sum::<u64>() > 0);
        assert!(r.lazy.spill_counts.iter().sum::<u64>() > 0);
        // Figure 12: lazy-disk run-time throughput is higher.
        assert!(
            r.lazy.runtime_output > r.baseline.runtime_output,
            "lazy {} vs baseline {}",
            r.lazy.runtime_output,
            r.baseline.runtime_output
        );
        // Exactness: totals agree.
        assert_eq!(
            r.lazy.runtime_output + r.lazy.cleanup_output,
            r.baseline.runtime_output + r.baseline.cleanup_output
        );
        // T-cleanup-2: lazy-disk's parallel cleanup wall time is much
        // shorter because the work is spread over the machines.
        assert!(
            r.lazy.cleanup_wall_ms < r.baseline.cleanup_wall_ms,
            "lazy cleanup {} ms should beat baseline {} ms",
            r.lazy.cleanup_wall_ms,
            r.baseline.cleanup_wall_ms
        );
        // In the baseline, one machine carries (nearly) all the cost.
        let base_total: u64 = r.baseline.cleanup_cost_ms.iter().sum();
        let base_max = *r.baseline.cleanup_cost_ms.iter().max().unwrap();
        assert!(
            base_max as f64 > base_total as f64 * 0.9,
            "baseline cleanup should be concentrated: {:?}",
            r.baseline.cleanup_cost_ms
        );
    }
}
