//! Figure 11: relocation vs spill.
//!
//! Setup (§4.2): three machines; the initial distribution gives one
//! machine 60 % of the partitions and the other two 20 % each.
//! θ_r = 80 %, τ_m = 45 s, spill threshold 200 MB.
//!
//! Expected shape: the no-relocation run's throughput flattens once the
//! big machine overflows (~40 min in the paper) and starts spilling,
//! while the with-relocation run moves states to the idle machines and
//! keeps producing at the full rate.

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
pub struct Fig11Outcome {
    /// Label ("no-relocation" / "with-relocation").
    pub label: &'static str,
    /// Run-time output.
    pub runtime_output: u64,
    /// Total spills across engines.
    pub spills: u64,
    /// Relocations performed.
    pub relocations: usize,
}

/// Result of Figure 11.
#[derive(Debug)]
pub struct Fig11Result {
    /// The no-relocation baseline.
    pub baseline: Fig11Outcome,
    /// The with-relocation run.
    pub with_relocation: Fig11Outcome,
}

fn run_one(
    label: &'static str,
    relocate: bool,
    opts: &RunOpts,
    throughput: &mut BTreeMap<String, TimeSeries>,
) -> Result<Fig11Outcome> {
    let duration = scale::default_duration(opts.fast);
    let threshold = scale::scale_bytes(scale::THRESHOLD_200MB, opts.fast);
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
        .with_placement(PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]))
        .with_stats_interval(VirtualDuration::from_secs(45))
        .with_faults(opts.fault_plan())
        .with_journal();
    let cfg = opts.with_scale_events(cfg);
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(duration)?;
    let relocations = driver.relocations().len();
    let report = driver.finish()?;
    opts.write_journal(
        &format!("fig11-{label}"),
        &report.journal,
        &report.journal_counters,
    )?;
    let curves = engine_curves(&report.journal, duration, report.runtime_output);
    throughput.insert(format!("throughput/{label}"), curves.output);
    Ok(Fig11Outcome {
        label,
        runtime_output: report.runtime_output,
        spills: report.spill_counts.iter().sum(),
        relocations,
    })
}

/// Run Figure 11.
pub fn run(opts: &RunOpts) -> Result<Fig11Result> {
    let mut throughput = BTreeMap::new();
    let baseline = run_one("no-relocation", false, opts, &mut throughput)?;
    let with_relocation = run_one("with-relocation", true, opts, &mut throughput)?;

    let step = VirtualDuration::from_mins(if opts.fast { 1 } else { 5 });
    let fig11 = render_series_table(&throughput, step);
    opts.emit("Figure 11: relocation vs spill", &fig11);
    opts.csv("fig11_throughput.csv", &fig11)?;

    let mut summary = Table::new(&["config", "runtime output", "spills", "relocations"]);
    for o in [&baseline, &with_relocation] {
        summary.row(vec![
            o.label.to_string(),
            format!("{}", o.runtime_output),
            format!("{}", o.spills),
            format!("{}", o.relocations),
        ]);
    }
    opts.emit("Figure 11 summary", &summary);
    opts.csv("fig11_summary.csv", &summary)?;

    Ok(Fig11Result {
        baseline,
        with_relocation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relocation_beats_spill_under_skewed_placement() {
        let opts = RunOpts::fast_quiet();
        let r = run(&opts).unwrap();
        assert!(
            r.baseline.spills > 0,
            "the 60% machine must overflow in the baseline"
        );
        assert!(r.with_relocation.relocations > 0);
        assert!(
            r.with_relocation.runtime_output > r.baseline.runtime_output,
            "with-relocation {} should out-produce no-relocation {}",
            r.with_relocation.runtime_output,
            r.baseline.runtime_output
        );
        assert!(
            r.with_relocation.spills < r.baseline.spills,
            "relocation should avoid (most) spills: {} vs {}",
            r.with_relocation.spills,
            r.baseline.spills
        );
    }
}
