//! Figures 9 & 10: state relocation under alternating input skew.
//!
//! Setup (§4.2): two machines, each initially owning half the
//! partitions; memory large enough that the query runs fully in memory.
//! The input alternates: one machine's partitions receive 10× more
//! tuples than the other's, flipping every 10 minutes — "a worst case
//! situation in terms of input stream fluctuations". τ_m = 45 s.
//!
//! Expected shapes:
//! * Figure 9 — throughput is insensitive to θ_r ∈ {50…90 %} and all
//!   match All-mem (relocation is cheap on a fast network); but the
//!   *number* of relocations grows steeply with θ_r (paper: 24 at 90 %
//!   vs 2 at 50 %).
//! * Figure 10 — with relocation (θ_r = 90 %) the two machines' memory
//!   stays balanced; without it, usage diverges with the skew phases.

use std::collections::BTreeMap;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::error::Result;
use dcape_common::ids::PartitionId;
use dcape_common::time::VirtualDuration;
use dcape_metrics::{engine_curves, render_series_table, Table, TimeSeries};
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

use crate::opts::RunOpts;
use crate::scale;

/// One θ_r configuration's outcome.
#[derive(Debug)]
pub struct ThetaOutcome {
    /// θ_r in percent (0 = no-relocation baseline).
    pub theta_pct: u32,
    /// Run-time output.
    pub output: u64,
    /// Relocations performed.
    pub relocations: usize,
}

/// Result of Figures 9/10.
#[derive(Debug)]
pub struct Fig0910Result {
    /// Outcomes per θ_r plus the no-relocation baseline (theta = 0).
    pub outcomes: Vec<ThetaOutcome>,
    /// Figure 10's per-machine memory curves, named
    /// `mem/<config>/QE<i>`.
    pub memory: BTreeMap<String, TimeSeries>,
}

/// Alternating-skew workload over two engine-sized partition halves.
pub fn alternating_workload(fast: bool) -> StreamSetSpec {
    let half: Vec<PartitionId> = (0..scale::NUM_PARTITIONS / 2).map(PartitionId).collect();
    scale::paper_workload().with_pattern(ArrivalPattern::AlternatingSkew {
        group_a: half,
        ratio: 10.0,
        period: VirtualDuration::from_mins(if fast { 2 } else { 10 }),
    })
}

fn run_theta(
    theta_pct: u32,
    opts: &RunOpts,
    throughput: &mut BTreeMap<String, TimeSeries>,
    memory: Option<&mut BTreeMap<String, TimeSeries>>,
) -> Result<ThetaOutcome> {
    let duration = scale::default_duration(opts.fast);
    // All-in-memory: budget far above any possible state.
    let engine = scale::engine_with_threshold(u64::MAX / 4);
    let strategy = if theta_pct == 0 {
        StrategyConfig::NoAdaptation
    } else {
        StrategyConfig::LazyDisk {
            theta_r: theta_pct as f64 / 100.0,
            tau_m: VirtualDuration::from_secs(45),
        }
    };
    let cfg = SimConfig::new(2, engine, alternating_workload(opts.fast), strategy)
        .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
        .with_stats_interval(VirtualDuration::from_secs(45))
        .with_faults(opts.fault_plan())
        .with_journal();
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(duration)?;
    let relocations = driver.relocations().len();
    let report = driver.finish()?;
    let label = if theta_pct == 0 {
        "no-relocation".to_string()
    } else {
        format!("theta={theta_pct}%")
    };
    opts.write_journal(
        &format!("fig09-{label}"),
        &report.journal,
        &report.journal_counters,
    )?;
    let curves = engine_curves(&report.journal, duration, report.runtime_output);
    throughput.insert(format!("throughput/{label}"), curves.output);
    if let Some(memory) = memory {
        for (i, s) in curves.memory.into_iter().enumerate() {
            memory.insert(format!("mem/{label}/QE{i}"), s);
        }
    }
    Ok(ThetaOutcome {
        theta_pct,
        output: report.runtime_output,
        relocations,
    })
}

/// Run Figures 9 and 10.
pub fn run(opts: &RunOpts) -> Result<Fig0910Result> {
    let mut throughput = BTreeMap::new();
    let mut memory = BTreeMap::new();
    let thetas: &[u32] = if opts.fast {
        &[50, 90]
    } else {
        &[50, 70, 80, 90]
    };
    let mut outcomes = Vec::new();
    // Baseline (also provides Figure 10's "no-relocation" memory lines).
    outcomes.push(run_theta(0, opts, &mut throughput, Some(&mut memory))?);
    for &t in thetas {
        let memory = (t == 90).then_some(&mut memory);
        outcomes.push(run_theta(t, opts, &mut throughput, memory)?);
    }

    let step = VirtualDuration::from_mins(if opts.fast { 1 } else { 5 });
    let fig9 = render_series_table(&throughput, step);
    opts.emit("Figure 9: throughput across relocation thresholds", &fig9);
    opts.csv("fig9_throughput.csv", &fig9)?;

    let mut counts = Table::new(&["theta_r", "relocations", "runtime output"]);
    for o in &outcomes {
        counts.row(vec![
            if o.theta_pct == 0 {
                "none".into()
            } else {
                format!("{}%", o.theta_pct)
            },
            format!("{}", o.relocations),
            format!("{}", o.output),
        ]);
    }
    opts.emit("Figure 9 (inset): relocation counts", &counts);
    opts.csv("fig9_counts.csv", &counts)?;

    let fig10 = render_series_table(&memory, step);
    opts.emit(
        "Figure 10: per-machine memory with vs without relocation",
        &fig10,
    );
    opts.csv("fig10_memory.csv", &fig10)?;

    Ok(Fig0910Result { outcomes, memory })
}

/// Balance metric for tests: max |mem(QE0) − mem(QE1)| over samples.
pub fn max_memory_gap(memory: &BTreeMap<String, TimeSeries>, label: &str) -> f64 {
    let a = memory.get(&format!("mem/{label}/QE0"));
    let b = memory.get(&format!("mem/{label}/QE1"));
    match (a, b) {
        (Some(a), Some(b)) => a
            .points()
            .iter()
            .zip(b.points())
            .map(|((_, x), (_, y))| (x - y).abs())
            .fold(0.0, f64::max),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let opts = RunOpts::fast_quiet();
        let r = run(&opts).unwrap();
        let base = &r.outcomes[0];
        assert_eq!(base.theta_pct, 0);
        assert_eq!(base.relocations, 0);

        // Higher theta => more relocations (24 vs 2 in the paper).
        let by_theta: Vec<(u32, usize)> = r.outcomes[1..]
            .iter()
            .map(|o| (o.theta_pct, o.relocations))
            .collect();
        let low = by_theta.first().unwrap();
        let high = by_theta.last().unwrap();
        assert!(
            high.1 > low.1,
            "theta=90 should relocate more: {by_theta:?}"
        );
        assert!(high.1 >= 1 && low.1 >= 1);

        // Throughput roughly unaffected by relocations (within 2%).
        for o in &r.outcomes[1..] {
            let delta = (o.output as f64 - base.output as f64).abs() / base.output as f64;
            assert!(
                delta < 0.02,
                "theta={} output {} deviates {delta:.3} from baseline {}",
                o.theta_pct,
                o.output,
                base.output
            );
        }

        // Figure 10: relocation keeps memory more balanced.
        let gap_with = max_memory_gap(&r.memory, "theta=90%");
        let gap_without = max_memory_gap(&r.memory, "no-relocation");
        assert!(
            gap_with < gap_without,
            "relocation should shrink the memory gap: {gap_with} vs {gap_without}"
        );
    }
}
