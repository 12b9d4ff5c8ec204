//! Figures 13 & 14: lazy-disk vs active-disk.
//!
//! Setup (§5.4): three machines; the partitions initially owned by
//! machine `m1` have average join rate 4, the other two machines' rate
//! 1 — a per-machine productivity gap that the lazy-disk strategy never
//! sees (memory runs out roughly evenly, so no relocation fires), but
//! active-disk exploits: it forces the low-productivity machines to
//! spill, then relocation packs productive partitions into the freed
//! memory. θ_r = 0.8, τ_m = 45 s, λ = 2, spill threshold 60 MB,
//! force-spill cap 100 MB.
//!
//! Figure 14 widens the gap: the productive class gets a small tuple
//! range (15 K ⇒ higher join factor) and the unproductive class a
//! large one (45 K), so the active-disk advantage grows.

use std::collections::BTreeMap;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::error::Result;
use dcape_common::ids::PartitionId;
use dcape_common::time::VirtualDuration;
use dcape_metrics::{engine_curves, render_series_table, Table, TimeSeries};
use dcape_streamgen::{ClassAssignment, PartitionClass, StreamSetSpec};

use crate::opts::RunOpts;
use crate::scale;

/// One strategy's outcome.
#[derive(Debug)]
pub struct StrategyOutcome {
    /// Label.
    pub label: &'static str,
    /// Run-time output.
    pub runtime_output: u64,
    /// Forced spills issued by the coordinator.
    pub force_spills: u64,
    /// Relocations performed.
    pub relocations: usize,
}

/// Result of one of the two figures.
#[derive(Debug)]
pub struct FigLazyVsActiveResult {
    /// Lazy-disk outcome.
    pub lazy: StrategyOutcome,
    /// Active-disk outcome.
    pub active: StrategyOutcome,
}

/// The Figure 13 workload: m1's partitions (first third, matching the
/// even placement blocks) at join rate 4, the rest at rate 1.
pub fn gap_workload(hot_range: u64, cold_range: u64) -> StreamSetSpec {
    let third = scale::NUM_PARTITIONS / 3;
    let hot: Vec<PartitionId> = (0..third).map(PartitionId).collect();
    let cold: Vec<PartitionId> = (third..scale::NUM_PARTITIONS).map(PartitionId).collect();
    let mut spec = scale::paper_workload();
    spec.classes = vec![
        PartitionClass {
            assignment: ClassAssignment::Explicit(hot),
            join_rate: 4,
            tuple_range: hot_range,
        },
        PartitionClass {
            assignment: ClassAssignment::Explicit(cold),
            join_rate: 1,
            tuple_range: cold_range,
        },
    ];
    spec
}

fn run_one(
    label: &'static str,
    active: bool,
    workload: StreamSetSpec,
    opts: &RunOpts,
    throughput: &mut BTreeMap<String, TimeSeries>,
) -> Result<StrategyOutcome> {
    // Fast mode compresses the paper's hour-long crossover: shorter
    // run, but spill pressure starts proportionally earlier (lower
    // threshold) and multiplicities grow faster (the workload's tuple
    // ranges are shrunk by `fast_ranges`).
    let duration = if opts.fast {
        dcape_common::time::VirtualTime::from_mins(15)
    } else {
        scale::default_duration(false)
    };
    let threshold = if opts.fast {
        scale::THRESHOLD_60MB / 20
    } else {
        scale::THRESHOLD_60MB
    };
    let engine = scale::engine_with_threshold(threshold);
    let strategy = if active {
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 2.0,
            spill_fraction: 0.3,
            force_spill_cap: if opts.fast { 100 << 20 >> 5 } else { 100 << 20 },
        }
    } else {
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        }
    };
    // Partitions placed in consecutive blocks: first third (the hot
    // class) on engine 0, mirroring "partitions assigned to machine m1".
    let cfg = SimConfig::new(3, engine, workload, strategy)
        .with_placement(PlacementSpec::Fractions(vec![
            1.0 / 3.0,
            1.0 / 3.0,
            1.0 / 3.0,
        ]))
        .with_stats_interval(VirtualDuration::from_secs(45))
        .with_faults(opts.fault_plan())
        .with_journal();
    let mut driver = SimDriver::new(cfg)?;
    driver.run_until(duration)?;
    let relocations = driver.relocations().len();
    let report = driver.finish()?;
    let curves = engine_curves(&report.journal, duration, report.runtime_output);
    throughput.insert(format!("throughput/{label}"), curves.output);
    Ok(StrategyOutcome {
        label,
        runtime_output: report.runtime_output,
        force_spills: report.force_spills,
        relocations,
    })
}

fn run_figure(
    title: &str,
    csv_name: &str,
    hot_range: u64,
    cold_range: u64,
    opts: &RunOpts,
) -> Result<FigLazyVsActiveResult> {
    // Fast mode: shrink tuple ranges so join factors grow as much in 15
    // minutes as the paper's do in an hour.
    let (hot_range, cold_range) = if opts.fast {
        (hot_range / 5, cold_range / 5)
    } else {
        (hot_range, cold_range)
    };
    let mut throughput = BTreeMap::new();
    let lazy = run_one(
        "lazy-disk",
        false,
        gap_workload(hot_range, cold_range),
        opts,
        &mut throughput,
    )?;
    let active = run_one(
        "active-disk",
        true,
        gap_workload(hot_range, cold_range),
        opts,
        &mut throughput,
    )?;

    let step = VirtualDuration::from_mins(if opts.fast { 1 } else { 5 });
    let fig = render_series_table(&throughput, step);
    opts.emit(title, &fig);
    opts.csv(csv_name, &fig)?;

    let mut summary = Table::new(&["strategy", "runtime output", "force spills", "relocations"]);
    for o in [&lazy, &active] {
        summary.row(vec![
            o.label.to_string(),
            format!("{}", o.runtime_output),
            format!("{}", o.force_spills),
            format!("{}", o.relocations),
        ]);
    }
    opts.emit(&format!("{title} — summary"), &summary);

    Ok(FigLazyVsActiveResult { lazy, active })
}

/// Run Figure 13 (uniform tuple ranges).
pub fn run_fig13(opts: &RunOpts) -> Result<FigLazyVsActiveResult> {
    run_figure(
        "Figure 13: lazy-disk vs active-disk (join-rate gap)",
        "fig13_throughput.csv",
        scale::TUPLE_RANGE,
        scale::TUPLE_RANGE,
        opts,
    )
}

/// Run Figure 14 (tuple ranges 15 K vs 45 K widen the gap).
pub fn run_fig14(opts: &RunOpts) -> Result<FigLazyVsActiveResult> {
    run_figure(
        "Figure 14: lazy-disk vs active-disk (widened gap)",
        "fig14_throughput.csv",
        15_000,
        45_000,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gain(r: &FigLazyVsActiveResult) -> f64 {
        r.active.runtime_output as f64 / r.lazy.runtime_output.max(1) as f64
    }

    #[test]
    fn active_disk_beats_lazy_in_both_figures() {
        let opts = RunOpts::fast_quiet();
        let f13 = run_fig13(&opts).unwrap();
        assert!(
            f13.active.force_spills > 0,
            "active-disk must issue forced spills"
        );
        assert!(
            f13.active.runtime_output > f13.lazy.runtime_output,
            "Figure 13: active {} should beat lazy {}",
            f13.active.runtime_output,
            f13.lazy.runtime_output
        );
        let f14 = run_fig14(&opts).unwrap();
        assert!(
            f14.active.runtime_output > f14.lazy.runtime_output,
            "Figure 14: active {} should beat lazy {}",
            f14.active.runtime_output,
            f14.lazy.runtime_output
        );
        assert!(gain(&f13) > 1.0 && gain(&f14) > 1.0);
    }

    /// The gap-widening claim needs the paper-scale 60-minute runs (the
    /// fast compression distorts the two figures differently); measured
    /// full-scale gains are ~1.65x (Fig 13) vs ~1.85x (Fig 14) — see
    /// EXPERIMENTS.md. Run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "paper-scale run, several minutes in release"]
    fn gap_widens_at_paper_scale() {
        let mut opts = RunOpts::fast_quiet();
        opts.fast = false;
        let f13 = run_fig13(&opts).unwrap();
        let f14 = run_fig14(&opts).unwrap();
        assert!(
            gain(&f14) > gain(&f13),
            "Figure 14's widened gap should increase the advantage: {} vs {}",
            gain(&f14),
            gain(&f13)
        );
    }
}
