//! Figures 5 & 6: sensitivity to the spill fraction `k%`.
//!
//! Setup (§3.2): one machine, three-way join, 30 ms input rate, tuple
//! range 30 K, join rate 3, spill triggered over 200 MB, victims chosen
//! *randomly* ("we randomly choose partition groups … since we
//! investigate the impact of which amount of state is to be pushed").
//!
//! Expected shapes:
//! * Figure 5 — the larger `k`, the lower the run-time throughput
//!   (pushed states stop producing); All-Mem is the upper bound.
//! * Figure 6 — sawtooth memory, bounded by the threshold; larger `k`
//!   ⇒ fewer, deeper zags.

use std::collections::BTreeMap;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::runtime::socket::{run_socket, SocketConfig};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::error::Result;
use dcape_common::time::VirtualDuration;
use dcape_engine::VictimPolicy;
use dcape_metrics::{engine_curves, render_series_table, Table, TimeSeries};

use crate::opts::{RunOpts, RuntimeKind};
use crate::scale;

/// Result of the k% sweep.
#[derive(Debug)]
pub struct KSweepResult {
    /// `(k_percent, total runtime output, spill count, peak memory)`.
    pub rows: Vec<(u32, u64, u64, f64)>,
    /// All-Mem total output (upper bound).
    pub all_mem_output: u64,
}

/// One single-engine configuration's totals and curves.
#[derive(Debug)]
struct KRun {
    runtime_output: u64,
    spills: u64,
    throughput: TimeSeries,
    memory: TimeSeries,
}

/// Run one single-engine configuration on the selected runtime.
fn run_one(spill_fraction: f64, threshold: Option<u64>, opts: &RunOpts) -> Result<KRun> {
    let duration = scale::default_duration(opts.fast);
    let threshold = threshold.unwrap_or(u64::MAX / 4);
    let mut engine = scale::engine_with_threshold(scale::scale_bytes(threshold, opts.fast))
        .with_policy(VictimPolicy::Random);
    if spill_fraction > 0.0 {
        engine.spill_fraction = spill_fraction;
    }
    let cfg = SimConfig::new(
        1,
        engine,
        scale::paper_workload(),
        StrategyConfig::NoAdaptation,
    )
    .with_faults(opts.fault_plan())
    .with_journal();
    let cfg = opts.with_scale_events(cfg);
    let (runtime_output, spill_counts, journal) = match opts.runtime {
        RuntimeKind::Sim => {
            let mut driver = SimDriver::new(cfg)?;
            driver.run_until(duration)?;
            let r = driver.finish()?;
            (r.runtime_output, r.spill_counts, r.journal)
        }
        RuntimeKind::Threaded => {
            let r = run_threaded(cfg, duration)?;
            (r.runtime_output, r.spill_counts, r.journal)
        }
        RuntimeKind::Socket => {
            let r = run_socket(
                SocketConfig {
                    sim: cfg,
                    mode: opts.socket_mode(),
                    kill: None,
                },
                duration,
            )?;
            (r.runtime_output, r.spill_counts, r.journal)
        }
    };
    let curves = engine_curves(&journal, duration, runtime_output);
    Ok(KRun {
        runtime_output,
        spills: spill_counts.iter().sum(),
        throughput: curves.output,
        memory: curves.memory.into_iter().next().unwrap_or_default(),
    })
}

/// Run the sweep for both figures.
pub fn run(opts: &RunOpts) -> Result<KSweepResult> {
    let ks: &[u32] = if opts.fast {
        &[10, 50, 100]
    } else {
        &[10, 20, 30, 50, 100]
    };
    let mut throughput = BTreeMap::new();
    let mut memory = BTreeMap::new();
    let mut rows = Vec::new();
    for &k in ks {
        let run = run_one(k as f64 / 100.0, Some(scale::THRESHOLD_200MB), opts)?;
        let peak = run.memory.max().unwrap_or(0.0);
        rows.push((k, run.runtime_output, run.spills, peak));
        throughput.insert(format!("throughput/k={k}%"), run.throughput);
        memory.insert(format!("mem/k={k}%"), run.memory);
    }
    let all_mem = run_one(0.3, None, opts)?;
    let all_mem_output = all_mem.runtime_output;
    throughput.insert("throughput/all-mem".to_string(), all_mem.throughput);
    memory.insert("mem/all-mem".to_string(), all_mem.memory);

    // Figure 5: throughput over time per k.
    let step = VirtualDuration::from_mins(if opts.fast { 1 } else { 5 });
    let fig5 = render_series_table(&throughput, step);
    opts.emit("Figure 5: run-time throughput vs spill fraction k%", &fig5);
    opts.csv("fig5_throughput.csv", &fig5)?;

    // Figure 6: memory over time per k.
    let fig6 = render_series_table(&memory, step);
    opts.emit("Figure 6: memory usage vs spill fraction k%", &fig6);
    opts.csv("fig6_memory.csv", &fig6)?;

    // Summary table.
    let mut summary = Table::new(&["k%", "runtime output", "spills", "peak mem (MB)"]);
    for (k, out, spills, peak) in &rows {
        summary.row(vec![
            format!("{k}"),
            format!("{out}"),
            format!("{spills}"),
            format!("{:.1}", peak / (1 << 20) as f64),
        ]);
    }
    summary.row(vec![
        "all-mem".into(),
        format!("{all_mem_output}"),
        "0".into(),
        "-".into(),
    ]);
    opts.emit("Figures 5/6 summary", &summary);
    opts.csv("fig5_6_summary.csv", &summary)?;

    Ok(KSweepResult {
        rows,
        all_mem_output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let opts = RunOpts::fast_quiet();
        let r = run(&opts).unwrap();
        // All-Mem dominates every spilling configuration.
        for (k, out, spills, _) in &r.rows {
            assert!(
                r.all_mem_output >= *out,
                "k={k}%: spilling run out-produced All-Mem"
            );
            assert!(*spills > 0, "k={k}% must actually spill");
        }
        // Smaller k ⇒ more spills (Figure 6's zag count).
        let spills: Vec<u64> = r.rows.iter().map(|(_, _, s, _)| *s).collect();
        assert!(
            spills.first().unwrap() > spills.last().unwrap(),
            "k=10% should spill more often than k=100%: {spills:?}"
        );
        // Larger k ⇒ lower run-time throughput (Figure 5).
        let outs: Vec<u64> = r.rows.iter().map(|(_, o, _, _)| *o).collect();
        assert!(
            outs.first().unwrap() > outs.last().unwrap(),
            "k=10% should out-produce k=100%: {outs:?}"
        );
    }

    /// Every runtime draws the curves: the threaded run's memory curve
    /// comes from the samples its coordinator collected.
    #[test]
    fn threaded_runs_draw_a_memory_curve() {
        let mut opts = RunOpts::fast_quiet();
        opts.runtime = RuntimeKind::Threaded;
        let run = run_one(0.1, Some(scale::THRESHOLD_200MB), &opts).unwrap();
        assert!(run.spills > 0, "the run must spill");
        assert!(!run.memory.points().is_empty(), "a memory curve");
        assert!(run.memory.max().unwrap() > 0.0, "with a non-zero peak");
        let end = run.throughput.last().unwrap();
        assert_eq!(
            end,
            (scale::default_duration(true), run.runtime_output as f64)
        );
    }
}
