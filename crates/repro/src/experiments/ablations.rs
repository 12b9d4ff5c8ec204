//! Design-choice ablations (DESIGN.md §5).
//!
//! Not paper figures — these quantify the design decisions the paper
//! asserts qualitatively:
//!
//! 1. **Victim policy ladder** — random / largest-first (XJoin) /
//!    smallest-first / least-productive on one workload.
//! 2. **Relocation amount** — the paper's `(M_max−M_least)/2` pair-wise
//!    halving vs a fixed small quantum (convergence / #relocations).
//! 3. **Network sensitivity** — gigabit vs slow WAN relocation costs
//!    (§4.2's closing caveat).
//! 4. **Spill granularity** — partition-group vs per-input (XJoin-style
//!    with timestamp bookkeeping), §2/Figure 3.
//! 5. **Productivity estimator** — cumulative vs amortized/decaying
//!    under one-shot and cyclic drift (§2's remark).
//! 6. **Relocation scheme** — pair-wise vs planned global rebalance
//!    (§4's "other models").
//! 7. **Window sizes** — sliding windows bound steady-state memory
//!    (the intro's infinite-stream regime).

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::{NetworkModel, PlacementSpec};
use dcape_common::error::Result;
use dcape_common::time::VirtualDuration;
use dcape_engine::VictimPolicy;
use dcape_metrics::{engine_curves, Table, TimeSeries};

use crate::experiments::fig07::heterogeneous_workload;
use crate::experiments::fig09_10::alternating_workload;
use crate::opts::RunOpts;
use crate::scale;

/// Outcome of the victim-policy ladder.
#[derive(Debug)]
pub struct PolicyLadderResult {
    /// `(policy name, runtime output, cleanup tuples)`.
    pub rows: Vec<(&'static str, u64, u64)>,
}

/// Ablation 1: victim policies on the heterogeneous workload.
pub fn run_policy_ladder(opts: &RunOpts) -> Result<PolicyLadderResult> {
    let duration = scale::default_duration(opts.fast);
    let threshold = scale::scale_bytes(scale::THRESHOLD_200MB, opts.fast);
    let policies: &[(&'static str, VictimPolicy)] = &[
        ("random", VictimPolicy::Random),
        ("largest-first (XJoin)", VictimPolicy::LargestFirst),
        ("smallest-first", VictimPolicy::SmallestFirst),
        ("least-productive (paper)", VictimPolicy::LeastProductive),
    ];
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let engine = scale::engine_with_threshold(threshold).with_policy(*policy);
        let cfg = SimConfig::new(
            1,
            engine,
            heterogeneous_workload(),
            StrategyConfig::NoAdaptation,
        );
        let mut driver = SimDriver::new(cfg)?;
        driver.run_until(duration)?;
        let report = driver.finish()?;
        rows.push((*name, report.runtime_output, report.cleanup_output));
    }
    let mut table = Table::new(&["victim policy", "runtime output", "cleanup tuples"]);
    for (name, out, cleanup) in &rows {
        table.row(vec![
            name.to_string(),
            format!("{out}"),
            format!("{cleanup}"),
        ]);
    }
    opts.emit("Ablation: spill victim policies", &table);
    opts.csv("ablation_policies.csv", &table)?;
    Ok(PolicyLadderResult { rows })
}

/// Outcome of the relocation-amount ablation.
#[derive(Debug)]
pub struct AmountResult {
    /// Halving scheme: `(relocations, final output)`.
    pub halving: (usize, u64),
    /// Fixed-quantum scheme (simulated by a high θ with small moves):
    /// `(relocations, final output)`.
    pub eager: (usize, u64),
}

/// Ablation 2: pair-wise halving vs eager small moves (θ_r = 95 %,
/// τ_m = 10 s approximates "move a little, often").
pub fn run_relocation_amounts(opts: &RunOpts) -> Result<AmountResult> {
    let duration = scale::default_duration(opts.fast);
    let engine = scale::engine_with_threshold(u64::MAX / 4);
    let run_with = |theta_r: f64, tau_secs: u64| -> Result<(usize, u64)> {
        let cfg = SimConfig::new(
            2,
            engine.clone(),
            alternating_workload(opts.fast),
            StrategyConfig::LazyDisk {
                theta_r,
                tau_m: VirtualDuration::from_secs(tau_secs),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]));
        let mut driver = SimDriver::new(cfg)?;
        driver.run_until(duration)?;
        let relocations = driver.relocations().len();
        let report = driver.finish()?;
        Ok((relocations, report.runtime_output))
    };
    let halving = run_with(0.8, 45)?;
    let eager = run_with(0.95, 10)?;
    let mut table = Table::new(&["scheme", "relocations", "runtime output"]);
    table.row(vec![
        "halving, theta=0.8, tau=45s (paper)".into(),
        format!("{}", halving.0),
        format!("{}", halving.1),
    ]);
    table.row(vec![
        "eager, theta=0.95, tau=10s".into(),
        format!("{}", eager.0),
        format!("{}", eager.1),
    ]);
    opts.emit("Ablation: relocation aggressiveness", &table);
    opts.csv("ablation_amounts.csv", &table)?;
    Ok(AmountResult { halving, eager })
}

/// Outcome of the network-sensitivity ablation.
#[derive(Debug)]
pub struct NetworkResult {
    /// `(label, relocations, total buffered tuples, runtime output)`.
    pub rows: Vec<(&'static str, usize, usize, u64)>,
}

/// Ablation 3: relocation on gigabit vs slow WAN.
pub fn run_network_sensitivity(opts: &RunOpts) -> Result<NetworkResult> {
    let duration = scale::default_duration(opts.fast);
    let engine = scale::engine_with_threshold(u64::MAX / 4);
    let nets: &[(&'static str, NetworkModel)] = &[
        ("gigabit", NetworkModel::gigabit()),
        ("slow WAN", NetworkModel::slow_wan()),
    ];
    let mut rows = Vec::new();
    for (label, net) in nets {
        let mut cfg = SimConfig::new(
            2,
            engine.clone(),
            alternating_workload(opts.fast),
            StrategyConfig::LazyDisk {
                theta_r: 0.9,
                tau_m: VirtualDuration::from_secs(45),
            },
        )
        .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]));
        cfg.network = *net;
        let mut driver = SimDriver::new(cfg)?;
        driver.run_until(duration)?;
        let relocations = driver.relocations().len();
        let buffered: usize = driver.relocations().iter().map(|r| r.buffered_tuples).sum();
        let report = driver.finish()?;
        rows.push((*label, relocations, buffered, report.runtime_output));
    }
    let mut table = Table::new(&[
        "network",
        "relocations",
        "buffered tuples",
        "runtime output",
    ]);
    for (label, rel, buf, out) in &rows {
        table.row(vec![
            label.to_string(),
            format!("{rel}"),
            format!("{buf}"),
            format!("{out}"),
        ]);
    }
    opts.emit("Ablation: network sensitivity of relocation", &table);
    opts.csv("ablation_network.csv", &table)?;
    Ok(NetworkResult { rows })
}

/// Outcome of the spill-granularity ablation (§2, Figure 3).
#[derive(Debug)]
pub struct GranularityResult {
    /// Partition-group spill: `(runtime output, cleanup tuples)`.
    pub group: (u64, u64),
    /// Per-input (XJoin-style) spill: `(runtime output, cleanup
    /// tuples, timestamp comparisons paid during cleanup)`.
    pub per_input: (u64, u64, u64),
    /// Reference join count (both variants must total to this).
    pub reference: u64,
}

/// Ablation 4: the paper's partition-group spill unit vs the XJoin-style
/// per-input unit with timestamp bookkeeping. Both run the same input on
/// one engine with equivalent spill pressure; the measurable difference
/// is the cleanup-side bookkeeping the partition-group design removes.
pub fn run_spill_granularity(opts: &RunOpts) -> Result<GranularityResult> {
    use dcape_common::ids::EngineId;
    use dcape_common::testing::ReferenceJoin;
    use dcape_common::time::VirtualTime;
    use dcape_engine::engine::QueryEngine;
    use dcape_engine::sink::CountingSink;
    use dcape_engine::spill::per_input::PerInputJoin;
    use dcape_streamgen::StreamSetGenerator;

    let spec =
        dcape_streamgen::StreamSetSpec::uniform(24, 2_400, 2, VirtualDuration::from_millis(30))
            .with_payload_pad(256);
    let deadline = VirtualTime::from_mins(if opts.fast { 4 } else { 20 });
    let threshold: u64 = if opts.fast { 300 << 10 } else { 4 << 20 };

    // Shared input.
    let mut gen = StreamSetGenerator::new(spec.clone())?;
    let partitioner = gen.partitioner();
    let tuples = gen.generate_until(deadline);

    let mut reference = ReferenceJoin::new(&[0, 0, 0], None);
    tuples.iter().for_each(|t| reference.push(t));
    let reference = reference.count();

    // Variant A: partition-group spill (the paper's design).
    let engine_cfg = dcape_engine::config::EngineConfig::three_way(u64::MAX / 4, threshold);
    let mut engine = QueryEngine::in_memory(EngineId(0), engine_cfg)?;
    let mut a_runtime = CountingSink::new();
    for t in &tuples {
        let pid = partitioner.partition_of(&t.values()[0]);
        engine.process(pid, t.clone(), &mut a_runtime)?;
        engine.tick(t.ts())?;
    }
    let mut a_cleanup = CountingSink::new();
    engine.cleanup(&mut a_cleanup)?;

    // Variant B: per-input spill with timestamp bookkeeping. To apply
    // comparable pressure, whenever total memory crosses the threshold
    // we push the largest single-input partition (XJoin's flush).
    let mut pij = PerInputJoin::new(vec![0, 0, 0])?;
    let mut b_runtime = CountingSink::new();
    for t in &tuples {
        let pid = partitioner.partition_of(&t.values()[0]);
        pij.process(pid, t.clone(), &mut b_runtime)?;
        while pij.state_bytes() as u64 > threshold {
            // Largest (pid, input) partition.
            let mut best: Option<(dcape_common::ids::PartitionId, usize, usize)> = None;
            for pid in pij.partitions() {
                for (stream, bytes) in pij.input_sizes(pid).into_iter().enumerate() {
                    if bytes > 0 && best.is_none_or(|(_, _, b)| bytes > b) {
                        best = Some((pid, stream, bytes));
                    }
                }
            }
            match best {
                Some((pid, stream, _)) => {
                    pij.spill_input(pid, stream);
                }
                None => break,
            }
        }
    }
    let mut b_cleanup = CountingSink::new();
    let b_report = pij.cleanup(&mut b_cleanup)?;

    let mut table = Table::new(&[
        "spill unit",
        "runtime output",
        "cleanup tuples",
        "stamp comparisons",
        "total",
    ]);
    table.row(vec![
        "partition group (paper)".into(),
        format!("{}", a_runtime.count()),
        format!("{}", a_cleanup.count()),
        "0 (none needed)".into(),
        format!("{}", a_runtime.count() + a_cleanup.count()),
    ]);
    table.row(vec![
        "per-input (XJoin-style)".into(),
        format!("{}", b_runtime.count()),
        format!("{}", b_cleanup.count()),
        format!("{}", b_report.stamp_comparisons),
        format!("{}", b_runtime.count() + b_cleanup.count()),
    ]);
    opts.emit(
        "Ablation: spill granularity — partition-group vs per-input (Fig 3)",
        &table,
    );
    opts.csv("ablation_granularity.csv", &table)?;

    Ok(GranularityResult {
        group: (a_runtime.count(), a_cleanup.count()),
        per_input: (
            b_runtime.count(),
            b_cleanup.count(),
            b_report.stamp_comparisons,
        ),
        reference,
    })
}

/// Outcome of the productivity-estimator ablation.
#[derive(Debug)]
pub struct EstimatorResult {
    /// One-shot drift: `(cumulative output, decaying output)`.
    pub one_shot: (u64, u64),
    /// Cyclic drift: `(cumulative output, decaying output)`.
    pub cyclic: (u64, u64),
}

/// Ablation 5: cumulative vs amortized (decaying) productivity
/// estimation under drift (§2's "amortized weight function … depending
/// on the perceived stability of the operator's behavior"). Two drift
/// regimes expose the trade-off:
///
/// * **one-shot** (the hot set changes permanently mid-run): the
///   cumulative metric keeps ranking the stale hot set as productive —
///   the decaying estimator adapts and wins;
/// * **cyclic** (alternating skew): the EWMA lags every phase flip and
///   spills partitions that are about to become hot, while the
///   cumulative metric approximates the long-run average — the paper's
///   default wins. This is precisely why the estimator is a pluggable
///   policy.
pub fn run_estimator_drift(opts: &RunOpts) -> Result<EstimatorResult> {
    use dcape_engine::state::productivity::ProductivityEstimator;
    use dcape_streamgen::ArrivalPattern;
    let duration = scale::default_duration(opts.fast);
    let threshold = scale::scale_bytes(scale::THRESHOLD_200MB, opts.fast);
    let n = scale::NUM_PARTITIONS as usize;
    let half_hot_then_cold: Vec<f64> = (0..n).map(|i| if i < n / 2 { 10.0 } else { 1.0 }).collect();
    let half_cold_then_hot: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { 10.0 }).collect();
    let one_shot_pattern = ArrivalPattern::Shift {
        at: dcape_common::time::VirtualTime::from_millis(duration.as_millis() / 3),
        before: half_hot_then_cold,
        after: half_cold_then_hot,
    };
    let run_with = |estimator: ProductivityEstimator, pattern: ArrivalPattern| -> Result<u64> {
        let engine = scale::engine_with_threshold(threshold).with_estimator(estimator);
        let workload = scale::paper_workload().with_pattern(pattern);
        let cfg = SimConfig::new(1, engine, workload, StrategyConfig::NoAdaptation)
            .with_stats_interval(VirtualDuration::from_secs(30));
        let mut driver = SimDriver::new(cfg)?;
        driver.run_until(duration)?;
        Ok(driver.finish()?.runtime_output)
    };
    let decaying = ProductivityEstimator::Decaying { alpha: 0.6 };
    let one_shot = (
        run_with(ProductivityEstimator::Cumulative, one_shot_pattern.clone())?,
        run_with(decaying, one_shot_pattern)?,
    );
    let cyclic_pattern = alternating_workload(opts.fast).pattern;
    let cyclic = (
        run_with(ProductivityEstimator::Cumulative, cyclic_pattern.clone())?,
        run_with(decaying, cyclic_pattern)?,
    );
    let mut table = Table::new(&["drift regime", "cumulative (paper)", "decaying (alpha=0.6)"]);
    table.row(vec![
        "one-shot shift".into(),
        format!("{}", one_shot.0),
        format!("{}", one_shot.1),
    ]);
    table.row(vec![
        "cyclic (alternating)".into(),
        format!("{}", cyclic.0),
        format!("{}", cyclic.1),
    ]);
    opts.emit("Ablation: productivity estimator under drift", &table);
    opts.csv("ablation_estimator.csv", &table)?;
    Ok(EstimatorResult { one_shot, cyclic })
}

/// Outcome of the relocation-scheme ablation.
#[derive(Debug)]
pub struct SchemeResult {
    /// Pair-wise: `(relocations, final max/min load ratio)`.
    pub pairwise: (usize, f64),
    /// Global rebalance: `(relocations, final max/min load ratio)`.
    pub rebalance: (usize, f64),
}

/// Ablation 6: the paper's pair-wise scheme vs planned global
/// rebalancing (§4's "other models could fairly easily be incorporated
/// into our framework") on a heavily skewed four-engine placement.
pub fn run_relocation_schemes(opts: &RunOpts) -> Result<SchemeResult> {
    let duration = scale::default_duration(opts.fast);
    let engine = scale::engine_with_threshold(u64::MAX / 4);
    let run_with = |strategy: StrategyConfig| -> Result<(usize, f64)> {
        let cfg = SimConfig::new(4, engine.clone(), scale::paper_workload(), strategy)
            .with_placement(PlacementSpec::Fractions(vec![0.55, 0.25, 0.15, 0.05]))
            .with_stats_interval(VirtualDuration::from_secs(30));
        let mut driver = SimDriver::new(cfg)?;
        driver.run_until(duration)?;
        let relocations = driver.relocations().len();
        let mems: Vec<u64> = driver.engines().iter().map(|e| e.memory_used()).collect();
        let max = *mems.iter().max().unwrap() as f64;
        let min = *mems.iter().min().unwrap() as f64;
        let balance = if max > 0.0 { min / max } else { 1.0 };
        let _ = driver.finish()?;
        Ok((relocations, balance))
    };
    let pairwise = run_with(StrategyConfig::LazyDisk {
        theta_r: 0.8,
        tau_m: VirtualDuration::from_secs(45),
    })?;
    let rebalance = run_with(StrategyConfig::LazyDiskRebalance {
        theta_r: 0.8,
        tau_m: VirtualDuration::from_secs(45),
    })?;
    let mut table = Table::new(&["scheme", "relocations", "final min/max load"]);
    table.row(vec![
        "pair-wise (paper)".into(),
        format!("{}", pairwise.0),
        format!("{:.2}", pairwise.1),
    ]);
    table.row(vec![
        "global rebalance".into(),
        format!("{}", rebalance.0),
        format!("{:.2}", rebalance.1),
    ]);
    opts.emit("Ablation: relocation schemes on 4 engines", &table);
    opts.csv("ablation_schemes.csv", &table)?;
    Ok(SchemeResult {
        pairwise,
        rebalance,
    })
}

/// Outcome of the window-size ablation.
#[derive(Debug)]
pub struct WindowResult {
    /// `(window label, peak state bytes, runtime output)`; last row is
    /// the unbounded (no-window) run.
    pub rows: Vec<(String, u64, u64)>,
}

/// Ablation 7: sliding-window sizes vs steady-state memory — the
/// intro's infinite-stream regime ("as long as operators have finite
/// window sizes"). State must plateau for any finite window and grow
/// monotonically without one.
pub fn run_window_sizes(opts: &RunOpts) -> Result<WindowResult> {
    let duration = scale::default_duration(opts.fast);
    let windows: &[(&str, Option<u64>)] = &[
        ("60 s", Some(60)),
        ("300 s", Some(300)),
        ("unbounded", None),
    ];
    let mut rows = Vec::new();
    for (label, secs) in windows {
        let mut engine = scale::engine_with_threshold(u64::MAX / 4);
        if let Some(secs) = secs {
            engine.join = engine.join.with_window(VirtualDuration::from_secs(*secs));
        }
        let cfg = SimConfig::new(
            1,
            engine,
            scale::paper_workload(),
            StrategyConfig::NoAdaptation,
        )
        .with_journal();
        let mut driver = SimDriver::new(cfg)?;
        driver.run_until(duration)?;
        let report = driver.finish()?;
        let curves = engine_curves(&report.journal, duration, report.runtime_output);
        let peak = curves
            .memory
            .first()
            .and_then(TimeSeries::max)
            .unwrap_or(0.0) as u64;
        rows.push((label.to_string(), peak, report.runtime_output));
    }
    let mut table = Table::new(&["window", "peak state (MB)", "runtime output"]);
    for (label, peak, out) in &rows {
        table.row(vec![
            label.clone(),
            format!("{:.1}", *peak as f64 / (1 << 20) as f64),
            format!("{out}"),
        ]);
    }
    opts.emit("Ablation: window sizes vs steady-state memory", &table);
    opts.csv("ablation_windows.csv", &table)?;
    Ok(WindowResult { rows })
}

/// Run all ablations.
pub fn run(opts: &RunOpts) -> Result<()> {
    run_policy_ladder(opts)?;
    run_relocation_amounts(opts)?;
    run_network_sensitivity(opts)?;
    run_spill_granularity(opts)?;
    run_estimator_drift(opts)?;
    run_relocation_schemes(opts)?;
    run_window_sizes(opts)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ladder_orders_paper_policy_first() {
        let opts = RunOpts::fast_quiet();
        let r = run_policy_ladder(&opts).unwrap();
        let get = |name: &str| {
            r.rows
                .iter()
                .find(|(n, _, _)| n.starts_with(name))
                .map(|(_, out, _)| *out)
                .unwrap()
        };
        let least = get("least-productive");
        for (name, out, _) in &r.rows {
            assert!(
                least >= *out,
                "least-productive should be best: {least} vs {name}={out}"
            );
        }
    }

    #[test]
    fn eager_relocation_moves_more_often() {
        let opts = RunOpts::fast_quiet();
        let r = run_relocation_amounts(&opts).unwrap();
        assert!(
            r.eager.0 >= r.halving.0,
            "eager scheme should relocate at least as often: {:?} vs {:?}",
            r.eager,
            r.halving
        );
    }

    #[test]
    fn slow_network_buffers_more() {
        let opts = RunOpts::fast_quiet();
        let r = run_network_sensitivity(&opts).unwrap();
        let gig = r.rows.iter().find(|(l, ..)| *l == "gigabit").unwrap();
        let wan = r.rows.iter().find(|(l, ..)| *l == "slow WAN").unwrap();
        // Longer transfers => more tuples buffered per relocation.
        if gig.1 > 0 && wan.1 > 0 {
            let per_gig = gig.2 as f64 / gig.1 as f64;
            let per_wan = wan.2 as f64 / wan.1 as f64;
            assert!(
                per_wan >= per_gig,
                "slow network should buffer more per relocation: {per_wan} vs {per_gig}"
            );
        }
    }
}

#[cfg(test)]
mod granularity_tests {
    use super::*;

    #[test]
    fn both_granularities_are_exact_and_group_needs_no_stamps() {
        let opts = RunOpts::fast_quiet();
        let r = run_spill_granularity(&opts).unwrap();
        assert_eq!(
            r.group.0 + r.group.1,
            r.reference,
            "partition-group variant lost results"
        );
        assert_eq!(
            r.per_input.0 + r.per_input.1,
            r.reference,
            "per-input variant lost results"
        );
        // The paper's argument, quantified: per-input cleanup pays
        // timestamp bookkeeping the partition-group design never does.
        assert!(
            r.per_input.2 > 0,
            "per-input cleanup must perform stamp comparisons"
        );
    }
}

#[cfg(test)]
mod estimator_tests {
    use super::*;

    #[test]
    fn estimator_tradeoff_matches_drift_regime() {
        let opts = RunOpts::fast_quiet();
        let r = run_estimator_drift(&opts).unwrap();
        assert!(r.one_shot.0 > 0 && r.cyclic.0 > 0);
        // One-shot drift: the decaying estimator adapts; cumulative
        // keeps favouring the stale hot set.
        assert!(
            r.one_shot.1 > r.one_shot.0,
            "one-shot: decaying {} should beat cumulative {}",
            r.one_shot.1,
            r.one_shot.0
        );
        // Cyclic drift: the EWMA lags every flip; cumulative wins.
        assert!(
            r.cyclic.0 >= r.cyclic.1,
            "cyclic: cumulative {} should beat decaying {}",
            r.cyclic.0,
            r.cyclic.1
        );
    }
}

#[cfg(test)]
mod scheme_tests {
    use super::*;

    #[test]
    fn both_schemes_balance_the_skewed_cluster() {
        let opts = RunOpts::fast_quiet();
        let r = run_relocation_schemes(&opts).unwrap();
        assert!(r.pairwise.0 > 0, "pair-wise must relocate");
        assert!(r.rebalance.0 > 0, "rebalance must relocate");
        // Both end reasonably balanced on an all-in-memory workload.
        assert!(r.pairwise.1 > 0.4, "pairwise balance {:?}", r.pairwise);
        assert!(r.rebalance.1 > 0.4, "rebalance balance {:?}", r.rebalance);
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;

    #[test]
    fn finite_windows_bound_state() {
        let opts = RunOpts::fast_quiet();
        let r = run_window_sizes(&opts).unwrap();
        let short = &r.rows[0];
        let long = &r.rows[1];
        let unbounded = &r.rows[2];
        assert!(short.1 < long.1, "shorter window => less state");
        assert!(
            long.1 < unbounded.1,
            "finite window must bound state below the unbounded run"
        );
        // Narrower windows admit fewer results.
        assert!(short.2 <= long.2 && long.2 <= unbounded.2);
    }
}
