//! `repro verify` — the correctness gate, runnable standalone.
//!
//! Runs a mid-size workload under every adaptation strategy on both the
//! simulated and the threaded driver and checks the central invariant:
//! run-time results + cleanup results = the reference join, exactly.
//! Prints one PASS/FAIL row per configuration.

use dcape_cluster::runtime::sim::SimConfig;
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::error::Result;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::Table;
use dcape_streamgen::testing::reference_join;
use dcape_streamgen::StreamSetSpec;

use crate::experiments::run_sim;
use crate::opts::RunOpts;

/// One verification row.
#[derive(Debug)]
pub struct VerifyRow {
    /// Configuration label.
    pub label: String,
    /// Measured total (runtime + cleanup).
    pub total: u64,
    /// Reference join count.
    pub reference: u64,
}

impl VerifyRow {
    /// Did the configuration produce exactly the reference join?
    pub fn pass(&self) -> bool {
        self.total == self.reference
    }
}

/// Run the verification matrix; returns the rows (all must pass).
pub fn run(opts: &RunOpts) -> Result<Vec<VerifyRow>> {
    let deadline = if opts.fast {
        VirtualTime::from_mins(4)
    } else {
        VirtualTime::from_mins(10)
    };
    let spec = StreamSetSpec::uniform(24, 2_400, 1, VirtualDuration::from_millis(30))
        .with_payload_pad(200)
        .with_seed(0xFEED);
    let reference = reference_join(&spec, deadline, None)?.count();
    let engine = EngineConfig::three_way(1 << 22, 600 << 10);

    let strategies: Vec<(&str, StrategyConfig)> = vec![
        ("no-adaptation", StrategyConfig::NoAdaptation),
        ("lazy-disk", StrategyConfig::lazy_default()),
        (
            "lazy-disk+rebalance",
            StrategyConfig::LazyDiskRebalance {
                theta_r: 0.8,
                tau_m: VirtualDuration::from_secs(45),
            },
        ),
        ("active-disk", StrategyConfig::active_default(1 << 20)),
    ];

    let mut rows = Vec::new();
    for (name, strategy) in &strategies {
        let cfg = SimConfig::new(3, engine.clone(), spec.clone(), strategy.clone())
            .with_placement(PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]))
            .with_stats_interval(VirtualDuration::from_secs(30))
            .with_faults(opts.fault_plan());
        rows.push(VerifyRow {
            label: format!("sim / {name}"),
            total: run_sim(cfg.clone(), deadline)?.total_output(),
            reference,
        });
        // Threaded driver.
        let threaded = run_threaded(cfg, deadline)?;
        rows.push(VerifyRow {
            label: format!("threaded / {name}"),
            total: threaded.total_output(),
            reference,
        });
    }

    let mut table = Table::new(&["configuration", "total output", "reference", "verdict"]);
    for r in &rows {
        table.row(vec![
            r.label.clone(),
            format!("{}", r.total),
            format!("{}", r.reference),
            if r.pass() {
                "PASS".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    opts.emit(
        "Verification: exactness across strategies and drivers",
        &table,
    );
    opts.csv("verify.csv", &table)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_matrix_passes() {
        let opts = RunOpts::fast_quiet();
        let rows = run(&opts).unwrap();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.pass(), "{}: {} != {}", r.label, r.total, r.reference);
        }
    }
}
