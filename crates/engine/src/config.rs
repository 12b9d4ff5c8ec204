//! Engine configuration.

use dcape_common::error::{DcapeError, Result};
use dcape_common::time::VirtualDuration;
use dcape_storage::SegmentCodec;

use crate::spill::policy::VictimPolicy;
use crate::state::productivity::ProductivityEstimator;

/// Configuration of one symmetric m-way hash join operator instance.
#[derive(Debug, Clone)]
pub struct MJoinConfig {
    /// Number of input streams (≥ 2). Three in all paper experiments.
    pub num_streams: usize,
    /// Join-column index per stream (the paper assumes all join
    /// predicates range over one shared domain per input — §2 fn. 2).
    pub join_columns: Vec<usize>,
    /// Optional sliding window: a pair of tuples joins only if their
    /// timestamps are within this span, and tuples older than the
    /// window are purged from state. `None` = the paper's long-running
    /// finite-query model (state grows monotonically); `Some` = the
    /// intro's infinite-stream regime ("as long as operators have
    /// finite window sizes").
    pub window: Option<dcape_common::time::VirtualDuration>,
}

impl MJoinConfig {
    /// All streams join on the same column index.
    pub fn same_column(num_streams: usize, column: usize) -> Self {
        MJoinConfig {
            num_streams,
            join_columns: vec![column; num_streams],
            window: None,
        }
    }

    /// Builder-style: set a sliding window.
    pub fn with_window(mut self, window: dcape_common::time::VirtualDuration) -> Self {
        self.window = Some(window);
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.num_streams < 2 {
            return Err(DcapeError::config("m-way join needs >= 2 streams"));
        }
        if self.join_columns.len() != self.num_streams {
            return Err(DcapeError::config(
                "join_columns length must equal num_streams",
            ));
        }
        Ok(())
    }
}

/// Full configuration of one query engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The join instance this engine runs.
    pub join: MJoinConfig,
    /// Memory budget in accounted bytes (the paper's per-machine RAM).
    /// No trigger reads it: it only bounds `spill_threshold` in
    /// [`validate`](Self::validate).
    pub memory_budget: u64,
    /// Spill trigger threshold in accounted bytes (200 MB / 60 MB in the
    /// paper's runs, scaled here).
    pub spill_threshold: u64,
    /// Fraction of used memory pushed per spill (`k%` of Figures 5/6);
    /// the paper settles on 0.3 as the default.
    pub spill_fraction: f64,
    /// Victim selection policy (the paper's choice: least productive).
    pub victim_policy: VictimPolicy,
    /// How often the local controller checks memory (`ss_timer`).
    pub ss_timer: VirtualDuration,
    /// How partition-group productivity is estimated for ranking.
    pub estimator: ProductivityEstimator,
    /// Optional reactivation watermark: when set, and memory usage
    /// falls below `watermark × spill_threshold`, the engine merges
    /// spilled partitions back into memory during the run (§3: the
    /// cleanup "can be performed at any time when memory becomes
    /// available"). `None` defers all cleanup to the post-run phase, as
    /// in the paper's monotonically-growing experiments.
    pub reactivate_watermark: Option<f64>,
    /// Segment format for spill writes. It has one value, the column
    /// blocks of segment version 2.
    pub spill_codec: SegmentCodec,
}

impl EngineConfig {
    /// A three-way-join engine with the given memory numbers and
    /// paper-default knobs.
    pub fn three_way(memory_budget: u64, spill_threshold: u64) -> Self {
        EngineConfig {
            join: MJoinConfig::same_column(3, 0),
            memory_budget,
            spill_threshold,
            spill_fraction: 0.3,
            victim_policy: VictimPolicy::LeastProductive,
            ss_timer: VirtualDuration::from_secs(5),
            estimator: ProductivityEstimator::Cumulative,
            reactivate_watermark: None,
            spill_codec: SegmentCodec::default(),
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        self.join.validate()?;
        if !(0.0..=1.0).contains(&self.spill_fraction) || self.spill_fraction == 0.0 {
            return Err(DcapeError::config("spill_fraction must be in (0, 1]"));
        }
        if self.spill_threshold > self.memory_budget {
            return Err(DcapeError::config(
                "spill_threshold must not exceed memory_budget",
            ));
        }
        if let Some(w) = self.reactivate_watermark {
            if !(0.0..1.0).contains(&w) {
                return Err(DcapeError::config("reactivate_watermark must be in [0, 1)"));
            }
        }
        Ok(())
    }

    /// Builder-style: set the victim policy.
    pub fn with_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// Builder-style: set the spill fraction (`k%`).
    pub fn with_spill_fraction(mut self, f: f64) -> Self {
        self.spill_fraction = f;
        self
    }

    /// Builder-style: set the productivity estimator.
    pub fn with_estimator(mut self, estimator: ProductivityEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Builder-style: enable run-time reactivation below the given
    /// fraction of the spill threshold.
    pub fn with_reactivation(mut self, watermark: f64) -> Self {
        self.reactivate_watermark = Some(watermark);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_column_builds_consistent_config() {
        let c = MJoinConfig::same_column(3, 0);
        assert!(c.validate().is_ok());
        assert_eq!(c.join_columns, vec![0, 0, 0]);
    }

    #[test]
    fn invalid_join_configs_rejected() {
        assert!(MJoinConfig::same_column(1, 0).validate().is_err());
        let c = MJoinConfig {
            num_streams: 3,
            join_columns: vec![0, 0],
            window: None,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn engine_config_defaults_validate() {
        let c = EngineConfig::three_way(1 << 20, 1 << 19);
        assert!(c.validate().is_ok());
        assert_eq!(c.spill_fraction, 0.3);
    }

    #[test]
    fn engine_config_rejects_bad_numbers() {
        let mut c = EngineConfig::three_way(100, 50);
        c.spill_fraction = 0.0;
        assert!(c.validate().is_err());
        let mut c = EngineConfig::three_way(100, 50);
        c.spill_fraction = 1.5;
        assert!(c.validate().is_err());
        let c = EngineConfig::three_way(100, 200);
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_apply() {
        let c = EngineConfig::three_way(100, 50)
            .with_spill_fraction(0.5)
            .with_policy(VictimPolicy::LargestFirst);
        assert_eq!(c.spill_fraction, 0.5);
        assert_eq!(c.victim_policy, VictimPolicy::LargestFirst);
    }
}
