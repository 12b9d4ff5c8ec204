//! Cluster-wide view over per-engine statistics reports.
//!
//! The global coordinator's decisions (Algorithms 1–2) are expressed in
//! terms of `max_load` / `min_load` and `max_product` / `min_product`
//! over the latest report from every engine; [`ClusterStats`] provides
//! those reductions. Each is derived from the reports alone, so the
//! `engine_sample` records of a collection rebuild it exactly.

use dcape_common::ids::EngineId;
use dcape_common::time::VirtualTime;
use dcape_metrics::journal::EngineStatsReport;

/// An engine's average productivity rate `R = window_output /
/// num_groups` (§5.3, drives the active-disk strategy).
pub fn productivity(r: &EngineStatsReport) -> f64 {
    r.window_output as f64 / r.num_groups.max(1) as f64
}

/// One report from every engine of a collection, indexed by engine id.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    reports: Vec<EngineStatsReport>,
}

impl ClusterStats {
    /// Build from one report per engine (any order; sorted internally),
    /// all answering the same collection.
    pub fn new(mut reports: Vec<EngineStatsReport>) -> Self {
        reports.sort_by_key(|r| r.engine);
        debug_assert!(reports.windows(2).all(|w| w[0].at == w[1].at));
        ClusterStats { reports }
    }

    /// The collection instant every report echoes — the decision's
    /// clock (`ZERO` when empty).
    pub fn at(&self) -> VirtualTime {
        self.reports.first().map_or(VirtualTime::ZERO, |r| r.at)
    }

    /// All reports, sorted by engine.
    pub fn reports(&self) -> &[EngineStatsReport] {
        &self.reports
    }

    /// Number of engines.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True if there are no reports.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Engine with the maximum memory used (`M_max`, the sender
    /// candidate). Ties break toward the lower engine id.
    pub fn max_load(&self) -> Option<&EngineStatsReport> {
        self.reports.iter().max_by(|a, b| {
            a.memory_used
                .cmp(&b.memory_used)
                .then(b.engine.cmp(&a.engine))
        })
    }

    /// Engine with the minimum memory used (`M_least`, the receiver
    /// candidate).
    pub fn min_load(&self) -> Option<&EngineStatsReport> {
        self.reports.iter().min_by(|a, b| {
            a.memory_used
                .cmp(&b.memory_used)
                .then(a.engine.cmp(&b.engine))
        })
    }

    /// `M_least / M_max`; 1.0 when the cluster is empty or idle.
    pub fn load_ratio(&self) -> f64 {
        match (self.min_load(), self.max_load()) {
            (Some(min), Some(max)) if max.memory_used > 0 => {
                min.memory_used as f64 / max.memory_used as f64
            }
            _ => 1.0,
        }
    }

    /// Engine with the maximum average productivity rate `R`.
    pub fn max_productivity(&self) -> Option<&EngineStatsReport> {
        self.reports.iter().max_by(|a, b| {
            productivity(a)
                .partial_cmp(&productivity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.engine.cmp(&a.engine))
        })
    }

    /// Engine with the minimum average productivity rate `R`.
    pub fn min_productivity(&self) -> Option<&EngineStatsReport> {
        self.reports.iter().min_by(|a, b| {
            productivity(a)
                .partial_cmp(&productivity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.engine.cmp(&b.engine))
        })
    }

    /// `R_max / R_min`; 1.0 when undefined.
    pub fn productivity_ratio(&self) -> f64 {
        match (self.max_productivity(), self.min_productivity()) {
            (Some(max), Some(min)) if productivity(min) > 0.0 => {
                productivity(max) / productivity(min)
            }
            (Some(max), Some(_min)) if productivity(max) > 0.0 => f64::INFINITY,
            _ => 1.0,
        }
    }

    /// Report for a specific engine.
    pub fn engine(&self, id: EngineId) -> Option<&EngineStatsReport> {
        self.reports.iter().find(|r| r.engine == id)
    }

    /// Total memory used across the cluster.
    pub fn total_memory_used(&self) -> u64 {
        self.reports.iter().map(|r| r.memory_used).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A report with the fields the coordinator's decisions read: ten
    /// groups, so `rate` is exact to one decimal.
    pub(crate) fn report(engine: u16, mem: u64, rate: f64) -> EngineStatsReport {
        EngineStatsReport {
            engine: EngineId(engine),
            at: VirtualTime::ZERO,
            memory_used: mem,
            num_groups: 10,
            window_output: (rate * 10.0) as u64,
            total_output: 0,
        }
    }

    #[test]
    fn min_max_load_and_ratio() {
        let s = ClusterStats::new(vec![
            report(0, 800, 2.0),
            report(1, 200, 8.0),
            report(2, 500, 4.0),
        ]);
        assert_eq!(s.max_load().unwrap().engine, EngineId(0));
        assert_eq!(s.min_load().unwrap().engine, EngineId(1));
        assert!((s.load_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(s.total_memory_used(), 1500);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn productivity_extremes() {
        let s = ClusterStats::new(vec![report(0, 100, 2.0), report(1, 100, 8.0)]);
        assert_eq!(s.max_productivity().unwrap().engine, EngineId(1));
        assert_eq!(s.min_productivity().unwrap().engine, EngineId(0));
        assert!((s.productivity_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = ClusterStats::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.load_ratio(), 1.0);
        assert_eq!(empty.productivity_ratio(), 1.0);
        let idle = ClusterStats::new(vec![report(0, 0, 0.0), report(1, 0, 0.0)]);
        assert_eq!(idle.load_ratio(), 1.0);
        assert_eq!(idle.productivity_ratio(), 1.0);
        let one_zero = ClusterStats::new(vec![report(0, 10, 0.0), report(1, 10, 5.0)]);
        assert!(one_zero.productivity_ratio().is_infinite());
    }

    #[test]
    fn productivity_is_window_output_per_group() {
        let mut r = report(0, 0, 0.0);
        r.window_output = 50;
        assert_eq!(productivity(&r), 5.0);
        // Zero groups is guarded: the rate is the window's output.
        r.num_groups = 0;
        r.window_output = 7;
        assert_eq!(productivity(&r), 7.0);
    }

    #[test]
    fn engine_lookup() {
        let s = ClusterStats::new(vec![report(1, 1, 1.0), report(0, 2, 2.0)]);
        assert_eq!(s.engine(EngineId(1)).unwrap().memory_used, 1);
        assert!(s.engine(EngineId(9)).is_none());
        // Sorted by engine id.
        assert_eq!(s.reports()[0].engine, EngineId(0));
    }
}
