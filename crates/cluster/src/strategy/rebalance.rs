//! Elastic rebalancing planner: moves state toward freshly-joined
//! engines via ordinary relocation rounds.
//!
//! A joining engine arrives with zero state; the regular strategies
//! (lazy/active-disk) would eventually even it out, but only when the
//! cluster-wide `M_least/M_max` ratio crosses θ_r. The planner instead
//! drains load toward the joiner proactively, weighing move **cost**
//! (state bytes shipped — the same bytes `transfer_bytes` accounts)
//! against **benefit** (the sender's `P_output/P_size` productivity:
//! shedding from a productive overloaded engine frees memory that keeps
//! producing on the joiner). A hysteresis band around the mean load plus
//! a cooldown between moves guarantee the planner never thrashes: a move
//! is only proposed while the receiver sits *below* the band and the
//! sender *above* it, and each move strictly narrows that gap.

use dcape_common::ids::EngineId;
use dcape_common::time::{VirtualDuration, VirtualTime};

use crate::stats::ClusterStats;

/// One planned elastic move, executed as a normal 8-step relocation
/// round whose completion counts as a rebalance move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceMove {
    /// Overloaded engine shedding state.
    pub sender: EngineId,
    /// The under-loaded joiner receiving it.
    pub receiver: EngineId,
    /// Bytes to move (`(M_sender − M_receiver) / 2`).
    pub amount: u64,
}

/// Hysteresis-banded planner for join-time rebalancing.
#[derive(Debug)]
pub struct RebalancePlanner {
    /// Half-width of the no-move band around the mean load, as a
    /// fraction (0.15 ⇒ receivers below 85 % of mean, senders above
    /// 115 %).
    hysteresis: f64,
    /// Moves smaller than this are not worth a relocation round's
    /// pause/replay cost.
    min_move_bytes: u64,
    /// Minimum spacing between planned moves (the elastic τ_m).
    cooldown: VirtualDuration,
    last_move: Option<VirtualTime>,
    moves_planned: u64,
}

impl RebalancePlanner {
    /// Planner with explicit tuning.
    pub fn new(hysteresis: f64, min_move_bytes: u64, cooldown: VirtualDuration) -> Self {
        RebalancePlanner {
            hysteresis,
            min_move_bytes,
            cooldown,
            last_move: None,
            moves_planned: 0,
        }
    }

    /// Moves proposed so far.
    pub fn moves_planned(&self) -> u64 {
        self.moves_planned
    }

    /// Propose at most one move toward a joiner.
    ///
    /// `stats` covers every participating engine's latest report;
    /// `receivers` lists the admitted-and-ready joiners still eligible
    /// as targets (the coordinator excludes fenced engines and joiners
    /// whose `JoinReady` has not arrived). Returns `None` while the
    /// cluster is inside the hysteresis band, during the cooldown, or
    /// when the best move is below `min_move_bytes`.
    pub fn plan(
        &mut self,
        stats: &ClusterStats,
        receivers: &[EngineId],
        now: VirtualTime,
    ) -> Option<RebalanceMove> {
        if receivers.is_empty() || stats.len() < 2 {
            return None;
        }
        if let Some(last) = self.last_move {
            if now < last + self.cooldown {
                return None;
            }
        }
        let mean = stats.total_memory_used() as f64 / stats.len() as f64;
        let low = mean * (1.0 - self.hysteresis);
        let high = mean * (1.0 + self.hysteresis);

        // Receiver: the emptiest eligible joiner, and only while it is
        // genuinely below the band (ties break to the lowest id).
        let receiver = receivers
            .iter()
            .filter_map(|e| stats.engine(*e))
            .filter(|r| (r.memory_used as f64) < low)
            .min_by(|a, b| {
                a.memory_used
                    .cmp(&b.memory_used)
                    .then(a.engine.cmp(&b.engine))
            })?;

        // Sender: above the band, preferring the most *productive*
        // overloaded engine — its groups keep producing once resident
        // on the joiner, so the shipped bytes buy the most output
        // (cost = bytes, benefit = P_output/P_size). Ties break to the
        // larger memory, then the lower id.
        let sender = stats
            .reports()
            .iter()
            .filter(|r| r.engine != receiver.engine)
            .filter(|r| (r.memory_used as f64) > high)
            .max_by(|a, b| {
                a.avg_productivity_rate
                    .partial_cmp(&b.avg_productivity_rate)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.memory_used.cmp(&b.memory_used))
                    .then(b.engine.cmp(&a.engine))
            })?;

        let amount = (sender.memory_used - receiver.memory_used) / 2;
        if amount < self.min_move_bytes {
            return None;
        }
        self.last_move = Some(now);
        self.moves_planned += 1;
        Some(RebalanceMove {
            sender: sender.engine,
            receiver: receiver.engine,
            amount,
        })
    }
}

impl Default for RebalancePlanner {
    /// 15 % band, 4 KiB minimum move, 5 s cooldown.
    fn default() -> Self {
        RebalancePlanner::new(0.15, 4096, VirtualDuration::from_secs(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::report;

    fn secs(s: u64) -> VirtualTime {
        VirtualTime::from_millis(s * 1000)
    }

    #[test]
    fn moves_toward_empty_joiner() {
        let mut p = RebalancePlanner::new(0.15, 100, VirtualDuration::from_secs(5));
        let stats = ClusterStats::new(vec![
            report(0, 8000, 2.0),
            report(1, 6000, 9.0),
            report(2, 0, 0.0),
        ]);
        let m = p.plan(&stats, &[EngineId(2)], secs(1)).unwrap();
        // Engine 1 is above the band and the most productive sender.
        assert_eq!(m.sender, EngineId(1));
        assert_eq!(m.receiver, EngineId(2));
        assert_eq!(m.amount, 3000);
        assert_eq!(p.moves_planned(), 1);
    }

    #[test]
    fn balanced_cluster_is_left_alone() {
        let mut p = RebalancePlanner::default();
        let stats = ClusterStats::new(vec![
            report(0, 5000, 1.0),
            report(1, 5100, 1.0),
            report(2, 4900, 1.0),
        ]);
        assert!(p.plan(&stats, &[EngineId(2)], secs(1)).is_none());
    }

    #[test]
    fn cooldown_spaces_moves() {
        let mut p = RebalancePlanner::new(0.15, 100, VirtualDuration::from_secs(5));
        let stats = ClusterStats::new(vec![report(0, 9000, 2.0), report(1, 0, 0.0)]);
        assert!(p.plan(&stats, &[EngineId(1)], secs(1)).is_some());
        assert!(p.plan(&stats, &[EngineId(1)], secs(3)).is_none());
        assert!(p.plan(&stats, &[EngineId(1)], secs(7)).is_some());
    }

    #[test]
    fn tiny_moves_are_skipped() {
        let mut p = RebalancePlanner::new(0.15, 10_000, VirtualDuration::from_secs(5));
        let stats = ClusterStats::new(vec![report(0, 9000, 2.0), report(1, 0, 0.0)]);
        assert!(p.plan(&stats, &[EngineId(1)], secs(1)).is_none());
    }

    #[test]
    fn no_receivers_no_move() {
        let mut p = RebalancePlanner::default();
        let stats = ClusterStats::new(vec![report(0, 9000, 2.0), report(1, 0, 0.0)]);
        assert!(p.plan(&stats, &[], secs(1)).is_none());
    }

    #[test]
    fn receiver_inside_band_stops_the_flow() {
        // After enough moves the joiner sits inside the band — the
        // planner goes quiet instead of thrashing state back and forth.
        let mut p = RebalancePlanner::new(0.15, 100, VirtualDuration::from_secs(0));
        let stats = ClusterStats::new(vec![report(0, 5500, 2.0), report(1, 4500, 1.0)]);
        assert!(p.plan(&stats, &[EngineId(1)], secs(1)).is_none());
    }
}
