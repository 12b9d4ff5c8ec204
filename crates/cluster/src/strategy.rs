//! The adaptation decision (§5 of the paper, Algorithms 1–2).
//!
//! The *global* half of adaptation: from the latest cluster statistics,
//! decide whether to relocate state (and between whom), force a spill,
//! or do nothing. The *local* halves — picking concrete partition
//! groups, executing the spill — live in `dcape-engine`. One
//! `Strategy`, built from a [`StrategyConfig`] and owned by the
//! coordinator, makes every such decision:
//!
//! * **no adaptation** — the "no-relocation" baseline: engines still
//!   spill locally when their own memory overflows, but the coordinator
//!   never intervenes;
//! * **lazy-disk** (Algorithm 1) — relocate whenever
//!   `M_least/M_max < θ_r`, triggers at least τ_m apart; spill remains
//!   a purely local decision. The paper moves `(M_max − M_least)/2`
//!   bytes from the most- to the least-loaded engine per trigger; the
//!   *global rebalance* scheme (§4: "other models could fairly easily be
//!   incorporated") plans a whole set of moves toward the mean load per
//!   trigger and executes them as consecutive rounds;
//! * **active-disk** (Algorithm 2) — as lazy-disk, but when loads are
//!   balanced and the productivity gap `R_max/R_min` exceeds λ, force
//!   the least productive engine to spill, bounded by a cumulative cap
//!   (the paper's `M_query − M_cluster` estimate, 100 MB in their runs).
//!
//! Under every configuration a freshly joined engine is filled first:
//! a *join-rebalance* move drains load toward it, weighing move cost
//! (bytes shipped) against benefit (the sender's productivity), inside a
//! hysteresis band around the mean load and a cooldown between moves,
//! so it never fights the relocation trigger.

use dcape_common::ids::EngineId;
use dcape_common::time::{VirtualDuration, VirtualTime};

use crate::stats::{productivity, ClusterStats};

/// Half-width of the join-rebalance no-move band around the mean load
/// (receivers below 85 % of the mean, senders above 115 %).
const JOIN_BAND: f64 = 0.15;

/// Join-rebalance moves smaller than this are not worth a relocation
/// round's pause/replay cost.
const JOIN_MIN_MOVE_BYTES: u64 = 4096;

/// Minimum spacing between join-rebalance moves (the elastic τ_m).
const JOIN_COOLDOWN: VirtualDuration = VirtualDuration::from_secs(5);

/// Declarative strategy configuration (what experiments specify).
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyConfig {
    /// No global adaptation.
    NoAdaptation,
    /// Lazy-disk (Algorithm 1).
    LazyDisk {
        /// Relocation trigger threshold θ_r.
        theta_r: f64,
        /// Minimum spacing between relocations τ_m.
        tau_m: VirtualDuration,
    },
    /// Lazy-disk with the global-rebalance relocation scheme (multiple
    /// planned pair moves per trigger — §4's "other models").
    LazyDiskRebalance {
        /// Relocation trigger threshold θ_r.
        theta_r: f64,
        /// Minimum spacing between plan triggers τ_m.
        tau_m: VirtualDuration,
    },
    /// Active-disk (Algorithm 2).
    ActiveDisk {
        /// Relocation trigger threshold θ_r.
        theta_r: f64,
        /// Minimum spacing between relocations τ_m.
        tau_m: VirtualDuration,
        /// Productivity-gap trigger λ.
        lambda: f64,
        /// Fraction of the target engine's memory to force-spill per
        /// adaptation (`computeAmountToSpill`).
        spill_fraction: f64,
        /// Cap on cumulative forced-spill bytes (the paper's
        /// `M_query − M_cluster` bound; 100 MB in their experiments).
        force_spill_cap: u64,
    },
}

impl StrategyConfig {
    /// Paper-default lazy-disk: θ_r = 0.8, τ_m = 45 s.
    pub fn lazy_default() -> Self {
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        }
    }

    /// Paper-default active-disk: θ_r = 0.8, τ_m = 45 s, λ = 2.
    pub fn active_default(force_spill_cap: u64) -> Self {
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 2.0,
            spill_fraction: 0.3,
            force_spill_cap,
        }
    }
}

/// A global adaptation decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Move `amount` bytes from `sender` to `receiver` to balance load
    /// (the relocation trigger).
    Relocate {
        sender: EngineId,
        receiver: EngineId,
        amount: u64,
    },
    /// Move `amount` bytes from `sender` toward the joiner `receiver`.
    JoinRebalance {
        sender: EngineId,
        receiver: EngineId,
        amount: u64,
    },
    /// Force `engine` to spill `amount` bytes (active-disk).
    ForceSpill { engine: EngineId, amount: u64 },
}

/// The coordinator's adaptation strategy: the configuration plus what
/// its decisions remember — the last trigger, a global plan's remaining
/// moves, the forced bytes so far, the last join move. Those are all it
/// remembers: fed the same collections and joiners, a fresh `Strategy`
/// makes the same decisions, so a run's journal replays them.
#[derive(Debug)]
pub(crate) struct Strategy {
    config: StrategyConfig,
    last_trigger: Option<VirtualTime>,
    /// A global plan's moves still to execute, last first.
    queue: Vec<Decision>,
    forced_bytes: u64,
    last_join_move: Option<VirtualTime>,
}

impl Strategy {
    /// Build `config`'s strategy. Panics on an out-of-range θ_r, λ or
    /// spill fraction, before any run starts.
    pub(crate) fn new(config: &StrategyConfig) -> Self {
        match *config {
            StrategyConfig::NoAdaptation => {}
            StrategyConfig::LazyDisk { theta_r, .. }
            | StrategyConfig::LazyDiskRebalance { theta_r, .. } => check_theta(theta_r),
            StrategyConfig::ActiveDisk {
                theta_r,
                lambda,
                spill_fraction,
                ..
            } => {
                check_theta(theta_r);
                assert!(lambda >= 1.0, "lambda must be >= 1");
                assert!(
                    spill_fraction > 0.0 && spill_fraction <= 1.0,
                    "spill_fraction must be in (0, 1]"
                );
            }
        }
        Strategy {
            config: config.clone(),
            last_trigger: None,
            queue: Vec::new(),
            forced_bytes: 0,
            last_join_move: None,
        }
    }

    /// Decide on a complete collection (the `sr_timer`/`lb_timer`
    /// expiry), with no round open, on the collection's clock: a move
    /// toward one of the ready `joiners` comes first; then lazy- and
    /// active-disk relocate, or (active-disk) force a spill once
    /// relocation declines.
    pub(crate) fn decide(
        &mut self,
        stats: &ClusterStats,
        joiners: &[EngineId],
    ) -> Option<Decision> {
        let now = stats.at();
        if let Some(mv) = self.join_move(stats, joiners, now) {
            return Some(mv);
        }
        let (theta_r, tau_m) = match self.config {
            StrategyConfig::NoAdaptation => return None,
            StrategyConfig::LazyDisk { theta_r, tau_m }
            | StrategyConfig::LazyDiskRebalance { theta_r, tau_m }
            | StrategyConfig::ActiveDisk { theta_r, tau_m, .. } => (theta_r, tau_m),
        };
        // Lines 5–11 of both algorithms: relocation has priority.
        if let Some(relocate) = self.relocation(stats, theta_r, tau_m, now) {
            return Some(relocate);
        }
        match self.config {
            StrategyConfig::ActiveDisk {
                lambda,
                spill_fraction,
                force_spill_cap,
                ..
            } => self.force_spill(stats, lambda, spill_fraction, force_spill_cap),
            _ => None,
        }
    }

    /// The next relocation: a queued move of the last global plan, else
    /// a fresh trigger once τ_m has passed and `M_least/M_max < θ_r`.
    fn relocation(
        &mut self,
        stats: &ClusterStats,
        theta_r: f64,
        tau_m: VirtualDuration,
        now: VirtualTime,
    ) -> Option<Decision> {
        // These moves were already decided.
        if let Some(queued) = self.queue.pop() {
            return Some(queued);
        }
        if stats.len() < 2 {
            return None;
        }
        if self
            .last_trigger
            .is_some_and(|last| now.since(last) < tau_m)
        {
            return None;
        }
        if stats.load_ratio() >= theta_r {
            return None;
        }
        let first = if matches!(self.config, StrategyConfig::LazyDiskRebalance { .. }) {
            let mut plan = plan_rebalance(stats);
            let first = plan.pop()?;
            // The rest execute on the next evaluations.
            self.queue = plan;
            first
        } else {
            // The paper's pair-wise halving.
            let max = stats.max_load()?;
            let min = stats.min_load()?;
            let amount = (max.memory_used - min.memory_used) / 2;
            if amount == 0 || max.engine == min.engine {
                return None;
            }
            Decision::Relocate {
                sender: max.engine,
                receiver: min.engine,
                amount,
            }
        };
        self.last_trigger = Some(now);
        Some(first)
    }

    /// Lines 12–18 of Algorithm 2: loads are balanced, so compare
    /// productivity and push `spill_fraction` of the least productive
    /// engine's memory to disk, bounded by what is left of the cap.
    fn force_spill(
        &mut self,
        stats: &ClusterStats,
        lambda: f64,
        spill_fraction: f64,
        cap: u64,
    ) -> Option<Decision> {
        if stats.len() < 2 {
            return None;
        }
        // NaN-safe: only proceed when the gap strictly exceeds lambda.
        if stats.productivity_ratio().partial_cmp(&lambda) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let min_prod = stats.min_productivity()?;
        let want = ((min_prod.memory_used as f64) * spill_fraction) as u64;
        let amount = want.min(cap.saturating_sub(self.forced_bytes));
        if amount == 0 {
            return None;
        }
        self.forced_bytes += amount;
        Some(Decision::ForceSpill {
            engine: min_prod.engine,
            amount,
        })
    }

    /// At most one move toward a ready joiner: only while the emptiest
    /// joiner sits below the band and some engine above it, the cooldown
    /// has passed, and the move is worth a round. Each move narrows the
    /// gap, so the flow stops instead of thrashing.
    fn join_move(
        &mut self,
        stats: &ClusterStats,
        joiners: &[EngineId],
        now: VirtualTime,
    ) -> Option<Decision> {
        if joiners.is_empty() || stats.len() < 2 {
            return None;
        }
        if self
            .last_join_move
            .is_some_and(|last| now < last + JOIN_COOLDOWN)
        {
            return None;
        }
        let mean = stats.total_memory_used() as f64 / stats.len() as f64;
        let low = mean * (1.0 - JOIN_BAND);
        let high = mean * (1.0 + JOIN_BAND);
        // Receiver: the emptiest joiner below the band (ties break to
        // the lowest id).
        let receiver = joiners
            .iter()
            .filter_map(|e| stats.engine(*e))
            .filter(|r| (r.memory_used as f64) < low)
            .min_by(|a, b| {
                a.memory_used
                    .cmp(&b.memory_used)
                    .then(a.engine.cmp(&b.engine))
            })?;
        // Sender: above the band, preferring the most *productive*
        // engine — its groups keep producing once resident on the
        // joiner, so the shipped bytes buy the most output (cost =
        // bytes, benefit = P_output/P_size). Ties break to the larger
        // memory, then the lower id.
        let sender = stats
            .reports()
            .iter()
            .filter(|r| r.engine != receiver.engine)
            .filter(|r| (r.memory_used as f64) > high)
            .max_by(|a, b| {
                productivity(a)
                    .partial_cmp(&productivity(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.memory_used.cmp(&b.memory_used))
                    .then(b.engine.cmp(&a.engine))
            })?;
        let amount = (sender.memory_used - receiver.memory_used) / 2;
        if amount < JOIN_MIN_MOVE_BYTES {
            return None;
        }
        self.last_join_move = Some(now);
        Some(Decision::JoinRebalance {
            sender: sender.engine,
            receiver: receiver.engine,
            amount,
        })
    }
}

fn check_theta(theta_r: f64) {
    assert!((0.0..=1.0).contains(&theta_r), "theta_r must be in [0, 1]");
}

/// A greedy mean-rebalancing move set: surpluses (load above the mean)
/// matched against deficits, largest first. In reverse execution order
/// (callers `pop()`).
fn plan_rebalance(stats: &ClusterStats) -> Vec<Decision> {
    let mean = stats.total_memory_used() / stats.len() as u64;
    let mut surpluses: Vec<(EngineId, u64)> = Vec::new();
    let mut deficits: Vec<(EngineId, u64)> = Vec::new();
    for r in stats.reports() {
        if r.memory_used > mean {
            surpluses.push((r.engine, r.memory_used - mean));
        } else if r.memory_used < mean {
            deficits.push((r.engine, mean - r.memory_used));
        }
    }
    surpluses.sort_by_key(|&(e, s)| (std::cmp::Reverse(s), e));
    deficits.sort_by_key(|&(e, d)| (std::cmp::Reverse(d), e));
    let mut moves = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < surpluses.len() && j < deficits.len() {
        let take = surpluses[i].1.min(deficits[j].1);
        if take > 0 {
            moves.push(Decision::Relocate {
                sender: surpluses[i].0,
                receiver: deficits[j].0,
                amount: take,
            });
        }
        surpluses[i].1 -= take;
        deficits[j].1 -= take;
        if surpluses[i].1 == 0 {
            i += 1;
        }
        if deficits[j].1 == 0 {
            j += 1;
        }
    }
    moves.reverse();
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::sim::SimDriver;
    use crate::stats::tests::report;
    use crate::testing::{pinned_runs, PINNED_RUN_END};
    use dcape_metrics::journal::{AdaptEvent, EngineStatsReport, JournalEntry, SpillTrigger};

    const E0: EngineId = EngineId(0);
    const E1: EngineId = EngineId(1);
    const E2: EngineId = EngineId(2);
    const E3: EngineId = EngineId(3);

    /// One engine per `(memory, productivity)`, ids from 0.
    fn stats(engines: &[(u64, f64)]) -> ClusterStats {
        let reports = engines.iter().enumerate();
        ClusterStats::new(
            reports
                .map(|(i, &(mem, rate))| report(i as u16, mem, rate))
                .collect(),
        )
    }

    fn lazy(tau_m: u64) -> Strategy {
        let config = StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(tau_m),
        };
        Strategy::new(&config)
    }

    fn global(tau_m: u64) -> Strategy {
        let config = StrategyConfig::LazyDiskRebalance {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(tau_m),
        };
        Strategy::new(&config)
    }

    fn active(tau_m: u64, spill_fraction: f64, force_spill_cap: u64) -> Strategy {
        let config = StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(tau_m),
            lambda: 2.0,
            spill_fraction,
            force_spill_cap,
        };
        Strategy::new(&config)
    }

    fn none() -> Strategy {
        Strategy::new(&StrategyConfig::NoAdaptation)
    }

    /// `stats` as collected at `secs`.
    fn at(stats: &ClusterStats, secs: u64) -> ClusterStats {
        let at = VirtualTime::from_secs(secs);
        ClusterStats::new(
            stats
                .reports()
                .iter()
                .map(|r| EngineStatsReport { at, ..*r })
                .collect(),
        )
    }

    /// A decision with no joiners.
    fn decide(s: &mut Strategy, stats: &ClusterStats, secs: u64) -> Option<Decision> {
        s.decide(&at(stats, secs), &[])
    }

    fn relocate(sender: EngineId, receiver: EngineId, amount: u64) -> Option<Decision> {
        Some(Decision::Relocate {
            sender,
            receiver,
            amount,
        })
    }

    #[test]
    fn pair_wise_moves_half_the_gap_from_the_fullest_to_the_emptiest() {
        let mut s = lazy(0);
        let d = decide(&mut s, &stats(&[(1000, 1.0), (200, 1.0)]), 1);
        assert_eq!(d, relocate(E0, E1, 400));
        let d = decide(&mut s, &stats(&[(100, 1.0), (1000, 1.0), (300, 1.0)]), 2);
        assert_eq!(d, relocate(E1, E0, 450));
    }

    #[test]
    fn quiet_when_balanced_or_alone() {
        let mut s = lazy(0);
        assert_eq!(decide(&mut s, &stats(&[(100, 1.0), (95, 1.0)]), 1), None);
        assert_eq!(decide(&mut s, &stats(&[(100, 1.0)]), 1), None);
        let mut g = global(0);
        assert_eq!(decide(&mut g, &stats(&[(50, 1.0), (50, 1.0)]), 1), None);
        assert_eq!(decide(&mut g, &stats(&[(100, 1.0)]), 1), None);
    }

    #[test]
    fn fresh_triggers_are_tau_m_apart() {
        let mut s = lazy(45);
        let imbalanced = stats(&[(1000, 1.0), (100, 1.0)]);
        assert!(decide(&mut s, &imbalanced, 1).is_some());
        assert_eq!(decide(&mut s, &imbalanced, 30), None);
        assert!(decide(&mut s, &imbalanced, 46).is_some());
    }

    /// Mean 50: surpluses QE0 +50 and QE1 +30 meet deficits QE3 50 and
    /// QE2 30, largest first. The second move executes at the next
    /// evaluation regardless of τ_m (it belongs to the same plan); the
    /// next trigger waits for τ_m again.
    #[test]
    fn a_global_plan_is_drained_across_evaluations() {
        let mut s = global(45);
        let loads = stats(&[(100, 1.0), (80, 1.0), (20, 1.0), (0, 1.0)]);
        assert_eq!(decide(&mut s, &loads, 1), relocate(E0, E3, 50));
        assert_eq!(decide(&mut s, &loads, 2), relocate(E1, E2, 30));
        assert_eq!(decide(&mut s, &loads, 3), None);
        assert_eq!(decide(&mut s, &loads, 50), relocate(E0, E3, 50));
    }

    /// Mean 50: QE0's surplus of 40 is split over the two deficits.
    #[test]
    fn a_global_plan_splits_one_surplus_across_deficits() {
        let mut s = global(45);
        let loads = stats(&[(90, 1.0), (30, 1.0), (30, 1.0)]);
        assert_eq!(decide(&mut s, &loads, 1), relocate(E0, E1, 20));
        assert_eq!(decide(&mut s, &loads, 2), relocate(E0, E2, 20));
        assert_eq!(decide(&mut s, &loads, 3), None);
    }

    #[test]
    fn lazy_disk_never_force_spills() {
        let mut s = lazy(0);
        let gap = stats(&[(1000, 100.0), (950, 1.0)]);
        assert_eq!(decide(&mut s, &gap, 1), None);
    }

    #[test]
    fn active_disk_relocates_before_it_force_spills() {
        let mut s = active(45, 0.5, 10_000);
        // Imbalanced load and a productivity gap: relocate, not spill.
        let both = stats(&[(1000, 10.0), (100, 1.0)]);
        assert_eq!(decide(&mut s, &both, 50), relocate(E0, E1, 450));
        // Balanced: the least productive engine spills half its memory.
        let gap = stats(&[(1000, 10.0), (900, 1.0)]);
        assert_eq!(
            decide(&mut s, &gap, 60),
            Some(Decision::ForceSpill {
                engine: E1,
                amount: 450,
            })
        );
    }

    #[test]
    fn active_disk_force_spills_only_past_lambda_and_up_to_its_cap() {
        let mut s = active(0, 1.0, 1000);
        let below = stats(&[(1000, 1.9), (900, 1.0)]);
        assert_eq!(decide(&mut s, &below, 1), None);
        let gap = stats(&[(1000, 10.0), (900, 1.0)]);
        let spill = |amount| Some(Decision::ForceSpill { engine: E1, amount });
        assert_eq!(decide(&mut s, &gap, 2), spill(900));
        assert_eq!(decide(&mut s, &gap, 3), spill(100), "the rest of the cap");
        assert_eq!(decide(&mut s, &gap, 4), None, "the cap is spent");
    }

    /// One engine produced nothing in the window while the other
    /// produced plenty: the ratio is infinite, past any λ.
    #[test]
    fn an_infinite_productivity_gap_force_spills() {
        let mut s = active(45, 0.5, 10_000);
        let d = decide(&mut s, &stats(&[(1000, 5.0), (900, 0.0)]), 50);
        assert!(
            matches!(d, Some(Decision::ForceSpill { engine: E1, .. })),
            "{d:?}"
        );
    }

    /// QE1 is above the band and the most productive sender.
    #[test]
    fn a_join_move_fills_the_joiner_from_the_most_productive_engine() {
        let mut s = none();
        let loads = stats(&[(80_000, 2.0), (60_000, 9.0), (0, 0.0)]);
        assert_eq!(
            s.decide(&at(&loads, 1), &[E2]),
            Some(Decision::JoinRebalance {
                sender: E1,
                receiver: E2,
                amount: 30_000,
            })
        );
    }

    /// A join move outranks the relocation trigger.
    #[test]
    fn a_join_move_comes_before_relocation() {
        let mut s = lazy(0);
        let loads = stats(&[(90_000, 1.0), (0, 1.0)]);
        let d = s.decide(&at(&loads, 1), &[E1]);
        assert!(matches!(d, Some(Decision::JoinRebalance { .. })), "{d:?}");
        assert_eq!(s.decide(&at(&loads, 2), &[]), relocate(E0, E1, 45_000));
    }

    /// Inside the band the joiner is left alone — however far the
    /// cluster is from perfectly even — instead of thrashing state back
    /// and forth.
    #[test]
    fn a_joiner_inside_the_band_gets_nothing() {
        let mut s = none();
        let even = stats(&[(50_000, 1.0), (51_000, 1.0), (49_000, 1.0)]);
        assert_eq!(s.decide(&at(&even, 1), &[E2]), None);
        let close = stats(&[(55_000, 2.0), (45_000, 1.0)]);
        assert_eq!(s.decide(&at(&close, 1), &[E1]), None);
    }

    #[test]
    fn join_moves_are_a_cooldown_apart() {
        let mut s = none();
        let loads = stats(&[(9000, 2.0), (0, 0.0)]);
        assert!(s.decide(&at(&loads, 1), &[E1]).is_some());
        assert_eq!(s.decide(&at(&loads, 3), &[E1]), None);
        assert!(s.decide(&at(&loads, 7), &[E1]).is_some());
    }

    #[test]
    fn a_join_move_below_the_minimum_is_skipped() {
        let mut s = none();
        // Half the gap: 4000 bytes, under the 4 KiB minimum.
        assert_eq!(s.decide(&stats(&[(8000, 2.0), (0, 0.0)]), &[E1]), None);
    }

    #[test]
    fn no_joiner_no_join_move() {
        let mut s = none();
        assert_eq!(s.decide(&stats(&[(90_000, 2.0), (0, 0.0)]), &[]), None);
    }

    #[test]
    #[should_panic(expected = "theta_r")]
    fn an_out_of_range_theta_r_is_refused() {
        let config = StrategyConfig::LazyDiskRebalance {
            theta_r: 1.5,
            tau_m: VirtualDuration::ZERO,
        };
        Strategy::new(&config);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn a_lambda_below_one_is_refused() {
        let config = StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::ZERO,
            lambda: 0.5,
            spill_fraction: 0.3,
            force_spill_cap: 100,
        };
        Strategy::new(&config);
    }

    /// What a decision leaves in the journal.
    #[derive(Debug, PartialEq)]
    enum Shown {
        /// Step 1 of the round it opened.
        Opened {
            sender: EngineId,
            receiver: EngineId,
            amount: u64,
        },
        /// A relocation toward a peer declared dead, degraded to a spill
        /// at its sender.
        Degraded { receiver: EngineId, amount: u64 },
        /// A forced spill outside a drain.
        Forced { engine: EngineId },
    }

    /// Decisions, each at its collection instant.
    type Timeline = Vec<(VirtualTime, Shown)>;

    /// The decisions replayed over all pinned runs, by kind.
    #[derive(Debug, Default)]
    struct Tally {
        pair_wise: usize,
        join: usize,
        forced: usize,
        queued: usize,
    }

    /// One run replayed from its journal alone: the decisions a fresh
    /// `Strategy` makes and what the journal shows, each at its
    /// instant, and how many forced spills the replay issued.
    ///
    /// A collection is the consecutive `engine_sample` records of one
    /// instant. The strategy is consulted unless a drain runs
    /// (`drain_started` to `engine_drained`) or a round is open (step 1
    /// to step 6, an empty step 2 or `round_aborted`); the joiners are
    /// the engines of `engine_joined` that have not started draining.
    fn replay(
        config: &StrategyConfig,
        journal: &[JournalEntry],
        tally: &mut Tally,
    ) -> (Timeline, Timeline, u64) {
        let mut strategy = Strategy::new(config);
        let (mut replayed, mut shown, mut forced) = (Vec::new(), Vec::new(), 0);
        let (mut joiners, mut dead) = (Vec::new(), Vec::new());
        let (mut draining, mut round) = (false, None);
        let mut collection = Vec::new();
        for (i, e) in journal.iter().enumerate() {
            match e.event {
                AdaptEvent::EngineSample(r) => {
                    collection.push(r);
                    let next = journal.get(i + 1).map(|n| &n.event);
                    if matches!(next, Some(AdaptEvent::EngineSample(n)) if n.at == r.at) {
                        continue;
                    }
                    let stats = ClusterStats::new(std::mem::take(&mut collection));
                    if draining || round.is_some() {
                        continue;
                    }
                    let queued = strategy.queue.len();
                    let at = stats.at();
                    match strategy.decide(&stats, &joiners) {
                        None => {}
                        Some(Decision::JoinRebalance {
                            sender,
                            receiver,
                            amount,
                        }) => {
                            tally.join += 1;
                            let opened = Shown::Opened {
                                sender,
                                receiver,
                                amount,
                            };
                            replayed.push((at, opened));
                        }
                        Some(Decision::Relocate {
                            sender,
                            receiver,
                            amount,
                        }) => {
                            if strategy.queue.len() < queued {
                                tally.queued += 1;
                            } else if !matches!(config, StrategyConfig::LazyDiskRebalance { .. }) {
                                tally.pair_wise += 1;
                            }
                            if dead.contains(&receiver) {
                                forced += 1;
                                replayed.push((at, Shown::Degraded { receiver, amount }));
                                replayed.push((at, Shown::Forced { engine: sender }));
                            } else {
                                let opened = Shown::Opened {
                                    sender,
                                    receiver,
                                    amount,
                                };
                                replayed.push((at, opened));
                            }
                        }
                        Some(Decision::ForceSpill { engine, .. }) => {
                            tally.forced += 1;
                            forced += 1;
                            replayed.push((at, Shown::Forced { engine }));
                        }
                    }
                }
                AdaptEvent::EngineJoined { engine, .. } => joiners.push(engine),
                AdaptEvent::EngineDrained { .. } => draining = false,
                AdaptEvent::ProtocolWarning {
                    code,
                    engine,
                    round: id,
                    detail,
                } => match code {
                    "drain_started" => {
                        draining = true;
                        joiners.retain(|j| *j != engine);
                    }
                    "peer_declared_dead" => dead.push(engine),
                    "relocation_degraded_to_spill" => {
                        let degraded = Shown::Degraded {
                            receiver: engine,
                            amount: detail,
                        };
                        shown.push((e.at, degraded));
                    }
                    "round_aborted" if round == Some(id) => round = None,
                    _ => {}
                },
                AdaptEvent::RelocationStep {
                    round: id,
                    step,
                    sender,
                    receiver,
                    ref parts,
                    bytes,
                    ..
                } => match step {
                    1 => {
                        round = Some(id);
                        if !draining {
                            let opened = Shown::Opened {
                                sender,
                                receiver,
                                amount: bytes,
                            };
                            shown.push((e.at, opened));
                        }
                    }
                    2 if parts.is_empty() && round == Some(id) => round = None,
                    6 if round == Some(id) => round = None,
                    _ => {}
                },
                AdaptEvent::SpillDecision {
                    engine,
                    trigger: SpillTrigger::Forced,
                    ..
                } if !draining => shown.push((e.at, Shown::Forced { engine })),
                _ => {}
            }
        }
        (replayed, shown, forced)
    }

    /// `decide` reads nothing the journal lacks: on every pinned run, a
    /// fresh `Strategy` fed each collection rebuilt from its
    /// `engine_sample` records makes the decisions the run made — each
    /// one matched to its step 1, its degraded-relocation warning or
    /// its forced spill at the collection instant, and the forced ones
    /// counted against the run's own tally.
    #[test]
    fn every_pinned_decision_replays_from_the_journal() {
        let mut tally = Tally::default();
        for cfg in pinned_runs() {
            let config = cfg.strategy.clone();
            let mut driver = SimDriver::new(cfg).unwrap();
            driver.run_until(PINNED_RUN_END).unwrap();
            let report = driver.finish().unwrap();
            let (replayed, shown, forced) = replay(&config, &report.journal, &mut tally);
            assert_eq!(replayed, shown, "{config:?}");
            assert_eq!(forced, report.force_spills, "{config:?}");
        }
        // Not vacuous: every kind of decision is replayed.
        let Tally {
            pair_wise,
            join,
            forced,
            queued,
        } = tally;
        assert!(pair_wise * join * forced * queued > 0, "{tally:?}");
    }
}
