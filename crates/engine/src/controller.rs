//! The local adaptation controller (§2 "Distributed Software
//! Architecture", Tables 1–2, and the QE halves of Algorithms 1–2).
//!
//! Each query engine owns one controller. It tracks the engine's
//! execution [`Mode`], runs the `ss_timer` that detects imminent memory
//! overflow, computes spill amounts (`computeSpillAmount`), and picks
//! the concrete partition groups for both adaptations
//! (`computePartsToMove` for relocation, the victim policy for spill) —
//! the paper's tiered design keeps these *local* decisions out of the
//! global coordinator.

use dcape_common::ids::PartitionId;
use dcape_common::time::{PeriodicTimer, VirtualDuration, VirtualTime};

use crate::state::productivity::{sort_most_productive_first, GroupStats};

/// Execution modes of a query engine (Table 2). A spill runs inside one
/// synchronous call and leaves the mode as it found it, so the paper's
/// `ss_mode` has no variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Normal query plan execution; no adaptation in progress.
    #[default]
    Normal,
    /// This engine participates in a state-relocation protocol round
    /// (`sr_mode`): no spill check and no reactivation touch its state
    /// until the round is over. The cluster's engine handler sets it
    /// at `Cptv`, `SendStates` and `InstallStates` and clears it once
    /// the engine keeps no copy and no uncommitted install of a round.
    Relocation,
}

/// Per-engine adaptation controller.
#[derive(Debug)]
pub struct LocalController {
    mode: Mode,
    ss_timer: PeriodicTimer,
    spill_threshold: u64,
    spill_fraction: f64,
}

impl LocalController {
    /// Create a controller with the given spill trigger parameters.
    pub fn new(
        ss_timer_period: VirtualDuration,
        spill_threshold: u64,
        spill_fraction: f64,
        start: VirtualTime,
    ) -> Self {
        LocalController {
            mode: Mode::Normal,
            ss_timer: PeriodicTimer::new(ss_timer_period, start),
            spill_threshold,
            spill_fraction,
        }
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Transition modes; the cluster protocol and the spill path drive
    /// this (Algorithm 1 lines 13–20, 27–31).
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// `ss_timer_expired` handler condition (Algorithm 1, lines 24–32):
    /// returns the spill amount if (a) the timer fired, (b) memory
    /// exceeds the threshold, and (c) the engine is in normal mode
    /// ("else don't spill now, wait until next timer expires").
    /// Resets the timer whenever it has expired.
    pub fn check_spill_trigger(&mut self, now: VirtualTime, memory_used: u64) -> Option<u64> {
        if !self.ss_timer.expired(now) {
            return None;
        }
        self.ss_timer.reset(now);
        if memory_used > self.spill_threshold && self.mode == Mode::Normal {
            Some(self.compute_spill_amount(memory_used))
        } else {
            None
        }
    }

    /// `computeSpillAmount`: push `spill_fraction` (the `k%` of Figures
    /// 5/6) of the currently used memory.
    pub fn compute_spill_amount(&self, memory_used: u64) -> u64 {
        ((memory_used as f64) * self.spill_fraction).ceil() as u64
    }

    /// `computePartsToMove`: choose the **most productive** groups up to
    /// `amount` bytes for relocation — productive partitions stay in
    /// (some machine's) main memory, per the lazy-disk design (§5.1).
    pub fn compute_parts_to_move(
        &self,
        mut stats: Vec<GroupStats>,
        amount: u64,
    ) -> Vec<PartitionId> {
        sort_most_productive_first(&mut stats);
        crate::spill::policy::take_until_bytes(&stats, amount)
    }

    /// Spill threshold in bytes.
    pub fn spill_threshold(&self) -> u64 {
        self.spill_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> LocalController {
        LocalController::new(VirtualDuration::from_secs(5), 1000, 0.3, VirtualTime::ZERO)
    }

    fn gs(pid: u32, bytes: usize, output: u64) -> GroupStats {
        GroupStats::new(PartitionId(pid), bytes, output)
    }

    #[test]
    fn starts_normal() {
        assert_eq!(ctl().mode(), Mode::Normal);
    }

    #[test]
    fn spill_triggers_only_after_timer_and_over_threshold() {
        let mut c = ctl();
        // Timer not yet expired.
        assert_eq!(c.check_spill_trigger(VirtualTime::from_secs(1), 5000), None);
        // Timer expired, memory below threshold.
        assert_eq!(c.check_spill_trigger(VirtualTime::from_secs(5), 500), None);
        // Timer was reset by the previous call — not expired again yet.
        assert_eq!(c.check_spill_trigger(VirtualTime::from_secs(6), 5000), None);
        // Expired again and over threshold: 30% of 5000.
        assert_eq!(
            c.check_spill_trigger(VirtualTime::from_secs(10), 5000),
            Some(1500)
        );
    }

    #[test]
    fn no_spill_while_relocating() {
        let mut c = ctl();
        c.set_mode(Mode::Relocation);
        assert_eq!(
            c.check_spill_trigger(VirtualTime::from_secs(10), 9000),
            None
        );
        c.set_mode(Mode::Normal);
        assert!(c
            .check_spill_trigger(VirtualTime::from_secs(20), 9000)
            .is_some());
    }

    #[test]
    fn spill_amount_is_fraction_of_used() {
        let c = ctl();
        assert_eq!(c.compute_spill_amount(1000), 300);
        assert_eq!(c.compute_spill_amount(1), 1); // ceil
        assert_eq!(c.spill_threshold(), 1000);
    }

    #[test]
    fn parts_to_move_prefers_productive_groups() {
        let c = ctl();
        let stats = vec![gs(0, 100, 0), gs(1, 100, 500), gs(2, 100, 100)];
        let parts = c.compute_parts_to_move(stats, 150);
        assert_eq!(parts, vec![PartitionId(1), PartitionId(2)]);
    }

    #[test]
    fn mode_round_trip() {
        let mut c = ctl();
        c.set_mode(Mode::Relocation);
        assert_eq!(c.mode(), Mode::Relocation);
        c.set_mode(Mode::Normal);
        assert_eq!(c.mode(), Mode::Normal);
    }
}
