//! Arrival patterns: which partitions receive tuples over time.
//!
//! §4.2 of the paper stresses the relocation machinery with "a worst case
//! situation in terms of input stream fluctuations": one machine's
//! partitions receive 10× the tuples of the other's, flipping every few
//! minutes. [`ArrivalPattern::AlternatingSkew`] reproduces that;
//! [`ArrivalPattern::WeightedStatic`] covers time-invariant skew, and
//! [`ArrivalPattern::Uniform`] the default.

use dcape_common::ids::PartitionId;
use dcape_common::time::{VirtualDuration, VirtualTime};

/// Time-varying weighting over partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Every partition equally likely.
    Uniform,
    /// Fixed per-partition weights (index = partition ID). Partitions
    /// beyond the vector get weight 1.0.
    WeightedStatic(Vec<f64>),
    /// Partitions in `group_a` get `ratio`× the weight of the rest during
    /// even phases; during odd phases the rest get `ratio`× instead.
    /// Phase length is `period` (the paper flips every 10 minutes with
    /// ratio 10).
    AlternatingSkew {
        /// Members of the favoured-first group.
        group_a: Vec<PartitionId>,
        /// Weight multiplier of the favoured group.
        ratio: f64,
        /// Length of one phase.
        period: VirtualDuration,
    },
    /// A one-shot, permanent drift: `before` weights until `at`, `after`
    /// weights from then on (index = partition ID, missing entries
    /// default to 1.0). Models workloads whose hot set changes once —
    /// the regime where amortized productivity estimation pays off.
    Shift {
        /// When the weights change.
        at: VirtualTime,
        /// Weights before the shift.
        before: Vec<f64>,
        /// Weights after the shift.
        after: Vec<f64>,
    },
}

impl ArrivalPattern {
    /// Static Zipf-distributed weights over `n` partitions with exponent
    /// `s` (partition 0 hottest): the classic data-skew shape from the
    /// parallel-join skew-handling literature the paper builds on
    /// (DeWitt et al. \[7\]).
    pub fn zipf(n: u32, s: f64) -> ArrivalPattern {
        assert!(n > 0, "need at least one partition");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let weights = (1..=n as u64)
            .map(|rank| 1.0 / (rank as f64).powf(s))
            .collect();
        ArrivalPattern::WeightedStatic(weights)
    }

    /// Weight of `partition` at virtual time `now`. Weights are relative;
    /// the generator normalizes.
    pub fn weight_at(&self, partition: PartitionId, now: VirtualTime) -> f64 {
        match self {
            ArrivalPattern::Uniform => 1.0,
            ArrivalPattern::WeightedStatic(w) => w.get(partition.index()).copied().unwrap_or(1.0),
            ArrivalPattern::AlternatingSkew {
                group_a,
                ratio,
                period,
            } => {
                let phase = if period.as_millis() == 0 {
                    0
                } else {
                    now.as_millis() / period.as_millis()
                };
                let in_a = group_a.contains(&partition);
                let a_favoured = phase % 2 == 0;
                if in_a == a_favoured {
                    *ratio
                } else {
                    1.0
                }
            }
            ArrivalPattern::Shift { at, before, after } => {
                let weights = if now < *at { before } else { after };
                weights.get(partition.index()).copied().unwrap_or(1.0)
            }
        }
    }

    /// True if the weights can change as time advances (the generator
    /// then refreshes its sampling table at phase boundaries).
    pub fn is_time_varying(&self) -> bool {
        matches!(
            self,
            ArrivalPattern::AlternatingSkew { .. } | ArrivalPattern::Shift { .. }
        )
    }

    /// For time-varying patterns, the virtual time at which weights next
    /// change after `now`; `None` for static patterns.
    pub fn next_change_after(&self, now: VirtualTime) -> Option<VirtualTime> {
        match self {
            ArrivalPattern::AlternatingSkew { period, .. } if period.as_millis() > 0 => {
                let p = period.as_millis();
                Some(VirtualTime::from_millis((now.as_millis() / p + 1) * p))
            }
            ArrivalPattern::Shift { at, .. } if now < *at => Some(*at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat_and_static() {
        let p = ArrivalPattern::Uniform;
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::ZERO), 1.0);
        assert_eq!(
            p.weight_at(PartitionId(99), VirtualTime::from_mins(60)),
            1.0
        );
        assert!(!p.is_time_varying());
        assert_eq!(p.next_change_after(VirtualTime::ZERO), None);
    }

    #[test]
    fn weighted_static_reads_vector_with_default() {
        let p = ArrivalPattern::WeightedStatic(vec![2.0, 0.5]);
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::ZERO), 2.0);
        assert_eq!(p.weight_at(PartitionId(1), VirtualTime::ZERO), 0.5);
        assert_eq!(p.weight_at(PartitionId(7), VirtualTime::ZERO), 1.0);
    }

    #[test]
    fn alternating_skew_flips_each_period() {
        let p = ArrivalPattern::AlternatingSkew {
            group_a: vec![PartitionId(0), PartitionId(1)],
            ratio: 10.0,
            period: VirtualDuration::from_mins(10),
        };
        // Phase 0: group A favoured.
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::from_mins(1)), 10.0);
        assert_eq!(p.weight_at(PartitionId(5), VirtualTime::from_mins(1)), 1.0);
        // Phase 1: group B favoured.
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::from_mins(11)), 1.0);
        assert_eq!(
            p.weight_at(PartitionId(5), VirtualTime::from_mins(11)),
            10.0
        );
        // Phase 2: back to A.
        assert_eq!(
            p.weight_at(PartitionId(0), VirtualTime::from_mins(21)),
            10.0
        );
        assert!(p.is_time_varying());
    }

    #[test]
    fn next_change_lands_on_phase_boundary() {
        let p = ArrivalPattern::AlternatingSkew {
            group_a: vec![],
            ratio: 10.0,
            period: VirtualDuration::from_mins(10),
        };
        assert_eq!(
            p.next_change_after(VirtualTime::from_mins(3)),
            Some(VirtualTime::from_mins(10))
        );
        assert_eq!(
            p.next_change_after(VirtualTime::from_mins(10)),
            Some(VirtualTime::from_mins(20))
        );
    }

    #[test]
    fn zero_period_does_not_divide_by_zero() {
        let p = ArrivalPattern::AlternatingSkew {
            group_a: vec![PartitionId(0)],
            ratio: 3.0,
            period: VirtualDuration::ZERO,
        };
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::from_mins(5)), 3.0);
        assert_eq!(p.next_change_after(VirtualTime::ZERO), None);
    }
}

#[cfg(test)]
mod shift_tests {
    use super::*;

    #[test]
    fn shift_changes_weights_once() {
        let p = ArrivalPattern::Shift {
            at: VirtualTime::from_mins(10),
            before: vec![10.0, 1.0],
            after: vec![1.0, 10.0],
        };
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::from_mins(5)), 10.0);
        assert_eq!(p.weight_at(PartitionId(1), VirtualTime::from_mins(5)), 1.0);
        assert_eq!(p.weight_at(PartitionId(0), VirtualTime::from_mins(10)), 1.0);
        assert_eq!(
            p.weight_at(PartitionId(1), VirtualTime::from_mins(15)),
            10.0
        );
        // Missing entries default to 1.0.
        assert_eq!(p.weight_at(PartitionId(9), VirtualTime::from_mins(5)), 1.0);
        assert!(p.is_time_varying());
        assert_eq!(
            p.next_change_after(VirtualTime::from_mins(5)),
            Some(VirtualTime::from_mins(10))
        );
        assert_eq!(p.next_change_after(VirtualTime::from_mins(10)), None);
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;

    #[test]
    fn zipf_weights_decay_by_rank() {
        let p = ArrivalPattern::zipf(4, 1.0);
        let w: Vec<f64> = (0..4)
            .map(|i| p.weight_at(PartitionId(i), VirtualTime::ZERO))
            .collect();
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!(w[2] > w[3]);
        assert!(!p.is_time_varying());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let p = ArrivalPattern::zipf(8, 0.0);
        for i in 0..8 {
            assert_eq!(p.weight_at(PartitionId(i), VirtualTime::ZERO), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zipf_rejects_zero_partitions() {
        let _ = ArrivalPattern::zipf(0, 1.0);
    }
}
