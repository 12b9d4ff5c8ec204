//! Strongly typed identifiers.
//!
//! The paper works with three kinds of entities that must never be mixed
//! up: *partitions* (the adaptation granularity — "we might work with 500
//! partitions over 10 machines", §2), *query engines* (machines running an
//! instance of a partitioned operator), and *input streams* of a
//! multi-input operator. Each gets a newtype.

use std::fmt;

/// Identifier of one partition (equivalently: one *partition group*, since
/// the group is formed by the partitions sharing this ID across all input
/// streams — §2, Figure 3(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

/// Identifier of a query engine ("machine" in the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EngineId(pub u16);

/// Identifier of one input stream of a multi-input operator
/// (e.g. `A`, `B`, `C` of the three-way join in Figure 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u8);

impl PartitionId {
    /// Index form, for dense per-partition arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EngineId {
    /// Index form, for dense per-engine arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl StreamId {
    /// Index form, for dense per-stream arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QE{}", self.0)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Streams print as S0, S1, ... ; the examples name them A, B, C.
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_ordered_hashable_and_display() {
        let a = PartitionId(3);
        let b = PartitionId(7);
        assert!(a < b);
        assert_eq!(a.to_string(), "P3");
        assert_eq!(EngineId(1).to_string(), "QE1");
        assert_eq!(StreamId(2).to_string(), "S2");

        let set: HashSet<PartitionId> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(PartitionId(42).index(), 42);
        assert_eq!(EngineId(9).index(), 9);
        assert_eq!(StreamId(2).index(), 2);
    }
}
