//! The split operator (§2, Figure 2).
//!
//! "A split operator is inserted in front of each input stream of such a
//! partitioned operator. This split operator partitions an input stream
//! and sends the appropriate partitions to each machine that houses an
//! instance of this partitioned operator."
//!
//! A [`SplitOperator`] owns the *classification* step — join-column
//! extraction + partitioner — shared by every input stream of one
//! partitioned operator (per-stream join columns supported). The
//! *routing* step (partition → engine, with pause/buffer during
//! relocations) lives in [`PlacementMap`](crate::placement::PlacementMap),
//! which all splits of an operator share; both drivers compose the two.

use dcape_common::batch::RawRow;
use dcape_common::codec::RawValue;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::partition::Partitioner;
use dcape_common::time::VirtualTime;
use dcape_common::tuple::Tuple;

/// Classifies tuples of a partitioned operator's input streams into
/// partition IDs.
#[derive(Debug, Clone)]
pub struct SplitOperator {
    partitioner: Partitioner,
    /// Join-column index per input stream.
    join_columns: Vec<usize>,
    classified: u64,
    /// Highest timestamp admitted so far — the split-layer low
    /// watermark. Stream generators emit nondecreasing timestamps, so
    /// every tuple classified after this point carries `ts >=
    /// admitted_watermark()`.
    admitted_watermark: VirtualTime,
}

impl SplitOperator {
    /// Build a split for an operator with the given per-stream join
    /// columns.
    pub fn new(partitioner: Partitioner, join_columns: Vec<usize>) -> Result<Self> {
        if join_columns.is_empty() {
            return Err(DcapeError::config("split needs at least one stream"));
        }
        Ok(SplitOperator {
            partitioner,
            join_columns,
            classified: 0,
            admitted_watermark: VirtualTime::ZERO,
        })
    }

    /// The partition the tuple belongs to (by its stream's join column).
    pub fn classify(&mut self, tuple: &Tuple) -> Result<PartitionId> {
        let column = self.join_column(tuple.stream())?;
        let key = tuple.get(column).ok_or_else(lacks_key)?;
        Ok(self.admit(key.as_raw(), tuple.ts()))
    }

    /// [`classify`](Self::classify) for a row given by its parts: the
    /// key is read where the generator left it.
    pub fn classify_raw(&mut self, row: &RawRow<'_>) -> Result<PartitionId> {
        let column = self.join_column(row.stream)?;
        let key = *row.values.get(column).ok_or_else(lacks_key)?;
        Ok(self.admit(key, row.ts))
    }

    #[inline]
    fn join_column(&self, stream: StreamId) -> Result<usize> {
        (self.join_columns.get(stream.index()).copied())
            .ok_or_else(|| DcapeError::state(format!("stream {stream} not in split")))
    }

    /// Count a row with join value `key` and timestamp `ts` in, and
    /// place it.
    #[inline]
    fn admit(&mut self, key: RawValue<'_>, ts: VirtualTime) -> PartitionId {
        self.classified += 1;
        self.admitted_watermark = self.admitted_watermark.max(ts);
        self.partitioner.partition_of_raw(key)
    }

    /// Tuples classified so far.
    pub fn classified(&self) -> u64 {
        self.classified
    }

    /// The per-stream low watermark admitted through this split: the
    /// highest timestamp classified so far. Drivers combine it with
    /// [`PlacementMap::purge_horizon`](crate::placement::PlacementMap::purge_horizon)
    /// to derive the watermark-driven purge horizon
    /// `min(admitted watermark, oldest buffered in-flight)`.
    pub fn admitted_watermark(&self) -> VirtualTime {
        self.admitted_watermark
    }

    /// The underlying partitioner.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }
}

fn lacks_key() -> DcapeError {
    DcapeError::state("tuple lacks join column")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::tuple::TupleBuilder;

    #[test]
    fn classifies_by_per_stream_column() {
        // Stream 0 joins on column 0; stream 1 on column 1.
        let mut split = SplitOperator::new(Partitioner::modulo(8), vec![0, 1]).unwrap();
        let t0 = TupleBuilder::new(StreamId(0))
            .value(5i64)
            .value(99i64)
            .build();
        let t1 = TupleBuilder::new(StreamId(1))
            .value(99i64)
            .value(5i64)
            .build();
        assert_eq!(split.classify(&t0).unwrap(), PartitionId(5));
        assert_eq!(split.classify(&t1).unwrap(), PartitionId(5));
        assert_eq!(split.classified(), 2);
        assert_eq!(split.partitioner().num_partitions(), 8);
    }

    #[test]
    fn admitted_watermark_tracks_classified_timestamps() {
        use dcape_common::time::VirtualTime;
        let mut split = SplitOperator::new(Partitioner::modulo(8), vec![0]).unwrap();
        assert_eq!(split.admitted_watermark(), VirtualTime::ZERO);
        let t = TupleBuilder::new(StreamId(0))
            .ts(VirtualTime::from_millis(120))
            .value(1i64)
            .build();
        split.classify(&t).unwrap();
        assert_eq!(split.admitted_watermark(), VirtualTime::from_millis(120));
        // Nondecreasing: an equal-or-later tuple advances, never regresses.
        let t2 = TupleBuilder::new(StreamId(0))
            .ts(VirtualTime::from_millis(150))
            .value(2i64)
            .build();
        split.classify(&t2).unwrap();
        assert_eq!(split.admitted_watermark(), VirtualTime::from_millis(150));
    }

    #[test]
    fn rejects_unknown_stream_and_missing_column() {
        let mut split = SplitOperator::new(Partitioner::modulo(4), vec![0]).unwrap();
        let bad_stream = TupleBuilder::new(StreamId(3)).value(1i64).build();
        assert!(split.classify(&bad_stream).is_err());
        let mut split2 = SplitOperator::new(Partitioner::modulo(4), vec![2]).unwrap();
        let short = TupleBuilder::new(StreamId(0)).value(1i64).build();
        assert!(split2.classify(&short).is_err());
    }

    #[test]
    fn empty_split_rejected() {
        assert!(SplitOperator::new(Partitioner::modulo(4), vec![]).is_err());
    }
}
