//! The spill store: per-partition segment registry + I/O statistics.
//!
//! Each query engine owns one [`SpillStore`]. The state-spill adaptation
//! pushes partition groups through [`SpillStore::spill_group`]; the
//! cleanup phase (§3: "organize the disk resident partition groups based
//! on their partition ID, merge partition groups with the same partition
//! ID and generate missing results") drains them back in spill order via
//! [`SpillStore::take_segments`].
//!
//! Note that "multiple partition groups may exist given one partition
//! ID" (§3): after a group is spilled, new tuples with the same ID
//! accumulate into a fresh in-memory group which may be spilled again —
//! hence a *list* of segments per partition.

use dcape_common::error::Result;
use dcape_common::hash::FxHashMap;
use dcape_common::ids::PartitionId;

use crate::backend::{SegmentHandle, SpillBackend};
use crate::codec::BlockScratch;
use crate::segment::{SegmentCodec, SegmentKeys, SpilledGroup};

/// Metadata retained in memory for one spilled segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Backend handle for retrieval.
    pub handle: SegmentHandle,
    /// Physically encoded bytes (what hit the backend).
    pub encoded_bytes: u64,
    /// Accounted state bytes (including `Pad` virtual payloads): the
    /// sum of the tuples' accounted heap sizes, and what the disk cost
    /// model charges for. The engine charges a resident group that much
    /// plus a per-tuple index overhead for each of [`tuples`](Self::tuples),
    /// so this is less than the memory the spill freed and the memory a
    /// reactivation takes back.
    pub state_bytes: u64,
    /// Tuples in the segment.
    pub tuples: u64,
}

/// Cumulative I/O statistics of one spill store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Number of segments written.
    pub segments_written: u64,
    /// Number of segments read back.
    pub segments_read: u64,
    /// Encoded bytes written.
    pub encoded_bytes_written: u64,
    /// Encoded bytes read.
    pub encoded_bytes_read: u64,
    /// Accounted state bytes written (drives the disk cost model).
    pub state_bytes_written: u64,
    /// Accounted state bytes read.
    pub state_bytes_read: u64,
    /// Tuples written.
    pub tuples_written: u64,
}

/// Registry of spilled segments for one query engine.
#[derive(Debug)]
pub struct SpillStore {
    backend: Box<dyn SpillBackend>,
    /// Spill-order list of segments per partition ID.
    segments: FxHashMap<PartitionId, Vec<SegmentMeta>>,
    /// The encoded bytes of the segment being written or read: every
    /// spill encodes into it and every read-back decodes out of it.
    buf: Vec<u8>,
    /// The block encoder's column buffers, reused by every spill.
    scratch: BlockScratch,
    stats: SpillStats,
}

impl SpillStore {
    /// Create a store over the given backend.
    pub fn new(backend: Box<dyn SpillBackend>) -> Self {
        SpillStore {
            backend,
            segments: FxHashMap::default(),
            buf: Vec::new(),
            scratch: BlockScratch::default(),
            stats: SpillStats::default(),
        }
    }

    /// [`new`](Self::new), writing `codec`'s format — the only one.
    pub fn with_codec(backend: Box<dyn SpillBackend>, codec: SegmentCodec) -> Self {
        match codec {
            SegmentCodec::Columns => Self::new(backend),
        }
    }

    /// Convenience: store over a fresh in-memory backend.
    pub fn in_memory() -> Self {
        Self::new(Box::new(crate::backend::MemBackend::new()))
    }

    /// Spill one partition group; returns its segment metadata.
    pub fn spill_group(&mut self, group: &SpilledGroup) -> Result<SegmentMeta> {
        self.buf.clear();
        group.encode_into(&mut self.buf, &mut self.scratch);
        let meta = SegmentMeta {
            handle: self.backend.write_segment(&self.buf)?,
            encoded_bytes: self.buf.len() as u64,
            state_bytes: group.state_bytes() as u64,
            tuples: group.tuple_count() as u64,
        };
        self.segments.entry(group.partition).or_default().push(meta);
        self.stats.segments_written += 1;
        self.stats.encoded_bytes_written += meta.encoded_bytes;
        self.stats.state_bytes_written += meta.state_bytes;
        self.stats.tuples_written += meta.tuples;
        Ok(meta)
    }

    /// Partitions that currently have disk-resident segments, sorted for
    /// deterministic cleanup order.
    pub fn partitions_with_segments(&self) -> Vec<PartitionId> {
        let mut pids: Vec<PartitionId> = self
            .segments
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(pid, _)| *pid)
            .collect();
        pids.sort_unstable();
        pids
    }

    /// Segment metadata for one partition, in spill order.
    pub fn segments_of(&self, pid: PartitionId) -> &[SegmentMeta] {
        self.segments.get(&pid).map_or(&[], Vec::as_slice)
    }

    /// Total number of disk-resident segments.
    pub fn segment_count(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// Total accounted state bytes currently on disk.
    pub fn state_bytes_on_disk(&self) -> u64 {
        self.segments
            .values()
            .flat_map(|v| v.iter())
            .map(|m| m.state_bytes)
            .sum()
    }

    /// Read back and remove the oldest segment of `pid` — the cleanup
    /// phase drains a partition this way, one decoded segment at a time.
    /// `None` once the partition has no segment left.
    ///
    /// The segment is forgotten only once it is in hand and its bytes
    /// are deleted: on an error it and the later ones stay registered.
    pub fn take_segment(&mut self, pid: PartitionId) -> Result<Option<SpilledGroup>> {
        self.take_oldest(pid, SpilledGroup::decode_slice)
    }

    /// [`take_segment`](Self::take_segment) for a merge that only counts:
    /// the same bytes read, decoded as their timestamps and the keys in
    /// columns `key_columns` ([`SegmentKeys`]).
    pub fn take_segment_keys(
        &mut self,
        pid: PartitionId,
        key_columns: &[usize],
    ) -> Result<Option<SegmentKeys>> {
        self.take_oldest(pid, |bytes| SegmentKeys::decode_slice(bytes, key_columns))
    }

    fn take_oldest<T>(
        &mut self,
        pid: PartitionId,
        decode: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Option<T>> {
        let Some(&meta) = self.segments_of(pid).first() else {
            return Ok(None);
        };
        let taken = decode(self.read(&meta)?)?;
        self.backend.delete_segment(meta.handle)?;
        self.forget_oldest(pid, 1);
        Ok(Some(taken))
    }

    /// Read back and remove all segments of `pid`, in spill order.
    ///
    /// All or nothing on the way in: a read or decode error leaves every
    /// segment of `pid` registered and stored, since the ones already
    /// read could not be handed over with the error. A segment's entry
    /// then goes as its bytes are deleted.
    pub fn take_segments(&mut self, pid: PartitionId) -> Result<Vec<SpilledGroup>> {
        let metas = self.segments_of(pid).to_vec();
        let groups = (metas.iter())
            .map(|meta| SpilledGroup::decode_slice(self.read(meta)?))
            .collect::<Result<Vec<_>>>()?;
        let mut deleted = 0;
        let all_deleted = metas.iter().try_for_each(|meta| {
            self.backend.delete_segment(meta.handle)?;
            deleted += 1;
            Ok(())
        });
        self.forget_oldest(pid, deleted);
        all_deleted.map(|()| groups)
    }

    /// Read one registered segment's bytes.
    fn read(&mut self, meta: &SegmentMeta) -> Result<&[u8]> {
        self.backend.read_segment(meta.handle, &mut self.buf)?;
        self.stats.segments_read += 1;
        self.stats.encoded_bytes_read += self.buf.len() as u64;
        self.stats.state_bytes_read += meta.state_bytes;
        Ok(&self.buf)
    }

    /// Drop the `n` oldest entries of `pid` (a partition holds a few
    /// dozen at most).
    fn forget_oldest(&mut self, pid: PartitionId, n: usize) {
        if let Some(list) = self.segments.get_mut(&pid) {
            list.drain(..n);
            if list.is_empty() {
                self.segments.remove(&pid);
            }
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SpillBackend;
    use dcape_common::ids::StreamId;
    use dcape_common::time::VirtualTime;
    use dcape_common::tuple::TupleBuilder;

    fn group(pid: u32, n: u64) -> SpilledGroup {
        let mut g = SpilledGroup::empty(PartitionId(pid), 2);
        for s in 0..2u8 {
            for i in 0..n {
                g.push(
                    &TupleBuilder::new(StreamId(s))
                        .seq(i)
                        .ts(VirtualTime::from_millis(i))
                        .value(i as i64)
                        .pad(100)
                        .build(),
                )
                .unwrap();
            }
        }
        g
    }

    #[test]
    fn spill_and_take_round_trip_in_order() {
        let mut store = SpillStore::in_memory();
        let g1 = group(5, 3);
        let g2 = group(5, 7);
        store.spill_group(&g1).unwrap();
        store.spill_group(&g2).unwrap();
        assert_eq!(store.segment_count(), 2);
        let back = store.take_segments(PartitionId(5)).unwrap();
        assert_eq!(back, vec![g1, g2]);
        assert_eq!(store.segment_count(), 0);
        assert!(store.take_segments(PartitionId(5)).unwrap().is_empty());
    }

    /// A memory backend whose `fail_on`-th read fails, or returns bytes
    /// that are no segment.
    #[derive(Debug)]
    struct FaultyReads {
        inner: crate::backend::MemBackend,
        reads: u32,
        fail_on: u32,
        corrupt: bool,
    }

    impl SpillBackend for FaultyReads {
        fn write_segment(&mut self, bytes: &[u8]) -> Result<SegmentHandle> {
            self.inner.write_segment(bytes)
        }

        fn read_segment(&mut self, handle: SegmentHandle, buf: &mut Vec<u8>) -> Result<()> {
            self.reads += 1;
            match (self.reads == self.fail_on, self.corrupt) {
                (false, _) => self.inner.read_segment(handle, buf),
                (true, true) => {
                    buf.clear();
                    buf.extend_from_slice(b"not a segment");
                    Ok(())
                }
                (true, false) => Err(dcape_common::error::DcapeError::state(
                    "injected read fault",
                )),
            }
        }

        fn delete_segment(&mut self, handle: SegmentHandle) -> Result<()> {
            self.inner.delete_segment(handle)
        }
    }

    #[test]
    fn a_failed_read_forgets_no_segment() {
        for (fail_on, corrupt) in [(1, false), (2, false), (3, false), (2, true)] {
            let mut store = SpillStore::new(Box::new(FaultyReads {
                inner: Default::default(),
                reads: 0,
                fail_on,
                corrupt,
            }));
            let groups = [group(5, 1), group(5, 2), group(5, 3)];
            for g in &groups {
                store.spill_group(g).unwrap();
            }
            store.spill_group(&group(6, 1)).unwrap();
            let on_disk = store.state_bytes_on_disk();
            assert!(store.take_segments(PartitionId(5)).is_err());
            // Everything is still registered and still stored: the next
            // attempt (the fault has passed) returns all three, in order.
            assert_eq!(store.segments_of(PartitionId(5)).len(), 3);
            assert_eq!(store.state_bytes_on_disk(), on_disk);
            assert_eq!(store.take_segments(PartitionId(5)).unwrap(), groups);
            assert_eq!(store.partitions_with_segments(), vec![PartitionId(6)]);
        }
    }

    #[test]
    fn take_segment_pops_the_oldest_and_keeps_the_rest_on_an_error() {
        for corrupt in [false, true] {
            let mut store = SpillStore::new(Box::new(FaultyReads {
                inner: Default::default(),
                reads: 0,
                fail_on: 2,
                corrupt,
            }));
            let groups = [group(5, 1), group(5, 2), group(5, 3)];
            for g in &groups {
                store.spill_group(g).unwrap();
            }
            let pid = PartitionId(5);
            assert_eq!(store.take_segment(pid).unwrap().as_ref(), Some(&groups[0]));
            let left = store.state_bytes_on_disk();
            assert!(store.take_segment(pid).is_err());
            assert_eq!(
                store.segments_of(pid).len(),
                2,
                "the failed one and its successor"
            );
            assert_eq!(store.state_bytes_on_disk(), left);
            assert_eq!(store.take_segment(pid).unwrap().as_ref(), Some(&groups[1]));
            assert_eq!(store.take_segment(pid).unwrap().as_ref(), Some(&groups[2]));
            assert_eq!(store.take_segment(pid).unwrap(), None);
            assert!(store.partitions_with_segments().is_empty());
            // A read that returned bytes counts, decodable or not.
            assert_eq!(store.stats().segments_read, 3 + u64::from(corrupt));
        }
    }

    #[test]
    fn partitions_listed_sorted() {
        let mut store = SpillStore::in_memory();
        for pid in [9u32, 2, 5] {
            store.spill_group(&group(pid, 1)).unwrap();
        }
        assert_eq!(
            store.partitions_with_segments(),
            vec![PartitionId(2), PartitionId(5), PartitionId(9)]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut store = SpillStore::in_memory();
        let g = group(1, 4);
        let meta = store.spill_group(&g).unwrap();
        assert_eq!(meta.tuples, 8);
        assert_eq!(meta.state_bytes, g.state_bytes() as u64);
        assert!(meta.encoded_bytes > 0);
        // Pads: state bytes ≫ encoded bytes (virtual payload).
        assert!(meta.state_bytes > meta.encoded_bytes);
        let s = store.stats();
        assert_eq!(s.segments_written, 1);
        assert_eq!(s.tuples_written, 8);
        assert_eq!(s.state_bytes_written, meta.state_bytes);
        let _ = store.take_segments(PartitionId(1)).unwrap();
        let s = store.stats();
        assert_eq!(s.segments_read, 1);
        assert_eq!(s.state_bytes_read, meta.state_bytes);
        assert_eq!(s.encoded_bytes_read, meta.encoded_bytes);
    }

    #[test]
    fn state_bytes_on_disk_tracks_live_segments() {
        let mut store = SpillStore::in_memory();
        let m1 = store.spill_group(&group(1, 2)).unwrap();
        let m2 = store.spill_group(&group(2, 3)).unwrap();
        assert_eq!(store.state_bytes_on_disk(), m1.state_bytes + m2.state_bytes);
        store.take_segments(PartitionId(1)).unwrap();
        assert_eq!(store.state_bytes_on_disk(), m2.state_bytes);
    }

    #[test]
    fn segments_of_reports_metadata() {
        let mut store = SpillStore::in_memory();
        store.spill_group(&group(3, 1)).unwrap();
        store.spill_group(&group(3, 2)).unwrap();
        let metas = store.segments_of(PartitionId(3));
        assert_eq!(metas.len(), 2);
        assert!(metas[0].tuples < metas[1].tuples);
        assert!(store.segments_of(PartitionId(99)).is_empty());
    }

    #[test]
    fn file_backend_store_round_trips() {
        let backend = crate::backend::FileBackend::new(std::env::temp_dir()).unwrap();
        let mut store = SpillStore::new(Box::new(backend));
        let g = group(11, 5);
        store.spill_group(&g).unwrap();
        let back = store.take_segments(PartitionId(11)).unwrap();
        assert_eq!(back, vec![g]);
    }
}
