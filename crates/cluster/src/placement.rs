//! The partition placement map and the split operators' buffering.
//!
//! Every split operator routes each tuple to the engine owning the
//! tuple's partition (§2, Figure 2). During a relocation round the
//! affected partitions are *paused*: "all tuples belonging to the
//! partition groups affected by the current adaptation process which
//! arrive during a state relocation process are temporarily buffered …
//! later, when the adaptation process is over, all buffered tuples are
//! redirected to the stateful operators based on the new partition group
//! mapping" (§4.1). [`PlacementMap`] implements exactly that contract.

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::VirtualTime;
use dcape_common::tuple::Tuple;

/// How partitions are initially distributed over engines.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// Round-robin: partition `i` goes to engine `i mod n`.
    RoundRobin,
    /// Consecutive blocks sized by per-engine fractions (must sum to
    /// ≈1.0). Figure 11 uses `[0.6, 0.2, 0.2]`; Figure 12 `[2/3, 1/6,
    /// 1/6]`.
    Fractions(Vec<f64>),
}

impl PlacementSpec {
    /// Materialize the initial owner of every partition.
    pub fn assign(&self, num_partitions: u32, num_engines: usize) -> Result<Vec<EngineId>> {
        if num_engines == 0 {
            return Err(DcapeError::config("need at least one engine"));
        }
        if num_engines > u16::MAX as usize {
            return Err(DcapeError::config("too many engines"));
        }
        match self {
            PlacementSpec::RoundRobin => Ok((0..num_partitions)
                .map(|i| EngineId((i as usize % num_engines) as u16))
                .collect()),
            PlacementSpec::Fractions(fractions) => {
                if fractions.len() != num_engines {
                    return Err(DcapeError::config("fraction count must equal engine count"));
                }
                let total: f64 = fractions.iter().sum();
                if !(0.99..=1.01).contains(&total) {
                    return Err(DcapeError::config(format!(
                        "fractions sum to {total}, expected 1.0"
                    )));
                }
                let n = num_partitions as usize;
                let mut owners = Vec::with_capacity(n);
                for (e, f) in fractions.iter().enumerate() {
                    let count = if e == num_engines - 1 {
                        n - owners.len()
                    } else {
                        ((n as f64) * f).round() as usize
                    };
                    for _ in 0..count.min(n - owners.len()) {
                        owners.push(EngineId(e as u16));
                    }
                }
                while owners.len() < n {
                    owners.push(EngineId((num_engines - 1) as u16));
                }
                Ok(owners)
            }
        }
    }
}

/// The live partition → engine map, including pause/buffer state for
/// in-flight relocations and the elastic membership (engines can join
/// after construction, and draining engines are *fenced*: still owners
/// of what they hold, but never the target of a remap).
#[derive(Debug)]
pub struct PlacementMap {
    owners: Vec<EngineId>,
    /// Buffered tuples per paused partition, in arrival order.
    paused: FxHashMap<PartitionId, Vec<Tuple>>,
    /// Oldest timestamp of any tuple currently buffered at a paused
    /// split — the split-side contribution to the purge watermark.
    /// `None` when nothing is buffered.
    oldest_buffered: Option<VirtualTime>,
    /// Per-engine fenced flag (index = engine id). Grows with
    /// [`PlacementMap::add_engine`].
    fenced: Vec<bool>,
    version: u64,
}

/// Routing verdict for one tuple.
#[derive(Debug, PartialEq, Eq)]
pub enum Route {
    /// Deliver the tuple to the owning engine.
    Deliver(EngineId, Tuple),
    /// The partition is paused; the tuple was buffered at the split.
    Buffered,
}

impl PlacementMap {
    /// Build from a spec.
    pub fn new(spec: &PlacementSpec, num_partitions: u32, num_engines: usize) -> Result<Self> {
        Ok(PlacementMap {
            owners: spec.assign(num_partitions, num_engines)?,
            paused: FxHashMap::default(),
            oldest_buffered: None,
            fenced: vec![false; num_engines],
            version: 0,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.owners.len() as u32
    }

    /// Number of engines ever admitted (initial set plus joins; fenced
    /// and drained engines keep their slot — ids are never reused).
    pub fn num_engines(&self) -> usize {
        self.fenced.len()
    }

    /// Admit a new engine: it gets the next dense id, owns nothing, and
    /// is unfenced. Join-rebalance moves bring state to it via ordinary
    /// relocation rounds.
    pub fn add_engine(&mut self) -> Result<EngineId> {
        if self.fenced.len() >= u16::MAX as usize {
            return Err(DcapeError::config("too many engines"));
        }
        let id = EngineId(self.fenced.len() as u16);
        self.fenced.push(false);
        self.version += 1;
        Ok(id)
    }

    /// Fence an engine (start of a drain): it may keep shedding the
    /// partitions it owns, but no remap may ever target it again.
    /// Fencing twice is a no-op.
    pub fn fence_engine(&mut self, engine: EngineId) -> Result<()> {
        let slot = self
            .fenced
            .get_mut(engine.index())
            .ok_or_else(|| DcapeError::state(format!("unknown engine {engine}")))?;
        if !*slot {
            *slot = true;
            self.version += 1;
        }
        Ok(())
    }

    /// Whether `engine` is fenced (unknown engines read as fenced: they
    /// must never be a placement target either).
    pub fn is_fenced(&self, engine: EngineId) -> bool {
        self.fenced.get(engine.index()).copied().unwrap_or(true)
    }

    /// Engines currently eligible as placement targets (unfenced),
    /// ascending.
    pub fn unfenced_engines(&self) -> Vec<EngineId> {
        self.fenced
            .iter()
            .enumerate()
            .filter(|(_, f)| !**f)
            .map(|(i, _)| EngineId(i as u16))
            .collect()
    }

    /// Current owner of a partition.
    pub fn owner(&self, pid: PartitionId) -> Result<EngineId> {
        self.owners
            .get(pid.index())
            .copied()
            .ok_or_else(|| DcapeError::state(format!("unknown partition {pid}")))
    }

    /// All partitions owned by `engine`, sorted.
    pub fn partitions_of(&self, engine: EngineId) -> Vec<PartitionId> {
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, &e)| e == engine)
            .map(|(i, _)| PartitionId(i as u32))
            .collect()
    }

    /// Map version — bumped on every remap (diagnostics).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Route one tuple: buffer if its partition is paused, otherwise
    /// hand the tuple back with its owning engine.
    pub fn route(&mut self, pid: PartitionId, tuple: Tuple) -> Result<Route> {
        let owner = self.owner(pid)?;
        if let Some(buf) = self.paused.get_mut(&pid) {
            self.oldest_buffered = Some(match self.oldest_buffered {
                Some(t) => t.min(tuple.ts()),
                None => tuple.ts(),
            });
            buf.push(tuple);
            return Ok(Route::Buffered);
        }
        Ok(Route::Deliver(owner, tuple))
    }

    /// Oldest timestamp still buffered at any paused split, if any.
    pub fn oldest_buffered_ts(&self) -> Option<VirtualTime> {
        self.oldest_buffered
    }

    /// The watermark-driven purge horizon: the admitted watermark `now`,
    /// clamped by the oldest tuple still buffered in-flight at any
    /// split. Purging at this horizon can never drop a join partner of
    /// a tuple that has yet to be delivered: buffered tuples replay
    /// ahead of any purge pulse stamped later than them, and the
    /// generator's timestamps are nondecreasing, so every future
    /// delivery carries `ts >= horizon`.
    pub fn purge_horizon(&self, now: VirtualTime) -> VirtualTime {
        match self.oldest_buffered {
            Some(t) => t.min(now),
            None => now,
        }
    }

    /// Pause the given partitions (start of a relocation round).
    /// Pausing an already-paused partition is a protocol error; the
    /// call validates everything before mutating, so a rejected pause
    /// never clobbers an existing buffer.
    pub fn pause(&mut self, pids: &[PartitionId]) -> Result<()> {
        for pid in pids {
            if pid.index() >= self.owners.len() {
                return Err(DcapeError::state(format!("unknown partition {pid}")));
            }
            if self.paused.contains_key(pid) {
                return Err(DcapeError::protocol(format!(
                    "partition {pid} paused twice"
                )));
            }
        }
        for pid in pids {
            self.paused.insert(*pid, Vec::new());
        }
        Ok(())
    }

    /// Finish a relocation round: reassign the partitions to
    /// `new_owner`, unpause them, and return the buffered tuples (in
    /// arrival order) for redelivery under the new mapping.
    pub fn remap_and_release(
        &mut self,
        pids: &[PartitionId],
        new_owner: EngineId,
    ) -> Result<Vec<(PartitionId, Vec<Tuple>)>> {
        self.release(pids, Some(new_owner))
    }

    /// Abort a relocation round: unpause the partitions **without**
    /// changing ownership and return the buffered tuples (in arrival
    /// order) for redelivery to the original owner.
    pub fn release_paused(
        &mut self,
        pids: &[PartitionId],
    ) -> Result<Vec<(PartitionId, Vec<Tuple>)>> {
        self.release(pids, None)
    }

    /// Unpause `pids`, handing them to `new_owner` if there is one, and
    /// re-derive the held watermark from what stays buffered.
    fn release(
        &mut self,
        pids: &[PartitionId],
        new_owner: Option<EngineId>,
    ) -> Result<Vec<(PartitionId, Vec<Tuple>)>> {
        // Validate first so the map never ends half-updated.
        if let Some(owner) = new_owner.filter(|e| self.is_fenced(*e)) {
            return Err(DcapeError::protocol(format!(
                "remap targets fenced engine {owner}"
            )));
        }
        for pid in pids {
            if pid.index() >= self.owners.len() {
                return Err(DcapeError::state(format!("unknown partition {pid}")));
            }
            if !self.paused.contains_key(pid) {
                return Err(DcapeError::protocol(format!(
                    "partition {pid} released without pause"
                )));
            }
        }
        let mut released = Vec::with_capacity(pids.len());
        for pid in pids {
            if let Some(owner) = new_owner {
                self.owners[pid.index()] = owner;
            }
            let buffered = self.paused.remove(pid).expect("validated above");
            released.push((*pid, buffered));
        }
        // Buffers are arrival-ordered with nondecreasing timestamps, so
        // each buffer's minimum is its first element.
        self.oldest_buffered = self
            .paused
            .values()
            .filter_map(|buf| buf.first())
            .map(Tuple::ts)
            .min();
        self.version += 1;
        Ok(released)
    }

    /// Currently paused partitions (sorted, for assertions).
    pub fn paused_partitions(&self) -> Vec<PartitionId> {
        let mut pids: Vec<PartitionId> = self.paused.keys().copied().collect();
        pids.sort_unstable();
        pids
    }

    /// Count of partitions per engine (index = engine id).
    pub fn distribution(&self, num_engines: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_engines];
        for e in &self.owners {
            counts[e.index()] += 1;
        }
        counts
    }
}

/// The tuples a pause released ([`PlacementMap::remap_and_release`],
/// [`PlacementMap::release_paused`]) as the one batch they travel in:
/// per-partition lists in arrival order, so the batch is a stable
/// reordering by partition.
pub(crate) fn released_batch(released: Vec<(PartitionId, Vec<Tuple>)>) -> TupleBatch {
    let mut batch = TupleBatch::new();
    for (pid, tuples) in released {
        for tuple in tuples {
            batch.push(pid, tuple);
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::TupleBuilder;

    fn tuple(seq: u64) -> Tuple {
        TupleBuilder::new(StreamId(0)).seq(seq).value(1i64).build()
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let m = PlacementMap::new(&PlacementSpec::RoundRobin, 10, 3).unwrap();
        assert_eq!(m.distribution(3), vec![4, 3, 3]);
        assert_eq!(m.owner(PartitionId(4)).unwrap(), EngineId(1));
        assert_eq!(m.partitions_of(EngineId(0)).len(), 4);
    }

    #[test]
    fn fractions_claim_blocks() {
        let m = PlacementMap::new(&PlacementSpec::Fractions(vec![0.6, 0.2, 0.2]), 100, 3).unwrap();
        assert_eq!(m.distribution(3), vec![60, 20, 20]);
        assert_eq!(m.owner(PartitionId(0)).unwrap(), EngineId(0));
        assert_eq!(m.owner(PartitionId(99)).unwrap(), EngineId(2));
    }

    #[test]
    fn bad_fractions_rejected() {
        assert!(PlacementMap::new(&PlacementSpec::Fractions(vec![0.5, 0.2]), 10, 2).is_err());
        assert!(PlacementMap::new(&PlacementSpec::Fractions(vec![0.5]), 10, 2).is_err());
        assert!(PlacementMap::new(&PlacementSpec::RoundRobin, 10, 0).is_err());
    }

    #[test]
    fn route_delivers_or_buffers() {
        let mut m = PlacementMap::new(&PlacementSpec::RoundRobin, 4, 2).unwrap();
        match m.route(PartitionId(1), tuple(0)).unwrap() {
            Route::Deliver(e, t) => {
                assert_eq!(e, EngineId(1));
                assert_eq!(t.seq(), 0);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        m.pause(&[PartitionId(1)]).unwrap();
        assert_eq!(m.route(PartitionId(1), tuple(1)).unwrap(), Route::Buffered);
        assert!(
            matches!(
                m.route(PartitionId(0), tuple(2)).unwrap(),
                Route::Deliver(e, _) if e == EngineId(0)
            ),
            "unpaused partitions keep flowing during relocation"
        );
        assert_eq!(m.paused_partitions(), vec![PartitionId(1)]);
    }

    #[test]
    fn remap_releases_buffered_in_order_and_bumps_version() {
        let mut m = PlacementMap::new(&PlacementSpec::RoundRobin, 4, 2).unwrap();
        m.pause(&[PartitionId(1), PartitionId(3)]).unwrap();
        m.route(PartitionId(1), tuple(10)).unwrap();
        m.route(PartitionId(1), tuple(11)).unwrap();
        m.route(PartitionId(3), tuple(12)).unwrap();
        let v0 = m.version();
        let released = m
            .remap_and_release(&[PartitionId(1), PartitionId(3)], EngineId(0))
            .unwrap();
        assert_eq!(m.version(), v0 + 1);
        assert_eq!(m.owner(PartitionId(1)).unwrap(), EngineId(0));
        assert_eq!(m.owner(PartitionId(3)).unwrap(), EngineId(0));
        let p1 = released.iter().find(|(p, _)| *p == PartitionId(1)).unwrap();
        assert_eq!(
            p1.1.iter().map(|t| t.seq()).collect::<Vec<_>>(),
            vec![10, 11]
        );
        assert!(m.paused_partitions().is_empty());
    }

    #[test]
    fn purge_horizon_clamps_to_oldest_buffered_and_releases() {
        let ts_tuple = |seq: u64, ms: u64| {
            TupleBuilder::new(StreamId(0))
                .seq(seq)
                .ts(VirtualTime::from_millis(ms))
                .value(1i64)
                .build()
        };
        let mut m = PlacementMap::new(&PlacementSpec::RoundRobin, 4, 2).unwrap();
        let now = VirtualTime::from_millis(500);
        // Nothing buffered: the horizon is the admitted watermark.
        assert_eq!(m.oldest_buffered_ts(), None);
        assert_eq!(m.purge_horizon(now), now);
        m.pause(&[PartitionId(1), PartitionId(3)]).unwrap();
        // Still nothing buffered right after the pause.
        assert_eq!(m.purge_horizon(now), now);
        m.route(PartitionId(1), ts_tuple(0, 120)).unwrap();
        m.route(PartitionId(3), ts_tuple(1, 90)).unwrap();
        m.route(PartitionId(1), ts_tuple(2, 200)).unwrap();
        // The horizon is held at the oldest buffered timestamp.
        assert_eq!(m.oldest_buffered_ts(), Some(VirtualTime::from_millis(90)));
        assert_eq!(m.purge_horizon(now), VirtualTime::from_millis(90));
        // Releasing one partition re-derives the hold from the rest.
        m.remap_and_release(&[PartitionId(3)], EngineId(0)).unwrap();
        assert_eq!(m.oldest_buffered_ts(), Some(VirtualTime::from_millis(120)));
        // Releasing everything clears the hold entirely.
        m.remap_and_release(&[PartitionId(1)], EngineId(0)).unwrap();
        assert_eq!(m.oldest_buffered_ts(), None);
        assert_eq!(m.purge_horizon(now), now);
    }

    #[test]
    fn release_paused_keeps_owner_and_frees_watermark() {
        let ts_tuple = |seq: u64, ms: u64| {
            TupleBuilder::new(StreamId(0))
                .seq(seq)
                .ts(VirtualTime::from_millis(ms))
                .value(1i64)
                .build()
        };
        let mut m = PlacementMap::new(&PlacementSpec::RoundRobin, 4, 2).unwrap();
        let original = m.owner(PartitionId(1)).unwrap();
        m.pause(&[PartitionId(1)]).unwrap();
        m.route(PartitionId(1), ts_tuple(0, 100)).unwrap();
        m.route(PartitionId(1), ts_tuple(1, 150)).unwrap();
        let v0 = m.version();
        let released = m.release_paused(&[PartitionId(1)]).unwrap();
        // Owner unchanged, buffer returned in arrival order, watermark
        // hold released, version bumped.
        assert_eq!(m.owner(PartitionId(1)).unwrap(), original);
        assert_eq!(
            released[0].1.iter().map(|t| t.seq()).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(m.oldest_buffered_ts(), None);
        assert!(m.paused_partitions().is_empty());
        assert_eq!(m.version(), v0 + 1);
        // Releasing an unpaused partition is still a protocol error.
        assert!(m.release_paused(&[PartitionId(1)]).is_err());
    }

    #[test]
    fn protocol_violations_detected() {
        let mut m = PlacementMap::new(&PlacementSpec::RoundRobin, 4, 2).unwrap();
        m.pause(&[PartitionId(1)]).unwrap();
        assert!(m.pause(&[PartitionId(1)]).is_err(), "double pause");
        assert!(
            m.remap_and_release(&[PartitionId(2)], EngineId(0)).is_err(),
            "release without pause"
        );
        assert!(m.route(PartitionId(99), tuple(0)).is_err());
        assert!(m.owner(PartitionId(99)).is_err());
    }
}
