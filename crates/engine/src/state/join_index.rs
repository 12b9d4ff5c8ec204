//! The join index of one columnar partition group: one open-addressing
//! table for all `m` input streams.
//!
//! The adaptation unit keeps every input's partition for one ID
//! together, so one key lookup can serve all of them: an entry is a join
//! key plus `m` parts, part `s` standing for stream `s`'s rows with that
//! key. Inserting a tuple pays one
//! [`find_or_insert`](JoinIndex::find_or_insert); the entry it yields
//! carries the `m - 1` parts to probe and the part to add the row to.
//!
//! * **Slot** — a `hash | 1` tag (0 marks an empty slot) and the key
//!   `Value`, in one array; the parts sit beside it in a flat array, `m`
//!   per slot, so a probe walks tags and keys only.
//! * **Probe order** — linear from the home slot, which is taken from
//!   the **high** bits of the hash: keys within one partition are
//!   congruent modulo the partition count, and Fx's low bits are
//!   constant across such keys.
//! * **Parts** — the table is generic over them. The run-time group's
//!   part is a [`ChainHead`]: the newest [`RECENT`] positions of the
//!   key's rows in the stream and their count. Every row records the
//!   position of the row before it with the same key (its *link*, in a
//!   column of the stream's own), so the positions past the newest few
//!   are a chain through the rows, and a row's insert writes its link at
//!   the end of the column it is appended to. The cleanup merge's part
//!   is a plain `Vec<u32>`, which it splits at slice boundaries.
//! * **Dead positions** — the index never deletes in place. The caller
//!   knows, per stream, a *floor* below which every position is dead (a
//!   window purge retires rows by raising it); a chain is read down to
//!   the floor and no further ([`ChainHead::for_each_live`]), so a purge
//!   changes nothing here.
//! * **Growth** — at 5/8 load the table is swept
//!   ([`sweep`](JoinIndex::sweep)): the caller says which entries still
//!   hold something, and the survivors are placed in a table sized for
//!   them — larger, the same or smaller — so a sliding window over keys
//!   that never repeat keeps the table within a constant of its live
//!   keys.
//!
//! The caller passes the hash in, so tests can force collisions and home
//! slots at the table's end.

use dcape_common::prefetch::prefetch;
use dcape_common::value::Value;

/// Positions an entry keeps per stream. A constant, not a setting: a
/// window holds about two live rows per (key, stream) at the paper's
/// rates, and a probe reads the link column only past these.
pub(crate) const RECENT: usize = 4;
/// The link of a row with no earlier row of its key, and the end of
/// every chain.
pub(crate) const NONE: u32 = u32::MAX;
/// Slots of a table's first allocation (a power of two).
const MIN_SLOTS: usize = 8;
/// Maximum load is `LOAD_NUM / LOAD_DEN`.
const LOAD_NUM: usize = 5;
const LOAD_DEN: usize = 8;

/// One stream's part of a run-time entry: the head of the chain of the
/// key's rows in that stream.
///
/// `count` positions have been pushed since the part was last emptied,
/// live or dead (saturating); the newest `min(count, RECENT)` of them are in
/// `recent`, newest first, and each older one is the link of the row at
/// the one after it. Positions ascend in push order, so the dead ones —
/// those below the stream's floor — are the oldest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChainHead {
    recent: [u32; RECENT],
    count: u32,
}

impl ChainHead {
    /// Positions pushed, live or dead. Exact while nothing has been
    /// purged (an unwindowed join): then it is the key's row count.
    #[inline]
    pub(crate) fn count(&self) -> u32 {
        self.count
    }

    /// The newest position, or [`NONE`]: the link of the next row.
    #[inline]
    pub(crate) fn newest(&self) -> u32 {
        if self.count == 0 {
            NONE
        } else {
            self.recent[0]
        }
    }

    /// Make `p`, above every position held, the newest. The caller
    /// records [`newest`](Self::newest) as `p`'s link first.
    #[inline]
    pub(crate) fn push(&mut self, p: u32) {
        self.recent.copy_within(0..RECENT - 1, 1);
        self.recent[0] = p;
        self.count = self.count.saturating_add(1);
    }

    /// Does the part hold a position at or above `floor`?
    #[inline]
    pub(crate) fn is_live(&self, floor: u32) -> bool {
        self.count > 0 && self.recent[0] >= floor
    }

    /// Call `f` on every position at or above `floor`, newest first:
    /// the cached ones, then — only if all of them are live and there
    /// are older ones — down the chain, where `links[p - base]` is the
    /// link of the row at position `p`.
    #[inline]
    pub(crate) fn for_each_live(
        &self,
        links: &[u32],
        base: u32,
        floor: u32,
        mut f: impl FnMut(u32),
    ) {
        let cached = (self.count as usize).min(RECENT);
        for &p in &self.recent[..cached] {
            if p < floor {
                return;
            }
            f(p);
        }
        if self.count as usize <= RECENT {
            return;
        }
        let mut p = links[(self.recent[RECENT - 1] - base) as usize];
        while p != NONE && p >= floor {
            f(p);
            p = links[(p - base) as usize];
        }
    }
}

/// Does a part of `heads` hold a position at or above its stream's
/// `floor`? The test of a run-time entry's survival in a
/// [`sweep`](JoinIndex::sweep).
pub(crate) fn keep_live(heads: &[ChainHead], floor: impl Fn(usize) -> u32) -> bool {
    (heads.iter().enumerate()).any(|(s, head)| head.is_live(floor(s)))
}

/// Prefetch every cache line of the `n` values from `first` on: one
/// hint per 64 bytes, and one for the last byte, which may lie a line
/// further.
#[inline]
fn prefetch_lines<T>(first: *const T, n: usize) {
    let bytes = n * std::mem::size_of::<T>();
    let first = first.cast::<u8>();
    let mut offset = 0;
    while offset < bytes {
        prefetch(first.wrapping_add(offset));
        offset += 64;
    }
    prefetch(first.wrapping_add(bytes.saturating_sub(1)));
}

#[derive(Debug)]
struct Slot {
    /// `hash | 1` of `key`; 0 when the slot is empty.
    tag: u64,
    key: Value,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            tag: 0,
            key: Value::Null,
        }
    }
}

/// Join key → `m` parts `P`, for one partition group.
///
/// An empty slot's parts are `P::default()`; a new entry starts with
/// them. Which entries still hold anything is the caller's to say, to
/// [`sweep`](Self::sweep).
#[derive(Debug)]
pub(crate) struct JoinIndex<P> {
    /// Parts per entry (the join's stream count).
    m: usize,
    /// Empty until the first insert, then a power-of-two length.
    slots: Vec<Slot>,
    /// `m` parts per slot: slot `i` owns `parts[i * m..(i + 1) * m]`.
    parts: Vec<P>,
    len: usize,
    /// `64 - log2(slots.len())`: the home slot is `tag >> shift`.
    shift: u32,
}

impl<P: Default> JoinIndex<P> {
    pub(crate) fn new(m: usize) -> Self {
        JoinIndex {
            m,
            slots: Vec::new(),
            parts: Vec::new(),
            len: 0,
            shift: 0,
        }
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots allocated.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag >> self.shift) as usize
    }

    /// The slot of `key`, whose hash is `hash`.
    #[inline]
    pub(crate) fn find(&self, hash: u64, key: &Value) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash | 1, key).ok()
    }

    /// Start loading the home slot of a key whose hash is `hash`, and
    /// every line of that slot's `m` parts: the lines an insert of the
    /// key reads first. A hint only — it reads nothing, so a slot that a
    /// later insertion or sweep moves costs a wasted load, never a
    /// result.
    #[inline]
    pub(crate) fn prefetch(&self, hash: u64) {
        if self.slots.is_empty() {
            return;
        }
        let home = self.home(hash | 1);
        prefetch_lines(self.slots.as_ptr().wrapping_add(home), 1);
        prefetch_lines(self.parts.as_ptr().wrapping_add(home * self.m), self.m);
    }

    /// Walk from `tag`'s home slot: `Ok(slot of key)` or `Err(the empty
    /// slot that ends its probe sequence)`. The load limit keeps at
    /// least one slot empty, so the walk ends.
    #[inline]
    fn probe(&self, tag: u64, key: &Value) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let slot = &self.slots[i];
            if slot.tag == tag && slot.key == *key {
                return Ok(i);
            }
            if slot.tag == 0 {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `key`, entered with `m` default parts (and `key`
    /// cloned) if it was absent. When a new entry would pass the load
    /// limit the table is [swept](Self::sweep) under `keep` first. The
    /// slot is good until the next insertion or sweep.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        key: &Value,
        keep: impl Fn(&[P]) -> bool,
    ) -> usize {
        let tag = hash | 1;
        if !self.slots.is_empty() {
            match self.probe(tag, key) {
                Ok(i) => return i,
                Err(i) if (self.len + 1) * LOAD_DEN <= self.slots.len() * LOAD_NUM => {
                    return self.fill(i, tag, key)
                }
                Err(_) => {}
            }
        }
        self.sweep(keep);
        let i = self.probe(tag, key).expect_err("absent before the sweep");
        self.fill(i, tag, key)
    }

    fn fill(&mut self, i: usize, tag: u64, key: &Value) -> usize {
        self.slots[i] = Slot {
            tag,
            key: key.clone(),
        };
        self.len += 1;
        i
    }

    /// The `m` parts of the entry at `slot`.
    #[inline]
    pub(crate) fn entry(&self, slot: usize) -> &[P] {
        &self.parts[slot * self.m..(slot + 1) * self.m]
    }

    /// The `m` parts of the entry at `slot`, to change.
    #[inline]
    pub(crate) fn entry_mut(&mut self, slot: usize) -> &mut [P] {
        &mut self.parts[slot * self.m..(slot + 1) * self.m]
    }

    /// Apply `f` to the parts of every entry. May leave entries with
    /// nothing in them: follow with [`sweep`](Self::sweep).
    pub(crate) fn for_each_entry_mut(&mut self, mut f: impl FnMut(&mut [P])) {
        for (slot, parts) in self.slots.iter().zip(self.parts.chunks_mut(self.m)) {
            if slot.tag != 0 {
                f(parts);
            }
        }
    }

    /// Keep the entries `keep` accepts, then re-place them into a fresh
    /// table with room for twice as many: the smallest power of two at which they fill at most
    /// half the load limit. Growth, a shrink after a window has slid
    /// past most keys, and the removal of emptied entries are all this
    /// one pass. O(slots).
    pub(crate) fn sweep(&mut self, keep: impl Fn(&[P]) -> bool) {
        let m = self.m;
        let mut survivors = 0;
        for (slot, parts) in self.slots.iter_mut().zip(self.parts.chunks(m)) {
            if slot.tag == 0 {
                continue;
            }
            if keep(parts) {
                survivors += 1;
            } else {
                slot.tag = 0;
            }
        }
        let mut slots = MIN_SLOTS;
        while 2 * survivors * LOAD_DEN > slots * LOAD_NUM {
            slots *= 2;
        }
        let old_slots = std::mem::take(&mut self.slots);
        let mut old_parts = std::mem::take(&mut self.parts);
        self.slots.resize_with(slots, Slot::empty);
        self.parts.resize_with(slots * m, P::default);
        self.shift = 64 - slots.trailing_zeros();
        self.len = survivors;
        let mask = slots - 1;
        for (slot, parts) in old_slots.into_iter().zip(old_parts.chunks_mut(m)) {
            if slot.tag == 0 {
                continue;
            }
            let mut i = self.home(slot.tag);
            while self.slots[i].tag != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
            self.parts[i * m..(i + 1) * m].swap_with_slice(parts);
        }
    }

    /// Every entry's key and parts, in slot order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Value, &[P])> {
        self.slots
            .iter()
            .zip(self.parts.chunks(self.m))
            .filter(|(slot, _)| slot.tag != 0)
            .map(|(slot, parts)| (&slot.key, parts))
    }

    /// Test-only: the table's own structural invariants.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self)
    where
        P: PartialEq + std::fmt::Debug,
    {
        assert_eq!(self.parts.len(), self.slots.len() * self.m);
        assert_eq!(self.len, self.entries().count(), "len counts the entries");
        assert!(self.len * LOAD_DEN <= self.slots.len() * LOAD_NUM);
        let mask = self.slots.len().wrapping_sub(1);
        for (i, slot) in self.slots.iter().enumerate() {
            let parts = self.entry(i);
            if slot.tag == 0 {
                assert!(parts.iter().all(|p| *p == P::default()), "{parts:?}");
                continue;
            }
            assert!(
                parts.iter().any(|p| *p != P::default()),
                "an entry holds something"
            );
            // No hole between an entry's home and its slot.
            let mut j = self.home(slot.tag);
            while j != i {
                assert_ne!(self.slots[j].tag, 0, "slot {i} is cut off from its home");
                j = (j + 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::hash::fx_hash;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const M: usize = 3;

    /// `head`'s positions at or above `floor`, ascending.
    fn live(head: &ChainHead, links: &[u32], floor: u32) -> Vec<u32> {
        let mut held = Vec::new();
        head.for_each_live(links, 0, floor, |p| held.push(p));
        held.reverse();
        held
    }

    #[test]
    fn a_chain_caches_the_newest_four_and_links_the_rest() {
        let mut head = ChainHead::default();
        let mut links = Vec::new();
        assert_eq!(head.newest(), NONE);
        for p in 0..9 {
            links.push(head.newest());
            head.push(p);
        }
        assert_eq!(head.recent, [8, 7, 6, 5]);
        assert_eq!(head.count(), 9);
        assert_eq!(links[0], NONE);
        assert!((1..9).all(|p| links[p] == p as u32 - 1));
        assert_eq!(live(&head, &links, 0), (0..9).collect::<Vec<_>>());
        assert_eq!(live(&head, &links, 3), (3..9).collect::<Vec<_>>());
        assert_eq!(live(&head, &links, 6), [6, 7, 8]);
        assert!(head.is_live(8) && !head.is_live(9));
        assert!(live(&head, &links, 9).is_empty());
        // A cached position below the floor ends the walk before the
        // links are read.
        assert_eq!(live(&head, &[], 6), [6, 7, 8]);
    }

    #[test]
    fn an_entry_is_kept_while_a_part_is_live() {
        let mut heads = [ChainHead::default(); M];
        heads[0].push(3);
        heads[1].push(7);
        assert!(
            keep_live(&heads, |s| [4, 7, 0][s]),
            "7 is at stream 1's floor"
        );
        assert!(!keep_live(&heads, |s| [4, 8, 0][s]));
        assert!(!keep_live(&[ChainHead::default(); M], |_| 0));
    }

    #[test]
    fn find_on_a_fresh_index_allocates_nothing() {
        let idx = JoinIndex::<ChainHead>::new(M);
        assert_eq!(idx.find(7, &Value::Int(7)), None);
        assert_eq!(idx.len(), 0);
        idx.assert_invariants();
    }

    #[test]
    fn home_slot_comes_from_the_high_bits() {
        // Keys of one partition differ only in their multiple of the
        // partition count; they must not share a home slot.
        let mut idx = JoinIndex::<Vec<u32>>::new(1);
        for local in 0..40i64 {
            let key = Value::Int(local * 120 + 17);
            let slot = idx.find_or_insert(fx_hash(&key), &key, |_| true);
            idx.entry_mut(slot)[0].push(local as u32);
        }
        let homes: std::collections::HashSet<usize> = idx
            .entries()
            .map(|(k, _)| idx.home(fx_hash(k) | 1))
            .collect();
        assert!(homes.len() > 20, "only {} distinct home slots", homes.len());
        idx.assert_invariants();
    }

    #[test]
    fn without_a_floor_growth_doubles_and_keeps_every_entry() {
        let mut idx = JoinIndex::<ChainHead>::new(2);
        let mut sizes = Vec::new();
        for k in 0..200i64 {
            let key = Value::Int(k);
            let slot = idx.find_or_insert(fx_hash(&key), &key, |h| keep_live(h, |_| 0));
            idx.entry_mut(slot)[(k % 2) as usize].push(k as u32);
            if sizes.last() != Some(&idx.slot_count()) {
                sizes.push(idx.slot_count());
            }
        }
        assert_eq!(sizes, [8, 16, 32, 64, 128, 256, 512]);
        assert_eq!(idx.len(), 200);
        idx.assert_invariants();
    }

    /// How a model test hashes its keys.
    #[derive(Debug, Clone, Copy)]
    enum Hashing {
        /// `fx_hash`, as the group does.
        Fx,
        /// One hash for every key: a single cluster, equality decides.
        Equal,
        /// 64 hashes whose home slots fall in the table's last quarter
        /// at any size, so clusters wrap around its end.
        Tail,
    }

    impl Hashing {
        fn hash(self, key: &Value) -> u64 {
            match self {
                Hashing::Fx => fx_hash(key),
                Hashing::Equal => 0xdead_beef,
                Hashing::Tail => !((fx_hash(key) >> 58) << 56),
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Reach `key`'s entry and push stream `s`'s next position onto
        /// its part `s`, recording the row's link.
        Push { key: u16, s: usize },
        /// Raise stream `s`'s floor by `n` positions (never past its
        /// next position).
        Raise { s: usize, n: u32 },
        /// Sweep the table.
        Sweep,
        /// Empty part `s` of every entry, then sweep.
        Clear { s: usize },
    }

    fn op_strategy(keys: u16) -> impl Strategy<Value = Op> {
        // Arms are unweighted: pushes outnumber floor raises so tables
        // fill and grow and chains run past the cached positions, and
        // one push in 40 is a sweep, one in 40 a clear.
        let push = || {
            (0..keys, 0..M, 0..40u8).prop_map(|(key, s, roll)| match roll {
                0 => Op::Clear { s },
                1 => Op::Sweep,
                _ => Op::Push { key, s },
            })
        };
        let raise = || (0..M, 1u32..12).prop_map(|(s, n)| Op::Raise { s, n });
        prop_oneof![push(), push(), push(), raise(), raise()]
    }

    fn key_of(k: u16) -> Value {
        // Text keys too: equality must look past the tag.
        if k.is_multiple_of(5) {
            Value::text(format!("key-{k}"))
        } else {
            Value::Int(k as i64 * 120 + 17)
        }
    }

    /// The model holds each key's live positions per stream: every model
    /// key is found, and its entry and the links yield exactly them above
    /// the floors; any other entry yields nothing live.
    fn check(
        idx: &JoinIndex<ChainHead>,
        links: &[Vec<u32>; M],
        model: &HashMap<Value, Vec<Vec<u32>>>,
        floors: &[u32; M],
        hashing: Hashing,
    ) {
        idx.assert_invariants();
        let yielded = |heads: &[ChainHead]| -> Vec<Vec<u32>> {
            (heads.iter().zip(links).zip(floors))
                .map(|((head, links), &floor)| live(head, links, floor))
                .collect()
        };
        for (key, lists) in model {
            let slot = idx
                .find(hashing.hash(key), key)
                .unwrap_or_else(|| panic!("{key} lost"));
            assert_eq!(&yielded(idx.entry(slot)), lists, "{key}");
        }
        for (key, heads) in idx.entries() {
            if !model.contains_key(key) {
                let held = yielded(heads);
                assert!(held.iter().all(Vec::is_empty), "{key} yields {held:?}");
            }
        }
    }

    fn run_model(ops: Vec<Op>, hashing: Hashing) {
        let mut idx = JoinIndex::<ChainHead>::new(M);
        // `links[s][p]`: the link of stream `s`'s row at position `p`.
        let mut links: [Vec<u32>; M] = Default::default();
        let mut model: HashMap<Value, Vec<Vec<u32>>> = HashMap::new();
        let mut floors = [0u32; M];
        for op in ops {
            let floor = |s: usize| floors[s];
            match op {
                Op::Push { key, s } => {
                    let key = key_of(key);
                    let slot =
                        idx.find_or_insert(hashing.hash(&key), &key, |h| keep_live(h, floor));
                    let head = &mut idx.entry_mut(slot)[s];
                    let next = links[s].len() as u32;
                    links[s].push(head.newest());
                    head.push(next);
                    model.entry(key).or_insert_with(|| vec![Vec::new(); M])[s].push(next);
                }
                Op::Raise { s, n } => {
                    floors[s] = (floors[s] + n).min(links[s].len() as u32);
                    let f = floors[s];
                    model.retain(|_, lists| {
                        lists[s].retain(|&p| p >= f);
                        lists.iter().any(|l| !l.is_empty())
                    });
                }
                Op::Sweep => {
                    idx.sweep(|h| keep_live(h, floor));
                    assert_eq!(idx.len(), model.len(), "a sweep keeps the live keys only");
                }
                Op::Clear { s } => {
                    idx.for_each_entry_mut(|heads| heads[s] = ChainHead::default());
                    idx.sweep(|h| keep_live(h, floor));
                    model.retain(|_, lists| {
                        lists[s].clear();
                        lists.iter().any(|l| !l.is_empty())
                    });
                    assert_eq!(idx.len(), model.len());
                }
            }
            // After every step — a sweep above all — each live key is
            // still reachable with its live positions.
            check(&idx, &links, &model, &floors, hashing);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: dcape_common::testing::proptest_cases(64),
            ..ProptestConfig::default()
        })]

        #[test]
        fn index_matches_hashmap_model(ops in proptest::collection::vec(op_strategy(300), 1..500)) {
            run_model(ops, Hashing::Fx);
        }

        #[test]
        fn equal_hashes_are_told_apart_by_key(
            ops in proptest::collection::vec(op_strategy(24), 1..300)
        ) {
            run_model(ops, Hashing::Equal);
        }

        #[test]
        fn clusters_wrap_around_the_tables_end(
            ops in proptest::collection::vec(op_strategy(60), 1..400)
        ) {
            run_model(ops, Hashing::Tail);
        }
    }
}
