//! The join index of one columnar partition group: one open-addressing
//! table for all `m` input streams.
//!
//! The adaptation unit keeps every input's partition for one ID
//! together, so one key lookup can serve all of them: an entry is a join
//! key plus `m` position lists, list `s` holding the row positions of
//! stream `s`'s rows with that key, ascending. Inserting a tuple pays one
//! [`find_or_insert`](JoinIndex::find_or_insert); the entry it yields
//! carries the `m - 1` lists to probe and the list to append to.
//!
//! * **Slot** — a `hash | 1` tag (0 marks an empty slot) and the key
//!   `Value`, in one array; the position lists sit beside it in a flat
//!   array, `m` per slot, so a probe walks tags and keys only.
//! * **Probe order** — linear from the home slot, which is taken from
//!   the **high** bits of the hash: keys within one partition are
//!   congruent modulo the partition count, and Fx's low bits are
//!   constant across such keys.
//! * **Dead positions** — the index never deletes in place. The caller
//!   knows, per stream, a *floor* below which every position is dead
//!   (a window purge retires rows by raising it), and lists lose their
//!   dead prefix when the caller trims the entry it reaches
//!   ([`trim`](JoinIndex::trim)) or when the table is swept.
//! * **Growth** — at 5/8 load the table is swept
//!   ([`sweep`](JoinIndex::sweep)): dead prefixes go, entries left with
//!   no position go, and the survivors are placed in a table sized for
//!   them — larger, the same or smaller — so a sliding window over keys
//!   that never repeat keeps the table within a constant of its live
//!   keys.
//!
//! The caller passes the hash in, so tests can force collisions and home
//! slots at the table's end.

use dcape_common::value::Value;

/// Positions a list holds inline before it spills to the heap.
const INLINE: usize = 3;
/// Slots of a table's first allocation (a power of two).
const MIN_SLOTS: usize = 8;
/// Maximum load is `LOAD_NUM / LOAD_DEN`.
const LOAD_NUM: usize = 5;
const LOAD_DEN: usize = 8;

/// Ascending row positions of one (key, stream).
#[derive(Debug)]
pub(crate) enum PosList {
    Inline { len: u8, pos: [u32; INLINE] },
    Heap(Vec<u32>),
}

impl Default for PosList {
    fn default() -> Self {
        PosList::Inline {
            len: 0,
            pos: [0; INLINE],
        }
    }
}

impl PosList {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            PosList::Inline { len, pos } => &pos[..*len as usize],
            PosList::Heap(v) => v,
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Append `p`, which the caller guarantees is above every held
    /// position.
    #[inline]
    pub(crate) fn push(&mut self, p: u32) {
        match self {
            PosList::Inline { len, pos } => {
                let n = *len as usize;
                if n < INLINE {
                    pos[n] = p;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(2 * INLINE + 2);
                    v.extend_from_slice(pos);
                    v.push(p);
                    *self = PosList::Heap(v);
                }
            }
            PosList::Heap(v) => v.push(p),
        }
    }

    /// Drop the prefix of positions below `cut`. A list whose first
    /// position is at or above `cut` is left as it is after one
    /// comparison. A spilled list left with at most [`INLINE`]
    /// positions moves back inline: entries outlive their rows, so a
    /// list that spilled once would otherwise stay on the heap, and a
    /// probe would read it there.
    #[inline]
    pub(crate) fn drop_below(&mut self, cut: u32) {
        let held = self.as_slice();
        if held.first().is_none_or(|&p| p >= cut) {
            return;
        }
        let dead = held.partition_point(|&p| p < cut);
        match self {
            PosList::Inline { len, pos } => {
                pos.copy_within(dead..*len as usize, 0);
                *len -= dead as u8;
            }
            PosList::Heap(v) if v.len() - dead <= INLINE => {
                let mut pos = [0; INLINE];
                pos[..v.len() - dead].copy_from_slice(&v[dead..]);
                *self = PosList::Inline {
                    len: (v.len() - dead) as u8,
                    pos,
                };
            }
            PosList::Heap(v) => {
                v.drain(..dead);
            }
        }
    }

    /// Keep the positions `f` accepts, letting it rewrite each in place.
    pub(crate) fn retain_mut(&mut self, mut f: impl FnMut(&mut u32) -> bool) {
        match self {
            PosList::Inline { len, pos } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    let mut p = pos[i];
                    if f(&mut p) {
                        pos[kept] = p;
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            PosList::Heap(v) => v.retain_mut(f),
        }
    }
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

/// Join key → `m` position lists, for one partition group.
///
/// Between calls every entry holds at least one position, live or dead:
/// the caller fills the list it asked the entry for, and a sweep removes
/// the entries it leaves with none. What is live is the caller's to say,
/// as a floor per stream (`floor(s)`: list `s`'s positions below it are
/// dead); the index only drops what lies below it, never what lies above.
#[derive(Debug)]
pub(crate) struct JoinIndex {
    /// Lists per entry (the join's stream count).
    m: usize,
    /// Empty until the first insert, then a power-of-two length.
    slots: Vec<Slot>,
    /// `m` lists per slot: slot `i` owns `lists[i * m..(i + 1) * m]`.
    lists: Vec<PosList>,
    len: usize,
    /// `64 - log2(slots.len())`: the home slot is `tag >> shift`.
    shift: u32,
}

impl JoinIndex {
    pub(crate) fn new(m: usize) -> Self {
        JoinIndex {
            m,
            slots: Vec::new(),
            lists: Vec::new(),
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

    /// The slot of `key`, entered with `m` empty lists (and `key`
    /// cloned) if it was absent. When a new entry would pass the load
    /// limit the table is [swept](Self::sweep) under `floor` first. The
    /// slot is good until the next insertion or sweep.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        key: &Value,
        floor: impl Fn(usize) -> u32,
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
        self.sweep(floor);
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

    /// The `m` lists of the entry at `slot`.
    #[inline]
    pub(crate) fn lists(&self, slot: usize) -> &[PosList] {
        &self.lists[slot * self.m..(slot + 1) * self.m]
    }

    /// Stream `s`'s list of the entry at `slot`.
    #[inline]
    pub(crate) fn list_mut(&mut self, slot: usize, s: usize) -> &mut PosList {
        debug_assert!(s < self.m);
        &mut self.lists[slot * self.m + s]
    }

    /// Drop the dead prefix of each list of the entry at `slot`. A
    /// stream whose floor is 0 has no dead positions, and its list is
    /// not read.
    #[inline]
    pub(crate) fn trim(&mut self, slot: usize, floor: impl Fn(usize) -> u32) {
        let lists = &mut self.lists[slot * self.m..(slot + 1) * self.m];
        for (s, list) in lists.iter_mut().enumerate() {
            let f = floor(s);
            if f > 0 {
                list.drop_below(f);
            }
        }
    }

    /// Apply `f` to stream `s`'s list of every entry. May leave entries
    /// with no positions: follow with [`sweep`](Self::sweep) if `f`
    /// removes any.
    pub(crate) fn for_each_list_mut(&mut self, s: usize, mut f: impl FnMut(&mut PosList)) {
        debug_assert!(s < self.m);
        for (slot, lists) in self.slots.iter().zip(self.lists.chunks_mut(self.m)) {
            if slot.tag != 0 {
                f(&mut lists[s]);
            }
        }
    }

    /// Drop every list's positions below `floor` of its stream, then
    /// re-place the entries that still hold one into a fresh table with
    /// room for twice as many: the smallest power of two at which they
    /// fill at most half the load limit. Growth, a shrink after a
    /// window has slid past most keys, and the removal of emptied
    /// entries are all this one pass. O(slots + positions dropped).
    pub(crate) fn sweep(&mut self, floor: impl Fn(usize) -> u32) {
        let m = self.m;
        let mut survivors = 0;
        for (slot, lists) in self.slots.iter_mut().zip(self.lists.chunks_mut(m)) {
            if slot.tag == 0 {
                continue;
            }
            for (s, list) in lists.iter_mut().enumerate() {
                list.drop_below(floor(s));
            }
            if lists.iter().all(PosList::is_empty) {
                slot.tag = 0;
            } else {
                survivors += 1;
            }
        }
        let mut slots = MIN_SLOTS;
        while 2 * survivors * LOAD_DEN > slots * LOAD_NUM {
            slots *= 2;
        }
        let old_slots = std::mem::take(&mut self.slots);
        let mut old_lists = std::mem::take(&mut self.lists);
        self.slots.resize_with(slots, Slot::empty);
        self.lists.resize_with(slots * m, PosList::default);
        self.shift = 64 - slots.trailing_zeros();
        self.len = survivors;
        let mask = slots - 1;
        for (slot, lists) in old_slots.into_iter().zip(old_lists.chunks_mut(m)) {
            if slot.tag == 0 {
                continue;
            }
            let mut i = self.home(slot.tag);
            while self.slots[i].tag != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
            self.lists[i * m..(i + 1) * m].swap_with_slice(lists);
        }
    }

    /// Every entry's key and lists, in slot order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Value, &[PosList])> {
        self.slots
            .iter()
            .zip(self.lists.chunks(self.m))
            .filter(|(slot, _)| slot.tag != 0)
            .map(|(slot, lists)| (&slot.key, lists))
    }

    /// Test-only: the table's own structural invariants.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        assert_eq!(self.lists.len(), self.slots.len() * self.m);
        assert_eq!(self.len, self.entries().count(), "len counts the entries");
        assert!(self.len * LOAD_DEN <= self.slots.len() * LOAD_NUM);
        let mask = self.slots.len().wrapping_sub(1);
        for (i, slot) in self.slots.iter().enumerate() {
            let lists = self.lists(i);
            if slot.tag == 0 {
                assert!(lists.iter().all(PosList::is_empty));
                continue;
            }
            assert!(
                lists.iter().any(|l| !l.is_empty()),
                "an entry holds a position"
            );
            for l in lists {
                assert!(l.as_slice().windows(2).all(|w| w[0] < w[1]));
            }
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

    #[test]
    fn pos_list_spills_after_three_and_stays_a_slice() {
        let mut l = PosList::default();
        assert!(l.is_empty());
        for p in 0..3 {
            l.push(p * 2);
        }
        assert!(matches!(l, PosList::Inline { len: 3, .. }));
        assert_eq!(l.as_slice(), [0, 2, 4]);
        l.push(9);
        assert!(matches!(l, PosList::Heap(_)));
        assert_eq!(l.as_slice(), [0, 2, 4, 9]);
        l.drop_below(0);
        assert!(
            matches!(l, PosList::Heap(_)),
            "nothing dropped, nothing moves"
        );
        l.drop_below(3);
        assert!(matches!(l, PosList::Inline { len: 2, .. }), "back inline");
        assert_eq!(l.as_slice(), [4, 9]);
        l.retain_mut(|p| {
            *p -= 4;
            *p != 0
        });
        assert_eq!(l.as_slice(), [5]);
        l.drop_below(100);
        assert!(l.is_empty());
    }

    #[test]
    fn inline_list_drops_and_remaps_in_place() {
        let mut l = PosList::default();
        for p in [3, 5, 8] {
            l.push(p);
        }
        l.drop_below(5);
        assert_eq!(l.as_slice(), [5, 8]);
        l.push(11);
        l.retain_mut(|p| {
            *p += 1;
            *p != 9
        });
        assert_eq!(l.as_slice(), [6, 12]);
        l.drop_below(0);
        assert_eq!(l.as_slice(), [6, 12]);
    }

    #[test]
    fn find_on_a_fresh_index_allocates_nothing() {
        let idx = JoinIndex::new(M);
        assert_eq!(idx.find(7, &Value::Int(7)), None);
        assert_eq!(idx.len(), 0);
        idx.assert_invariants();
    }

    #[test]
    fn home_slot_comes_from_the_high_bits() {
        // Keys of one partition differ only in their multiple of the
        // partition count; they must not share a home slot.
        let mut idx = JoinIndex::new(1);
        for local in 0..40i64 {
            let key = Value::Int(local * 120 + 17);
            let slot = idx.find_or_insert(fx_hash(&key), &key, |_| 0);
            idx.list_mut(slot, 0).push(local as u32);
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
        let mut idx = JoinIndex::new(2);
        let mut sizes = Vec::new();
        for k in 0..200i64 {
            let key = Value::Int(k);
            let slot = idx.find_or_insert(fx_hash(&key), &key, |_| 0);
            idx.list_mut(slot, (k % 2) as usize).push(k as u32);
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
        /// Reach `key`'s entry, trim it, and append the next position to
        /// its list `s`.
        Push { key: u16, s: usize },
        /// Raise stream `s`'s floor by `n` positions (never past the
        /// next position).
        Raise { s: usize, n: u32 },
        /// Sweep the table.
        Sweep,
        /// Empty list `s` of every key, then sweep.
        Clear { s: usize },
    }

    fn op_strategy(keys: u16) -> impl Strategy<Value = Op> {
        // Arms are unweighted: pushes outnumber floor raises so tables
        // fill and grow, and one push in 40 is a sweep, one in 40 a
        // clear.
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

    /// The model holds each key's live positions: every model key is
    /// found with them above the floors; any other entry holds only
    /// dead positions; a trimmed or swept list holds no dead one.
    fn check(
        idx: &JoinIndex,
        model: &HashMap<Value, Vec<Vec<u32>>>,
        floors: &[u32; M],
        hashing: Hashing,
    ) {
        idx.assert_invariants();
        for (key, lists) in model {
            let slot = idx
                .find(hashing.hash(key), key)
                .unwrap_or_else(|| panic!("{key} lost"));
            let live: Vec<&[u32]> = (idx.lists(slot).iter().zip(floors))
                .map(|(l, &f)| {
                    let held = l.as_slice();
                    &held[held.partition_point(|&p| p < f)..]
                })
                .collect();
            assert_eq!(live, lists.iter().map(Vec::as_slice).collect::<Vec<_>>());
        }
        for (key, lists) in idx.entries() {
            if !model.contains_key(key) {
                let mut held = lists.iter().zip(floors);
                let dead = held.all(|(l, &f)| l.as_slice().iter().all(|&p| p < f));
                assert!(dead, "{key} holds a live position the model lacks");
            }
        }
    }

    fn run_model(ops: Vec<Op>, hashing: Hashing) {
        let mut idx = JoinIndex::new(M);
        let mut model: HashMap<Value, Vec<Vec<u32>>> = HashMap::new();
        let mut floors = [0u32; M];
        let mut next = 0u32;
        for op in ops {
            let floor = |s: usize| floors[s];
            match op {
                Op::Push { key, s } => {
                    let key = key_of(key);
                    let slot = idx.find_or_insert(hashing.hash(&key), &key, floor);
                    idx.trim(slot, floor);
                    for (l, &f) in idx.lists(slot).iter().zip(&floors) {
                        assert!(l.as_slice().iter().all(|&p| p >= f), "trimmed");
                    }
                    idx.list_mut(slot, s).push(next);
                    model.entry(key).or_insert_with(|| vec![Vec::new(); M])[s].push(next);
                    next += 1;
                }
                Op::Raise { s, n } => {
                    floors[s] = (floors[s] + n).min(next);
                    let f = floors[s];
                    model.retain(|_, lists| {
                        lists[s].retain(|&p| p >= f);
                        lists.iter().any(|l| !l.is_empty())
                    });
                }
                Op::Sweep => {
                    idx.sweep(floor);
                    assert_eq!(idx.len(), model.len(), "a sweep keeps the live keys only");
                }
                Op::Clear { s } => {
                    idx.for_each_list_mut(s, |l| l.retain_mut(|_| false));
                    idx.sweep(floor);
                    model.retain(|_, lists| {
                        lists[s].clear();
                        lists.iter().any(|l| !l.is_empty())
                    });
                    assert_eq!(idx.len(), model.len());
                }
            }
            // After every step — a sweep above all — each live key is
            // still reachable.
            check(&idx, &model, &floors, hashing);
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
