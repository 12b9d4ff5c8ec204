//! The join index of one columnar partition group: one open-addressing
//! table for all `m` input streams.
//!
//! The adaptation unit keeps every input's partition for one ID
//! together, so one key lookup can serve all of them: an entry is a join
//! key plus `m` position lists, list `s` holding the physical row
//! positions of stream `s`'s rows with that key, ascending. Inserting a
//! tuple pays one [`find_or_insert`](JoinIndex::find_or_insert); the
//! entry it yields carries the `m - 1` lists to probe and the list to
//! append to.
//!
//! * **Slot** — a `hash | 1` tag (0 marks an empty slot) and the key
//!   `Value`, in one array; the position lists sit beside it in a flat
//!   array, `m` per slot, so a probe walks tags and keys only.
//! * **Probe order** — linear from the home slot, which is taken from
//!   the **high** bits of the hash: keys within one partition are
//!   congruent modulo the partition count, and Fx's low bits are
//!   constant across such keys.
//! * **Deletion** — backward shift: the entries after the removed one
//!   move up while that keeps them reachable from their home slots, so
//!   a sliding window's churn never leaves tombstones.
//! * **Growth** — doubling at 5/8 load; the table never shrinks (an
//!   emptied group is dropped whole by the operator).
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

    /// Drop the prefix of positions below `cut`. A spilled list keeps
    /// its allocation: a key that was busy once is likely to be again.
    pub(crate) fn drop_below(&mut self, cut: u32) {
        let dead = self.as_slice().partition_point(|&p| p < cut);
        match self {
            PosList::Inline { len, pos } => {
                pos.copy_within(dead..*len as usize, 0);
                *len -= dead as u8;
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
/// Between calls every entry has at least one non-empty list: the caller
/// fills the list it asked the entry for, and removes an entry through
/// [`remove_if_empty`](Self::remove_if_empty) or
/// [`drop_empty_entries`](Self::drop_empty_entries) once its last list
/// drains.
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
    /// cloned) if it was absent. The slot is good until the next
    /// insertion or removal.
    #[inline]
    pub(crate) fn find_or_insert(&mut self, hash: u64, key: &Value) -> usize {
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
        self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
        let i = self.probe(tag, key).expect_err("absent before the rehash");
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

    /// Remove the entry at `slot` if all its lists are empty.
    pub(crate) fn remove_if_empty(&mut self, slot: usize) {
        if self.lists(slot).iter().all(PosList::is_empty) {
            self.remove(slot);
        }
    }

    /// Backward-shift deletion: each later entry of the cluster moves
    /// into the hole unless its home slot lies past the hole, in which
    /// case the hole would cut it off from its probe sequence.
    fn remove(&mut self, mut hole: usize) {
        let (m, mask) = (self.m, self.slots.len() - 1);
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let tag = self.slots[j].tag;
            if tag == 0 {
                break;
            }
            let from_home = j.wrapping_sub(self.home(tag)) & mask;
            let from_hole = j.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.slots.swap(hole, j);
                for s in 0..m {
                    self.lists.swap(hole * m + s, j * m + s);
                }
                hole = j;
            }
        }
        self.slots[hole] = Slot::empty();
        self.lists[hole * m..(hole + 1) * m].fill_with(PosList::default);
        self.len -= 1;
    }

    /// Apply `f` to stream `s`'s list of every entry. May leave entries
    /// with no positions: follow with
    /// [`drop_empty_entries`](Self::drop_empty_entries) if `f` removes
    /// any.
    pub(crate) fn for_each_list_mut(&mut self, s: usize, mut f: impl FnMut(&mut PosList)) {
        debug_assert!(s < self.m);
        for (slot, lists) in self.slots.iter().zip(self.lists.chunks_mut(self.m)) {
            if slot.tag != 0 {
                f(&mut lists[s]);
            }
        }
    }

    /// Remove every entry whose lists are all empty. O(slots).
    pub(crate) fn drop_empty_entries(&mut self) {
        if !self.slots.is_empty() {
            self.rehash(self.slots.len());
        }
    }

    /// Re-place every entry that holds a position into a fresh table of
    /// `slots` slots.
    fn rehash(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= MIN_SLOTS);
        let m = self.m;
        let old_slots = std::mem::take(&mut self.slots);
        let mut old_lists = std::mem::take(&mut self.lists);
        self.slots.resize_with(slots, Slot::empty);
        self.lists.resize_with(slots * m, PosList::default);
        self.shift = 64 - slots.trailing_zeros();
        self.len = 0;
        let mask = slots - 1;
        for (slot, lists) in old_slots.into_iter().zip(old_lists.chunks_mut(m)) {
            if slot.tag == 0 || lists.iter().all(PosList::is_empty) {
                continue;
            }
            let mut i = self.home(slot.tag);
            while self.slots[i].tag != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
            self.lists[i * m..(i + 1) * m].swap_with_slice(lists);
            self.len += 1;
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
        l.drop_below(3);
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
            let slot = idx.find_or_insert(fx_hash(&key), &key);
            idx.list_mut(slot, 0).push(local as u32);
        }
        let homes: std::collections::HashSet<usize> = idx
            .entries()
            .map(|(k, _)| idx.home(fx_hash(k) | 1))
            .collect();
        assert!(homes.len() > 20, "only {} distinct home slots", homes.len());
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
        /// Append the next position to list `s` of `key`.
        Push { key: u16, s: usize },
        /// Drop the oldest `n` positions of list `s` of `key`, removing
        /// the entry when that empties it.
        Drop { key: u16, s: usize, n: usize },
        /// Empty list `s` of every key, then sweep.
        Clear { s: usize },
    }

    fn op_strategy(keys: u16) -> impl Strategy<Value = Op> {
        // Arms are unweighted: pushes outnumber drops so tables fill
        // and grow, and one push in 40 is a sweep instead.
        let push = || {
            (0..keys, 0..M, 0..40u8).prop_map(|(key, s, roll)| match roll {
                0 => Op::Clear { s },
                _ => Op::Push { key, s },
            })
        };
        let drop = || (0..keys, 0..M, 1usize..6).prop_map(|(key, s, n)| Op::Drop { key, s, n });
        prop_oneof![push(), push(), push(), drop(), drop()]
    }

    fn key_of(k: u16) -> Value {
        // Text keys too: equality must look past the tag.
        if k.is_multiple_of(5) {
            Value::text(format!("key-{k}"))
        } else {
            Value::Int(k as i64 * 120 + 17)
        }
    }

    /// Every model key is found with its lists; nothing else is held.
    fn check(idx: &JoinIndex, model: &HashMap<Value, Vec<Vec<u32>>>, hashing: Hashing) {
        idx.assert_invariants();
        assert_eq!(idx.len(), model.len());
        for (key, lists) in model {
            let slot = idx
                .find(hashing.hash(key), key)
                .unwrap_or_else(|| panic!("{key} lost"));
            let held: Vec<&[u32]> = idx.lists(slot).iter().map(PosList::as_slice).collect();
            assert_eq!(held, lists.iter().map(Vec::as_slice).collect::<Vec<_>>());
        }
    }

    fn run_model(ops: Vec<Op>, hashing: Hashing) {
        let mut idx = JoinIndex::new(M);
        let mut model: HashMap<Value, Vec<Vec<u32>>> = HashMap::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                Op::Push { key, s } => {
                    let key = key_of(key);
                    let slot = idx.find_or_insert(hashing.hash(&key), &key);
                    idx.list_mut(slot, s).push(next);
                    model.entry(key).or_insert_with(|| vec![Vec::new(); M])[s].push(next);
                    next += 1;
                }
                Op::Drop { key, s, n } => {
                    let key = key_of(key);
                    let slot = idx.find(hashing.hash(&key), &key);
                    assert_eq!(slot.is_some(), model.contains_key(&key));
                    let Some(slot) = slot else { continue };
                    let lists = model.get_mut(&key).expect("found in both");
                    let n = n.min(lists[s].len());
                    let cut = lists[s].get(n).copied().unwrap_or(u32::MAX);
                    lists[s].drain(..n);
                    idx.list_mut(slot, s).drop_below(cut);
                    idx.remove_if_empty(slot);
                    if lists.iter().all(Vec::is_empty) {
                        model.remove(&key);
                    }
                }
                Op::Clear { s } => {
                    idx.for_each_list_mut(s, |l| l.retain_mut(|_| false));
                    idx.drop_empty_entries();
                    model.retain(|_, lists| {
                        lists[s].clear();
                        lists.iter().any(|l| !l.is_empty())
                    });
                }
            }
            // After every step — a removal above all — each remaining
            // key is still reachable.
            check(&idx, &model, hashing);
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
