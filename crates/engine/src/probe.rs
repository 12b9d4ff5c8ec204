//! Probe spans: the join's result-delivery unit.
//!
//! One symmetric-hash-join insert (or one cleanup choice vector)
//! produces a cartesian product of per-stream candidate lists. Instead
//! of walking the product and paying one virtual
//! [`emit`](crate::sink::ResultSink::emit) per combination, the
//! producer hands the whole product to the sink as a [`ProbeSpans`] —
//! one virtual call. A count-only sink can then count in O(m) (product
//! of list lengths) instead of enumerating, and windowed counts are
//! resolved by binary-search trimming with an exact odometer fallback
//! only for straddling spans. Enumerating sinks keep exact per-result
//! semantics through [`ProbeSpans::for_each_valid`], which walks the
//! same odometer order as the pre-span code.

use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;

/// Streams per join that the stack-allocated probe machinery covers
/// without heap allocation (the paper's experiments use 3; anything
/// above this falls back to a `Vec`).
pub const INLINE_STREAMS: usize = 8;

/// One per-stream candidate list of a probe product.
///
/// The tuple storage is borrowed from the group (or cleanup segment)
/// for the duration of a single `emit_product` call, so delivery is
/// zero-copy and allocation-free.
#[derive(Clone, Copy, Debug)]
pub enum SpanList<'a> {
    /// A single tuple (the probing tuple's own slot).
    One(&'a Tuple),
    /// A contiguous run of tuples (cleanup segments).
    Slice(&'a [Tuple]),
    /// Match positions into a stream partition's timestamp column — no
    /// row storage behind it. Producers hand this to sinks that
    /// answered [`wants_rows() == false`](crate::sink::ResultSink::wants_rows):
    /// counting needs only lengths and timestamps, so the join state
    /// never materializes rows. Calling [`SpanList::get`] on it
    /// is a contract violation and panics.
    TsOnly {
        /// The stream's timestamp column.
        ts: &'a [VirtualTime],
        /// The position of `ts[0]`: position `p` is `ts[p - base]`.
        base: u32,
        /// Positions of the matching tuples, in arrival order, none
        /// below `base`.
        positions: &'a [u32],
    },
    /// Only the number of matching tuples: for a sink that answered
    /// [`wants_rows() == false`](crate::sink::ResultSink::wants_rows) on
    /// a join without a window, whose count is the product of lengths.
    /// It has neither rows nor timestamps — [`SpanList::get`] and a
    /// windowed count over it panic.
    Len(usize),
}

impl<'a> SpanList<'a> {
    /// Number of candidate tuples in this list.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SpanList::One(_) => 1,
            SpanList::Slice(s) => s.len(),
            SpanList::TsOnly { positions, .. } => positions.len(),
            SpanList::Len(n) => *n,
        }
    }

    /// True when the list holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th candidate tuple. Panics on [`SpanList::TsOnly`] and
    /// [`SpanList::Len`] (counting sinks promised through
    /// [`wants_rows`](crate::sink::ResultSink::wants_rows) never to
    /// enumerate).
    #[inline]
    pub fn get(&self, i: usize) -> &'a Tuple {
        match self {
            SpanList::One(t) => t,
            SpanList::Slice(s) => &s[i],
            SpanList::TsOnly { .. } | SpanList::Len(_) => {
                panic!("a rowless SpanList: sink broke its wants_rows() == false promise")
            }
        }
    }

    #[inline]
    fn ts_at(&self, i: usize) -> u64 {
        match self {
            SpanList::TsOnly {
                ts,
                base,
                positions,
            } => ts[(positions[i] - base) as usize].as_millis(),
            SpanList::Len(_) => {
                panic!("SpanList::Len has no timestamps: it is for a join without a window")
            }
            _ => self.get(i).ts().as_millis(),
        }
    }

    /// Min/max timestamp and ts-nondecreasing flag over the whole list,
    /// in one O(len) pass.
    fn scan_ts(&self) -> (u64, u64, bool) {
        let (mut min, mut max) = (u64::MAX, 0u64);
        let mut sorted = true;
        let mut prev = 0u64;
        for i in 0..self.len() {
            let ts = self.ts_at(i);
            min = min.min(ts);
            max = max.max(ts);
            sorted &= i == 0 || ts >= prev;
            prev = ts;
        }
        (min, max, sorted)
    }

    /// Smallest index in `[0, len)` whose ts is not less than `bound`
    /// (`strict == false`) or strictly greater than it (`strict == true`).
    /// Requires a ts-nondecreasing list.
    fn partition_point(&self, bound: u64, strict: bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ts = self.ts_at(mid);
            let below = if strict { ts <= bound } else { ts < bound };
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The full result product of one probe: one [`SpanList`] per input
/// stream (stream order), plus the join's window and a sortedness
/// promise from the producer.
#[derive(Debug)]
pub struct ProbeSpans<'l, 'a> {
    lists: &'l [SpanList<'a>],
    window: Option<VirtualDuration>,
    /// Producer's promise that every list is ts-nondecreasing. When
    /// `false` (e.g. cleanup lists stitched from several engines'
    /// segments), sortedness is re-detected during the extent scan and
    /// unsorted lists fall back to exact counting.
    ts_sorted: bool,
}

impl<'l, 'a> ProbeSpans<'l, 'a> {
    /// Package candidate lists for delivery.
    pub fn new(
        lists: &'l [SpanList<'a>],
        window: Option<VirtualDuration>,
        ts_sorted: bool,
    ) -> Self {
        ProbeSpans {
            lists,
            window,
            ts_sorted,
        }
    }

    /// The per-stream candidate lists, in stream order.
    pub fn lists(&self) -> &'l [SpanList<'a>] {
        self.lists
    }

    /// The join's sliding window, if any.
    pub fn window(&self) -> Option<VirtualDuration> {
        self.window
    }

    /// Size of the unfiltered cartesian product (saturating).
    pub fn total_combinations(&self) -> u64 {
        if self.lists.is_empty() {
            return 0;
        }
        self.lists
            .iter()
            .fold(1u64, |acc, l| acc.saturating_mul(l.len() as u64))
    }

    /// Number of window-valid combinations, computed without
    /// enumeration where possible:
    ///
    /// * no window — the product of list lengths, O(m);
    /// * windowed, global ts range already within W — same product;
    /// * windowed, sorted lists — each list is trimmed by binary search
    ///   to `[L−W, U+W]` (`L` = max per-list min ts, `U` = min per-list
    ///   max ts; every element of a valid combination provably lies in
    ///   that interval), and if the trimmed global range fits in W the
    ///   trimmed product is exact; otherwise only the trimmed bounds
    ///   are enumerated;
    /// * unsorted lists — exact odometer count over the full lists.
    pub fn count_valid(&self) -> u64 {
        let m = self.lists.len();
        if m == 0 || self.lists.iter().any(SpanList::is_empty) {
            return 0;
        }
        let Some(window) = self.window else {
            return self.total_combinations();
        };
        let w = window.as_millis();
        if m <= INLINE_STREAMS {
            let mut stats = [(0u64, 0u64, false); INLINE_STREAMS];
            let mut bounds = [(0usize, 0usize); INLINE_STREAMS];
            let mut counters = [0usize; INLINE_STREAMS];
            self.count_windowed(w, &mut stats[..m], &mut bounds[..m], &mut counters[..m])
        } else {
            let mut stats = vec![(0u64, 0u64, false); m];
            let mut bounds = vec![(0usize, 0usize); m];
            let mut counters = vec![0usize; m];
            self.count_windowed(w, &mut stats, &mut bounds, &mut counters)
        }
    }

    fn count_windowed(
        &self,
        w: u64,
        stats: &mut [(u64, u64, bool)],
        bounds: &mut [(usize, usize)],
        counters: &mut [usize],
    ) -> u64 {
        let (mut global_min, mut global_max) = (u64::MAX, 0u64);
        // L = max of per-list min ts, U = min of per-list max ts.
        let (mut anchor_lo, mut anchor_hi) = (0u64, u64::MAX);
        let mut all_sorted = true;
        for (i, list) in self.lists.iter().enumerate() {
            let s = if self.ts_sorted {
                (list.ts_at(0), list.ts_at(list.len() - 1), true)
            } else {
                list.scan_ts()
            };
            stats[i] = s;
            global_min = global_min.min(s.0);
            global_max = global_max.max(s.1);
            anchor_lo = anchor_lo.max(s.0);
            anchor_hi = anchor_hi.min(s.1);
            all_sorted &= s.2;
        }
        if global_max - global_min <= w {
            return self.total_combinations();
        }
        if !all_sorted {
            // Can't binary-search unsorted lists: exact count over the
            // full extents.
            for (i, list) in self.lists.iter().enumerate() {
                bounds[i] = (0, list.len());
            }
            return self.count_exact(bounds, counters, w);
        }
        // Every element of a window-valid combination lies in
        // [L−W, U+W]: the combination's max is ≥ L (it contains an
        // element from the list whose minimum is L) and its min is ≤ U,
        // so an element below L−W or above U+W would stretch the range
        // past W.
        let lo_ts = anchor_lo.saturating_sub(w);
        let hi_ts = anchor_hi.saturating_add(w);
        let mut product = 1u64;
        let (mut trimmed_min, mut trimmed_max) = (u64::MAX, 0u64);
        for (i, list) in self.lists.iter().enumerate() {
            let lo = list.partition_point(lo_ts, false);
            let hi = list.partition_point(hi_ts, true);
            if lo >= hi {
                return 0;
            }
            bounds[i] = (lo, hi);
            trimmed_min = trimmed_min.min(list.ts_at(lo));
            trimmed_max = trimmed_max.max(list.ts_at(hi - 1));
            product = product.saturating_mul((hi - lo) as u64);
        }
        if trimmed_max - trimmed_min <= w {
            return product;
        }
        self.count_exact(bounds, counters, w)
    }

    /// Odometer count of window-valid combinations over `bounds`.
    fn count_exact(&self, bounds: &[(usize, usize)], counters: &mut [usize], w: u64) -> u64 {
        let m = self.lists.len();
        for (c, b) in counters.iter_mut().zip(bounds) {
            *c = b.0;
        }
        let mut count = 0u64;
        'outer: loop {
            let (mut min, mut max) = (u64::MAX, 0u64);
            for (i, list) in self.lists.iter().enumerate() {
                let ts = list.ts_at(counters[i]);
                min = min.min(ts);
                max = max.max(ts);
            }
            if max - min <= w {
                count += 1;
            }
            for i in (0..m).rev() {
                counters[i] += 1;
                if counters[i] < bounds[i].1 {
                    continue 'outer;
                }
                counters[i] = bounds[i].0;
            }
            break;
        }
        count
    }

    /// Enumerate every window-valid combination in odometer order
    /// (stream order, last list fastest — the same order the
    /// pre-span join produced). `parts[s]` is the tuple from stream `s`.
    pub fn for_each_valid<F: FnMut(&[&Tuple])>(&self, mut f: F) {
        let m = self.lists.len();
        if m == 0 || self.lists.iter().any(SpanList::is_empty) {
            return;
        }
        if m <= INLINE_STREAMS {
            let mut parts = [self.lists[0].get(0); INLINE_STREAMS];
            let mut counters = [0usize; INLINE_STREAMS];
            self.walk(&mut parts[..m], &mut counters[..m], &mut f);
        } else {
            let mut parts: Vec<&Tuple> = self.lists.iter().map(|l| l.get(0)).collect();
            let mut counters = vec![0usize; m];
            self.walk(&mut parts, &mut counters, &mut f);
        }
    }

    fn walk(&self, parts: &mut [&'a Tuple], counters: &mut [usize], f: &mut impl FnMut(&[&Tuple])) {
        let m = self.lists.len();
        // Window check hoisted out of the loop entirely for unwindowed
        // joins.
        match self.window {
            None => 'outer: loop {
                for i in 0..m {
                    parts[i] = self.lists[i].get(counters[i]);
                }
                f(parts);
                for i in (0..m).rev() {
                    counters[i] += 1;
                    if counters[i] < self.lists[i].len() {
                        continue 'outer;
                    }
                    counters[i] = 0;
                }
                break;
            },
            Some(window) => {
                let w = window.as_millis();
                'outer: loop {
                    let (mut min, mut max) = (u64::MAX, 0u64);
                    for i in 0..m {
                        let t = self.lists[i].get(counters[i]);
                        parts[i] = t;
                        let ts = t.ts().as_millis();
                        min = min.min(ts);
                        max = max.max(ts);
                    }
                    if max - min <= w {
                        f(parts);
                    }
                    for i in (0..m).rev() {
                        counters[i] += 1;
                        if counters[i] < self.lists[i].len() {
                            continue 'outer;
                        }
                        counters[i] = 0;
                    }
                    break;
                }
            }
        }
    }
}

/// True when all parts' timestamps fit within the window span (or no
/// window is configured).
#[inline]
pub fn within_window(window: Option<VirtualDuration>, parts: &[&Tuple]) -> bool {
    let Some(window) = window else {
        return true;
    };
    let (mut min, mut max) = (u64::MAX, 0u64);
    for t in parts {
        let ms = t.ts().as_millis();
        min = min.min(ms);
        max = max.max(ms);
    }
    max - min <= window.as_millis()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::time::VirtualTime;
    use dcape_common::tuple::TupleBuilder;

    fn tpl(stream: u8, ts: u64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(ts)
            .ts(VirtualTime::from_millis(ts))
            .value(1i64)
            .build()
    }

    fn make_lists(ts_lists: &[&[u64]]) -> Vec<Vec<Tuple>> {
        ts_lists
            .iter()
            .enumerate()
            .map(|(s, tss)| tss.iter().map(|&ts| tpl(s as u8, ts)).collect())
            .collect()
    }

    /// Oracle: enumerate and check every combination with within_window.
    fn brute_count(lists: &[Vec<Tuple>], window: Option<VirtualDuration>) -> u64 {
        let spans: Vec<SpanList> = lists.iter().map(|l| SpanList::Slice(l)).collect();
        let mut n = 0u64;
        ProbeSpans::new(&spans, None, false).for_each_valid(|parts| {
            if within_window(window, parts) {
                n += 1;
            }
        });
        n
    }

    fn check(ts_lists: &[&[u64]], window_ms: Option<u64>, sorted: bool) {
        let lists = make_lists(ts_lists);
        let spans: Vec<SpanList> = lists.iter().map(|l| SpanList::Slice(l)).collect();
        let window = window_ms.map(VirtualDuration::from_millis);
        let probe = ProbeSpans::new(&spans, window, sorted);
        let expect = brute_count(&lists, window);
        assert_eq!(probe.count_valid(), expect, "count_valid vs brute force");
        let mut enumerated = 0u64;
        probe.for_each_valid(|parts| {
            assert!(within_window(window, parts));
            enumerated += 1;
        });
        assert_eq!(enumerated, expect, "for_each_valid vs brute force");
    }

    #[test]
    fn unwindowed_count_is_product() {
        let lists = make_lists(&[&[1, 2], &[5, 6, 7], &[9]]);
        let spans: Vec<SpanList> = lists.iter().map(|l| SpanList::Slice(l)).collect();
        let probe = ProbeSpans::new(&spans, None, true);
        assert_eq!(probe.total_combinations(), 6);
        assert_eq!(probe.count_valid(), 6);
    }

    #[test]
    fn empty_list_counts_zero() {
        let lists = make_lists(&[&[1, 2], &[]]);
        let spans: Vec<SpanList> = lists.iter().map(|l| SpanList::Slice(l)).collect();
        assert_eq!(ProbeSpans::new(&spans, None, true).count_valid(), 0);
        let mut n = 0;
        ProbeSpans::new(&spans, None, true).for_each_valid(|_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn windowed_all_within_uses_product() {
        check(&[&[10, 11], &[12, 13], &[14]], Some(10), true);
    }

    #[test]
    fn windowed_disjoint_counts_zero() {
        check(&[&[0, 1], &[100, 101]], Some(10), true);
    }

    #[test]
    fn windowed_straddling_falls_back_exactly() {
        // Lists overlap partially; some combinations valid, some not.
        check(
            &[&[0, 5, 10, 20], &[8, 15, 30], &[9, 12, 40]],
            Some(10),
            true,
        );
    }

    #[test]
    fn zero_width_window_counts_equal_ts_only() {
        check(&[&[5, 5, 7], &[5, 7], &[5]], Some(0), true);
    }

    #[test]
    fn unsorted_lists_detected_and_exact() {
        // Claimed unsorted; scan must not trust binary search.
        check(&[&[20, 0, 10], &[9, 12, 3]], Some(5), false);
        check(&[&[20, 0, 10], &[9, 12, 3]], Some(15), false);
    }

    #[test]
    fn anchored_trim_handles_disjoint_anchor_interval() {
        // L > U + 2W: no valid combination despite non-empty lists.
        check(&[&[0], &[100]], Some(10), true);
    }

    #[test]
    fn randomized_cross_check() {
        // Deterministic pseudo-random cases over windows and skew.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let m = 2 + (next() % 3) as usize;
            let sorted = case % 2 == 0;
            let lists: Vec<Vec<u64>> = (0..m)
                .map(|_| {
                    let len = 1 + (next() % 6) as usize;
                    let mut v: Vec<u64> = (0..len).map(|_| next() % 50).collect();
                    if sorted {
                        v.sort_unstable();
                    }
                    v
                })
                .collect();
            let refs: Vec<&[u64]> = lists.iter().map(Vec::as_slice).collect();
            let window = if case % 3 == 0 {
                None
            } else {
                Some(next() % 30)
            };
            check(&refs, window, sorted);
        }
    }

    #[test]
    fn ts_only_counts_match_row_spans() {
        // The same candidate sets expressed as row-backed lists and as
        // rowless TsOnly lists must count identically, windowed and
        // not, sorted and not.
        for (tss, window, sorted) in [
            (vec![vec![0u64, 5, 10, 20], vec![8, 15, 30]], Some(10), true),
            (vec![vec![1, 2, 3], vec![2, 3, 4]], Some(2), true),
            (vec![vec![20, 0, 10], vec![9, 12, 3]], Some(5), false),
            (vec![vec![1, 2], vec![3]], None, true),
        ] {
            let lists = make_lists(&tss.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let cols: Vec<Vec<VirtualTime>> = tss
                .iter()
                .map(|l| l.iter().map(|&t| VirtualTime::from_millis(t)).collect())
                .collect();
            // Stream `s`'s positions start at `7 * s`: the base is
            // subtracted, never ignored.
            let positions: Vec<Vec<u32>> = (tss.iter().enumerate())
                .map(|(s, l)| (0..l.len() as u32).map(|i| 7 * s as u32 + i).collect())
                .collect();
            let row_spans: Vec<SpanList> = lists.iter().map(|l| SpanList::Slice(l)).collect();
            let ts_spans: Vec<SpanList> = (cols.iter().zip(&positions).enumerate())
                .map(|(s, (ts, pos))| SpanList::TsOnly {
                    ts,
                    base: 7 * s as u32,
                    positions: pos,
                })
                .collect();
            let window = window.map(VirtualDuration::from_millis);
            assert_eq!(
                ProbeSpans::new(&row_spans, window, sorted).count_valid(),
                ProbeSpans::new(&ts_spans, window, sorted).count_valid(),
                "tss={tss:?} window={window:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wants_rows")]
    fn ts_only_get_panics() {
        let ts = [VirtualTime::from_millis(1)];
        let positions = [0u32];
        let list = SpanList::TsOnly {
            ts: &ts,
            base: 0,
            positions: &positions,
        };
        let _ = list.get(0);
    }

    #[test]
    fn len_lists_count_their_product_without_a_window() {
        let lists = [SpanList::Len(3), SpanList::Len(1), SpanList::Len(4)];
        assert_eq!(ProbeSpans::new(&lists, None, true).count_valid(), 12);
        let empty = [SpanList::Len(3), SpanList::Len(0)];
        assert_eq!(ProbeSpans::new(&empty, None, true).count_valid(), 0);
    }

    #[test]
    #[should_panic(expected = "wants_rows")]
    fn len_get_panics() {
        let _ = SpanList::Len(2).get(0);
    }

    #[test]
    fn more_than_inline_streams_uses_heap_path() {
        let lists: Vec<Vec<Tuple>> = (0..INLINE_STREAMS + 2)
            .map(|s| vec![tpl(s as u8, s as u64)])
            .collect();
        let spans: Vec<SpanList> = lists.iter().map(|l| SpanList::Slice(l)).collect();
        let probe = ProbeSpans::new(&spans, Some(VirtualDuration::from_millis(100)), true);
        assert_eq!(probe.count_valid(), 1);
        let mut n = 0;
        probe.for_each_valid(|parts| {
            assert_eq!(parts.len(), INLINE_STREAMS + 2);
            n += 1;
        });
        assert_eq!(n, 1);
    }
}
