//! Support shared by the workspace's tests: the property-test case
//! count and the reference join every runtime is checked against.

use std::collections::HashMap;
use std::ops::Range;

use crate::time::VirtualDuration;
use crate::tuple::Tuple;
use crate::value::Value;

/// Case count for a property test: `PROPTEST_CASES` when set (the CI
/// stress job raises it), else `default`. The vendored proptest shim
/// does not read the variable itself.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The reference m-way equi-join: what the join of every tuple pushed
/// must produce, computed over plain [`Tuple`]s with none of the code
/// under test — no batch, no partition group, no index, no sink.
///
/// Unwindowed, a key contributes the product of its per-stream tuple
/// counts. Under a sliding window of `W` a combination is a result when
/// its newest and oldest timestamps are at most `W` apart; a sweep
/// visits, for every tuple, the combinations in which it is the newest
/// member (ties broken by stream index, so each combination is visited
/// exactly once).
#[derive(Debug, Clone)]
pub struct ReferenceJoin {
    join_columns: Vec<usize>,
    window_ms: Option<u64>,
    /// Per join key and stream, `(ts_ms, seq)` of every tuple pushed.
    keys: HashMap<Value, Vec<Vec<(u64, u64)>>>,
}

impl ReferenceJoin {
    /// An empty join of `join_columns.len()` streams; stream `s` joins
    /// on column `join_columns[s]`.
    pub fn new(join_columns: &[usize], window: Option<VirtualDuration>) -> Self {
        ReferenceJoin {
            join_columns: join_columns.to_vec(),
            window_ms: window.map(VirtualDuration::as_millis),
            keys: HashMap::new(),
        }
    }

    /// Add one input tuple. Panics on a tuple the join has no stream or
    /// no join column for — an oracle is fed only valid input.
    pub fn push(&mut self, t: &Tuple) {
        let s = t.stream().index();
        let key = t
            .get(self.join_columns[s])
            .expect("reference join: tuple lacks its join column");
        if !self.keys.contains_key(key) {
            let per_stream = vec![Vec::new(); self.join_columns.len()];
            self.keys.insert(key.clone(), per_stream);
        }
        let lists = self.keys.get_mut(key).expect("just inserted");
        lists[s].push((t.ts().as_millis(), t.seq()));
    }

    /// Number of results.
    pub fn count(&self) -> u64 {
        let mut total = 0u64;
        self.for_each_block(|_, block| {
            total += block.iter().map(|r| r.len() as u64).product::<u64>();
        });
        total
    }

    /// Every result as its `(stream, seq)` pairs in stream order, the
    /// whole multiset sorted — the shape a collecting sink's
    /// `identities()` returns.
    pub fn identities(&self) -> Vec<Vec<(u8, u64)>> {
        let mut out = Vec::new();
        self.for_each_block(|lists, block| {
            if block.iter().any(Range::is_empty) {
                return;
            }
            let mut at: Vec<usize> = block.iter().map(|r| r.start).collect();
            'odometer: loop {
                let ids = at.iter().enumerate();
                out.push(ids.map(|(s, &i)| (s as u8, lists[s][i].1)).collect());
                for s in (0..at.len()).rev() {
                    at[s] += 1;
                    if at[s] < block[s].end {
                        continue 'odometer;
                    }
                    at[s] = block[s].start;
                }
                break;
            }
        });
        out.sort_unstable();
        out
    }

    /// Cover every key's results with disjoint blocks: `f` gets the
    /// key's per-stream lists, sorted by timestamp, and one index range
    /// per stream whose cartesian product is all results. Unwindowed
    /// that is one block per key, the full lists; windowed it is one
    /// block per tuple, the combinations it is the newest member of.
    fn for_each_block(&self, mut f: impl FnMut(&[Vec<(u64, u64)>], &[Range<usize>])) {
        for lists in self.keys.values() {
            let mut lists = lists.clone();
            lists.iter_mut().for_each(|l| l.sort_unstable());
            let Some(window_ms) = self.window_ms else {
                let full: Vec<Range<usize>> = lists.iter().map(|l| 0..l.len()).collect();
                f(&lists, &full);
                continue;
            };
            for (s, anchors) in lists.iter().enumerate() {
                for (i, &(t, _)) in anchors.iter().enumerate() {
                    let oldest = t.saturating_sub(window_ms);
                    let block: Vec<Range<usize>> = lists
                        .iter()
                        .enumerate()
                        .map(|(o, other)| {
                            if o == s {
                                return i..i + 1;
                            }
                            // Partners must not be newer than the
                            // anchor; on a timestamp tie the lower
                            // stream index is older.
                            let newest_excl = if o < s { t.saturating_add(1) } else { t };
                            let lo = other.partition_point(|e| e.0 < oldest);
                            lo..other.partition_point(|e| e.0 < newest_excl)
                        })
                        .collect();
                    f(&lists, &block);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StreamId;
    use crate::time::VirtualTime;
    use crate::tuple::TupleBuilder;

    /// Every combination of one tuple per stream with equal keys whose
    /// timestamps span at most `window` (all of them when `None`): the
    /// obvious nested loop.
    fn nested_loop(tuples: &[Tuple], streams: usize, window: Option<u64>) -> Vec<Vec<(u8, u64)>> {
        fn extend(
            tuples: &[Tuple],
            streams: usize,
            window: Option<u64>,
            picked: &mut Vec<Tuple>,
            out: &mut Vec<Vec<(u8, u64)>>,
        ) {
            if picked.len() == streams {
                let ts = || picked.iter().map(|t| t.ts().as_millis());
                if window.is_none_or(|w| ts().max().unwrap() - ts().min().unwrap() <= w) {
                    out.push(picked.iter().map(|t| (t.stream().0, t.seq())).collect());
                }
                return;
            }
            let stream = picked.len();
            for t in tuples.iter().filter(|t| t.stream().index() == stream) {
                if picked.first().is_none_or(|p| p.get(0) == t.get(0)) {
                    picked.push(t.clone());
                    extend(tuples, streams, window, picked, out);
                    picked.pop();
                }
            }
        }
        let mut out = Vec::new();
        extend(tuples, streams, window, &mut Vec::new(), &mut out);
        out.sort_unstable();
        out
    }

    /// Small deterministic inputs: few keys and coarse timestamps out of
    /// order, so equal keys, equal timestamps and gaps of exactly one
    /// window are all common.
    fn inputs(seed: u64, streams: usize, n: usize) -> Vec<Tuple> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        (0..n as u64)
            .map(|seq| {
                TupleBuilder::new(StreamId(next(streams as u64) as u8))
                    .seq(seq)
                    .ts(VirtualTime::from_millis(next(12) * 10))
                    .value(next(4) as i64)
                    .build()
            })
            .collect()
    }

    fn reference(tuples: &[Tuple], streams: usize, window: Option<u64>) -> ReferenceJoin {
        let window = window.map(VirtualDuration::from_millis);
        let mut join = ReferenceJoin::new(&vec![0; streams], window);
        tuples.iter().for_each(|t| join.push(t));
        join
    }

    #[test]
    fn count_and_identities_equal_the_nested_loop() {
        // Gaps are multiples of 10 ms: a window of 10 admits a gap of
        // exactly W, one of 9 refuses a gap of W + 1, 0 admits ties only.
        let windows = [
            None,
            Some(0),
            Some(9),
            Some(10),
            Some(30),
            Some(50),
            Some(1000),
        ];
        let mut results = 0;
        for seed in 1..30 {
            for streams in [2, 3, 4] {
                let tuples = inputs(seed, streams, 30);
                for window in windows {
                    let join = reference(&tuples, streams, window);
                    let expected = nested_loop(&tuples, streams, window);
                    let context = format!("seed {seed}, {streams} streams, window {window:?}");
                    assert_eq!(join.count(), expected.len() as u64, "{context}");
                    assert_eq!(join.identities(), expected, "{context}");
                    results += expected.len();
                }
            }
        }
        assert!(results > 10_000, "the cases join: {results} results");
    }

    #[test]
    fn a_window_wider_than_the_input_is_the_per_key_product() {
        let tuples = inputs(7, 3, 60);
        let unwindowed = reference(&tuples, 3, None);
        let wide = reference(&tuples, 3, Some(u64::MAX));
        assert!(unwindowed.count() > 0);
        assert_eq!(wide.count(), unwindowed.count());
        assert_eq!(wide.identities(), unwindowed.identities());
        let empty = reference(&[], 3, Some(10));
        assert_eq!((empty.count(), empty.identities().len()), (0, 0));
    }

    #[test]
    fn keys_of_any_value_kind_join_on_their_own_columns() {
        // Stream 1 keeps its key in column 1; text keys.
        let t = |stream: u8, seq: u64, key: &str| {
            let b = TupleBuilder::new(StreamId(stream)).seq(seq);
            if stream == 1 {
                b.value(0i64).value(key).build()
            } else {
                b.value(key).build()
            }
        };
        let mut join = ReferenceJoin::new(&[0, 1], None);
        for tuple in [
            t(0, 0, "a"),
            t(1, 0, "a"),
            t(1, 1, "a"),
            t(0, 1, "b"),
            t(1, 2, "c"),
        ] {
            join.push(&tuple);
        }
        assert_eq!(join.count(), 2);
        assert_eq!(
            join.identities(),
            vec![vec![(0, 0), (1, 0)], vec![(0, 0), (1, 1)]]
        );
    }
}
