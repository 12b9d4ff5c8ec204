//! Reference result counts: what the m-way equi-join of the generated
//! input must produce, computed without any of the code under test.
//!
//! Unwindowed, a key contributes the product of its per-stream tuple
//! counts. Under a sliding window of `W` a combination is a result when
//! its newest and oldest timestamps are at most `W` apart; a sweep
//! counts, for every tuple, the combinations in which it is the newest
//! member (ties broken by stream index, so each combination is counted
//! exactly once).

use std::collections::HashMap;

use dcape_common::error::Result;
use dcape_streamgen::{StreamSetGenerator, StreamSetSpec};

/// One input tuple as the reference sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub stream: usize,
    pub key: i64,
    pub ts_ms: u64,
}

/// Unwindowed join size: per-key product of per-stream counts.
pub fn unwindowed_count(events: impl IntoIterator<Item = Event>, num_streams: usize) -> u64 {
    let mut counts: HashMap<i64, Vec<u64>> = HashMap::new();
    for e in events {
        counts.entry(e.key).or_insert_with(|| vec![0; num_streams])[e.stream] += 1;
    }
    counts.values().map(|c| c.iter().product::<u64>()).sum()
}

/// Sliding-window join size: combinations whose timestamps span at most
/// `window_ms`.
pub fn windowed_count(
    events: impl IntoIterator<Item = Event>,
    num_streams: usize,
    window_ms: u64,
) -> u64 {
    // One flat sort instead of a list per (key, stream): each key's
    // events end up adjacent, by stream, by time.
    let mut events: Vec<Event> = events.into_iter().collect();
    events.sort_unstable_by_key(|e| (e.key, e.stream, e.ts_ms));
    let mut total = 0u64;
    for key in events.chunk_by(|a, b| a.key == b.key) {
        let lists: Vec<&[Event]> = (0..num_streams)
            .map(|s| {
                let from = key.partition_point(|e| e.stream < s);
                &key[from..key.partition_point(|e| e.stream <= s)]
            })
            .collect();
        for (s, anchors) in lists.iter().enumerate() {
            for anchor in anchors.iter() {
                let t = anchor.ts_ms;
                let oldest = t.saturating_sub(window_ms);
                let mut combos = 1u64;
                for (o, other) in lists.iter().enumerate() {
                    if o == s {
                        continue;
                    }
                    // Partners must not be newer than the anchor; on a
                    // timestamp tie the lower stream index is older.
                    let newest_excl = if o < s { t + 1 } else { t };
                    let lo = other.partition_point(|e| e.ts_ms < oldest);
                    let hi = other.partition_point(|e| e.ts_ms < newest_excl);
                    combos *= (hi - lo) as u64;
                }
                total += combos;
            }
        }
    }
    total
}

/// Reference count for the first `ticks` ticks of `spec`, streamed: the
/// input is never held in memory as tuples.
pub fn reference_count(spec: &StreamSetSpec, ticks: u64, window_ms: Option<u64>) -> Result<u64> {
    let mut gen = StreamSetGenerator::new(spec.clone())?;
    let mut tick = Vec::new();
    let mut pending = Vec::new().into_iter();
    let events = std::iter::from_fn(move || loop {
        if let Some(event) = pending.next() {
            return Some(event);
        }
        if gen.ticks() == ticks {
            return None;
        }
        gen.tick_batch(&mut tick);
        let events: Vec<Event> = tick
            .iter()
            .map(|t| Event {
                stream: t.stream().0 as usize,
                key: t.values()[StreamSetGenerator::JOIN_COLUMN]
                    .as_int()
                    .expect("generated join values are integers"),
                ts_ms: t.ts().as_millis(),
            })
            .collect();
        pending = events.into_iter();
    });
    Ok(match window_ms {
        None => unwindowed_count(events, spec.num_streams),
        Some(w) => windowed_count(events, spec.num_streams, w),
    })
}
