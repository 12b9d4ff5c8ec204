//! The reference counts are what every sample and every layer walk is
//! gated on, so they are checked here against the obvious nested loop
//! over all combinations, and against the engine itself on a small job.

use dcape_bench::reference::{reference_count, unwindowed_count, windowed_count, Event};
use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_streamgen::StreamSetSpec;

/// Every combination of one event per stream with equal keys whose
/// timestamps span at most `window` (all of them when `None`).
fn brute_force(events: &[Event], streams: usize, window: Option<u64>) -> u64 {
    fn extend(
        events: &[Event],
        streams: usize,
        window: Option<u64>,
        picked: &mut Vec<Event>,
    ) -> u64 {
        if picked.len() == streams {
            let newest = picked.iter().map(|e| e.ts_ms).max().unwrap();
            let oldest = picked.iter().map(|e| e.ts_ms).min().unwrap();
            return window.is_none_or(|w| newest - oldest <= w) as u64;
        }
        let mut n = 0;
        let stream = picked.len();
        for e in events.iter().filter(|e| e.stream == stream) {
            if picked.first().is_none_or(|p| p.key == e.key) {
                picked.push(*e);
                n += extend(events, streams, window, picked);
                picked.pop();
            }
        }
        n
    }
    extend(events, streams, window, &mut Vec::new())
}

/// Small deterministic inputs: few keys and coarse timestamps, so equal
/// keys, equal timestamps and window-edge cases are all common.
fn inputs(seed: u64, streams: usize, n: usize) -> Vec<Event> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    (0..n)
        .map(|_| Event {
            stream: next(streams as u64) as usize,
            key: next(4) as i64,
            ts_ms: next(12) * 10,
        })
        .collect()
}

#[test]
fn unwindowed_count_equals_nested_loop() {
    for seed in 1..40 {
        for streams in [2, 3, 4] {
            let events = inputs(seed, streams, 30);
            assert_eq!(
                unwindowed_count(events.iter().copied(), streams),
                brute_force(&events, streams, None),
                "seed {seed}, {streams} streams"
            );
        }
    }
}

#[test]
fn windowed_count_equals_nested_loop() {
    for seed in 1..40 {
        for streams in [2, 3, 4] {
            for window in [0, 10, 30, 50, 1000] {
                let events = inputs(seed, streams, 30);
                assert_eq!(
                    windowed_count(events.iter().copied(), streams, window),
                    brute_force(&events, streams, Some(window)),
                    "seed {seed}, {streams} streams, window {window}"
                );
            }
        }
    }
}

#[test]
fn a_window_wider_than_the_input_counts_everything() {
    let events = inputs(7, 3, 60);
    assert_eq!(
        windowed_count(events.iter().copied(), 3, u64::MAX),
        unwindowed_count(events.iter().copied(), 3)
    );
    assert_eq!(unwindowed_count(std::iter::empty(), 3), 0);
    assert_eq!(windowed_count(std::iter::empty(), 3, 10), 0);
}

/// The reference and the engine agree on what a sliding window admits.
#[test]
fn reference_count_equals_the_sim_on_a_small_job() {
    for window in [None, Some(VirtualDuration::from_secs(20))] {
        let spec =
            StreamSetSpec::uniform(8, 400, 2, VirtualDuration::from_millis(30)).with_seed(11);
        let mut engine = EngineConfig::three_way(1 << 30, 1 << 29);
        if let Some(w) = window {
            engine.join = engine.join.with_window(w);
        }
        let cfg = SimConfig::new(2, engine, spec.clone(), StrategyConfig::NoAdaptation);
        let mut sim = SimDriver::new(cfg).unwrap();
        sim.run_until(VirtualTime::from_mins(2)).unwrap();
        let report = sim.finish().unwrap();
        let ticks = 2 * 60_000 / 30;
        let expected =
            reference_count(&spec, ticks, window.map(VirtualDuration::as_millis)).unwrap();
        assert!(expected > 0);
        assert_eq!(report.total_output(), expected, "window {window:?}");
    }
}
