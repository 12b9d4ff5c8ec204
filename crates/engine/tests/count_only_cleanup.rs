//! A cleanup whose sink only counts reads each spilled segment as its
//! timestamps and join keys, never as rows; one whose sink collects
//! rebuilds the rows. Both must produce the same results.
//!
//! Two engines get the same input and the same forced spills. One is
//! cleaned up into a counting sink (the key-only read), the other into a
//! collecting sink (the full read). The counts, the cleanup reports and
//! the bytes read back must agree, and each side must add up to the
//! reference join: as a count for the one, as a multiset of results for
//! the other. The rows carry text, blob, double and pad columns, stream
//! 1 and 2 join on a column other than 0, keys come in every value kind
//! a join can use, and some blocks fall back to the row layout (rows of
//! differing arity) or a mixed column.

use proptest::prelude::*;

use dcape_common::ids::{EngineId, PartitionId, StreamId};
use dcape_common::testing::{proptest_cases, ReferenceJoin};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_common::value::Value;
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::{CollectingSink, CountingSink, ResultSink};

const JOIN_COLUMNS: [usize; 3] = [0, 2, 1];

/// Join key `k` in value kind `kind`.
fn key(kind: u8, k: u8) -> Value {
    match kind {
        0 => Value::Int(k as i64 - 2),
        1 => Value::text(format!("key-{k}")),
        2 => Value::Double(k as f64 * 0.5),
        _ => Value::Blob(vec![k; k as usize + 1].into()),
    }
}

/// Stream `stream`'s row `seq` with join key `key`: the key in its
/// stream's join column among text, blob, double and pad columns.
/// `odd` makes the row one column longer (a row-layout block) or its
/// first column an integer (a mixed column).
fn row(stream: u8, seq: u64, ts: u64, key: Value, odd: bool) -> Tuple {
    let blob = Value::Blob(vec![seq as u8; (seq % 5) as usize].into());
    let mut values = match stream {
        0 => vec![
            key,
            if odd {
                Value::Int(seq as i64)
            } else {
                Value::text(format!("n{}", seq % 3))
            },
            Value::Pad(seq as u32 % 7),
        ],
        1 => vec![blob, Value::Double(seq as f64 / 4.0), key],
        _ => vec![Value::Double(-(seq as f64)), key, blob],
    };
    if odd && stream == 2 {
        values.push(Value::Pad(64));
    }
    Tuple::new(StreamId(stream), seq, VirtualTime::from_millis(ts), values)
}

fn engine(window: Option<VirtualDuration>) -> QueryEngine {
    let mut cfg = EngineConfig::three_way(1 << 30, 1 << 29);
    cfg.join.join_columns = JOIN_COLUMNS.to_vec();
    if let Some(w) = window {
        cfg.join = cfg.join.with_window(w);
    }
    QueryEngine::in_memory(EngineId(0), cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(48),
        ..ProptestConfig::default()
    })]

    #[test]
    fn a_count_only_cleanup_counts_what_a_collecting_one_emits(
        rows in proptest::collection::vec((0u8..3, 0u8..5, any::<bool>()), 1..90),
        spills in proptest::collection::vec((0usize..90, 1u64..4), 1..5),
        kind in 0u8..4,
        window_ms in 0u64..400,
    ) {
        // From 300 on the window never cuts: the unwindowed join.
        let window = (window_ms < 300).then(|| VirtualDuration::from_millis(window_ms));
        let mut counted = engine(window);
        let mut collected = engine(window);
        let mut reference = ReferenceJoin::new(&JOIN_COLUMNS, window);
        let (mut runtime_count, mut runtime_rows) = (CountingSink::new(), CollectingSink::new());
        for (i, &(stream, k, odd)) in rows.iter().enumerate() {
            let t = row(stream, i as u64, 10 * i as u64, key(kind, k), odd);
            reference.push(&t);
            // Two keys per partition ID, so slices share groups.
            let pid = PartitionId(k as u32 / 2);
            counted.process(pid, t.clone(), &mut runtime_count).unwrap();
            collected.process(pid, t, &mut runtime_rows).unwrap();
            // A share of what is resident goes to disk, the same in both.
            for &(at, share) in &spills {
                if at % rows.len() == i {
                    let now = VirtualTime::from_millis(10 * i as u64);
                    for e in [&mut counted, &mut collected] {
                        e.force_spill(e.memory_used() / share, now).unwrap();
                    }
                }
            }
        }
        prop_assert!(counted.store().segment_count() > 0);

        let mut cleanup_count = CountingSink::new();
        let mut cleanup_rows = CollectingSink::new();
        let by_count = counted.cleanup(&mut cleanup_count).unwrap();
        let by_rows = collected.cleanup(&mut cleanup_rows).unwrap();
        prop_assert_eq!(by_count, by_rows);
        prop_assert_eq!(cleanup_count.count(), cleanup_rows.len() as u64);
        prop_assert_eq!(by_count.missing_results, cleanup_count.count());
        prop_assert_eq!(counted.store().stats(), collected.store().stats());

        prop_assert_eq!(runtime_count.count() + cleanup_count.count(), reference.count());
        let mut results = runtime_rows.identities();
        results.extend(cleanup_rows.identities());
        results.sort();
        prop_assert_eq!(results, reference.identities());
        prop_assert!(cleanup_rows.wants_rows() && !cleanup_count.wants_rows());
    }
}
