//! Engine-side relocation idempotency and crash recovery (the chaos
//! layer's hardening contract):
//!
//! * a duplicated `InstallStates` is a no-op that still deserves an ack;
//! * an aborted round restores the exact pre-round state on both ends
//!   (sender reinstalls its retained copy, receiver uninstalls);
//! * a crash-restart on the receiver loses only the uncommitted
//!   installation — the sender's retained copy stays authoritative;
//! * stale (closed-round) messages are recognized as such.

use dcape_common::ids::{EngineId, PartitionId, StreamId};
use dcape_common::time::VirtualTime;
use dcape_common::tuple::{Tuple, TupleBuilder};
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::CountingSink;

fn tpl(stream: u8, seq: u64, key: i64, ts_ms: u64) -> Tuple {
    TupleBuilder::new(StreamId(stream))
        .seq(seq)
        .ts(VirtualTime::from_millis(ts_ms))
        .value(key)
        .pad(64)
        .build()
}

fn engine(id: u16) -> QueryEngine {
    QueryEngine::in_memory(EngineId(id), EngineConfig::three_way(1 << 30, 1 << 29)).unwrap()
}

/// Load a few keys into partitions `base..base+4` of the engine
/// (ownership is disjoint across engines, so each gets its own range).
fn load_at(e: &mut QueryEngine, n: u64, base: u32) -> u64 {
    let mut sink = CountingSink::new();
    for i in 0..n {
        let key = (i % 6) as i64;
        let pid = PartitionId(base + (key % 4) as u32);
        e.process(pid, tpl((i % 3) as u8, i, key, i * 10), &mut sink)
            .unwrap();
    }
    sink.count()
}

fn load(e: &mut QueryEngine, n: u64) -> u64 {
    load_at(e, n, 0)
}

#[test]
fn duplicate_install_is_a_noop() {
    let mut sender = engine(0);
    let mut receiver = engine(1);
    load(&mut sender, 60);
    let parts = sender.select_parts_to_move(1 << 20);
    assert!(!parts.is_empty());
    let groups = sender.begin_outbound(7, &parts);

    assert!(receiver
        .install_groups_for_round(7, groups.clone())
        .unwrap());
    let after_first = receiver.memory_used();
    // The duplicated InstallStates re-delivers the identical payload.
    assert!(!receiver.install_groups_for_round(7, groups).unwrap());
    assert_eq!(
        receiver.memory_used(),
        after_first,
        "duplicate install must not double state"
    );
}

#[test]
fn retried_send_states_reships_the_same_copy() {
    let mut sender = engine(0);
    load(&mut sender, 60);
    let parts = sender.select_parts_to_move(1 << 20);
    let first = sender.begin_outbound(3, &parts);
    let freed = sender.memory_used();
    // A retry of SendStates for the same round must not extract again
    // (the groups are already gone from the join) — it re-ships.
    let second = sender.begin_outbound(3, &parts);
    assert_eq!(first.len(), second.len());
    assert_eq!(sender.memory_used(), freed);
    // The retained copy and every shipped one are the same buffers: a
    // snapshot clone shares its columns, it does not copy rows.
    assert!(first.iter().any(|(group, _, _)| !group.is_empty()));
    for ((shipped, ..), (reshipped, ..)) in first.iter().zip(&second) {
        assert_eq!(shipped, reshipped);
        for (a, b) in shipped.streams().iter().zip(reshipped.streams()) {
            // An empty stream has no row to point at.
            if !a.is_empty() {
                assert_eq!(a.row(0).as_ptr(), b.row(0).as_ptr());
            }
            assert_eq!(a.ts().as_ptr(), b.ts().as_ptr());
        }
    }
    // Installing one of them elsewhere leaves the retained copy whole.
    let mut receiver = engine(1);
    assert!(receiver.install_groups_for_round(3, first).unwrap());
    assert_eq!(sender.abort_outbound(3).unwrap(), second.len());
    assert_eq!(sender.begin_outbound(4, &parts), second);
}

#[test]
fn abort_restores_both_ends_exactly() {
    let mut sender = engine(0);
    let mut receiver = engine(1);
    load(&mut sender, 90);
    let before_mem = sender.memory_used();
    let before_out = sender.total_output();

    let parts = sender.select_parts_to_move(1 << 20);
    let groups = sender.begin_outbound(1, &parts);
    assert!(receiver.install_groups_for_round(1, groups).unwrap());
    assert!(receiver.memory_used() > 0);

    // Retries exhausted: the coordinator aborts the round.
    let discarded = receiver.abort_inbound(1).unwrap();
    assert_eq!(discarded, parts.len());
    assert_eq!(receiver.memory_used(), 0, "abort must uninstall");
    let reinstalled = sender.abort_outbound(1).unwrap();
    assert_eq!(reinstalled, parts.len());
    assert_eq!(sender.memory_used(), before_mem, "abort must restore state");
    assert_eq!(sender.total_output(), before_out);
    sender.assert_accounting_consistent().unwrap();

    // The round is closed on both ends: stragglers are stale.
    assert!(sender.is_stale_round(1));
    assert!(receiver.is_stale_round(1));
    assert!(!receiver.install_groups_for_round(1, vec![]).unwrap());
}

#[test]
fn crash_restart_wipes_only_uncommitted_inbound() {
    let mut sender = engine(0);
    let mut receiver = engine(1);
    load(&mut sender, 60);
    load_at(&mut receiver, 30, 4);
    let own_state = receiver.memory_used();

    let parts = sender.select_parts_to_move(1 << 20);
    let groups = sender.begin_outbound(5, &parts);
    assert!(receiver.install_groups_for_round(5, groups).unwrap());
    assert!(receiver.memory_used() > own_state);

    // Crash after step 5, before the ack lands: the uncommitted
    // installation is gone, the receiver's own state survives.
    let wiped = receiver.crash_restart().unwrap();
    assert_eq!(wiped, parts.len());
    assert_eq!(receiver.memory_used(), own_state);
    receiver.assert_accounting_consistent().unwrap();

    // The sender still holds the authoritative copy: the abort path
    // brings the state home without loss.
    assert_eq!(sender.abort_outbound(5).unwrap(), parts.len());
    sender.assert_accounting_consistent().unwrap();
}

#[test]
fn commit_closes_the_round_and_drops_the_copy() {
    let mut sender = engine(0);
    let mut receiver = engine(1);
    load(&mut sender, 60);
    let parts = sender.select_parts_to_move(1 << 20);
    let groups = sender.begin_outbound(2, &parts);
    assert!(receiver.install_groups_for_round(2, groups).unwrap());

    sender.commit_outbound(2);
    receiver.commit_inbound(2);
    // After commit, an abort reinstalls nothing — the copy is gone and
    // the receiver keeps the (now permanent) state.
    assert_eq!(sender.abort_outbound(2).unwrap(), 0);
    assert_eq!(receiver.abort_inbound(2).unwrap(), 0);
    assert!(receiver.memory_used() > 0);
    assert!(sender.is_stale_round(2) && receiver.is_stale_round(2));
}
