//! Membership safety of the placement map and the coordinator's
//! elastic lifecycle: under any interleaving of engine joins, fences
//! (drains), relocations, and aborts, every partition keeps exactly one
//! owner, no remap ever targets a fenced engine, and a drain always
//! runs to termination — by relocation rounds when they complete, by
//! forced spill when they keep aborting.

use proptest::prelude::*;

use dcape_cluster::coordinator::{Command, EngineState, GlobalCoordinator};
use dcape_cluster::placement::{PlacementMap, PlacementSpec};
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::VirtualTime;
use dcape_metrics::journal::JournalHandle;

const PARTS: u32 = 16;

fn fresh_map(engines: usize) -> PlacementMap {
    PlacementMap::new(&PlacementSpec::RoundRobin, PARTS, engines).unwrap()
}

fn elastic_gc(initial: usize, capacity: usize) -> GlobalCoordinator {
    GlobalCoordinator::new(
        &StrategyConfig::NoAdaptation,
        initial,
        capacity,
        JournalHandle::default(),
        false,
    )
}

// ---- placement map unit tests ------------------------------------------

#[test]
fn add_engine_assigns_dense_ids_that_own_nothing() {
    let mut map = fresh_map(2);
    let joined = map.add_engine().unwrap();
    assert_eq!(joined, EngineId(2));
    assert_eq!(map.num_engines(), 3);
    assert!(map.partitions_of(joined).is_empty());
    assert!(!map.is_fenced(joined));
    // Ids are dense and never reused.
    assert_eq!(map.add_engine().unwrap(), EngineId(3));
}

#[test]
fn remap_to_fenced_engine_is_rejected_without_mutation() {
    let mut map = fresh_map(3);
    map.fence_engine(EngineId(2)).unwrap();
    let pid = map.partitions_of(EngineId(0))[0];
    map.pause(&[pid]).unwrap();
    let version = map.version();

    let err = map.remap_and_release(&[pid], EngineId(2));
    assert!(err.is_err(), "remap must never target a fenced engine");
    // The rejection left the map untouched: still paused, still owned
    // by the original engine, version unchanged.
    assert_eq!(map.owner(pid).unwrap(), EngineId(0));
    assert_eq!(map.paused_partitions(), vec![pid]);
    assert_eq!(map.version(), version);

    // The abort path still releases the pause back to the old owner.
    map.release_paused(&[pid]).unwrap();
    assert_eq!(map.owner(pid).unwrap(), EngineId(0));
    assert!(map.paused_partitions().is_empty());
}

#[test]
fn fencing_is_idempotent_and_unknown_engines_read_fenced() {
    let mut map = fresh_map(2);
    map.fence_engine(EngineId(1)).unwrap();
    let version = map.version();
    map.fence_engine(EngineId(1)).unwrap();
    assert_eq!(map.version(), version, "re-fencing must be a no-op");
    assert_eq!(map.unfenced_engines(), vec![EngineId(0)]);
    assert!(map.fence_engine(EngineId(9)).is_err());
    assert!(
        map.is_fenced(EngineId(9)),
        "engines that were never admitted must read as fenced"
    );
}

#[test]
fn fenced_engine_can_still_shed_its_partitions() {
    let mut map = fresh_map(2);
    map.fence_engine(EngineId(1)).unwrap();
    let owned = map.partitions_of(EngineId(1));
    assert!(!owned.is_empty());
    map.pause(&owned).unwrap();
    map.remap_and_release(&owned, EngineId(0)).unwrap();
    assert!(
        map.partitions_of(EngineId(1)).is_empty(),
        "a draining (fenced) engine sheds state via ordinary remaps"
    );
    assert_eq!(map.distribution(2), vec![PARTS as usize, 0]);
}

// ---- membership interleaving property ----------------------------------

/// One abstract membership/relocation op.
#[derive(Debug, Clone)]
enum Op {
    /// Admit a new engine.
    Add,
    /// Fence engine `index % num_engines` (start of its drain).
    Fence(u8),
    /// Pause partition `pid % PARTS` and remap it to engine
    /// `target % num_engines` — expected to fail iff the target is
    /// fenced at that moment.
    Relocate { pid: u8, target: u8 },
    /// Pause partition `pid % PARTS` and abort the round (release
    /// without remap).
    Abort { pid: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..1).prop_map(|_| Op::Add),
        any::<u8>().prop_map(Op::Fence),
        (any::<u8>(), any::<u8>()).prop_map(|(pid, target)| Op::Relocate { pid, target }),
        (any::<u8>(), any::<u8>()).prop_map(|(pid, target)| Op::Relocate { pid, target }),
        any::<u8>().prop_map(|pid| Op::Abort { pid }),
    ]
}

proptest! {
    /// After ANY interleaving of add/fence/relocate/abort: every
    /// partition has exactly one owner drawn from the admitted set, a
    /// successful remap never lands on an engine that was fenced at
    /// remap time, and a fenced engine's holdings never grow.
    #[test]
    fn membership_interleavings_keep_exactly_one_owner(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let mut map = fresh_map(2);
        for op in ops {
            let engines = map.num_engines();
            match op {
                Op::Add => {
                    let id = map.add_engine().unwrap();
                    prop_assert_eq!(id.index(), engines, "ids must stay dense");
                    prop_assert!(map.partitions_of(id).is_empty());
                }
                Op::Fence(i) => {
                    let e = EngineId((i as usize % engines) as u16);
                    map.fence_engine(e).unwrap();
                    prop_assert!(map.is_fenced(e));
                }
                Op::Relocate { pid, target } => {
                    let pid = PartitionId(pid as u32 % PARTS);
                    let target = EngineId((target as usize % engines) as u16);
                    let owner_before = map.owner(pid).unwrap();
                    let before = map.partitions_of(target).len();
                    map.pause(&[pid]).unwrap();
                    match map.remap_and_release(&[pid], target) {
                        Ok(_) => {
                            prop_assert!(!map.is_fenced(target),
                                "remap succeeded onto fenced {}", target);
                            prop_assert_eq!(map.owner(pid).unwrap(), target);
                            prop_assert!(map.partitions_of(target).len() >= before);
                        }
                        Err(_) => {
                            prop_assert!(map.is_fenced(target),
                                "remap to unfenced {} must succeed", target);
                            // Rejected: ownership unchanged, pause must
                            // be released by the abort path.
                            prop_assert_eq!(map.owner(pid).unwrap(), owner_before);
                            map.release_paused(&[pid]).unwrap();
                        }
                    }
                }
                Op::Abort { pid } => {
                    let pid = PartitionId(pid as u32 % PARTS);
                    let owner_before = map.owner(pid).unwrap();
                    map.pause(&[pid]).unwrap();
                    map.release_paused(&[pid]).unwrap();
                    prop_assert_eq!(map.owner(pid).unwrap(), owner_before,
                        "an aborted round must not change ownership");
                }
            }
            // Exactly-one-owner: every partition resolves to exactly
            // one admitted engine, and the per-engine holdings cover
            // the partition space exactly once.
            let total: usize = (0..map.num_engines())
                .map(|e| map.partitions_of(EngineId(e as u16)).len())
                .sum();
            prop_assert_eq!(total, PARTS as usize);
            for p in 0..PARTS {
                let owner = map.owner(PartitionId(p)).unwrap();
                prop_assert!(owner.index() < map.num_engines());
            }
            prop_assert!(map.paused_partitions().is_empty());
        }
    }
}

// ---- coordinator lifecycle ---------------------------------------------

#[test]
fn admit_then_join_ready_makes_an_engine_active_once() {
    let t = VirtualTime::ZERO;
    let mut gc = elastic_gc(2, 3);
    assert_eq!(gc.engine_state(EngineId(2)), EngineState::NotJoined);
    assert_eq!(gc.active_engines(), vec![EngineId(0), EngineId(1)]);

    gc.admit_engine(EngineId(2), t).unwrap();
    assert_eq!(gc.engine_state(EngineId(2)), EngineState::Active);
    assert_eq!(
        gc.active_engines(),
        vec![EngineId(0), EngineId(1), EngineId(2)]
    );
    // Double admission (e.g. a replayed scale event) is a protocol error.
    assert!(gc.admit_engine(EngineId(2), t).is_err());
    // A crash-restarted joiner resends JoinReady; the duplicate is
    // absorbed.
    gc.on_join_ready(EngineId(2), t);
    gc.on_join_ready(EngineId(2), t);
    assert_eq!(gc.engine_state(EngineId(2)), EngineState::Active);
}

#[test]
fn drain_refuses_the_last_engine_and_concurrent_drains() {
    let t = VirtualTime::ZERO;
    let mut gc = elastic_gc(2, 2);
    assert!(gc.request_drain(EngineId(1), t).unwrap());
    assert!(
        gc.request_drain(EngineId(0), t).is_err(),
        "only one drain at a time"
    );

    let mut solo = elastic_gc(1, 1);
    assert!(
        solo.request_drain(EngineId(0), t).is_err(),
        "the last active engine must never drain"
    );
}

/// A drain whose relocation rounds complete terminates: each round
/// shrinks the resident set, resident 0 finalizes the remap, and the
/// cleanup hand-off retires the engine.
#[test]
fn drain_terminates_when_rounds_complete() {
    let t = VirtualTime::ZERO;
    let mut gc = elastic_gc(2, 2);
    assert!(gc.request_drain(EngineId(1), t).unwrap());
    assert_eq!(gc.draining_engine(), Some(EngineId(1)));

    let mut resident = 4096u64;
    let mut steps = 0;
    while resident > 0 {
        steps += 1;
        assert!(steps < 16, "drain must terminate");
        match gc.on_drain_state(EngineId(1), resident, t).unwrap() {
            Some(Command::Cptv {
                round,
                sender,
                amount,
                attempt: 0,
            }) => {
                assert_eq!(sender, EngineId(1));
                assert_eq!(amount, resident, "a drain round asks for everything");
                // Sender answers Ptv with the partitions it picked
                // (step 2), receiver acks the transfer (step 6).
                let cmd = gc
                    .on_ptv(EngineId(1), round, vec![PartitionId(0)], t)
                    .unwrap();
                assert!(
                    matches!(
                        cmd,
                        Some(Command::Pause {
                            receiver: EngineId(0),
                            ..
                        })
                    ),
                    "only unfenced receiver: {cmd:?}"
                );
                let cmd = gc.on_transfer_ack(EngineId(0), round, 0, 0, t).unwrap();
                assert!(matches!(cmd, Some(Command::Remap { .. })));
                resident /= 2;
            }
            other => panic!("expected a drain relocation round, got {other:?}"),
        }
    }
    match gc.on_drain_state(EngineId(1), 0, t).unwrap() {
        Some(Command::FinalizeDrain { engine, receiver }) => {
            assert_eq!(engine, EngineId(1));
            assert_eq!(receiver, EngineId(0));
        }
        other => panic!("resident 0 must finalize, got {other:?}"),
    }
    gc.drain_finalized(EngineId(1), 0, t);
    assert_eq!(gc.engine_state(EngineId(1)), EngineState::DrainCleanup);
    assert!(gc.draining_engine().is_none());
    let moves = gc.finish_drain(EngineId(1), t);
    assert!(moves >= 1, "completed drain rounds count as moves");
    assert_eq!(gc.engine_state(EngineId(1)), EngineState::Drained);
    assert!(!gc.drain_in_progress());
    assert_eq!(gc.active_engines(), vec![EngineId(0)]);
}

/// A drain whose relocation rounds keep aborting still terminates: the
/// abort ladder degrades it to forced spill, which always makes
/// progress toward resident 0.
#[test]
fn drain_terminates_by_forced_spill_when_rounds_keep_aborting() {
    let t = VirtualTime::ZERO;
    let mut gc = elastic_gc(2, 2);
    assert!(gc.request_drain(EngineId(1), t).unwrap());

    // Three consecutive aborted drain rounds (empty Ptv → abort).
    for _ in 0..3 {
        let Some(Command::Cptv { round, .. }) = gc.on_drain_state(EngineId(1), 4096, t).unwrap()
        else {
            panic!("expected a drain round before degradation");
        };
        let cmd = gc.on_ptv(EngineId(1), round, vec![], t).unwrap();
        assert!(matches!(cmd, Some(Command::Empty { .. })));
    }
    // The ladder is exhausted: every further report degrades to a
    // forced spill of everything.
    assert_eq!(
        gc.on_drain_state(EngineId(1), 4096, t).unwrap(),
        Some(Command::DrainSpill {
            engine: EngineId(1)
        }),
        "exhausted abort ladder must force-spill everything"
    );
    // Spilling empties the store; the drain finalizes as usual.
    assert!(matches!(
        gc.on_drain_state(EngineId(1), 0, t).unwrap(),
        Some(Command::FinalizeDrain { .. })
    ));
    gc.drain_finalized(EngineId(1), 3, t);
    gc.finish_drain(EngineId(1), t);
    assert_eq!(gc.engine_state(EngineId(1)), EngineState::Drained);
    assert!(!gc.drain_in_progress());
}

/// Reports from an engine that is not the draining one (stale or
/// confused worker) are absorbed as warnings, never acted on.
#[test]
fn stale_drain_state_is_ignored() {
    let t = VirtualTime::ZERO;
    let mut gc = elastic_gc(3, 3);
    assert!(gc.request_drain(EngineId(2), t).unwrap());
    assert_eq!(gc.on_drain_state(EngineId(0), 777, t).unwrap(), None);
    assert_eq!(gc.draining_engine(), Some(EngineId(2)));
}
