//! Property-based robustness of the relocation protocol and the
//! placement map: arbitrary (including invalid) event sequences must
//! never panic the global coordinator, must reject out-of-order events,
//! and must never lose or duplicate buffered tuples.

use proptest::prelude::*;

use dcape_cluster::coordinator::{Command, GlobalCoordinator};
use dcape_cluster::faults::{FaultConfig, FaultPlan};
use dcape_cluster::placement::{PlacementMap, PlacementSpec, Route};
use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::stats::ClusterStats;
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::ids::{EngineId, PartitionId, StreamId};
use dcape_common::testing::proptest_cases as cases;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::TupleBuilder;
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::EngineStatsReport;
use dcape_metrics::journal::{AdaptEvent, JournalHandle};
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// An abstract input to the coordinator for fuzzing.
#[derive(Debug, Clone)]
enum Event {
    /// Step 2 from any engine (only 0 and 1 exist), for any round id.
    Ptv {
        from: u16,
        round: u64,
        parts: Vec<u32>,
    },
    /// Step 6 from any engine, for any round id and attempt.
    Ack { from: u16, round: u64, attempt: u32 },
    /// The clock advances by `ms`; the driver polls the phase deadline.
    Poll { ms: u64 },
    /// Statistics arrive: QE0 holds ten times QE1's state.
    Stats,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let ptv = (0u16..3, 0u64..3, proptest::collection::vec(0u32..16, 0..4))
        .prop_map(|(from, round, parts)| Event::Ptv { from, round, parts });
    let ack = (0u16..3, 0u64..3, 0u32..3).prop_map(|(from, round, attempt)| Event::Ack {
        from,
        round,
        attempt,
    });
    prop_oneof![
        ptv.clone(),
        ptv,
        ack.clone(),
        ack,
        (0u64..1_500).prop_map(|ms| Event::Poll { ms }),
        (0u8..1).prop_map(|_| Event::Stats),
    ]
}

fn load(engine: u16, memory_used: u64) -> EngineStatsReport {
    EngineStatsReport {
        engine: EngineId(engine),
        at: VirtualTime::ZERO,
        memory_used,
        num_groups: 10,
        window_output: 10,
        total_output: 0,
    }
}

/// The coordinator's patience, as the model below expects it: a phase
/// attempt lasts this long, is re-sent this often, and this many
/// consecutive aborts declare the receiver dead.
const PHASE_TIMEOUT_MS: u64 = 2_000;
const MAX_RETRIES: u32 = 3;
const PEER_DEATH_THRESHOLD: u32 = 3;

/// The round in flight, as the model tracks it.
#[derive(Debug)]
struct Live {
    id: u64,
    /// Step 2 arrived: the partitions paused and when.
    paused: Option<(Vec<PartitionId>, VirtualTime)>,
    attempt: u32,
    deadline: VirtualTime,
}

proptest! {
    // Cheap cases: a fixed count, many more than the default.
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    /// Random protocol events and deadline polls — from wrong parties,
    /// for stale, duplicate and never-opened rounds — never panic the
    /// coordinator, and it does exactly what the protocol says: a stale
    /// or duplicate message is journaled as a warning and moves nothing
    /// (a stale `Ptv` at most has its sender resumed, never the sender
    /// of the round in flight); a wrong party, a wrong phase or a round
    /// never opened is an error that leaves the round as it was; and a
    /// round completes only by a `Ptv` from its sender followed by an
    /// ack from its receiver of the `SendStates` attempt in flight.
    #[test]
    fn relocation_round_never_panics_and_orders_strictly(
        events in proptest::collection::vec(event_strategy(), 1..60)
    ) {
        let (e0, e1) = (EngineId(0), EngineId(1));
        let strategy = StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::ZERO,
        };
        let journal = JournalHandle::enabled();
        let mut gc = GlobalCoordinator::new(&strategy, 2, 2, journal.clone(), true);
        let warnings = || {
            journal
                .snapshot()
                .iter()
                .filter(|e| matches!(e.event, AdaptEvent::ProtocolWarning { .. }))
                .count()
        };
        let mut now = VirtualTime::ZERO;
        let mut opened = 0u64;
        let mut live: Option<Live> = None;
        let (mut aborts_in_a_row, mut completed) = (0u32, 0u32);
        for event in events {
            let warned = warnings();
            let mut refused = false;
            match event {
                Event::Stats => {
                    let stats = ClusterStats::new(vec![load(0, 1000), load(1, 100)]);
                    let cmd = gc.evaluate(&stats, now).unwrap();
                    let expected = if live.is_some() {
                        None
                    } else if aborts_in_a_row >= PEER_DEATH_THRESHOLD {
                        Some(Command::Spill { engine: e0, amount: 450 })
                    } else {
                        live = Some(Live {
                            id: opened,
                            paused: None,
                            attempt: 0,
                            deadline: now + VirtualDuration::from_millis(PHASE_TIMEOUT_MS),
                        });
                        opened += 1;
                        Some(Command::Cptv { round: opened - 1, sender: e0, amount: 450, attempt: 0 })
                    };
                    prop_assert_eq!(cmd, expected);
                }
                Event::Ptv { from, round, parts } => {
                    let parts: Vec<PartitionId> = parts.into_iter().map(PartitionId).collect();
                    let res = gc.on_ptv(EngineId(from), round, parts.clone(), now);
                    refused = res.is_err();
                    match live.as_mut().filter(|l| l.id == round) {
                        _ if round >= opened => prop_assert!(res.is_err(), "never opened"),
                        Some(_) if from != 0 => prop_assert!(res.is_err(), "wrong party"),
                        Some(l) if l.paused.is_some() => {
                            prop_assert_eq!(res.unwrap(), None, "duplicate");
                            prop_assert_eq!(warnings(), warned + 1);
                        }
                        Some(_) if parts.is_empty() => {
                            prop_assert_eq!(res.unwrap(), Some(Command::Empty { round, sender: e0 }));
                            live = None;
                        }
                        Some(l) => {
                            prop_assert_eq!(
                                res.unwrap(),
                                Some(Command::Pause { round, sender: e0, receiver: e1, parts: parts.clone() })
                            );
                            l.paused = Some((parts, now));
                            l.attempt = 0;
                            l.deadline = now + VirtualDuration::from_millis(PHASE_TIMEOUT_MS);
                        }
                        None => {
                            let sending = live.is_some() && from == 0;
                            let expected = (!sending).then_some(Command::Resume { round, engine: EngineId(from) });
                            prop_assert_eq!(res.unwrap(), expected, "stale");
                            prop_assert_eq!(warnings(), warned + 1);
                        }
                    }
                }
                Event::Ack { from, round, attempt } => {
                    let res = gc.on_transfer_ack(EngineId(from), round, attempt, 7, now);
                    refused = res.is_err();
                    match live.as_ref().filter(|l| l.id == round) {
                        _ if round >= opened => prop_assert!(res.is_err(), "never opened"),
                        Some(_) if from != 1 => prop_assert!(res.is_err(), "wrong party"),
                        Some(Live { paused: None, .. }) => prop_assert!(res.is_err(), "ack before ptv"),
                        Some(l) if l.attempt != attempt => {
                            prop_assert_eq!(res.unwrap(), None, "an earlier or later attempt");
                            prop_assert_eq!(warnings(), warned + 1);
                        }
                        Some(Live { paused: Some((parts, held_since)), .. }) => {
                            prop_assert_eq!(
                                res.unwrap(),
                                Some(Command::Remap {
                                    round,
                                    sender: e0,
                                    receiver: e1,
                                    parts: parts.clone(),
                                    bytes: 7,
                                    held_since: *held_since,
                                })
                            );
                            live = None;
                            aborts_in_a_row = 0;
                            completed += 1;
                        }
                        None => {
                            prop_assert_eq!(res.unwrap(), None, "stale");
                            prop_assert_eq!(warnings(), warned + 1);
                        }
                    }
                }
                Event::Poll { ms } => {
                    now += VirtualDuration::from_millis(ms);
                    let cmd = gc.check_timeout(now);
                    let expected = match live.as_mut() {
                        Some(l) if now >= l.deadline && l.attempt < MAX_RETRIES => {
                            l.attempt += 1;
                            l.deadline = now + VirtualDuration::from_millis(PHASE_TIMEOUT_MS);
                            Some(match &l.paused {
                                None => Command::Cptv { round: l.id, sender: e0, amount: 450, attempt: l.attempt },
                                Some((parts, _)) => Command::SendStates {
                                    round: l.id,
                                    sender: e0,
                                    receiver: e1,
                                    parts: parts.clone(),
                                    attempt: l.attempt,
                                },
                            })
                        }
                        Some(l) if now >= l.deadline => {
                            let abort = Command::Abort { round: l.id, sender: e0, receiver: e1, paused: l.paused.take() };
                            live = None;
                            aborts_in_a_row += 1;
                            Some(abort)
                        }
                        _ => None,
                    };
                    prop_assert_eq!(cmd, expected);
                }
            }
            if refused {
                prop_assert_eq!(warnings(), warned, "an error journals nothing");
            }
            prop_assert_eq!(gc.relocation_active(), live.is_some());
        }
        let moved = journal
            .snapshot()
            .iter()
            .filter(|e| matches!(e.event, AdaptEvent::RelocationStep { step: 6, .. }))
            .count();
        prop_assert_eq!(moved, completed as usize);
    }

    /// Buffered-tuple conservation: for any interleaving of routing,
    /// pausing, and remapping, every routed tuple is either delivered
    /// exactly once or returned exactly once by remap_and_release.
    #[test]
    fn placement_conserves_every_tuple(
        ops in proptest::collection::vec(
            prop_oneof![
                // Route a tuple to a random partition.
                (0u32..8).prop_map(|p| (0u8, p)),
                // Pause a partition.
                (0u32..8).prop_map(|p| (1u8, p)),
                // Remap (and release) a partition to engine 1.
                (0u32..8).prop_map(|p| (2u8, p)),
            ],
            1..40,
        )
    ) {
        let mut map = PlacementMap::new(&PlacementSpec::RoundRobin, 8, 2).unwrap();
        let mut seq = 0u64;
        let mut delivered = 0u64;
        let mut released = 0u64;
        let mut routed = 0u64;
        for (kind, p) in ops {
            let pid = PartitionId(p);
            match kind {
                0 => {
                    let t = TupleBuilder::new(StreamId(0)).seq(seq).value(1i64).build();
                    seq += 1;
                    routed += 1;
                    match map.route(pid, t).unwrap() {
                        Route::Deliver(_, _) => delivered += 1,
                        Route::Buffered => {}
                    }
                }
                1 => {
                    // Double pause must error, first pause must succeed.
                    let was_paused = map.paused_partitions().contains(&pid);
                    let r = map.pause(&[pid]);
                    prop_assert_eq!(r.is_err(), was_paused);
                }
                _ => {
                    let was_paused = map.paused_partitions().contains(&pid);
                    let r = map.remap_and_release(&[pid], EngineId(1));
                    prop_assert_eq!(r.is_ok(), was_paused);
                    if let Ok(out) = r {
                        for (_, tuples) in out {
                            released += tuples.len() as u64;
                        }
                    }
                }
            }
        }
        // Whatever is still buffered accounts for the difference.
        let still_buffered: u64 = map
            .paused_partitions()
            .into_iter()
            .map(|pid| {
                // Drain by remapping; counts the leftover buffers.
                map.remap_and_release(&[pid], EngineId(0))
                    .unwrap()
                    .into_iter()
                    .map(|(_, v)| v.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        prop_assert_eq!(delivered + released + still_buffered, routed);
    }
}

proptest! {
    // Each case is a full (small) chaos cluster run; CI's stress job
    // raises the count through `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig {
        cases: cases(6),
        ..ProptestConfig::default()
    })]

    /// Injected duplicates, drops, delays, corruptions, crashes and
    /// stalls — at any rate, under any seed — must never panic the
    /// protocol stack (errors are fine; panics are not), and whatever
    /// survives must still produce the exact join: the driver itself
    /// asserts per-engine accounting at shutdown, and the totals are
    /// compared against the fault-free run of the same workload.
    #[test]
    fn chaos_at_any_rate_never_panics_and_keeps_totals(
        seed in 0u64..10_000,
        rate_pct in 0u32..101,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let group_a: Vec<PartitionId> = (0..6).map(PartitionId).collect();
        let spec = StreamSetSpec::uniform(12, 1200, 1, VirtualDuration::from_millis(30))
            .with_payload_pad(64)
            .with_seed(seed)
            .with_pattern(ArrivalPattern::AlternatingSkew {
                group_a,
                ratio: 10.0,
                period: VirtualDuration::from_mins(1),
            });
        let deadline = VirtualTime::from_mins(3);
        let cfg = |faults: FaultPlan| {
            SimConfig::new(
                2,
                EngineConfig::three_way(1 << 30, 1 << 29),
                spec.clone(),
                StrategyConfig::LazyDisk {
                    theta_r: 0.9,
                    tau_m: VirtualDuration::from_secs(30),
                },
            )
            .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
            .with_stats_interval(VirtualDuration::from_secs(20))
            .with_faults(faults)
        };
        let run = |faults: FaultPlan| -> u64 {
            let mut driver = SimDriver::new(cfg(faults)).unwrap();
            driver.run_until(deadline).unwrap();
            driver.finish().unwrap().total_output()
        };
        let clean = run(FaultPlan::disabled());
        let chaotic = run(FaultPlan::new(seed, FaultConfig::uniform(rate)));
        prop_assert_eq!(chaotic, clean, "chaos at rate {} changed the total", rate);
    }
}
