//! Cross-runtime equivalence: the multi-process socket driver must
//! compute exactly what the threaded driver computes — identical result
//! totals, per-engine spill counts, and deterministic journal counters —
//! on spill-only, windowed, and relocation-heavy configurations; and it
//! must keep the chaos suite's exactly-once invariants over real TCP
//! sockets, including a real `kill -9` + respawn of a worker process.
//!
//! Workers are the actual `dcape-node` binary (cargo builds it for this
//! test; `CARGO_BIN_EXE_dcape-node` points at it), spawned on loopback
//! by the coordinator — or, in listen mode, started by the test itself.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use dcape_cluster::faults::{FaultConfig, FaultPlan};
use dcape_cluster::runtime::sim::{ScaleEvent, SimConfig};
use dcape_cluster::runtime::socket::{run_socket, KillPlan, SocketConfig, SocketMode};
use dcape_cluster::runtime::threaded::{run_threaded, ThreadedReport};
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::testing::{
    assert_chaos_invariants, count_events, dump_journal, relocation_cfg, relocation_workload, seeds,
};
use dcape_cluster::PlacementSpec;
use dcape_common::ids::EngineId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::{AdaptEvent, JournalEntry, Warning};
use dcape_streamgen::testing::reference_join;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// The worker binary cargo built alongside this test.
fn node_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dcape-node"))
}

fn socket_cfg(sim: SimConfig) -> SocketConfig {
    SocketConfig {
        sim,
        mode: SocketMode::Spawn {
            node_bin: node_bin(),
        },
        kill: None,
    }
}

/// Tight memory, no adaptation strategy: pure spill + cleanup — the
/// regime where both runtimes are fully deterministic, down to the
/// per-engine spill counts and routed-tuple counters.
fn spill_cfg(spec: StreamSetSpec, engines: usize) -> SimConfig {
    SimConfig::new(
        engines,
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4),
        spec,
        StrategyConfig::NoAdaptation,
    )
    .with_placement(PlacementSpec::Fractions(vec![
        1.0 / engines as f64;
        engines
    ]))
    .with_stats_interval(VirtualDuration::from_secs(30))
    .with_journal()
}

/// A journal entry recording a worker's respawn.
fn respawned(e: &JournalEntry) -> bool {
    matches!(
        e.event,
        AdaptEvent::ProtocolWarning {
            code: Warning::WorkerRespawned,
            ..
        }
    )
}

/// Equality of everything that is deterministic across the two
/// concurrent runtimes on a fault-free, adaptation-free run.
fn assert_deterministic_equivalence(t: &ThreadedReport, s: &ThreadedReport, what: &str) {
    assert_eq!(t.total_output(), s.total_output(), "{what}: total output");
    assert_eq!(
        t.runtime_output, s.runtime_output,
        "{what}: runtime-phase output"
    );
    assert_eq!(
        t.cleanup_output, s.cleanup_output,
        "{what}: cleanup-phase output"
    );
    assert_eq!(t.spill_counts, s.spill_counts, "{what}: per-engine spills");
    let (tc, sc) = (&t.journal_counters, &s.journal_counters);
    assert_eq!(tc.tuples_routed, sc.tuples_routed, "{what}: tuples routed");
    assert_eq!(tc.spill_bytes, sc.spill_bytes, "{what}: spill bytes");
    for (name, tv, sv) in [
        ("relocation_bytes", tc.relocation_bytes, sc.relocation_bytes),
        (
            "buffered_in_flight",
            tc.buffered_in_flight,
            sc.buffered_in_flight,
        ),
        (
            "replayed_in_order",
            tc.replayed_in_order,
            sc.replayed_in_order,
        ),
        ("faults_injected", tc.faults_injected, sc.faults_injected),
        ("msgs_retried", tc.msgs_retried, sc.msgs_retried),
        ("rounds_aborted", tc.rounds_aborted, sc.rounds_aborted),
    ] {
        assert_eq!(tv, 0, "{what}: threaded {name} must be zero on this run");
        assert_eq!(sv, 0, "{what}: socket {name} must be zero on this run");
    }
}

#[test]
fn spill_run_is_equivalent_across_runtimes() {
    let deadline = VirtualTime::from_mins(4);
    let spec = relocation_workload(55).with_pattern(ArrivalPattern::Uniform);

    let threaded = run_threaded(spill_cfg(spec.clone(), 2), deadline).unwrap();
    dump_journal("socketeq-spill-threaded", &threaded.journal);
    assert!(
        threaded.spill_counts.iter().sum::<u64>() > 0,
        "the spill regime must actually spill"
    );
    assert_eq!(
        threaded.total_output(),
        reference_join(&spec, deadline, None).unwrap().count()
    );

    let socket = run_socket(socket_cfg(spill_cfg(spec, 2)), deadline).unwrap();
    dump_journal("socketeq-spill-socket", &socket.journal);
    assert_deterministic_equivalence(&threaded, &socket, "spill run");
}

/// Workers started by hand, reaped on drop — also when the run under
/// test fails.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Listen mode: the coordinator binds an address and `dcape-node
/// --connect <addr> --engine-id <i>` processes started by hand serve
/// the run — the same totals as the threaded runtime.
#[test]
fn listen_mode_with_hand_started_workers_is_equivalent() {
    let deadline = VirtualTime::from_mins(4);
    let spec = relocation_workload(55).with_pattern(ArrivalPattern::Uniform);
    let threaded = run_threaded(spill_cfg(spec.clone(), 2), deadline).unwrap();

    // A free loopback port; a worker retries its connection until the
    // coordinator has bound it.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .to_string();
    let workers = Workers(
        (0..2)
            .map(|i| {
                Command::new(node_bin())
                    .args(["--connect", &addr, "--engine-id", &i.to_string()])
                    .stdin(Stdio::null())
                    .spawn()
                    .expect("start dcape-node")
            })
            .collect(),
    );
    let cfg = SocketConfig {
        sim: spill_cfg(spec, 2),
        mode: SocketMode::Listen { addr },
        kill: None,
    };
    let socket = run_socket(cfg, deadline).unwrap();
    // A serving worker would wait out its reconnect grace for a next run.
    drop(workers);
    dump_journal("socketeq-listen-socket", &socket.journal);
    assert_deterministic_equivalence(&threaded, &socket, "listen mode");
}

#[test]
fn windowed_run_is_equivalent_across_runtimes() {
    let deadline = VirtualTime::from_mins(4);
    let spec = relocation_workload(91).with_pattern(ArrivalPattern::Uniform);
    let windowed = |spec: StreamSetSpec| {
        let mut cfg = spill_cfg(spec, 2);
        cfg.engine.join = cfg.engine.join.with_window(VirtualDuration::from_secs(60));
        cfg
    };

    let threaded = run_threaded(windowed(spec.clone()), deadline).unwrap();
    dump_journal("socketeq-windowed-threaded", &threaded.journal);
    let socket = run_socket(socket_cfg(windowed(spec)), deadline).unwrap();
    dump_journal("socketeq-windowed-socket", &socket.journal);
    assert!(
        threaded.total_output() > 0,
        "windowed run must produce results"
    );
    assert_deterministic_equivalence(&threaded, &socket, "windowed run");
}

#[test]
fn relocation_run_matches_threaded_and_reference() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(77);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let threaded = run_threaded(relocation_cfg(spec.clone(), 2), deadline).unwrap();
    dump_journal("socketeq-reloc-threaded", &threaded.journal);
    assert!(threaded.relocations > 0, "threaded baseline must relocate");
    assert_eq!(threaded.total_output(), reference);

    let socket = run_socket(socket_cfg(relocation_cfg(spec, 2)), deadline).unwrap();
    dump_journal("socketeq-reloc-socket", &socket.journal);
    assert!(
        socket.relocations > 0,
        "the socket run must exercise the relocation protocol (relayed \
         InstallStates over TCP) for this test to mean anything"
    );
    assert_eq!(
        socket.total_output(),
        reference,
        "relocations over real sockets changed the total"
    );
    assert_eq!(socket.journal_counters.faults_injected, 0);
    assert_eq!(socket.journal_counters.buffered_in_flight, 0);
}

#[test]
fn chaos_totals_survive_real_sockets() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(77);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    for seed in seeds() {
        let plan = FaultPlan::new(seed, FaultConfig::uniform(0.2));
        let report = run_socket(
            socket_cfg(relocation_cfg(spec.clone(), 2).with_faults(plan)),
            deadline,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: socket chaos run failed: {e}"));
        dump_journal(&format!("socketeq-chaos-seed{seed}"), &report.journal);
        assert_eq!(
            report.total_output(),
            reference,
            "seed {seed}: chaos over real sockets changed the total"
        );
        assert_chaos_invariants(&report.journal, &report.journal_counters);
    }
}

#[test]
fn kill_nine_and_respawn_is_exactly_once() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(42);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let mut cfg = socket_cfg(relocation_cfg(spec, 2));
    cfg.kill = Some(KillPlan {
        engine: EngineId(1),
        after_stats: 2,
    });
    let report = run_socket(cfg, deadline).unwrap();
    dump_journal("socketeq-kill9", &report.journal);

    let respawns = report.journal.iter().filter(|e| respawned(e)).count();
    assert!(
        respawns >= 1,
        "the kill plan must actually kill and respawn a worker"
    );
    assert_eq!(
        report.total_output(),
        reference,
        "kill -9 + full-history replay must keep the totals exactly once"
    );
    assert_eq!(report.journal_counters.buffered_in_flight, 0);
}

// ---- elasticity over real sockets ---------------------------------------

/// A worker process joins mid-run (late `Hello` on the live acceptor),
/// takes state through rebalancing rounds, and another drains out and
/// exits cleanly — and the totals still match both the threaded runtime
/// and the generator-level reference.
#[test]
fn elastic_join_and_drain_match_threaded_and_reference() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(13);
    let reference = reference_join(&spec, deadline, None).unwrap().count();
    let elastic = |spec: StreamSetSpec| {
        relocation_cfg(spec, 2).with_scale_events(vec![
            ScaleEvent::add(VirtualTime::from_secs(60)),
            ScaleEvent::drain_engine(VirtualTime::from_mins(3), EngineId(0)),
        ])
    };

    let threaded = run_threaded(elastic(spec.clone()), deadline).unwrap();
    dump_journal("socketeq-elastic-threaded", &threaded.journal);
    assert_eq!(threaded.total_output(), reference);

    let socket = run_socket(socket_cfg(elastic(spec)), deadline).unwrap();
    dump_journal("socketeq-elastic-socket", &socket.journal);
    assert_eq!(
        socket.total_output(),
        reference,
        "join+drain over real sockets changed the total"
    );
    for report in [&threaded, &socket] {
        assert_eq!(
            count_events(&report.journal, |e| matches!(
                e,
                AdaptEvent::EngineJoined { .. }
            )),
            1,
            "the join must be journaled exactly once"
        );
        assert_eq!(
            count_events(&report.journal, |e| matches!(
                e,
                AdaptEvent::EngineDrained { .. }
            )),
            1,
            "the drain must be journaled exactly once"
        );
        assert_eq!(report.journal_counters.buffered_in_flight, 0);
    }
}

/// `kill -9` of the *draining* worker mid-drain: the respawned process
/// replays its history, the drain resumes, and the books still close
/// exactly once.
#[test]
fn kill_nine_mid_drain_is_exactly_once() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(42);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let mut cfg =
        socket_cfg(
            relocation_cfg(spec, 2).with_scale_events(vec![ScaleEvent::drain_engine(
                VirtualTime::from_secs(90),
                EngineId(1),
            )]),
        );
    // Stats land every 30 virtual seconds, so engine 1 has sent three
    // stats reports when its drain starts at 90s — the fourth counted
    // message is its first `DrainState`, i.e. the SIGKILL lands with
    // the drain (and usually a drain relocation round) in flight.
    cfg.kill = Some(KillPlan {
        engine: EngineId(1),
        after_stats: 4,
    });
    let report = run_socket(cfg, deadline).unwrap();
    dump_journal("socketeq-kill9-mid-drain", &report.journal);

    let respawns = report.journal.iter().filter(|e| respawned(e)).count();
    assert!(
        respawns >= 1,
        "the kill plan must kill and respawn a worker"
    );
    let drain_started_at = report
        .journal
        .iter()
        .find_map(|e| match e.event {
            AdaptEvent::ProtocolWarning {
                code: Warning::DrainStarted,
                ..
            } => Some(e.at),
            _ => None,
        })
        .expect("the drain must have started");
    assert!(
        report
            .journal
            .iter()
            .any(|e| respawned(e) && e.at >= drain_started_at),
        "the kill must land after the drain began (mid-drain)"
    );
    assert_eq!(
        count_events(&report.journal, |e| matches!(
            e,
            AdaptEvent::EngineDrained { .. }
        )),
        1,
        "the drain must still run to completion after the respawn"
    );
    assert_eq!(
        report.total_output(),
        reference,
        "kill -9 mid-drain must keep the totals exactly once"
    );
    assert_eq!(report.journal_counters.buffered_in_flight, 0);
}

/// `kill -9` of a freshly-joined worker while the rebalancer is still
/// moving state toward it: the respawn replays the joiner's short
/// history (its `JoinReady` resend is absorbed as a duplicate) and the
/// join completes with exactly-once totals.
#[test]
fn joiner_crash_restart_mid_admission_is_exactly_once() {
    let deadline = VirtualTime::from_mins(5);
    let spec = relocation_workload(23);
    let reference = reference_join(&spec, deadline, None).unwrap().count();

    let mut cfg = socket_cfg(
        relocation_cfg(spec, 2)
            .with_scale_events(vec![ScaleEvent::add(VirtualTime::from_secs(60))]),
    );
    // The joiner's first counted message is its first stats report,
    // sent moments after admission — the SIGKILL hits while it is
    // still being filled by join-rebalancing rounds.
    cfg.kill = Some(KillPlan {
        engine: EngineId(2),
        after_stats: 1,
    });
    let report = run_socket(cfg, deadline).unwrap();
    dump_journal("socketeq-kill9-joiner", &report.journal);

    let respawns = report.journal.iter().filter(|e| respawned(e)).count();
    assert!(
        respawns >= 1,
        "the kill plan must kill and respawn the joiner"
    );
    assert_eq!(
        count_events(&report.journal, |e| matches!(
            e,
            AdaptEvent::EngineJoined { .. }
        )),
        1,
        "the join must be journaled exactly once despite the crash"
    );
    assert!(
        report.journal_counters.rebalance_moves > 0,
        "state must still move toward the restarted joiner"
    );
    assert_eq!(
        report.total_output(),
        reference,
        "a joiner crash-restart mid-admission must keep the totals exactly once"
    );
    assert_eq!(report.journal_counters.buffered_in_flight, 0);
}
