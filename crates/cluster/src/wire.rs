//! Binary wire format for the socket runtime.
//!
//! Every protocol message of [`crate::messages`] — plus the session
//! frames the socket runtime adds (`Hello`, `Welcome`, `Relay`) — has a
//! hand-rolled encoding built from the same primitives as the spill
//! segment format (`dcape-storage::codec`): little-endian scalars and
//! LEB128 varints, no external serialization dependency.
//!
//! ## Framing
//!
//! ```text
//! frame   := len:u32le payload trailer:u32le
//! payload := seq:varint kind:u8 body
//! trailer := len ^ LEN_CHECK
//! ```
//!
//! The trailer is the PR-5 corruption-detection idea applied to the
//! transport: the receiver re-derives the expected trailer from the
//! header it acted on, so a torn or misframed stream is detected at the
//! frame boundary instead of desynchronizing the decoder. (The chaos
//! layer's *semantic* corrupt-length fault still rides inside
//! `InstallStates::declared_bytes`, exactly as on the threaded runtime —
//! a trailer mismatch means real transport corruption and is fatal for
//! the connection.)
//!
//! `seq` is the coordinator's per-engine frame sequence number (1-based;
//! `0` marks unsequenced worker→coordinator traffic). The coordinator
//! retains every sequenced frame it ever sent, so a respawned worker can
//! be replayed deterministically from the beginning — see
//! [`crate::runtime::socket`].

use std::io::{Read, Write};

use bytes::Buf;

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::{CostModel, EngineConfig, MJoinConfig};
use dcape_engine::spill::policy::VictimPolicy;
use dcape_engine::state::productivity::ProductivityEstimator;
use dcape_engine::stats::EngineStatsReport;
use dcape_metrics::journal::{AdaptEvent, CountersSnapshot, JournalEntry, SpillTrigger};
use dcape_storage::codec::{get_varint, put_varint};
use dcape_storage::{DiskModel, SegmentCodec, SpilledGroup};

use crate::faults::FaultConfig;
use crate::messages::{FromEngine, GroupTransfer, ToEngine};

/// XOR mask for the frame trailer, so an all-zero stream does not parse
/// as an endless run of empty frames.
pub const LEN_CHECK: u32 = 0xA5C3_3C5A;

/// Upper bound on one frame's payload; anything larger is treated as a
/// desynchronized or corrupted stream.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Process exit code a worker uses for a chaos-injected crash-restart;
/// the coordinator respawns workers that die with it (or by signal) and
/// fails the run on anything else but a clean exit.
pub const CRASH_EXIT: i32 = 86;

// Frame kind tags. Coordinator → worker (sequenced); 0x01 carried the
// retired one-tuple data message and is not reused:
const K_DATA_BATCH: u8 = 0x02;
const K_CPTV: u8 = 0x03;
const K_SEND_STATES: u8 = 0x04;
const K_INSTALL_STATES: u8 = 0x05;
const K_ABORT_ROUND: u8 = 0x06;
const K_RESUME: u8 = 0x07;
const K_START_SPILL: u8 = 0x08;
const K_REPORT_STATS: u8 = 0x09;
const K_TICK: u8 = 0x0A;
const K_PREPARE_CLEANUP: u8 = 0x0B;
const K_FORWARDED_SEGMENTS: u8 = 0x0C;
const K_START_CLEANUP: u8 = 0x0D;
const K_BEGIN_DRAIN: u8 = 0x0E;
const K_FENCE_NOTICE: u8 = 0x0F;
// Worker → coordinator (unsequenced):
const K_PTV: u8 = 0x20;
const K_TRANSFER_ACK: u8 = 0x21;
const K_STATS: u8 = 0x22;
const K_CLEANUP_READY: u8 = 0x23;
const K_CLEANUP_DONE: u8 = 0x24;
const K_DRAIN_STATE: u8 = 0x25;
const K_JOIN_READY: u8 = 0x26;
// Session:
const K_HELLO: u8 = 0x30;
const K_WELCOME: u8 = 0x31;
const K_RELAY: u8 = 0x32;

/// Worker → coordinator handshake, first frame on every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The engine this worker hosts.
    pub engine: EngineId,
    /// Highest frame sequence number the worker has already applied
    /// (always 0 today: a respawned worker starts from scratch and the
    /// coordinator replays its full history).
    pub resume_from: u64,
}

/// Coordinator → worker handshake reply: the full engine configuration,
/// so `dcape-node` needs nothing on its command line beyond an address
/// and an engine id.
#[derive(Debug, Clone)]
pub struct Welcome {
    /// The engine id the coordinator expects on this connection.
    pub engine: EngineId,
    /// Cluster size (diagnostics only — relayed peer messages carry
    /// explicit targets).
    pub num_engines: u16,
    /// The engine configuration to instantiate.
    pub config: EngineConfig,
    /// Whether to keep an adaptation-event journal.
    pub journal: bool,
    /// Seed of the deterministic fault plan.
    pub fault_seed: u64,
    /// Rates of the deterministic fault plan.
    pub faults: FaultConfig,
    /// Frames with `seq <= replay_until` are replayed history: the
    /// worker must process them *without* consulting the fault plan, or
    /// a crash-restart fault would deterministically re-fire on every
    /// respawn and the worker could never get past it.
    pub replay_until: u64,
}

/// Anything that can travel in one frame.
#[derive(Debug)]
pub enum WireMsg {
    /// A coordinator → worker protocol message.
    Engine(ToEngine),
    /// A worker → coordinator protocol message.
    Coord(FromEngine),
    /// Worker handshake.
    Hello(Hello),
    /// Coordinator handshake reply.
    Welcome(Box<Welcome>),
    /// A worker-originated peer message (`InstallStates`,
    /// `ForwardedSegments`), relayed through the coordinator's star
    /// topology to engine `to`.
    Relay {
        /// Destination engine.
        to: EngineId,
        /// The peer message.
        msg: ToEngine,
    },
}

// ---------------------------------------------------------------------
// Primitive helpers.

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn get_bool(buf: &mut &[u8]) -> Result<bool> {
    if buf.is_empty() {
        return Err(DcapeError::codec("wire: unexpected end of input"));
    }
    let b = buf[0];
    buf.advance(1);
    Ok(b != 0)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.is_empty() {
        return Err(DcapeError::codec("wire: unexpected end of input"));
    }
    let b = buf[0];
    buf.advance(1);
    Ok(b)
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_f64(buf: &mut &[u8]) -> Result<f64> {
    if buf.len() < 8 {
        return Err(DcapeError::codec("wire: unexpected end of input"));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[..8]);
    buf.advance(8);
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

fn put_time(buf: &mut Vec<u8>, t: VirtualTime) {
    put_varint(buf, t.as_millis());
}

fn get_time(buf: &mut &[u8]) -> Result<VirtualTime> {
    Ok(VirtualTime::from_millis(get_varint(buf)?))
}

fn put_dur(buf: &mut Vec<u8>, d: VirtualDuration) {
    put_varint(buf, d.as_millis());
}

fn get_dur(buf: &mut &[u8]) -> Result<VirtualDuration> {
    Ok(VirtualDuration::from_millis(get_varint(buf)?))
}

fn put_engine(buf: &mut Vec<u8>, e: EngineId) {
    put_varint(buf, e.0 as u64);
}

fn get_engine(buf: &mut &[u8]) -> Result<EngineId> {
    let v = get_varint(buf)?;
    u16::try_from(v)
        .map(EngineId)
        .map_err(|_| DcapeError::codec("wire: engine id out of range"))
}

fn put_pid(buf: &mut Vec<u8>, p: PartitionId) {
    put_varint(buf, p.0 as u64);
}

fn get_pid(buf: &mut &[u8]) -> Result<PartitionId> {
    let v = get_varint(buf)?;
    u32::try_from(v)
        .map(PartitionId)
        .map_err(|_| DcapeError::codec("wire: partition id out of range"))
}

fn get_count(buf: &mut &[u8], what: &str) -> Result<usize> {
    let n = get_varint(buf)? as usize;
    // Every counted element encodes to at least one byte; a count that
    // exceeds the remaining payload is garbage, not a huge message.
    if n > buf.len() {
        return Err(DcapeError::codec(format!("wire: implausible {what} count")));
    }
    Ok(n)
}

fn put_parts(buf: &mut Vec<u8>, parts: &[PartitionId]) {
    put_varint(buf, parts.len() as u64);
    for p in parts {
        put_pid(buf, *p);
    }
}

fn get_parts(buf: &mut &[u8]) -> Result<Vec<PartitionId>> {
    let n = get_count(buf, "partition")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_pid(buf)?);
    }
    Ok(out)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let n = get_count(buf, "string byte")?;
    let s = std::str::from_utf8(&buf[..n])
        .map_err(|_| DcapeError::codec("wire: invalid utf-8 string"))?
        .to_owned();
    buf.advance(n);
    Ok(s)
}

/// Journal events carry `&'static str` codes; known codes decode to the
/// program's own literals (pointer-stable, allocation-free), unknown
/// ones — a newer peer, a fuzzer — are leaked once and kept.
fn intern(s: String) -> &'static str {
    const KNOWN: &[&str] = &[
        // Fault names (FaultDecision::fault_name + stall/crash).
        "drop",
        "duplicate",
        "delay",
        "corrupt_length",
        "stall",
        "crash_restart",
        // Edge names (FaultEdge::name).
        "cptv",
        "ptv",
        "send_states",
        "install_states",
        "transfer_ack",
        "cleanup_segments",
        // Protocol warning codes.
        "corrupt_transfer_discarded",
        "drain_degraded_to_spill",
        "drain_remainder_remapped",
        "drain_started",
        "duplicate_install",
        "duplicate_join_ready",
        "peer_declared_dead",
        "phase_timeout_retry",
        "relocation_degraded_to_spill",
        "round_aborted",
        "round_unwound",
        "send_to_fenced_dropped",
        "stale_ack_after_quiesce",
        "stale_cptv",
        "stale_drain_state",
        "stale_ptv_after_quiesce",
        "stale_send_states",
        "stale_transfer_ack",
        "worker_respawned",
    ];
    for k in KNOWN {
        if *k == s {
            return k;
        }
    }
    Box::leak(s.into_boxed_str())
}

fn get_static_str(buf: &mut &[u8]) -> Result<&'static str> {
    Ok(intern(get_str(buf)?))
}

// ---------------------------------------------------------------------
// Composite helpers.

fn put_group(buf: &mut Vec<u8>, g: &SpilledGroup) {
    let bytes = g.encode();
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(&bytes);
}

fn get_group(buf: &mut &[u8]) -> Result<SpilledGroup> {
    let n = get_count(buf, "segment byte")?;
    let g = SpilledGroup::decode_slice(&buf[..n])?;
    buf.advance(n);
    Ok(g)
}

fn put_transfer(buf: &mut Vec<u8>, g: &GroupTransfer) {
    put_group(buf, &g.snapshot);
    put_varint(buf, g.output_count);
    put_bool(buf, g.purge_protect);
}

fn get_transfer(buf: &mut &[u8]) -> Result<GroupTransfer> {
    Ok(GroupTransfer {
        snapshot: get_group(buf)?,
        output_count: get_varint(buf)?,
        purge_protect: get_bool(buf)?,
    })
}

fn put_stats_report(buf: &mut Vec<u8>, r: &EngineStatsReport) {
    put_engine(buf, r.engine);
    put_time(buf, r.at);
    put_varint(buf, r.memory_used);
    put_varint(buf, r.memory_budget);
    put_varint(buf, r.num_groups as u64);
    put_varint(buf, r.window_output);
    put_varint(buf, r.total_output);
    put_f64(buf, r.avg_productivity_rate);
    put_varint(buf, r.spilled_bytes);
    put_varint(buf, r.spill_count);
}

fn get_stats_report(buf: &mut &[u8]) -> Result<EngineStatsReport> {
    Ok(EngineStatsReport {
        engine: get_engine(buf)?,
        at: get_time(buf)?,
        memory_used: get_varint(buf)?,
        memory_budget: get_varint(buf)?,
        num_groups: get_varint(buf)? as usize,
        window_output: get_varint(buf)?,
        total_output: get_varint(buf)?,
        avg_productivity_rate: get_f64(buf)?,
        spilled_bytes: get_varint(buf)?,
        spill_count: get_varint(buf)?,
    })
}

fn put_counters(buf: &mut Vec<u8>, c: &CountersSnapshot) {
    for v in [
        c.tuples_routed,
        c.spill_bytes,
        c.spill_bytes_written,
        c.spill_bytes_read,
        c.relocation_bytes,
        c.transfer_bytes,
        c.buffered_in_flight,
        c.purges_deferred,
        c.watermark_held_ms,
        c.replayed_in_order,
        c.faults_injected,
        c.msgs_retried,
        c.rounds_aborted,
        c.watermark_released_on_abort,
        c.rebalance_moves,
        c.events_recorded,
        c.events_dropped,
    ] {
        put_varint(buf, v);
    }
}

fn get_counters(buf: &mut &[u8]) -> Result<CountersSnapshot> {
    Ok(CountersSnapshot {
        tuples_routed: get_varint(buf)?,
        spill_bytes: get_varint(buf)?,
        spill_bytes_written: get_varint(buf)?,
        spill_bytes_read: get_varint(buf)?,
        relocation_bytes: get_varint(buf)?,
        transfer_bytes: get_varint(buf)?,
        buffered_in_flight: get_varint(buf)?,
        purges_deferred: get_varint(buf)?,
        watermark_held_ms: get_varint(buf)?,
        replayed_in_order: get_varint(buf)?,
        faults_injected: get_varint(buf)?,
        msgs_retried: get_varint(buf)?,
        rounds_aborted: get_varint(buf)?,
        watermark_released_on_abort: get_varint(buf)?,
        rebalance_moves: get_varint(buf)?,
        events_recorded: get_varint(buf)?,
        events_dropped: get_varint(buf)?,
    })
}

fn put_event(buf: &mut Vec<u8>, e: &AdaptEvent) {
    match e {
        AdaptEvent::SpillDecision {
            engine,
            trigger,
            groups,
            state_bytes,
            encoded_bytes,
            memory_used,
            memory_budget,
        } => {
            buf.push(0);
            put_engine(buf, *engine);
            buf.push(match trigger {
                SpillTrigger::MemoryThreshold => 0,
                SpillTrigger::Forced => 1,
            });
            put_parts(buf, groups);
            put_varint(buf, *state_bytes);
            put_varint(buf, *encoded_bytes);
            put_varint(buf, *memory_used);
            put_varint(buf, *memory_budget);
        }
        AdaptEvent::RelocationStep {
            round,
            step,
            sender,
            receiver,
            parts,
            bytes,
            buffered_tuples,
            load_ratio,
        } => {
            buf.push(1);
            put_varint(buf, *round);
            buf.push(*step);
            put_engine(buf, *sender);
            put_engine(buf, *receiver);
            put_parts(buf, parts);
            put_varint(buf, *bytes);
            put_varint(buf, *buffered_tuples);
            put_f64(buf, *load_ratio);
        }
        AdaptEvent::CleanupPhase {
            engine,
            group,
            missing_results,
            scanned_tuples,
            disk_bytes_read,
        } => {
            buf.push(2);
            put_engine(buf, *engine);
            put_pid(buf, *group);
            put_varint(buf, *missing_results);
            put_varint(buf, *scanned_tuples);
            put_varint(buf, *disk_bytes_read);
        }
        AdaptEvent::StatsSample {
            engines,
            max_load,
            min_load,
            load_ratio,
            productivity_ratio,
            memory_used,
            memory_budget,
        } => {
            buf.push(3);
            put_varint(buf, *engines as u64);
            put_f64(buf, *max_load);
            put_f64(buf, *min_load);
            put_f64(buf, *load_ratio);
            put_f64(buf, *productivity_ratio);
            put_varint(buf, *memory_used);
            put_varint(buf, *memory_budget);
        }
        AdaptEvent::MemoryPressure {
            engine,
            used,
            budget,
        } => {
            buf.push(4);
            put_engine(buf, *engine);
            put_varint(buf, *used);
            put_varint(buf, *budget);
        }
        AdaptEvent::FaultInjected {
            fault,
            edge,
            round,
            attempt,
        } => {
            buf.push(5);
            put_str(buf, fault);
            put_str(buf, edge);
            put_varint(buf, *round);
            put_varint(buf, *attempt as u64);
        }
        AdaptEvent::ProtocolWarning {
            code,
            engine,
            round,
            detail,
        } => {
            buf.push(6);
            put_str(buf, code);
            put_engine(buf, *engine);
            put_varint(buf, *round);
            put_varint(buf, *detail);
        }
        AdaptEvent::EngineJoined { engine, members } => {
            buf.push(7);
            put_engine(buf, *engine);
            put_varint(buf, *members as u64);
        }
        AdaptEvent::EngineDrained { engine, moves } => {
            buf.push(8);
            put_engine(buf, *engine);
            put_varint(buf, *moves);
        }
    }
}

fn get_event(buf: &mut &[u8]) -> Result<AdaptEvent> {
    Ok(match get_u8(buf)? {
        0 => AdaptEvent::SpillDecision {
            engine: get_engine(buf)?,
            trigger: match get_u8(buf)? {
                0 => SpillTrigger::MemoryThreshold,
                1 => SpillTrigger::Forced,
                t => return Err(DcapeError::codec(format!("wire: bad spill trigger {t}"))),
            },
            groups: get_parts(buf)?,
            state_bytes: get_varint(buf)?,
            encoded_bytes: get_varint(buf)?,
            memory_used: get_varint(buf)?,
            memory_budget: get_varint(buf)?,
        },
        1 => AdaptEvent::RelocationStep {
            round: get_varint(buf)?,
            step: get_u8(buf)?,
            sender: get_engine(buf)?,
            receiver: get_engine(buf)?,
            parts: get_parts(buf)?,
            bytes: get_varint(buf)?,
            buffered_tuples: get_varint(buf)?,
            load_ratio: get_f64(buf)?,
        },
        2 => AdaptEvent::CleanupPhase {
            engine: get_engine(buf)?,
            group: get_pid(buf)?,
            missing_results: get_varint(buf)?,
            scanned_tuples: get_varint(buf)?,
            disk_bytes_read: get_varint(buf)?,
        },
        3 => AdaptEvent::StatsSample {
            engines: get_varint(buf)? as u32,
            max_load: get_f64(buf)?,
            min_load: get_f64(buf)?,
            load_ratio: get_f64(buf)?,
            productivity_ratio: get_f64(buf)?,
            memory_used: get_varint(buf)?,
            memory_budget: get_varint(buf)?,
        },
        4 => AdaptEvent::MemoryPressure {
            engine: get_engine(buf)?,
            used: get_varint(buf)?,
            budget: get_varint(buf)?,
        },
        5 => AdaptEvent::FaultInjected {
            fault: get_static_str(buf)?,
            edge: get_static_str(buf)?,
            round: get_varint(buf)?,
            attempt: get_varint(buf)? as u32,
        },
        6 => AdaptEvent::ProtocolWarning {
            code: get_static_str(buf)?,
            engine: get_engine(buf)?,
            round: get_varint(buf)?,
            detail: get_varint(buf)?,
        },
        7 => AdaptEvent::EngineJoined {
            engine: get_engine(buf)?,
            members: get_varint(buf)? as u32,
        },
        8 => AdaptEvent::EngineDrained {
            engine: get_engine(buf)?,
            moves: get_varint(buf)?,
        },
        t => return Err(DcapeError::codec(format!("wire: bad event tag {t}"))),
    })
}

fn put_journal(buf: &mut Vec<u8>, entries: &[JournalEntry]) {
    put_varint(buf, entries.len() as u64);
    for e in entries {
        put_time(buf, e.at);
        put_varint(buf, e.seq);
        put_event(buf, &e.event);
    }
}

fn get_journal(buf: &mut &[u8]) -> Result<Vec<JournalEntry>> {
    let n = get_count(buf, "journal entry")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(JournalEntry {
            at: get_time(buf)?,
            seq: get_varint(buf)?,
            event: get_event(buf)?,
        });
    }
    Ok(out)
}

fn put_engine_config(buf: &mut Vec<u8>, c: &EngineConfig) {
    put_varint(buf, c.join.num_streams as u64);
    put_varint(buf, c.join.join_columns.len() as u64);
    for col in &c.join.join_columns {
        put_varint(buf, *col as u64);
    }
    match c.join.window {
        None => put_bool(buf, false),
        Some(w) => {
            put_bool(buf, true);
            put_dur(buf, w);
        }
    }
    put_varint(buf, c.memory_budget);
    put_varint(buf, c.spill_threshold);
    put_f64(buf, c.spill_fraction);
    buf.push(match c.victim_policy {
        VictimPolicy::Random => 0,
        VictimPolicy::LargestFirst => 1,
        VictimPolicy::SmallestFirst => 2,
        VictimPolicy::LeastProductive => 3,
        VictimPolicy::MostProductive => 4,
    });
    put_dur(buf, c.ss_timer);
    put_varint(buf, c.cost.cleanup_scan_us_per_tuple);
    put_varint(buf, c.cost.cleanup_emit_us_per_result);
    put_varint(buf, c.cost.disk.seek_ms);
    put_varint(buf, c.cost.disk.bytes_per_ms);
    match c.estimator {
        ProductivityEstimator::Cumulative => buf.push(0),
        ProductivityEstimator::Decaying { alpha } => {
            buf.push(1);
            put_f64(buf, alpha);
        }
    }
    match c.reactivate_watermark {
        None => put_bool(buf, false),
        Some(w) => {
            put_bool(buf, true);
            put_f64(buf, w);
        }
    }
    buf.push(match c.spill_codec {
        SegmentCodec::Rows => 0,
        SegmentCodec::Columns => 1,
    });
}

fn get_engine_config(buf: &mut &[u8]) -> Result<EngineConfig> {
    let num_streams = get_varint(buf)? as usize;
    let ncols = get_count(buf, "join column")?;
    let mut join_columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        join_columns.push(get_varint(buf)? as usize);
    }
    let window = if get_bool(buf)? {
        Some(get_dur(buf)?)
    } else {
        None
    };
    let memory_budget = get_varint(buf)?;
    let spill_threshold = get_varint(buf)?;
    let spill_fraction = get_f64(buf)?;
    let victim_policy = match get_u8(buf)? {
        0 => VictimPolicy::Random,
        1 => VictimPolicy::LargestFirst,
        2 => VictimPolicy::SmallestFirst,
        3 => VictimPolicy::LeastProductive,
        4 => VictimPolicy::MostProductive,
        t => return Err(DcapeError::codec(format!("wire: bad victim policy {t}"))),
    };
    let ss_timer = get_dur(buf)?;
    let cost = CostModel {
        cleanup_scan_us_per_tuple: get_varint(buf)?,
        cleanup_emit_us_per_result: get_varint(buf)?,
        disk: DiskModel {
            seek_ms: get_varint(buf)?,
            bytes_per_ms: get_varint(buf)?,
        },
    };
    let estimator = match get_u8(buf)? {
        0 => ProductivityEstimator::Cumulative,
        1 => ProductivityEstimator::Decaying {
            alpha: get_f64(buf)?,
        },
        t => return Err(DcapeError::codec(format!("wire: bad estimator tag {t}"))),
    };
    let reactivate_watermark = if get_bool(buf)? {
        Some(get_f64(buf)?)
    } else {
        None
    };
    let spill_codec = match get_u8(buf)? {
        0 => SegmentCodec::Rows,
        1 => SegmentCodec::Columns,
        t => return Err(DcapeError::codec(format!("wire: bad spill codec {t}"))),
    };
    Ok(EngineConfig {
        join: MJoinConfig {
            num_streams,
            join_columns,
            window,
        },
        memory_budget,
        spill_threshold,
        spill_fraction,
        victim_policy,
        ss_timer,
        cost,
        estimator,
        reactivate_watermark,
        spill_codec,
    })
}

fn put_fault_config(buf: &mut Vec<u8>, c: &FaultConfig) {
    put_f64(buf, c.drop_rate);
    put_f64(buf, c.duplicate_rate);
    put_f64(buf, c.delay_rate);
    put_f64(buf, c.corrupt_rate);
    put_f64(buf, c.crash_rate);
    put_f64(buf, c.stall_rate);
    put_varint(buf, c.max_delay_ms);
}

fn get_fault_config(buf: &mut &[u8]) -> Result<FaultConfig> {
    Ok(FaultConfig {
        drop_rate: get_f64(buf)?,
        duplicate_rate: get_f64(buf)?,
        delay_rate: get_f64(buf)?,
        corrupt_rate: get_f64(buf)?,
        crash_rate: get_f64(buf)?,
        stall_rate: get_f64(buf)?,
        max_delay_ms: get_varint(buf)?,
    })
}

// ---------------------------------------------------------------------
// Message bodies.

fn put_to_engine(buf: &mut Vec<u8>, msg: &ToEngine) {
    match msg {
        // A batch holds its rows already in this encoding.
        ToEngine::DataBatch { tuples } => {
            buf.push(K_DATA_BATCH);
            put_varint(buf, tuples.len() as u64);
            buf.extend_from_slice(tuples.as_bytes());
        }
        ToEngine::Cptv {
            round,
            amount,
            attempt,
        } => {
            buf.push(K_CPTV);
            put_varint(buf, *round);
            put_varint(buf, *amount);
            put_varint(buf, *attempt as u64);
        }
        ToEngine::SendStates {
            round,
            parts,
            receiver,
            attempt,
        } => {
            buf.push(K_SEND_STATES);
            put_varint(buf, *round);
            put_parts(buf, parts);
            put_engine(buf, *receiver);
            put_varint(buf, *attempt as u64);
        }
        ToEngine::InstallStates {
            round,
            sender,
            groups,
            attempt,
            declared_bytes,
        } => {
            buf.push(K_INSTALL_STATES);
            put_varint(buf, *round);
            put_engine(buf, *sender);
            put_varint(buf, groups.len() as u64);
            for g in groups {
                put_transfer(buf, g);
            }
            put_varint(buf, *attempt as u64);
            put_varint(buf, *declared_bytes);
        }
        ToEngine::AbortRound { round } => {
            buf.push(K_ABORT_ROUND);
            put_varint(buf, *round);
        }
        ToEngine::Resume { round, watermark } => {
            buf.push(K_RESUME);
            put_varint(buf, *round);
            put_time(buf, *watermark);
        }
        ToEngine::StartSpill { amount } => {
            buf.push(K_START_SPILL);
            put_varint(buf, *amount);
        }
        ToEngine::ReportStats { now } => {
            buf.push(K_REPORT_STATS);
            put_time(buf, *now);
        }
        ToEngine::Tick { now, horizon } => {
            buf.push(K_TICK);
            put_time(buf, *now);
            put_time(buf, *horizon);
        }
        ToEngine::PrepareCleanup { owners } => {
            buf.push(K_PREPARE_CLEANUP);
            put_varint(buf, owners.len() as u64);
            for o in owners {
                put_engine(buf, *o);
            }
        }
        ToEngine::ForwardedSegments { pid, segments } => {
            buf.push(K_FORWARDED_SEGMENTS);
            put_pid(buf, *pid);
            put_varint(buf, segments.len() as u64);
            for s in segments {
                put_group(buf, s);
            }
        }
        ToEngine::StartCleanup => buf.push(K_START_CLEANUP),
        ToEngine::BeginDrain => buf.push(K_BEGIN_DRAIN),
        ToEngine::FenceNotice { engine } => {
            buf.push(K_FENCE_NOTICE);
            put_engine(buf, *engine);
        }
    }
}

fn get_to_engine(kind: u8, buf: &mut &[u8]) -> Result<ToEngine> {
    Ok(match kind {
        // The rows are outside input: `decode` checks every one in its
        // single walk, so the engine can read them without failing.
        K_DATA_BATCH => {
            let n = get_count(buf, "batch tuple")?;
            ToEngine::DataBatch {
                tuples: TupleBatch::decode(n, buf)?,
            }
        }
        K_CPTV => ToEngine::Cptv {
            round: get_varint(buf)?,
            amount: get_varint(buf)?,
            attempt: get_varint(buf)? as u32,
        },
        K_SEND_STATES => ToEngine::SendStates {
            round: get_varint(buf)?,
            parts: get_parts(buf)?,
            receiver: get_engine(buf)?,
            attempt: get_varint(buf)? as u32,
        },
        K_INSTALL_STATES => {
            let round = get_varint(buf)?;
            let sender = get_engine(buf)?;
            let n = get_count(buf, "group transfer")?;
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(get_transfer(buf)?);
            }
            ToEngine::InstallStates {
                round,
                sender,
                groups,
                attempt: get_varint(buf)? as u32,
                declared_bytes: get_varint(buf)?,
            }
        }
        K_ABORT_ROUND => ToEngine::AbortRound {
            round: get_varint(buf)?,
        },
        K_RESUME => ToEngine::Resume {
            round: get_varint(buf)?,
            watermark: get_time(buf)?,
        },
        K_START_SPILL => ToEngine::StartSpill {
            amount: get_varint(buf)?,
        },
        K_REPORT_STATS => ToEngine::ReportStats {
            now: get_time(buf)?,
        },
        K_TICK => ToEngine::Tick {
            now: get_time(buf)?,
            horizon: get_time(buf)?,
        },
        K_PREPARE_CLEANUP => {
            let n = get_count(buf, "owner")?;
            let mut owners = Vec::with_capacity(n);
            for _ in 0..n {
                owners.push(get_engine(buf)?);
            }
            ToEngine::PrepareCleanup { owners }
        }
        K_FORWARDED_SEGMENTS => {
            let pid = get_pid(buf)?;
            let n = get_count(buf, "segment")?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push(get_group(buf)?);
            }
            ToEngine::ForwardedSegments { pid, segments }
        }
        K_START_CLEANUP => ToEngine::StartCleanup,
        K_BEGIN_DRAIN => ToEngine::BeginDrain,
        K_FENCE_NOTICE => ToEngine::FenceNotice {
            engine: get_engine(buf)?,
        },
        t => return Err(DcapeError::codec(format!("wire: bad ToEngine kind {t:#x}"))),
    })
}

fn put_from_engine(buf: &mut Vec<u8>, msg: &FromEngine) {
    match msg {
        FromEngine::Ptv {
            round,
            engine,
            parts,
        } => {
            buf.push(K_PTV);
            put_varint(buf, *round);
            put_engine(buf, *engine);
            put_parts(buf, parts);
        }
        FromEngine::TransferAck {
            round,
            engine,
            bytes,
        } => {
            buf.push(K_TRANSFER_ACK);
            put_varint(buf, *round);
            put_engine(buf, *engine);
            put_varint(buf, *bytes);
        }
        FromEngine::Stats(report) => {
            buf.push(K_STATS);
            put_stats_report(buf, report);
        }
        FromEngine::CleanupReady { engine, forwarded } => {
            buf.push(K_CLEANUP_READY);
            put_engine(buf, *engine);
            put_varint(buf, *forwarded as u64);
        }
        FromEngine::CleanupDone {
            engine,
            runtime_output,
            cleanup_output,
            spill_count,
            cleanup_cost_ms,
            journal,
            journal_counters,
        } => {
            buf.push(K_CLEANUP_DONE);
            put_engine(buf, *engine);
            put_varint(buf, *runtime_output);
            put_varint(buf, *cleanup_output);
            put_varint(buf, *spill_count);
            put_varint(buf, *cleanup_cost_ms);
            put_journal(buf, journal);
            put_counters(buf, journal_counters);
        }
        FromEngine::DrainState {
            engine,
            resident_bytes,
        } => {
            buf.push(K_DRAIN_STATE);
            put_engine(buf, *engine);
            put_varint(buf, *resident_bytes);
        }
        FromEngine::JoinReady { engine } => {
            buf.push(K_JOIN_READY);
            put_engine(buf, *engine);
        }
    }
}

fn get_from_engine(kind: u8, buf: &mut &[u8]) -> Result<FromEngine> {
    Ok(match kind {
        K_PTV => FromEngine::Ptv {
            round: get_varint(buf)?,
            engine: get_engine(buf)?,
            parts: get_parts(buf)?,
        },
        K_TRANSFER_ACK => FromEngine::TransferAck {
            round: get_varint(buf)?,
            engine: get_engine(buf)?,
            bytes: get_varint(buf)?,
        },
        K_STATS => FromEngine::Stats(get_stats_report(buf)?),
        K_CLEANUP_READY => FromEngine::CleanupReady {
            engine: get_engine(buf)?,
            forwarded: get_varint(buf)? as usize,
        },
        K_CLEANUP_DONE => FromEngine::CleanupDone {
            engine: get_engine(buf)?,
            runtime_output: get_varint(buf)?,
            cleanup_output: get_varint(buf)?,
            spill_count: get_varint(buf)?,
            cleanup_cost_ms: get_varint(buf)?,
            journal: get_journal(buf)?,
            journal_counters: get_counters(buf)?,
        },
        K_DRAIN_STATE => FromEngine::DrainState {
            engine: get_engine(buf)?,
            resident_bytes: get_varint(buf)?,
        },
        K_JOIN_READY => FromEngine::JoinReady {
            engine: get_engine(buf)?,
        },
        t => {
            return Err(DcapeError::codec(format!(
                "wire: bad FromEngine kind {t:#x}"
            )))
        }
    })
}

/// Encode one message (kind byte + body) into `buf`.
pub fn encode_msg(msg: &WireMsg, buf: &mut Vec<u8>) {
    match msg {
        WireMsg::Engine(m) => put_to_engine(buf, m),
        WireMsg::Coord(m) => put_from_engine(buf, m),
        WireMsg::Hello(h) => {
            buf.push(K_HELLO);
            put_engine(buf, h.engine);
            put_varint(buf, h.resume_from);
        }
        WireMsg::Welcome(w) => {
            buf.push(K_WELCOME);
            put_engine(buf, w.engine);
            put_varint(buf, w.num_engines as u64);
            put_engine_config(buf, &w.config);
            put_bool(buf, w.journal);
            buf.extend_from_slice(&w.fault_seed.to_le_bytes());
            put_fault_config(buf, &w.faults);
            put_varint(buf, w.replay_until);
        }
        WireMsg::Relay { to, msg } => {
            buf.push(K_RELAY);
            put_engine(buf, *to);
            put_to_engine(buf, msg);
        }
    }
}

/// Decode one message (kind byte + body) from `buf`, advancing it.
pub fn decode_msg(buf: &mut &[u8]) -> Result<WireMsg> {
    let kind = get_u8(buf)?;
    Ok(match kind {
        K_DATA_BATCH..=K_FENCE_NOTICE => WireMsg::Engine(get_to_engine(kind, buf)?),
        K_PTV..=K_JOIN_READY => WireMsg::Coord(get_from_engine(kind, buf)?),
        K_HELLO => WireMsg::Hello(Hello {
            engine: get_engine(buf)?,
            resume_from: get_varint(buf)?,
        }),
        K_WELCOME => {
            let engine = get_engine(buf)?;
            let num_engines = u16::try_from(get_varint(buf)?)
                .map_err(|_| DcapeError::codec("wire: engine count out of range"))?;
            let config = get_engine_config(buf)?;
            let journal = get_bool(buf)?;
            if buf.len() < 8 {
                return Err(DcapeError::codec("wire: unexpected end of input"));
            }
            let mut seed = [0u8; 8];
            seed.copy_from_slice(&buf[..8]);
            buf.advance(8);
            let fault_seed = u64::from_le_bytes(seed);
            let faults = get_fault_config(buf)?;
            let replay_until = get_varint(buf)?;
            WireMsg::Welcome(Box::new(Welcome {
                engine,
                num_engines,
                config,
                journal,
                fault_seed,
                faults,
                replay_until,
            }))
        }
        K_RELAY => {
            let to = get_engine(buf)?;
            let inner_kind = get_u8(buf)?;
            if !(K_DATA_BATCH..=K_FENCE_NOTICE).contains(&inner_kind) {
                return Err(DcapeError::codec(format!(
                    "wire: bad relayed kind {inner_kind:#x}"
                )));
            }
            WireMsg::Relay {
                to,
                msg: get_to_engine(inner_kind, buf)?,
            }
        }
        t => return Err(DcapeError::codec(format!("wire: bad frame kind {t:#x}"))),
    })
}

// ---------------------------------------------------------------------
// Framing.

/// Encode a complete frame — header, `seq`-prefixed payload, trailer —
/// ready to be written to a stream in one `write_all`.
pub fn frame_bytes(seq: u64, msg: &WireMsg) -> Result<Vec<u8>> {
    let mut payload = Vec::with_capacity(64);
    put_varint(&mut payload, seq);
    encode_msg(msg, &mut payload);
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(DcapeError::codec("wire: frame exceeds MAX_FRAME_LEN"));
    }
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&(len ^ LEN_CHECK).to_le_bytes());
    Ok(out)
}

/// Write one frame to `w` (no internal buffering; callers batch via
/// `BufWriter` if they care).
pub fn write_frame(w: &mut impl Write, seq: u64, msg: &WireMsg) -> Result<()> {
    let bytes = frame_bytes(seq, msg)?;
    w.write_all(&bytes).map_err(DcapeError::Io)?;
    w.flush().map_err(DcapeError::Io)
}

/// Read one frame from `r`. Returns `Ok(None)` on a clean end-of-stream
/// (the peer closed between frames); any mid-frame truncation, oversized
/// header, or trailer mismatch is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u64, WireMsg)>> {
    let mut hdr = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut hdr[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(DcapeError::codec("wire: truncated frame header"));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DcapeError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(hdr);
    if len > MAX_FRAME_LEN {
        return Err(DcapeError::codec(format!(
            "wire: implausible frame length {len}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(DcapeError::Io)?;
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer).map_err(DcapeError::Io)?;
    if u32::from_le_bytes(trailer) != len ^ LEN_CHECK {
        return Err(DcapeError::codec(
            "wire: frame trailer mismatch (transport corruption)",
        ));
    }
    let mut slice = payload.as_slice();
    let seq = get_varint(&mut slice)?;
    let msg = decode_msg(&mut slice)?;
    if !slice.is_empty() {
        return Err(DcapeError::codec("wire: trailing bytes in frame"));
    }
    Ok(Some((seq, msg)))
}

/// Short lowercase tag for frame logs (`DCAPE_FRAME_LOG` artifacts).
pub fn msg_kind_name(msg: &WireMsg) -> &'static str {
    match msg {
        WireMsg::Engine(m) => match m {
            ToEngine::DataBatch { .. } => "data_batch",
            ToEngine::Cptv { .. } => "cptv",
            ToEngine::SendStates { .. } => "send_states",
            ToEngine::InstallStates { .. } => "install_states",
            ToEngine::AbortRound { .. } => "abort_round",
            ToEngine::Resume { .. } => "resume",
            ToEngine::StartSpill { .. } => "start_spill",
            ToEngine::ReportStats { .. } => "report_stats",
            ToEngine::Tick { .. } => "tick",
            ToEngine::PrepareCleanup { .. } => "prepare_cleanup",
            ToEngine::ForwardedSegments { .. } => "forwarded_segments",
            ToEngine::StartCleanup => "start_cleanup",
            ToEngine::BeginDrain => "begin_drain",
            ToEngine::FenceNotice { .. } => "fence_notice",
        },
        WireMsg::Coord(m) => match m {
            FromEngine::Ptv { .. } => "ptv",
            FromEngine::TransferAck { .. } => "transfer_ack",
            FromEngine::Stats(_) => "stats",
            FromEngine::CleanupReady { .. } => "cleanup_ready",
            FromEngine::CleanupDone { .. } => "cleanup_done",
            FromEngine::DrainState { .. } => "drain_state",
            FromEngine::JoinReady { .. } => "join_ready",
        },
        WireMsg::Hello(_) => "hello",
        WireMsg::Welcome(_) => "welcome",
        WireMsg::Relay { .. } => "relay",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::{Tuple, TupleBuilder};
    use dcape_common::value::Value;
    use dcape_storage::codec::encode_tuple;

    fn tuple(stream: u8, seq: u64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(seq * 30))
            .value(seq as i64)
            .pad(128)
            .build()
    }

    fn group() -> SpilledGroup {
        let mut g = SpilledGroup::empty(PartitionId(7), 3);
        for s in 0..3u8 {
            for i in 0..4u64 {
                g.push(&tuple(s, i)).unwrap();
            }
        }
        g
    }

    /// Frame a hand-built payload (`seq kind body`).
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&(len ^ LEN_CHECK).to_le_bytes());
        bytes
    }

    fn round_trip(msg: &WireMsg, seq: u64) -> (u64, WireMsg) {
        let bytes = frame_bytes(seq, msg).unwrap();
        let mut cursor = bytes.as_slice();
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
        got
    }

    fn sample_to_engine() -> Vec<ToEngine> {
        let mut batch = TupleBatch::new();
        batch.push(PartitionId(1), tuple(0, 1));
        batch.push(PartitionId(2), tuple(1, 2));
        vec![
            ToEngine::DataBatch { tuples: batch },
            ToEngine::Cptv {
                round: 5,
                amount: 1 << 20,
                attempt: 2,
            },
            ToEngine::SendStates {
                round: 5,
                parts: vec![PartitionId(1), PartitionId(9)],
                receiver: EngineId(1),
                attempt: 1,
            },
            ToEngine::InstallStates {
                round: 5,
                sender: EngineId(0),
                groups: vec![GroupTransfer {
                    snapshot: group(),
                    output_count: 321,
                    purge_protect: true,
                }],
                attempt: 1,
                declared_bytes: 9999,
            },
            ToEngine::AbortRound { round: 6 },
            ToEngine::Resume {
                round: 5,
                watermark: VirtualTime::from_secs(90),
            },
            ToEngine::StartSpill { amount: 4096 },
            ToEngine::ReportStats {
                now: VirtualTime::from_secs(30),
            },
            ToEngine::Tick {
                now: VirtualTime::from_secs(31),
                horizon: VirtualTime::from_secs(29),
            },
            ToEngine::PrepareCleanup {
                owners: vec![EngineId(0), EngineId(1), EngineId(0)],
            },
            ToEngine::ForwardedSegments {
                pid: PartitionId(7),
                segments: vec![group(), SpilledGroup::empty(PartitionId(7), 3)],
            },
            ToEngine::StartCleanup,
            ToEngine::BeginDrain,
            ToEngine::FenceNotice {
                engine: EngineId(2),
            },
        ]
    }

    #[test]
    fn to_engine_round_trips() {
        for (i, msg) in sample_to_engine().into_iter().enumerate() {
            let debug = format!("{msg:?}");
            let (seq, got) = round_trip(&WireMsg::Engine(msg), i as u64 + 1);
            assert_eq!(seq, i as u64 + 1);
            match got {
                WireMsg::Engine(m) => assert_eq!(format!("{m:?}"), debug),
                other => panic!("expected Engine, got {other:?}"),
            }
        }
    }

    /// Rows of every value kind, an empty row, a wide partition id.
    fn mixed_rows() -> Vec<(PartitionId, Tuple)> {
        let blob = Value::Blob(bytes::Bytes::from(vec![0xAB; 40]));
        vec![
            (PartitionId(1), tuple(0, 1)),
            (
                PartitionId(u32::MAX),
                TupleBuilder::new(StreamId(2))
                    .seq(u64::MAX)
                    .ts(VirtualTime::from_millis(1 << 40))
                    .value(-7i64)
                    .value("bank1.offerCurrency-é")
                    .value(blob)
                    .build(),
            ),
            (PartitionId(300), TupleBuilder::new(StreamId(1)).build()),
            (
                PartitionId(0),
                TupleBuilder::new(StreamId(0))
                    .value(Value::Null)
                    .value(2.5f64)
                    .value(true)
                    .pad(u32::MAX)
                    .build(),
            ),
        ]
    }

    fn data_batch_frame(seq: u64, rows: &[(PartitionId, Tuple)]) -> Vec<u8> {
        let mut batch = TupleBatch::new();
        for (pid, t) in rows {
            batch.push(*pid, t.clone());
        }
        frame_bytes(seq, &WireMsg::Engine(ToEngine::DataBatch { tuples: batch })).unwrap()
    }

    /// A `DataBatch` frame is byte for byte what the per-tuple encoder
    /// wrote before batches held their rows encoded; that loop is kept
    /// here as the reference for the wire format.
    #[test]
    fn data_batch_frame_matches_the_per_tuple_reference() {
        for rows in [mixed_rows(), Vec::new()] {
            let mut payload = Vec::new();
            put_varint(&mut payload, 9);
            payload.push(K_DATA_BATCH);
            put_varint(&mut payload, rows.len() as u64);
            for (pid, t) in &rows {
                put_pid(&mut payload, *pid);
                encode_tuple(&mut payload, t);
            }
            let frame = data_batch_frame(9, &rows);
            assert_eq!(frame, raw_frame(&payload));
            // And it reads back as the rows that went in.
            match read_frame(&mut frame.as_slice()).unwrap() {
                Some((9, WireMsg::Engine(ToEngine::DataBatch { tuples }))) => {
                    let got: Vec<(PartitionId, Tuple)> =
                        tuples.rows().map(|r| (r.pid(), r.to_tuple())).collect();
                    assert_eq!(got, rows);
                }
                other => panic!("expected a DataBatch, got {other:?}"),
            }
        }
    }

    /// Rows off a socket are outside input. Cut a `DataBatch` frame at
    /// every offset and flip every bit of it: `read_frame` answers
    /// `Err` (or, for a flip that happens to leave well-formed rows, a
    /// batch) and never panics — and a batch it hands out can be read
    /// to the end, which is all the engine does with one.
    #[test]
    fn damaged_data_batch_frames_error_and_never_panic() {
        let frame = data_batch_frame(3, &mixed_rows());
        assert!(read_frame(&mut &frame[..0]).unwrap().is_none());
        for cut in 1..frame.len() {
            assert!(read_frame(&mut &frame[..cut]).is_err(), "cut at {cut}");
        }
        let mut survived = 0;
        for idx in 0..frame.len() {
            for bit in 0..8 {
                let mut bytes = frame.clone();
                bytes[idx] ^= 1 << bit;
                match read_frame(&mut bytes.as_slice()) {
                    Ok(Some((_, WireMsg::Engine(ToEngine::DataBatch { tuples })))) => {
                        survived += 1;
                        assert_eq!(tuples.rows().len(), tuples.len());
                        for row in tuples.rows() {
                            assert_eq!(row.to_tuple().arity(), row.arity());
                            let _ = row.value(0);
                        }
                    }
                    Ok(other) => panic!("flip {idx}.{bit} decoded to {other:?}"),
                    Err(_) => {}
                }
            }
        }
        // Flips in a sequence number or a blob's bytes leave valid rows.
        assert!(survived > 0 && survived < frame.len() * 8);
    }

    #[test]
    fn relay_round_trips() {
        for msg in sample_to_engine() {
            let debug = format!("{msg:?}");
            let (_, got) = round_trip(
                &WireMsg::Relay {
                    to: EngineId(2),
                    msg,
                },
                0,
            );
            match got {
                WireMsg::Relay { to, msg } => {
                    assert_eq!(to, EngineId(2));
                    assert_eq!(format!("{msg:?}"), debug);
                }
                other => panic!("expected Relay, got {other:?}"),
            }
        }
    }

    fn sample_from_engine() -> Vec<FromEngine> {
        vec![
            FromEngine::Ptv {
                round: 3,
                engine: EngineId(1),
                parts: vec![PartitionId(0), PartitionId(23)],
            },
            FromEngine::TransferAck {
                round: 3,
                engine: EngineId(1),
                bytes: 123_456,
            },
            FromEngine::Stats(EngineStatsReport {
                engine: EngineId(2),
                at: VirtualTime::from_secs(45),
                memory_used: 1 << 21,
                memory_budget: 1 << 22,
                num_groups: 12,
                window_output: 400,
                total_output: 9_000,
                avg_productivity_rate: 3.75,
                spilled_bytes: 512,
                spill_count: 2,
            }),
            FromEngine::CleanupReady {
                engine: EngineId(0),
                forwarded: 4,
            },
            FromEngine::CleanupDone {
                engine: EngineId(0),
                runtime_output: 100,
                cleanup_output: 20,
                spill_count: 3,
                cleanup_cost_ms: 4_200,
                journal: vec![
                    JournalEntry {
                        at: VirtualTime::from_secs(10),
                        seq: 1,
                        event: AdaptEvent::FaultInjected {
                            fault: "drop",
                            edge: "ptv",
                            round: 2,
                            attempt: 0,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(11),
                        seq: 2,
                        event: AdaptEvent::ProtocolWarning {
                            code: "duplicate_install",
                            engine: EngineId(0),
                            round: 2,
                            detail: 5,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(12),
                        seq: 3,
                        event: AdaptEvent::SpillDecision {
                            engine: EngineId(0),
                            trigger: SpillTrigger::Forced,
                            groups: vec![PartitionId(4)],
                            state_bytes: 100,
                            encoded_bytes: 90,
                            memory_used: 1000,
                            memory_budget: 2000,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(13),
                        seq: 4,
                        event: AdaptEvent::StatsSample {
                            engines: 3,
                            max_load: 0.9,
                            min_load: 0.1,
                            load_ratio: 0.111,
                            productivity_ratio: 2.0,
                            memory_used: 10,
                            memory_budget: 20,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(14),
                        seq: 5,
                        event: AdaptEvent::RelocationStep {
                            round: 2,
                            step: 4,
                            sender: EngineId(0),
                            receiver: EngineId(1),
                            parts: vec![PartitionId(3)],
                            bytes: 77,
                            buffered_tuples: 0,
                            load_ratio: 0.0,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(15),
                        seq: 6,
                        event: AdaptEvent::CleanupPhase {
                            engine: EngineId(0),
                            group: PartitionId(3),
                            missing_results: 5,
                            scanned_tuples: 50,
                            disk_bytes_read: 500,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(16),
                        seq: 7,
                        event: AdaptEvent::MemoryPressure {
                            engine: EngineId(0),
                            used: 99,
                            budget: 100,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(17),
                        seq: 8,
                        event: AdaptEvent::EngineJoined {
                            engine: EngineId(2),
                            members: 3,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(18),
                        seq: 9,
                        event: AdaptEvent::EngineDrained {
                            engine: EngineId(1),
                            moves: 4,
                        },
                    },
                ],
                journal_counters: CountersSnapshot {
                    tuples_routed: 1,
                    spill_bytes: 2,
                    spill_bytes_written: 14,
                    spill_bytes_read: 15,
                    relocation_bytes: 3,
                    transfer_bytes: 16,
                    buffered_in_flight: 4,
                    purges_deferred: 5,
                    watermark_held_ms: 6,
                    replayed_in_order: 7,
                    faults_injected: 8,
                    msgs_retried: 9,
                    rounds_aborted: 10,
                    watermark_released_on_abort: 11,
                    rebalance_moves: 17,
                    events_recorded: 12,
                    events_dropped: 13,
                },
            },
            FromEngine::DrainState {
                engine: EngineId(1),
                resident_bytes: 1 << 20,
            },
            FromEngine::JoinReady {
                engine: EngineId(2),
            },
        ]
    }

    #[test]
    fn from_engine_round_trips() {
        for msg in sample_from_engine() {
            let debug = format!("{msg:?}");
            let (seq, got) = round_trip(&WireMsg::Coord(msg), 0);
            assert_eq!(seq, 0);
            match got {
                WireMsg::Coord(m) => assert_eq!(format!("{m:?}"), debug),
                other => panic!("expected Coord, got {other:?}"),
            }
        }
    }

    /// The frame bytes of every protocol message, reduced to one number
    /// taken with the hand-written encoder of commit c7c469c: whatever
    /// produces the bytes must keep producing these. (Handshake frames
    /// are not part of it.)
    #[test]
    fn protocol_frame_bytes_are_pinned() {
        let mut all = Vec::new();
        let msgs = sample_to_engine()
            .into_iter()
            .map(WireMsg::Engine)
            .chain(sample_from_engine().into_iter().map(WireMsg::Coord));
        for (i, msg) in msgs.enumerate() {
            all.extend_from_slice(&frame_bytes(i as u64, &msg).unwrap());
        }
        assert_eq!(all.len(), 634);
        assert_eq!(
            dcape_common::hash::fx_hash(all.as_slice()),
            0x6D0C_89BF_F938_5726
        );
    }

    #[test]
    fn interned_codes_are_program_literals() {
        let entry = JournalEntry {
            at: VirtualTime::ZERO,
            seq: 0,
            event: AdaptEvent::FaultInjected {
                fault: "crash_restart",
                edge: "install_states",
                round: 0,
                attempt: 0,
            },
        };
        let mut buf = Vec::new();
        put_journal(&mut buf, &[entry]);
        let got = get_journal(&mut buf.as_slice()).unwrap();
        match &got[0].event {
            AdaptEvent::FaultInjected { fault, edge, .. } => {
                assert_eq!(*fault, "crash_restart");
                assert_eq!(*edge, "install_states");
                // Known codes come back pointer-stable (no per-decode leak).
                assert!(std::ptr::eq(*fault, intern("crash_restart".into())));
                assert!(std::ptr::eq(*edge, intern("install_states".into())));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn handshake_round_trips() {
        let (_, got) = round_trip(
            &WireMsg::Hello(Hello {
                engine: EngineId(3),
                resume_from: 0,
            }),
            0,
        );
        match got {
            WireMsg::Hello(h) => {
                assert_eq!(h.engine, EngineId(3));
                assert_eq!(h.resume_from, 0);
            }
            other => panic!("expected Hello, got {other:?}"),
        }

        let welcome = Welcome {
            engine: EngineId(1),
            num_engines: 3,
            config: EngineConfig::three_way(1 << 22, 600 << 10)
                .with_spill_fraction(0.4)
                .with_estimator(ProductivityEstimator::Decaying { alpha: 0.5 })
                .with_reactivation(0.25),
            journal: true,
            fault_seed: 0xDEAD_BEEF,
            faults: FaultConfig::uniform(0.2),
            replay_until: 417,
        };
        let (_, got) = round_trip(&WireMsg::Welcome(Box::new(welcome.clone())), 9);
        match got {
            WireMsg::Welcome(w) => assert_eq!(format!("{w:?}"), format!("{welcome:?}")),
            other => panic!("expected Welcome, got {other:?}"),
        }

        // A windowed config survives too.
        let mut windowed = welcome;
        windowed.config.join.window = Some(VirtualDuration::from_secs(60));
        let (_, got) = round_trip(&WireMsg::Welcome(Box::new(windowed.clone())), 9);
        match got {
            WireMsg::Welcome(w) => assert_eq!(format!("{w:?}"), format!("{windowed:?}")),
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    #[test]
    fn trailer_mismatch_rejected() {
        let mut bytes = frame_bytes(1, &WireMsg::Engine(ToEngine::StartCleanup)).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        assert!(read_frame(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let bytes = frame_bytes(1, &WireMsg::Engine(ToEngine::StartCleanup)).unwrap();
        assert!(read_frame(&mut &bytes[..0]).unwrap().is_none());
        for cut in 1..bytes.len() {
            assert!(
                read_frame(&mut &bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn oversized_header_rejected() {
        let mut bytes = vec![0u8; 12];
        bytes[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(read_frame(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // Extend the payload of a valid frame by one byte, fixing up
        // header and trailer: decode must reject the leftovers.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1u64);
        encode_msg(&WireMsg::Engine(ToEngine::StartCleanup), &mut payload);
        payload.push(0xEE);
        assert!(read_frame(&mut raw_frame(&payload).as_slice()).is_err());
    }

    /// Kind 0x01 carried one routed tuple per frame until the batch
    /// became the only data path. The tag is retired, not reused: such
    /// a frame, bare or relayed, is a codec error.
    #[test]
    fn retired_per_tuple_data_kind_is_refused() {
        let mut body = vec![0x01];
        put_pid(&mut body, PartitionId(3));
        encode_tuple(&mut body, &tuple(2, 9));
        let mut bare = Vec::new();
        put_varint(&mut bare, 1);
        bare.extend_from_slice(&body);
        let mut relayed = Vec::new();
        put_varint(&mut relayed, 0);
        relayed.push(K_RELAY);
        put_engine(&mut relayed, EngineId(1));
        relayed.extend_from_slice(&body);
        for payload in [bare, relayed] {
            match read_frame(&mut raw_frame(&payload).as_slice()) {
                Err(DcapeError::Codec(_)) => {}
                other => panic!("expected a codec error, got {other:?}"),
            }
        }
    }

    /// An engine configuration used to end `layout:u8 spill_codec:u8`.
    /// A `Welcome` still carrying the layout byte does not decode into
    /// some other configuration: it is a codec error.
    #[test]
    fn welcome_with_the_retired_layout_byte_is_refused() {
        let config = EngineConfig::three_way(1 << 22, 600 << 10);
        let welcome = |config_bytes: &[u8]| {
            let mut payload = Vec::new();
            put_varint(&mut payload, 0);
            payload.push(K_WELCOME);
            put_engine(&mut payload, EngineId(1));
            put_varint(&mut payload, 2);
            payload.extend_from_slice(config_bytes);
            put_bool(&mut payload, true);
            payload.extend_from_slice(&7u64.to_le_bytes());
            put_fault_config(&mut payload, &FaultConfig::uniform(0.2));
            put_varint(&mut payload, 0);
            raw_frame(&payload)
        };
        let mut tail = Vec::new();
        put_engine_config(&mut tail, &config);
        assert!(matches!(
            read_frame(&mut welcome(&tail).as_slice()),
            Ok(Some((0, WireMsg::Welcome(_))))
        ));
        let spill_codec = tail.pop().expect("the config ends in its codec byte");
        for layout in [0, 1] {
            let mut old = tail.clone();
            old.extend_from_slice(&[layout, spill_codec]);
            match read_frame(&mut welcome(&old).as_slice()) {
                Err(DcapeError::Codec(_)) => {}
                other => panic!("layout byte {layout}: expected a codec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            msg_kind_name(&WireMsg::Engine(ToEngine::StartCleanup)),
            "start_cleanup"
        );
        assert_eq!(
            msg_kind_name(&WireMsg::Hello(Hello {
                engine: EngineId(0),
                resume_from: 0
            })),
            "hello"
        );
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Decoding arbitrary bytes must never panic.
        #[test]
        fn decode_msg_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_msg(&mut data.as_slice());
        }

        /// Reading arbitrary bytes as a frame must never panic.
        #[test]
        fn read_frame_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = read_frame(&mut data.as_slice());
        }

        /// Corrupting any single byte of a valid frame either fails or
        /// round-trips (the flip may hit a don't-care bit) — never panics.
        #[test]
        fn frame_bit_flips_never_panic(idx in 0usize..10_000, flip in 1u8..255) {
            let msg = WireMsg::Engine(ToEngine::SendStates {
                round: 3,
                parts: vec![dcape_common::ids::PartitionId(5)],
                receiver: dcape_common::ids::EngineId(1),
                attempt: 0,
            });
            let mut bytes = frame_bytes(7, &msg).unwrap();
            let idx = idx % bytes.len();
            bytes[idx] ^= flip;
            let _ = read_frame(&mut bytes.as_slice());
        }
    }
}
