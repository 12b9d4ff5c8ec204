//! Binary wire format for the socket runtime.
//!
//! Every protocol message of [`crate::messages`] — plus the session
//! frames the socket runtime adds (`Hello`, `Welcome`, `Relay`) — is
//! encoded from the same primitives as the spill segment format
//! (`dcape-storage::codec`): little-endian scalars and LEB128 varints,
//! no external serialization dependency.
//!
//! ## Bodies
//!
//! A private trait, `Wire`, is one type's encoding in both directions.
//! It is written by hand once per leaf type — integers (varints,
//! narrowed on decode with `try_from`), `u8`, `bool`, `f64`, ids,
//! times, `Vec`, `Option`, and the three types that own a format of
//! their own (`SpilledGroup`, `TupleBatch`, `CountersSnapshot`). Every
//! record above the leaves is one declaration: `wire_struct!` takes a
//! struct's field names and `wire_enum!` an enum's tags, variants and
//! field names, and each emits the encoder and the decoder from that
//! single list. The encoder's pattern is exhaustive and the decoder
//! builds a struct literal, so a field or variant missing from a list
//! does not compile: adding one to a message is an edit to its type and
//! to its list, nowhere else. A message's kind byte and its frame-log
//! name live in the `ToEngine` / `FromEngine` lists. The journal's
//! vocabularies — warning codes, faults, fault edges, spill triggers —
//! are tag lists too: a code the receiver does not know is a codec
//! error, never a string to keep.
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
//! keeps every sequenced frame it ever sent in a replay log on disk, so a
//! respawned worker can be replayed deterministically from the beginning
//! — see [`crate::runtime::socket`].

use std::io::{Read, Write};

use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::{EngineConfig, MJoinConfig};
use dcape_engine::spill::policy::VictimPolicy;
use dcape_engine::state::productivity::ProductivityEstimator;
use dcape_metrics::journal::{
    AdaptEvent, CountersSnapshot, EngineStatsReport, Fault, FaultEdge, JournalEntry, SpillTrigger,
    Warning,
};
use dcape_storage::codec::{get_varint, put_varint};
use dcape_storage::{SegmentCodec, SpilledGroup};

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

/// Worker → coordinator handshake, first frame on every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The engine this worker hosts.
    pub engine: EngineId,
}

/// Coordinator → worker handshake reply: the full engine configuration,
/// so `dcape-node` needs nothing on its command line beyond an address
/// and an engine id.
#[derive(Debug, Clone)]
pub struct Welcome {
    /// The engine id the coordinator expects on this connection.
    pub engine: EngineId,
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
// The encoding of one type, both directions.

trait Wire: Sized {
    /// Append `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Take one value off the front of `buf`, checking it.
    fn get(buf: &mut &[u8]) -> Result<Self>;
}

/// A struct is its fields in the order listed.
macro_rules! wire_struct {
    ($( $ty:ident { $($field:ident),+ } )+) => { $(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let $ty { $($field),+ } = self;
                $( $field.put(buf); )+
            }

            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok($ty { $( $field: Wire::get(buf)? ),+ })
            }
        }
    )+ };
}

/// An enum is a tag byte, then the variant's fields in the order listed.
/// A tag missing from the list — retired, or not assigned yet — is a
/// codec error. Variants listed with a name also get `kind_name`.
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal $name:literal = $variant:ident $({ $($field:ident),+ })? $(( $inner:ident ))?
    ),+ }) => {
        wire_enum!($ty { $( $tag = $variant $({ $($field),+ })? $(( $inner ))? ),+ });

        impl $ty {
            /// Short lowercase name for frame logs and diagnostics.
            pub(crate) fn kind_name(&self) -> &'static str {
                match self {
                    $( $ty::$variant { .. } => $name, )+
                }
            }
        }
    };
    ($ty:ident { $(
        $tag:literal = $variant:ident $({ $($field:ident),+ })? $(( $inner:ident ))?
    ),+ }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $ty::$variant $({ $($field),+ })? $(( $inner ))? => {
                        buf.push($tag);
                        $($( $field.put(buf); )+)?
                        $( $inner.put(buf); )?
                    } )+
                }
            }

            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok(match u8::get(buf)? {
                    $( $tag => $ty::$variant
                        $({ $( $field: Wire::get(buf)? ),+ })?
                        $(( wire_enum!(@get $inner, buf) ))?, )+
                    tag => {
                        return Err(DcapeError::codec(format!(
                            concat!("wire: bad ", stringify!($ty), " tag {:#x}"),
                            tag
                        )))
                    }
                })
            }
        }
    };
    (@get $inner:ident, $buf:ident) => { Wire::get($buf)? };
}

// ---------------------------------------------------------------------
// Leaf types.

/// Take `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| DcapeError::codec("wire: unexpected end of input"))?;
    *buf = rest;
    Ok(*head)
}

impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        take::<1>(buf).map(|[b]| b)
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(u8::get(buf)? != 0)
    }
}

impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(f64::from_bits(u64::from_le_bytes(take(buf)?)))
    }
}

/// Integers travel as varints. Decode narrows with `try_from`: a value
/// the field cannot hold is a codec error, never a wrapped number.
macro_rules! wire_varint {
    ($($int:ident),+) => { $(
        impl Wire for $int {
            fn put(&self, buf: &mut Vec<u8>) {
                put_varint(buf, *self as u64);
            }

            fn get(buf: &mut &[u8]) -> Result<Self> {
                $int::try_from(get_varint(buf)?).map_err(|_| {
                    DcapeError::codec(concat!("wire: value out of range for ", stringify!($int)))
                })
            }
        }
    )+ };
}

wire_varint!(u16, u32, u64, usize);

impl Wire for EngineId {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Wire::get(buf).map(EngineId)
    }
}

impl Wire for PartitionId {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Wire::get(buf).map(PartitionId)
    }
}

impl Wire for VirtualTime {
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_millis().put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Wire::get(buf).map(VirtualTime::from_millis)
    }
}

impl Wire for VirtualDuration {
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_millis().put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Wire::get(buf).map(VirtualDuration::from_millis)
    }
}

/// An element count. Every counted element encodes to at least one
/// byte; a count that exceeds the remaining payload is garbage, not a
/// huge message.
fn get_count(buf: &mut &[u8], what: &str) -> Result<usize> {
    let n = usize::get(buf)?;
    if n > buf.len() {
        return Err(DcapeError::codec(format!("wire: implausible {what} count")));
    }
    Ok(n)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = get_count(buf, std::any::type_name::<T>())?;
        (0..n).map(|_| T::get(buf)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        bool::get(buf)?.then(|| T::get(buf)).transpose()
    }
}

/// `len:varint` then that many bytes.
fn push_prefixed(buf: &mut Vec<u8>, bytes: &[u8]) {
    bytes.len().put(buf);
    buf.extend_from_slice(bytes);
}

fn take_prefixed<'a>(buf: &mut &'a [u8], what: &str) -> Result<&'a [u8]> {
    let n = get_count(buf, what)?;
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// A group travels as its own segment encoding, length-prefixed.
impl Wire for SpilledGroup {
    fn put(&self, buf: &mut Vec<u8>) {
        push_prefixed(buf, &self.encode());
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        SpilledGroup::decode_slice(take_prefixed(buf, "segment byte")?)
    }
}

impl Wire for TupleBatch {
    /// A batch holds its rows already in this encoding.
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    /// The rows are outside input: `decode` checks every one in its
    /// single walk, so the engine can read them without failing.
    fn get(buf: &mut &[u8]) -> Result<Self> {
        let rows = get_count(buf, "batch tuple")?;
        TupleBatch::decode(rows, buf)
    }
}

/// Every counter of the table, in table order.
impl Wire for CountersSnapshot {
    fn put(&self, buf: &mut Vec<u8>) {
        for v in self.values() {
            v.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        let mut values = [0; CountersSnapshot::COUNT];
        for v in &mut values {
            *v = Wire::get(buf)?;
        }
        Ok(CountersSnapshot::from_values(values))
    }
}

// ---------------------------------------------------------------------
// Records: one field list each, in wire order.

wire_struct! {
    GroupTransfer { snapshot, output_count, purge_protect }
    EngineStatsReport { engine, at, memory_used, num_groups, window_output, total_output }
    JournalEntry { at, seq, event }
    MJoinConfig { num_streams, join_columns, window }
    EngineConfig {
        join, memory_budget, spill_threshold, spill_fraction, victim_policy, ss_timer, estimator,
        reactivate_watermark, spill_codec
    }
    FaultConfig {
        drop_rate, duplicate_rate, delay_rate, corrupt_rate, crash_rate, stall_rate, max_delay_ms
    }
    Hello { engine }
    Welcome { engine, config, journal, fault_seed, faults, replay_until }
}

wire_enum!(SpillTrigger { 0 = MemoryThreshold, 1 = Forced });
wire_enum!(Warning {
    0 = StalePtv, 1 = DuplicatePtv, 2 = StaleTransferAck, 3 = PhaseTimeoutRetry, 4 = RoundAborted,
    5 = PeerDeclaredDead, 6 = RelocationDegradedToSpill, 7 = DuplicateJoinReady,
    8 = DrainStarted, 9 = StaleDrainState, 10 = DrainDegradedToSpill,
    11 = DrainRemainderRemapped, 12 = StalePtvAfterQuiesce, 13 = StaleAckAfterQuiesce,
    14 = StaleCptv, 15 = StaleSendStates, 16 = SendToFencedDropped,
    17 = CorruptTransferDiscarded, 18 = DuplicateInstall, 19 = RoundUnwound,
    20 = WorkerRespawned
});
wire_enum!(Fault {
    0 = Drop, 1 = Duplicate, 2 = Delay, 3 = CorruptLength, 4 = Stall, 5 = CrashRestart
});
wire_enum!(FaultEdge {
    0 = Cptv, 1 = Ptv, 2 = SendStates, 3 = InstallStates, 4 = TransferAck, 5 = CleanupSegments
});
wire_enum!(VictimPolicy {
    0 = Random, 1 = LargestFirst, 2 = SmallestFirst, 3 = LeastProductive, 4 = MostProductive
});
wire_enum!(ProductivityEstimator { 0 = Cumulative, 1 = Decaying { alpha } });
// Tag 0 carried the retired row segment codec and is not reused.
wire_enum!(SegmentCodec { 1 = Columns });
// Tag 3 carried the retired cluster-wide stats sample, tag 4 the retired
// memory-pressure record; neither is reused.
wire_enum!(AdaptEvent {
    0 = SpillDecision { engine, trigger, groups, state_bytes, encoded_bytes, memory_used },
    1 = RelocationStep { round, step, sender, receiver, parts, bytes, buffered_tuples },
    2 = CleanupPhase { engine, group, missing_results, scanned_tuples, disk_bytes_read },
    5 = FaultInjected { fault, edge, round, attempt },
    6 = ProtocolWarning { code, engine, round, detail },
    7 = EngineJoined { engine, members },
    8 = EngineDrained { engine, moves },
    9 = EngineSample(report)
});

// ---------------------------------------------------------------------
// Messages. A message's tag is its frame's kind byte: coordinator →
// worker kinds sit below 0x20 (0x01 carried the retired one-tuple data
// message and is not reused), worker → coordinator kinds from 0x20,
// session kinds from 0x30.

wire_enum!(ToEngine {
    0x02 "data_batch" = DataBatch { tuples },
    0x03 "cptv" = Cptv { round, amount, attempt },
    0x04 "send_states" = SendStates { round, parts, receiver, attempt },
    0x05 "install_states" = InstallStates { round, sender, groups, attempt, declared_bytes },
    0x06 "abort_round" = AbortRound { round },
    0x07 "resume" = Resume { round, watermark },
    0x08 "start_spill" = StartSpill { amount },
    0x09 "report_stats" = ReportStats { now },
    0x0A "tick" = Tick { now, horizon },
    0x0B "prepare_cleanup" = PrepareCleanup { owners },
    0x0C "forwarded_segments" = ForwardedSegments { pid, segments },
    0x0D "start_cleanup" = StartCleanup,
    0x0E "begin_drain" = BeginDrain,
    0x0F "fence_notice" = FenceNotice { engine }
});

wire_enum!(FromEngine {
    0x20 "ptv" = Ptv { round, engine, parts },
    0x21 "transfer_ack" = TransferAck { round, engine, bytes, attempt },
    0x22 "stats" = Stats(report),
    0x23 "cleanup_ready" = CleanupReady { engine },
    0x24 "cleanup_done" = CleanupDone {
        engine, runtime_output, cleanup_output, spill_count, cleanup_cost_ms, journal,
        journal_counters
    },
    0x25 "drain_state" = DrainState { engine, resident_bytes },
    0x26 "join_ready" = JoinReady { engine }
});

const K_HELLO: u8 = 0x30;
const K_WELCOME: u8 = 0x31;
const K_RELAY: u8 = 0x32;

/// Encode one message (kind byte + body) into `buf`.
pub fn encode_msg(msg: &WireMsg, buf: &mut Vec<u8>) {
    match msg {
        WireMsg::Engine(m) => m.put(buf),
        WireMsg::Coord(m) => m.put(buf),
        WireMsg::Hello(h) => {
            buf.push(K_HELLO);
            h.put(buf);
        }
        WireMsg::Welcome(w) => {
            buf.push(K_WELCOME);
            w.put(buf);
        }
        WireMsg::Relay { to, msg } => {
            buf.push(K_RELAY);
            to.put(buf);
            msg.put(buf);
        }
    }
}

/// Decode one message (kind byte + body) from `buf`, advancing it.
pub fn decode_msg(buf: &mut &[u8]) -> Result<WireMsg> {
    // A protocol message's kind byte is its own tag: look at it, and
    // leave it for the message to take.
    Ok(match buf.first() {
        Some(0..=0x1F) => WireMsg::Engine(Wire::get(buf)?),
        Some(0x20..=0x2F) => WireMsg::Coord(Wire::get(buf)?),
        _ => match u8::get(buf)? {
            K_HELLO => WireMsg::Hello(Wire::get(buf)?),
            K_WELCOME => WireMsg::Welcome(Box::new(Wire::get(buf)?)),
            K_RELAY => WireMsg::Relay {
                to: Wire::get(buf)?,
                msg: Wire::get(buf)?,
            },
            t => return Err(DcapeError::codec(format!("wire: bad frame kind {t:#x}"))),
        },
    })
}

// ---------------------------------------------------------------------
// Framing.

/// Append a complete frame — header, `seq`-prefixed payload, trailer —
/// to `out`, encoding the payload in place behind a reserved header. A
/// frame over [`MAX_FRAME_LEN`] is refused and leaves `out` as it was.
pub fn put_frame(seq: u64, msg: &WireMsg, out: &mut Vec<u8>) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    put_varint(out, seq);
    encode_msg(msg, out);
    let len = u32::try_from(out.len() - start - 4)
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN);
    let Some(len) = len else {
        out.truncate(start);
        return Err(DcapeError::codec("wire: frame exceeds MAX_FRAME_LEN"));
    };
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_CHECK).to_le_bytes());
    Ok(())
}

/// Encode a complete frame, ready to be written to a stream in one
/// `write_all`.
pub fn frame_bytes(seq: u64, msg: &WireMsg) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    put_frame(seq, msg, &mut out)?;
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
        WireMsg::Engine(m) => m.kind_name(),
        WireMsg::Coord(m) => m.kind_name(),
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

    /// `put_frame` appends behind what the buffer already holds, so one
    /// buffer carries a stream that reads back frame by frame.
    #[test]
    fn frames_put_into_one_buffer_read_back_in_order() {
        let mut buf = Vec::new();
        for (i, msg) in sample_to_engine().into_iter().enumerate() {
            put_frame(i as u64 + 1, &WireMsg::Engine(msg), &mut buf).unwrap();
        }
        let mut cursor = buf.as_slice();
        for (i, msg) in sample_to_engine().into_iter().enumerate() {
            match read_frame(&mut cursor).unwrap() {
                Some((seq, WireMsg::Engine(m))) => {
                    assert_eq!(seq, i as u64 + 1);
                    assert_eq!(format!("{m:?}"), format!("{msg:?}"));
                }
                other => panic!("expected frame {}, got {other:?}", i + 1),
            }
        }
        assert!(cursor.is_empty());
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
            payload.push(0x02);
            put_varint(&mut payload, rows.len() as u64);
            for (pid, t) in &rows {
                pid.put(&mut payload);
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
                attempt: 2,
            },
            FromEngine::Stats(EngineStatsReport {
                engine: EngineId(2),
                at: VirtualTime::from_secs(45),
                memory_used: 1 << 21,
                num_groups: 12,
                window_output: 400,
                total_output: 9_000,
            }),
            FromEngine::CleanupReady {
                engine: EngineId(0),
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
                            fault: Fault::Drop,
                            edge: FaultEdge::Ptv,
                            round: 2,
                            attempt: 0,
                        },
                    },
                    JournalEntry {
                        at: VirtualTime::from_secs(11),
                        seq: 2,
                        event: AdaptEvent::ProtocolWarning {
                            code: Warning::DuplicateInstall,
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

    /// Messages carrying what the wire learned after the pin of
    /// [`protocol_frame_bytes_are_pinned`] was taken: they round-trip
    /// and survive damage like the rest, outside the pin.
    fn newer_from_engine() -> Vec<FromEngine> {
        vec![FromEngine::CleanupDone {
            engine: EngineId(1),
            runtime_output: 70,
            cleanup_output: 0,
            spill_count: 0,
            cleanup_cost_ms: 0,
            journal: vec![JournalEntry {
                at: VirtualTime::from_secs(45),
                seq: 10,
                event: AdaptEvent::EngineSample(EngineStatsReport {
                    engine: EngineId(1),
                    at: VirtualTime::from_secs(45),
                    memory_used: 1 << 21,
                    num_groups: 12,
                    window_output: 400,
                    total_output: 9_000,
                }),
            }],
            journal_counters: CountersSnapshot::default(),
        }]
    }

    #[test]
    fn from_engine_round_trips() {
        for msg in sample_from_engine().into_iter().chain(newer_from_engine()) {
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
    /// are not part of it.) Re-taken five times, each time with every
    /// frame fingerprinted before and after. Once when the stats report
    /// lost three fields nothing read and the cluster-wide stats sample
    /// was retired: only the `stats` frame and the `cleanup_done` frame
    /// whose journal carried that sample moved. Once when `CleanupReady`
    /// lost its unread segment count and the journal's warning codes,
    /// faults and edges became tags instead of strings: only the
    /// `cleanup_ready` and `cleanup_done` frames moved. Once when a
    /// relocation step lost its restated load ratio and the counters
    /// their two ring rows: only the `cleanup_done` frame moved, by the
    /// 10 bytes of those fields. Once when `TransferAck` began to echo
    /// its attempt: only the `transfer_ack` frame moved, by that one
    /// byte. Once when the stats report and the spill record lost their
    /// budget copy and the memory-pressure record was retired: only the
    /// `stats` frame (the budget's 4 bytes) and the `cleanup_done` frame
    /// (its spill record's 2-byte budget, the 7-byte pressure entry and
    /// the entry count) moved.
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
        assert_eq!(all.len(), 537);
        assert_eq!(
            dcape_common::hash::fx_hash(all.as_slice()),
            0xA036_9C7A_90F4_2AD0
        );
    }

    /// Warning codes, faults and edges travel as tags of a closed
    /// vocabulary: an entry whose tag lies past the last one is a codec
    /// error, not a string to keep.
    #[test]
    fn journal_codes_outside_the_vocabulary_are_refused() {
        // at=13 seq=4, then the event: protocol_warning code engine
        // round detail, or fault_injected fault edge round attempt.
        let entry = |event: [u8; 5]| {
            let mut bytes = vec![13, 4];
            bytes.extend_from_slice(&event);
            JournalEntry::get(&mut bytes.as_slice())
        };
        let last = [[6, 20, 1, 2, 3], [5, 5, 0, 2, 3], [5, 0, 5, 2, 3]];
        let past = [[6, 21, 1, 2, 3], [5, 6, 0, 2, 3], [5, 0, 6, 2, 3]];
        for (last, past) in last.into_iter().zip(past) {
            assert!(entry(last).is_ok(), "{last:?}");
            match entry(past) {
                Err(DcapeError::Codec(_)) => {}
                other => panic!("{past:?}: expected a codec error, got {other:?}"),
            }
        }
        assert!(matches!(
            entry(last[0]).unwrap().event,
            AdaptEvent::ProtocolWarning {
                code: Warning::WorkerRespawned,
                ..
            }
        ));
        assert!(matches!(
            entry(last[1]).unwrap().event,
            AdaptEvent::FaultInjected {
                fault: Fault::CrashRestart,
                edge: FaultEdge::Cptv,
                ..
            }
        ));
    }

    #[test]
    fn handshake_round_trips() {
        let (_, got) = round_trip(
            &WireMsg::Hello(Hello {
                engine: EngineId(3),
            }),
            0,
        );
        match got {
            WireMsg::Hello(h) => assert_eq!(h.engine, EngineId(3)),
            other => panic!("expected Hello, got {other:?}"),
        }

        let welcome = Welcome {
            engine: EngineId(1),
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
        PartitionId(3).put(&mut body);
        encode_tuple(&mut body, &tuple(2, 9));
        let mut bare = Vec::new();
        put_varint(&mut bare, 1);
        bare.extend_from_slice(&body);
        let mut relayed = Vec::new();
        put_varint(&mut relayed, 0);
        relayed.push(K_RELAY);
        EngineId(1).put(&mut relayed);
        relayed.extend_from_slice(&body);
        for payload in [bare, relayed] {
            match read_frame(&mut raw_frame(&payload).as_slice()) {
                Err(DcapeError::Codec(_)) => {}
                other => panic!("expected a codec error, got {other:?}"),
            }
        }
    }

    /// `AdaptEvent` tag 3 carried a cluster-wide stats sample until the
    /// engine samples became the decision's only record. The tag is
    /// retired, not reused: an entry carrying it is a codec error.
    #[test]
    fn retired_stats_sample_tag_is_refused() {
        let mut entry = vec![13, 4, 3, 2];
        entry.extend_from_slice(&[0; 4 * 8]);
        entry.extend_from_slice(&[10, 20]);
        match JournalEntry::get(&mut entry.as_slice()) {
            Err(DcapeError::Codec(_)) => {}
            other => panic!("expected a codec error, got {other:?}"),
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
            EngineId(1).put(&mut payload);
            payload.extend_from_slice(config_bytes);
            true.put(&mut payload);
            put_varint(&mut payload, 7);
            FaultConfig::uniform(0.2).put(&mut payload);
            put_varint(&mut payload, 0);
            raw_frame(&payload)
        };
        let mut tail = Vec::new();
        config.put(&mut tail);
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

    /// A varint wider than its field is refused, not wrapped: `attempt`
    /// keys the fault plan and the retry logic, and `1 << 32` must not
    /// arrive as attempt 0.
    #[test]
    fn varints_wider_than_their_field_are_refused() {
        const WIDE: u64 = 1 << 32;
        let varints = |kind: u8, body: &[u64]| {
            let mut payload = vec![1, kind];
            for v in body {
                put_varint(&mut payload, *v);
            }
            payload
        };
        // One journal entry inside a `CleanupDone`, then the counters.
        let cleanup_done = |event: &[u8]| {
            let mut payload = varints(0x24, &[0, 100, 20, 3, 4_200, 1, 10_000, 1]);
            payload.extend_from_slice(event);
            payload.extend_from_slice(&[0; CountersSnapshot::COUNT]);
            payload
        };
        let fault_injected = |attempt: u64| {
            // fault_injected: drop at ptv, round 2.
            let mut event = vec![5, 0, 1, 2];
            put_varint(&mut event, attempt);
            cleanup_done(&event)
        };
        let engine_joined = |members: u64| {
            let mut event = vec![7, 2];
            put_varint(&mut event, members);
            cleanup_done(&event)
        };
        let welcome = |engine: u64| {
            let mut payload = varints(0x31, &[engine]);
            EngineConfig::three_way(1 << 22, 600 << 10).put(&mut payload);
            true.put(&mut payload);
            put_varint(&mut payload, 7);
            FaultConfig::uniform(0.2).put(&mut payload);
            put_varint(&mut payload, 0);
            payload
        };
        type Build<'a> = &'a dyn Fn(u64) -> Vec<u8>;
        let cases: [(&str, Build, u64); 7] = [
            ("Cptv.attempt", &|v| varints(0x03, &[5, 1024, v]), WIDE),
            (
                "SendStates.attempt",
                &|v| varints(0x04, &[5, 1, 9, 1, v]),
                WIDE,
            ),
            (
                "InstallStates.attempt",
                &|v| varints(0x05, &[5, 0, 0, v, 9999]),
                WIDE,
            ),
            (
                "TransferAck.attempt",
                &|v| varints(0x21, &[3, 1, 123_456, v]),
                WIDE,
            ),
            ("FaultInjected.attempt", &fault_injected, WIDE),
            ("EngineJoined.members", &engine_joined, WIDE),
            ("Welcome.engine", &welcome, 1 << 16),
        ];
        for (what, build, wide) in cases {
            // The frame is well-formed: the widest value that fits decodes.
            let fits = raw_frame(&build(wide - 1));
            assert!(
                matches!(read_frame(&mut fits.as_slice()), Ok(Some(_))),
                "{what}: the control frame must decode"
            );
            match read_frame(&mut raw_frame(&build(wide)).as_slice()) {
                Err(DcapeError::Codec(_)) => {}
                other => panic!("{what} = {wide:#x}: expected a codec error, got {other:?}"),
            }
        }
    }

    /// Every message the protocol has, bare and relayed, and the
    /// handshake: no strict prefix of a frame decodes, and no single
    /// flipped bit makes the decoder panic — it errors, or it decodes
    /// some other well-formed message.
    #[test]
    fn every_damaged_frame_errors_or_decodes_and_never_panics() {
        let relayed = sample_to_engine().into_iter().map(|msg| WireMsg::Relay {
            to: EngineId(2),
            msg,
        });
        let session = [
            WireMsg::Hello(Hello {
                engine: EngineId(3),
            }),
            WireMsg::Welcome(Box::new(Welcome {
                engine: EngineId(1),
                config: EngineConfig::three_way(1 << 22, 600 << 10)
                    .with_estimator(ProductivityEstimator::Decaying { alpha: 0.5 })
                    .with_reactivation(0.25),
                journal: true,
                fault_seed: 0xDEAD_BEEF,
                faults: FaultConfig::uniform(0.2),
                replay_until: 417,
            })),
        ];
        let msgs = sample_to_engine()
            .into_iter()
            .map(WireMsg::Engine)
            .chain(relayed)
            .chain(sample_from_engine().into_iter().map(WireMsg::Coord))
            .chain(newer_from_engine().into_iter().map(WireMsg::Coord))
            .chain(session);
        for msg in msgs {
            let kind = msg_kind_name(&msg);
            let frame = frame_bytes(3, &msg).unwrap();
            assert!(read_frame(&mut &frame[..0]).unwrap().is_none());
            for cut in 1..frame.len() {
                assert!(
                    read_frame(&mut &frame[..cut]).is_err(),
                    "{kind}: cut at {cut}"
                );
            }
            for idx in 0..frame.len() {
                for bit in 0..8 {
                    let mut bytes = frame.clone();
                    bytes[idx] ^= 1 << bit;
                    let _ = read_frame(&mut bytes.as_slice());
                }
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
                engine: EngineId(0)
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
        #![proptest_config(ProptestConfig {
            cases: dcape_common::testing::proptest_cases(64),
            ..ProptestConfig::default()
        })]

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
