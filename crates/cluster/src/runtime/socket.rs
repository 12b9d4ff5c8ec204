//! The socket cluster runtime: one OS **process** per query engine.
//!
//! This is the closest runtime to the paper's deployment: the
//! coordinator process runs the source, splits, and global coordinator
//! (the one loop of [`super::driver`]), while each engine lives in its
//! own `dcape-node` worker process — [`super::engine_core`] behind a
//! socket — and exchanges the [`crate::messages`] protocol as
//! length-framed binary messages ([`crate::wire`]) over TCP. This module
//! is the TCP `Transport` (acceptor, link and reader threads,
//! respawn, the kill plan, frame logs) and the worker's session loop.
//!
//! ## Topology and ordering
//!
//! Star: every worker holds exactly one connection to the coordinator.
//! Engine-to-engine messages (`InstallStates`, `ForwardedSegments`) are
//! wrapped in [`WireMsg::Relay`] and re-framed by the coordinator's main
//! loop onto the target's sequenced stream. One FIFO connection per
//! worker delivers an engine's messages in send order, which is all the
//! ordering arguments of [`super::driver`] (replay-before-Resume,
//! forwards-before-StartCleanup) ask of a transport.
//!
//! ## Crash-restart and replay
//!
//! Every coordinator→worker frame carries a sequence number and is
//! kept for the lifetime of the run in its engine's replay log, from
//! which the engine's link thread — the only writer a worker connection
//! has — feeds the connection. A worker that dies (a
//! chaos-injected `std::process::exit(86)`, or a real `kill -9` from a
//! [`KillPlan`]) is respawned and replays its **entire** history: the
//! fresh process rebuilds join state, sink counts, and protocol state
//! deterministically by reprocessing the same frames in the same order.
//! The `Welcome` handshake tells the worker how much of the stream is
//! replayed history (`replay_until`); fault-plan consults are
//! suppressed for those frames — the faults on them already happened in
//! a previous life, and re-firing a deterministically scheduled crash
//! would loop forever. Duplicate worker→coordinator messages produced
//! by the replay (`Ptv`, `TransferAck`, `Stats`) are exactly the
//! stale/duplicate cases the hardened coordinator already tolerates.
//!
//! ## The replay log
//!
//! The history lives on disk, not in the coordinator's heap: each
//! engine slot has one append-only file under the directory
//! [`run_socket`] names (the temp directory, which `TMPDIR` moves),
//! unlinked the moment it is created — with the transport, so an
//! unusable directory fails the run before it starts. `send` encodes a
//! frame into one reused buffer, appends it with one positioned write
//! and tells the link only the new tail; the link copies the live
//! connection's share, or a new connection's whole history, out of the
//! log through a fixed 64 KiB buffer. So no frame stays in memory once
//! `send` returns, neither as history nor queued behind a worker slower
//! than the coordinator.
//!
//! The disk held is unbounded by design (a run's full frame history,
//! returned to the filesystem when the transport goes): the bench's
//! `skew_window_socket` job, 720 k tuples with 128-byte payloads,
//! appends ~104 MB in ~28 k frames to its two engines' logs — one
//! `DataBatch` of ~50 tuples and one `Tick` per engine per pulse. Data dominates, so the bytes follow the input; the
//! frame count follows the batch rule of [`super::driver`] (a flush
//! every tick would make it ~180 k).

use std::fs::File;
use std::io::{BufReader, Write as IoWrite};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::EngineId;
use dcape_common::time::VirtualTime;
use dcape_metrics::journal::{AdaptEvent, JournalHandle, Warning};
use dcape_storage::backend::create_unlinked;

use crate::faults::FaultPlan;
use crate::messages::{FromEngine, ToEngine};
use crate::runtime::driver::{CoordinatorRun, Transport};
use crate::runtime::engine_core::{EngineCore, EngineFlow, EngineTx};
use crate::runtime::sim::{ScaleAction, SimConfig};
use crate::runtime::threaded::ThreadedReport;
use crate::wire::{
    msg_kind_name, put_frame, read_frame, write_frame, Hello, Welcome, WireMsg, CRASH_EXIT,
};

/// Respawn budget per engine; beyond this the run fails (a worker
/// crash-looping is a bug, not chaos).
pub const MAX_RESPAWNS: u32 = 10;

/// Test hook: hard-kill one worker process (`SIGKILL` — no exit
/// handler, no flush) after its `after_stats`-th `Stats` report, then
/// let the respawn/replay machinery prove exactly-once recovery.
#[derive(Debug, Clone, Copy)]
pub struct KillPlan {
    /// Which engine's worker to kill.
    pub engine: EngineId,
    /// Kill after this many `Stats` messages from that engine.
    pub after_stats: u32,
}

/// Where the workers come from.
#[derive(Debug, Clone)]
pub enum SocketMode {
    /// Single-machine mode: bind an ephemeral loopback port and spawn
    /// `node_bin` as one child process per engine. Crashed workers are
    /// respawned.
    Spawn {
        /// Path to the `dcape-node` binary.
        node_bin: PathBuf,
    },
    /// Bind `addr` and wait for externally started workers
    /// (`dcape-node --connect <addr> --engine-id <i>`). No respawn: a
    /// disconnected worker fails the run.
    Listen {
        /// Address to listen on, e.g. `"0.0.0.0:7431"`.
        addr: String,
    },
}

/// Configuration of one socket-runtime run.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// The experiment, identical to what the sim/threaded drivers take.
    pub sim: SimConfig,
    /// Worker provisioning.
    pub mode: SocketMode,
    /// Optional hard-kill fault injection (spawn mode only).
    pub kill: Option<KillPlan>,
}

/// Resolve the worker binary for spawn mode: `DCAPE_NODE_BIN` if set,
/// else a `dcape-node` sibling of the current executable (which is
/// where cargo puts it for both `repro` and integration tests).
pub fn default_node_bin() -> PathBuf {
    if let Ok(p) = std::env::var("DCAPE_NODE_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().unwrap_or_default();
    p.pop();
    // Integration-test binaries live one level below target/<profile>/.
    if p.ends_with("deps") {
        p.pop();
    }
    p.push("dcape-node");
    p
}

// ---------------------------------------------------------------------
// Connection fabric (coordinator side).

/// What the link thread of one engine slot is fed.
enum LinkCmd {
    /// The replay log now holds `frames` frames in its first `bytes`
    /// bytes.
    Frame { bytes: u64, frames: u64 },
    /// The write half of a connection whose `Hello` named this engine.
    Attach(TcpStream),
}

/// A replay log is named `dcape-replay-<pid>-<n>` for the instant it
/// has a name at all.
const REPLAY_NAME_PREFIX: &str = "dcape-replay-";

/// What the link copies out of the log per positioned read.
const COPY_CHUNK: usize = 64 << 10;

/// The appending end of one engine's replay log (see the [module
/// documentation](self)).
struct ReplayLog {
    file: File,
    /// Bytes appended so far: where the next frame goes.
    bytes: u64,
    /// Frames appended so far: the last sequence number used.
    frames: u64,
}

impl ReplayLog {
    fn create(dir: &Path) -> Result<Self> {
        Ok(ReplayLog {
            file: create_unlinked(dir, REPLAY_NAME_PREFIX)?,
            bytes: 0,
            frames: 0,
        })
    }

    /// Append the next frame and return what to tell the link. A failed
    /// append moves nothing.
    fn append(&mut self, frame: &[u8]) -> Result<LinkCmd> {
        self.file.write_all_at(frame, self.bytes)?;
        self.bytes += frame.len() as u64;
        self.frames += 1;
        Ok(LinkCmd::Frame {
            bytes: self.bytes,
            frames: self.frames,
        })
    }
}

/// What reader/acceptor threads post to the coordinator main loop.
enum Event {
    /// The acceptor handed connection number `epoch` of `engine` to its
    /// link; posted ahead of everything that connection's reader posts.
    Connected { engine: EngineId, epoch: u64 },
    /// A protocol message from a worker.
    Msg(FromEngine),
    /// A worker-originated peer message to forward.
    Relay { to: EngineId, msg: ToEngine },
    /// A worker connection ended (EOF or I/O error).
    Disconnected { engine: EngineId, epoch: u64 },
    /// A worker sent an undecodable or out-of-protocol frame.
    Fatal { engine: EngineId, error: String },
}

/// Socket sessions begun in this process, coordinator runs and worker
/// sessions alike: numbers their frame logs, so a later one (the job
/// after a bench warm-up, the next figure configuration, a
/// serve-looping worker's next session) does not truncate an earlier
/// one's.
static NEXT_RUN: AtomicU64 = AtomicU64::new(0);

/// Where frame logs go: `DCAPE_FRAME_LOG_DIR`, unless unset or empty.
fn frame_log_dir() -> Option<PathBuf> {
    std::env::var_os("DCAPE_FRAME_LOG_DIR")
        .filter(|dir| !dir.is_empty())
        .map(PathBuf::from)
}

/// `<dir>/<name>`, created with its directory; `None` without one.
fn frame_log(dir: Option<&Path>, name: String) -> Result<Option<std::fs::File>> {
    let Some(dir) = dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(DcapeError::Io)?;
    let file = std::fs::File::create(dir.join(name)).map_err(DcapeError::Io)?;
    Ok(Some(file))
}

/// A worker connection and how much of the replay log it has been sent.
struct Conn {
    stream: TcpStream,
    sent: u64,
}

impl Conn {
    /// Copy `log[sent..tail]` to the stream through `chunk`.
    fn catch_up(&mut self, log: &File, chunk: &mut [u8], tail: u64) -> std::io::Result<()> {
        while self.sent < tail {
            // No wider than `chunk`, so the cast keeps every bit.
            let n = (tail - self.sent).min(chunk.len() as u64) as usize;
            log.read_exact_at(&mut chunk[..n], self.sent)?;
            self.stream.write_all(&chunk[..n])?;
            self.sent += n as u64;
        }
        Ok(())
    }
}

/// The one owner of a worker's stream, fed from the engine's replay log
/// (`log`, a clone of the appending end's descriptor): it sends the live
/// connection every frame up to the tail it was last told, and greets a
/// new connection with `welcome` — `replay_until` exactly the number of
/// frames about to be replayed — and then the log from its first byte.
/// A failure drops the connection, shut down so that its reader thread's
/// EOF drives the respawn. Ends once every sender has hung up, with
/// everything deliverable written.
fn link_thread(mut welcome: Welcome, log: File, rx: Receiver<LinkCmd>) {
    let mut chunk = vec![0u8; COPY_CHUNK];
    let (mut tail, mut frames) = (0u64, 0u64);
    let mut conn: Option<Conn> = None;
    let mut catch_up = |conn: &mut Option<Conn>, tail| {
        if let Some(c) = conn {
            if c.catch_up(&log, &mut chunk, tail).is_err() {
                let _ = c.stream.shutdown(Shutdown::Both);
                *conn = None;
            }
        }
    };
    loop {
        // The connection catches up only once no command is waiting, so
        // a backlog goes out in whole chunks rather than frame by frame.
        let cmd = match rx.try_recv() {
            Ok(cmd) => cmd,
            Err(TryRecvError::Empty) => {
                catch_up(&mut conn, tail);
                match rx.recv() {
                    Ok(cmd) => cmd,
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => {
                catch_up(&mut conn, tail);
                return;
            }
        };
        match cmd {
            LinkCmd::Frame { bytes, frames: n } => (tail, frames) = (bytes, n),
            LinkCmd::Attach(mut stream) => {
                welcome.replay_until = frames;
                let greeting = WireMsg::Welcome(Box::new(welcome.clone()));
                conn = (write_frame(&mut stream, 0, &greeting).is_ok())
                    .then_some(Conn { stream, sent: 0 });
            }
        }
    }
}

/// Accept loop: read `Hello`, number the connection, announce it to the
/// main loop, hand its write half to the engine's link — the link writes
/// `Welcome`, so the worker always sees that first — and start its
/// reader. A connection without a `Hello` for a known engine is dropped.
fn acceptor_thread(
    listener: TcpListener,
    links: Vec<Sender<LinkCmd>>,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
) {
    let mut epochs = vec![0u64; links.len()];
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        // A wedged client must not block the acceptor forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let engine = match read_frame(&mut (&stream)) {
            Ok(Some((_, WireMsg::Hello(h)))) => h.engine,
            _ => continue, // not one of ours; drop it
        };
        let _ = stream.set_read_timeout(None);
        let (Some(link), Ok(write_half)) = (links.get(engine.index()), stream.try_clone()) else {
            continue;
        };
        epochs[engine.index()] += 1;
        let epoch = epochs[engine.index()];
        let _ = events.send(Event::Connected { engine, epoch });
        let _ = link.send(LinkCmd::Attach(write_half));
        let tx = events.clone();
        let _ = thread::Builder::new()
            .name(format!("dcape-rx-e{}", engine.index()))
            .spawn(move || reader_thread(stream, engine, epoch, tx));
    }
}

/// Per-connection reader: decode frames into events until EOF/error.
fn reader_thread(stream: TcpStream, engine: EngineId, epoch: u64, tx: Sender<Event>) {
    let mut r = BufReader::new(stream);
    loop {
        match read_frame(&mut r) {
            Ok(Some((_, WireMsg::Coord(m)))) => {
                if tx.send(Event::Msg(m)).is_err() {
                    return;
                }
            }
            Ok(Some((_, WireMsg::Relay { to, msg }))) => {
                if tx.send(Event::Relay { to, msg }).is_err() {
                    return;
                }
            }
            Ok(Some((_, other))) => {
                let _ = tx.send(Event::Fatal {
                    engine,
                    error: format!("unexpected frame from worker: {}", msg_kind_name(&other)),
                });
                return;
            }
            Ok(None) => {
                let _ = tx.send(Event::Disconnected { engine, epoch });
                return;
            }
            Err(DcapeError::Io(_)) => {
                // Connection reset — a killed worker looks like this.
                let _ = tx.send(Event::Disconnected { engine, epoch });
                return;
            }
            Err(e) => {
                let _ = tx.send(Event::Fatal {
                    engine,
                    error: e.to_string(),
                });
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker lifecycle (spawn mode).

struct SpawnCtl {
    node_bin: PathBuf,
    addr: String,
    children: Vec<Option<Child>>,
    respawns: Vec<u32>,
}

impl SpawnCtl {
    fn spawn_worker(&mut self, engine: EngineId) -> Result<()> {
        // `--once`: spawned children are scoped to this run — without
        // it the worker serve-loops waiting for the next run, and
        // teardown would block on reaping it.
        let child = Command::new(&self.node_bin)
            .arg("--connect")
            .arg(&self.addr)
            .arg("--engine-id")
            .arg(engine.index().to_string())
            .arg("--once")
            .spawn()
            .map_err(|e| {
                DcapeError::Disconnected(format!(
                    "failed to spawn worker {} ({}): {e}",
                    engine,
                    self.node_bin.display()
                ))
            })?;
        self.children[engine.index()] = Some(child);
        Ok(())
    }
}

/// The coordinator's TCP transport: connection fabric + worker
/// processes + crash bookkeeping.
struct TcpTransport {
    /// The feed of each engine's link thread.
    links: Vec<Sender<LinkCmd>>,
    /// Each engine's replay log; the main thread numbers frames as it
    /// appends them (1-based), so the log's order is seq order.
    replay: Vec<ReplayLog>,
    /// The one buffer every frame is encoded into.
    frame: Vec<u8>,
    /// The connection the acceptor last announced per engine; a
    /// `Disconnected` that names an older one is stale.
    live_epoch: Vec<u64>,
    /// Per-engine frame logs (`DCAPE_FRAME_LOG_DIR`), if enabled.
    logs: Vec<Option<std::fs::File>>,
    events: Receiver<Event>,
    spawn: Option<SpawnCtl>,
    /// `CleanupDone` seen: the worker exits cleanly right after, so its
    /// disconnect is not a crash.
    done: Vec<bool>,
    journal: JournalHandle,
    kill: Option<KillPlan>,
    kill_stats_seen: u32,
    kill_fired: bool,
    link_handles: Vec<thread::JoinHandle<()>>,
    acceptor: Option<thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    local_addr: String,
}

impl TcpTransport {
    /// Classify one event. Returns the protocol message the caller
    /// should feed to the coordinator logic, if any; relays, respawns
    /// and the kill hook are handled here.
    fn triage(&mut self, ev: Event, now: VirtualTime) -> Result<Option<FromEngine>> {
        match ev {
            Event::Connected { engine, epoch } => {
                self.live_epoch[engine.index()] = epoch;
                Ok(None)
            }
            Event::Msg(m) => {
                if let Some(f) = &mut self.logs[m.engine().index()] {
                    let _ = writeln!(f, "rx kind={}", m.kind_name());
                }
                if let (Some(kp), false) = (self.kill, self.kill_fired) {
                    // Drain polls count like stats reports: a kill plan
                    // aimed at a draining engine fires mid-drain, which
                    // is exactly the SIGKILL-during-drain chaos case.
                    let counts = matches!(&m, FromEngine::Stats(r) if r.engine == kp.engine)
                        || matches!(&m, FromEngine::DrainState { engine, .. } if *engine == kp.engine);
                    if counts {
                        self.kill_stats_seen += 1;
                        if self.kill_stats_seen >= kp.after_stats {
                            self.kill_fired = true;
                            if let Some(ctl) = self.spawn.as_mut() {
                                if let Some(child) = ctl.children[kp.engine.index()].as_mut() {
                                    // SIGKILL: no exit handler runs in
                                    // the worker, no state survives.
                                    let _ = child.kill();
                                }
                            }
                        }
                    }
                }
                // Marked before the worker's disconnect event can land,
                // so the exit is not treated as a crash.
                if let FromEngine::CleanupDone { engine, .. } = &m {
                    self.done[engine.index()] = true;
                }
                Ok(Some(m))
            }
            Event::Relay { to, msg } => {
                self.send(to, msg)?;
                Ok(None)
            }
            Event::Disconnected { engine, epoch } => {
                self.on_disconnect(engine, epoch, now)?;
                Ok(None)
            }
            Event::Fatal { engine, error } => Err(DcapeError::codec(format!(
                "worker {engine} connection: {error}"
            ))),
        }
    }

    fn on_disconnect(&mut self, engine: EngineId, epoch: u64, now: VirtualTime) -> Result<()> {
        if self.live_epoch[engine.index()] != epoch {
            // A newer connection already replaced this one.
            return Ok(());
        }
        if self.done[engine.index()] {
            // Normal exit after CleanupDone.
            return Ok(());
        }
        let Some(ctl) = self.spawn.as_mut() else {
            return Err(DcapeError::Disconnected(format!(
                "worker {engine} disconnected (manual --listen mode cannot respawn)"
            )));
        };
        let status = match ctl.children[engine.index()].take() {
            Some(mut child) => child.wait().map_err(DcapeError::Io)?,
            None => {
                return Err(DcapeError::Disconnected(format!(
                    "worker {engine} disconnected but no child process is tracked"
                )))
            }
        };
        // Respawn only crash-shaped deaths: a signal (kill -9) or the
        // chaos crash exit code. Anything else (a panic, exit 0 before
        // CleanupDone) is a worker bug and fails the run.
        let crashed = match status.code() {
            None => true, // killed by signal
            Some(c) => c == CRASH_EXIT,
        };
        if !crashed {
            return Err(DcapeError::Disconnected(format!(
                "worker {engine} exited unexpectedly ({status})"
            )));
        }
        let count = {
            let r = &mut ctl.respawns[engine.index()];
            *r += 1;
            *r
        };
        if count > MAX_RESPAWNS {
            return Err(DcapeError::Disconnected(format!(
                "worker {engine} exceeded {MAX_RESPAWNS} respawns"
            )));
        }
        self.journal.record(
            now,
            AdaptEvent::ProtocolWarning {
                code: Warning::WorkerRespawned,
                engine,
                round: 0,
                detail: count as u64,
            },
        );
        ctl.spawn_worker(engine)
    }
}

// ---------------------------------------------------------------------
// The coordinator side: set-up, the transport seam, teardown.

impl TcpTransport {
    /// Create the replay logs under `replay_dir`, bind the listener and
    /// start the link and acceptor threads; worker processes start with
    /// [`Transport::start_engine`]. Frames sent are logged under
    /// `log_dir`, if given, one file per engine.
    fn new(
        cfg: &SocketConfig,
        journal: JournalHandle,
        replay_dir: &Path,
        log_dir: Option<&Path>,
    ) -> Result<Self> {
        let sim = &cfg.sim;
        let capacity = sim.capacity();
        // Links and logs are provisioned at peak capacity: a joiner's
        // link exists before its process does, so its late `Hello`
        // lands in the ordinary acceptor path.
        let replay = (0..capacity)
            .map(|_| ReplayLog::create(replay_dir))
            .collect::<Result<Vec<_>>>()?;
        let listen_addr = match &cfg.mode {
            SocketMode::Spawn { .. } => "127.0.0.1:0".to_string(),
            SocketMode::Listen { addr } => addr.clone(),
        };
        let listener = TcpListener::bind(&listen_addr).map_err(DcapeError::Io)?;
        let local_addr = listener.local_addr().map_err(DcapeError::Io)?.to_string();

        let mut links = Vec::with_capacity(capacity);
        let mut link_handles = Vec::with_capacity(capacity);
        let mut logs = Vec::with_capacity(capacity);
        let (pid, run) = (std::process::id(), NEXT_RUN.fetch_add(1, Ordering::Relaxed));
        for (i, log) in replay.iter().enumerate() {
            let (tx, rx) = channel();
            links.push(tx);
            let welcome = Welcome {
                engine: EngineId(i as u16),
                config: sim.engine.clone(),
                fault_seed: sim.faults.seed(),
                faults: *sim.faults.config(),
                replay_until: 0,
            };
            let log = log.file.try_clone()?;
            link_handles.push(
                thread::Builder::new()
                    .name(format!("dcape-tx-e{i}"))
                    .spawn(move || link_thread(welcome, log, rx))
                    .map_err(DcapeError::Io)?,
            );
            let name = format!("frames-coord-e{i}-pid{pid}-run{run}.log");
            logs.push(frame_log(log_dir, name)?);
        }

        let (events_tx, events) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let links = links.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("dcape-accept".into())
                .spawn(move || acceptor_thread(listener, links, events_tx, shutdown))
                .map_err(DcapeError::Io)?
        };

        let spawn = match &cfg.mode {
            SocketMode::Spawn { node_bin } => Some(SpawnCtl {
                node_bin: node_bin.clone(),
                addr: local_addr.clone(),
                children: (0..capacity).map(|_| None).collect(),
                respawns: vec![0; capacity],
            }),
            SocketMode::Listen { .. } => {
                eprintln!(
                    "dcape coordinator listening on {local_addr}; waiting for {} worker(s)",
                    sim.num_engines
                );
                None
            }
        };
        Ok(TcpTransport {
            links,
            replay,
            frame: Vec::new(),
            live_epoch: vec![0; capacity],
            logs,
            events,
            spawn,
            done: vec![false; capacity],
            journal,
            kill: cfg.kill,
            kill_stats_seen: 0,
            kill_fired: false,
            link_handles,
            acceptor: Some(acceptor),
            shutdown,
            local_addr,
        })
    }
}

impl Transport for TcpTransport {
    /// Spawn mode starts the worker process; in listen mode the workers
    /// are started by hand and connect on their own.
    fn start_engine(&mut self, engine: EngineId) -> Result<()> {
        match self.spawn.as_mut() {
            Some(ctl) => ctl.spawn_worker(engine),
            None => Ok(()),
        }
    }

    /// Frame and sequence one engine-bound message, append it to the
    /// engine's replay log, log it, and tell the engine's link the new
    /// tail. Never fails on a dead connection — the frame is in the
    /// replay log and the worker (or its respawn) gets it when it is
    /// back; a failed append fails the send, so the history has no gap.
    fn send(&mut self, engine: EngineId, msg: ToEngine) -> Result<()> {
        let i = engine.index();
        let replay = &mut self.replay[i];
        let seq = replay.frames + 1;
        let wire = WireMsg::Engine(msg);
        self.frame.clear();
        put_frame(seq, &wire, &mut self.frame)?;
        let cmd = replay.append(&self.frame)?;
        if let Some(f) = &mut self.logs[i] {
            let kind = msg_kind_name(&wire);
            let _ = writeln!(f, "tx seq={seq} kind={kind} len={}", self.frame.len());
        }
        self.links[i]
            .send(cmd)
            .map_err(|_| DcapeError::Disconnected(format!("link for engine {engine} closed")))
    }

    fn try_recv(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
        while let Ok(ev) = self.events.try_recv() {
            if let Some(msg) = self.triage(ev, now)? {
                return Ok(Some(msg));
            }
        }
        Ok(None)
    }

    fn recv_or_idle(&mut self, now: VirtualTime) -> Result<Option<FromEngine>> {
        loop {
            match self.events.recv_timeout(Duration::from_millis(5)) {
                Ok(ev) => {
                    if let Some(msg) = self.triage(ev, now)? {
                        return Ok(Some(msg));
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DcapeError::Disconnected("event channel closed".into()))
                }
            }
        }
    }

    /// Stop the acceptor (it holds a sender into every link), hang up
    /// on the links (each ends with everything deliverable written),
    /// reap the children.
    fn shutdown(&mut self) -> Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.local_addr); // unblock accept()
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.links.clear();
        for h in self.link_handles.drain(..) {
            let _ = h.join();
        }
        if let Some(ctl) = self.spawn.as_mut() {
            for (i, child) in ctl.children.iter_mut().enumerate() {
                if let Some(mut c) = child.take() {
                    let status = c.wait().map_err(DcapeError::Io)?;
                    if !status.success() {
                        return Err(DcapeError::Disconnected(format!(
                            "worker {i} exited with {status} after cleanup"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Run a complete experiment across worker processes until `deadline`
/// of virtual time, then quiesce, run the distributed cleanup, and fold
/// the per-worker reports — same contract and report shape as
/// [`super::threaded::run_threaded`].
pub fn run_socket(cfg: SocketConfig, deadline: VirtualTime) -> Result<ThreadedReport> {
    let sim = &cfg.sim;
    if sim.capacity() > u16::MAX as usize {
        return Err(DcapeError::config("too many engines for the wire format"));
    }
    if cfg.kill.is_some() && !matches!(cfg.mode, SocketMode::Spawn { .. }) {
        return Err(DcapeError::config("kill plans need spawn mode"));
    }
    if sim
        .scale_events
        .iter()
        .any(|e| e.action == ScaleAction::AddEngine)
        && !matches!(cfg.mode, SocketMode::Spawn { .. })
    {
        return Err(DcapeError::config(
            "scale-out events need spawn mode (cannot start workers in --listen mode)",
        ));
    }
    let journal = JournalHandle::default();
    // Bounded patience when anything can kill or lose a message: chaos
    // faults, or the kill plan (a worker dying mid-round needs the
    // phase timeout to re-drive the round against its respawn).
    let patient = sim.faults.needs_patience() || cfg.kill.is_some();
    let transport = TcpTransport::new(
        &cfg,
        journal.clone(),
        &std::env::temp_dir(),
        frame_log_dir().as_deref(),
    )?;
    let mut run = CoordinatorRun::new(sim, journal, patient, transport)?;
    run.run_until(deadline)?;
    run.quiesce()?;
    Ok(run.cleanup()?.into())
}

// ---------------------------------------------------------------------
// Worker side.

/// Framed-TCP transport for a worker's [`EngineCore`]: replies and
/// relayed peer messages all go up the single coordinator connection.
struct WorkerTx<'a> {
    stream: &'a TcpStream,
    log: Option<&'a std::fs::File>,
}

impl WorkerTx<'_> {
    fn write(&mut self, wire: &WireMsg) -> Result<()> {
        if let Some(mut f) = self.log {
            let _ = writeln!(f, "tx kind={}", msg_kind_name(wire));
        }
        write_frame(&mut self.stream, 0, wire)
    }
}

impl EngineTx for WorkerTx<'_> {
    fn to_gc(&mut self, m: FromEngine) -> Result<()> {
        self.write(&WireMsg::Coord(m))
    }

    fn to_peer(&mut self, target: EngineId, m: ToEngine) -> Result<()> {
        self.write(&WireMsg::Relay { to: target, msg: m })
    }
}

/// How a worker session came to an end (short of a hard error).
enum SessionEnd {
    /// The run completed: `StartCleanup` was processed to `CleanupDone`.
    Finished,
    /// The connection died before `Welcome` arrived: the coordinator
    /// was tearing down the previous run's listener when we raced in.
    HandshakeLost,
}

/// Entry point of a spawn-mode (`--once`) worker process: connect,
/// handshake, then run the engine loop until `StartCleanup` completes
/// (exit 0), a chaos crash fires (exit [`CRASH_EXIT`]), or an error
/// occurs.
pub fn worker_main(addr: &str, engine: EngineId) -> Result<()> {
    let stream = TcpStream::connect(addr).map_err(DcapeError::Io)?;
    match worker_session(stream, engine)? {
        SessionEnd::Finished => Ok(()),
        SessionEnd::HandshakeLost => Err(DcapeError::Disconnected(
            "coordinator closed the connection before Welcome".into(),
        )),
    }
}

/// Connect with a bounded retry grace: between successive runs (one
/// figure configuration each) the coordinator tears its listener down
/// and re-binds it, and at startup the worker may beat the coordinator
/// to the address. `None` once the grace period expires.
fn connect_with_retry(addr: &str) -> Option<TcpStream> {
    for attempt in 0..50 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
        if let Ok(s) = TcpStream::connect(addr) {
            return Some(s);
        }
    }
    None
}

/// Entry point of a manually started `dcape-node`: serve coordinator
/// runs in a loop — a listen-mode harness executes one `run_socket`
/// per figure configuration, each needing a fresh session — and return
/// the number served once the coordinator stops listening for good.
pub fn worker_serve(addr: &str, engine: EngineId) -> Result<u32> {
    let mut served = 0u32;
    loop {
        let stream = match connect_with_retry(addr) {
            Some(s) => s,
            None if served > 0 => return Ok(served),
            None => {
                return Err(DcapeError::Disconnected(format!(
                    "could not reach coordinator at {addr}"
                )))
            }
        };
        match worker_session(stream, engine)? {
            SessionEnd::Finished => served += 1,
            SessionEnd::HandshakeLost => {}
        }
    }
}

/// One full worker session over an established connection: handshake,
/// then the engine loop until the run finishes.
fn worker_session(stream: TcpStream, engine: EngineId) -> Result<SessionEnd> {
    stream.set_nodelay(true).map_err(DcapeError::Io)?;
    if write_frame(&mut (&stream), 0, &WireMsg::Hello(Hello { engine })).is_err() {
        // The accepted connection was already dead (listener teardown
        // race): no Welcome was ever coming.
        return Ok(SessionEnd::HandshakeLost);
    }
    let mut reader = BufReader::new(stream.try_clone().map_err(DcapeError::Io)?);
    let welcome = match read_frame(&mut reader) {
        Ok(Some((_, WireMsg::Welcome(w)))) => *w,
        Ok(None) | Err(DcapeError::Io(_)) => return Ok(SessionEnd::HandshakeLost),
        Ok(Some(other)) => {
            return Err(DcapeError::protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
        Err(e) => return Err(e),
    };
    if welcome.engine != engine {
        return Err(DcapeError::protocol("welcome for a different engine"));
    }
    let log_file = frame_log(
        frame_log_dir().as_deref(),
        format!(
            "frames-worker-e{}-pid{}-run{}.log",
            engine.index(),
            std::process::id(),
            NEXT_RUN.fetch_add(1, Ordering::Relaxed)
        ),
    )?;

    let mut core = EngineCore::new(engine, welcome.config, JournalHandle::default(), false)?;
    // Announce liveness: a late joiner's rebalancing is deferred until
    // this arrives; announcements from the initial engines are absorbed
    // quietly. Resent on respawn, which is how a joiner that crashed
    // mid-admission completes its join after replay.
    {
        let mut tx = WorkerTx {
            stream: &stream,
            log: log_file.as_ref(),
        };
        tx.to_gc(FromEngine::JoinReady { engine })?;
    }
    let plan = FaultPlan::new(welcome.fault_seed, welcome.faults);
    let replay_plan = FaultPlan::disabled();
    let mut expected_seq = 1u64;
    loop {
        let (seq, wire) = match read_frame(&mut reader)? {
            Some(frame) => frame,
            None => {
                // The coordinator hung up before StartCleanup: it
                // failed (or was killed); nothing left to do here.
                return Err(DcapeError::Disconnected(
                    "coordinator closed the connection".into(),
                ));
            }
        };
        if seq != expected_seq {
            return Err(DcapeError::protocol(format!(
                "frame sequence gap: expected {expected_seq}, got {seq}"
            )));
        }
        expected_seq += 1;
        if let Some(mut f) = log_file.as_ref() {
            let _ = writeln!(f, "rx seq={seq} kind={}", msg_kind_name(&wire));
        }
        let msg = match wire {
            WireMsg::Engine(m) => m,
            other => {
                return Err(DcapeError::protocol(format!(
                    "unexpected frame kind: {}",
                    msg_kind_name(&other)
                )))
            }
        };
        // Replayed history is processed fault-free: those faults
        // already happened in a previous life of this engine.
        let active_plan = if seq <= welcome.replay_until {
            &replay_plan
        } else {
            &plan
        };
        let mut tx = WorkerTx {
            stream: &stream,
            log: log_file.as_ref(),
        };
        match core.handle(msg, active_plan, &mut tx)? {
            EngineFlow::Continue => {}
            EngineFlow::CrashRequested => {
                // A real crash: the OS process dies, taking every bit
                // of in-memory state (and this life's journal) with it.
                // The coordinator respawns us and replays history.
                std::process::exit(CRASH_EXIT);
            }
            EngineFlow::Finished => {
                crate::testing::dump_journal(
                    &format!("worker-e{}", engine.index()),
                    &core.qe.journal().snapshot(),
                );
                return Ok(SessionEnd::Finished);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::strategy::StrategyConfig;
    use crate::wire::frame_bytes;
    use dcape_common::batch::TupleBatch;
    use dcape_common::ids::{PartitionId, StreamId};
    use dcape_common::time::VirtualDuration;
    use dcape_common::tuple::TupleBuilder;
    use dcape_common::value::Value;
    use dcape_engine::config::EngineConfig;
    use dcape_streamgen::StreamSetSpec;
    use std::io::Read;

    /// A link thread over a fresh replay log in the temp directory, the
    /// log's appending end, and the link's feed.
    fn start_link() -> (ReplayLog, Sender<LinkCmd>, thread::JoinHandle<()>) {
        let log = ReplayLog::create(&std::env::temp_dir()).unwrap();
        let welcome = Welcome {
            engine: EngineId(0),
            config: EngineConfig::three_way(1 << 20, 1 << 19),
            fault_seed: 0,
            faults: FaultConfig::none(),
            replay_until: 0,
        };
        let (tx, rx) = channel();
        let file = log.file.try_clone().unwrap();
        let link = thread::spawn(move || link_thread(welcome, file, rx));
        (log, tx, link)
    }

    /// A connected peer whose other end is handed to the link.
    fn attach(listener: &TcpListener, tx: &Sender<LinkCmd>) -> BufReader<TcpStream> {
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        tx.send(LinkCmd::Attach(listener.accept().unwrap().0))
            .unwrap();
        BufReader::new(peer)
    }

    /// The link's contract, read off a loopback peer: frames appended
    /// before any connection wait; every connection gets `Welcome` with
    /// `replay_until` = the frames appended so far, then the whole log
    /// from `seq = 1`, then live frames as they are appended; a hang-up
    /// ends the thread once the last frame is readable.
    #[test]
    fn link_greets_every_connection_and_replays_from_seq_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut log, tx, link) = start_link();
        let mut feed = |seqs: std::ops::RangeInclusive<u64>| {
            for seq in seqs {
                let frame = frame_bytes(seq, &WireMsg::Engine(ToEngine::StartCleanup)).unwrap();
                tx.send(log.append(&frame).unwrap()).unwrap();
            }
        };
        let expect = |peer: &mut BufReader<TcpStream>, replay_until, seqs| {
            if let Some(n) = replay_until {
                match read_frame(peer).unwrap() {
                    Some((0, WireMsg::Welcome(w))) => assert_eq!(w.replay_until, n),
                    other => panic!("expected Welcome, got {other:?}"),
                }
            }
            for seq in seqs {
                match read_frame(peer).unwrap() {
                    Some((got, WireMsg::Engine(ToEngine::StartCleanup))) => assert_eq!(got, seq),
                    other => panic!("expected frame {seq}, got {other:?}"),
                }
            }
        };

        feed(1..=3);
        let mut peer = attach(&listener, &tx);
        expect(&mut peer, Some(3), 1..=3);
        feed(4..=4);
        expect(&mut peer, None, 4..=4);
        drop(peer);
        feed(5..=6);
        let mut peer = attach(&listener, &tx);
        expect(&mut peer, Some(6), 1..=6);
        feed(7..=7);
        drop(tx);
        expect(&mut peer, None, 7..=7);
        assert!(
            read_frame(&mut peer).unwrap().is_none(),
            "EOF after the last frame"
        );
        link.join().unwrap();
    }

    /// Frame `seq` of a stream of `DataBatch`es of uneven sizes: one to
    /// five rows of 3–23 KB blobs, so frames straddle copy-buffer
    /// boundaries at ever different offsets and some are wider than the
    /// buffer itself.
    fn odd_data_batch(seq: u64) -> Vec<u8> {
        let mut batch = TupleBatch::new();
        for row in 0..1 + seq % 5 {
            let blob = vec![seq as u8; 3001 + (seq * 131 % 20_000) as usize];
            let tuple = TupleBuilder::new(StreamId((row % 3) as u8))
                .seq(seq)
                .ts(VirtualTime::from_millis(seq))
                .value(Value::Blob(bytes::Bytes::from(blob)))
                .build();
            batch.push(PartitionId(row as u32), tuple);
        }
        frame_bytes(seq, &WireMsg::Engine(ToEngine::DataBatch { tuples: batch })).unwrap()
    }

    /// A history larger than the link's copy buffer and the socket's
    /// buffers reaches a new connection byte for byte and in sequence,
    /// and a live frame appended during the replay follows it.
    #[test]
    fn a_replay_larger_than_every_buffer_arrives_byte_identical() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut log, tx, link) = start_link();
        let mut history = Vec::new();
        let mut seq = 0;
        while history.len() < 8 << 20 {
            seq += 1;
            let frame = odd_data_batch(seq);
            tx.send(log.append(&frame).unwrap()).unwrap();
            history.extend_from_slice(&frame);
        }
        let mut peer = attach(&listener, &tx);
        let live = odd_data_batch(seq + 1);
        tx.send(log.append(&live).unwrap()).unwrap();
        history.extend_from_slice(&live);
        drop(tx);

        match read_frame(&mut peer).unwrap() {
            Some((0, WireMsg::Welcome(w))) => assert_eq!(w.replay_until, seq),
            other => panic!("expected Welcome, got {other:?}"),
        }
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        link.join().unwrap();
        assert_eq!(got.len(), history.len());
        assert!(got == history, "the replay differs from what was appended");
        let mut stream = got.as_slice();
        for want in 1..=seq + 1 {
            match read_frame(&mut stream).unwrap() {
                Some((got, WireMsg::Engine(ToEngine::DataBatch { .. }))) => assert_eq!(got, want),
                other => panic!("expected frame {want}, got {other:?}"),
            }
        }
        assert!(stream.is_empty());
    }

    /// A two-engine socket configuration whose workers are never started.
    fn unstarted_cfg() -> SocketConfig {
        SocketConfig {
            sim: SimConfig::new(
                2,
                EngineConfig::three_way(1 << 20, 1 << 19),
                StreamSetSpec::uniform(4, 100, 1, VirtualDuration::from_millis(30)),
                StrategyConfig::NoAdaptation,
            ),
            mode: SocketMode::Spawn {
                node_bin: PathBuf::from("never-started"),
            },
            kill: None,
        }
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let entries = std::fs::read_dir(dir).unwrap();
        let mut names: Vec<String> = entries
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Each run's coordinator writes frame logs of its own: a second run
    /// in the same process leaves the first one's logs as they were. The
    /// replay logs beside them have no name even while they are open.
    #[test]
    fn two_runs_in_one_process_leave_two_sets_of_frame_logs() {
        let dir = std::env::temp_dir().join(format!("dcape-frame-logs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = unstarted_cfg();
        for _ in 0..2 {
            let mut t =
                TcpTransport::new(&cfg, JournalHandle::default(), &dir, Some(&dir)).unwrap();
            t.send(EngineId(0), ToEngine::StartCleanup).unwrap();
            let named = names_in(&dir);
            assert!(
                !named.iter().any(|n| n.starts_with(REPLAY_NAME_PREFIX)),
                "{named:?}"
            );
            t.shutdown().unwrap();
        }
        let names = names_in(&dir);
        assert_eq!(names.len(), 4, "two engines, two runs: {names:?}");
        let first_engine: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("frames-coord-e0-"))
            .collect();
        assert_eq!(first_engine.len(), 2, "{names:?}");
        for name in first_engine {
            let log = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(
                log.starts_with("tx seq=1 kind=start_cleanup len="),
                "{name}: {log}"
            );
            assert_eq!(log.lines().count(), 1, "{name}: {log}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A replay directory that cannot hold a file fails the transport
    /// before the run starts, not at its first send.
    #[test]
    fn an_unusable_replay_directory_fails_the_transport_up_front() {
        let file =
            std::env::temp_dir().join(format!("dcape-not-a-replay-dir-{}", std::process::id()));
        std::fs::write(&file, b"in the way").unwrap();
        let refused = TcpTransport::new(
            &unstarted_cfg(),
            JournalHandle::default(),
            &file.join("replay"),
            None,
        );
        std::fs::remove_file(&file).unwrap();
        assert!(
            matches!(refused, Err(DcapeError::Io(_))),
            "{:?}",
            refused.err()
        );
    }
}
