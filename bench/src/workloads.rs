//! The four fixed workloads: their inputs, their engine/cluster
//! configuration, and how one job of each is run on its runtime.
//!
//! Only *virtual duration* was tuned (so that one job takes 2–2.5 s on
//! the 2-core reference box); every other number is the issue's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dcape_cluster::runtime::sim::{SimConfig, SimDriver};
use dcape_cluster::runtime::socket::{run_socket, SocketConfig, SocketMode};
use dcape_cluster::runtime::threaded::{run_threaded, ThreadedReport};
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::PartitionId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::EngineConfig;
use dcape_metrics::journal::CountersSnapshot;
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

use crate::paced;

/// Named numbers: what a job, a sample or a walk reports.
pub type Fields = Vec<(String, f64)>;

/// Append one named number.
pub fn put(fields: &mut Fields, name: &str, value: f64) {
    fields.push((name.to_string(), value));
}

/// The paper's 30 ms inter-arrival time per stream.
pub const INTER_ARRIVAL: VirtualDuration = VirtualDuration::from_millis(30);
/// Sliding window of the two windowed workloads.
pub const WINDOW: VirtualDuration = VirtualDuration::from_secs(600);
/// Memory numbers no run reaches: state stays in memory.
const ALL_MEM_BUDGET: u64 = 1 << 40;
const ALL_MEM_THRESHOLD: u64 = 1 << 39;

const W1_MINUTES: u64 = 240;
const W2_MINUTES: u64 = 120;
const W3_MINUTES: u64 = 120;
/// Open-loop rates of workload 4, tuples per second: about a quarter and
/// a half of the ~215 k tuples/s the windowed engine sustains on the
/// reference box. Its speed drifts by +-15 %, and closer to capacity a
/// slow phase turns into a backlog that fails batches.
pub const PACED_RATES: [(&str, f64); 2] = [("lo", 50_000.0), ("hi", 100_000.0)];
/// Unrecorded lead-in at the `lo` rate that fills the window.
pub const PACED_WARMUP_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AllmemUniformThreaded,
    SpillCleanupSim,
    SkewWindowSocket,
    PacedWindowLatency,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AllmemUniformThreaded,
        Workload::SpillCleanupSim,
        Workload::SkewWindowSocket,
        Workload::PacedWindowLatency,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AllmemUniformThreaded => "allmem_uniform_threaded",
            Workload::SpillCleanupSim => "spill_cleanup_sim",
            Workload::SkewWindowSocket => "skew_window_socket",
            Workload::PacedWindowLatency => "paced_window_latency",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs `all` takes of this workload (the socket arm is the
    /// noisiest).
    pub fn runs(self) -> usize {
        match self {
            Workload::SkewWindowSocket => 7,
            _ => 5,
        }
    }
}

/// What sizes and seeds a job; every subcommand takes it.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// A tenth of the virtual duration, two jobs per run, two runs:
    /// checks the gate and the report's shape, measures nothing.
    pub quick: bool,
    /// Job seconds one run samples; also the length of the paced
    /// workload's two rate phases together.
    pub seconds: u64,
}

/// One job: a workload at a seed and size.
#[derive(Debug, Clone)]
pub struct Job {
    pub workload: Workload,
    /// Input spec, engine configuration, engine count and strategy.
    pub cfg: SimConfig,
    /// Generator ticks the job consumes (one tuple per stream each).
    pub ticks: u64,
    /// Workload 4 only: `(label, tuples/s, ticks)` per recorded rate.
    pub phases: Vec<(&'static str, f64, u64)>,
}

impl Job {
    /// Build the job of `workload`. `opts.seconds` sizes the two paced
    /// phases of workload 4 (half each); the closed-loop jobs are of
    /// fixed size.
    pub fn new(workload: Workload, opts: Options) -> Job {
        let Options { seed, seconds, .. } = opts;
        let shrink = if opts.quick { 10 } else { 1 };
        let paper = StreamSetSpec::uniform(120, 30_000, 3, INTER_ARRIVAL).with_seed(seed);
        let all_mem = EngineConfig::three_way(ALL_MEM_BUDGET, ALL_MEM_THRESHOLD);
        let mut windowed = all_mem.clone();
        windowed.join = windowed.join.with_window(WINDOW);
        let minutes_to_ticks = |m: u64| m * 60_000 / INTER_ARRIVAL.as_millis() / shrink;
        let (cfg, ticks, phases) = match workload {
            Workload::AllmemUniformThreaded => (
                SimConfig::new(
                    1,
                    all_mem,
                    paper.with_payload_pad(1024),
                    StrategyConfig::NoAdaptation,
                ),
                minutes_to_ticks(W1_MINUTES),
                Vec::new(),
            ),
            Workload::SpillCleanupSim => (
                SimConfig::new(
                    2,
                    EngineConfig::three_way(48 << 20, 32 << 20).with_spill_fraction(0.3),
                    StreamSetSpec::uniform(120, 12_000, 1, INTER_ARRIVAL)
                        .with_payload_blob(1024)
                        .with_seed(seed),
                    StrategyConfig::LazyDisk {
                        theta_r: 0.8,
                        tau_m: VirtualDuration::from_secs(45),
                    },
                )
                .with_stats_interval(VirtualDuration::from_secs(30)),
                minutes_to_ticks(W2_MINUTES),
                Vec::new(),
            ),
            Workload::SkewWindowSocket => (
                SimConfig::new(
                    2,
                    windowed,
                    paper
                        .with_payload_blob(128)
                        .with_pattern(ArrivalPattern::AlternatingSkew {
                            group_a: (0..120).step_by(2).map(PartitionId).collect(),
                            ratio: 10.0,
                            period: WINDOW,
                        }),
                    StrategyConfig::LazyDisk {
                        theta_r: 0.9,
                        tau_m: VirtualDuration::from_secs(45),
                    },
                )
                .with_stats_interval(VirtualDuration::from_secs(30)),
                minutes_to_ticks(W3_MINUTES),
                Vec::new(),
            ),
            Workload::PacedWindowLatency => {
                let secs = seconds as f64 / 2.0 / shrink as f64;
                let phases: Vec<_> = PACED_RATES
                    .iter()
                    .map(|&(label, rate)| {
                        (
                            label,
                            rate,
                            paced::phase_ticks(rate, secs, paper.num_streams),
                        )
                    })
                    .collect();
                let lead_in = PACED_WARMUP_S / shrink as f64;
                let ticks = paced::phase_ticks(PACED_RATES[0].1, lead_in, paper.num_streams)
                    + phases.iter().map(|p| p.2).sum::<u64>();
                (
                    SimConfig::new(
                        1,
                        windowed,
                        paper.with_payload_pad(1024),
                        StrategyConfig::NoAdaptation,
                    ),
                    ticks,
                    phases,
                )
            }
        };
        Job {
            workload,
            cfg: cfg.with_journal(),
            ticks,
            phases,
        }
    }

    /// The same job over `share` of its ticks: a tenth for a warm-up,
    /// none for a zero-deadline run.
    pub fn scaled(&self, share: f64) -> Job {
        let scale = |t: u64| (t as f64 * share) as u64;
        Job {
            ticks: scale(self.ticks),
            phases: self
                .phases
                .iter()
                .map(|&(l, r, t)| (l, r, scale(t) / paced::BATCH_TICKS * paced::BATCH_TICKS))
                .collect(),
            ..self.clone()
        }
    }

    /// Virtual time at which the input ends.
    pub fn deadline(&self) -> VirtualTime {
        VirtualTime::from_millis(self.ticks * self.cfg.workload.inter_arrival.as_millis())
    }

    /// Tuples the job feeds the join.
    pub fn tuples(&self) -> u64 {
        self.ticks * self.cfg.workload.num_streams as u64
    }

    pub fn window_ms(&self) -> Option<u64> {
        self.cfg.engine.join.window.map(VirtualDuration::as_millis)
    }

    /// Run the job once on its runtime and report what an operator sees:
    /// wall time of each phase, the result split, and the run's counters.
    pub fn run(&self, node_bin: &Path) -> Result<Fields> {
        let start = Instant::now();
        let mut f = Fields::new();
        match self.workload {
            Workload::AllmemUniformThreaded => {
                let report = run_threaded(self.cfg.clone(), self.deadline())?;
                put(&mut f, "wall_s", start.elapsed().as_secs_f64());
                threaded_fields(&mut f, &report);
            }
            Workload::SkewWindowSocket => {
                let cfg = SocketConfig {
                    sim: self.cfg.clone(),
                    mode: SocketMode::Spawn {
                        node_bin: node_bin.to_path_buf(),
                    },
                    kill: None,
                };
                let report = run_socket(cfg, self.deadline())?;
                put(&mut f, "wall_s", start.elapsed().as_secs_f64());
                threaded_fields(&mut f, &report);
            }
            Workload::SpillCleanupSim => {
                let mut driver = SimDriver::new(self.cfg.clone())?;
                driver.run_until(self.deadline())?;
                let run_s = start.elapsed().as_secs_f64();
                let report = driver.finish()?;
                let wall_s = start.elapsed().as_secs_f64();
                put(&mut f, "wall_s", wall_s);
                put(&mut f, "run_phase_s", run_s);
                put(&mut f, "cleanup_phase_s", wall_s - run_s);
                report_fields(
                    &mut f,
                    (report.runtime_output, report.total_output()),
                    report.relocations.len() as u64,
                    report.force_spills,
                    &report.spill_counts,
                    &report.journal_counters,
                );
            }
            Workload::PacedWindowLatency => f = paced::run(self)?,
        }
        Ok(f)
    }
}

fn threaded_fields(f: &mut Fields, report: &ThreadedReport) {
    report_fields(
        f,
        (report.runtime_output, report.total_output()),
        report.relocations,
        report.force_spills,
        &report.spill_counts,
        &report.journal_counters,
    );
}

/// What every runtime's report has: the result split and the counters.
fn report_fields(
    f: &mut Fields,
    (runtime_output, total_output): (u64, u64),
    relocations: u64,
    force_spills: u64,
    spill_counts: &[u64],
    c: &CountersSnapshot,
) {
    put(f, "runtime_output", runtime_output as f64);
    put(f, "total_output", total_output as f64);
    put(f, "run.relocations", relocations as f64);
    put(f, "run.force_spills", force_spills as f64);
    put(
        f,
        "run.spill_count",
        spill_counts.iter().sum::<u64>() as f64,
    );
    put(f, "tuples_routed", c.tuples_routed as f64);
    put(f, "run.spill_bytes", c.spill_bytes as f64);
    put(f, "spill_bytes_written", c.spill_bytes_written as f64);
    put(f, "run.spill_bytes_read", c.spill_bytes_read as f64);
    put(f, "run.relocation_bytes", c.relocation_bytes as f64);
    put(f, "run.transfer_bytes", c.transfer_bytes as f64);
    put(f, "run.rounds_aborted", c.rounds_aborted as f64);
    put(f, "run.msgs_retried", c.msgs_retried as f64);
    put(f, "run.watermark_held_ms", c.watermark_held_ms as f64);
    put(f, "run.purges_deferred", c.purges_deferred as f64);
    put(f, "run.replayed_in_order", c.replayed_in_order as f64);
}

/// The worker binary cargo built beside this executable.
pub fn node_bin() -> Result<PathBuf> {
    let mut path = std::env::current_exe().map_err(DcapeError::Io)?;
    path.set_file_name("dcape-bench-node");
    if path.is_file() {
        Ok(path)
    } else {
        Err(DcapeError::config(format!(
            "worker binary {} not found; build the bench crate first",
            path.display()
        )))
    }
}
