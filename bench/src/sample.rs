//! One timed sample = one fresh child process, so `VmHWM` is the peak
//! of exactly one job and no sample inherits another's heap.
//!
//! The child (`dcape-bench sample …`) runs a short warm-up job, times a
//! fixed pure-CPU kernel, runs the timed job, times the kernel again,
//! and prints its numbers as one JSON line. The parent spawns it
//! and checks the job's output against the reference count.

use std::process::Command;
use std::time::Instant;

use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::fx_hash;

use crate::json::Json;
use crate::workloads::{node_bin, put, Job, Options, Workload};

/// Start and end calibration may differ by this share before the sample
/// is marked `drifted` (the machine changed speed under it).
const DRIFT_LIMIT: f64 = 0.10;

/// The calibration kernel: hash 256 MiB through `dcape_common::hash`
/// (~60 ms, long enough that a scheduler hiccup is not a 10 % drift), as
/// passes over a 4 MiB buffer so the sample's peak RSS is not the
/// benchmark's own. Returns million hash steps (8-byte words) per second.
pub fn calibrate() -> f64 {
    const BUF: usize = 4 << 20;
    const PASSES: u64 = 64;
    let buf: Vec<u8> = (0..BUF).map(|i| (i * 31 + 7) as u8).collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for pass in 0..PASSES {
        acc ^= fx_hash(&(pass, std::hint::black_box(&buf[..])));
    }
    std::hint::black_box(acc);
    (BUF as u64 / 8 * PASSES) as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(DcapeError::Io)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| DcapeError::state("no VmHWM in /proc/self/status"))
}

/// Child side: run one sample of `job` and print it.
pub fn child_main(job: &Job) -> Result<()> {
    let node = node_bin()?;
    // The paced job warms itself up (its lead-in fills the window).
    if job.workload != Workload::PacedWindowLatency {
        job.scaled(0.1).run(&node)?;
    }
    let calib_start = calibrate();
    let mut fields = job.run(&node)?;
    put(&mut fields, "calib.mops_start", calib_start);
    put(&mut fields, "calib.mops_end", calibrate());
    put(&mut fields, "peak_rss_mib", peak_rss_mib()?);
    let line = Json::obj(fields.into_iter().map(|(k, v)| (k, Json::from(v))));
    println!("{}", line.to_line());
    Ok(())
}

/// One sample as the parent sees it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub fields: Json,
    /// The job's output equals the reference and it routed every tuple.
    pub correct: bool,
    pub drifted: bool,
}

impl Sample {
    pub fn num(&self, name: &str) -> f64 {
        self.fields.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Parent side: spawn one child sample of `job` and gate its output. A
/// child that dies or prints nothing parseable is a failed sample, not a
/// failed benchmark.
pub fn take(job: &Job, opts: Options, reference: u64) -> Sample {
    let failed = |why: String| {
        eprintln!("sample of {} failed: {why}", job.workload.name());
        Sample {
            fields: Json::obj::<String>([]),
            correct: false,
            drifted: false,
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(e.to_string()),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["sample", "--workload", job.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => return failed(e.to_string()),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(fields) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
        return failed(format!(
            "{}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    };
    let num = |k: &str| fields.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let correct = out.status.success()
        && num("total_output") == reference as f64
        && num("tuples_routed") == job.tuples() as f64;
    let (a, b) = (num("calib.mops_start"), num("calib.mops_end"));
    let drifted = (a - b).abs() > DRIFT_LIMIT * a.max(b);
    Sample {
        fields,
        correct,
        drifted,
    }
}
