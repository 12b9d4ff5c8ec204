//! Orchestration: one *run* sets a workload up and samples it for a
//! fixed number of job seconds; `all` repeats runs round-robin across
//! the workloads and then walks each one's layers.
//!
//! The run is the unit every statistic is taken over. A single job of a
//! multi-threaded runtime varies by ±20 % on the two-core reference box
//! (which thread the scheduler favours, how long a relocation round
//! holds the purge watermark), so a run aggregates several jobs — work
//! done over time spent — and medians, quartiles and `compare` work on
//! run-level values, exactly as the driver's acceptance check does.

use std::path::PathBuf;
use std::time::Instant;

use dcape_common::error::{DcapeError, Result};

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::reference::reference_count;
use crate::sample::{self, Sample};
use crate::stats::{median, Summary};
use crate::walk::walk;
use crate::workloads::{node_bin, Fields, Job, Options, Workload};

/// Where traces, reports and the storage pass's scratch files go.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

/// One run of one workload.
#[derive(Debug)]
pub struct Run {
    pub job: Job,
    /// Result count every job of the run must produce.
    pub reference: u64,
    /// Seconds of harness preparation, per set-up repetition.
    pub prep_s: Vec<f64>,
    /// Seconds of preparation plus a zero-deadline run of the runtime.
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
}

/// Set `workload` up `setup_reps` times — build the job, generate its
/// input and count the reference result, make the results directory,
/// then start and stop the runtime on no input (spawn, handshake,
/// teardown) — and sample it: fresh child processes, one job each,
/// until `budget_s` of job time are in and at least `min_samples`.
pub fn measure(
    workload: Workload,
    opts: Options,
    setup_reps: usize,
    min_samples: usize,
    budget_s: f64,
) -> Result<Run> {
    let node = node_bin()?;
    let mut prepared = None;
    let (mut prep_s, mut setup_s) = (Vec::new(), Vec::new());
    for _ in 0..setup_reps.max(1) {
        let start = Instant::now();
        let job = Job::new(workload, opts);
        let reference = reference_count(&job.cfg.workload, job.ticks, job.window_ms())?;
        std::fs::create_dir_all(results_dir()).map_err(DcapeError::Io)?;
        prep_s.push(start.elapsed().as_secs_f64());
        job.scaled(0.0).run(&node)?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((job, reference));
    }
    let (job, reference) = prepared.expect("at least one repetition");
    let mut run = Run {
        job,
        reference,
        prep_s,
        setup_s,
        samples: Vec::new(),
    };
    // One paced job is `seconds` long by construction.
    let (min_samples, budget_s) = match (workload, opts.quick) {
        (Workload::PacedWindowLatency, _) => (1, 0.0),
        (_, true) => (2, 0.0),
        (_, false) => (min_samples, budget_s),
    };
    // The cap keeps a failing runtime from holding the caller forever.
    while run.samples.len() < min_samples
        || (run.job_seconds() < budget_s && run.samples.len() < 40)
    {
        let s = sample::take(&run.job, opts, reference);
        run.samples.push(s);
    }
    Ok(run)
}

impl Run {
    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.correct)
    }

    /// Job seconds sampled so far.
    fn job_seconds(&self) -> f64 {
        self.samples.iter().map(|s| s.num("wall_s")).sum()
    }

    fn paced(&self) -> bool {
        self.job.workload == Workload::PacedWindowLatency
    }

    /// Operations attempted and failed. A closed-loop job either equals
    /// the reference or fails whole; the open loop also fails batches
    /// (see `paced`).
    pub fn attempted_failed(&self) -> (u64, u64) {
        if !self.paced() {
            let failed = self.samples.iter().filter(|s| !s.correct).count();
            return (self.samples.len() as u64, failed as u64);
        }
        self.samples.iter().fold((0, 0), |(a, f), s| {
            let sent = (s.num("batches_sent") as u64).max(1);
            let late = s.num("batches_failed") as u64;
            (a + sent, f + if s.correct { late } else { sent })
        })
    }

    pub fn correct(&self) -> bool {
        !self.samples.is_empty() && self.samples.iter().all(|s| s.correct)
    }

    /// Seconds the run's jobs kept the machine busy: wall time for a
    /// closed loop; for the open loop, which idles by design, the time
    /// its busier stage worked.
    fn busy_s(&self) -> f64 {
        self.ok()
            .map(|s| match self.paced() {
                true => s.num("engine.busy_s").max(s.num("pacer.busy_s")),
                false => s.num("wall_s"),
            })
            .sum()
    }

    /// The run's value of an end-to-end metric, if defined on it.
    pub fn value(&self, metric: &EndToEnd) -> Option<f64> {
        if !metric.on.contains(&self.job.workload) || self.ok().next().is_none() {
            return None;
        }
        let sum = |field: &str| self.ok().map(|s| s.num(field)).sum::<f64>();
        Some(match metric.name {
            "setup_s" => median(&self.setup_s),
            "failed_share" => {
                let (attempted, failed) = self.attempted_failed();
                failed as f64 / attempted.max(1) as f64
            }
            // Work done over time spent, across all the run's jobs. For
            // the open loop that is the rate its busier stage could
            // sustain: above it the queue between the stages only grows.
            "throughput_tuples_per_s" => {
                let tuples = if self.paced() {
                    "recorded_tuples"
                } else {
                    "tuples_routed"
                };
                sum(tuples) / self.busy_s()
            }
            "runtime_result_share" => sum("runtime_output") / sum("total_output"),
            field => median(&self.ok().map(|s| s.num(field)).collect::<Vec<_>>()),
        })
    }
}

/// Several runs of one workload, and (after `walk_layers`) its layers.
#[derive(Debug)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub runs: Vec<Run>,
    pub walks_correct: bool,
    pub layers: Fields,
}

impl WorkloadReport {
    pub fn new(workload: Workload) -> WorkloadReport {
        WorkloadReport {
            workload,
            runs: Vec::new(),
            walks_correct: true,
            layers: Fields::new(),
        }
    }

    /// The end-to-end metrics defined on this workload, each summarised
    /// over the runs.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Summary)> {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let values: Vec<f64> = self.runs.iter().filter_map(|r| r.value(m)).collect();
                Summary::of(&values).map(|s| (m, s))
            })
            .collect()
    }

    pub fn attempted_failed(&self) -> (u64, u64) {
        self.runs.iter().fold((0, 0), |(a, f), r| {
            let (ra, rf) = r.attempted_failed();
            (a + ra, f + rf)
        })
    }

    pub fn correct(&self) -> bool {
        self.walks_correct && !self.runs.is_empty() && self.runs.iter().all(Run::correct)
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.runs.iter().flat_map(|r| &r.samples)
    }

    /// Walk the job and assemble the per-layer table; the counters of
    /// the run come from the correct sample whose wall time is the median.
    pub fn walk_layers(&mut self) -> Result<()> {
        let Some(run) = self.runs.first() else {
            return Ok(());
        };
        let name = self.workload.name();
        let scratch = results_dir().join(format!("spill-{name}-{}", std::process::id()));
        let spans = results_dir().join(format!("trace-{name}.jsonl"));
        // Untraced, traced, untraced: the traced walk is compared with
        // the mean of its two neighbours, so machine drift across the
        // three cancels to first order.
        let before = walk(&run.job, false, &scratch, None)?;
        let traced = walk(&run.job, true, &scratch, Some(&spans))?;
        let after = walk(&run.job, false, &scratch, None)?;
        self.walks_correct = [&before, &traced, &after]
            .iter()
            .all(|w| w.total_output == run.reference);
        let plain_s = (before.wall_s + after.wall_s) / 2.0;

        let mut fields = traced.fields;
        let mut ok: Vec<&Sample> = self.samples().filter(|s| s.correct).collect();
        ok.sort_by(|a, b| a.num("wall_s").total_cmp(&b.num("wall_s")));
        if let Some(sample) = ok.get(ok.len() / 2) {
            for (k, v) in sample.fields.members() {
                fields.push((k.clone(), v.as_f64().unwrap_or(0.0)));
            }
        }
        let jobs: usize = self.runs.iter().map(|r| r.ok().count()).sum();
        let job_s = self.runs.iter().map(Run::busy_s).sum::<f64>() / jobs.max(1) as f64;
        let prep: Vec<f64> = self.runs.iter().flat_map(|r| r.prep_s.clone()).collect();
        let mut put = |k: &str, v: f64| fields.push((k.to_string(), v));
        put("runtime.wall_minus_walk_s", job_s - plain_s);
        put(
            "runtime.speedup_vs_walk",
            if job_s > 0.0 { plain_s / job_s } else { 0.0 },
        );
        put("trace.overhead_share", traced.wall_s / plain_s - 1.0);
        put("harness.prep_s", median(&prep));
        self.layers = fields;
        Ok(())
    }

    /// Every name `BENCHMARK.json` lists under `per_layer`, in its
    /// order: the end-to-end metrics that are not defined on every
    /// workload first (their median over the runs), then the layers.
    pub fn per_layer_values(&self) -> Vec<(&'static str, &'static str, f64)> {
        let e2e = self.end_to_end();
        let unbounded = END_TO_END.iter().filter(|m| !m.in_contract()).map(|m| {
            let median = e2e
                .iter()
                .find(|(def, _)| def.name == m.name)
                .map_or(0.0, |(_, s)| s.median);
            (m.name, m.unit, median)
        });
        let layer = |name: &str| {
            self.layers
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v)
        };
        unbounded
            .chain(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, _)| (name, unit, layer(name))),
            )
            .collect()
    }
}

fn metric_json(unit: &str, value: f64) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// One run under the driver's contract. `--trace 0`: set up seven times
/// (median), sample for `opts.seconds`, report the bounded end-to-end
/// metrics. `--trace 1`: set up once, take two samples for the run's
/// counters, walk the layers, report every per-layer metric.
pub fn contract_run(workload: Workload, opts: Options, trace: bool) -> Result<Json> {
    let mut report = WorkloadReport::new(workload);
    report.runs.push(if trace {
        measure(workload, opts, 1, 2, 0.0)?
    } else {
        measure(workload, opts, 7, 5, opts.seconds as f64)?
    });
    let metrics: Vec<(String, Json)> = if trace {
        report.walk_layers()?;
        report
            .per_layer_values()
            .into_iter()
            .map(|(name, unit, v)| (name.to_string(), metric_json(unit, v)))
            .collect()
    } else {
        report
            .end_to_end()
            .into_iter()
            .filter(|(def, _)| def.in_contract())
            .map(|(def, s)| (def.name.to_string(), metric_json(def.unit, s.median)))
            .collect()
    };
    let (attempted, failed) = report.attempted_failed();
    Ok(Json::obj([
        ("correct", Json::from(report.correct())),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// The whole benchmark: runs taken round-robin across the workloads, so
/// that machine drift is shared between them, then the layer walks.
pub fn all(opts: Options, only: Option<Workload>) -> Result<Vec<WorkloadReport>> {
    let mut reports: Vec<WorkloadReport> = Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
        .map(WorkloadReport::new)
        .collect();
    let wanted = |w: Workload| if opts.quick { 2 } else { w.runs() };
    let rounds = reports
        .iter()
        .map(|r| wanted(r.workload))
        .max()
        .unwrap_or(0);
    for round in 0..rounds {
        for report in &mut reports {
            if round >= wanted(report.workload) {
                continue;
            }
            let run = measure(report.workload, opts, 7, 5, opts.seconds as f64)?;
            eprintln!(
                "run {}/{} {:<24} {} jobs, {:.2} job-s{}{}",
                round + 1,
                wanted(report.workload),
                report.workload.name(),
                run.samples.len(),
                run.job_seconds(),
                if run.correct() { "" } else { "  FAILED" },
                if run.samples.iter().any(|s| s.drifted) {
                    "  drifted"
                } else {
                    ""
                },
            );
            report.runs.push(run);
        }
    }
    for report in &mut reports {
        eprintln!("walk     {}", report.workload.name());
        report.walk_layers()?;
    }
    Ok(reports)
}
