//! `dcape-bench` command line. `run.sh` builds this and calls `run`
//! (the driver's contract: one workload, one JSON line) or `all`.

use std::path::PathBuf;
use std::process::ExitCode;

use dcape_bench::json::Json;
use dcape_bench::metrics::{manifest, DEFAULT_SEED, RUN_SECONDS};
use dcape_bench::run::{all, contract_run, results_dir};
use dcape_bench::workloads::{Job, Options, Workload};
use dcape_bench::{report, sample};

const USAGE: &str = "\
usage: dcape-bench <command> [flags]

  all      [--seed S] [--quick] [--out FILE | --tag T]
                                               every workload: set-up, samples in fresh
                                               child processes, layer walk; prints every
                                               metric and writes the report as JSON
                                               (default bench/results/<T>-<S>.json)
  trace    --workload W [--seed S] [--quick]   one workload's samples and layer walk;
                                               spans go to bench/results/trace-W.jsonl
  run      --workload W --seed S --seconds T --trace 0|1
                                               one contract run: one JSON line on stdout
  compare  A.json B.json                       B against base A, metric by metric;
                                               exit 1 if any row is worse
  manifest                                     print BENCHMARK.json
  sample   --workload W --seed S --seconds T [--quick]
                                               (internal) one sample in this process

workloads: allmem_uniform_threaded spill_cleanup_sim skew_window_socket paced_window_latency";

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}")),
        }
    }

    fn options(&self) -> Result<Options, String> {
        let seconds = self.number("--seconds", RUN_SECONDS)?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds must be 1..=60, got {seconds}"));
        }
        Ok(Options {
            seed: self.number("--seed", DEFAULT_SEED)?,
            quick: self.has("--quick"),
            seconds,
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner(args: Vec<String>) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let flags = Flags(rest.to_vec());
    let e = |e: dcape_common::error::DcapeError| e.to_string();
    match command.as_str() {
        "all" | "trace" => {
            let opts = flags.options()?;
            let only = (command == "trace").then(|| flags.workload()).transpose()?;
            let reports = all(opts, only).map_err(e)?;
            let doc = report::to_json(opts, &reports);
            print!("{}", report::render(&doc));
            let tag = flags.value("--tag").unwrap_or(command);
            let out = flags.value("--out").map_or_else(
                || results_dir().join(format!("{tag}-{}.json", opts.seed)),
                PathBuf::from,
            );
            std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
            println!("\nreport: {}\n\"claim\": null", out.display());
            let ok = reports
                .iter()
                .all(|r| r.correct() && r.attempted_failed().1 == 0);
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("correctness gate FAILED (see `correct` / `failed` above)");
                ExitCode::FAILURE
            })
        }
        "run" => {
            let trace = match flags.value("--trace") {
                Some("0") => false,
                Some("1") => true,
                other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
            };
            let line = contract_run(flags.workload()?, flags.options()?, trace).map_err(e)?;
            println!("{}", line.to_line());
            Ok(ExitCode::SUCCESS)
        }
        "sample" => {
            let opts = flags.options()?;
            let job = Job::new(flags.workload()?, opts);
            sample::child_main(&job).map_err(e)?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = rest else {
                return Err("compare takes two report files".into());
            };
            let (table, any_worse) = report::compare(&read_report(a)?, &read_report(b)?)?;
            print!("{table}");
            Ok(if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
