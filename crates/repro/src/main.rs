//! `repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! repro [EXPERIMENT ...] [--fast] [--quiet] [--out DIR] [--journal PATH]
//!
//! EXPERIMENT: fig5 fig6 fig7 cleanup1 fig9 fig10 fig11 fig12 cleanup2
//!             fig13 fig14 ablations all        (default: all)
//! --fast      ~6 virtual minutes per run instead of the paper's 40–60
//! --quiet     print no tables (a CSV or journal that cannot be
//!             written still fails the run, naming its path)
//! --out DIR   CSV output directory (default: results/)
//! --journal PATH  write the adaptation-event journals of the fig9,
//!                 fig10, fig11 and fig12 runs as JSON lines, one file
//!                 per run, named after PATH (every run keeps its
//!                 journal; this only writes it out)
//! --chaos-seed N  arm the deterministic fault-injection layer with
//!                 seed N: messages of the relocation protocol are
//!                 dropped/duplicated/delayed/corrupted per a schedule
//!                 that is a pure function of the seed
//! --fault-rate R  per-edge fault rate for the chaos layer
//!                 (default 0.05; only meaningful with --chaos-seed)
//! --runtime KIND  driver for the cluster runs: sim (default,
//!                 virtual-time simulation), threaded (one OS thread
//!                 per engine), or socket (one OS process per engine,
//!                 framed TCP; spawns dcape-node workers on loopback).
//!                 Every runtime journals its engines' statistics
//!                 samples, which is what the curves are drawn from;
//!                 threaded/socket currently drive the fig5/fig6
//!                 k-sweep only, other figures require the sim driver
//! --listen ADDR   with --runtime socket: listen on ADDR and wait for
//!                 externally started dcape-node workers instead of
//!                 spawning them
//! --scale-event add@T|drain@T  elastic membership change at virtual
//!                 second T (repeatable): add spawns and admits a fresh
//!                 engine mid-run, drain retires the highest-id active
//!                 engine by relocating its state away. Applies to every
//!                 cluster run the selected experiments execute; add
//!                 requires spawn-capable runtimes (not --listen)
//! ```
//!
//! Figures sharing a run are grouped: `fig5`/`fig6` both run the k%
//! sweep; `fig7`/`cleanup1`, `fig9`/`fig10`, and `fig12`/`cleanup2`
//! likewise.

#![deny(unsafe_code)]

use std::collections::BTreeSet;
use std::process::ExitCode;

use dcape_repro::experiments::{
    ablations, fig05_06, fig07, fig09_10, fig11, fig12, fig13_14, verify,
};
use dcape_repro::RunOpts;

const USAGE: &str = "usage: repro [fig5|fig6|fig7|cleanup1|fig9|fig10|fig11|fig12|cleanup2|fig13|fig14|ablations|verify|all ...] [--fast] [--quiet] [--out DIR] [--journal PATH] [--chaos-seed N] [--fault-rate R] [--runtime sim|threaded|socket] [--listen ADDR] [--scale-event add@T|drain@T ...]";

fn main() -> ExitCode {
    let mut opts = RunOpts::default();
    let mut picks: BTreeSet<&'static str> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.fast = true,
            "--quiet" => opts.quiet = true,
            "--out" => match args.next() {
                Some(dir) => opts.out_dir = dir.into(),
                None => {
                    eprintln!("--out requires a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--journal" => match args.next() {
                Some(path) => opts.journal = Some(path.into()),
                None => {
                    eprintln!("--journal requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--chaos-seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => opts.chaos_seed = Some(seed),
                None => {
                    eprintln!("--chaos-seed requires an integer seed\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--fault-rate" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(rate) if (0.0..=1.0).contains(&rate) => opts.fault_rate = rate,
                _ => {
                    eprintln!("--fault-rate requires a number in [0, 1]\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--runtime" => match args.next().as_deref() {
                Some("sim") => opts.runtime = dcape_repro::RuntimeKind::Sim,
                Some("threaded") => opts.runtime = dcape_repro::RuntimeKind::Threaded,
                Some("socket") => opts.runtime = dcape_repro::RuntimeKind::Socket,
                _ => {
                    eprintln!("--runtime requires one of sim|threaded|socket\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--listen" => match args.next() {
                Some(addr) => opts.listen = Some(addr),
                None => {
                    eprintln!("--listen requires an address\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--scale-event" => {
                match args.next().as_deref().and_then(RunOpts::parse_scale_event) {
                    Some(event) => opts.scale_events.push(event),
                    None => {
                        eprintln!("--scale-event requires add@T or drain@T (T in virtual seconds)\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "fig5" | "fig6" => {
                picks.insert("k-sweep");
            }
            "fig7" | "cleanup1" => {
                picks.insert("fig7");
            }
            "fig9" | "fig10" => {
                picks.insert("fig9-10");
            }
            "fig11" => {
                picks.insert("fig11");
            }
            "fig12" | "cleanup2" => {
                picks.insert("fig12");
            }
            "fig13" => {
                picks.insert("fig13");
            }
            "fig14" => {
                picks.insert("fig14");
            }
            "ablations" => {
                picks.insert("ablations");
            }
            "verify" => {
                picks.insert("verify");
            }
            "all" => {
                picks.extend([
                    "k-sweep",
                    "fig7",
                    "fig9-10",
                    "fig11",
                    "fig12",
                    "fig13",
                    "fig14",
                    "ablations",
                ]);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.listen.is_some() && opts.runtime != dcape_repro::RuntimeKind::Socket {
        eprintln!("--listen only makes sense with --runtime socket\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if opts.listen.is_some()
        && opts.scale_events.iter().any(|e| {
            matches!(
                e.action,
                dcape_cluster::runtime::sim::ScaleAction::AddEngine
            )
        })
    {
        eprintln!("--scale-event add@T needs spawn mode: workers cannot be started under --listen\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if picks.is_empty() {
        picks.extend([
            "k-sweep",
            "fig7",
            "fig9-10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "ablations",
        ]);
    }
    // Only the k-sweep is wired to the concurrent runtimes; refuse the
    // other figures rather than silently fall back to the sim.
    if opts.runtime != dcape_repro::RuntimeKind::Sim && picks.iter().any(|p| *p != "k-sweep") {
        eprintln!("--runtime threaded|socket currently drives the fig5/fig6 k-sweep only\n{USAGE}");
        return ExitCode::FAILURE;
    }

    println!(
        "dcape repro — mode: {}, output: {}",
        if opts.fast { "fast" } else { "paper-scale" },
        opts.out_dir.display()
    );
    for pick in picks {
        let result = match pick {
            "k-sweep" => fig05_06::run(&opts).map(|_| ()),
            "fig7" => fig07::run(&opts).map(|_| ()),
            "fig9-10" => fig09_10::run(&opts).map(|_| ()),
            "fig11" => fig11::run(&opts).map(|_| ()),
            "fig12" => fig12::run(&opts).map(|_| ()),
            "fig13" => fig13_14::run_fig13(&opts).map(|_| ()),
            "fig14" => fig13_14::run_fig14(&opts).map(|_| ()),
            "ablations" => ablations::run(&opts),
            "verify" => verify::run(&opts).and_then(|rows| {
                if rows
                    .iter()
                    .all(dcape_repro::experiments::verify::VerifyRow::pass)
                {
                    Ok(())
                } else {
                    Err(dcape_common::error::DcapeError::state(
                        "verification FAILED — see table above",
                    ))
                }
            }),
            _ => unreachable!(),
        };
        if let Err(e) = result {
            eprintln!("experiment {pick} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
