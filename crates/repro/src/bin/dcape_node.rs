//! `dcape-node` — a single query-engine worker process for the socket
//! runtime.
//!
//! ```text
//! dcape-node --connect HOST:PORT --engine-id N [--once]
//! ```
//!
//! Connects to the coordinator (a `repro --runtime socket` run, or any
//! caller of `dcape_cluster::runtime::socket::run_socket`), performs the
//! `Hello`/`Welcome` handshake, and then runs the engine loop until the
//! distributed cleanup completes. By default the worker then loops:
//! listen-mode harnesses execute one coordinator run per figure
//! configuration, and the worker serves each in turn, exiting cleanly
//! once the coordinator stops listening. With `--once` (what spawn
//! mode passes to its children) the worker serves exactly one run.
//! Exit codes: 0 after clean completion, 86 for a chaos-injected
//! crash-restart (the coordinator respawns the worker), 1 for
//! everything else.

#![deny(unsafe_code)]

use std::process::ExitCode;

use dcape_common::ids::EngineId;

const USAGE: &str = "usage: dcape-node --connect HOST:PORT --engine-id N [--once]";

fn main() -> ExitCode {
    let mut connect: Option<String> = None;
    let mut engine_id: Option<u16> = None;
    let mut once = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => {
                    eprintln!("--connect requires an address\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--engine-id" => match args.next().and_then(|s| s.parse().ok()) {
                Some(id) => engine_id = Some(id),
                None => {
                    eprintln!("--engine-id requires a small integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--once" => once = true,
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
    let (Some(addr), Some(id)) = (connect, engine_id) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let outcome = if once {
        dcape_cluster::runtime::socket::worker_main(&addr, EngineId(id))
    } else {
        dcape_cluster::runtime::socket::worker_serve(&addr, EngineId(id)).map(|_served| ())
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcape-node (engine {id}): {e}");
            ExitCode::FAILURE
        }
    }
}
