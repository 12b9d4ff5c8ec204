//! Worker process for the `skew_window_socket` workload: one query
//! engine serving one coordinator run, spawned by `run_socket` as
//! `dcape-bench-node --connect ADDR --engine-id N --once`.

use dcape_common::ids::EngineId;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(addr), Some(id)) = (
        arg("--connect"),
        arg("--engine-id").and_then(|s| s.parse().ok()),
    ) else {
        eprintln!("usage: dcape-bench-node --connect HOST:PORT --engine-id N --once");
        return std::process::ExitCode::FAILURE;
    };
    match dcape_cluster::runtime::socket::worker_main(addr, EngineId(id)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcape-bench-node (engine {id}): {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
