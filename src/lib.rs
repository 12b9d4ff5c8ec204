//! # dcape — Distributed Continuous Adaptive Processing Engine
//!
//! A Rust reproduction of *"Optimizing State-Intensive Non-Blocking
//! Queries Using Run-time Adaptation"* (Liu, Jbantova, Rundensteiner —
//! ICDE 2007): partitioned parallel processing of state-intensive
//! non-blocking queries (m-way symmetric hash joins) with two integrated
//! run-time adaptations, **state spill** to disk and **state relocation**
//! across machines, coordinated by the **lazy-disk** and **active-disk**
//! strategies.
//!
//! This facade crate re-exports the workspace crates; see each for depth:
//!
//! * [`common`] — tuples, values, virtual time, memory accounting.
//! * [`streamgen`] — the paper's synthetic workload model (join
//!   multiplicative factor, tuple range, join rate, skew patterns).
//! * [`storage`] — spill segments, binary codec, spill store.
//! * [`engine`] — the m-way join and a group-by aggregate over its
//!   results, partition-group state, productivity metrics, spill policies
//!   and the cleanup phase; `QueryEngine`, which is also the local
//!   adaptation controller and keeps the engine's one memory account.
//! * [`cluster`] — the global coordinator, the 8-step relocation
//!   protocol, adaptation strategies, and three cluster runtimes over one
//!   protocol implementation: deterministic virtual time, threads, and
//!   worker processes over TCP.
//! * [`metrics`] — the adaptation journal (every engine's statistics
//!   samples included) and its counters, the figure curves read off it,
//!   report tables.
//!
//! ## Quickstart
//!
//! A three-way symmetric hash join with a deliberately tiny memory
//! budget: the engine spills the least productive partition groups and
//! the cleanup phase later delivers exactly the missed results:
//!
//! ```
//! use dcape::common::ids::{EngineId, PartitionId, StreamId};
//! use dcape::common::time::VirtualTime;
//! use dcape::common::{Tuple, Value};
//! use dcape::engine::config::EngineConfig;
//! use dcape::engine::engine::QueryEngine;
//! use dcape::engine::sink::CountingSink;
//!
//! let cfg = EngineConfig::three_way(1 << 20, 64 << 10); // 1 MiB budget
//! let mut engine = QueryEngine::in_memory(EngineId(0), cfg)?;
//! let mut results = CountingSink::new();
//!
//! for seq in 0..200u64 {
//!     for stream in 0..3u8 {
//!         let t = Tuple::new(
//!             StreamId(stream),
//!             seq,
//!             VirtualTime::from_millis(seq * 30),
//!             vec![Value::Int((seq % 16) as i64)], // join key
//!         );
//!         engine.process(PartitionId((seq % 16) as u32), t, &mut results)?;
//!         engine.tick(VirtualTime::from_millis(seq * 30))?; // ss_timer
//!     }
//! }
//!
//! let mut missed = CountingSink::new();
//! let report = engine.cleanup(&mut missed)?;
//! // Run-time + cleanup results together are the exact join.
//! assert!(results.count() > 0);
//! assert_eq!(report.missing_results, missed.count());
//! # Ok::<(), dcape::common::DcapeError>(())
//! ```
//!
//! See `examples/` for complete programs: `quickstart.rs` (spill +
//! cleanup), `financial_integration.rs` (the intro's Query 1),
//! `adaptive_cluster.rs` (lazy- vs active-disk on three engines),
//! `skewed_workload.rs` (live relocation on the threaded runtime) and
//! `windowed_stream.rs` (a sliding-window join).
//!
//! ## Simulated cluster in five lines
//!
//! ```
//! use dcape::cluster::runtime::sim::{SimConfig, SimDriver};
//! use dcape::cluster::strategy::StrategyConfig;
//! use dcape::common::time::{VirtualDuration, VirtualTime};
//! use dcape::engine::config::EngineConfig;
//! use dcape::streamgen::StreamSetSpec;
//!
//! let workload = StreamSetSpec::uniform(16, 1600, 1, VirtualDuration::from_millis(30));
//! let cfg = SimConfig::new(
//!     2,
//!     EngineConfig::three_way(8 << 20, 4 << 20),
//!     workload,
//!     StrategyConfig::lazy_default(),
//! );
//! let mut driver = SimDriver::new(cfg)?;
//! driver.run_until(VirtualTime::from_mins(2))?;
//! let report = driver.finish()?;
//! assert!(report.runtime_output > 0);
//! # Ok::<(), dcape::common::DcapeError>(())
//! ```

#![deny(unsafe_code)]

pub use dcape_cluster as cluster;
pub use dcape_common as common;
pub use dcape_engine as engine;
pub use dcape_metrics as metrics;
pub use dcape_storage as storage;
pub use dcape_streamgen as streamgen;

/// Workspace version, for examples to print.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
