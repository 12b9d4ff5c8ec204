//! # dcape-cluster
//!
//! The distributed half of the reproduction: the global coordinator, the
//! 8-step state-relocation protocol, the integrated adaptation
//! strategies (lazy-disk / active-disk, §5), and three runtimes that
//! execute a partitioned query over a set of engines. The protocol is
//! implemented once ([`runtime::driver`] on the coordinator side,
//! [`runtime::engine_core`] on the engine side; a relocation round's
//! two halves are one private struct each, in [`coordinator`] and in
//! `engine_core`); the runtimes differ in
//! how its messages travel:
//!
//! * [`runtime::sim`] — deterministic virtual-time runtime used by the
//!   experiment harness (hour-long paper runs in seconds): engines are
//!   stepped in place, transfers take modeled network time;
//! * [`runtime::threaded`] — one OS thread per query engine connected by
//!   channels, standing in for the paper's PC cluster;
//! * [`runtime::socket`] — one OS *process* per query engine, exchanging
//!   the same protocol as length-framed binary messages over TCP
//!   ([`wire`]), with crash-restart as real process kill + respawn.
//!
//! Supporting modules: [`placement`] (partition → engine map with the
//! split operator's pause/buffer behaviour), [`netmodel`] (virtual-time
//! transfer costs), [`stats`] (cluster-wide view of engine reports),
//! [`messages`] (the protocol vocabulary), [`strategy`] and
//! [`coordinator`] (the adaptation decisions and the coordinator's side
//! of each relocation round); [`testing`] is what the cluster suites
//! share.

#![deny(unsafe_code)]

pub mod coordinator;
pub mod faults;
pub mod messages;
pub mod netmodel;
pub mod placement;
pub mod runtime;
pub mod split;
pub mod stats;
pub mod strategy;
pub mod testing;
pub mod wire;

pub use coordinator::GlobalCoordinator;
pub use faults::{FaultConfig, FaultDecision, FaultEdge, FaultPlan};
pub use netmodel::NetworkModel;
pub use placement::{PlacementMap, PlacementSpec};
pub use runtime::sim::{SimConfig, SimDriver, SimReport};
pub use split::SplitOperator;
pub use stats::ClusterStats;
pub use strategy::StrategyConfig;
