//! `dcape-bench`: the repository's one fixed benchmark.
//!
//! Four workloads, each run on the runtime it names, measured from the
//! outside (timers around the crates' public calls, nothing inside the
//! program), checked against a reference result count, and attributed
//! layer by layer through a single-threaded walk of the same job. See
//! `README.md` beside this crate for the workload and metric tables.

pub mod json;
pub mod metrics;
pub mod paced;
pub mod reference;
pub mod report;
pub mod run;
pub mod sample;
pub mod stats;
pub mod walk;
pub mod workloads;
