//! # dcape-repro
//!
//! The experiment harness: one module per figure/table of the paper's
//! evaluation, each regenerating the corresponding result on the
//! simulated cluster (same engine/strategy code as the threaded
//! runtime, deterministic virtual time).
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`experiments::fig05_06`] | Figures 5 & 6 — spill fraction `k%` sweep: throughput and memory over time |
//! | [`experiments::fig07`] | Figure 7 — productivity-ranked spill policies; plus the §3.2 cleanup comparison (T-cleanup-1) |
//! | [`experiments::fig09_10`] | Figures 9 & 10 — relocation threshold θ_r sweep and memory balancing under alternating skew |
//! | [`experiments::fig11`] | Figure 11 — relocation vs spill under skewed placement |
//! | [`experiments::fig12`] | Figure 12 — lazy-disk vs no-relocation in a memory-constrained cluster; plus the §5.2 cleanup comparison (T-cleanup-2) |
//! | [`experiments::fig13_14`] | Figures 13 & 14 — lazy-disk vs active-disk under productivity gaps |
//! | [`experiments::ablations`] | Design-choice ablations called out in DESIGN.md |
//!
//! Run everything with `cargo run -p dcape-repro --release -- all`.

#![deny(unsafe_code)]

pub mod experiments;
pub mod opts;
pub mod scale;

pub use opts::{RunOpts, RuntimeKind};
