//! # dcape-metrics
//!
//! Experiment instrumentation: the adaptation-event journal (every
//! decision, and every engine's statistics sample, on every runtime),
//! the figure curves read off it, and plain-text/CSV reporting used by
//! the `repro` harness to regenerate the paper's figures and tables.

#![deny(unsafe_code)]

pub mod journal;
pub mod report;
pub mod series;

pub use journal::{
    merge_journals, AdaptEvent, CountersSnapshot, EngineStatsReport, Fault, FaultEdge,
    JournalCounters, JournalEntry, JournalHandle, SpillTrigger, Warning,
};
pub use report::{
    engine_curves, journal_to_jsonl, render_journal, render_series_table, write_journal_jsonl,
    write_run_jsonl, EngineCurves, Table,
};
pub use series::TimeSeries;
