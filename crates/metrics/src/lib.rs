//! # dcape-metrics
//!
//! Experiment instrumentation: named time series over virtual time, a
//! recorder shared by drivers, and plain-text/CSV reporting used by the
//! `repro` harness to regenerate the paper's figures and tables.

pub mod journal;
pub mod recorder;
pub mod report;
pub mod series;
pub mod summary;

pub use journal::{
    merge_journals, AdaptEvent, CountersSnapshot, EventJournal, JournalCounters, JournalEntry,
    JournalHandle, SpillTrigger,
};
pub use recorder::Recorder;
pub use report::{
    journal_to_jsonl, render_journal, render_series_table, write_journal_jsonl, write_run_jsonl,
    Table,
};
pub use series::TimeSeries;
pub use summary::Summary;
