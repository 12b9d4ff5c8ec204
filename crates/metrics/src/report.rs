//! Plain-text tables, CSV output, and adaptation-journal exporters for
//! experiment reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{VirtualDuration, VirtualTime};

use crate::journal::{
    AdaptEvent, CountersSnapshot, EngineStatsReport, Fault, FaultEdge, JournalEntry, SpillTrigger,
    Warning,
};
use crate::series::TimeSeries;

/// A simple column-aligned text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let consider = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        };
        consider(&mut widths, &self.header);
        for r in &self.rows {
            consider(&mut widths, r);
        }
        let mut out = String::new();
        let render_row = |out: &mut String, row: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        render_row(&mut out, &sep);
        for r in &self.rows {
            render_row(&mut out, r);
        }
        out
    }

    /// Write as CSV to `path`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut s = String::new();
        let esc = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let line = |s: &mut String, row: &[String]| {
            let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
            s.push_str(&cells.join(","));
            s.push('\n');
        };
        line(&mut s, &self.header);
        for r in &self.rows {
            line(&mut s, r);
        }
        write_creating_dirs(path, s)
    }
}

fn write_creating_dirs(path: &Path, text: String) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}

/// Render named series side by side, in name order, resampled at
/// `step`: the first column is time in minutes, then one column per
/// series.
pub fn render_series_table(series: &BTreeMap<String, TimeSeries>, step: VirtualDuration) -> Table {
    let mut header = vec!["t(min)"];
    header.extend(series.keys().map(String::as_str));
    let mut table = Table::new(&header);
    let end = series
        .values()
        .filter_map(|s| s.last().map(|(t, _)| t))
        .max();
    let Some(end) = end else {
        return table;
    };
    let mut t = VirtualTime::ZERO;
    while t <= end {
        let mut row = vec![format!("{:.1}", t.as_mins_f64())];
        for s in series.values() {
            row.push(match s.value_at(t) {
                Some(v) => format!("{v:.0}"),
                None => "0".to_string(),
            });
        }
        table.row(row);
        t += step;
    }
    table
}

/// The curves a run's figures plot, read off its
/// [`AdaptEvent::EngineSample`] records.
#[derive(Debug, Default)]
pub struct EngineCurves {
    /// Results produced so far, summed over every engine that has
    /// reported (an engine that stopped reporting keeps its last count).
    pub output: TimeSeries,
    /// Accounted memory per engine, indexed by engine id.
    pub memory: Vec<TimeSeries>,
}

/// A run's curves from its journal. Both run through `end`: the output
/// curve ends at `runtime_output` (the run's own count, which includes
/// what was produced after the last collection) and every memory curve
/// holds its last collected value.
pub fn engine_curves(
    entries: &[JournalEntry],
    end: VirtualTime,
    runtime_output: u64,
) -> EngineCurves {
    let mut curves = EngineCurves::default();
    let mut totals: Vec<u64> = Vec::new();
    for e in entries {
        let AdaptEvent::EngineSample(r) = e.event else {
            continue;
        };
        let i = r.engine.index();
        if i >= totals.len() {
            totals.resize(i + 1, 0);
            curves.memory.resize_with(i + 1, TimeSeries::default);
        }
        totals[i] = r.total_output;
        curves.memory[i].push(e.at, r.memory_used as f64);
        // The samples of one collection share a timestamp; the last
        // point at an instant is its value.
        curves.output.push(e.at, totals.iter().sum::<u64>() as f64);
    }
    curves.output.push(end, runtime_output as f64);
    for memory in &mut curves.memory {
        if let Some((_, v)) = memory.last() {
            memory.push(end, v);
        }
    }
    curves
}

/// One value's JSON spelling. Every value is a number, a vocabulary
/// name, or an id array, so no string escaping is ever required.
trait Json {
    fn put_json(&self, out: &mut String);
}

/// Leaves spelled by one expression of `v`, the value.
macro_rules! json_leaf {
    ($( $($ty:ty),+ => |$v:ident| $show:expr; )+) => { $($(
        impl Json for $ty {
            fn put_json(&self, out: &mut String) {
                let $v = self;
                let _ = write!(out, "{}", $show);
            }
        }
    )+)+ };
}

json_leaf! {
    u8, u16, u32, u64, usize => |v| v;
    EngineId, PartitionId => |v| v.0;
    SpillTrigger, Warning, Fault, FaultEdge => |v| format_args!("\"{}\"", v.name());
}

impl<T: Json> Json for Vec<T> {
    fn put_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            item.put_json(out);
        }
        out.push(']');
    }
}

/// Every event's `kind` and JSON body, from one field list per variant:
/// the fields become `"key":value` pairs in the order listed. A field
/// is its own key, `field = "key"` renames it, and `field = _` leaves it
/// out. The pattern that binds the fields is exhaustive, so a field
/// missing from a list does not compile; a variant holding a record
/// names the record's type and lists its fields.
macro_rules! json_events {
    ($(
        $kind:literal = $variant:ident $(($record:ident))? { $( $field:ident $(= $key:tt)? ),+ }
    ),+ $(,)?) => {
        impl AdaptEvent {
            /// Stable snake_case tag used in exports and filtering.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( AdaptEvent::$variant { .. } => $kind, )+
                }
            }

            /// Append the event's fields, each as `,"key":value`.
            fn put_json_fields(&self, out: &mut String) {
                match self {
                    $( json_events!(@bind $variant $(($record))? { $($field),+ }) => {
                        $( json_events!(@put out, $field $(= $key)?); )+
                    } )+
                }
            }
        }
    };
    (@bind $variant:ident ($record:ident) { $($field:ident),+ }) => {
        AdaptEvent::$variant($record { $($field),+ })
    };
    (@bind $variant:ident { $($field:ident),+ }) => {
        AdaptEvent::$variant { $($field),+ }
    };
    (@put $out:ident, $field:ident = _) => {
        let _ = $field;
    };
    (@put $out:ident, $field:ident = $key:literal) => {
        json_field($out, $key, $field)
    };
    (@put $out:ident, $field:ident) => {
        json_field($out, stringify!($field), $field)
    };
}

fn json_field(out: &mut String, key: &str, value: &impl Json) {
    let _ = write!(out, ",\"{key}\":");
    value.put_json(out);
}

json_events! {
    "spill_decision" = SpillDecision {
        engine, trigger, groups, state_bytes, encoded_bytes, memory_used
    },
    "relocation_step" = RelocationStep {
        round, step, sender, receiver, parts, bytes, buffered_tuples
    },
    "cleanup_phase" = CleanupPhase {
        engine, group, missing_results, scanned_tuples, disk_bytes_read
    },
    "fault_injected" = FaultInjected { fault, edge, round, attempt },
    "protocol_warning" = ProtocolWarning { code, engine, round, detail },
    "engine_joined" = EngineJoined { engine, members },
    "engine_drained" = EngineDrained { engine, moves },
    "engine_sample" = EngineSample(EngineStatsReport) {
        engine, at = _, memory_used, num_groups = "groups", window_output, total_output
    },
}

/// One journal entry as a single-line JSON object: `at_ms`, `seq` and
/// `kind`, then the event's fields. The encoder is hand-rolled (the
/// workspace carries no JSON dependency).
pub fn journal_entry_to_json(entry: &JournalEntry) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"at_ms\":{},\"seq\":{},\"kind\":\"{}\"",
        entry.at.as_millis(),
        entry.seq,
        entry.event.kind()
    );
    entry.event.put_json_fields(&mut s);
    s.push('}');
    s
}

/// Serialize a journal as JSON-lines: one object per line, oldest first.
pub fn journal_to_jsonl(entries: &[JournalEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&journal_entry_to_json(e));
        out.push('\n');
    }
    out
}

/// Write a journal as JSON-lines to `path`, creating parent dirs.
pub fn write_journal_jsonl(path: &Path, entries: &[JournalEntry]) -> io::Result<()> {
    write_creating_dirs(path, journal_to_jsonl(entries))
}

/// A run's counters as a single-line JSON object: `"kind":"counters"`,
/// then one key per row of the counter table, in table order.
fn counters_to_json(counters: &CountersSnapshot) -> String {
    let mut s = String::from("{\"kind\":\"counters\"");
    for (name, value) in CountersSnapshot::NAMES.iter().zip(counters.values()) {
        let _ = write!(s, ",\"{name}\":{value}");
    }
    s.push('}');
    s
}

/// Write a whole run as JSON-lines to `path`, creating parent dirs: its
/// journal, then its counters as the last line.
pub fn write_run_jsonl(
    path: &Path,
    entries: &[JournalEntry],
    counters: &CountersSnapshot,
) -> io::Result<()> {
    let mut text = journal_to_jsonl(entries);
    text.push_str(&counters_to_json(counters));
    text.push('\n');
    write_creating_dirs(path, text)
}

/// Human-readable journal rendering, one event per line.
pub fn render_journal(entries: &[JournalEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        let _ = write!(
            out,
            "[{:>9.1}s #{:<5}] ",
            e.at.as_millis() as f64 / 1e3,
            e.seq
        );
        match &e.event {
            AdaptEvent::SpillDecision {
                engine,
                trigger,
                groups,
                state_bytes,
                memory_used,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "spill     {engine} pushed {} group(s) ({state_bytes} B) to disk \
                     [{}; mem {memory_used}]",
                    groups.len(),
                    trigger.name()
                );
            }
            AdaptEvent::RelocationStep {
                round,
                step,
                sender,
                receiver,
                parts,
                bytes,
                buffered_tuples,
            } => {
                let what = match step {
                    1 => "coordinator asks sender to pick partitions",
                    2 => "sender reports chosen partitions",
                    3 => "splits pause routing to moving partitions",
                    4 => "sender extracts and ships state",
                    5 => "receiver installs state",
                    6 => "receiver acks transfer",
                    7 => "splits remap and flush buffered tuples",
                    _ => "engines resume",
                };
                let _ = writeln!(
                    out,
                    "reloc r{round} step {step}/8 {sender}->{receiver}: {what} \
                     [parts={}, bytes={bytes}, buffered={buffered_tuples}]",
                    parts.len()
                );
            }
            AdaptEvent::CleanupPhase {
                engine,
                group,
                missing_results,
                scanned_tuples,
                disk_bytes_read,
            } => {
                let _ = writeln!(
                    out,
                    "cleanup   {engine} merged {group}: {missing_results} missing result(s) \
                     from {scanned_tuples} tuple(s), {disk_bytes_read} B read"
                );
            }
            AdaptEvent::FaultInjected {
                fault,
                edge,
                round,
                attempt,
            } => {
                let _ = writeln!(
                    out,
                    "fault     {} injected at {} [round={round}, attempt={attempt}]",
                    fault.name(),
                    edge.name()
                );
            }
            AdaptEvent::ProtocolWarning {
                code,
                engine,
                round,
                detail,
            } => {
                let _ = writeln!(
                    out,
                    "warning   {} from {engine} [round={round}, detail={detail}]",
                    code.name()
                );
            }
            AdaptEvent::EngineJoined { engine, members } => {
                let _ = writeln!(out, "join      {engine} admitted ({members} member(s))");
            }
            AdaptEvent::EngineDrained { engine, moves } => {
                let _ = writeln!(out, "drain     {engine} emptied after {moves} move(s)");
            }
            AdaptEvent::EngineSample(r) => {
                let _ = writeln!(
                    out,
                    "sample    {}: mem={} groups={} output={} (+{})",
                    r.engine, r.memory_used, r.num_groups, r.total_output, r.window_output
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EngineStatsReport;
    use dcape_common::time::VirtualTime;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("----"));
        assert!(lines[3].contains("long-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_and_writes() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "q\"z".into()]);
        let path = std::env::temp_dir().join(format!("dcape-csv-{}.csv", std::process::id()));
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"x,y\""));
        assert!(content.contains("\"q\"\"z\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn series_table_resamples_in_name_order() {
        let mut s1 = TimeSeries::default();
        s1.push(VirtualTime::from_mins(0), 10.0);
        s1.push(VirtualTime::from_mins(2), 20.0);
        let mut s2 = TimeSeries::default();
        s2.push(VirtualTime::from_mins(1), 5.0);
        let series = BTreeMap::from([("b".to_string(), s1), ("a".to_string(), s2)]);
        let t = render_series_table(&series, VirtualDuration::from_mins(1));
        let rendered = t.render();
        assert_eq!(t.len(), 3); // minutes 0, 1, 2
        let rows: Vec<Vec<&str>> = rendered
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows[0], ["t(min)", "a", "b"]);
        assert_eq!(rows[2], ["0.0", "0", "10"]);
        assert_eq!(rows[4], ["2.0", "5", "20"]);
    }

    #[test]
    fn empty_series_table() {
        let t = render_series_table(&BTreeMap::new(), VirtualDuration::from_mins(1));
        assert!(t.is_empty());
    }

    fn sample(at_s: u64, engine: u16, memory_used: u64, total_output: u64) -> JournalEntry {
        JournalEntry {
            at: VirtualTime::from_secs(at_s),
            seq: 0,
            event: AdaptEvent::EngineSample(EngineStatsReport {
                engine: dcape_common::ids::EngineId(engine),
                at: VirtualTime::from_secs(at_s),
                memory_used,
                num_groups: 4,
                window_output: 1,
                total_output,
            }),
        }
    }

    /// The output curve sums each collection's engines (an engine that
    /// stopped reporting keeps its last count) and ends at the run's
    /// own count; memory curves are per engine and hold their last
    /// value through the end.
    #[test]
    fn engine_curves_sum_output_and_split_memory() {
        let entries = vec![
            sample(30, 0, 100, 10),
            sample(30, 1, 200, 20),
            JournalEntry {
                at: VirtualTime::from_secs(31),
                seq: 0,
                event: AdaptEvent::EngineJoined {
                    engine: dcape_common::ids::EngineId(2),
                    members: 3,
                },
            },
            sample(60, 1, 250, 40),
            sample(60, 0, 150, 30),
            sample(90, 0, 120, 50),
        ];
        let end = VirtualTime::from_secs(120);
        let curves = engine_curves(&entries, end, 95);
        let at = |s: &TimeSeries, secs: u64| s.value_at(VirtualTime::from_secs(secs)).unwrap();
        let output: Vec<f64> = [30, 59, 60, 90, 119, 120]
            .map(|t| at(&curves.output, t))
            .to_vec();
        assert_eq!(output, [30.0, 30.0, 70.0, 90.0, 90.0, 95.0]);
        assert_eq!(curves.memory.len(), 2);
        let memory = |i: usize| [30, 60, 90, 120].map(|t| at(&curves.memory[i], t));
        assert_eq!(memory(0), [100.0, 150.0, 120.0, 120.0]);
        assert_eq!(memory(1), [200.0, 250.0, 250.0, 250.0]);
        assert_eq!(curves.memory[1].last(), Some((end, 250.0)));
        // No sample: a flat-zero output that still reaches the end.
        let none = engine_curves(&[], end, 7);
        assert_eq!(none.output.points(), [(end, 7.0)]);
        assert!(none.memory.is_empty());
    }

    #[test]
    fn journal_jsonl_is_one_object_per_line() {
        use crate::journal::{AdaptEvent, JournalHandle, SpillTrigger};
        use dcape_common::ids::{EngineId, PartitionId};
        let handle = JournalHandle::default();
        handle.record(
            VirtualTime::from_millis(5),
            AdaptEvent::SpillDecision {
                engine: EngineId(1),
                trigger: SpillTrigger::MemoryThreshold,
                groups: vec![PartitionId(3), PartitionId(7)],
                state_bytes: 1000,
                encoded_bytes: 800,
                memory_used: 900,
            },
        );
        handle.record(
            VirtualTime::from_millis(9),
            AdaptEvent::RelocationStep {
                round: 1,
                step: 4,
                sender: EngineId(0),
                receiver: EngineId(2),
                parts: vec![PartitionId(3)],
                bytes: 512,
                buffered_tuples: 0,
            },
        );
        let jsonl = journal_to_jsonl(&handle.snapshot());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[0].contains("\"kind\":\"spill_decision\""));
        assert!(lines[0].contains("\"groups\":[3,7]"));
        assert!(lines[0].contains("\"trigger\":\"memory_threshold\""));
        assert!(lines[1].contains("\"kind\":\"relocation_step\""));
        assert!(lines[1].contains("\"step\":4"));
    }

    #[test]
    fn journal_human_rendering_names_steps() {
        use crate::journal::{AdaptEvent, JournalEntry};
        use dcape_common::ids::EngineId;
        let entries: Vec<JournalEntry> = (1..=8)
            .map(|step| JournalEntry {
                at: VirtualTime::from_millis(step as u64),
                seq: step as u64,
                event: AdaptEvent::RelocationStep {
                    round: 2,
                    step,
                    sender: EngineId(0),
                    receiver: EngineId(1),
                    parts: vec![],
                    bytes: 0,
                    buffered_tuples: 0,
                },
            })
            .collect();
        let text = render_journal(&entries);
        assert_eq!(text.lines().count(), 8);
        assert!(text.contains("step 1/8"));
        assert!(text.contains("pause routing"));
        assert!(text.contains("engines resume"));
    }

    #[test]
    fn fault_and_warning_events_export_cleanly() {
        use crate::journal::{AdaptEvent, JournalEntry};
        use dcape_common::ids::EngineId;
        let entries = vec![
            JournalEntry {
                at: VirtualTime::from_millis(3),
                seq: 0,
                event: AdaptEvent::FaultInjected {
                    fault: Fault::Drop,
                    edge: FaultEdge::InstallStates,
                    round: 4,
                    attempt: 1,
                },
            },
            JournalEntry {
                at: VirtualTime::from_millis(7),
                seq: 1,
                event: AdaptEvent::ProtocolWarning {
                    code: Warning::StaleTransferAck,
                    engine: EngineId(2),
                    round: 3,
                    detail: 6,
                },
            },
        ];
        let jsonl = journal_to_jsonl(&entries);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"kind\":\"fault_injected\""));
        assert!(lines[0].contains("\"fault\":\"drop\""));
        assert!(lines[0].contains("\"edge\":\"install_states\""));
        assert!(lines[1].contains("\"kind\":\"protocol_warning\""));
        assert!(lines[1].contains("\"code\":\"stale_transfer_ack\""));
        let text = render_journal(&entries);
        assert!(text.contains("fault     drop injected at install_states"));
        assert!(text.contains("warning   stale_transfer_ack from QE2"));

        let engine_sample = [sample(45, 1, 300, 70)];
        assert_eq!(
            journal_to_jsonl(&engine_sample),
            "{\"at_ms\":45000,\"seq\":0,\"kind\":\"engine_sample\",\"engine\":1,\
             \"memory_used\":300,\"groups\":4,\"window_output\":1,\
             \"total_output\":70}\n"
        );
        assert!(render_journal(&engine_sample)
            .contains("sample    QE1: mem=300 groups=4 output=70 (+1)"));
    }

    /// One golden line per event kind: every key, in order, and every
    /// value's spelling. An engine sample's `num_groups` is `groups` and
    /// its `at` is left to the entry's `at_ms`.
    #[test]
    fn every_event_kind_has_its_golden_json_line() {
        use crate::journal::SpillTrigger;
        use dcape_common::ids::{EngineId, PartitionId};
        let events = [
            AdaptEvent::SpillDecision {
                engine: EngineId(1),
                trigger: SpillTrigger::Forced,
                groups: vec![PartitionId(3), PartitionId(70_000)],
                state_bytes: 1000,
                encoded_bytes: 800,
                memory_used: 900,
            },
            AdaptEvent::RelocationStep {
                round: 4,
                step: 1,
                sender: EngineId(0),
                receiver: EngineId(2),
                parts: vec![],
                bytes: 512,
                buffered_tuples: 0,
            },
            AdaptEvent::RelocationStep {
                round: 4,
                step: 7,
                sender: EngineId(0),
                receiver: EngineId(2),
                parts: vec![PartitionId(9)],
                bytes: 0,
                buffered_tuples: 33,
            },
            AdaptEvent::CleanupPhase {
                engine: EngineId(2),
                group: PartitionId(5),
                missing_results: 6,
                scanned_tuples: 60,
                disk_bytes_read: 600,
            },
            AdaptEvent::FaultInjected {
                fault: Fault::CorruptLength,
                edge: FaultEdge::TransferAck,
                round: 8,
                attempt: 2,
            },
            AdaptEvent::ProtocolWarning {
                code: Warning::PhaseTimeoutRetry,
                engine: EngineId(1),
                round: 8,
                detail: 1,
            },
            AdaptEvent::EngineJoined {
                engine: EngineId(4),
                members: 5,
            },
            AdaptEvent::EngineDrained {
                engine: EngineId(4),
                moves: 2,
            },
            AdaptEvent::EngineSample(EngineStatsReport {
                engine: EngineId(1),
                at: VirtualTime::from_secs(30),
                memory_used: 300,
                num_groups: 4,
                window_output: 1,
                total_output: 70,
            }),
        ];
        let entries: Vec<JournalEntry> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalEntry {
                at: VirtualTime::from_millis(1500 + i as u64),
                seq: 10 + i as u64,
                event,
            })
            .collect();
        let want = [
            "{\"at_ms\":1500,\"seq\":10,\"kind\":\"spill_decision\",\"engine\":1,\
             \"trigger\":\"forced\",\"groups\":[3,70000],\"state_bytes\":1000,\
             \"encoded_bytes\":800,\"memory_used\":900}",
            "{\"at_ms\":1501,\"seq\":11,\"kind\":\"relocation_step\",\"round\":4,\"step\":1,\
             \"sender\":0,\"receiver\":2,\"parts\":[],\"bytes\":512,\"buffered_tuples\":0}",
            "{\"at_ms\":1502,\"seq\":12,\"kind\":\"relocation_step\",\"round\":4,\"step\":7,\
             \"sender\":0,\"receiver\":2,\"parts\":[9],\"bytes\":0,\"buffered_tuples\":33}",
            "{\"at_ms\":1503,\"seq\":13,\"kind\":\"cleanup_phase\",\"engine\":2,\"group\":5,\
             \"missing_results\":6,\"scanned_tuples\":60,\"disk_bytes_read\":600}",
            "{\"at_ms\":1504,\"seq\":14,\"kind\":\"fault_injected\",\"fault\":\"corrupt_length\",\
             \"edge\":\"transfer_ack\",\"round\":8,\"attempt\":2}",
            "{\"at_ms\":1505,\"seq\":15,\"kind\":\"protocol_warning\",\
             \"code\":\"phase_timeout_retry\",\"engine\":1,\"round\":8,\"detail\":1}",
            "{\"at_ms\":1506,\"seq\":16,\"kind\":\"engine_joined\",\"engine\":4,\"members\":5}",
            "{\"at_ms\":1507,\"seq\":17,\"kind\":\"engine_drained\",\"engine\":4,\"moves\":2}",
            "{\"at_ms\":1508,\"seq\":18,\"kind\":\"engine_sample\",\"engine\":1,\
             \"memory_used\":300,\"groups\":4,\"window_output\":1,\
             \"total_output\":70}",
        ];
        for (entry, want) in entries.iter().zip(want) {
            assert_eq!(journal_entry_to_json(entry), want);
        }
        assert_eq!(
            journal_to_jsonl(&entries),
            want.map(|l| format!("{l}\n")).concat()
        );
    }

    #[test]
    fn journal_jsonl_writes_to_disk() {
        use crate::journal::{AdaptEvent, JournalHandle};
        use dcape_common::ids::EngineId;
        let handle = JournalHandle::default();
        handle.record(
            VirtualTime::ZERO,
            AdaptEvent::EngineDrained {
                engine: EngineId(0),
                moves: 5,
            },
        );
        let path =
            std::env::temp_dir().join(format!("dcape-journal-{}/events.jsonl", std::process::id()));
        write_journal_jsonl(&path, &handle.snapshot()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"kind\":\"engine_drained\""));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A run file ends with the counters: one key per row of the
    /// counter table, each holding its own value.
    #[test]
    fn run_jsonl_ends_with_one_counters_key_per_table_row() {
        let counters = CountersSnapshot {
            rebalance_moves: 3,
            spill_bytes_written: 41,
            ..CountersSnapshot::default()
        };
        let path = std::env::temp_dir().join(format!("dcape-run-{}/run.jsonl", std::process::id()));
        write_run_jsonl(&path, &[], &counters).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        let line = content.lines().last().unwrap();
        let body = line
            .strip_prefix("{\"kind\":\"counters\",")
            .and_then(|l| l.strip_suffix('}'))
            .expect("a counters object");
        let keys: Vec<&str> = body
            .split(',')
            .map(|kv| kv.split(':').next().unwrap().trim_matches('"'))
            .collect();
        assert_eq!(keys, CountersSnapshot::NAMES);
        assert!(line.contains("\"rebalance_moves\":3}"));
        assert!(line.contains("\"spill_bytes_written\":41,"));
        assert!(line.contains("\"tuples_routed\":0,"));
    }
}
