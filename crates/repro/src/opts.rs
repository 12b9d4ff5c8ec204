//! Harness run options.

use std::io;
use std::path::{Path, PathBuf};

use dcape_common::error::{DcapeError, Result};

/// Which driver executes an experiment's cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Deterministic virtual-time simulation (default; the only driver
    /// of every figure — the concurrent ones drive the fig5/fig6
    /// k-sweep, curves included).
    Sim,
    /// One OS thread per engine, real channel messages.
    Threaded,
    /// One OS process per engine, framed TCP messages
    /// (`dcape-node` workers; see `--listen` for multi-machine runs).
    Socket,
}

/// Options shared by all experiment runners.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Scale the run down (~6 virtual minutes instead of the paper's
    /// 40–60) — used by tests.
    pub fast: bool,
    /// Where CSV outputs land (`results/` by default).
    pub out_dir: PathBuf,
    /// Suppress stdout tables (tests).
    pub quiet: bool,
    /// Base path for adaptation-event journals (`--journal`). When set,
    /// the experiments that export one write their runs' journals as
    /// JSON lines, one file per run, named after this path.
    pub journal: Option<PathBuf>,
    /// Seed for the deterministic fault-injection layer
    /// (`--chaos-seed`). When set, every experiment run consults a
    /// seeded `FaultPlan` at each protocol message edge; the same seed
    /// reproduces the same fault schedule bit-for-bit.
    pub chaos_seed: Option<u64>,
    /// Per-edge fault rate for the chaos layer (`--fault-rate`,
    /// 0.0–1.0). Only meaningful with `--chaos-seed`.
    pub fault_rate: f64,
    /// Which driver runs the experiments (`--runtime`).
    pub runtime: RuntimeKind,
    /// With `--runtime socket`: listen on this address and wait for
    /// externally started `dcape-node` workers instead of spawning
    /// them on loopback (`--listen`).
    pub listen: Option<String>,
    /// Elastic scale events (`--scale-event add@T` / `--scale-event
    /// drain@T`, repeatable; `T` in virtual seconds). An `add` admits a
    /// fresh engine mid-run; a `drain` retires the highest-id active
    /// engine via relocation rounds. Applied to every cluster run the
    /// selected experiments execute.
    pub scale_events: Vec<dcape_cluster::runtime::sim::ScaleEvent>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            fast: false,
            out_dir: PathBuf::from("results"),
            quiet: false,
            journal: None,
            chaos_seed: None,
            fault_rate: 0.05,
            runtime: RuntimeKind::Sim,
            listen: None,
            scale_events: Vec::new(),
        }
    }
}

impl RunOpts {
    /// Parse one `--scale-event` value: `add@T` or `drain@T`, `T` in
    /// virtual seconds.
    pub fn parse_scale_event(s: &str) -> Option<dcape_cluster::runtime::sim::ScaleEvent> {
        use dcape_cluster::runtime::sim::ScaleEvent;
        use dcape_common::time::VirtualTime;
        let (kind, at) = s.split_once('@')?;
        let at = VirtualTime::from_secs(at.trim().parse().ok()?);
        match kind.trim() {
            "add" => Some(ScaleEvent::add(at)),
            "drain" => Some(ScaleEvent::drain(at)),
            _ => None,
        }
    }

    /// Attach the CLI's scale events to a cluster run config (no-op
    /// without `--scale-event`).
    pub fn with_scale_events(
        &self,
        cfg: dcape_cluster::runtime::sim::SimConfig,
    ) -> dcape_cluster::runtime::sim::SimConfig {
        if self.scale_events.is_empty() {
            cfg
        } else {
            cfg.with_scale_events(self.scale_events.clone())
        }
    }

    /// The socket-runtime provisioning mode the CLI flags describe:
    /// manual listen when `--listen` was given, loopback spawn
    /// otherwise.
    pub fn socket_mode(&self) -> dcape_cluster::runtime::socket::SocketMode {
        use dcape_cluster::runtime::socket::{default_node_bin, SocketMode};
        match &self.listen {
            Some(addr) => SocketMode::Listen { addr: addr.clone() },
            None => SocketMode::Spawn {
                node_bin: default_node_bin(),
            },
        }
    }

    /// The fault plan the CLI flags describe: disabled without
    /// `--chaos-seed`, a seeded uniform-rate plan with it.
    pub fn fault_plan(&self) -> dcape_cluster::faults::FaultPlan {
        use dcape_cluster::faults::{FaultConfig, FaultPlan};
        match self.chaos_seed {
            Some(seed) => FaultPlan::new(seed, FaultConfig::uniform(self.fault_rate)),
            None => FaultPlan::disabled(),
        }
    }

    /// Write one run's journal as JSON lines, ending with its counters
    /// (no-op without `--journal`); a failed write is an error naming
    /// the path. The file lands next to the
    /// `--journal` path with the run label folded into the name:
    /// `--journal out.jsonl` plus label `fig11/with-relocation` writes
    /// `out-fig11-with-relocation.jsonl`.
    pub fn write_journal(
        &self,
        label: &str,
        entries: &[dcape_metrics::JournalEntry],
        counters: &dcape_metrics::CountersSnapshot,
    ) -> Result<()> {
        let Some(base) = &self.journal else {
            return Ok(());
        };
        let stem = base
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("journal");
        let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
        let tag: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = base.with_file_name(format!("{stem}-{tag}.{ext}"));
        written(
            &path,
            dcape_metrics::write_run_jsonl(&path, entries, counters),
        )?;
        if !self.quiet {
            println!(
                "journal: wrote {} events to {}",
                entries.len(),
                path.display()
            );
        }
        Ok(())
    }

    /// Print a table unless quiet; always returns the rendered string.
    pub fn emit(&self, title: &str, table: &dcape_metrics::Table) -> String {
        let rendered = table.render();
        if !self.quiet {
            println!("\n== {title} ==\n{rendered}");
        }
        rendered
    }

    /// Write a CSV into the out dir; a failed write is an error naming
    /// the path.
    pub fn csv(&self, name: &str, table: &dcape_metrics::Table) -> Result<()> {
        let path = self.out_dir.join(name);
        written(&path, table.write_csv(&path))
    }
}

/// The outcome of writing a result file to `path`: a failed write ends
/// the run with an error that names the path, so a figure that was
/// never written cannot pass for one that was.
fn written(path: &Path, outcome: io::Result<()>) -> Result<()> {
    outcome.map_err(|e| {
        DcapeError::Io(io::Error::new(
            e.kind(),
            format!("cannot write {}: {e}", path.display()),
        ))
    })
}

#[cfg(test)]
pub(crate) mod testing {
    //! Run options for the experiments' tests.

    use std::ops::{Deref, DerefMut};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::RunOpts;

    /// Fast, quiet options whose CSVs land in a directory of their own
    /// under the temp directory. Dropping them removes that directory
    /// with what the test wrote into it — when the test ends, passed or
    /// failed, since a panic unwinds through the drop.
    pub(crate) struct FastQuiet {
        opts: RunOpts,
        dir: PathBuf,
    }

    impl RunOpts {
        /// Fast, quiet options for one test.
        pub(crate) fn fast_quiet() -> FastQuiet {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("dcape-repro-{}-{n}", std::process::id()));
            FastQuiet {
                opts: RunOpts {
                    fast: true,
                    quiet: true,
                    out_dir: dir.clone(),
                    ..RunOpts::default()
                },
                dir,
            }
        }
    }

    impl Deref for FastQuiet {
        type Target = RunOpts;

        fn deref(&self) -> &RunOpts {
            &self.opts
        }
    }

    impl DerefMut for FastQuiet {
        fn deref_mut(&mut self) -> &mut RunOpts {
            &mut self.opts
        }
    }

    impl Drop for FastQuiet {
        fn drop(&mut self) {
            // Absent when the test wrote nothing.
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_fast() {
        let d = RunOpts::default();
        assert!(!d.fast);
        assert_eq!(d.out_dir, PathBuf::from("results"));
        let f = RunOpts::fast_quiet();
        assert!(f.fast && f.quiet);
    }

    /// Each test writes into a directory of its own, and nothing of it
    /// is left once the test's options are dropped — also when the
    /// test panics.
    #[test]
    fn each_test_writes_into_its_own_directory_removed_at_its_end() {
        let mut t = dcape_metrics::Table::new(&["a"]);
        t.row(vec!["1".into()]);
        let (a, b) = (RunOpts::fast_quiet(), RunOpts::fast_quiet());
        assert_ne!(a.out_dir, b.out_dir);
        let dir = a.out_dir.clone();
        a.csv("x.csv", &t).unwrap();
        assert!(dir.join("x.csv").is_file());
        drop(a);
        assert!(!dir.exists(), "{} was left behind", dir.display());
        let dir = b.out_dir.clone();
        let failed = std::panic::catch_unwind(move || {
            b.csv("x.csv", &t).unwrap();
            panic!("the test fails");
        });
        assert!(failed.is_err());
        assert!(!dir.exists(), "{} was left behind", dir.display());
    }

    #[test]
    fn emit_respects_quiet() {
        let mut t = dcape_metrics::Table::new(&["a"]);
        t.row(vec!["1".into()]);
        let opts = RunOpts::fast_quiet();
        let s = opts.emit("test", &t);
        assert!(s.contains('1'));
    }
}
