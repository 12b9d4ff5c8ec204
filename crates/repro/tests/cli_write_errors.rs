//! `repro` fails a run whose results it could not write.
//!
//! A figure CSV or a journal that was never written must not pass for
//! one that was: the process exits non-zero and names the path. Both
//! runs below point a path through a regular file, which no directory
//! can be created under.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory of this test's own, holding one regular file.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dcape-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").unwrap();
    (dir, file)
}

/// Run `repro fig11 --fast` with `args`; its exit success and stderr.
fn repro_fig11(args: &[&Path]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig11", "--fast"])
        .args(args)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Quiet or not: `--quiet` silences the tables, not a failure.
#[test]
fn an_unwritable_csv_fails_the_run_and_names_its_path() {
    let (dir, file) = scratch("csv");
    let out = file.join("figs");
    let path = out.join("fig11_throughput.csv");
    for quiet in [&[][..], &[Path::new("--quiet")]] {
        let (ok, stderr) = repro_fig11(&[&[Path::new("--out"), &out][..], quiet].concat());
        assert!(!ok, "exit 0 without its CSV; stderr: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write {}", path.display())),
            "stderr must name {}: {stderr}",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unwritable_journal_fails_the_run_and_names_its_path() {
    let (dir, file) = scratch("journal");
    let journal = file.join("j.jsonl");
    let (ok, stderr) = repro_fig11(&[Path::new("--out"), &dir, Path::new("--journal"), &journal]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!ok, "exit 0 without its journal; stderr: {stderr}");
    assert!(
        stderr.contains(&format!("cannot write {}", file.display())),
        "stderr must name a journal under {}: {stderr}",
        file.display()
    );
}
