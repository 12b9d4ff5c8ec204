//! The contract between `BENCHMARK.json` and the program: the file is
//! what `dcape-bench manifest` prints, and a run of every workload
//! prints one JSON line with exactly the metrics the file lists. Runs
//! use `--quick` (a tenth of the virtual duration): this checks the
//! correctness gate and the shape of the output, not any number.

use std::process::Command;

use dcape_bench::json::Json;
use dcape_bench::workloads::Workload;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dcape-bench"))
        .args(args)
        .output()
        .expect("dcape-bench runs")
}

fn names(manifest: &Json, list: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = manifest.get(list) else {
        panic!("BENCHMARK.json has no {list}");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("unnamed entry in {list}"),
        })
        .collect()
}

fn committed_manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let out = bench(&["manifest"]);
    assert!(out.status.success());
    let generated = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        committed_manifest(),
        generated,
        "regenerate with `dcape-bench manifest`"
    );
    let workloads = names(&generated, "workloads");
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    assert!(names(&generated, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn every_workload_prints_the_contracted_line() {
    let manifest = committed_manifest();
    for workload in Workload::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "run",
                "--workload",
                workload.name(),
                "--seed",
                "77",
                "--seconds",
                "2",
                "--trace",
                trace,
                "--quick",
            ]);
            let what = format!("{} --trace {trace}", workload.name());
            assert!(
                out.status.success(),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            let line = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            // Results equal the reference count on a seed never used elsewhere.
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert!(line.num("attempted").unwrap() >= 1.0, "{what}");
            let metrics = line.get("metrics").unwrap();
            let printed: Vec<String> = metrics.members().iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(printed, names(&manifest, list), "{what}");
            for (name, m) in metrics.members() {
                assert!(
                    m.num("value").is_ok() && m.get("unit").is_some(),
                    "{what}: {name}"
                );
            }
            if trace == "0" {
                for (name, m) in metrics.members() {
                    assert!(
                        m.num("value").unwrap() > 0.0,
                        "{what}: {name} must never be 0"
                    );
                }
            }
        }
    }
}

#[test]
fn bad_usage_fails_without_a_result() {
    for args in [
        &[
            "run",
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "0",
        ][..],
        &[
            "run",
            "--workload",
            "spill_cleanup_sim",
            "--seed",
            "1",
            "--seconds",
            "2",
        ][..],
        &[
            "run",
            "--workload",
            "spill_cleanup_sim",
            "--seed",
            "x",
            "--seconds",
            "2",
            "--trace",
            "0",
        ][..],
        &["compare", "only-one.json"][..],
        &[][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
