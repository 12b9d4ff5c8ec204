//! The benchmark's report: a JSON document, the tables printed from it,
//! and `compare`, which judges one report against another.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::WorkloadReport;
use crate::stats::Summary;
use crate::workloads::Options;

/// The report document. It ends with `"claim": null`: defining the
/// benchmark claims no gain.
pub fn to_json(opts: Options, reports: &[WorkloadReport]) -> Json {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workloads = reports.iter().map(|r| {
        let (attempted, failed) = r.attempted_failed();
        let end_to_end = r.end_to_end().into_iter().map(|(def, s)| {
            let mut o = vec![
                ("unit".to_string(), Json::from(def.unit)),
                ("better".to_string(), Json::from(def.better())),
                ("bound".to_string(), Json::from(def.bound)),
            ];
            o.extend(s.to_json().members().iter().cloned());
            (def.name.to_string(), Json::Obj(o))
        });
        let per_layer = r
            .per_layer_values()
            .into_iter()
            .filter(|(name, _, _)| PER_LAYER.iter().any(|l| l.0 == *name))
            .map(|(name, _, v)| (name.to_string(), Json::from(v)));
        let jobs = r.runs.iter().flat_map(|run| &run.samples);
        let body = Json::obj([
            (
                "reference",
                Json::from(r.runs.first().map_or(0, |run| run.reference)),
            ),
            (
                "tuples",
                Json::from(r.runs.first().map_or(0, |run| run.job.tuples())),
            ),
            ("runs", Json::from(r.runs.len() as u64)),
            ("jobs", Json::from(jobs.clone().count() as u64)),
            (
                "drifted",
                Json::from(jobs.filter(|s| s.drifted).count() as u64),
            ),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("correct", Json::from(r.correct())),
            ("end_to_end", Json::Obj(end_to_end.collect())),
            ("per_layer", Json::Obj(per_layer.collect())),
        ]);
        (r.workload.name().to_string(), body)
    });
    Json::obj([
        ("benchmark", Json::from("dcape-bench")),
        ("seed", Json::from(opts.seed)),
        ("quick", Json::from(opts.quick)),
        ("available_parallelism", Json::from(threads as u64)),
        ("workloads", Json::Obj(workloads.collect())),
        ("claim", Json::Null),
    ])
}

fn human(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<&str>| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            // First column (names) left-aligned, numbers right-aligned.
            let _ = if i == 0 {
                write!(out, "{cell:<w$}")
            } else {
                write!(out, "  {cell:>w$}")
            };
        }
        out.push('\n');
    };
    line(header.to_vec());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Every metric of a report by name with its unit: per workload the
/// end-to-end table, then the per-layer table, then the layers ranked
/// by absolute self time across all workloads (the perf backlog).
pub fn render(report: &Json) -> String {
    let mut out = String::new();
    let mut ranked: Vec<(f64, String, String)> = Vec::new();
    let workloads = report.get("workloads").map_or(&[][..], Json::members);
    for (name, w) in workloads {
        let num = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "\n== {name}: {} runs of {} jobs in all ({} drifted), {} tuples and {} results a job, {} ==",
            num("runs"),
            num("jobs"),
            num("drifted"),
            num("tuples"),
            num("reference"),
            if w.get("correct") == Some(&Json::Bool(true)) {
                "outputs correct"
            } else {
                "OUTPUTS WRONG"
            },
        );
        let rows: Vec<Vec<String>> = w
            .get("end_to_end")
            .map_or(&[][..], Json::members)
            .iter()
            .filter_map(|(metric, v)| {
                let s = Summary::from_json(v).ok()?;
                let text = |k: &str| match v.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                Some(vec![
                    metric.clone(),
                    text("unit"),
                    text("better"),
                    human(s.median),
                    human(s.min),
                    human(s.q1),
                    human(s.q3),
                    human(s.max),
                    s.n.to_string(),
                    format!("{:.1}%", s.spread() * 100.0),
                    format!("{:.0}%", v.num("bound").unwrap_or(0.0) * 100.0),
                ])
            })
            .collect();
        out.push_str(&table(
            &[
                "end-to-end metric",
                "unit",
                "better",
                "median",
                "min",
                "q1",
                "q3",
                "max",
                "n",
                "iqr/med",
                "bound",
            ],
            &rows,
        ));
        out.push('\n');
        let layers = w.get("per_layer").map_or(&[][..], Json::members);
        let rows: Vec<Vec<String>> = layers
            .iter()
            .map(|(metric, v)| {
                let unit = PER_LAYER.iter().find(|l| l.0 == metric).map_or("", |l| l.1);
                let v = v.as_f64().unwrap_or(0.0);
                if ["self_s", "total_s"].iter().any(|t| metric.ends_with(t))
                    || metric.starts_with("storage.")
                {
                    ranked.push((v, metric.clone(), name.clone()));
                }
                vec![metric.clone(), unit.to_string(), human(v)]
            })
            .collect();
        out.push_str(&table(&["per-layer metric", "unit", "value"], &rows));
    }
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let rows: Vec<Vec<String>> = ranked
        .into_iter()
        .filter(|r| r.0 >= 0.0005 && !r.1.contains("bytes") && !r.1.contains("ratio"))
        .map(|(v, metric, workload)| vec![metric, workload, format!("{v:.3}")])
        .collect();
    let _ = writeln!(out, "\n== layers ranked by seconds in one walked job ==");
    out.push_str(&table(&["layer", "workload", "s"], &rows));
    out
}

/// `compare A B`: one row per (workload, end-to-end metric) of A. The
/// ratio is B's median over A's — A is the base. `worse` means B's
/// median is past the bound in the bad direction; `unresolved` means
/// either side's inter-quartile spread is wider than the bound, so the
/// medians cannot tell. Returns the table and whether any row is worse.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut rows = Vec::new();
    let mut any_worse = false;
    for (workload, wa) in a.get("workloads").ok_or("A has no workloads")?.members() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("B lacks workload {workload}"))?;
        for (metric, va) in wa.get("end_to_end").map_or(&[][..], Json::members) {
            let def = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .ok_or_else(|| format!("unknown end-to-end metric {metric}"))?;
            let vb = wb
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("B lacks {workload}/{metric}"))?;
            let (sa, sb) = (Summary::from_json(va)?, Summary::from_json(vb)?);
            let worse_by = if def.higher_is_better {
                sa.median - sb.median
            } else {
                sb.median - sa.median
            };
            let verdict = if def.bound == 0.0 {
                // No relative bound: any failure at all is a regression.
                if sb.median > sa.median {
                    "worse"
                } else {
                    "ok"
                }
            } else if sa.spread() > def.bound || sb.spread() > def.bound {
                "unresolved"
            } else if worse_by > def.bound * sa.median.abs() {
                "worse"
            } else {
                "ok"
            };
            any_worse |= verdict == "worse";
            let ratio = if sa.median != 0.0 {
                format!("{:.4}", sb.median / sa.median)
            } else {
                "-".into()
            };
            rows.push(vec![
                format!("{workload}/{metric}"),
                def.better().to_string(),
                human(sa.median),
                format!("{}..{}", human(sa.q1), human(sa.q3)),
                human(sb.median),
                format!("{}..{}", human(sb.q1), human(sb.q3)),
                ratio,
                format!("{:.0}%", def.bound * 100.0),
                verdict.to_string(),
            ]);
        }
    }
    let text = table(
        &[
            "workload/metric",
            "better",
            "A median",
            "A q1..q3",
            "B median",
            "B q1..q3",
            "B/A (base A)",
            "bound",
            "verdict",
        ],
        &rows,
    );
    Ok((text, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(throughput: [f64; 3], failed: f64) -> Json {
        let summary = |v: &[f64]| Summary::of(v).unwrap().to_json();
        Json::obj([(
            "workloads",
            Json::obj([(
                "spill_cleanup_sim",
                Json::obj([(
                    "end_to_end",
                    Json::obj([
                        ("throughput_tuples_per_s", summary(&throughput)),
                        ("failed_share", summary(&[failed])),
                    ]),
                )]),
            )]),
        )])
    }

    fn verdicts(a: &Json, b: &Json) -> (Vec<String>, bool) {
        let (text, worse) = compare(a, b).unwrap();
        let v = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().last().unwrap().to_string())
            .collect();
        (v, worse)
    }

    #[test]
    fn compare_verdicts() {
        let base = report([100.0, 101.0, 102.0], 0.0);
        // Within the 25 % bound, either direction.
        assert_eq!(
            verdicts(&base, &report([90.0, 91.0, 92.0], 0.0)),
            (vec!["ok".into(), "ok".into()], false)
        );
        // Throughput is higher-is-better: 30 % lower is worse, 30 % higher is not.
        assert_eq!(
            verdicts(&base, &report([70.0, 71.0, 72.0], 0.0)),
            (vec!["worse".into(), "ok".into()], true)
        );
        assert!(!verdicts(&base, &report([130.0, 131.0, 132.0], 0.0)).1);
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            verdicts(&base, &report([50.0, 81.0, 140.0], 0.0)).0[0],
            "unresolved"
        );
        // Any failure where there was none is worse.
        assert_eq!(
            verdicts(&base, &report([100.0, 101.0, 102.0], 0.01)),
            (vec!["ok".into(), "worse".into()], true)
        );
        assert!(compare(&base, &Json::obj::<String>([])).is_err());
    }
}
