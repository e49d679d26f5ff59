//! Smoke runs of the whole benchmark: every declared metric must be
//! printed with its unit, on every workload, in both modes, and
//! `BENCHMARK.json` must declare exactly the metrics the code reports.
//!
//! The runs build the release binaries into this test's own scratch
//! target directory and take a few minutes on two CPUs.

use perfbench::report::{self, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of the metrics listed under `key` in BENCHMARK.json,
/// one object per line.
fn benchmark_json(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let section = text
        .split(&format!("\"{key}\": ["))
        .nth(1)
        .expect("section present")
        .split(']')
        .next()
        .unwrap();
    let field = |line: &str, f: &str| -> Option<String> {
        let rest = line.split(&format!("\"{f}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_string())
    };
    section
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(benchmark_json("end_to_end"), e2e);
    let layers: Vec<(String, String)> = report::per_layer()
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(benchmark_json("per_layer"), layers);
}

/// The named figures of each workload, printed as
/// `name = value unit` lines.
const NAMED: [(&str, &[(&str, &str)]); 3] = [
    (
        "profile",
        &[
            ("profile_seq_s", "s"),
            ("profile_par_s", "s"),
            ("failed_frac", "ratio"),
        ],
    ),
    (
        "ingest",
        &[
            ("ingest_ack_p50_us", "us"),
            ("ingest_ack_p99_us", "us"),
            ("stream_p50_us", "us"),
            ("ingest_ops_per_s", "1/s"),
            ("reopen_s", "s"),
            ("daemon_rss_mb", "MB"),
            ("failed_frac", "ratio"),
        ],
    ),
    (
        "query",
        &[
            ("query_p50_us", "us"),
            ("query_p99_us", "us"),
            ("warm_aggregate_p50_us", "us"),
            ("query_ops_per_s", "1/s"),
            ("daemon_rss_mb", "MB"),
            ("failed_frac", "ratio"),
        ],
    ),
];

fn run(workload: &str, trace: u8) -> String {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-target");
    let out = Command::new("python3")
        .args([
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("python3 runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [0u8, 1] {
            let stdout = run(workload, trace);
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, "),
                "{workload}: {result}"
            );
            assert!(result.contains("\"failed\": 0, "), "{workload}: {result}");
            for (name, unit) in report::declared(trace == 1) {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&field)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                let tail = &result[at + field.len()..];
                let number = tail.split(',').next().unwrap();
                assert!(
                    number.parse::<f64>().is_ok(),
                    "{workload}: {name} = {number}"
                );
                assert!(
                    tail.starts_with(&format!("{number}, \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} unit"
                );
            }
            if trace == 0 {
                let named = NAMED.iter().find(|(w, _)| *w == workload).unwrap().1;
                for (name, unit) in named {
                    let line = stdout
                        .lines()
                        .find(|l| l.starts_with(&format!("{name} = ")))
                        .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                    let value = line.split_whitespace().nth(2).unwrap();
                    assert!(value.parse::<f64>().is_ok(), "{line}");
                    assert_eq!(line.split_whitespace().nth(3), Some(*unit), "{line}");
                }
            }
        }
    }
}
