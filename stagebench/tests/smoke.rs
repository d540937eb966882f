//! Tiny-volume smoke test: every workload — the gated ones and
//! `long-tiered` — traced and untraced, passes its output checks and emits
//! every metric `BENCHMARK.json` names, with that metric's unit and a
//! numeric value (end-to-end ones above 0).
//!
//! ```sh
//! cargo test --release --offline --manifest-path stagebench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use jcdn_json::Value;

const WORKLOADS: [&str; 3] = ["short-pipeline", "short-analysis", "long-tiered"];

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    jcdn_json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one section of the spec.
fn named(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(workload: &str, traced: bool) -> Value {
    let dir = work_dir(&format!("{workload}-{traced}"));
    let out = Command::new(env!("CARGO_BIN_EXE_stagebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--volume",
            "0.02",
        ])
        .arg("--work-dir")
        .arg(&dir)
        .output()
        .expect("stagebench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    jcdn_json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_named_metric() {
    let spec = spec();
    let declared: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(
        declared.iter().all(|w| WORKLOADS.contains(&w.as_str())),
        "BENCHMARK.json names an unknown workload: {declared:?}"
    );
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let wanted = named(&spec, section);
        for workload in WORKLOADS {
            let result = run(workload, traced);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload}: {result:?}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            assert_eq!(
                metrics.len(),
                wanted.len(),
                "{workload} {section}: extra or missing metrics"
            );
            for (name, unit) in &wanted {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no metric {name}"));
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                // Off Linux, `/proc` readings are `null` beside a marker.
                if !cfg!(target_os = "linux") && section == "per_layer" {
                    continue;
                }
                let value = metric.get("value").expect("a value");
                let v = value
                    .as_f64()
                    .unwrap_or_else(|| panic!("{workload}: {name} is {value:?}"));
                if section == "end_to_end" {
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            }
        }
    }
}
