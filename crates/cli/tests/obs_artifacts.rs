//! End-to-end tests of the observability artifacts: `jcdn generate`'s
//! JSONL time-series stream and Prometheus snapshot, the determinism of
//! the series across shard/thread counts, and the `jcdn obs` inspection
//! verbs (show / diff / bench-diff) with their exit-code contract.

use std::path::PathBuf;
use std::process::{Command, Output};

fn jcdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jcdn"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jcdn-obs-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn generate_emits_valid_series_and_prometheus_snapshot() {
    let dir = tempdir("series");
    let trace = dir.join("t.jcdn");
    let series = dir.join("series.jsonl");
    let prom = dir.join("prom.txt");
    let chrome = dir.join("trace.json");

    let out = jcdn(&[
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "31",
        "--scale",
        "0.2",
        "--out",
        trace.to_str().unwrap(),
        "--window",
        "60s",
        "--obs-series",
        series.to_str().unwrap(),
        "--obs-prom",
        prom.to_str().unwrap(),
        "--obs-trace",
        chrome.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The JSONL stream: every line parses as one JSON object carrying the
    // stream tag, the window bounds, and a counters object; the workload
    // stream precedes the sim stream.
    let jsonl = read(&series);
    let mut streams_seen = Vec::new();
    for line in jsonl.lines() {
        let row = jcdn_json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let stream = row
            .get("stream")
            .and_then(jcdn_json::Value::as_str)
            .expect("stream tag")
            .to_string();
        let start = row.get("start_us").and_then(jcdn_json::Value::as_u64);
        let end = row.get("end_us").and_then(jcdn_json::Value::as_u64);
        assert!(start.is_some() && end > start, "window bounds in {line}");
        assert!(
            row.get("counters")
                .and_then(jcdn_json::Value::as_object)
                .is_some_and(|c| !c.is_empty()),
            "non-empty counters in {line}"
        );
        if streams_seen.last() != Some(&stream) {
            streams_seen.push(stream);
        }
    }
    assert_eq!(
        streams_seen,
        ["workload", "sim"],
        "fixed stream order in the file"
    );

    // The Prometheus snapshot: typed families, jcdn_-prefixed names, and
    // the windowed counter totals present as counters.
    let prom_text = read(&prom);
    assert!(
        prom_text.contains("# TYPE jcdn_sim_requests counter"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("jcdn_sim_requests{edge=\"0\"}"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("# TYPE jcdn_ts_windows_sim counter"),
        "{prom_text}"
    );
    for line in prom_text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("name value");
        assert!(value.parse::<u64>().is_ok(), "numeric sample: {line}");
    }

    // The chrome trace: a JSON object with traceEvents and the
    // spans_dropped footer.
    let trace_json = jcdn_json::parse(&read(&chrome)).expect("chrome trace parses");
    assert!(trace_json
        .get("traceEvents")
        .and_then(jcdn_json::Value::as_array)
        .is_some_and(|events| !events.is_empty()));
    assert!(trace_json.pointer("/otherData/spans_dropped").is_some());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn series_stream_is_identical_across_shard_and_thread_counts() {
    let dir = tempdir("invariance");
    let mut rendered = Vec::new();
    for (shards, threads) in [("1", "1"), ("8", "4")] {
        let trace = dir.join(format!("t{shards}x{threads}.jcdn"));
        let series = dir.join(format!("s{shards}x{threads}.jsonl"));
        let out = jcdn(&[
            "generate",
            "--preset",
            "tiny",
            "--seed",
            "31",
            "--scale",
            "0.2",
            "--shards",
            shards,
            "--threads",
            threads,
            "--out",
            trace.to_str().unwrap(),
            "--window",
            "60s",
            "--obs-series",
            series.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        rendered.push(read(&series));

        // The §4 stream from characterize, re-partitioned the same way.
        let s4 = dir.join(format!("s4-{shards}x{threads}.jsonl"));
        let out = jcdn(&[
            "characterize",
            trace.to_str().unwrap(),
            "--shards",
            shards,
            "--threads",
            threads,
            "--window",
            "60s",
            "--obs-series",
            s4.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        rendered.push(read(&s4));
    }
    assert_eq!(rendered[0], rendered[2], "generate series diverged");
    assert_eq!(rendered[1], rendered[3], "section4 series diverged");
    assert!(rendered[1].contains("\"stream\":\"section4\""));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_diff_exit_codes_follow_the_determinism_contract() {
    let dir = tempdir("diff");
    let mut manifests = Vec::new();
    for (tag, seed) in [("a", "31"), ("b", "31"), ("c", "32")] {
        let trace = dir.join(format!("{tag}.jcdn"));
        let manifest = dir.join(format!("{tag}.json"));
        let out = jcdn(&[
            "generate",
            "--preset",
            "tiny",
            "--seed",
            seed,
            "--scale",
            "0.2",
            "--out",
            trace.to_str().unwrap(),
            "--obs-out",
            manifest.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        manifests.push(manifest);
    }

    // Same seed ⇒ identical counters ⇒ exit 0, perf reported as deltas.
    let out = jcdn(&[
        "obs",
        "diff",
        manifests[0].to_str().unwrap(),
        manifests[1].to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("counters identical"), "{stdout}");
    assert!(stdout.contains("perf wall_us"), "{stdout}");

    // Different seed ⇒ counter divergence ⇒ exit 1 with the keys listed.
    let out = jcdn(&[
        "obs",
        "diff",
        manifests[0].to_str().unwrap(),
        manifests[2].to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DIVERGED"), "{stdout}");
    assert!(stdout.contains("counter sim."), "{stdout}");

    // show pretty-prints the manifest.
    let out = jcdn(&["obs", "show", manifests[0].to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("command:  generate"), "{stdout}");
    assert!(stdout.contains("deterministic"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_bench_diff_flags_direction_aware_regressions() {
    let dir = tempdir("bench");
    let base = dir.join("base.json");
    let slower = dir.join("slower.json");
    let faster = dir.join("faster.json");
    std::fs::write(
        &base,
        r#"{"benchmark":"x","seed":1,"characterize_us":100000,"characterize_records_per_sec":2000,"peak_rss_kb":1000}"#,
    )
    .expect("write");
    // Slower: timing up, rate down, RSS up — all three directions regress.
    std::fs::write(
        &slower,
        r#"{"benchmark":"x","seed":1,"characterize_us":150000,"characterize_records_per_sec":1500,"peak_rss_kb":1400}"#,
    )
    .expect("write");
    // Faster on every axis: improvements are never regressions.
    std::fs::write(
        &faster,
        r#"{"benchmark":"x","seed":1,"characterize_us":50000,"characterize_records_per_sec":4000,"peak_rss_kb":900}"#,
    )
    .expect("write");

    // Warn-only by default, even with regressions.
    let out = jcdn(&[
        "obs",
        "bench-diff",
        base.to_str().unwrap(),
        slower.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 metric(s) regressed"), "{stdout}");

    // --max-regress turns the same comparison into a gate.
    let out = jcdn(&[
        "obs",
        "bench-diff",
        base.to_str().unwrap(),
        slower.to_str().unwrap(),
        "--max-regress",
        "10",
    ]);
    assert_eq!(out.status.code(), Some(1));

    // Improvements pass even under a tight gate.
    let out = jcdn(&[
        "obs",
        "bench-diff",
        base.to_str().unwrap(),
        faster.to_str().unwrap(),
        "--max-regress",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no regressions"), "{stdout}");

    // Single-file mode prints the baseline and exits 0 (the warn-only CI
    // step with no fresh benchmark to compare).
    let out = jcdn(&["obs", "bench-diff", base.to_str().unwrap()]);
    assert!(out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn periodicity_manifest_records_its_work_counters_and_phases() {
    let dir = tempdir("periodicity");
    let trace = dir.join("t.jcdn");
    let manifest = dir.join("periodicity.json");
    let out = jcdn(&[
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "31",
        "--scale",
        "0.2",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Loose filters so a small trace still has flows to test.
    let out = jcdn(&[
        "periodicity",
        trace.to_str().unwrap(),
        "--min-clients",
        "3",
        "--min-requests",
        "5",
        "--permutations",
        "20",
        "--obs-out",
        manifest.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = jcdn_json::parse(&read(&manifest)).expect("manifest parses");
    let counter = |name: &str| {
        json.get("counters")
            .and_then(|c| c.get(name))
            .and_then(jcdn_json::Value::as_u64)
            .unwrap_or(0)
    };
    let flows = counter("period.flows_tested");
    let calls = counter("period.detect_calls");
    let permutations = counter("period.permutations");
    assert!(flows > 0, "period.flows_tested missing or zero");
    assert!(calls >= flows, "{calls} detector calls for {flows} flows");
    assert!(permutations > 0, "period.permutations missing or zero");
    assert!(permutations <= calls * 20, "{permutations} permutations");

    let phases = json.pointer("/perf/phases").expect("perf phases");
    for phase in ["periodicity.flows", "periodicity.detect"] {
        assert!(phases.get(phase).is_some(), "phase {phase} missing");
    }

    std::fs::remove_dir_all(&dir).ok();
}
