//! Emits `BENCH_baseline.json`: throughput and memory for the reference
//! sharded pipeline run (1M-record generate → simulate → shard-framed
//! codec round-trip → characterize).
//!
//! ```sh
//! cargo run --release -p jcdn-bench --bin baseline                # 1M records
//! cargo run --release -p jcdn-bench --bin baseline -- --scale 0.1 # quick look
//! cargo run --release -p jcdn-bench --bin baseline -- --out BENCH_baseline.json
//! ```
//!
//! The committed artifact is a *baseline*, not a gate: absolute numbers
//! move with hardware, so CI does not diff it. It exists to make
//! regressions visible in review ("records/sec halved in this PR") and to
//! anchor the perf section of run manifests to a known-good shape.

use std::process::ExitCode;

use jcdn_cdnsim::SimConfig;
use jcdn_core::characterize::TokenCategoryProvider;
use jcdn_core::dataset::simulate_workload_parallel;
use jcdn_core::pipeline::CharacterizationReport;
use jcdn_obs::clock::Stopwatch;
use jcdn_obs::json::ObjectWriter;
use jcdn_obs::manifest::peak_rss_kb;
use jcdn_trace::ShardedTrace;
use jcdn_workload::{build_parallel, WorkloadConfig};

fn main() -> ExitCode {
    // 500k-event short preset at 2x ≈ 1M records after retries.
    let mut scale = 2.0f64;
    let mut seed = 2019u64;
    let mut shards = 8usize;
    let mut threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let mut out = String::from("BENCH_baseline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => scale = parse(&value("--scale"), "--scale"),
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--shards" => shards = parse(&value("--shards"), "--shards"),
            "--threads" => threads = parse(&value("--threads"), "--threads"),
            "--out" => out = value("--out"),
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let config = WorkloadConfig::short_term(seed).scaled(scale);
    eprintln!(
        "baseline: ~{} events, {} shards, {} threads",
        config.target_events, shards, threads
    );

    let generate = Stopwatch::start();
    let workload = build_parallel(&config, threads);
    let sim = SimConfig::default();
    let data = simulate_workload_parallel(workload, &sim, threads);
    let generate_us = generate.elapsed_us().max(1);
    let records = data.trace.len() as u64;

    // Partitioning (a sort of the already time-ordered trace, then one
    // copy into exact-size shards) is timed apart from the codec: earlier
    // baselines folded it into `codec_roundtrip_us`.
    let shard_clock = Stopwatch::start();
    let sharded = ShardedTrace::from_trace(data.trace, shards);
    let shard_us = shard_clock.elapsed_us().max(1);

    let codec = Stopwatch::start();
    let encoded = match jcdn_trace::codec::encode_sharded_parallel(&sharded, threads) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("encode failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let encoded_bytes = encoded.len() as u64;
    let decoded = match jcdn_trace::codec::decode_sharded_parallel(&encoded, threads) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("own encoding failed to decode: {e}");
            return ExitCode::FAILURE;
        }
    };
    let codec_us = codec.elapsed_us().max(1);

    let characterize = Stopwatch::start();
    let report = CharacterizationReport::compute_sharded(&decoded, &TokenCategoryProvider, threads);
    let characterize_us = characterize.elapsed_us().max(1);

    let per_sec = |us: u64| records.saturating_mul(1_000_000) / us;
    let mut body = String::new();
    let mut w = ObjectWriter::begin(&mut body);
    w.field_str("benchmark", "sharded-pipeline-baseline");
    w.field_str("preset", "short");
    w.field_raw("scale", &format!("{scale}"));
    w.field_u64("seed", seed);
    w.field_u64("shards", shards as u64);
    w.field_u64("threads", threads as u64);
    w.field_u64("records", records);
    w.field_u64("encoded_bytes", encoded_bytes);
    w.field_u64("generate_us", generate_us);
    w.field_u64("shard_us", shard_us);
    w.field_u64("codec_roundtrip_us", codec_us);
    w.field_u64("characterize_us", characterize_us);
    w.field_u64("generate_records_per_sec", per_sec(generate_us));
    w.field_u64("characterize_records_per_sec", per_sec(characterize_us));
    match peak_rss_kb() {
        Some(kb) => w.field_u64("peak_rss_kb", kb),
        None => w.field_raw("peak_rss_kb", "null"),
    }
    w.end();

    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("{out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {out}: {records} records, generate {}/s, characterize {}/s, \
         json:html ratio {}",
        per_sec(generate_us),
        per_sec(characterize_us),
        report
            .json_html_ratio()
            .map(|r| format!("{r:.2}x"))
            .unwrap_or_else(|| "n/a".into())
    );
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(raw: &str, what: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{what}: cannot parse {raw:?}");
        std::process::exit(2)
    })
}
