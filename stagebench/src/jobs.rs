//! The three workloads and the job each one times.
//!
//! Every workload runs the same chain of layer calls — generate (workload
//! build, simulate, partition, encode), durable store write, read and
//! decode, §4 characterization, §5.1 periodicity, §5.2 prediction — on an
//! input chosen to load different layers:
//!
//! * `short-pipeline`: ~1M records over 600 s. Record volume: generation,
//!   the per-edge simulator, partition, the codec and §4 carry the job.
//!   The §5 studies read only the first [`PIPELINE_ANALYSIS_SHARDS`] time
//!   shards, so they stay a small, steady share of the job.
//! * `short-analysis`: ~250k records over 600 s, generated, cut to
//!   [`ANALYSIS_FLOW_BUDGET`] significant flows and written in set-up;
//!   the job starts at the file. Many short flows make many small FFTs,
//!   and many client sequences feed the n-gram model.
//! * `long-tiered`: ~40k records over 24 h through a three-tier shared
//!   cache hierarchy. The simulator runs 86,400 lockstep epochs over few
//!   records, and the detector runs 2^15-bin FFTs over a few long flows.
//!
//! Untraced, periodicity and prediction are single calls to
//! `core::periodicity::run_study` and `core::prediction::run_study`. A
//! traced job cannot see inside those calls, so it makes the same calls
//! the studies make — flow extraction, one `detect_period` per flow,
//! sequence extraction, n-gram training and scoring — each under its own
//! span. Its reports are built from those calls and must digest equal to
//! the untraced study's, which proves the traced job did the same work.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hasher;
use std::path::{Path, PathBuf};

use jcdn_cdnsim::{CacheHierarchy, Placement, PolicyKind, SimConfig, SimDuration, TierSpec};
use jcdn_core::characterize::TokenCategoryProvider;
use jcdn_core::dataset::{simulate_workload_parallel, Dataset};
use jcdn_core::periodicity::{PeriodicFlow, PeriodicityReport, PeriodicityStudyConfig};
use jcdn_core::pipeline::CharacterizationReport;
use jcdn_core::prediction::{AccuracyCell, PredictionReport, PredictionStudyConfig};
use jcdn_ngram::eval::{evaluate_sequence, split_client, EvalResult, Split};
use jcdn_ngram::{NgramModel, Vocab};
use jcdn_signal::periodicity::{detect_period, DetectedPeriod, PeriodicityConfig};
use jcdn_trace::flows::{client_sequences, FlowSet};
use jcdn_trace::{codec, store, MimeType, ShardedTrace, Trace};
use jcdn_workload::{build_parallel, WorkloadConfig};

use crate::digest::{self, Digest};
use crate::recorder::Recorder;

/// The stages `generate_s` covers, as in `jcdn generate`.
pub const GENERATE_STAGES: [&str; 4] = [
    "workload.build",
    "cdnsim.simulate",
    "trace.partition",
    "trace.encode",
];

/// Time shards per trace.
pub const SHARDS: usize = 8;

/// Time shards (of [`SHARDS`], 75 s each) the §5 studies read on
/// `short-pipeline`.
pub const PIPELINE_ANALYSIS_SHARDS: usize = 2;

/// Share of a workload's volume the set-up warm-up pass runs on.
pub const WARMUP_VOLUME: f64 = 0.25;

/// The share of recoverable planted periodic objects the study must find.
/// `tests/periodicity_recovery.rs` requires that at least 75% of detected
/// periods sit on planted ones; the same bar applies here.
pub const MIN_RECOVERED_SHARE: f64 = 0.75;

/// A run holds a few dozen recoverable objects, too few for the bar to
/// apply to the observed share itself: a detector that finds 80% of them
/// still lands below 75% now and then. The check fails when a share this
/// low would occur with less than this probability if the study found
/// [`MIN_RECOVERED_SHARE`] of all objects — when the run is evidence that
/// recall is below the bar.
pub const RECOVERY_SIGNIFICANCE: f64 = 0.01;

/// Recall is checked only over at least this many recoverable planted
/// objects; fewer (warm-up inputs, a 150 s slice) say nothing about it.
pub const MIN_RECOVERABLE: usize = 5;

/// The n-gram model must beat the popularity baseline only over at least
/// this many held-out transitions; a warm-up input's few hundred can tie.
pub const MIN_TEST_TRANSITIONS: u64 = 5_000;

/// `short-analysis`: the significant flows one full-size input keeps —
/// object flows that pass the study's filters, each counted with its
/// client flows, about one `detect_period` call apiece. Untrimmed, a
/// seed passes 40 to 60 objects with 560 to 750 such flows, and the
/// §5.1 time follows that count; the budget fixes the problem size so the
/// seed chooses which flows are analysed, not how many. Inputs are
/// generated with room to spare, so nearly every one fills it.
pub const ANALYSIS_FLOW_BUDGET: usize = 480;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ShortPipeline,
    ShortAnalysis,
    LongTiered,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ShortPipeline,
        Workload::ShortAnalysis,
        Workload::LongTiered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortPipeline => "short-pipeline",
            Workload::ShortAnalysis => "short-analysis",
            Workload::LongTiered => "long-tiered",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent inputs a run rotates through: pass `k` reads input
    /// `k % inputs`. A generator seed sets how much §5.1 work an input
    /// holds — how many object flows pass the significance filters, a few
    /// dozen on `short-analysis`, and which of them turn out periodic — so
    /// one input's periodicity time varies by ±15% between seeds. A run
    /// that reads a fresh input in each pass and averages the middle half
    /// of its passes varies far less with `--seed`.
    pub fn inputs(self) -> usize {
        match self {
            Workload::ShortPipeline | Workload::ShortAnalysis => 8,
            Workload::LongTiered => 1,
        }
    }

    /// The generator seed of input `i` of a run with seed `seed`: runs
    /// with different seeds share no input.
    pub fn input_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(1000).wrapping_add(i as u64)
    }

    /// Volume scale of the preset at full size.
    pub fn scale(self) -> f64 {
        match self {
            Workload::ShortPipeline => 2.0,
            Workload::ShortAnalysis => 0.5,
            Workload::LongTiered => 0.1,
        }
    }

    /// The workload configuration at `volume` (1 = full size). Below full
    /// size `long-tiered` also shortens its day, since its simulator cost
    /// follows the epoch count rather than the record count.
    pub fn config(self, seed: u64, volume: f64) -> WorkloadConfig {
        let base = match self {
            Workload::ShortPipeline | Workload::ShortAnalysis => WorkloadConfig::short_term(seed),
            Workload::LongTiered => WorkloadConfig::long_term(seed),
        };
        let mut config = base.scaled(self.scale() * volume);
        if self == Workload::LongTiered && volume < 1.0 {
            let secs = (config.duration.as_secs_f64() * volume).round() as u64;
            config.duration = SimDuration::from_secs(secs.max(600));
        }
        config
    }

    pub fn sim(self) -> SimConfig {
        let hierarchy = (self == Workload::LongTiered).then(|| CacheHierarchy {
            edge: TierSpec::lru("edge", 64 << 20),
            shared: vec![
                TierSpec::lru("regional", 256 << 20).with_policy(PolicyKind::TinyLfu),
                TierSpec::lru("shield", 1 << 30).with_policy(PolicyKind::S3Fifo),
            ],
            placement: Placement::CopyEverywhere,
            sync_interval: SimDuration::from_secs(1),
        });
        SimConfig {
            hierarchy,
            ..SimConfig::default()
        }
    }

    /// The significant flows an input at `volume` is cut to, if any (see
    /// [`ANALYSIS_FLOW_BUDGET`]).
    fn flow_budget(self, volume: f64) -> Option<usize> {
        (self == Workload::ShortAnalysis)
            .then(|| (ANALYSIS_FLOW_BUDGET as f64 * volume).round() as usize)
    }

    /// Whether the job starts from a trace file written during set-up.
    fn prebuilt(self) -> bool {
        self == Workload::ShortAnalysis
    }

    fn analysis_shards(self) -> Option<usize> {
        (self == Workload::ShortPipeline).then_some(PIPELINE_ANALYSIS_SHARDS)
    }
}

/// A job's input, made in set-up.
pub struct Input {
    pub workload: Workload,
    pub config: WorkloadConfig,
    pub sim: SimConfig,
    pub trace_path: PathBuf,
    /// `short-analysis` only: what set-up's generation produced.
    pub prebuilt: Option<Generated>,
    /// The significant flows generation cuts the trace to, if any.
    pub flow_budget: Option<usize>,
}

/// What a generation pass reports besides the trace itself.
#[derive(Clone, Debug, Default)]
pub struct Generated {
    pub generate_s: f64,
    pub records: usize,
    pub truth: Truth,
}

/// The planted periodic objects a study should recover.
#[derive(Clone, Debug, Default)]
pub struct Truth {
    /// (URL, planted period in seconds, planted periodic clients).
    pub periodic: Vec<(String, f64, usize)>,
}

impl Truth {
    fn of(data: &Dataset) -> Truth {
        let w = &data.workload;
        let mut clients: BTreeMap<u32, usize> = BTreeMap::new();
        for &(_, object) in w.truth.periodic_pairs.keys() {
            *clients.entry(object).or_default() += 1;
        }
        let mut periodic: Vec<(String, f64, usize)> = w
            .truth
            .periodic_objects
            .iter()
            .map(|(&object, period)| {
                (
                    w.objects[object as usize].url.clone(),
                    period.as_secs_f64(),
                    clients.get(&object).copied().unwrap_or(0),
                )
            })
            .collect();
        periodic.sort_by(|a, b| a.0.cmp(&b.0));
        Truth { periodic }
    }
}

/// The numbers and verdicts of one job.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The index of the input the job read.
    pub input: usize,
    pub wall_s: f64,
    /// Generation time: in the job, or (for `short-analysis`) in set-up.
    pub generate_s: f64,
    pub periodicity_s: f64,
    pub predict_s: f64,
    pub records: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub digests: BTreeMap<&'static str, u64>,
    /// Deterministic work counts of the layers (ratios are formed from
    /// them per pass).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The recall check over the inputs this outcome sums: planted
    /// periodic objects found over recoverable ones, once there are enough
    /// of them to mean anything, judged as [`RECOVERY_SIGNIFICANCE`] says.
    pub fn check_recovery(&mut self) {
        let found = self
            .counts
            .get("core.periodic_found")
            .copied()
            .unwrap_or(0.0);
        let recoverable = self
            .counts
            .get("core.periodic_recoverable")
            .copied()
            .unwrap_or(0.0);
        if recoverable >= MIN_RECOVERABLE as f64 {
            self.check(
                "core.periodic_recovered_share",
                binomial_cdf(found as u64, recoverable as u64, MIN_RECOVERED_SHARE)
                    >= RECOVERY_SIGNIFICANCE,
                || {
                    format!(
                        "found {found} of {recoverable} recoverable planted periodic objects, \
                         below {MIN_RECOVERED_SHARE} at significance {RECOVERY_SIGNIFICANCE}"
                    )
                },
            );
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    fn op<T, E: std::fmt::Display>(&mut self, name: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{name}: {e}"));
                None
            }
        }
    }
}

/// P(X <= k) for X ~ Binomial(n, p).
fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    // The probability mass at i, stepped from i = 0 by the ratio of
    // successive terms.
    let mut mass = (1.0 - p).powi(n as i32);
    let mut total = 0.0;
    for i in 0..=k.min(n) {
        total += mass;
        mass *= (n - i) as f64 / (i + 1) as f64 * p / (1.0 - p);
    }
    total.min(1.0)
}

/// Prepares a job's input at `volume`: configurations, and for
/// `short-analysis` the generated trace file. The outcome carries the
/// generation's operations and layer counts.
pub fn prepare(
    workload: Workload,
    seed: u64,
    volume: f64,
    threads: usize,
    dir: &Path,
    rec: &mut Recorder,
) -> (Input, Outcome) {
    let mut input = Input {
        workload,
        config: workload.config(seed, volume),
        sim: workload.sim(),
        trace_path: dir.join(format!("{}-{seed}-{volume}.jcdn", workload.name())),
        prebuilt: None,
        flow_budget: workload.flow_budget(volume),
    };
    let mut out = Outcome::default();
    if workload.prebuilt() {
        if let Some((_, generated)) = generate(&input, threads, rec, &mut out) {
            out.generate_s = generated.generate_s;
            out.records = generated.records;
            input.prebuilt = Some(generated);
        }
    }
    (input, out)
}

/// Builds, simulates, partitions and encodes (the `generate_s` stages),
/// then writes the trace durably to the input's path.
fn generate(
    input: &Input,
    threads: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<(ShardedTrace, Generated)> {
    // The recorder may already hold earlier inputs' stage times.
    let generate_total = |rec: &Recorder| GENERATE_STAGES.iter().map(|s| rec.wall(s)).sum::<f64>();
    let before = generate_total(rec);
    let workload = rec.stage("workload.build", |_| build_parallel(&input.config, threads));
    out.counts
        .insert("workload.events", workload.events.len() as f64);
    let data = rec.stage("cdnsim.simulate", |_| {
        simulate_workload_parallel(workload, &input.sim, threads)
    });
    let s = &data.stats;
    for (name, value) in [
        ("cdnsim.hits", s.hits),
        ("cdnsim.lookups", s.hits + s.misses),
        ("cdnsim.retries", s.retries_issued),
        ("cdnsim.requests", s.requests),
        ("cdnsim.failed", s.end_user_failures),
    ] {
        out.counts.insert(name, value as f64);
    }
    let mut truth = Truth::of(&data);
    let mut trace = data.trace;
    if let Some(budget) = input.flow_budget {
        let trim = rec.open("bench.trim");
        let dropped = trim_to_flow_budget(&mut trace, budget);
        truth.periodic.retain(|(url, ..)| !dropped.contains(url));
        drop(trim);
    }
    let records = trace.len();
    let sharded = rec.stage("trace.partition", |_| {
        ShardedTrace::from_trace(trace, SHARDS)
    });
    // Encoding is part of generation; the encoded bytes are checked by
    // the round trip after the store write.
    let encoded = rec.stage("trace.encode", |_| {
        codec::encode_sharded_parallel(&sharded, threads)
    });
    let encoded = out.op("trace.encode", encoded)?;
    out.counts
        .insert("trace.encoded_bytes", encoded.len() as f64);
    let generated = Generated {
        generate_s: generate_total(rec) - before,
        records,
        truth,
    };
    let path = input.trace_path.clone();
    let written = rec.stage("trace.store_write", |_| {
        store::durable_write(
            &path,
            encoded.to_vec(),
            "stagebench.trace",
            jcdn_chaos::handle(),
        )
    });
    out.op("trace.store_write", written)?;
    Some((sharded, generated))
}

/// Cuts `trace` to `budget` significant flows: object flows that pass the
/// study's filters are kept in URL order while they and their client
/// flows number at most `budget`, and every record of each later one is
/// dropped. Other objects' flows do not change. Returns the dropped
/// objects' URLs.
fn trim_to_flow_budget(trace: &mut Trace, budget: usize) -> HashSet<String> {
    let config = periodicity_config(1);
    let flows = FlowSet::build(trace, |r| r.mime == MimeType::Json)
        .apply_significance_filters(config.min_requests, config.min_clients);
    let mut kept = 0;
    let mut dropped = HashSet::new();
    for flow in &flows.flows {
        let size = 1 + flow.client_count();
        if dropped.is_empty() && kept + size <= budget {
            kept += size;
        } else {
            dropped.insert(flow.url);
        }
    }
    trace.retain(|r| !dropped.contains(&r.url));
    dropped.iter().map(|&u| trace.url(u).to_string()).collect()
}

fn periodicity_config(threads: usize) -> PeriodicityStudyConfig {
    // The `jcdn periodicity` defaults: x = 100 permutations, 2^15 bins,
    // the paper's >= 10 requests / >= 10 clients filters.
    PeriodicityStudyConfig {
        detector: PeriodicityConfig {
            permutations: 100,
            max_bins: 1 << 15,
            parallel: threads > 1,
            ..PeriodicityConfig::default()
        },
        min_requests: 10,
        min_clients: 10,
        ..PeriodicityStudyConfig::default()
    }
}

/// Runs one job over `input` at `threads`, timing each layer call.
pub fn run(input: &Input, threads: usize, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let studies_before = (rec.wall("core.periodicity"), rec.wall("core.predict"));
    let job = rec.open("job");
    let clock = jcdn_obs::clock::Stopwatch::start();
    let finished = job_body(input, threads, rec, &mut out);
    out.wall_s = clock.elapsed_us() as f64 / 1e6;
    drop(job);
    rec.drain();
    if finished.is_none() && out.failures.is_empty() {
        out.failures
            .push("job stopped without a reported error".into());
    }
    out.periodicity_s = rec.wall("core.periodicity") - studies_before.0;
    out.predict_s = rec.wall("core.predict") - studies_before.1;
    out
}

fn job_body(input: &Input, threads: usize, rec: &mut Recorder, out: &mut Outcome) -> Option<()> {
    let (original, generated) = match &input.prebuilt {
        Some(generated) => (None, generated.clone()),
        None => {
            let (sharded, generated) = generate(input, threads, rec, out)?;
            (Some(sharded), generated)
        }
    };
    out.generate_s = generated.generate_s;
    out.records = generated.records;

    let path = input.trace_path.clone();
    let decoded = rec.stage("trace.decode", |_| {
        let buf = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        codec::decode_sharded_parallel(&buf, threads).map_err(|e| e.to_string())
    });
    let decoded = out.op("trace.decode", decoded)?;

    let check = rec.open("bench.check");
    let trace_digest = digest::trace(&decoded);
    out.digests.insert("trace", trace_digest);
    out.check("trace.records", decoded.len() == generated.records, || {
        format!(
            "decoded {} records, generated {}",
            decoded.len(),
            generated.records
        )
    });
    if let Some(original) = &original {
        // decode(encode(x)) == x: same shard layout, tables and records.
        let same = original.shard_count() == decoded.shard_count()
            && original.interner().url_table() == decoded.interner().url_table()
            && original.interner().ua_table() == decoded.interner().ua_table()
            && (0..original.shard_count())
                .all(|i| original.shard_records(i) == decoded.shard_records(i));
        out.check("trace.round_trip", same, || {
            "decoded records differ from the encoded ones".into()
        });
        out.check(
            "trace.round_trip_digest",
            digest::trace(original) == trace_digest,
            || "decoded digest differs from the encoded trace's".into(),
        );
    }
    drop(original);
    drop(check);

    let (report, health) = rec.stage("core.characterize", |_| {
        CharacterizationReport::compute_sharded_isolated(&decoded, &TokenCategoryProvider, threads)
    });
    let check = rec.open("bench.check");
    out.check("core.characterize.complete", health.is_complete(), || {
        format!("shards quarantined: {:?}", health.quarantined)
    });
    out.digests.insert(
        "characterize",
        Digest::new().add(format!("{report:?}")).finish(),
    );
    drop(check);

    let trace = rec.stage("trace.join", |_| {
        let mut trace = decoded.into_trace();
        if let Some(keep) = input.workload.analysis_shards() {
            // Shards are equal slices of the configured duration.
            let cutoff = input.config.duration.as_secs_f64() * keep as f64 / SHARDS as f64;
            trace.retain(|r| r.time.as_secs_f64() < cutoff);
        }
        trace
    });

    let config = periodicity_config(threads);
    let periodicity = if rec.traced() {
        rec.stage("core.periodicity", |rec| {
            periodicity_traced(&trace, &config, rec, out)
        })
    } else {
        rec.stage("core.periodicity", |_| {
            jcdn_core::periodicity::run_study(&trace, &config)
        })
    };
    let check = rec.open("bench.check");
    out.digests
        .insert("periodicity", periodicity_digest(&trace, &periodicity));
    // The study clips each flow to its detector window.
    let detector_window = config.detector.max_bins as f64 * config.detector.sampling_seconds;
    let window = trace.time_span().map_or(0.0, |(a, b)| {
        (b.as_secs_f64() - a.as_secs_f64()).min(detector_window)
    });
    let (found, recoverable) = recovered(&trace, &periodicity, &generated.truth, &config, window);
    out.counts.insert("core.periodic_found", found as f64);
    out.counts
        .insert("core.periodic_recoverable", recoverable as f64);
    drop(check);

    let predict_config = PredictionStudyConfig::default();
    let prediction = if rec.traced() {
        rec.stage("core.predict", |rec| {
            predict_traced(&trace, &predict_config, rec, out)
        })
    } else {
        rec.stage("core.predict", |_| {
            jcdn_core::prediction::run_study(&trace, &predict_config)
        })
    };
    let check = rec.open("bench.check");
    out.digests.insert("predict", predict_digest(&prediction));
    if prediction.test_transitions >= MIN_TEST_TRANSITIONS {
        let k10 = prediction.rows.iter().find(|c| c.k == 10);
        out.check(
            "core.predict.beats_popularity",
            k10.is_some_and(|c| c.actual > c.popularity_baseline),
            || format!("K=10 actual vs popularity baseline: {k10:?}"),
        );
    }
    drop(check);
    Some(())
}

/// Planted periodic objects the study found at their planted period, and
/// how many it could have: those whose planted period repeats at least
/// `min_requests` times in the analysed window and that have at least
/// `min_clients` periodic clients — the study's own filters.
fn recovered(
    trace: &Trace,
    report: &PeriodicityReport,
    truth: &Truth,
    config: &PeriodicityStudyConfig,
    window_s: f64,
) -> (usize, usize) {
    let detected: HashMap<&str, f64> = report
        .object_periods
        .iter()
        .map(|(&u, &p)| (trace.url(u), p))
        .collect();
    let mut found = 0;
    let mut recoverable = 0;
    for (url, period, clients) in &truth.periodic {
        if period * config.min_requests as f64 > window_s || *clients < config.min_clients {
            continue;
        }
        recoverable += 1;
        if detected
            .get(url.as_str())
            .is_some_and(|&d| on_planted_period(d, *period))
        {
            found += 1;
        }
    }
    (found, recoverable)
}

/// Whether a detected period sits on the planted one or a small harmonic
/// of it: within 15% (the tolerance of `tests/periodicity_recovery.rs`)
/// of the planted period times or divided by m <= 4, the multiples the
/// study itself accepts when it matches client and object periods.
fn on_planted_period(detected: f64, planted: f64) -> bool {
    (1..=4u32).map(f64::from).any(|m| {
        (detected - planted * m).abs() <= planted * m * 0.15
            || (detected - planted / m).abs() <= planted / m * 0.15
    })
}

/// Digest of the detected period set: objects and flows by URL and client,
/// periods rounded to 0.1 s, plus the study's request counts.
fn periodicity_digest(trace: &Trace, report: &PeriodicityReport) -> u64 {
    let tenths = |p: f64| (p * 10.0).round() as u64;
    let mut objects: Vec<(&str, u64)> = report
        .object_periods
        .iter()
        .map(|(&u, &p)| (trace.url(u), tenths(p)))
        .collect();
    objects.sort_unstable();
    let mut flows: Vec<(u64, Option<u32>, &str, u64, usize)> = report
        .periodic_flows
        .iter()
        .map(|f| {
            (
                f.client.0 .0,
                f.client.1.map(|u| u.0),
                trace.url(f.url),
                tenths(f.period_seconds),
                f.requests,
            )
        })
        .collect();
    flows.sort_unstable();
    Digest::new()
        .add(objects)
        .add(flows)
        .add([
            report.periodic_requests,
            report.total_json_requests,
            report.periodic_uncacheable,
            report.periodic_uploads,
        ])
        .finish()
}

fn predict_digest(report: &PredictionReport) -> u64 {
    let mut d = Digest::new();
    d.add(report.history)
        .add(report.test_transitions)
        .add(report.train_clients)
        .add(report.test_clients);
    for c in &report.rows {
        d.add(c.k)
            .add(c.clustered.to_bits())
            .add(c.actual.to_bits())
            .add(c.popularity_baseline.to_bits());
    }
    d.finish()
}

/// `core::periodicity::run_study`, made of the same public calls, each
/// under a span: flow extraction and filtering (`trace.flows`), then one
/// `signal.detect` per object flow and per client flow of a periodic
/// object.
fn periodicity_traced(
    trace: &Trace,
    config: &PeriodicityStudyConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> PeriodicityReport {
    let is_json = |r: &jcdn_trace::LogRecord| r.mime == MimeType::Json;
    let mut report = PeriodicityReport {
        total_json_requests: trace.records().iter().filter(|r| is_json(r)).count() as u64,
        ..PeriodicityReport::default()
    };
    let flows = rec.stage("trace.flows", |_| {
        FlowSet::build(trace, is_json)
            .apply_significance_filters(config.min_requests, config.min_clients)
    });
    out.counts
        .insert("trace.flows_tested", flows.flows.len() as f64);
    let window_secs = config.detector.max_bins as f64 * config.detector.sampling_seconds;
    let clip = |times: Vec<f64>| -> Vec<f64> {
        let Some(&t0) = times.first() else {
            return times;
        };
        times
            .into_iter()
            .take_while(|&t| t < t0 + window_secs)
            .collect()
    };
    let detector = &config.detector;
    let calls_before = rec.detect_ms.len();
    for flow in &flows.flows {
        let merged = clip(
            flow.merged_times()
                .iter()
                .map(|t| t.as_secs_f64())
                .collect(),
        );
        let Some(object_period) = rec.detect(|| detect_period(&merged, detector)) else {
            continue;
        };
        let mut periodic_clients = 0usize;
        for cf in &flow.client_flows {
            let times = clip(cf.times.iter().map(|t| t.as_secs_f64()).collect());
            let Some(client_period) = rec.detect(|| detect_period(&times, detector)) else {
                continue;
            };
            if periods_match(&client_period, &object_period, config.match_tolerance_bins) {
                periodic_clients += 1;
                report.periodic_requests += cf.len() as u64;
                report.periodic_flows.push(PeriodicFlow {
                    client: cf.client,
                    url: flow.url,
                    period_seconds: client_period.period_seconds,
                    requests: cf.len(),
                });
            }
        }
        if periodic_clients > 0 {
            report
                .object_periods
                .insert(flow.url, object_period.period_seconds);
            report.periodic_client_fraction.insert(
                flow.url,
                periodic_clients as f64 / flow.client_count() as f64,
            );
        }
    }
    out.counts.insert(
        "signal.detect_calls",
        (rec.detect_ms.len() - calls_before) as f64,
    );
    let pairs: HashSet<_> = report
        .periodic_flows
        .iter()
        .map(|f| (f.client, f.url))
        .collect();
    for r in trace.records() {
        if is_json(r) && pairs.contains(&((r.client, r.ua), r.url)) {
            report.periodic_uncacheable += u64::from(!r.cache.is_cacheable());
            report.periodic_uploads += u64::from(r.method.is_upload());
        }
    }
    report
}

/// The study's client/object period match: equal within the tolerance,
/// or one a small multiple (m <= 4) of the other.
fn periods_match(client: &DetectedPeriod, object: &DetectedPeriod, tolerance_bins: usize) -> bool {
    let tolerance = tolerance_bins as f64
        * (client.period_seconds / client.period_bins.max(1) as f64)
            .max(object.period_seconds / object.period_bins.max(1) as f64);
    (1..=4u32).map(f64::from).any(|m| {
        (client.period_seconds * m - object.period_seconds).abs() <= tolerance * m
            || (client.period_seconds - object.period_seconds * m).abs() <= tolerance * m
    })
}

struct ModeData {
    sequences: Vec<(u64, Vec<u32>)>,
    model: NgramModel,
}

/// `core::prediction::run_study`, made of the same public calls: per URL
/// mode, vocabulary interning (`ngram.vocab`), sequence extraction
/// (`trace.sequences`) and training (`ngram.train`); per K, scoring both
/// modes and the popularity baseline (`ngram.eval`).
fn predict_traced(
    trace: &Trace,
    config: &PredictionStudyConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> PredictionReport {
    let raw = prepare_mode(trace, Vocab::raw(), config, rec);
    let clustered = prepare_mode(trace, Vocab::clustered(), config, rec);
    let train_clients = raw
        .sequences
        .iter()
        .filter(|(c, _)| split_client(*c, config.train_percent) == Split::Train)
        .count();
    let mut rows = Vec::with_capacity(config.ks.len());
    let mut test_transitions = 0;
    let mut scored = 0u64;
    for &k in &config.ks {
        let (actual, clustered_result, baseline) = rec.stage("ngram.eval", |_| {
            (
                evaluate_mode(&raw, k, config.train_percent),
                evaluate_mode(&clustered, k, config.train_percent),
                popularity_baseline(&raw, k, config.train_percent),
            )
        });
        test_transitions = actual.transitions;
        scored += actual.transitions + clustered_result.transitions + baseline.transitions;
        rows.push(AccuracyCell {
            k,
            clustered: clustered_result.accuracy().unwrap_or(0.0),
            actual: actual.accuracy().unwrap_or(0.0),
            popularity_baseline: baseline.accuracy().unwrap_or(0.0),
        });
    }
    out.counts.insert("ngram.transitions", scored as f64);
    PredictionReport {
        history: config.history,
        rows,
        test_transitions,
        train_clients,
        test_clients: raw.sequences.len() - train_clients,
    }
}

fn prepare_mode(
    trace: &Trace,
    mut vocab: Vocab,
    config: &PredictionStudyConfig,
    rec: &mut Recorder,
) -> ModeData {
    let tokens: Vec<u32> = rec.stage("ngram.vocab", |_| {
        trace
            .url_table()
            .iter()
            .map(|url| vocab.intern(url))
            .collect()
    });
    let raw = rec.stage("trace.sequences", |_| {
        client_sequences(trace, |r| r.mime == MimeType::Json)
    });
    let sequences: Vec<(u64, Vec<u32>)> = raw
        .into_iter()
        .filter(|(_, seq)| seq.len() >= config.min_sequence)
        .map(|((client, ua), seq)| {
            let mut key = client.0.to_le_bytes().to_vec();
            key.extend_from_slice(&ua.map_or(u32::MAX, |u| u.0).to_le_bytes());
            let toks = seq.iter().map(|&(_, url)| tokens[url.0 as usize]).collect();
            (jcdn_trace::fnv1a(&key), toks)
        })
        .collect();
    let model = rec.stage("ngram.train", |_| {
        let mut model = NgramModel::new(config.history);
        for (client, seq) in &sequences {
            if split_client(*client, config.train_percent) == Split::Train {
                model.train_sequence(seq);
            }
        }
        model
    });
    ModeData { sequences, model }
}

fn evaluate_mode(data: &ModeData, k: usize, train_percent: u8) -> EvalResult {
    let mut result = EvalResult::default();
    for (client, seq) in &data.sequences {
        if split_client(*client, train_percent) == Split::Test {
            result.merge(evaluate_sequence(&data.model, seq, k));
        }
    }
    result
}

fn popularity_baseline(data: &ModeData, k: usize, train_percent: u8) -> EvalResult {
    let top: Vec<u32> = data
        .model
        .predict(&[], k)
        .into_iter()
        .map(|p| p.token)
        .collect();
    let mut result = EvalResult::default();
    for (client, seq) in &data.sequences {
        if split_client(*client, train_percent) == Split::Test {
            for &next in &seq[1.min(seq.len())..] {
                result.transitions += 1;
                result.hits += u64::from(top.contains(&next));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_cdf_matches_exact_sums() {
        // Exact values of sum_{i<=k} C(n,i) p^i (1-p)^(n-i) at p = 0.75.
        for (k, n, exact) in [
            (12, 18, 0.282_549_187_017_139),
            (8, 18, 0.005_421_779_205_789_79),
            (0, 5, 0.000_976_562_5),
            (20, 39, 0.001_168_796_639_233_5),
        ] {
            let got = binomial_cdf(k, n, 0.75);
            assert!(
                (got - exact).abs() < 1e-12,
                "P(X <= {k} | {n}) = {got}, not {exact}"
            );
        }
        assert!((binomial_cdf(18, 18, 0.75) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn planted_period_matches_small_harmonics_only() {
        assert!(on_planted_period(30.0, 30.0));
        assert!(on_planted_period(33.0, 30.0));
        assert!(on_planted_period(60.0, 30.0));
        assert!(on_planted_period(15.0, 30.0));
        assert!(on_planted_period(7.5, 30.0));
        assert!(!on_planted_period(6.0, 30.0));
        assert!(!on_planted_period(45.0, 30.0));
        assert!(!on_planted_period(150.0, 30.0));
    }
}
