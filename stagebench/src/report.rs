//! Turns a run's measurements into the printed report and the result line.

use std::collections::BTreeMap;

use crate::jobs::{self, Outcome};
use crate::recorder::{attribute, Recorder, StageStat};
use crate::{Args, Run};

/// Top-level stages: (span name, metric stem).
const STAGES: [(&str, &str); 9] = [
    ("workload.build", "workload"),
    ("cdnsim.simulate", "cdnsim"),
    ("trace.partition", "trace.partition"),
    ("trace.encode", "trace.encode"),
    ("trace.store_write", "trace.store_write"),
    ("trace.decode", "trace.decode"),
    ("core.characterize", "core.characterize"),
    ("core.periodicity", "core.periodicity"),
    ("core.predict", "core.predict"),
];

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 7] = [
    "workload", "cdnsim", "trace", "signal", "ngram", "core", "bench",
];

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the middle half: a quarter of the values (rounded down)
/// dropped from each end. Over passes that read different inputs it
/// averages their work like a mean, and it drops a pass that a busy
/// machine slowed like a median.
pub fn middle_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Linear-interpolated quantile; NaN for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Metric values in output order; `None` prints as `null`.
type Metrics = Vec<(String, Option<f64>, &'static str)>;

pub fn render(args: &Args, available: usize, mut run: Run) -> String {
    let w = args.workload;
    let records = run.untraced.first().map_or(0, |(_, o)| o.records);
    println!(
        "fingerprint: {{\"workload\":\"{}\",\"available_parallelism\":{available},\"threads\":{},\
         \"shards\":{},\"seed\":{},\"inputs\":{},\"scale\":{},\"volume\":{},\"records\":{records}}}",
        w.name(),
        crate::THREADS,
        jobs::SHARDS,
        args.seed,
        w.inputs(),
        w.scale(),
        args.volume,
    );

    check_digests(args, &mut run);
    let end_to_end = end_to_end(&run);
    for (name, value, unit) in &end_to_end {
        println!("{name}: {} {unit}", fmt(*value));
    }
    for (name, get) in [
        ("wall_s", (|o: &Outcome| o.wall_s) as fn(&Outcome) -> f64),
        ("periodicity_s", |o| o.periodicity_s),
        ("predict_s", |o| o.predict_s),
    ] {
        let per_pass: Vec<String> = run
            .untraced
            .iter()
            .map(|(_, o)| format!("{:.4}", get(o)))
            .collect();
        println!("untraced passes {name}: {}", per_pass.join(" "));
    }
    let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-ups setup_s: {}", setups.join(" "));
    println!(
        "jobs: {} untraced, {} traced; set-ups: {}",
        run.untraced.len(),
        run.traced.len(),
        run.setup_s.len()
    );
    let metrics = if args.traced {
        let layers = per_layer(&run, crate::THREADS);
        print_shape(w, &layers, &run);
        write_chrome_trace(args, &run);
        layers
    } else {
        end_to_end
    };
    for failure in &run.failures {
        println!("FAILED {failure}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                fmt(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failures.is_empty(),
        run.attempted.max(1),
        run.failures.len(),
        body.join(",")
    )
}

fn fmt(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

/// Every pass of the run over one input, traced or not, must produce the
/// same stage digests — and so must every earlier run of the same build,
/// workload, seed and volume over that input whose digests were kept in
/// the work directory.
fn check_digests(args: &Args, run: &mut Run) {
    let mut references: BTreeMap<usize, &BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut failures = Vec::new();
    for (_, out) in run.untraced.iter().chain(&run.traced) {
        let reference = *references.entry(out.input).or_insert(&out.digests);
        if !std::ptr::eq(reference, &out.digests) {
            run.attempted += 1;
            if out.digests != *reference {
                failures.push(format!(
                    "digests differ between jobs over input {}: {:?} vs {reference:?}",
                    out.input, out.digests
                ));
            }
        }
    }
    // Kept per build of this benchmark: another commit may legitimately
    // change outputs, so only runs of the same executable are compared.
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |exe| jcdn_obs::manifest::fnv1a64(&exe));
    let dir = args.work_dir.join("digests");
    println!("digests:");
    for (input, reference) in references {
        let rendered: String = reference
            .iter()
            .map(|(stage, d)| format!("{stage} {d:016x}\n"))
            .collect();
        for line in rendered.lines() {
            println!("input {input} {line}");
        }
        let path = dir.join(format!(
            "{}-seed{}-input{input}-volume{}-build{build:016x}.txt",
            args.workload.name(),
            args.seed,
            args.volume
        ));
        run.attempted += 1;
        match std::fs::read_to_string(&path) {
            Ok(kept) if kept != rendered => failures.push(format!(
                "digests of input {input} differ from an earlier run of this commit ({}):\n{kept}",
                path.display()
            )),
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::create_dir_all(&dir);
                let _ = std::fs::write(&path, &rendered);
            }
        }
    }
    run.failures.extend(failures);
}

fn end_to_end(run: &Run) -> Metrics {
    let jobs: Vec<&Outcome> = run.untraced.iter().map(|(_, o)| o).collect();
    let mid = |f: &dyn Fn(&Outcome) -> f64| {
        let v: Vec<f64> = jobs.iter().map(|o| f(o)).collect();
        Some(middle_mean(&v)).filter(|m| m.is_finite())
    };
    let generate_s = if run.setup_generate_s.is_empty() {
        mid(&|o| o.generate_s)
    } else {
        Some(middle_mean(&run.setup_generate_s))
    };
    vec![
        ("wall_s".into(), mid(&|o| o.wall_s), "s"),
        ("generate_s".into(), generate_s, "s"),
        ("periodicity_s".into(), mid(&|o| o.periodicity_s), "s"),
        ("predict_s".into(), mid(&|o| o.predict_s), "s"),
        ("setup_s".into(), Some(median(&run.setup_s)), "s"),
        // Untraced runs never reset the high-water mark, so this is the
        // run's peak, set-up included.
        ("peak_rss_mb".into(), crate::procfs::peak_rss_mib(), "MiB"),
    ]
}

/// Stage statistics of a traced pass, with `short-analysis`'s traced
/// input generation filling in the stages its job does not run.
fn stage_stat(rec: &Recorder, setup: Option<&Recorder>, name: &str) -> Option<StageStat> {
    rec.stages
        .get(name)
        .or_else(|| setup.and_then(|s| s.stages.get(name)))
        .copied()
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    num.zip(den).filter(|(_, d)| *d > 0.0).map(|(n, d)| n / d)
}

fn per_layer(run: &Run, threads: usize) -> Metrics {
    let setup_rec = run.traced_setup.as_ref().map(|(r, _)| r);
    let setup_out = run.traced_setup.as_ref().map(|(_, o)| o);
    let setup_self = setup_rec.map(|r| attribute(&r.spans, &r.own_names).layer_self_s);
    let mut samples: Vec<(String, Vec<f64>, &'static str)> = Vec::new();
    let mut push = |name: String, value: Option<f64>, unit: &'static str| {
        let i = match samples.iter().position(|(n, _, _)| *n == name) {
            Some(i) => i,
            None => {
                samples.push((name, Vec::new(), unit));
                samples.len() - 1
            }
        };
        samples[i].1.extend(value.filter(|v| v.is_finite()));
    };
    for (rec, out) in &run.traced {
        let stage = |name: &str| stage_stat(rec, setup_rec, name);
        for (span, stem) in STAGES {
            let s = stage(span);
            push(format!("{span}_s"), s.map(|s| s.wall_s), "s");
            push(
                format!("{stem}.cpu_util"),
                s.and_then(|s| ratio(s.cpu_s, Some(s.wall_s * threads as f64))),
                "ratio",
            );
            push(
                format!("mem.{stem}.peak_rss_mb"),
                s.and_then(|s| s.peak_rss_mib),
                "MiB",
            );
        }
        for span in ["trace.flows", "signal.detect", "ngram.train", "ngram.eval"] {
            // A stage that never ran in a traced pass took no time.
            push(
                format!("{span}_s"),
                Some(stage(span).map_or(0.0, |s| s.wall_s)),
                "s",
            );
        }
        let count = |name: &str| {
            out.counts
                .get(name)
                .or_else(|| setup_out.and_then(|o| o.counts.get(name)))
                .copied()
        };
        push("workload.events".into(), count("workload.events"), "count");
        push(
            "cdnsim.hit_ratio".into(),
            ratio(count("cdnsim.hits"), count("cdnsim.lookups")),
            "ratio",
        );
        push("cdnsim.retries".into(), count("cdnsim.retries"), "count");
        push(
            "cdnsim.failed_share".into(),
            ratio(count("cdnsim.failed"), count("cdnsim.requests")),
            "ratio",
        );
        push(
            "trace.encoded_mb".into(),
            count("trace.encoded_bytes").map(|b| b / f64::from(1u32 << 20)),
            "MiB",
        );
        push(
            "trace.flows_tested".into(),
            count("trace.flows_tested"),
            "count",
        );
        push(
            "signal.detect_calls".into(),
            count("signal.detect_calls"),
            "count",
        );
        // With no detector call (no flow passed the filters) the latency
        // quantiles read 0, like `signal.detect_s`.
        for (name, q) in [
            ("signal.detect_p50_ms", 0.5),
            ("signal.detect_p99_ms", 0.99),
        ] {
            let ms = if rec.detect_ms.is_empty() {
                0.0
            } else {
                quantile(&rec.detect_ms, q)
            };
            push(name.into(), Some(ms), "ms");
        }
        push(
            "ngram.transitions".into(),
            count("ngram.transitions"),
            "count",
        );
        // With nothing recoverable in the analysed window, nothing was
        // missed.
        push(
            "core.periodic_recovered_share".into(),
            Some(
                ratio(
                    count("core.periodic_found"),
                    count("core.periodic_recoverable"),
                )
                .unwrap_or(1.0),
            ),
            "ratio",
        );
        push(
            "core.periodic_recoverable".into(),
            count("core.periodic_recoverable"),
            "count",
        );
        let attribution = attribute(&rec.spans, &rec.own_names);
        for layer in LAYERS {
            // As for stages: a layer the job never called (generation on
            // `short-analysis`) takes its self time from the traced set-up.
            let self_s = attribution
                .layer_self_s
                .get(layer)
                .or_else(|| setup_self.as_ref().and_then(|s| s.get(layer)))
                .copied()
                .unwrap_or(0.0);
            push(format!("{layer}.self_s"), Some(self_s), "s");
        }
        push(
            "obs.unattributed_s".into(),
            Some(attribution.unattributed_s),
            "s",
        );
    }
    let mut metrics: Metrics = samples
        .into_iter()
        .map(|(name, values, unit)| {
            let m = median(&values);
            (name, m.is_finite().then_some(m), unit)
        })
        .collect();

    let walls = |passes: &[(Recorder, Outcome)]| {
        let v: Vec<f64> = passes.iter().map(|(_, o)| o.wall_s).collect();
        median(&v)
    };
    let overhead = walls(&run.traced) - walls(&run.untraced);
    metrics.push((
        "obs.trace_overhead_s".into(),
        overhead.is_finite().then_some(overhead),
        "s",
    ));
    let rss_available = crate::procfs::peak_rss_mib().is_some() && crate::procfs::reset_peak_rss();
    metrics.push((
        "obs.rss_unavailable".into(),
        Some(if rss_available { 0.0 } else { 1.0 }),
        "flag",
    ));

    // Speed-up of the run's thread count over one thread, per stage and
    // for generation as a whole, on the first input.
    let (wide, one) = match &run.speedup {
        Some((wide, one)) => (Some(wide), Some(one)),
        None => (None, None),
    };
    let speedup = |names: &[&str]| {
        let total =
            |rec: Option<&Recorder>| rec.map(|r| names.iter().map(|n| r.wall(n)).sum::<f64>());
        ratio(total(one), total(wide))
    };
    for (span, stem) in STAGES {
        if !matches!(stem, "trace.partition" | "trace.store_write") {
            metrics.push((format!("{stem}.speedup_2t"), speedup(&[span]), "ratio"));
        }
    }
    metrics.push((
        "generate.speedup_2t".into(),
        speedup(&jobs::GENERATE_STAGES),
        "ratio",
    ));
    metrics
}

/// Prints whether each workload's stated heavy layer carries its job.
/// Layer times come from the traced passes, so the wholes they are
/// shares of do too: the median traced pass wall and generation time.
fn print_shape(w: jobs::Workload, layers: &Metrics, run: &Run) {
    let get = |name: &str| {
        layers
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, v, _)| *v)
            .unwrap_or(f64::NAN)
    };
    let traced = |f: fn(&Outcome) -> f64| {
        let v: Vec<f64> = run.traced.iter().map(|(_, o)| f(o)).collect();
        median(&v)
    };
    let wall = traced(|o| o.wall_s);
    let generate = traced(|o| o.generate_s);
    let mut claims: Vec<(String, f64, f64)> = Vec::new();
    match w {
        jobs::Workload::ShortPipeline => claims.push((
            "workload+cdnsim+trace self time / traced wall".into(),
            get("workload.self_s") + get("cdnsim.self_s") + get("trace.self_s"),
            wall,
        )),
        jobs::Workload::ShortAnalysis => claims.push((
            "ngram+signal self time / traced wall".into(),
            get("ngram.self_s") + get("signal.self_s"),
            wall,
        )),
        jobs::Workload::LongTiered => {
            claims.push((
                "signal self time / (traced wall - traced generate)".into(),
                get("signal.self_s"),
                wall - generate,
            ));
            claims.push((
                "cdnsim.simulate_s / traced generate".into(),
                get("cdnsim.simulate_s"),
                generate,
            ));
        }
    }
    for (what, part, whole) in claims {
        let share = part / whole;
        let verdict = if share > 0.5 {
            "holds"
        } else {
            "does NOT hold"
        };
        println!("shape: {what} = {share:.3} ({verdict})");
    }
}

fn write_chrome_trace(args: &Args, run: &Run) {
    let mut spans = Vec::new();
    let mut dropped = 0;
    for (rec, _) in run.traced.iter().chain(&run.traced_setup) {
        spans.extend(rec.spans.iter().cloned());
        dropped += rec.spans_dropped;
    }
    let dir = args.work_dir.join("traces");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let json = jcdn_obs::export::chrome_trace(&spans, dropped);
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
        Ok(()) => println!("chrome trace: {} ({} spans)", path.display(), spans.len()),
        Err(e) => println!("chrome trace not written: {e}"),
    }
}
