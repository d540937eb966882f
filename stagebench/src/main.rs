//! Stage benchmark for the jcdn pipeline.
//!
//! ```sh
//! stagebench --workload short-pipeline --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One process, one workload, [`THREADS`] wide. Set-up runs
//! [`SETUP_REPS`] times; the job then repeats until `--seconds` have
//! passed, each pass on the next of the workload's inputs. `setup_s` is
//! the median over set-ups; the other times are the mean of the middle
//! half of the passes, and per-layer metrics are medians. The last line
//! of standard output is the result object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See README.md.

mod digest;
mod jobs;
mod procfs;
mod recorder;
mod report;

use std::path::PathBuf;
use std::process::ExitCode;

use jcdn_obs::clock::Stopwatch;

use jobs::{Outcome, Workload};
use recorder::Recorder;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Threads every layer call is given.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Multiplies every workload's volume; below 1 only for smoke tests.
    pub volume: f64,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut volume = 1.0f64;
    let mut work_dir = PathBuf::from("stagebench-work");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("switch (0 or 1)")),
                })
            }
            "--volume" => {
                volume = value.parse().map_err(|_| bad("volume"))?;
                if !(volume > 0.0 && volume <= 1.0) {
                    return Err(bad("volume (0 < v <= 1)"));
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        volume,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stagebench: {e}");
            return ExitCode::from(2);
        }
    };
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    if THREADS > available {
        eprintln!(
            "stagebench: refusing to run {THREADS} threads on a machine with available_parallelism {available}"
        );
        return ExitCode::from(2);
    }
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("stagebench: {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, available, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stagebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one run measured, handed to [`report`].
pub struct Run {
    pub setup_s: Vec<f64>,
    /// `short-analysis`: each input's generation time, per set-up.
    pub setup_generate_s: Vec<f64>,
    /// One (recorder, outcome) per pass.
    pub untraced: Vec<(Recorder, Outcome)>,
    pub traced: Vec<(Recorder, Outcome)>,
    /// `short-analysis`: the traced generation of its first input.
    pub traced_setup: Option<(Recorder, Outcome)>,
    /// The first input at the run's thread count, then at one thread.
    pub speedup: Option<(Recorder, Recorder)>,
    pub failures: Vec<String>,
    pub attempted: u64,
}

impl Run {
    fn absorb(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failures.extend(out.failures.iter().cloned());
    }
}

/// One pass: the job over input `i`.
fn pass(i: usize, input: &jobs::Input, threads: usize, traced: bool) -> (Recorder, Outcome) {
    let mut rec = Recorder::new(traced);
    let mut out = jobs::run(input, threads, &mut rec);
    out.input = i;
    (rec, out)
}

fn run(args: &Args, available: usize, dir: &std::path::Path) -> Result<String, String> {
    let w = args.workload;
    let mut all = Run {
        setup_s: Vec::new(),
        setup_generate_s: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        traced_setup: None,
        speedup: None,
        failures: Vec::new(),
        attempted: 0,
    };

    // Set-up: configurations and, where the job reads them, the input
    // traces; then a warm-up job over a quarter of the first input's
    // volume.
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let clock = Stopwatch::start();
        let mut rec = Recorder::new(false);
        let mut prepared = Vec::new();
        let mut preps = Vec::new();
        for i in 0..w.inputs() {
            let seed = Workload::input_seed(args.seed, i);
            let (input, prep) = jobs::prepare(w, seed, args.volume, THREADS, dir, &mut rec);
            prepared.push(input);
            preps.push(prep);
        }
        let warm_volume = args.volume * jobs::WARMUP_VOLUME;
        let first_seed = Workload::input_seed(args.seed, 0);
        let (warm, warm_prep) = jobs::prepare(w, first_seed, warm_volume, THREADS, dir, &mut rec);
        let warm_out = jobs::run(&warm, THREADS, &mut Recorder::new(false));
        all.setup_s.push(clock.elapsed_us() as f64 / 1e6);
        for (input, prep) in prepared.iter().zip(&preps) {
            if input.prebuilt.is_some() {
                all.setup_generate_s.push(prep.generate_s);
            }
            all.absorb(prep);
        }
        for out in [&warm_prep, &warm_out] {
            all.absorb(out);
        }
        inputs = prepared;
    }
    if !all.failures.is_empty() {
        return Ok(report::render(args, available, all));
    }

    // Passes repeat while the next is expected to end within --seconds,
    // each reading the next input.
    // A traced run alternates untraced and traced passes so both see the
    // same machine state.
    let clock = Stopwatch::start();
    for k in 0.. {
        let start = clock.elapsed_us();
        let i = k % inputs.len();
        let (rec, out) = pass(i, &inputs[i], THREADS, false);
        all.absorb(&out);
        all.untraced.push((rec, out));
        if args.traced {
            let (rec, out) = pass(i, &inputs[i], THREADS, true);
            all.absorb(&out);
            all.traced.push((rec, out));
        }
        let now = clock.elapsed_us();
        if !all.failures.is_empty() || (2 * now - start) as f64 / 1e6 > args.seconds {
            break;
        }
    }
    // Recall over one untraced pass of each input the run read.
    let mut recall = Outcome::default();
    for name in ["core.periodic_found", "core.periodic_recoverable"] {
        let total = all
            .untraced
            .iter()
            .take(inputs.len())
            .map(|(_, out)| out.counts.get(name).copied().unwrap_or(0.0))
            .sum();
        recall.counts.insert(name, total);
    }
    recall.check_recovery();
    println!(
        "recall: found {} of {} recoverable planted periodic objects",
        recall.counts["core.periodic_found"], recall.counts["core.periodic_recoverable"]
    );
    all.absorb(&recall);

    if args.traced {
        if inputs[0].prebuilt.is_some() {
            // The first input, the volume of one pass.
            let mut rec = Recorder::new(true);
            let first_seed = Workload::input_seed(args.seed, 0);
            let (_, out) = jobs::prepare(w, first_seed, args.volume, THREADS, dir, &mut rec);
            all.absorb(&out);
            all.traced_setup = Some((rec, out));
        }
        // Speed-up over one thread, on the first input. Preparing again
        // rewrites the same bytes: output does not depend on threads.
        let first_seed = Workload::input_seed(args.seed, 0);
        let timed = |threads: usize, all: &mut Run| {
            let mut rec = Recorder::new(false);
            let (input, prep) = jobs::prepare(w, first_seed, args.volume, threads, dir, &mut rec);
            let out = jobs::run(&input, threads, &mut rec);
            all.absorb(&prep);
            all.absorb(&out);
            (rec, out.digests)
        };
        let (wide, wide_digests) = timed(THREADS, &mut all);
        let (one, one_digests) = timed(1, &mut all);
        all.attempted += 1;
        if wide_digests != one_digests {
            all.failures.push(format!(
                "digests differ between {THREADS} threads and one: {wide_digests:?} vs {one_digests:?}"
            ));
        }
        all.speedup = Some((wide, one));
    }
    Ok(report::render(args, available, all))
}
