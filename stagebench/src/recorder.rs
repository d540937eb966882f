//! Timing around calls into the library's layers.
//!
//! Every layer call the benchmark makes goes through a [`Recorder`]. With
//! tracing off it only sums wall time per stage, which is what the
//! end-to-end metrics need. With tracing on, each call is also a span on
//! the `jcdn_obs` span ring, and each top-level stage also reads process
//! CPU time and the peak-RSS high-water mark around itself.
//!
//! The spans come only from this benchmark's own code. They all run on the
//! benchmark's single thread and nest strictly, so a span's parent is the
//! innermost span that encloses it; [`attribute`] derives parents that way
//! and folds the spans into per-layer self time.

use std::collections::{BTreeMap, BTreeSet};

use jcdn_obs::clock::Stopwatch;
use jcdn_obs::span::{self, SpanGuard, SpanRecord};

use crate::procfs;

/// Wall time, CPU time and peak memory of one top-level stage, summed
/// (peak: maximum) over its calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageStat {
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub peak_rss_mib: Option<f64>,
}

/// Spans drained between detector calls, so a long loop never overflows
/// the span ring.
const DRAIN_EVERY: usize = 256;

pub struct Recorder {
    traced: bool,
    /// Per stage (span name): summed wall time, plus CPU and memory for
    /// top-level stages when traced.
    pub stages: BTreeMap<&'static str, StageStat>,
    /// Every span drained from the ring, the library's own included.
    pub spans: Vec<SpanRecord>,
    pub spans_dropped: u64,
    /// Names of the spans this benchmark opened.
    pub own_names: BTreeSet<&'static str>,
    /// Wall time of each `signal::detect_period` call, in ms (traced only).
    pub detect_ms: Vec<f64>,
    depth: usize,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        if traced {
            span::reset();
        }
        Recorder {
            traced,
            stages: BTreeMap::new(),
            spans: Vec::new(),
            spans_dropped: 0,
            own_names: BTreeSet::new(),
            detect_ms: Vec::new(),
            depth: 0,
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs one layer call as the stage `name`. Top-level stages, when
    /// traced, also measure CPU time and peak RSS; nested ones only time.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let top = self.depth == 0;
        let measure = self.traced && top;
        let rss_reset = measure && procfs::reset_peak_rss();
        let cpu0 = if measure { procfs::cpu_seconds() } else { None };
        let guard = self.open(name);
        let clock = Stopwatch::start();
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let wall_s = clock.elapsed_us() as f64 / 1e6;
        drop(guard);
        let stat = self.stages.entry(name).or_default();
        stat.wall_s += wall_s;
        if measure {
            let cpu = cpu0.zip(procfs::cpu_seconds()).map(|(a, b)| b - a);
            stat.cpu_s = cpu.map(|c| c + stat.cpu_s.unwrap_or(0.0));
            let peak = if rss_reset {
                procfs::peak_rss_mib()
            } else {
                None
            };
            stat.peak_rss_mib = peak.map(|p| p.max(stat.peak_rss_mib.unwrap_or(0.0)));
            self.drain();
        }
        out
    }

    /// Times one `detect_period` call as a `signal.detect` span.
    pub fn detect<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let guard = self.open("signal.detect");
        let clock = Stopwatch::start();
        let out = f();
        let wall_s = clock.elapsed_us() as f64 / 1e6;
        drop(guard);
        self.stages.entry("signal.detect").or_default().wall_s += wall_s;
        if self.traced {
            self.detect_ms.push(wall_s * 1e3);
            if self.detect_ms.len().is_multiple_of(DRAIN_EVERY) {
                self.drain();
            }
        }
        out
    }

    /// Opens a span that covers work no layer call owns (the job root,
    /// output checks).
    pub fn open(&mut self, name: &'static str) -> Option<SpanGuard> {
        self.traced.then(|| {
            self.own_names.insert(name);
            SpanGuard::enter(name.to_string())
        })
    }

    pub fn wall(&self, name: &str) -> f64 {
        self.stages.get(name).map_or(0.0, |s| s.wall_s)
    }

    pub fn drain(&mut self) {
        if self.traced {
            let (spans, dropped) = span::drain();
            self.spans.extend(spans);
            self.spans_dropped += dropped;
        }
    }
}

/// Per-layer self time and the wall time no span covered, from the
/// benchmark's own spans. A span's self time is its duration minus its
/// direct children's; its layer is the name up to the first `.`. The
/// `job` root span's self time is the unattributed remainder.
pub struct Attribution {
    pub layer_self_s: BTreeMap<String, f64>,
    pub unattributed_s: f64,
}

pub fn attribute(spans: &[SpanRecord], own: &BTreeSet<&'static str>) -> Attribution {
    let mut mine: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| own.contains(s.name.as_str()))
        .collect();
    // Parents before children: earlier start first, longer first on ties.
    mine.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.duration_us)));
    let mut self_us: Vec<i64> = mine.iter().map(|s| s.duration_us as i64).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..mine.len() {
        let start = mine[i].start_us;
        while let Some(&top) = stack.last() {
            if start >= mine[top].start_us + mine[top].duration_us {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            self_us[parent] -= mine[i].duration_us as i64;
        }
        stack.push(i);
    }
    let mut layer_self_s: BTreeMap<String, f64> = BTreeMap::new();
    let mut unattributed_s = 0.0;
    for (span, us) in mine.iter().zip(&self_us) {
        let secs = (*us).max(0) as f64 / 1e6;
        if span.name == "job" {
            unattributed_s += secs;
            continue;
        }
        let layer = span.name.split('.').next().unwrap_or_default();
        *layer_self_s.entry(layer.to_string()).or_default() += secs;
    }
    Attribution {
        layer_self_s,
        unattributed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, duration_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_us,
            duration_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own: BTreeSet<&'static str> =
            ["job", "core.periodicity", "signal.detect", "trace.flows"]
                .into_iter()
                .collect();
        let spans = vec![
            span("job", 0, 100),
            span("core.periodicity", 10, 80),
            span("trace.flows", 10, 20),
            span("signal.detect", 30, 10),
            span("signal.detect", 50, 30),
            span("simulate.run", 0, 100),
        ];
        let a = attribute(&spans, &own);
        assert!((a.unattributed_s - 20e-6).abs() < 1e-12);
        assert!((a.layer_self_s["core"] - 20e-6).abs() < 1e-12);
        assert!((a.layer_self_s["signal"] - 40e-6).abs() < 1e-12);
        assert!((a.layer_self_s["trace"] - 20e-6).abs() < 1e-12);
        assert!(!a.layer_self_s.contains_key("simulate"));
    }
}
