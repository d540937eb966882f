//! Criterion microbenchmarks for the substrate components: FFT,
//! autocorrelation, LRU cache, JSON parsing, URL clustering, n-gram
//! prediction, and the trace codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jcdn_cdnsim::cache::PolicyCache;
use jcdn_cdnsim::{run_default, FaultPlan, OriginOutage, SimConfig, Window};
use jcdn_ngram::NgramModel;
use jcdn_signal::acf::Autocorrelation;
use jcdn_signal::fft::{fft_in_place, Complex};
use jcdn_signal::spectrum::Periodogram;
use jcdn_trace::codec::{decode, encode};
use jcdn_trace::{
    CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, SimDuration, SimTime, Trace,
};
use jcdn_url::cluster::Clusterer;
use jcdn_url::Url;
use jcdn_workload::{build, WorkloadConfig};

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[1024usize, 8192, 65536] {
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut data = signal.clone();
                fft_in_place(&mut data);
                std::hint::black_box(data[1])
            })
        });
    }
    group.finish();
}

fn bench_acf_and_periodogram(c: &mut Criterion) {
    let signal: Vec<f64> = (0..8192)
        .map(|i| if i % 30 == 0 { 1.0 } else { 0.0 })
        .collect();
    c.bench_function("acf_8192", |b| {
        b.iter(|| std::hint::black_box(Autocorrelation::compute(&signal).values[30]))
    });
    c.bench_function("periodogram_8192", |b| {
        b.iter(|| std::hint::black_box(Periodogram::compute(&signal).peak()))
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru_mixed_ops_10k", |b| {
        b.iter(|| {
            let mut cache: PolicyCache<u32> = PolicyCache::new(64 * 1024);
            let ttl = SimDuration::from_secs(3600);
            for i in 0u32..10_000 {
                let key = i * 2654435761 % 1024;
                let now = SimTime::from_millis(u64::from(i));
                if i % 3 == 0 {
                    cache.insert(key, 100, ttl, now, false);
                } else {
                    std::hint::black_box(cache.get(key, now));
                }
            }
            std::hint::black_box(cache.len())
        })
    });
}

fn bench_json(c: &mut Criterion) {
    let manifest = {
        let stories: Vec<String> = (0..50)
            .map(|i| {
                format!(
                    r#"{{"article_id":{i},"article_title":"Story {i}","article_url":"https://news.example/api/articles/{i}","image_url":"https://news.example/media/image{i}.jpg"}}"#
                )
            })
            .collect();
        format!("[{}]", stories.join(","))
    };
    c.bench_function("json_parse_manifest_50", |b| {
        b.iter(|| std::hint::black_box(jcdn_json::parse(&manifest).unwrap()))
    });
    let doc = jcdn_json::parse(&manifest).unwrap();
    c.bench_function("json_extract_refs_50", |b| {
        b.iter(|| std::hint::black_box(jcdn_json::extract_url_refs(&doc).len()))
    });
}

fn bench_url_cluster(c: &mut Criterion) {
    let clusterer = Clusterer::default();
    let urls: Vec<Url> = (0..100)
        .map(|i| {
            Url::parse(&format!(
                "https://api-{}.example/user/{:016x}/feed?page={}&session=ab{}cd34ef99",
                i % 7,
                i * 0x9e3779b97f4a7c15u64,
                i,
                i
            ))
            .unwrap()
        })
        .collect();
    c.bench_function("url_cluster_100", |b| {
        b.iter(|| {
            let total: usize = urls.iter().map(|u| clusterer.cluster(u).len()).sum();
            std::hint::black_box(total)
        })
    });
}

fn bench_ngram(c: &mut Criterion) {
    let mut model = NgramModel::new(2);
    // 200 clients × 60-step walks over a 500-token vocabulary.
    for client in 0..200u32 {
        let seq: Vec<u32> = (0..60)
            .map(|i| (client.wrapping_mul(31).wrapping_add(i * 7)) % 500)
            .collect();
        model.train_sequence(&seq);
    }
    c.bench_function("ngram_predict_top10", |b| {
        let history = [3u32, 10];
        b.iter(|| std::hint::black_box(model.predict(&history, 10)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut trace = Trace::new();
    let urls: Vec<_> = (0..200)
        .map(|i| trace.intern_url(&format!("https://h{}.example/api/{}", i % 20, i)))
        .collect();
    let ua = trace.intern_ua("okhttp/3.12.1");
    for i in 0..50_000u64 {
        trace.push(LogRecord {
            time: SimTime::from_millis(i * 13),
            client: ClientId(i % 500),
            ua: Some(ua),
            url: urls[(i % 200) as usize],
            method: Method::Get,
            mime: MimeType::Json,
            status: 200,
            response_bytes: 500 + i % 1000,
            cache: CacheStatus::Hit,
            retries: 0,
            flags: RecordFlags::NONE,
        });
    }
    c.bench_function("codec_encode_50k", |b| {
        b.iter(|| std::hint::black_box(encode(&trace).expect("time-sorted").len()))
    });
    let encoded = encode(&trace).expect("time-sorted");
    c.bench_function("codec_decode_50k", |b| {
        b.iter(|| std::hint::black_box(decode(encoded.clone()).unwrap().len()))
    });
}

fn bench_fault_sim(c: &mut Criterion) {
    // The resilience machinery (retries, serve-stale, negative cache,
    // coalescing) all fire under an outage; this times that hot path
    // against the fault-free baseline.
    let workload = build(&WorkloadConfig::tiny(77).scaled(0.2));
    let clean = SimConfig::default();
    let faulted = SimConfig {
        fault: FaultPlan {
            outages: vec![OriginOutage {
                domain: 0,
                window: Window::from_secs(0, 600),
            }],
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    c.bench_function("sim_tiny_fault_free", |b| {
        b.iter(|| std::hint::black_box(run_default(&workload, &clean).stats.requests))
    });
    c.bench_function("sim_tiny_outage_resilient", |b| {
        b.iter(|| std::hint::black_box(run_default(&workload, &faulted).stats.end_user_failures))
    });
}

criterion_group!(
    components,
    bench_fft,
    bench_acf_and_periodogram,
    bench_lru,
    bench_json,
    bench_url_cluster,
    bench_ngram,
    bench_codec,
    bench_fault_sim,
);
criterion_main!(components);
