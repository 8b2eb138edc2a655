//! Streaming engine latency: per-record `update` cost of every
//! `StreamMethod`, fitted exactly as the replay driver fits them, on one
//! thread. For local regression hunting (median ± IQR); the served
//! per-record cost is measured by the repository benchmark
//! (`perfbench`, `stream.update_ns.*`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use exathlon_core::config::StreamMethod;
use exathlon_core::model::TrainingBudget;
use exathlon_core::replay::{build_streaming, replay_series, stream_seed};
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;

const DIMS: usize = 19;

fn trace(n: usize, seed: u64) -> TimeSeries {
    let records: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..DIMS)
                .map(|j| ((i as f64 * 0.2 + (j as f64 + seed as f64) * 0.7).sin()) * 2.0)
                .collect()
        })
        .collect();
    TimeSeries::from_records(default_names(DIMS), 0, &records)
}

fn bench_stream_replay(c: &mut Criterion) {
    std::env::set_var(exathlon_core::par::THREADS_ENV, "1");
    let train = vec![trace(600, 1), trace(600, 2)];
    let test = trace(400, 9);
    let mut group = c.benchmark_group("stream_replay_400_records");
    group.sample_size(10);
    for method in StreamMethod::ALL {
        let mut det =
            build_streaming(method, &train, 0.25, TrainingBudget::Quick, stream_seed(7, method));
        group.bench_function(method.label(), |b| {
            b.iter(|| black_box(replay_series(det.as_mut(), &test)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stream_replay);
criterion_main!(benches);
