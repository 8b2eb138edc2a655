//! Micro-benchmarks of the zero-copy window data plane: pooled-window
//! construction + batch gather, the AE score-batch gather, and the fused
//! resample+rescale transform against the staged chain.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use exathlon_ad::scorer::{pooled_windows, window_batch};
use exathlon_tsdata::resample::resample_mean;
use exathlon_tsdata::scale::{DynamicScaler, StandardScaler};
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::window::WindowSet;
use exathlon_tsdata::TimeSeries;

const DIMS: usize = 19;
const WINDOW: usize = 8;

fn trace(len: usize, seed: usize) -> TimeSeries {
    let mut values = Vec::with_capacity(len * DIMS);
    for i in 0..len {
        for j in 0..DIMS {
            values.push((((i + seed * 131) * 13 + j * 7) as f64 * 0.011).sin());
        }
    }
    TimeSeries::from_flat(default_names(DIMS), 0, values)
}

/// The AE/BiGAN fit pool: pooled stride-1 windows capped by subsampling,
/// gathered into one batch.
fn bench_pooled_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled_windows_batch");
    let traces: Vec<TimeSeries> = (0..4).map(|s| trace(2_000, s)).collect();
    let train: Vec<&TimeSeries> = traces.iter().collect();
    group.bench_function("zero_copy", |bench| {
        bench.iter(|| {
            let ws = pooled_windows(&train, WINDOW, 2_000);
            black_box(window_batch(&ws))
        });
    });
    group.finish();
}

/// The AE score path: every stride-1 window of a test trace gathered
/// into one inference batch.
fn bench_score_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_batch");
    let test = trace(2_000, 7);
    group.bench_function("zero_copy", |bench| {
        bench.iter(|| {
            let ws = WindowSet::from_series(&test, WINDOW, 1);
            black_box(window_batch(&ws))
        });
    });
    group.finish();
}

/// Staged (materialized resampled intermediate) vs fused streaming
/// resample+rescale.
fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("test_transform");
    let test = trace(4_000, 11);
    let scaler = StandardScaler::fit_pooled(&[&test]);
    group.bench_function("staged", |bench| {
        bench.iter(|| {
            let mut dynamic = DynamicScaler::from_standard(scaler.clone(), 0.004);
            let unscaled = resample_mean(&test, 5);
            black_box(dynamic.transform_series(&unscaled))
        });
    });
    group.bench_function("fused", |bench| {
        bench.iter(|| {
            let mut dynamic = DynamicScaler::from_standard(scaler.clone(), 0.004);
            black_box(dynamic.transform_series_resampled(&test, 5))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pooled_batch, bench_score_batch, bench_transform);
criterion_main!(benches);
