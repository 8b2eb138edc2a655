//! Times the zero-copy window data plane: view-based pooled windows and
//! gathered batches, and the fused resample+rescale transform against the
//! staged two-pass version (both chains are called directly).
//!
//! Runs single-threaded (`EXATHLON_THREADS=1` is forced up front) so the
//! numbers measure the data plane, not the worker pool. Also meters the
//! bytes the gathers copy via the `dataplane.gather_bytes` observability
//! counter. Writes `results/BENCH_dataplane.json`, carrying forward the
//! last measurement against the materialized-window path as frozen
//! historical rows: that copy-per-window path no longer exists, so it is
//! not re-measured.

use exathlon_ad::scorer::{pooled_windows, window_batch};
use exathlon_tsdata::resample::resample_mean;
use exathlon_tsdata::scale::{DynamicScaler, StandardScaler};
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::window::WindowSet;
use exathlon_tsdata::TimeSeries;
use std::time::Instant;

/// The AE/LSTM shape on `FS_custom`: 19 features, window 8.
const DIMS: usize = 19;
const WINDOW: usize = 8;
/// Training pool: 10 traces of 4,000 records; window cap as in AE fit.
const TRACES: usize = 10;
const TRACE_LEN: usize = 4_000;
const MAX_WINDOWS: usize = 4_000;

/// The last measurement of the pre-dataplane materialized path against
/// the then-new data plane (ns/op medians and metered bytes on the same
/// workload), frozen as a historical record.
const HISTORICAL: &str = r#"{
    "source": "materialized-window baseline, measured while that path existed (frozen, not re-measured)",
    "groups": [
      {"name": "pooled_windows_batch", "baseline_ns": 42884475, "dataplane_ns": 922263, "speedup": 46.50},
      {"name": "ae_score_batch", "baseline_ns": 3920144, "dataplane_ns": 579872, "speedup": 6.76}
    ],
    "bytes": {"gather_bytes": 9719488, "materialized_bytes": 72857856, "copy_reduction": 7.50}
  }"#;

/// Median wall time of `reps` calls, in ns/op (each call is one op).
fn median_ns(reps: usize, mut op: impl FnMut()) -> f64 {
    assert!(reps > 0);
    // One warm-up call outside the sample.
    op();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn trace(len: usize, seed: usize) -> TimeSeries {
    let mut values = Vec::with_capacity(len * DIMS);
    for i in 0..len {
        for j in 0..DIMS {
            values.push((((i + seed * 131) * 13 + j * 7) as f64 * 0.011).sin());
        }
    }
    TimeSeries::from_flat(default_names(DIMS), 0, values)
}

/// The full training-pool path of AE/BiGAN fit: pooled stride-1
/// windows, subsampled to the cap, gathered into one batch matrix.
fn run_pooled_batch(train: &[&TimeSeries]) {
    let ws = pooled_windows(train, WINDOW, MAX_WINDOWS);
    std::hint::black_box(window_batch(&ws));
}

/// The AE score path: every stride-1 window of a test trace gathered
/// into one inference batch.
fn run_score_batch(test: &TimeSeries) {
    let ws = WindowSet::from_series(test, WINDOW, 1);
    std::hint::black_box(window_batch(&ws));
}

/// Staged test-time transform: materialize the resampled intermediate,
/// then rescale it (the pre-dataplane chain).
fn run_staged_transform(test: &TimeSeries, scaler: &StandardScaler, l: usize) {
    let mut dynamic = DynamicScaler::from_standard(scaler.clone(), 0.004);
    let unscaled = resample_mean(test, l);
    std::hint::black_box(dynamic.transform_series(&unscaled));
}

/// Fused test-time transform: resample and rescale in one streaming
/// pass, no intermediate series.
fn run_fused_transform(test: &TimeSeries, scaler: &StandardScaler, l: usize) {
    let mut dynamic = DynamicScaler::from_standard(scaler.clone(), 0.004);
    std::hint::black_box(dynamic.transform_series_resampled(test, l));
}

/// Meter the bytes the representative window workload (fit pool +
/// gather, score batch) copies, via the `dataplane.gather_bytes` counter.
fn measure_gather_bytes(train: &[&TimeSeries], test: &TimeSeries) -> u64 {
    exathlon_linalg::obs::reset();
    run_pooled_batch(train);
    run_score_batch(test);
    let report = exathlon_linalg::obs::report();
    report.counters.iter().find(|(n, _)| n == "dataplane.gather_bytes").map_or(0, |&(_, v)| v)
}

fn to_json(
    pooled_ns: f64,
    score_ns: f64,
    staged_ns: f64,
    fused_ns: f64,
    gather_bytes: u64,
) -> String {
    format!(
        "{{\n  \"threads\": 1,\n  \"unit\": \"ns/op (median)\",\n  \"groups\": [\n    \
         {{\"name\": \"pooled_windows_batch\", \"dataplane_ns\": {pooled_ns:.0}}},\n    \
         {{\"name\": \"ae_score_batch\", \"dataplane_ns\": {score_ns:.0}}},\n    \
         {{\"name\": \"fused_transform\", \"baseline_ns\": {staged_ns:.0}, \
         \"dataplane_ns\": {fused_ns:.0}, \"speedup\": {:.2}}}\n  ],\n  \
         \"bytes\": {{\"gather_bytes\": {gather_bytes}}},\n  \"historical\": {HISTORICAL}\n}}\n",
        staged_ns / fused_ns
    )
}

fn main() {
    // Single-core measurement: set before the first kernel call.
    std::env::set_var(exathlon_linalg::par::THREADS_ENV, "1");
    // Counters are metered below; the timing loops run with profiling off
    // so the data plane is measured without the recording overhead.
    std::env::remove_var(exathlon_linalg::obs::PROFILE_ENV);
    exathlon_linalg::obs::refresh();

    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 5 } else { 15 };

    let traces: Vec<TimeSeries> = (0..TRACES).map(|s| trace(TRACE_LEN, s)).collect();
    let train: Vec<&TimeSeries> = traces.iter().collect();
    let test = trace(TRACE_LEN, TRACES);
    let scaler = StandardScaler::fit_pooled(&train);

    println!("Window data-plane benchmarks (single-threaded, {reps} reps, median):\n");
    let pooled_ns = median_ns(reps, || run_pooled_batch(&train));
    let score_ns = median_ns(reps * 3, || run_score_batch(&test));
    let staged_ns = median_ns(reps * 3, || run_staged_transform(&test, &scaler, 5));
    let fused_ns = median_ns(reps * 3, || run_fused_transform(&test, &scaler, 5));
    println!("{:<22} {:>14.0} ns", "pooled_windows_batch", pooled_ns);
    println!("{:<22} {:>14.0} ns", "ae_score_batch", score_ns);
    println!(
        "{:<22} {:>14.0} ns staged vs {fused_ns:.0} ns fused ({:.2}x)",
        "fused_transform",
        staged_ns,
        staged_ns / fused_ns
    );

    // Byte metering: one workload, profiling on.
    std::env::set_var(exathlon_linalg::obs::PROFILE_ENV, "1");
    exathlon_linalg::obs::refresh();
    let gather_bytes = measure_gather_bytes(&train, &test);
    std::env::remove_var(exathlon_linalg::obs::PROFILE_ENV);
    exathlon_linalg::obs::refresh();
    println!("\nbytes copied by the gathers: {gather_bytes}");

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_dataplane.json");
    std::fs::write(&path, to_json(pooled_ns, score_ns, staged_ns, fused_ns, gather_bytes))
        .expect("write BENCH_dataplane.json");
    println!("\nWrote {}", path.display());
}
