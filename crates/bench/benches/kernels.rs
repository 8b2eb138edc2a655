//! Micro-benchmarks of the numeric kernels everything else is built on:
//! matrix multiply, the Jacobi eigensolver / PCA, range-based P/R, and
//! AUPRC. These track the cost drivers behind the P1–P3 results.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exathlon_linalg::kernel::{naive_matmul, DistanceKernel};
use exathlon_linalg::pca::{ComponentSelection, Pca};
use exathlon_linalg::Matrix;
use exathlon_tsmetrics::auprc::auprc;
use exathlon_tsmetrics::presets::{evaluate_at_level, AdLevel};
use exathlon_tsmetrics::Range;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for n in [32usize, 64, 128] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j) as f64 * 0.01).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i + j * 17) as f64 * 0.01).cos());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

/// The retained naive triple loop against the blocked/SIMD kernel, at
/// the sizes the acceptance speedup (≥3x at 256) is defined on.
fn bench_gemm_naive_vs_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_naive_vs_kernel");
    for n in [64usize, 128, 256] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j) as f64 * 0.01).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i + j * 17) as f64 * 0.01).cos());
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| black_box(naive_matmul(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("kernel", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

/// The per-pair scalar distance loop against the Gram-trick batch, at
/// the kNN/LOF inference shape (19 features, as in `FS_custom`).
fn bench_distances_scalar_vs_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("distances_scalar_vs_batched");
    let dims = 19usize;
    for (queries, refs) in [(256usize, 512usize), (1024, 1024)] {
        let reference: Vec<Vec<f64>> = (0..refs)
            .map(|i| (0..dims).map(|j| ((i * 13 + j * 7) as f64 * 0.011).sin()).collect())
            .collect();
        let query: Vec<Vec<f64>> = (0..queries)
            .map(|i| (0..dims).map(|j| ((i * 5 + j * 29) as f64 * 0.017).cos()).collect())
            .collect();
        let kernel = DistanceKernel::fit(&reference);
        let id = format!("{queries}x{refs}");
        group.bench_with_input(BenchmarkId::new("scalar", &id), &id, |bench, _| {
            bench.iter(|| {
                for q in &query {
                    black_box(kernel.naive_sq_distances_to(q));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", &id), &id, |bench, _| {
            bench.iter(|| black_box(kernel.sq_distances(&query)));
        });
    }
    group.finish();
}

fn bench_pca(c: &mut Criterion) {
    let mut group = c.benchmark_group("pca_fit");
    for d in [19usize, 43] {
        let data = Matrix::from_fn(500, d, |i, j| ((i * j + i) as f64 * 0.013).sin());
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bench, _| {
            bench.iter(|| black_box(Pca::fit(&data, ComponentSelection::Fixed(8))));
        });
    }
    group.finish();
}

/// The shape of one `pipeline-batch` rule evaluation: ~100 real ranges
/// against ~1,000 short predicted ones, in start order, with one pair of
/// overlapping real ranges. An all-pairs scorer pays 100 × 1,000 range
/// comparisons here; the sorted sweep pays the overlaps.
fn bench_range_pr(c: &mut Criterion) {
    let mut real: Vec<Range> = (0..100).map(|i| Range::new(i * 1000, i * 1000 + 300)).collect();
    real[50] = Range::new(50_000, 51_100);
    let predicted: Vec<Range> = (0..1000).map(|j| Range::new(j * 100 + 10, j * 100 + 40)).collect();
    c.bench_function("range_pr_ad2", |b| {
        b.iter(|| black_box(evaluate_at_level(&real, &predicted, AdLevel::Range)))
    });
    c.bench_function("range_pr_ad4", |b| {
        b.iter(|| black_box(evaluate_at_level(&real, &predicted, AdLevel::ExactlyOnce)))
    });
}

fn bench_auprc(c: &mut Criterion) {
    let n = 50_000;
    let scores: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64 / 1000.0).collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 17 == 0).collect();
    c.bench_function("auprc_50k", |b| b.iter(|| black_box(auprc(&scores, &labels))));
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gemm_naive_vs_kernel,
    bench_distances_scalar_vs_batched,
    bench_pca,
    bench_range_pr,
    bench_auprc
);
criterion_main!(benches);
