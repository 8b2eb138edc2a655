//! Micro-benchmarks of the fused training step (SIMD elementwise
//! kernels + reused per-network workspaces). One group per learned model:
//! dense autoencoder batch, LSTM BPTT batch, and the BiGAN adversarial
//! two-step, one minibatch per iteration. The steps' steady-state
//! allocation counts are gated by `tests/training_gates.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use exathlon_linalg::Matrix;
use exathlon_nn::activation::Activation;
use exathlon_nn::gan::BiGan;
use exathlon_nn::lstm::Lstm;
use exathlon_nn::mlp::Mlp;
use exathlon_nn::optimizer::Optimizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIMS: usize = 19;
const WINDOW: usize = 8;
const AE_IN: usize = DIMS * WINDOW;
const BATCH: usize = 32;

fn sample_matrix(n: usize, dim: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, dim, |i, j| (((i + seed * 131) * 13 + j * 7) as f64 * 0.011).sin())
}

/// One Adam minibatch through the 152-64-10 ReLU autoencoder.
fn bench_ae_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("ae_train_batch");
    let mut rng = StdRng::seed_from_u64(7);
    let mut ae = Mlp::autoencoder(AE_IN, &[64], 10, Activation::Relu, &mut rng);
    let xb = sample_matrix(BATCH, AE_IN, 3);
    let opt = Optimizer::adam(1e-3);
    group.bench_function("fused", |bench| {
        bench.iter(|| black_box(ae.train_batch(&xb, &xb, &opt)));
    });
    group.finish();
}

/// One BPTT minibatch through the 19-24 forecaster (window 8 → 7 steps).
fn bench_lstm_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm_train_batch");
    let mut rng = StdRng::seed_from_u64(11);
    let mut lstm = Lstm::new(DIMS, 24, DIMS, &mut rng);
    let seqs: Vec<(Vec<f64>, Vec<f64>)> = (0..BATCH)
        .map(|s| {
            let m = sample_matrix(WINDOW, DIMS, s);
            let flat = m.as_slice();
            (flat[..(WINDOW - 1) * DIMS].to_vec(), flat[(WINDOW - 1) * DIMS..].to_vec())
        })
        .collect();
    let views: Vec<(&[f64], &[f64])> = seqs.iter().map(|(s, t)| (&s[..], &t[..])).collect();
    let opt = Optimizer::adam(1e-3);
    group.bench_function("fused", |bench| {
        bench.iter(|| black_box(lstm.train_batch_flat(&views, &opt)));
    });
    group.finish();
}

/// One adversarial two-step (discriminator + generator/encoder) of the
/// 152-latent6-hidden48 BiGAN.
fn bench_gan_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("gan_train_batch");
    let mut rng = StdRng::seed_from_u64(29);
    let mut gan = BiGan::new(AE_IN, 6, 48, &mut rng);
    let xb = sample_matrix(BATCH, AE_IN, 4);
    let opt = Optimizer::adam(1e-3);
    group.bench_function("fused", |bench| {
        let mut trng = StdRng::seed_from_u64(41);
        bench.iter(|| black_box(gan.train_batch(&xb, &opt, &mut trng)));
    });
    group.finish();
}

criterion_group!(benches, bench_ae_step, bench_lstm_step, bench_gan_step);
criterion_main!(benches);
