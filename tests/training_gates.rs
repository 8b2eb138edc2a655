//! Training-step allocation gate, under debug and release: once three
//! warm-up steps have sized the per-network workspaces, one fused
//! training step allocates at most
//!
//! | model | step | allocations |
//! |---|---|---|
//! | AE 152-64-10 (ReLU) | `Mlp::train_batch` | ≤ 1 |
//! | LSTM 19-24 forecaster | `Lstm::train_batch_flat` | 0 |
//! | BiGAN (latent 6, hidden 48) | `BiGan::train_batch` | ≤ 1 |
//!
//! on the `FS_custom` window shape (19 features × 8 records) with
//! minibatches of 32.
//!
//! The one allocation is `exathlon_linalg::par::max_threads`: the AE's
//! and the BiGAN's larger GEMMs reach the parallel cut-off check in
//! `kernel::gemm_into`, which reads `EXATHLON_THREADS` through
//! `std::env::var`, and that copies the value into a one-byte `String`.
//! The LSTM's GEMMs stay under the cut-off and never read it.
//!
//! The test sets `EXATHLON_THREADS=1`, so no GEMM fans out to worker
//! threads and the per-thread count of `common::alloc` covers the whole
//! step. The variable is process-wide, so this binary holds this one test.

mod common {
    pub mod alloc;
}

use common::alloc::thread_allocs;
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
/// Flattened window dimensionality of the AE and the BiGAN.
const FLAT: usize = DIMS * WINDOW;
const BATCH: usize = 32;
const WARM_UP_STEPS: usize = 3;

/// Deterministic pseudo-window batch: `n` flattened windows of `dim`.
fn sample_matrix(n: usize, dim: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, dim, |i, j| (((i + seed * 131) * 13 + j * 7) as f64 * 0.011).sin())
}

/// Allocations on this thread during one `step`, after the warm-up steps.
fn steady_state_allocs(mut step: impl FnMut()) -> u64 {
    for _ in 0..WARM_UP_STEPS {
        step();
    }
    let before = thread_allocs();
    step();
    thread_allocs() - before
}

#[test]
fn warmed_training_steps_allocate_at_most_the_thread_cap_read() {
    std::env::set_var(exathlon_linalg::par::THREADS_ENV, "1");
    let opt = Optimizer::adam(1e-3);

    let mut rng = StdRng::seed_from_u64(7);
    let mut ae = Mlp::autoencoder(FLAT, &[64], 10, Activation::Relu, &mut rng);
    let xb = sample_matrix(BATCH, FLAT, 3);
    let ae_allocs = steady_state_allocs(|| {
        ae.train_batch(&xb, &xb, &opt);
    });

    let mut lstm = Lstm::new(DIMS, 24, DIMS, &mut StdRng::seed_from_u64(11));
    // Forecast pairs: the first WINDOW - 1 records as input, the last
    // record as target.
    let windows: Vec<Matrix> = (0..BATCH).map(|s| sample_matrix(WINDOW, DIMS, s)).collect();
    let batch: Vec<(&[f64], &[f64])> =
        windows.iter().map(|w| w.as_slice().split_at((WINDOW - 1) * DIMS)).collect();
    let lstm_allocs = steady_state_allocs(|| {
        lstm.train_batch_flat(&batch, &opt);
    });

    let mut gan = BiGan::new(FLAT, 6, 48, &mut StdRng::seed_from_u64(29));
    let gb = sample_matrix(BATCH, FLAT, 4);
    let mut grng = StdRng::seed_from_u64(41);
    let gan_allocs = steady_state_allocs(|| {
        gan.train_batch(&gb, &opt, &mut grng);
    });

    assert!(ae_allocs <= 1, "AE train_batch allocated {ae_allocs} times");
    assert_eq!(lstm_allocs, 0, "LSTM train_batch_flat allocated");
    assert!(gan_allocs <= 1, "BiGAN train_batch allocated {gan_allocs} times");
}
