//! Property-based and behavioural tests on the neural substrate: training
//! must make progress on learnable problems for a range of shapes and
//! seeds, and inference must be shape-safe.

use exathlon_linalg::Matrix;
use exathlon_nn::activation::Activation;
use exathlon_nn::optimizer::Optimizer;
use exathlon_nn::Mlp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A linear MLP fits a random linear map from any seed.
    #[test]
    fn linear_mlp_fits_linear_map(seed in 0u64..1000, w0 in -2.0f64..2.0, w1 in -2.0f64..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[(2, 1, Activation::Identity)], &mut rng);
        let x = Matrix::from_fn(64, 2, |i, j| ((i * 2 + j) as f64 * 0.61).sin());
        let y = Matrix::from_fn(64, 1, |i, _| w0 * x[(i, 0)] + w1 * x[(i, 1)]);
        let history = mlp.fit(&x, &y, 400, 16, &Optimizer::adam(0.02), &mut rng);
        prop_assert!(
            history[399] < 5e-3,
            "seed {seed}: failed to fit y = {w0} x0 + {w1} x1 (loss {})",
            history[399]
        );
    }

    /// Training never produces non-finite losses for reasonable learning
    /// rates.
    #[test]
    fn training_stays_finite(seed in 0u64..1000, lr in 1e-4f64..5e-3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(
            &[(3, 8, Activation::Tanh), (8, 3, Activation::Identity)],
            &mut rng,
        );
        let x = Matrix::from_fn(32, 3, |i, j| ((i + j) as f64 * 0.37).sin());
        let history = mlp.fit(&x, &x, 30, 8, &Optimizer::adam(lr), &mut rng);
        prop_assert!(history.iter().all(|l| l.is_finite()), "diverged: {history:?}");
    }

    /// Prediction shape always matches (batch, out_dim) for arbitrary
    /// batch sizes.
    #[test]
    fn predict_shape(n in 1usize..40, in_dim in 1usize..6, out_dim in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[(in_dim, out_dim, Activation::Tanh)], &mut rng);
        let x = Matrix::zeros(n, in_dim);
        let y = mlp.predict(&x);
        prop_assert_eq!(y.shape(), (n, out_dim));
    }

    /// One-row inference is bitwise the matching row of the batch
    /// prediction: layer widths off every tile width (4, 8, 16), batches
    /// that fill whole SIMD tiles and ragged ones, and inputs wider than
    /// the GEMM's `KC` = 256 panel, so the batch side sums over more than
    /// one `k`-panel.
    #[test]
    fn predict_row_matches_batch_rows_bitwise(
        seed in 0u64..1000,
        n in 1usize..20,
        wide in any::<bool>(),
        in_narrow in 1usize..40,
        hidden in proptest::collection::vec(1usize..40, 1..4),
        act in 0usize..5,
    ) {
        let act = [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ][act];
        let in_dim = if wide { exathlon_linalg::kernel::KC + 1 + in_narrow } else { in_narrow };
        let mut specs = Vec::new();
        let mut prev = in_dim;
        for &h in &hidden {
            specs.push((prev, h, act));
            prev = h;
        }
        specs.push((prev, in_dim, Activation::Identity));
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&specs, &mut rng);
        let x = Matrix::from_fn(n, in_dim, |i, j| ((i * in_dim + j) as f64 * 0.37 + seed as f64).sin() * 3.0);
        let batch = mlp.predict(&x);
        for i in 0..n {
            let row = mlp.predict_row_with(x.row(i), <[f64]>::to_vec);
            prop_assert_eq!(row.len(), in_dim);
            for (j, (a, b)) in row.iter().zip(batch.row(i)).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {} col {}: {} vs {}", i, j, a, b);
            }
        }
    }
}

/// Autoencoder bottleneck behaviour: reconstruction of rank-1 data through
/// a 1-unit code succeeds; through a 0-variance direction the residual
/// stays bounded.
#[test]
fn autoencoder_bottleneck_rank() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ae = Mlp::autoencoder(3, &[], 1, Activation::Identity, &mut rng);
    let x = Matrix::from_fn(60, 3, |i, j| {
        let t = i as f64 / 30.0 - 1.0;
        t * [1.0, -2.0, 0.5][j]
    });
    let h = ae.fit(&x, &x, 500, 12, &Optimizer::adam(0.01), &mut rng);
    assert!(h[499] < 1e-3, "rank-1 data must pass a 1-unit bottleneck: {}", h[499]);
}
