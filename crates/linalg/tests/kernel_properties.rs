//! Property-based regression tests for the dense kernel layer: the
//! blocked/SIMD GEMM paths against the retained naive references, the
//! Gram-trick distance kernel against the retained scalar loop (at the
//! 1e-9 relative tolerance the numerics contract pins), and bitwise
//! determinism of the row-block parallel GEMM across thread counts.

use exathlon_linalg::kernel::{
    self, naive_matmul, naive_matmul_transpose, naive_sq_distance, naive_transpose_matmul,
    DistanceKernel,
};
use exathlon_linalg::par::THREADS_ENV;
use exathlon_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes mutations of `EXATHLON_THREADS` within this test binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Arbitrary rectangular matrix, dimensions in `[lo, hi)` per axis —
/// `lo = 0` exercises degenerate shapes.
fn arb_matrix(lo: usize, hi: usize) -> impl Strategy<Value = Matrix> {
    (lo..hi, lo..hi).prop_flat_map(|(n, m)| {
        proptest::collection::vec(-100.0f64..100.0, n * m)
            .prop_map(move |data| Matrix::from_vec(n, m, data))
    })
}

/// Feature values laced with NaN and ±∞ — the distance kernel must
/// sanitize these identically to the retained scalar loop. The finite
/// arm is repeated so non-finite values stay rare but present.
fn arb_messy_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3..1e3f64,
        -1e3..1e3f64,
        -1e3..1e3f64,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_messy_rows(dims: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(arb_messy_value(), dims), 1..max_rows)
}

proptest! {
    /// Blocked GEMM is bitwise identical to the naive `i-k-j` loop for
    /// finite inputs: every output element is a single accumulator
    /// walking `k` in ascending order in both, and the naive `a == 0`
    /// skip only elides `±0·b` terms, which cannot change a
    /// round-to-nearest partial sum that starts at `+0.0`.
    #[test]
    fn matmul_is_bitwise_naive(a in arb_matrix(0, 24), b_cols in 0usize..24,
                               seed in proptest::collection::vec(-50.0f64..50.0, 0..600)) {
        let k = a.cols();
        prop_assume!(seed.len() >= k * b_cols);
        let b = Matrix::from_vec(k, b_cols, seed[..k * b_cols].to_vec());
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        prop_assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    /// `A·Bᵀ` (with or without the SIMD transpose-then-`A·B` rewrite)
    /// is bitwise identical to the naive explicit-transpose product.
    #[test]
    fn matmul_transpose_is_bitwise_naive(a in arb_matrix(0, 20), b_rows in 0usize..20,
                                         seed in proptest::collection::vec(-50.0f64..50.0, 0..500)) {
        let k = a.cols();
        prop_assume!(seed.len() >= k * b_rows);
        let b = Matrix::from_vec(b_rows, k, seed[..b_rows * k].to_vec());
        let fast = a.matmul_transpose(&b);
        let slow = naive_matmul_transpose(&a, &b);
        prop_assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    /// `Aᵀ·B` is bitwise identical to the naive explicit-transpose
    /// product (the dense-backprop / covariance shape).
    #[test]
    fn transpose_matmul_is_bitwise_naive(a in arb_matrix(0, 20), b_cols in 0usize..20,
                                         seed in proptest::collection::vec(-50.0f64..50.0, 0..500)) {
        let k = a.rows();
        prop_assume!(seed.len() >= k * b_cols);
        let b = Matrix::from_vec(k, b_cols, seed[..k * b_cols].to_vec());
        let fast = a.transpose_matmul(&b);
        let slow = naive_transpose_matmul(&a, &b);
        prop_assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    /// Blocked transpose round-trips and matches the naive index swap.
    #[test]
    fn transpose_matches_naive(a in arb_matrix(0, 40)) {
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (a.cols(), a.rows()));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert_eq!(a[(i, j)].to_bits(), t[(j, i)].to_bits());
            }
        }
        let back = t.transpose();
        prop_assert_eq!(back.as_slice(), a.as_slice());
    }

    /// Gram-trick batched distances agree with the retained scalar loop
    /// within 1e-9 relative error, including on NaN/∞-laden inputs
    /// (both paths sanitize with the same rule).
    #[test]
    fn distance_kernel_matches_scalar(sets in (1usize..8).prop_flat_map(|d| {
        (arb_messy_rows(d, 20), arb_messy_rows(d, 12))
    })) {
        let (refs, queries) = sets;
        let kernel = DistanceKernel::fit(&refs);
        let batched = kernel.sq_distances(&queries);
        prop_assert_eq!(batched.shape(), (queries.len(), refs.len()));
        for (i, q) in queries.iter().enumerate() {
            for (j, r) in refs.iter().enumerate() {
                let scalar = naive_sq_distance(q, r);
                let fast = batched[(i, j)];
                let tol = 1e-9 * scalar.abs().max(1.0);
                prop_assert!((fast - scalar).abs() <= tol,
                    "distance ({i},{j}): batched {fast} vs scalar {scalar}");
            }
        }
    }

    /// The reference set's self-distance matrix is consistent with
    /// querying the references back through the batched path.
    #[test]
    fn self_distances_match_query_path(refs in (1usize..6).prop_flat_map(|d| arb_messy_rows(d, 14))) {
        let kernel = DistanceKernel::fit(&refs);
        let self_d = kernel.self_sq_distances();
        let query_d = kernel.sq_distances(&refs);
        prop_assert_eq!(self_d.shape(), query_d.shape());
        for (x, y) in self_d.as_slice().iter().zip(query_d.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Degenerate and boundary shapes the blocked loops must not mishandle:
/// empty `k`, 1×1, single-row/column, and sizes straddling every tile
/// edge (4/8/16-wide SIMD tiles, 64-row parallel blocks).
#[test]
fn gemm_edge_shapes_match_naive() {
    let shapes = [
        (1, 1, 1),
        (1, 1, 0),
        (0, 4, 3),
        (4, 0, 3),
        (5, 7, 0),
        (1, 33, 9),
        (129, 1, 5),
        (67, 41, 23),
    ];
    for (m, n, k) in shapes {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(fast.shape(), slow.shape(), "shape for {m}x{k}x{n}");
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}: {x} vs {y}");
        }
    }
}

/// Row-block parallel GEMM must be bitwise identical to the
/// single-threaded kernel for every thread count: the decomposition is
/// fixed-size blocks joined in input order, never derived from the
/// worker count.
#[test]
fn parallel_gemm_is_bitwise_deterministic() {
    let _guard = ENV_LOCK.lock().unwrap();
    // Big enough to take the parallel path (m ≥ 2 row blocks, ≥ 128k flop).
    let a = Matrix::from_fn(200, 48, |i, j| ((i * 13 + j * 29) % 101) as f64 * 0.37 - 18.0);
    let b = Matrix::from_fn(48, 96, |i, j| ((i * 41 + j * 11) % 97) as f64 * 0.21 - 10.0);
    let prev = std::env::var(THREADS_ENV).ok();
    let mut results = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var(THREADS_ENV, threads);
        results.push(a.matmul(&b));
    }
    match prev {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    let baseline = &results[0];
    for (idx, r) in results.iter().enumerate().skip(1) {
        assert_eq!(r.shape(), baseline.shape());
        for (x, y) in r.as_slice().iter().zip(baseline.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "thread-count run {idx} diverged: {x} vs {y}");
        }
    }
}

/// The `_into` GEMM forms at a shape past the fan-out threshold (≥ 2 row
/// blocks, ≥ 128k flop) write the naive references' bits into a dirty,
/// wrongly shaped buffer at every thread count — the serial branch at 1
/// thread, the row-block slabs (including the `Aᵀ·B` column re-base of
/// `A`) above it.
#[test]
fn parallel_gemm_into_matches_naive_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (m, k, n) = (200, 48, 96);
    let a = Matrix::from_fn(m, k, |i, j| ((i * 13 + j * 29) % 101) as f64 * 0.37 - 18.0);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 41 + j * 11) % 97) as f64 * 0.21 - 10.0);
    let bt = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 23) % 89) as f64 * 0.29 - 12.0);
    let at = Matrix::from_fn(k, m, |i, j| ((i * 19 + j * 5) % 83) as f64 * 0.31 - 13.0);
    let want =
        [naive_matmul(&a, &b), naive_matmul_transpose(&a, &bt), naive_transpose_matmul(&at, &b)];
    let prev = std::env::var(THREADS_ENV).ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var(THREADS_ENV, threads);
        let dirty = || Matrix::from_vec(3, 1, vec![7.0, -7.0, f64::NAN]);
        let mut got = [dirty(), dirty(), dirty()];
        kernel::matmul_into(&a, &b, &mut got[0]);
        kernel::matmul_transpose_into(&a, &bt, &mut dirty(), &mut got[1]);
        kernel::transpose_matmul_into(&at, &b, &mut got[2]);
        for (variant, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), (m, n), "threads {threads}, variant {variant}");
            for (x, y) in g.as_slice().iter().zip(w.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads {threads}, variant {variant}");
            }
        }
    }
    match prev {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
}
