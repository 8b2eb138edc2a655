//! Times the fused training step (SIMD elementwise kernels + reused
//! workspaces) per epoch for the AE, the LSTM forecaster and the BiGAN,
//! and meters its steady-state heap allocations per step with a counting
//! global allocator — the step must be near allocation-free.
//!
//! Runs single-threaded (`EXATHLON_THREADS=1` is forced up front) so the
//! numbers measure the training step, not the worker pool. Writes
//! `results/BENCH_train.json`, carrying forward the last measurement of
//! the old clone-heavy training loop as frozen historical rows: that loop
//! no longer exists, so it is not re-measured.

use exathlon_linalg::Matrix;
use exathlon_nn::activation::Activation;
use exathlon_nn::gan::BiGan;
use exathlon_nn::lstm::Lstm;
use exathlon_nn::mlp::Mlp;
use exathlon_nn::optimizer::Optimizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The AE/LSTM shape on `FS_custom`: 19 features, window 8.
const DIMS: usize = 19;
const WINDOW: usize = 8;
/// Flattened AE window dimensionality.
const AE_IN: usize = DIMS * WINDOW;
/// Training-pool sizes, scaled down from the paper's 4,000-window cap so
/// one epoch stays measurable in seconds on one core.
const AE_SAMPLES: usize = 512;
const LSTM_SAMPLES: usize = 128;
const GAN_SAMPLES: usize = 256;
const BATCH: usize = 32;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Pass-through allocator that counts allocation events and bytes —
/// the "allocation-free steady state" claim is measured, not asserted.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events and bytes during `op`.
fn count_allocs(mut op: impl FnMut()) -> (u64, u64) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    op();
    (ALLOC_CALLS.load(Ordering::Relaxed) - calls0, ALLOC_BYTES.load(Ordering::Relaxed) - bytes0)
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

/// The last interleaved measurement of the pre-fusion clone-heavy loop
/// (`naive_*`) against the fused step on the same workloads, frozen as a
/// historical record.
const HISTORICAL: &str = r#"{
    "source": "clone-heavy training-loop baseline, measured while that loop existed (frozen, not re-measured)",
    "groups": [
      {"name": "ae_epoch", "naive_ns": 5610350, "fused_ns": 4853446, "speedup": 1.16},
      {"name": "lstm_epoch", "naive_ns": 5338462, "fused_ns": 4165544, "speedup": 1.28},
      {"name": "gan_epoch", "naive_ns": 6805228, "fused_ns": 4948300, "speedup": 1.38}
    ],
    "steady_state_allocs_per_step": [
      {"name": "ae_step", "fused_allocs": 1, "fused_bytes": 1, "naive_allocs": 51, "naive_bytes": 816146},
      {"name": "lstm_step", "fused_allocs": 0, "fused_bytes": 0, "naive_allocs": 4518, "naive_bytes": 9345318},
      {"name": "gan_step", "fused_allocs": 1, "fused_bytes": 1, "naive_allocs": 232, "naive_bytes": 2569757}
    ]
  }"#;

/// Median wall time of `reps` calls after one warm-up call (which sizes
/// the workspaces), in ns.
fn median_ns(reps: usize, mut op: impl FnMut()) -> f64 {
    assert!(reps > 0);
    op();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Deterministic pseudo-window batch: `n` flattened windows of `dim`.
fn sample_matrix(n: usize, dim: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, dim, |i, j| (((i + seed * 131) * 13 + j * 7) as f64 * 0.011).sin())
}

fn ae_net() -> Mlp {
    // ReLU autoencoder: transcendental-free, so the epoch cost is the
    // training-step machinery itself (GEMM epilogues, backprop buffers,
    // optimizer) rather than a mode-identical libm floor.
    let mut rng = StdRng::seed_from_u64(7);
    Mlp::autoencoder(AE_IN, &[64], 10, Activation::Relu, &mut rng)
}

fn lstm_net() -> Lstm {
    // The ad-crate forecaster shape: hidden 24 over the 19 raw features.
    let mut rng = StdRng::seed_from_u64(11);
    Lstm::new(DIMS, 24, DIMS, &mut rng)
}

fn gan_net() -> BiGan {
    // The ad-crate BiGAN shape on flattened windows: latent 6, hidden 48.
    let mut rng = StdRng::seed_from_u64(29);
    BiGan::new(AE_IN, 6, 48, &mut rng)
}

/// LSTM forecast pairs: window-1 steps of input, last record as target.
fn lstm_data(n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..n)
        .map(|s| {
            let m = sample_matrix(WINDOW, DIMS, s);
            let flat = m.as_slice();
            (flat[..(WINDOW - 1) * DIMS].to_vec(), flat[(WINDOW - 1) * DIMS..].to_vec())
        })
        .collect()
}

/// `(name, fused ns/epoch)` and `(name, allocs, bytes)` rows as JSON.
fn to_json(epochs: &[(&str, f64)], allocs: &[(&str, u64, u64)]) -> String {
    let epochs: Vec<String> = epochs
        .iter()
        .map(|(name, ns)| format!("    {{\"name\": \"{name}\", \"fused_ns\": {ns:.0}}}"))
        .collect();
    let allocs: Vec<String> = allocs
        .iter()
        .map(|(name, calls, bytes)| {
            format!(
                "    {{\"name\": \"{name}\", \"fused_allocs\": {calls}, \"fused_bytes\": {bytes}}}"
            )
        })
        .collect();
    format!(
        "{{\n  \"threads\": 1,\n  \"unit\": \"ns/epoch (median)\",\n  \"groups\": [\n{}\n  ],\n  \
         \"steady_state_allocs_per_step\": [\n{}\n  ],\n  \"historical\": {HISTORICAL}\n}}\n",
        epochs.join(",\n"),
        allocs.join(",\n")
    )
}

fn main() {
    // Single-core measurement: set before the first kernel call.
    std::env::set_var(exathlon_linalg::par::THREADS_ENV, "1");
    // Training counters are not needed here; keep profiling off so the
    // loops measure arithmetic, not recording overhead.
    std::env::remove_var(exathlon_linalg::obs::PROFILE_ENV);
    exathlon_linalg::obs::refresh();

    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 11 };

    let opt = Optimizer::adam(1e-3);
    let x = sample_matrix(AE_SAMPLES, AE_IN, 0);
    let gx = sample_matrix(GAN_SAMPLES, AE_IN, 5);
    let seqs = lstm_data(LSTM_SAMPLES);
    let seq_views: Vec<(&[f64], &[f64])> = seqs.iter().map(|(s, t)| (&s[..], &t[..])).collect();

    println!("Fused training-step benchmarks (single-threaded, {reps} reps, median):\n");

    // Persistent networks: the workspaces warm up once, then every epoch
    // reuses them — exactly the fit-loop steady state being measured.
    let mut ae = ae_net();
    let mut lstm = lstm_net();
    let mut gan = gan_net();
    let mut rng = StdRng::seed_from_u64(23);
    let mut grng = StdRng::seed_from_u64(31);
    let epochs = [
        (
            "ae_epoch",
            median_ns(reps, || {
                ae.fit(&x, &x, 1, BATCH, &opt, &mut rng);
            }),
        ),
        (
            "lstm_epoch",
            median_ns(reps, || {
                lstm.fit_flat(&seq_views, 1, BATCH, &opt, &mut rng);
            }),
        ),
        (
            "gan_epoch",
            median_ns(reps, || {
                gan.fit(&gx, 1, BATCH, &opt, &mut grng);
            }),
        ),
    ];
    for (name, ns) in &epochs {
        println!("{name:<14} {ns:>14.0} ns");
    }

    // Steady-state allocations of one training step, after warm-up. The
    // minibatch is prebuilt so the numbers isolate the step itself
    // (forward, backward, optimizer), like the fit loop's steady state
    // where batch scratch is already sized.
    let xb = sample_matrix(BATCH, AE_IN, 3);
    let gb = sample_matrix(BATCH, AE_IN, 4);
    let step_batch: Vec<(&[f64], &[f64])> = seq_views[..BATCH.min(seq_views.len())].to_vec();
    let mut arng = StdRng::seed_from_u64(41);
    for _ in 0..3 {
        ae.train_batch(&xb, &xb, &opt); // warm the workspaces
        lstm.train_batch_flat(&step_batch, &opt);
        gan.train_batch(&gb, &opt, &mut arng);
    }
    let (ae_calls, ae_bytes) = count_allocs(|| {
        ae.train_batch(&xb, &xb, &opt);
    });
    let (lstm_calls, lstm_bytes) = count_allocs(|| {
        lstm.train_batch_flat(&step_batch, &opt);
    });
    let (gan_calls, gan_bytes) = count_allocs(|| {
        gan.train_batch(&gb, &opt, &mut arng);
    });
    let allocs = [
        ("ae_step", ae_calls, ae_bytes),
        ("lstm_step", lstm_calls, lstm_bytes),
        ("gan_step", gan_calls, gan_bytes),
    ];
    println!("\nsteady-state allocations per training step (after warm-up):");
    for (name, calls, bytes) in &allocs {
        println!("{name:<14} {calls:>6} allocs {bytes:>10} bytes");
    }

    println!(
        "\nworkspace bytes held: ae {} lstm {} gan {}",
        ae.workspace_bytes(),
        lstm.workspace_bytes(),
        gan.workspace_bytes()
    );

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_train.json");
    std::fs::write(&path, to_json(&epochs, &allocs)).expect("write BENCH_train.json");
    println!("\nWrote {}", path.display());
}
