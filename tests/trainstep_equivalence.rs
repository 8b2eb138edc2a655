//! End-to-end numerics contract of the fused training step: running the
//! full pipeline with the SIMD elementwise kernels and reused training
//! workspaces produces *bitwise identical* results to the clone-heavy
//! training loop they replaced.
//!
//! Every fused path is a pure expression rewrite — same accumulation
//! order, mul-then-add (never FMA), correctly-rounded AVX2 lanes — so
//! trained weights, scores, thresholds, and metrics must all match to
//! the bit. The three learned models (AE, LSTM forecaster, BiGAN) cover
//! the dense forward/backward epilogues, BPTT, and the adversarial
//! two-step respectively.
//!
//! The clone-heavy loop no longer ships; its output is pinned by the
//! golden digests, which it produced exactly for these three models. The
//! per-layer oracles live in the `exathlon-nn` unit tests.

mod common {
    pub mod golden;
}

use exathlon_core::config::AdMethod;

/// The gradient-trained models: dense autoencoder (Dense/Mlp epilogues
/// and Adam), LSTM forecaster (fused BPTT workspace), and BiGAN (the
/// cached two-step adversarial batch).
const METHODS: [AdMethod; 3] = [AdMethod::Ae, AdMethod::Lstm, AdMethod::BiGan];

#[test]
fn pipeline_bitwise_identical_with_naive_elementwise() {
    common::golden::assert_golden(&METHODS);
}
