//! Fused elementwise kernels for the training step.
//!
//! The GEMM layer ([`crate::kernel`], PR 3) and the window data plane
//! (PR 4) left the train stage dominated by what surrounds the matmuls:
//! activation maps into fresh matrices, scalar bias loops, Hadamard
//! products materializing derivative matrices, and optimizers cloning
//! gradients. This module provides the fused, in-place replacements:
//!
//! * [`bias_act`] — the GEMM epilogue: bias-row broadcast-add and
//!   activation applied in one pass over the output buffer,
//! * [`act_backward`] — `dz = g ⊙ act'(y)` without materializing the
//!   derivative matrix,
//! * [`sgd_update`] / [`adam_update`] — optimizer write-back in one pass
//!   over `(value, grad, m, v)`, no gradient clone,
//! * [`accumulate`] / [`axpy`] / [`scale`] / [`outer_acc`] — the gradient
//!   plumbing (`grad += dw`, bias-row sums, rank-1 LSTM updates).
//!
//! # Bitwise contract
//!
//! Every kernel here keeps the PR 3 rules: mul + add, never FMA; fixed
//! per-element expression shape; and a retained scalar `naive_*`
//! reference for each fused entry point. The AVX2 paths use only
//! correctly-rounded IEEE-754 operations (`_mm256_{add,mul,div,sqrt}_pd`
//! and compare/blend selection), so for every input — including NaN, ±∞
//! and signed zeros — the fused result is bitwise identical to the scalar
//! reference (pinned by `crates/linalg/tests/elemwise_properties.rs`).
//! Transcendentals (`tanh`, the stable sigmoid) have no correctly-rounded
//! vector form, so the fused paths keep the scalar calls and win by
//! fusing the surrounding passes instead of vectorizing the function.
//!
//! ReLU is written as the explicit branch `if v > 0.0 { v } else { 0.0 }`
//! (compare + blend in SIMD) rather than `f64::max(v, 0.0)`: `fmax` does
//! not specify which zero `max(-0.0, +0.0)` returns, and the branch form
//! is the one both the scalar and vector paths can reproduce exactly.
//!
//! # Dispatch
//!
//! The fused entry points honor the same runtime ISA detection and
//! `EXATHLON_ISA` downgrade cap as the GEMM layer: the AVX2 lanes run
//! whenever a SIMD family is active, and the `naive_*` references are the
//! scalar fallback otherwise (and on non-x86 hosts). The references are
//! public so the property suite can pin each fused path against them.

/// True when the fused kernels should take the AVX2 lane path: a SIMD
/// family is active after the `EXATHLON_ISA` cap, which
/// [`crate::kernel`] selects only on CPUs with AVX2.
#[inline]
fn lanes_active() -> bool {
    crate::kernel::simd_active()
}

/// Activation kind, mirrored by `exathlon_nn::activation::Activation`
/// (the nn crate maps onto this; linalg stays free of nn types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// `x` for `x > 0`, else `0`.
    Relu,
    /// `x` for `x > 0`, else `0.2 x`.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Numerically-stable logistic sigmoid.
    Sigmoid,
    /// Identity.
    Identity,
}

impl Act {
    /// Apply the activation to one pre-activation value — the canonical
    /// scalar expression every fused path reproduces bitwise.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Act::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Act::LeakyRelu => {
                if v > 0.0 {
                    v
                } else {
                    0.2 * v
                }
            }
            Act::Tanh => v.tanh(),
            Act::Sigmoid => sigmoid(v),
            Act::Identity => v,
        }
    }

    /// Derivative w.r.t. the pre-activation, in terms of the output `y`.
    #[inline]
    pub fn deriv_from_output(self, y: f64) -> f64 {
        match self {
            Act::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::LeakyRelu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.2
                }
            }
            Act::Tanh => 1.0 - y * y,
            Act::Sigmoid => y * (1.0 - y),
            Act::Identity => 1.0,
        }
    }
}

/// Numerically-stable logistic sigmoid — the single canonical
/// implementation (`exathlon_nn::activation::sigmoid` delegates here).
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

// ---------------------------------------------------------------------------
// Fused entry points
// ---------------------------------------------------------------------------

/// GEMM epilogue: `data[r][j] = act(data[r][j] + bias[j])` for every row
/// of the row-major `rows x cols` buffer — the bias broadcast-add and
/// activation of a dense layer fused into one pass over the fresh GEMM
/// output, replacing a scalar bias loop plus an allocating activation map.
///
/// # Panics
/// Panics unless `data.len() == rows * cols` and `bias.len() == cols`.
pub fn bias_act(data: &mut [f64], rows: usize, cols: usize, bias: &[f64], act: Act) {
    assert_eq!(data.len(), rows * cols, "bias_act buffer shape mismatch");
    assert_eq!(bias.len(), cols, "bias_act bias length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
        // SIMD family, which it does only after detecting AVX2.
        unsafe { lanes::bias_act_avx2(data, cols, bias, act) };
        return;
    }
    naive_bias_act(data, rows, cols, bias, act);
}

/// Retained scalar reference for [`bias_act`].
pub fn naive_bias_act(data: &mut [f64], rows: usize, cols: usize, bias: &[f64], act: Act) {
    assert_eq!(data.len(), rows * cols, "bias_act buffer shape mismatch");
    assert_eq!(bias.len(), cols, "bias_act bias length mismatch");
    for row in data.chunks_exact_mut(cols.max(1)) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = act.apply(*v + b);
        }
    }
}

/// Activation backward: `dz[i] = grad[i] * act'(y[i])`, consuming the
/// forward *output* `y` — the Hadamard-with-derivative of backprop
/// without materializing the derivative matrix. The derivative factor is
/// computed first and then multiplied (two steps, exactly like the
/// retained `derivative_from_output` + `hadamard` pair), so signed zeros
/// propagate identically to the historical path.
///
/// # Panics
/// Panics on length mismatch.
pub fn act_backward(y: &[f64], grad: &[f64], dz: &mut [f64], act: Act) {
    assert_eq!(y.len(), grad.len(), "act_backward length mismatch");
    assert_eq!(y.len(), dz.len(), "act_backward output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
        // SIMD family, which it does only after detecting AVX2.
        unsafe { lanes::act_backward_avx2(y, grad, dz, act) };
        return;
    }
    naive_act_backward(y, grad, dz, act);
}

/// Retained scalar reference for [`act_backward`].
pub fn naive_act_backward(y: &[f64], grad: &[f64], dz: &mut [f64], act: Act) {
    assert_eq!(y.len(), grad.len(), "act_backward length mismatch");
    assert_eq!(y.len(), dz.len(), "act_backward output length mismatch");
    for ((d, &yi), &g) in dz.iter_mut().zip(y).zip(grad) {
        *d = g * act.deriv_from_output(yi);
    }
}

/// `dst[i] += src[i]` — the `grad += dw` accumulation.
///
/// # Panics
/// Panics on length mismatch.
pub fn accumulate(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "accumulate length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
        // SIMD family, which it does only after detecting AVX2.
        unsafe { lanes::accumulate_avx2(dst, src) };
        return;
    }
    naive_accumulate(dst, src);
}

/// Retained scalar reference for [`accumulate`].
pub fn naive_accumulate(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "accumulate length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `y[i] += alpha * x[i]` — the vector form of `Matrix::add_scaled`.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
        // SIMD family, which it does only after detecting AVX2.
        unsafe { lanes::axpy_avx2(alpha, x, y) };
        return;
    }
    naive_axpy(alpha, x, y);
}

/// Retained scalar reference for [`axpy`].
pub fn naive_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (o, &xi) in y.iter_mut().zip(x) {
        *o += xi * alpha;
    }
}

/// `data[i] *= s` — gradient averaging and clip scaling in place.
pub fn scale(data: &mut [f64], s: f64) {
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
        // SIMD family, which it does only after detecting AVX2.
        unsafe { lanes::scale_avx2(data, s) };
        return;
    }
    naive_scale(data, s);
}

/// Retained scalar reference for [`scale`].
pub fn naive_scale(data: &mut [f64], s: f64) {
    for v in data {
        *v *= s;
    }
}

/// Rank-1 accumulation `out[i][j] += a[i] * b[j]` into a row-major
/// `a.len() x b.len()` buffer — the LSTM gradient shape
/// `grad += outer(dz, x)` without materializing the outer product.
/// Rows with `a[i] == 0.0` are skipped, exactly like `Matrix::outer`
/// building a zero row: the accumulation target is unchanged even when
/// `b` holds non-finite values.
///
/// # Panics
/// Panics unless `out.len() == a.len() * b.len()`.
pub fn outer_acc(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), a.len() * b.len(), "outer_acc shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        for (&ai, row) in a.iter().zip(out.chunks_exact_mut(b.len().max(1))) {
            if ai == 0.0 {
                continue;
            }
            // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
            // SIMD family, which it does only after detecting AVX2.
            unsafe { lanes::axpy_avx2(ai, b, row) };
        }
        return;
    }
    naive_outer_acc(a, b, out);
}

/// Retained scalar reference for [`outer_acc`].
pub fn naive_outer_acc(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), a.len() * b.len(), "outer_acc shape mismatch");
    for (&ai, row) in a.iter().zip(out.chunks_exact_mut(b.len().max(1))) {
        if ai == 0.0 {
            continue;
        }
        for (o, &bj) in row.iter_mut().zip(b) {
            *o += bj * ai;
        }
    }
}

/// Fused in-place SGD step: `value[i] += grad[i] * (-lr)` — the same
/// expression `Matrix::add_scaled(&grad, -lr)` evaluates, minus the
/// gradient clone the historical optimizer path paid per step.
///
/// # Panics
/// Panics on length mismatch.
pub fn sgd_update(value: &mut [f64], grad: &[f64], lr: f64) {
    axpy(-lr, grad, value);
}

/// Retained scalar reference for [`sgd_update`].
pub fn naive_sgd_update(value: &mut [f64], grad: &[f64], lr: f64) {
    naive_axpy(-lr, grad, value);
}

/// Fused in-place Adam step: moment update, bias correction and
/// write-back in one pass over `(value, grad, m, v)`. Per element, with
/// `bc1 = 1 - β₁ᵗ` and `bc2 = 1 - β₂ᵗ` computed once:
///
/// ```text
/// m   = β₁·m + (1-β₁)·g
/// v   = β₂·v + ((1-β₂)·g)·g
/// val -= (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
/// ```
///
/// The grouping matches the historical scalar loop exactly (left-to-right
/// products, division before the subtraction), and every operation has a
/// correctly-rounded AVX2 form, so the vector path is bitwise identical.
///
/// # Panics
/// Panics on length mismatch or `t == 0`.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    value: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
) {
    assert!(t > 0, "adam step count must start at 1");
    assert_eq!(value.len(), grad.len(), "adam length mismatch");
    assert_eq!(value.len(), m.len(), "adam moment length mismatch");
    assert_eq!(value.len(), v.len(), "adam moment length mismatch");
    let bc1 = 1.0 - beta1.powi(t as i32);
    let bc2 = 1.0 - beta2.powi(t as i32);
    #[cfg(target_arch = "x86_64")]
    if lanes_active() {
        // SAFETY: `lanes_active` holds only when `kernel::isa()` chose a
        // SIMD family, which it does only after detecting AVX2.
        unsafe { lanes::adam_avx2(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2) };
        return;
    }
    adam_scalar(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2);
}

/// Retained scalar reference for [`adam_update`].
#[allow(clippy::too_many_arguments)]
pub fn naive_adam_update(
    value: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
) {
    assert!(t > 0, "adam step count must start at 1");
    assert_eq!(value.len(), grad.len(), "adam length mismatch");
    assert_eq!(value.len(), m.len(), "adam moment length mismatch");
    assert_eq!(value.len(), v.len(), "adam moment length mismatch");
    let bc1 = 1.0 - beta1.powi(t as i32);
    let bc2 = 1.0 - beta2.powi(t as i32);
    adam_scalar(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2);
}

#[allow(clippy::too_many_arguments)]
fn adam_scalar(
    value: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
) {
    for i in 0..value.len() {
        let g = grad[i];
        let mi = beta1 * m[i] + (1.0 - beta1) * g;
        let vi = beta2 * v[i] + (1.0 - beta2) * g * g;
        m[i] = mi;
        v[i] = vi;
        let m_hat = mi / bc1;
        let v_hat = vi / bc2;
        value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

// ---------------------------------------------------------------------------
// AVX2 lane kernels
// ---------------------------------------------------------------------------

/// 4-lane AVX2 implementations. Every function processes full `f64x4`
/// lanes and finishes the remainder with the *same* scalar expression, so
/// lane and tail elements agree bitwise with the `naive_*` references.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::Act;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_avx2(dst: &mut [f64], src: &[f64]) {
        let n = dst.len();
        let full = n - n % 4;
        for i in (0..full).step_by(4) {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(d, s));
        }
        for i in full..n {
            dst[i] += src[i];
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let full = n - n % 4;
        let a = _mm256_set1_pd(alpha);
        for i in (0..full).step_by(4) {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_add_pd(yv, _mm256_mul_pd(xv, a)));
        }
        for i in full..n {
            y[i] += x[i] * alpha;
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(data: &mut [f64], s: f64) {
        let n = data.len();
        let full = n - n % 4;
        let sv = _mm256_set1_pd(s);
        for i in (0..full).step_by(4) {
            let d = _mm256_loadu_pd(data.as_ptr().add(i));
            _mm256_storeu_pd(data.as_mut_ptr().add(i), _mm256_mul_pd(d, sv));
        }
        for v in &mut data[full..] {
            *v *= s;
        }
    }

    /// Lane form of [`Act::apply`] for the selection-based activations.
    /// Tanh/sigmoid never reach this (no correctly-rounded vector form).
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    unsafe fn act_lane(act: Act, z: __m256d) -> __m256d {
        let zero = _mm256_setzero_pd();
        match act {
            // `if z > 0 { z } else { 0.0 }`: ordered-quiet greater-than,
            // so NaN and -0.0 both select the +0.0 arm like the branch.
            Act::Relu => {
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(z, zero);
                _mm256_blendv_pd(zero, z, mask)
            }
            // `if z > 0 { z } else { 0.2 * z }` — the product is computed
            // unconditionally and discarded on the taken arm.
            Act::LeakyRelu => {
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(z, zero);
                let leak = _mm256_mul_pd(_mm256_set1_pd(0.2), z);
                _mm256_blendv_pd(leak, z, mask)
            }
            Act::Identity => z,
            Act::Tanh | Act::Sigmoid => unreachable!("transcendentals stay scalar"),
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 is available and `bias.len() == cols`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bias_act_avx2(data: &mut [f64], cols: usize, bias: &[f64], act: Act) {
        let full = cols - cols % 4;
        for row in data.chunks_exact_mut(cols.max(1)) {
            match act {
                Act::Relu | Act::LeakyRelu | Act::Identity => {
                    for j in (0..full).step_by(4) {
                        let z = _mm256_add_pd(
                            _mm256_loadu_pd(row.as_ptr().add(j)),
                            _mm256_loadu_pd(bias.as_ptr().add(j)),
                        );
                        _mm256_storeu_pd(row.as_mut_ptr().add(j), act_lane(act, z));
                    }
                    for j in full..cols {
                        row[j] = act.apply(row[j] + bias[j]);
                    }
                }
                // Transcendentals: vector add epilogue, scalar function.
                Act::Tanh | Act::Sigmoid => {
                    for j in (0..full).step_by(4) {
                        let z = _mm256_add_pd(
                            _mm256_loadu_pd(row.as_ptr().add(j)),
                            _mm256_loadu_pd(bias.as_ptr().add(j)),
                        );
                        _mm256_storeu_pd(row.as_mut_ptr().add(j), z);
                    }
                    for j in full..cols {
                        row[j] += bias[j];
                    }
                    for v in row.iter_mut() {
                        *v = act.apply(*v);
                    }
                }
            }
        }
    }

    /// Lane form of [`Act::deriv_from_output`] — every branch is exact
    /// (compare/blend selection or one or two rounded mul/sub).
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    unsafe fn deriv_lane(act: Act, y: __m256d) -> __m256d {
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        match act {
            Act::Relu => {
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(y, zero);
                _mm256_blendv_pd(zero, one, mask)
            }
            Act::LeakyRelu => {
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(y, zero);
                _mm256_blendv_pd(_mm256_set1_pd(0.2), one, mask)
            }
            Act::Tanh => _mm256_sub_pd(one, _mm256_mul_pd(y, y)),
            Act::Sigmoid => _mm256_mul_pd(y, _mm256_sub_pd(one, y)),
            Act::Identity => one,
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 is available and the three slices share a
    /// length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn act_backward_avx2(y: &[f64], grad: &[f64], dz: &mut [f64], act: Act) {
        let n = y.len();
        let full = n - n % 4;
        for i in (0..full).step_by(4) {
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            let gv = _mm256_loadu_pd(grad.as_ptr().add(i));
            let d = deriv_lane(act, yv);
            _mm256_storeu_pd(dz.as_mut_ptr().add(i), _mm256_mul_pd(gv, d));
        }
        for i in full..n {
            dz[i] = grad[i] * act.deriv_from_output(y[i]);
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 is available and the four slices share a
    /// length.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adam_avx2(
        value: &mut [f64],
        grad: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        bc1: f64,
        bc2: f64,
    ) {
        let n = value.len();
        let full = n - n % 4;
        let b1 = _mm256_set1_pd(beta1);
        let b2 = _mm256_set1_pd(beta2);
        let omb1 = _mm256_set1_pd(1.0 - beta1);
        let omb2 = _mm256_set1_pd(1.0 - beta2);
        let bc1v = _mm256_set1_pd(bc1);
        let bc2v = _mm256_set1_pd(bc2);
        let lrv = _mm256_set1_pd(lr);
        let epsv = _mm256_set1_pd(eps);
        for i in (0..full).step_by(4) {
            let g = _mm256_loadu_pd(grad.as_ptr().add(i));
            let mv = _mm256_loadu_pd(m.as_ptr().add(i));
            let vv = _mm256_loadu_pd(v.as_ptr().add(i));
            // m = β₁·m + (1-β₁)·g
            let mi = _mm256_add_pd(_mm256_mul_pd(b1, mv), _mm256_mul_pd(omb1, g));
            // v = β₂·v + ((1-β₂)·g)·g — left-to-right like the scalar loop.
            let vi = _mm256_add_pd(_mm256_mul_pd(b2, vv), _mm256_mul_pd(_mm256_mul_pd(omb2, g), g));
            _mm256_storeu_pd(m.as_mut_ptr().add(i), mi);
            _mm256_storeu_pd(v.as_mut_ptr().add(i), vi);
            let m_hat = _mm256_div_pd(mi, bc1v);
            let v_hat = _mm256_div_pd(vi, bc2v);
            let denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), epsv);
            let update = _mm256_div_pd(_mm256_mul_pd(lrv, m_hat), denom);
            let val = _mm256_loadu_pd(value.as_ptr().add(i));
            _mm256_storeu_pd(value.as_mut_ptr().add(i), _mm256_sub_pd(val, update));
        }
        super::adam_scalar(
            &mut value[full..],
            &grad[full..],
            &mut m[full..],
            &mut v[full..],
            lr,
            beta1,
            beta2,
            eps,
            bc1,
            bc2,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_act_matches_naive_all_activations() {
        for act in [Act::Relu, Act::LeakyRelu, Act::Tanh, Act::Sigmoid, Act::Identity] {
            let base: Vec<f64> = (0..23)
                .map(|i| (i as f64 * 0.7 - 7.0) * if i % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            for cols in [1usize, 3, 4, 7, 8] {
                let rows = base.len() / cols;
                let mut fused = base[..rows * cols].to_vec();
                let mut naive = fused.clone();
                let bias: Vec<f64> = (0..cols).map(|j| j as f64 * 0.31 - 0.4).collect();
                bias_act(&mut fused, rows, cols, &bias, act);
                naive_bias_act(&mut naive, rows, cols, &bias, act);
                let f: Vec<u64> = fused.iter().map(|x| x.to_bits()).collect();
                let n: Vec<u64> = naive.iter().map(|x| x.to_bits()).collect();
                assert_eq!(f, n, "{act:?} cols={cols}");
            }
        }
    }

    #[test]
    fn adam_matches_naive() {
        let n = 13;
        let grad: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3 - 6.0).sin()).collect();
        let mut v1: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let mut m1 = vec![0.02; n];
        let mut s1 = vec![0.5; n];
        let (mut v2, mut m2, mut s2) = (v1.clone(), m1.clone(), s1.clone());
        adam_update(&mut v1, &grad, &mut m1, &mut s1, 1e-3, 0.9, 0.999, 1e-8, 3);
        naive_adam_update(&mut v2, &grad, &mut m2, &mut s2, 1e-3, 0.9, 0.999, 1e-8, 3);
        assert!(v1.iter().zip(&v2).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(m1.iter().zip(&m2).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(s1.iter().zip(&s2).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn sgd_matches_add_scaled_path() {
        let grad: Vec<f64> = (0..9).map(|i| (i as f64).cos()).collect();
        let mut fused = vec![1.0; 9];
        let mut reference = fused.clone();
        sgd_update(&mut fused, &grad, 0.05);
        // The historical path: clone the gradient, then add_scaled.
        let cloned = grad.clone();
        for (a, b) in reference.iter_mut().zip(&cloned) {
            *a += b * (-0.05);
        }
        assert!(fused.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn outer_acc_skips_zero_rows() {
        let a = [0.0, 2.0];
        let b = [f64::INFINITY, 1.0];
        let mut out = vec![7.0; 4];
        outer_acc(&a, &b, &mut out);
        // Row 0 untouched (zero coefficient masks the infinity), row 1
        // accumulated.
        assert_eq!(out[0], 7.0);
        assert_eq!(out[1], 7.0);
        assert_eq!(out[2], f64::INFINITY);
        assert_eq!(out[3], 9.0);
    }
}
