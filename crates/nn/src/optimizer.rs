//! Optimizers: plain SGD and Adam.
//!
//! Both operate on [`Param`]s, whose Adam moment buffers live with the
//! parameter so that a network can hand the optimizer a flat list of
//! `&mut Param` without the optimizer tracking identity.

use crate::param::Param;
use exathlon_linalg::elemwise;

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub enum Optimizer {
    /// Stochastic gradient descent with a fixed learning rate.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay.
        beta1: f64,
        /// Second-moment decay.
        beta2: f64,
        /// Numerical stabilizer.
        eps: f64,
    },
}

impl Optimizer {
    /// Adam with the standard defaults and the given learning rate.
    pub fn adam(lr: f64) -> Self {
        Optimizer::Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// SGD with the given learning rate.
    pub fn sgd(lr: f64) -> Self {
        Optimizer::Sgd { lr }
    }

    /// Apply one update step to `params` using their accumulated gradients,
    /// then zero the gradients. `t` is the 1-based global step count (for
    /// Adam bias correction).
    pub fn step(&self, params: &mut [&mut Param], t: u64) {
        assert!(t >= 1, "step count is 1-based");
        match *self {
            Optimizer::Sgd { lr } => {
                for p in params.iter_mut() {
                    // Fused in-place update: `value += -lr * grad`, no clone.
                    elemwise::sgd_update(p.value.as_mut_slice(), p.grad.as_slice(), lr);
                    p.zero_grad();
                }
            }
            Optimizer::Adam { lr, beta1, beta2, eps } => {
                for p in params.iter_mut() {
                    let Param { value, grad, m, v } = &mut **p;
                    elemwise::adam_update(
                        value.as_mut_slice(),
                        grad.as_slice(),
                        m.as_mut_slice(),
                        v.as_mut_slice(),
                        lr,
                        beta1,
                        beta2,
                        eps,
                        t,
                    );
                    p.zero_grad();
                }
            }
        }
    }
}

/// Clip every gradient in `params` to the given max L2 norm (computed over
/// all parameters jointly) — used by the LSTM's BPTT to avoid exploding
/// gradients.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f64) {
    let total: f64 =
        params.iter().map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f64>()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            // Vectorized in-place scale — same per-element product as the
            // historical `*g *= scale` loop.
            elemwise::scale(p.grad.as_mut_slice(), scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_linalg::Matrix;

    fn param_with_grad(value: f64, grad: f64) -> Param {
        let mut p = Param::zeros(1, 1);
        p.value[(0, 0)] = value;
        p.grad[(0, 0)] = grad;
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = param_with_grad(1.0, 2.0);
        Optimizer::sgd(0.1).step(&mut [&mut p], 1);
        assert!((p.value[(0, 0)] - 0.8).abs() < 1e-12);
        assert_eq!(p.grad[(0, 0)], 0.0, "grad must be zeroed after step");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ~lr * sign(grad).
        let mut p = param_with_grad(0.0, 5.0);
        Optimizer::adam(0.01).step(&mut [&mut p], 1);
        assert!((p.value[(0, 0)] + 0.01).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2 from x = 0.
        let mut p = param_with_grad(0.0, 0.0);
        let opt = Optimizer::adam(0.1);
        for t in 1..=500 {
            p.grad[(0, 0)] = 2.0 * (p.value[(0, 0)] - 3.0);
            opt.step(&mut [&mut p], t);
        }
        assert!((p.value[(0, 0)] - 3.0).abs() < 0.05, "got {}", p.value[(0, 0)]);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = param_with_grad(0.0, 0.0);
        let opt = Optimizer::sgd(0.1);
        for t in 1..=200 {
            p.grad[(0, 0)] = 2.0 * (p.value[(0, 0)] - 3.0);
            opt.step(&mut [&mut p], t);
        }
        assert!((p.value[(0, 0)] - 3.0).abs() < 1e-6);
    }

    /// The in-place SGD arm must produce bitwise-identical parameters to
    /// the historical clone-then-`add_scaled` path.
    #[test]
    fn sgd_inplace_matches_clone_path_bitwise() {
        let lr = 0.0173;
        let mut p = Param::zeros(3, 4);
        for (i, v) in p.value.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 * 0.83 - 4.0).sin();
        }
        for (i, g) in p.grad.as_mut_slice().iter_mut().enumerate() {
            *g = (i as f64 * 1.7 + 0.2).cos() * 3.0;
        }
        // Historical path, replicated verbatim: clone + add_scaled.
        let mut expected = p.value.clone();
        let grad_clone = p.grad.clone();
        expected.add_scaled(&grad_clone, -lr);
        Optimizer::sgd(lr).step(&mut [&mut p], 1);
        let got: Vec<u64> = p.value.as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = expected.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut p = Param::zeros(1, 2);
        p.grad = Matrix::from_vec(1, 2, vec![3.0, 4.0]); // norm 5
        clip_grad_norm(&mut [&mut p], 1.0);
        let norm: f64 = p.grad.as_slice().iter().map(|g| g * g).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_grad_norm_leaves_small_grads() {
        let mut p = Param::zeros(1, 2);
        p.grad = Matrix::from_vec(1, 2, vec![0.3, 0.4]);
        clip_grad_norm(&mut [&mut p], 1.0);
        assert_eq!(p.grad.as_slice(), &[0.3, 0.4]);
    }
}
