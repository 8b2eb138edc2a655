//! Element-wise activation functions and their derivatives.
//!
//! The canonical per-element expressions live in
//! [`exathlon_linalg::elemwise::Act`] (shared with the fused SIMD
//! training kernels); the allocating matrix forms here serve inference
//! callers and the tests' textbook oracles.

use exathlon_linalg::elemwise::Act;
use exathlon_linalg::Matrix;

/// Supported activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `x` for `x > 0`, `0.2 x` otherwise (the GAN literature default).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (linear output layers).
    Identity,
}

impl Activation {
    /// The elemwise-kernel activation kind this maps onto.
    pub fn kind(self) -> Act {
        match self {
            Activation::Relu => Act::Relu,
            Activation::LeakyRelu => Act::LeakyRelu,
            Activation::Tanh => Act::Tanh,
            Activation::Sigmoid => Act::Sigmoid,
            Activation::Identity => Act::Identity,
        }
    }

    /// Stable one-byte wire tag for checkpoints.
    pub fn to_tag(self) -> u8 {
        match self {
            Activation::Relu => 0,
            Activation::LeakyRelu => 1,
            Activation::Tanh => 2,
            Activation::Sigmoid => 3,
            Activation::Identity => 4,
        }
    }

    /// Inverse of [`Activation::to_tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Activation::Relu),
            1 => Some(Activation::LeakyRelu),
            2 => Some(Activation::Tanh),
            3 => Some(Activation::Sigmoid),
            4 => Some(Activation::Identity),
            _ => None,
        }
    }

    /// Apply the activation element-wise (allocating map — the naive
    /// reference path; training fuses this into the GEMM epilogue).
    /// ReLU uses the explicit `if v > 0` branch rather than `f64::max`
    /// so scalar and SIMD paths agree on the sign of zero.
    pub fn forward(self, x: &Matrix) -> Matrix {
        match self {
            Activation::Identity => x.clone(),
            _ => {
                let kind = self.kind();
                x.map(|v| kind.apply(v))
            }
        }
    }

    /// Derivative with respect to the pre-activation, expressed in terms of
    /// the *output* `y = forward(x)` (cheapest form for all five).
    pub fn derivative_from_output(self, y: &Matrix) -> Matrix {
        match self {
            Activation::Identity => Matrix::filled(y.rows(), y.cols(), 1.0),
            _ => {
                let kind = self.kind();
                y.map(|v| kind.deriv_from_output(v))
            }
        }
    }
}

/// Numerically-stable logistic sigmoid (the canonical implementation
/// lives in [`exathlon_linalg::elemwise::sigmoid`]).
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    exathlon_linalg::elemwise::sigmoid(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(vals: &[f64]) -> Matrix {
        Matrix::from_vec(1, vals.len(), vals.to_vec())
    }

    #[test]
    fn relu_forward() {
        let y = Activation::Relu.forward(&m(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_forward() {
        let y = Activation::LeakyRelu.forward(&m(&[-1.0, 2.0]));
        assert_eq!(y.as_slice(), &[-0.2, 2.0]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-9);
        assert!(sigmoid(-100.0) < 1e-9);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            for &x in &[-1.3, -0.4, 0.7, 1.9] {
                let y0 = act.forward(&m(&[x]));
                let y1 = act.forward(&m(&[x + eps]));
                let numeric = (y1.as_slice()[0] - y0.as_slice()[0]) / eps;
                let analytic = act.derivative_from_output(&y0).as_slice()[0];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn identity_is_noop() {
        let x = m(&[1.0, -2.0]);
        assert_eq!(Activation::Identity.forward(&x), x);
    }
}
