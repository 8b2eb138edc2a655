//! Fully-connected layers with explicit backpropagation.
//!
//! Training runs through a per-layer workspace: forward stages the batch
//! input and GEMM output into reused buffers (bias + activation fused
//! into the epilogue via [`exathlon_linalg::elemwise::bias_act`]),
//! backward consumes them in place, and gradients accumulate through a
//! reused `dw` scratch — zero allocations per minibatch once the buffers
//! reach the steady batch shape. The results are bitwise those of the
//! textbook clone-per-step formulation (fresh `z`, activation, derivative
//! and gradient matrices every call), which the unit tests below keep as
//! the oracle.

use crate::activation::Activation;
use crate::param::Param;
use exathlon_linalg::elemwise;
use exathlon_linalg::{kernel, obs, Matrix};
use rand::rngs::StdRng;

/// Reused training buffers of one dense layer. Sized on first use per
/// batch shape and reused across minibatches and epochs; `reset` only
/// reallocates when a larger batch arrives.
#[derive(Debug, Clone, Default)]
struct DenseWorkspace {
    /// Whether a forward pass has populated the caches.
    cached: bool,
    /// Staged copy of the last forward input (`n x in_dim`).
    input: Matrix,
    /// Last forward output `y = act(x Wᵀ + b)` (`n x out_dim`).
    output: Matrix,
    /// Weight-transpose scratch for the SIMD GEMM path.
    wt: Matrix,
    /// `dL/dz` scratch for backward.
    dz: Matrix,
    /// `dzᵀ·x` gradient scratch, accumulated into `weight.grad`.
    dw: Matrix,
}

impl DenseWorkspace {
    /// Total bytes currently held by the workspace buffers.
    fn bytes(&self) -> usize {
        8 * (self.input.as_slice().len()
            + self.output.as_slice().len()
            + self.wt.as_slice().len()
            + self.dz.as_slice().len()
            + self.dw.as_slice().len())
    }
}

/// A dense layer `y = act(x W^T + b)` operating on batches (rows = samples).
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `out_dim x in_dim`.
    pub weight: Param,
    /// Bias row, `1 x out_dim`.
    pub bias: Param,
    /// Activation applied after the affine map.
    pub activation: Activation,
    /// Reused training buffers (forward caches + backward scratch).
    ws: DenseWorkspace,
}

impl Dense {
    /// Create a layer with initialization matched to the activation.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let weight = match activation {
            Activation::Relu | Activation::LeakyRelu => Param::he(out_dim, in_dim, in_dim, rng),
            _ => Param::xavier(out_dim, in_dim, in_dim, out_dim, rng),
        };
        Self { weight, bias: Param::zeros(1, out_dim), activation, ws: DenseWorkspace::default() }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Bytes currently held by the layer's training workspace.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Forward pass for a batch (`n x in_dim`), caching activations for a
    /// subsequent [`Dense::backward`]. Returns a copy of the output; the
    /// allocation-free training loops use [`Dense::forward_cached`] +
    /// [`Dense::output`] instead.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_cached(x);
        self.ws.output.clone()
    }

    /// Forward pass into the layer workspace: input staged with one copy,
    /// GEMM into the reused output buffer, bias + activation fused into
    /// the epilogue. No allocation at steady state.
    pub fn forward_cached(&mut self, x: &Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "dense input dimension mismatch");
        let ws = &mut self.ws;
        ws.input.copy_from(x);
        kernel::matmul_transpose_into(x, &self.weight.value, &mut ws.wt, &mut ws.output);
        elemwise::bias_act(
            ws.output.as_mut_slice(),
            x.rows(),
            self.weight.value.rows(),
            self.bias.value.row(0),
            self.activation.kind(),
        );
        ws.cached = true;
        obs::counter(
            "train.workspace_bytes",
            (8 * (ws.input.as_slice().len() + ws.output.as_slice().len())) as u64,
        );
    }

    /// The cached output of the last [`Dense::forward_cached`].
    ///
    /// # Panics
    /// Panics if no forward pass has run.
    pub fn output(&self) -> &Matrix {
        assert!(self.ws.cached, "output before forward");
        &self.ws.output
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "dense input dimension mismatch");
        let mut z = x.matmul_transpose(&self.weight.value);
        let rows = z.rows();
        elemwise::bias_act(
            z.as_mut_slice(),
            rows,
            self.weight.value.rows(),
            self.bias.value.row(0),
            self.activation.kind(),
        );
        z
    }

    /// Inference on one input row into `out` (resized to `out_dim`):
    /// the single-query form of [`Dense::forward_inference`]. Output `j`
    /// is `W[j]·x` summed in ascending `k` from `0.0` — the products and
    /// order of the GEMM's output element `(0, j)` — then the same fused
    /// [`elemwise::bias_act`] epilogue, so it is bitwise the matching row
    /// of the batch pass without a row matrix, a clone of `x` or a
    /// per-call weight transpose.
    ///
    /// # Panics
    /// Panics if `x.len() != in_dim`.
    pub fn forward_row_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.in_dim(), "dense input dimension mismatch");
        kernel::matvec_into(&self.weight.value, x, out);
        let cols = out.len();
        elemwise::bias_act(out, 1, cols, self.bias.value.row(0), self.activation.kind());
    }

    /// Backward pass: takes `dL/dy` for the cached batch, accumulates
    /// parameter gradients, and returns `dL/dx`. The allocation-free
    /// training loops use [`Dense::backward_into`] instead.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(grad_out, &mut dx);
        dx
    }

    /// [`Dense::backward`] into a caller-reused `dx` buffer: `dz` lands in
    /// workspace scratch via the fused activation-derivative kernel, the
    /// weight gradient accumulates through the reused `dw` scratch (the
    /// two-step `materialize + add` keeps the historical accumulation
    /// order bitwise), and bias gradients accumulate row by row in place.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward_into(&mut self, grad_out: &Matrix, dx: &mut Matrix) {
        assert!(self.ws.cached, "backward before forward");
        assert_eq!(grad_out.shape(), self.ws.output.shape(), "grad shape mismatch");
        let ws = &mut self.ws;
        let act = self.activation.kind();
        ws.dz.reset(grad_out.rows(), grad_out.cols());
        elemwise::act_backward(
            ws.output.as_slice(),
            grad_out.as_slice(),
            ws.dz.as_mut_slice(),
            act,
        );
        // dL/dW = dzᵀ x, materialized into reused scratch and then added:
        // a direct GEMM-accumulate into a non-zero `grad` would change the
        // per-element rounding order when backward runs more than once
        // between `zero_grad`s (the BiGAN discriminator does exactly that).
        kernel::transpose_matmul_into(&ws.dz, &ws.input, &mut ws.dw);
        elemwise::accumulate(self.weight.grad.as_mut_slice(), ws.dw.as_slice());
        for i in 0..ws.dz.rows() {
            elemwise::accumulate(self.bias.grad.row_mut(0), ws.dz.row(i));
        }
        // dL/dx = dz W
        kernel::matmul_into(&ws.dz, &self.weight.value, dx);
        obs::counter(
            "train.workspace_bytes",
            (8 * (ws.dz.as_slice().len() + ws.dw.as_slice().len() + dx.as_slice().len())) as u64,
        );
    }

    /// Serialize the layer's learned state (weights, bias, activation)
    /// into `w`. Training workspaces and optimizer moments are transient
    /// and not part of the wire format.
    pub fn encode(&self, w: &mut exathlon_linalg::codec::ByteWriter) {
        w.put_u8(self.activation.to_tag());
        w.put_matrix(&self.weight.value);
        w.put_matrix(&self.bias.value);
    }

    /// Decode a layer written by [`Dense::encode`]. The restored weights
    /// are bitwise identical, so [`Dense::forward_inference`] reproduces
    /// the original outputs exactly.
    pub fn decode(
        r: &mut exathlon_linalg::codec::ByteReader<'_>,
    ) -> Result<Self, exathlon_linalg::codec::CodecError> {
        let activation = Activation::from_tag(r.get_u8()?)
            .ok_or(exathlon_linalg::codec::CodecError::Corrupt("unknown activation tag"))?;
        let weight = r.get_matrix()?;
        let bias = r.get_matrix()?;
        if weight.rows() == 0 || weight.cols() == 0 {
            return Err(exathlon_linalg::codec::CodecError::Corrupt("empty dense weight"));
        }
        if bias.rows() != 1 || bias.cols() != weight.rows() {
            return Err(exathlon_linalg::codec::CodecError::Corrupt("dense bias shape mismatch"));
        }
        Ok(Self {
            weight: Param::from_value(weight),
            bias: Param::from_value(bias),
            activation,
            ws: DenseWorkspace::default(),
        })
    }

    /// Mutable access to the layer's parameters, for the optimizer.
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// Zero both gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shapes() {
        let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng());
        let x = Matrix::from_vec(4, 3, vec![0.1; 12]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (4, 2));
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng());
        // Set W = [[1, 2]], b = [3].
        layer.weight.value = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        layer.bias.value = Matrix::from_vec(1, 1, vec![3.0]);
        let y = layer.forward(&Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        assert_eq!(y.as_slice(), &[53.0]);
    }

    /// Gradient check against finite differences on a tiny layer.
    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Dense::new(2, 2, Activation::Tanh, &mut rng());
        let x = Matrix::from_vec(3, 2, vec![0.5, -0.3, 0.1, 0.9, -0.7, 0.2]);
        // Loss = sum(y); dL/dy = ones.
        let loss = |layer: &Dense, x: &Matrix| layer.forward_inference(x).sum();

        layer.zero_grad();
        let _ = layer.forward(&x);
        let grad_in = layer.backward(&Matrix::filled(3, 2, 1.0));

        let eps = 1e-6;
        // Check weight gradients.
        for i in 0..2 {
            for j in 0..2 {
                let orig = layer.weight.value[(i, j)];
                layer.weight.value[(i, j)] = orig + eps;
                let up = loss(&layer, &x);
                layer.weight.value[(i, j)] = orig - eps;
                let down = loss(&layer, &x);
                layer.weight.value[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = layer.weight.grad[(i, j)];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "dW[{i}{j}] numeric {numeric} vs analytic {analytic}"
                );
            }
        }
        // Check input gradient.
        for i in 0..3 {
            for j in 0..2 {
                let mut x2 = x.clone();
                x2[(i, j)] += eps;
                let up = loss(&layer, &x2);
                x2[(i, j)] -= 2.0 * eps;
                let down = loss(&layer, &x2);
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - grad_in[(i, j)]).abs() < 1e-5,
                    "dX[{i}{j}] numeric {numeric} vs analytic {}",
                    grad_in[(i, j)]
                );
            }
        }
    }

    #[test]
    fn bias_gradient_sums_over_batch() {
        let mut layer = Dense::new(1, 1, Activation::Identity, &mut rng());
        layer.zero_grad();
        let x = Matrix::from_vec(5, 1, vec![1.0; 5]);
        let _ = layer.forward(&x);
        let _ = layer.backward(&Matrix::filled(5, 1, 2.0));
        assert_eq!(layer.bias.grad[(0, 0)], 10.0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut rng());
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    /// The fused workspace step is bitwise the textbook clone-per-step
    /// formulation: fresh `z`, activation, derivative and gradient
    /// matrices, a scalar bias loop. Backward runs twice between
    /// `zero_grad`s, as the BiGAN discriminator's does, so the gradient
    /// accumulation order is pinned too.
    #[test]
    fn fused_step_matches_textbook_oracle_bitwise() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut fused = Dense::new(5, 3, act, &mut rng());
            let mut oracle = fused.clone();
            fused.zero_grad();
            oracle.zero_grad();
            let mut dx = Matrix::default();
            for step in 0..2 {
                let x = Matrix::from_fn(6, 5, |i, j| ((i * 5 + j + step) as f64 * 0.37).sin());
                let g = Matrix::from_fn(6, 3, |i, j| ((i + 2 * j + step) as f64 * 0.53).cos());

                fused.forward_cached(&x);
                fused.backward_into(&g, &mut dx);

                let mut z = x.matmul_transpose(&oracle.weight.value);
                for i in 0..z.rows() {
                    for (v, b) in z.row_mut(i).iter_mut().zip(oracle.bias.value.row(0)) {
                        *v += b;
                    }
                }
                let y = oracle.activation.forward(&z);
                assert_eq!(bits(fused.output()), bits(&y), "{act:?} forward");
                assert_eq!(bits(&fused.forward_inference(&x)), bits(&y), "{act:?} inference");
                let dz = g.hadamard(&oracle.activation.derivative_from_output(&y));
                oracle.weight.grad += &dz.transpose_matmul(&x);
                for i in 0..dz.rows() {
                    for (b, &d) in oracle.bias.grad.row_mut(0).iter_mut().zip(dz.row(i)) {
                        *b += d;
                    }
                }
                assert_eq!(bits(&dx), bits(&dz.matmul(&oracle.weight.value)), "{act:?} dx");
            }
            assert_eq!(bits(&fused.weight.grad), bits(&oracle.weight.grad), "{act:?} dW");
            assert_eq!(bits(&fused.bias.grad), bits(&oracle.bias.grad), "{act:?} db");
        }
    }

    /// The workspace survives batch-shape changes (last chunk of an epoch
    /// is smaller) and still backprops correctly.
    #[test]
    fn shrinking_batch_reuses_workspace() {
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng());
        layer.zero_grad();
        let big = Matrix::from_fn(8, 3, |i, j| ((i * 3 + j) as f64 * 0.21).sin());
        layer.forward_cached(&big);
        let mut dx = Matrix::default();
        layer.backward_into(&Matrix::filled(8, 2, 0.5), &mut dx);
        assert_eq!(dx.shape(), (8, 3));
        let small = Matrix::from_fn(3, 3, |i, j| ((i + j) as f64 * 0.4).cos());
        layer.forward_cached(&small);
        assert_eq!(layer.output().shape(), (3, 2));
        layer.backward_into(&Matrix::filled(3, 2, 0.5), &mut dx);
        assert_eq!(dx.shape(), (3, 3));
        assert!(layer.workspace_bytes() > 0);
    }
}
