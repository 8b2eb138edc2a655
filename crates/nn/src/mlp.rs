//! A sequential multi-layer perceptron.
//!
//! This is the workhorse behind the dense autoencoder (§D.2 "AE") and the
//! three BiGAN networks: a stack of [`Dense`] layers trained with
//! minibatch backprop.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::loss::{mse, mse_grad_into};
use crate::optimizer::Optimizer;
use crate::param::Param;
use exathlon_linalg::{obs, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Reused network-level training buffers: the loss gradient and the two
/// ping-pong buffers the backward chain alternates between.
#[derive(Debug, Clone, Default)]
struct MlpWorkspace {
    loss_grad: Matrix,
    grad_a: Matrix,
    grad_b: Matrix,
    dx_sink: Matrix,
}

/// A feed-forward network: `layers[0]` sees the input.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    step: u64,
    ws: MlpWorkspace,
}

impl Mlp {
    /// Build from `(in, out, activation)` specs chained in order.
    ///
    /// # Panics
    /// Panics if consecutive layer dimensions do not chain, or `specs` is
    /// empty.
    pub fn new(specs: &[(usize, usize, Activation)], rng: &mut StdRng) -> Self {
        assert!(!specs.is_empty(), "MLP needs at least one layer");
        for w in specs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "layer dimensions do not chain");
        }
        let layers = specs.iter().map(|&(i, o, a)| Dense::new(i, o, a, rng)).collect();
        Self { layers, step: 0, ws: MlpWorkspace::default() }
    }

    /// Convenience: a symmetric autoencoder `in -> hidden... -> code ->
    /// hidden... -> in` with the given activation in hidden layers and a
    /// linear output.
    pub fn autoencoder(
        in_dim: usize,
        hidden: &[usize],
        code: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let mut specs = Vec::new();
        let mut prev = in_dim;
        for &h in hidden {
            specs.push((prev, h, activation));
            prev = h;
        }
        specs.push((prev, code, activation));
        prev = code;
        for &h in hidden.iter().rev() {
            specs.push((prev, h, activation));
            prev = h;
        }
        specs.push((prev, in_dim, Activation::Identity));
        Self::new(&specs, rng)
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight.count() + l.bias.count()).sum()
    }

    /// Forward pass with activation caching (training mode). Returns a
    /// copy of the output; the allocation-free loops use
    /// [`Mlp::forward_cached`] + [`Mlp::output`] instead.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_cached(x);
        self.output().clone()
    }

    /// Forward pass through the layer workspaces: each layer reads the
    /// previous layer's cached output directly — no inter-layer clones.
    pub fn forward_cached(&mut self, x: &Matrix) {
        for i in 0..self.layers.len() {
            if i == 0 {
                self.layers[0].forward_cached(x);
            } else {
                let (prev, rest) = self.layers.split_at_mut(i);
                rest[0].forward_cached(prev[i - 1].output());
            }
        }
    }

    /// The cached output of the last [`Mlp::forward_cached`].
    ///
    /// # Panics
    /// Panics if no forward pass has run.
    pub fn output(&self) -> &Matrix {
        self.layers.last().expect("non-empty").output()
    }

    /// Forward pass without caching (inference).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Inference on one input row, handing the output row to `f`: each
    /// layer runs [`Dense::forward_row_into`], so the result is bitwise
    /// the matching row of [`Mlp::predict`]. The activations ping-pong
    /// between two thread-local buffers (the GEMM's packed-panel
    /// precedent), so a warmed call allocates nothing and the scratch
    /// scales with worker threads, not with networks.
    ///
    /// # Panics
    /// Panics if `x.len() != in_dim`.
    pub fn predict_row_with<T>(&self, x: &[f64], f: impl FnOnce(&[f64]) -> T) -> T {
        thread_local! {
            static ROW: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        // Taken out for the call, so a nested call finds empty buffers
        // instead of a held borrow.
        let (mut a, mut b) = ROW.take();
        let (first, rest) = self.layers.split_first().expect("non-empty");
        first.forward_row_into(x, &mut a);
        for layer in rest {
            layer.forward_row_into(&a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        let out = f(&a);
        ROW.set((a, b));
        out
    }

    /// Backward pass through all layers; returns `dL/dx`. The
    /// allocation-free loops use [`Mlp::backward_into`] instead.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(grad_out, &mut dx);
        dx
    }

    /// [`Mlp::backward`] into a caller-reused `dx` buffer: the chain
    /// alternates between two reused workspace buffers instead of
    /// allocating a gradient matrix per layer.
    pub fn backward_into(&mut self, grad_out: &Matrix, dx: &mut Matrix) {
        let mut ga = std::mem::take(&mut self.ws.grad_a);
        let mut gb = std::mem::take(&mut self.ws.grad_b);
        let n = self.layers.len();
        for (k, layer) in self.layers.iter_mut().rev().enumerate() {
            let last = k + 1 == n;
            let src: &Matrix = if k == 0 { grad_out } else { &ga };
            if last {
                layer.backward_into(src, dx);
            } else {
                layer.backward_into(src, &mut gb);
                std::mem::swap(&mut ga, &mut gb);
            }
        }
        self.ws.grad_a = ga;
        self.ws.grad_b = gb;
    }

    /// All parameters, for optimizer steps and gradient clipping.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| {
                let [w, b] = l.params_mut();
                [w, b]
            })
            .collect()
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Apply one optimizer step (increments the internal step counter).
    /// Updates go layer by layer — per-parameter updates are independent,
    /// so this matches a flat-list step while skipping the `Vec<&mut
    /// Param>` collection per call.
    pub fn apply_step(&mut self, opt: &Optimizer) {
        self.step += 1;
        let step = self.step;
        for layer in &mut self.layers {
            let mut params = layer.params_mut();
            opt.step(&mut params, step);
        }
    }

    /// One supervised minibatch step against `targets` under MSE; returns
    /// the batch loss. Allocation-free at steady state: forward and
    /// backward run through the layer workspaces and the loss gradient
    /// lands in a reused buffer.
    pub fn train_batch(&mut self, x: &Matrix, targets: &Matrix, opt: &Optimizer) -> f64 {
        self.zero_grad();
        self.forward_cached(x);
        let mut lg = std::mem::take(&mut self.ws.loss_grad);
        let pred = self.layers.last().expect("non-empty").output();
        let loss = mse(pred, targets);
        mse_grad_into(pred, targets, &mut lg);
        let mut sink = std::mem::take(&mut self.ws.dx_sink);
        self.backward_into(&lg, &mut sink);
        self.ws.loss_grad = lg;
        self.ws.dx_sink = sink;
        self.apply_step(opt);
        loss
    }

    /// Train for `epochs` over `(inputs, targets)` rows with shuffled
    /// minibatches; returns the loss after each epoch.
    ///
    /// For autoencoders pass the inputs as their own targets.
    pub fn fit(
        &mut self,
        inputs: &Matrix,
        targets: &Matrix,
        epochs: usize,
        batch_size: usize,
        opt: &Optimizer,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        assert_eq!(inputs.rows(), targets.rows(), "inputs/targets row mismatch");
        assert!(batch_size > 0, "batch size must be positive");
        let n = inputs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = Vec::with_capacity(epochs);
        // Minibatch scratch reused across the whole run: batch assembly
        // settles into two steady-state buffers instead of two fresh
        // allocations per step (contents are bitwise identical).
        let mut xb = Matrix::zeros(0, 0);
        let mut tb = Matrix::zeros(0, 0);
        for _ in 0..epochs {
            let _sp = obs::span("train", "Mlp.epoch");
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                inputs.select_rows_into(chunk, &mut xb);
                targets.select_rows_into(chunk, &mut tb);
                epoch_loss += self.train_batch(&xb, &tb, opt);
                batches += 1;
            }
            obs::counter("train.samples", n as u64);
            obs::add_records("train", n as u64);
            history.push(epoch_loss / batches.max(1) as f64);
        }
        history
    }

    /// Serialize the network's learned state into `w`: layer count, each
    /// layer's weights, and the optimizer step counter. Workspaces are
    /// rebuilt empty on decode.
    pub fn encode(&self, w: &mut exathlon_linalg::codec::ByteWriter) {
        w.put_usize(self.layers.len());
        for layer in &self.layers {
            layer.encode(w);
        }
        w.put_u64(self.step);
    }

    /// Decode a network written by [`Mlp::encode`]. Restored weights are
    /// bitwise identical, so [`Mlp::predict`] reproduces the original
    /// outputs exactly.
    pub fn decode(
        r: &mut exathlon_linalg::codec::ByteReader<'_>,
    ) -> Result<Self, exathlon_linalg::codec::CodecError> {
        let n = r.get_len(1)?;
        if n == 0 {
            return Err(exathlon_linalg::codec::CodecError::Corrupt("MLP with no layers"));
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(Dense::decode(r)?);
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(exathlon_linalg::codec::CodecError::Corrupt(
                    "MLP layer dimensions do not chain",
                ));
            }
        }
        let step = r.get_u64()?;
        Ok(Self { layers, step, ws: MlpWorkspace::default() })
    }

    /// Bytes currently held by the training workspaces (network-level
    /// buffers plus every layer's).
    pub fn workspace_bytes(&self) -> usize {
        let ws = 8
            * (self.ws.loss_grad.as_slice().len()
                + self.ws.grad_a.as_slice().len()
                + self.ws.grad_b.as_slice().len()
                + self.ws.dx_sink.as_slice().len());
        ws + self.layers.iter().map(Dense::workspace_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn construction_and_shapes() {
        let mlp = Mlp::new(&[(4, 8, Activation::Relu), (8, 2, Activation::Identity)], &mut rng());
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_layers_panic() {
        let _ = Mlp::new(&[(4, 8, Activation::Relu), (9, 2, Activation::Identity)], &mut rng());
    }

    #[test]
    fn autoencoder_is_symmetric() {
        let ae = Mlp::autoencoder(10, &[8], 3, Activation::Tanh, &mut rng());
        assert_eq!(ae.in_dim(), 10);
        assert_eq!(ae.out_dim(), 10);
        assert_eq!(ae.layers.len(), 4); // 10-8, 8-3, 3-8, 8-10
    }

    #[test]
    fn learns_linear_map() {
        // y = 2 x0 - x1, learnable exactly by a linear MLP.
        let mut r = rng();
        let mut mlp = Mlp::new(&[(2, 1, Activation::Identity)], &mut r);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..64 {
            let a = (i % 8) as f64 / 8.0;
            let b = (i / 8) as f64 / 8.0;
            xs.push(vec![a, b]);
            ys.push(vec![2.0 * a - b]);
        }
        let x = Matrix::from_rows(&xs);
        let y = Matrix::from_rows(&ys);
        let history = mlp.fit(&x, &y, 300, 16, &Optimizer::adam(0.01), &mut r);
        assert!(history[299] < 1e-4, "did not converge: {}", history[299]);
    }

    #[test]
    fn autoencoder_reconstructs_low_rank_data() {
        // Data on a 1-D manifold in 4-D space: x = [t, 2t, -t, 0.5t].
        let mut r = rng();
        let mut ae = Mlp::autoencoder(4, &[], 1, Activation::Identity, &mut r);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = i as f64 / 50.0 - 0.5;
                vec![t, 2.0 * t, -t, 0.5 * t]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let history = ae.fit(&x, &x, 400, 10, &Optimizer::adam(0.01), &mut r);
        assert!(history[399] < 1e-3, "AE did not converge: {}", history[399]);
    }

    #[test]
    fn fit_loss_decreases() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[(3, 6, Activation::Tanh), (6, 1, Activation::Identity)], &mut r);
        let x = Matrix::from_fn(40, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let y = Matrix::from_fn(40, 1, |i, _| (i as f64 * 0.2).cos());
        let h = mlp.fit(&x, &y, 50, 8, &Optimizer::adam(0.005), &mut r);
        assert!(h[49] < h[0], "loss should decrease: {} -> {}", h[0], h[49]);
    }

    #[test]
    fn codec_round_trip_predicts_bitwise() {
        let mut r = rng();
        let mut mlp = Mlp::autoencoder(5, &[4], 2, Activation::Tanh, &mut r);
        let x = Matrix::from_fn(12, 5, |i, j| ((i * 5 + j) as f64 * 0.17).sin());
        let _ = mlp.fit(&x, &x, 3, 4, &Optimizer::adam(0.01), &mut r);
        let mut w = exathlon_linalg::codec::ByteWriter::new();
        mlp.encode(&mut w);
        let bytes = w.into_bytes();
        let restored = Mlp::decode(&mut exathlon_linalg::codec::ByteReader::new(&bytes)).unwrap();
        let a = mlp.predict(&x);
        let b = restored.predict(&x);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(restored.step, mlp.step);
        for cut in 0..bytes.len() {
            let mut rd = exathlon_linalg::codec::ByteReader::new(&bytes[..cut]);
            assert!(Mlp::decode(&mut rd).is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn predict_matches_forward() {
        let mut mlp = Mlp::new(&[(2, 3, Activation::Tanh)], &mut rng());
        let x = Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]);
        let a = mlp.forward(&x);
        let b = mlp.predict(&x);
        assert_eq!(a, b);
    }
}
