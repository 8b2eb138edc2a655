//! Bidirectional GAN (BiGAN) for reconstruction-based anomaly detection.
//!
//! Following the paper's Appendix D.2: a generator `G: z -> x`, an encoder
//! `E: x -> z` learned jointly (Donahue et al.), and a discriminator `D`
//! over `(x, z)` pairs. At test time the outlier score of a window is the
//! average of its reconstruction error through `(E, G)` and its feature
//! loss under `D`, as defined by Zenati et al. (Efficient GAN-based AD).
//!
//! Training stages every per-batch intermediate — latent draws, label
//! matrices, pair concatenations and split gradients — in a reusable
//! [`GanWorkspace`], so steady-state steps stop allocating. The unit
//! tests keep the textbook allocating step as an oracle: both consume the
//! same RNG stream and evaluate the same expressions in the same order,
//! so they are bitwise identical.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::loss::{bce, bce_grad_into, row_squared_errors};
use crate::mlp::Mlp;
use crate::optimizer::Optimizer;
use exathlon_linalg::{obs, Matrix};
use rand::rngs::StdRng;
use rand::Rng;

/// Reused per-batch buffers for the fused training step, sized once per
/// batch shape and reused across minibatches and epochs.
#[derive(Debug, Clone, Default)]
struct GanWorkspace {
    /// Latent draws, `n x latent`.
    z: Matrix,
    /// All-ones labels, `n x 1`.
    ones: Matrix,
    /// All-zeros labels, `n x 1`.
    zeros: Matrix,
    /// `(x, z)` pair concatenation, `n x (in + latent)`.
    pair: Matrix,
    /// BCE gradient at the discriminator head, `n x 1`.
    head_grad: Matrix,
    /// Gradient at the discriminator feature output, `n x hidden/2`.
    feat_grad: Matrix,
    /// Gradient at the discriminator input pair, `n x (in + latent)`.
    g_in: Matrix,
    /// `x`-slot slice of [`GanWorkspace::g_in`], `n x in`.
    gx: Matrix,
    /// `z`-slot slice of [`GanWorkspace::g_in`], `n x latent`.
    gz: Matrix,
    /// Sink for encoder/generator input gradients (unused downstream).
    eg_sink: Matrix,
}

impl GanWorkspace {
    /// Bytes currently staged in the workspace buffers.
    fn bytes(&self) -> usize {
        8 * (self.z.as_slice().len()
            + self.ones.as_slice().len()
            + self.zeros.as_slice().len()
            + self.pair.as_slice().len()
            + self.head_grad.as_slice().len()
            + self.feat_grad.as_slice().len()
            + self.g_in.as_slice().len()
            + self.gx.as_slice().len()
            + self.gz.as_slice().len()
            + self.eg_sink.as_slice().len())
    }
}

/// A trained (or training) BiGAN.
#[derive(Debug, Clone)]
pub struct BiGan {
    /// Encoder `x -> z`.
    encoder: Mlp,
    /// Generator `z -> x`.
    generator: Mlp,
    /// Discriminator feature extractor over `(x, z)` pairs.
    d_features: Mlp,
    /// Discriminator head: features -> probability.
    d_head: Dense,
    in_dim: usize,
    latent: usize,
    /// Global step counter for the discriminator head's Adam state.
    step: u64,
    ws: GanWorkspace,
}

/// Losses from one adversarial training step.
#[derive(Debug, Clone, Copy)]
pub struct GanLosses {
    /// Discriminator loss (BCE on real + fake pairs).
    pub d_loss: f64,
    /// Encoder+generator adversarial loss.
    pub eg_loss: f64,
}

impl BiGan {
    /// Build a BiGAN for `in_dim` inputs with `latent` latent units and the
    /// given hidden width for all three networks.
    pub fn new(in_dim: usize, latent: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let encoder = Mlp::new(
            &[(in_dim, hidden, Activation::LeakyRelu), (hidden, latent, Activation::Identity)],
            rng,
        );
        let generator = Mlp::new(
            &[(latent, hidden, Activation::LeakyRelu), (hidden, in_dim, Activation::Identity)],
            rng,
        );
        let d_features = Mlp::new(
            &[
                (in_dim + latent, hidden, Activation::LeakyRelu),
                (hidden, hidden / 2, Activation::LeakyRelu),
            ],
            rng,
        );
        let d_head = Dense::new(hidden / 2, 1, Activation::Sigmoid, rng);
        Self {
            encoder,
            generator,
            d_features,
            d_head,
            in_dim,
            latent,
            step: 0,
            ws: GanWorkspace::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent
    }

    /// Bytes currently held by the reusable training workspaces (the
    /// GAN-level buffers plus each sub-network's).
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
            + self.encoder.workspace_bytes()
            + self.generator.workspace_bytes()
            + self.d_features.workspace_bytes()
            + self.d_head.workspace_bytes()
    }

    fn concat(x: &Matrix, z: &Matrix) -> Matrix {
        assert_eq!(x.rows(), z.rows(), "pair batch mismatch");
        // Straight into the output buffer — the per-row `Vec` staging this
        // replaced doubled the copy for every discriminator input batch.
        let mut out = Matrix::zeros(x.rows(), x.cols() + z.cols());
        for i in 0..x.rows() {
            let row = out.row_mut(i);
            row[..x.cols()].copy_from_slice(x.row(i));
            row[x.cols()..].copy_from_slice(z.row(i));
        }
        out
    }

    /// [`BiGan::concat`] into a caller-reused buffer — same row copies,
    /// no fresh allocation once `out` has grown to the batch shape.
    fn concat_into(x: &Matrix, z: &Matrix, out: &mut Matrix) {
        assert_eq!(x.rows(), z.rows(), "pair batch mismatch");
        out.reset(x.rows(), x.cols() + z.cols());
        for i in 0..x.rows() {
            let row = out.row_mut(i);
            row[..x.cols()].copy_from_slice(x.row(i));
            row[x.cols()..].copy_from_slice(z.row(i));
        }
    }

    /// Split a pair gradient into its `x` and `z` column blocks, into
    /// caller-reused buffers — the column ranges are contiguous, so each
    /// row splits with two slice copies.
    fn split_grad_into(&self, g: &Matrix, gx: &mut Matrix, gz: &mut Matrix) {
        gx.reset(g.rows(), self.in_dim);
        gz.reset(g.rows(), self.latent);
        for i in 0..g.rows() {
            let row = g.row(i);
            gx.row_mut(i).copy_from_slice(&row[..self.in_dim]);
            gz.row_mut(i).copy_from_slice(&row[self.in_dim..self.in_dim + self.latent]);
        }
    }

    /// Discriminator probability for a batch of `(x, z)` pairs (inference).
    pub fn discriminate(&self, x: &Matrix, z: &Matrix) -> Matrix {
        let f = self.d_features.predict(&Self::concat(x, z));
        self.d_head.forward_inference(&f)
    }

    /// Discriminator feature vector for a batch of `(x, z)` pairs.
    pub fn features(&self, x: &Matrix, z: &Matrix) -> Matrix {
        self.d_features.predict(&Self::concat(x, z))
    }

    /// Encode a batch.
    pub fn encode(&self, x: &Matrix) -> Matrix {
        self.encoder.predict(x)
    }

    /// Generate a batch from latent codes.
    pub fn generate(&self, z: &Matrix) -> Matrix {
        self.generator.predict(z)
    }

    /// Reconstruct a batch through encoder then generator.
    pub fn reconstruct(&self, x: &Matrix) -> Matrix {
        self.generate(&self.encode(x))
    }

    /// One adversarial training step on a batch of real samples.
    pub fn train_batch(&mut self, x: &Matrix, opt: &Optimizer, rng: &mut StdRng) -> GanLosses {
        let mut ws = std::mem::take(&mut self.ws);
        let losses = self.train_batch_ws(x, opt, rng, &mut ws);
        self.ws = ws;
        losses
    }

    /// One discriminator forward/backward pass over the pair staged in
    /// `ws.pair` against `target`; returns the BCE loss. Gradients
    /// accumulate into `d_features`/`d_head` (the caller zeroes them).
    fn d_pass(&mut self, target: &Matrix, ws: &mut GanWorkspace) -> f64 {
        self.d_features.forward_cached(&ws.pair);
        self.d_head.forward_cached(self.d_features.output());
        let loss = bce(self.d_head.output(), target);
        bce_grad_into(self.d_head.output(), target, &mut ws.head_grad);
        self.d_head.backward_into(&ws.head_grad, &mut ws.feat_grad);
        self.d_features.backward_into(&ws.feat_grad, &mut ws.g_in);
        loss
    }

    /// The fused training step: all intermediates staged in `ws`, one
    /// encoder and one generator forward per batch (their cached
    /// activations stay valid across the D and E/G passes because their
    /// weights only update at the end). Bitwise identical to the
    /// allocating oracle in the tests.
    fn train_batch_ws(
        &mut self,
        x: &Matrix,
        opt: &Optimizer,
        rng: &mut StdRng,
        ws: &mut GanWorkspace,
    ) -> GanLosses {
        let n = x.rows();
        // Latent draws in the exact `Matrix::from_fn` order (row-major),
        // so the RNG stream matches the naive path draw for draw.
        ws.z.reset(n, self.latent);
        for v in ws.z.as_mut_slice().iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        ws.ones.reset(n, 1);
        ws.ones.as_mut_slice().fill(1.0);
        ws.zeros.reset(n, 1);
        ws.zeros.as_mut_slice().fill(0.0);

        // --- Discriminator step: real (x, E(x)) -> 1, fake (G(z), z) -> 0.
        // These forwards double as the cached activations for the E/G
        // step below: E and G only update at the end of the batch, so the
        // caches stay bitwise-valid and one forward per network is saved.
        self.encoder.forward_cached(x);
        self.generator.forward_cached(&ws.z);
        self.d_features.zero_grad();
        self.d_head.zero_grad();
        let mut d_loss = 0.0;
        Self::concat_into(x, self.encoder.output(), &mut ws.pair);
        d_loss += {
            let ones = std::mem::take(&mut ws.ones);
            let l = self.d_pass(&ones, ws);
            ws.ones = ones;
            l
        };
        Self::concat_into(self.generator.output(), &ws.z, &mut ws.pair);
        d_loss += {
            let zeros = std::mem::take(&mut ws.zeros);
            let l = self.d_pass(&zeros, ws);
            ws.zeros = zeros;
            l
        };
        self.d_features.apply_step(opt);
        self.step += 1;
        {
            let step = self.step;
            let mut head_params = self.d_head.params_mut();
            opt.step(&mut head_params, step);
        }

        // --- Encoder+generator step: swap labels to fool D.
        self.encoder.zero_grad();
        self.generator.zero_grad();
        let mut eg_loss = 0.0;

        // Real pair should look fake to D: gradient flows into E via z slot.
        {
            self.d_features.zero_grad();
            self.d_head.zero_grad();
            Self::concat_into(x, self.encoder.output(), &mut ws.pair);
            eg_loss += {
                let zeros = std::mem::take(&mut ws.zeros);
                let l = self.d_pass(&zeros, ws);
                ws.zeros = zeros;
                l
            };
            self.split_grad_into(&ws.g_in, &mut ws.gx, &mut ws.gz);
            self.encoder.backward_into(&ws.gz, &mut ws.eg_sink);
        }
        // Fake pair should look real to D: gradient flows into G via x slot.
        {
            self.d_features.zero_grad();
            self.d_head.zero_grad();
            Self::concat_into(self.generator.output(), &ws.z, &mut ws.pair);
            eg_loss += {
                let ones = std::mem::take(&mut ws.ones);
                let l = self.d_pass(&ones, ws);
                ws.ones = ones;
                l
            };
            self.split_grad_into(&ws.g_in, &mut ws.gx, &mut ws.gz);
            self.generator.backward_into(&ws.gx, &mut ws.eg_sink);
        }
        // Discard the D gradients accumulated while backpropagating through
        // it; only E and G update here.
        self.d_features.zero_grad();
        self.d_head.zero_grad();
        self.encoder.apply_step(opt);
        self.generator.apply_step(opt);

        obs::counter("train.workspace_bytes", ws.bytes() as u64);
        GanLosses { d_loss: d_loss / 2.0, eg_loss: eg_loss / 2.0 }
    }

    /// Train for `epochs` over the rows of `data` with shuffled
    /// minibatches; returns the last epoch's losses.
    pub fn fit(
        &mut self,
        data: &Matrix,
        epochs: usize,
        batch_size: usize,
        opt: &Optimizer,
        rng: &mut StdRng,
    ) -> GanLosses {
        use rand::seq::SliceRandom;
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut last = GanLosses { d_loss: f64::NAN, eg_loss: f64::NAN };
        // Reused minibatch scratch, as in `Mlp::fit`.
        let mut xb = Matrix::zeros(0, 0);
        for _ in 0..epochs {
            let _sp = obs::span("train", "BiGan.epoch");
            order.shuffle(rng);
            for chunk in order.chunks(batch_size) {
                data.select_rows_into(chunk, &mut xb);
                last = self.train_batch(&xb, opt, rng);
            }
            obs::counter("train.samples", data.rows() as u64);
            obs::add_records("train", data.rows() as u64);
        }
        last
    }

    /// The Zenati et al. outlier score for each row of `x`: the average of
    /// the `(E, G)` reconstruction error and the discriminator feature loss
    /// between the input pair and its reconstruction pair.
    pub fn outlier_scores(&self, x: &Matrix) -> Vec<f64> {
        let z = self.encode(x);
        let recon = self.generate(&z);
        let rec_err = row_squared_errors(&recon, x);
        let f_real = self.features(x, &z);
        let f_recon = self.features(&recon, &z);
        let feat_err = row_squared_errors(&f_recon, &f_real);
        rec_err.iter().zip(&feat_err).map(|(r, f)| 0.5 * r + 0.5 * f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::bce_grad;
    use rand::SeedableRng;

    impl BiGan {
        fn split_grad(&self, g: &Matrix) -> (Matrix, Matrix) {
            let gx = g.select_cols(&(0..self.in_dim).collect::<Vec<_>>());
            let gz = g.select_cols(&(self.in_dim..self.in_dim + self.latent).collect::<Vec<_>>());
            (gx, gz)
        }

        /// The textbook allocating training step: fresh latent, label, pair
        /// and gradient matrices on every call. The oracle of
        /// [`BiGan::train_batch_ws`].
        fn train_batch_naive(
            &mut self,
            x: &Matrix,
            opt: &Optimizer,
            rng: &mut StdRng,
        ) -> GanLosses {
            let n = x.rows();
            let z = Matrix::from_fn(n, self.latent, |_, _| rng.gen_range(-1.0..1.0));
            let ones = Matrix::filled(n, 1, 1.0);
            let zeros = Matrix::filled(n, 1, 0.0);

            // --- Discriminator step: real (x, E(x)) -> 1, fake (G(z), z) -> 0.
            let e_x = self.encoder.predict(x);
            let g_z = self.generator.predict(&z);
            self.d_features.zero_grad();
            self.d_head.zero_grad();
            let mut d_loss = 0.0;
            for (input, target) in
                [(Self::concat(x, &e_x), &ones), (Self::concat(&g_z, &z), &zeros)]
            {
                let f = self.d_features.forward(&input);
                let p = self.d_head.forward(&f);
                d_loss += bce(&p, target);
                let g = self.d_head.backward(&bce_grad(&p, target));
                let _ = self.d_features.backward(&g);
            }
            self.d_features.apply_step(opt);
            self.step += 1;
            {
                let step = self.step;
                let mut head_params = self.d_head.params_mut();
                opt.step(&mut head_params, step);
            }

            // --- Encoder+generator step: swap labels to fool D.
            self.encoder.zero_grad();
            self.generator.zero_grad();
            let mut eg_loss = 0.0;

            // Real pair should look fake to D: gradient flows into E via z slot.
            let e_x = self.encoder.forward(x);
            {
                self.d_features.zero_grad();
                self.d_head.zero_grad();
                let f = self.d_features.forward(&Self::concat(x, &e_x));
                let p = self.d_head.forward(&f);
                eg_loss += bce(&p, &zeros);
                let g = self.d_head.backward(&bce_grad(&p, &zeros));
                let g_in = self.d_features.backward(&g);
                let (_, gz) = self.split_grad(&g_in);
                let _ = self.encoder.backward(&gz);
            }
            // Fake pair should look real to D: gradient flows into G via x slot.
            let g_z = self.generator.forward(&z);
            {
                self.d_features.zero_grad();
                self.d_head.zero_grad();
                let f = self.d_features.forward(&Self::concat(&g_z, &z));
                let p = self.d_head.forward(&f);
                eg_loss += bce(&p, &ones);
                let g = self.d_head.backward(&bce_grad(&p, &ones));
                let g_in = self.d_features.backward(&g);
                let (gx, _) = self.split_grad(&g_in);
                let _ = self.generator.backward(&gx);
            }
            // Discard the D gradients accumulated while backpropagating through
            // it; only E and G update here.
            self.d_features.zero_grad();
            self.d_head.zero_grad();
            self.encoder.apply_step(opt);
            self.generator.apply_step(opt);

            GanLosses { d_loss: d_loss / 2.0, eg_loss: eg_loss / 2.0 }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    /// Normal data: points near the line x1 = x0 in [0, 1].
    fn normal_batch(n: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_rows(
            &(0..n)
                .map(|_| {
                    let t: f64 = rng.gen_range(0.0..1.0);
                    vec![t, t + rng.gen_range(-0.05..0.05)]
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn shapes() {
        let gan = BiGan::new(4, 2, 8, &mut rng());
        assert_eq!(gan.in_dim(), 4);
        assert_eq!(gan.latent_dim(), 2);
        let x = Matrix::from_vec(3, 4, vec![0.1; 12]);
        let z = gan.encode(&x);
        assert_eq!(z.shape(), (3, 2));
        let r = gan.reconstruct(&x);
        assert_eq!(r.shape(), (3, 4));
        let p = gan.discriminate(&x, &z);
        assert_eq!(p.shape(), (3, 1));
        assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_step_returns_finite_losses() {
        let mut r = rng();
        let mut gan = BiGan::new(2, 2, 8, &mut r);
        let x = normal_batch(16, &mut r);
        let losses = gan.train_batch(&x, &Optimizer::adam(0.001), &mut r);
        assert!(losses.d_loss.is_finite());
        assert!(losses.eg_loss.is_finite());
    }

    /// The fused workspace step must match the retained allocating step
    /// bitwise: same losses, same updated parameters, same RNG stream.
    #[test]
    fn fused_step_matches_allocating_reference_bitwise() {
        let mut r = rng();
        let mut fused = BiGan::new(2, 2, 8, &mut r);
        let mut reference = fused.clone();
        let opt = Optimizer::adam(0.001);

        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        for round in 0..3 {
            let x = normal_batch(9, &mut r);
            let mut ws = std::mem::take(&mut fused.ws);
            let la = fused.train_batch_ws(&x, &opt, &mut rng_a, &mut ws);
            fused.ws = ws;
            let lb = reference.train_batch_naive(&x, &opt, &mut rng_b);
            assert_eq!(la.d_loss.to_bits(), lb.d_loss.to_bits(), "d_loss round {round}");
            assert_eq!(la.eg_loss.to_bits(), lb.eg_loss.to_bits(), "eg_loss round {round}");
        }
        // Same RNG position afterwards (same number of draws consumed).
        assert_eq!(rng_a.gen_range(0.0..1.0_f64), rng_b.gen_range(0.0..1.0_f64));
        // Identical trained weights -> identical scores.
        let probe = normal_batch(7, &mut r);
        let sa = fused.outlier_scores(&probe);
        let sb = reference.outlier_scores(&probe);
        for (a, b) in sa.iter().zip(&sb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn anomalies_score_higher_after_training() {
        let mut r = rng();
        let mut gan = BiGan::new(2, 1, 16, &mut r);
        let train = normal_batch(256, &mut r);
        gan.fit(&train, 60, 32, &Optimizer::adam(0.002), &mut r);

        let normal = normal_batch(50, &mut r);
        let anomalous = Matrix::from_rows(
            &(0..50)
                .map(|_| {
                    let t: f64 = r.gen_range(0.0..1.0);
                    vec![t, 3.0 + t] // far off the manifold
                })
                .collect::<Vec<_>>(),
        );
        let sn: f64 = gan.outlier_scores(&normal).iter().sum::<f64>() / 50.0;
        let sa: f64 = gan.outlier_scores(&anomalous).iter().sum::<f64>() / 50.0;
        assert!(sa > sn * 1.5, "anomalies should score higher: normal {sn} vs anomalous {sa}");
    }

    #[test]
    fn reconstruction_tracks_training_data() {
        let mut r = rng();
        let mut gan = BiGan::new(2, 1, 16, &mut r);
        let train = normal_batch(256, &mut r);
        gan.fit(&train, 60, 32, &Optimizer::adam(0.002), &mut r);
        let x = normal_batch(20, &mut r);
        let recon = gan.reconstruct(&x);
        let err: f64 = row_squared_errors(&recon, &x).iter().sum::<f64>() / 20.0;
        assert!(err < 1.0, "reconstruction error too high: {err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut r = StdRng::seed_from_u64(77);
            let mut gan = BiGan::new(2, 1, 8, &mut r);
            let x = normal_batch(32, &mut r);
            let l = gan.train_batch(&x, &Optimizer::adam(0.001), &mut r);
            (l.d_loss, l.eg_loss)
        };
        assert_eq!(run(), run());
    }
}
